import numpy as np
import pytest

from otlab import numerics, security, seeding, verify

# Not a multiple of the block size, so the last block is short.
N = 2 * numerics.DIRICHLET_BLOCK + 37


class _Inflated:
    """A generator whose Dirichlet rows are scaled by 1.6.

    Many inflated rows break the circle constraints and the tradeoff
    bounds, so the violation counts of the block sweeps are not all zero.
    """

    def __init__(self, rng):
        self.rng = rng

    def dirichlet(self, alpha, size):
        return 1.6 * self.rng.dirichlet(alpha, size=size)


def _squares(seed, suite, inflate):
    rng = seeding.substream_rng(seed, seeding.COMPONENTS["verify"], suite)
    return (_Inflated(rng) if inflate else rng).dirichlet([1.0, 1.0, 1.0], size=N)


def _prop2_one_shot(squares):
    """``max_lhs`` and the sample violations from all samples at once: the reference."""
    a, b, c = (np.sqrt(squares[:, i]) for i in range(3))
    lhs1 = (a * c) ** 2 + (a * b) ** 2
    lhs2 = (b * c) ** 2 + (a * b) ** 2
    return (float(max(lhs1.max(), lhs2.max())),
            int(np.sum(lhs1 > 0.25 + 1e-12) + np.sum(lhs2 > 0.25 + 1e-12)))


def _prop3_one_shot(squares):
    """The prop3 report from one [n, 4] margin array: the reference."""
    margins = security.tradeoff_bound_margins(*security._triple_from_squares(*squares.T))
    margins = margins[~np.isnan(margins)]
    return {"applicable": margins.size // 2,
            "min_margin": float(margins.min()) if margins.size else None,
            "samples": len(squares), "violations": int(np.sum(margins < -1e-9))}


@pytest.fixture(params=[False, True], ids=["dirichlet", "inflated"])
def inflate(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(verify, "substream_rng",
                            lambda *key: _Inflated(seeding.substream_rng(*key)))
    return request.param


@pytest.mark.parametrize("seed", [7, 404])
def test_prop2_blocks_equal_one_shot_reference(inflate, seed):
    report = verify.prop2(N, seed)
    max_lhs, violations = _prop2_one_shot(_squares(seed, 2, inflate))
    assert (report["max_lhs"], report["violations"]) == (max_lhs, violations)
    assert (violations > 0) == inflate


@pytest.mark.parametrize("seed", [7, 404])
def test_prop3_blocks_equal_one_shot_reference(inflate, seed):
    report = verify.prop3(N, seed)
    assert report == _prop3_one_shot(_squares(seed, 3, inflate))
    assert (report["violations"] > 0) == inflate


def test_prop2_reports_the_closed_form_locus():
    report = verify.prop2(1000, 7)
    assert report["equality_a2"] == 0.5 and report["violations"] == 0


def test_prop2_counts_a_misplaced_locus(monkeypatch):
    monkeypatch.setattr(verify, "_slice_radius", lambda a2: a2 * (0.6 - a2))
    report = verify.prop2(1000, 7)
    assert report["equality_a2"] == 0.5 and report["violations"] == 1
