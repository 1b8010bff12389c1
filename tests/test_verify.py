import numpy as np
import pytest

from otlab import numerics, security, seeding, verify
from qutrit_oracles import erlang_rows

# Not a multiple of the block size, so the last block is short.
N = 2 * numerics.DIRICHLET_BLOCK + 37


# Rows of prop3's sampler are scaled by this when inflated: many inflated rows
# break the tradeoff bounds, so the violation counts are not all zero.
_INFLATION = 1.6


def _squares(seed, suite, inflate, n=N):
    rng = seeding.substream_rng(seed, seeding.COMPONENTS["verify"], suite)
    squares = erlang_rows(rng, 1, n)
    return _INFLATION * squares if inflate else squares


def _nan_margins(chi_y, chi_r, chi_yxr):
    """Margins ``[n, 4]`` of the tradeoff bounds, NaN where a bound does not apply.

    The dense form of ``security.tradeoff_bound_margins``, which gives the
    applicable rows only: columns 0-1 are chi_r's bound less chi_y and
    chi_yxr, columns 2-3 chi_yxr's bound less chi_r and chi_y.
    """
    margins = np.empty((len(chi_y), 4))
    for col, anchor, others in ((0, chi_r, (chi_y, chi_yxr)), (2, chi_yxr, (chi_r, chi_y))):
        delta = 1.0 - anchor
        applies = (delta >= 0.0) & (delta < 0.5)
        bound = security.binary_entropy(np.where(applies, delta, 0.0))
        for offset, other in enumerate(others):
            margins[:, col + offset] = np.where(applies, bound - other, np.nan)
    return margins


def _prop3_one_shot(squares):
    """The prop3 report from one [n, 4] margin array: the reference."""
    margins = _nan_margins(*security._triple_from_squares(*squares.T))
    margins = margins[~np.isnan(margins)]
    return {"applicable": margins.size // 2,
            "min_margin": float(margins.min()) if margins.size else None,
            "samples": len(squares), "violations": int(np.sum(margins < -1e-9))}


@pytest.fixture(params=[False, True], ids=["dirichlet", "inflated"])
def inflate(request, monkeypatch):
    if request.param:
        blocks = numerics.dirichlet_blocks
        monkeypatch.setattr(numerics, "dirichlet_blocks", lambda rng, shape, n: (
            _INFLATION * squares for squares in blocks(rng, shape, n)))
    return request.param


@pytest.mark.parametrize("seed", [7, 404])
def test_prop3_blocks_equal_one_shot_reference(inflate, seed):
    report = verify.prop3(N, seed)
    assert report == _prop3_one_shot(_squares(seed, 3, inflate))
    assert (report["violations"] > 0) == inflate


@pytest.mark.parametrize("n", [1, 37, numerics.DIRICHLET_BLOCK, numerics.DIRICHLET_BLOCK + 1, N])
def test_prop3_equals_one_shot_reference_at_block_edges(inflate, n):
    for seed in (1, 99):
        assert verify.prop3(n, seed) == _prop3_one_shot(_squares(seed, 3, inflate, n))


def test_prop3_takes_entropies_of_the_applicable_deltas_only(inflate, monkeypatch):
    seen = []

    def recorded(delta):
        seen.append(np.array(delta))
        return binary_entropy(delta)

    binary_entropy = security.binary_entropy
    monkeypatch.setattr(security, "binary_entropy", recorded)
    verify.prop3(N, 7)
    want = []
    squares = _squares(7, 3, inflate)
    for start in range(0, N, numerics.DIRICHLET_BLOCK):
        _, chi_r, chi_yxr = security._triple_from_squares(
            *squares[start:start + numerics.DIRICHLET_BLOCK].T)
        for anchor in (chi_r, chi_yxr):
            delta = 1.0 - anchor
            want.append(delta[(delta >= 0.0) & (delta < 0.5)])
    assert len(seen) == len(want) == 6
    assert all(got.tobytes() == w.tobytes() for got, w in zip(seen, want))
    # The dense form took the entropy of all 2 N deltas.
    assert 0 < sum(w.size for w in want) < 2 * N


def test_prop2_reports_the_closed_form_locus():
    # Both left sides are x (1 - x) at x = a^2 or b^2: the report is that
    # identity on the locus grid, whatever the seed and the sample count.
    grid = verify._LOCUS_GRID
    closed_form = {"equality_a2": 0.5, "max_lhs": float(np.max(grid * (1.0 - grid))),
                   "violations": 0}
    for samples, seed in [(1000, 7), (1, 0), (100_000, 303), (N, 2**64 - 1)]:
        assert verify.prop2(samples, seed) == {**closed_form, "samples": samples}
    assert closed_form["max_lhs"] == 0.25


class _Refusing:
    """A generator that raises on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the generator's {name} was used")


def test_prop2_draws_nothing(monkeypatch):
    monkeypatch.setattr(verify, "substream_rng", lambda *key: _Refusing())
    assert verify.prop2(N, 7)["violations"] == 0


def test_prop2_counts_a_misplaced_locus(monkeypatch):
    monkeypatch.setattr(verify, "_slice_radius", lambda a2: a2 * (0.6 - a2))
    report = verify.prop2(1000, 7)
    assert report["equality_a2"] == 0.5 and report["violations"] == 1


class _Degenerate:
    """A generator whose Gaussian draws number ``bad`` (counted from 0) lose a coordinate.

    Zeroing every seed's last row makes the seeds' sum singular, so
    ``draw_povm_seeds`` rejects that draw as ill-conditioned and draws
    again; 100 such draws in a row end in the identity element.  Every
    other call goes to the wrapped generator, so the stream is the same.
    """

    def __init__(self, rng, bad=()):
        self.rng, self.bad, self.normal_calls = rng, set(bad), 0

    def normal(self, size):
        z = self.rng.normal(size=size)
        if self.normal_calls in self.bad:
            z[..., -1, :] = 0.0
        self.normal_calls += 1
        return z

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _prop1_per_sample(rng, samples):
    """The prop1 report, each sample drawn and evaluated in turn: the reference.

    Also gives each POVM's requested and actual element counts.
    """
    info, sizes = np.empty((samples, 3)), []
    for i in range(samples):
        amplitudes = np.sqrt(rng.dirichlet([1.0, 1.0, 1.0]))
        n_out = int(rng.integers(3, 8))
        elements = numerics.normalize_povm_seeds(*numerics.draw_povm_seeds(3, n_out, rng, rank=1))
        info[i] = security.sign_state_information(elements, amplitudes)
        sizes.append((n_out, len(elements)))
    i_y, i_r, i_yxr = info.T
    margins = 1.0 - (i_y[:, None] + np.column_stack([i_r, i_yxr, np.maximum(i_r, i_yxr)]))
    return {"min_margin": float(margins.min()), "samples": samples,
            "violations": int(np.any(margins < -1e-9, axis=1).sum())}, sizes


def _lemma1_per_sample(rng, samples, params_per_povm=10):
    """The lemma1 report, each POVM drawn and evaluated in turn: the reference.

    Also gives each POVM's requested and actual element counts.
    """
    max_dev, max_mi, violations, sizes = 0.0, 0.0, 0, []
    for _ in range(samples):
        n_out = int(rng.integers(3, 8))
        rank = 1 if rng.random() < 0.5 else 3
        elements = numerics.normalize_povm_seeds(
            *numerics.draw_povm_seeds(3, n_out, rng, real=True, rank=rank))
        amplitudes = np.sqrt(rng.dirichlet([1.0, 1.0, 1.0], size=params_per_povm))
        exact = security.lemma1_images(elements, amplitudes, "exact")
        probs2 = np.einsum("pnjk,skj->psn", exact, security.TETRAHEDRON).real
        dev = np.abs(security.sign_state_probabilities(elements, amplitudes) - probs2).max(
            axis=(1, 2))
        joint_mi = numerics.classical_mutual_information(0.25 * probs2)
        max_dev = max(max_dev, float(dev.max()))
        max_mi = max(max_mi, float(joint_mi.max()))
        violations += int(np.sum((dev > 1e-10) | (joint_mi > 1.0 + 1e-9)
                                 | ~numerics.is_measurement(exact)))
        psd = security.lemma1_images(elements, amplitudes, "psd")
        min_eig = np.linalg.eigvalsh(psd).min(axis=(1, 2))
        violations += int(np.sum((min_eig < numerics.EIG_FLOOR) | ~numerics.is_measurement(psd)))
        sizes.append((n_out, len(elements)))
    return {"max_joint_mi": max_mi, "max_statistics_deviation": max_dev,
            "samples": samples, "violations": violations}, sizes


_PER_SAMPLE = {"prop1": (1, _prop1_per_sample), "lemma1": (4, _lemma1_per_sample)}


def _batched_and_per_sample(monkeypatch, suite, samples, seed, bad=()):
    """The suite's and the reference's report and final generator state.

    Also gives the reference's element counts and its number of Gaussian
    draws, which the suite must have made too.
    """
    used = []

    def rng_of(*key):
        used.append(_Degenerate(seeding.substream_rng(*key), bad))
        return used[-1]

    monkeypatch.setattr(verify, "substream_rng", rng_of)
    report = verify.SUITES[suite](samples, seed)
    index, reference = _PER_SAMPLE[suite]
    rng = _Degenerate(seeding.substream_rng(seed, seeding.COMPONENTS["verify"], index), bad)
    want, sizes = reference(rng, samples)
    assert used[0].normal_calls == rng.normal_calls
    return ((report, used[0].rng.bit_generator.state), (want, rng.rng.bit_generator.state),
            sizes, rng.normal_calls)


@pytest.mark.parametrize("block", [verify.SAMPLE_BLOCK, 7])
@pytest.mark.parametrize("suite,samples,seed", [
    ("prop1", 60, 5), ("prop1", 60, 2024), ("lemma1", 25, 7), ("lemma1", 25, 11)])
def test_batched_sweep_equals_per_sample_reference(monkeypatch, block, suite, samples, seed):
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", block)
    got, want, sizes, _ = _batched_and_per_sample(monkeypatch, suite, samples, seed)
    assert got == want
    assert {size for _, size in sizes} == {3, 4, 5, 6, 7}


@pytest.mark.parametrize("suite", ["prop1", "lemma1"])
@pytest.mark.parametrize("bad", [(9,), range(9, 109)], ids=["redrawn", "identity-element"])
def test_ill_conditioned_draw_is_redrawn_in_stream_order(monkeypatch, suite, bad):
    *_, clean_calls = _batched_and_per_sample(monkeypatch, suite, 20, 3)
    got, want, sizes, calls = _batched_and_per_sample(monkeypatch, suite, 20, 3, bad)
    assert got == want
    assert calls >= clean_calls + 1
    # 100 ill-conditioned draws in a row give one POVM an identity element more.
    grown = sum(size == n_out + 1 for n_out, size in sizes)
    assert grown == (len(bad) == 100) and all(size - n_out in (0, 1) for n_out, size in sizes)
