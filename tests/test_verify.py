import numpy as np
import pytest
import scipy.stats

from otlab import numerics, security, seeding, verify
from qutrit_oracles import (TETRAHEDRON, draw_povm_block, erlang_rows, example1_elements,
                            lemma1_images, sign_state_information, sign_state_probabilities)

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


# Grid sizes ending inside, at and just past a block edge.
_BLOCK_EDGES = [2, numerics.DIRICHLET_BLOCK - 1, numerics.DIRICHLET_BLOCK,
                numerics.DIRICHLET_BLOCK + 1, 3 * numerics.DIRICHLET_BLOCK + 5]


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_infodelta_blocks_equal_one_shot_reference(monkeypatch, n):
    grid = np.linspace(0.001, 0.099, n)
    report = security.infodelta_check(grid)
    assert verify.infodelta(n, 5) == {"min_margin": report.min_margin, "samples": n,
                                      "violations": int(np.sum(~report.point_ok))}
    # The blocks' points are the linspace grid's, bit for bit.
    blocks = []
    check = security.infodelta_check

    def recorded(delta):
        blocks.append(delta)
        return check(delta)

    monkeypatch.setattr(security, "infodelta_check", recorded)
    verify.infodelta(n, 5)
    assert all(len(block) <= numerics.DIRICHLET_BLOCK for block in blocks)
    assert np.concatenate(blocks).tobytes() == grid.tobytes()


@pytest.mark.parametrize("n", _BLOCK_EDGES)
@pytest.mark.parametrize("lo,hi", [(0.001, 0.099), (0.0, np.pi / 2), (0.05, 0.95), (0.1, 1.4)])
def test_grid_blocks_concatenate_to_linspace(lo, hi, n):
    blocks = list(verify._grid_blocks(lo, hi, n))
    assert all(len(block) <= numerics.DIRICHLET_BLOCK for block in blocks)
    assert np.concatenate(blocks).tobytes() == np.linspace(lo, hi, n).tobytes()


def _example_grids(samples):
    """Example 1's and Example 3's whole grids: angles and rows, one pair per identity."""
    alphas = np.linspace(0.0, np.pi / 2, max(2, samples))
    split_rows = (1.0 / np.sqrt(2.0)) * np.column_stack(
        [np.ones_like(alphas), np.cos(alphas), np.sin(alphas)])
    a_grid = np.linspace(0.05, 0.95, max(2, samples // 2))
    thetas = np.linspace(0.1, 1.4, len(a_grid))
    b_prime = np.sqrt(1 - a_grid ** 2)
    value_rows = np.column_stack([a_grid, b_prime * np.cos(thetas), b_prime * np.sin(thetas)])
    return (alphas, split_rows), (thetas, value_rows), a_grid


def _examples_one_shot(samples):
    """The examples report from whole ``np.linspace`` grids, one pass each: the reference."""
    (alphas, split_rows), (thetas, value_rows), a_grid = _example_grids(samples)
    info = verify._example1_information(alphas, split_rows)
    split_dev = np.maximum(np.abs(info[:, 0] - np.cos(alphas) ** 2),
                           np.abs(info[:, 0] + info[:, 1] - 1.0))
    info = verify._example1_information(thetas, value_rows)
    closed = np.array([security.example3_value(a) for a in a_grid])
    value_dev = np.abs(closed - (info[:, 0] + info[:, 1]))
    center = abs(security.example3_value(1 / np.sqrt(2)) - 1.0)
    worst = max(float(split_dev.max()), float(value_dev.max()), center)
    violations = int(np.sum(split_dev > 1e-10) + np.sum(value_dev > 1e-9)) + int(center > 1e-10)
    return {"max_deviation": worst, "samples": samples, "violations": violations}


@pytest.mark.parametrize("samples", [2, 3, 2 * numerics.DIRICHLET_BLOCK - 2,
                                     2 * numerics.DIRICHLET_BLOCK, 2 * numerics.DIRICHLET_BLOCK + 2,
                                     3 * numerics.DIRICHLET_BLOCK + 5])
def test_examples_blocks_equal_one_shot_reference(monkeypatch, samples):
    want = _examples_one_shot(samples)
    rows = []
    information = security._label_information

    def recorded(probs):
        rows.append(len(probs))
        return information(probs)

    monkeypatch.setattr(security, "_label_information", recorded)
    assert verify.examples(samples, 7) == want
    assert max(rows) <= numerics.DIRICHLET_BLOCK
    assert sum(rows) == max(2, samples) + max(2, samples // 2)


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_examples_frames_match_element_oracle(n):
    # Example 1's information off its frames, against its elements contracted with the states.
    for angles, rows in _example_grids(n)[:2]:
        got = verify._example1_information(angles, rows)
        want = sign_state_information(example1_elements(angles), rows)
        assert np.abs(got - want).max() <= 1e-14


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

    Zeroing the last row of the first POVM's seeds makes their sum
    singular, so ``draw_povm_block`` rejects that POVM and draws it again,
    first in its batch of redrawn POVMs; 100 such draws in a row end in an
    identity element.  Every other call goes to the wrapped generator.
    """

    def __init__(self, rng, bad=()):
        self.rng, self.bad, self.normal_calls = rng, set(bad), 0

    def normal(self, size):
        z = self.rng.normal(size=size)
        if self.normal_calls in self.bad:
            z[0, ..., -1, :] = 0.0
        self.normal_calls += 1
        return z

    def __getattr__(self, name):
        return getattr(self.rng, name)


# Per suite: its substream index, whether its POVMs are real, and its POVMs per block.
_SUITES = {"prop1": (1, False, lambda triples: verify.SAMPLE_BLOCK),
           "lemma1": (4, True, lambda triples: max(1, verify.SAMPLE_BLOCK * 10 // triples))}


def _drawn_blocks(rng, suite, samples, triples):
    """The suite's blocks, drawn here call by call: sizes, elements and squares per block.

    Per block: the POVM sizes, lemma1's ranks, the amplitude rows (by the
    one-call reference ``erlang_rows``), then the elements.
    """
    _, real, block = _SUITES[suite]
    for start in range(0, samples, block(triples)):
        s = min(block(triples), samples - start)
        sizes = rng.integers(3, 8, size=s)
        ranks = np.where(rng.random(s) < 0.5, 1, 3) if real else np.ones(s, dtype=int)
        squares = erlang_rows(rng, 1, s * triples).reshape(s, triples, 3)
        yield sizes, draw_povm_block(rng, 3, sizes, real, ranks), squares


def _live(povm):
    """A POVM's elements ``[N, 3, 3]`` without its zero padding."""
    return povm[povm.any(axis=(-2, -1))]


def _prop1_per_povm(blocks, samples):
    """The prop1 report, each POVM of the drawn blocks evaluated alone: the reference."""
    info = np.array([sign_state_information(_live(povm), np.sqrt(squares[0]))
                     for _, elements, block_squares in blocks
                     for povm, squares in zip(elements, block_squares)])
    i_y, i_r, i_yxr = info.T
    margins = 1.0 - (i_y[:, None] + np.column_stack([i_r, i_yxr, np.maximum(i_r, i_yxr)]))
    return {"min_margin": float(margins.min()), "samples": samples,
            "violations": int(np.any(margins < -1e-9, axis=1).sum())}


def _lemma1_per_povm(blocks, samples):
    """The lemma1 report, each POVM of the drawn blocks evaluated alone: the reference."""
    max_dev, max_mi, violations = 0.0, 0.0, 0
    for _, elements, block_squares in blocks:
        for povm, squares in zip(elements, block_squares):
            povm, amplitudes = _live(povm), np.sqrt(squares)
            exact = lemma1_images(povm, amplitudes, "exact")
            probs2 = np.einsum("pnjk,skj->psn", exact, TETRAHEDRON).real
            dev = np.abs(sign_state_probabilities(povm, amplitudes) - probs2).max(
                axis=(1, 2))
            joint_mi = numerics.classical_mutual_information(0.25 * probs2)
            max_dev = max(max_dev, float(dev.max()))
            max_mi = max(max_mi, float(joint_mi.max()))
            violations += int(np.sum((dev > 1e-10) | (joint_mi > 1.0 + 1e-9)
                                     | ~numerics.is_measurement(exact)))
            psd = lemma1_images(povm, amplitudes, "psd")
            min_eig = np.linalg.eigvalsh(psd).min(axis=(1, 2))
            violations += int(np.sum((min_eig < numerics.EIG_FLOOR)
                                     | ~numerics.is_measurement(psd)))
    return {"max_joint_mi": max_mi, "max_statistics_deviation": max_dev,
            "samples": samples, "violations": violations}


_PER_POVM = {"prop1": _prop1_per_povm, "lemma1": _lemma1_per_povm}


def _suite_and_per_povm(monkeypatch, suite, samples, seed, bad=(), triples=10):
    """The suite's report and the per-POVM reference's on the same drawn blocks.

    Both run on a ``_Degenerate`` of the suite's substream.  Also gives the
    drawn blocks and whether both left their generators in the same state.
    """
    used = []

    def rng_of(*key):
        used.append(_Degenerate(seeding.substream_rng(*key), bad))
        return used[-1]

    monkeypatch.setattr(verify, "substream_rng", rng_of)
    kwargs = {"params_per_povm": triples} if suite == "lemma1" else {}
    report = verify.SUITES[suite](samples, seed, **kwargs)
    rng = _Degenerate(seeding.substream_rng(seed, seeding.COMPONENTS["verify"], _SUITES[suite][0]),
                      bad)
    blocks = list(_drawn_blocks(rng, suite, samples, triples if suite == "lemma1" else 1))
    same_state = used[0].rng.bit_generator.state == rng.rng.bit_generator.state
    return report, _PER_POVM[suite](blocks, samples), blocks, same_state


def _assert_reports_match(got, want):
    """Counts equal and floats within 1e-12: padding moves only the last bits of sums."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=0.0, abs=1e-12), key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("block", [verify.SAMPLE_BLOCK, 7])
@pytest.mark.parametrize("suite,samples,seed,triples", [
    ("prop1", 60, 5, 1), ("prop1", 60, 2024, 1), ("lemma1", 25, 7, 10), ("lemma1", 25, 11, 10),
    ("lemma1", 25, 11, 3)])
def test_block_sweep_equals_per_povm_reference(monkeypatch, block, suite, samples, seed, triples):
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", block)
    got, want, blocks, same_state = _suite_and_per_povm(monkeypatch, suite, samples, seed,
                                                         triples=triples)
    _assert_reports_match(got, want)
    assert same_state
    sizes = np.concatenate([block_sizes for block_sizes, _, _ in blocks])
    assert len(sizes) == samples and set(sizes) == {3, 4, 5, 6, 7}


@pytest.mark.parametrize("suite", ["prop1", "lemma1"])
@pytest.mark.parametrize("bad", [(0,), range(100)], ids=["redrawn", "identity-element"])
def test_ill_conditioned_povm_is_redrawn(monkeypatch, suite, bad):
    got, want, blocks, same_state = _suite_and_per_povm(monkeypatch, suite, 20, 3, bad)
    _assert_reports_match(got, want)
    assert same_state and got["violations"] == 0
    (sizes, elements, _), = blocks
    # The first POVM's singular draws were all rejected: the last draw is
    # valid, and it has an identity element more only after 100 of them.
    assert numerics.is_measurement(elements[0])
    grown = elements.any(axis=(-2, -1)).sum(axis=1) - sizes
    assert grown.tolist() == [len(bad) == 100] + [0] * (len(sizes) - 1)


def test_povm_block_law():
    rng = np.random.default_rng(4040)
    # POVM sizes are uniform on 3..7 for both suites; lemma1's ranks are 1 or 3 with equal odds.
    for suite, samples in (("prop1", 10_000), ("lemma1", 10_000)):
        sizes, ranks = [], []
        for frames, _ in verify._povm_blocks(rng, samples, verify.SAMPLE_BLOCK, 1,
                                             real=_SUITES[suite][1]):
            elements = numerics._frame_elements(frames)
            live = elements.any(axis=(-2, -1))
            sizes.append(live.sum(axis=1))
            eigs = np.linalg.eigvalsh(elements[:, 0])
            ranks.append(np.where(eigs[:, 1] < 1e-9 * eigs[:, 2], 1, 3))
        counts = np.bincount(np.concatenate(sizes), minlength=8)[3:]
        assert counts.sum() == samples
        assert scipy.stats.chisquare(counts).pvalue > 1e-3
        ranks = np.concatenate(ranks)
        if suite == "prop1":
            assert np.all(ranks == 1)
        else:
            assert abs(np.mean(ranks == 1) - 0.5) <= 5.0 * np.sqrt(0.25 / samples)
    # Each element of an n-outcome POVM has mean trace d / n, real or
    # complex, at ranks 1 and 3; padding changes no information.
    for real in (False, True):
        for rank in (1, 3):
            sizes = rng.integers(3, 8, size=5000)
            elements = draw_povm_block(rng, 3, sizes, real, np.full(5000, rank))
            traces = np.trace(elements, axis1=-2, axis2=-1).real
            for n in range(3, 8):
                povms = traces[sizes == n, :n]
                se = povms.std(axis=0) / np.sqrt(len(povms))
                assert np.all(np.abs(povms.mean(axis=0) - 3.0 / n) <= 5.0 * se)
            amplitudes = np.sqrt(erlang_rows(rng, 1, 5000))
            padded = sign_state_information(elements, amplitudes)
            live = np.array([sign_state_information(_live(povm), amps)
                             for povm, amps in zip(elements, amplitudes)])
            assert np.abs(padded - live).max() <= 1e-15


def test_negative_psd_image_is_a_violation(monkeypatch):
    # A traceless shift between two live elements keeps the psd images
    # Hermitian and complete, so only the eigenvalue check can count it.
    # The shift is diag(2, -2), that is b_z + 2 and b_z - 2 in Bloch form.
    kernel = security._lemma1_bloch

    def negative(elements, amplitudes, variant="exact"):
        t, bloch = kernel(elements, amplitudes, variant)
        if variant == "psd":
            bloch[..., 0, 2] += 2.0
            bloch[..., 1, 2] -= 2.0
        return t, bloch

    monkeypatch.setattr(security, "_lemma1_bloch", negative)
    for triples in (10, 3):
        assert verify.lemma1(25, 11, params_per_povm=triples)["violations"] == 25 * triples


@pytest.mark.parametrize("suite,samples,kwargs,message", [
    ("prop1", 0, {}, "samples must be >= 1"),
    ("prop3", 0, {}, "samples must be >= 1"),
    ("lemma1", 0, {}, "samples must be >= 1"),
    ("lemma1", 3, {"params_per_povm": 0}, "params_per_povm must be >= 1"),
    ("prop1", True, {}, "samples must be an integer, not True"),
    ("prop3", 2.0, {}, "samples must be an integer, not 2.0"),
    ("lemma1", 3, {"params_per_povm": 2.5}, "params_per_povm must be an integer, not 2.5"),
])
def test_sampled_suites_reject_sizes_that_draw_nothing(suite, samples, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify.SUITES[suite](samples, 1, **kwargs)
