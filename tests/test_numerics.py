import numpy as np
import pytest

from otlab import numerics
from otlab.numerics import (
    DensityOperator,
    Ensemble,
    InvalidMeasurementError,
    InvalidOperatorError,
    InvalidStateError,
    Povm,
    PureState,
    classical_mutual_information,
    fidelity,
    haar_random_pure,
    holevo,
    mutual_information,
    partial_trace,
    random_povm,
    random_povm_elements,
    trace_distance,
    von_neumann_entropy,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


def _proj(vec):
    vec = np.asarray(vec, dtype=complex)
    return DensityOperator.from_matrix(np.outer(vec, vec.conj()))


def _random_mixed_pair(rng, dim=3):
    return (numerics.random_density_operator(dim, rng),
            numerics.random_density_operator(dim, rng))


class TestValidation:
    def test_pure_state_norm(self):
        with pytest.raises(InvalidStateError):
            PureState.from_amplitudes([1.0, 1.0, 0.0])
        state = PureState.from_amplitudes([SQRT_HALF, SQRT_HALF, 0.0])
        assert state.dim == 3

    def test_density_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(InvalidOperatorError):
            DensityOperator.from_matrix(mat)

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(InvalidOperatorError):
            DensityOperator.from_matrix(np.eye(2))

    def test_density_eigenvalue_floor(self):
        # Drift inside the tolerance band is accepted, genuine negativity is not.
        DensityOperator.from_matrix(np.diag([1.0 + 5e-11, 0.0, -5e-11]))
        with pytest.raises(InvalidOperatorError):
            DensityOperator.from_matrix(np.diag([1.00000001, 0.0, -1e-8]))

    def test_povm_completeness(self):
        with pytest.raises(InvalidMeasurementError):
            Povm.from_elements([np.eye(3) * 0.5])

    def test_povm_positivity(self):
        bad = [np.diag([1.5, 1.0, 1.0]), np.diag([-0.5, 0.0, 0.0])]
        with pytest.raises(InvalidMeasurementError):
            Povm.from_elements(bad)
        quasi = Povm.from_elements(bad, require_psd=False)
        assert not quasi.is_psd
        assert quasi.min_eigenvalue == pytest.approx(-0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
    def test_non_finite_entries_rejected(self, bad, entry):
        mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
        mat[entry] = bad
        with pytest.raises(InvalidOperatorError):
            DensityOperator.from_matrix(mat)
        elements = [np.diag([1.0, 0.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 1.0])]
        elements[0][entry] = bad
        with pytest.raises(InvalidMeasurementError):
            Povm.from_elements(elements)

    def test_ensemble_probabilities(self):
        op = _proj([1, 0, 0])
        with pytest.raises(ValueError):
            Ensemble(((0.6, op), (0.6, op)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ensemble_rejects_non_finite_probabilities(self, bad):
        op = DensityOperator.from_matrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="must be finite"):
            Ensemble(((bad, op), (0.5, op)))


class TestEntropy:
    def test_maximally_mixed_qutrit(self):
        rho = DensityOperator.from_matrix(np.eye(3) / 3)
        assert von_neumann_entropy(rho) == pytest.approx(np.log2(3), abs=1e-12)

    def test_pure_projector(self):
        assert von_neumann_entropy(_proj([SQRT_HALF, 0, SQRT_HALF])) == pytest.approx(0.0, abs=1e-12)

    def test_dyadic_spectrum(self):
        rho = DensityOperator.from_matrix(np.diag([0.5, 0.25, 0.25]))
        assert von_neumann_entropy(rho) == pytest.approx(1.5, abs=1e-12)

    def test_matches_shannon_on_random_diagonals(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            probs = rng.dirichlet([1.0, 1.0, 1.0])
            rho = DensityOperator.from_matrix(np.diag(probs))
            shannon = -np.sum(numerics.xlog2(probs))
            assert abs(von_neumann_entropy(rho) - shannon) < 1e-10

    def test_xlog2_conventions(self):
        values = np.array([np.nan, -1.0, 0.0, 1e-320, 0.25, 1.0, 2.0, np.inf])
        expected = [0.0, 0.0, 0.0, 1e-320 * np.log2(1e-320), -0.5, 0.0, 2.0, np.inf]
        assert np.array_equal(numerics.xlog2(values), expected)
        assert numerics.xlog2(np.nan) == 0.0
        assert numerics.xlog2(0.5) == -0.5 and isinstance(numerics.xlog2(0.5), float)
        # Bit for bit the masked product on random data with exact zeros.
        rng = np.random.default_rng(13)
        x = rng.random((40, 9)) * (rng.random((40, 9)) < 0.7)
        masked = np.zeros_like(x)
        masked[x > 0] = x[x > 0] * np.log2(x[x > 0])
        assert np.array_equal(numerics.xlog2(x), masked)

    def test_range(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            val = von_neumann_entropy(numerics.random_density_operator(3, rng))
            assert 0.0 <= val <= np.log2(3) + 1e-12


class TestTraceDistance:
    def test_identical(self):
        rho = _proj([1, 0, 0])
        assert trace_distance(rho, rho) == 0.0

    def test_half_for_overlapping_mixtures(self):
        rho = DensityOperator.from_matrix(np.diag([0.5, 0.0, 0.5]))
        sigma = DensityOperator.from_matrix(np.diag([0.0, 0.5, 0.5]))
        assert trace_distance(rho, sigma) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pure_pair_max(self):
        # y-ensemble members at a=b=1/sqrt2, c=0 are orthogonal pure states.
        plus = _proj([SQRT_HALF, SQRT_HALF, 0.0])
        minus = _proj([SQRT_HALF, -SQRT_HALF, 0.0])
        assert trace_distance(plus, minus) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a, b = _random_mixed_pair(rng)
            c = numerics.random_density_operator(3, rng)
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(_proj([1, 0]), _proj([1, 0, 0]))


class TestFidelity:
    def test_self(self):
        rho = numerics.random_density_operator(3, np.random.default_rng(1))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_half_overlap_pure_pair(self):
        tau00 = _proj([SQRT_HALF, 0.0, SQRT_HALF])
        tau10 = _proj([0.0, SQRT_HALF, SQRT_HALF])
        assert fidelity(tau00, tau10) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(_proj([1, 0, 0]), _proj([0, 1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_pure_inputs_overlap(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            u = haar_random_pure(3, rng).amplitudes
            v = haar_random_pure(3, rng).amplitudes
            f = fidelity(_proj(u), _proj(v))
            assert f == pytest.approx(abs(np.vdot(u, v)), abs=1e-10)

    def test_bound_against_trace_distance(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            rho, sigma = _random_mixed_pair(rng)
            d = trace_distance(rho, sigma)
            f = fidelity(rho, sigma)
            assert d <= np.sqrt(max(0.0, 1.0 - f * f)) + 1e-9


class TestPartialTrace:
    def test_product_state(self):
        state = np.kron([1, 0, 0], [0, 1, 0])
        reduced = partial_trace(_proj(state), (3, 3), keep=0)
        assert np.allclose(reduced.matrix, np.diag([1, 0, 0]), atol=1e-12)

    def test_bell_like(self):
        state = np.zeros(9)
        state[0] = state[4] = SQRT_HALF  # (|00> + |11>)/sqrt2 on two qutrits
        reduced = partial_trace(_proj(state), (3, 3), keep=1)
        assert np.allclose(reduced.matrix, np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    def test_entangled_half_half(self):
        state = np.zeros(9)
        state[0] = state[8] = SQRT_HALF  # (|00> + |22>)/sqrt2
        reduced = partial_trace(_proj(state), (3, 3), keep=1)
        assert np.allclose(reduced.matrix, np.diag([0.5, 0.0, 0.5]), atol=1e-12)

    def test_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            psi = haar_random_pure(9, rng)
            reduced = partial_trace(psi.projector(), (3, 3), keep=int(rng.integers(2)))
            assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
            assert reduced.eigenvalues().min() > -1e-10

    def test_bad_factorization(self):
        with pytest.raises(ValueError):
            partial_trace(_proj([1, 0, 0]), (2, 2), keep=0)


class TestHaar:
    def test_deterministic_and_normalized(self):
        a = haar_random_pure(9, np.random.default_rng(42))
        b = haar_random_pure(9, np.random.default_rng(42))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12

    def test_distinct_seeds(self):
        a = haar_random_pure(3, np.random.default_rng(1))
        b = haar_random_pure(3, np.random.default_rng(2))
        assert not np.allclose(a.amplitudes, b.amplitudes)

    def test_amplitude_moment(self):
        rng = np.random.default_rng(17)
        mean = np.mean([abs(haar_random_pure(3, rng).amplitudes[0]) ** 2
                        for _ in range(100_000)])
        assert abs(mean - 1.0 / 3.0) < 0.01

    def test_unitary_invariance(self):
        # The |<e0|psi>|^2 statistic must not move under a fixed rotation.
        rng = np.random.default_rng(18)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        raw, rotated = [], []
        for _ in range(50_000):
            psi = haar_random_pure(3, rng).amplitudes
            raw.append(abs(psi[0]) ** 2)
            rotated.append(abs((q @ psi)[0]) ** 2)
        assert abs(np.mean(raw) - np.mean(rotated)) < 0.01
        assert abs(np.var(raw) - np.var(rotated)) < 0.01

    def test_domain(self):
        with pytest.raises(ValueError):
            haar_random_pure(1, np.random.default_rng(0))


class TestInformation:
    def test_perfect_discrimination(self):
        ens = Ensemble.uniform([_proj([1, 0, 0]), _proj([0, 1, 0])])
        povm = Povm.projective(np.eye(3, dtype=complex))
        assert mutual_information(ens, povm) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_measurement(self):
        ens = Ensemble.uniform([_proj([1, 0, 0]), _proj([0, 1, 0])])
        povm = Povm.from_elements([np.eye(3)])
        assert mutual_information(ens, povm) == 0.0

    def test_dimension_mismatch(self):
        ens = Ensemble.uniform([_proj([1, 0])])
        povm = Povm.projective(np.eye(3, dtype=complex))
        with pytest.raises(InvalidMeasurementError):
            mutual_information(ens, povm)

    def test_holevo_single_state(self):
        ens = Ensemble(((1.0, _proj([1, 0, 0])),))
        assert holevo(ens) == 0.0

    def test_holevo_orthogonal_pair(self):
        ens = Ensemble.uniform([_proj([1, 0]), _proj([0, 1])])
        assert holevo(ens) == pytest.approx(1.0, abs=1e-12)

    def test_holevo_dominates_mutual_information(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            ens = Ensemble.uniform([numerics.random_density_operator(3, rng, rank=1)
                                    for _ in range(3)])
            povm = random_povm(3, int(rng.integers(2, 6)), rng)
            assert mutual_information(ens, povm) <= holevo(ens) + 1e-9

    def test_classical_mi_bounds(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert classical_mutual_information(joint) == pytest.approx(1.0)
        assert classical_mutual_information(np.full((2, 2), 0.25)) == pytest.approx(0.0)

    def test_classical_mi_takes_stacks(self):
        rng = np.random.default_rng(21)
        tables = rng.random((4, 3, 2, 5)) * (rng.random((4, 3, 2, 5)) < 0.7)
        tables[0, 0] = 0.0
        stacked = classical_mutual_information(tables)
        assert stacked.shape == (4, 3)
        assert stacked[0, 0] == 0.0
        for idx in np.ndindex(4, 3):
            assert stacked[idx] == pytest.approx(classical_mutual_information(tables[idx]),
                                                 abs=1e-15)
        assert isinstance(classical_mutual_information(tables[1, 1]), float)


def _stack_with_ranks(dim, rng, copies=2):
    """Random density operators of every rank 1..dim, ``copies`` of each, as matrices."""
    return np.stack([numerics.random_density_operator(dim, rng, rank=rank).matrix
                     for rank in range(1, dim + 1) for _ in range(copies)])


def _defective(kind, dim):
    """A ``dim x dim`` matrix that fails one density-operator check."""
    mat = np.eye(dim, dtype=complex) / dim
    if kind in ("nan", "inf", "-inf"):
        mat[0, dim - 1] = float(kind)
    elif kind == "non-hermitian":
        mat[0, 1] = 0.1
    elif kind == "off-trace":
        mat *= 1.01
    else:  # negative eigenvalue
        mat = np.diag([1.0 + 1e-8, -1e-8] + [0.0] * (dim - 2)).astype(complex)
    return mat


class TestStacks:
    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_entropy_and_trace_distance_match_per_object(self, dim):
        rng = np.random.default_rng(60 + dim)
        rhos, sigmas = _stack_with_ranks(dim, rng), _stack_with_ranks(dim, rng)
        entropies = von_neumann_entropy(rhos)
        distances = trace_distance(rhos, sigmas)
        assert entropies.shape == distances.shape == (len(rhos),)
        for idx, (rho, sigma) in enumerate(zip(rhos, sigmas)):
            assert abs(entropies[idx] - von_neumann_entropy(rho)) <= 1e-12
            assert abs(distances[idx] - trace_distance(rho, sigma)) <= 1e-12
        # Leading axes and broadcasting: one state against the whole stack.
        grid = von_neumann_entropy(rhos.reshape(dim, 2, dim, dim))
        assert np.allclose(grid, entropies.reshape(dim, 2), rtol=0.0, atol=1e-12)
        against_first = trace_distance(rhos[0], rhos)
        assert against_first[0] == 0.0
        assert abs(against_first[-1] - trace_distance(rhos[0], rhos[-1])) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_holevo_matches_per_object(self, dim):
        rng = np.random.default_rng(70 + dim)
        states = _stack_with_ranks(dim, rng, copies=3).reshape(dim, 3, dim, dim)
        stacked = holevo(states)
        assert stacked.shape == (dim,)
        for idx in range(dim):
            ops = [DensityOperator.from_matrix(m) for m in states[idx]]
            assert abs(stacked[idx] - holevo(Ensemble.uniform(ops))) <= 1e-12
        # A nonuniform ensemble: the stored spectra and one average.
        probs = rng.dirichlet([1.0, 1.0, 1.0])
        ops = DensityOperator.from_stack(states[0])
        mixed = sum(p * op.matrix for p, op in zip(probs, ops))
        direct = von_neumann_entropy(mixed) - sum(p * von_neumann_entropy(op.matrix)
                                                  for p, op in zip(probs, ops))
        assert abs(holevo(Ensemble(tuple(zip(probs, ops)))) - direct) <= 1e-12

    def test_holevo_stack_shapes(self):
        states = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        assert holevo(states) == pytest.approx(1.0, abs=1e-12)
        assert holevo(states[None]).shape == (1,)
        for bad in (states[0], states[:0]):
            with pytest.raises(ValueError):
                holevo(bad)

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_stored_spectrum_equals_fresh_eigvalsh(self, dim):
        rng = np.random.default_rng(80 + dim)
        mats = _stack_with_ranks(dim, rng)
        ops = DensityOperator.from_stack(mats) + tuple(map(DensityOperator.from_matrix, mats))
        for op in ops:
            assert np.array_equal(op.eigenvalues(), np.linalg.eigvalsh(op.matrix))
            assert not op.eigenvalues().flags.writeable and not op.matrix.flags.writeable
            assert op.dim == dim
        assert np.array_equal(ops[0].matrix, mats[0])

    @pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "non-hermitian", "off-trace",
                                      "negative"])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_batched_validation_rejects_any_position(self, kind, position):
        rng = np.random.default_rng(90)
        mats = _stack_with_ranks(3, rng, copies=1)
        bad = _defective(kind, 3)
        with pytest.raises(InvalidOperatorError):
            DensityOperator.from_matrix(bad)
        stack = np.concatenate([mats, mats[:2]])
        stack[position] = bad
        with pytest.raises(InvalidOperatorError):
            DensityOperator.from_stack(stack)
        with pytest.raises(InvalidOperatorError):
            von_neumann_entropy(stack.reshape(5, 1, 3, 3))
        with pytest.raises(InvalidOperatorError):
            trace_distance(stack, mats[0])
        with pytest.raises(InvalidOperatorError):
            holevo(stack)

    def test_stack_shapes_rejected(self):
        with pytest.raises(ValueError):
            DensityOperator.from_stack(np.eye(2) / 2)
        with pytest.raises(ValueError):
            von_neumann_entropy(np.ones((2, 3)) / 2)


class TestRandomPovm:
    def test_valid_and_real_option(self):
        rng = np.random.default_rng(20)
        for real in (False, True):
            povm = random_povm(3, 5, rng, real=real)
            total = sum(povm.elements)
            assert np.allclose(total, np.eye(3), atol=1e-10)
            if real:
                assert all(np.abs(m.imag).max() < 1e-15 for m in povm.elements)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("dim,n_elements,rank,n_out", [
        (3, 5, None, 5),    # full rank
        (3, 4, 1, 4),       # rank 1, occasionally rejected and redrawn
        (2, 3, 1, 3),
        # Two rank-1 seeds never span 3 dims: the fallback adds an identity element.
        (3, 2, 1, 3),
    ])
    def test_elements_match_validated_povm(self, real, dim, n_elements, rank, n_out):
        for seed in range(20):
            elements = random_povm_elements(dim, n_elements, np.random.default_rng(seed),
                                            real=real, rank=rank)
            povm = random_povm(dim, n_elements, np.random.default_rng(seed), real=real, rank=rank)
            reference = _per_seed_random_povm(dim, n_elements, np.random.default_rng(seed),
                                              real=real, rank=rank)
            assert elements.shape == (n_out, dim, dim) and elements.dtype == complex
            assert np.array_equal(elements, np.stack(povm.elements))
            assert np.array_equal(elements, reference)


def _per_seed_random_povm(dim, n_elements, rng, real, rank):
    """Draw-by-draw reference: one seed at a time, its real then its imaginary part."""
    rank = dim if rank is None else rank
    for _ in range(100):
        seeds = []
        for _ in range(n_elements):
            x = rng.normal(size=(dim, rank))
            if not real:
                x = x + 1j * rng.normal(size=(dim, rank))
            seeds.append(x @ x.conj().T)
        w, v = np.linalg.eigh(sum(seeds))
        if w.min() > 1e-3 * w.max():
            break
    else:
        seeds.append(0.01 * float(w.max()) * np.eye(dim))
        w, v = np.linalg.eigh(sum(seeds))
    inv_sqrt = (v * (w ** -0.5)) @ v.conj().T
    return np.stack([inv_sqrt @ g @ inv_sqrt for g in seeds]).astype(complex)
