import warnings

import numpy as np
import pytest

from otlab import numerics, security
from otlab.numerics import (
    DensityOperator,
    Ensemble,
    InvalidMeasurementError,
    InvalidOperatorError,
    InvalidStateError,
    Povm,
    PureState,
    classical_mutual_information,
    holevo,
    mutual_information,
    trace_distance,
)
from qutrit_oracles import erlang_rows, projector, random_povm, random_povm_elements

SQRT_HALF = 1.0 / np.sqrt(2.0)


def _random_density(dim, rng, rank=None):
    """A random mixed state: a normalized Wishart matrix of ``rank`` (default full)."""
    rank = dim if rank is None else rank
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = x @ x.conj().T
    return DensityOperator(mat / np.trace(mat).real)


def _random_mixed_pair(rng, dim=3):
    return _random_density(dim, rng), _random_density(dim, rng)


def _spectral_entropy(mat):
    """``-sum(lambda * log2(lambda))`` over the eigenvalues of ``mat``, in bits."""
    return float(-numerics.xlog2(np.linalg.eigvalsh(mat)).sum())


class TestValidation:
    def test_pure_state_norm(self):
        with pytest.raises(InvalidStateError):
            PureState([1.0, 1.0, 0.0])
        state = PureState([SQRT_HALF, SQRT_HALF, 0.0])
        assert state.dim == 3

    def test_density_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(InvalidOperatorError):
            DensityOperator(mat)

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(InvalidOperatorError):
            DensityOperator(np.eye(2))

    def test_density_eigenvalue_floor(self):
        # Drift inside the tolerance band is accepted, genuine negativity is not.
        DensityOperator(np.diag([1.0 + 5e-11, 0.0, -5e-11]))
        with pytest.raises(InvalidOperatorError):
            DensityOperator(np.diag([1.00000001, 0.0, -1e-8]))

    def test_povm_completeness(self):
        with pytest.raises(InvalidMeasurementError):
            Povm([np.eye(3) * 0.5])

    def test_povm_positivity(self):
        bad = [np.diag([1.5, 1.0, 1.0]), np.diag([-0.5, 0.0, 0.0])]
        # Hermitian and complete: only positivity rejects it.
        assert numerics.is_measurement(bad)
        with pytest.raises(InvalidMeasurementError, match="negative eigenvalue -5.000e-01"):
            Povm(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
    def test_non_finite_entries_rejected(self, bad, entry):
        mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
        mat[entry] = bad
        with pytest.raises(InvalidOperatorError):
            DensityOperator(mat)
        elements = [np.diag([1.0, 0.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 1.0])]
        elements[0][entry] = bad
        with pytest.raises(InvalidMeasurementError):
            Povm(elements)

    def test_objects_keep_their_own_read_only_copy(self):
        amps = np.array([1.0, 0.0, 0.0], dtype=complex)
        mat = np.diag([1.0, 0.0, 0.0]).astype(complex)
        elements = np.stack([mat, np.eye(3) - mat])
        objects = [(PureState(amps), "amplitudes", amps), (DensityOperator(mat), "matrix", mat),
                   (Povm(elements), "elements", elements), (Ensemble.uniform([mat]), "matrices", mat)]
        for obj, field, source in objects:
            kept = getattr(obj, field)
            want = kept.copy()
            assert source.flags.writeable and not kept.flags.writeable
            source[...] = 5
            assert np.array_equal(kept, want)

    def test_ensemble_probabilities(self):
        op = projector([1, 0, 0])
        with pytest.raises(ValueError):
            Ensemble((0.6, 0.6), (op, op))

    def test_ensemble_rejects_a_negative_probability(self):
        op = projector([1, 0, 0])
        with pytest.raises(ValueError, match="^ensemble probabilities must be nonnegative$"):
            Ensemble((1.5, -0.5), (op, op))

    def test_density_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            DensityOperator(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ensemble_rejects_non_finite_probabilities(self, bad):
        op = DensityOperator(np.eye(2) / 2)
        with pytest.raises(ValueError, match="must be finite"):
            Ensemble((bad, 0.5), (op, op))


_BASIS = [projector(row) for row in np.eye(3)]


class TestEntropy:
    """Von Neumann entropies, read through :func:`holevo`.

    Pure states have no entropy, so an ensemble of pure states has the
    Holevo quantity ``S(average)``; on the basis states that is the Shannon
    entropy of the probabilities.
    """

    def test_maximally_mixed_qutrit(self):
        assert holevo(Ensemble.uniform(_BASIS)) == pytest.approx(np.log2(3), abs=1e-12)

    def test_pure_projector(self):
        rho = projector([SQRT_HALF, 0, SQRT_HALF])
        assert holevo(Ensemble.uniform([rho, rho])) == pytest.approx(0.0, abs=1e-12)

    def test_dyadic_spectrum(self):
        assert holevo(Ensemble((0.5, 0.25, 0.25), _BASIS)) == pytest.approx(1.5, abs=1e-12)

    def test_matches_shannon_on_random_diagonals(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            probs = rng.dirichlet([1.0, 1.0, 1.0])
            shannon = -np.sum(numerics.xlog2(probs))
            assert abs(holevo(Ensemble(probs, _BASIS)) - shannon) < 1e-10

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

    def test_xlog2_bitwise_equal_to_the_replaced_form(self):
        # The earlier form replaced non-positive entries by 1 before the product.
        def replaced(x):
            safe = np.where(x > 0.0, x, 1.0)
            return safe * np.log2(safe)

        rng = np.random.default_rng(15)
        specials = np.array([np.nan, 0.0, -0.0, -1e-17, -5e-324, 5e-324, 1e-300, 1.0,
                             -np.inf, np.inf])
        for size in (1, 7, 64, 3848, 8192, 100_003):
            x = rng.random(size) ** rng.uniform(0.1, 20.0)
            x[rng.integers(0, size, size=max(1, size // 50))] = rng.choice(
                specials, size=max(1, size // 50))
            for arr in (x, x[::3], x[:size - size % 2].reshape(-1, 2).T, 1.0 - x):
                assert numerics.xlog2(arr).tobytes() == replaced(arr).tobytes()

    def test_xlog2_unmasked_path_bitwise_equal_to_the_masked_form(self):
        # Strictly positive inputs skip the masked loops: the same bits as the masked form.
        def masked(x):
            arr = np.asarray(x, dtype=float)
            out = np.zeros(arr.shape)
            np.log2(arr, out=out, where=arr > 0.0)
            np.multiply(out, arr, out=out, where=arr > 0.0)
            return out

        rng = np.random.default_rng(16)
        specials = np.array([5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0, np.inf])
        for size in (5, 64, 3848, 8192, 100_005):
            x = rng.random(size) ** rng.uniform(0.1, 20.0)
            x[x == 0.0] = 5e-324
            x[:5] = specials
            x[rng.integers(0, size, size=max(1, size // 50))] = rng.choice(
                specials, size=max(1, size // 50))
            square = x[:size - size % 5].reshape(5, -1)
            for arr in (x, x[::3], x[1::7], square.T, square[:, ::2].T, np.asfortranarray(square)):
                assert (arr > 0.0).all()
                assert numerics.xlog2(arr).tobytes() == masked(arr).tobytes()
        for value in specials:
            for scalar in (value, np.float64(value), np.array(value)):
                got = numerics.xlog2(scalar)
                assert isinstance(got, float)
                assert np.float64(got).tobytes() == masked(value).tobytes()
        got = numerics.xlog2(specials.tolist())
        assert isinstance(got, np.ndarray) and got.tobytes() == masked(specials).tobytes()

    def test_entropy_bits_bitwise_equal_to_the_clamped_form(self):
        # One mask in place of the clamp and xlog2's own mask: the same bits.
        def clamped(spectra):
            bits = np.maximum(0.0, -numerics.xlog2(np.maximum(spectra, 0.0)).sum(axis=-1))
            return float(bits) if bits.ndim == 0 else bits

        rng = np.random.default_rng(14)
        specials = np.array([np.nan, 0.0, -0.0, -1e-17, -5e-324, 5e-324, 1e-300])
        for shape in [(3,), (4, 3), (2, 5, 3), (20000, 4, 3)]:
            spectra = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
            odd = rng.random(shape) < 0.2
            spectra[odd] = rng.choice(specials, size=odd.sum())
            got, want = numerics._entropy_bits(spectra), clamped(spectra)
            assert type(got) is type(want)
            assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))

    def test_range(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            val = holevo(Ensemble.uniform([_random_density(3, rng) for _ in range(3)]))
            assert 0.0 <= val <= np.log2(3) + 1e-12


class TestDirichletBlocks:
    B = numerics.DIRICHLET_BLOCK

    @pytest.mark.parametrize("shape", [1, 3])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_blocks_are_one_call_in_order(self, shape, n):
        rng, ref = np.random.default_rng(71), np.random.default_rng(71)
        blocks = list(numerics.dirichlet_blocks(rng, shape, n))
        assert [len(block) for block in blocks[:-1]] == [self.B] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= self.B
        assert np.concatenate(blocks).tobytes() == erlang_rows(ref, shape, n).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestTraceDistance:
    def test_identical(self):
        rho = projector([1, 0, 0])
        assert trace_distance(rho, rho) == 0.0

    def test_half_for_overlapping_mixtures(self):
        rho = DensityOperator(np.diag([0.5, 0.0, 0.5]))
        sigma = DensityOperator(np.diag([0.0, 0.5, 0.5]))
        assert trace_distance(rho, sigma) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pure_pair_max(self):
        # y-ensemble members at a=b=1/sqrt2, c=0 are orthogonal pure states.
        plus = projector([SQRT_HALF, SQRT_HALF, 0.0])
        minus = projector([SQRT_HALF, -SQRT_HALF, 0.0])
        assert trace_distance(plus, minus) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a, b = _random_mixed_pair(rng)
            c = _random_density(3, rng)
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(projector([1, 0]), projector([1, 0, 0]))


class TestInformation:
    def test_perfect_discrimination(self):
        ens = Ensemble.uniform([projector([1, 0, 0]), projector([0, 1, 0])])
        povm = Povm([np.diag(row) for row in np.eye(3, dtype=complex)])
        assert mutual_information(ens, povm) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_measurement(self):
        ens = Ensemble.uniform([projector([1, 0, 0]), projector([0, 1, 0])])
        povm = Povm([np.eye(3)])
        assert mutual_information(ens, povm) == 0.0

    def test_dimension_mismatch(self):
        ens = Ensemble.uniform([projector([1, 0])])
        povm = Povm([np.diag(row) for row in np.eye(3, dtype=complex)])
        with pytest.raises(InvalidMeasurementError):
            mutual_information(ens, povm)

    def test_holevo_single_state(self):
        ens = Ensemble((1.0,), (projector([1, 0, 0]),))
        assert holevo(ens) == 0.0

    def test_holevo_orthogonal_pair(self):
        ens = Ensemble.uniform([projector([1, 0]), projector([0, 1])])
        assert holevo(ens) == pytest.approx(1.0, abs=1e-12)

    def test_holevo_dominates_mutual_information(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            ens = Ensemble.uniform([_random_density(3, rng, rank=1)
                                    for _ in range(3)])
            povm = random_povm(3, int(rng.integers(2, 6)), rng)
            assert mutual_information(ens, povm) <= holevo(ens) + 1e-9

    def test_ensemble_arrays_are_built_once_and_read_only(self):
        rng = np.random.default_rng(22)
        ops = [_random_density(3, rng, rank=rank) for rank in (1, 2, 3)]
        ens = Ensemble((0.5, 0.3, 0.2), ops)
        for name in ("probabilities", "matrices", "spectra"):
            arr = getattr(ens, name)
            assert arr is getattr(ens, name) and not arr.flags.writeable
        assert ens.probabilities.tolist() == [0.5, 0.3, 0.2]
        assert np.array_equal(ens.matrices, np.stack([op.matrix for op in ops]))
        assert np.array_equal(ens.spectra, np.stack([np.linalg.eigvalsh(op.matrix) for op in ops]))

    def test_stack_and_operators_give_identical_arrays(self):
        rng = np.random.default_rng(24)
        ops = [_random_density(3, rng, rank=rank) for rank in (1, 2, 3)]
        probs = (0.5, 0.3, 0.2)
        stack = np.stack([op.matrix for op in ops])
        reference = Ensemble(probs, ops)
        for ens in (Ensemble(probs, stack), Ensemble(probs, list(stack))):
            for name in ("probabilities", "matrices", "spectra"):
                assert np.array_equal(getattr(ens, name), getattr(reference, name))
            assert not np.shares_memory(ens.matrices, stack)

    def test_states_are_read_only_views_with_the_stored_spectra(self):
        rng = np.random.default_rng(25)
        ens = Ensemble.uniform([_random_density(3, rng, rank=rank)
                                for rank in (1, 2, 3)])
        states = ens.states
        assert len(states) == 3 and all(op.dim == ens.dim == 3 for op in states)
        for op, mat, spectrum in zip(states, ens.matrices, ens.spectra):
            assert np.shares_memory(op.matrix, ens.matrices)
            assert np.array_equal(op.matrix, mat)
            assert np.array_equal(np.linalg.eigvalsh(op.matrix), spectrum)
            assert not op.matrix.flags.writeable and not spectrum.flags.writeable

    def test_states_make_no_eigvalsh_call_and_validate_nothing(self, monkeypatch):
        rng = np.random.default_rng(26)
        ens = Ensemble((0.5, 0.3, 0.2), [_random_density(3, rng, rank=rank) for rank in (1, 2, 3)])

        def refused(*args, **kwargs):
            raise AssertionError("Ensemble.states computed or validated something")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        monkeypatch.setattr(numerics.DensityOperator, "__post_init__", refused)
        monkeypatch.setattr(numerics, "_density_spectra", refused)
        states = ens.states
        assert len(states) == 3 and all(type(op) is DensityOperator for op in states)
        for i, op in enumerate(states):
            assert op.matrix.base is ens.matrices.base and vars(op).keys() == {"matrix"}
            assert op.matrix.tobytes() == ens.matrices[i].tobytes()
            assert not op.matrix.flags.writeable and not ens.spectra.flags.writeable
        monkeypatch.undo()
        for i, op in enumerate(states):
            assert np.linalg.eigvalsh(op.matrix).tobytes() == ens.spectra[i].tobytes()

    @pytest.mark.parametrize("probs,states", [
        ((), ()),
        ((0.5, 0.5), (np.eye(2) / 2,)),
        ((1.0,), (np.eye(2) / 2, np.eye(2) / 2)),
        ((1.0,), np.eye(2) / 2),
        ((0.5, 0.5), [[0.5, 0.0], [0.0, 0.5]]),
        ((1.0,), np.ones((1, 2, 3)) / 2),
        ((0.5, 0.5), (np.eye(2) / 2, np.eye(3) / 3)),
    ], ids=["empty", "extra-probability", "extra-state", "bare-matrix", "bare-matrix-rows",
            "non-square", "mixed-dimensions"])
    def test_ensemble_shapes_rejected(self, probs, states):
        with pytest.raises(ValueError):
            Ensemble(probs, states)

    def test_empty_uniform_ensemble_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            Ensemble.uniform([])

    def test_mutual_information_matches_trace_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n_states = int(rng.integers(1, 5))
            ops = [_random_density(3, rng, rank=int(rng.integers(1, 4)))
                   for _ in range(n_states)]
            probs = rng.dirichlet(np.ones(n_states))
            ens = Ensemble(probs / probs.sum(), ops)
            povm = random_povm(3, int(rng.integers(1, 8)), rng)
            # The per-entry table Tr(M rho), one matrix product at a time: the reference.
            table = np.array([[np.trace(m @ op.matrix).real for m in povm.elements]
                              for op in ens.states])
            joint = ens.probabilities[:, None] * np.clip(table, 0.0, None)
            assert mutual_information(ens, povm) == pytest.approx(
                classical_mutual_information(joint), rel=0, abs=1e-12)

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
    return np.stack([_random_density(dim, rng, rank=rank).matrix
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
    def test_trace_distance_matches_per_object(self, dim):
        rng = np.random.default_rng(60 + dim)
        rhos, sigmas = _stack_with_ranks(dim, rng), _stack_with_ranks(dim, rng)
        distances = trace_distance(rhos, sigmas)
        assert distances.shape == (len(rhos),)
        for idx, (rho, sigma) in enumerate(zip(rhos, sigmas)):
            assert abs(distances[idx] - trace_distance(rho, sigma)) <= 1e-12
        # Broadcasting: one state against the whole stack.
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
            ops = [DensityOperator(m) for m in states[idx]]
            assert abs(stacked[idx] - holevo(Ensemble.uniform(ops))) <= 1e-12
        # A nonuniform ensemble: the stored spectra and one average.
        probs = rng.dirichlet([1.0, 1.0, 1.0])
        ops = Ensemble.uniform(states[0]).states
        mixed = sum(p * op.matrix for p, op in zip(probs, ops))
        direct = _spectral_entropy(mixed) - sum(p * _spectral_entropy(op.matrix)
                                                for p, op in zip(probs, ops))
        assert abs(holevo(Ensemble(probs, ops)) - direct) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_ensemble_holevo_bitwise_equals_validated_average(self, dim):
        """The reference: the average built and validated as a DensityOperator."""
        rng = np.random.default_rng(80 + dim)
        ops = Ensemble.uniform(_stack_with_ranks(dim, rng)[:4]).states
        ensemble = Ensemble(rng.dirichlet(np.ones(len(ops))), ops)
        spectra = np.array([np.linalg.eigvalsh(op.matrix) for op in ops])
        average = np.linalg.eigvalsh(DensityOperator(
            numerics._average(ensemble.probabilities, ensemble.matrices)).matrix)
        want = max(0.0, float(numerics._entropy_bits(average)
                              - (ensemble.probabilities * numerics._entropy_bits(spectra)).sum()))
        assert holevo(ensemble) == want

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
        ens = Ensemble.uniform(mats)
        ops = ens.states + tuple(map(DensityOperator, mats))
        for op, spectrum in zip(ops, np.concatenate([ens.spectra, ens.spectra])):
            assert np.array_equal(spectrum, np.linalg.eigvalsh(op.matrix))
            assert not ens.spectra.flags.writeable and not op.matrix.flags.writeable
            assert op.dim == dim and vars(op).keys() == {"matrix"}
        assert np.array_equal(ops[0].matrix, mats[0])

    @pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "non-hermitian", "off-trace",
                                      "negative"])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_batched_validation_rejects_any_position(self, kind, position):
        rng = np.random.default_rng(90)
        mats = _stack_with_ranks(3, rng, copies=1)
        bad = _defective(kind, 3)
        with pytest.raises(InvalidOperatorError):
            DensityOperator(bad)
        stack = np.concatenate([mats, mats[:2]])
        stack[position] = bad
        with pytest.raises(InvalidOperatorError):
            Ensemble.uniform(stack)
        with pytest.raises(InvalidOperatorError):
            trace_distance(stack, mats[0])
        with pytest.raises(InvalidOperatorError):
            holevo(stack)

    def test_stack_shapes_rejected(self):
        with pytest.raises(ValueError):
            Ensemble.uniform(np.eye(2) / 2)
        with pytest.raises(ValueError, match="square"):
            trace_distance(np.ones((2, 3)) / 2, np.eye(3) / 3)


@pytest.mark.parametrize("position", [0, 2, 4])
def test_library_built_ensemble_still_rejects_a_negative_eigenvalue(position):
    stack = _stack_with_ranks(3, np.random.default_rng(91), copies=1)
    stack = np.concatenate([stack, stack[:2]])
    ensemble = numerics._valid_ensemble(np.full(5, 0.2), stack)
    assert np.array_equal(ensemble.spectra, Ensemble.uniform(stack).spectra)
    stack[position] = _defective("negative", 3)
    with pytest.raises(InvalidOperatorError, match="negative eigenvalue"):
        numerics._valid_ensemble(np.full(5, 0.2), stack)


def _measurement_with(kind, position, dim=3, n=5):
    """Elements ``[n, dim, dim]`` of a measurement whose element ``position`` fails one check.

    A ``negative`` element keeps the sum at the identity, so it fails only
    the positivity check.
    """
    elements = np.stack([np.eye(dim, dtype=complex) / n] * n)
    bad = elements[position]
    if kind in ("nan", "inf", "-inf"):
        bad[0, 0] = float(kind)
    elif kind == "non-hermitian":
        bad[0, 1] = 0.1
    elif kind == "incomplete":
        bad *= 1.01
    else:  # negative eigenvalue, moved from the next element
        bad[1, 1] -= 1.0 / n + 1e-8
        elements[(position + 1) % n][1, 1] += 1.0 / n + 1e-8
    return elements


class TestMeasurementStacks:
    @pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "non-hermitian", "incomplete",
                                      "negative"])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_batched_validation_rejects_any_position(self, kind, position):
        elements = _measurement_with(kind, position)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMeasurementError):
                Povm(elements)
            if kind == "negative":
                assert numerics.is_measurement(elements)
                assert np.linalg.eigvalsh(elements).min() == pytest.approx(-1e-8, abs=1e-12)
            else:
                assert not numerics.is_measurement(elements)

    def test_mismatched_shapes_rejected(self):
        for elements in ([np.eye(2), np.zeros((3, 3))], [], np.eye(3), np.ones((2, 2, 3))):
            with pytest.raises(InvalidMeasurementError):
                Povm(elements)

    def test_elements_are_one_read_only_stack(self):
        source = random_povm_elements(3, 4, np.random.default_rng(95))
        povm = Povm(source)
        assert isinstance(povm.elements, np.ndarray) and povm.elements.shape == (4, 3, 3)
        assert not povm.elements.flags.writeable
        assert np.array_equal(povm.elements, source) and source.flags.writeable
        assert len(povm) == 4 and povm.dim == 3

    def test_is_measurement_on_stack_agrees_with_povm(self):
        rng = np.random.default_rng(96)
        kinds = ["nan", "inf", "-inf", "non-hermitian", "incomplete", "negative", None]
        stack = np.stack([random_povm_elements(3, 5, rng) if kind is None
                          else _measurement_with(kind, int(rng.integers(5)))
                          for kind in kinds for _ in range(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = numerics.is_measurement(stack)
            assert verdicts.shape == (len(stack),)
            assert numerics.is_measurement(stack.reshape(7, 2, 5, 3, 3)).shape == (7, 2)
            for elements, ok in zip(stack, verdicts):
                try:
                    Povm(elements)
                    accepted = True
                except InvalidMeasurementError:
                    accepted = False
                # A Povm is a measurement whose elements are also PSD.
                assert accepted == (ok and np.linalg.eigvalsh(elements).min() >= numerics.EIG_FLOOR)
        assert verdicts.tolist() == [False] * 10 + [True] * 4


# Blocks of draw_povm_block: dim, POVM sizes and ranks, and each POVM's element count.
_BLOCK_CASES = [
    (3, [5, 3, 7, 4, 6, 3], [3, 1, 1, 3, 1, 1], [5, 3, 7, 4, 6, 3]),
    (2, [3, 3, 4], [1, 1, 2], [3, 3, 4]),
    # Three rank-1 seeds in 3 dims are often ill-conditioned, and redrawn.
    (3, [3] * 100, [1] * 100, [3] * 100),
    # Two rank-1 seeds never span 3 dims: the fallback adds an identity
    # element to those POVMs only, and one zero element to the others.
    (3, [2, 5, 2, 4], [1, 3, 1, 1], [3, 5, 3, 4]),
]


class TestDrawPovmBlock:
    @pytest.mark.parametrize("sizes,ranks", [([4], [0]), ([4], [-1]), ([3, 0], None)])
    def test_empty_povm_or_rank_below_one_rejected(self, sizes, ranks):
        with pytest.raises(ValueError, match="rank"):
            numerics.draw_povm_block(np.random.default_rng(0), 3, sizes, ranks=ranks)

    def test_valid_and_real_option(self):
        rng = np.random.default_rng(20)
        for real in (False, True):
            elements = numerics.draw_povm_block(rng, 3, [5, 3, 7], real=real)
            for povm, n in zip(elements, (5, 3, 7)):
                povm = Povm(povm[:n])
                assert np.allclose(sum(povm.elements), np.eye(3), atol=1e-10)
                if real:
                    assert np.abs(povm.elements.imag).max() < 1e-15

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("dim,sizes,ranks,counts", _BLOCK_CASES)
    def test_elements_match_per_povm_reference(self, real, dim, sizes, ranks, counts):
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            elements = numerics.draw_povm_block(rng, dim, sizes, real, ranks)
            reference = _per_povm_block_reference(ref_rng, dim, sizes, real, ranks)
            assert elements.dtype == complex
            # A fallback anywhere in the block gives every POVM one more slot.
            assert elements.shape == (len(sizes), max(sizes) + (counts != sizes), dim, dim)
            for povm, want, n in zip(elements, reference, counts):
                assert len(want) == n and np.all(povm[n:] == 0.0)
                assert np.abs(povm[:n] - want).max() <= 1e-12
                Povm(povm[:n])
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("dim,sizes,ranks,counts",
                             [case for case in _BLOCK_CASES if case[0] == 3])
    def test_frame_probabilities_match_per_povm_reference(self, real, dim, sizes, ranks, counts):
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            frames = numerics._povm_frames(rng, dim, sizes, real, ranks)
            reference = _per_povm_block_reference(ref_rng, dim, sizes, real, ranks)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            # A fallback anywhere in the block gives every POVM one more slot, of full rank.
            grown = counts != sizes
            assert frames.shape == (len(sizes), max(sizes) + grown, dim if grown else max(ranks),
                                    dim)
            assert frames.dtype == (float if real else complex)
            # Zero past each POVM's count, and past its rank but for the identity element.
            for povm, size, rank, n in zip(frames, sizes, ranks, counts):
                assert np.all(povm[n:] == 0.0) and np.all(povm[:size, rank:] == 0.0)
            amplitudes = np.sqrt(erlang_rows(np.random.default_rng(seed + 10), 1,
                                             2 * len(sizes))).reshape(len(sizes), 2, 3)
            probs = security._frame_probabilities(frames, amplitudes)       # [s, 2, 4, N]
            for got, want, n, amps in zip(probs, reference, counts, amplitudes):
                assert np.all(got[..., n:] == 0.0)
                assert np.abs(got[..., :n] - security.sign_state_probabilities(want, amps)).max() \
                    <= 1e-12


def _per_povm_block_reference(rng, dim, sizes, real, ranks):
    """Each POVM of a ``draw_povm_block`` block, built from its own Gaussians: the reference.

    Draws as the block does, one ``[rows, max(sizes), 1 or 2, dim, dim]``
    array per draw of the POVMs still ill-conditioned, in POVM order, and
    takes each POVM's first ``sizes[i]`` seeds' first ``ranks[i]`` columns.
    Gives each POVM's elements ``[n, dim, dim]``, unpadded.
    """
    drawn, pending = [None] * len(sizes), list(range(len(sizes)))
    for _ in range(100):
        z = rng.normal(size=(len(pending), max(sizes), 1 if real else 2, dim, dim))
        for row, i in zip(z, pending):
            x = row[:sizes[i], :, :, :ranks[i]]
            x = x[:, 0] if real else x[:, 0] + 1j * x[:, 1]
            seeds = [g @ g.conj().T for g in x]
            drawn[i] = seeds, np.linalg.eigvalsh(sum(seeds))
        pending = [i for i in pending if not drawn[i][1].min() > 1e-3 * drawn[i][1].max()]
        if not pending:
            break
    for i in pending:
        seeds, w = drawn[i]
        drawn[i] = seeds + [0.01 * float(w.max()) * np.eye(dim)], None
    elements = []
    for seeds, _ in drawn:
        w, v = np.linalg.eigh(sum(seeds))
        inv_sqrt = (v * (w ** -0.5)) @ v.conj().T
        elements.append(np.stack([inv_sqrt @ g @ inv_sqrt for g in seeds]).astype(complex))
    return elements
