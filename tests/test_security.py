import numpy as np
import pytest

from otlab import numerics, protocol, security
from otlab.numerics import (
    DensityOperator,
    Ensemble,
    InvalidMeasurementError,
    InvalidStateError,
    Povm,
    PureState,
    haar_random_pure,
    holevo,
    mutual_information,
    random_povm,
    trace_distance,
)
from otlab.security import (
    MAX_HOLEVO_SUM,
    CheatParams,
    SearchConfig,
    accessible_info_search,
    binary_entropy,
    cheat_state_vectors,
    example1_povm,
    example2_povm,
    example3_value,
    guess_probs,
    holevo_triple,
    holevo_triple_from_nine_dim,
    infodelta_check,
    lemma1_images,
    lemma1_reduce,
    max_holevo_sum_search,
    params_from_two_qutrit,
    returned_ensemble,
    returned_states,
    sign_state_information,
    tetrahedron_states,
    theorem3_report,
    tradeoff_bound_margins,
    tradeoff_curve,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


def _random_params(rng):
    return CheatParams.from_squares(*rng.dirichlet([1.0, 1.0, 1.0]))


class TestCheatParams:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            CheatParams(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("triple", [(np.nan, 0.5, 0.5), (0.6, np.nan, 0.8),
                                        (np.inf, 0.0, 0.0), (0.0, -np.inf, 1.0)])
    def test_non_finite_amplitudes_rejected(self, triple):
        with pytest.raises(ValueError, match="finite"):
            CheatParams(*triple)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            CheatParams.from_alpha(alpha)

    def test_alpha_family(self):
        p = CheatParams.from_alpha(0.3)
        assert p.a == pytest.approx(SQRT_HALF)
        assert p.b == pytest.approx(np.cos(0.3) * SQRT_HALF)
        assert p.c == pytest.approx(np.sin(0.3) * SQRT_HALF)

    def test_honest_triples(self):
        assert CheatParams.honest(0).b == 0.0
        assert CheatParams.honest(1).a == 0.0
        assert CheatParams.learn_y().c == 0.0


class TestReturnedEnsemble:
    def test_honest_r_ensemble_is_orthogonal_pure(self):
        ens = returned_ensemble(CheatParams.honest(0), "r")
        rho0, rho1 = ens.states
        assert trace_distance(rho0, rho1) == pytest.approx(1.0, abs=1e-12)
        assert numerics.von_neumann_entropy(rho0) == pytest.approx(0.0, abs=1e-10)

    def test_y_trace_distance_is_2ab(self):
        params = CheatParams(SQRT_HALF, 0.5, 0.5)
        ens = returned_ensemble(params, "y")
        dist = trace_distance(*ens.states)
        assert dist == pytest.approx(2 * params.a * params.b, abs=1e-12)
        assert dist == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_joint_average_is_diagonal(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            params = _random_params(rng)
            avg = returned_ensemble(params, "joint").average()
            assert np.allclose(avg.matrix, np.diag(params.squares), atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            returned_ensemble(CheatParams.honest(0), "z")
        with pytest.raises(ValueError, match="unknown label"):
            returned_states([[SQRT_HALF, 0.0, SQRT_HALF]], "z")

    @pytest.mark.parametrize("label,count", [("y", 2), ("r", 2), ("yxr", 2), ("joint", 4)])
    def test_returned_states_match_ensemble(self, label, count):
        rng = np.random.default_rng(31)
        params = [_random_params(rng) for _ in range(20)] + [CheatParams.honest(1)]
        amplitudes = np.array([[p.a, p.b, p.c] for p in params])
        states = returned_states(amplitudes, label)
        assert states.shape == (len(params), count, 3, 3)
        for row, p in zip(states, params):
            ens = returned_ensemble(p, label)
            assert np.array_equal(ens.probabilities, np.full(count, 1.0 / count))
            assert np.array_equal(row, np.stack([op.matrix for op in ens.states]))
        chi = holevo(states)
        assert np.allclose(chi, [holevo(returned_ensemble(p, label)) for p in params],
                           rtol=0.0, atol=1e-12)


class TestSignStateInformation:
    def test_matches_ensemble_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            params = _random_params(rng)
            povm = random_povm(3, int(rng.integers(2, 8)), rng, rank=int(rng.integers(1, 4)))
            info = sign_state_information(np.stack(povm.elements),
                                          [params.a, params.b, params.c])
            oracle = [mutual_information(returned_ensemble(params, label), povm)
                      for label in ("y", "r", "yxr")]
            assert np.allclose(info, oracle, rtol=0.0, atol=1e-12)

    def test_broadcasts_over_triples_and_measurements(self):
        rng = np.random.default_rng(42)
        amplitudes = np.sqrt(rng.dirichlet([1.0, 1.0, 1.0], size=6))
        elements = np.stack([np.stack(random_povm(3, 4, rng).elements) for _ in range(6)])
        paired = sign_state_information(elements, amplitudes)
        assert paired.shape == (6, 3)
        for i in range(6):
            assert np.array_equal(sign_state_information(elements[i], amplitudes[i]), paired[i])
        assert sign_state_information(elements[0], amplitudes).shape == (6, 3)


class TestParamsFromTwoQutrit:
    def test_extremal_entangled_family(self):
        for alpha in (0.0, 0.4, 1.1, np.pi / 2):
            amps = np.zeros(9)
            amps[0] = SQRT_HALF
            amps[4] = np.cos(alpha) * SQRT_HALF
            amps[8] = np.sin(alpha) * SQRT_HALF
            p = params_from_two_qutrit(amps)
            expected = CheatParams.from_alpha(alpha)
            assert p.a == pytest.approx(expected.a, abs=1e-12)
            assert p.b == pytest.approx(expected.b, abs=1e-12)
            assert p.c == pytest.approx(expected.c, abs=1e-12)

    def test_product_state(self):
        local = np.array([0.6, 0.0, 0.8])
        amps = np.kron([0.0, 1.0, 0.0], local)
        p = params_from_two_qutrit(amps)
        assert (p.a, p.b, p.c) == pytest.approx((0.6, 0.0, 0.8), abs=1e-12)

    def test_haar_sample_normalized(self):
        p = params_from_two_qutrit(haar_random_pure(9, np.random.default_rng(5)))
        assert p.squares.sum() == pytest.approx(1.0, abs=1e-12)

    def test_squares_are_the_sent_qutrits_reduced_diagonal(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            state = haar_random_pure(9, rng)
            reduced = numerics.partial_trace(state.projector(), (3, 3), keep=1)
            np.testing.assert_allclose(params_from_two_qutrit(state).squares,
                                       np.diag(reduced.matrix).real, rtol=0, atol=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidStateError):
            params_from_two_qutrit(np.ones(9))

    def test_matches_nine_dim_holevo(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            state = haar_random_pure(9, rng)
            closed = holevo_triple(params_from_two_qutrit(state))
            oracle = holevo_triple_from_nine_dim(state)
            assert closed.chi_y == pytest.approx(oracle.chi_y, abs=1e-9)
            assert closed.chi_r == pytest.approx(oracle.chi_r, abs=1e-9)
            assert closed.chi_yxr == pytest.approx(oracle.chi_yxr, abs=1e-9)


class TestGuessProbs:
    def test_honest_x0(self):
        g = guess_probs(CheatParams.honest(0))
        assert g.p_r == pytest.approx(1.0, abs=1e-12)
        assert g.p_y == pytest.approx(0.5, abs=1e-12)

    def test_learn_y_is_certain(self):
        assert guess_probs(CheatParams.learn_y()).p_y == pytest.approx(1.0, abs=1e-12)

    def test_circle_equality_point(self):
        g = guess_probs(CheatParams(SQRT_HALF, 0.5, 0.5))
        lhs = (g.p_r - 0.5) ** 2 + (g.p_y - 0.5) ** 2
        assert lhs == pytest.approx(0.25, abs=1e-15)

    def test_helstrom_cross_check(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            params = _random_params(rng)
            g = guess_probs(params)
            for label, value in (("y", g.p_y), ("r", g.p_r), ("yxr", g.p_yxr)):
                dist = trace_distance(*returned_ensemble(params, label).states)
                assert value == pytest.approx(0.5 * (1.0 + dist), abs=1e-10)


class TestHolevoTriple:
    def test_honest_extreme(self):
        triple = holevo_triple(CheatParams.honest(0))
        assert triple.chi_r == pytest.approx(1.0, abs=1e-12)
        assert triple.chi_y == pytest.approx(0.0, abs=1e-12)
        assert triple.chi_yxr == pytest.approx(0.0, abs=1e-12)

    def test_optimum_sum(self):
        b2 = (5.0 - np.sqrt(5.0)) / 10.0
        triple = holevo_triple(CheatParams.from_squares(np.sqrt(5.0) / 5.0, b2, b2))
        assert triple.chi_y == pytest.approx(0.6942419, abs=1e-7)
        assert triple.chi_y + triple.chi_r == pytest.approx(MAX_HOLEVO_SUM, abs=1e-12)

    def test_symmetric_point(self):
        third = 1.0 / np.sqrt(3.0)
        triple = holevo_triple(CheatParams(third, third, third))
        assert triple.chi_y == pytest.approx(triple.chi_r, abs=1e-12)
        assert triple.chi_y == pytest.approx(triple.chi_yxr, abs=1e-12)

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            params = _random_params(rng)
            triple = holevo_triple(params)
            for label, value in (("y", triple.chi_y), ("r", triple.chi_r),
                                 ("yxr", triple.chi_yxr)):
                assert value == pytest.approx(
                    holevo(returned_ensemble(params, label)), abs=1e-10)


def _nine_term_triple(a2, b2, c2):
    """The 0.9.0 closed forms, one entropy term per occurrence: the reference."""
    a2 = np.clip(np.asarray(a2, dtype=float), 0.0, 1.0)
    b2 = np.clip(np.asarray(b2, dtype=float), 0.0, 1.0)
    c2 = np.clip(np.asarray(c2, dtype=float), 0.0, 1.0)
    chi_y = -numerics.xlog2(a2) - numerics.xlog2(b2) + numerics.xlog2(1.0 - c2)
    chi_r = -numerics.xlog2(a2) - numerics.xlog2(c2) + numerics.xlog2(1.0 - b2)
    chi_yxr = -numerics.xlog2(b2) - numerics.xlog2(c2) + numerics.xlog2(1.0 - a2)
    return (np.clip(chi_y, 0.0, None), np.clip(chi_r, 0.0, None),
            np.clip(chi_yxr, 0.0, None))


class TestTripleFromSquares:
    # Squares of exactly 0 and 1, and clipped round-off just outside [0, 1].
    EDGES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0),
             (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (1.0 + 1e-16, -1e-17, 0.0)]

    def test_bitwise_equal_to_nine_terms(self):
        squares = np.vstack([np.random.default_rng(60).dirichlet([1.0, 1.0, 1.0], size=10_000),
                             self.EDGES])
        got = security._triple_from_squares(*squares.T)
        want = _nine_term_triple(*squares.T)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_bitwise_equal_on_scalars(self):
        for row in self.EDGES + [(0.2, 0.3, 0.5)]:
            got = security._triple_from_squares(*row)
            want = _nine_term_triple(*row)
            assert len(got) == 3
            assert all(np.asarray(g).tobytes() == np.asarray(w).tobytes()
                       for g, w in zip(got, want))


class TestBinaryEntropy:
    def test_endpoints_and_center(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499916, abs=1e-6)

    def test_symmetry(self):
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8), abs=1e-14)

    def test_domain(self):
        for bad in (-0.1, 1.1, float("nan"), np.array([0.2, np.nan]), np.array([[0.5, 1.5]])):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    def test_array_matches_scalar(self):
        grid = np.linspace(0.0, 1.0, 11).reshape(1, 11)
        values = binary_entropy(grid)
        assert isinstance(values, np.ndarray) and values.shape == grid.shape
        assert np.array_equal(values[0], [binary_entropy(d) for d in grid[0]])
        assert isinstance(binary_entropy(np.float64(0.3)), float)


class TestTradeoffBounds:
    @staticmethod
    def _margins(params):
        triple = holevo_triple(params)
        return triple, tradeoff_bound_margins(triple.chi_y, triple.chi_r, triple.chi_yxr)

    def test_honest_is_tight(self):
        triple, margins = self._margins(CheatParams.honest(0))
        assert 1.0 - triple.chi_r == pytest.approx(0.0, abs=1e-12)
        assert margins[0] == pytest.approx(0.0, abs=1e-10)

    def test_delta_dominates_b_squared(self):
        rng = np.random.default_rng(34)
        for _ in range(1000):
            params = _random_params(rng)
            assert 1.0 - holevo_triple(params).chi_r >= params.b ** 2 - 1e-10

    @staticmethod
    def _scalar_margins(chi_y, chi_r, chi_yxr):
        """One element at a time: ``h(1 - anchor) - other`` where the bound applies."""
        out = []
        for anchor, others in ((chi_r, (chi_y, chi_yxr)), (chi_yxr, (chi_r, chi_y))):
            delta = 1.0 - anchor
            out += [binary_entropy(delta) - other if 0.0 <= delta < 0.5 else np.nan
                    for other in others]
        return out

    def test_bitwise_equal_to_scalar_reference(self):
        rng = np.random.default_rng(61)
        triples = np.column_stack(security._triple_from_squares(
            *rng.dirichlet([1.0, 1.0, 1.0], size=10_000).T))
        # Anchors at delta 0, 1/2, 1/2 - ulp, NaN and negative, in either anchor column.
        anchors = [1.0, 0.5, 0.5 + np.spacing(0.5), np.nan, 1.0 + 1e-9, 1.5]
        assert 1.0 - anchors[2] == 0.5 - np.spacing(0.5)
        edges = [[0.3, anchor, other] for anchor in anchors for other in (0.2, 0.9, anchor)]
        edges += [[0.3, other, anchor] for _, anchor, other in edges]
        triples = np.vstack([triples, edges])
        got = tradeoff_bound_margins(*triples.T)
        want = np.array([self._scalar_margins(*row) for row in triples.tolist()])
        assert got.shape == want.shape == (len(triples), 4)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        assert nan[:10_000].any() and not nan[:10_000].all()

    def test_sweep_no_violations(self):
        rng = np.random.default_rng(35)
        # A bound that does not apply has a NaN margin, which is no violation.
        assert all(not (self._margins(_random_params(rng))[1] < -1e-9).any()
                   for _ in range(2000))


class TestTetrahedron:
    def test_pure_and_centered(self):
        states = tetrahedron_states()
        total = sum(op.matrix for op in states)
        assert np.allclose(total / 4.0, np.eye(2) / 2.0, atol=1e-12)
        for op in states:
            assert np.trace(op.matrix @ op.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_pairwise_overlaps(self):
        states = tetrahedron_states()
        for i in range(4):
            for j in range(i + 1, 4):
                hs = np.trace(states[i].matrix @ states[j].matrix).real
                assert hs == pytest.approx(1.0 / 3.0, abs=1e-12)
                f = numerics.fidelity(states[i], states[j])
                assert f * f == pytest.approx(1.0 / 3.0, abs=1e-10)


class TestLemma1Reduce:
    def _stat_deviation(self, povm, reduced, params):
        states = cheat_state_vectors(params)
        tetra = tetrahedron_states()
        worst = 0.0
        for i, vec in enumerate(states):
            for element, image in zip(povm.elements, reduced.elements):
                p3 = float(vec @ element.real @ vec)
                p2 = float(np.trace(image @ tetra[i].matrix).real)
                worst = max(worst, abs(p3 - p2))
        return worst

    def test_computational_basis_reduces_to_weighted_identity(self):
        povm = Povm.projective(np.eye(3, dtype=complex))
        params = _random_params(np.random.default_rng(36))
        for variant in ("exact", "psd"):
            reduced = lemma1_reduce(povm, params, variant=variant)
            for image, weight in zip(reduced.elements, params.squares):
                assert np.allclose(image, weight * np.eye(2), atol=1e-12)
            assert self._stat_deviation(povm, reduced, params) < 1e-12

    def test_exact_variant_preserves_statistics(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            params = _random_params(rng)
            povm = random_povm(3, int(rng.integers(3, 7)), rng, real=True)
            reduced = lemma1_reduce(povm, params, variant="exact")
            assert self._stat_deviation(povm, reduced, params) < 1e-10
            total = sum(reduced.elements)
            assert np.allclose(total, np.eye(2), atol=1e-10)

    def test_example1_povm_statistics_preserved(self):
        alpha = 0.9
        params = CheatParams.from_alpha(alpha)
        reduced = lemma1_reduce(example1_povm(alpha), params, variant="exact")
        assert self._stat_deviation(example1_povm(alpha), reduced, params) < 1e-10

    def test_complex_parts_are_irrelevant(self):
        # Imaginary antisymmetric parts contribute nothing on the sign states.
        rng = np.random.default_rng(38)
        params = _random_params(rng)
        states = cheat_state_vectors(params)
        povm = random_povm(3, 4, rng, real=False)
        for element in povm.elements:
            for vec in states:
                full = float(np.real(vec @ element @ vec))
                real_only = float(vec @ element.real @ vec)
                assert full == pytest.approx(real_only, abs=1e-12)

    def test_psd_variant_is_valid_povm(self):
        rng = np.random.default_rng(39)
        for _ in range(200):
            povm = random_povm(3, int(rng.integers(2, 7)), rng, real=False)
            reduced = lemma1_reduce(povm, _random_params(rng), variant="psd")
            assert reduced.is_psd
            assert np.allclose(sum(reduced.elements), np.eye(2), atol=1e-10)

    def test_reduced_joint_information_capped_at_one_bit(self):
        rng = np.random.default_rng(40)
        tetra = np.stack([op.matrix for op in tetrahedron_states()])
        for _ in range(300):
            povm = random_povm(3, int(rng.integers(3, 7)), rng, real=True)
            reduced = lemma1_reduce(povm, _random_params(rng), variant="exact")
            probs = np.einsum("njk,skj->sn", np.stack(reduced.elements), tetra).real
            assert numerics.classical_mutual_information(0.25 * probs) <= 1.0 + 1e-9

    @pytest.mark.parametrize("variant", ["exact", "psd"])
    def test_images_agree_with_reduce_per_pair(self, variant):
        rng = np.random.default_rng(43)
        povm = random_povm(3, 5, rng, real=False)
        triples = [_random_params(rng) for _ in range(8)]
        images = lemma1_images(np.stack(povm.elements), [[p.a, p.b, p.c] for p in triples],
                               variant)
        assert images.shape == (8, 5, 2, 2)
        for row, params in zip(images, triples):
            assert np.array_equal(row, np.stack(lemma1_reduce(povm, params, variant).elements))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            lemma1_images(np.stack([np.eye(3)]), [[1.0, 0.0, 0.0]], variant="other")

    def test_wrong_dimension_rejected(self):
        qubit_povm = Povm.projective(np.eye(2, dtype=complex))
        with pytest.raises(InvalidMeasurementError):
            lemma1_reduce(qubit_povm, CheatParams.honest(0))


class TestExample1:
    def test_completeness_on_grid(self):
        for alpha in np.linspace(0.0, np.pi / 2, 100):
            total = sum(example1_povm(alpha).elements)
            assert np.allclose(total, np.eye(3), atol=1e-12)

    def test_information_split(self):
        for alpha in (0.0, 0.4, np.pi / 4, 1.2, np.pi / 2):
            params = CheatParams.from_alpha(alpha)
            povm = example1_povm(alpha)
            i_y = mutual_information(returned_ensemble(params, "y"), povm)
            i_r = mutual_information(returned_ensemble(params, "r"), povm)
            assert i_y == pytest.approx(np.cos(alpha) ** 2, abs=1e-10)
            assert i_r == pytest.approx(np.sin(alpha) ** 2, abs=1e-10)
            assert i_y + i_r == pytest.approx(1.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            example1_povm(-0.1)
        with pytest.raises(ValueError):
            example1_povm(2.0)


class TestExample2:
    def test_completeness_and_shape(self):
        for alpha in (0.0, 0.5, np.pi / 2):
            povm = example2_povm(alpha)
            assert povm.dim == 9
            assert len(povm) == 5
            assert povm.is_psd
            assert np.allclose(sum(povm.elements), np.eye(9), atol=1e-12)

    def test_extracts_one_bit_from_entangled_family(self):
        alpha = 0.6
        amps = np.zeros(9)
        amps[0] = SQRT_HALF
        amps[4] = np.cos(alpha) * SQRT_HALF
        amps[8] = np.sin(alpha) * SQRT_HALF
        ops = []
        for r, y in security.RY_ORDER:
            gate = np.kron(np.eye(3), protocol.bob_gate(y, r))
            ops.append(PureState(9, gate @ amps).projector())
        ens = Ensemble.uniform(ops)
        assert mutual_information(ens, example2_povm(alpha)) == pytest.approx(1.0, abs=1e-10)


class TestExample3:
    def test_balanced_point(self):
        assert example3_value(1.0 / np.sqrt(2.0)) == pytest.approx(1.0, abs=1e-10)

    def test_endpoints(self):
        assert example3_value(0.0) == pytest.approx(0.0, abs=1e-12)
        assert example3_value(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_information(self):
        for a_val, theta in ((0.3, 0.2), (0.6, 1.0), (0.9, 0.7)):
            b_prime = np.sqrt(1.0 - a_val ** 2)
            params = CheatParams(a_val, b_prime * np.cos(theta), b_prime * np.sin(theta))
            povm = example1_povm(theta)
            i_y = mutual_information(returned_ensemble(params, "y"), povm)
            i_r = mutual_information(returned_ensemble(params, "r"), povm)
            assert example3_value(a_val) == pytest.approx(i_y + i_r, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            example3_value(1.5)


class TestAccessibleInfoSearch:
    def test_orthogonal_pair_reaches_one_bit(self):
        ens = Ensemble.uniform([DensityOperator.from_pure([1, 0, 0]),
                                DensityOperator.from_pure([0, 1, 0])])
        result = accessible_info_search(ens, rng=np.random.default_rng(41))
        assert result.best_value == pytest.approx(1.0, abs=1e-6)

    def test_joint_family_reaches_one_bit(self):
        ens = returned_ensemble(CheatParams.from_alpha(0.8), "joint")
        result = accessible_info_search(ens, rng=np.random.default_rng(42))
        assert result.best_value >= 1.0 - 1e-6
        assert result.best_value <= holevo(ens) + 1e-9

    def test_nine_dim_joint_family(self):
        # Exploratory two-qutrit route: the entangled analogue measurement
        # seeds the search on an alpha grid, and the iteration refines alpha
        # until it recovers the one-bit value.
        alpha = 0.6
        amps = np.zeros(9)
        amps[0] = SQRT_HALF
        amps[4] = np.cos(alpha) * SQRT_HALF
        amps[8] = np.sin(alpha) * SQRT_HALF
        ops = []
        for r, y in security.RY_ORDER:
            gate = np.kron(np.eye(3), protocol.bob_gate(y, r))
            ops.append(PureState(9, gate @ amps).projector())
        ens = Ensemble.uniform(ops)
        cfg = SearchConfig(n_starts=4, max_iters=80)
        result = accessible_info_search(ens, cfg, np.random.default_rng(50))
        assert result.best_value >= 1.0 - 1e-6
        assert result.best_value <= holevo(ens) + 1e-9

    def test_never_exceeds_holevo(self):
        # Every returned measurement passes the PSD check of Povm, or the
        # search raises InvalidMeasurementError.
        rng = np.random.default_rng(43)
        cfg = SearchConfig(n_starts=2, max_iters=100)
        for _ in range(30):
            params = _random_params(rng)
            for label in ("y", "r", "yxr"):
                ens = returned_ensemble(params, label)
                result = accessible_info_search(ens, cfg, rng)
                assert 0.0 <= result.best_value <= holevo(ens) + 1e-9

    @pytest.mark.parametrize("label", ["y", "r"])
    def test_holevo_conditions_hold_at_criterion_08_optimum(self, label):
        ens = returned_ensemble(CheatParams(SQRT_HALF, 0.5, 0.5), label)
        result = accessible_info_search(ens, rng=np.random.default_rng(46))
        assert result.stationarity <= 1e-6
        assert result.min_condition_eig >= -1e-9

    def test_holevo_conditions_flag_an_unconverged_measurement(self):
        # No iteration: the best seed of the joint family falls short of one bit.
        ens = returned_ensemble(CheatParams.from_alpha(0.8), "joint")
        result = accessible_info_search(ens, SearchConfig(n_starts=1, max_iters=0))
        assert result.best_value < 1.0 - 1e-4
        assert result.stationarity > 1e-3
        assert result.min_condition_eig < -1e-3

    @pytest.mark.parametrize("label", ["y", "joint"])
    def test_value_is_information_of_its_joint_table(self, label):
        ens = returned_ensemble(CheatParams(SQRT_HALF, 0.5, 0.5), label)
        result = accessible_info_search(ens, SearchConfig(n_starts=4, max_iters=60),
                                        np.random.default_rng(47))
        table = np.array([[np.trace(m @ op.matrix).real for m in result.best_povm.elements]
                          for op in ens.states])
        joint = ens.probabilities[:, None] * table
        assert abs(result.best_value - numerics.classical_mutual_information(joint)) <= 1e-12

    def test_deterministic_given_seed(self):
        ens = returned_ensemble(CheatParams(SQRT_HALF, 0.5, 0.5), "y")
        cfg = SearchConfig(n_starts=4, max_iters=60)
        a = accessible_info_search(ens, cfg, np.random.default_rng(44))
        b = accessible_info_search(ens, cfg, np.random.default_rng(44))
        assert a.best_value == b.best_value


class TestMaxHolevoSum:
    def test_analytic_optimum(self):
        result = max_holevo_sum_search()
        assert result.max_sum == pytest.approx(MAX_HOLEVO_SUM, abs=1e-9)
        assert result.argmax.squares[0] == pytest.approx(np.sqrt(5.0) / 5.0, abs=1e-6)
        assert result.argmax.squares[1] == pytest.approx((5.0 - np.sqrt(5.0)) / 10.0, abs=1e-6)
        assert abs(result.constrained_max - result.unconstrained_max) < 1e-8


class TestTradeoffCurve:
    def test_points_in_unit_square(self):
        curve = tradeoff_curve(3000, 0.01, np.random.default_rng(45))
        assert np.all(curve.h1 >= -1e-12) and np.all(curve.h1 <= 1.0 + 1e-12)
        assert np.all(curve.h2 >= -1e-12) and np.all(curve.h2 <= 1.0 + 1e-12)
        assert curve.max_sum <= MAX_HOLEVO_SUM + 1e-6
        assert curve.h1.shape == curve.h2.shape == (3000,)

    def test_bins_sorted_and_within_width(self):
        curve = tradeoff_curve(2000, 0.02, np.random.default_rng(46))
        centers = [c for c, _ in curve.bins]
        assert centers == sorted(centers)
        assert len(curve.bins) <= int(1.0 / 0.02) + 1

    def test_sampler_draws_dirichlet_diagonals(self):
        curve = tradeoff_curve(500, 0.01, np.random.default_rng(47))
        squares = np.random.default_rng(47).dirichlet([3.0, 3.0, 3.0], size=500)
        expected = np.column_stack(security._triple_from_squares(*squares.T))
        assert np.array_equal(curve.triples, expected)
        arg = int(np.argmax(expected[:, 0] + np.maximum(expected[:, 1], expected[:, 2])))
        assert curve.argmax == CheatParams.from_squares(*squares[arg])

    def test_sampler_matches_haar_reduced_diagonal_law(self):
        # Oracle: reduce full Haar two-qutrit states one by one.  The exact
        # law of each diagonal entry is Beta(3, 6), with E[a^2] = 1/3,
        # E[a^4] = 2/15 and E[a^2 b^2] = 1/10.
        from scipy import stats

        rng = np.random.default_rng(48)
        oracle = np.array([params_from_two_qutrit(haar_random_pure(9, rng)).squares
                           for _ in range(5000)])
        sampled = rng.dirichlet([3.0, 3.0, 3.0], size=20000)  # the curve's draw (test above)
        for squares in (oracle, sampled):
            for col in range(3):
                assert stats.kstest(squares[:, col], "beta", args=(3, 6)).pvalue > 1e-3
            for values, exact in ((squares, 1 / 3), (squares ** 2, 2 / 15),
                                  (squares * np.roll(squares, 1, axis=1), 1 / 10)):
                sigma = values.std(axis=0) / np.sqrt(len(values))
                assert np.all(np.abs(values.mean(axis=0) - exact) <= 5 * sigma)

    @pytest.mark.parametrize("width", [2.0 ** -53, 1e-4, 0.01, 0.37, 2.0])
    def test_one_pass_bins_equal_per_bin_masks(self, width):
        curve = tradeoff_curve(3000, width, np.random.default_rng(49))
        indices = np.floor(curve.h1 / width).astype(int)
        expected = tuple(((int(k) + 0.5) * width, float(curve.h2[indices == k].max()))
                         for k in np.unique(indices))
        assert curve.bins == expected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tradeoff_curve(0)
        with pytest.raises(ValueError):
            tradeoff_curve(10, bin_width=0.0)


class TestTheorem3:
    def test_equalities(self):
        report = theorem3_report()
        assert report.lhs_eq17 == pytest.approx(2.0, abs=1e-12)
        assert report.lhs_eq18 == pytest.approx(2.0, abs=1e-12)

    def test_values_from_trace_distances(self):
        report = theorem3_report()
        assert report.p_b == pytest.approx(0.75, abs=1e-12)
        assert report.p_b_prime == pytest.approx(0.75, abs=1e-12)
        assert report.p_a == pytest.approx(0.5, abs=1e-12)
        assert report.p_ar == pytest.approx(0.5, abs=1e-12)
        assert report.p_ay == pytest.approx(0.5, abs=1e-12)


class TestInfoDelta:
    def test_reference_margins(self):
        report = infodelta_check([0.05, 0.01, 0.099])
        margins = report.terminal_margin
        assert margins[0] == pytest.approx(0.0660964, abs=1e-6)
        assert margins[1] == pytest.approx(0.0364386, abs=1e-6)
        assert margins[2] > 0.0
        assert report.ok

    def test_identity_residuals_vanish(self):
        report = infodelta_check(np.linspace(0.005, 0.095, 25))
        assert np.all(report.identity_residual <= 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            infodelta_check([0.2])
        with pytest.raises(ValueError):
            infodelta_check([0.0])
