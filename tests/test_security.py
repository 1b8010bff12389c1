import dataclasses
import tracemalloc

import numpy as np
import pytest

from otlab import numerics, protocol, security
from otlab.numerics import (
    Ensemble,
    Povm,
    holevo,
    mutual_information,
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
    example3_value,
    guess_probs,
    holevo_triple,
    infodelta_check,
    max_holevo_sum_search,
    returned_ensemble,
    returned_states,
    theorem3_report,
    tradeoff_bound_margins,
    tradeoff_curve,
)
import qutrit_oracles
from qutrit_oracles import (TETRAHEDRON, erlang_rows, lemma1_images, projector, random_povm,
                            sign_state_information)

SQRT_HALF = 1.0 / np.sqrt(2.0)


def _random_params(rng):
    return CheatParams.from_squares(*rng.dirichlet([1.0, 1.0, 1.0]))


# diag(1, w, w^2) with w = exp(i pi / 3): it turns every nonzero off-diagonal
# entry of a real qutrit matrix complex (diag(1, i, -1) leaves the (0, 2)
# entry real, and with it every "r" ensemble).
_PHASES = np.exp(1j * np.pi * np.arange(3) / 3)


def _phased(ens):
    """``ens`` under the diagonal unitary ``diag(_PHASES)``: complex, and unitarily equivalent."""
    phased = Ensemble(ens.probabilities, _PHASES[:, None] * ens.matrices * _PHASES.conj())
    assert phased.matrices.imag.any()
    return phased


# Two-qutrit inputs: amplitudes [..., 9] over |withheld, sent>, the sent
# qutrit the second (fast) factor, on which the receiver's gate acts.

def _haar_two_qutrit(rng, n):
    """``n`` Haar-random two-qutrit states ``[n, 9]``: normalized complex Gaussians.

    Each state's draws are its nine real parts, then its nine imaginary parts.
    """
    z = rng.normal(size=(n, 2, 9))
    amps = z[:, 0] + 1j * z[:, 1]
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def _sent_diagonal(amps):
    """Diagonals ``[..., 3]`` of the sent qutrit's reduced operators: the squared triples."""
    return (np.abs(amps.reshape(amps.shape[:-1] + (3, 3))) ** 2).sum(axis=-2)


def _returned_branches(amps):
    """The four returned two-qutrit states ``[4, 9]`` of one input, in ``RY_ORDER``."""
    return np.stack([np.kron(np.eye(3), protocol.bob_gate(y, r)) @ amps
                     for r, y in security.RY_ORDER])


def _nine_dim_triple(amps):
    """Holevo quantities of y, r and y XOR r, by eigendecomposition in two-qutrit space.

    Each label value's state averages the two returned branches that carry it.
    """
    branches = _returned_branches(amps)
    projectors = branches[:, :, None] * branches[:, None, :].conj()
    values = np.array([[y, r, y ^ r] for r, y in security.RY_ORDER]).T   # [label, branch]
    return holevo(np.array([[projectors[row == value].mean(axis=0) for value in (0, 1)]
                            for row in values]))


def _example2_elements(alpha):
    """Example 2: the rows of Example 1 on |00>, |11>, |22>, and the remainder's projector."""
    e00, e11, e22 = np.eye(9)[[0, 4, 8]]
    rows = np.array([np.cos(alpha) * e00 + e11, np.cos(alpha) * e00 - e11,
                     np.sin(alpha) * e00 + e22, np.sin(alpha) * e00 - e22]) / np.sqrt(2.0)
    elements = rows[:, :, None] * rows[:, None, :]
    return np.concatenate([elements, [np.eye(9) - elements.sum(axis=0)]])


class TestCheatParams:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            CheatParams(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("triple", [(np.nan, 0.5, 0.5), (0.6, np.nan, 0.8),
                                        (np.inf, 0.0, 0.0), (0.0, -np.inf, 1.0),
                                        (10**400, 0, 0), (True, False, False),
                                        (np.True_, 0.0, 0.0), ("1", 0, 0), (None, 1.0, 0.0),
                                        (1j, 0.0, 0.0)])
    def test_non_finite_amplitudes_rejected(self, triple):
        with pytest.raises(ValueError, match="^[abc] must be (finite|a real number)"):
            CheatParams(*triple)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="^b must be nonnegative$"):
            CheatParams(0.6, -0.8, 0.0)

    @pytest.mark.parametrize("a", [1e155, 1e200, np.float64(1e200)])
    def test_overflowing_squares_fail_the_norm_check(self, a):
        # An overflowing square is inf, which fails the check without a RuntimeWarning.
        with pytest.raises(ValueError, match="^squares sum to inf, expected 1$"):
            CheatParams(a, 0.0, 0.0)

    @pytest.mark.parametrize("alpha", [-0.5, -1e-9, np.pi / 2 + 1e-9, 2.0, "0.1", True,
                                       np.True_, pytest.param(10**400, id="1e400")])
    def test_alpha_outside_quarter_turn_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha (.* outside \[0, pi/2\]|must be a real "
                                             r"number|must be finite)"):
            CheatParams.from_alpha(alpha)

    def test_alpha_endpoints_accepted(self):
        assert CheatParams.from_alpha(0.0).c == 0.0
        assert CheatParams.from_alpha(np.pi / 2 + 1e-12).a == pytest.approx(SQRT_HALF)
        # Any real type gives the triple of its float, bit for bit.
        for alpha in (np.float32(0.3), np.float16(0.3), np.int8(1)):
            got, want = CheatParams.from_alpha(alpha), CheatParams.from_alpha(float(alpha))
            assert np.array([got.a, got.b, got.c]).tobytes() == \
                np.array([want.a, want.b, want.c]).tobytes()

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
        assert ens.spectra[0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-10)

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
            ens = returned_ensemble(params, "joint")
            avg = np.tensordot(ens.probabilities, ens.matrices, 1)
            assert np.allclose(avg, np.diag(params.squares), atol=1e-12)

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

    @pytest.mark.parametrize("label", ["y", "r", "yxr", "joint"])
    def test_returned_states_equal_the_einsum_oracle(self, label):
        rng = np.random.default_rng(32)
        rows = np.sqrt(rng.dirichlet([1.0, 1.0, 1.0], size=50))
        # Rows with one or two zero amplitudes, the honest triples among them.
        zeros = np.array([[0.0, 0.6, 0.8], [0.6, 0.0, 0.8], [0.6, 0.8, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for amplitudes in (rows, zeros, rows.reshape(5, 10, 3), rows[0]):
            got = returned_states(amplitudes, label)
            assert np.array_equal(got, qutrit_oracles.returned_states(amplitudes, label))
            assert got.shape == amplitudes.shape[:-1] + ((4 if label == "joint" else 2), 3, 3)

    @pytest.mark.parametrize("label", ["y", "r", "yxr", "joint"])
    def test_one_eigvalsh_per_ensemble_without_operator_objects(self, monkeypatch, label):
        calls = {}
        eigvalsh, post_init = np.linalg.eigvalsh, numerics.DensityOperator.__post_init__

        def counted_eigvalsh(mats):
            calls["eigvalsh"] += 1
            return eigvalsh(mats)

        def counted_post_init(self):
            calls["operators"] += 1
            post_init(self)

        params = CheatParams(SQRT_HALF, 0.5, 0.5)
        states = returned_states([params.a, params.b, params.c], label)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(numerics.DensityOperator, "__post_init__", counted_post_init)
        for build in (lambda: returned_ensemble(params, label),
                      lambda: Ensemble.uniform(states),
                      lambda: states[None]):
            calls.update(eigvalsh=0, operators=0)
            holevo(build())
            assert calls == {"eigvalsh": 1, "operators": 0}

    @pytest.mark.parametrize("label", ["y", "r", "yxr", "joint"])
    def test_one_complex_stack_holds_the_states_and_their_average(self, monkeypatch, label):
        stacks = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(mats):
            stacks.append(mats)
            return eigvalsh(mats)

        def refused(*args, **kwargs):
            raise AssertionError("the states were concatenated")

        params = CheatParams(SQRT_HALF, 0.5, 0.5)
        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        monkeypatch.setattr(np, "concatenate", refused)
        ens = returned_ensemble(params, label)
        (stack,) = stacks
        n = len(ens.matrices)
        assert stack.dtype == complex and stack.shape == (n + 1, 3, 3)
        # The stored matrices are the stack's first n slots, not a copy of them.
        assert ens.matrices.base is stack and np.shares_memory(ens.matrices, stack[:n])
        assert np.array_equal(stack[n], np.tensordot(ens.probabilities, ens.matrices, 1))

    @pytest.mark.parametrize("label", ["y", "r", "yxr", "joint"])
    def test_bitwise_equals_validated_ensemble(self, label):
        rng = np.random.default_rng(32)
        params = [_random_params(rng) for _ in range(1000)]
        params += [CheatParams.honest(0), CheatParams.honest(1), CheatParams.learn_y()]
        amplitudes = np.array([[p.a, p.b, p.c] for p in params])
        stacked = holevo(returned_states(amplitudes, label))
        for p, chi in zip(params, stacked):
            ens = returned_ensemble(p, label)
            ref = Ensemble.uniform(returned_states([p.a, p.b, p.c], label))
            assert ens.matrices.dtype == ref.matrices.dtype == complex
            for name in ("probabilities", "matrices", "spectra", "average_spectrum"):
                assert np.array_equal(getattr(ens, name), getattr(ref, name)), name
                assert not getattr(ens, name).flags.writeable
            # The spectra of one eigvalsh per matrix, as they were computed apart.
            assert np.array_equal(ens.spectra, np.linalg.eigvalsh(ref.matrices))
            average = numerics._average(ref.probabilities, ref.matrices)
            assert np.array_equal(ens.average_spectrum, np.linalg.eigvalsh(average))
            assert holevo(ens) == holevo(ref) == chi


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


class TestTwoQutritReduction:
    def test_matches_nine_dim_holevo(self):
        # An entangled input acts as the triple of its sent qutrit's reduced diagonal.
        for amps in _haar_two_qutrit(np.random.default_rng(31), 1000):
            closed = holevo_triple(CheatParams.from_squares(*_sent_diagonal(amps)))
            oracle = _nine_dim_triple(amps)
            assert closed.chi_y == pytest.approx(oracle[0], abs=1e-9)
            assert closed.chi_r == pytest.approx(oracle[1], abs=1e-9)
            assert closed.chi_yxr == pytest.approx(oracle[2], abs=1e-9)


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


@pytest.mark.parametrize("record,values,message", [
    (security.GuessProbs, (0.4, 0.5, 0.5), r"p_y=0.4 outside \[1/2, 1\]"),
    (security.GuessProbs, (1.0, 1.0, 0.5), r"circle constraint violated: 0.5 > 1/4"),
    (security.HolevoTriple, (0.5, 1.5, 0.0), r"chi_r=1.5 outside \[0, 1\]"),
])
def test_records_built_directly_check_their_range(record, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        record(*values)


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

    def test_bitwise_equal_to_array_closed_forms(self):
        rng = np.random.default_rng(34)
        rows = np.vstack([rng.dirichlet([1.0, 1.0, 1.0], size=20_000),
                          [(1.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]])
        params = [CheatParams.from_squares(*row) for row in rows]
        # Amplitudes whose squares pass 1 or 0 by round-off are clipped first.
        params += [CheatParams(1.0 + 4e-13, 0.0, 0.0), CheatParams(0.6, 0.8, -1e-13)]
        got = np.array([[t.chi_y, t.chi_r, t.chi_yxr] for t in map(holevo_triple, params)])
        want = np.column_stack(security._triple_from_squares(
            *np.array([p.squares for p in params]).T))
        assert got.tobytes() == want.tobytes()


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
    def _dense(chi_y, chi_r, chi_yxr):
        """The kernel's margins scattered into ``[n, 4]``, NaN where no bound applies."""
        n = np.broadcast(chi_y, chi_r, chi_yxr).size
        dense = np.full((n, 4), np.nan)
        for col, (rows, margins) in zip((0, 2), tradeoff_bound_margins(chi_y, chi_r, chi_yxr)):
            assert rows.dtype.kind == "i" and margins.shape == (rows.size, 2)
            assert np.all(np.diff(rows) > 0)
            dense[rows, col:col + 2] = margins
        return dense

    def _margins(self, params):
        triple = holevo_triple(params)
        return triple, self._dense(triple.chi_y, triple.chi_r, triple.chi_yxr)[0]

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

    # Anchors at delta 0, 1/2, 1/2 - ulp, NaN and negative, and around the
    # exact-difference range [1/2, 2] of 1 - anchor.
    ANCHORS = [1.0, 0.5, 0.5 + np.spacing(0.5), np.nan, 1.0 + 1e-9, 1.5,
               0.5 - np.spacing(0.5) / 2, 1.0 - np.spacing(1.0) / 2, 1.0 + np.spacing(1.0),
               0.25, 2.0, 2.5, 5e-324, 0.0, -0.0, -1.0, np.inf, -np.inf]

    def test_bitwise_equal_to_scalar_reference(self):
        rng = np.random.default_rng(61)
        triples = np.column_stack(security._triple_from_squares(
            *rng.dirichlet([1.0, 1.0, 1.0], size=10_000).T))
        assert 1.0 - self.ANCHORS[2] == 0.5 - np.spacing(0.5)
        # Each edge anchor in either anchor column, against ordinary, NaN and equal others.
        edges = [[0.3, anchor, other] for anchor in self.ANCHORS
                 for other in (0.2, 0.9, np.nan, anchor)]
        edges += [[0.3, other, anchor] for _, anchor, other in edges]
        triples = np.vstack([triples, edges])
        got = self._dense(*triples.T)
        want = np.array([self._scalar_margins(*row) for row in triples.tolist()])
        assert got.shape == want.shape == (len(triples), 4)
        assert got.tobytes() == want.tobytes()
        nan = np.isnan(want)
        assert nan[:10_000].any() and not nan[:10_000].all()
        # Both anchors apply, and neither does, on some rows.
        assert (~nan[:, [0, 2]]).all(axis=1).any() and nan[:, [0, 2]].all(axis=1).any()

    def test_broadcast_and_scalar_inputs(self):
        chi = np.array([[0.3], [0.8]])
        rows, margins = tradeoff_bound_margins(0.1, chi, np.array([0.95, 0.2, 0.7]))[0]
        assert rows.tolist() == [3, 4, 5]
        assert margins.tobytes() == np.array(
            [[binary_entropy(1.0 - 0.8) - other for other in (0.1, value)]
             for value in (0.95, 0.2, 0.7)]).tobytes()
        (rows_r, margins_r), (rows_x, margins_x) = tradeoff_bound_margins(0.1, 0.2, 0.3)
        assert rows_r.size == rows_x.size == margins_r.size == margins_x.size == 0

    def test_sweep_no_violations(self):
        rng = np.random.default_rng(35)
        # A bound that does not apply has a NaN margin, which is no violation.
        assert all(not (self._margins(_random_params(rng))[1] < -1e-9).any()
                   for _ in range(2000))


class TestTetrahedron:
    def test_stack_is_read_only_and_backs_the_states(self):
        stack = TETRAHEDRON
        assert stack.shape == (4, 2, 2) and stack.dtype == complex
        assert stack.flags.c_contiguous and not stack.flags.writeable
        for op, mat in zip(Ensemble.uniform(stack).states, stack):
            assert np.array_equal(op.matrix, mat)

    def test_pure_and_centered(self):
        states = Ensemble.uniform(TETRAHEDRON).states
        total = sum(op.matrix for op in states)
        assert np.allclose(total / 4.0, np.eye(2) / 2.0, atol=1e-12)
        for op in states:
            assert np.trace(op.matrix @ op.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_pairwise_overlaps(self):
        states = Ensemble.uniform(TETRAHEDRON).states
        for i in range(4):
            for j in range(i + 1, 4):
                hs = np.trace(states[i].matrix @ states[j].matrix).real
                assert hs == pytest.approx(1.0 / 3.0, abs=1e-12)


def _reduce(povm, params, variant="exact"):
    """The qubit images ``[n, 2, 2]`` of one POVM for one amplitude triple."""
    return lemma1_images(povm.elements, [[params.a, params.b, params.c]], variant)[0]


class TestLemma1Reduce:
    def _stat_deviation(self, povm, images, params):
        states = cheat_state_vectors(params)
        worst = 0.0
        for vec, tetra in zip(states, TETRAHEDRON):
            for element, image in zip(povm.elements, images):
                p3 = float(vec @ element.real @ vec)
                p2 = float(np.trace(image @ tetra).real)
                worst = max(worst, abs(p3 - p2))
        return worst

    def test_computational_basis_reduces_to_weighted_identity(self):
        povm = Povm([np.diag(row) for row in np.eye(3, dtype=complex)])
        params = _random_params(np.random.default_rng(36))
        for variant in ("exact", "psd"):
            images = _reduce(povm, params, variant)
            for image, weight in zip(images, params.squares):
                assert np.allclose(image, weight * np.eye(2), atol=1e-12)
            assert self._stat_deviation(povm, images, params) < 1e-12

    def test_exact_variant_preserves_statistics(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            params = _random_params(rng)
            povm = random_povm(3, int(rng.integers(3, 7)), rng, real=True)
            images = _reduce(povm, params)
            assert numerics.is_measurement(images)
            assert self._stat_deviation(povm, images, params) < 1e-10
            assert np.allclose(images.sum(axis=0), np.eye(2), atol=1e-10)

    def test_example1_povm_statistics_preserved(self):
        alpha = 0.9
        params = CheatParams.from_alpha(alpha)
        images = _reduce(example1_povm(alpha), params)
        assert self._stat_deviation(example1_povm(alpha), images, params) < 1e-10

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
            images = _reduce(povm, _random_params(rng), "psd")
            assert numerics.is_measurement(images)
            assert np.linalg.eigvalsh(images).min() >= numerics.EIG_FLOOR
            assert np.allclose(images.sum(axis=0), np.eye(2), atol=1e-10)

    def test_reduced_joint_information_capped_at_one_bit(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            povm = random_povm(3, int(rng.integers(3, 7)), rng, real=True)
            images = _reduce(povm, _random_params(rng))
            probs = np.einsum("njk,skj->sn", images, TETRAHEDRON).real
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
            assert np.array_equal(row, _reduce(povm, params, variant))

    @pytest.mark.parametrize("variant", ["exact", "psd"])
    def test_images_take_a_leading_sample_axis(self, variant):
        rng = np.random.default_rng(44)
        elements = np.stack([np.stack(random_povm(3, 5, rng).elements) for _ in range(4)])
        amplitudes = np.sqrt(rng.dirichlet([1.0, 1.0, 1.0], size=(4, 6)))
        images = lemma1_images(elements, amplitudes, variant)
        assert images.shape == (4, 6, 5, 2, 2)
        for i in range(4):
            assert np.array_equal(images[i], lemma1_images(elements[i], amplitudes[i], variant))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            lemma1_images(np.stack([np.eye(3)]), [[1.0, 0.0, 0.0]], variant="other")

    @pytest.mark.parametrize("variant", ["exact", "psd"])
    def test_bloch_form_is_hermitian_by_construction(self, variant):
        rng = np.random.default_rng(45)
        elements = np.stack([random_povm(3, 5, rng).elements for _ in range(4)])
        amplitudes = np.sqrt(rng.dirichlet([1.0, 1.0, 1.0], size=(4, 6)))
        t, bloch = security._lemma1_bloch(elements, amplitudes, variant)
        assert t.dtype == bloch.dtype == float
        assert t.shape == (4, 6, 5) and bloch.shape == (4, 6, 5, 3)
        # Real t and b: the matrices are exactly Hermitian.
        images = lemma1_images(elements, amplitudes, variant)
        assert np.array_equal(images, np.conj(np.swapaxes(images, -1, -2)))
        # t + b . r is each image's probability on the tetrahedron state of Bloch vector r.
        probs = np.einsum("...njk,skj->...sn", images, TETRAHEDRON).real
        bloch_probs = np.einsum("...nk,sk->...sn", bloch, security._TETRA_BLOCH) + t[..., None, :]
        assert np.abs(bloch_probs - probs).max() <= 1e-15

    @pytest.mark.parametrize("variant", ["exact", "psd"])
    def test_bloch_verdicts_match_matrix_checks(self, variant):
        rng = np.random.default_rng(46)
        elements = np.stack([random_povm(3, 5, rng, real=True).elements for _ in range(7)])
        amplitudes = np.sqrt(rng.dirichlet([1.0, 1.0, 1.0], size=(7, 4)))
        t, bloch = security._lemma1_bloch(elements, amplitudes, variant)
        # Per sample: valid; t + 1e-6; b_z + 2 and - 2 on two elements (complete, not psd);
        # b_x + 1e-6; b_y - 1e-6; b_z + 1e-6; one t NaN.
        t[1, :, 0] += 1e-6
        bloch[2, :, 0, 2] += 2.0
        bloch[2, :, 1, 2] -= 2.0
        for sample, axis in ((3, 0), (4, 1), (5, 2)):
            bloch[sample, :, 1, axis] += 1e-6 if axis != 1 else -1e-6
        t[6, 0, 2] = np.nan
        # The matrices t I + b . sigma, built here from the Pauli matrices.
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        images = t[..., None, None] * np.eye(2) + np.einsum("...k,kij->...ij", bloch, paulis)
        complete = security._bloch_is_measurement(t, bloch)
        assert np.array_equal(complete, numerics.is_measurement(images))
        assert complete.all(axis=1).tolist() == [True, False, True, False, False, False, False]
        assert complete[6].tolist() == [False, True, True, True]
        least = security._bloch_least_eigenvalues(t, bloch)
        finite = np.isfinite(images).all(axis=(-2, -1))
        assert np.abs(least[finite] - np.linalg.eigvalsh(images[finite])[:, 0]).max() <= 1e-15
        assert np.isnan(least[~finite]).all()
        negative = least < numerics.EIG_FLOOR
        assert negative[2, :, :2].all()
        if variant == "psd":
            assert negative.any(axis=-1).tolist() == [[False] * 4, [False] * 4, [True] * 4,
                                                      [False] * 4, [False] * 4, [False] * 4,
                                                      [False] * 4]


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

    def test_elements_equal_the_element_oracle(self):
        for alpha in np.linspace(0.0, np.pi / 2, 33):
            got = example1_povm(alpha).elements
            want = qutrit_oracles.example1_elements(alpha)
            assert got.tobytes() == want.astype(complex).tobytes()

    def test_domain(self):
        for alpha in (-0.1, 2.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="outside"):
                example1_povm(alpha)
            with pytest.raises(ValueError, match="outside"):
                qutrit_oracles.example1_elements(np.array([0.5, alpha]))
            with pytest.raises(ValueError, match="outside|must be finite"):
                CheatParams.from_alpha(alpha)


class TestExample2:
    def test_extracts_one_bit_from_entangled_family(self):
        alpha = 0.6
        amps = np.zeros(9)
        amps[0] = SQRT_HALF
        amps[4] = np.cos(alpha) * SQRT_HALF
        amps[8] = np.sin(alpha) * SQRT_HALF
        ens = Ensemble.uniform([projector(branch) for branch in _returned_branches(amps)])
        povm = Povm(_example2_elements(alpha))
        assert mutual_information(ens, povm) == pytest.approx(1.0, abs=1e-10)


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

    def test_arrays_match_an_exact_evaluation(self):
        import mpmath

        a = np.concatenate([np.linspace(0.0, 1.0, 1001), [SQRT_HALF, 5e-324, 1.0 - 2.0 ** -53]])
        with mpmath.workdps(50):
            def exact(a_val):
                a_val = mpmath.mpf(a_val)
                b_prime = mpmath.sqrt(max(0, 1 - a_val ** 2))
                terms = (a_val + b_prime, abs(a_val - b_prime))
                return float(sum(x ** 2 * mpmath.log(x, 2) for x in terms if x > 0))

            want = np.array([exact(a_val) for a_val in a])
        got = example3_value(a)
        assert got.shape == a.shape
        assert np.abs(got - want).max() <= 2e-15

    def test_shapes_and_the_first_entry_outside(self):
        assert type(example3_value(0.3)) is float
        assert type(example3_value(np.float64(0.3))) is float
        grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        values = example3_value(grid)
        assert values.shape == (2, 3)
        assert values.tolist() == [[example3_value(a) for a in row] for row in grid.tolist()]
        with pytest.raises(ValueError, match="nan"):
            example3_value([0.2, np.nan, 2.0])


class TestAccessibleInfoSearch:
    def test_orthogonal_pair_reaches_one_bit(self):
        ens = Ensemble.uniform([projector([1, 0, 0]), projector([0, 1, 0])])
        result = accessible_info_search(ens, rng=np.random.default_rng(41))
        assert result.best_value == pytest.approx(1.0, abs=1e-6)

    def test_joint_family_reaches_one_bit(self):
        ens = returned_ensemble(CheatParams.from_alpha(0.8), "joint")
        result = accessible_info_search(ens, rng=np.random.default_rng(42))
        assert result.best_value >= 1.0 - 1e-6
        assert result.best_value <= holevo(ens) + 1e-9

    def test_never_exceeds_holevo(self):
        # Every returned measurement passes the PSD check of Povm, or the
        # search raises numerics.InvalidMeasurementError.
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

    @pytest.mark.parametrize("fields,name", [
        ((-1, 5), "n_starts"), ((2, -5), "max_iters"), ((2.5, 5), "n_starts"),
        ((True, 5), "n_starts"), ((2, np.float64(5.0)), "max_iters"), ((2, np.int64(-1)), "max_iters"),
    ])
    def test_config_fields_are_integers_at_least_zero(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer( >= 0)?, not "):
            SearchConfig(*fields)
        # The bound itself is valid: no random starts and no iterations run the seed frames alone.
        assert SearchConfig(0, 0) == SearchConfig(np.int64(0), np.uint8(0))

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

    @pytest.mark.parametrize("cfg, n_triples", [(SearchConfig(2, 100), 20), (SearchConfig(), 2)])
    def test_real_frames_reach_the_complex_value(self, cfg, n_triples):
        # A real binary ensemble is searched on 6 real rows; the same ensemble
        # under a diagonal phase unitary on 9 complex rows.
        rng = np.random.default_rng(48)
        for _ in range(n_triples):
            params = _random_params(rng)
            for label in ("y", "r", "yxr"):
                ens = returned_ensemble(params, label)
                seed = int(rng.integers(2 ** 31))
                real = accessible_info_search(ens, cfg, np.random.default_rng(seed))
                complex_ = accessible_info_search(_phased(ens), cfg, np.random.default_rng(seed))
                assert real.best_value >= complex_.best_value - 1e-12

    def test_each_path_runs_its_own_frames(self, monkeypatch):
        frames = []
        normalize = security._normalize

        def recording(rows):
            frames.append((rows.shape[-2:], rows.dtype))
            return normalize(rows)

        monkeypatch.setattr(security, "_normalize", recording)
        cfg = SearchConfig(n_starts=4, max_iters=60)
        ens = returned_ensemble(CheatParams(SQRT_HALF, 0.5, 0.5), "yxr")
        real = accessible_info_search(ens, cfg, np.random.default_rng(49))
        assert set(frames) == {((6, 3), np.dtype(float))}
        assert len(real.best_povm.elements) <= 6
        assert not real.best_povm.elements.imag.any()
        frames.clear()
        phased = _phased(ens)
        complex_ = accessible_info_search(phased, cfg, np.random.default_rng(49))
        assert set(frames) == {((9, 3), np.dtype(complex))}
        assert complex_.best_value <= holevo(phased) + 1e-9


class TestMaxHolevoSum:
    def test_analytic_optimum(self):
        result = max_holevo_sum_search()
        assert result.max_sum == pytest.approx(MAX_HOLEVO_SUM, abs=1e-9)
        assert result.argmax.squares[0] == pytest.approx(np.sqrt(5.0) / 5.0, abs=1e-6)
        assert result.argmax.squares[1] == pytest.approx((5.0 - np.sqrt(5.0)) / 10.0, abs=1e-9)
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
        squares = erlang_rows(np.random.default_rng(47), 3, 500)
        expected = np.column_stack(security._triple_from_squares(*squares.T))
        assert np.array_equal(curve.triples, expected)
        arg = int(np.argmax(expected[:, 0] + np.maximum(expected[:, 1], expected[:, 2])))
        assert curve.argmax == CheatParams.from_squares(*squares[arg])

    @pytest.mark.parametrize("shape,a4,a2b2", [(1, 1 / 6, 1 / 12), (3, 2 / 15, 1 / 10)])
    def test_sampler_matches_haar_reduced_diagonal_law(self, shape, a4, a2b2):
        # Oracle: the sent qutrit's reduced diagonals of Haar states whose withheld
        # part has dimension ``shape``: one qutrit for prop3's draw (shape 1), the
        # curve's two-qutrit inputs (shape 3).  The exact law of each diagonal
        # entry is Beta(shape, 2 shape), with E[a^2] = 1/3, E[a^4] = a4 and
        # E[a^2 b^2] = a2b2.
        from scipy import stats

        rng = np.random.default_rng(48)
        z = rng.normal(size=(5000, 2, 3 * shape))
        amps = z[:, 0] + 1j * z[:, 1]
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        oracle = (np.abs(amps.reshape(-1, shape, 3)) ** 2).sum(axis=1)
        sampled = np.concatenate(list(numerics.dirichlet_blocks(rng, shape, 20000)))
        for squares in (oracle, sampled):
            for col in range(3):
                assert stats.kstest(squares[:, col], "beta", args=(shape, 2 * shape)).pvalue > 1e-3
            for values, exact in ((squares, 1 / 3), (squares ** 2, a4),
                                  (squares * np.roll(squares, 1, axis=1), a2b2)):
                sigma = values.std(axis=0) / np.sqrt(len(values))
                assert np.all(np.abs(values.mean(axis=0) - exact) <= 5 * sigma)

    def test_diagonals_are_finite_rows_of_one_draw(self):
        n = 2 * numerics.DIRICHLET_BLOCK + 37
        rng, reference = np.random.default_rng(59), np.random.default_rng(59)
        squares = np.concatenate([squares for squares, _ in security._curve_blocks(rng, n)])
        assert squares.tobytes() == erlang_rows(reference, 3, n).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state
        assert not np.isnan(squares).any() and squares.min() >= 0.0
        assert np.abs(squares.sum(axis=1) - 1.0).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("shape", [1, 3])
    def test_diagonal_blocks_hold_a_few_blocks_of_memory(self, shape):
        # The block the caller holds, the next one, a slice of uniforms no larger
        # and one temporary: one block's [8192, 3, 3] uniforms at once would
        # take three blocks alone.
        block_bytes = numerics.DIRICHLET_BLOCK * 3 * 8
        rng = np.random.default_rng(60)
        tracemalloc.start()
        try:
            for _ in numerics.dirichlet_blocks(rng, shape, 2 * numerics.DIRICHLET_BLOCK):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * block_bytes, f"peak {peak / block_bytes:.1f} blocks"

    @pytest.mark.parametrize("shape", [1, 3])
    def test_extreme_uniforms_give_finite_diagonals(self, shape):
        # The smallest and largest uniforms: 0, whose 1 - U is 1, and 1 - 2**-53.
        # Each entry takes the last ``shape`` uniforms of its three.
        top = 1.0 - 2.0 ** -53
        rows = np.array([[[top] * 3] * 3,
                         [[0.0] * 3, [top] * 3, [top] * 3],
                         [[0.0] * 3, [0.0, 0.0, top], [0.5] * 3]])[..., -shape:]

        class Extremes:
            def random(self, size=None, out=None):
                if out is None:
                    return np.resize(rows, size)
                out[...] = np.resize(rows, out.shape)

        squares = next(numerics.dirichlet_blocks(Extremes(), shape, 3))
        assert np.isfinite(squares).all() and squares.min() >= 0.0
        assert squares[0, 0] == squares[0, 1] == squares[0, 2] == pytest.approx(1 / 3, abs=1e-15)
        assert squares[1, 0] == 0.0 and squares[1, 1] == squares[1, 2] == 0.5
        assert squares[2, 0] == 0.0 < squares[2, 2] < squares[2, 1]
        assert np.abs(squares.sum(axis=1) - 1.0).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("width", [2.0 ** -53, 1e-4, 0.01, 0.37, 2.0])
    def test_one_pass_bins_equal_per_bin_masks(self, width):
        curve = tradeoff_curve(3000, width, np.random.default_rng(49))
        indices = np.floor(curve.h1 / width).astype(int)
        expected = tuple(((int(k) + 0.5) * width, float(curve.h2[indices == k].max()))
                         for k in np.unique(indices))
        assert curve.bins == expected

    @pytest.mark.parametrize("seed,width", [(51, 0.01), (52, 0.02), (53, 0.5)])
    def test_violations_equal_per_bin_loop(self, seed, width):
        curve = tradeoff_curve(3000, width, np.random.default_rng(seed))
        # Lifted copies push some bins over the envelope and max_sum over its maximum.
        counts = []
        for lift in (0.0, 0.1, 1.0):
            lifted = dataclasses.replace(curve, max_sum=curve.max_sum + lift,
                                         bins=tuple((c, v + lift) for c, v in curve.bins))
            envelope = 0
            for center, value in lifted.bins:
                left = center - width / 2.0
                if left >= 0.5 and value > binary_entropy(1.0 - left) + 1e-9:
                    envelope += 1
            assert lifted.envelope_violations == envelope
            assert lifted.violations == envelope + int(lifted.max_sum > MAX_HOLEVO_SUM + 1e-6)
            counts.append(lifted.violations)
        assert counts[0] == 0 < counts[1] <= counts[2]

    def test_envelope_is_computed_once(self, monkeypatch):
        curve = tradeoff_curve(3000, 0.01, np.random.default_rng(51))
        calls, entropy = [], security.binary_entropy
        monkeypatch.setattr(security, "binary_entropy",
                            lambda delta: calls.append(delta) or entropy(delta))
        assert curve.envelope_violations == curve.violations == 0
        assert len(calls) == 1

    @staticmethod
    def _bins_of(triples, width):
        """Bins of all samples' triples ``[n, 3]`` at once: the reference."""
        h1 = np.maximum(triples[:, 1], triples[:, 2])
        keys, inverse = np.unique(np.floor(h1 / width).astype(int), return_inverse=True)
        maxima = np.full(keys.size, -np.inf)
        np.maximum.at(maxima, inverse, triples[:, 0])
        return tuple(((k + 0.5) * width, v) for k, v in zip(keys.tolist(), maxima.tolist()))

    @classmethod
    def _one_shot(cls, n, width, rng):
        """Bins, triples, max sum and argmax from one draw of all samples: the reference."""
        squares = erlang_rows(rng, 3, n)
        triples = np.column_stack(security._triple_from_squares(*squares.T))
        sums = triples[:, 0] + np.maximum(triples[:, 1], triples[:, 2])
        arg = int(np.argmax(sums))
        return (cls._bins_of(triples, width), triples, float(sums[arg]),
                CheatParams.from_squares(*squares[arg]))

    # Squares whose max(chi_r, chi_yxr) rounds to 1 + 2**-52.
    _ABOVE_ONE = (0.4999999999999998, 5.551115123125783e-17, 0.4999999999999998)

    # The widths' bins that cover [0, 1] number floor(1/w) + 1: 3, 4, 101 and
    # 2.  At the last width the sample above 1 falls in bin 2, past them.
    @pytest.mark.parametrize("width", [0.5, 1 / 3, 0.01, float(np.nextafter(0.5, 1.0))])
    @pytest.mark.parametrize("path", ["sparse", "dense"])
    def test_both_bin_paths_equal_reference(self, monkeypatch, width, path):
        n_bins = int(np.floor(1.0 / width)) + 1
        n = n_bins - 1 if path == "sparse" else n_bins
        blocks = security.dirichlet_blocks

        def first_above_one(rng, shape, size):
            for index, block in enumerate(blocks(rng, shape, size)):
                if index == 0:
                    block[0] = self._ABOVE_ONE
                yield block

        monkeypatch.setattr(security, "dirichlet_blocks", first_above_one)
        sorts, unique = [], np.unique

        def counted_unique(*args, **kwargs):
            sorts.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted_unique)
        curve = tradeoff_curve(n, width, np.random.default_rng(54))
        # Read while patched: the triples are replayed through the patched blocks.
        h1, triples = curve.h1, curve.triples
        monkeypatch.undo()
        assert len(sorts) == (path == "sparse")
        assert h1[0] > 1.0
        assert curve.bins == self._bins_of(triples, width)

    @pytest.mark.parametrize("width", [0.01, 0.7, 1e-9])
    def test_blocks_equal_one_shot_reference(self, width):
        n = 2 * numerics.DIRICHLET_BLOCK + 37
        curve = tradeoff_curve(n, width, np.random.default_rng(50))
        bins, triples, max_sum, argmax = self._one_shot(n, width, np.random.default_rng(50))
        assert curve.bins == bins
        assert curve.triples.tobytes() == triples.tobytes()
        assert curve.max_sum == max_sum and curve.argmax == argmax

    def test_tied_maximum_keeps_first_sample(self, monkeypatch):
        # Every sample has the same sum, so the argmax is the very first one.
        monkeypatch.setattr(security, "_triple_from_squares", lambda a2, b2, c2: (
            np.zeros_like(a2), np.full_like(a2, 0.5), np.zeros_like(a2)))
        n = numerics.DIRICHLET_BLOCK + 3
        curve = tradeoff_curve(n, 0.01, np.random.default_rng(51))
        first = erlang_rows(np.random.default_rng(51), 3, 1)[0]
        assert curve.argmax == CheatParams.from_squares(*first) and curve.max_sum == 0.5
        assert curve.bins == ((0.505, 0.0),)

    def test_memory_is_one_block_not_one_row_per_sample(self):
        # The [n, 3] triples alone would take 24 MB at 10**6 samples.
        rng = np.random.default_rng(55)
        tracemalloc.start()
        try:
            tradeoff_curve(10**6, 0.01, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    def test_triples_replay_one_shot_and_leave_the_stream_as_one_draw(self):
        n = 2 * numerics.DIRICHLET_BLOCK + 37
        rng, reference = np.random.default_rng(56), np.random.default_rng(56)
        curve = tradeoff_curve(n, 0.01, rng)
        _, triples, _, _ = self._one_shot(n, 0.01, reference)
        after = rng.bit_generator.state
        assert after == reference.bit_generator.state
        assert curve.triples.tobytes() == triples.tobytes()
        assert curve.triples is curve.triples
        assert rng.bit_generator.state == after  # the replay draws from its own generator

    def test_replace_keeps_the_replayed_samples(self):
        curve = tradeoff_curve(3000, 0.01, np.random.default_rng(57))
        lifted = dataclasses.replace(curve, max_sum=curve.max_sum + 1.0)
        assert lifted.triples.tobytes() == curve.triples.tobytes()
        assert lifted.bins == curve.bins and lifted.argmax == curve.argmax
        assert lifted.violations == curve.violations + 1

    @pytest.mark.parametrize("n_samples", [0, -1, 2**63, np.uint64(2**63), 2.5, 3.0,
                                           np.float64(3.0), True, False, np.True_, "10", None])
    def test_sample_count_must_be_an_integer_in_range(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            tradeoff_curve(n_samples)

    @pytest.mark.parametrize("n_samples", [1, np.int64(5), np.uint8(7)])
    def test_numpy_sample_counts_are_accepted(self, n_samples):
        curve = tradeoff_curve(n_samples, 0.5, np.random.default_rng(58))
        assert type(curve.n_samples) is int and curve.n_samples == n_samples
        assert curve.triples.shape == (n_samples, 3)

    @pytest.mark.parametrize("bin_width", [True, np.True_, "0.1", None, 1j,
                                           pytest.param(10**400, id="1e400")])
    def test_bool_bin_width_rejected(self, bin_width):
        with pytest.raises(ValueError, match="^bin_width must be (a real number|finite)"):
            tradeoff_curve(1000, bin_width)

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

    def test_iterables_read_as_the_array(self):
        grid = np.linspace(0.005, 0.095, 25)
        want = infodelta_check(grid)
        for other in (grid.tolist(), tuple(grid), iter(grid.tolist()), (d for d in grid)):
            got = infodelta_check(other)
            assert all(getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes()
                       for f in dataclasses.fields(want))

    def test_identity_residuals_vanish(self):
        report = infodelta_check(np.linspace(0.005, 0.095, 25))
        assert np.all(report.identity_residual <= 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            infodelta_check([])
        with pytest.raises(ValueError):
            infodelta_check([0.2])
        with pytest.raises(ValueError):
            infodelta_check([0.0])
