import numpy as np
import pytest

from otlab import protocol
from otlab.numerics import InvalidStateError, PureState
from otlab.protocol import (
    OneTimeTable,
    alice_basis,
    alice_measure,
    alice_prepare,
    and_eval,
    bob_gate,
    run_honest,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


class TestPrepare:
    def test_x0_t0(self):
        state = alice_prepare(0, 0)
        assert np.allclose(state.amplitudes, [SQRT_HALF, 0.0, SQRT_HALF])

    def test_x1_t1(self):
        state = alice_prepare(1, 1)
        assert np.allclose(state.amplitudes, [0.0, SQRT_HALF, -SQRT_HALF])

    def test_sign_flip_orthogonality(self):
        plus = alice_prepare(0, 0).amplitudes
        minus = alice_prepare(0, 1).amplitudes
        assert abs(np.vdot(plus, minus)) < 1e-15

    def test_exact_norm(self):
        for x in (0, 1):
            for t in (0, 1):
                amps = alice_prepare(x, t).amplitudes
                assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            alice_prepare(2, 0)


class TestGate:
    def test_identity_case(self):
        assert np.allclose(bob_gate(0, 0), np.eye(3))

    def test_y1_r0(self):
        assert np.allclose(bob_gate(1, 0), np.diag([1.0, -1.0, 1.0]))

    def test_y0_r1(self):
        assert np.allclose(bob_gate(0, 1), np.diag([-1.0, -1.0, 1.0]))

    def test_unitary_involution(self):
        for y in (0, 1):
            for r in (0, 1):
                gate = bob_gate(y, r)
                assert np.allclose(gate @ gate.conj().T, np.eye(3))
                assert np.allclose(gate @ gate, np.eye(3))

    def test_all_gates_commute(self):
        gates = [bob_gate(y, r) for y in (0, 1) for r in (0, 1)]
        for g1 in gates:
            for g2 in gates:
                assert np.allclose(g1 @ g2, g2 @ g1)


class TestMeasure:
    def test_sent_state_gives_zero(self):
        rng = np.random.default_rng(0)
        for x in (0, 1):
            for t in (0, 1):
                state = alice_prepare(x, t)
                assert all(alice_measure(state, x, t, rng) == 0 for _ in range(20))

    def test_gated_state_gives_output_one(self):
        rng = np.random.default_rng(0)
        state = PureState(3, bob_gate(1, 0) @ alice_prepare(1, 0).amplitudes)
        assert all(alice_measure(state, 1, 0, rng) == 1 for _ in range(20))

    def test_third_outcome_is_fair_coin(self):
        rng = np.random.default_rng(21)
        amps = np.zeros(3, dtype=complex)
        amps[1] = 1.0  # |1-x> for x = 0
        state = PureState(3, amps)
        n = 100_000
        mean = np.mean([alice_measure(state, 0, 0, rng) for _ in range(n)])
        assert abs(mean - 0.5) < 3 * 0.5 / np.sqrt(n)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidStateError):
            alice_measure(np.array([1.0, 1.0, 0.0]), 0, 0, np.random.default_rng(0))

    def test_exhaustive_deterministic_outcome(self):
        rng = np.random.default_rng(0)
        for x in (0, 1):
            for t in (0, 1):
                for y in (0, 1):
                    for r in (0, 1):
                        returned = bob_gate(y, r) @ alice_prepare(x, t).amplitudes
                        probs = np.abs(alice_basis(x) @ returned) ** 2
                        idx = int(np.argmax(probs))
                        assert probs[idx] > 1.0 - 1e-12
                        assert idx == t ^ (x & y) ^ r
                        e = alice_measure(PureState(3, returned), x, t, rng)
                        assert e == (x & y) ^ r


class TestRunHonest:
    def test_correlation_always_holds(self):
        rng = np.random.default_rng(22)
        x, y = rng.integers(2, size=2000), rng.integers(2, size=2000)
        table, t, r, outcome = run_honest(x, y, rng)
        # The batch holds all 16 (x, t, y, r) of criterion 01's enumeration.
        assert len(set(zip(x.tolist(), t.tolist(), y.tolist(), r.tolist()))) == 16
        assert table.correlation_ok.all()
        assert np.array_equal(outcome, t ^ (x & y) ^ r)
        assert np.array_equal(table.e, outcome ^ t)
        assert np.array_equal(table.f, r)
        assert np.array_equal(table.x, x) and np.array_equal(table.y, y)

    def test_x_zero_forces_equal_outputs(self):
        rng = np.random.default_rng(23)
        table, *_ = run_honest(0, rng.integers(2, size=500), rng)
        assert np.array_equal(table.e, table.f)

    def test_output_bit_unbiased(self):
        rng = np.random.default_rng(24)
        n = 100_000
        table, *_ = run_honest(np.ones(n, dtype=int), 1, rng)
        assert abs(table.e.mean() - 0.5) < 4.0 / np.sqrt(n)

    def test_scalars_broadcast(self):
        rng = np.random.default_rng(29)
        table, t, r, outcome = run_honest(1, [0, 1, 1], rng)
        assert table.x.tolist() == [1, 1, 1] and table.y.tolist() == [0, 1, 1]
        assert t.shape == r.shape == outcome.shape == table.e.shape == (3,)
        assert run_honest(0, 0, rng)[0].e.shape == (1,)

    @pytest.mark.parametrize("phase", [np.pi / 2, 1e-5])
    def test_uncertain_outcome_raises(self, monkeypatch, phase):
        def leaky_gate(y, r):
            return bob_gate(y, r) @ np.diag([1.0, 1.0, np.exp(1j * phase)])

        monkeypatch.setattr(protocol, "bob_gate", leaky_gate)
        with pytest.raises(RuntimeError):
            run_honest([0, 1], [1, 1], np.random.default_rng(30))


class TestAndEval:
    def test_honest_tables_compute_and(self):
        rng = np.random.default_rng(26)
        x, y = rng.integers(2, size=200), rng.integers(2, size=200)
        table, *_ = run_honest(x, y, rng)
        for a in (0, 1):
            for b in (0, 1):
                result = and_eval(table, a, b)
                assert np.all(result.alice_out ^ result.bob_out == a & b)

    def test_flipped_e_flips_the_xor(self):
        table = OneTimeTable(x=1, y=1, e=0, f=1)  # honest: e^f = 1 = x&y
        corrupted = OneTimeTable(x=1, y=1, e=1, f=1)
        good = and_eval(table, 1, 1)
        bad = and_eval(corrupted, 1, 1)
        assert good.alice_out ^ good.bob_out == 1
        assert bad.alice_out ^ bad.bob_out == 0

    def test_messages_are_masked(self):
        rng = np.random.default_rng(27)
        n = 20_000
        for a in (0, 1):
            for b in (0, 1):
                x, y = rng.integers(2, size=n), rng.integers(2, size=n)
                table, *_ = run_honest(x, y, rng)
                a_prime, b_prime = and_eval(table, a, b).messages
                assert abs(a_prime.mean() - 0.5) < 4.0 / np.sqrt(n)
                assert abs(b_prime.mean() - 0.5) < 4.0 / np.sqrt(n)

    def test_table_validates_bits(self):
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError):
            run_honest(2, 0, rng)
        with pytest.raises(ValueError):
            run_honest([0, 1], [1, 2], rng)
        with pytest.raises(ValueError):
            and_eval(OneTimeTable(x=1, y=1, e=0, f=1), 2, 0)
