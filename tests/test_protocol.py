import itertools

import numpy as np
import pytest

from otlab import protocol, security
from otlab.protocol import (
    OneTimeTable,
    alice_basis,
    alice_prepare,
    and_eval,
    bob_gate,
    run_honest,
)
from otlab.seeding import COMPONENTS, master_seed, substream_rng

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


def test_per_bit_functions_reject_fractions_instead_of_truncating():
    calls = [lambda: alice_prepare(0.5, 1.9), lambda: bob_gate(0.7, 0),
             lambda: alice_basis(1.2), lambda: security.CheatParams.honest(5)]
    for call in calls:
        with pytest.raises(ValueError, match="must be 0 or 1"):
            call()


def test_range_messages_show_any_integer():
    # 10**5000 is past Python's 4300-digit limit on str() of an int; 2**70 and it are past
    # int64, so numpy holds them as objects.
    calls = [(lambda: alice_basis(10**5000), "x must be 0 or 1, got an integer of 16610 bits"),
             (lambda: alice_basis(2**70), f"x must be 0 or 1, got {2**70}"),
             (lambda: alice_basis("1"), "x must be 0 or 1, got '1'"),
             (lambda: security.GuessProbs(10**5000, 0.5, 0.5),
              "p_y=an integer of 16610 bits outside [1/2, 1]"),
             (lambda: security.HolevoTriple(0.5, -(10**5000), 0.5),
              "chi_r=a negative integer of 16610 bits outside [0, 1]")]
    for call, message in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


@pytest.mark.parametrize("name", ["SENT", "GATES", "BASES"])
def test_encoding_tables_are_read_only(name):
    table = getattr(protocol, name)
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        table.reshape(-1)[0] = 0.0


def test_correlated_on_all_sixteen_bit_combinations():
    combos = list(itertools.product((0, 1), repeat=4))
    x, y, e, f = np.array(combos).T
    expected = [(ei + fi) % 2 == xi * yi for xi, yi, ei, fi in combos]
    assert protocol.correlated(x, y, e, f).tolist() == expected
    assert [bool(protocol.correlated(*combo)) for combo in combos] == expected
    assert sum(expected) == 8


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
    def test_exhaustive_deterministic_outcome(self):
        for x in (0, 1):
            for t in (0, 1):
                for y in (0, 1):
                    for r in (0, 1):
                        returned = bob_gate(y, r) @ alice_prepare(x, t).amplitudes
                        probs = np.abs(alice_basis(x) @ returned) ** 2
                        idx = int(np.argmax(probs))
                        assert probs[idx] > 1.0 - 1e-12
                        assert idx == t ^ (x & y) ^ r


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
    def test_uncertain_outcome_raises(self, phase):
        leaky_gates = protocol.GATES * [1.0, 1.0, np.exp(1j * phase)]
        with pytest.raises(RuntimeError):
            protocol._outcome_law(protocol.BASES, leaky_gates, protocol.SENT)


def _per_run_reference(x, y, rng):
    """Honest runs with one Born contraction per run: the oracle of ``run_honest``."""
    x, y = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=np.int64)),
                               np.atleast_1d(np.asarray(y, dtype=np.int64)))
    t = rng.integers(0, 2, size=x.shape)
    r = rng.integers(0, 2, size=x.shape)
    returned = protocol.GATES[y, r] * protocol.SENT[x, t]
    weights = np.abs(np.einsum("...ij,...j->...i", protocol.BASES[x], returned)) ** 2
    outcome = np.argmax(weights[..., :2], axis=-1)
    return OneTimeTable(x=x, y=y, e=outcome ^ t, f=r), t, r, outcome


def _bits_of(n, seed):
    return np.random.default_rng(seed).integers(2, size=n)


@pytest.mark.parametrize("x,y", [
    *[(_bits_of(n, n), _bits_of(n, n + 1)) for n in (1, 5, 2000)],
    (1, _bits_of(7, 3)),
    (_bits_of(7, 4), 0),
    (_bits_of(2, 5)[:, None], _bits_of(3, 6)[None, :]),
], ids=["n=1", "n=5", "n=2000", "scalar-x", "scalar-y", "broadcast-2x1-1x3"])
def test_run_honest_matches_per_run_contraction_bit_for_bit(x, y):
    got = run_honest(x, y, substream_rng(9191, COMPONENTS["table"]))
    want = _per_run_reference(x, y, substream_rng(9191, COMPONENTS["table"]))
    pairs = [(getattr(got[0], k), getattr(want[0], k)) for k in "efxy"]
    pairs += list(zip(got[1:], want[1:]))
    for have, expected in pairs:
        assert have.dtype == expected.dtype
        assert have.shape == expected.shape
        assert np.array_equal(have, expected)


def test_run_honest_does_no_per_run_contraction(monkeypatch):
    # The Born law is contracted once, at import: a call only looks outcomes up.
    calls = []
    einsum = np.einsum

    def recording(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    n = 10_000
    table, *_ = run_honest(np.ones(n, dtype=int), 1, np.random.default_rng(32))
    assert table.correlation_ok.all() and table.e.shape == (n,)
    assert calls == []


@pytest.mark.parametrize("seed", [35, 2718, 18446744073709551615])
@pytest.mark.parametrize("size", [1, 1001, 100001])
@pytest.mark.parametrize("dtype", [np.int64, np.int8])
def test_honest_coins_keep_the_draw_order_in_any_dtype(seed, size, dtype):
    # All of t, then all of r, as plain int64 draws would give them, and the
    # generator left where those draws leave it.
    rng = np.random.default_rng(seed)
    t, r = protocol._honest_coins(size, rng, dtype)
    plain = np.random.default_rng(seed)
    assert t.dtype == r.dtype == dtype
    assert np.array_equal(t, plain.integers(0, 2, size=size))
    assert np.array_equal(r, plain.integers(0, 2, size=size))
    assert rng.random() == plain.random()


@pytest.mark.parametrize("seed", [37, 38, 39])
def test_run_honest_reads_outcomes_as_the_born_law_indexed_whole(seed):
    x, y = _bits_of(5000, seed), _bits_of(5000, seed + 100)
    table, t, r, outcome = run_honest(x, y, np.random.default_rng(seed))
    want = protocol.OUTCOMES[x, y, t, r]
    assert outcome.dtype == table.e.dtype == np.int64
    assert np.array_equal(outcome, want)
    assert np.array_equal(table.e, want ^ t)
    assert np.array_equal(table.f, r)


def test_outcome_table_is_read_only():
    assert not protocol.OUTCOMES.flags.writeable
    with pytest.raises(ValueError):
        protocol.OUTCOMES[1, 1, 0, 0] = 0


def test_outcome_table_matches_per_run_reference():
    x, y = np.indices((2, 2)).reshape(2, -1).repeat(64, axis=1)
    _, t, r, outcome = _per_run_reference(x, y, np.random.default_rng(34))
    # The batch holds all 16 (x, y, t, r) combinations.
    assert len(set(zip(x.tolist(), y.tolist(), t.tolist(), r.tolist()))) == 16
    assert protocol.OUTCOMES.shape == (2, 2, 2, 2)
    assert np.array_equal(protocol.OUTCOMES[x, y, t, r], outcome)


def test_empty_batch_returns_empty_arrays_and_draws_nothing():
    rng = np.random.default_rng(33)
    state = rng.bit_generator.state
    table, t, r, outcome = run_honest(np.array([], dtype=int), 0, rng)
    for arr in (table.x, table.y, table.e, table.f, t, r, outcome):
        assert arr.shape == (0,) and arr.dtype == np.int64
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, True, np.float64(2.7), np.True_, "1", None])
def test_substream_rejects_seeds_outside_64_bits(seed):
    # Only integers are seeds: a float or a bool is never folded to one.
    with pytest.raises(ValueError, match="^seed must be (in|an integer)"):
        substream_rng(seed, COMPONENTS["table"])
    top = np.uint64(2**64 - 1)
    assert master_seed(top) == 2**64 - 1 and type(master_seed(top)) is int


@pytest.mark.parametrize("seed,shown", [(10**5000, "an integer of 16610 bits"),
                                        (-(10**5000), "a negative integer of 16610 bits"),
                                        (2**70, str(2**70))],
                         ids=["1e5000", "-1e5000", "2**70"])
def test_seed_range_message_shows_any_integer(seed, shown):
    # 10**5000 is past Python's 4300-digit limit on str() of an int.
    with pytest.raises(ValueError) as excinfo:
        master_seed(seed)
    assert str(excinfo.value) == f"seed must be in [0, 2**64), got {shown}"


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
