import itertools
import math
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from otlab import checksim, cli, security
from otlab.checksim import (
    AliceStrategy,
    BobStrategy,
    CheckConfig,
    CheckReport,
    run_protocol2,
    run_protocol3,
    simulate_instances,
)
from otlab.security import CheatParams, binary_entropy


def _binomial_3sigma(p, n):
    return 3.0 * np.sqrt(max(p * (1 - p), 1e-12) / n)


def _verdict_cells(alice, bob, table=checksim._instance_table):
    """``(fail, guess)``, bincounted from the pair's instance table: the law of
    one instance's verdicts as a ``[bob_fail, alice_fail]`` array, and that law
    jointly with a right guess of Alice's input."""
    probs, columns = table(alice, bob)
    cell = 2 * columns["bob_fail"] + columns["alice_fail"]
    fail = np.bincount(cell, weights=probs, minlength=4)
    guess = np.bincount(cell, weights=probs * columns["x_guess_correct"], minlength=4)
    return fail.reshape(2, 2), guess.reshape(2, 2)


_CELL_FIELDS = ("aborted", "est_epsilon", "failures", "leak_bound_bits", "tables_delivered")


def _per_trial(report):
    """A report's per-trial values, by field: each of its ``to_dict()`` cells'
    values repeated by the cell's ``trials``, in drawn order (NaN for a null
    estimate).  Protocol 3's two reports share their cells, so trial i is the
    same trial in both."""
    cells = report.to_dict()["cells"]
    counts = [cell["trials"] for cell in cells]
    return {name: np.repeat([np.nan if cell[name] is None else cell[name] for cell in cells],
                            counts)
            for name in _CELL_FIELDS}


class TestConfig:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            CheckConfig(m=10, k_bob=11)
        with pytest.raises(ValueError):
            CheckConfig(m=10, k_bob=5, k_alice=11)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            CheckConfig(m=10, k_bob=5, trials=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1, -0.5])
    @pytest.mark.parametrize("name", ["threshold_bob", "threshold_alice"])
    def test_threshold_domain(self, name, value):
        with pytest.raises(ValueError):
            CheckConfig(m=10, k_bob=5, **{name: value})

    @pytest.mark.parametrize("value", [10.5, 10.0, math.inf, math.nan, True, np.bool_(True),
                                       "10", None])
    @pytest.mark.parametrize("name", ["m", "k_bob", "k_alice", "trials"])
    def test_sizes_must_be_integers(self, name, value):
        sizes = dict(m=10, k_bob=5, k_alice=5, trials=2)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            CheckConfig(**{**sizes, name: value})

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", "0.5", None, 1j,
                                       complex(0.5, 0.0), np.complex128(0.5)])
    @pytest.mark.parametrize("name", ["threshold_bob", "threshold_alice", "c1"])
    def test_thresholds_and_c1_must_be_real_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            CheckConfig(m=10, k_bob=8, k_alice=8, **{name: value})

    # Integers past the float range included: c1 must convert to a finite float.
    @pytest.mark.parametrize("value", [10**400, -(10**400), math.inf, math.nan, 0, -1.5],
                             ids=["1e400", "-1e400", "inf", "nan", "0", "-1.5"])
    def test_c1_domain(self, value):
        with pytest.raises(ValueError, match="^c1 must be (positive and )?finite"):
            CheckConfig(m=5, k_bob=2, c1=value)

    @pytest.mark.parametrize("value,resolved", [(np.int64(3), 3), (np.uint8(3), 3), (3.0, 3),
                                                (0.25, 2), (np.float64(0.25), 2),
                                                (np.float32(0.25), 2)])
    def test_numpy_real_thresholds_accepted(self, value, resolved):
        config = CheckConfig(m=10, k_bob=8, k_alice=8, threshold_bob=value,
                             threshold_alice=value, c1=value)
        assert config.resolved_threshold("bob") == config.resolved_threshold("alice") == resolved

    @pytest.mark.parametrize("to_int", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_sizes_accepted(self, to_int):
        config = CheckConfig(m=to_int(10), k_bob=to_int(5), k_alice=to_int(5),
                             trials=to_int(3))
        bob, alice = run_protocol3(config, AliceStrategy.honest(), BobStrategy.honest(),
                                   np.random.default_rng(5))
        assert bob.trials == alice.trials == 3
        assert _per_trial(bob)["tables_delivered"].tolist() == \
            _per_trial(alice)["tables_delivered"].tolist()
        # Sizes are kept as Python ints: m - k_bob - k_alice < 0 does not wrap in uint8.
        sizes = dict(m=10, k_bob=8, k_alice=8, threshold_bob=1, threshold_alice=1)
        numpy_sizes = {**sizes, **{name: to_int(sizes[name])
                                   for name in ("m", "k_bob", "k_alice")}}
        noise = BobStrategy.phase_noise(0.5)
        assert checksim.exact_law(CheckConfig(**numpy_sizes), AliceStrategy.honest(), noise) \
            == checksim.exact_law(CheckConfig(**sizes), AliceStrategy.honest(), noise)

    def test_sizes_beyond_int64_accepted(self):
        huge = 2**64
        config = CheckConfig(m=huge, k_bob=huge - 1, k_alice=0, trials=2**70)
        assert (config.m, config.k_bob, config.trials) == (huge, huge - 1, 2**70)
        config = CheckConfig(m=2**70, k_bob=5, threshold_bob=1, trials=40)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(6))
        per_trial = _per_trial(report)
        delivered = per_trial["tables_delivered"].tolist()
        assert delivered == [0 if f > 1 else 2**70 - 5 for f in per_trial["failures"]]
        assert 0 < delivered.count(0) < 40

    @pytest.mark.parametrize("k_bob,k_alice", [(0, 4), (4, 0)])
    def test_one_checking_side_beyond_int64(self, k_bob, k_alice):
        # The side that checks nothing shares no label, so m - 4 tables go
        # unchecked, a count past int64.
        config = CheckConfig(m=2**70, k_bob=k_bob, k_alice=k_alice, threshold_bob=1,
                             threshold_alice=1, trials=40)
        reports = run_protocol3(config, AliceStrategy.honest(),
                                BobStrategy.phase_noise(np.pi / 2), np.random.default_rng(7))
        failures = _per_trial(reports[0] if k_bob else reports[1])["failures"]
        for report in reports:
            delivered = _per_trial(report)["tables_delivered"].tolist()
            assert delivered == [0 if f > 1 else 2**70 - 4 for f in failures]
            assert 0 < delivered.count(0) < 40

    def test_both_checking_sides_beyond_int64(self):
        # Both sides check at m = 2**70: J's law and the m - 9 unchecked tables
        # (the sides share no label but with probability about 2**-66) pass int64.
        config = CheckConfig(m=2**70, k_bob=5, k_alice=4, threshold_bob=1, trials=40)
        bob, alice = run_protocol3(config, AliceStrategy.learn_y(), BobStrategy.honest(),
                                   np.random.default_rng(8))
        for report in (bob, alice):
            delivered = _per_trial(report)["tables_delivered"].tolist()
            assert delivered == [0 if f > 1 else 2**70 - 9 for f in _per_trial(bob)["failures"]]
            assert 0 < delivered.count(0) < 40

    @pytest.mark.parametrize("m,k,shown", [
        # Past Python's 4300-digit str() limit, and past the width printed in full.
        (5, 10**5000, "k_bob=an integer of 16610 bits outside [0, m=5]"),
        (5, -(10**5000), "k_bob=a negative integer of 16610 bits outside [0, m=5]"),
        (10**5000, -1, "k_bob=-1 outside [0, m=an integer of 16610 bits]"),
        (5, 2**256 - 1, f"k_bob={2**256 - 1} outside [0, m=5]"),
        (5, 2**256, "k_bob=an integer of 257 bits outside [0, m=5]")],
        ids=["k=1e5000", "k=-1e5000", "m=1e5000", "k=2**256-1", "k=2**256"])
    def test_range_message_shows_any_integer(self, m, k, shown):
        with pytest.raises(ValueError) as excinfo:
            CheckConfig(m=m, k_bob=k)
        assert str(excinfo.value) == shown

    @pytest.mark.parametrize("c1,written", [(np.float32(1.5), 1.5), (2, 2.0), (np.int64(3), 3.0),
                                            (1.7, 1.7)])
    def test_c1_is_kept_as_a_float(self, c1, written):
        config = CheckConfig(m=10, k_bob=5, trials=20, c1=c1)
        assert type(config.c1) is float and config.c1 == written
        report = run_protocol2(config, AliceStrategy.honest(), np.random.default_rng(3))
        constants = json.loads(json.dumps(report.to_dict()))["constants"]
        assert type(constants["c1"]) is float and constants["c1"] == written

    @pytest.mark.parametrize("value", [2**63, 2**64, 10**23])
    def test_huge_integer_thresholds_accepted(self, value):
        config = CheckConfig(m=10, k_bob=5, k_alice=5, threshold_bob=value,
                             threshold_alice=value)
        assert config.resolved_threshold("bob") == config.resolved_threshold("alice") == value


class TestHonestRuns:
    def test_protocol2_never_aborts(self):
        config = CheckConfig(m=20, k_bob=10, trials=10_000)
        report = run_protocol2(config, AliceStrategy.honest(), np.random.default_rng(1))
        assert report.abort_probability == 0.0
        per_trial = _per_trial(report)
        assert per_trial["failures"].max() == 0
        assert np.all(per_trial["tables_delivered"] == 10)

    def test_protocol3_never_aborts(self):
        config = CheckConfig(m=20, k_bob=8, k_alice=8, trials=10_000)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(),
                                           BobStrategy.honest(), np.random.default_rng(2))
        assert bob_rep.abort_probability == 0.0
        assert alice_rep.abort_probability == 0.0

    def test_honest_instances_always_correlate(self):
        fields = simulate_instances(AliceStrategy.honest(), BobStrategy.honest(),
                                    20_000, np.random.default_rng(3))
        assert fields["bob_fail"].sum() == 0
        assert fields["alice_fail"].sum() == 0
        xor = fields["e"] ^ fields["r"]
        assert np.array_equal(xor, fields["x"] & fields["y"])


class TestLearnY:
    def test_pass_probability_halves_per_check(self):
        rng = np.random.default_rng(4)
        for k in (1, 3, 6, 10):
            config = CheckConfig(m=k, k_bob=k, trials=40_000)
            report = run_protocol2(config, AliceStrategy.learn_y(), rng)
            expected = 2.0 ** (-k)
            observed = 1.0 - report.abort_probability
            assert abs(observed - expected) <= _binomial_3sigma(expected, config.trials)

    def test_learns_y_exactly_but_not_r(self):
        fields = simulate_instances(AliceStrategy.learn_y(), BobStrategy.honest(),
                                    20_000, np.random.default_rng(5))
        # Per-check failure is a fair coin regardless of y.
        fail_rate = fields["bob_fail"].mean()
        assert abs(fail_rate - 0.5) <= _binomial_3sigma(0.5, len(fields["bob_fail"]))

    def test_reply_carries_r_as_a_global_phase(self):
        # The four pure sign states in (r, y) order: flipping r flips every
        # amplitude of a learn-y state (c = 0), so each projector is unchanged.
        s = CheatParams.learn_y().a
        states = security.returned_states([s, s, 0.0], "joint")
        assert security.RY_ORDER == ((0, 0), (0, 1), (1, 0), (1, 1))
        for y in (0, 1):
            assert np.array_equal(states[y], states[2 + y])

    def test_every_report_fails_half_the_checks(self):
        # Whatever y and report (a_rep, e_rep), half of that cell's mass fails:
        # no report policy of a learn-y sender beats a coin.
        probs, columns = checksim._instance_table(AliceStrategy.learn_y(), BobStrategy.honest())
        cell = 4 * columns["y"] + 2 * columns["a_rep"] + columns["e_rep"]
        total = np.bincount(cell, weights=probs, minlength=8)
        failed = np.bincount(cell, weights=probs * columns["bob_fail"], minlength=8)
        assert np.array_equal(failed, total / 2)
        # She claims input 0 and reports a coin for e, whatever she learned of y.
        assert total.tolist() == [0.25, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0]

    @pytest.mark.parametrize("line", [
        "--protocol 2",
        "--protocol 3 --bob phase-noise --angle 0.7 --k-alice 8 --threshold-alice 1",
        "--protocol 3 --bob computational --k-alice 8",
    ], ids=["p2", "p3-phase-noise", "p3-computational"])
    def test_runs_as_param_at_alpha_zero(self, capsys, line):
        argv = f"checksim {line} --m 40 --k 10 --threshold 3 --trials 500 --seed 8".split()
        outputs = []
        for alice in (["--alice", "learn-y"], ["--alice", "param", "--alpha", "0"]):
            assert cli.main(argv + alice) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestParamStrategy:
    def test_pass_probability_tracks_alpha(self):
        rng = np.random.default_rng(7)
        n = 40_000
        observed = []
        for alpha in (0.0, np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2):
            strategy = AliceStrategy.param(CheatParams.from_alpha(alpha))
            fields = simulate_instances(strategy, BobStrategy.honest(), n, rng)
            pass_rate = 1.0 - fields["bob_fail"].mean()
            expected = 0.5 * (1.0 + np.sin(alpha) ** 2)
            assert abs(pass_rate - expected) <= _binomial_3sigma(expected, n)
            observed.append(pass_rate)
        assert observed[0] < observed[-1]  # monotone ends: 1/2 up to 1
        assert observed[-1] == pytest.approx(1.0, abs=1e-9)


class TestCheatingBob:
    def test_computational_basis_failure_rate(self):
        fields = simulate_instances(AliceStrategy.honest(), BobStrategy.computational_basis(),
                                    100_000, np.random.default_rng(8))
        rate = fields["alice_fail"].mean()
        assert abs(rate - 0.5) <= _binomial_3sigma(0.5, len(fields["alice_fail"]))

    def test_computational_basis_input_guess(self):
        fields = simulate_instances(AliceStrategy.honest(), BobStrategy.computational_basis(),
                                    100_000, np.random.default_rng(9))
        rate = fields["x_guess_correct"].mean()
        assert abs(rate - 0.75) <= _binomial_3sigma(0.75, len(fields["x_guess_correct"]))

    def test_input_guess_is_independent_of_the_verdicts(self):
        # run_protocol3 draws the guess total as one binomial of this rate.
        alice, bob = AliceStrategy.honest(), BobStrategy.computational_basis()
        rate = checksim._INPUT_GUESS_RATE
        assert rate == 0.75
        # Exactly: in each verdict cell the |2> read's rows weigh 1/128 and
        # half of them guess right, while the basis reads' rows, half as many
        # at 1/64 to round-off, all guess right; so both reads hold half the
        # cell, and a right guess 3/4 of it.
        probs, columns = checksim._instance_table(alice, bob)
        verdict = 2 * columns["bob_fail"] + columns["alice_fail"]
        right = columns["x_guess_correct"] == 1
        for cell in np.unique(verdict):
            rows = verdict == cell
            reads2 = rows & (probs == 2.0 ** -7)
            basis = rows & ~reads2
            assert reads2.sum() == 2 * basis.sum() == 2 * right[reads2].sum() > 0
            assert right[basis].all()
            assert np.all(np.abs(probs[basis] - 2.0 ** -6) <= np.spacing(2.0 ** -6))
        # The basis reads' weights round 2**-58 under 1/64, the |2> read's not
        # at all, so the identity holds to one ulp of each cell, not bitwise.
        fail, guess = _verdict_cells(alice, bob)
        assert np.all(np.abs(guess - rate * fail) <= np.spacing(rate * fail))

    def test_alice_abort_rate(self):
        config = CheckConfig(m=20, k_bob=0, k_alice=10, trials=20_000)
        _, alice_rep = run_protocol3(config, AliceStrategy.honest(),
                                     BobStrategy.computational_basis(),
                                     np.random.default_rng(10))
        expected = 1.0 - 2.0 ** (-10)
        assert abs(alice_rep.abort_probability - expected) <= _binomial_3sigma(expected, 20_000)
        assert "x_guess_rate" in alice_rep.extras

    def test_phase_noise_failure_rate(self):
        for angle in (0.0, 0.6, np.pi):
            fields = simulate_instances(AliceStrategy.honest(), BobStrategy.phase_noise(angle),
                                        40_000, np.random.default_rng(11))
            expected = np.sin(angle / 2.0) ** 2
            rate = fields["alice_fail"].mean()
            assert abs(rate - expected) <= _binomial_3sigma(max(expected, 1e-6), 40_000) + 1e-9


@pytest.mark.parametrize("m,k,trials", [(12, 12, 5000), (200, 20, 4000), (2**70, 5, 40)],
                         ids=["dense", "sparse", "beyond-int64"])
@pytest.mark.parametrize("alice", [
    AliceStrategy.honest(), AliceStrategy.learn_y(),
    AliceStrategy.param(CheatParams.from_alpha(0.7)),
    AliceStrategy.per_instance_mix([(0.4, AliceStrategy.learn_y()),
                                    (0.6, AliceStrategy.honest())]),
], ids=["honest", "learn-y", "param", "mix"])
def test_protocol2_is_protocol3_with_an_honest_unchecked_receiver(alice, m, k, trials):
    config = CheckConfig(m=m, k_bob=k, threshold_bob=1, k_alice=3, threshold_alice=2,
                         trials=trials)
    two = run_protocol2(config, alice, np.random.default_rng(81))
    three, _ = run_protocol3(replace(config, k_alice=0, threshold_alice=0), alice,
                             BobStrategy.honest(), np.random.default_rng(81))
    assert np.array_equal(two.drawn_failures, three.drawn_failures)
    assert np.array_equal(two.drawn_delivered, three.drawn_delivered)
    assert np.array_equal(two.counts, three.counts)
    assert two.summary() == three.summary()
    assert {**two.to_dict(), "protocol": 3} == three.to_dict()


class TestRestartsAndThresholds:
    def test_fractional_threshold_resolves_against_k(self):
        config = CheckConfig(m=20, k_bob=10, threshold_bob=0.25)
        assert config.resolved_threshold("bob") == 2
        report = run_protocol2(CheckConfig(m=20, k_bob=10, threshold_bob=0.25,
                                           trials=2000),
                               AliceStrategy.learn_y(), np.random.default_rng(20))
        assert report.threshold == 2
        # Binomial(10, 1/2) <= 2 has probability ~0.0547.
        expected = sum(math.comb(10, i) for i in range(3)) / 2 ** 10
        assert abs((1 - report.abort_probability) - expected) <= \
            _binomial_3sigma(expected, 2000)

    def test_fractional_threshold_domain(self):
        with pytest.raises(ValueError):
            CheckConfig(m=10, k_bob=5, threshold_bob=1.5)


class TestEstimates:
    @staticmethod
    def _report(failures, k, c1=1.0):
        return CheckReport(2, "bob", m=k, k=k, threshold=k, drawn_failures=np.array(failures),
                           drawn_delivered=np.zeros(len(failures), dtype=int),
                           counts=np.ones(len(failures), dtype=int), c1=c1)

    def test_epsilon_examples(self):
        report = self._report([0, 4, 100], 100)
        # The last clipped.
        assert _per_trial(report)["est_epsilon"] == pytest.approx([0.01, 0.05, 1.0])

    def test_epsilon_domain(self):
        # Undefined without checks: null in the JSON cells.
        _, report = run_protocol3(CheckConfig(m=10, k_bob=5, trials=3), AliceStrategy.honest(),
                                  BobStrategy.honest(), np.random.default_rng(0))
        assert report.k == 0
        cells = report.to_dict()["cells"]
        assert {(cell["est_epsilon"], cell["leak_bound_bits"]) for cell in cells} == {(None, None)}

    def test_leak_bound(self):
        leak = _per_trial(self._report([0, 89], 100))["leak_bound_bits"]
        assert leak[0] == pytest.approx(binary_entropy(0.01), abs=1e-12)
        assert leak[1] == pytest.approx(1.0, abs=1e-12)  # clipped at h(1/2)
        halved = _per_trial(self._report([0], 100, c1=0.5))["leak_bound_bits"]
        assert halved[0] == pytest.approx(binary_entropy(0.005), abs=1e-12)

    def test_leak_bound_domain(self):
        for c1 in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="c1"):
                CheckConfig(m=10, k_bob=5, c1=c1)

    def test_report_records_estimator(self):
        config = CheckConfig(m=30, k_bob=10, threshold_bob=30, trials=200)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(16))
        per_trial = _per_trial(report)
        expected_eps = np.clip((per_trial["failures"] + 1.0) / 10.0, 0.0, 1.0)
        assert np.allclose(per_trial["est_epsilon"], expected_eps)
        expected_leak = [binary_entropy(min(e, 0.5)) for e in expected_eps]
        assert np.allclose(per_trial["leak_bound_bits"], expected_leak)
        assert (report.c_a, report.c_mid, report.c_b) == (0.5, 1.0, 2.0)

    def test_estimates_computed_only_when_read(self, monkeypatch, capsys):
        # A run keeps what it drew; its estimates are derived from the failure
        # counts when a report is written, so runs and summaries compute none.
        reached = []

        def refuse(delta):
            reached.append(delta)
            raise AssertionError("leak bound computed")

        monkeypatch.setattr(checksim, "binary_entropy", refuse)
        report = run_protocol2(CheckConfig(m=30, k_bob=10, trials=200),
                               AliceStrategy.learn_y(), np.random.default_rng(18))
        pair = run_protocol3(CheckConfig(m=30, k_bob=10, k_alice=10, trials=200),
                             AliceStrategy.honest(), BobStrategy.computational_basis(),
                             np.random.default_rng(18))
        for each in (report, *pair):
            each.summary()
        for argv in (["checksim", "--alice", "learn-y", "--trials", "200"],
                     ["checksim", "--protocol", "3", "--bob", "computational", "--m", "30",
                      "--k", "10", "--k-alice", "10", "--trials", "200"]):
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert reached == []
        with pytest.raises(AssertionError, match="leak bound computed"):
            report.to_dict()
        # Once per report, over all its cells.
        assert len(reached) == 1 and len(reached[0]) == len(report.counts)

    @pytest.mark.parametrize("m,k,trials", [(30, 10, 200), (10**9, 10**9, 3),
                                            (10**9, 10**8, 5)])
    def test_report_equals_per_trial_formula(self, m, k, trials):
        # Bitwise equal to one scalar evaluation per trial, and bounded by the
        # trial count when k is far larger (no table over all k + 1 counts).
        threshold = k // 2   # learn-y fails half its checks: both verdicts occur
        config = CheckConfig(m=m, k_bob=k, threshold_bob=threshold, trials=trials)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(17))
        per_trial = _per_trial(report)
        eps = [float(np.clip((int(f) + 1.0) / k, 0.0, 1.0)) for f in per_trial["failures"]]
        assert per_trial["est_epsilon"].tolist() == eps
        assert per_trial["leak_bound_bits"].tolist() == [binary_entropy(min(e, 0.5)) for e in eps]
        aborted = [int(f) > threshold for f in per_trial["failures"]]
        assert per_trial["aborted"].tolist() == aborted
        assert per_trial["tables_delivered"].tolist() == [0 if a else m - k for a in aborted]
        assert report.trials == trials
        assert report.abort_probability == sum(aborted) / trials
        # The 95% Wilson interval, one scalar evaluation.
        z, phat = 1.96, sum(aborted) / trials
        denom = 1.0 + z * z / trials
        center = (phat + z * z / (2 * trials)) / denom
        half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
        assert report.abort_ci == (max(0.0, center - half), min(1.0, center + half))
        if trials > 100:
            assert 0 < sum(aborted) < trials


_MIX_PHI, _ALPHA, _ANGLE = 0.3, 0.7, 1.1

# Every strategy pair the CLI exposes, with its closed-form per-check failure
# probability: Alice strategies against Bob's check in protocol 2, Bob
# strategies against an honest Alice in protocol 3 (both sides see it).
_SENDERS = [
    ("honest", AliceStrategy.honest(), 0.0),
    ("learn-y", AliceStrategy.learn_y(), 0.5),
    ("param", AliceStrategy.param(CheatParams.from_alpha(_ALPHA)), math.cos(_ALPHA) ** 2 / 2),
    ("mix", AliceStrategy.per_instance_mix([(_MIX_PHI, AliceStrategy.learn_y()),
                                            (1.0 - _MIX_PHI, AliceStrategy.honest())]),
     _MIX_PHI / 2),
]
_RECEIVERS = [
    ("honest", BobStrategy.honest(), 0.0),
    ("computational", BobStrategy.computational_basis(), 0.5),
    ("phase-noise", BobStrategy.phase_noise(_ANGLE), math.sin(_ANGLE / 2) ** 2),
]


def _assert_binomial(count, n, p):
    """``count`` of ``n`` is consistent with Bin(n, p) at the 3-sigma level."""
    if p == 0.0:
        assert count == 0
    else:
        assert stats.binomtest(int(count), n, p).pvalue >= 2.7e-3, (count, n, p)


def _assert_aborts(report, abort_probability, p):
    per_trial = _per_trial(report)
    _assert_binomial(int(per_trial["aborted"].sum()), report.trials, abort_probability)
    _assert_binomial(int(per_trial["failures"].sum()), report.trials * report.k, p)


def _assert_binomial_histogram(counts, k, p):
    """Per-trial counts follow Bin(k, p): chi-square over bins of >= 5 expected."""
    if p == 0.0:
        assert not counts.any()
        return
    observed = np.bincount(counts, minlength=k + 1)
    expected = len(counts) * stats.binom.pmf(np.arange(k + 1), k, p)
    merged_obs, merged_exp, obs, exp = [], [], 0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            merged_obs.append(obs)
            merged_exp.append(exp)
            obs, exp = 0, 0.0
    merged_obs[-1] += obs
    merged_exp[-1] += exp
    if len(merged_obs) == 1:  # all mass in one bin: nothing to compare
        return
    merged_exp = np.array(merged_exp) * sum(merged_obs) / sum(merged_exp)
    pvalue = stats.chisquare(merged_obs, merged_exp).pvalue
    assert pvalue >= 2.7e-3, (k, p, merged_obs, merged_exp)


def _assert_same_law(left, right):
    """Two samples of a discrete value share one law: chi-square homogeneity."""
    keys, counts = np.unique(np.concatenate([left, right]), axis=0, return_counts=True)
    inverse = {tuple(np.atleast_1d(key)): i for i, key in enumerate(keys)}
    table = np.zeros((2, len(keys)))
    for row, sample in enumerate((left, right)):
        for value in sample:
            table[row, inverse[tuple(np.atleast_1d(value))]] += 1
    rare = counts < 20
    if rare.any():  # pool rare values into one column
        table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    if table.shape[1] < 2:
        assert np.array_equal(np.sort(left, axis=0), np.sort(right, axis=0))
        return
    assert stats.chi2_contingency(table).pvalue >= 2.7e-3


class TestAgainstExact:
    @pytest.mark.parametrize("m,k,threshold", [(200, 20, 1), (12, 12, 0)],
                             ids=["m>>k", "m=k"])
    @pytest.mark.parametrize("name,alice,p", _SENDERS, ids=[c[0] for c in _SENDERS])
    def test_protocol2_abort_probability(self, name, alice, p, m, k, threshold):
        config = CheckConfig(m=m, k_bob=k, threshold_bob=threshold, trials=20_000)
        law = checksim.exact_law(config, alice)
        assert law.fail_bob == pytest.approx(p, abs=1e-12)
        _assert_aborts(run_protocol2(config, alice, np.random.default_rng(21)), law.abort_bob, p)

    @pytest.mark.parametrize("m,k_b,k_a,t_b,t_a", [(200, 15, 25, 1, 2), (10, 10, 10, 0, 0)],
                             ids=["m>>k", "m=k"])
    @pytest.mark.parametrize("name,bob,p", _RECEIVERS, ids=[c[0] for c in _RECEIVERS])
    def test_protocol3_abort_probability(self, name, bob, p, m, k_b, k_a, t_b, t_a):
        trials = 20_000
        config = CheckConfig(m=m, k_bob=k_b, threshold_bob=t_b, k_alice=k_a,
                             threshold_alice=t_a, trials=trials)
        law = checksim.exact_law(config, AliceStrategy.honest(), bob)
        assert (law.fail_bob, law.fail_alice) == pytest.approx((p, p), abs=1e-12)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(), bob,
                                           np.random.default_rng(22))
        _assert_aborts(bob_rep, law.abort_bob, p)
        _assert_aborts(alice_rep, law.abort_alice, p)
        either = int(np.sum(_per_trial(bob_rep)["aborted"] | _per_trial(alice_rep)["aborted"]))
        _assert_binomial(either, trials, 1.0 - law.pass_probability)
        if name == "computational":
            guessed = alice_rep.extras["x_guess_rate"] * trials * m
            assert guessed == pytest.approx(round(guessed), abs=1e-6)
            _assert_binomial(round(guessed), trials * m, 0.75)

    @pytest.mark.parametrize("name,alice,p", _SENDERS, ids=[c[0] for c in _SENDERS])
    def test_protocol2_failure_counts_are_binomial(self, name, alice, p):
        config = CheckConfig(m=40, k_bob=15, threshold_bob=40, trials=20_000)
        report = run_protocol2(config, alice, np.random.default_rng(25))
        _assert_binomial_histogram(_per_trial(report)["failures"], 15, p)

    @pytest.mark.parametrize("name,bob,p", _RECEIVERS, ids=[c[0] for c in _RECEIVERS])
    def test_protocol3_failure_counts_are_binomial(self, name, bob, p):
        # Each side's count is Bin(k, p) whatever the overlap of the label sets.
        config = CheckConfig(m=30, k_bob=12, k_alice=18, threshold_bob=30,
                             threshold_alice=30, trials=20_000)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(), bob,
                                           np.random.default_rng(26))
        _assert_binomial_histogram(_per_trial(bob_rep)["failures"], 12, p)
        _assert_binomial_histogram(_per_trial(alice_rep)["failures"], 18, p)

    @pytest.mark.parametrize("m,k_b,k_a", [(200, 15, 25), (10, 10, 10), (30, 0, 7)])
    def test_protocol3_mean_delivered_tables(self, m, k_b, k_a):
        trials = 20_000
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, trials=trials)
        bob_rep, _ = run_protocol3(config, AliceStrategy.honest(), BobStrategy.honest(),
                                   np.random.default_rng(23))
        delivered = _per_trial(bob_rep)["tables_delivered"]
        expected = checksim.exact_law(config, AliceStrategy.honest(),
                                      BobStrategy.honest()).tables_delivered
        assert abs(delivered.mean() - expected) <= 3 * delivered.std() / math.sqrt(trials) + 1e-9
        assert delivered.min() >= m - k_b - k_a
        assert delivered.max() <= m - max(k_b, k_a)

    def test_protocol3_joint_pass_follows_the_overlap(self):
        # With zero thresholds a trial passes both checks when none of its
        # k_b + k_a - J distinct checked instances fails.
        m, k, angle, trials = 20, 10, 0.5, 20_000
        config = CheckConfig(m=m, k_bob=k, k_alice=k, trials=trials)
        bob = BobStrategy.phase_noise(angle)
        expected = checksim.exact_law(config, AliceStrategy.honest(), bob).pass_probability
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(), bob,
                                           np.random.default_rng(24))
        passed = ~_per_trial(bob_rep)["aborted"] & ~_per_trial(alice_rep)["aborted"]
        _assert_binomial(int(np.sum(passed)), trials, expected)

    @pytest.mark.parametrize("t_b,t_a", [(4, 5), (6, 3)])
    def test_protocol3_joint_abort_against_computational_bob(self, t_b, t_a):
        # Against a basis-reading Bob an honest Alice fails both checks of a
        # shared label together, so the joint abort probability depends on J.
        m, k, trials = 20, 10, 20_000
        config = CheckConfig(m=m, k_bob=k, k_alice=k, threshold_bob=t_b,
                             threshold_alice=t_a, trials=trials)
        bob = BobStrategy.computational_basis()
        law = checksim.exact_law(config, AliceStrategy.honest(), bob)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(), bob,
                                           np.random.default_rng(27))
        bob_trials, alice_trials = _per_trial(bob_rep), _per_trial(alice_rep)
        either = int(np.sum(bob_trials["aborted"] | alice_trials["aborted"]))
        _assert_binomial(either, trials, 1.0 - law.pass_probability)
        delivered = bob_trials["tables_delivered"]
        assert abs(delivered.mean() - law.tables_delivered) <= \
            3 * delivered.std() / math.sqrt(trials) + 1e-9

    def test_sufficient_statistics_match_whole_instances(self):
        # Instance-level oracle: every trial draws its m instances and both
        # label sets explicitly; the run draws only sufficient statistics.
        m, k_b, k_a, trials = 12, 5, 6, 6000
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, threshold_bob=1,
                             threshold_alice=2, trials=trials)
        alice, bob = AliceStrategy.honest(), BobStrategy.computational_basis()
        rng = np.random.default_rng(28)
        fields = simulate_instances(alice, bob, trials * m, rng)
        bob_fail = fields["bob_fail"].reshape(trials, m)
        alice_fail = fields["alice_fail"].reshape(trials, m)
        bob_labels = rng.random((trials, m)).argsort(axis=1)[:, :k_b]
        alice_labels = rng.random((trials, m)).argsort(axis=1)[:, :k_a]
        checked = np.zeros((trials, m), dtype=bool)
        np.put_along_axis(checked, bob_labels, True, axis=1)
        np.put_along_axis(checked, alice_labels, True, axis=1)
        oracle = np.column_stack([np.take_along_axis(bob_fail, bob_labels, axis=1).sum(axis=1),
                                  np.take_along_axis(alice_fail, alice_labels, axis=1).sum(axis=1),
                                  m - checked.sum(axis=1)])

        bob_rep, alice_rep = run_protocol3(config, alice, bob, np.random.default_rng(29))
        bob_trials, alice_trials = _per_trial(bob_rep), _per_trial(alice_rep)
        aborted = bob_trials["aborted"] | alice_trials["aborted"]
        run = np.column_stack([bob_trials["failures"], alice_trials["failures"]])
        _assert_same_law(oracle[:, :2], run)
        # Deliveries are zero on abort, on both sides.
        oracle_passed = (oracle[:, 0] <= 1) & (oracle[:, 1] <= 2)
        _assert_same_law(np.where(oracle_passed, oracle[:, 2], 0), bob_trials["tables_delivered"])
        assert np.array_equal(aborted, ~((run[:, 0] <= 1) & (run[:, 1] <= 2)))
        guessed = round(alice_rep.extras["x_guess_rate"] * trials * m)
        oracle_guessed = int(fields["x_guess_correct"].sum())
        table = [[guessed, trials * m - guessed], [oracle_guessed, trials * m - oracle_guessed]]
        assert stats.chi2_contingency(table).pvalue >= 2.7e-3


def _brute_force_law(fail, m, k_b, k_a, t_b, t_a):
    """Pass probability and mean deliveries by enumerating every instance's
    verdicts and every pair of label sets; ``fail`` is the ``[bob_fail,
    alice_fail]`` verdict law of :func:`_verdict_cells`."""
    verdicts = np.array(list(itertools.product(range(4), repeat=m)))
    weight = np.prod(fail.ravel()[verdicts], axis=1)
    bob_fail, alice_fail = verdicts // 2, verdicts % 2
    passed = delivered = 0.0
    pairs = list(itertools.product(itertools.combinations(range(m), k_b),
                                   itertools.combinations(range(m), k_a)))
    for bob_set, alice_set in pairs:
        ok = ((bob_fail[:, list(bob_set)].sum(axis=1) <= t_b)
              & (alice_fail[:, list(alice_set)].sum(axis=1) <= t_a))
        p_pass = float(weight[ok].sum()) / len(pairs)
        passed += p_pass
        delivered += (m - len(set(bob_set) | set(alice_set))) * p_pass
    return passed, delivered


def _label_by_label_law(fail, m, k_b, k_a, t_b, t_a):
    """Pass probability and mean deliveries, exactly, in Fractions.

    Given J shared labels, their (Bob, Alice) failure counts are built up one
    label at a time over the four-cell verdict law ``fail`` of
    :func:`_verdict_cells`, kept only where both pass; each side's own ``k -
    J`` labels enter through a binomial distribution function, and J through
    its hypergeometric law.
    """
    fail = [[Fraction(float(cell)) for cell in row] for row in fail]
    p_b, p_a = sum(fail[1]), fail[0][1] + fail[1][1]

    def within(k, p, t):   # P(Bin(k, p) <= t)
        return sum(math.comb(k, i) * p**i * (1 - p) ** (k - i) for i in range(min(t, k) + 1))

    passing, passed, delivered = {(0, 0): Fraction(1)}, Fraction(0), Fraction(0)
    for j in range(min(k_a, k_b) + 1):
        if j:
            step = {}
            for (u, s), weight in passing.items():
                for f_b, f_a in itertools.product((0, 1), repeat=2):
                    if u + f_b <= t_b and s + f_a <= t_a:
                        key = (u + f_b, s + f_a)
                        step[key] = step.get(key, 0) + weight * fail[f_b][f_a]
            passing = step
        shared = Fraction(math.comb(k_a, j) * math.comb(m - k_a, k_b - j), math.comb(m, k_b))
        given = sum(weight * within(k_b - j, p_b, t_b - u) * within(k_a - j, p_a, t_a - s)
                    for (u, s), weight in passing.items())
        passed += shared * given
        delivered += shared * given * (m - k_b - k_a + j)
    return passed, delivered


class TestExactLaw:
    # An independent exact oracle past brute-force sizes: m = 200, and a
    # geometry whose label sets must overlap (k_a + k_b > m, so J >= 8).
    @pytest.mark.parametrize("m,k_b,k_a,t_b,t_a", [(200, 20, 20, 2, 1), (200, 20, 20, 0, 3),
                                                   (30, 20, 18, 3, 2)])
    @pytest.mark.parametrize("alice,bob", [
        (AliceStrategy.honest(), BobStrategy.computational_basis()),
        (AliceStrategy.honest(), BobStrategy.phase_noise(0.4)),
        (AliceStrategy.learn_y(), BobStrategy.honest()),
        (AliceStrategy.per_instance_mix([(0.3, AliceStrategy.learn_y()),
                                         (0.7, AliceStrategy.honest())]),
         BobStrategy.computational_basis()),
    ], ids=["honest-computational", "honest-phase-noise", "learn-y", "mix-computational"])
    def test_matches_label_by_label_fractions(self, alice, bob, m, k_b, k_a, t_b, t_a):
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, threshold_bob=t_b,
                             threshold_alice=t_a)
        law = checksim.exact_law(config, alice, bob)
        passed, delivered = _label_by_label_law(_verdict_cells(alice, bob)[0],
                                                m, k_b, k_a, t_b, t_a)
        assert law.pass_probability == pytest.approx(float(passed), rel=1e-12, abs=1e-12)
        assert law.tables_delivered == pytest.approx(float(delivered), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k_bob,k_alice", [(5, 0), (0, 4)], ids=["protocol-2", "k_bob=0"])
    def test_one_checking_side_beyond_int64(self, k_bob, k_alice):
        # The side that checks nothing shares no label, as in a run, so m
        # - k tables go unchecked, a count past int64.
        m = 2**70
        if k_alice:
            config = CheckConfig(m=m, k_bob=0, k_alice=k_alice, threshold_alice=1)
            law = checksim.exact_law(config, AliceStrategy.honest(),
                                     BobStrategy.phase_noise(np.pi / 2))
            expected = 5 / 16   # P(Bin(4, 1/2) <= 1), at sin(pi/4)**2 one ulp under 1/2
            assert law.pass_probability == pytest.approx(expected, rel=1e-15)
        else:
            config = CheckConfig(m=m, k_bob=k_bob, threshold_bob=1)
            law = checksim.exact_law(config, AliceStrategy.learn_y())
            expected = 0.1875   # P(Bin(5, 1/2) <= 1)
            assert law.pass_probability == expected
        assert law.tables_delivered == pytest.approx((m - k_bob - k_alice) * expected,
                                                     rel=1e-15)

    def test_both_checking_sides_beyond_int64(self):
        config = CheckConfig(m=2**70, k_bob=5, k_alice=4, threshold_bob=1)
        law = checksim.exact_law(config, AliceStrategy.learn_y(), BobStrategy.honest())
        assert law.pass_probability == 0.1875   # P(Bin(5, 1/2) <= 1); Alice's check never fails
        assert law.tables_delivered == pytest.approx((2**70 - 9) * 0.1875, rel=1e-15)

    @pytest.mark.parametrize("m,k_b,k_a,t_b,t_a",
                             [(5, 3, 2, 0, 0), (5, 3, 3, 1, 0), (6, 2, 4, 1, 2), (4, 4, 1, 1, 0)])
    @pytest.mark.parametrize("pair", ["computational", "phase-noise", "learn-y"])
    def test_matches_brute_force_enumeration(self, pair, m, k_b, k_a, t_b, t_a):
        alice, bob = AliceStrategy.honest(), BobStrategy.computational_basis()
        if pair == "phase-noise":
            bob = BobStrategy.phase_noise(0.9)
        elif pair == "learn-y":
            alice = AliceStrategy.learn_y()
        fail, _ = _verdict_cells(alice, bob)
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, threshold_bob=t_b,
                             threshold_alice=t_a)
        law = checksim.exact_law(config, alice, bob)
        passed, delivered = _brute_force_law(fail, m, k_b, k_a, t_b, t_a)
        assert law.pass_probability == pytest.approx(passed, abs=1e-12)
        assert law.tables_delivered == pytest.approx(delivered, abs=1e-12)
        p_b, p_a = fail[1].sum(), fail[:, 1].sum()
        assert law.abort_bob == pytest.approx(stats.binom.sf(t_b, k_b, p_b), abs=1e-12)
        assert law.abort_alice == pytest.approx(stats.binom.sf(t_a, k_a, p_a), abs=1e-12)

    def test_large_bob_threshold_builds_only_the_thinning_columns_read(self):
        # t_b = 2000 and t_a = 0: one column of the [u, s] thinning law is
        # read, so a fresh process stays far below what the square
        # [2001, 2001] law and its temporaries take (about 150 MB).
        job = ("from otlab.checksim import AliceStrategy, BobStrategy, CheckConfig, exact_law\n"
               "mix = AliceStrategy.per_instance_mix([(0.5, AliceStrategy.learn_y()),\n"
               "                                      (0.5, AliceStrategy.honest())])\n"
               "config = CheckConfig(m=2000, k_bob=2000, k_alice=2000, threshold_bob=2000,\n"
               "                     threshold_alice=0)\n"
               "exact_law(config, mix, BobStrategy.computational_basis())\n")
        # A child's ru_maxrss counts the memory of the process that spawned it,
        # so the job runs under a small launcher, which reports the job's peak.
        launcher = ("import resource, subprocess, sys\n"
                    "code = subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode\n"
                    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)\n")
        src = str(Path(checksim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", launcher, job], capture_output=True,
                              text=True, env=env, timeout=120)
        code, peak_mb = proc.stdout.split()
        assert code == "0", proc.stderr
        assert float(peak_mb) <= 60.0

    def test_closed_forms(self):
        m, k, p = 20, 10, math.sin(0.25) ** 2
        config = CheckConfig(m=m, k_bob=k, k_alice=k)
        law = checksim.exact_law(config, AliceStrategy.honest(), BobStrategy.phase_noise(0.5))
        shared = np.arange(k + 1)
        pmf = stats.hypergeom.pmf(shared, m, k, k)
        expected = float(np.sum(pmf * (1 - p) ** (2 * k - shared)))
        assert law.pass_probability == pytest.approx(expected, rel=1e-10)
        honest = checksim.exact_law(CheckConfig(m=200, k_bob=15, k_alice=25),
                                    AliceStrategy.honest(), BobStrategy.honest())
        assert honest.pass_probability == pytest.approx(1.0, abs=1e-12)
        assert honest.tables_delivered == pytest.approx(200 - 15 - 25 + 15 * 25 / 200, rel=1e-12)
        # Fractional thresholds resolve against k as in a run.
        config = CheckConfig(m=10, k_bob=10, threshold_bob=0.25)
        law = checksim.exact_law(config, AliceStrategy.learn_y())
        assert law.abort_bob == pytest.approx(stats.binom.sf(2, 10, 0.5), rel=1e-12)
        assert law.pass_probability == pytest.approx(1.0 - law.abort_bob, rel=1e-12)

    # Abort probability when every table is checked, ``1 - pass_probability``
    # at m = k: of Bob's check of a sender, or of Alice's check of a receiver.
    @pytest.mark.parametrize("alice,bob,ks,expected,tolerance", [
        (AliceStrategy.honest(), None, [1, 5, 10], lambda k: 0.0, 0.0),
        (AliceStrategy.learn_y(), None, [1, 2, 4, 8], lambda k: 1.0 - 2.0 ** -k, 1e-12),
        (AliceStrategy.per_instance_mix([(0.4, AliceStrategy.learn_y()),
                                         (0.6, AliceStrategy.honest())]),
         None, [2, 6, 12], lambda k: 1.0 - (1.0 - 0.4 / 2.0) ** k, 1e-12),
        (AliceStrategy.honest(), BobStrategy.computational_basis(), [1, 4, 8], None, None),
    ], ids=["honest", "learn-y", "mix", "computational-bob"])
    def test_detection_curve(self, alice, bob, ks, expected, tolerance):
        curve = []
        for k in ks:
            if bob is None:
                law = checksim.exact_law(CheckConfig(m=k, k_bob=k), alice)
            else:
                law = checksim.exact_law(CheckConfig(m=k, k_bob=0, k_alice=k), alice, bob)
            curve.append(1.0 - law.pass_probability)
        if expected is None:   # monotone in k
            assert curve == sorted(curve)
        else:
            assert curve == pytest.approx([expected(k) for k in ks], abs=tolerance)

    def test_protocol2_is_protocol3_without_sender_checks(self):
        config = CheckConfig(m=30, k_bob=9, threshold_bob=2, k_alice=5)
        alice = AliceStrategy.param(CheatParams.from_alpha(0.4))
        two = checksim.exact_law(config, alice)
        three = checksim.exact_law(CheckConfig(m=30, k_bob=9, threshold_bob=2), alice,
                                   BobStrategy.honest())
        assert two == three
        assert two.tables_delivered == pytest.approx(21 * two.pass_probability, rel=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.01, 0.9, 1e-9, 1.0 - 1e-9])
    def test_binomial_pmf_matches_exact_fractions(self, p):
        exact_p = Fraction(p)
        for k in range(41):
            want = [math.comb(k, j) * exact_p**j * (1 - exact_p) ** (k - j)
                    for j in range(k + 1)]
            _assert_matches_fractions(checksim._binomial_pmf(k, p), want)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 12, 23])
    def test_shared_pmf_matches_exact_fractions(self, m):
        for k_a, k_b in itertools.product(range(m + 1), repeat=2):
            _assert_shared_pmf_exact(m, k_a, k_b)

    @pytest.mark.parametrize("m,k_a,k_b", [(10**12, 20, 20), (2**62, 20, 13),
                                           (2**63 - 1, 2**63 - 5, 2**63 - 6),
                                           (2**63, 2**63 - 1, 2**63 - 1),
                                           (10**6, 60, 300)])
    def test_shared_pmf_needs_only_its_support(self, m, k_a, k_b):
        # Populations far beyond any array: only the support is built.
        _assert_shared_pmf_exact(m, k_a, k_b)

    def test_probabilities_lie_in_unit_interval(self):
        senders = [AliceStrategy.honest(), AliceStrategy.learn_y(),
                   AliceStrategy.param(CheatParams.from_alpha(0.7))]
        receivers = [BobStrategy.honest(), BobStrategy.computational_basis(),
                     BobStrategy.phase_noise(1.1)]
        for m in (1, 2, 5, 10, 30, 200):
            for k_b, k_a in itertools.product(sorted({0, 1, m // 3, m}), sorted({0, 1, m // 2, m})):
                for t_b, t_a in ((0, 0), (1, 2), (m, m)):
                    config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, threshold_bob=t_b,
                                         threshold_alice=t_a)
                    for alice, bob in itertools.product(senders, receivers):
                        law = checksim.exact_law(config, alice, bob)
                        probabilities = [law.fail_bob, law.fail_alice, law.abort_bob,
                                         law.abort_alice, law.pass_probability]
                        assert all(0.0 <= q <= 1.0 for q in probabilities), (config, law)
                        assert 0.0 <= law.tables_delivered <= m
                    honest = checksim.exact_law(config, AliceStrategy.honest(),
                                                BobStrategy.honest())
                    assert honest.pass_probability == 1.0, config
                    one_sided = replace(config, k_alice=0, threshold_alice=0)
                    assert checksim.exact_law(one_sided, AliceStrategy.honest()) \
                        .pass_probability == 1.0, config


def _assert_shared_pmf_exact(m, k_a, k_b):
    """``_shared_pmf`` has J's support and, on it, the exact hypergeometric law."""
    support, pmf = checksim._shared_pmf(m, k_a, k_b)
    assert support.tolist() == list(range(max(0, k_a + k_b - m), min(k_a, k_b) + 1))
    _assert_matches_fractions(pmf, [
        Fraction(math.comb(k_a, j) * math.comb(m - k_a, k_b - j), math.comb(m, k_b))
        for j in support.tolist()])


def _assert_matches_fractions(pmf, want):
    """``pmf`` equals the exact probabilities ``want`` to a relative 1e-13."""
    assert len(pmf) == len(want)
    for got, exact in zip(pmf.tolist(), want):
        if exact < Fraction(1, 10**300):   # beyond float's normal range
            assert got <= 1e-290
        else:
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**13) * exact, (got, float(exact))


_TABLE_SENDERS = (
    [("honest", AliceStrategy.honest()), ("learn-y", AliceStrategy.learn_y()),
     ("mix", AliceStrategy.per_instance_mix([(0.5, AliceStrategy.learn_y()),
                                             (0.5, AliceStrategy.honest())]))]
    + [(f"param-{alpha:.3f}", AliceStrategy.param(CheatParams.from_alpha(alpha)))
       for alpha in (0.0, 0.4, np.pi / 4, np.pi / 2)]
    # Learn-y senders with each deterministic report map ((a0, e0), (a1, e1)).
    + [("learn-y-%d%d%d%d" % bits, (bits[:2], bits[2:]))
       for bits in itertools.product((0, 1), repeat=4)])
_TABLE_RECEIVERS = (
    [("honest", BobStrategy.honest()), ("computational", BobStrategy.computational_basis())]
    + [(f"phase-noise-{angle:.3f}", BobStrategy.phase_noise(angle))
       for angle in (0.0, 0.6, np.pi)])


def _report_map_table(report_map, bob, monkeypatch):
    """Instance table of a learn-y sender who reports ``report_map[o]`` after
    reading bit ``o`` (outcome 0 or 1), and either of those pairs by a coin
    after outcome 2 or 3.

    The learn-y sender's report law is replaced in :func:`checksim._sender`,
    and the table is built without the cache, so no cached table changes.
    """
    sender = checksim._sender

    def mapped(alice):
        *arrays, _ = sender(alice)
        observed = np.zeros((2, 2, 2))            # [observed bit, a, e]
        for bit, (a, e) in enumerate(report_map):
            observed[bit, a, e] = 1.0
        coin = observed.mean(axis=0)
        return (*arrays, np.stack([observed[0], observed[1], coin, coin])[None])

    monkeypatch.setattr(checksim, "_sender", mapped)
    return checksim._instance_table.__wrapped__(AliceStrategy.learn_y(), bob)


class TestInstanceTable:
    """Exact identities of the instance table, for every sender and receiver."""

    @pytest.mark.parametrize("bob_name,bob", _TABLE_RECEIVERS,
                             ids=[name for name, _ in _TABLE_RECEIVERS])
    @pytest.mark.parametrize("alice_name,alice", _TABLE_SENDERS,
                             ids=[name for name, _ in _TABLE_SENDERS])
    def test_identities(self, alice_name, alice, bob_name, bob, monkeypatch):
        if isinstance(alice, AliceStrategy):
            probs, columns = checksim._instance_table(alice, bob)
        else:
            probs, columns = _report_map_table(alice, bob, monkeypatch)
        assert (probs > 0.0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # Bob's bits are uniform whatever Alice does.
        cell = np.bincount(2 * columns["y"] + columns["r"], weights=probs, minlength=4)
        np.testing.assert_allclose(cell, 0.25, rtol=0, atol=1e-12)
        if alice_name.startswith("learn-y"):
            # r is a global phase on what she gets back: any report fails half the checks.
            assert probs @ columns["bob_fail"] == pytest.approx(0.5, abs=1e-12)
        if alice_name == "honest" and bob_name == "honest":
            assert np.array_equal(columns["e"] ^ columns["r"], columns["x"] & columns["y"])
        if alice_name == "honest" and bob_name == "computational":
            assert probs @ columns["x_guess_correct"] == pytest.approx(0.75, abs=1e-12)


def _assert_table_verdict(got, want, *context):
    """``got`` within 4 ulps of the table's ``want``, in ulps of ``max(want, 1/2)``.

    The table and the kernel take one Born weight per cell from the same
    contraction (:func:`checksim._born`), but the table normalizes its rows
    and sums them in its own order, and a mix its components' tables, so a
    sum may round apart by a few ulps of the total; 4 is the most seen.
    """
    assert abs(got - want) <= 4 * np.spacing(max(want, 0.5)), (*context, got, want)


def _receiver_id(bob):
    return f"{bob.kind}{bob.angle:+.3f}" if bob.kind == "phase-noise" else bob.kind


# Every sender kind: param on a grid of squares (multiples of 1/4) and mixes
# at several cheating fractions; every receiver kind: phase noise at 0, +-pi
# and a grid.
_VERDICT_SENDERS = (
    [("honest", AliceStrategy.honest()), ("learn-y", AliceStrategy.learn_y())]
    + [(f"param-{i}{j}{4 - i - j}",
        AliceStrategy.param(CheatParams.from_squares(i / 4, j / 4, (4 - i - j) / 4)))
       for i in range(5) for j in range(5 - i)]
    + [(f"mix-{phi}", AliceStrategy.per_instance_mix([(phi, AliceStrategy.learn_y()),
                                                       (1.0 - phi, AliceStrategy.honest())]))
       for phi in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0)]
    + [("mix-param", AliceStrategy.per_instance_mix(
        [(0.4, AliceStrategy.param(CheatParams.from_alpha(0.7))), (0.6, AliceStrategy.honest())]))])
_VERDICT_RECEIVERS = (
    [BobStrategy.honest(), BobStrategy.computational_basis()]
    + [BobStrategy.phase_noise(angle)
       for angle in (0.0, np.pi, -np.pi, -3.0, -2.0, -1.0, -0.3, 0.5, 0.8, 1.1, 3.0)])


class TestVerdicts:
    """The verdict kernel against its oracle, the instance table, and the closed forms."""

    # Bob's failure mass against a small phase error is a small sum: the
    # table read it 1476 and 20 ulps off when it summed 3x3 elements.
    @pytest.mark.parametrize("angle", [0.0132, -0.0932])
    def test_small_failure_mass_to_a_few_ulps_of_itself(self, angle):
        import mpmath

        with mpmath.workdps(50):
            exact = float(mpmath.sin(mpmath.mpf(angle) / 2) ** 2)
        alice, bob = AliceStrategy.honest(), BobStrategy.phase_noise(angle)
        fail, _ = _verdict_cells(alice, bob, checksim._instance_table.__wrapped__)
        for got in (fail[1].sum(), fail[1, 1], checksim._verdicts(alice, bob)[0]):
            assert abs(got - exact) <= 2 * np.spacing(exact), (got, exact)

    @pytest.mark.parametrize("bob", _VERDICT_RECEIVERS, ids=_receiver_id)
    def test_kernel_agrees_with_the_table(self, bob):
        for name, alice in _VERDICT_SENDERS:
            fail, _ = _verdict_cells(alice, bob, checksim._instance_table.__wrapped__)
            first, again = checksim._verdicts(alice, bob), checksim._verdicts(alice, bob)
            assert again is first and [type(value) for value in first] == [float, float]
            p_b, p_a = first
            _assert_table_verdict(p_b, fail[1].sum(), name, "p_b")
            _assert_table_verdict(p_a, fail[1, 1], name, "p_a")
            if alice.kind == "honest":
                # So the thinning rate is exactly 1, and no draw path moves.
                assert p_a == p_b
                assert p_b == 0.0 or checksim._thinning_rate(p_b, p_a) == 1.0

    @pytest.mark.parametrize("bob", _VERDICT_RECEIVERS, ids=_receiver_id)
    def test_exact_values(self, bob):
        # r is a global phase on what a learn-y sender gets back, whatever Bob does.
        assert checksim._verdicts(AliceStrategy.learn_y(), bob) == (0.5, 0.0)
        if bob.kind != "computational" and bob.angle == 0.0:
            assert checksim._verdicts(AliceStrategy.honest(), bob) == (0.0, 0.0)

    @pytest.mark.parametrize("bob", _VERDICT_RECEIVERS, ids=_receiver_id)
    def test_learn_y_is_param_at_alpha_zero(self, bob):
        # Example 1's sender at alpha = 0: the same arrays, so the same bits.
        learn_y = AliceStrategy.learn_y()
        param = AliceStrategy.param(CheatParams.from_alpha(0.0))
        assert checksim._verdicts(learn_y, bob) == checksim._verdicts(param, bob)
        (probs, columns), (want_probs, want) = (checksim._instance_table(alice, bob)
                                                for alice in (learn_y, param))
        assert np.array_equal(probs, want_probs)
        for name in checksim._FIELDS:
            assert np.array_equal(columns[name], want[name]), name

    def test_param_closed_form(self):
        rng = np.random.default_rng(61)
        squares = [(i / 4, j / 4, (4 - i - j) / 4) for i in range(5) for j in range(5 - i)]
        for a2, b2, c2 in squares + list(rng.dirichlet([1.0, 1.0, 1.0], 500)):
            params = CheatParams.from_squares(a2, b2, c2)
            a, b, c = params.a, params.b, params.c
            theta = math.atan2(c, b)
            want = ((a * math.cos(theta)) ** 2 + b ** 2) / 2 + (a * math.sin(theta) - c) ** 2 / 2
            p_b, p_a = checksim._verdicts(AliceStrategy.param(params), BobStrategy.honest())
            assert abs(p_b - want) <= 1e-15 and p_a == 0.0, (a2, b2, c2)
        for alpha in np.linspace(0.0, np.pi / 2, 101):
            p_b, _ = checksim._verdicts(AliceStrategy.param(CheatParams.from_alpha(alpha)),
                                        BobStrategy.honest())
            assert abs(p_b - math.cos(alpha) ** 2 / 2) <= 1e-15, alpha

    def test_phase_noise_closed_form(self):
        for angle in np.linspace(-2 * np.pi, 2 * np.pi, 401):
            p_b, p_a = checksim._verdicts(AliceStrategy.honest(), BobStrategy.phase_noise(angle))
            assert abs(p_b - math.sin(angle / 2) ** 2) <= 1e-15 and p_a == p_b, angle

    def test_mix_closed_form(self):
        for angle in (0.0, 0.7, np.pi):
            noise = math.sin(angle / 2) ** 2
            for phi in np.linspace(0.0, 1.0, 21):
                mix = AliceStrategy.per_instance_mix([(phi, AliceStrategy.learn_y()),
                                                      (1.0 - phi, AliceStrategy.honest())])
                p_b, p_a = checksim._verdicts(mix, BobStrategy.phase_noise(angle))
                assert abs(p_b - (phi / 2 + (1 - phi) * noise)) <= 1e-15, (angle, phi)
                assert abs(p_a - (1 - phi) * noise) <= 1e-15, (angle, phi)

    def test_check_runs_build_no_instance_table(self, monkeypatch):
        def refuse(alice, bob):
            raise AssertionError(f"instance table of {alice.kind} x {bob.kind} built")

        monkeypatch.setattr(checksim, "_instance_table", refuse)
        checksim._verdicts.cache_clear()
        config = CheckConfig(m=30, k_bob=10, k_alice=10, threshold_bob=2, trials=50)
        rng = np.random.default_rng(62)
        param = AliceStrategy.param(CheatParams.from_alpha(0.61))
        noise = BobStrategy.phase_noise(0.83)
        mix = AliceStrategy.per_instance_mix([(0.3, AliceStrategy.learn_y()),
                                              (0.7, AliceStrategy.honest())])
        assert run_protocol2(config, param, rng).trials == 50
        assert checksim.exact_law(config, param).fail_bob > 0.0
        for alice in (AliceStrategy.honest(), mix):
            bob_report, alice_report = run_protocol3(config, alice, noise, rng)
            assert bob_report.trials == alice_report.trials == 50
            assert checksim.exact_law(config, alice, noise).fail_alice > 0.0


class TestStrategyValidation:
    # Weights pass through per_instance_mix as given: the strategy checks each as a real.
    @pytest.mark.parametrize("weights", [
        (math.nan, math.nan), (1.5, -0.5), (math.inf, 0.0), (True, False), (np.True_, np.False_),
        ("1", "0"), (None, 1.0), (1j, 0.0), (10**400, 0.0)])
    def test_mix_weights_finite_and_nonnegative(self, weights):
        with pytest.raises(ValueError,
                           match=r"^mix weights? .*must be (a real number|finite|nonnegative)"):
            AliceStrategy.per_instance_mix(zip(weights, (AliceStrategy.learn_y(),
                                                         AliceStrategy.honest())))

    @pytest.mark.parametrize("component", ["x", None, 1.0, BobStrategy.honest()])
    def test_mix_components_are_sender_strategies(self, component):
        with pytest.raises(ValueError, match="must be an AliceStrategy"):
            AliceStrategy.per_instance_mix([(0.5, AliceStrategy.honest()), (0.5, component)])

    @pytest.mark.parametrize("fields", [
        dict(kind="honest", params=CheatParams.learn_y()),
        dict(kind="learn-y", params=CheatParams.learn_y()),
        dict(kind="mix", mix=((1.0, AliceStrategy.honest()),), params=CheatParams.learn_y()),
        dict(kind="honest", mix=((1.0, AliceStrategy.learn_y()),)),
        dict(kind="learn-y", mix=((1.0, AliceStrategy.learn_y()),)),
        dict(kind="param", params=CheatParams.learn_y(), mix=((1.0, AliceStrategy.honest()),)),
    ])
    def test_sender_fields_outside_their_kind_rejected(self, fields):
        with pytest.raises(ValueError, match="apply only to"):
            AliceStrategy(**fields)

    @pytest.mark.parametrize("kind", ["honest", "computational"])
    def test_angle_outside_phase_noise_rejected(self, kind):
        with pytest.raises(ValueError, match="applies only to phase-noise"):
            BobStrategy(kind, angle=1.0)
        assert BobStrategy(kind, angle=0.0) == BobStrategy(kind)

    @pytest.mark.parametrize("fields,message", [
        (dict(kind="greedy"), "unknown Alice strategy 'greedy'"),
        (dict(kind="param"), "param strategy needs an amplitude triple"),
        (dict(kind="mix"), "mix strategy needs components"),
        (dict(kind="mix", mix=((0.5, AliceStrategy.honest()), (0.4, AliceStrategy.learn_y()))),
         "mix weights sum to 0.9, expected 1"),
    ])
    def test_sender_kind_and_components_checked(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AliceStrategy(**fields)

    @pytest.mark.parametrize("fields,message", [
        (dict(kind="greedy"), "unknown Bob strategy 'greedy'"),
        (dict(kind="phase-noise", angle=math.inf), "angle must be finite"),
        (dict(kind="phase-noise", angle=10**400), "angle must be finite"),
        (dict(kind="phase-noise", angle=True), "angle must be a real number, not True"),
        (dict(kind="phase-noise", angle=np.True_), r"angle must be a real number, not np\.True_"),
        (dict(kind="phase-noise", angle="1"), "angle must be a real number, not '1'"),
    ])
    def test_receiver_kind_and_angle_checked(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BobStrategy(**fields)

    def test_fields_of_their_own_kind_accepted(self):
        AliceStrategy.param(CheatParams.learn_y())
        AliceStrategy.per_instance_mix([(1.0, AliceStrategy.honest())])
        assert BobStrategy.phase_noise(1.0).angle == 1.0


class TestReproducibility:
    def test_reports_are_byte_identical_for_same_seed(self):
        config = CheckConfig(m=15, k_bob=5, trials=500)
        a = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(123))
        b = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(123))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_protocol3_reproducible(self):
        config = CheckConfig(m=12, k_bob=4, k_alice=4, trials=300)
        a = run_protocol3(config, AliceStrategy.honest(), BobStrategy.phase_noise(0.3),
                          np.random.default_rng(9))
        b = run_protocol3(config, AliceStrategy.honest(), BobStrategy.phase_noise(0.3),
                          np.random.default_rng(9))
        for left, right in zip(a, b):
            assert json.dumps(left.to_dict(), sort_keys=True) == \
                json.dumps(right.to_dict(), sort_keys=True)

    def test_delivered_tables_protocol3(self):
        config = CheckConfig(m=10, k_bob=3, k_alice=3, trials=200)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(), BobStrategy.honest(),
                                           np.random.default_rng(5))
        # No aborts: delivered = m - |union of checked labels| in [m-6, m-3].
        delivered = _per_trial(bob_rep)["tables_delivered"]
        assert np.all(delivered >= 4)
        assert np.all(delivered <= 7)
        assert np.array_equal(delivered, _per_trial(alice_rep)["tables_delivered"])


# Sizes with the branch the one rule picks at 20 000 trials: (J, F_b, F_a)
# cells of 8, 78 and 288 draw histograms, and 51 ** 3 = 132651 cells (more
# than 4 per trial) one value per trial, unless a check cannot fail: its
# side then counts one value (learn-y: 51 * 51 cells, histograms).
@pytest.mark.parametrize("sizes,histogram", [
    (dict(m=20, k_bob=0, k_alice=7), True),
    (dict(m=12, k_bob=5, k_alice=12), True),
    (dict(m=30, k_bob=5, k_alice=7), True),
    (dict(m=500, k_bob=50, k_alice=50, threshold_bob=12, threshold_alice=12), False),
], ids=["k_bob=0", "k_alice=m", "random-overlap", "per-trial"])
@pytest.mark.parametrize("alice,bob", [
    (AliceStrategy.honest(), BobStrategy.computational_basis()),
    (AliceStrategy.honest(), BobStrategy.phase_noise(0.7)),
    (AliceStrategy.learn_y(), BobStrategy.honest()),
    # A thinning rate 0 < q < 1: Alice fails some, not all, of Bob's shared failures.
    (AliceStrategy.per_instance_mix([(0.3, AliceStrategy.learn_y()),
                                     (0.7, AliceStrategy.honest())]),
     BobStrategy.computational_basis()),
], ids=["computational", "phase-noise", "learn-y", "mix-computational"])
def test_protocol3_draws_follow_the_exact_law(monkeypatch, sizes, histogram, alice, bob):
    # Fixed and random overlaps, on each branch: each side's aborts and
    # failures, and the joint pass, against exact_law by exact binomial tests.
    trials = 20_000
    config = CheckConfig(**{"threshold_bob": 1, "threshold_alice": 1, **sizes}, trials=trials)
    law = checksim.exact_law(config, alice, bob)
    chains = _count_calls(monkeypatch, "_shared_trials")   # one call per run drawn per trial
    bob_rep, alice_rep = run_protocol3(config, alice, bob, np.random.default_rng(77))
    assert len(chains) == int(not histogram and alice.kind != "learn-y")
    for report, abort, p in ((bob_rep, law.abort_bob, law.fail_bob),
                             (alice_rep, law.abort_alice, law.fail_alice)):
        if report.k == 0:
            per_trial = _per_trial(report)
            assert not per_trial["failures"].any() and not per_trial["aborted"].any()
        else:
            _assert_aborts(report, abort, p)
    passed = ~_per_trial(bob_rep)["aborted"] & ~_per_trial(alice_rep)["aborted"]
    _assert_binomial(int(np.sum(passed)), trials, law.pass_probability)


# Two-sided p-value of a 5-sigma deviation of a normal variable.
_P_5SIGMA = math.erfc(5.0 / math.sqrt(2.0))


class TestIid:
    @pytest.mark.parametrize("support,pmf,trials", [
        (np.arange(21), checksim._binomial_pmf(20, 0.3), 4000),
        (np.arange(3, 9), np.array([1e-9, 0.2, 0.3, 0.1, 0.4 - 1e-9, 0.0]), 5000),
        (np.array([7]), np.array([1.0]), 10),
    ], ids=["binomial", "sparse", "one-value"])
    def test_multinomial_histogram(self, support, pmf, trials):
        cells, cell_counts = checksim._iid(np.random.default_rng(41), support, pmf, trials)
        counts = np.random.default_rng(41).multinomial(trials, pmf / pmf.sum())
        # Its multinomial counts, laid out in support order, without the values none drew.
        assert np.array_equal(cells, support[counts > 0])
        assert np.array_equal(cell_counts, counts[counts > 0]) and cell_counts.all()
        draws = np.repeat(cells, cell_counts)
        assert np.array_equal(draws, np.repeat(support, counts))
        for value, p in zip(support, pmf / pmf.sum()):
            count = int(np.sum(draws == value))
            if p == 0.0:
                assert count == 0
            else:
                assert stats.binomtest(count, trials, p).pvalue >= _P_5SIGMA, (value, count, p)
        # A report writes each cell once, with its count, in drawn order.
        k = int(support.max())
        report = CheckReport(2, "bob", m=k, k=k, threshold=k, drawn_failures=cells,
                             drawn_delivered=np.zeros(len(cells), dtype=int), counts=cell_counts)
        written = report.to_dict()["cells"]
        assert [(cell["failures"], cell["trials"]) for cell in written] == \
            list(zip(cells.tolist(), cell_counts.tolist()))
        assert np.array_equal(_per_trial(report)["failures"], draws)

    # k = 20: 21 values of Bob's failures, histograms at up to 4 per trial;
    # k = 0: one value, drawn by nothing.
    @pytest.mark.parametrize("k,trials,histogram", [(20, 6, True), (20, 5, False),
                                                    (0, 5, True)])
    def test_protocol2_histogram_only_when_support_fits(self, monkeypatch, k, trials,
                                                        histogram):
        per_trial = _count_calls(monkeypatch, "_shared_trials")
        config = CheckConfig(m=40, k_bob=k, threshold_bob=40, trials=trials)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        report = run_protocol2(config, AliceStrategy.learn_y(), rng)
        assert len(per_trial) == int(not histogram)
        assert (rng.bit_generator.state == state) == (k == 0)
        failures = _per_trial(report)["failures"]
        assert failures.shape == (trials,) and failures.max() <= k

    def test_certain_failures_past_int64_refused(self):
        # A failure probability of 1 draws nothing: its count is refused as a draw's would be.
        for n in (2**63, 2**70):
            with pytest.raises(OverflowError):
                checksim._binomials(np.random.default_rng(0), n, 1.0, 3)

    @pytest.mark.parametrize("n,p,expected", [
        (5, 0.0, 0), (5, 1.0, 5), (0, 0.3, 0), (np.int64(0), 0.3, 0), (2**70, 0.0, 0),
        (np.array([2, 0, 7]), 0.0, [0, 0, 0]), (np.array([2, 0, 7]), 1.0, [2, 0, 7]),
        (np.zeros(3, dtype=np.int64), 0.3, [0, 0, 0]),
    ], ids=["scalar-p0", "scalar-p1", "scalar-zero", "numpy-scalar-zero", "past-int64-p0",
            "array-p0", "array-p1", "array-zeros"])
    def test_no_draw_paths_leave_the_stream_untouched(self, n, p, expected):
        # A link of one value is returned as it is: one scalar for one count.
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        counts = checksim._binomials(rng, n, p, 3)
        assert counts.dtype == np.int64 and counts.tolist() == expected
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("m,k_a,trials,histogram", [
        (40, 5, 6, True), (40, 5, 5, False),
        # numpy's sampler takes no population of 10**9 or more, so any support goes.
        (10**12, 5, 2, True),
    ])
    def test_shared_labels_histogram(self, monkeypatch, m, k_a, trials, histogram):
        calls = []
        real = checksim._iid
        monkeypatch.setattr(checksim, "_iid", lambda *args: calls.append(args[1]) or real(*args))
        rng = np.random.default_rng(4)
        shared = checksim._shared_trials(rng, m, k_a, 5, trials)
        assert (len(calls) == 1) == histogram
        if histogram:
            assert calls[0].tolist() == list(range(6))
        assert shared.shape == (trials,) and 0 <= shared.min() and shared.max() <= 5

    def test_shared_labels_of_one_value_draw_nothing(self):
        # Alice checks every label: J is Bob's count, returned as it is.
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        shared = checksim._shared_trials(rng, 12, 12, 5, 9)
        assert shared == 5 and type(shared) is int and rng.bit_generator.state == state


# Senders and receivers of the library, with parameter sweeps: the premise of
# the joint-table draw, Alice's check fails only where Bob's does.
_PREMISE_SENDERS = (
    [AliceStrategy.honest(), AliceStrategy.learn_y()]
    + [AliceStrategy.param(CheatParams.from_alpha(alpha))
       for alpha in (0.0, 0.2, 0.4, 0.7, np.pi / 4, 1.2, np.pi / 2)]
    + [AliceStrategy.per_instance_mix([(phi, AliceStrategy.learn_y()),
                                       (1.0 - phi, AliceStrategy.honest())])
       for phi in (0.1, 0.5, 0.9)]
    + [AliceStrategy.per_instance_mix([(0.4, AliceStrategy.param(CheatParams.from_alpha(0.7))),
                                       (0.6, AliceStrategy.honest())])])
_PREMISE_RECEIVERS = (
    [BobStrategy.honest(), BobStrategy.computational_basis()]
    + [BobStrategy.phase_noise(angle) for angle in (-3.0, -2.0, -1.0, -0.3, 0.5, 1.1, 3.0)])

_MIX = AliceStrategy.per_instance_mix([(_MIX_PHI, AliceStrategy.learn_y()),
                                       (1.0 - _MIX_PHI, AliceStrategy.honest())])
# Strategy pairs with one, two and three live verdict cells.
_JOINT_PAIRS = [
    ("honest-computational", AliceStrategy.honest(), BobStrategy.computational_basis()),
    ("honest-phase-noise", AliceStrategy.honest(), BobStrategy.phase_noise(0.9)),
    ("mix-computational", _MIX, BobStrategy.computational_basis()),
    ("learn-y-honest", AliceStrategy.learn_y(), BobStrategy.honest()),
]


def _joint_table(alice, bob, m, k_b, k_a):
    p_b, p_a = checksim._verdicts(alice, bob)
    shared, weights = checksim._shared_pmf(m, k_a, k_b)
    return shared, checksim._joint_table(p_b, p_a, shared, weights, k_b, k_a)


def _paired_trials(bob_rep, alice_rep):
    """``[trials, 3]``: each trial's Bob failures, Alice failures and delivered tables."""
    bob_trials = _per_trial(bob_rep)
    return np.column_stack([bob_trials["failures"], _per_trial(alice_rep)["failures"],
                            bob_trials["tables_delivered"]])


def _count_calls(monkeypatch, name):
    """Record each call of the checksim function ``name``; returns the list."""
    calls, real = [], getattr(checksim, name)
    monkeypatch.setattr(checksim, name, lambda *args: calls.append(args) or real(*args))
    return calls


class _NoShuffle:
    """A Generator whose ``shuffle`` and ``permutation`` raise: a run must
    not reorder its draws with the caller's stream."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        if name in ("shuffle", "permutation"):
            raise AssertionError(f"run drew rng.{name}")
        return getattr(self._rng, name)


class TestJointTable:
    @pytest.mark.parametrize("bob", _PREMISE_RECEIVERS,
                             ids=lambda b: f"{b.kind}{b.angle:+.1f}" if b.angle else b.kind)
    @pytest.mark.parametrize("alice", _PREMISE_SENDERS, ids=lambda a: a.kind)
    def test_alice_fails_only_where_bob_fails(self, alice, bob):
        fail, _ = _verdict_cells(alice, bob)
        assert fail[0, 1] == 0.0
        # The kernel's verdicts are that row and that cell, to the table's
        # round-off; Alice's is exactly Bob's for an honest sender, 0 for a cheater.
        p_b, p_a = checksim._verdicts(alice, bob)
        _assert_table_verdict(p_b, fail[1].sum())
        _assert_table_verdict(p_a, fail[1, 1])
        if alice.kind != "mix":
            assert p_a == (p_b if alice.kind == "honest" else 0.0)
        assert fail[:, 1].sum() == fail[1, 1]
        # Column for column: an honest sender's check fails where Bob's does,
        # a cheater's never, and both are her check ``x AND y = e XOR r``.
        _, columns = checksim._instance_table(alice, bob)
        honest, alice_fail = columns["honest_alice"], columns["alice_fail"]
        assert np.array_equal(alice_fail, honest & columns["bob_fail"])
        x, y, e, r = (columns[name] for name in ("x", "y", "e", "r"))
        assert np.array_equal(alice_fail, honest & ((x & y) != (e ^ r)))

    @pytest.mark.parametrize("m,k_b,k_a,t_b,t_a",
                             [(5, 3, 2, 0, 0), (5, 3, 3, 1, 0), (6, 2, 4, 1, 2), (4, 4, 1, 1, 0),
                              (5, 2, 5, 1, 1)])
    @pytest.mark.parametrize("name,alice,bob", _JOINT_PAIRS, ids=[p[0] for p in _JOINT_PAIRS])
    def test_matches_exact_law_and_brute_force(self, name, alice, bob, m, k_b, k_a, t_b, t_a):
        shared, table = _joint_table(alice, bob, m, k_b, k_a)
        passing = table[:, :t_b + 1, :t_a + 1].sum(axis=(1, 2))
        delivered = ((m - k_b - k_a + shared) * passing).sum()
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, threshold_bob=t_b, threshold_alice=t_a)
        law = checksim.exact_law(config, alice, bob)
        assert passing.sum() == pytest.approx(law.pass_probability, abs=1e-12)
        assert delivered == pytest.approx(law.tables_delivered, abs=1e-12)
        fail, _ = _verdict_cells(alice, bob)
        brute_passed, brute_delivered = _brute_force_law(fail, m, k_b, k_a, t_b, t_a)
        assert passing.sum() == pytest.approx(brute_passed, abs=1e-12)
        assert delivered == pytest.approx(brute_delivered, abs=1e-12)

    @pytest.mark.parametrize("name,alice,bob", _JOINT_PAIRS, ids=[p[0] for p in _JOINT_PAIRS])
    def test_matches_exact_law_at_sparse_geometry(self, name, alice, bob):
        m, k = 200, 20
        shared, table = _joint_table(alice, bob, m, k, k)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        p_b, p_a = checksim._verdicts(alice, bob)
        # Bob's failures are Bin(k, p_b) whatever J, and Alice's Bin(k, p_a).
        np.testing.assert_allclose(table.sum(axis=(0, 2)),
                                   stats.binom.pmf(np.arange(k + 1), k, p_b), atol=1e-12)
        np.testing.assert_allclose(table.sum(axis=(0, 1)),
                                   stats.binom.pmf(np.arange(k + 1), k, p_a), atol=1e-12)
        for t_b, t_a in ((0, 0), (1, 2), (2, 1), (k, k)):
            config = CheckConfig(m=m, k_bob=k, k_alice=k, threshold_bob=t_b, threshold_alice=t_a)
            law = checksim.exact_law(config, alice, bob)
            passing = table[:, :t_b + 1, :t_a + 1].sum(axis=(1, 2))
            assert passing.sum() == pytest.approx(law.pass_probability, abs=1e-12)
            assert ((m - 2 * k + shared) * passing).sum() == \
                pytest.approx(law.tables_delivered, abs=1e-12)

    def test_binomial_rows_match_one_count_at_a_time(self):
        for p in (0.0, 0.3, 0.5, 1e-9, 1.0):
            counts = np.array([0, 3, 7, 2, 7])
            rows = checksim._binomial_pmf(counts, p)
            assert rows.shape == (5, 8)
            for row, k in zip(rows, counts):
                np.testing.assert_allclose(row[:k + 1], checksim._binomial_pmf(k, p),
                                           rtol=1e-14, atol=0)
                assert not row[k + 1:].any()

    def test_histogram_and_per_trial_paths_share_one_law(self, monkeypatch):
        # The mix law has three live verdict cells, so Alice's shared failures
        # are a thinning of Bob's.  6 * 6 * 8 = 288 cells: one run of 20 000
        # trials draws histograms, and 282 runs of 71 trials one value per trial.
        config = CheckConfig(m=30, k_bob=5, k_alice=7, threshold_bob=1, threshold_alice=1,
                             trials=20_000)
        bob = BobStrategy.computational_basis()
        assert np.count_nonzero(_verdict_cells(_MIX, bob)[0]) == 3
        per_trial = _count_calls(monkeypatch, "_shared_trials")
        histogram = _paired_trials(*run_protocol3(config, _MIX, bob, np.random.default_rng(31)))
        assert not per_trial
        rng, small = np.random.default_rng(32), replace(config, trials=71)
        chain = np.concatenate([_paired_trials(*run_protocol3(small, _MIX, bob, rng))
                                for _ in range(282)])
        assert len(per_trial) == 282
        _assert_same_law(histogram, chain)

    @pytest.mark.parametrize("case,trials,histogram", [
        # m = 30, k = 5, k_alice = 7: 6 * 6 * 8 = 288 cells.
        ("computational", 72, True), ("computational", 71, False),
        ("mix", 72, True), ("mix", 71, False),
        # Bob's check never fails (p_b = 0), nor then Alice's: J's 6 values alone.
        ("honest", 2, True), ("honest", 1, False),
        # Bob checks nothing: Alice's 8 values alone.
        ("k_bob=0", 2, True), ("k_bob=0", 1, False),
    ])
    def test_histogram_only_when_the_table_fits(self, monkeypatch, case, trials, histogram):
        alice, bob, k_b = AliceStrategy.honest(), BobStrategy.computational_basis(), 5
        if case == "mix":
            alice = _MIX
        elif case == "honest":   # Bob's check never fails: p_b = 0
            bob = BobStrategy.honest()
        elif case == "k_bob=0":
            k_b = 0
        per_trial = _count_calls(monkeypatch, "_shared_trials")
        config = CheckConfig(m=30, k_bob=k_b, k_alice=7, threshold_bob=1, threshold_alice=1,
                             trials=trials)
        bob_rep, alice_rep = run_protocol3(config, alice, bob, np.random.default_rng(32))
        assert len(per_trial) == int(not histogram)
        bob_failures, alice_failures = _paired_trials(bob_rep, alice_rep)[:, :2].T
        assert bob_failures.shape == alice_failures.shape == (trials,)
        assert bob_failures.max() <= k_b and alice_failures.max() <= 7

    @pytest.mark.parametrize("k_b,trials,histogram", [
        # m = k_alice = 12, k_bob = 5: J = 5 in every trial, 1 * 6 * 13 = 78 cells.
        (5, 20, True),
        # The table does not fit: J, of one value, is drawn by nothing, and
        # the rest of the chain one value per trial.
        (5, 19, False), (5, 6, False), (5, 5, False),
        # Bob checks nothing: only Alice's failures are drawn, as one histogram.
        (0, 300, True),
    ])
    def test_fixed_overlap_draws_histograms(self, monkeypatch, k_b, trials, histogram):
        iid_calls = _count_calls(monkeypatch, "_iid")
        per_trial = _count_calls(monkeypatch, "_shared_trials")
        config = CheckConfig(m=12, k_bob=k_b, k_alice=12, threshold_bob=1, threshold_alice=2,
                             trials=trials)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(),
                                           BobStrategy.computational_basis(),
                                           _NoShuffle(np.random.default_rng(33)))
        assert (len(iid_calls), len(per_trial)) == (int(histogram), int(not histogram))
        if histogram:   # link 1 over J's one value times Bob's failure counts
            assert iid_calls[0][1].tolist() == list(range(k_b + 1))
        bob_failures, alice_failures = _paired_trials(bob_rep, alice_rep)[:, :2].T
        assert bob_failures.shape == (trials,) and bob_failures.max() <= k_b
        # An honest Alice fails the shared labels together with Bob.
        assert (alice_failures >= bob_failures).all()

    # Every geometry the one rule reads: one side or both checking, checks
    # that can fail or not, at the largest trials that draw one value per
    # trial and at the next.
    @pytest.mark.parametrize("alice,bob,k_b,k_a,cells", [
        (AliceStrategy.honest(), BobStrategy.computational_basis(), 5, 7, 6 * 6 * 8),
        (AliceStrategy.learn_y(), BobStrategy.computational_basis(), 5, 7, 6 * 6),
        (AliceStrategy.honest(), BobStrategy.honest(), 5, 7, 6),
        (AliceStrategy.honest(), BobStrategy.phase_noise(0.9), 0, 7, 8),
        (AliceStrategy.learn_y(), BobStrategy.honest(), 9, 0, 10),
        (AliceStrategy.honest(), BobStrategy.honest(), 9, 0, 1),
    ], ids=["both", "alice-cannot-fail", "neither-can-fail", "k_bob=0", "k_alice=0",
            "one-value"])
    def test_one_rule_picks_the_branch(self, monkeypatch, alice, bob, k_b, k_a, cells):
        per_trial = _count_calls(monkeypatch, "_shared_trials")
        fits = -(-cells // checksim._TABLE_CELLS_PER_TRIAL)   # fewest trials that draw histograms
        for trials in (fits - 1, fits):
            if trials:
                config = CheckConfig(m=30, k_bob=k_b, k_alice=k_a, trials=trials)
                run_protocol3(config, alice, bob, np.random.default_rng(34))
        assert len(per_trial) == int(fits > 1)


class TestPairing:
    # A fixed overlap off the joint table: Bob checks every label (or Alice
    # does), so each side's failure count sums its shared failures and its own
    # ones.  Both must be drawn for the same trial, else the count loses its
    # binomial law while each summand keeps its own.
    # 51 * 31 cells: runs of 100 trials draw one value per trial, runs of 400 histograms.
    @pytest.mark.parametrize("trials,runs", [(100, 200), (400, 50)],
                             ids=["per-trial", "histogram"])
    @pytest.mark.parametrize("k_b,k_a", [(50, 30), (30, 50)], ids=["k_bob=m", "k_alice=m"])
    def test_independent_draws_pair_at_random(self, monkeypatch, k_b, k_a, trials, runs):
        m = 50
        alice, bob = AliceStrategy.honest(), BobStrategy.phase_noise(1.2)
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, trials=trials)
        per_trial = _count_calls(monkeypatch, "_shared_trials")
        rng = np.random.default_rng(61)
        samples = []
        for _ in range(runs):
            bob_rep, alice_rep = run_protocol3(config, alice, bob, rng)
            samples.append(_paired_trials(bob_rep, alice_rep))
        assert len(per_trial) == (runs if trials == 100 else 0)
        samples = np.concatenate(samples)
        n = len(samples)
        p = math.sin(0.6) ** 2
        for column, k in ((0, k_b), (1, k_a)):
            # Mean and variance of Bin(k, p), each within 5 standard errors.
            mean, var = k * p, k * p * (1 - p)
            fourth = var * (1 + 3 * (k - 2) * p * (1 - p))   # fourth central moment
            counts = samples[:, column]
            assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / n)
            var_se = math.sqrt((fourth - var * var * (n - 3) / (n - 1)) / n)
            assert abs(counts.var(ddof=1) - var) <= 5 * var_se, (column, counts.var(ddof=1), var)
        # The joint law: both sides pass, at thresholds around each side's
        # mean, as often as exact_law says; every label is checked, so no
        # table is ever delivered.
        assert not samples[:, 2].any()
        for t_b in np.round(k_b * p + np.array([-3.0, 0.0, 3.0])).astype(int):
            for t_a in np.round(k_a * p + np.array([-3.0, 0.0, 3.0])).astype(int):
                law = checksim.exact_law(replace(config, threshold_bob=int(t_b),
                                                 threshold_alice=int(t_a)), alice, bob)
                assert law.tables_delivered == 0.0
                passed = int(np.sum((samples[:, 0] <= t_b) & (samples[:, 1] <= t_a)))
                assert stats.binomtest(passed, n, law.pass_probability).pvalue >= _P_5SIGMA, \
                    (t_b, t_a, passed / n, law.pass_probability)


class TestSharedCells:
    @pytest.mark.parametrize("sizes", [dict(m=30, k_bob=5, k_alice=7, trials=500),
                                       # 51 * 31 cells: off the joint table.
                                       dict(m=50, k_bob=50, k_alice=30, trials=300),
                                       dict(m=20, k_bob=0, k_alice=7, trials=500)],
                             ids=["joint-table", "fixed-overlap", "k_bob=0"])
    def test_protocol3_reports_share_their_cells(self, sizes):
        config = CheckConfig(**sizes, threshold_bob=1, threshold_alice=1)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(),
                                           BobStrategy.computational_basis(),
                                           np.random.default_rng(71))
        assert bob_rep.counts is alice_rep.counts
        bob_trials, alice_trials = _per_trial(bob_rep), _per_trial(alice_rep)
        assert np.array_equal(bob_trials["tables_delivered"], alice_trials["tables_delivered"])
        aborted = bob_trials["aborted"] | alice_trials["aborted"]
        assert np.array_equal(aborted, bob_trials["tables_delivered"] == 0) and aborted.any()


def _fancy_index_joint_table(p_b, p_a, shared, weights, k_b, k_a):
    """The joint table as one fancy-indexed copy per shift matrix, with the
    thinning always multiplied: the construction the table must match bit for bit."""
    def shifts(pmf, count, size):
        padded = np.zeros(pmf.shape[:-1] + (size + 1,))
        padded[..., :pmf.shape[-1]] = pmf
        index = np.arange(size) - np.arange(count)[:, None]
        return padded[..., np.where(index < 0, size, index)]

    g, top = len(shared), int(shared.max())
    rows = checksim._binomial_pmf(np.concatenate([k_b - shared, shared]), p_b)
    bob = shifts(rows[:g], top + 1, k_b + 1) * rows[g:, :top + 1, None]
    alice = shifts(checksim._binomial_pmf(k_a - shared, p_a), top + 1, k_a + 1)
    thinning = checksim._binomial_pmf(np.arange(top + 1), checksim._thinning_rate(p_b, p_a))
    return weights[:, None, None] * (np.swapaxes(bob, 1, 2) @ thinning @ alice)


_TABLE_SENDERS = [AliceStrategy.honest(), AliceStrategy.learn_y(),
                  AliceStrategy.param(CheatParams.from_alpha(0.7)), _MIX]
_TABLE_RECEIVERS = [BobStrategy.honest(), BobStrategy.computational_basis(),
                    BobStrategy.phase_noise(0.9)]


class _Multinomials:
    """A Generator that records each ``multinomial`` call: its counts, its
    probabilities and what it drew."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def multinomial(self, n, pvals):
        drawn = self._rng.multinomial(n, pvals)
        self.calls.append((n, pvals, drawn))
        return drawn

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestJointTableConstruction:
    # A forced overlap narrows Alice's own rows, whose sums then round otherwise
    # at 10, 7, 7 against phase noise and at 24, 15, 15 against a basis read.
    @pytest.mark.parametrize("m,k_b,k_a", [(200, 20, 20), (30, 5, 7), (12, 5, 12), (50, 40, 3),
                                           (40, 25, 25), (10, 7, 7), (24, 15, 15), (9, 9, 9)],
                             ids=["sparse", "k_a>k_b", "k_a=m", "k_b>k_a", "forced-overlap",
                                  "forced-overlap-7", "forced-overlap-15", "m=k"])
    @pytest.mark.parametrize("bob", _TABLE_RECEIVERS, ids=lambda b: b.kind)
    @pytest.mark.parametrize("alice", _TABLE_SENDERS, ids=lambda a: a.kind)
    def test_bitwise_equal_to_fancy_index_construction(self, alice, bob, m, k_b, k_a):
        p_b, p_a = checksim._verdicts(alice, bob)
        shared, weights = checksim._shared_pmf(m, k_a, k_b)
        table = checksim._joint_table(p_b, p_a, shared, weights, k_b, k_a)
        assert np.array_equal(table, _fancy_index_joint_table(p_b, p_a, shared, weights, k_b, k_a))

    # The eight geometries above, and Bob checking nothing, where J = 0 and link
    # 2 draws Alice's own law without building the table.
    @pytest.mark.parametrize("m,k_b,k_a", [(200, 20, 20), (30, 5, 7), (12, 5, 12), (50, 40, 3),
                                           (40, 25, 25), (10, 7, 7), (24, 15, 15), (9, 9, 9),
                                           (30, 0, 7)],
                             ids=["sparse", "k_a>k_b", "k_a=m", "k_b>k_a", "forced-overlap",
                                  "forced-overlap-7", "forced-overlap-15", "m=k", "k_b=0"])
    @pytest.mark.parametrize("bob", _TABLE_RECEIVERS, ids=lambda b: b.kind)
    @pytest.mark.parametrize("alice", _TABLE_SENDERS, ids=lambda a: a.kind)
    def test_run_draws_the_two_links_of_the_table(self, alice, bob, m, k_b, k_a):
        # A run on the histogram branch draws link 1, (J, F_b), from h(J)
        # Bin(k_b, p_b): the table summed over F_a.  Link 2 draws F_a in each
        # occupied (J, F_b) cell from that cell's row of the table, normalized.
        p_b, p_a = checksim._verdicts(alice, bob)
        shared, weights = checksim._shared_pmf(m, k_a, k_b)
        table = checksim._joint_table(p_b, p_a, shared, weights, k_b, k_a)
        rng = _Multinomials(np.random.default_rng(35))
        trials = table.size
        run_protocol3(CheckConfig(m=m, k_bob=k_b, k_alice=k_a, trials=trials), alice, bob, rng)
        if not (k_b and 0.0 < p_b < 1.0):   # Bob's one value: every other F_b has no mass
            failures_b = 0 if p_b < 1.0 else k_b
            assert not np.delete(table, failures_b, axis=1).any()
            table = table[:, [failures_b]]
        links = table.sum(axis=2)
        if links.size == 1:   # link 1 of one value draws nothing
            first, drawn, second = np.ones(1), np.full(1, trials), rng.calls
        else:
            (n, first, drawn), *second = rng.calls
            assert n == trials
        np.testing.assert_allclose(first, (links / links.sum()).ravel(), rtol=1e-13, atol=0)
        if not (k_a and 0.0 < p_a < 1.0):   # Alice's one value: nothing drawn
            assert not second
            assert not np.delete(table, 0 if p_a < 1.0 else k_a, axis=2).any()
            return
        ((counts, rows, _),) = second
        occupied = np.flatnonzero(drawn)
        assert np.array_equal(np.atleast_1d(counts), drawn[occupied])
        expected = table.reshape(-1, k_a + 1)[occupied]   # rows of one law may come as one
        np.testing.assert_allclose(np.broadcast_to(rows, expected.shape),
                                   expected / expected.sum(axis=1, keepdims=True),
                                   rtol=1e-13, atol=0)

    def test_thinning_covers_rates_off_zero_and_one(self):
        q = {(a.kind, b.kind): checksim._thinning_rate(*checksim._verdicts(a, b))
             for a in _TABLE_SENDERS for b in _TABLE_RECEIVERS}
        assert q[("honest", "computational")] == 1.0 and q[("learn-y", "computational")] == 0.0
        assert 0.0 < q[("mix", "computational")] < 1.0 and 0.0 < q[("mix", "phase-noise")] < 1.0

    def test_shifts_is_a_view_of_one_padded_stack(self):
        pmf = checksim._binomial_pmf(np.array([3, 0, 2]), 0.3)
        out = checksim._shifts(pmf, 3, 5)
        assert out.shape == (3, 3, 5) and not out.flags.owndata
        for s, j in itertools.product(range(3), range(5)):
            expected = pmf[:, j - s] if 0 <= j - s < pmf.shape[1] else 0.0
            assert np.array_equal(out[:, s, j], np.broadcast_to(expected, 3))


def _expanded(report):
    """The same report with its cells expanded, one count-one cell per trial."""
    return replace(report, drawn_failures=np.repeat(report.drawn_failures, report.counts),
                   drawn_delivered=np.repeat(report.drawn_delivered, report.counts),
                   counts=np.ones(report.trials, dtype=np.int64))


def _assert_reads_equal(report, other):
    assert report.trials == other.trials
    assert report.summary() == other.summary()
    mine, theirs = _per_trial(report), _per_trial(other)
    for name in _CELL_FIELDS:
        assert mine[name].dtype == theirs[name].dtype, name
        assert np.array_equal(mine[name], theirs[name], equal_nan=True), name


# One run per kind of chain and branch: (protocol, config, alice, bob,
# histogram); a run that is not drawn as histograms draws one value per trial
# and merges equal trials.  One side's 201 values are more than 4 per trial
# at 50 trials, as are J's 201 values when no check can fail.
_DRAW_PATHS = {
    "single-side-histogram": (2, dict(m=40, k_bob=20, threshold_bob=9, trials=300),
                              AliceStrategy.learn_y(), None, True),
    "single-side-per-trial": (2, dict(m=400, k_bob=200, threshold_bob=100, trials=50),
                              AliceStrategy.learn_y(), None, False),
    "joint": (3, dict(m=30, k_bob=5, k_alice=7, threshold_bob=1, threshold_alice=1, trials=500),
              _MIX, BobStrategy.computational_basis(), True),
    "chain": (3, dict(m=50, k_bob=50, k_alice=30, threshold_bob=15, threshold_alice=9,
                      trials=300), AliceStrategy.honest(), BobStrategy.phase_noise(1.2), False),
    "no-failure-chain": (3, dict(m=30, k_bob=5, k_alice=7, threshold_bob=1, trials=500),
                         AliceStrategy.honest(), BobStrategy.honest(), True),
    "no-failure-per-trial": (3, dict(m=400, k_bob=200, k_alice=200, trials=50),
                             AliceStrategy.honest(), BobStrategy.honest(), False),
}


def _run_path(name, rng, paths=_DRAW_PATHS):
    protocol, sizes, alice, bob, _ = paths[name]
    config = CheckConfig(**sizes, c1=1.7)
    if protocol == 2:
        return (run_protocol2(config, alice, rng),)
    return run_protocol3(config, alice, bob, rng)


class TestHistogramReport:
    @pytest.mark.parametrize("name", list(_DRAW_PATHS))
    def test_cells_read_as_their_count_one_expansion(self, name, monkeypatch):
        per_trial = _count_calls(monkeypatch, "_shared_trials")
        reports = _run_path(name, np.random.default_rng(91))
        assert len(per_trial) == int(not _DRAW_PATHS[name][-1])
        for report in reports:
            # Histograms, and per-trial draws once merged: fewer cells than trials.
            assert len(report.drawn_failures) < report.trials and report.counts.min() >= 1
            _assert_reads_equal(report, _expanded(report))
        if len(reports) == 2:   # protocol 3's reports share the cells and their counts
            bob_rep, alice_rep = reports
            assert bob_rep.counts is alice_rep.counts
            assert bob_rep.drawn_delivered is alice_rep.drawn_delivered

    # The checking side's 41 values: histograms at 300 trials, one value per trial at 10.
    @pytest.mark.parametrize("trials", [300, 10], ids=["histogram", "per-trial"])
    @pytest.mark.parametrize("k_b,k_a", [(0, 40), (40, 0)], ids=["k_bob=0", "k_alice=0"])
    def test_side_that_checks_nothing_reads_zeros(self, monkeypatch, k_b, k_a, trials):
        per_trial = _count_calls(monkeypatch, "_shared_trials")
        reports = run_protocol3(CheckConfig(m=80, k_bob=k_b, k_alice=k_a, trials=trials),
                                AliceStrategy.honest(), BobStrategy.phase_noise(0.9),
                                np.random.default_rng(92))
        assert len(per_trial) == int(trials == 10)
        for report in reports:
            assert len(report.drawn_failures) < report.trials
            if report.k == 0:   # one zero, in the memory of one element
                assert not report.drawn_failures.any() and report.drawn_failures.strides == (0,)
            _assert_reads_equal(report, _expanded(report))

    def test_mean_failures_exact_past_int64(self):
        # Each cell's failures times its count passes 2**63, and so does their sum.
        failures = np.array([2**40 - 1, 7, 2**40 - 3])
        counts = np.array([2**30, 5, 2**29])
        report = CheckReport(2, "bob", m=2**41, k=2**40 - 1, threshold=0,
                             drawn_failures=failures, drawn_delivered=np.zeros(3, dtype=int),
                             counts=counts)
        total = sum(int(f) * int(c) for f, c in zip(failures, counts))
        assert total > 2**64
        assert report.trials == 2**30 + 5 + 2**29
        assert report.mean_failures == total / report.trials   # correctly rounded
        assert report.mean_failures == float(Fraction(total, report.trials))
        assert report.abort_probability == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_failures_bitwise_the_float_sum_below_2_53(self, seed):
        rng = np.random.default_rng(seed)
        failures = rng.integers(0, 2**20, size=40)
        counts = rng.integers(0, 2**25, size=40)
        counts[0] = max(counts[0], 1)
        report = CheckReport(2, "bob", m=2**20, k=2**20, threshold=2**19,
                             drawn_failures=failures, drawn_delivered=np.zeros(40, dtype=int),
                             counts=counts)
        assert report.trials * 2**20 < 2**53
        # The float64 sum of the expanded failures, by parts: exact while below 2**53.
        expected = float(sum(float(f) * float(c) for f, c in zip(failures, counts)))
        assert report.mean_failures == expected / report.trials

    @pytest.mark.parametrize("case", ["p2-learn-y", "p3-computational", "p3-honest"])
    def test_summary_only_run_holds_no_memory_per_trial(self, case):
        summaries, peak = _traced_run(case, lambda report: report.summary())
        # One int64 array per trial would take 80 MB.
        assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"
        assert all(s["mean_failures"] <= 20.0 for s in summaries)

    @pytest.mark.parametrize("case", ["p2-learn-y", "p3-computational", "p3-honest"])
    def test_written_run_holds_memory_of_its_cells(self, case):
        # --out writes each cell once: a few hundred bytes per cell, none per trial.
        written, peak = _traced_run(case, lambda report: report.to_dict())
        cells = sum(len(payload["cells"]) for payload in written)
        assert all(payload["trials"] == 10**7 for payload in written)
        assert cells < 10**4 and peak < 1e3 * cells + 1e6, f"peak {peak / 1e6:.1f} MB"


# The per-trial runs; the chain at a random overlap, where trials that abort
# with equal failures differ in J alone; and the chain where the delivered
# tables pass int64.
_PER_TRIAL_PATHS = {name: path for name, path in _DRAW_PATHS.items() if not path[-1]}
_PER_TRIAL_PATHS["chain-random-overlap"] = (
    3, dict(m=300, k_bob=30, k_alice=30, threshold_bob=15, threshold_alice=15, trials=500),
    AliceStrategy.honest(), BobStrategy.computational_basis(), False)
_PER_TRIAL_PATHS["chain-past-int64"] = (3, dict(_DRAW_PATHS["chain"][1], m=2**70),
                                        *_DRAW_PATHS["chain"][2:])


def _cell_rows(reports):
    """Each shared cell's failures, side by side, then its delivered tables, as tuples."""
    return list(zip(*[report.drawn_failures.tolist() for report in reports],
                    reports[0].drawn_delivered.tolist()))


# Every run: the histograms too keep one cell per distinct paired value, an
# aborted cell's J zeroed.
_ALL_PATHS = {**_DRAW_PATHS, **_PER_TRIAL_PATHS}


class TestMergedCells:
    """Runs keep each distinct cell once, whichever branch drew them."""

    @pytest.mark.parametrize("name", list(_ALL_PATHS))
    def test_cells_distinct_and_counting_the_trials(self, name):
        reports = _run_path(name, np.random.default_rng(95), _ALL_PATHS)
        trials = _ALL_PATHS[name][1]["trials"]
        rows = _cell_rows(reports)
        assert len(set(rows)) == len(rows) < trials
        for report in reports:
            assert report.trials == int(report.counts.sum()) == trials
            assert report.counts.min() >= 1

    @pytest.mark.parametrize("name", list(_PER_TRIAL_PATHS))
    def test_summary_is_that_of_the_unmerged_draws(self, name, monkeypatch):
        rng, unmerged_rng = np.random.default_rng(96), np.random.default_rng(96)
        merged = _run_path(name, rng, _PER_TRIAL_PATHS)
        monkeypatch.setattr(checksim, "_merged", lambda columns, counts: (
            *columns, np.ones(len(columns[0]), dtype=np.int64)))
        unmerged = _run_path(name, unmerged_rng, _PER_TRIAL_PATHS)
        assert rng.bit_generator.state == unmerged_rng.bit_generator.state
        assert len(unmerged[0].counts) == unmerged[0].trials
        for mine, theirs in zip(merged, unmerged):
            assert mine.summary() == theirs.summary()
        expanded = [row for row, count in zip(_cell_rows(merged), merged[0].counts.tolist())
                    for _ in range(count)]
        assert sorted(expanded) == sorted(_cell_rows(unmerged))

    @pytest.mark.parametrize("columns", [
        [[3, 1, 3, 3, 2]],
        [[0, 1, 0, 1, 0, 0], [5, 5, 5, 4, 5, 5], [2, 2, 2, 2, 1, 2]],
        [[7], [2**62], [0]],
    ], ids=["one-column", "three-columns", "one-row"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["trials", "cells"])
    def test_merged_is_unique_rows_with_their_counts(self, columns, weighted):
        # Rows of one trial each, or cells with their counts of trials.
        columns = [np.array(column, dtype=np.int64) for column in columns]
        weights = np.arange(1, len(columns[0]) + 1) if weighted else None
        *cells, counts = checksim._merged(columns, weights)
        rows, inverse = np.unique(np.column_stack(columns), axis=0, return_inverse=True)
        expected = np.bincount(inverse.ravel(), weights).astype(np.int64)
        assert np.array_equal(np.column_stack(cells), rows)
        assert np.array_equal(counts, expected)
        assert all(cell.dtype == np.int64 for cell in cells) and counts.dtype == np.int64

    def test_scalar_columns_stay_one_value(self):
        # A column of one value for every row is not sorted on, and comes back as it was.
        zero = np.int64(0)
        shared, failures, none, counts = checksim._merged(
            (np.array([2, 0, 2]), np.array([1, 1, 1]), zero), np.array([3, 4, 5]))
        assert shared.tolist() == [0, 2] and failures.tolist() == [1, 1] and none is zero
        assert counts.tolist() == [4, 8]


def _traced_run(case, read):
    """``read`` of each report of a 10**7-trial run of ``case``, and the peak
    traced memory of the run and the reads."""
    config = CheckConfig(m=200, k_bob=20, k_alice=20, threshold_bob=1, threshold_alice=1,
                         trials=10**7)
    if case == "p2-learn-y":
        def run(cfg):
            return (run_protocol2(cfg, AliceStrategy.learn_y(), np.random.default_rng(94)),)
    else:
        bob = BobStrategy(kind=case.split("-")[1])

        def run(cfg):
            return run_protocol3(cfg, AliceStrategy.honest(), bob, np.random.default_rng(94))
    run(replace(config, trials=1000))   # warm the per-pair caches
    tracemalloc.start()
    try:
        values = [read(report) for report in run(config)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return values, peak
