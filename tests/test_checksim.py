import itertools
import math
import json
from dataclasses import replace
from fractions import Fraction

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
        with pytest.raises(ValueError, match="^c1 must be positive and finite"):
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
        assert bob.tables_delivered.tolist() == alice.tables_delivered.tolist()

    def test_sizes_beyond_int64_accepted(self):
        huge = 2**64
        config = CheckConfig(m=huge, k_bob=huge - 1, k_alice=0, trials=2**70)
        assert (config.m, config.k_bob, config.trials) == (huge, huge - 1, 2**70)
        config = CheckConfig(m=2**70, k_bob=5, threshold_bob=1, trials=40)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(6))
        delivered = [record["tables_delivered"] for record in report.to_dict()["records"]]
        assert delivered == [0 if f > 1 else 2**70 - 5 for f in report.failures]
        assert 0 < delivered.count(0) < 40

    @pytest.mark.parametrize("k_bob,k_alice", [(0, 4), (4, 0)])
    def test_one_checking_side_beyond_int64(self, k_bob, k_alice):
        # The side that checks nothing shares no label, so m - 4 tables go
        # unchecked, a count past int64.
        config = CheckConfig(m=2**70, k_bob=k_bob, k_alice=k_alice, threshold_bob=1,
                             threshold_alice=1, trials=40)
        reports = run_protocol3(config, AliceStrategy.honest(),
                                BobStrategy.phase_noise(np.pi / 2), np.random.default_rng(7))
        failures = reports[0].failures if k_bob else reports[1].failures
        for report in reports:
            delivered = [record["tables_delivered"] for record in report.to_dict()["records"]]
            assert delivered == [0 if f > 1 else 2**70 - 4 for f in failures]
            assert 0 < delivered.count(0) < 40

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
        assert report.failures.max() == 0
        assert np.all(report.tables_delivered == 10)

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
        fail, guess = checksim._verdicts(AliceStrategy.honest(),
                                         BobStrategy.computational_basis())
        rate = guess.sum() / fail.sum()
        assert rate == 0.75
        assert np.array_equal(guess, rate * fail)

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
    assert two.order.seed == three.order.seed
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
    def test_suggested_check_count_superlinear(self):
        assert checksim.suggested_check_count(1) == 1
        assert checksim.suggested_check_count(1000) == int(np.ceil(1000 ** 1.1))
        with pytest.raises(ValueError):
            checksim.suggested_check_count(0)

    @staticmethod
    def _report(failures, k, c1=1.0):
        return CheckReport(2, "bob", m=k, k=k, threshold=k, drawn_failures=np.array(failures),
                           drawn_delivered=np.zeros(len(failures), dtype=int), c1=c1)

    def test_epsilon_examples(self):
        report = self._report([0, 4, 100], 100)
        assert report.est_epsilon == pytest.approx([0.01, 0.05, 1.0])  # the last clipped

    def test_epsilon_domain(self):
        # Undefined without checks: NaN, and null in the JSON records.
        _, report = run_protocol3(CheckConfig(m=10, k_bob=5, trials=3), AliceStrategy.honest(),
                                  BobStrategy.honest(), np.random.default_rng(0))
        assert report.k == 0
        assert np.isnan(report.est_epsilon).all() and np.isnan(report.leak_bound_bits).all()
        assert {record["est_epsilon"] for record in report.to_dict()["records"]} == {None}

    def test_leak_bound(self):
        leak = self._report([0, 89], 100).leak_bound_bits
        assert leak[0] == pytest.approx(binary_entropy(0.01), abs=1e-12)
        assert leak[1] == pytest.approx(1.0, abs=1e-12)  # clipped at h(1/2)
        halved = self._report([0], 100, c1=0.5).leak_bound_bits
        assert halved[0] == pytest.approx(binary_entropy(0.005), abs=1e-12)

    def test_leak_bound_domain(self):
        for c1 in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="c1"):
                CheckConfig(m=10, k_bob=5, c1=c1)

    def test_report_records_estimator(self):
        config = CheckConfig(m=30, k_bob=10, threshold_bob=30, trials=200)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(16))
        expected_eps = np.clip((report.failures + 1.0) / 10.0, 0.0, 1.0)
        assert np.allclose(report.est_epsilon, expected_eps)
        expected_leak = [binary_entropy(min(e, 0.5)) for e in expected_eps]
        assert np.allclose(report.leak_bound_bits, expected_leak)
        assert (report.c_a, report.c_mid, report.c_b) == (0.5, 1.0, 2.0)

    def test_estimates_computed_only_when_read(self, monkeypatch, capsys):
        # A run keeps what it drew; its estimates are derived from the failure
        # counts when a report is read, so runs and summaries compute none.
        reached, epsilon = [], CheckReport.est_epsilon

        def guard(name):
            def refuse(report):
                reached.append(name)
                raise AssertionError(f"{name} read")
            return property(refuse)

        monkeypatch.setattr(CheckReport, "est_epsilon", guard("est_epsilon"))
        monkeypatch.setattr(CheckReport, "leak_bound_bits", guard("leak_bound_bits"))
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
        for read in (lambda: report.est_epsilon, report.to_dict):
            with pytest.raises(AssertionError, match="est_epsilon read"):
                read()
        with pytest.raises(AssertionError, match="leak_bound_bits read"):
            report.leak_bound_bits
        monkeypatch.setattr(CheckReport, "est_epsilon", epsilon)
        with pytest.raises(AssertionError, match="leak_bound_bits read"):
            report.to_dict()
        assert reached == ["est_epsilon"] * 2 + ["leak_bound_bits"] * 2

    def test_to_dict_reads_abort_flags_once_for_all_records(self, monkeypatch):
        # One read for all records, not one per record: per record would be
        # quadratic in the trials.
        reads, flags = [], CheckReport.aborted

        def counted(report):
            reads.append(1)
            return flags.fget(report)

        monkeypatch.setattr(CheckReport, "aborted", property(counted))
        config = CheckConfig(m=30, k_bob=10, threshold_bob=4, trials=500)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(19))
        report.summary()
        in_summary = len(reads)
        reads.clear()
        records = report.to_dict()["records"]
        assert len(reads) == in_summary + 1
        assert [record["aborted"] for record in records] == flags.fget(report).tolist()

    @pytest.mark.parametrize("m,k,trials", [(30, 10, 200), (10**9, 10**9, 3),
                                            (10**9, 10**8, 5)])
    def test_report_equals_per_trial_formula(self, m, k, trials):
        # Bitwise equal to one scalar evaluation per trial, and bounded by the
        # trial count when k is far larger (no table over all k + 1 counts).
        threshold = k // 2   # learn-y fails half its checks: both verdicts occur
        config = CheckConfig(m=m, k_bob=k, threshold_bob=threshold, trials=trials)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(17))
        eps = [float(np.clip((int(f) + 1.0) / k, 0.0, 1.0)) for f in report.failures]
        assert report.est_epsilon.tolist() == eps
        assert report.leak_bound_bits.tolist() == [binary_entropy(min(e, 0.5)) for e in eps]
        aborted = [int(f) > threshold for f in report.failures]
        assert report.aborted.tolist() == aborted
        assert report.tables_delivered.tolist() == [0 if a else m - k for a in aborted]
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
    _assert_binomial(int(report.aborted.sum()), report.trials, abort_probability)
    _assert_binomial(int(report.failures.sum()), report.trials * report.k, p)


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
        either = int(np.sum(bob_rep.aborted | alice_rep.aborted))
        _assert_binomial(either, trials, 1.0 - law.pass_probability)
        if name == "computational":
            guessed = alice_rep.extras["x_guess_rate"] * trials * m
            assert guessed == pytest.approx(round(guessed), abs=1e-6)
            _assert_binomial(round(guessed), trials * m, 0.75)

    @pytest.mark.parametrize("name,alice,p", _SENDERS, ids=[c[0] for c in _SENDERS])
    def test_protocol2_failure_counts_are_binomial(self, name, alice, p):
        config = CheckConfig(m=40, k_bob=15, threshold_bob=40, trials=20_000)
        report = run_protocol2(config, alice, np.random.default_rng(25))
        _assert_binomial_histogram(report.failures, 15, p)

    @pytest.mark.parametrize("name,bob,p", _RECEIVERS, ids=[c[0] for c in _RECEIVERS])
    def test_protocol3_failure_counts_are_binomial(self, name, bob, p):
        # Each side's count is Bin(k, p) whatever the overlap of the label sets.
        config = CheckConfig(m=30, k_bob=12, k_alice=18, threshold_bob=30,
                             threshold_alice=30, trials=20_000)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(), bob,
                                           np.random.default_rng(26))
        _assert_binomial_histogram(bob_rep.failures, 12, p)
        _assert_binomial_histogram(alice_rep.failures, 18, p)

    @pytest.mark.parametrize("m,k_b,k_a", [(200, 15, 25), (10, 10, 10), (30, 0, 7)])
    def test_protocol3_mean_delivered_tables(self, m, k_b, k_a):
        trials = 20_000
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, trials=trials)
        bob_rep, _ = run_protocol3(config, AliceStrategy.honest(), BobStrategy.honest(),
                                   np.random.default_rng(23))
        delivered = bob_rep.tables_delivered
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
        _assert_binomial(int(np.sum(~bob_rep.aborted & ~alice_rep.aborted)), trials, expected)

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
        either = int(np.sum(bob_rep.aborted | alice_rep.aborted))
        _assert_binomial(either, trials, 1.0 - law.pass_probability)
        delivered = bob_rep.tables_delivered
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
        aborted = bob_rep.aborted | alice_rep.aborted
        run = np.column_stack([bob_rep.failures, alice_rep.failures])
        _assert_same_law(oracle[:, :2], run)
        # Deliveries are zero on abort, on both sides.
        oracle_passed = (oracle[:, 0] <= 1) & (oracle[:, 1] <= 2)
        _assert_same_law(np.where(oracle_passed, oracle[:, 2], 0), bob_rep.tables_delivered)
        assert np.array_equal(aborted, ~((run[:, 0] <= 1) & (run[:, 1] <= 2)))
        guessed = round(alice_rep.extras["x_guess_rate"] * trials * m)
        oracle_guessed = int(fields["x_guess_correct"].sum())
        table = [[guessed, trials * m - guessed], [oracle_guessed, trials * m - oracle_guessed]]
        assert stats.chi2_contingency(table).pvalue >= 2.7e-3


# A verdict law with all four (bob_fail, alice_fail) cells live, which no
# strategy pair of the library has; it exercises every conditional binomial.
_FOUR_CELLS = np.array([[0.4, 0.1], [0.2, 0.3]])


def _brute_force_law(fail, m, k_b, k_a, t_b, t_a):
    """Pass probability and mean deliveries by enumerating every instance's
    verdicts and every pair of label sets."""
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


class TestExactLaw:
    @pytest.mark.parametrize("m,k_b,k_a,t_b,t_a",
                             [(5, 3, 2, 0, 0), (5, 3, 3, 1, 0), (6, 2, 4, 1, 2), (4, 4, 1, 1, 0)])
    @pytest.mark.parametrize("pair", ["computational", "phase-noise", "learn-y", "four-cells"])
    def test_matches_brute_force_enumeration(self, monkeypatch, pair, m, k_b, k_a, t_b, t_a):
        alice, bob = AliceStrategy.honest(), BobStrategy.computational_basis()
        if pair == "phase-noise":
            bob = BobStrategy.phase_noise(0.9)
        elif pair == "learn-y":
            alice = AliceStrategy.learn_y()
        elif pair == "four-cells":
            monkeypatch.setattr(checksim, "_verdicts",
                                lambda a, b: (_FOUR_CELLS, np.zeros((2, 2))))
        fail, _ = checksim._verdicts(alice, bob)
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, threshold_bob=t_b,
                             threshold_alice=t_a)
        law = checksim.exact_law(config, alice, bob)
        passed, delivered = _brute_force_law(fail, m, k_b, k_a, t_b, t_a)
        assert law.pass_probability == pytest.approx(passed, abs=1e-12)
        assert law.tables_delivered == pytest.approx(delivered, abs=1e-12)
        p_b, p_a = fail[1].sum(), fail[:, 1].sum()
        assert law.abort_bob == pytest.approx(stats.binom.sf(t_b, k_b, p_b), abs=1e-12)
        assert law.abort_alice == pytest.approx(stats.binom.sf(t_a, k_a, p_a), abs=1e-12)

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
    reading bit ``o``, and either of those pairs by a coin after ``|2>``.

    The learn-y sender's report law is replaced in :func:`checksim._sender`,
    and the table is built without the cache, so no cached table changes.
    """
    sender = checksim._sender

    def mapped(alice):
        *arrays, _ = sender(alice)
        observed = np.zeros((2, 2, 2))            # [observed bit, a, e]
        for bit, (a, e) in enumerate(report_map):
            observed[bit, a, e] = 1.0
        return (*arrays, np.stack([observed[0], observed[1], observed.mean(axis=0)])[None])

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

    @pytest.mark.parametrize("alice,bob", [
        (AliceStrategy.honest(), BobStrategy.computational_basis()),
        (AliceStrategy.per_instance_mix([(0.3, AliceStrategy.learn_y()),
                                         (0.7, AliceStrategy.honest())]),
         BobStrategy.phase_noise(0.8)),
    ], ids=["honest-computational", "mix-phase-noise"])
    def test_verdicts_are_cached_read_only_bincounts(self, alice, bob):
        probs, columns = checksim._instance_table.__wrapped__(alice, bob)
        cell = 2 * columns["bob_fail"] + columns["alice_fail"]
        fresh = (np.bincount(cell, weights=probs, minlength=4),
                 np.bincount(cell, weights=probs * columns["x_guess_correct"], minlength=4))
        first, again = checksim._verdicts(alice, bob), checksim._verdicts(alice, bob)
        for cached, repeated, expected in zip(first, again, fresh):
            assert repeated is cached and not cached.flags.writeable
            assert cached.shape == (2, 2) and cached.tobytes() == expected.tobytes()


class TestStrategyValidation:
    @pytest.mark.parametrize("weights", [(math.nan, math.nan), (1.5, -0.5), (math.inf, 0.0)])
    def test_mix_weights_finite_and_nonnegative(self, weights):
        with pytest.raises(ValueError, match="finite and nonnegative"):
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
        assert np.all(bob_rep.tables_delivered >= 4)
        assert np.all(bob_rep.tables_delivered <= 7)
        assert np.array_equal(bob_rep.tables_delivered, alice_rep.tables_delivered)


@pytest.mark.parametrize("sizes", [dict(m=20, k_bob=0, k_alice=7),
                                   dict(m=12, k_bob=5, k_alice=12),
                                   dict(m=30, k_bob=5, k_alice=7)],
                         ids=["k_bob=0", "k_alice=m", "random-overlap"])
@pytest.mark.parametrize("alice,bob", [
    (AliceStrategy.honest(), BobStrategy.computational_basis()),
    (AliceStrategy.honest(), BobStrategy.phase_noise(0.7)),
    (AliceStrategy.learn_y(), BobStrategy.honest()),
], ids=["computational", "phase-noise", "learn-y"])
def test_protocol3_draws_follow_the_exact_law(sizes, alice, bob):
    # Fixed and random overlaps: each side's aborts and failures, and the
    # joint pass, against exact_law by exact binomial tests.
    trials = 20_000
    config = CheckConfig(**sizes, threshold_bob=1, threshold_alice=1, trials=trials)
    law = checksim.exact_law(config, alice, bob)
    bob_rep, alice_rep = run_protocol3(config, alice, bob, np.random.default_rng(77))
    for report, abort, p in ((bob_rep, law.abort_bob, law.fail_bob),
                             (alice_rep, law.abort_alice, law.fail_alice)):
        if report.k == 0:
            assert not report.failures.any() and not report.aborted.any()
        else:
            _assert_aborts(report, abort, p)
    _assert_binomial(int(np.sum(~bob_rep.aborted & ~alice_rep.aborted)), trials,
                     law.pass_probability)


# Two-sided p-value of a 5-sigma deviation of a normal variable.
_P_5SIGMA = math.erfc(5.0 / math.sqrt(2.0))


class TestIid:
    @pytest.mark.parametrize("support,pmf,trials", [
        (np.arange(21), checksim._binomial_pmf(20, 0.3), 4000),
        (np.arange(3, 9), np.array([1e-9, 0.2, 0.3, 0.1, 0.4 - 1e-9, 0.0]), 5000),
        (np.array([7]), np.array([1.0]), 10),
    ], ids=["binomial", "sparse", "one-value"])
    def test_shuffled_multinomial_histogram(self, support, pmf, trials):
        draws = checksim._iid(np.random.default_rng(41), support, pmf, trials)
        counts = np.random.default_rng(41).multinomial(trials, pmf / pmf.sum())
        # Its multinomial counts, laid out in support order.
        assert np.array_equal(draws, np.repeat(support, counts))
        for value, p in zip(support, pmf / pmf.sum()):
            count = int(np.sum(draws == value))
            if p == 0.0:
                assert count == 0
            else:
                assert stats.binomtest(count, trials, p).pvalue >= _P_5SIGMA, (value, count, p)
        # A report reads them in its trial order, a permutation of the draws.
        k = int(support.max())
        report = CheckReport(2, "bob", m=k, k=k, threshold=k, drawn_failures=draws,
                             drawn_delivered=np.zeros(trials, dtype=int),
                             order=checksim._TrialOrder(42, trials))
        failures = report.failures
        assert np.array_equal(np.sort(failures), draws)
        if len(support) > 1:  # shuffled: both halves of the trials share one law
            _assert_same_law(failures[:trials // 2], failures[trials // 2:])

    @pytest.mark.parametrize("k,trials,histogram", [(20, 21, True), (20, 20, False),
                                                    (0, 5, False)])
    def test_protocol2_histogram_only_when_support_fits(self, monkeypatch, k, trials,
                                                        histogram):
        calls = []
        real = checksim._iid
        monkeypatch.setattr(checksim, "_iid", lambda *args: calls.append(1) or real(*args))
        config = CheckConfig(m=40, k_bob=k, threshold_bob=40, trials=trials)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(3))
        assert len(calls) == int(histogram)
        assert report.failures.shape == (trials,) and report.failures.max() <= k

    def test_certain_failures_past_int64_refused(self):
        # A failure probability of 1 draws nothing: its count is refused as a draw's would be.
        for n in (2**63, 2**70):
            with pytest.raises(OverflowError):
                checksim._binomials(np.random.default_rng(0), n, 1.0, 3)

    @pytest.mark.parametrize("n,p,expected", [
        (5, 0.0, [0, 0, 0]), (5, 1.0, [5, 5, 5]), (0, 0.3, [0, 0, 0]),
        (np.int64(0), 0.3, [0, 0, 0]), (2**70, 0.0, [0, 0, 0]),
        (np.array([2, 0, 7]), 0.0, [0, 0, 0]), (np.array([2, 0, 7]), 1.0, [2, 0, 7]),
        (np.zeros(3, dtype=np.int64), 0.3, [0, 0, 0]),
    ], ids=["scalar-p0", "scalar-p1", "scalar-zero", "numpy-scalar-zero", "past-int64-p0",
            "array-p0", "array-p1", "array-zeros"])
    def test_no_draw_paths_leave_the_stream_untouched(self, n, p, expected):
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
        shared = checksim._shared_labels(np.random.default_rng(4), m, k_a, 5, trials)
        assert (len(calls) == 1) == histogram
        if histogram:
            assert calls[0].tolist() == list(range(6))
        assert shared.shape == (trials,) and 0 <= shared.min() and shared.max() <= 5


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
    fail, _ = checksim._verdicts(alice, bob)
    shared, weights = checksim._shared_pmf(m, k_a, k_b)
    return shared, checksim._joint_table(fail, shared, weights, k_b, k_a)


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
        fail, _ = checksim._verdicts(alice, bob)
        assert fail[0, 1] == 0.0
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
        fail, _ = checksim._verdicts(alice, bob)
        brute_passed, brute_delivered = _brute_force_law(fail, m, k_b, k_a, t_b, t_a)
        assert passing.sum() == pytest.approx(brute_passed, abs=1e-12)
        assert delivered == pytest.approx(brute_delivered, abs=1e-12)

    @pytest.mark.parametrize("name,alice,bob", _JOINT_PAIRS, ids=[p[0] for p in _JOINT_PAIRS])
    def test_matches_exact_law_at_sparse_geometry(self, name, alice, bob):
        m, k = 200, 20
        shared, table = _joint_table(alice, bob, m, k, k)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        fail, _ = checksim._verdicts(alice, bob)
        # Bob's failures are Bin(k, p_b) whatever J, and Alice's Bin(k, p_a).
        np.testing.assert_allclose(table.sum(axis=(0, 2)),
                                   stats.binom.pmf(np.arange(k + 1), k, fail[1].sum()), atol=1e-12)
        np.testing.assert_allclose(table.sum(axis=(0, 1)),
                                   stats.binom.pmf(np.arange(k + 1), k, fail[1, 1]), atol=1e-12)
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
        # are a thinning of Bob's.
        config = CheckConfig(m=30, k_bob=5, k_alice=7, threshold_bob=1, threshold_alice=1,
                             trials=20_000)
        bob = BobStrategy.computational_basis()
        assert np.count_nonzero(checksim._verdicts(_MIX, bob)[0]) == 3
        joint = _count_calls(monkeypatch, "_joint_draw")
        samples = []
        for seed, cells_per_trial in ((31, checksim._TABLE_CELLS_PER_TRIAL), (32, 0)):
            monkeypatch.setattr(checksim, "_TABLE_CELLS_PER_TRIAL", cells_per_trial)
            bob_rep, alice_rep = run_protocol3(config, _MIX, bob, np.random.default_rng(seed))
            samples.append(np.column_stack([bob_rep.failures, alice_rep.failures,
                                            bob_rep.tables_delivered]))
        assert len(joint) == 1
        _assert_same_law(*samples)

    @pytest.mark.parametrize("case,trials,histogram", [
        # m = 30, k = 5, k_alice = 7: 6 * 6 * 8 = 288 cells.
        ("computational", 72, True), ("computational", 71, False),
        ("mix", 72, True), ("honest", 5000, False), ("k_bob=0", 5000, False),
    ])
    def test_histogram_only_when_the_table_fits(self, monkeypatch, case, trials, histogram):
        alice, bob, k_b = AliceStrategy.honest(), BobStrategy.computational_basis(), 5
        if case == "mix":
            alice = _MIX
        elif case == "honest":   # Bob's check never fails: p_b = 0
            bob = BobStrategy.honest()
        elif case == "k_bob=0":
            k_b = 0
        calls = _count_calls(monkeypatch, "_joint_draw")
        config = CheckConfig(m=30, k_bob=k_b, k_alice=7, threshold_bob=1, threshold_alice=1,
                             trials=trials)
        bob_rep, alice_rep = run_protocol3(config, alice, bob, np.random.default_rng(32))
        assert len(calls) == int(histogram)
        assert bob_rep.failures.shape == alice_rep.failures.shape == (trials,)
        assert bob_rep.failures.max() <= k_b and alice_rep.failures.max() <= 7

    @pytest.mark.parametrize("k_b,trials,iid,joint", [
        # m = k_alice = 12, k_bob = 5: J = 5 in every trial, 1 * 6 * 13 = 78 cells.
        (5, 20, 0, 1),
        # The table does not fit: J is a one-value histogram, and the rest of
        # the chain is drawn per trial.
        (5, 19, 1, 0), (5, 6, 1, 0), (5, 5, 1, 0),
        # Bob checks nothing: only Alice's failures are drawn, as one histogram.
        (0, 300, 1, 0),
    ])
    def test_fixed_overlap_draws_histograms(self, monkeypatch, k_b, trials, iid, joint):
        iid_calls = _count_calls(monkeypatch, "_iid")
        joint_calls = _count_calls(monkeypatch, "_joint_draw")
        config = CheckConfig(m=12, k_bob=k_b, k_alice=12, threshold_bob=1, threshold_alice=2,
                             trials=trials)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(),
                                           BobStrategy.computational_basis(),
                                           _NoShuffle(np.random.default_rng(33)))
        assert (len(iid_calls), len(joint_calls)) == (iid, joint)
        if iid and k_b:
            assert iid_calls[0][1].tolist() == [5]
        assert bob_rep.failures.shape == (trials,) and bob_rep.failures.max() <= k_b
        # An honest Alice fails the shared labels together with Bob.
        assert (alice_rep.failures >= bob_rep.failures).all()


class TestPairing:
    # A fixed overlap off the joint table: Bob checks every label (or Alice
    # does), so each side's failure count sums its shared failures and its own
    # ones.  Both must be drawn for the same trial, else the count loses its
    # binomial law while each summand keeps its own.
    @pytest.mark.parametrize("k_b,k_a", [(50, 30), (30, 50)], ids=["k_bob=m", "k_alice=m"])
    def test_independent_draws_pair_at_random(self, monkeypatch, k_b, k_a):
        m, trials, runs = 50, 100, 200
        alice, bob = AliceStrategy.honest(), BobStrategy.phase_noise(1.2)
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, trials=trials)
        joint = _count_calls(monkeypatch, "_joint_draw")
        rng = np.random.default_rng(61)
        samples = []
        for _ in range(runs):
            bob_rep, alice_rep = run_protocol3(config, alice, bob, rng)
            samples.append(np.column_stack([bob_rep.failures, alice_rep.failures,
                                            bob_rep.tables_delivered]))
        assert not joint
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


class TestTrialOrder:
    @pytest.mark.parametrize("sizes", [dict(m=30, k_bob=5, k_alice=7, trials=500),
                                       # 51 * 31 cells: off the joint table.
                                       dict(m=50, k_bob=50, k_alice=30, trials=300),
                                       dict(m=20, k_bob=0, k_alice=7, trials=500)],
                             ids=["joint-table", "fixed-overlap", "k_bob=0"])
    def test_protocol3_reports_share_one_order(self, monkeypatch, sizes):
        calls = _count_calls(monkeypatch, "_trial_permutation")
        config = CheckConfig(**sizes, threshold_bob=1, threshold_alice=1)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(),
                                           BobStrategy.computational_basis(),
                                           np.random.default_rng(71))
        bob_rep.summary(), alice_rep.summary()
        assert not calls
        assert bob_rep.order is alice_rep.order
        assert np.array_equal(bob_rep.tables_delivered, alice_rep.tables_delivered)
        aborted = bob_rep.aborted | alice_rep.aborted
        assert np.array_equal(aborted, bob_rep.tables_delivered == 0) and aborted.any()
        bob_rep.to_dict(), alice_rep.to_dict()
        assert len(calls) == 1

    def test_summary_reads_the_drawn_order(self):
        config = CheckConfig(m=12, k_bob=12, threshold_bob=3, trials=2000)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(72))
        assert np.array_equal(report.drawn_failures, np.sort(report.drawn_failures))
        assert not np.array_equal(report.failures, report.drawn_failures)
        in_order = replace(report, drawn_failures=report.failures,
                           drawn_delivered=report.tables_delivered, order=None)
        assert in_order.summary() == report.summary()
        assert in_order.to_dict() == report.to_dict()
