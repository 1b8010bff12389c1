import itertools
import math
import json

import numpy as np
import pytest
from scipy import stats

from otlab import checksim
from otlab.checksim import (
    AliceStrategy,
    BobStrategy,
    CheckConfig,
    detection_curve,
    epsilon_estimate,
    leak_bound,
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

    def test_no_deterministic_report_map_beats_a_coin(self):
        rng = np.random.default_rng(6)
        n = 30_000
        rates = []
        for a0, e0, a1, e1 in itertools.product((0, 1), repeat=4):
            strategy = AliceStrategy.learn_y(report_map=((a0, e0), (a1, e1)))
            fields = simulate_instances(strategy, BobStrategy.honest(), n, rng)
            rates.append(1.0 - fields["bob_fail"].mean())
        assert max(rates) <= 0.5 + _binomial_3sigma(0.5, n)


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


class TestDetectionCurve:
    def test_honest_is_flat_zero(self):
        curve = detection_curve(AliceStrategy.honest(), [1, 5, 10], 0)
        assert all(p == 0.0 for _, p in curve)

    def test_learn_y_matches_geometric_law(self):
        curve = detection_curve(AliceStrategy.learn_y(), [1, 2, 4, 8], 0)
        for k, p_abort in curve:
            assert p_abort == pytest.approx(1.0 - 2.0 ** (-k), abs=1e-12)

    def test_mix_strategy_thins_the_failure_rate(self):
        phi = 0.4
        strategy = AliceStrategy.per_instance_mix([
            (phi, AliceStrategy.learn_y()),
            (1.0 - phi, AliceStrategy.honest()),
        ])
        curve = detection_curve(strategy, [2, 6, 12], 0)
        for k, p_abort in curve:
            assert p_abort == pytest.approx(1.0 - (1.0 - phi / 2.0) ** k, abs=1e-12)

    def test_monotone_for_cheating_bob(self):
        curve = detection_curve(BobStrategy.computational_basis(), [1, 4, 8], 0)
        probs = [p for _, p in curve]
        assert probs == sorted(probs)


class TestRestartsAndThresholds:
    def test_restart_budget_accumulates_additively(self):
        config = CheckConfig(m=3, k_bob=3, trials=20_000)
        result = checksim.run_with_restarts(config, AliceStrategy.learn_y(), 4,
                                            np.random.default_rng(19))
        single = 2.0 ** -3
        overall_expected = 1.0 - (1.0 - single) ** 4
        assert result["exact_single_run_pass_probability"] == pytest.approx(single, rel=1e-12)
        assert result["exact_overall_pass_probability"] == \
            pytest.approx(overall_expected, rel=1e-12)
        assert abs(result["single_run_pass_probability"] - single) <= \
            _binomial_3sigma(single, 4 * 20_000)
        assert abs(result["overall_pass_probability"] - overall_expected) <= \
            _binomial_3sigma(overall_expected, 20_000)
        assert result["overall_pass_probability"] <= result["additive_pass_bound"] + 1e-12

    def test_restart_budget_validated(self):
        config = CheckConfig(m=2, k_bob=2, trials=100)
        with pytest.raises(ValueError):
            checksim.run_with_restarts(config, AliceStrategy.learn_y(), 0)

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

    def test_epsilon_examples(self):
        assert epsilon_estimate(0, 100) == pytest.approx(0.01)
        assert epsilon_estimate(4, 100) == pytest.approx(0.05)
        assert epsilon_estimate(100, 100) == 1.0  # clipped

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            epsilon_estimate(0, 0)

    def test_leak_bound(self):
        assert leak_bound(0.0) == 0.0
        assert leak_bound(0.01) == pytest.approx(binary_entropy(0.01), abs=1e-12)
        assert leak_bound(0.9) == pytest.approx(1.0, abs=1e-12)  # clipped at h(1/2)

    def test_leak_bound_domain(self):
        with pytest.raises(ValueError):
            leak_bound(1.5)
        with pytest.raises(ValueError):
            leak_bound(0.1, c1=0.0)

    def test_report_records_estimator(self):
        config = CheckConfig(m=30, k_bob=10, threshold_bob=30, trials=200)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(16))
        expected_eps = np.clip((report.failures + 1.0) / 10.0, 0.0, 1.0)
        assert np.allclose(report.est_epsilon, expected_eps)
        expected_leak = [binary_entropy(min(e, 0.5)) for e in expected_eps]
        assert np.allclose(report.leak_bound_bits, expected_leak)
        assert (report.c_a, report.c_mid, report.c_b) == (0.5, 1.0, 2.0)

    @pytest.mark.parametrize("m,k,trials", [(30, 10, 200), (10**9, 10**9, 3),
                                            (10**9, 10**8, 5)])
    def test_report_equals_per_trial_formula(self, m, k, trials):
        # Bitwise equal to one scalar evaluation per trial, and bounded by the
        # trial count when k is far larger (no table over all k + 1 counts).
        config = CheckConfig(m=m, k_bob=k, threshold_bob=k, trials=trials)
        report = run_protocol2(config, AliceStrategy.learn_y(), np.random.default_rng(17))
        eps = [epsilon_estimate(int(f), k) for f in report.failures]
        assert report.est_epsilon.tolist() == eps
        assert report.leak_bound_bits.tolist() == [leak_bound(e) for e in eps]


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

    def test_protocol2_is_protocol3_without_sender_checks(self):
        config = CheckConfig(m=30, k_bob=9, threshold_bob=2, k_alice=5)
        alice = AliceStrategy.param(CheatParams.from_alpha(0.4))
        two = checksim.exact_law(config, alice)
        three = checksim.exact_law(CheckConfig(m=30, k_bob=9, threshold_bob=2), alice,
                                   BobStrategy.honest())
        assert two == three
        assert two.tables_delivered == pytest.approx(21 * two.pass_probability, rel=1e-12)

    def test_all_four_verdict_cells_drawn(self, monkeypatch):
        monkeypatch.setattr(checksim, "_verdicts",
                            lambda a, b: (_FOUR_CELLS, np.zeros((2, 2))))
        trials = 20_000
        config = CheckConfig(m=15, k_bob=6, k_alice=8, threshold_bob=2, threshold_alice=3,
                             trials=trials)
        law = checksim.exact_law(config, AliceStrategy.honest(), BobStrategy.honest())
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(), BobStrategy.honest(),
                                           np.random.default_rng(30))
        _assert_aborts(bob_rep, law.abort_bob, 0.5)
        _assert_aborts(alice_rep, law.abort_alice, 0.4)
        _assert_binomial(int(np.sum(~bob_rep.aborted & ~alice_rep.aborted)), trials,
                         law.pass_probability)


_REPORT_MAPS = [((a0, e0), (a1, e1))
                for a0, e0, a1, e1 in itertools.product((0, 1), repeat=4)]
_TABLE_SENDERS = (
    [("honest", AliceStrategy.honest()), ("learn-y", AliceStrategy.learn_y()),
     ("mix", AliceStrategy.per_instance_mix([(0.5, AliceStrategy.learn_y()),
                                             (0.5, AliceStrategy.honest())]))]
    + [(f"param-{alpha:.3f}", AliceStrategy.param(CheatParams.from_alpha(alpha)))
       for alpha in (0.0, 0.4, np.pi / 4, np.pi / 2)]
    + [("learn-y-%d%d%d%d" % (*report_map[0], *report_map[1]), AliceStrategy.learn_y(report_map))
       for report_map in _REPORT_MAPS])
_TABLE_RECEIVERS = (
    [("honest", BobStrategy.honest()), ("computational", BobStrategy.computational_basis())]
    + [(f"phase-noise-{angle:.3f}", BobStrategy.phase_noise(angle))
       for angle in (0.0, 0.6, np.pi)])


class TestInstanceTable:
    """Exact identities of the instance table, for every sender and receiver."""

    @pytest.mark.parametrize("bob_name,bob", _TABLE_RECEIVERS,
                             ids=[name for name, _ in _TABLE_RECEIVERS])
    @pytest.mark.parametrize("alice_name,alice", _TABLE_SENDERS,
                             ids=[name for name, _ in _TABLE_SENDERS])
    def test_identities(self, alice_name, alice, bob_name, bob):
        probs, columns = checksim._instance_table(alice, bob)
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


class TestStrategyValidation:
    @pytest.mark.parametrize("weights", [(math.nan, math.nan), (1.5, -0.5), (math.inf, 0.0)])
    def test_mix_weights_finite_and_nonnegative(self, weights):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            AliceStrategy.per_instance_mix(zip(weights, (AliceStrategy.learn_y(),
                                                         AliceStrategy.honest())))

    @pytest.mark.parametrize("report_map", [((0, 2), (1, 0)), ((0, 1),), ((0, 1, 0), (1, 0)),
                                            ((0.0, 1), (1, 0)), 5, "01"])
    def test_report_map_is_two_bit_pairs(self, report_map):
        with pytest.raises(ValueError, match="two pairs of 0/1 bits"):
            AliceStrategy.learn_y(report_map)

    def test_report_map_stored_as_int_tuples(self):
        strategy = AliceStrategy.learn_y([[True, 0], [np.int64(1), 1]])
        assert strategy.report_map == ((1, 0), (1, 1))
        assert strategy == AliceStrategy.learn_y(((1, 0), (1, 1)))
        assert checksim.exact_law(CheckConfig(m=4, k_bob=4), strategy).fail_bob == 0.5

    @pytest.mark.parametrize("component", ["x", None, 1.0, BobStrategy.honest()])
    def test_mix_components_are_sender_strategies(self, component):
        with pytest.raises(ValueError, match="must be an AliceStrategy"):
            AliceStrategy.per_instance_mix([(0.5, AliceStrategy.honest()), (0.5, component)])

    @pytest.mark.parametrize("fields", [
        dict(kind="honest", report_map=((0, 1), (1, 0))),
        dict(kind="param", params=CheatParams.learn_y(), report_map=((0, 1), (1, 0))),
        dict(kind="mix", mix=((1.0, AliceStrategy.learn_y()),), report_map=((0, 1), (1, 0))),
        dict(kind="honest", params=CheatParams.learn_y()),
        dict(kind="learn-y", params=CheatParams.learn_y()),
        dict(kind="mix", mix=((1.0, AliceStrategy.honest()),), params=CheatParams.learn_y()),
        dict(kind="honest", mix=((1.0, AliceStrategy.learn_y()),)),
        dict(kind="learn-y", mix=((1.0, AliceStrategy.learn_y()),)),
        dict(kind="param", params=CheatParams.learn_y(), mix=((1.0, AliceStrategy.honest()),)),
    ])
    def test_sender_fields_outside_their_kind_rejected(self, fields):
        with pytest.raises(ValueError, match="apply only to|applies only to"):
            AliceStrategy(**fields)

    @pytest.mark.parametrize("kind", ["honest", "computational"])
    def test_angle_outside_phase_noise_rejected(self, kind):
        with pytest.raises(ValueError, match="applies only to phase-noise"):
            BobStrategy(kind, angle=1.0)
        assert BobStrategy(kind, angle=0.0) == BobStrategy(kind)

    def test_fields_of_their_own_kind_accepted(self):
        AliceStrategy.learn_y(((0, 1), (1, 0)))
        AliceStrategy.param(CheatParams.learn_y())
        AliceStrategy.per_instance_mix([(1.0, AliceStrategy.honest())])
        assert BobStrategy.phase_noise(1.0).angle == 1.0


class TestReproducibility:
    def test_reports_are_byte_identical_for_same_seed(self):
        config = CheckConfig(m=15, k_bob=5, trials=500, seed=123)
        a = run_protocol2(config, AliceStrategy.learn_y())
        b = run_protocol2(config, AliceStrategy.learn_y())
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_protocol3_reproducible(self):
        config = CheckConfig(m=12, k_bob=4, k_alice=4, trials=300, seed=9)
        a = run_protocol3(config, AliceStrategy.honest(), BobStrategy.phase_noise(0.3))
        b = run_protocol3(config, AliceStrategy.honest(), BobStrategy.phase_noise(0.3))
        for left, right in zip(a, b):
            assert json.dumps(left.to_dict(), sort_keys=True) == \
                json.dumps(right.to_dict(), sort_keys=True)

    def test_delivered_tables_protocol3(self):
        config = CheckConfig(m=10, k_bob=3, k_alice=3, trials=200, seed=5)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(), BobStrategy.honest())
        # No aborts: delivered = m - |union of checked labels| in [m-6, m-3].
        assert np.all(bob_rep.tables_delivered >= 4)
        assert np.all(bob_rep.tables_delivered <= 7)
        assert np.array_equal(bob_rep.tables_delivered, alice_rep.tables_delivered)
