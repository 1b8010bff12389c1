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
        curve = detection_curve(AliceStrategy.honest(), [1, 5, 10], 0, 2000,
                                np.random.default_rng(12))
        assert all(p == 0.0 for _, p in curve)

    def test_learn_y_matches_geometric_law(self):
        curve = detection_curve(AliceStrategy.learn_y(), [1, 2, 4, 8], 0, 30_000,
                                np.random.default_rng(13))
        for k, p_abort in curve:
            expected = 1.0 - 2.0 ** (-k)
            assert abs(p_abort - expected) <= _binomial_3sigma(expected, 30_000)

    def test_mix_strategy_thins_the_failure_rate(self):
        phi = 0.4
        strategy = AliceStrategy.per_instance_mix([
            (phi, AliceStrategy.learn_y()),
            (1.0 - phi, AliceStrategy.honest()),
        ])
        curve = detection_curve(strategy, [2, 6, 12], 0, 30_000, np.random.default_rng(14))
        for k, p_abort in curve:
            expected = 1.0 - (1.0 - phi / 2.0) ** k
            assert abs(p_abort - expected) <= _binomial_3sigma(expected, 30_000)

    def test_monotone_for_cheating_bob(self):
        curve = detection_curve(BobStrategy.computational_basis(), [1, 4, 8], 0, 20_000,
                                np.random.default_rng(15))
        probs = [p for _, p in curve]
        assert probs == sorted(probs)

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            detection_curve(AliceStrategy.learn_y(), [1], 0, 10, np.random.default_rng(0))


class TestRestartsAndThresholds:
    def test_restart_budget_accumulates_additively(self):
        config = CheckConfig(m=3, k_bob=3, trials=20_000)
        result = checksim.run_with_restarts(config, AliceStrategy.learn_y(), 4,
                                            np.random.default_rng(18))
        single = 2.0 ** -3
        overall_expected = 1.0 - (1.0 - single) ** 4
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


def _assert_aborts(report, p):
    aborts = int(report.aborted.sum())
    _assert_binomial(aborts, report.trials, float(stats.binom.sf(report.threshold, report.k, p)))
    _assert_binomial(int(report.failures.sum()), report.trials * report.k, p)


class TestAgainstExact:
    @pytest.mark.parametrize("m,k,threshold", [(200, 20, 1), (12, 12, 0)],
                             ids=["m>>k", "m=k"])
    @pytest.mark.parametrize("name,alice,p", _SENDERS, ids=[c[0] for c in _SENDERS])
    def test_protocol2_abort_probability(self, name, alice, p, m, k, threshold):
        config = CheckConfig(m=m, k_bob=k, threshold_bob=threshold, trials=20_000)
        _assert_aborts(run_protocol2(config, alice, np.random.default_rng(21)), p)

    @pytest.mark.parametrize("m,k_b,k_a,t_b,t_a", [(200, 15, 25, 1, 2), (10, 10, 10, 0, 0)],
                             ids=["m>>k", "m=k"])
    @pytest.mark.parametrize("name,bob,p", _RECEIVERS, ids=[c[0] for c in _RECEIVERS])
    def test_protocol3_abort_probability(self, name, bob, p, m, k_b, k_a, t_b, t_a):
        trials = 20_000
        config = CheckConfig(m=m, k_bob=k_b, threshold_bob=t_b, k_alice=k_a,
                             threshold_alice=t_a, trials=trials)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(), bob,
                                           np.random.default_rng(22))
        _assert_aborts(bob_rep, p)
        _assert_aborts(alice_rep, p)
        if name == "computational":
            guessed = alice_rep.extras["x_guess_rate"] * trials * m
            assert guessed == pytest.approx(round(guessed), abs=1e-6)
            _assert_binomial(round(guessed), trials * m, 0.75)

    @pytest.mark.parametrize("m,k_b,k_a", [(200, 15, 25), (10, 10, 10), (30, 0, 7)])
    def test_protocol3_mean_delivered_tables(self, m, k_b, k_a):
        trials = 20_000
        config = CheckConfig(m=m, k_bob=k_b, k_alice=k_a, trials=trials)
        bob_rep, _ = run_protocol3(config, AliceStrategy.honest(), BobStrategy.honest(),
                                   np.random.default_rng(23))
        delivered = bob_rep.tables_delivered
        # Labels both sides check: Hypergeometric(k_a, m - k_a, k_b).
        expected = m - k_b - k_a + k_a * k_b / m
        var_shared = k_b * (k_a / m) * (1 - k_a / m) * (m - k_b) / max(m - 1, 1)
        assert abs(delivered.mean() - expected) <= 3 * math.sqrt(var_shared / trials) + 1e-12
        assert delivered.min() >= m - k_b - k_a
        assert delivered.max() <= m - max(k_b, k_a)

    def test_protocol3_joint_pass_follows_the_overlap(self):
        # With zero thresholds a trial passes both checks when none of its
        # k_b + k_a - J distinct checked instances fails.
        m, k, angle, trials = 20, 10, 0.5, 20_000
        p = math.sin(angle / 2) ** 2
        shared = np.arange(k + 1)
        expected = float(np.sum(stats.hypergeom.pmf(shared, m, k, k) * (1 - p) ** (2 * k - shared)))
        config = CheckConfig(m=m, k_bob=k, k_alice=k, trials=trials)
        bob_rep, alice_rep = run_protocol3(config, AliceStrategy.honest(),
                                           BobStrategy.phase_noise(angle),
                                           np.random.default_rng(24))
        _assert_binomial(int(np.sum(~bob_rep.aborted & ~alice_rep.aborted)), trials, expected)


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
