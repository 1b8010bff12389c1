"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and sample sizes are pinned here and are not calibration
knobs.
"""

import time

import numpy as np

from otlab import checksim, numerics, protocol, security, verify
from otlab.seeding import substream_rng

SQRT_HALF = 1.0 / np.sqrt(2.0)
ANALYTIC_MAX = 1.3884838272612345  # log2(3 + sqrt 5) - 1


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_protocol_exhaustive_correctness():
    start = time.time()
    for x in (0, 1):
        for t in (0, 1):
            for y in (0, 1):
                for r in (0, 1):
                    returned = protocol.bob_gate(y, r) @ protocol.alice_prepare(x, t).amplitudes
                    probs = np.abs(protocol.alice_basis(x) @ returned) ** 2
                    idx = int(np.argmax(probs))
                    assert probs[idx] > 1.0 - 1e-12, "outcome not deterministic"
                    assert idx == t ^ (x & y) ^ r
                    e = idx ^ t
                    assert e ^ r == x & y
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"all 16 (x,t,y,r) tuples give e^f = x&y deterministically ({elapsed:.3f}s)")


def test_criterion_02_and_evaluation_and_masking():
    rng = substream_rng(202, 1)
    n_per_cell = 25_000
    for a in (0, 1):
        for b in (0, 1):
            x, y = rng.integers(2, size=n_per_cell), rng.integers(2, size=n_per_cell)
            table, *_ = protocol.run_honest(x, y, rng)
            result = protocol.and_eval(table, a, b)
            assert np.all(result.alice_out ^ result.bob_out == a & b)
            a_msgs, b_msgs = result.messages
            bound = 4.0 / np.sqrt(n_per_cell)
            assert abs(a_msgs.mean() - 0.5) < bound, f"a' biased at (a,b)=({a},{b})"
            assert abs(b_msgs.mean() - 0.5) < bound, f"b' biased at (a,b)=({a},{b})"
            joint = np.mean(a_msgs * b_msgs)
            assert abs(joint - 0.25) < bound, "messages correlated"
    _report(2, "distributed AND exact on honest tables; messages unbiased at 1e5 runs")


def test_criterion_03_guessing_probabilities_and_circle():
    report = security.theorem3_report()
    assert abs(report.p_b - 0.75) <= 1e-12
    assert abs(report.p_b_prime - 0.75) <= 1e-12
    suite = verify.prop2(100_000, seed=303)
    assert suite["violations"] == 0
    assert suite["max_lhs"] <= 0.25 + 1e-12
    assert abs(suite["equality_a2"] - 0.5) <= 1e-6
    _report(3, "P_B = P_B' = 3/4 from trace distances; circle bound clean on 1e5 "
               f"samples, equality at a^2 = {suite['equality_a2']:.8f}")


def test_criterion_04_holevo_closed_forms_and_tradeoff_bounds():
    rng = substream_rng(404, 1)
    worst_chi, worst_guess = 0.0, 0.0
    params = [security.CheatParams.from_squares(*rng.dirichlet([1.0, 1.0, 1.0]))
              for _ in range(10_000)]
    amplitudes = np.array([[p.a, p.b, p.c] for p in params])
    triples = security._triple_from_squares(*(amplitudes ** 2).T)
    guesses = [security.guess_probs(p) for p in params]
    for label, chi in zip(("y", "r", "yxr"), triples):
        guess = np.array([getattr(g, f"p_{label}") for g in guesses])
        states = security.returned_states(amplitudes, label)
        worst_chi = max(worst_chi, np.abs(chi - numerics.holevo(states)).max())
        helstrom = 0.5 * (1.0 + numerics.trace_distance(states[:, 0], states[:, 1]))
        worst_guess = max(worst_guess, np.abs(guess - helstrom).max())
    assert worst_chi <= 1e-10, f"closed form deviates by {worst_chi:.2e}"
    assert worst_guess <= 1e-10, f"guess probability deviates by {worst_guess:.2e}"
    suite = verify.prop3(100_000, seed=404)
    assert suite["violations"] == 0
    _report(4, f"closed forms within {worst_chi:.1e} of eigendecomposition and guesses "
               f"within {worst_guess:.1e} of Helstrom on 1e4 triples; entropy tradeoff "
               "bounds clean on 1e5 samples")


def test_criterion_05_analytic_maximum():
    start = time.time()
    result = security.max_holevo_sum_search()
    elapsed = time.time() - start
    assert abs(result.max_sum - ANALYTIC_MAX) <= 1e-6
    assert abs(result.max_sum - security.MAX_HOLEVO_SUM) <= 1e-9
    squares = result.argmax.squares
    assert abs(squares[0] - np.sqrt(5.0) / 5.0) <= 1e-6
    assert abs(squares[1] - (5.0 - np.sqrt(5.0)) / 10.0) <= 1e-6
    assert abs(squares[2] - (5.0 - np.sqrt(5.0)) / 10.0) <= 1e-6
    assert abs(result.constrained_max - result.unconstrained_max) <= 1e-8
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(5, f"max chi_y + chi_r = {result.max_sum:.10f} at a^2 = {squares[0]:.8f} "
               f"({elapsed:.2f}s)")


def test_criterion_06_tradeoff_curve_at_desk_scale():
    start = time.time()
    rng = substream_rng(606, 1)
    curve = security.tradeoff_curve(100_000, 0.01, rng)
    elapsed = time.time() - start
    assert 1.380 <= curve.max_sum <= 1.38849, f"max sum {curve.max_sum}"
    violations = 0
    for center, max_h2 in curve.bins:
        left = center - 0.005
        if left >= 0.5:
            envelope = security.binary_entropy(1.0 - left)
            if max_h2 > envelope + 1e-9:
                violations += 1
    assert violations == 0, f"{violations} bins exceed the entropy envelope"
    assert np.all(curve.h1 <= 1.0 + 1e-12) and np.all(curve.h2 <= 1.0 + 1e-12)
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(6, f"1e5 Haar samples: max sum {curve.max_sum:.6f} in [1.380, 1.38849], "
               f"curve under the h(delta) envelope ({elapsed:.1f}s)")


def test_criterion_07_measurement_reduction():
    suite = verify.lemma1(1000, seed=707, params_per_povm=100)
    assert suite["violations"] == 0
    assert suite["max_statistics_deviation"] <= 1e-10
    assert suite["max_joint_mi"] <= 1.0 + 1e-9
    _report(7, f"qubit reduction over 1e3 POVMs x 1e2 triples: statistics preserved to "
               f"{suite['max_statistics_deviation']:.1e}, joint information "
               f"<= {suite['max_joint_mi']:.10f} bits")


def test_criterion_08_example_measurements_and_search():
    # Information split identity on a 100-point grid.
    for alpha in np.linspace(0.0, np.pi / 2, 100):
        params = security.CheatParams.from_alpha(alpha)
        povm = security.example1_povm(alpha)
        i_y = numerics.mutual_information(security.returned_ensemble(params, "y"), povm)
        i_r = numerics.mutual_information(security.returned_ensemble(params, "r"), povm)
        assert abs(i_y + i_r - 1.0) <= 1e-10
    # Closed-form value: center point and a grid against direct evaluation.
    assert abs(security.example3_value(SQRT_HALF) - 1.0) <= 1e-10
    for a_val, theta in zip(np.linspace(0.05, 0.95, 19), np.linspace(0.1, 1.4, 19)):
        b_prime = np.sqrt(1.0 - a_val ** 2)
        params = security.CheatParams(a_val, b_prime * np.cos(theta), b_prime * np.sin(theta))
        povm = security.example1_povm(theta)
        i_y = numerics.mutual_information(security.returned_ensemble(params, "y"), povm)
        i_r = numerics.mutual_information(security.returned_ensemble(params, "r"), povm)
        assert abs(security.example3_value(a_val) - (i_y + i_r)) <= 1e-9
    # Two independent measurement searches beat 1.2 bits on (1/sqrt2, 1/2, 1/2).
    params = security.CheatParams(SQRT_HALF, 0.5, 0.5)
    best_y = security.accessible_info_search(
        security.returned_ensemble(params, "y"), rng=substream_rng(808, 1))
    best_r = security.accessible_info_search(
        security.returned_ensemble(params, "r"), rng=substream_rng(808, 2))
    total = best_y.best_value + best_r.best_value
    assert total > 1.2, f"two-measurement sum {total:.4f} <= 1.2"
    _report(8, f"information-split identity exact on 100 alphas; closed form matches "
               f"direct evaluation; two-measurement search reaches {total:.4f} > 1.2 bits")


def test_criterion_09_check_protocol_soundness():
    start = time.time()
    rng = substream_rng(909, 1)
    trials = 100_000
    for k in range(1, 21):
        config = checksim.CheckConfig(m=k, k_bob=k, threshold_bob=0, trials=trials)
        report = checksim.run_protocol2(config, checksim.AliceStrategy.learn_y(), rng)
        expected = 2.0 ** (-k)
        observed = 1.0 - report.abort_probability
        sigma = np.sqrt(max(expected * (1 - expected), 1e-12) / trials)
        assert abs(observed - expected) <= 3 * sigma, \
            f"k={k}: pass rate {observed:.3e} vs 2^-k {expected:.3e}"
    fields = checksim.simulate_instances(
        checksim.AliceStrategy.honest(), checksim.BobStrategy.computational_basis(),
        trials, substream_rng(909, 2))
    fail_rate = fields["alice_fail"].mean()
    guess_rate = fields["x_guess_correct"].mean()
    assert abs(fail_rate - 0.5) <= 3 * np.sqrt(0.25 / trials)
    assert abs(guess_rate - 0.75) <= 3 * np.sqrt(0.75 * 0.25 / trials)
    config = checksim.CheckConfig(m=20, k_bob=10, k_alice=10, trials=10_000)
    bob_rep, alice_rep = checksim.run_protocol3(
        config, checksim.AliceStrategy.honest(), checksim.BobStrategy.honest(),
        substream_rng(909, 3))
    assert bob_rep.abort_probability == 0.0
    assert alice_rep.abort_probability == 0.0
    elapsed = time.time() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(9, f"learn-y pass rate tracks 2^-k for k=1..20; basis-reading receiver fails "
               f"half the checks and guesses inputs at {guess_rate:.4f}; honest runs never "
               f"abort ({elapsed:.1f}s)")


def test_criterion_10_small_delta_chain():
    grid = np.linspace(0.001, 0.099, 100)
    report = security.infodelta_check(grid)
    assert report.ok
    assert report.min_margin > 0.0
    _report(10, f"strict-inequality chain positive on 100 deltas, min margin "
                f"{report.min_margin:.6f}")
