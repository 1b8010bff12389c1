"""Tests of the benchmark's own arithmetic, oracles, job lists and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import itertools
import json
import math

import numpy as np
import pytest

import oracles
import tracing
import workloads
from otlab import checksim, cli, numerics, security


def test_self_times_on_nested_tree():
    # cli root [0, 10] > numerics [1, 4] > numerics [2, 3]; cli root > checksim [5, 9]
    names = ["cli.main", "numerics.holevo", "checksim.run_protocol2"]
    name_id = [0, 1, 1, 2]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    totals = tracing.layer_self_times(names, name_id, parent, start, end)
    assert totals == {"numerics": 3.0, "protocol": 0.0, "security": 0.0,
                      "checksim": 4.0, "cli": 3.0}


@pytest.mark.parametrize("k", range(0, 9))
def test_binomial_tail_matches_enumeration(k):
    for p in (0.0, 0.1, 0.5, 0.93, 1.0):
        for threshold in range(0, k + 1):
            brute = math.fsum(
                math.prod(p if bit else 1.0 - p for bit in bits)
                for bits in itertools.product((0, 1), repeat=k) if sum(bits) > threshold)
            assert oracles.binomial_tail(k, p, threshold) == pytest.approx(brute, abs=1e-14)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_depend_only_on_seed(workload):
    first = [workloads.round_jobs(workload, 11, i) for i in range(3)]
    again = [workloads.round_jobs(workload, 11, i) for i in range(3)]
    other = [workloads.round_jobs(workload, 12, i) for i in range(3)]
    assert first == again
    assert first != other
    assert first[0] != first[1]

    def sizes(jobs):  # the work a round does, with seeds and parameter values removed
        return sorted(workloads.template(job) for job in jobs)

    assert sizes(first[0]) == sizes(other[2])


def _fail_probability(alice, bob, column):
    probs, columns = checksim._instance_table(alice, bob)
    return float(probs[columns[column] == 1].sum())


def test_failure_probabilities_match_instance_tables():
    honest_bob = checksim.BobStrategy.honest()
    alpha = 0.7
    for alice, expected in (
            (checksim.AliceStrategy.honest(), oracles.check_failure_probability("honest")),
            (checksim.AliceStrategy.learn_y(), oracles.check_failure_probability("learn-y")),
            (checksim.AliceStrategy.param(security.CheatParams.from_alpha(alpha)),
             oracles.check_failure_probability("param", alpha))):
        assert _fail_probability(alice, honest_bob, "bob_fail") == pytest.approx(expected, abs=1e-12)
    honest = checksim.AliceStrategy.honest()
    theta = 1.1
    for bob, expected in (
            (checksim.BobStrategy.computational_basis(),
             oracles.check_failure_probability("computational")),
            (checksim.BobStrategy.phase_noise(theta),
             oracles.check_failure_probability("phase-noise", theta))):
        for column in ("bob_fail", "alice_fail"):
            assert _fail_probability(honest, bob, column) == pytest.approx(expected, abs=1e-12)


def test_mix_failure_probability_is_the_weighted_learn_y_rate():
    phi = 0.3
    mix = checksim.AliceStrategy.per_instance_mix(
        [(phi, checksim.AliceStrategy.learn_y()), (1 - phi, checksim.AliceStrategy.honest())])
    n = 400_000
    fails = checksim.simulate_instances(mix, checksim.BobStrategy.honest(), n,
                                        np.random.default_rng(5))["bob_fail"]
    p = oracles.check_failure_probability("mix", phi)
    assert oracles.binomial_pvalue(int(fails.sum()), n, p) >= oracles.P_VALUE_MIN


def test_holevo_oracle_agrees_with_closed_forms():
    rng = np.random.default_rng(3)
    for _ in range(20):
        squares = rng.dirichlet([1.0, 1.0, 1.0])
        triple = security.holevo_triple(security.CheatParams.from_squares(*squares))
        for label, chi in (("y", triple.chi_y), ("r", triple.chi_r), ("yxr", triple.chi_yxr)):
            assert oracles.holevo_bits(squares, label) == pytest.approx(chi, abs=1e-10)


def test_strict_json_rejects_non_finite_constants():
    assert oracles.strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '[Infinity]', '-Infinity'):
        with pytest.raises(ValueError):
            oracles.strict_json(text)


@pytest.mark.parametrize("n", (1, 5, 12))
def test_binomial_pvalue_matches_enumeration(n):
    for p in (0.03, 0.5, 0.8):
        pmf = [math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(n + 1)]
        for count in range(n + 1):
            lower, upper = math.fsum(pmf[:count + 1]), math.fsum(pmf[count:])
            brute = min(1.0, 2.0 * (lower if count <= n * p else upper))
            assert oracles.binomial_pvalue(count, n, p) == pytest.approx(brute, rel=1e-12)


def test_binomial_pvalue_judges_rare_events_exactly():
    assert oracles.P_VALUE_MIN == pytest.approx(5.733e-7, rel=1e-3)
    assert oracles.binomial_pvalue(0, 100, 0.0) == 1.0
    assert oracles.binomial_pvalue(1, 100, 0.0) == 0.0
    assert oracles.binomial_pvalue(100, 100, 1.0) == 1.0
    # 2 non-aborts in 1e4 trials at pass rate 2^-19 (0.019 expected): rare, not 5 sigma.
    assert oracles.binomial_pvalue(10_000 - 2, 10_000, 1 - 2.0 ** -19) > oracles.P_VALUE_MIN
    assert oracles.binomial_pvalue(5_100, 10_000, 0.5) > oracles.P_VALUE_MIN
    assert oracles.binomial_pvalue(5_300, 10_000, 0.5) < oracles.P_VALUE_MIN


def _run_cli(argv):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_checks_pass_real_jobs_and_catch_tampering():
    job = workloads.round_jobs("checks-sparse", 1, 0)[0]
    code, text = _run_cli(job["argv"])
    assert oracles.check_cli(job["spec"], code, text) == []
    assert oracles.check_cli(job["spec"], 1, text) == ["exit code 1"]
    payload = json.loads(text)
    payload["summary"]["aggregate"]["bob"]["abort_probability"] = 1.5
    assert oracles.check_cli(job["spec"], 0, json.dumps(payload) + "\n")

    table = next(j for j in workloads.round_jobs("tables", 1, 0) if j["spec"]["x"] == 1)
    code, text = _run_cli(table["argv"])
    assert oracles.check_cli(table["spec"], code, text) == []
    lines = text.split("\n")
    record = json.loads(lines[0])
    record["e"] ^= 1
    lines[0] = json.dumps(record)
    assert oracles.check_cli(table["spec"], code, "\n".join(lines))


def test_tracer_sees_calls_through_every_binding_and_restores_them():
    original = numerics.holevo
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert security.holevo is numerics.holevo is not original
        params = security.CheatParams.from_squares(0.5, 0.3, 0.2)
        security.holevo(security.returned_ensemble(params, "y"))
    finally:
        tracer.uninstall()
    assert numerics.holevo is original and security.holevo is original
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("numerics.holevo") == 1
    assert tracer.counts["security.ensembles_built"] == 1
    assert tracer.counts["numerics.density_built"] >= 3
    spans = tracer.arrays()
    own = tracing.self_times(spans["parent"], spans["start"], spans["end"])
    assert (own >= 0).all()


def test_tracer_sees_cli_handlers_called_through_the_dispatch_table():
    original = cli.run_table
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = _run_cli(["table", "--x", "0", "--y", "1", "--n", "3", "--seed", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.run_table is original and cli._HANDLERS["table"] is original
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("cli.run_table") == 1
    assert tracer.counts["protocol.runs"] == 3


def test_timings_are_scaled_per_round_and_taken_as_template_medians():
    import run

    ref = run.CALIBRATION_REFERENCE_S

    def record(index, kind, seconds, kernel):
        return {"round": index, "spec": {"kind": kind, "seed": index}, "seconds": seconds,
                "calibration_s": kernel}

    # Round 2 runs on a host half as fast: its jobs and its kernel take twice as long.
    timed = [record(1, "a", 1.0, ref), record(1, "b", 3.0, ref),
             record(2, "a", 2.0, 2 * ref), record(2, "b", 6.0, 2 * ref),
             record(3, "a", 1.2, ref), record(3, "b", 3.0, ref)]
    factors = run.speed_factors(timed)
    assert factors == {1: 1.0, 2: 0.5, 3: 1.0}
    assert run.template_times(timed, factors) == [1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
