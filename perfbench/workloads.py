"""Seeded job lists for the four workloads, the library jobs, and set-up.

A workload is an endless sequence of rounds.  Every round holds the same
job templates at the same sizes; the workload seed only chooses each job's
``--seed``, its strategy parameters and the order within the round.  So a
seed changes the values a job sees but never how much work it does, and a
run of whole rounds always has the same job mix.

Every CLI job is a complete ``otlab`` argv including ``--seed``, so it can
be replayed by hand as ``otlab <argv>``.  Library jobs name a function in
this module and its keyword arguments.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("verify", "tables", "checks-sparse", "checks-dense")

# Job sizes, fixed per template.  See README.md for why each was chosen.
VERIFY_SAMPLES = {"lemma1": 10, "prop1": 50, "examples": 50, "prop2": 100_000,
                  "prop3": 100_000, "infodelta": 100}
CURVE_SAMPLES = 100_000
CURVE_BIN_WIDTH = 0.01
ORACLE_TRIPLES = 50
SEARCH_STARTS, SEARCH_ITERS = 2, 100
# Honest runs per table job, one size per (x, y) so that p50 and p90 differ.
TABLE_RUNS = {(0, 0): 1000, (0, 1): 1250, (1, 0): 1500, (1, 1): 1750}
SPARSE_M, SPARSE_K, SPARSE_TRIALS = 200, 20, 4000
DENSE_KS, DENSE_TRIALS = range(1, 21), 5000

# Rounds replayed by a traced run: fixed, so that its counts repeat exactly.
TRACE_ROUNDS = {"verify": 6, "tables": 10, "checks-sparse": 6, "checks-dense": 2}

# Seconds of scaled job time one timed round takes on the seed code (see
# run.speed_factors).  A timed run has a fixed number of rounds derived from
# --seconds, so the per-template medians of two commits are taken over the
# same N executions however fast each runs.
ROUND_SECONDS = {"verify": 0.84, "tables": 0.38, "checks-sparse": 0.83, "checks-dense": 1.4}


def timed_rounds(workload: str, seconds: float) -> int:
    """Timed rounds whose jobs take about ``seconds`` of scaled time on the seed code."""
    return max(10, round(seconds / ROUND_SECONDS[workload]))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


def _cli(spec: dict, *argv) -> dict:
    return {"argv": [*map(str, argv), "--seed", str(spec["seed"])], "spec": spec}


def _verify_round(rng):
    jobs = []
    for suite in ("lemma1", "prop1", "examples", "prop2", "prop3", "thm3", "infodelta"):
        spec = {"kind": "verify", "suite": suite, "seed": _seed(rng)}
        argv = ["verify", suite]
        if suite in VERIFY_SAMPLES:
            spec["samples"] = VERIFY_SAMPLES[suite]
            argv += ["--samples", spec["samples"]]
        jobs.append(_cli(spec, *argv))
    # Two curves per round keep the slowest tenth of jobs inside one template.
    for _ in range(2):
        spec = {"kind": "curve", "n_samples": CURVE_SAMPLES, "bin_width": CURVE_BIN_WIDTH,
                "seed": _seed(rng)}
        jobs.append(_cli(spec, "curve", "--n-samples", CURVE_SAMPLES,
                         "--bin-width", CURVE_BIN_WIDTH))
    jobs.append({"call": "holevo_oracle",
                 "spec": {"kind": "holevo_oracle", "seed": _seed(rng),
                          "triples": ORACLE_TRIPLES}})
    jobs.append({"call": "search", "spec": {"kind": "search", "seed": _seed(rng)}})
    return jobs


def _tables_round(rng):
    jobs = []
    for x in (0, 1):
        for y in (0, 1):
            n = TABLE_RUNS[x, y]
            spec = {"kind": "table", "x": x, "y": y, "n": n, "seed": _seed(rng)}
            jobs.append(_cli(spec, "table", "--x", x, "--y", y, "--n", n))
    return jobs


# Flag and uniform range of each seeded strategy parameter.
_PARAMETER = {"param": ("--alpha", 0.2, 1.4), "phase-noise": ("--angle", 0.2, 2.5)}
# The mix's cheating fraction is a constant: drawing its components costs
# more the closer phi is to 1/2, so a seeded phi would let the seed change
# the work.
MIX_PHI = 0.5


def _checksim(rng, protocol, m, k, trials, alice="honest", bob="honest",
              k_alice=0, thresholds=(0,)):
    """One checksim job; the cheating side's parameter is drawn from ``rng``."""
    spec = {"kind": "checksim", "protocol": protocol, "m": m, "k": k, "trials": trials,
            "alice": alice, "bob": bob, "seed": _seed(rng),
            "threshold": int(rng.choice(thresholds))}
    argv = ["checksim", "--protocol", protocol, "--alice", alice, "--m", m, "--k", k,
            "--threshold", spec["threshold"], "--trials", trials]
    cheater = alice if protocol == 2 else bob
    if cheater in _PARAMETER:
        flag, low, high = _PARAMETER[cheater]
        spec["value"] = float(rng.uniform(low, high))
        argv += [flag, repr(spec["value"])]
    elif cheater == "mix":
        spec["value"] = MIX_PHI
        argv += ["--phi", repr(MIX_PHI)]
    if protocol == 3:
        spec["k_alice"] = k_alice
        spec["threshold_alice"] = int(rng.choice(thresholds))
        argv += ["--bob", bob, "--k-alice", k_alice,
                 "--threshold-alice", spec["threshold_alice"]]
    return _cli(spec, *argv)


def _sparse_round(rng):
    """m >> k: about 85% of drawn instances are never checked."""
    shape = dict(m=SPARSE_M, k=SPARSE_K, trials=SPARSE_TRIALS, thresholds=(0, 1, 2))
    jobs = [_checksim(rng, 2, alice=alice, **shape)
            for alice in ("honest", "learn-y", "param", "mix")]
    jobs += [_checksim(rng, 3, bob=bob, k_alice=SPARSE_K, **shape)
             for bob in ("honest", "computational", "phase-noise")]
    return jobs


def _dense_round(rng):
    """m = k: every drawn instance is checked (criterion 09's sweep)."""
    jobs = []
    for k in DENSE_KS:
        jobs += [_checksim(rng, 2, m=k, k=k, trials=DENSE_TRIALS, alice=alice)
                 for alice in ("learn-y", "param", "mix")]
        jobs += [_checksim(rng, 3, m=k, k=0, k_alice=k, trials=DENSE_TRIALS, bob=bob)
                 for bob in ("computational", "phase-noise")]
    return jobs


_ROUNDS = {"verify": _verify_round, "tables": _tables_round,
           "checks-sparse": _sparse_round, "checks-dense": _dense_round}


# Spec keys that carry a job's values; the rest fix how much work it does.
_VALUE_KEYS = ("seed", "value", "threshold", "threshold_alice")


def template(job: dict) -> str:
    """The job's template: its spec without seed and parameter values.

    Jobs of one template do the same work, so the median of their scaled
    wall times over a run estimates that work's cost.
    """
    return json.dumps({key: val for key, val in job["spec"].items()
                       if key not in _VALUE_KEYS}, sort_keys=True)


def round_jobs(workload: str, seed: int, index: int) -> list:
    """The jobs of round ``index`` of ``workload`` under ``seed``, shuffled."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    jobs = _ROUNDS[workload](rng)
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# Library jobs
# ---------------------------------------------------------------------------

def holevo_oracle(seed: int, triples: int) -> dict:
    """Criterion 04's shape: closed forms against eigendecomposition.

    For random amplitude triples, compares ``security.holevo_triple`` with
    ``numerics.holevo`` and ``security.guess_probs`` with the Helstrom value
    ``(1 + trace_distance)/2`` of each binary returned ensemble.
    """
    from otlab import numerics, security

    rng = np.random.default_rng(seed)
    worst_chi = worst_guess = 0.0
    for _ in range(triples):
        params = security.CheatParams.from_squares(*rng.dirichlet([1.0, 1.0, 1.0]))
        triple = security.holevo_triple(params)
        guesses = security.guess_probs(params)
        for label, chi, guess in (("y", triple.chi_y, guesses.p_y),
                                  ("r", triple.chi_r, guesses.p_r),
                                  ("yxr", triple.chi_yxr, guesses.p_yxr)):
            ensemble = security.returned_ensemble(params, label)
            worst_chi = max(worst_chi, abs(chi - numerics.holevo(ensemble)))
            helstrom = 0.5 * (1.0 + numerics.trace_distance(*ensemble.states))
            worst_guess = max(worst_guess, abs(guess - helstrom))
    return {"triples": triples, "worst_chi": worst_chi, "worst_guess": worst_guess}


def search(seed: int) -> dict:
    """A reduced accessible-information search on a random returned ensemble."""
    from otlab import security

    rng = np.random.default_rng(seed)
    squares = rng.dirichlet([1.0, 1.0, 1.0])
    label = ("y", "r", "yxr")[int(rng.integers(3))]
    ensemble = security.returned_ensemble(security.CheatParams.from_squares(*squares), label)
    config = security.SearchConfig(n_starts=SEARCH_STARTS, max_iters=SEARCH_ITERS)
    result = security.accessible_info_search(ensemble, config, rng)
    return {"best_value": result.best_value, "label": label,
            "squares": [float(s) for s in squares]}


LIBRARY_JOBS = {"holevo_oracle": holevo_oracle, "search": search}


def run_library(job: dict) -> dict:
    kwargs = {key: val for key, val in job["spec"].items() if key != "kind"}
    return LIBRARY_JOBS[job["call"]](**kwargs)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(workload: str) -> None:
    """Import otlab and do the lazy set-up the workload's jobs rely on.

    Importing otlab imports scipy (through ``security``).  The check
    workloads also build the exact instance table of every strategy pair
    whose table does not depend on a per-job parameter.
    """
    from otlab import checksim

    if workload.startswith("checks-"):
        rng = np.random.default_rng(0)
        honest, learn_y = checksim.AliceStrategy.honest(), checksim.AliceStrategy.learn_y()
        for alice, bob in ((honest, checksim.BobStrategy.honest()),
                           (learn_y, checksim.BobStrategy.honest()),
                           (honest, checksim.BobStrategy.computational_basis())):
            checksim.simulate_instances(alice, bob, 1, rng)
