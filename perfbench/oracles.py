"""Exact values every benchmark job is checked against.

Nothing here calls into otlab: each expected value is derived from the
paper's closed forms or from a direct eigendecomposition written with numpy,
so a defect in the package cannot also hide in its own check.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIGMAS = 5.0
MAX_HOLEVO_SUM = math.log2(3.0 + math.sqrt(5.0)) - 1.0

# The four returned sign states, rows in (r, y) order (0,0), (0,1), (1,0), (1,1).
_SIGNS = np.array([[1, 1, 1], [1, -1, 1], [-1, -1, 1], [-1, 1, 1]], dtype=float)
_RY = ((0, 0), (0, 1), (1, 0), (1, 1))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse one JSON document, rejecting NaN and +/-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def binomial_tail(k: int, p: float, threshold: int) -> float:
    """P(Bin(k, p) > threshold), summed term by term."""
    return math.fsum(math.comb(k, j) * p ** j * (1.0 - p) ** (k - j)
                     for j in range(threshold + 1, k + 1))


def check_failure_probability(strategy: str, value: float | None = None) -> float:
    """Closed-form probability that one checked table fails its check.

    ``strategy`` names the cheating side: an Alice strategy checked by Bob,
    or a Bob strategy checked by an honest Alice.  ``value`` is the
    strategy's parameter (alpha, phi or the phase angle).
    """
    if strategy == "honest":
        return 0.0
    if strategy in ("learn-y", "computational"):
        return 0.5
    if strategy == "param":
        return math.cos(value) ** 2 / 2.0
    if strategy == "mix":
        return value / 2.0
    if strategy == "phase-noise":
        return math.sin(value / 2.0) ** 2
    raise ValueError(f"no closed form for strategy {strategy!r}")


# The two-sided p-value of a 5 sigma deviation of a normal variable.
P_VALUE_MIN = math.erfc(SIGMAS / math.sqrt(2.0))


def binomial_pvalue(count: int, n: int, p: float) -> float:
    """Exact two-sided p-value of ``count`` successes in ``n`` Bernoulli(p) trials.

    Twice the probability of the tail beyond ``count`` on its side of the
    mean, capped at 1.  The tail is summed outward from ``count`` until its
    terms vanish, so a count of 2 where 0.02 were expected is judged by its
    exact probability, not by a normal approximation.
    """
    if not 0 <= count <= n:
        return 0.0
    if p <= 0.0 or p >= 1.0:
        return 1.0 if count == round(n * p) else 0.0
    term = math.exp(math.lgamma(n + 1) - math.lgamma(count + 1) - math.lgamma(n - count + 1)
                    + count * math.log(p) + (n - count) * math.log1p(-p))
    odds = p / (1.0 - p)
    tail, j = 0.0, count
    while term > 1e-17 * tail:
        tail += term
        if count <= n * p:   # pmf(j - 1) from pmf(j)
            term *= j / (n - j + 1) / odds
            j -= 1
        else:                # pmf(j + 1) from pmf(j)
            term *= (n - j) / (j + 1) * odds
            j += 1
    return min(1.0, 2.0 * tail)


def _binomial(problems, name, fraction, n, p):
    """``fraction`` of ``n`` draws must be a whole count consistent with p."""
    count = round(fraction * n)
    if abs(fraction * n - count) > 1e-6:
        problems.append(f"{name}={fraction!r} is not a count out of {n}")
    elif binomial_pvalue(count, n, p) < P_VALUE_MIN:
        problems.append(f"{name}={fraction!r} over {n} draws, exact value {p!r}")


def binary_entropy(delta: float) -> float:
    return -sum(x * math.log2(x) for x in (delta, 1.0 - delta) if x > 0.0)


def _entropy_bits(matrix: np.ndarray) -> float:
    eig = np.clip(np.linalg.eigvalsh(matrix), 0.0, None)
    eig = eig[eig > 1e-15]
    return float(-np.sum(eig * np.log2(eig)))


def holevo_bits(squares, label: str) -> float:
    """Holevo quantity of the returned ensemble grouped by ``label``.

    ``label`` is ``"y"``, ``"r"`` or ``"yxr"``: the bit whose two values
    split the four equiprobable sign states of the amplitude triple
    ``sqrt(squares)`` into two mixed states.  Evaluated by eigendecomposition
    as ``S(average) - (S(rho_0) + S(rho_1)) / 2``.
    """
    vecs = _SIGNS * np.sqrt(np.clip(np.asarray(squares, dtype=float), 0.0, None))
    bit = {"y": lambda r, y: y, "r": lambda r, y: r, "yxr": lambda r, y: r ^ y}[label]
    states = [np.zeros((3, 3)), np.zeros((3, 3))]
    for (r, y), vec in zip(_RY, vecs):
        states[bit(r, y)] += 0.5 * np.outer(vec, vec)
    average = 0.5 * (states[0] + states[1])
    return _entropy_bits(average) - 0.5 * (_entropy_bits(states[0]) + _entropy_bits(states[1]))


# ---------------------------------------------------------------------------
# Per-job checks.  Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------

def _near(problems, name, value, exact, tol):
    if not abs(value - exact) <= tol:
        problems.append(f"{name}={value!r}, expected {exact!r} within {tol:g}")


def _at_most(problems, name, value, limit):
    if not value <= limit:
        problems.append(f"{name}={value!r} exceeds {limit!r}")


def _check_verify(spec, lines):
    problems = []
    if len(lines) != 1:
        return [f"expected one report line, got {len(lines)}"]
    report = strict_json(lines[0])
    if report.get("suite") != spec["suite"] or report.get("seed") != spec["seed"]:
        problems.append("report does not echo its suite and seed")
    if report.get("violations") != 0:
        problems.append(f"violations={report.get('violations')!r}")
    suite = spec["suite"]
    if "samples" in spec and report["samples"] != spec["samples"]:
        problems.append(f"samples={report['samples']}, requested {spec['samples']}")
    if suite == "lemma1":
        _at_most(problems, "max_statistics_deviation", report["max_statistics_deviation"], 1e-10)
        _at_most(problems, "max_joint_mi", report["max_joint_mi"], 1.0 + 1e-9)
    elif suite in ("prop1", "prop3"):
        _at_most(problems, "-min_margin", -report["min_margin"], 1e-9)
    elif suite == "examples":
        _at_most(problems, "max_deviation", report["max_deviation"], 1e-9)
    elif suite == "prop2":
        _at_most(problems, "max_lhs", report["max_lhs"], 0.25 + 1e-12)
        # a^2 (1 - a^2) peaks at a^2 = 1/2 on the b = c slice.
        _near(problems, "equality_a2", report["equality_a2"], 0.5, 1e-6)
    elif suite == "thm3":
        for name, exact in (("lhs_eq17", 2.0), ("lhs_eq18", 2.0), ("p_b", 0.75),
                            ("p_b_prime", 0.75), ("p_a", 0.5)):
            _near(problems, name, report[name], exact, 1e-12)
    elif suite == "infodelta":
        if not report["min_margin"] > 0.0:
            problems.append(f"min_margin={report['min_margin']!r} is not positive")
    return problems


def _check_curve(spec, lines):
    problems = []
    if lines[0] != "bin_center,max_chi_y":
        return ["curve CSV header missing"]
    summary = strict_json(lines[-1])["summary"]
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:-1]]
    if summary["n_samples"] != spec["n_samples"] or summary["seed"] != spec["seed"]:
        problems.append("summary does not echo n_samples and seed")
    if summary["n_bins"] != len(rows):
        problems.append(f"n_bins={summary['n_bins']} but {len(rows)} CSV rows")
    _near(problems, "analytic_max", summary["analytic_max"], MAX_HOLEVO_SUM, 1e-12)
    _at_most(problems, "max_sum", summary["max_sum"], MAX_HOLEVO_SUM + 1e-6)
    # Criterion 06's floor at 1e5 samples; more samples only raise the max.
    if not summary["max_sum"] >= 1.380:
        problems.append(f"max_sum={summary['max_sum']!r} below 1.380")
    argmax = summary["argmax"]
    _near(problems, "argmax squares sum", argmax["a2"] + argmax["b2"] + argmax["c2"], 1.0, 1e-9)
    width = spec["bin_width"]
    bad = 0
    for center, value in rows:
        if not (math.isfinite(center) and -1e-12 <= value <= 1.0 + 1e-12):
            bad += 1
        left = center - width / 2.0
        if left >= 0.5 and value > binary_entropy(1.0 - left) + 1e-9:
            bad += 1
    if bad or summary["envelope_violations"] != 0:
        problems.append(f"{bad} bins outside [0, 1] or above the entropy envelope")
    return problems


def _check_table(spec, lines):
    problems = []
    n, x, y = spec["n"], spec["x"], spec["y"]
    if len(lines) != n + 1:
        return [f"expected {n} records and a summary, got {len(lines)} lines"]
    e_total, bad = 0, 0
    for line in lines[:-1]:
        rec = strict_json(line)
        bad += int(rec["x"] != x or rec["y"] != y or (rec["e"] ^ rec["f"]) != (x & y))
        e_total += rec["e"]
    summary = strict_json(lines[-1])["summary"]
    if bad:
        problems.append(f"{bad} records break e XOR f = x AND y")
    if summary["n"] != n or summary["seed"] != spec["seed"] or summary["correctness"] != 1.0:
        problems.append("summary does not echo n and seed with correctness 1")
    if summary["bias_e"] != e_total / n:
        problems.append("bias_e does not match the records")
    _binomial(problems, "bias_e", summary["bias_e"], n, 0.5)
    return problems


def _check_checksim(spec, lines):
    if len(lines) != 1:
        return [f"expected one summary line, got {len(lines)}"]
    summary = strict_json(lines[0])["summary"]
    problems = []
    if summary["seed"] != spec["seed"] or summary["protocol"] != spec["protocol"]:
        problems.append("summary does not echo seed and protocol")
    trials = spec["trials"]
    if spec["protocol"] == 2:
        p = check_failure_probability(spec["alice"], spec.get("value"))
        sides = {"bob": (spec["k"], spec["threshold"])}
    else:  # honest Alice; both sides see Bob's per-check failure probability
        p = check_failure_probability(spec["bob"], spec.get("value"))
        sides = {"bob": (spec["k"], spec["threshold"]),
                 "alice": (spec["k_alice"], spec["threshold_alice"])}
    if set(summary["aggregate"]) != set(sides):
        return problems + [f"sides {sorted(summary['aggregate'])}, expected {sorted(sides)}"]
    for side, (k, threshold) in sides.items():
        agg = summary["aggregate"][side]
        _binomial(problems, f"{side} abort_probability", agg["abort_probability"], trials,
                  binomial_tail(k, p, threshold))
        _binomial(problems, f"{side} mean_failures", agg["mean_failures"] / max(k, 1),
                  trials * max(k, 1), p if k else 0.0)
        if spec["protocol"] == 3 and spec["bob"] == "computational":
            # |x> is read with probability 1/2, otherwise a fair guess: 3/4.
            _binomial(problems, f"{side} x_guess_rate", agg["extras"].get("x_guess_rate", -1.0),
                      trials * spec["m"], 0.75)
    return problems


def _check_holevo_oracle(spec, result):
    problems = []
    if result["triples"] != spec["triples"]:
        problems.append("triple count differs from the request")
    _at_most(problems, "worst_chi", result["worst_chi"], 1e-10)
    _at_most(problems, "worst_guess", result["worst_guess"], 1e-10)
    return problems


def _check_search(spec, result):
    chi = holevo_bits(result["squares"], result["label"])
    problems = []
    if not -1e-12 <= result["best_value"] <= chi + 1e-9:
        problems.append(f"search value {result['best_value']!r} outside [0, chi={chi!r}]")
    return problems


_CLI_CHECKS = {"verify": _check_verify, "curve": _check_curve,
               "table": _check_table, "checksim": _check_checksim}
_LIB_CHECKS = {"holevo_oracle": _check_holevo_oracle, "search": _check_search}


def check_cli(spec: dict, exit_code: int, stdout: str) -> list:
    """Problems with one CLI job's exit code and payload."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not stdout.endswith("\n"):
        return ["payload does not end with a newline"]
    return _CLI_CHECKS[spec["kind"]](spec, stdout[:-1].split("\n"))


def check_library(spec: dict, result: dict) -> list:
    """Problems with one library job's result, which must be strict JSON."""
    strict_json(json.dumps(result, allow_nan=False))
    return _LIB_CHECKS[spec["kind"]](spec, result)
