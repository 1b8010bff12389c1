"""Seeded, reproducible command line front end.

Subcommands::

    otlab table     --x 1 --y 1 --n 1000 [--seed S] [--out FILE]
    otlab verify    SUITE [--samples N] [--seed S] [--out FILE]
    otlab curve     --n-samples 100000 [--bin-width W] [--out FILE] [--seed S]
    otlab checksim  --protocol 2|3 [strategy/config flags] [--out FILE]

Every subcommand honors ``--seed`` (fallback: the OTLAB_SEED environment
variable, then a fixed default); identical invocations produce identical
bytes.  When ``--out`` is given a manifest JSON is written alongside the
output, and ``otlab --from-manifest FILE`` reproduces the run exactly.
Exit codes: 0 success, 1 property violation, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, checksim, numerics, protocol, security
from .seeding import substream_rng

DEFAULT_SEED = 7
EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_IO = 0, 1, 2, 3

_COMPONENT = {"table": 1, "verify": 2, "curve": 3, "checksim": 4}
VERIFY_SUITES = ("prop1", "prop2", "prop3", "lemma1", "thm3", "infodelta", "examples")


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("OTLAB_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _write_with_manifest(out: Path, payload: str, subcommand: str, params: dict) -> None:
    out = Path(out)
    out.write_text(payload)
    manifest = {
        "artifact_version": __version__,
        "outputs": [str(out)],
        "parameters": params,
        "seed": params["seed"],
        "subcommand": subcommand,
    }
    Path(str(out) + ".manifest.json").write_text(_dumps(manifest) + "\n")


def _random_params(rng: np.random.Generator) -> security.CheatParams:
    return security.CheatParams.from_squares(*rng.dirichlet([1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def run_table(params: dict) -> int:
    x, y, n, seed = params["x"], params["y"], params["n"], params["seed"]
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream_rng(seed, _COMPONENT["table"])
    lines = []
    e_total = 0
    correct = 0
    for _ in range(n):
        table, _ = protocol.run_honest(x, y, rng)
        e_total += table.e
        correct += int(table.correlation_ok)
        lines.append(_dumps({"e": table.e, "f": table.f, "x": table.x, "y": table.y}))
    summary = {
        "bias_e": e_total / n,
        "correctness": correct / n,
        "n": n,
        "seed": seed,
        "x": x,
        "y": y,
    }
    payload = "\n".join(lines + [_dumps({"summary": summary})]) + "\n"
    if params.get("out"):
        _write_with_manifest(Path(params["out"]), payload, "table", params)
        print(_dumps({"summary": summary}))
    else:
        sys.stdout.write(payload)
    return EXIT_OK if summary["correctness"] == 1.0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_prop1(samples: int, seed: int) -> dict:
    """Same-measurement information sums stay below one bit."""
    rng = substream_rng(seed, _COMPONENT["verify"], 1)
    violations, min_margin = 0, np.inf
    for _ in range(samples):
        params = _random_params(rng)
        povm = numerics.random_povm(3, int(rng.integers(3, 8)), rng, rank=1)
        info = {label: numerics.mutual_information(
            security.returned_ensemble(params, label), povm)
            for label in ("y", "r", "yxr")}
        margins = (1.0 - (info["y"] + info["r"]),
                   1.0 - (info["y"] + info["yxr"]),
                   1.0 - (info["y"] + max(info["r"], info["yxr"])))
        min_margin = min(min_margin, *margins)
        violations += int(any(m < -1e-9 for m in margins))
    return {"min_margin": float(min_margin), "samples": samples, "violations": violations}


def _suite_prop2(samples: int, seed: int) -> dict:
    """Guessing-probability circle constraints, plus the equality locus."""
    rng = substream_rng(seed, _COMPONENT["verify"], 2)
    squares = rng.dirichlet([1.0, 1.0, 1.0], size=samples)
    a, b, c = (np.sqrt(squares[:, i]) for i in range(3))
    lhs1 = (a * c) ** 2 + (a * b) ** 2
    lhs2 = (b * c) ** 2 + (a * b) ** 2
    violations = int(np.sum(lhs1 > 0.25 + 1e-12) + np.sum(lhs2 > 0.25 + 1e-12))

    from scipy.optimize import minimize_scalar

    def neg_radius(a2: float) -> float:
        p = security.CheatParams.from_squares(a2, (1 - a2) / 2, (1 - a2) / 2)
        g = security.guess_probs(p)
        return -((g.p_r - 0.5) ** 2 + (g.p_y - 0.5) ** 2)

    res = minimize_scalar(neg_radius, bounds=(1e-9, 1 - 1e-9), method="bounded",
                          options={"xatol": 1e-12})
    return {
        "equality_a2": float(res.x),
        "max_lhs": float(max(lhs1.max(), lhs2.max())),
        "samples": samples,
        "violations": violations,
    }


def _suite_prop3(samples: int, seed: int) -> dict:
    """Binary-entropy tradeoff bounds over random amplitude triples."""
    rng = substream_rng(seed, _COMPONENT["verify"], 3)
    squares = rng.dirichlet([1.0, 1.0, 1.0], size=samples)
    chi_y, chi_r, chi_yxr = security._triple_from_squares(
        squares[:, 0], squares[:, 1], squares[:, 2])
    min_margin, violations, applicable = np.inf, 0, 0
    for anchor, others in ((chi_r, (chi_y, chi_yxr)), (chi_yxr, (chi_r, chi_y))):
        delta = 1.0 - anchor
        mask = delta < 0.5
        applicable += int(mask.sum())
        if not mask.any():
            continue
        bound = security.binary_entropy(delta[mask])
        for other in others:
            margin = bound - other[mask]
            min_margin = min(min_margin, float(margin.min()))
            violations += int(np.sum(margin < -1e-9))
    return {"applicable": applicable, "min_margin": float(min_margin),
            "samples": samples, "violations": violations}


def _suite_lemma1(samples: int, seed: int, params_per_povm: int = 10) -> dict:
    """Qubit reduction: exact statistics preservation and the one-bit cap."""
    rng = substream_rng(seed, _COMPONENT["verify"], 4)
    tetra = np.stack([op.matrix for op in security.tetrahedron_states()])
    max_dev, max_mi, violations = 0.0, 0.0, 0
    for _ in range(samples):
        n_out = int(rng.integers(3, 8))
        # Rank-1 outcomes are the informative extreme; mix them with full rank.
        rank = 1 if rng.random() < 0.5 else 3
        povm = numerics.random_povm(3, n_out, rng, real=True, rank=rank)
        elements3 = np.stack(povm.elements)
        for _ in range(params_per_povm):
            params = _random_params(rng)
            states3 = security.cheat_state_vectors(params)
            probs3 = np.einsum("si,nij,sj->sn", states3, elements3, states3).real
            reduced = security.lemma1_reduce(povm, params, variant="exact")
            elements2 = np.stack(reduced.elements)
            probs2 = np.einsum("njk,skj->sn", elements2, tetra).real
            dev = float(np.abs(probs3 - probs2).max())
            joint_mi = numerics.classical_mutual_information(0.25 * probs2)
            max_dev = max(max_dev, dev)
            max_mi = max(max_mi, joint_mi)
            violations += int(dev > 1e-10 or joint_mi > 1.0 + 1e-9)
            # The PSD variant must always be a bona fide POVM.
            psd_image = security.lemma1_reduce(povm, params, variant="psd")
            violations += int(not psd_image.is_psd)
    return {"max_joint_mi": max_mi, "max_statistics_deviation": max_dev,
            "samples": samples, "violations": violations}


def _suite_thm3(samples: int, seed: int) -> dict:
    """Guessing-probability inequality extreme points."""
    report = security.theorem3_report()
    checks = {
        "lhs_eq17": abs(report.lhs_eq17 - 2.0) <= 1e-12,
        "lhs_eq18": abs(report.lhs_eq18 - 2.0) <= 1e-12,
        "p_b": abs(report.p_b - 0.75) <= 1e-12,
        "p_b_prime": abs(report.p_b_prime - 0.75) <= 1e-12,
        "p_a": abs(report.p_a - 0.5) <= 1e-12,
    }
    return {
        "lhs_eq17": report.lhs_eq17,
        "lhs_eq18": report.lhs_eq18,
        "p_a": report.p_a,
        "p_ar": report.p_ar,
        "p_ay": report.p_ay,
        "p_b": report.p_b,
        "p_b_prime": report.p_b_prime,
        "samples": samples,
        "violations": sum(1 for ok in checks.values() if not ok),
    }


def _suite_infodelta(samples: int, seed: int) -> dict:
    grid = np.linspace(0.001, 0.099, max(2, samples))
    report = security.infodelta_check(grid)
    return {
        "min_margin": report.min_margin,
        "samples": len(report.rows),
        "violations": sum(0 if row.ok else 1 for row in report.rows),
    }


def _suite_examples(samples: int, seed: int) -> dict:
    """Example measurement identities on parameter grids."""
    violations, worst = 0, 0.0
    alphas = np.linspace(0.0, np.pi / 2, max(2, samples))
    for alpha in alphas:
        params = security.CheatParams.from_alpha(alpha)
        povm = security.example1_povm(alpha)
        i_y = numerics.mutual_information(security.returned_ensemble(params, "y"), povm)
        i_r = numerics.mutual_information(security.returned_ensemble(params, "r"), povm)
        dev = max(abs(i_y - np.cos(alpha) ** 2), abs(i_y + i_r - 1.0))
        worst = max(worst, dev)
        violations += int(dev > 1e-10)
    a_grid = np.linspace(0.05, 0.95, max(2, samples // 2))
    for a_val, theta in zip(a_grid, np.linspace(0.1, 1.4, len(a_grid))):
        b_prime = np.sqrt(1 - a_val ** 2)
        params = security.CheatParams(a_val, b_prime * np.cos(theta), b_prime * np.sin(theta))
        povm = security.example1_povm(theta)
        i_y = numerics.mutual_information(security.returned_ensemble(params, "y"), povm)
        i_r = numerics.mutual_information(security.returned_ensemble(params, "r"), povm)
        dev = abs(security.example3_value(a_val) - (i_y + i_r))
        worst = max(worst, dev)
        violations += int(dev > 1e-9)
    center = abs(security.example3_value(1 / np.sqrt(2)) - 1.0)
    worst = max(worst, center)
    violations += int(center > 1e-10)
    return {"max_deviation": float(worst), "samples": samples, "violations": violations}


_SUITES = {
    "prop1": _suite_prop1,
    "prop2": _suite_prop2,
    "prop3": _suite_prop3,
    "lemma1": _suite_lemma1,
    "thm3": _suite_thm3,
    "infodelta": _suite_infodelta,
    "examples": _suite_examples,
}


def run_verify(params: dict) -> int:
    suite, samples, seed = params["suite"], params["samples"], params["seed"]
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    report = _SUITES[suite](samples, seed)
    report.update({"seed": seed, "suite": suite})
    payload = _dumps(report) + "\n"
    if params.get("out"):
        _write_with_manifest(Path(params["out"]), payload, "verify", params)
    print(payload, end="")
    return EXIT_OK if report["violations"] == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def run_curve(params: dict) -> int:
    n_samples, bin_width, seed = params["n_samples"], params["bin_width"], params["seed"]
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    rng = substream_rng(seed, _COMPONENT["curve"])
    curve = security.tradeoff_curve(n_samples, bin_width, rng)
    rows = ["bin_center,max_chi_y"]
    rows.extend(f"{center!r},{value!r}" for center, value in curve.bins)
    csv_payload = "\n".join(rows) + "\n"

    envelope_violations = 0
    for center, value in curve.bins:
        left = center - bin_width / 2.0
        if left >= 0.5 and value > security.binary_entropy(1.0 - left) + 1e-9:
            envelope_violations += 1
    sq = curve.argmax.squares
    summary = {
        "analytic_max": security.MAX_HOLEVO_SUM,
        "argmax": {"a2": float(sq[0]), "b2": float(sq[1]), "c2": float(sq[2])},
        "bin_width": bin_width,
        "envelope_violations": envelope_violations,
        "max_sum": curve.max_sum,
        "n_bins": len(curve.bins),
        "n_samples": n_samples,
        "seed": seed,
    }
    violations = envelope_violations + int(curve.max_sum > security.MAX_HOLEVO_SUM + 1e-6)
    if params.get("out"):
        _write_with_manifest(Path(params["out"]), csv_payload, "curve", params)
    else:
        sys.stdout.write(csv_payload)
    print(_dumps({"summary": summary}))
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# checksim
# ---------------------------------------------------------------------------

def _alice_from_params(params: dict) -> checksim.AliceStrategy:
    name = params["alice"]
    if name == "honest":
        return checksim.AliceStrategy.honest()
    if name == "learn-y":
        return checksim.AliceStrategy.learn_y()
    if name == "param":
        if params.get("alpha") is not None:
            triple = security.CheatParams.from_alpha(params["alpha"])
        elif all(params.get(key) is not None for key in ("a", "b", "c")):
            triple = security.CheatParams(params["a"], params["b"], params["c"])
        else:
            raise ValueError("--alice param needs --alpha or all of --a --b --c")
        return checksim.AliceStrategy.param(triple)
    if name == "mix":
        phi = params.get("phi", 0.5)
        if not (0.0 <= phi <= 1.0):
            raise ValueError("phi must be in [0, 1]")
        return checksim.AliceStrategy.per_instance_mix([
            (phi, checksim.AliceStrategy.learn_y()),
            (1.0 - phi, checksim.AliceStrategy.honest()),
        ])
    raise ValueError(f"unknown alice strategy {name!r}")


def _bob_from_params(params: dict) -> checksim.BobStrategy:
    name = params["bob"]
    if name == "honest":
        return checksim.BobStrategy.honest()
    if name == "computational":
        return checksim.BobStrategy.computational_basis()
    if name == "phase-noise":
        return checksim.BobStrategy.phase_noise(params.get("angle", 0.0))
    raise ValueError(f"unknown bob strategy {name!r}")


def run_checksim(params: dict) -> int:
    seed = params["seed"]
    if params["protocol"] == 2:
        # Protocol 2 has an honest receiver and no sender-side check.
        for key, flag, unused in (("bob", "--bob", "honest"), ("k_alice", "--k-alice", 0),
                                  ("threshold_alice", "--threshold-alice", 0)):
            if params.get(key, unused) != unused:
                raise ValueError(f"{flag} applies to --protocol 3 only")
    config = checksim.CheckConfig(
        m=params["m"], k_bob=params["k"], threshold_bob=params["threshold"],
        k_alice=params.get("k_alice", 0),
        threshold_alice=params.get("threshold_alice", 0),
        trials=params["trials"], seed=seed, c1=params.get("c1", 1.0))
    alice = _alice_from_params(params)
    rng = substream_rng(seed, _COMPONENT["checksim"])
    if params["protocol"] == 2:
        report = checksim.run_protocol2(config, alice, rng)
        reports = {"bob": report}
    else:
        bob = _bob_from_params(params)
        bob_report, alice_report = checksim.run_protocol3(config, alice, bob, rng)
        reports = {"alice": alice_report, "bob": bob_report}
    aggregate = {
        side: {
            "abort_ci": [float(r.abort_ci[0]), float(r.abort_ci[1])],
            "abort_probability": r.abort_probability,
            "extras": {key: float(val) for key, val in r.extras.items()},
            "mean_failures": r.mean_failures,
        }
        for side, r in reports.items()
    }
    summary = {"aggregate": aggregate, "protocol": params["protocol"], "seed": seed}
    if params.get("out"):
        full = {"config": {k: v for k, v in params.items() if k != "out"},
                "reports": {side: r.to_dict() for side, r in reports.items()},
                "summary": summary}
        _write_with_manifest(Path(params["out"]), _dumps(full) + "\n", "checksim", params)
    print(_dumps({"summary": summary}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_HANDLERS = {"table": run_table, "verify": run_verify,
             "curve": run_curve, "checksim": run_checksim}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="otlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--from-manifest", type=Path, default=None,
                        help="replay a previous run from its manifest file")
    sub = parser.add_subparsers(dest="subcommand")

    p_table = sub.add_parser("table", help="honest one-time-table generation runs")
    p_table.add_argument("--x", type=int, required=True, choices=(0, 1))
    p_table.add_argument("--y", type=int, required=True, choices=(0, 1))
    p_table.add_argument("--n", type=int, default=1000)
    p_table.add_argument("--seed", type=int, default=None)
    p_table.add_argument("--out", type=Path, default=None)

    p_verify = sub.add_parser("verify", help="run a property-sweep suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", type=Path, default=None)

    p_curve = sub.add_parser("curve", help="Haar-sampled Holevo tradeoff curve")
    p_curve.add_argument("--n-samples", type=int, default=100_000)
    p_curve.add_argument("--bin-width", type=float, default=0.01)
    p_curve.add_argument("--seed", type=int, default=None)
    p_curve.add_argument("--out", type=Path, default=None)

    p_check = sub.add_parser("checksim", help="Monte Carlo check-and-abort runs")
    p_check.add_argument("--protocol", type=int, choices=(2, 3), default=2)
    p_check.add_argument("--alice", choices=("honest", "learn-y", "param", "mix"),
                         default="honest")
    p_check.add_argument("--bob", choices=("honest", "computational", "phase-noise"),
                         default="honest", help="receiver strategy (protocol 3 only)")
    p_check.add_argument("--alpha", type=float, default=None,
                         help="parameter of the extremal cheat family")
    p_check.add_argument("--a", type=float, default=None)
    p_check.add_argument("--b", type=float, default=None)
    p_check.add_argument("--c", type=float, default=None)
    p_check.add_argument("--phi", type=float, default=0.5,
                         help="cheating fraction for the mix strategy")
    p_check.add_argument("--angle", type=float, default=0.0)
    p_check.add_argument("--m", type=int, default=100)
    p_check.add_argument("--k", "--k-bob", dest="k", type=int, default=20)
    p_check.add_argument("--k-alice", type=int, default=0)
    p_check.add_argument("--threshold", type=int, default=0)
    p_check.add_argument("--threshold-alice", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=1000)
    p_check.add_argument("--c1", type=float, default=1.0)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--out", type=Path, default=None)
    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    params = {key: val for key, val in vars(args).items()
              if key not in ("from_manifest", "subcommand")}
    params["seed"] = _resolve_seed(params.get("seed"))
    if params.get("out") is not None:
        params["out"] = str(params["out"])
    return params


def _manifest_run(manifest, parser: argparse.ArgumentParser) -> tuple:
    """``(subcommand, parameters)`` of a manifest, checked before dispatch.

    The parameters must carry exactly the keys a fresh parse of the
    subcommand produces.
    """
    subcommand = manifest.get("subcommand") if isinstance(manifest, dict) else None
    if subcommand not in _HANDLERS:
        raise ValueError(f"manifest names no known subcommand: {subcommand!r}")
    params = manifest.get("parameters")
    if not isinstance(params, dict):
        raise ValueError("manifest parameters must be a JSON object")
    required = {"table": ["--x", "0", "--y", "0"], "verify": [VERIFY_SUITES[0]]}
    expected = set(_params_from_args(parser.parse_args([subcommand,
                                                        *required.get(subcommand, [])])))
    if set(params) != expected:
        missing, extra = sorted(expected - set(params)), sorted(set(params) - expected)
        raise ValueError(f"manifest parameters for {subcommand}: missing {missing}, "
                         f"unexpected {extra}")
    return subcommand, params


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        if args.from_manifest is not None:
            try:
                manifest = json.loads(Path(args.from_manifest).read_text())
            except OSError as exc:
                print(f"otlab: cannot read manifest: {exc}", file=sys.stderr)
                return EXIT_IO
            subcommand, params = _manifest_run(manifest, parser)
            return _HANDLERS[subcommand](params)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return _HANDLERS[args.subcommand](_params_from_args(args))
    except ValueError as exc:
        print(f"otlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"otlab: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
