"""Seeded, reproducible command line front end.

Subcommands::

    otlab table     --x 1 --y 1 --n 1000 [--seed S] [--out FILE]
    otlab verify    SUITE [--samples N] [--seed S] [--out FILE]
    otlab curve     --n-samples 100000 [--bin-width W] [--out FILE] [--seed S]
    otlab checksim  --protocol 2|3 [strategy/config flags] [--out FILE]

Every subcommand honors ``--seed`` (fallback: the OTLAB_SEED environment
variable, then a fixed default), an integer in ``[0, 2**64)``; identical
invocations produce identical bytes.  When ``--out`` is given a manifest JSON is written alongside the
output, and ``otlab --from-manifest FILE`` reproduces the run exactly.
Exit codes: 0 success, 1 property violation, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, checksim, numerics, protocol, security, verify
from .seeding import COMPONENTS, master_seed, substream_rng

DEFAULT_SEED = 7
EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_IO = 0, 1, 2, 3


def _resolve_seed(value) -> int:
    return master_seed(int(os.environ.get("OTLAB_SEED", DEFAULT_SEED)) if value is None else value)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _write_with_manifest(out: Path, chunks, subcommand: str, params: dict) -> None:
    """Writes the payload ``chunks`` (an iterable of strings) to ``out``, then its manifest."""
    out = Path(out)
    with out.open("w") as handle:
        handle.writelines(chunks)
    manifest = {
        "artifact_version": __version__,
        "outputs": [str(out)],
        "parameters": params,
        "seed": params["seed"],
        "subcommand": subcommand,
    }
    Path(str(out) + ".manifest.json").write_text(_dumps(manifest) + "\n")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

# ``_LINES[x, y, r]``: the encoded record ``e = OUTCOMES[x, y, t, r] XOR t = (x AND y) XOR r``,
# ``f = r`` of each honest run, the same for either coin ``t``, all of one width.
_LINES = np.array([(_dumps({"e": int(o), "f": r, "x": x, "y": y}) + "\n").encode()
                   for (x, y, r), o in np.ndenumerate(protocol.OUTCOMES[:, :, 0])]).reshape(2, 2, 2)
_LINES.setflags(write=False)


def run_table(params: dict) -> int:
    """Honest runs of one ``(x, y)``: Bob's output bits drawn whole, records a block at a time.

    ``x`` and ``y`` are taken as the parser checked them.  A record reads
    only ``r``, since ``e = (x AND y) XOR r`` whatever Alice's coin ``t``, so
    only ``r`` is drawn, as ``protocol._fair_bits`` bytes: the head of the
    honest draw order, so the records are those ``protocol.run_honest`` gives
    on the same substream.  Each block of ``numerics.DIRICHLET_BLOCK`` runs
    is tallied and written from ``_LINES[x, y, r]`` before the next.
    ``bias_e`` and ``correctness`` are exact counts of the two-count tally,
    divided once by ``n``.
    """
    n, seed, x, y = params["n"], params["seed"], params["x"], params["y"]
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream_rng(seed, COMPONENTS["table"])
    r = protocol._fair_bits(n, rng)
    lines = _LINES[x, y]
    summary = {"n": n, "seed": seed, "x": x, "y": y}

    def payload():
        """Each block's records, then the summary line, once every block is tallied."""
        ones = 0
        for start in range(0, n, numerics.DIRICHLET_BLOCK):
            block = r[start:start + numerics.DIRICHLET_BLOCK]
            ones += int(np.count_nonzero(block))
            yield str(lines.take(block).data, "ascii")
        # Each output bit's record: ``e = OUTCOMES[x, y, 0, f]`` and ``f = r``.
        runs = [(int(protocol.OUTCOMES[x, y, 0, f]), f, count)
                for f, count in enumerate((n - ones, ones))]
        e_ones = sum(count for e, _, count in runs if e)
        agree = sum(count for e, f, count in runs if protocol.correlated(x, y, e, f))
        summary.update(bias_e=e_ones / n, correctness=agree / n)
        yield _dumps({"summary": summary}) + "\n"

    if params.get("out"):
        _write_with_manifest(Path(params["out"]), payload(), "table", params)
        sys.stdout.write(_dumps({"summary": summary}) + "\n")
    else:
        sys.stdout.writelines(payload())
    return EXIT_OK if summary["correctness"] == 1.0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify(params: dict) -> int:
    suite, samples, seed = params["suite"], params["samples"], params["seed"]
    if samples < 1:
        raise ValueError("samples must be >= 1")
    report = verify.SUITES[suite](samples, seed)
    report.update({"seed": seed, "suite": suite})
    payload = _dumps(report) + "\n"
    if params.get("out"):
        _write_with_manifest(Path(params["out"]), [payload], "verify", params)
    print(payload, end="")
    return EXIT_OK if report["violations"] == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def run_curve(params: dict) -> int:
    n_samples, bin_width, seed = params["n_samples"], params["bin_width"], params["seed"]
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    rng = substream_rng(seed, COMPONENTS["curve"])
    curve = security.tradeoff_curve(n_samples, bin_width, rng)
    rows = ["bin_center,max_chi_y"]
    rows.extend(f"{center!r},{value!r}" for center, value in curve.bins)
    csv_payload = "\n".join(rows) + "\n"

    sq = curve.argmax.squares
    summary = {
        "analytic_max": security.MAX_HOLEVO_SUM,
        "argmax": {"a2": float(sq[0]), "b2": float(sq[1]), "c2": float(sq[2])},
        "bin_width": bin_width,
        "envelope_violations": curve.envelope_violations,
        "max_sum": curve.max_sum,
        "n_bins": len(curve.bins),
        "n_samples": n_samples,
        "seed": seed,
    }
    if params.get("out"):
        _write_with_manifest(Path(params["out"]), [csv_payload], "curve", params)
    else:
        sys.stdout.write(csv_payload)
    print(_dumps({"summary": summary}))
    return EXIT_OK if curve.violations == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# checksim
# ---------------------------------------------------------------------------

def _alice_from_params(params: dict) -> checksim.AliceStrategy:
    """The sender strategy of the flags; a triple or mix flag it does not use is rejected."""
    name, alpha, phi = params["alice"], params.get("alpha"), params.get("phi", 0.5)
    abc = [params.get(key) for key in ("a", "b", "c")]
    if alpha is not None and any(v is not None for v in abc):
        raise ValueError("--alpha excludes --a --b --c")
    if name != "mix" and phi != 0.5:
        raise ValueError("--phi applies to --alice mix only")
    triple, mix = None, ()
    if alpha is not None:
        triple = security.CheatParams.from_alpha(alpha)
    elif all(v is not None for v in abc):
        triple = security.CheatParams(*abc)
    elif name == "param" or any(v is not None for v in abc):
        raise ValueError("a cheat triple needs --alpha or all of --a --b --c")
    if name == "mix":
        mix = ((phi, checksim.AliceStrategy.learn_y()), (1.0 - phi, checksim.AliceStrategy.honest()))
    # The strategy rejects a triple given to a kind other than param.
    return checksim.AliceStrategy(kind=name, params=triple, mix=mix)


def run_checksim(params: dict) -> int:
    seed = params["seed"]
    if params["protocol"] == 2:
        # Protocol 2 has an honest receiver and no sender-side check.
        for key, flag, unused in (("bob", "--bob", "honest"), ("angle", "--angle", 0.0),
                                  ("k_alice", "--k-alice", 0),
                                  ("threshold_alice", "--threshold-alice", 0)):
            if params.get(key, unused) != unused:
                raise ValueError(f"{flag} applies to --protocol 3 only")
    config = checksim.CheckConfig(
        m=params["m"], k_bob=params["k"], threshold_bob=params["threshold"],
        k_alice=params.get("k_alice", 0),
        threshold_alice=params.get("threshold_alice", 0),
        trials=params["trials"], c1=params.get("c1", 1.0))
    alice = _alice_from_params(params)
    rng = substream_rng(seed, COMPONENTS["checksim"])
    if params["protocol"] == 2:
        reports = {"bob": checksim.run_protocol2(config, alice, rng)}
    else:
        # The strategy rejects a nonzero angle for a kind other than phase-noise.
        bob = checksim.BobStrategy(kind=params["bob"], angle=params["angle"])
        bob_report, alice_report = checksim.run_protocol3(config, alice, bob, rng)
        reports = {"alice": alice_report, "bob": bob_report}
    aggregate = {side: r.summary() for side, r in reports.items()}
    summary = {"aggregate": aggregate, "protocol": params["protocol"], "seed": seed}
    if params.get("out"):
        full = {"config": {k: v for k, v in params.items() if k != "out"},
                "reports": {side: r.to_dict() for side, r in reports.items()},
                "summary": summary}
        _write_with_manifest(Path(params["out"]), [_dumps(full) + "\n"], "checksim", params)
    print(_dumps({"summary": summary}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_HANDLERS = {"table": run_table, "verify": run_verify,
             "curve": run_curve, "checksim": run_checksim}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ValueError``, reported like every other one.

    Keeps the flag table that ``_read_flags`` reads: every Action its
    ``add_argument`` calls returned, in call order, and the Action of each
    option string.
    """

    def __init__(self, *args, **kwargs):
        self.actions, self.flags = [], {}
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent: "-1e-3" would read as an unknown flag.
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.actions.append(action)
        self.flags.update(dict.fromkeys(action.option_strings, action))
        return action

    def error(self, message):
        raise ValueError(message)


def _threshold(text: str):
    """An absolute failure count, or a fraction of the checked labels in [0, 1)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otlab", description=__doc__,
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
    p_verify.add_argument("suite", choices=tuple(verify.SUITES))
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
                         help="parameter of the extremal cheat family, in [0, pi/2]")
    p_check.add_argument("--a", type=float, default=None)
    p_check.add_argument("--b", type=float, default=None)
    p_check.add_argument("--c", type=float, default=None)
    p_check.add_argument("--phi", type=float, default=0.5,
                         help="cheating fraction for the mix strategy")
    p_check.add_argument("--angle", type=float, default=0.0)
    p_check.add_argument("--m", type=int, default=100)
    p_check.add_argument("--k", "--k-bob", dest="k", type=int, default=20)
    p_check.add_argument("--k-alice", type=int, default=0)
    p_check.add_argument("--threshold", type=_threshold, default=0)
    p_check.add_argument("--threshold-alice", type=_threshold, default=0)
    p_check.add_argument("--trials", type=int, default=1000)
    p_check.add_argument("--c1", type=float, default=1.0)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--out", type=Path, default=None)
    # Each subcommand's own parser by name, for ``_parse``.
    parser.subcommands = sub.choices
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs more than a small job."""
    return build_parser()


def _read_flags(parser: _Parser, words, preset: dict):
    """The namespace ``parser`` gives ``words`` over ``preset``, or None.

    Reads ``words`` off the parser's flag table when every word is an exact
    flag followed by a value that does not start with ``-``, or one of the
    parser's positionals, every value passes its Action's ``type`` and
    ``choices``, and every required Action is given.  Every other dest takes
    its default, as in argparse.  Any other line gives None.
    """
    positionals = iter([action for action in parser.actions if not action.option_strings])
    seen = {}
    words = iter(words)
    for word in words:
        if word[:1] == "-":
            action, text = parser.flags.get(word), next(words, "-")
        else:
            action, text = next(positionals, None), word
        # A flag the table reads takes one value: help takes none, so argparse reads it.
        if action is None or action.nargs is not None or text[:1] == "-":
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        seen[action] = value
    fields = dict(preset)
    for action in parser.actions:
        if action.required and action not in seen:
            return None
        if action.default is not argparse.SUPPRESS:
            fields.setdefault(action.dest, action.default)
    fields.update((action.dest, value) for action, value in seen.items())
    return argparse.Namespace(**fields)


def _parse(argv) -> argparse.Namespace:
    """The namespace the top-level parser gives ``argv``, at a fraction of its cost.

    A line has two outcomes.  One that starts with a subcommand and that
    ``_read_flags`` reads is read off that subcommand's flag table; every
    other line goes to the top-level parser: help, abbreviations,
    ``--flag=value``, ``--``, dash-led values, unknown words, usage errors,
    ``--from-manifest``, an empty line and unknown subcommands.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.subcommands.get(argv[0]) if argv else None
    namespace = None if sub is None else _read_flags(
        sub, argv[1:], {"from_manifest": None, "subcommand": argv[0]})
    return parser.parse_args(argv) if namespace is None else namespace


def _params_from_args(args: argparse.Namespace) -> dict:
    params = {key: val for key, val in vars(args).items()
              if key not in ("from_manifest", "subcommand")}
    params["seed"] = _resolve_seed(params.get("seed"))
    if params.get("out") is not None:
        params["out"] = str(params["out"])
    return params


def _manifest_run(manifest) -> tuple:
    """``(subcommand, parameters)`` of a manifest, parsed as a command line.

    Each parameter is turned back into its flag (null: flag left unset), so
    its value passes the same type and choice checks as on the command line.
    The parameters must equal what that parse produces.
    """
    subcommand = manifest.get("subcommand") if isinstance(manifest, dict) else None
    if subcommand not in _HANDLERS:
        raise ValueError(f"manifest names no known subcommand: {subcommand!r}")
    params = manifest.get("parameters")
    if not isinstance(params, dict):
        raise ValueError("manifest parameters must be a JSON object")
    argv = [subcommand]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in params.items()
             if key != "suite" and value is not None]
    if params.get("suite") is not None:
        argv += ["--", str(params["suite"])]
    try:
        parsed = _params_from_args(_parse(argv))
    except ValueError as exc:
        raise ValueError(f"manifest parameters for {subcommand}: {exc}") from None
    differ = sorted(key for key in set(params) | set(parsed)
                    if key not in params or key not in parsed or params[key] != parsed[key])
    if differ:
        raise ValueError(f"manifest parameters for {subcommand} differ from their parse: {differ}")
    return subcommand, parsed


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        if args.from_manifest is not None:
            try:
                manifest = json.loads(Path(args.from_manifest).read_text())
            except OSError as exc:
                print(f"otlab: cannot read manifest: {exc}", file=sys.stderr)
                return EXIT_IO
            subcommand, params = _manifest_run(manifest)
            return _HANDLERS[subcommand](params)
        if args.subcommand is None:
            _parser().print_usage(sys.stderr)
            return EXIT_USAGE
        return _HANDLERS[args.subcommand](_params_from_args(args))
    except SystemExit as exc:  # --help printed and exited
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except ValueError as exc:
        print(f"otlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size too large to allocate is a usage error
        print(f"otlab: out of memory: {str(exc) or 'the requested size is too large'}",
              file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # a size beyond numpy's 64-bit integers
        print(f"otlab: size too large: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"otlab: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
