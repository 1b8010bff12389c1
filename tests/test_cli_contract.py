"""Property test of the command line contract over argv and manifest JSON.

Whatever the input, ``otlab`` exits with 0, 1, 2 or 3, prints no traceback,
and writes only strict JSON (and, for ``curve``, CSV rows of finite numbers)
to stdout.  Sizes are bounded so that every generated job stays small.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otlab import cli, verify

CONTRACT = settings(derandomize=True, deadline=None, database=None, max_examples=200,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

JUNK_TEXT = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e3", "0x10", "-0", "1.5",
                             "0.25", "1e400", " 7", "-"])
JUNK_JSON = st.one_of(st.none(), st.booleans(), JUNK_TEXT,
                      st.floats(allow_nan=True, allow_infinity=True),
                      st.lists(st.integers(-3, 3), max_size=2), st.just({"n": 1}))
SEEDS = st.integers(-(2 ** 70), 2 ** 70)


def _ints(lo, hi):
    return st.integers(lo, hi)


def _floats():
    return st.floats(allow_nan=True, allow_infinity=True)


def _thresholds():
    return st.one_of(_ints(-1, 40), st.floats(-0.5, 1.5))


# Valid-looking values per subcommand parameter; sizes bounded.
SCHEMAS = {
    "table": {"x": _ints(-1, 2), "y": _ints(0, 1), "n": _ints(-1, 50)},
    "verify": {"suite": st.sampled_from([*verify.SUITES, "nonsense"]),
               "samples": _ints(-1, 20)},
    "curve": {"n_samples": _ints(990, 5000),
              "bin_width": st.one_of(st.floats(1e-3, 2.0), _floats())},
    "checksim": {"protocol": st.sampled_from([2, 3, 3, 1]),
                 "alice": st.sampled_from(["honest", "learn-y", "param", "mix", "evil"]),
                 "bob": st.sampled_from(["honest", "honest", "computational", "phase-noise"]),
                 "alpha": st.one_of(st.none(), st.floats(-0.5, 2.0), _floats()),
                 "a": st.one_of(st.none(), st.floats(-0.1, 1.1), _floats()),
                 "b": st.one_of(st.none(), st.floats(-0.1, 1.1)),
                 "c": st.one_of(st.none(), st.floats(-0.1, 1.1)),
                 "phi": st.one_of(st.floats(-0.5, 1.5), _floats()),
                 "angle": _floats(),
                 "m": _ints(-1, 30), "k": _ints(-1, 32), "k_alice": _ints(-1, 32),
                 "threshold": _thresholds(), "threshold_alice": _thresholds(),
                 "trials": _ints(-1, 200), "c1": st.one_of(st.floats(0.1, 3.0), _floats())},
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _assert_contract(code, out, err):
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATION, cli.EXIT_USAGE, cli.EXIT_IO)
    assert "Traceback" not in err
    for line in out.splitlines():
        if line.startswith("{"):
            json.loads(line, parse_constant=_reject_constant)
        elif line != "bin_center,max_chi_y":
            assert all(math.isfinite(float(cell)) for cell in line.split(",")), line


@st.composite
def argvs(draw):
    subcommand = draw(st.sampled_from(sorted(SCHEMAS)))
    argv, positional = [subcommand], []
    for key, values in SCHEMAS[subcommand].items():
        mode = draw(st.sampled_from(["valid"] * 6 + ["junk", "omit"]))
        if mode == "omit":
            continue
        value = draw(values if mode == "valid" else JUNK_TEXT)
        if key == "suite":
            positional = ["--", value]
        elif value is not None:
            argv.append(f"--{key.replace('_', '-')}={value}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(SEEDS)}")
    return argv + positional, draw(st.booleans())


@st.composite
def manifests(draw):
    subcommand = draw(st.sampled_from(sorted(SCHEMAS)))
    params = {key: draw(values) for key, values in SCHEMAS[subcommand].items()}
    params.update(seed=draw(SEEDS), out=None)
    action = draw(st.sampled_from(["keep", "keep", "junk", "drop", "add", "rename"]))
    key = draw(st.sampled_from(sorted(set(params) - {"out"})))
    if action == "junk":
        params[key] = draw(JUNK_JSON)
    elif action == "drop":
        del params[key]
    elif action == "add":
        params[draw(st.sampled_from(["extra", "from_manifest", "k_bob", "sample"]))] = 1
    elif action == "rename":
        subcommand = draw(st.sampled_from([*sorted(SCHEMAS), "nonsense", None]))
    return {"subcommand": subcommand, "parameters": params}, draw(st.booleans())


@CONTRACT
@given(case=argvs())
def test_argv_contract(tmp_path, case):
    argv, to_file = case
    if to_file:
        argv = [argv[0], f"--out={tmp_path / 'run.out'}", *argv[1:]]
    _assert_contract(*_run(argv))


@CONTRACT
@given(case=manifests())
def test_manifest_contract(tmp_path, case):
    manifest, to_file = case
    if to_file and isinstance(manifest["parameters"], dict):
        manifest["parameters"]["out"] = str(tmp_path / "run.out")
    path = tmp_path / "case.manifest.json"
    path.write_text(json.dumps(manifest))
    _assert_contract(*_run(["--from-manifest", str(path)]))

