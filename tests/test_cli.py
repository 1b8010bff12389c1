import dataclasses
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import otlab
from otlab import checksim, cli, protocol, security, verify


def _module_env() -> dict:
    """Environment in which a child interpreter imports this otlab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_correctness_and_stream(self, capsys):
        code, out, _ = _run(capsys, ["table", "--x", "1", "--y", "1", "--n", "200", "--seed", "7"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 201
        summary = json.loads(lines[-1])["summary"]
        assert summary["correctness"] == 1.0
        records = [json.loads(line) for line in lines[:-1]]
        assert all((rec["e"] ^ rec["f"]) == 1 for rec in records)
        assert summary["bias_e"] == sum(rec["e"] for rec in records) / 200

    def test_x_zero_gives_equal_outputs(self, capsys):
        code, out, _ = _run(capsys, ["table", "--x", "0", "--y", "1", "--n", "300", "--seed", "3"])
        assert code == 0
        records = [json.loads(line) for line in out.strip().split("\n")[:-1]]
        assert all(rec["e"] == rec["f"] for rec in records)

    def test_seed_determinism(self, capsys):
        _, out1, _ = _run(capsys, ["table", "--x", "1", "--y", "0", "--n", "50", "--seed", "11"])
        _, out2, _ = _run(capsys, ["table", "--x", "1", "--y", "0", "--n", "50", "--seed", "11"])
        assert out1 == out2

    def test_records_are_sorted_key_json(self, capsys):
        for x in (0, 1):
            for y in (0, 1):
                argv = ["table", "--x", str(x), "--y", str(y), "--n", "40", "--seed", "5"]
                code, out, _ = _run(capsys, argv)
                assert code == 0
                for line in out.strip().split("\n")[:-1]:
                    record = json.loads(line)
                    assert set(record) == {"e", "f", "x", "y"}
                    assert line == json.dumps(record, sort_keys=True)

    def test_run_as_module_writes_no_stderr(self):
        proc = subprocess.run([sys.executable, "-m", "otlab.cli", "table", "--x", "0", "--y", "1",
                               "--n", "3"], capture_output=True, text=True, env=_module_env(),
                              timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 4

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("OTLAB_SEED", "321")
        _, out, _ = _run(capsys, ["table", "--x", "0", "--y", "0", "--n", "10"])
        summary = json.loads(out.strip().split("\n")[-1])["summary"]
        assert summary["seed"] == 321


class TestVerify:
    @pytest.mark.parametrize("suite,samples", [
        ("prop1", "40"), ("prop2", "5000"), ("prop3", "5000"),
        ("lemma1", "20"), ("thm3", "1"), ("infodelta", "30"), ("examples", "30"),
    ])
    def test_suites_pass(self, capsys, suite, samples):
        code, out, _ = _run(capsys, ["verify", suite, "--samples", samples, "--seed", "5"])
        report = json.loads(out)
        assert report["violations"] == 0
        assert code == 0

    def test_prop3_without_applicable_bound_reports_null_margin(self, capsys):
        code, out, _ = _run(capsys, ["verify", "prop3", "--samples", "1", "--seed", "5"])
        assert code == 0
        report = json.loads(out)
        assert report["applicable"] == 0 and report["min_margin"] is None

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, ["verify", "nonsense"])
        assert code == 2

    def test_violation_sets_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "thm3",
                            lambda samples, seed: {"violations": 2, "samples": samples})
        code, out, _ = _run(capsys, ["verify", "thm3"])
        assert code == 1
        assert json.loads(out)["violations"] == 2

    def test_incomplete_reduction_is_a_violation(self, capsys, monkeypatch):
        kernel = security.lemma1_images

        def incomplete(elements, amplitudes, variant="exact"):
            images = kernel(elements, amplitudes, variant)
            images[:, 0] += 1e-6 * np.eye(2)
            return images

        monkeypatch.setattr(security, "lemma1_images", incomplete)
        code, out, err = _run(capsys, ["verify", "lemma1", "--samples", "3", "--seed", "5"])
        assert code == 1
        assert json.loads(out)["violations"] > 0
        assert err == ""


class TestCurve:
    def test_csv_and_manifest_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        argv = ["curve", "--n-samples", "2000", "--bin-width", "0.02",
                "--seed", "9", "--out", str(out_path)]
        code, stdout, _ = _run(capsys, argv)
        assert code == 0
        text = out_path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "bin_center,max_chi_y"
        assert len(lines) <= int(1 / 0.02) + 2
        summary = json.loads(stdout)["summary"]
        assert summary["max_sum"] <= summary["analytic_max"] + 1e-6

        manifest_path = Path(str(out_path) + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["subcommand"] == "curve"
        code2, stdout2, _ = _run(capsys, ["--from-manifest", str(manifest_path)])
        assert code2 == 0
        assert out_path.read_text() == text
        assert stdout2 == stdout

    def test_envelope_counts_only_bins_right_of_one_half(self, capsys, monkeypatch):
        real = security.tradeoff_curve
        width = 0.125  # exact bin edges k/8

        def curve_with_bins(n_samples, bin_width, rng):
            curve = real(n_samples, bin_width, rng)
            bins = []
            for k in range(8):
                left = k * width
                if left < 0.5:  # far above any envelope, but never counted
                    value = 1.0
                else:  # above h(1 - left) in the bins k = 4, 6 and 7 only
                    value = security.binary_entropy(1.0 - left) + (1e-6 if k != 5 else 1e-10)
                bins.append(((k + 0.5) * width, value))
            return dataclasses.replace(curve, bins=tuple(bins))

        monkeypatch.setattr(security, "tradeoff_curve", curve_with_bins)
        code, out, err = _run(capsys, ["curve", "--n-samples", "1000", "--bin-width",
                                       str(width), "--seed", "9"])
        summary = json.loads(out.strip().split("\n")[-1])["summary"]
        assert summary["envelope_violations"] == 3
        assert summary["max_sum"] <= summary["analytic_max"]
        assert code == 1 and err == ""

    def test_too_few_samples_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["curve", "--n-samples", "10"])
        assert code == 2
        assert "n_samples" in err


class TestChecksim:
    def test_honest_runs_clean(self, capsys):
        code, out, _ = _run(capsys, ["checksim", "--protocol", "2", "--alice", "honest",
                                     "--m", "20", "--k", "10", "--trials", "500", "--seed", "2"])
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["aggregate"]["bob"]["abort_probability"] == 0.0

    def test_learn_y_abort_rate(self, capsys):
        code, out, _ = _run(capsys, ["checksim", "--protocol", "2", "--alice", "learn-y",
                                     "--m", "10", "--k", "10", "--trials", "4000", "--seed", "2"])
        assert code == 0
        prob = json.loads(out)["summary"]["aggregate"]["bob"]["abort_probability"]
        assert abs(prob - (1 - 2 ** -10)) < 0.01

    def test_protocol3_with_cheating_bob(self, capsys):
        code, out, _ = _run(capsys, ["checksim", "--protocol", "3", "--bob", "computational",
                                     "--m", "20", "--k", "0", "--k-alice", "10",
                                     "--trials", "3000", "--seed", "4"])
        assert code == 0
        agg = json.loads(out)["summary"]["aggregate"]
        assert abs(agg["alice"]["abort_probability"] - (1 - 2 ** -10)) < 0.02
        assert abs(agg["alice"]["extras"]["x_guess_rate"] - 0.75) < 0.02

    def test_inconsistent_flags_are_usage_error(self, capsys):
        code, _, err = _run(capsys, ["checksim", "--m", "5", "--k", "10"])
        assert code == 2
        assert "k_bob" in err

    def test_fractional_threshold_resolves_against_k(self, capsys, tmp_path):
        out_path = tmp_path / "check.json"
        code, _, _ = _run(capsys, ["checksim", "--alice", "learn-y", "--m", "40", "--k", "20",
                                   "--threshold", "0.25", "--trials", "100", "--seed", "3",
                                   "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["reports"]["bob"]["threshold"] == 5
        assert payload["config"]["threshold"] == 0.25

    def test_output_file_reproducible(self, capsys, tmp_path):
        out_path = tmp_path / "check.json"
        argv = ["checksim", "--protocol", "2", "--alice", "param", "--alpha", "0.6",
                "--m", "12", "--k", "6", "--trials", "300", "--seed", "8",
                "--out", str(out_path)]
        _run(capsys, argv)
        first = out_path.read_text()
        _run(capsys, argv)
        assert out_path.read_text() == first
        manifest_path = Path(str(out_path) + ".manifest.json")
        _run(capsys, ["--from-manifest", str(manifest_path)])
        assert out_path.read_text() == first


class TestErrorPaths:
    def test_missing_subcommand(self, capsys):
        code, _, _ = _run(capsys, [])
        assert code == 2

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.csv"
        code, _, _ = _run(capsys, ["curve", "--n-samples", "1000", "--out", str(target)])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["curve", "--n-samples", "1000", "--bin-width", "nan"],
        ["curve", "--n-samples", "1000", "--bin-width", "inf"],
        ["curve", "--n-samples", "1000", "--bin-width", "0"],
        ["curve", "--n-samples", "1000", "--bin-width", "-1"],
        ["checksim", "--alice", "param"],
        ["checksim", "--alice", "param", "--a", "0.6", "--b", "0.8"],
        ["checksim", "--protocol", "2", "--bob", "computational"],
        ["checksim", "--protocol", "2", "--k-alice", "3"],
        ["checksim", "--protocol", "2", "--threshold-alice", "1"],
        ["checksim", "--alice", "param", "--a", "nan", "--b", "0.5", "--c", "0.5"],
        ["checksim", "--threshold", "nan"],
        ["checksim", "--threshold", "1.5"],
        ["checksim", "--threshold", "few"],
        ["table", "--x", "2", "--y", "0"],
        ["--from-manifest", {"subcommand": "nonsense", "parameters": {}}],
        ["--from-manifest", {"parameters": {}}],
        ["--from-manifest", {"subcommand": "curve", "parameters": {"n_samples": 1000, "seed": 1,
                                                                   "out": None}}],
        ["--from-manifest", {"subcommand": "curve", "parameters": {
            "n_samples": 1000, "bin_width": 0.01, "seed": 1, "out": None, "extra": 1}}],
        ["--from-manifest", {"subcommand": "curve", "parameters": [1000, 0.01]}],
        ["--from-manifest", ["curve"]],
        ["--from-manifest", {"subcommand": "table", "parameters": {
            "x": 1, "y": 0, "n": "abc", "seed": 1, "out": None}}],
        ["--from-manifest", {"subcommand": "table", "parameters": {
            "x": 2, "y": 0, "n": 5, "seed": 1, "out": None}}],
        ["--from-manifest", {"subcommand": "table", "parameters": {
            "x": 1, "y": 0, "n": None, "seed": 1, "out": None}}],
        ["--from-manifest", {"subcommand": "curve", "parameters": {
            "n_samples": 1000, "bin_width": "wide", "seed": 1, "out": None}}],
        ["--from-manifest", {"subcommand": "verify", "parameters": {
            "suite": "-h", "samples": 5, "seed": 1, "out": None}}],
        ["curve", "--n-samples", "1000", "--bin-width", "1e-300"],
    ])
    def test_rejected_inputs_exit_2_without_traceback(self, capsys, tmp_path, argv):
        if argv[0] == "--from-manifest":
            path = tmp_path / "bad.manifest.json"
            path.write_text(json.dumps(argv[1]))
            argv = ["--from-manifest", str(path)]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert err.startswith("otlab: ")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
    @pytest.mark.parametrize("argv,target", [
        (["curve", "--n-samples", "1000"], (security, "tradeoff_curve")),
        (["verify", "prop3", "--samples", "5"], (verify.SUITES, "prop3")),
        (["table", "--x", "1", "--y", "0", "--n", "5"], (protocol, "run_honest")),
        (["checksim", "--trials", "5"], (checksim, "run_protocol2")),
    ])
    def test_oversized_request_exits_2_without_traceback(self, capsys, monkeypatch,
                                                          argv, target, message):
        # Small sizes, so only the patched library call can raise: it fails as
        # numpy does when an allocation is refused.
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise MemoryError(message)

        owner, name = target
        if isinstance(owner, dict):
            monkeypatch.setitem(owner, name, refuse)
        else:
            monkeypatch.setattr(owner, name, refuse)
        code, out, err = _run(capsys, argv)
        assert len(calls) == 1
        assert code == 2
        assert out == ""
        assert err == f"otlab: out of memory: {message or 'the requested size is too large'}\n"

    @pytest.mark.parametrize("argv", [["table", "--x", "1", "--y", "0", "--n", "5"],
                                      ["verify", "prop2", "--samples", "50"]])
    def test_manifest_replays_every_subcommand(self, capsys, tmp_path, argv):
        out_path = tmp_path / "run.out"
        code, stdout, _ = _run(capsys, argv + ["--seed", "3", "--out", str(out_path)])
        assert code == 0
        first = out_path.read_text()
        code, stdout2, _ = _run(capsys, ["--from-manifest", str(out_path) + ".manifest.json"])
        assert code == 0
        assert stdout2 == stdout
        assert out_path.read_text() == first

    def test_bad_manifest_path_is_io_error(self, capsys, tmp_path):
        code, _, _ = _run(capsys, ["--from-manifest", str(tmp_path / "nope.json")])
        assert code == 3


class TestOneParser:
    """``main`` builds its parser once per process and reuses it."""

    def test_repeated_calls_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width
        out_path = tmp_path / "run.out"
        runs = [
            ["table", "--x", "1", "--y", "1", "--n", "4", "--seed", "2"],
            ["checksim", "--protocol", "3", "--bob", "computational", "--m", "12", "--k", "3",
             "--k-alice", "4", "--trials", "50", "--seed", "5", "--out", str(out_path)],
            ["table", "--x", "2", "--y", "0"],
            ["verify", "prop1", "--samples", "3", "--seed", "1"],
            ["checksim", "--threshold", "few"],
            ["--from-manifest", str(out_path) + ".manifest.json"],
            [],
            ["checksim", "--help"],
            ["table", "--x", "0", "--y", "1", "--n", "3"],
        ]
        fresh = []
        for argv in runs:
            proc = subprocess.run([sys.executable, "-m", "otlab.cli", *argv], capture_output=True,
                                  text=True, env=_module_env(), timeout=60)
            fresh.append((proc.returncode, proc.stdout, proc.stderr, out_path.read_bytes()
                          if out_path.exists() else None))
        out_path.unlink()
        in_process = []
        for argv in runs:
            code, out, err = _run(capsys, list(argv))
            in_process.append((code, out, err, out_path.read_bytes()
                               if out_path.exists() else None))
        assert [run[0] for run in in_process] == [0, 0, 2, 0, 2, 0, 2, 0, 0]
        assert in_process == fresh


class TestImportCost:
    """Only ``verify prop2`` and ``max_holevo_sum_search`` load scipy.

    The accessible-information search iterates on arrays and leaves it out.
    """

    @staticmethod
    def _imported(argv):
        """Exit code and top-level packages imported by ``python -m otlab.cli argv``."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "otlab.cli", *argv,
                               "--seed", "4"], capture_output=True, text=True,
                              env=_module_env(), timeout=60)
        lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
        assert lines, proc.stderr
        return proc.returncode, {line.rsplit("|", 1)[-1].strip().split(".")[0] for line in lines}

    def test_import_otlab_leaves_scipy_out(self):
        proc = subprocess.run([sys.executable, "-c",
                               "import otlab, sys; assert 'scipy' not in sys.modules"],
                              capture_output=True, text=True, env=_module_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_accessible_info_search_leaves_scipy_out(self):
        script = ("import sys; from otlab import security; "
                  "params = security.CheatParams(0.5 ** 0.5, 0.5, 0.5); "
                  "ens = security.returned_ensemble(params, 'y'); "
                  "security.accessible_info_search(ens, security.SearchConfig(2, 10)); "
                  "assert 'scipy' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_module_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [
        ["table", "--x", "1", "--y", "0", "--n", "5"],
        ["checksim", "--protocol", "3", "--m", "20", "--k", "2", "--k-alice", "2",
         "--trials", "10"],
        ["curve", "--n-samples", "1000"],
        ["verify", "prop1", "--samples", "3"],
        ["verify", "lemma1", "--samples", "2"],
    ])
    def test_jobs_without_optimization_leave_scipy_out(self, argv):
        code, imported = self._imported(argv)
        assert code == 0
        assert "otlab" in imported and "scipy" not in imported

    @pytest.mark.parametrize("argv,loads_scipy", [(["verify", "prop2", "--samples", "50"], True),
                                                  (["verify", "thm3"], False)])
    def test_optimizing_suites_still_pass(self, argv, loads_scipy):
        code, imported = self._imported(argv)
        assert code == 0
        assert ("scipy" in imported) == loads_scipy


def test_package_version_matches_pyproject():
    """Manifests carry ``otlab.__version__``; the build reads pyproject.toml."""
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["version"] == otlab.__version__
