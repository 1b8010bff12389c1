import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otlab import checksim, cli, numerics, protocol, security, verify
from otlab.seeding import COMPONENTS, substream_rng


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

    @pytest.mark.parametrize("argv", [["table", "--x", "0", "--y", "0", "--n", "10"],
                                      ["verify", "thm3"]])
    def test_env_seed_out_of_range_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("OTLAB_SEED", "-1")
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "otlab: seed must be in [0, 2**64), got -1\n"


_BLOCK = numerics.DIRICHLET_BLOCK


def _honest_table_payload(x, y, n, seed) -> str:
    """The table payload as built from ``run_honest`` on ``np.full(n, x)``, whole."""
    rng = substream_rng(seed, COMPONENTS["table"])
    table = protocol.run_honest(np.full(n, x), y, rng)[0]
    lines = {(e, f): json.dumps({"e": e, "f": f, "x": x, "y": y}, sort_keys=True) + "\n"
             for e in (0, 1) for f in (0, 1)}
    summary = {"bias_e": float(np.mean(table.e)),
               "correctness": float(np.mean(table.correlation_ok)),
               "n": n, "seed": seed, "x": x, "y": y}
    records = "".join(lines[e, f] for e, f in zip(table.e.tolist(), table.f.tolist()))
    return records + json.dumps({"summary": summary}, sort_keys=True) + "\n"


@pytest.mark.parametrize("seed", [1, 2718, 18446744073709551615])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("x,y", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_table_blocks_match_the_whole_honest_run(capsys, tmp_path, x, y, n, seed):
    want = _honest_table_payload(x, y, n, seed)
    argv = ["table", "--x", str(x), "--y", str(y), "--n", str(n), "--seed", str(seed)]
    assert _run(capsys, argv) == (0, want, "")
    out_path = tmp_path / "table.jsonl"
    assert _run(capsys, argv + ["--out", str(out_path)]) == (0, want.rsplit("\n", 2)[1] + "\n", "")
    assert out_path.read_text() == want


def test_table_lines_are_the_encoded_born_law_of_each_coin_pair():
    assert cli._LINES.shape == (2, 2, 4) and not cli._LINES.flags.writeable
    for x, y, t, r in itertools.product((0, 1), repeat=4):
        record = {"e": int(protocol.OUTCOMES[x, y, t, r] ^ t), "f": r, "x": x, "y": y}
        assert cli._LINES[x, y, 2 * t + r] == (cli._dumps(record) + "\n").encode()


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

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("suite", sorted(verify.SUITES))
    def test_samples_echo_the_request(self, capsys, suite, samples):
        code, out, _ = _run(capsys, ["verify", suite, "--samples", str(samples), "--seed", "5"])
        assert code == 0
        assert json.loads(out)["samples"] == samples

    def test_prop3_without_applicable_bound_reports_null_margin(self, capsys, monkeypatch):
        # At squares (1, 0, 0) every chi is 0, so neither anchor's bound applies.
        monkeypatch.setattr(numerics, "dirichlet_blocks",
                            lambda rng, shape, n: iter([np.array([[1.0, 0.0, 0.0]])]))
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
        kernel = security._lemma1_bloch

        def incomplete(elements, amplitudes, variant="exact"):
            # 1e-6 times the identity added to every image of the first row.
            t, bloch = kernel(elements, amplitudes, variant)
            t[:, 0] += 1e-6
            return t, bloch

        monkeypatch.setattr(security, "_lemma1_bloch", incomplete)
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

    def test_samples_beyond_int64_are_usage_error(self):
        # In a child process with a timeout: an unchecked count would draw forever.
        proc = subprocess.run([sys.executable, "-m", "otlab.cli", "curve", "--n-samples",
                               str(2**63)], capture_output=True, text=True,
                              env=_module_env(), timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("otlab: n_samples") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


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

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.1e-2", "-1e+0"])
    def test_negative_value_in_exponent_form(self, capsys, value):
        # Read as the number it is, as ``--angle=value`` and the decimal form are.
        argv = "checksim --protocol 3 --bob phase-noise --k-alice 5 --trials 50 --seed 3".split()
        decimal = _run(capsys, argv + ["--angle", str(float(value))])
        assert decimal[0] == 0
        assert _run(capsys, argv + ["--angle", value]) == decimal
        assert _run(capsys, argv + [f"--angle={value}"]) == decimal

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

    # Any nonnegative integer is a threshold, however large.
    @pytest.mark.parametrize("argv", [
        ["checksim", "--protocol", "2", "--alice", "learn-y", "--threshold",
         "100000000000000000000000"],
        ["checksim", "--protocol", "3", "--bob", "computational", "--k-alice", "20",
         "--threshold-alice", "100000000000000000000000"],
    ])
    def test_huge_threshold_never_aborts(self, capsys, argv):
        code, out, _ = _run(capsys, argv + ["--trials", "50"])
        assert code == 0
        aggregate = json.loads(out)["summary"]["aggregate"]
        side = "bob" if "--threshold" in argv else "alice"
        assert aggregate[side]["abort_probability"] == 0.0

    # Every size fits in int64, but the labels of all trials in one group do
    # not: input guesses are counted in Python ints and drawn in pieces.
    @pytest.mark.parametrize("m,k_alice,trials", [
        ("4611686018427387904", "4", "3"),
        ("9223372036854775807", "4", "2"),
        ("4611686018427387904", "4611686018427387904", "3"),  # Alice's own labels
    ])
    def test_protocol3_guess_groups_beyond_int64(self, capsys, m, k_alice, trials):
        code, out, err = _run(capsys, ["checksim", "--protocol", "3", "--bob", "computational",
                                       "--m", m, "--k", "0", "--k-alice", k_alice,
                                       "--trials", trials])
        assert code == 0 and err == ""
        for report in json.loads(out)["summary"]["aggregate"].values():
            assert 0.0 <= report["extras"]["x_guess_rate"] <= 1.0

    # One side checks nothing: the m - 4 tables it leaves unchecked pass int64.
    @pytest.mark.parametrize("k,k_alice", [("0", "4"), ("4", "0")])
    def test_protocol3_one_checking_side_beyond_int64(self, capsys, k, k_alice):
        code, out, err = _run(capsys, ["checksim", "--protocol", "3",
                                       "--m", "99999999999999999999999", "--k", k,
                                       "--k-alice", k_alice, "--trials", "2"])
        assert code == 0 and err == ""
        assert set(json.loads(out)["summary"]["aggregate"]) == {"alice", "bob"}

    # Both sides check: J's law and the tables left unchecked pass int64.  In
    # the last, J's support ends at 2**63 - 1 (a numpy arange that stops at
    # 2**63 is float64) and the labels checked can number 2**63.
    @pytest.mark.parametrize("m,k,k_alice", [
        ("1180591620717411303424", "4", "4"),
        ("99999999999999999999999", "3", "4"),
        ("9223372036854775808", "9223372036854775807", "9223372036854775807"),
    ], ids=["2**70", "10**23", "2**63"])
    def test_protocol3_both_checking_sides_beyond_int64(self, capsys, tmp_path, m, k, k_alice):
        argv = ["checksim", "--protocol", "3", "--m", m, "--k", k, "--k-alice", k_alice,
                "--trials", "3"]
        for extra in ([], ["--out", str(tmp_path / "payload.json")]):
            code, out, err = _run(capsys, argv + extra)
            assert code == 0 and err == ""
            assert set(json.loads(out)["summary"]["aggregate"]) == {"alice", "bob"}
        cells = json.loads((tmp_path / "payload.json").read_text())["reports"]["bob"]["cells"]
        assert sum(cell["trials"] for cell in cells) == 3

    def test_protocol3_check_counts_summing_beyond_int64(self, capsys):
        # k_bob + k_alice passes 2**63 - 1; the labels checked by either side never pass m.
        code, out, err = _run(capsys, ["checksim", "--protocol", "3",
                                       "--m", "9223372036854775807",
                                       "--k", "9223372036854775807", "--k-alice", "4",
                                       "--trials", "2"])
        assert code == 0 and err == ""
        assert set(json.loads(out)["summary"]["aggregate"]) == {"alice", "bob"}

    # Populations that numpy's hypergeometric sampler refuses (it needs both
    # below 10**9): J's law is built on its support alone.
    @pytest.mark.parametrize("m,bob,trials", [
        ("1000000000000", "honest", "100"),
        ("4611686018427387904", "honest", "100"),
        ("1000000000000", "computational", "2"),   # support larger than the trials
    ])
    def test_protocol3_random_overlap_beyond_numpy_populations(self, capsys, m, bob, trials):
        argv = ["checksim", "--protocol", "3", "--bob", bob, "--m", m, "--k", "20",
                "--k-alice", "20", "--trials", trials, "--seed", "3"]
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""
        assert set(json.loads(out)["summary"]["aggregate"]) == {"alice", "bob"}
        assert _run(capsys, argv) == (code, out, err)

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



# sha256 of stdout: the checksim digests recorded with otlab 0.11.0, the others
# with 0.10.0 and unchanged since, except the two ``--bob computational`` pins
# (this stdout one and the ``--out`` one below), re-recorded with 0.12.0 when
# the input-guess total became one binomial draw, and this stdout one again
# with 0.13.0, when random-overlap runs began drawing (J, F_b, F_a) as two
# histograms of their joint law, and with 0.14.0, when that draw stopped
# shuffling before the input-guess total.  The two checksim --out pins were
# re-recorded with 0.14.0 too, when trial order became the report's, and
# with 0.17.0, when --out began writing cells with counts.  The two
# protocol-3 pins off the joint table whose checks can fail were recorded with
# 0.16.0, when that path became one binomial chain.  The lemma1 pin was
# re-recorded with 0.20.0, when its POVMs began to be drawn a block at a
# time.  The two checks-sparse protocol-3 pins were recorded with 0.20.0,
# before every check run became one chain of two links.  A refactor that moves no
# payload byte and no RNG stream keeps these; one that does bumps __version__
# and re-records.
_PAYLOAD_PINS = [
    ("table --x 0 --y 0 --n 64 --seed 7",
     "3681634b0e67d0d4a069f6f9cd3eed56fdeaaa87ad215c86d8ec13cc99d9db82"),
    ("table --x 0 --y 1 --n 64 --seed 7",
     "4ad832679f16390f0ebc49a3314ba8348d774b0a77c9ca719c4d8227d179e3a6"),
    ("table --x 1 --y 0 --n 64 --seed 7",
     "6508e39f4acb180951082441bba84ceccb4ecad467f3dd0f8503c09c58ee9edf"),
    ("table --x 1 --y 1 --n 64 --seed 7",
     "96b51d65ccb1ed382c7b76940c3e6bd927997883f56b233486469c17d300126b"),
    ("checksim --protocol 3 --bob computational --m 30 --k 5 --k-alice 7 --threshold 1 "
     "--threshold-alice 2 --trials 300 --seed 11",
     "7c61f17b55e449fbaeee53f8c5e53a9e995b7097739c86b8670b7a45dc968c2b"),
    # Off the joint table, both sides' checks can fail: a random overlap (288
    # cells for 50 trials) and a fixed one (Bob checks every label).
    ("checksim --protocol 3 --bob computational --m 30 --k 5 --k-alice 7 --threshold 1 "
     "--threshold-alice 1 --trials 50 --seed 5",
     "4d8274016786d130d386b52fb363381cc913852016eb6ab18185bcf83532902d"),
    ("checksim --protocol 3 --bob phase-noise --angle 1.2 --m 50 --k 50 --k-alice 30 "
     "--threshold 1 --threshold-alice 1 --trials 300 --seed 5",
     "415d55672521922138a2c72102c7311033cf82f0d381c00a2c0099e5f77ba70d"),
    ("verify thm3 --seed 7",
     "b6971ba032f3223572425c5f954cb138b3ca7b9000f7402f5efd46612c313dcf"),
    # Re-recorded with 0.23.0, when lemma1 began to check its images in Bloch
    # form off the POVMs' frames: the last bits of its two maxima moved.
    ("verify lemma1 --samples 20 --seed 7",
     "4da4669f3df069ed306d84e281d3293a55432e637dfb277920e22f84e1d61b5c"),
    # The largest and smallest table jobs of the benchmark.
    ("table --x 1 --y 1 --n 1750 --seed 9191",
     "490c87988472b11450d5395063b4219eac00da7780ccd4e2598fb584bfc8acc7"),
    ("table --x 0 --y 0 --n 1000 --seed 31337",
     "c9a49f19c6d6b000e43c5c8a1a80f0e7d4364dfe3a5fbd792a1609c4c62f10f3"),
    # A checks-sparse and a checks-dense protocol 2 job of the benchmark.
    ("checksim --protocol 2 --alice learn-y --m 200 --k 20 --threshold 1 --trials 4000 "
     "--seed 9191",
     "530e782ad2deb1240b7cf8eef51339ceb25c4ae3bdc5e6f1850194019806ed34"),
    ("checksim --protocol 2 --alice mix --phi 0.5 --m 12 --k 12 --trials 5000 --seed 31337",
     "4a29c4d4f3191f0812a7fcfa46dd6b1be798e1da979c46e289665d8ce1e6135e"),
    # Two checks-sparse protocol 3 jobs, where both sides check and can fail.
    ("checksim --protocol 3 --bob computational --m 200 --k 20 --k-alice 20 --threshold 1 "
     "--threshold-alice 1 --trials 4000 --seed 1",
     "92e403c55bea9722453539be953b06357c617ba68efb0930f1ea25b12638279c"),
    ("checksim --protocol 3 --bob phase-noise --angle 1.2 --m 200 --k 20 --k-alice 20 "
     "--threshold 2 --threshold-alice 2 --trials 4000 --seed 1",
     "17ebdc154cba79980c61bd4893dbf44a273a3bfcc6325616a5f375dfae615f19"),
    # A table of three record blocks, recorded with 0.22.0 when it was still written whole.
    ("table --x 1 --y 1 --n 16385 --seed 7",
     "a57666e9f7552724221643c7e0aa2e803179a77169b552e8292d8fbf4062e228"),
]


@pytest.mark.parametrize("argv,digest", _PAYLOAD_PINS, ids=[a for a, _ in _PAYLOAD_PINS])
def test_payload_matches_recorded_digest(capsys, argv, digest):
    code, out, _ = _run(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Full --out payloads: checksim's, each cell's estimates included, for a
# fractional threshold with c1 != 1 and for a protocol 3 run whose Bob side
# checks nothing (k = 0), so its cells hold null estimates; and table's for
# every (x, y) at one run and at the benchmark's largest size.  The two
# checksim pins were re-recorded with 0.17.0, when --out stopped writing one
# record per trial in a drawn trial order and began writing the run's
# histogram: each cell once, with its count of trials.
_OUT_PINS = [
    ("table --x 0 --y 0 --n 1 --seed 2718",
     "8df403904bc88a4f3bd069853a0bf0e652938f9523df6d83d34342c4b20a811f"),
    ("table --x 0 --y 0 --n 1750 --seed 2718",
     "a3f93c87b79ba90439faf365595cdb9887cf32b1a5f52fc66a1aef1af0192691"),
    ("table --x 0 --y 1 --n 1 --seed 2718",
     "0ebcd95c79f9ed7cd685384b23d0d2fa1e96c9f2dbfacee5eb73b0d1f731bf30"),
    ("table --x 0 --y 1 --n 1750 --seed 2718",
     "8fdbeb6b59d54b510d7ce3681785d5a251fd8e28fcc94ed87f048261f0ab9144"),
    ("table --x 1 --y 0 --n 1 --seed 2718",
     "193592edc5fd6afd0b02a06ab5c012823550b8759742d4901fdf78cf5d24915c"),
    ("table --x 1 --y 0 --n 1750 --seed 2718",
     "e0c95e8c026c6831fef0e9dbaa615596c31a61269a8ef87abf41437f935c93c7"),
    ("table --x 1 --y 1 --n 1 --seed 2718",
     "2f5ba6aeb6e2a5900a26aa7e1f846a8cc8f82b3d547891115f38acff4d423ca0"),
    ("table --x 1 --y 1 --n 1750 --seed 2718",
     "aab162b443d4c39f6a11fccb8e588ffa79804a06590a11191119e9bee4d5f5e4"),
    ("checksim --protocol 2 --alice param --alpha 0.7 --m 50 --k 25 --threshold 0.1 "
     "--c1 1.7 --trials 300 --seed 5",
     "f6e20f4a8f3433b1ea8c91f240b09f68dbef25238b146ca348ebb5eb57a8371c"),
    ("checksim --protocol 3 --bob computational --m 30 --k 0 --k-alice 7 "
     "--threshold-alice 2 --trials 300 --seed 11",
     "a06e79df59bbe869713775d9a958f92689fefc9fcdb13b6e62efe747e7ac6ccf"),
    # Three record blocks, recorded with 0.22.0 when the table was still written whole.
    ("table --x 1 --y 1 --n 16385 --seed 7",
     "a57666e9f7552724221643c7e0aa2e803179a77169b552e8292d8fbf4062e228"),
]


@pytest.mark.parametrize("argv,digest", _OUT_PINS, ids=[a for a, _ in _OUT_PINS])
def test_out_payload_matches_recorded_digest(capsys, tmp_path, argv, digest):
    out_path = tmp_path / "payload.json"
    code, _, _ = _run(capsys, argv.split() + ["--out", str(out_path)])
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


_CHECKSIM_PINS = [argv for argv, _ in _PAYLOAD_PINS + _OUT_PINS if argv.startswith("checksim")]


@pytest.mark.parametrize("argv", _CHECKSIM_PINS)
def test_checksim_stdout_does_not_depend_on_out(capsys, tmp_path, argv):
    alone = _run(capsys, argv.split())
    with_out = _run(capsys, argv.split() + ["--out", str(tmp_path / "payload.json")])
    assert with_out == alone and alone[0] == 0


# A run of each kind: a single-side histogram, both sides' histograms, the
# per-trial chain, a side that checks nothing, and the checks-sparse geometry,
# where trials that abort with equal failures differ in J alone.
_CELL_RUNS = {
    "p2-histogram": "checksim --protocol 2 --alice learn-y --m 200 --k 20 --threshold 1 "
                    "--trials 4000 --seed 9191",
    "p3-joint": "checksim --protocol 3 --bob computational --m 30 --k 5 --k-alice 7 "
                "--threshold 1 --threshold-alice 2 --trials 300 --seed 11",
    "p3-chain": "checksim --protocol 3 --bob phase-noise --angle 1.2 --m 50 --k 50 --k-alice 30 "
                "--threshold 17 --threshold-alice 9 --trials 300 --seed 5",
    "p3-k0": "checksim --protocol 3 --bob computational --m 30 --k 0 --k-alice 7 "
             "--threshold-alice 2 --trials 300 --seed 11",
    "p3-sparse": "checksim --protocol 3 --bob computational --m 200 --k 20 --k-alice 20 "
                 "--threshold 5 --threshold-alice 5 --trials 4000 --seed 1",
}


def _cell_payload(capsys, tmp_path, name):
    """``(trials, reports, stdout summary)`` of the ``--out`` run ``_CELL_RUNS[name]``."""
    argv = _CELL_RUNS[name].split()
    out_path = tmp_path / "payload.json"
    code, out, _ = _run(capsys, argv + ["--out", str(out_path)])
    assert code == 0
    payload, summary = json.loads(out_path.read_text()), json.loads(out)["summary"]
    assert payload["summary"] == summary
    return int(argv[argv.index("--trials") + 1]), payload["reports"], summary


class TestOutCells:
    @pytest.mark.parametrize("name", list(_CELL_RUNS))
    def test_cell_counts_sum_to_the_trials(self, capsys, tmp_path, name):
        trials, reports, _ = _cell_payload(capsys, tmp_path, name)
        for report in reports.values():
            assert report["trials"] == trials
            assert sum(cell["trials"] for cell in report["cells"]) == trials
            assert all(cell["trials"] >= 1 for cell in report["cells"])

    @pytest.mark.parametrize("name", ["p3-chain", "p3-joint", "p3-sparse"])
    def test_chain_writes_each_distinct_cell_once(self, capsys, tmp_path, name):
        # Per trial and as histograms, an aborted cell's J zeroed.
        trials, reports, _ = _cell_payload(capsys, tmp_path, name)
        rows = [(mine["failures"], theirs["failures"], mine["tables_delivered"])
                for mine, theirs in zip(reports["bob"]["cells"], reports["alice"]["cells"])]
        assert len(set(rows)) == len(rows) < trials

    def test_sparse_run_writes_its_172_distinct_cells(self, capsys, tmp_path):
        # 0.20.0 wrote 660 cells here, one per occupied (J, F_b, F_a).
        trials, reports, _ = _cell_payload(capsys, tmp_path, "p3-sparse")
        for report in reports.values():
            assert len(report["cells"]) == 172
            assert sum(cell["trials"] for cell in report["cells"]) == trials == 4000

    @pytest.mark.parametrize("name", [name for name in _CELL_RUNS if name.startswith("p3")])
    def test_protocol3_cells_pair_up_index_by_index(self, capsys, tmp_path, name):
        _, reports, _ = _cell_payload(capsys, tmp_path, name)
        bob, alice = reports["bob"]["cells"], reports["alice"]["cells"]
        assert len(bob) == len(alice)
        for mine, theirs in zip(bob, alice):
            # One cell holds the same trials on both sides: their count and
            # their delivered tables, none when either side aborts.
            assert mine["trials"] == theirs["trials"]
            assert mine["tables_delivered"] == theirs["tables_delivered"]
            if mine["aborted"] or theirs["aborted"]:
                assert mine["tables_delivered"] == 0
        assert any(cell["aborted"] for cell in bob + alice)

    @pytest.mark.parametrize("name", list(_CELL_RUNS))
    def test_expanded_cells_reproduce_the_summary(self, capsys, tmp_path, name):
        trials, reports, summary = _cell_payload(capsys, tmp_path, name)
        for side, report in reports.items():
            cells = report["cells"]
            counts = [cell["trials"] for cell in cells]
            failures = np.repeat([cell["failures"] for cell in cells], counts)
            aborted = np.repeat([cell["aborted"] for cell in cells], counts)
            assert len(failures) == trials
            assert np.array_equal(aborted, failures > report["threshold"])
            phat = int(aborted.sum()) / trials
            expected = {"abort_ci": list(checksim._wilson_interval(phat, trials)),
                        "abort_probability": phat, "mean_failures": int(failures.sum()) / trials}
            assert {key: report[key] for key in expected} == expected
            assert {key: summary["aggregate"][side][key] for key in expected} == expected


# Failure counts beyond numpy's 64-bit integers, which no binomial draw takes,
# with one side checking and with both.
_BEYOND_INT64 = [
    ["checksim", "--alice", "learn-y", "--m", "9223372036854775808",
     "--k", "9223372036854775808", "--trials", "2"],
    # A phase error of pi fails every check of Alice's: 2**63 failures per trial.
    ["checksim", "--protocol", "3", "--bob", "phase-noise", "--angle", "3.141592653589793",
     "--m", "9223372036854775808", "--k", "0", "--k-alice", "9223372036854775808",
     "--trials", "2"],
    ["checksim", "--protocol", "3", "--alice", "learn-y", "--m", "9223372036854775808",
     "--k", "9223372036854775808", "--k-alice", "4", "--trials", "2"],
    ["checksim", "--protocol", "3", "--bob", "phase-noise", "--angle", "3.141592653589793",
     "--m", "9223372036854775808", "--k", "4", "--k-alice", "9223372036854775808",
     "--trials", "2"],
]


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
        # Strategy flags the chosen strategy does not use.
        ["checksim", "--protocol", "3", "--bob", "honest", "--angle", "0.7"],
        ["checksim", "--protocol", "3", "--bob", "computational", "--angle", "0.7"],
        ["checksim", "--protocol", "2", "--angle", "0.7"],
        ["checksim", "--alice", "learn-y", "--alpha", "0.3"],
        ["checksim", "--alice", "honest", "--a", "0.6", "--b", "0.8", "--c", "0"],
        ["checksim", "--alice", "honest", "--a", "0.6"],
        ["checksim", "--alice", "learn-y", "--phi", "0.9"],
        ["checksim", "--alice", "param", "--alpha", "0.5", "--a", "1", "--b", "0", "--c", "0"],
        ["checksim", "--alice", "mix", "--alpha", "0.5", "--a", "1", "--b", "0", "--c", "0"],
        ["checksim", "--alice", "mix", "--alpha", "0.5"],
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
        # Seeds outside [0, 2**64), which would alias seeds inside it.
        ["table", "--x", "1", "--y", "1", "--n", "64", "--seed", "18446744073709551616"],
        ["table", "--x", "1", "--y", "1", "--n", "64", "--seed", "-1"],
        ["verify", "thm3", "--seed", "-1"],
        ["--from-manifest", {"subcommand": "table", "parameters": {
            "x": 1, "y": 0, "n": 5, "seed": -1, "out": None}}],
        *_BEYOND_INT64,
    ])
    def test_rejected_inputs_exit_2_without_traceback(self, capsys, tmp_path, argv):
        if argv[0] == "--from-manifest":
            path = tmp_path / "bad.manifest.json"
            path.write_text(json.dumps(argv[1]))
            argv = ["--from-manifest", str(path)]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert err.startswith("otlab: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""
        if argv in _BEYOND_INT64:
            assert err.startswith("otlab: size too large: ")

    @pytest.mark.parametrize("argv,message", [
        # The mix strategy checks --phi: its weights are phi and 1 - phi.
        (["checksim", "--alice", "mix", "--phi", "1.5"],
         "mix weights [1.5, -0.5] must be nonnegative"),
        (["checksim", "--alice", "mix", "--phi", "-0.1"],
         "mix weights [-0.1, 1.1] must be nonnegative"),
        (["checksim", "--alice", "mix", "--phi", "nan"], "mix weight must be finite"),
        (["checksim", "--alice", "mix", "--phi", "inf"], "mix weight must be finite"),
        (["checksim", "--alice", "param", "--a", "1e155", "--b", "0", "--c", "0"],
         "squares sum to inf, expected 1"),
    ])
    def test_rejected_values_name_their_check(self, capsys, argv, message):
        assert _run(capsys, argv) == (2, "", f"otlab: {message}\n")

    @pytest.mark.parametrize("bits", [
        ["--x", "-1", "--y", "0"],
        ["--x", "1", "--y", "1.0"],
        {"x": -1, "y": 0},
        {"x": True, "y": 0},
        {"x": 1, "y": "1"},
    ], ids=["x=-1", "y=1.0", "manifest-x=-1", "manifest-x=true", "manifest-y='1'"])
    @pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out"])
    def test_table_bits_the_parser_rejects_exit_2_and_write_nothing(self, capsys, tmp_path,
                                                                   bits, with_out):
        # run_table trusts its x and y: the parse, shared by both routes, is their check.
        out = str(tmp_path / "table.jsonl") if with_out else None
        if isinstance(bits, dict):
            path = tmp_path / "bad.manifest.json"
            path.write_text(json.dumps({"subcommand": "table", "parameters": {
                **bits, "n": 5, "seed": 1, "out": out}}))
            argv = ["--from-manifest", str(path)]
        else:
            argv = ["table", *bits, "--n", "5"] + (["--out", out] if with_out else [])
        code, stdout, err = _run(capsys, argv)
        assert code == 2 and stdout == ""
        assert err.startswith("otlab: ") and err.count("\n") == 1
        assert "Traceback" not in err
        # Nothing is written: no payload and no manifest beside it.
        written = [] if argv[0] == "table" else [path.name]
        assert [p.name for p in tmp_path.iterdir()] == written

    @pytest.mark.parametrize("alpha", ["2", "-0.5"])
    def test_alpha_outside_quarter_turn_names_alpha(self, capsys, alpha):
        code, out, err = _run(capsys, ["checksim", "--alice", "param", "--alpha", alpha])
        assert code == 2 and out == ""
        assert err == f"otlab: alpha {float(alpha)} outside [0, pi/2]\n"

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
    @pytest.mark.parametrize("argv,target", [
        (["curve", "--n-samples", "1000"], (security, "tradeoff_curve")),
        (["verify", "prop3", "--samples", "5"], (verify.SUITES, "prop3")),
        (["table", "--x", "1", "--y", "0", "--n", "5"], (protocol, "_honest_coins")),
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


class _TopLevelParse(Exception):
    """Raised by a patched parser; ``main`` lets it through."""


def _refuse(*args, **kwargs):
    raise _TopLevelParse


# Each subcommand's exact flags with values valid for them; a generated line
# also takes odd values, abbreviated flags, ``=`` forms, help and ``--``.
_LINE_FLAGS = {
    "table": {"--x": ["0", "1"], "--y": ["0", "1"], "--n": ["5", "1500"], "--seed": ["3"],
              "--out": ["run.out"]},
    "verify": {"--samples": ["3", "100000"], "--seed": ["3"], "--out": ["run.out"]},
    "curve": {"--n-samples": ["1000"], "--bin-width": ["0.01", "1e-2"], "--seed": ["3"],
              "--out": ["run.out"]},
    "checksim": {"--protocol": ["2", "3"], "--alice": ["honest", "learn-y", "param", "mix"],
                 "--bob": ["honest", "computational", "phase-noise"], "--alpha": ["0.7"],
                 "--a": ["0.6"], "--b": ["0.5"], "--c": ["0.4"], "--phi": ["0.5"],
                 "--angle": ["1.2"], "--m": ["20"], "--k": ["5"], "--k-bob": ["5"],
                 "--k-alice": ["4"], "--threshold": ["0", "0.25"], "--threshold-alice": ["1"],
                 "--trials": ["50"], "--c1": ["1.7"], "--seed": ["3"], "--out": ["run.out"]},
}
_ODD_VALUES = ["", "few", "1.5", "2", " 7", "nan", "1_000", "-0.5", "-1", "-", "--", "-h",
               "prop1", "honest"]
_LINES = settings(derandomize=True, deadline=None, database=None, max_examples=300)


@st.composite
def _lines(draw, name):
    """A ``name`` line: flag groups and, for ``verify``, suites before, between or after them."""
    flags = _LINE_FLAGS[name]
    clean = draw(st.booleans())  # exact flags with valid values only
    groups = []
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=8)):
        odd = not clean and draw(st.integers(0, 3)) == 0
        value = draw(st.sampled_from(_ODD_VALUES if odd else flags[flag]))
        form = "exact" if clean else draw(st.sampled_from(
            ["exact"] * 8 + ["abbreviated", "equals", "bare", "unknown", "help", "separator"]))
        if form == "abbreviated" and len(flag) > 3:
            groups.append([flag[:draw(st.integers(3, len(flag) - 1))], value])
        elif form == "equals":
            groups.append([f"{flag}={value}"])
        elif form == "bare":
            groups.append([flag])
        elif form == "unknown":
            groups.append(["--bogus", value])
        elif form == "help":
            groups.append([draw(st.sampled_from(["--help", "-h"]))])
        elif form == "separator":
            groups.append(["--"])
        else:
            groups.append([flag, value])
    if name == "verify":
        suites = [*verify.SUITES] if clean else [*verify.SUITES, "nonsense", "", "-x"]
        for _ in range(1 if clean else draw(st.sampled_from([0, 1, 1, 2]))):
            groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(suites))])
    return [word for group in groups for word in group]


def _reads(parse, argv):
    """``vars`` of the namespace ``parse`` gives ``argv``, or None if it raises or prints help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(parse(argv))
    except (ValueError, SystemExit):
        return None


class TestSubcommandParse:
    """A line has two outcomes: the subcommand's flag table, or the top-level parser.

    A well-formed line that starts with a subcommand is read off that
    subcommand's flag table and reaches no argparse parser; the table gives
    the top-level parser's namespace, and gives nothing where that parser
    fails or prints help.  Every other line goes to the top-level parser.
    """

    @staticmethod
    def _refuse_top_level(monkeypatch, parsers=None):
        for parser in parsers or [cli._parser()]:
            monkeypatch.setattr(parser, "parse_args", _refuse)
            monkeypatch.setattr(parser, "parse_known_args", _refuse)

    def _refuse_argparse(self, monkeypatch):
        parser = cli._parser()
        self._refuse_top_level(monkeypatch, [parser, *parser.subcommands.values()])

    @pytest.mark.parametrize("argv", [
        ["table", "--x", "1", "--y", "0", "--n", "5", "--seed", "3"],
        ["verify", "prop1", "--samples", "3", "--seed", "1"],
        ["curve", "--n-samples", "1000", "--seed", "2"],
        ["checksim", "--protocol", "3", "--bob", "computational", "--m", "12", "--k", "3",
         "--k-alice", "4", "--trials", "20", "--seed", "5"],
    ], ids=lambda argv: argv[0])
    def test_subcommand_output_unchanged_without_top_level_parse(self, capsys, monkeypatch,
                                                                 argv):
        unpatched = _run(capsys, argv)
        self._refuse_top_level(monkeypatch)
        assert _run(capsys, argv) == unpatched

    @pytest.mark.parametrize("argv", [["--from-manifest", "run.manifest.json"], [],
                                      ["--help"], ["tabel", "--x", "1"]],
                             ids=["from-manifest", "empty", "help", "unknown"])
    def test_other_lines_reach_top_level_parser(self, monkeypatch, argv):
        self._refuse_top_level(monkeypatch)
        with pytest.raises(_TopLevelParse):
            cli.main(argv)

    # The benchmark's line shapes: one per subcommand, and one per strategy
    # flag set of its checksim jobs (protocol 2 with no strategy parameter,
    # --alpha and --phi; protocol 3 with no receiver parameter and --angle).
    @pytest.mark.parametrize("argv", [
        ["table", "--x", "1", "--y", "0", "--n", "1500", "--seed", "1804289383"],
        ["verify", "prop3", "--samples", "100000", "--seed", "846930886"],
        ["verify", "thm3", "--seed", "1681692777"],
        ["curve", "--n-samples", "100000", "--bin-width", "0.01", "--seed", "1714636915"],
        ["checksim", "--protocol", "2", "--alice", "learn-y", "--m", "200", "--k", "20",
         "--threshold", "1", "--trials", "4000", "--seed", "1957747793"],
        ["checksim", "--protocol", "2", "--alice", "param", "--m", "7", "--k", "7",
         "--threshold", "0", "--trials", "5000", "--alpha", "0.8402035217810826",
         "--seed", "424238335"],
        ["checksim", "--protocol", "2", "--alice", "mix", "--m", "200", "--k", "20",
         "--threshold", "2", "--trials", "4000", "--phi", "0.5", "--seed", "719885386"],
        ["checksim", "--protocol", "3", "--alice", "honest", "--m", "200", "--k", "20",
         "--threshold", "2", "--trials", "4000", "--bob", "computational", "--k-alice", "20",
         "--threshold-alice", "0", "--seed", "1649760492"],
        ["checksim", "--protocol", "3", "--alice", "honest", "--m", "12", "--k", "0",
         "--threshold", "0", "--trials", "5000", "--angle", "1.9021614531013163",
         "--bob", "phase-noise", "--k-alice", "12", "--threshold-alice", "0",
         "--seed", "596516649"],
    ], ids=["table", "verify-samples", "verify", "curve", "p2-learn-y", "p2-alpha", "p2-phi",
            "p3-computational", "p3-angle"])
    def test_benchmark_lines_take_the_table_path(self, monkeypatch, argv):
        expected = _reads(cli._parser().parse_args, argv)
        assert expected is not None
        self._refuse_argparse(monkeypatch)
        assert vars(cli._parse(argv)) == expected

    @pytest.mark.parametrize("argv", [
        ["checksim", "--help"], ["table", "-h"], ["checksim", "--tri", "5"],
        ["checksim", "--trials=5"], ["verify", "--", "prop1"], ["verify", "prop1", "prop2"],
        ["checksim", "--protocol", "3", "--bob", "phase-noise", "--angle", "-0.5"],
        ["table", "--x", "1"], ["table", "--x", "2", "--y", "0"], ["checksim", "--m"],
        ["checksim", "--m", "few"], ["checksim", "--bogus", "1"], ["curve", "extra"],
    ], ids=["help", "h", "abbreviated", "equals", "separator", "two-suites", "dash-led-value",
            "missing-required", "bad-choice", "missing-value", "bad-type", "unknown-flag",
            "unknown-word"])
    def test_other_subcommand_lines_reach_argparse(self, monkeypatch, argv):
        self._refuse_argparse(monkeypatch)
        with pytest.raises(_TopLevelParse):
            cli.main(argv)

    @pytest.mark.parametrize("argv", [["checksim", "--trials=5", "--seed", "3"],
                                      ["verify", "--", "prop1", "--seed", "1"], ["table", "-h"]],
                             ids=["equals", "separator", "help"])
    def test_other_subcommand_lines_take_no_subcommand_parse_args(self, capsys, monkeypatch,
                                                                   argv):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width
        unpatched = _run(capsys, argv)
        for sub in cli._parser().subcommands.values():
            monkeypatch.setattr(sub, "parse_args", _refuse)
        assert _run(capsys, argv) == unpatched

    @_LINES
    @pytest.mark.parametrize("name", sorted(_LINE_FLAGS))
    @given(data=st.data())
    def test_table_gives_argparse_namespace_or_nothing(self, name, data):
        words = data.draw(_lines(name))
        preset = {"from_manifest": None, "subcommand": name}
        table = cli._read_flags(cli._parser().subcommands[name], words, preset)
        reference = _reads(cli._parser().parse_args, [name, *words])
        # Compared by repr, so that a NaN value (``--a nan``) equals itself.
        assert table is None or repr(vars(table)) == repr(reference)

    @_LINES
    @pytest.mark.parametrize("name", sorted(_LINE_FLAGS))
    @given(data=st.data())
    def test_parse_gives_top_level_namespace_or_both_fail(self, name, data):
        argv = [name, *data.draw(_lines(name))]
        assert repr(_reads(cli._parse, argv)) == repr(_reads(cli._parser().parse_args, argv))


class TestImportCost:
    """No job loads scipy: the package needs numpy alone at runtime.

    Every verify suite, ``curve``, ``table`` and ``checksim``, the
    accessible-information search and the maximum search run on arrays.
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

    def test_max_holevo_sum_search_leaves_scipy_out(self):
        script = ("import sys; from otlab import security; security.max_holevo_sum_search(); "
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
        ["verify", "prop2", "--samples", "50"],
        ["verify", "prop3", "--samples", "50"],
        ["verify", "thm3"],
        ["verify", "infodelta", "--samples", "5"],
        ["verify", "examples", "--samples", "5"],
    ])
    def test_jobs_without_optimization_leave_scipy_out(self, argv):
        code, imported = self._imported(argv)
        assert code == 0
        assert "otlab" in imported and "scipy" not in imported


def test_package_version_matches_pyproject():
    """Manifests carry ``otlab.__version__``, the one place the build reads the version from."""
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    assert "version" in config["project"]["dynamic"] and "version" not in config["project"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "otlab.__version__"}
