"""Digests of the payloads of the benchmark's first two rounds.

For every CLI job of rounds 0 and 1 of the four workloads, at each given
seed (default 9191 and 31337), prints the exit code, the sha256 of stdout
and the argv.  Each checksim job of round 0 is also rerun with ``--out`` and
``--c1 1.7``, and the sha256 of its payload file is printed; each table job
of round 0 is rerun with ``--out``, and the sha256 of its payload file and of
its manifest are printed.  Each library job of rounds 0 and 1 prints the
sha256 of its JSON result, encoded with sorted keys as the benchmark encodes
it, and ``verify prop1`` and ``verify lemma1`` at the default ``--samples
200`` print their stdout sha256 at each seed.  The otlab and perfbench
imported are the ones in this script's checkout, and files are written only
to a temporary directory, under a relative name so that manifests do not
depend on it.  Two commits give the same payloads when their outputs are
identical::

    python tools/payload_digests.py > before.txt   # in one checkout
    python tools/payload_digests.py > after.txt    # in the other
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from otlab import cli  # noqa: E402
from perfbench.workloads import WORKLOADS, round_jobs, run_library  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list) -> tuple:
    """Exit code and stdout of one in-process ``otlab`` run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _file_digest(path: Path) -> str:
    """sha256 of a file the run wrote, which is then removed."""
    if not path.exists():
        return "no-file"
    digest = _sha256(path.read_bytes())
    path.unlink()
    return digest


# Flags added to the round-0 jobs rerun with ``--out``.
_OUT_FLAGS = {"checksim": ["--c1", "1.7"], "table": []}


def digests(seeds, directory: Path):
    """Lines ``code sha256 argv``, ``code sha256 --out argv`` for payload files,
    ``code sha256 --manifest argv`` for table manifests and ``library sha256
    call spec`` for library jobs."""
    payload = Path("payload.out")  # relative to ``directory``
    manifest = Path(f"{payload}.manifest.json")
    for seed in seeds:
        for workload in WORKLOADS:
            for index in (0, 1):
                for job in round_jobs(workload, seed, index):
                    if "argv" not in job:
                        text = json.dumps(run_library(job), sort_keys=True)
                        spec = json.dumps(job["spec"], sort_keys=True)
                        yield f"library {_sha256(text.encode())} {job['call']} {spec}"
                        continue
                    argv = job["argv"]
                    code, stdout = _run(argv)
                    yield f"{code} {_sha256(stdout.encode())} {' '.join(argv)}"
                    if index == 0 and argv[0] in _OUT_FLAGS:
                        with contextlib.chdir(directory):
                            code, _ = _run([*argv, *_OUT_FLAGS[argv[0]], "--out", str(payload)])
                            files = {"--out": _file_digest(payload),
                                     "--manifest": _file_digest(manifest)}
                        shown = ("--out", "--manifest") if argv[0] == "table" else ("--out",)
                        for flag in shown:
                            yield f"{code} {files[flag]} {flag} {' '.join(argv)}"
        for suite in ("prop1", "lemma1"):
            argv = ["verify", suite, "--seed", str(seed)]
            code, stdout = _run(argv)
            yield f"{code} {_sha256(stdout.encode())} {' '.join(argv)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="*", default=[9191, 31337],
                        help="workload seeds (default: 9191 31337)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for line in digests(args.seeds, Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
