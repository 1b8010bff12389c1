"""Digests of the CLI payloads of the benchmark's first two rounds.

For every CLI job of rounds 0 and 1 of the four workloads, at each given
seed (default 9191 and 31337), prints the exit code, the sha256 of stdout
and the argv.  Each checksim job of round 0 is also rerun with ``--out`` and
``--c1 1.7``, and the sha256 of its payload file is printed.  The otlab and
perfbench imported are the ones in this script's checkout, and files are
written only to a temporary directory.  Two commits give the same payloads
when their outputs are identical::

    python tools/payload_digests.py > before.txt   # in one checkout
    python tools/payload_digests.py > after.txt    # in the other
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from otlab import cli  # noqa: E402
from perfbench.workloads import WORKLOADS, round_jobs  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list) -> tuple:
    """Exit code and stdout of one in-process ``otlab`` run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def digests(seeds, directory: Path):
    """Lines ``code sha256 argv``, and ``code sha256 --out argv`` for payload files."""
    for seed in seeds:
        for workload in WORKLOADS:
            for index in (0, 1):
                for job in round_jobs(workload, seed, index):
                    if "argv" not in job:
                        continue  # a library job, not a CLI run
                    argv = job["argv"]
                    code, stdout = _run(argv)
                    yield f"{code} {_sha256(stdout.encode())} {' '.join(argv)}"
                    if index == 0 and argv[0] == "checksim":
                        path = directory / "payload.json"
                        code, _ = _run([*argv, "--c1", "1.7", "--out", str(path)])
                        digest = _sha256(path.read_bytes()) if path.exists() else "no-file"
                        yield f"{code} {digest} --out {' '.join(argv)}"
                        path.unlink(missing_ok=True)


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
