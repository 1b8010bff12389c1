"""otlab benchmark: seeded otlab jobs in one closed loop, each checked exactly.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

One client in this process issues the workload's jobs one after another,
CLI jobs through ``otlab.cli.main(argv)`` and library jobs through public
functions, and checks every output against an exact value (see
``oracles.py``).  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it replays a fixed number of rounds untraced and then traced,
and reports the per-layer metrics.  The last line of standard output is one
JSON object; the lines before it print every metric by name with its unit.
Timings are scaled to a reference host speed with a calibration kernel that
runs before every job (see ``speed_factors``).
A full record of the run (environment, every job's argv and seed, times and
check results) goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
# Fresh interpreters timed per run; setup_s is their median.
SETUP_SPAWNS = 8
# A fixed calibration kernel is timed before every job: numpy calls on a
# 2x2 matrix, the small-matrix work that dominates otlab's jobs.  The host's
# speed drifts by a fifth or more within minutes, and the jobs slow down
# with the kernel, so timings are scaled by how slowly it ran around them.
CALIBRATION_CALLS = 100
# The unit of every scaled time: seconds on a host where the kernel takes
# this long (about the 2-vCPU Xeon host the README reports).
CALIBRATION_REFERENCE_S = 0.001
_SETUP_CODE = ("import sys, time, workloads; workloads.setup(sys.argv[1]); "
               "print(repr(time.monotonic()))")


def measure_setup(workload: str, spawns: int) -> list:
    """Seconds from spawning a fresh interpreter until the workload's set-up is done."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(spawns):
        begin = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, workload], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - begin)
    return samples


def calibration_kernel() -> float:
    """Seconds one run of the fixed calibration kernel takes."""
    import numpy as np

    matrix = np.array([[1.0, 0.2], [0.2, 0.5]])
    begin = time.perf_counter()
    for i in range(CALIBRATION_CALLS):
        np.linalg.eigvalsh(matrix + i * 1e-3)
    return time.perf_counter() - begin


def execute(job: dict) -> tuple:
    """Run one job; returns (seconds, problems, payload text)."""
    from otlab import cli

    import oracles
    import workloads

    text, problems = "", []
    begin = time.perf_counter()
    try:
        if "argv" in job:
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
                begin = time.perf_counter()
                code = cli.main(list(job["argv"]))
                seconds = time.perf_counter() - begin
            text = out.getvalue()
            problems = oracles.check_cli(job["spec"], code, text)
        else:
            result = workloads.run_library(job)
            seconds = time.perf_counter() - begin
            text = json.dumps(result, sort_keys=True)
            problems = oracles.check_library(job["spec"], result)
    except Exception as exc:  # any exception fails the job, never the run
        seconds = time.perf_counter() - begin
        problems = [f"{type(exc).__name__}: {exc}"]
    return seconds, problems, text


class Load:
    """The closed loop: one client, the next job issued when the last returns."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.records = []
        self._replay = None   # (job, payload) of the first CLI job of round 1

    def run_round(self, index: int, phase: str) -> list:
        import workloads

        records = []
        for job in workloads.round_jobs(self.workload, self.seed, index):
            calibration = calibration_kernel()
            seconds, problems, text = execute(job)
            cli_job = "argv" in job
            if cli_job and index == 1 and self._replay is None:
                self._replay = (job, text)
            records.append(self._record(phase, index, job, seconds, problems,
                                        len(text.encode()) if cli_job else 0, calibration))
        self.records += records
        return records

    def replay(self) -> None:
        """Run the first CLI job of round 1 again; its bytes must not change."""
        job, first = self._replay
        seconds, problems, text = execute(job)
        if text != first:
            problems.append("replay produced different bytes")
        self.records.append(self._record("replay", 1, job, seconds, problems, len(text.encode())))

    @staticmethod
    def _record(phase, index, job, seconds, problems, payload_bytes,
                calibration_s=None) -> dict:
        return {"phase": phase, "round": index, "argv": job.get("argv"),
                "call": job.get("call"), "spec": job["spec"], "seconds": seconds,
                "problems": problems, "payload_bytes": payload_bytes,
                "calibration_s": calibration_s}


def environment() -> dict:
    import numpy
    import scipy

    import otlab

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "otlab": otlab.__version__,
            "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS}}


def speed_factors(timed: list) -> dict:
    """Per round, the reference kernel time over the kernel's median time in it.

    A shared host runs the whole process up to a third more slowly for
    minutes at a time (see README.md); no statistic over one run's raw
    times removes that.  A job's wall time times its round's factor is its
    wall time on the reference host.
    """
    kernel = defaultdict(list)
    for record in timed:
        kernel[record["round"]].append(record["calibration_s"])
    return {index: CALIBRATION_REFERENCE_S / statistics.median(samples)
            for index, samples in kernel.items()}


def template_times(timed: list, factors: dict) -> list:
    """Each timed job's scaled wall time, estimated as its template's median.

    Every template runs once per round, and the number of rounds depends
    only on the workload and ``--seconds``, so every commit is measured
    over the same N executions of each template.
    """
    import workloads

    scaled = defaultdict(list)
    for record in timed:
        scaled[workloads.template(record)].append(record["seconds"] * factors[record["round"]])
    median = {key: statistics.median(times) for key, times in scaled.items()}
    return [median[workloads.template(record)] for record in timed]


def end_to_end(setup: list, timed: list) -> dict:
    factors = speed_factors(timed)
    times = template_times(timed, factors)
    return {
        "setup_s": (statistics.median(seconds * factors[index] for index, seconds in setup),
                    "s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_p90": (statistics.quantiles(times, n=10)[8], "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(load: Load, rounds: int) -> dict:
    import numpy as np

    import tracing

    # The untraced pass runs rounds of its own: the same templates and sizes
    # with fresh values, so the traced rounds find no instance table cached
    # that a timed run would have to build.
    untraced = sum(r["seconds"] for i in range(rounds + 1, 2 * rounds + 1)
                   for r in load.run_round(i, "untraced"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [r for i in range(1, rounds + 1) for r in load.run_round(i, "traced")]
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"{load.workload}-spans.npz", **tracer.arrays())
    return tracing.layer_metrics(tracer, sum(r["payload_bytes"] for r in traced),
                               sum(r["seconds"] for r in traced) / untraced)


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    if not (SRC / "otlab" / "__init__.py").is_file():
        print(f"perfbench: no otlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import otlab
    import workloads

    if Path(otlab.__file__).resolve().parent != (SRC / "otlab").resolve():
        print(f"perfbench: imported otlab from {otlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load = Load(args.workload, args.seed)
    setup = []
    load.run_round(0, "warmup")
    if args.trace:
        metrics = per_layer(load, workloads.TRACE_ROUNDS[args.workload])
        timed = [r for r in load.records if r["phase"] == "traced"]
    else:
        # The set-up spawns are spread evenly over the timed rounds, so that
        # their median covers the whole run rather than one moment of it.
        rounds = workloads.timed_rounds(args.workload, args.seconds)
        due = Counter(1 + j * rounds // SETUP_SPAWNS for j in range(SETUP_SPAWNS))
        for index in range(1, rounds + 1):
            setup += [(index, seconds) for seconds in measure_setup(args.workload, due[index])]
            load.run_round(index, "timed")
        timed = [r for r in load.records if r["phase"] == "timed"]
        metrics = end_to_end(setup, timed)
    load.replay()

    attempted = len(load.records)
    failures = [r for r in load.records if r["problems"]]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    env = environment()
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup_samples": [{"round": index, "seconds": seconds} for index, seconds in setup],
        **result, "jobs": load.records}, indent=1) + "\n")

    summary = ""
    if not args.trace:
        raw = [r["seconds"] for r in timed]
        rounds = len({r["round"] for r in timed})
        factors = sorted(speed_factors(timed).values())
        summary = (f" in {rounds} rounds; raw wall p50 {statistics.median(raw):.4g} s, "
                   f"p90 {statistics.quantiles(raw, n=10)[8]:.4g} s, "
                   f"{len(raw) / sum(raw):.4g} jobs/s; host speed factor "
                   f"{factors[0]:.3g}..{factors[-1]:.3g}")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(timed)} measured jobs{summary}; fail_ratio {len(failures) / attempted:g} "
          f"({len(failures)} failed of {attempted} attempted)")
    for failure in failures[:10]:
        print(f"  FAILED {failure.get('argv') or failure.get('call')}: {failure['problems']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print("  environment: " + json.dumps(env, sort_keys=True))
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
