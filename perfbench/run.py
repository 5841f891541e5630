"""Closed-loop benchmark of the poissonenv CLI.

    python3 perfbench/run.py --workload envdim-m2 --seed 1 --seconds 25 --trace 0

One client in one process: each job calls poissonenv.cli.main(["--json",
...]) in-process, and the next job starts when the previous one has been
checked.  Every job loads a fresh NCPA, so the memo caches start cold, as
they do for a CLI user.  Inputs are written from --seed before timing.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced and
traced jobs in turn, then one job under cProfile, and reports the
per-layer metrics.  The last line of output is one JSON object; the lines
before it give every metric by name with its unit, and every failed job.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_ratio", "_frac")):
        return "frac"
    return "count"


def machine() -> str:
    """CPU model, core count and Python version, printed with every result."""
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), model)
    except OSError:
        pass
    return f"{model}, nproc {os.cpu_count()}, Python {platform.python_version()}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


class Runner:
    """Runs and checks jobs of one workload, keeping every failure."""

    def __init__(self, workload, job, run_cli):
        self.workload = workload
        self.job = job
        self.run_cli = run_cli
        self.attempted = 0
        self.problems: list[str] = []

    def run(self) -> float:
        """One job, timed from the cli.main call to the checked report."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code, report = self.run_cli(self.job.argv)
            problem = self.workload.check(code, report)
        except Exception as exc:  # a program crash is a failed job, not a failed run
            traceback.print_exc()
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if problem:
            self.problems.append(problem)
            print(f"job {self.attempted} failed: {problem}")
        return elapsed


def closed_loop(seconds: float, one_round) -> list:
    """Results of one_round(), called until another round would end past
    the deadline; at least one round."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(one_round())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def setup_probe(job) -> float:
    """Wall time of a fresh interpreter that imports poissonenv and loads the inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), job.algebra, *job.modules]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - t0


def end_to_end(runner: Runner, seconds: float) -> dict:
    # One set-up probe before each job spreads them over the run, so a
    # burst of load from other processes on the host moves fewer of them.
    probes = []

    def one_round():
        probes.append(setup_probe(runner.job))
        return runner.run()

    times = closed_loop(seconds, one_round)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(runner.job))
    print(f"job_s is the median of {len(times)} jobs: {[round(t, 4) for t in times]}")
    print(f"setup_s is the median of {len(probes)} set-ups: {[round(t, 4) for t in probes]}")
    return {
        "job_s": statistics.median(times),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - len(runner.problems) / runner.attempted,
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    from perfbench import tracing

    tracer = tracing.Tracer()

    def pair():
        untraced = runner.run()
        tracer.start_job(runner.attempted + 1)
        with tracing.patched(tracer):
            traced = runner.run()
        tracing.check_caches(tracer)
        return traced, untraced, tracing.layer_metrics(tracer, traced)

    rounds = closed_loop(seconds, pair)
    traced = statistics.median(r[0] for r in rounds)
    untraced = statistics.median(r[1] for r in rounds)
    layers = [r[2] for r in rounds]
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if unit_of(name) != "count":
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            raise tracing.TraceError(f"{name} differs between traced jobs: {values}")
    metrics.update(tracing.kernel_profile(runner.run))
    metrics["trace.job_s"] = traced
    metrics["trace.overhead_frac"] = traced / untraced - 1
    print(f"per-layer metrics are medians of {len(rounds)} traced jobs")
    return metrics


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import poissonenv
        from perfbench import tracing, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(poissonenv.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: poissonenv imported from {poissonenv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        job = workload.prepare(workdir, seed)
        runner = Runner(workload, job, workloads.run_cli)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds)
    except (workloads.SetupError, tracing.TraceError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.problems)
    print(f"machine: {machine()}")
    print(f"workload {args.workload}, seed {seed}, {runner.attempted} jobs, "
          f"failed_frac = {failed / runner.attempted} ({failed} failed)")
    for name, value in metrics.items():
        print(f"{name} = {value} {unit_of(name)}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
