"""pdhj benchmark: shipped experiments timed end to end, plus a traced run.

Usage, from the root of a pdhj checkout:

    python3 bench/run.py --workload dp-oracle --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Each workload runs in its own fresh single-threaded Python process (BLAS
threads pinned to 1), closed loop with one client; see bench/README.md for
the workloads and metrics.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of bench/tracer.py.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 only when every run passed its reference check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from tracer import PER_LAYER

BENCH_DIR = workloads.BENCH_DIR
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

# Set-up samples per run: this many set-up-only processes before the workload
# process and as many after it, plus the workload's own.  Spread over the run,
# they are not all caught by one slow stretch of a shared host.
SETUP_SAMPLES_EACH_SIDE = 4
# every process the benchmark starts must end within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a run that failed its check)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for name in SINGLE_THREAD_ENV:
        env[name] = "1"
    return env


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform()}


def start_worker(workload, seed, seconds, trace, setup_only, deadline):
    """Start one worker; return (process, set-up seconds to its READY line)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--root", ROOT, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--out", os.path.join(RESULTS_DIR, f"work-{workload}-{os.getpid()}")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"{workload} worker did not start (exit status {proc.returncode})")
    return proc, setup


def finish(proc, deadline) -> str:
    """Wait for a worker until the deadline; kill it past that.  Returns stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit and was stopped")
    return out


def quantile_tail(samples) -> tuple:
    """(q, value) of the highest percentile with at least ten samples beyond
    it, or (None, None) below eleven samples."""
    n = len(samples)
    if n < 11:
        return None, None
    q = math.floor(100.0 * (n - 10) / n)
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return q, cuts[q - 1]


def setup_samples(workload, seed, deadline) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        proc, setup = start_worker(workload, seed, 0, 0, True, deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up process exited with status {proc.returncode}")
        samples.append(setup)
    return samples


def run_workload(workload, seed, seconds, trace) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = setup_samples(workload, seed, deadline)
    proc, setup = start_worker(workload, seed, seconds, trace, False, deadline)
    setups.append(setup)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = setups + setup_samples(workload, seed, deadline)
    return report


def layer_metrics(report) -> dict:
    """Per-layer metrics: counts from the first traced iteration, times as
    medians over the traced iterations."""
    runs = report["layer_runs"]
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [r["metrics"][name] for r in runs]
        out[name] = statistics.median(values) if name.endswith(("_s", ".s")) else values[0]
    out["trace.overhead_s"] = (statistics.median(report["traced_run_s"])
                               - statistics.median(report["run_s"]))
    return out


def describe(workload, seed, trace, report, metrics, record_path):
    """Human-readable lines; every metric by name with its unit."""
    runs = report["run_s"]
    lines = [f"workload {workload}, seed {seed}, trace {trace}: closed loop, one client, "
             f"{len(runs)} iteration(s) of {', '.join(workloads.WORKLOADS[workload])}"]
    attempted, failed = report["attempted"], report["failed"]
    if not trace:
        q, tail = quantile_tail(runs)
        tail_text = f"p{q} {tail:.4f} s" if q else "tail n/a (needs >= 11 samples)"
        setups = report["setup_s"]
        lines += [
            f"  run_s         median {metrics['run_s']:.4f} s, {tail_text}, "
            f"samples {len(runs)}",
            f"  setup_s       median {metrics['setup_s']:.4f} s, samples {len(setups)}",
            f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB",
        ]
    else:
        units = dict(PER_LAYER)
        for name, value in metrics.items():
            lines.append(f"  {name:32s} {value:.6g} {units[name]}")
        distinct = report["layer_runs"][0]["distinct"]
        lines.append(f"  useful-work bases: {distinct['games']} distinct of "
                     f"{distinct['games_played']} games, {distinct['companion']} distinct "
                     f"of {distinct['companion_calls']} companion calls")
        if report["missing"]:
            lines.append(f"  missing (metrics read 0): {', '.join(report['missing'])}")
    lines.append(f"  failed_share  {failed / attempted:.4g} ({failed}/{attempted} runs)")
    if not report["has_reference"]:
        lines.append(f"  no reference result for seed {seed}: checked exit status, "
                     "structure and repeatability only")
    for problem in report["problems"]:
        lines.append(f"  FAILED CHECK: {problem}")
    lines.append(f"  record: {os.path.relpath(record_path, ROOT)}")
    return lines


def bench_one(workload, seed, seconds, trace, machine) -> dict:
    report = run_workload(workload, seed, seconds, trace)
    if trace:
        metrics = layer_metrics(report)
        units = dict(PER_LAYER)
    else:
        metrics = {"run_s": statistics.median(report["run_s"]),
                   "setup_s": statistics.median(report["setup_s"]),
                   "peak_rss_mb": report["peak_rss_mb"]}
        units = END_TO_END_UNITS
    correct = report["failed"] == 0
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record_path = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": dict(machine, **report["versions"]),
        "metrics": reported,
        "samples": {"run_s": report["run_s"], "traced_run_s": report["traced_run_s"],
                    "setup_s": report["setup_s"]},
        "failed_share": report["failed"] / report["attempted"],
        "tracing_overhead_s": metrics.get("trace.overhead_s"),
        "distinct": [r["distinct"] for r in report["layer_runs"]],
        "missing": report["missing"],
        "problems": report["problems"],
        "correct": correct,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for line in describe(workload, seed, trace, report, metrics, record_path):
        print(line)
    return {"correct": correct, "attempted": report["attempted"], "failed": report["failed"],
            "metrics": reported}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in ("src/pdhj/__init__.py", "src/pdhj/cli.py", "configs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"bench: {needed} not found under {ROOT}; run from a pdhj checkout",
                  file=sys.stderr)
            return 2
    machine = machine_info()
    # "all" runs every workload once, so it skips the composites
    names = sorted(set(workloads.WORKLOADS) - set(workloads.COMPOSITES)) \
        if args.workload == "all" else [args.workload]
    print(f"machine: nproc {machine['nproc']}, cpu {machine['cpu_model']}, "
          f"python {platform.python_version()}")
    summaries = {}
    try:
        for name in names:
            summaries[name] = bench_one(name, args.seed, args.seconds, args.trace, machine)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{w}.{k}": v for w, s in summaries.items()
                             for k, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
