"""One workload process of the pdhj benchmark (started by bench/run.py).

The process imports pdhj from ``src/``, validates the workload's configs and
prints ``READY``; the parent times interpreter start to that line as one
set-up sample.  With ``--setup-only`` it exits there.  Otherwise it runs the
workload closed loop with one client: each iteration runs the workload's
configs back to back through ``pdhj.cli.run`` and the next iteration starts
after the previous one ends.  It stops when one more iteration would overrun
``--seconds`` (after at least one).  With ``--trace 1`` every iteration is a
pair, one untraced run and one traced run, so the tracing overhead and the
byte-identity of traced results are measured in the same process.  The last
stdout line is a JSON report for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads


def _one_iteration(cli, configs, out_dir, seed):
    """Run every config once; (wall seconds, [(stem, exit status, bytes)])."""
    from pdhj.errors import PdhjError, UsageError

    runs = []
    t0 = time.perf_counter()
    for stem, config in configs:
        try:
            status = cli.run(config, out_dir, seed=seed)
        except UsageError as err:
            print(f"usage error in {stem}: {err}", file=sys.stderr)
            status = 2
        except PdhjError as err:
            print(f"{type(err).__name__} in {stem}: {err}", file=sys.stderr)
            status = 3
        except Exception:  # a crash is a failed run, as it is for the pdhj command
            traceback.print_exc()
            status = 1
        runs.append((stem, status, config))
    wall = time.perf_counter() - t0
    results = []
    for stem, status, config in runs:
        path = os.path.join(out_dir, workloads.result_dir_name(config), "result.json")
        data = b""
        if status in (0, 1) and os.path.isfile(path):
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
        results.append((stem, status, data))
    return wall, results


class Checker:
    """Reference check of every run; counts attempted and failed runs."""

    def __init__(self, seed):
        self.seed = seed
        self.attempted = self.failed = 0
        self.problems = []
        self.identical = True  # every result byte-identical to its reference
        self.has_reference = True
        self.first = {}

    def check(self, results):
        for stem, status, data in results:
            self.attempted += 1
            problems = [f"{stem}: exit status {status}"] if status != 0 else []
            if data:
                found, same = workloads.check_result(self.seed, stem, data)
                problems += found
                if same is None:
                    self.has_reference = False
                self.identical = self.identical and bool(same)
                # no iteration, traced or not, may change a byte of the result
                if self.first.setdefault(stem, data) != data:
                    problems.append(f"{stem}: result.json differs from the first iteration's")
            else:
                problems.append(f"{stem}: no result.json")
                self.identical = False
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems += problems[:5]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--root", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from numpy import __version__ as numpy_version
    from pdhj import cli

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"pdhj imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    configs = workloads.load_configs(args.root, args.workload)
    for _, config in configs:
        cli.validate_config(config)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    os.makedirs(args.out, exist_ok=True)
    checker = Checker(args.seed)
    untraced, traced, layer_runs = [], [], []
    missing = []
    if args.trace:
        from tracer import Tracer
    start = time.perf_counter()
    try:
        while True:
            wall, results = _one_iteration(cli, configs, args.out, args.seed)
            untraced.append(wall)
            checker.check(results)
            if args.trace:
                tracer = Tracer()
                with tracer:
                    wall_t, results_t = _one_iteration(cli, configs, args.out, args.seed)
                traced.append(wall_t)
                missing = tracer.missing
                checker.check(results_t)
                layer = tracer.metrics()
                layer["cli.result_bytes"] = sum(len(d) for _, _, d in results_t)
                layer["cli.result_identical"] = int(checker.identical and checker.has_reference)
                layer_runs.append({"metrics": layer, "distinct": tracer.distinct()})
            per_iter = statistics.median(untraced) + (statistics.median(traced) if traced else 0.0)
            if time.perf_counter() - start + per_iter > args.seconds:
                break
    finally:
        shutil.rmtree(args.out, ignore_errors=True)

    report = {
        "run_s": untraced,
        "traced_run_s": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "has_reference": checker.has_reference,
        "layer_runs": layer_runs,
        "missing": missing,
        "versions": {"python": sys.version.split()[0], "numpy": numpy_version},
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
