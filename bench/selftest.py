"""Self-test of the pdhj benchmark's traced run.

Usage, from the root of a pdhj checkout (about two minutes on 2 cores):

    python3 bench/selftest.py [--workload dp-oracle]

For each workload but the composites it runs ``bench/run.py --trace 1`` at
seed 0 and checks:

* the run is correct, which includes that the traced iteration's
  result.json files are byte-identical to the untraced iteration's;
* each per-layer metric is non-zero on the workloads named for it;
* the pinned baseline counts and useful-work bases, which are also the
  cProfile call counts of the parent code.

Exit status 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads
from tracer import PER_LAYER

ROOT = os.path.dirname(workloads.BENCH_DIR)
SEED = 0

# the composite workloads run the same code as their parts
ALL = tuple(w for w in workloads.WORKLOADS if w not in workloads.COMPOSITES)
FD, FS, RC, DP, QC = ("feedback-desk", "feedback-short", "residual-check", "dp-oracle",
                      "quick-checks")
FB = (FD, FS)

# metric -> workloads on which it must be non-zero
NONZERO = {
    "game.dp.calls": ALL, "game.dp.cells": ALL, "game.dp.s": ALL,
    "game.dp.cells_per_s": ALL, "game.callbacks": ALL,
    "game.interp.scalar_calls": ALL, "game.interp.states": ALL, "game.interp.s": ALL,
    "game.interp.batch_calls": FB,
    "game.feedback.games": FB, "game.feedback.s": FB, "game.feedback.useful_ratio": FB,
    "game.companion.calls": FB, "game.companion.s": FB, "game.companion.useful_ratio": FB,
    "game.companion.kind.trace": FB, "game.companion.kind.probe": FB,
    "game.companion.kind.library": (FD,),
    "game.hamiltonian.calls": (RC, QC), "game.hamiltonian.s": (RC, QC),
    "evolution.implicit_steps": ALL, "evolution.newton_iters": ALL,
    "evolution.step_s": ALL,
    "evolution.solves": (FD, FS, RC, QC), "evolution.solve_s": (FD, FS, RC, QC),
    "evolution.tube_samples": (FD, FS, RC),
    "minimax.residual.calls": (RC,), "minimax.residual.s": (RC,),
    "minimax.viscosity.calls": (RC,), "minimax.viscosity.s": (RC,),
    "minimax.stability.s": (DP,),
    "pathcore.paths": ALL, "pathcore.path_bytes": ALL, "pathcore.grid_nodes": ALL,
    "pathcore.value_at.calls": ALL,
    "upsilon.battery.s": (QC,), "upsilon.evals": (QC,),
    "upsilon.lyapunov.calls": (FD, FS, QC),
    "cli.validate_s": ALL, "cli.self_s": ALL, "cli.result_bytes": ALL,
    "cli.result_identical": ALL,
}
# Read 0 on every shipped workload at seed 0, so no workload is named for
# them: the linear operators never stall Newton (no bisection fallback), no
# lattice companion wins a feedback step, and trace.overhead_s is a
# difference of two timings that noise can push to or below 0.
UNCHECKED = ("evolution.fallbacks", "game.companion.kind.lattice", "trace.overhead_s")

PINNED = {
    DP: {"game.dp.cells": 23760, "evolution.implicit_steps": 23760,
         "game.interp.scalar_calls": 28512},
    FD: {"game.feedback.games": 684, "game.companion.calls": 25536},
    RC: {"minimax.residual.calls": 41, "evolution.solves": 1792},
}
# useful-work bases on feedback-desk, seed 0
DISTINCT = {"games": 621, "games_played": 684,
            "companion": 9171, "companion_calls": 25536}


def traced_run(workload):
    cmd = [sys.executable, os.path.join(workloads.BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(workloads.BENCH_DIR, "results",
                           f"{workload}-seed{SEED}-trace1.json")) as fh:
        record = json.load(fh)
    return proc.returncode, final, record


def check(workload) -> list:
    rc, final, record = traced_run(workload)
    errors = []
    if rc != 0 or not final["correct"]:
        errors.append(f"{workload}: traced run not correct (exit {rc}): {record['problems']}")
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    expected = {name for name, _ in PER_LAYER}
    if set(metrics) != expected:
        errors.append(f"{workload}: metric set differs: {sorted(set(metrics) ^ expected)}")
    for name, names in NONZERO.items():
        if workload in names and not metrics.get(name):
            errors.append(f"{workload}: {name} is {metrics.get(name)}, expected non-zero")
    for name, want in PINNED.get(workload, {}).items():
        if metrics.get(name) != want:
            errors.append(f"{workload}: {name} = {metrics.get(name)}, pinned {want}")
    if workload == FD and record["distinct"][0] != DISTINCT:
        errors.append(f"{workload}: useful-work bases {record['distinct'][0]} != {DISTINCT}")
    return errors


def main(argv=None) -> int:
    if set(NONZERO) | set(UNCHECKED) != {name for name, _ in PER_LAYER}:
        print("selftest: NONZERO and UNCHECKED must cover every per-layer metric")
        return 1
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=ALL, default=None)
    args = ap.parse_args(argv)
    errors = []
    for workload in [args.workload] if args.workload else ALL:
        errors += check(workload)
    for err in errors:
        print("SELFTEST FAILED:", err)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
