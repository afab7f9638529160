"""Write the reference result.json files of the pdhj benchmark.

Usage, from the root of a pdhj checkout:

    python3 bench/make_references.py --seeds 0 1 [--workload dp-oracle]

Each config of the workloads runs once per seed through ``pdhj.cli.run``; a
run whose exit status is not 0 writes no reference and makes the script
exit 1.  Only regenerate references when a change to the numerics is
intended, and say so.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

import workloads

ROOT = os.path.dirname(workloads.BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv=None) -> int:
    from pdhj import cli

    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None)
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else \
        sorted(set(workloads.WORKLOADS) - set(workloads.COMPOSITES))
    status = 0
    tmp = tempfile.mkdtemp(dir=workloads.BENCH_DIR, prefix=".refs-")
    try:
        for name in names:
            for seed in args.seeds:
                for stem, config in workloads.load_configs(ROOT, name):
                    rc = cli.run(config, tmp, seed=seed)
                    src = os.path.join(tmp, workloads.result_dir_name(config), "result.json")
                    if rc != 0:
                        print(f"{name} seed {seed} {stem}: exit status {rc}, no reference")
                        status = 1
                        continue
                    dst = workloads.reference_path(seed, stem)
                    os.makedirs(os.path.dirname(dst), exist_ok=True)
                    shutil.copyfile(src, dst)
                    print(f"{name} seed {seed} {stem}: {os.path.relpath(dst, ROOT)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
