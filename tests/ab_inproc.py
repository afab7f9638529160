"""Time one workload in process from two pdhj checkouts, in alternating pairs.

This is a script, not a test.  Run it from any directory:

    python3 tests/ab_inproc.py PARENT CHANGE WORKLOAD [--rounds 8] [--runs 10] [--seed 0]

PARENT and CHANGE are checkout roots; WORKLOAD is a name from the
``WORKLOADS`` table of each checkout's ``bench/workloads.py`` (for example
``checks`` or ``feedback-short``).  Each round starts one subprocess per
side, the side that goes first alternating from round to round.  A side's
subprocess imports pdhj from its checkout's ``src/``, runs the workload's
configs once to warm up, then times ``--runs`` iterations, each running
every config back to back through ``pdhj.cli.run`` at ``--seed``, and
reports their median.  A shared host changes speed over minutes, so only
pairs taken close together say which side is faster.

The script prints each round's two medians, each side's median and
quartiles over the rounds, the rounds the change won, and whether the two
checkouts' outputs hash the same: the sha256 of every output file but
``manifest.json`` of each config at seeds 0, 1 and 2, with the exit codes.
"""

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

HASH_SEEDS = (0, 1, 2)


def _worker(root: pathlib.Path, workload: str, runs: int, seed: int, hash_outputs: bool) -> dict:
    """In the side's own process: the iteration times and, if asked, the
    output hashes."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from pdhj import cli

    configs = workloads.load_configs(str(root), workload)
    times, hashes = [], {}
    with tempfile.TemporaryDirectory() as out:
        for _ in range(runs + 1):  # the first iteration warms up
            t0 = time.perf_counter()
            for _, config in configs:
                cli.run(config, out, seed=seed)
            times.append(time.perf_counter() - t0)
    for stem, config in configs if hash_outputs else ():
        for s in HASH_SEEDS:
            with tempfile.TemporaryDirectory() as out:
                code = cli.run(config, out, seed=s)
                files = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in sorted(pathlib.Path(out).rglob("*"))
                         if path.is_file() and path.name != "manifest.json"}
            hashes[f"{stem}@seed{s}"] = {"exit": code, "files": files}
    return {"times": times[1:], "hashes": hashes}


def _run_side(root: pathlib.Path, args, hash_outputs: bool) -> dict:
    out = subprocess.run([sys.executable, __file__, "--worker", str(root), args.workload,
                          "--runs", str(args.runs), "--seed", str(args.seed)]
                         + ["--hash"] * hash_outputs,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _quartiles(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--hash", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("roots", nargs="+", help="PARENT CHANGE (one ROOT with --worker)")
    ap.add_argument("workload")
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    roots = [pathlib.Path(root).resolve() for root in args.roots]
    if args.worker:
        print(json.dumps(_worker(roots[0], args.workload, args.runs, args.seed, args.hash)))
        return 0
    if len(roots) != 2:
        ap.error("give two checkout roots, PARENT and CHANGE")
    medians, hashes = ([], []), [None, None]
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for side in order:
            got = _run_side(roots[side], args, hashes[side] is None)
            medians[side].append(statistics.median(got["times"]))
            hashes[side] = hashes[side] or got["hashes"]
        a, b = medians[0][-1], medians[1][-1]
        print(f"round {r + 1} ({'parent' if order[0] == 0 else 'change'} first): "
              f"parent {a * 1e3:.1f} ms, change {b * 1e3:.1f} ms, ratio {b / a:.3f}")
    for name, values in zip(("parent", "change"), medians):
        q1, q2, q3 = _quartiles(values)
        print(f"{name}: median {q2 * 1e3:.1f} ms, quartiles {q1 * 1e3:.1f}/{q3 * 1e3:.1f} ms")
    wins = sum(b < a for a, b in zip(*medians))
    ratio = statistics.median(medians[1]) / statistics.median(medians[0])
    print(f"change lower in {wins} of {args.rounds} rounds; median ratio {ratio:.3f}")
    same = hashes[0] == hashes[1]
    print(f"outputs at seeds {', '.join(map(str, HASH_SEEDS))}: "
          f"{'the same' if same else 'DIFFERENT'} ({len(hashes[0])} runs)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
