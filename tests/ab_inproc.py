"""Time one workload in process from two pdhj checkouts, in alternating batches.

This is a script, not a test.  Run it from any directory:

    python3 tests/ab_inproc.py PARENT CHANGE WORKLOAD [--rounds 40] [--runs 2] [--seed 0]

PARENT and CHANGE are checkout roots; WORKLOAD is a name from the
``WORKLOADS`` table of each checkout's ``bench/workloads.py`` (for example
``checks`` or ``feedback-short``).  One worker subprocess per side imports
pdhj from its checkout's ``src/``, runs the workload's configs once to warm
up, and stays up for the whole comparison.  Each round asks both workers, the
side that goes first alternating from round to round, for a short batch of
``--runs`` iterations, each running every config back to back through
``pdhj.cli.run`` at ``--seed``, and takes each batch's median.  A shared
host changes speed over seconds to minutes, so only batches taken close
together say which side is faster, and the ratio of a round's two medians
is the unit of evidence.

The script prints each round's two medians and their ratio (change over
parent), each side's median and quartiles over the rounds, the rounds the
change won, the median and quartiles of the round ratios, and whether the
two checkouts' outputs hash the same: the sha256 of every output file but
``manifest.json`` of each config at seeds 0, 1 and 2, with the exit codes.
"""

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

HASH_SEEDS = (0, 1, 2)


def _worker(root: pathlib.Path, workload: str, seed: int):
    """In the side's own process: warm up, then answer each line of stdin,
    "time N" with the times of N iterations and "hash" with the output
    hashes, one JSON line each, until stdin closes."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from pdhj import cli

    configs = workloads.load_configs(str(root), workload)
    channel = sys.stdout  # the replies; what the runs print goes nowhere
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            tempfile.TemporaryDirectory() as out:

        def iteration() -> float:
            t0 = time.perf_counter()
            for _, config in configs:
                cli.run(config, out, seed=seed)
            return time.perf_counter() - t0

        iteration()  # warms up
        for line in sys.stdin:
            command = line.split()
            if command[0] == "time":
                reply = [iteration() for _ in range(int(command[1]))]
            else:
                reply = _hashes(cli, configs)
            print(json.dumps(reply), file=channel, flush=True)


def _hashes(cli, configs) -> dict:
    hashes = {}
    for stem, config in configs:
        for s in HASH_SEEDS:
            with tempfile.TemporaryDirectory() as out:
                code = cli.run(config, out, seed=s)
                files = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in sorted(pathlib.Path(out).rglob("*"))
                         if path.is_file() and path.name != "manifest.json"}
            hashes[f"{stem}@seed{s}"] = {"exit": code, "files": files}
    return hashes


class _Side:
    """One side's persistent worker."""

    def __init__(self, root: pathlib.Path, args):
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker", str(root),
                                      args.workload, "--seed", str(args.seed)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def _quartiles(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("roots", nargs="+", help="PARENT CHANGE (one ROOT with --worker)")
    ap.add_argument("workload")
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--runs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    roots = [pathlib.Path(root).resolve() for root in args.roots]
    if args.worker:
        _worker(roots[0], args.workload, args.seed)
        return 0
    if len(roots) != 2:
        ap.error("give two checkout roots, PARENT and CHANGE")
    sides = []
    try:
        for root in roots:
            sides.append(_Side(root, args))
        medians, ratios = ([], []), []
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for side in order:
                medians[side].append(statistics.median(sides[side].ask(f"time {args.runs}")))
            a, b = medians[0][-1], medians[1][-1]
            ratios.append(b / a)
            print(f"round {r + 1} ({'parent' if order[0] == 0 else 'change'} first): "
                  f"parent {a * 1e3:.1f} ms, change {b * 1e3:.1f} ms, ratio {b / a:.3f}")
        hashes = [side.ask("hash") for side in sides]
    finally:
        for side in sides:
            side.close()
    for name, values in zip(("parent", "change"), medians):
        q1, q2, q3 = _quartiles(values)
        print(f"{name}: median {q2 * 1e3:.1f} ms, quartiles {q1 * 1e3:.1f}/{q3 * 1e3:.1f} ms")
    wins = sum(b < a for a, b in zip(*medians))
    q1, q2, q3 = _quartiles(ratios)
    print(f"change lower in {wins} of {args.rounds} rounds; round ratios: median {q2:.3f}, "
          f"quartiles {q1:.3f}/{q3:.3f}")
    same = hashes[0] == hashes[1]
    print(f"outputs at seeds {', '.join(map(str, HASH_SEEDS))}: "
          f"{'the same' if same else 'DIFFERENT'} ({len(hashes[0])} runs)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
