"""Print the byte table of a pdhj checkout as JSON: for each configs/*.json
and bench/configs/feedback_short.json at seeds 0, 1 and 2, the exit code of
``pdhj run`` and the sha256 of every output file except manifest.json (which
records the run's environment).  Two builds are byte-identical when their
tables are equal.

This is a script, not a test.  Run it from any directory:

    python3 tests/byte_table.py [ROOT] > table.json

ROOT is the checkout to import pdhj from (its src/ directory) and to read
the configs of; it defaults to the checkout this file is in.  To compare two
checkouts, print both tables and diff them.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

SEEDS = (0, 1, 2)


def byte_table(root: pathlib.Path) -> dict:
    """{"<config stem>@seed<n>": {"exit": code, "files": {path: sha256}}}."""
    sys.path.insert(0, str(root / "src"))
    from pdhj import cli

    configs = sorted((root / "configs").glob("*.json"))
    configs.append(root / "bench" / "configs" / "feedback_short.json")
    table = {}
    for config in configs:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as out:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(["run", "--config", str(config), "--out", out,
                                     "--seed", str(seed)])
                files = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in sorted(pathlib.Path(out).rglob("*"))
                         if path.is_file() and path.name != "manifest.json"}
            table[f"{config.stem}@seed{seed}"] = {"exit": code, "files": files}
    return table


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0] if argv else pathlib.Path(__file__).resolve().parent.parent)
    table = byte_table(root.resolve())
    print(json.dumps(table, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
