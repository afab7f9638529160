"""Workload definitions and the reference check of the pdhj benchmark.

A workload is a list of configs that one iteration runs back to back through
``pdhj.cli.run``: shipped ones under ``configs/`` and the benchmark's own
under ``bench/configs/``.  Reference results live in
``bench/reference/seed<n>/<stem>.json``, where the stem is the config's file
name without ``.json``.
"""

from __future__ import annotations

import json
import math
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

WORKLOADS = {
    # The longest experiment users run (~20 s): feedback loop ~70%, DP ~30%.
    # One iteration fills a whole run, so host noise is not averaged out;
    # BENCHMARK.json times feedback-short instead, and the self-test pins
    # this workload's layer counts.
    "feedback-desk": ("configs/feedback_run.json",),
    # The shipped feedback experiment on a 16-step grid with smaller
    # adversary budgets (~2.6 s): the same DP, companion and game code.
    "feedback-short": ("bench/configs/feedback_short.json",),
    # the only workload running minimax_residual and viscosity_scan
    "residual-check": ("configs/minimax_check.json",),
    # five dp_value tables and nothing else: the clean DP slice, and the
    # bypass workload for any feedback-loop change
    "dp-oracle": ("configs/stability_run.json",),
    # fixed costs dominate; the only scalar-wise upsilon battery and the
    # bilinear two-sided DP with cheap callables
    "quick-checks": ("configs/solve.json", "configs/upsilon_check.json",
                     "configs/game_value.json", "configs/isaacs_check.json"),
}
# Composite workloads run the configs of their parts back to back.  "checks"
# is every shipped experiment but the feedback run (~8 s): the BENCHMARK.json
# workload for the DP, residual, upsilon and solver layers, and the bypass
# for feedback-loop changes.
COMPOSITES = {"checks": ("residual-check", "dp-oracle", "quick-checks")}
WORKLOADS.update({name: tuple(path for part in parts for path in WORKLOADS[part])
                  for name, parts in COMPOSITES.items()})

# Floats in result.json must agree with the reference within
# |a - b| <= ABS_TOL + REL_TOL * |b|.  BENCHMARK.json has a fixed key set, so
# the tolerance is recorded here.  It admits solver-tolerance drift (the
# implicit step stops at a 1e-11 relative residual) and nothing coarser.
REL_TOL = 1e-8
ABS_TOL = 1e-10


def load_configs(root: str, workload: str) -> list:
    """(stem, config dict) for each config of the workload, in run order."""
    out = []
    for path in WORKLOADS[workload]:
        with open(os.path.join(root, path)) as fh:
            out.append((os.path.basename(path)[:-len(".json")], json.load(fh)))
    return out


def result_dir_name(config: dict) -> str:
    """Sub-directory that ``cli.run`` writes for this config."""
    return config.get("name", config["kind"])


def reference_path(seed: int, stem: str) -> str:
    return os.path.join(REFERENCE_DIR, f"seed{seed}", stem + ".json")


def load_reference(seed: int, stem: str):
    """Reference result.json bytes, or None when none is shipped for the seed."""
    path = reference_path(seed, stem)
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(got, want, path: str = "$", shape_only: bool = False) -> list:
    """Differences between two parsed result.json documents.

    Booleans, integers, strings and null must be equal, floats must agree
    within the tolerance above, and dicts and lists must match in keys and
    length.  With ``shape_only`` only the structure and the value types are
    compared (the check used for a seed that has no shipped reference).
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        diffs = []
        if set(got) != set(want):
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            diffs.append(f"{path}: keys differ (missing {missing}, extra {extra})")
        for key in sorted(set(got) & set(want)):
            diffs += compare(got[key], want[key], f"{path}.{key}", shape_only)
        return diffs
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of length {len(want)}"]
        diffs = []
        for i, (a, b) in enumerate(zip(got, want)):
            diffs += compare(a, b, f"{path}[{i}]", shape_only)
        return diffs
    if _is_number(want) and _is_number(got) and \
            (isinstance(want, float) or isinstance(got, float)):
        if shape_only:
            return []
        a, b = float(got), float(want)
        if math.isnan(a) and math.isnan(b):
            return []
        if a == b or abs(a - b) <= ABS_TOL + REL_TOL * abs(b):
            return []
        return [f"{path}: {a!r} differs from reference {b!r}"]
    if shape_only:
        if type(got) is not type(want):
            return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
        return []
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != reference {want!r}"]
    return []


def check_result(seed: int, stem: str, data: bytes) -> tuple:
    """(problems, byte_identical) for one result.json against its reference.

    Without a reference for this seed, the seed-0 reference supplies the
    expected structure and ``byte_identical`` is None.
    """
    try:
        got = json.loads(data)
    except ValueError as err:
        return [f"{stem}: result.json is not JSON ({err})"], False
    ref = load_reference(seed, stem)
    if ref is not None:
        problems = compare(got, json.loads(ref))
        return [f"{stem}: {p}" for p in problems], data == ref
    shape = load_reference(0, stem)
    if shape is None:
        return [f"{stem}: no reference result shipped"], None
    problems = compare(got, json.loads(shape), shape_only=True)
    return [f"{stem}: {p}" for p in problems], None
