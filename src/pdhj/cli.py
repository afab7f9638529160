"""Configuration-driven experiment runner.

One structured JSON config per experiment; the schema is strict (unknown
fields are errors, every numeric knob has a recorded default).  Each run
writes its manifest (config echo, versions, seed, timestamp) before any
computation, then a result JSON (sorted keys, no timestamps: byte-identical
for identical config and seed) and plot-ready CSV tables.  Exit status 0 iff
every enabled property check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import PdhjError, UsageError
from .evolution import (
    DelayDynamics,
    audit_hypotheses,
    build_p_laplacian,
    make_linear_operator,
    solve_delay_evolution,
)
from .game import (
    ControlGrid,
    GameSpec,
    StateLattice,
    adversary_pool,
    bilinear_game,
    calibrate_step_bound,
    constant_game,
    dp_value,
    estimate_guaranteed_result,
    extremal_shift_strategy,
    hamiltonian,
    audit_hamiltonian_lipschitz,
    sampled_hamiltonians,
    isaacs_game,
    lyapunov_violation_stats,
    play_feedback_games,
)
from .minimax import bump_table, minimax_residual, stability_experiment, \
    stability_refusal, viscosity_scan
from .pathcore import Path, TimeGrid, values_at
from .upsilon import LyapunovParams, property_battery

ENV_OUT_ROOT = "PDHJ_OUT_ROOT"
SCHEMA_VERSION = 1

KINDS = ("solve", "upsilon-check", "game-value", "feedback-run",
         "minimax-check", "stability-run", "isaacs-check")


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

_GRID_SCHEMA = {"t_end": float, "n_steps": int}
# a list field names the type of its entries: [float] holds numbers, [int] integers
_LATTICE_SCHEMA = {"lo": [float], "hi": [float], "points": [int]}
_OPERATOR_SCHEMA = {"kind": str, "dim": int, "gain": float, "nodes": int, "p": float}
_CONTROLS_SCHEMA = {"p_points": [float], "q_points": [float]}
_GAME_SCHEMA = {"kind": str, "scale": float, "gain": float, "cost_weight": float,
                "cost": float, "levels": [float], "controls": _CONTROLS_SCHEMA}
# the fields each operator and game kind reads, besides kind
_OPERATOR_FIELDS = {"linear": ("dim", "gain"), "p-laplacian-1d": ("nodes", "p")}
_GAME_FIELDS = {"isaacs-additive": ("scale", "gain", "cost_weight", "levels", "controls"),
                "bilinear": ("scale", "gain", "levels", "controls"),
                "constant": ("cost", "gain", "controls")}

_SCHEMAS = {
    "solve": {"operator": _OPERATOR_SCHEMA, "grid": _GRID_SCHEMA, "lipschitz": float,
              "t0": float, "initial": [float],
              "forcing": {"kind": str, "value": [float]}},
    "upsilon-check": {"samples": int},
    "game-value": {"game": _GAME_SCHEMA, "grid": _GRID_SCHEMA,
                   "lattice": _LATTICE_SCHEMA, "probe_z": [float]},
    "isaacs-check": {"game": _GAME_SCHEMA, "samples": int},
    "feedback-run": {"game": _GAME_SCHEMA, "grid": _GRID_SCHEMA,
                     "lattice": _LATTICE_SCHEMA, "partition_steps": [int],
                     "budget": int, "x0": [float], "library_size": int,
                     "epsilon_fraction": float, "calibration_budget": int},
    "minimax-check": {"game": _GAME_SCHEMA, "grid": _GRID_SCHEMA,
                      "lattice": _LATTICE_SCHEMA, "sites": int, "horizon": float,
                      "budget": int, "mutation_control": bool},
    "stability-run": {"game": _GAME_SCHEMA, "grid": _GRID_SCHEMA,
                      "lattice": _LATTICE_SCHEMA, "family": str, "n_list": [int]},
}

_COMMON_FIELDS = {"schema_version": int, "kind": str, "name": str, "seed": int}


def _check_fields(obj: dict, schema: dict, prefix: str):
    for key, value in obj.items():
        if key not in schema:
            raise UsageError(f"unknown config field {prefix}{key}", field_path=prefix + key)
        expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise UsageError(f"field {prefix}{key} must be an object",
                                 field_path=prefix + key)
            _check_fields(value, expected, prefix + key + ".")
        elif expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise UsageError(f"field {prefix}{key} must be a number",
                                 field_path=prefix + key)
            if not math.isfinite(value):
                raise UsageError(f"field {prefix}{key} must be finite", field_path=prefix + key)
        elif expected is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise UsageError(f"field {prefix}{key} must be an integer",
                                 field_path=prefix + key)
        elif isinstance(expected, list):
            if not isinstance(value, list):
                raise UsageError(f"field {prefix}{key} must be a list",
                                 field_path=prefix + key)
            accepted, noun = ((int, float), "numbers") if expected == [float] else (int, "integers")
            if not all(isinstance(v, accepted) and not isinstance(v, bool) for v in value):
                raise UsageError(f"{prefix}{key} entries must be {noun}",
                                 field_path=prefix + key)
            if any(isinstance(v, float) and not math.isfinite(v) for v in value):
                raise UsageError(f"field {prefix}{key} must hold finite numbers",
                                 field_path=prefix + key)
        elif expected is str:
            if not isinstance(value, str):
                raise UsageError(f"field {prefix}{key} must be a string",
                                 field_path=prefix + key)
        elif expected is bool:
            if not isinstance(value, bool):
                raise UsageError(f"field {prefix}{key} must be a boolean",
                                 field_path=prefix + key)


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    version = config.get("schema_version")
    if version != SCHEMA_VERSION:
        raise UsageError(f"schema_version must be {SCHEMA_VERSION}",
                         field_path="schema_version")
    kind = config.get("kind")
    if kind not in KINDS:
        raise UsageError(f"kind must be one of {KINDS}", field_path="kind")
    schema = dict(_COMMON_FIELDS)
    schema.update(_SCHEMAS[kind])
    _check_fields(config, schema, "")
    return config


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------

def _build_grid(block: dict) -> TimeGrid:
    block = block or {}
    return TimeGrid(0.0, float(block.get("t_end", 1.0)), int(block.get("n_steps", 32)))


def _build_lattice(block: dict, dim: int) -> StateLattice:
    """The value lattice; it must have one axis per coordinate of the game state."""
    block = block or {}
    lo = block.get("lo", [-2.0])
    hi = block.get("hi", [2.0])
    points = block.get("points", [64])
    for key, entries in (("lo", lo), ("hi", hi), ("points", points)):
        if len(entries) != dim:
            raise UsageError(f"lattice.{key} has {len(entries)} entries, but the game "
                             f"state has dimension {dim}", field_path="lattice." + key)
    return StateLattice(lo=tuple(lo), hi=tuple(hi), shape=tuple(points))


def _state_vector(entries: list, dim: int, field: str) -> np.ndarray:
    """A config vector that needs one number per coordinate of the state."""
    if len(entries) != dim:
        raise UsageError(f"{field} has {len(entries)} entries, but the state has "
                         f"dimension {dim}", field_path=field)
    return np.asarray(entries, dtype=float)


def _site_state(rng, lattice: StateLattice, shrink: float) -> np.ndarray:
    """A site state drawn uniformly in the lattice box shrunk by `shrink`, one
    draw per coordinate in coordinate order (so dimension 1 draws one scalar)."""
    return np.array([float(rng.uniform(lo * shrink, hi * shrink))
                     for lo, hi in zip(lattice.lo, lattice.hi)])


def _count(config: dict, key: str, default: int) -> int:
    """A count field of the config, refused below 1."""
    value = int(config.get(key, default))
    if value < 1:
        raise UsageError(f"{key} must be >= 1, got {value}", field_path=key)
    return value


def _refuse_unread(block: dict, name: str, kind: str, fields: dict):
    """Refuse an unknown kind, or a field that the block's kind does not read,
    naming it."""
    if kind not in fields:
        raise UsageError(f"unknown {name} kind {kind!r}", field_path=name + ".kind")
    for key in block:
        if key != "kind" and key not in fields[kind]:
            raise UsageError(f"field {name}.{key} is not read by {name} kind {kind!r}",
                             field_path=f"{name}.{key}")


def _build_operator(block: dict):
    block = block or {}
    kind = block.get("kind", "linear")
    _refuse_unread(block, "operator", kind, _OPERATOR_FIELDS)
    if kind == "linear":
        return make_linear_operator(dim=int(block.get("dim", 1)),
                                    gain=float(block.get("gain", 1.0)))
    return build_p_laplacian(int(block.get("nodes", 8)), float(block.get("p", 2.0)))


def _build_game(block: dict) -> GameSpec:
    block = block or {}
    kind = block.get("kind", "isaacs-additive")
    _refuse_unread(block, "game", kind, _GAME_FIELDS)
    if block.get("levels") == []:
        raise UsageError("game.levels must not be empty", field_path="game.levels")
    if kind == "isaacs-additive":
        spec = isaacs_game(scale=float(block.get("scale", 0.5)),
                           gain=float(block.get("gain", 1.0)),
                           cost_weight=float(block.get("cost_weight", 0.1)),
                           levels=tuple(block.get("levels", (-1.0, 0.0, 1.0))))
    elif kind == "bilinear":
        spec = bilinear_game(scale=float(block.get("scale", 1.0)),
                             gain=float(block.get("gain", 1.0)),
                             levels=tuple(block.get("levels", (-1.0, 1.0))))
    else:
        spec = constant_game(cost=float(block.get("cost", 1.0)),
                             gain=float(block.get("gain", 1.0)))
    controls = block.get("controls")
    if controls is not None:
        for key in ("p_points", "q_points"):
            if key not in controls:
                raise UsageError(f"missing field controls.{key}",
                                 field_path="game.controls." + key)
            if not controls[key]:
                raise UsageError(f"game.controls.{key} must not be empty",
                                 field_path="game.controls." + key)
        spec = replace(spec, controls=ControlGrid(p_points=tuple(controls["p_points"]),
                                                  q_points=tuple(controls["q_points"])))
    return spec


# ---------------------------------------------------------------------------
# experiment implementations
#
# Each runner is a generator that yields twice: once when it has built its
# domain objects from the config, so every refusal of the config is raised
# before run writes anything, and then its result.
# ---------------------------------------------------------------------------

def _run_solve(config: dict, seed: int, artifacts: dict):
    op = _build_operator(config.get("operator"))
    grid = _build_grid(config.get("grid"))
    lipschitz = float(config.get("lipschitz", 1.0))
    dyn = DelayDynamics.forced(op, lipschitz)
    dim = op.space.dim
    initial = _state_vector(config.get("initial", [1.0] * dim), dim, "initial")
    x0 = Path.constant(grid, initial)
    forcing_block = config.get("forcing", {"kind": "zero"})
    if forcing_block.get("kind", "zero") == "zero":
        forcing = None
    elif forcing_block["kind"] == "constant":
        vec = _state_vector(forcing_block.get("value", [0.0] * dim), dim, "forcing.value")
        forcing = np.tile(vec, (grid.n_steps, 1))
    else:
        raise UsageError("forcing.kind must be 'zero' or 'constant'",
                         field_path="forcing.kind")
    yield
    report = solve_delay_evolution(dyn, float(config.get("t0", 0.0)), x0, forcing=forcing)
    audit = audit_hypotheses(op, 200, seed)
    artifacts["path.csv"] = report.path.to_csv()
    artifacts["solve_report.json"] = json.dumps(report.to_json_obj(), indent=2,
                                                sort_keys=True)
    yield {
        "kind": "solve",
        "residual_estimate": report.residual_estimate,
        "newton_total": report.newton_total,
        "operator_audit": audit.to_json_obj(),
        "final_state": [float(v) for v in report.path.values[-1]],
        "passed": audit.passed and report.residual_estimate < 1e-8,
    }


def _run_upsilon_check(config: dict, seed: int, artifacts: dict):
    samples = _count(config, "samples", 500)
    yield
    battery = property_battery(samples=samples, seed=seed)
    rows = ["name,value,passed"]
    for check in battery["checks"]:
        rows.append(f"{check['name']},{check['value']},{check['passed']}")
    artifacts["upsilon_checks.csv"] = "\n".join(rows) + "\n"
    yield {"kind": "upsilon-check", **battery}


def _run_game_value(config: dict, seed: int, artifacts: dict):
    spec = _build_game(config.get("game"))
    grid = _build_grid(config.get("grid"))
    dim = spec.dyn.op.space.dim
    lattice = _build_lattice(config.get("lattice"), dim)
    z = _state_vector(config.get("probe_z", [1.0] * dim), dim, "probe_z")
    yield
    table = dp_value(spec, grid, lattice)
    artifacts["value_table.csv"] = table.to_csv()
    probe = hamiltonian(spec, 0.0, Path.constant(grid, [0.0] * dim), z)
    gap_max = float(np.max(table.v_plus - table.v_minus))
    monotone = bool(np.all(table.v_minus <= table.v_plus + 1e-12))
    yield {
        "kind": "game-value",
        "game": spec.name,
        "isaacs_gap_at_probe": probe.isaacs_gap,
        "value_gap_max": gap_max,
        "order_ok": monotone,
        "v_plus_range": [float(table.v_plus.min()), float(table.v_plus.max())],
        "passed": monotone,
    }


def _run_isaacs_check(config: dict, seed: int, artifacts: dict):
    spec = _build_game(config.get("game"))
    samples = _count(config, "samples", 100)
    yield
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, 8)
    dim = spec.dyn.op.space.dim
    values, zs, times = np.empty((samples, 9, dim)), np.empty((samples, 1, dim)), np.empty(samples)
    for s in range(samples):  # draws in the order of one sample at a time: x, z, t
        values[s] = rng.standard_normal((9, dim))
        zs[s, 0] = rng.standard_normal(dim)
        times[s] = float(rng.choice(grid.nodes))
    nodes = np.broadcast_to(grid.nodes, (samples, 9))
    f_minus, f_plus = sampled_hamiltonians(spec, times, values_at(nodes, values, times),
                                           lambda s: Path(grid, values[s]), zs)
    worst_gap, violations = 0.0, 0
    for gap in (f_plus - f_minus)[:, 0].tolist():
        worst_gap = max(worst_gap, gap)
        violations += gap < -1e-12
    lip = audit_hamiltonian_lipschitz(spec, samples, seed)
    yield {
        "kind": "isaacs-check",
        "game": spec.name,
        "max_isaacs_gap": worst_gap,
        "order_violations": int(violations),
        "lipschitz_ratio": lip.max_ratio,
        "lipschitz_bound": lip.bound,
        "passed": violations == 0 and not lip.flagged,
    }


def _run_feedback(config: dict, seed: int, artifacts: dict):
    spec = _build_game(config.get("game"))
    grid = _build_grid(config.get("grid"))
    dim = spec.dyn.op.space.dim
    lattice = _build_lattice(config.get("lattice"), dim)
    x0_vec = _state_vector(config.get("x0", [0.4] * dim), dim, "x0")
    steps = config.get("partition_steps", [8, 16, 32])
    if not steps or min(steps) < 1:
        raise UsageError("partition_steps must be a nonempty list of positive integers",
                         field_path="partition_steps")
    budget = _count(config, "budget", 50)
    calibration_budget = _count(config, "calibration_budget", 12)
    yield
    table = dp_value(spec, grid, lattice)
    frac = float(config.get("epsilon_fraction", 1.0))
    base = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=grid.t_end)
    params = LyapunovParams(epsilon=frac * base.epsilon0, lambda_L=spec.lambda_L,
                            horizon=grid.t_end)
    x0 = Path.constant(grid, x0_vec)
    partitions = [TimeGrid(0.0, grid.t_end, n) for n in steps]
    strategy = extremal_shift_strategy(spec, params, 0.0, x0, partitions,
                                       value=table,
                                       library_size=int(config.get("library_size", 64)),
                                       seed=seed)
    m_hat = calibrate_step_bound(spec, strategy, partitions, calibration_budget, seed + 1)
    est = estimate_guaranteed_result(spec, strategy, 0.0, x0, budget, partitions,
                                     seed=seed + 2)
    traces = [trace for part in partitions
              for trace in play_feedback_games(
                  spec, strategy, adversary_pool(spec, table, min(budget, 16), seed + 2), part)]
    stats = lyapunov_violation_stats(traces, m_hat)
    v_site = table.interp("upper", 0.0, x0_vec)
    tol = m_hat * grid.t_end + params.epsilon + max(lattice.spacing)
    rows = ["partition_steps,worst_payoff"]
    for p in est.per_partition:
        rows.append(f"{p['n_steps']},{p['worst_payoff']:.17g}")
    artifacts["guarantee.csv"] = "\n".join(rows) + "\n"
    yield {
        "kind": "feedback-run",
        "game": spec.name,
        "epsilon": params.epsilon,
        "m_hat": m_hat,
        "estimate": est.to_json_obj(),
        "value_at_start": v_site,
        "tolerance": tol,
        "lyapunov_stats": stats,
        "passed": bool(est.value <= v_site + tol
                       and stats["fraction_within"] >= 0.95
                       and stats["worst_excess_ratio"] <= 2.0),
    }


def _run_minimax_check(config: dict, seed: int, artifacts: dict):
    spec = _build_game(config.get("game"))
    grid = _build_grid(config.get("grid"))
    lattice = _build_lattice(config.get("lattice"), spec.dyn.op.space.dim)
    n_sites = _count(config, "sites", 20)
    horizon = float(config.get("horizon", 4.0 * grid.mesh))
    if not horizon > 0.0:
        raise UsageError(f"horizon must be > 0, got {horizon}", field_path="horizon")
    budget = _count(config, "budget", 32)
    yield
    table = dp_value(spec, grid, lattice)
    rng = np.random.default_rng(seed)
    reports = []
    all_pass = True
    for i in range(n_sites):
        k = int(rng.integers(0, max(grid.n_steps - 2, 1)))
        x0 = Path.constant(grid, _site_state(rng, lattice, 0.6))
        z = rng.standard_normal(spec.dyn.op.space.dim)
        site = (grid.nodes[k], x0, z)
        sub = minimax_residual(table, spec, site, "sub", horizon, budget, seed=seed + 10 + i)
        sup = minimax_residual(table, spec, site, "super", horizon, budget, seed=seed + 500 + i)
        reports.append({"sub": sub.to_json_obj(), "super": sup.to_json_obj()})
        all_pass = all_pass and sub.verdict and sup.verdict
    viscosity = []
    for j in range(3):
        k = int(rng.integers(0, max(grid.n_steps - 2, 1)))
        x0 = Path.constant(grid, _site_state(rng, lattice, 0.5))
        z = rng.standard_normal(spec.dyn.op.space.dim) * 0.5
        scan = viscosity_scan(table, spec, (grid.nodes[k], x0), z, horizon,
                              search_budget=budget, seed=seed + 900 + j)
        viscosity.append({"site_index": j,
                          "violation_found": scan["violation_found"],
                          "c_values": scan["c_values"],
                          "verdicts": [[r.super_verdict, r.sub_verdict]
                                       for r in scan["reports"]]})
        all_pass = all_pass and not scan["violation_found"]
    mutation_detected = None
    if config.get("mutation_control", True):
        k_mid = grid.n_steps // 2
        s_mid = tuple(n // 2 for n in lattice.shape)  # the entry at every axis's midpoint
        bumped = bump_table(table, k_mid, s_mid, 0.2, side="upper")
        x0 = Path.constant(grid, [float(axis[i]) for axis, i in zip(lattice.axes, s_mid)])
        site = (grid.nodes[k_mid], x0, np.zeros(spec.dyn.op.space.dim))
        mut = minimax_residual(bumped, spec, site, "sub", horizon, budget, seed=seed)
        mutation_detected = not mut.verdict
    rows = ["site,direction,slack,tolerance,verdict"]
    for i, pair in enumerate(reports):
        for direction in ("sub", "super"):
            r = pair[direction]
            rows.append(f"{i},{direction},{r['slack']:.6e},{r['tolerance']:.6e},{r['verdict']}")
    artifacts["residuals.csv"] = "\n".join(rows) + "\n"
    passed = all_pass and (mutation_detected is None or mutation_detected)
    yield {
        "kind": "minimax-check",
        "sites": n_sites,
        "all_sites_pass": all_pass,
        "mutation_detected": mutation_detected,
        "reports": reports,
        "viscosity_probes": viscosity,
        "passed": passed,
    }


def _run_stability(config: dict, seed: int, artifacts: dict):
    spec = _build_game(config.get("game"))
    grid = _build_grid(config.get("grid"))
    lattice = _build_lattice(config.get("lattice"), spec.dyn.op.space.dim)
    family = config.get("family", "h-shift")
    n_list = tuple(config.get("n_list", [2, 4, 8, 16]))
    refusal = stability_refusal(family, n_list)
    if refusal is not None:
        raise UsageError(refusal[1], field_path=refusal[0])
    yield
    report = stability_experiment(spec, family, n_list, grid, lattice)
    rows = ["n,distance"]
    for n, d in zip(report.n_list, report.distances):
        rows.append(f"{n},{d:.17g}")
    artifacts["stability.csv"] = "\n".join(rows) + "\n"
    if family == "h-shift":
        passed = all(e <= 1e-12 for e in report.shift_exactness)
    else:
        passed = report.strictly_decreasing
    yield {"kind": "stability-run", **report.to_json_obj(), "passed": passed}


_RUNNERS = {
    "solve": _run_solve,
    "upsilon-check": _run_upsilon_check,
    "game-value": _run_game_value,
    "isaacs-check": _run_isaacs_check,
    "feedback-run": _run_feedback,
    "minimax-check": _run_minimax_check,
    "stability-run": _run_stability,
}


# ---------------------------------------------------------------------------
# runner and summary
# ---------------------------------------------------------------------------

def run(config: dict, out_dir: str, seed: int = None) -> int:
    """Validate, build, write the manifest, execute, and write results; 0 iff passed."""
    validate_config(config)
    kind = config["kind"]
    name = config.get("name", kind)
    seed = int(config.get("seed", 0)) if seed is None else int(seed)
    artifacts = {}
    steps = _RUNNERS[kind](config, seed, artifacts)
    next(steps)  # a refused config raises here and leaves no run directory
    run_dir = os.path.join(out_dir, name)
    os.makedirs(run_dir, exist_ok=True)
    manifest = {
        "config": config,
        "seed": seed,
        "versions": {"pdhj": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    # manifest lands before any computation (crash forensics)
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    result = next(steps)
    result["name"] = name
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    for filename, text in artifacts.items():
        with open(os.path.join(run_dir, filename), "w") as fh:
            fh.write(text)
    return 0 if result.get("passed", False) else 1


SUMMARY_COLUMNS = ("name", "kind", "metric", "verdict")


def _summary_metric(result: dict) -> str:
    kind = result.get("kind", "?")
    picks = {
        "solve": "residual_estimate",
        "upsilon-check": "samples",
        "game-value": "value_gap_max",
        "isaacs-check": "max_isaacs_gap",
        "feedback-run": "m_hat",
        "minimax-check": "sites",
        "stability-run": "family",
    }
    value = result.get(picks.get(kind, ""), "")
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def emit_summary(results_dir: str, stream=None) -> int:
    """One line per run directory: name, kind, key metric, verdict."""
    stream = stream or sys.stdout
    rows = []
    status = 0
    if os.path.isdir(results_dir):
        for entry in sorted(os.listdir(results_dir)):
            run_dir = os.path.join(results_dir, entry)
            if not os.path.isdir(run_dir):
                continue
            manifest = os.path.join(run_dir, "manifest.json")
            result_path = os.path.join(run_dir, "result.json")
            if not os.path.isfile(manifest) or not os.path.isfile(result_path):
                rows.append((entry, "?", "", "INCOMPLETE"))
                status = 1
                continue
            with open(result_path) as fh:
                result = json.load(fh)
            verdict = "PASS" if result.get("passed") else "FAIL"
            if verdict == "FAIL":
                status = 1
            rows.append((result.get("name", entry), result.get("kind", "?"),
                         _summary_metric(result), verdict))
    stream.write(",".join(SUMMARY_COLUMNS) + "\n")
    for row in rows:
        stream.write(",".join(str(v) for v in row) + "\n")
    return status


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise UsageError(f"config is not valid JSON: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdhj",
        description="Path-dependent Hamilton-Jacobi / differential-game experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS + ("run",):
        p = sub.add_parser(kind, help=f"run a {kind} experiment"
                           if kind != "run" else "run the experiment named in the config")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory root")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    p = sub.add_parser("summary", help="summarize a results directory")
    p.add_argument("results_dir")
    args = parser.parse_args(argv)

    try:
        if args.command == "summary":
            return emit_summary(args.results_dir)
        config = _load_config(args.config)
        if args.command != "run":
            if config.get("kind") != args.command:
                raise UsageError(
                    f"config kind {config.get('kind')!r} does not match "
                    f"subcommand {args.command!r}", field_path="kind")
        out = args.out or os.environ.get(ENV_OUT_ROOT, "results")
        return run(config, out, seed=args.seed)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except PdhjError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
