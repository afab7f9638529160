"""Configuration-driven experiment runner.

One JSON config per experiment.  Each config field's type, default and domain
live in one table, the fields of each experiment in EXPERIMENTS.
validate_config resolves a config against it: an unknown field, or a value
outside its field's domain, is a UsageError naming the dotted field path (exit
status 2), raised before any run directory is made.  A run writes its manifest
(the resolved config, versions, seed, timestamp) before any computation, then
a result JSON (sorted keys, no timestamps: byte-identical for identical config
and seed; strict JSON, never NaN or Infinity) and plot-ready CSV tables.  The
computation runs with numpy's floating-point errors raised; those and the
toolkit's other errors exit with status 3.  Exit status 0 iff every enabled
property check passed, 1 if one failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import DomainError, EvaluationError, PdhjError, UsageError
from .evolution import (
    audit_hypotheses,
    build_p_laplacian,
    make_linear_operator,
    solve_delay_evolution,
)
from .game import (
    COVERAGE_TOL,
    ControlGrid,
    GameSpec,
    GuaranteeEstimate,
    StateLattice,
    adversary_pool,
    bilinear_game,
    constant_game,
    dp_value,
    extremal_shift_strategy,
    hamiltonian,
    audit_hamiltonian_lipschitz,
    sampled_hamiltonians,
    isaacs_game,
    lyapunov_violation_stats,
    play_feedback_games,
    step_rate_bound,
)
from .minimax import Site, bump_table, site_checks, stability_experiment, stability_refusal
from .pathcore import Path, TimeGrid, values_at
from .upsilon import LyapunovParams, property_battery

ENV_OUT_ROOT = "PDHJ_OUT_ROOT"
SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# the config schema
#
# Every rule for a config field lives in its Field: its type, its default and
# its domain.  validate_config resolves a config against the fields of its
# experiment (EXPERIMENTS, after the runners) in table order, so a default or
# a rule may read the fields resolved before it.
# ---------------------------------------------------------------------------


class Field(NamedTuple):
    """A config field.  type: float, int, bool, str, [float] or [int] (lists),
    a dict of fields (a block) or Kinds.  default: the value when absent, a
    function of the config resolved so far, or None when the field must be
    given; an absent block resolves its own fields.  rules: the domain, each a
    function (value, config resolved so far) that returns the refusal message,
    which follows the field's path, or None."""

    type: object
    default: object = None
    rules: tuple = ()


class Kinds(dict):
    """A block whose `kind` picks the fields it reads: kind -> dict of fields.
    The first kind is the default."""


def _at_least(bound):
    return lambda v, cfg: f"must be >= {bound}, got {v}" if v < bound else None


def _entries_at_least(bound):
    return lambda v, cfg: f"entries must be >= {bound}, got {v}" if min(v) < bound else None


def _positive(v, cfg):
    return f"must be > 0, got {v}" if v <= 0 else None


def _nonempty(v, cfg):
    return None if v else "must not be empty"


def _fraction(v, cfg):
    return None if 0 < v <= 1 else f"must lie in (0, 1], got {v}"


def _grid_node(v, cfg):
    try:
        _build_grid(cfg["grid"]).node_index(v)
    except DomainError:
        return f"must be a node of grid, got {v}"


def _above_lo(v, cfg):
    if not all(h > lo for lo, h in zip(cfg["lattice"]["lo"], v)):
        return f"must exceed lattice.lo entry by entry, got {v}"


def _in_lattice(v, cfg):
    """The runtime coverage rule at config time: a state farther than
    COVERAGE_TOL outside the lattice box has no value to read."""
    margin = _build_lattice(cfg["lattice"]).coverage_margins(np.array([v]))[0]
    if margin > COVERAGE_TOL:
        return f"must lie within lattice.lo and lattice.hi (to {COVERAGE_TOL:g}), got {v}"


def _one_directory(v, cfg):
    if v in ("", ".", "..") or set(v) & set("/\\\0"):
        return f"must name one directory, got {v!r}"


def _stability(n_list, cfg):
    """stability_experiment's own rule on family and n_list; it names which."""
    refusal = stability_refusal(cfg["family"], n_list)
    if refusal:
        raise UsageError(refusal[1], field_path=refusal[0])


def _dim(cfg: dict) -> int:
    """The state dimension of the config's game, or of its operator, which is
    not built here: p-laplacian-1d's build runs a sampled audit."""
    if "game" in cfg:
        return _build_game(cfg["game"]).op.space.dim
    operator = cfg["operator"]
    return operator["dim"] if operator["kind"] == "linear" else operator["nodes"]


def _coordinates(entry, *rules):
    """A vector with one entry per state coordinate, each `entry` by default."""
    def per_coordinate(v, cfg):
        if len(v) != _dim(cfg):
            return f"has {len(v)} entries, but the state has dimension {_dim(cfg)}"
    return Field([type(entry)], lambda cfg: [entry] * _dim(cfg), (per_coordinate,) + rules)


def _controls(axis):
    """The control grid: both axes given, or `axis` on each, the game builder's own grid."""
    required = Field([float], None, (_nonempty,))
    return Field({"p_points": required, "q_points": required},
                 lambda cfg: {"p_points": axis(cfg), "q_points": axis(cfg)})


_COUNT = _at_least(1)
_GAIN = Field(float, 1.0, (_positive,))  # A(x) = gain * x: monotone, coercive iff gain > 0
_LEVELS = _controls(lambda cfg: cfg["game"]["levels"])
_GRID = Field({"t_end": Field(float, 1.0, (_positive,)), "n_steps": Field(int, 32, (_COUNT,))},
              {})
_LATTICE = Field({"lo": _coordinates(-2.0), "hi": _coordinates(2.0, _above_lo),
                  "points": _coordinates(64, _entries_at_least(2))}, {})
_GAME = Field(Kinds({
    "isaacs-additive": {"scale": Field(float, 0.5), "gain": _GAIN,
                        "cost_weight": Field(float, 0.1),
                        "levels": Field([float], [-1.0, 0.0, 1.0], (_nonempty,)),
                        "controls": _LEVELS},
    "bilinear": {"scale": Field(float, 1.0), "gain": _GAIN,
                 "levels": Field([float], [-1.0, 1.0], (_nonempty,)), "controls": _LEVELS},
    "constant": {"cost": Field(float, 1.0), "gain": _GAIN,
                 "controls": _controls(lambda cfg: [0.0])},
}), {})
_OPERATOR = Field(Kinds({
    "linear": {"dim": Field(int, 1, (_COUNT,)), "gain": _GAIN},
    "p-laplacian-1d": {"nodes": Field(int, 8, (_at_least(2),)),
                       "p": Field(float, 2.0, (_at_least(2),))},
}), {})
_GAME_BLOCKS = {"game": _GAME, "grid": _GRID, "lattice": _LATTICE}
_COMMON = {"schema_version": Field(int), "kind": Field(str),
           "name": Field(str, lambda cfg: cfg["kind"], (_one_directory,)),
           "seed": Field(int, 0, (_at_least(0),))}


def _refuse_unless(ok: bool, message: str, path: str):
    if not ok:
        raise UsageError(message, field_path=path)


_NOUNS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


def _typed(value, expected, path: str):
    """`value` checked against a scalar or list type (a bool is no number, a
    number is finite): numbers as float, lists copied."""
    is_list = isinstance(expected, list)
    _refuse_unless(isinstance(value, list) or not is_list, f"field {path} must be a list", path)
    scalar, must = (expected[0], f"{path} entries must each") if is_list else (
        expected, f"field {path} must")
    for v in value if is_list else [value]:
        _refuse_unless(isinstance(v, (int, float) if scalar is float else scalar)
                       and isinstance(v, bool) == (scalar is bool),
                       f"{must} be {_NOUNS[scalar]}", path)
        _refuse_unless(scalar is not float or math.isfinite(v), f"{must} be finite", path)
    return list(value) if is_list else float(value) if scalar is float else value


def _resolve(fields: dict, given: dict, prefix: str, cfg: dict, out: dict) -> dict:
    """`out` filled with the block `given` resolved against `fields`, in order;
    `cfg` is the config resolved so far, `out` already inside it."""
    if isinstance(fields, Kinds):
        kind = given.get("kind", next(iter(fields)))
        _refuse_unless(kind in tuple(fields),
                       f"{prefix}kind must be one of {tuple(fields)}, got {kind!r}",
                       prefix + "kind")
        for key in given:  # a field of another kind is not read by this one
            _refuse_unless(key == "kind" or key in fields[kind]
                           or not any(key in block for block in fields.values()),
                           f"field {prefix}{key} is not read by {prefix[:-1]} kind {kind!r}",
                           prefix + key)
        fields = {"kind": Field(str, kind), **fields[kind]}
    for key in given:
        _refuse_unless(key in fields, f"unknown config field {prefix}{key}", prefix + key)
    for key, field in fields.items():
        path = prefix + key
        _refuse_unless(key in given or field.default is not None, f"missing field {path}", path)
        value = given[key] if key in given else (
            field.default(cfg) if callable(field.default) else field.default)
        if isinstance(field.type, dict):
            _refuse_unless(isinstance(value, dict), f"field {path} must be an object", path)
            out[key] = {}
            _resolve(field.type, value, path + ".", cfg, out[key])
        else:
            out[key] = _typed(value, field.type, path)
        for rule in field.rules:
            refusal = rule(out[key], cfg)
            _refuse_unless(not refusal, f"{path} {refusal}", path)
    return out


def validate_config(config: dict) -> dict:
    """The config resolved against its experiment's fields, every field given
    or defaulted; a UsageError names the first field it refuses."""
    _refuse_unless(isinstance(config, dict), "config must be a JSON object", None)
    _refuse_unless(config.get("schema_version") == SCHEMA_VERSION,
                   f"schema_version must be {SCHEMA_VERSION}", "schema_version")
    _refuse_unless(config.get("kind") in KINDS, f"kind must be one of {KINDS}", "kind")
    resolved = {}
    return _resolve({**_COMMON, **EXPERIMENTS[config["kind"]].fields}, config, "", resolved,
                    resolved)


# ---------------------------------------------------------------------------
# resolved config -> domain objects
# ---------------------------------------------------------------------------

_GAME_BUILDERS = {"isaacs-additive": isaacs_game, "bilinear": bilinear_game,
                  "constant": constant_game}


def _build_grid(block: dict) -> TimeGrid:
    return TimeGrid(0.0, block["t_end"], block["n_steps"])


def _build_lattice(block: dict) -> StateLattice:
    return StateLattice(lo=block["lo"], hi=block["hi"], shape=block["points"])


def _build_operator(block: dict):
    if block["kind"] == "linear":
        return make_linear_operator(dim=block["dim"], gain=block["gain"])
    return build_p_laplacian(block["nodes"], block["p"])


def _build_game(block: dict) -> GameSpec:
    """The built-in game of the block's kind; its fields are the builder's
    arguments, and the builder derives l_f from the control grid it gets.
    `levels` only supplies the default `controls`."""
    params = {key: value for key, value in block.items()
              if key not in ("kind", "levels", "controls")}
    return _GAME_BUILDERS[block["kind"]](**params, controls=ControlGrid(**block["controls"]))


def _site_state(rng, lattice: StateLattice, shrink: float) -> np.ndarray:
    """A site state drawn uniformly in the lattice box shrunk by `shrink`, one
    draw per coordinate in coordinate order (so dimension 1 draws one scalar)."""
    return np.array([float(rng.uniform(lo * shrink, hi * shrink))
                     for lo, hi in zip(lattice.lo, lattice.hi)])


# ---------------------------------------------------------------------------
# experiment implementations
#
# Each runner takes the resolved config and returns its result; it adds the
# text of its other output files to `artifacts`, keyed by file name.
# ---------------------------------------------------------------------------

def _run_solve(cfg: dict, artifacts: dict):
    op = _build_operator(cfg["operator"])
    grid = _build_grid(cfg["grid"])
    x0 = Path.constant(grid, np.asarray(cfg["initial"], dtype=float))
    forcing = None
    if cfg["forcing"]["kind"] == "constant":
        forcing = np.tile(np.asarray(cfg["forcing"]["value"], dtype=float), (grid.n_steps, 1))
    report = solve_delay_evolution(op, cfg["t0"], x0, forcing, lipschitz_L=cfg["lipschitz"])
    audit = audit_hypotheses(op, 200, cfg["seed"])
    artifacts["path.csv"] = report.path.to_csv()
    artifacts["solve_report.json"] = _json_text(report.to_json_obj())
    return {
        "kind": "solve",
        "residual_estimate": report.residual_estimate,
        "newton_total": report.newton_total,
        "operator_audit": asdict(audit),
        "final_state": [float(v) for v in report.path.values[-1]],
        "passed": audit.passed and report.residual_estimate < 1e-8,
    }


def _run_upsilon_check(cfg: dict, artifacts: dict):
    battery = property_battery(samples=cfg["samples"], seed=cfg["seed"])
    rows = ["name,value,passed"]
    for check in battery["checks"]:
        rows.append(f"{check['name']},{check['value']},{check['passed']}")
    artifacts["upsilon_checks.csv"] = "\n".join(rows) + "\n"
    return {"kind": "upsilon-check", **battery}


def _run_game_value(cfg: dict, artifacts: dict):
    spec = _build_game(cfg["game"])
    grid = _build_grid(cfg["grid"])
    lattice = _build_lattice(cfg["lattice"])
    table = dp_value(spec, grid, lattice)
    artifacts["value_table.csv"] = table.to_csv()
    probe = hamiltonian(spec, 0.0, Path.constant(grid, [0.0] * spec.op.space.dim),
                        np.asarray(cfg["probe_z"], dtype=float))
    gap_max = float(np.max(table.v_plus - table.v_minus))
    monotone = bool(np.all(table.v_minus <= table.v_plus + 1e-12))
    return {
        "kind": "game-value",
        "game": spec.name,
        "isaacs_gap_at_probe": probe.isaacs_gap,
        "value_gap_max": gap_max,
        "order_ok": monotone,
        "v_plus_range": [float(table.v_plus.min()), float(table.v_plus.max())],
        "passed": monotone,
    }


def _run_isaacs_check(cfg: dict, artifacts: dict):
    spec = _build_game(cfg["game"])
    samples, seed = cfg["samples"], cfg["seed"]
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, 8)
    dim = spec.op.space.dim
    values, zs, times = np.empty((samples, 9, dim)), np.empty((samples, 1, dim)), np.empty(samples)
    for s in range(samples):  # draws in the order of one sample at a time: x, z, t
        values[s] = rng.standard_normal((9, dim))
        zs[s, 0] = rng.standard_normal(dim)
        times[s] = float(grid.nodes[rng.integers(0, len(grid.nodes))])  # rng.choice's bits
    nodes = np.broadcast_to(grid.nodes, (samples, 9))
    f_minus, f_plus = sampled_hamiltonians(spec, times, values_at(nodes, values, times),
                                           lambda s: Path(grid, values[s]), zs)
    worst_gap, violations = 0.0, 0
    for gap in (f_plus - f_minus)[:, 0].tolist():
        worst_gap = max(worst_gap, gap)
        violations += gap < -1e-12
    lip = audit_hamiltonian_lipschitz(spec, samples, seed)
    return {
        "kind": "isaacs-check",
        "game": spec.name,
        "max_isaacs_gap": worst_gap,
        "order_violations": int(violations),
        "lipschitz_ratio": lip.max_ratio,
        "lipschitz_bound": lip.bound,
        "passed": violations == 0 and not lip.flagged,
    }


def _run_feedback(cfg: dict, artifacts: dict):
    """The extremal-shift strategy against three adversary pools, played as
    one lane set for every partition (one play_feedback_games call), whose
    records are sliced by pool: the calibration lanes give m-hat
    (step_rate_bound), the estimate lanes' payoffs the guaranteed result
    (GuaranteeEstimate.from_payoffs), and the replay lanes the Lyapunov
    statistics against m-hat."""
    spec = _build_game(cfg["game"])
    grid = _build_grid(cfg["grid"])
    lattice = _build_lattice(cfg["lattice"])
    budget, seed = cfg["budget"], cfg["seed"]
    table = dp_value(spec, grid, lattice)
    base = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=grid.t_end)
    params = LyapunovParams(epsilon=cfg["epsilon_fraction"] * base.epsilon0,
                            lambda_L=spec.lambda_L, horizon=grid.t_end)
    x0_vec = np.asarray(cfg["x0"], dtype=float)
    x0 = Path.constant(grid, x0_vec)
    partitions = [TimeGrid(0.0, grid.t_end, n) for n in cfg["partition_steps"]]
    strategy = extremal_shift_strategy(spec, params, 0.0, x0, partitions, value=table,
                                       library_size=cfg["library_size"], seed=seed)
    # the calibration and estimate pools are played on the partitions in
    # turn: one table over all their cells, split by rows; the replays behind
    # the Lyapunov statistics are a fresh pool on each partition
    n_q, cells = spec.controls.n_q, cfg["partition_steps"]
    rows = np.cumsum(cells)[:-1]
    _, calibration = adversary_pool(n_q, cfg["calibration_budget"], seed + 1, sum(cells))
    labels, estimate = adversary_pool(n_q, budget, seed + 2, sum(cells))
    replays = [adversary_pool(n_q, min(budget, 16), seed + 2, n)[1] for n in cells]
    plays = play_feedback_games(strategy, partitions, [
        np.hstack(tables) for tables in zip(np.split(calibration, rows),
                                            np.split(estimate, rows), replays)])
    n_cal, n_est = cfg["calibration_budget"], budget  # a pool has budget lanes
    m_hat = step_rate_bound([play.lanes(slice(n_cal)) for play in plays])
    est = GuaranteeEstimate.from_payoffs(labels, partitions,
                                         [play.payoff[n_cal:n_cal + n_est] for play in plays],
                                         budget, seed + 2)
    stats = lyapunov_violation_stats([play.lanes(slice(n_cal + n_est, None)) for play in plays],
                                     m_hat)
    v_site = table.interp("upper", 0.0, x0_vec)
    tol = m_hat * grid.t_end + params.epsilon + max(lattice.spacing)
    rows = ["partition_steps,worst_payoff"]
    for p in est.per_partition:
        rows.append(f"{p['n_steps']},{p['worst_payoff']:.17g}")
    artifacts["guarantee.csv"] = "\n".join(rows) + "\n"
    return {
        "kind": "feedback-run",
        "game": spec.name,
        "epsilon": params.epsilon,
        "m_hat": m_hat,
        "estimate": asdict(est),
        "value_at_start": v_site,
        "tolerance": tol,
        "lyapunov_stats": stats,
        "passed": bool(est.value <= v_site + tol
                       and stats["fraction_within"] >= 0.95
                       and stats["worst_excess_ratio"] <= 2.0),
    }


def _run_minimax_check(cfg: dict, artifacts: dict):
    spec = _build_game(cfg["game"])
    grid = _build_grid(cfg["grid"])
    lattice = _build_lattice(cfg["lattice"])
    n_sites, horizon, budget, seed = cfg["sites"], cfg["horizon"], cfg["budget"], cfg["seed"]
    table = dp_value(spec, grid, lattice)
    rng = np.random.default_rng(seed)
    dim = spec.op.space.dim
    sites = []  # every site is drawn before the one lane set solves them all
    for i in range(n_sites):
        k = int(rng.integers(0, max(grid.n_steps - 2, 1)))
        x0 = Path.constant(grid, _site_state(rng, lattice, 0.6))
        z = rng.standard_normal(dim)
        sites.append(Site(grid.nodes[k], x0, z,
                          (("sub", seed + 10 + i), ("super", seed + 500 + i))))
    for j in range(3):
        k = int(rng.integers(0, max(grid.n_steps - 2, 1)))
        x0 = Path.constant(grid, _site_state(rng, lattice, 0.5))
        z = rng.standard_normal(dim) * 0.5
        sites.append(Site(grid.nodes[k], x0, z, (("scan", seed + 900 + j),)))
    checked = site_checks(table, spec, sites, horizon, budget)
    # the reports' fields are JSON values already, so a shallow copy serializes as asdict does
    reports = [{"sub": dict(vars(sub)), "super": dict(vars(sup))} for sub, sup in checked[:n_sites]]
    all_pass = all(sub.verdict and sup.verdict for sub, sup in checked[:n_sites])
    viscosity = []
    for j, (scan,) in enumerate(checked[n_sites:]):
        viscosity.append({"site_index": j,
                          "violation_found": scan["violation_found"],
                          "c_values": scan["c_values"],
                          "verdicts": [[r.super_verdict, r.sub_verdict]
                                       for r in scan["reports"]]})
        all_pass = all_pass and not scan["violation_found"]
    mutation_detected = None
    if cfg["mutation_control"]:
        k_mid = grid.n_steps // 2
        s_mid = tuple(n // 2 for n in lattice.shape)  # the entry at every axis's midpoint
        bumped = bump_table(table, k_mid, s_mid, 0.2, side="upper")
        x0 = Path.constant(grid, [float(axis[i]) for axis, i in zip(lattice.axes, s_mid)])
        # the bumped table is its own one-site lane set
        (mut,), = site_checks(bumped, spec, [Site(grid.nodes[k_mid], x0, np.zeros(dim),
                                                   (("sub", seed),))], horizon, budget)
        mutation_detected = not mut.verdict
    rows = ["site,direction,slack,tolerance,verdict"]
    for i, pair in enumerate(reports):
        for direction in ("sub", "super"):
            r = pair[direction]
            rows.append(f"{i},{direction},{r['slack']:.6e},{r['tolerance']:.6e},{r['verdict']}")
    artifacts["residuals.csv"] = "\n".join(rows) + "\n"
    passed = all_pass and (mutation_detected is None or mutation_detected)
    return {
        "kind": "minimax-check",
        "sites": n_sites,
        "all_sites_pass": all_pass,
        "mutation_detected": mutation_detected,
        "reports": reports,
        "viscosity_probes": viscosity,
        "passed": passed,
    }


def _run_stability(cfg: dict, artifacts: dict):
    spec = _build_game(cfg["game"])
    grid = _build_grid(cfg["grid"])
    lattice = _build_lattice(cfg["lattice"])
    family = cfg["family"]
    report = stability_experiment(spec, family, tuple(cfg["n_list"]), grid, lattice)
    rows = ["n,distance"]
    for n, d in zip(report.n_list, report.distances):
        rows.append(f"{n},{d:.17g}")
    artifacts["stability.csv"] = "\n".join(rows) + "\n"
    if family == "h-shift":
        passed = all(e <= 1e-12 for e in report.shift_exactness)
    else:
        passed = report.strictly_decreasing
    return {"kind": "stability-run", **asdict(report), "passed": passed}


class Experiment(NamedTuple):
    """An experiment kind: its runner, the result field that summary prints,
    and the config fields it reads besides the common ones."""

    runner: object
    metric: str
    fields: dict


EXPERIMENTS = {
    "solve": Experiment(_run_solve, "residual_estimate", {
        "operator": _OPERATOR, "grid": _GRID, "lipschitz": Field(float, 1.0, (_at_least(0),)),
        "t0": Field(float, 0.0, (_grid_node,)),
        "initial": _coordinates(1.0),
        "forcing": Field(Kinds({"zero": {}, "constant": {"value": _coordinates(0.0)}}), {})}),
    "upsilon-check": Experiment(_run_upsilon_check, "samples",
                                {"samples": Field(int, 500, (_COUNT,))}),
    "game-value": Experiment(_run_game_value, "value_gap_max",
                             {**_GAME_BLOCKS, "probe_z": _coordinates(1.0)}),
    "feedback-run": Experiment(_run_feedback, "m_hat", {
        **_GAME_BLOCKS,
        "partition_steps": Field([int], [8, 16, 32], (_nonempty, _entries_at_least(1))),
        "budget": Field(int, 50, (_COUNT,)), "x0": _coordinates(0.4, _in_lattice),
        "library_size": Field(int, 64, (_at_least(0),)),
        "epsilon_fraction": Field(float, 1.0, (_fraction,)),
        "calibration_budget": Field(int, 12, (_COUNT,))}),
    "minimax-check": Experiment(_run_minimax_check, "sites", {
        **_GAME_BLOCKS, "sites": Field(int, 20, (_COUNT,)),
        "horizon": Field(float, lambda cfg: 4.0 * _build_grid(cfg["grid"]).mesh, (_positive,)),
        "budget": Field(int, 32, (_COUNT,)), "mutation_control": Field(bool, True)}),
    "stability-run": Experiment(_run_stability, "family", {
        **_GAME_BLOCKS, "family": Field(str, "h-shift"),
        "n_list": Field([int], [2, 4, 8, 16], (_stability,))}),
    "isaacs-check": Experiment(_run_isaacs_check, "max_isaacs_gap",
                               {"game": _GAME, "samples": Field(int, 100, (_COUNT,))}),
}
KINDS = tuple(EXPERIMENTS)


# ---------------------------------------------------------------------------
# runner and summary
# ---------------------------------------------------------------------------

def _json_text(obj) -> str:
    """Strict JSON, sorted and indented: a number that is not finite is an
    EvaluationError, never NaN or Infinity in the file."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise EvaluationError(f"a number that is not finite in the output: {err}") from err


def run(config: dict, out_dir: str, seed: int = None) -> int:
    """Validate, write the manifest, execute, and write results; 0 iff passed.

    `seed` overrides the config's seed and is validated as it.
    """
    if seed is not None and isinstance(config, dict):
        config = {**config, "seed": int(seed)}
    cfg = validate_config(config)
    run_dir = os.path.join(out_dir, cfg["name"])
    os.makedirs(run_dir, exist_ok=True)
    manifest = {
        "config": cfg,
        "seed": cfg["seed"],
        "versions": {"pdhj": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    # manifest lands before any computation (crash forensics)
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        fh.write(_json_text(manifest))
    artifacts = {}
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            result = EXPERIMENTS[cfg["kind"]].runner(cfg, artifacts)
    except FloatingPointError as err:
        raise EvaluationError(f"floating-point error: {err}") from err
    result["name"] = cfg["name"]
    for filename, text in {"result.json": _json_text(result), **artifacts}.items():
        with open(os.path.join(run_dir, filename), "w") as fh:
            fh.write(text)
    return 0 if result.get("passed", False) else 1


SUMMARY_COLUMNS = ("name", "kind", "metric", "verdict")


def _summary_metric(result: dict) -> str:
    experiment = EXPERIMENTS.get(result.get("kind"))
    value = result.get(experiment.metric, "") if experiment else ""
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
            try:
                with open(result_path) as fh:
                    result = json.load(fh)
            except (OSError, ValueError):  # missing, or cut off while writing
                result = None
            if not os.path.isfile(manifest) or not isinstance(result, dict):
                rows.append((entry, "?", "", "INCOMPLETE"))
                status = 1
                continue
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
        if args.command != "run" and isinstance(config, dict):
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
