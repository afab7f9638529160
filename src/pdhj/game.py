"""Zero-sum differential games over finite control grids.

Holds the game specification (dynamics, running and terminal costs, control
grids), the lower/upper Hamiltonians by exact enumeration, a brute-force
backward dynamic-programming value oracle on a state lattice, and the
extremal-shift feedback strategy driven by the decaying Lyapunov function.

The DP oracle treats lattice states as constant-history paths; its values are
exact for games whose path dependence collapses to the current state, which is
the regime of every desk-scale example here.  Such a game may declare a Markov
form (GameSpec.markov_terms) that answers for many states and the whole
control grid in one call; dp_value probes any other game and refuses one that
reads its past.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    LatticeCoverageError,
)
from .evolution import DelayDynamics, _drift_step, make_linear_operator, sample_reachable_set
from .pathcore import Path, TimeGrid, _row_dots, extend_history, pad_paths, \
    stopped_at, stopped_value_at, sup_norms, values_at
from .upsilon import LyapunovParams, surrogate_terms

STEP_SOLVE_TOL = 1e-11  # kept apart from evolution.STEP_TOL: the shipped results pin both
COVERAGE_TOL = 1e-9  # states farther than this outside the lattice box are refused
STEP_RATE_FLOOR = 1e-6  # the step-rate bound m-hat is floored away from zero
COMPANION_KINDS = ("trace", "probe", "lattice", "library")  # in the order they are tried


# ---------------------------------------------------------------------------
# specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ControlGrid:
    """Finite ordered control sets; index 0 first is the tie-breaking authority."""

    p_points: tuple
    q_points: tuple

    def __post_init__(self):
        if not self.p_points or not self.q_points:
            raise DomainError("control grids must be nonempty")
        object.__setattr__(self, "p_points", tuple(self.p_points))
        object.__setattr__(self, "q_points", tuple(self.q_points))

    @property
    def n_p(self) -> int:
        return len(self.p_points)

    @property
    def n_q(self) -> int:
        return len(self.q_points)

    def describe(self) -> str:
        return f"P={list(self.p_points)!r} Q={list(self.q_points)!r}"


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Dynamics f, running cost, terminal cost, and control grids of one game.

    dyn.rhs is called as rhs(t, stopped path, (p, q)).  l_f is the growth
    constant of |f| <= l_f (1 + sup-norm); lambda_L the Lipschitz constant of
    (f, running cost) in the path sup-norm over the reachable tube.

    markov_terms, when set, declares that the game reads the path only
    through x(t): markov_terms(t, states, p_points, q_points) returns the
    drift, shape (N, n_p, n_q, dim), and the running cost, shape
    (N, n_p, n_q), of the N states (rows of states, shape (N, dim)) over the
    control arrays p_points (n_p,) and q_points (n_q,), each entry bit-equal
    to the path callbacks on a path with that state at t.  The DP oracle is
    exact only for such games.
    """

    dyn: DelayDynamics
    running_cost: object
    terminal_cost: object
    controls: ControlGrid
    l_f: float
    lambda_L: float
    name: str = "game"
    markov_terms: object = None

    def final_cost(self, x: Path) -> float:
        val = float(self.terminal_cost(x))
        if not np.isfinite(val):
            raise EvaluationError("non-finite terminal cost")
        return val

    def lane_terms(self, t: float, states: np.ndarray, path_of, played=None):
        """(drift, cost) of N lanes at time t: the one entry point to the stage terms.

        states, shape (N, dim), holds each lane's x(t); path_of(n) returns
        lane n's stopped path, and only a path-dependent game calls it.
        Without played the terms cover the full control grid, shapes
        (N, n_p, n_q, dim) and (N, n_p, n_q).  played = (lanes, p_idx, q_idx),
        index arrays of equal length E, asks for those entries alone, shapes
        (E, dim) and (E,).

        A Markov game answers with one markov_terms call on states; a
        path-dependent game with one sweep of the callbacks over the entries,
        the drift before the cost of each.  Either way the first non-finite
        entry, in (lane, p, q) order for the full grid and in the given order
        for played, raises EvaluationError, the drift before the cost of an
        entry; entries not returned are not checked.
        """
        controls = self.controls
        n, dim = len(states), self.dyn.op.space.dim
        grid_shape = (n, controls.n_p, controls.n_q)
        if self.markov_terms is not None:
            drift, cost = self.markov_terms(t, states, np.asarray(controls.p_points, dtype=float),
                                            np.asarray(controls.q_points, dtype=float))
            drift, cost = np.asarray(drift, dtype=float), np.asarray(cost, dtype=float)
            if drift.shape != grid_shape + (dim,) or cost.shape != grid_shape:
                raise DomainError(f"markov_terms returned shapes {drift.shape} and {cost.shape}, "
                                  f"expected {grid_shape + (dim,)} and {grid_shape}")
            if played is not None:
                drift, cost = drift[played], cost[played]
            bad_drift = ~np.isfinite(drift).all(axis=-1)
            bad = bad_drift | ~np.isfinite(cost)
            if bad.any():
                first = int(np.argmax(bad.ravel()))
                entry = np.unravel_index(first, grid_shape) if played is None \
                    else [index[first] for index in played]
                raise _nonfinite("drift" if bad_drift.ravel()[first] else "running cost", t,
                                 controls.p_points[entry[1]], controls.q_points[entry[2]])
            return drift, cost
        entries = np.unravel_index(np.arange(math.prod(grid_shape)), grid_shape) \
            if played is None else played
        drift = np.empty((len(entries[0]), dim))
        cost = np.empty(len(entries[0]))
        rhs, running = self.dyn.rhs, self.running_cost
        lane, x = None, None
        for e, (n_e, i, j) in enumerate(zip(*entries)):
            if n_e != lane:
                lane, x = n_e, path_of(n_e)
            p, q = controls.p_points[i], controls.q_points[j]
            drift[e] = _finite_drift(np.asarray(rhs(t, x, (p, q)), dtype=float), t, p, q)
            cost[e] = _finite_cost(float(running(t, x, p, q)), t, p, q)
        if played is None:
            return drift.reshape(grid_shape + (dim,)), cost.reshape(grid_shape)
        return drift, cost

    def stage_terms(self, t: float, x: Path):
        """(drift, cost) over the full control grid, shapes (n_p, n_q, dim) and
        (n_p, n_q): lane_terms with the one lane x."""
        drift, cost = self.lane_terms(t, x.value_at(t)[None], lambda _: x)
        return drift[0], cost[0]

    def stage_matrix(self, t: float, x: Path, z) -> np.ndarray:
        """M[i, j] = cost(p_i, q_j) + (f(p_i, q_j), z) over the full control grid."""
        drift, cost = self.stage_terms(t, x)
        return cost + _row_dots(drift, np.atleast_1d(np.asarray(z, dtype=float)))


def _nonfinite(term: str, t, p, q) -> EvaluationError:
    return EvaluationError(f"non-finite {term} at t={t}, p={p!r}, q={q!r}")


def _finite_drift(f: np.ndarray, t, p, q) -> np.ndarray:
    if not np.isfinite(f).all():
        raise _nonfinite("drift", t, p, q)
    return f


def _finite_cost(c: float, t, p, q) -> float:
    if not math.isfinite(c):
        raise _nonfinite("running cost", t, p, q)
    return c


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianEval:
    """Lower/upper Hamiltonians at one (t, x, z) with argmin/argmax records."""

    f_minus: float
    f_plus: float
    minus_q_index: int
    minus_p_index: int
    plus_p_index: int
    plus_q_index: int

    @property
    def isaacs_gap(self) -> float:
        return self.f_plus - self.f_minus


def hamiltonian(spec: GameSpec, t: float, x: Path, z) -> HamiltonianEval:
    """Exact enumeration of max_q min_p and min_p max_q of cost + (f, z).

    Ties break to the smallest index; the one-matrix case of minimax_records.
    """
    records = minimax_records(spec.stage_matrix(t, x, z)[None])
    f_minus, f_plus, minus_q, minus_p, plus_p, plus_q = (r[0] for r in records)
    return HamiltonianEval(
        f_minus=float(f_minus), f_plus=float(f_plus),
        minus_q_index=int(minus_q), minus_p_index=int(minus_p),
        plus_p_index=int(plus_p), plus_q_index=int(plus_q))


def minimax_records(M: np.ndarray):
    """Lower and upper Hamiltonians of stage matrices M, shape (N, n_p, n_q).

    Returns (f_minus, f_plus, minus_q_index, minus_p_index, plus_p_index,
    plus_q_index), each of shape (N,): f_minus = max_q min_p M at q index
    minus_q_index, answered by minus_p_index; f_plus = min_p max_q M at p
    index plus_p_index, answered by plus_q_index.  Ties break to the
    smallest index.
    """
    rows = np.arange(M.shape[0])
    col_mins = M.min(axis=1)
    minus_q = np.argmax(col_mins, axis=1)
    minus_p = np.argmin(M[rows, :, minus_q], axis=1)
    row_maxes = M.max(axis=2)
    plus_p = np.argmin(row_maxes, axis=1)
    plus_q = np.argmax(M[rows, plus_p, :], axis=1)
    return (col_mins[rows, minus_q], row_maxes[rows, plus_p], minus_q, minus_p, plus_p, plus_q)


@dataclass(frozen=True)
class LipschitzReport:
    samples: int
    seed: int
    max_ratio: float
    bound: float
    flagged: bool


def sampled_hamiltonians(spec: GameSpec, times: np.ndarray, states: np.ndarray, path_of,
                         zs: np.ndarray):
    """Lower and upper Hamiltonians at S sampled (t, x) and Z covectors each.

    times, shape (S,), and states, shape (S, dim), hold each sample's t and
    x(t); path_of(s) returns sample s's path, and only a path-dependent game
    calls it; zs has shape (S, Z, dim).  The stage terms take one lane_terms
    call per distinct time (equal bits), in order of first appearance, over
    every sample at that time, so an error is the first non-finite entry in
    that order; one minimax_records call then reduces all S * Z stage
    matrices.  Returns (f_minus, f_plus), each of shape (S, Z), entry (s, j)
    bit-equal to hamiltonian(spec, times[s], path_of(s), zs[s, j]).
    """
    controls = spec.controls
    n_s, n_z, dim = zs.shape
    drift = np.empty((n_s, controls.n_p, controls.n_q, dim))
    cost = np.empty((n_s, controls.n_p, controls.n_q))
    _, first, group = np.unique(times.view(np.int64), return_index=True, return_inverse=True)
    for g in np.argsort(first):
        lanes = np.flatnonzero(group == g)
        drift[lanes], cost[lanes] = spec.lane_terms(float(times[first[g]]), states[lanes],
                                                    lambda n: path_of(lanes[n]))
    stage = cost[:, None] + _row_dots(drift[:, None], zs[:, :, None, None, :])
    f_minus, f_plus = minimax_records(stage.reshape(-1, controls.n_p, controls.n_q))[:2]
    return f_minus.reshape(n_s, n_z), f_plus.reshape(n_s, n_z)


def audit_hamiltonian_lipschitz(spec: GameSpec, samples: int, seed: int) -> LipschitzReport:
    """Max of |F(z1) - F(z2)| / ((1 + sup)|z1 - z2|) over both Hamiltonians.

    The samples are drawn one at a time; a pair with |z1 - z2| < 1e-12 is
    drawn and skipped.  The kept samples are evaluated at once: one
    sampled_hamiltonians call takes each sample's stage terms once for both
    z1 and z2, and the ratios reduce in draw order.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    dim = spec.dyn.op.space.dim
    grids, kept = {}, []
    for _ in range(samples):
        n = int(rng.integers(4, 10))
        if n not in grids:
            grids[n] = TimeGrid(0.0, 1.0, n)
        grid = grids[n]
        values = rng.standard_normal((n + 1, dim)) * rng.choice([0.3, 1.0, 2.0])
        t = float(rng.choice(grid.nodes))
        z1 = rng.standard_normal(dim) * rng.choice([0.5, 2.0])
        z2 = rng.standard_normal(dim) * rng.choice([0.5, 2.0])
        dz = float(np.linalg.norm(z1 - z2))
        if dz < 1e-12:
            continue
        kept.append((grid, values, t, (z1, z2), dz))
    worst = 0.0
    if kept:
        grid_of, paths, times, zs, dz = (list(column) for column in zip(*kept))
        nodes, values = pad_paths([grid.nodes for grid in grid_of], paths)
        times = np.array(times)
        f_minus, f_plus = sampled_hamiltonians(spec, times, values_at(nodes, values, times),
                                               lambda s: Path(grid_of[s], paths[s]),
                                               np.array(zs))
        scale = (1.0 + sup_norms(nodes, values, times)) * np.array(dz)
        for ratios in zip((np.abs(f_minus[:, 0] - f_minus[:, 1]) / scale).tolist(),
                          (np.abs(f_plus[:, 0] - f_plus[:, 1]) / scale).tolist()):
            worst = max(worst, *ratios)
    return LipschitzReport(samples=samples, seed=seed, max_ratio=worst, bound=spec.l_f,
                           flagged=worst > spec.l_f + 1e-9)


# ---------------------------------------------------------------------------
# state lattice and value tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateLattice:
    """Uniform rectangular lattice in 1 or 2 state dimensions (oracle scale)."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        shape = tuple(int(v) for v in np.atleast_1d(self.shape))
        if not (len(lo) == len(hi) == len(shape)):
            raise DomainError("lo, hi, shape must have matching lengths")
        if len(lo) > 2:
            raise DomainError("value lattice supports state dimension <= 2 (oracle only)")
        if any(h <= l for l, h in zip(lo, hi)) or any(s < 2 for s in shape):
            raise DomainError("need hi > lo and at least 2 points per dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)
        # built once and shared read-only; not a field, so eq, hash and repr ignore it
        axes = tuple(np.linspace(l, h, s) for l, h, s in zip(lo, hi, shape))
        for axis in axes:
            axis.setflags(write=False)
        object.__setattr__(self, "_axes", axes)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def axes(self) -> tuple:
        """One shared read-only coordinate array per dimension."""
        return self._axes

    @property
    def spacing(self) -> tuple:
        return tuple((h - l) / (s - 1) for l, h, s in zip(self.lo, self.hi, self.shape))

    def points(self) -> np.ndarray:
        """All lattice points, C-ordered, shape (n_points, dim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def coverage_margins(self, states: np.ndarray) -> np.ndarray:
        """How far each row of states lies outside the lattice box (0 inside);
        +inf for a row with a non-finite entry, which no lattice covers."""
        # a coordinate lies past at most one bound; NaN propagates to its row
        margins = np.maximum(np.max(np.maximum(states - np.asarray(self.hi),
                                               np.asarray(self.lo) - states), axis=1), 0.0)
        margins[np.isnan(margins)] = np.inf
        return margins

    def interpolate_batch(self, values: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of a lattice field at many states.

        Out-of-lattice states raise LatticeCoverageError with the margin needed
        (silent clamping would corrupt value comparisons).
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        worst = float(np.max(self.coverage_margins(states), initial=0.0))
        if worst > COVERAGE_TOL:
            raise _coverage_error(worst)
        axes = self.axes
        idx = []
        wts = []
        for d in range(self.dim):
            axis = axes[d]
            pos = np.clip((states[:, d] - axis[0]) / (axis[1] - axis[0]), 0.0, self.shape[d] - 1)
            base = np.minimum(pos.astype(int), self.shape[d] - 2)
            idx.append(base)
            wts.append(pos - base)
        if self.dim == 1:
            b, w = idx[0], wts[0]
            out = values[b] * (1.0 - w) + values[b + 1] * w
        else:
            b0, w0 = idx[0], wts[0]
            b1, w1 = idx[1], wts[1]
            out = (values[b0, b1] * (1.0 - w0) * (1.0 - w1)
                   + values[b0 + 1, b1] * w0 * (1.0 - w1)
                   + values[b0, b1 + 1] * (1.0 - w0) * w1
                   + values[b0 + 1, b1 + 1] * w0 * w1)
        return out


def _coverage_error(margin: float) -> LatticeCoverageError:
    return LatticeCoverageError(
        f"state leaves the lattice by {margin:.6e}; expand bounds by at least that margin",
        margin=margin)


def is_upper_side(side: str) -> bool:
    """True for "upper", False for "lower"; any other name is refused."""
    if side == "upper":
        return True
    if side == "lower":
        return False
    raise DomainError(f"unknown side {side!r}")


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Lower/upper game values on (time nodes) x (state lattice)."""

    grid: TimeGrid
    lattice: StateLattice
    v_minus: np.ndarray
    v_plus: np.ndarray
    metadata: dict = field(default_factory=dict)

    def side_values(self, side: str) -> np.ndarray:
        if is_upper_side(side):
            if self.v_plus is None:
                raise ConfigurationError("table holds no upper values")
            return self.v_plus
        if self.v_minus is None:
            raise ConfigurationError("table holds no lower values")
        return self.v_minus

    def interp(self, side: str, t: float, state) -> float:
        """interp_batch at a single state."""
        return float(self.interp_batch(side, t, np.atleast_1d(state)[None, :])[0])

    def interp_batch(self, side: str, t: float, states: np.ndarray) -> np.ndarray:
        """Time-linear, state-multilinear interpolation; exact at table nodes."""
        vals = self.side_values(side)
        self.grid.require_contains(t)
        nodes = self.grid.nodes
        k = int(np.argmin(np.abs(nodes - t)))
        if abs(nodes[k] - t) <= 1e-9 * max(1.0, abs(self.grid.t_end)):
            return self.lattice.interpolate_batch(vals[k], states)
        k = int(np.searchsorted(nodes, t, side="right")) - 1
        k = min(max(k, 0), len(nodes) - 2)
        w = (t - nodes[k]) / (nodes[k + 1] - nodes[k])
        a = self.lattice.interpolate_batch(vals[k], states)
        b = self.lattice.interpolate_batch(vals[k + 1], states)
        return a + w * (b - a)

    def gradient(self, side: str, t: float, states: np.ndarray) -> np.ndarray:
        """Central-difference lattice gradients of the value at (t, x) for each
        row x of states, shape (N, dim) -> (N, dim).

        Coordinate d of a row differences the value between the probes
        x + spacing_d e_d and x - spacing_d e_d, each clipped to the lattice
        box in coordinate d.  A coordinate whose clipped probes lie less than
        1e-300 apart (a state more than one spacing past an edge) reads
        nothing and is 0.  The probes that are read go in one interp_batch
        call, so a probe off the lattice raises the batch's largest margin.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        lattice = self.lattice
        diag = np.arange(lattice.dim)
        up = np.repeat(states[:, None, :], lattice.dim, axis=1)  # (row, d, coordinate)
        dn = up.copy()
        up[:, diag, diag] = np.minimum(states + np.asarray(lattice.spacing), lattice.hi)
        dn[:, diag, diag] = np.maximum(states - np.asarray(lattice.spacing), lattice.lo)
        width = up[:, diag, diag] - dn[:, diag, diag]
        read = ~(width < 1e-300)
        g = np.zeros(states.shape)
        if read.any():
            up_vals, dn_vals = np.split(
                self.interp_batch(side, t, np.concatenate([up[read], dn[read]])), 2)
            g[read] = (up_vals - dn_vals) / width[read]
        return g

    def to_json_obj(self) -> dict:
        obj = {
            "t": [float(v) for v in self.grid.nodes],
            "lattice": {"lo": list(self.lattice.lo), "hi": list(self.lattice.hi),
                        "shape": list(self.lattice.shape)},
            "metadata": dict(self.metadata),
        }
        if self.v_minus is not None:
            obj["v_minus"] = self.v_minus.tolist()
        if self.v_plus is not None:
            obj["v_plus"] = self.v_plus.tolist()
        return obj

    def to_csv(self) -> str:
        """Long-form rows: t, state coordinates, v_minus, v_plus."""
        lines = ["t," + ",".join(f"s_{d + 1}" for d in range(self.lattice.dim))
                 + ",v_minus,v_plus"]
        points = self.lattice.points()
        for k, t in enumerate(self.grid.nodes):
            vm = self.v_minus[k].ravel() if self.v_minus is not None else np.full(len(points), np.nan)
            vp = self.v_plus[k].ravel() if self.v_plus is not None else np.full(len(points), np.nan)
            for point, a, b in zip(points, vm, vp):
                coords = ",".join(f"{c:.17g}" for c in point)
                lines.append(f"{t:.17g},{coords},{a:.17g},{b:.17g}")
        return "\n".join(lines) + "\n"


def _lift_paths(lattice: StateLattice, grid: TimeGrid) -> list:
    return [Path.constant(grid, point) for point in lattice.points()]


def _dp_slice(spec: GameSpec, grid: TimeGrid, lattice: StateLattice, k: int,
              v_minus_next, v_plus_next, lifts):
    """One backward step: returns (v_minus_k, v_plus_k) lattice arrays.

    The slice is one array program over its (point, p, q) cells: one
    lane_terms call over every lattice point (lane n's path is lifts[n]),
    one batched implicit step, one interpolation per side, and the min/max as
    axis reductions.  A game without a Markov form is probed at node k > 0
    by _require_markov.  Errors follow the lockstep rule of pdhj.evolution;
    the phases are the stage terms, the probe, the implicit step and the
    table reads, and a successor off the lattice names the cell with the
    largest margin (the first such cell on ties).
    """
    nodes = grid.nodes
    t_k, t_k1 = nodes[k], nodes[k + 1]
    dt = t_k1 - t_k
    controls = spec.controls
    points = lattice.points()
    n_points, dim = points.shape
    cells = (n_points, controls.n_p, controls.n_q)
    drift, cost = spec.lane_terms(t_k, points, lambda n: lifts[n])
    if spec.markov_terms is None and k > 0:
        _require_markov(spec, grid, k, points, drift, cost)
    starts = np.broadcast_to(points[:, None, None, :], drift.shape).reshape(-1, dim)
    succ, _, _ = _drift_step(spec.dyn.op, t_k1, dt, starts, drift.reshape(-1, dim),
                             STEP_SOLVE_TOL, k)
    margins = lattice.coverage_margins(succ)
    worst = int(np.argmax(margins))
    if margins[worst] > COVERAGE_TOL:
        idx, i, j = np.unravel_index(worst, cells)
        err = _coverage_error(float(margins[worst]))
        raise LatticeCoverageError(
            f"successor left the lattice at time index {k} (state {points[idx]}, "
            f"p={controls.p_points[i]!r}, q={controls.q_points[j]!r}): {err}",
            margin=err.margin)
    stage = dt * cost
    out_minus = out_plus = None
    if v_minus_next is not None:  # maximizer commits first: max over q of min over p
        obj = stage + lattice.interpolate_batch(v_minus_next, succ).reshape(cells)
        out_minus = obj.min(axis=1).max(axis=1).reshape(lattice.shape)
    if v_plus_next is not None:  # minimizer commits first: min over p of max over q
        obj = stage + lattice.interpolate_batch(v_plus_next, succ).reshape(cells)
        out_plus = obj.max(axis=2).min(axis=1).reshape(lattice.shape)
    return out_minus, out_plus


def _require_markov(spec: GameSpec, grid: TimeGrid, k: int, points: np.ndarray,
                    drift: np.ndarray, cost: np.ndarray):
    """The oracle's probe of a game without a Markov form at node k > 0.

    drift and cost are the stage terms on the constant lifts of the lattice
    points.  Each point's history before t_k is pushed away from the origin
    (x -> x + sign(x)(1 + |x|) per coordinate, so every node norm grows) while
    x(t_k) stays; the stage terms on these histories must equal those on the
    lifts bit for bit, or the game reads its past and the DP value, which
    sees only constant lifts, would be wrong: ConfigurationError.
    """
    t_k = grid.nodes[k]
    values = _pushed_histories(grid, k, points)
    drift_h, cost_h = spec.lane_terms(t_k, points, lambda n: Path(grid, values[:, n]))
    same = (drift_h == drift).all(axis=(1, 2, 3)) & (cost_h == cost).all(axis=(1, 2))
    if not same.all():
        n = int(np.argmin(same))
        raise ConfigurationError(
            f"game {spec.name!r} reads its path before t at time node {k} (t={t_k}, lattice "
            f"state {points[n]}): the DP oracle values only games that read the path "
            f"through x(t)")


def _pushed_histories(grid: TimeGrid, k: int, points: np.ndarray) -> np.ndarray:
    """Node values, shape (n_steps + 1, N, dim), of the N points' histories
    pushed away from the origin before t_k (x -> x + sign(x)(1 + |x|) per
    coordinate) and equal to the point from t_k on."""
    values = np.repeat(points[None], grid.n_steps + 1, axis=0)
    values[:k] = points + np.copysign(1.0 + np.abs(points), points)
    return values


def _require_markov_terminal(spec: GameSpec, grid: TimeGrid, points: np.ndarray,
                             terminal: np.ndarray):
    """The oracle's probe of the terminal cost of a game without a Markov form.

    terminal holds the terminal cost on the constant lifts of the lattice
    points; on each point's history pushed away before T (as _require_markov
    pushes it before t_k) it must be the same, or ConfigurationError.
    """
    values = _pushed_histories(grid, grid.n_steps, points)
    for n, point in enumerate(points):
        if spec.final_cost(Path(grid, values[:, n])) != terminal[n]:
            raise ConfigurationError(
                f"game {spec.name!r} reads its path before T in its terminal cost (lattice "
                f"state {point}): the DP oracle values only games that read the path "
                f"through x(T)")


def dp_value(spec: GameSpec, grid: TimeGrid, lattice: StateLattice,
             side: str = "both") -> ValueTable:
    """Backward min-max recursion on the lattice.

    Upper value: minimizer commits first each step (min over p of max over q);
    lower value: maximizer commits first (max over q of min over p).  Terminal
    slice is the terminal cost evaluated exactly at lattice points.  Successors
    are one implicit-Euler step; leaving the lattice is an error that names the
    margin needed.

    A game that declares markov_terms is valued as it is.  Any other game is
    probed at each node after the first, inside that node's slice (so
    recompute_slice probes too): its stage terms on histories perturbed
    before t must equal those on the constant lifts (_require_markov), or
    dp_value raises ConfigurationError naming the game and the node, rather
    than return a value that ignores the past.  Its terminal cost is probed
    the same way on histories perturbed before T, before any slice
    (_require_markov_terminal).
    """
    if side not in ("both", "lower", "upper"):
        raise DomainError(f"unknown side {side!r}")
    want_minus = side in ("both", "lower")
    want_plus = side in ("both", "upper")
    lifts = _lift_paths(lattice, grid)
    n_nodes = grid.n_steps + 1
    shape = (n_nodes,) + lattice.shape
    terminal = np.array([spec.final_cost(lift) for lift in lifts])
    if spec.markov_terms is None:
        _require_markov_terminal(spec, grid, lattice.points(), terminal)
    terminal = terminal.reshape(lattice.shape)
    v_minus = np.empty(shape) if want_minus else None
    v_plus = np.empty(shape) if want_plus else None
    if want_minus:
        v_minus[-1] = terminal
    if want_plus:
        v_plus[-1] = terminal
    for k in range(grid.n_steps - 1, -1, -1):
        m_next = v_minus[k + 1] if want_minus else None
        p_next = v_plus[k + 1] if want_plus else None
        m_k, p_k = _dp_slice(spec, grid, lattice, k, m_next, p_next, lifts)
        if want_minus:
            v_minus[k] = m_k
        if want_plus:
            v_plus[k] = p_k
    metadata = {
        "game": spec.name,
        "controls": spec.controls.describe(),
        "lattice_spacing": list(lattice.spacing),
        "mesh": grid.mesh,
        "side": side,
    }
    return ValueTable(grid=grid, lattice=lattice, v_minus=v_minus, v_plus=v_plus,
                      metadata=metadata)


def recompute_slice(table: ValueTable, spec: GameSpec, k: int, side: str) -> np.ndarray:
    """Redo the backward step at time index k from slice k+1 (bit-exact check)."""
    lifts = _lift_paths(table.lattice, table.grid)
    if is_upper_side(side):
        _, out = _dp_slice(spec, table.grid, table.lattice, k, None,
                           table.v_plus[k + 1], lifts)
    else:
        out, _ = _dp_slice(spec, table.grid, table.lattice, k,
                           table.v_minus[k + 1], None, lifts)
    return out


# ---------------------------------------------------------------------------
# extremal-shift feedback strategy
# ---------------------------------------------------------------------------

class FeedbackStrategy:
    """Extremal-shift feedback for the minimizing player.

    At each decision node the strategy finds an approximate minimizer of
    u(t, .) + nu(t, x - .) over a companion candidate set, then commits the
    control index achieving min over p of max over q of
    cost + (f, grad nu(t, x - companion)).

    Candidates: the trace itself (zero difference), lattice states lifted to
    constant-history paths, a seeded library of reachable-tube samples, and
    directional probe companions -- the trace with a small terminal offset
    reachable by diverting forcing slack since t0.  The probes realize the
    penalty's cone geometry near zero difference: the exact minimizer over the
    tube sits a tiny value-downhill offset from the trace, and its gradient is
    what aims the control.
    """

    # fraction of the forcing envelope assumed divertible to companion drift
    PROBE_BUDGET_RATE = 0.25
    PROBE_SCALES = (0.25, 1.0, 4.0)  # in units of epsilon^2

    def __init__(self, spec: GameSpec, params: LyapunovParams, value: ValueTable,
                 t0: float, x0: Path, library):
        if value is None:
            raise ConfigurationError("feedback strategy needs a value table")
        self.spec = spec
        self.params = params
        self.value = value
        self.t0 = t0
        self.x0 = x0
        self.library = list(library)
        self._lattice_points = value.lattice.points()
        # (node, sample, coordinate): a node prefix is one contiguous slice
        self._library_values = np.stack([y.values for y in self.library], axis=1) \
            if self.library else None

    def _probe_offsets(self, t: float, dim: int) -> np.ndarray:
        """Admissible terminal offsets, shape (n, dim): +/- scaled eps^2 steps per
        coordinate, capped by the forcing slack accumulated since t0."""
        budget = self.PROBE_BUDGET_RATE * self.spec.l_f * max(t - self.t0, 0.0)
        eps_sq = self.params.epsilon ** 2
        steps = [min(scale * eps_sq, budget) for scale in self.PROBE_SCALES]
        steps = np.array([s for s in steps if s > 0.0])
        offsets = np.zeros((len(steps), dim, 2, dim))  # (scale, coordinate, sign, coordinate)
        for d in range(dim):
            offsets[:, d, 0, d] = steps
            offsets[:, d, 1, d] = -steps
        return offsets.reshape(-1, dim)

    def _probe_candidates(self, t: float, states: np.ndarray):
        """(offsets, kept, values) of the probes state - offset for each row of
        states, shape (game, dim).

        offsets is _probe_offsets(t, dim); kept, shape (game, offset), marks the
        probes interpolate_batch would accept, and values holds theirs, read with
        one interp_batch call (+inf where a probe is dropped).
        """
        offsets = self._probe_offsets(t, states.shape[1])
        probes = (states[:, None, :] - offsets[None, :, :]).reshape(-1, states.shape[1])
        kept = self.value.lattice.coverage_margins(probes) <= COVERAGE_TOL
        u_vals = np.full(len(probes), np.inf)
        if kept.any():
            u_vals[kept] = self.value.interp_batch("upper", t, probes[kept])
        shape = (len(states), len(offsets))
        return offsets, kept.reshape(shape), u_vals.reshape(shape)

    def companion_minima(self, t: float, X: np.ndarray):
        """Approximate argmin of u + nu for many games at one node, as arrays
        (totals, kinds, indices, gradients) of shapes (game,), (game,), (game,)
        and (game, dim): the shifted value u_a(t, x), the winning kind as a
        code into COMPANION_KINDS, the candidate's index within its kind, and
        the gradient d/dx nu(t, x - companion) that aims the control.

        X holds each game's node values up to t, shape (node, game,
        coordinate), on the simulation grid.  The trace (zero difference,
        gradient 0) is each game's first candidate.  Each further kind is
        scored by one surrogate_terms call over its (game, candidate) pairs,
        whose difference paths are (node, game, candidate, coordinate) arrays
        ending at t.  The traces, the probes kept per game, and the lattice and
        library candidates shared by all games are each read with one
        interp_batch call.  A candidate replaces a game's best only when
        strictly smaller, so ties keep the earlier kind and the smaller index.
        Each game's entries are bit-identical to a call with that game alone.
        A failed read raises for the batch as a whole.
        """
        n_games, dim = X.shape[1], X.shape[2]
        alpha = self.params.alpha(t)
        eps4 = self.params.epsilon ** 4
        states = X[-1]
        totals = self.value.interp_batch("upper", t, states) + alpha * np.sqrt(eps4)
        kinds = np.zeros(n_games, dtype=int)  # the trace
        indices = np.zeros(n_games, dtype=int)
        gradients = np.zeros((n_games, dim))
        rows = np.arange(n_games)

        def consider(kind, diffs, u_vals):
            sq = np.sum(diffs ** 2, axis=3)
            ups, factor = surrogate_terms(sq.max(axis=0), sq[-1])
            beta = np.sqrt(eps4 + ups)
            total = u_vals + alpha * beta  # (game, candidate)
            i = np.argmin(total, axis=1)
            better = total[rows, i] < totals
            if not better.any():
                return
            g, i = rows[better], i[better]
            totals[g] = total[g, i]
            kinds[g] = COMPANION_KINDS.index(kind)
            indices[g] = i
            beta, factor = (np.broadcast_to(a, total.shape)[g, i] for a in (beta, factor))
            last = np.broadcast_to(diffs[-1], total.shape + (dim,))[g, i]
            gradients[g] = ((alpha / (2.0 * beta)) * factor)[:, None] * last

        # probes: trace plus a gradual drift to offset o; the difference path
        # rises to |o| at time t, so its last row alone carries sup = cur = |o|
        offsets, kept, u_vals = self._probe_candidates(t, states)
        if kept.any():
            consider("probe", offsets[None, None, :, :], u_vals)

        points = self._lattice_points
        consider("lattice", X[:, :, None, :] - points[None, None, :, :],
                 self.value.interp_batch("upper", t, points))

        if self._library_values is not None:
            lib = self._library_values[: X.shape[0]]
            consider("library", X[:, :, None, :] - lib[:, None, :, :],
                     self.value.interp_batch("upper", t, lib[-1]))
        return totals, kinds, indices, gradients

    def select_controls(self, t: float, states: np.ndarray, path_of, gradients) -> np.ndarray:
        """Control index of each game at node t, aimed by its companion
        gradient (a row of gradients, shape (game, dim)): the argmin over p of
        max over q of cost + (f, gradient), smallest index on ties.  states and
        path_of are the games' lanes as in GameSpec.lane_terms, which is called
        once for all of them."""
        drift, cost = self.spec.lane_terms(t, states, path_of)
        M = cost + _row_dots(drift, gradients[:, None, None, :])
        return np.argmin(M.max(axis=2), axis=1)


def extremal_shift_strategy(spec: GameSpec, params: LyapunovParams, t0: float,
                            x0: Path, partition, *, value: ValueTable,
                            library_size: int = 64, seed: int = 0) -> FeedbackStrategy:
    """Build the extremal-shift strategy with its companion library.

    partition is the TimeGrid the games are played on, or a sequence of such
    grids.  x0 is the history path; it is resampled onto the simulation grid
    (the value grid refined with the nodes of every partition), so the games
    can be played on each partition.  The library holds reachable-tube
    samples started at (t0, x0).
    """
    if library_size < 0:
        raise ConfigurationError("library_size must be >= 0")
    partitions = [partition] if isinstance(partition, TimeGrid) else list(partition)
    for part in partitions:
        if abs(part.t_start - t0) > 1e-9 or abs(part.t_end - value.grid.t_end) > 1e-9:
            raise DomainError("partition must span [t0, T]")
    inner = simulation_grid(value.grid, *partitions)
    hist = extend_history(x0, inner, t0)
    library = []
    if library_size > 0:
        library = [rep.path for rep in sample_reachable_set(spec.dyn.op, t0, hist, library_size,
                                                            seed, lipschitz_L=spec.l_f)]
    return FeedbackStrategy(spec, params, value, t0, hist, library)


def simulation_grid(value_grid: TimeGrid, *partitions: TimeGrid) -> TimeGrid:
    """Union of the value-grid nodes and the nodes of every partition.

    Each partition covers [t0, T] for some t0 at or after the value grid's
    start; all must end at the same horizon.
    """
    for partition in partitions:
        if partition.t_start < value_grid.t_start - 1e-12 or \
                abs(value_grid.t_end - partition.t_end) > 1e-12:
            raise DomainError("partition must lie within the value grid span and end at T")
    nodes = np.unique(np.concatenate([value_grid.nodes] + [p.nodes for p in partitions]))
    keep = [nodes[0]]
    for t in nodes[1:]:
        if t - keep[-1] > 1e-12:
            keep.append(t)
    return TimeGrid.from_nodes(keep)


# ---------------------------------------------------------------------------
# feedback game runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FeedbackPlay:
    """The record of N games played in lockstep on one partition.

    Shaped (step, game), one row per partition cell: p and q, the control
    indices played; step_cost, the running cost of the cell; u_before and
    u_after, the shifted value (the companion minimum) at the cell's two
    nodes; kind, a code into COMPANION_KINDS, and index, the companion that
    aimed the cell's control.  values, shaped (node, game, dim), holds the
    states on the simulation grid (the strategy's x0.grid); running and
    terminal, shaped (game,), each game's running and terminal cost.
    """

    partition: TimeGrid
    p: np.ndarray
    q: np.ndarray
    step_cost: np.ndarray
    u_before: np.ndarray
    u_after: np.ndarray
    kind: np.ndarray
    index: np.ndarray
    values: np.ndarray
    running: np.ndarray
    terminal: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        """Cost plus shifted-value increment of each cell, shape (step, game)."""
        return self.step_cost + self.u_after - self.u_before

    @property
    def payoff(self) -> np.ndarray:
        return self.running + self.terminal

    def lanes(self, games) -> "FeedbackPlay":
        """The record of the games that games (a slice or index array) selects."""
        columns = ("p", "q", "step_cost", "u_before", "u_after", "kind", "index", "values")
        return replace(self, running=self.running[games], terminal=self.terminal[games],
                       **{name: getattr(self, name)[:, games] for name in columns})


def play_feedback_games(spec: GameSpec, strategy: FeedbackStrategy, adversaries,
                        partition: TimeGrid) -> FeedbackPlay:
    """Play one game per adversary on one partition, all games in lockstep,
    and return their FeedbackPlay record, games in adversary order.

    The strategy commits p per partition cell and the adversary answers q.  An
    adversary is any per-step policy (t, path_of, p_index) -> q_index, where
    path_of() builds its game's path stopped at t; it sees the committed p,
    consistent with the upper-value commit order.  Both controls are held on
    the cell while the state integrates on the finer simulation grid.

    The phases of a partition cell, each one batch unless said otherwise:
    the controls (one strategy.select_controls call, one lane_terms call over
    the full control grid, each game aimed by its own companion gradient);
    the greedy adversaries (one lookahead step per group of greedy_adversary
    lanes with the same game and table); the other adversaries, game by
    game, so an adversary that keeps state (the generator of a
    random_adversary) sees the calls it sees when its games are played one
    at a time; then per simulation-grid step the stage terms at the played
    pairs (one lane_terms call) and one implicit step for all games; then the
    companion minima (one companion_minima call, whose minimum is the cell's
    u_after and aims the next control).  At a partition node a lane's stopped
    path is built only if its game or its adversary reads it, and then once;
    the full paths are built only for the terminal cost.  Each game's columns
    of the record are bit-identical to playing it alone.  Errors follow the
    lockstep rule of pdhj.evolution over these phases.
    """
    adversaries = list(adversaries)
    inner = strategy.x0.grid
    nodes = inner.nodes
    part_nodes = partition.nodes
    m = len(adversaries)
    games = np.arange(m)
    groups, others = {}, []  # greedy lanes by equal adversary, then the rest
    for g, adversary in enumerate(adversaries):
        if isinstance(adversary, _GreedyLookahead):
            groups.setdefault(adversary, []).append(g)
        else:
            others.append(g)
    groups = [np.array(lanes) for lanes in groups.values()]
    values = np.repeat(strategy.x0.values[:, None, :], m, axis=1)  # (node, game, coordinate)
    totals, kinds, indices, gradients = strategy.companion_minima(
        part_nodes[0], values[: inner.node_index(part_nodes[0]) + 1])
    cells = []
    running = np.zeros(m)
    for i in range(partition.n_steps):
        t_i, t_i1 = part_nodes[i], part_nodes[i + 1]
        ka, kb = inner.node_index(t_i), inner.node_index(t_i1)
        path_at = functools.cache(lambda g, k=ka: stopped_at(inner, values[:, g], k))
        p_picks = strategy.select_controls(t_i, values[ka], path_at, gradients)
        q_picks = np.empty(m, dtype=int)
        states = stopped_value_at(inner, values, ka, t_i)
        for lanes in groups:
            q_picks[lanes] = adversaries[lanes[0]].answers(
                t_i, ka, states[lanes], lambda n: path_at(lanes[n]), p_picks[lanes])
        for g in others:
            q_picks[g] = int(adversaries[g](t_i, functools.partial(path_at, g), int(p_picks[g])))
        played = (games, p_picks, q_picks)
        step_cost = np.zeros(m)
        for k in range(ka, kb):
            t_k, dt = nodes[k], nodes[k + 1] - nodes[k]
            drift, cost = spec.lane_terms(
                t_k, values[k], lambda g: stopped_at(inner, values[:, g], k), played)
            step_cost += dt * cost
            values[k + 1], _, _ = _drift_step(spec.dyn.op, nodes[k + 1], dt, values[k], drift,
                                              STEP_SOLVE_TOL, k)
        running += step_cost
        after = strategy.companion_minima(t_i1, values[: kb + 1])
        cells.append((p_picks, q_picks, step_cost, totals, after[0], kinds, indices))
        totals, kinds, indices, gradients = after

    p, q, step_cost, u_before, u_after, kind, index = (np.array(column) for column in zip(*cells))
    terminal = np.array([spec.final_cost(Path(inner, values[:, g])) for g in range(m)])
    return FeedbackPlay(partition, p, q, step_cost, u_before, u_after, kind, index, values,
                        running, terminal)


# -- adversary policies -----------------------------------------------------

def constant_adversary(q_index: int):
    def policy(t, path_of, p_index):
        return q_index
    policy.describe = f"constant[{q_index}]"
    return policy


def random_adversary(seed: int, n_q: int):
    """A uniform q index per call, drawn from the policy's own generator."""
    rng = np.random.default_rng(seed)

    def policy(t, path_of, p_index):
        return int(rng.integers(n_q))
    policy.describe = f"random[{seed}]"
    policy.generator = rng
    return policy


@dataclass(frozen=True)
class _GreedyLookahead:
    """One-step lookahead maximizer of the upper value against the committed
    p, one value-grid mesh ahead; ties keep the first q.  Equal ones (the same
    game and table) answer as one batch in play_feedback_games."""

    spec: GameSpec
    value: ValueTable
    describe = "greedy-lookahead"

    def __call__(self, t, path_of, p_index):
        x = path_of()
        return int(self.answers(t, x.grid.node_index(t), x.value_at(t)[None], lambda _: x,
                                np.array([p_index]))[0])

    def answers(self, t: float, k: int, states: np.ndarray, path_of, p_indices) -> np.ndarray:
        """The q index of each of N games at node k (time t); states (N, dim)
        and path_of as in GameSpec.lane_terms, p_indices (N,) the committed p's.

        The (game, q) pairs are the lanes of one lockstep step (errors as
        pdhj.evolution states): one lane_terms call for the committed rows (in
        game, then q order), one batched implicit step, one read of the
        successors.  Each game's pick is the one it gets alone.
        """
        spec, value = self.spec, self.value
        n_q = spec.controls.n_q
        dt = min(value.grid.mesh, value.grid.t_end - t)
        n = len(states)
        rows = np.repeat(np.arange(n), n_q)
        played = (rows, np.repeat(p_indices, n_q), np.tile(np.arange(n_q), n))
        drifts, costs = spec.lane_terms(t, states, path_of, played)
        succ, _, _ = _drift_step(spec.dyn.op, t + dt, dt, states[rows], drifts, STEP_SOLVE_TOL, k)
        ahead = value.interp_batch("upper", t + dt, succ)
        picks = np.zeros(n, dtype=int)
        for g, scores in enumerate((dt * costs + ahead).reshape(n, n_q)):
            best = -np.inf
            for j, val in enumerate(scores):
                if val > best + 1e-15:
                    picks[g], best = j, val
        return picks


def greedy_adversary(spec: GameSpec, value: ValueTable):
    """The greedy lookahead adversary: called alone it reads its game's
    stopped path; play_feedback_games answers its greedy lanes in batches."""
    return _GreedyLookahead(spec, value)


def adversary_pool(spec: GameSpec, value: ValueTable, budget: int, seed: int) -> list:
    """Deterministic nested pool: constants, greedy lookahead, then seeded random."""
    if budget < 1:
        raise DomainError("budget must be >= 1")
    pool = [constant_adversary(j) for j in range(spec.controls.n_q)]
    pool.append(greedy_adversary(spec, value))
    i = 0
    while len(pool) < budget:
        pool.append(random_adversary(seed + i, spec.controls.n_q))
        i += 1
    return pool[:budget]


# -- reductions over feedback plays -----------------------------------------

def step_rate_bound(plays) -> float:
    """Empirical Lyapunov step-rate bound m-hat of the plays' games: the
    maximum per-cell residual rate (cost + shifted-value increment per unit
    time), floored at STEP_RATE_FLOOR.  Test runs are then required to respect
    m-hat on at least 95% of steps and 2 * m-hat always."""
    worst = STEP_RATE_FLOOR
    for play in plays:
        worst = (play.residual / np.diff(play.partition.nodes)[:, None]).max(initial=worst)
    return float(worst)


def lyapunov_violation_stats(plays, m_hat: float) -> dict:
    """Fraction of the plays' cells respecting residual <= m_hat * dt, and the
    worst excess ratio residual / (m_hat * dt) of the others."""
    total, ok, worst_ratio = 0, 0, 0.0
    for play in plays:
        residual = play.residual
        bound = m_hat * np.diff(play.partition.nodes)[:, None]
        within = residual <= bound
        total += within.size
        ok += int(within.sum())
        worst_ratio = (residual / bound)[~within].max(initial=worst_ratio)
    return {"steps": total, "within_bound": ok,
            "fraction_within": ok / total if total else 1.0,
            "worst_excess_ratio": float(worst_ratio)}


@dataclass(frozen=True, eq=False)
class GuaranteeEstimate:
    """Sampled guaranteed result: worst payoff over adversaries and partitions."""

    value: float
    per_partition: tuple
    budget: int
    seed: int
    certificate: dict

    @classmethod
    def from_payoffs(cls, pool, partitions, payoffs, budget: int, seed: int) -> "GuaranteeEstimate":
        """The worst payoff per partition and overall, with its certificate:
        payoffs[i] holds the payoff of each of the pool's games on
        partitions[i], in pool order, and a tie keeps the earlier adversary."""
        per_partition = []
        for partition, payoff in zip(partitions, payoffs):
            worst = int(np.argmax(payoff))
            per_partition.append({"n_steps": partition.n_steps, "mesh": partition.mesh,
                                  "worst_payoff": payoff[worst],
                                  "worst_adversary": getattr(pool[worst], "describe", "?")})
        certificate = {
            "seed": seed,
            "budget": budget,
            "pool": [getattr(a, "describe", "?") for a in pool],
            "partition_meshes": [p.mesh for p in partitions],
        }
        return cls(value=float(max(p["worst_payoff"] for p in per_partition)),
                   per_partition=tuple(per_partition), budget=budget, seed=seed,
                   certificate=certificate)

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "per_partition": [dict(p) for p in self.per_partition],
            "budget": self.budget,
            "seed": self.seed,
            "certificate": dict(self.certificate),
        }


# ---------------------------------------------------------------------------
# desk-scale game builders
# ---------------------------------------------------------------------------

def bilinear_game(scale: float = 1.0, levels=(-1.0, 1.0), gain: float = 1.0,
                  terminal: str = "abs") -> GameSpec:
    """dim-1 game with drift scale * p * q: the classic non-Isaacs example."""
    op = make_linear_operator(dim=1, gain=gain)
    dyn = DelayDynamics(op=op,
                        rhs=lambda t, x, u: np.array([scale * u[0] * u[1]]),
                        lipschitz_L=abs(scale) * max(abs(v) for v in levels) ** 2)
    h = (lambda x: float(np.linalg.norm(x.values[-1]))) if terminal == "abs" \
        else (lambda x: float(np.dot(x.values[-1], x.values[-1])))

    def markov(t, states, P, Q):
        drift = (scale * P[:, None]) * Q[None, :]
        shape = (len(states),) + drift.shape
        return np.broadcast_to(drift[..., None], shape + (1,)), np.zeros(shape)

    return GameSpec(dyn=dyn,
                    running_cost=lambda t, x, p, q: 0.0,
                    terminal_cost=h,
                    controls=ControlGrid(p_points=levels, q_points=levels),
                    l_f=dyn.lipschitz_L, lambda_L=0.1, name="bilinear", markov_terms=markov)


def isaacs_game(scale: float = 0.5, levels=(-1.0, 0.0, 1.0), gain: float = 1.0,
                cost_weight: float = 0.1) -> GameSpec:
    """dim-1 Isaacs game: drift scale * (p + q), state-quadratic running cost.

    The stage objective is separable in (p, q), so min-max equals max-min and
    the Isaacs gap vanishes identically.
    """
    op = make_linear_operator(dim=1, gain=gain)
    level_max = max(abs(v) for v in levels)
    dyn = DelayDynamics(op=op,
                        rhs=lambda t, x, u: np.array([scale * (float(u[0]) + float(u[1]))]),
                        lipschitz_L=2.0 * abs(scale) * level_max)

    def running(t, x, p, q):
        xt = x.value_at(t)
        return cost_weight * float(np.dot(xt, xt))

    def markov(t, states, P, Q):
        drift = scale * (P[:, None] + Q[None, :])
        shape = (len(states),) + drift.shape
        cost = cost_weight * _row_dots(states, states)  # the bits of np.dot(xt, xt)
        return (np.broadcast_to(drift[..., None], shape + (1,)),
                np.broadcast_to(cost[:, None, None], shape))

    def terminal(x):
        return float(np.dot(x.values[-1], x.values[-1]))

    # state bound on the tube from x0 ~ O(1): dissipative gain-1 drift keeps
    # |x| <= ~1.5, so the sup-norm Lipschitz constant of the running cost is
    # cost_weight * 2 * 1.5
    lam = max(3.0 * cost_weight, 0.1)
    return GameSpec(dyn=dyn, running_cost=running, terminal_cost=terminal,
                    controls=ControlGrid(p_points=levels, q_points=levels),
                    l_f=dyn.lipschitz_L, lambda_L=lam, name="isaacs-additive",
                    markov_terms=markov)


def constant_game(cost: float = 1.0, gain: float = 1.0) -> GameSpec:
    """Zero dynamics forcing, constant running cost: value is cost * (T - t)."""
    op = make_linear_operator(dim=1, gain=gain)
    dyn = DelayDynamics(op=op, rhs=lambda t, x, u: np.zeros(1), lipschitz_L=0.0)

    def markov(t, states, P, Q):
        shape = (len(states), len(P), len(Q))
        return np.zeros(shape + (1,)), np.full(shape, float(cost))

    return GameSpec(dyn=dyn,
                    running_cost=lambda t, x, p, q: cost,
                    terminal_cost=lambda x: 0.0,
                    controls=ControlGrid(p_points=(0.0,), q_points=(0.0,)),
                    l_f=0.0, lambda_L=0.1, name="constant", markov_terms=markov)


def with_terminal_shift(spec: GameSpec, shift: float) -> GameSpec:
    """Add a constant to the terminal cost (stability experiment family)."""
    return replace(spec, terminal_cost=lambda x: spec.terminal_cost(x) + shift,
                   name=f"{spec.name}-hshift")


def with_drift_perturbation(spec: GameSpec, magnitude: float) -> GameSpec:
    """Add a constant drift, perturbing the Hamiltonian z-dependently by (w, z)."""
    dim = spec.dyn.op.space.dim
    w = np.full(dim, magnitude)

    def rhs(t, x, u):
        return np.atleast_1d(spec.dyn.rhs(t, x, u)) + w

    markov = None
    if spec.markov_terms is not None:
        def markov(t, states, P, Q):
            drift, cost = spec.markov_terms(t, states, P, Q)
            return drift + w, cost

    dyn = DelayDynamics(op=spec.dyn.op, rhs=rhs,
                        lipschitz_L=spec.dyn.lipschitz_L + abs(magnitude) * np.sqrt(dim))
    return replace(spec, dyn=dyn, l_f=spec.l_f + abs(magnitude) * np.sqrt(dim),
                   name=f"{spec.name}-fdrift", markov_terms=markov)
