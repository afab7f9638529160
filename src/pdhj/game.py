"""Zero-sum differential games over finite control grids.

Holds the game specification (dynamics, running and terminal costs, control
grids), the lower/upper Hamiltonians by exact enumeration, a brute-force
backward dynamic-programming value oracle on a state lattice, and the
extremal-shift feedback strategy driven by the decaying Lyapunov function.

A game states its drift and running cost once, as one batched stage function
over many lanes and the whole control grid, and its terminal cost as one
batched terminal function; each gets every lane's current state and a
path_of callback for the lanes' stopped paths.  The DP oracle treats lattice
states as constant-history paths; its values are exact for games whose path
dependence collapses to the current state, which is the regime of every
desk-scale example here.  A function that never calls path_of cannot read
the past, so dp_value takes it as it is; it probes any function it sees call
path_of and refuses one that reads its past.  Games that differ only in
their terminal cost share one solve of their successors (dp_values).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    EvaluationError,
    LatticeCoverageError,
)
from .evolution import STEP_SOLVE_TOL, OperatorSpec, _drift_step, _keyed_streams, \
    _lockstep_solve, _over_growth_bound, _seed_problem, make_linear_operator, \
    sample_reachable_set
from .pathcore import Path, TimeGrid, _row_dots, _row_norms, _sum_sq, extend_history, \
    pad_paths, stopped_at, stopped_sup_sq, stopped_value_at, values_at
from .upsilon import LyapunovParams, surrogate_terms

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


@dataclass(frozen=True, eq=False)
class GameSpec:
    """One game: dynamics x' + op(t, x) = f, running and terminal costs, and
    control grids.

    stage(t, states, path_of, P, Q) returns the drift f, shape
    (N, n_p, n_q, dim), and the running cost, shape (N, n_p, n_q), of N
    lanes at time t over the control arrays P (n_p,) and Q (n_q,): states,
    shape (N, dim), holds each lane's x(t), and path_of(n) returns lane n's
    stopped path.  terminal(states, path_of) returns the terminal cost of N
    lanes, shape (N,), where states holds x(T) and path_of(n) lane n's full
    path.  A function that reads only the current state never calls path_of,
    and the DP oracle is exact only for games whose functions do not read
    the past (see dp_value).  Both functions must be pure (the same
    arguments give the same result, with no hidden state): the tables of
    dp_values share one stage call per slice among games that share their
    stage function.

    l_f is the growth constant of |f| <= l_f (1 + sup-norm of the stopped
    path), and so the tube constant of every lane solve the game makes; an
    l_f that is not finite or is below 0 is refused (DomainError).  lambda_L
    is the Lipschitz constant of (f, running cost) in the path sup-norm over
    the reachable tube.
    """

    op: OperatorSpec
    stage: object
    terminal: object
    controls: ControlGrid
    l_f: float
    lambda_L: float
    name: str = "game"

    def __post_init__(self):
        if not (math.isfinite(self.l_f) and self.l_f >= 0):
            raise DomainError(f"l_f must be finite and >= 0, got {self.l_f}")

    def final_costs(self, states: np.ndarray, path_of) -> np.ndarray:
        """Terminal cost of N lanes, shape (N,): states holds each lane's x(T)
        and path_of(n) returns lane n's path.  A result of another shape
        raises DomainError, a non-finite one EvaluationError."""
        costs = np.asarray(self.terminal(states, path_of), dtype=float)
        if costs.shape != (len(states),):
            raise DomainError(f"terminal returned shape {costs.shape}, "
                              f"expected {(len(states),)}")
        if not np.isfinite(costs).all():
            raise EvaluationError("non-finite terminal cost")
        return costs

    def lane_terms(self, t: float, states: np.ndarray, path_of, played=None):
        """(drift, cost) of N lanes at time t: the one entry point to the stage terms.

        states, shape (N, dim), holds each lane's x(t); path_of(n) returns
        lane n's stopped path, and only a game whose stage function reads the
        path calls it.  Without played the terms cover the full control grid,
        shapes (N, n_p, n_q, dim) and (N, n_p, n_q).  played = (lanes, p_idx,
        q_idx), index arrays of equal length E, selects those entries, shapes
        (E, dim) and (E,).

        One stage call always computes the full grid of every lane, played
        or not, so a stage function that reads paths is evaluated at every
        control pair and can raise on a pair nobody plays; played only
        selects and checks entries.  A result of another shape raises
        DomainError.  The first non-finite entry returned, in (lane,
        p, q) order for the full grid and in the given order for played,
        raises EvaluationError, the drift before the cost of an entry;
        entries not returned are not checked.
        """
        controls = self.controls
        grid_shape, dim = (len(states), controls.n_p, controls.n_q), self.op.space.dim
        drift, cost = self.stage(t, states, path_of, np.asarray(controls.p_points, dtype=float),
                                 np.asarray(controls.q_points, dtype=float))
        drift, cost = np.asarray(drift, dtype=float), np.asarray(cost, dtype=float)
        if drift.shape != grid_shape + (dim,) or cost.shape != grid_shape:
            raise DomainError(f"stage returned shapes {drift.shape} and {cost.shape}, "
                              f"expected {grid_shape + (dim,)} and {grid_shape}")
        if played is not None:
            drift, cost = drift[played], cost[played]
        bad_drift = ~(np.isfinite(drift[..., 0]) if dim == 1 else np.isfinite(drift).all(axis=-1))
        bad = bad_drift | ~np.isfinite(cost)
        if bad.any():
            first = int(np.argmax(bad.ravel()))
            entry = np.unravel_index(first, grid_shape) if played is None \
                else [index[first] for index in played]
            raise EvaluationError(
                f"non-finite {'drift' if bad_drift.ravel()[first] else 'running cost'} at "
                f"t={t}, p={controls.p_points[entry[1]]!r}, q={controls.q_points[entry[2]]!r}")
        return drift, cost


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianEval:
    """Lower/upper Hamiltonians at one (t, x, z)."""

    f_minus: float
    f_plus: float

    @property
    def isaacs_gap(self) -> float:
        return self.f_plus - self.f_minus


def hamiltonian(spec: GameSpec, t: float, x: Path, z) -> HamiltonianEval:
    """Exact enumeration of max_q min_p and min_p max_q of cost + (f, z): the
    one-sample call of sampled_hamiltonians on the lane x."""
    f_minus, f_plus = sampled_hamiltonians(spec, np.array([t], dtype=float), x.value_at(t)[None],
                                           lambda _: x,
                                           np.atleast_1d(np.asarray(z, dtype=float))[None, None])
    return HamiltonianEval(f_minus=float(f_minus[0, 0]), f_plus=float(f_plus[0, 0]))


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
    matrices.  Returns (f_minus, f_plus), each of shape (S, Z); entry (s, j)
    is hamiltonian(spec, times[s], path_of(s), zs[s, j]), its one-sample call.
    """
    controls = spec.controls
    (n_s, n_z), dim = zs.shape[:2], spec.op.space.dim
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

    The samples are drawn one at a time, each choice among a few values
    as seq[integers(0, len(seq))] (the bits of Generator.choice(seq)); a
    pair with |z1 - z2| < 1e-12 is drawn and skipped.  The kept samples are
    evaluated at once: one sampled_hamiltonians call takes each sample's
    stage terms once for both z1 and z2, and the ratios reduce in draw
    order.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    dim = spec.op.space.dim
    grids, kept = {}, []
    for _ in range(samples):
        n = int(rng.integers(4, 10))
        if n not in grids:
            grids[n] = TimeGrid(0.0, 1.0, n)
        grid = grids[n]
        values = rng.standard_normal((n + 1, dim)) * (0.3, 1.0, 2.0)[rng.integers(0, 3)]
        t = float(grid.nodes[rng.integers(0, n + 1)])
        z1 = rng.standard_normal(dim) * (0.5, 2.0)[rng.integers(0, 2)]
        z2 = rng.standard_normal(dim) * (0.5, 2.0)[rng.integers(0, 2)]
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
        scale = (1.0 + np.sqrt(stopped_sup_sq(nodes, values, times)[0])) * np.array(dz)
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
        for name, bound in (("lo", lo), ("hi", hi)):
            if not all(map(math.isfinite, bound)):
                raise DomainError(f"lattice {name} must be finite, got {bound}")
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
        if states.shape[1] == 1 == self.dim:  # the one coordinate, the max over it
            x = states[:, 0]
            margins = np.maximum(np.maximum(x - self.hi[0], self.lo[0] - x), 0.0)
        else:
            margins = np.maximum(np.max(np.maximum(states - np.asarray(self.hi),
                                                   np.asarray(self.lo) - states), axis=1), 0.0)
        margins[np.isnan(margins)] = np.inf
        return margins

    def interpolate_batch(self, values: np.ndarray, states: np.ndarray,
                          slices=None) -> np.ndarray:
        """Multilinear interpolation of a lattice field at many states.

        values has shape lattice.shape + tail and the result (N,) + tail: one
        set of bases and weights, and one coverage check, reads every field
        stacked on the trailing axes, each as it is read alone.  With slices,
        an integer array of shape (N,) or (N, E), values has a leading slice
        axis, shape (S,) + lattice.shape + tail, row n reads slice slices[n]
        (each of slices[n, :]), and the result has shape slices.shape + tail,
        each entry as that slice alone reads it.  States off the lattice raise LatticeCoverageError
        with the largest margin needed (silent clamping would corrupt value
        comparisons) and every row's margins, for a caller that needs per-row
        answers.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        margins = self.coverage_margins(states)
        if np.max(margins, initial=0.0) > COVERAGE_TOL:
            raise _coverage_error(margins)
        lead, extra = ((), 0) if slices is None else ((slices,), np.ndim(slices) - 1)
        rows = (slice(None),) + (None,) * extra
        tail = rows + (None,) * (np.ndim(values) - len(lead) - self.dim)
        idx, wts = [], []
        for axis, n, x in zip(self.axes, self.shape, states.T):
            # clamped to [0, n - 1]; finite, since the coverage check refused the rest
            pos = np.minimum(np.maximum((x - axis[0]) / (axis[1] - axis[0]), 0.0), n - 1)
            base = np.minimum(pos.astype(int), n - 2)
            idx.append(base[rows])
            wts.append((pos - base)[tail])
        if self.dim == 1:
            (b,), (w,) = idx, wts
            return values[lead + (b,)] * (1.0 - w) + values[lead + (b + 1,)] * w
        (b0, b1), (w0, w1) = idx, wts
        return (values[lead + (b0, b1)] * (1.0 - w0) * (1.0 - w1)
                + values[lead + (b0 + 1, b1)] * w0 * (1.0 - w1)
                + values[lead + (b0, b1 + 1)] * (1.0 - w0) * w1
                + values[lead + (b0 + 1, b1 + 1)] * w0 * w1)


def _coverage_error(margins: np.ndarray) -> LatticeCoverageError:
    """The refusal, carrying margins, of states that lie margins past the
    lattice: it names the largest, +inf for a state not finite (none covers it)."""
    margin = float(np.max(margins))
    err = LatticeCoverageError(
        "state is not finite; no lattice covers it" if margin == math.inf else
        f"state leaves the lattice by {margin:.6e}; expand bounds by at least that margin",
        margin=margin)
    err.margins = margins
    return err


def is_upper_side(side: str) -> bool:
    """True for "upper", False for "lower"; any other name is refused."""
    if side == "upper":
        return True
    if side == "lower":
        return False
    raise DomainError(f"unknown side {side!r}")


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Lower and upper game values on (time nodes) x (state lattice).

    A table always holds both sides, as dp_value computes them; side_values
    reads one by name ("upper" or "lower")."""

    grid: TimeGrid
    lattice: StateLattice
    v_minus: np.ndarray
    v_plus: np.ndarray

    def side_values(self, side: str) -> np.ndarray:
        return self.v_plus if is_upper_side(side) else self.v_minus

    def interp(self, side: str, t: float, state) -> float:
        """interp_batch at a single state."""
        return float(self.interp_batch(side, t, np.atleast_1d(state)[None, :])[0])

    def interp_batch(self, side: str, t, states: np.ndarray) -> np.ndarray:
        """Time-linear, state-multilinear interpolation of each row of states
        at t, one time for every row or one per row, shape (N,).

        A row whose time TimeGrid.nearest_node puts on node k reads slice k
        alone, any other row both bracketing slices, each row as it is read
        alone at its own time.  Every row goes through one
        StateLattice.interpolate_batch call, so a row off the lattice raises
        the batch's largest margin, with every row's margins; a time outside
        the grid's span raises DomainError naming the first such row's.
        """
        vals, grid = self.side_values(side), self.grid
        nodes = grid.nodes
        if np.ndim(t) == 0:
            grid.require_contains(t)
            k, on_node = grid.nearest_node(t)
            if on_node:
                return self.lattice.interpolate_batch(vals[k], states)
            k = min(max(int(np.searchsorted(nodes, t, side="right")) - 1, 0), len(nodes) - 2)
            w = (t - nodes[k]) / (nodes[k + 1] - nodes[k])
            a, b = self.lattice.interpolate_batch(np.moveaxis(vals[k:k + 2], 0, -1), states).T
            return a + w * (b - a)
        t = np.asarray(t, dtype=float)
        outside = ~grid.contains(t)
        if outside.any():
            grid.require_contains(t[outside][0])
        k, on_node = grid.nearest_node(t)
        if on_node.all():
            return self.lattice.interpolate_batch(vals, states, k)
        off = np.flatnonzero(~on_node)
        below = np.searchsorted(nodes, t[off], side="right") - 1
        k[off] = np.minimum(np.maximum(below, 0), len(nodes) - 2)
        # the bracketing slices k and k + 1 of each row; a row on its node reads slice k twice
        pair = np.stack([k, k], axis=1)
        pair[off, 1] += 1
        a, b = self.lattice.interpolate_batch(vals, states, pair).T
        w = (t[off] - nodes[k[off]]) / (nodes[k[off] + 1] - nodes[k[off]])
        a[off] += w * (b[off] - a[off])
        return a

    def gradient(self, side: str, t, states: np.ndarray) -> np.ndarray:
        """Central-difference lattice gradients of the value at (t, x) for each
        row x of states, shape (N, dim) -> (N, dim), at one time t for every
        row or one per row, shape (N,).

        Coordinate d of a row differences the value between the probes
        x + spacing_d e_d and x - spacing_d e_d, each clipped to the lattice
        box in coordinate d.  A coordinate whose clipped probes lie less than
        1e-300 apart (a state more than one spacing past an edge) reads
        nothing and is 0.  The probes that are read go in one interp_batch
        call, each at its row's time, so a probe off the lattice raises the
        batch's largest margin.
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
            if np.ndim(t) > 0:  # each probe at its row's time
                t = np.tile(np.repeat(np.asarray(t, dtype=float), lattice.dim)[read.ravel()], 2)
            up_vals, dn_vals = np.split(
                self.interp_batch(side, t, np.concatenate([up[read], dn[read]])), 2)
            g[read] = (up_vals - dn_vals) / width[read]
        return g

    def to_csv(self) -> str:
        """Long-form rows: t, state coordinates, v_minus, v_plus."""
        lines = ["t," + ",".join(f"s_{d + 1}" for d in range(self.lattice.dim))
                 + ",v_minus,v_plus"]
        points = self.lattice.points()
        for k, t in enumerate(self.grid.nodes):
            for point, a, b in zip(points, self.v_minus[k].ravel(), self.v_plus[k].ravel()):
                coords = ",".join(f"{c:.17g}" for c in point)
                lines.append(f"{t:.17g},{coords},{a:.17g},{b:.17g}")
        return "\n".join(lines) + "\n"


def _lift_paths(lattice: StateLattice, grid: TimeGrid) -> list:
    return [Path.constant(grid, point) for point in lattice.points()]


class _PathReads:
    """path_of over a list of paths that records whether anyone called it."""

    def __init__(self, paths):
        self.paths, self.called = paths, False

    def __call__(self, n):
        self.called = True
        return self.paths[n]


def _require_markov(spec: GameSpec, grid: TimeGrid, k: int, points: np.ndarray, lifted):
    """The oracle's probe at node k > 0 of a function seen to read a path: the
    stage function at a slice's node k < n_steps, the terminal function at
    k = n_steps.

    lifted holds its terms on the constant lifts of the lattice points: the
    slice's (drift, cost), or (terminal,).  Each point's history before t_k
    is pushed away from the origin (x -> x + sign(x)(1 + |x|) per
    coordinate, so every node norm grows) while x(t_k) stays, and one call
    takes every term on these histories before any is compared.  Each must
    equal its lifted term bit for bit, or the game reads its past and the DP
    value, which sees only constant lifts, would be wrong: ConfigurationError
    names the first point that differs.
    """
    t_k, terminal = grid.nodes[k], k == grid.n_steps
    values = np.repeat(points[None], grid.n_steps + 1, axis=0)
    values[:k] = points + np.copysign(1.0 + np.abs(points), points)

    def pushed_of(n):
        return Path(grid, values[:, n])

    pushed = (spec.final_costs(points, pushed_of),) if terminal \
        else spec.lane_terms(t_k, points, pushed_of)
    same = np.ones(len(points), dtype=bool)
    for a, b in zip(pushed, lifted):
        same &= (a == b).reshape(len(points), -1).all(axis=1)
    if not same.all():
        state = f"lattice state {points[int(np.argmin(same))]}"
        where, now = ((f"before T in its terminal cost ({state})", "x(T)") if terminal
                      else (f"before t at time node {k} (t={t_k}, {state})", "x(t)"))
        raise ConfigurationError(f"game {spec.name!r} reads its path {where}: the DP oracle "
                                 f"values only games that read the path through {now}")


def _require_growth_bound(spec: GameSpec, points: np.ndarray, order: np.ndarray,
                          drift: np.ndarray):
    """Refuse a DP cell whose drift breaks the growth bound l_f (1 + |x|) of
    its lattice point's constant lift, whose stopped sup-norm is |x|.

    drift has shape (row, point, p, q, dim), row r holding slice order[r];
    ContractError names the first failing cell in that order.
    """
    fmag = _row_norms(drift)
    bound = spec.l_f * (1.0 + _row_norms(points))
    over = _over_growth_bound(fmag, bound[:, None, None])
    if over.size:
        row, idx, i, j = np.unravel_index(over[0], fmag.shape)
        controls = spec.controls
        raise ContractError(
            f"drift magnitude {fmag[row, idx, i, j]:.6e} exceeds l_f(1+sup) = {bound[idx]:.6e} "
            f"at time index {order[row]} (state {points[idx]}, p={controls.p_points[i]!r}, "
            f"q={controls.q_points[j]!r})")


def dp_value(spec: GameSpec, grid: TimeGrid, lattice: StateLattice) -> ValueTable:
    """Backward min-max recursion on the lattice, both sides at once: the
    one table of dp_values([spec], grid, lattice).

    Upper value: minimizer commits first each step (min over p of max over q);
    lower value: maximizer commits first (max over q of min over p).  Terminal
    slice is the terminal cost evaluated exactly at lattice points.  Successors
    are one implicit-Euler step; leaving the lattice is an error that names the
    margin needed, and a drift above the growth bound l_f (1 + |x|) a
    ContractError.

    Each lattice point's lane is its constant lift, handed to the game as
    path_of.  A function that never calls it cannot read the past, and is
    taken as it is.  A function seen to call it is probed by _require_markov:
    the stage function at every node after the first, on histories perturbed
    before t, and the terminal function, before any stage term, on histories
    perturbed before T.  Its terms there must equal those on the constant
    lifts, or dp_value raises ConfigurationError naming the game (and the
    node), rather than return a value that ignores the past.
    """
    return dp_values([spec], grid, lattice)[0]


def dp_values(specs, grid: TimeGrid, lattice: StateLattice) -> list:
    """The ValueTable of each of specs, games that differ only in their
    terminal cost (and name), computed as dp_value computes one.

    Specs that do not share op, stage, controls and l_f are refused
    (DomainError naming the first field that differs), as is an empty list.
    The successors depend only on the dynamics, the grid and the lattice, so
    the recursion runs in two phases.  The first is the dynamics':
    each slice's stage terms (one lane_terms call over every lattice point)
    and Markov probe, in recursion order (k = n_steps - 1 first), one
    growth-bound check of every cell, and one implicit step of every
    (slice, point, p, q) cell with its own slice's time and step.  The
    second is the per-slice recursion: one interpolate_batch call reads both
    sides of every table at slice k + 1 (stacked on the trailing axes), then
    the min/max as axis reductions.  Each table is bit for bit the one the
    spec gets alone.

    Errors follow the lockstep rule of pdhj.evolution, with the DP's phases:
    the terminal costs and their probes in spec order, the stage terms and
    probes, the growth-bound check (the first cell in recursion order), the
    implicit step (its lowest failing row's SolverError, naming that slice's
    k) and the table reads.  A successor off the lattice names the first
    slice in recursion order that has one, and in it the cell with the
    largest margin (the first such cell on ties), found in the margins the
    refused read carries.
    """
    if not specs:
        raise DomainError("dp_values needs at least one game")
    first = specs[0]
    for spec in specs[1:]:
        field = next((f for f in ("op", "stage", "controls", "l_f")
                      if getattr(spec, f) != getattr(first, f)), None)
        if field is not None:
            raise DomainError(f"dp_values shares one set of dynamics, but game {spec.name!r} "
                              f"differs from {first.name!r} in {field}")
    lifts = _lift_paths(lattice, grid)
    points = lattice.points()
    tables = len(specs)
    terminals = np.empty((len(points), tables))
    for s, spec in enumerate(specs):
        reads = _PathReads(lifts)
        terminals[:, s] = costs = spec.final_costs(points, reads)
        if reads.called:
            _require_markov(spec, grid, grid.n_steps, points, (costs,))

    nodes, controls = grid.nodes, first.controls
    n_points, dim = points.shape
    cells = (n_points, controls.n_p, controls.n_q)
    order = np.arange(grid.n_steps - 1, -1, -1)  # the recursion's slices, k = n_steps - 1 first
    dt = nodes[order + 1] - nodes[order]
    drift = np.empty((len(order),) + cells + (dim,))
    cost = np.empty((len(order),) + cells)
    for row, k in enumerate(order):
        reads = _PathReads(lifts)
        drift[row], cost[row] = first.lane_terms(nodes[k], points, reads)
        if reads.called and k > 0:
            _require_markov(first, grid, k, points, (drift[row], cost[row]))
    _require_growth_bound(first, points, order, drift)
    per_slice = math.prod(cells)
    starts = np.broadcast_to(points[:, None, None, :], drift.shape).reshape(-1, dim)
    succ, _, _ = _drift_step(first.op, np.repeat(nodes[order + 1], per_slice),
                             np.repeat(dt, per_slice), starts, drift.reshape(-1, dim),
                             STEP_SOLVE_TOL, np.repeat(order, per_slice))
    succ = succ.reshape(len(order), per_slice, dim)

    values = np.empty((grid.n_steps + 1,) + lattice.shape + (tables, 2))  # (lower, upper)
    values[-1] = terminals.reshape(lattice.shape + (tables,))[..., None]
    sides = values.reshape(grid.n_steps + 1, n_points, tables, 2)  # a view of values
    running = dt[:, None, None, None] * cost
    for row, k in enumerate(order):
        try:
            read = lattice.interpolate_batch(values[k + 1], succ[row])
        except LatticeCoverageError as refused:
            idx, i, j = np.unravel_index(int(np.argmax(refused.margins)), cells)
            raise LatticeCoverageError(
                f"successor left the lattice at time index {k} (state {points[idx]}, "
                f"p={controls.p_points[i]!r}, q={controls.q_points[j]!r}): {refused}",
                margin=refused.margin) from None
        obj = running[row][..., None, None] + read.reshape(cells + (tables, 2))
        # lower: the maximizer commits first, max over q of min over p; upper: the
        # minimizer commits first, min over p of max over q
        obj[..., 0].min(axis=1).max(axis=1, out=sides[k, :, :, 0])
        obj[..., 1].max(axis=2).min(axis=1, out=sides[k, :, :, 1])
    return [ValueTable(grid=grid, lattice=lattice, v_minus=np.ascontiguousarray(values[..., s, 0]),
                       v_plus=np.ascontiguousarray(values[..., s, 1]))
            for s in range(tables)]


# ---------------------------------------------------------------------------
# extremal-shift feedback strategy
# ---------------------------------------------------------------------------

class FeedbackStrategy:
    """Extremal-shift feedback for the minimizing player.

    At each decision node the strategy finds an approximate minimizer of
    u(t, .) + nu(t, x - .) over a companion candidate set, then commits the
    control index achieving min over p of max over q of
    cost + (f, grad nu(t, x - companion)).

    Candidates: the trace itself (zero difference), directional probe
    companions -- the trace with a small terminal offset reachable by
    diverting forcing slack since t0 -- and the path candidates: the lattice
    states as constant-history paths, then a seeded library of
    reachable-tube samples, held as one (node, candidate, coordinate) array
    on the simulation grid.  The probes realize the penalty's cone geometry
    near zero difference: the exact minimizer over the tube sits a tiny
    value-downhill offset from the trace, and its gradient is what aims the
    control.  A probe or path end off the lattice has no upper value and is
    dropped.
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
        points = value.lattice.points()
        # (node, candidate, coordinate): a node prefix is one contiguous slice
        self._paths = np.concatenate([np.broadcast_to(points, (len(x0.values),) + points.shape)]
                                     + [y.values[:, None] for y in self.library], axis=1)
        sizes = (len(points), len(self.library))
        self._path_kinds = np.repeat([COMPANION_KINDS.index(k) for k in ("lattice", "library")],
                                     sizes)
        self._path_indices = np.concatenate([np.arange(n) for n in sizes])

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

    def companion_minima(self, t: float, X: np.ndarray, carried=None):
        """Approximate argmin of u + nu for many games at one node, as arrays
        (totals, kinds, indices, gradients) of shapes (game,), (game,), (game,)
        and (game, dim): the shifted value u_a(t, x), the winning kind as a
        code into COMPANION_KINDS, the candidate's index within its kind, and
        the gradient d/dx nu(t, x - companion) that aims the control.

        X holds each game's node values up to t, shape (node, game,
        coordinate), on the simulation grid.  Each game's candidates are its
        trace (zero difference, gradient 0), whose read must succeed, its
        probes, then the path candidates.  One interp_batch call reads the
        traces, the probes and the path ends.  If it is refused, a trace off
        the lattice raises the error its own read would; otherwise the rows
        on the lattice are read again, and the others read +inf and are
        dropped.  A scan over the nodes, one np.maximum per node, carries
        each (game, path candidate) pair's running maximum of |x - y|^2 and
        takes its last difference, and one surrogate_terms call scores every
        candidate.  The first minimum wins, so ties keep the earlier kind and
        the smaller index.  Each game's entries are bit-identical to a call
        with that game alone.

        carried = (sup_sq, covered) resumes the scan: sup_sq, shape (game,
        path candidate), holds each pair's maximum over the game's nodes up
        to covered[game] (-1: none), and is updated in place through the
        last node; the scan folds in only the nodes from the earliest
        covered node onward.  The maximum is exact and folding a node twice
        changes nothing, so the result is the full scan's, bit for bit.
        Without carried every node is scanned.
        """
        n_games, dim = X.shape[1], X.shape[2]
        # the trace is the zero offset; a probe's difference rises to its
        # offset o at time t, so its last row alone carries sup = cur = |o|^2
        fixed = np.concatenate([np.zeros((1, dim)), self._probe_offsets(t, dim)])
        paths = self._paths[: len(X)]
        # every candidate's end at t: each game's trace and probes, then the paths'
        ends = np.concatenate([(X[-1][:, None, :] - fixed).reshape(-1, dim), paths[-1]])
        n_own = n_games * len(fixed)
        try:
            u_ends = self.value.interp_batch("upper", t, ends)
        except LatticeCoverageError as refused:
            traces = refused.margins[:n_own:len(fixed)]
            if np.max(traces, initial=0.0) > COVERAGE_TOL:
                raise _coverage_error(traces) from None
            kept = refused.margins <= COVERAGE_TOL
            u_ends = np.full(len(ends), np.inf)
            u_ends[kept] = self.value.interp_batch("upper", t, ends[kept])
        # columns: the trace, the probes, then the path candidates
        u_vals = np.hstack([u_ends[:n_own].reshape(n_games, len(fixed)),
                            np.broadcast_to(u_ends[n_own:], (n_games, paths.shape[1]))])
        if carried is None:
            sup_sq, first = np.zeros((n_games, paths.shape[1])), 0  # exact: squares are >= +0.0
        else:
            sup_sq, covered = carried
            first = min(int(covered.min(initial=len(X))) + 1, len(X) - 1)
        for x, y in zip(X[first:], paths[first:]):
            diff = x[:, None, :] - y
            sq = _sum_sq(diff)
            np.maximum(sup_sq, sq, out=sup_sq)
        fixed_sq = np.broadcast_to(_sum_sq(fixed), (n_games, len(fixed)))
        last = np.concatenate([np.broadcast_to(fixed, (n_games,) + fixed.shape), diff], axis=1)
        ups, factor = surrogate_terms(np.hstack([fixed_sq, sup_sq]), np.hstack([fixed_sq, sq]))
        alpha = self.params.alpha(t)
        beta = np.sqrt(self.params.epsilon ** 4 + ups)
        total = u_vals + alpha * beta  # (game, candidate)
        rows, i = np.arange(n_games), np.argmin(total, axis=1)  # the first minimum
        kinds = np.concatenate([[COMPANION_KINDS.index("trace")],
                                np.full(len(fixed) - 1, COMPANION_KINDS.index("probe")),
                                self._path_kinds])
        indices = np.concatenate([[0], np.arange(len(fixed) - 1), self._path_indices])
        gradients = ((alpha / (2.0 * beta[rows, i])) * factor[rows, i])[:, None] * last[rows, i]
        return total[rows, i], kinds[i], indices[i], gradients

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
    grids, each of which require_span must accept.  x0 is the history path;
    it is resampled onto the simulation grid (the value grid refined with the
    nodes of every partition), so the games can be played on each partition.
    The library holds reachable-tube samples started at (t0, x0).
    """
    if library_size < 0:
        raise ConfigurationError("library_size must be >= 0")
    partitions = [partition] if isinstance(partition, TimeGrid) else list(partition)
    for part in partitions:
        require_span(part, t0, value.grid)
    inner = simulation_grid(value.grid, *partitions)
    hist = extend_history(x0, inner, t0)
    library = []
    if library_size > 0:
        library = [rep.path for rep in sample_reachable_set(spec.op, t0, hist, library_size,
                                                            seed, lipschitz_L=spec.l_f)]
    return FeedbackStrategy(spec, params, value, t0, hist, library)


def require_span(partition: TimeGrid, t0: float, grid: TimeGrid):
    """The one partition rule, of the builder on the value grid and of play on the
    simulation grid (both end at T): nodes t0, in grid, to T bit for bit, or DomainError."""
    grid.require_contains(t0, "t0")
    span, horizon = [float(partition.nodes[0]), float(partition.nodes[-1])], grid.t_end
    if span != [t0, horizon]:
        raise DomainError(f"partition must span [t0, T] = [{float(t0)!r}, {float(horizon)!r}], "
                          f"not {span}")


def simulation_grid(value_grid: TimeGrid, *partitions: TimeGrid) -> TimeGrid:
    """Union of the value-grid nodes and the nodes of every partition, each
    one that require_span accepts (the builder checks)."""
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
    """The record of N games played on one partition.

    Shaped (step, game), one row per partition cell: p and q, the control
    indices played; step_cost, the running cost of the cell; kind, a code
    into COMPANION_KINDS, and index, the companion that aimed the cell's
    control.  u, shaped (partition node, game), holds the shifted value (the
    companion minimum) at every partition node, so cell i runs from u[i] to
    u[i + 1].  values, shaped (node, game, dim), holds the states on the
    simulation grid (the strategy's x0.grid); running and terminal, shaped
    (game,), each game's running and terminal cost.
    """

    partition: TimeGrid
    p: np.ndarray
    q: np.ndarray
    step_cost: np.ndarray
    u: np.ndarray
    kind: np.ndarray
    index: np.ndarray
    values: np.ndarray
    running: np.ndarray
    terminal: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        """Cost plus shifted-value increment of each cell, shape (step, game)."""
        return self.step_cost + self.u[1:] - self.u[:-1]

    @property
    def payoff(self) -> np.ndarray:
        return self.running + self.terminal

    def lanes(self, games) -> "FeedbackPlay":
        """The record of the games that games (a slice or index array) selects."""
        columns = ("p", "q", "step_cost", "u", "kind", "index", "values")
        return replace(self, running=self.running[games], terminal=self.terminal[games],
                       **{name: getattr(self, name)[:, games] for name in columns})


GREEDY = -1  # the q-table entry of a cell the greedy lookahead answers


def play_feedback_games(strategy: FeedbackStrategy, partitions, q_tables) -> list:
    """Play strategy.spec against q tables, one lane set for every partition,
    and return one FeedbackPlay per partition, games in its table's column order.

    q_tables[j], shape (partitions[j].n_steps, games), holds each game's q
    index per cell, or GREEDY where greedy_lookahead answers the p committed
    in the cell (the upper-value commit order).  Each table's distinct
    columns are played once, in order of first appearance, and their records
    scattered back to its columns.

    All lanes step together on the simulation grid (strategy.x0.grid, which
    holds every partition's nodes), and a lane changes its controls only at
    its own partition's nodes.  At a simulation node the lanes whose
    partition has it get, per distinct partition time there (one wherever
    the partitions' nodes are bit-equal), one companion_minima call (u at the
    node, and the gradient that aims the next control; each lane carries its
    scan's running maxima from its previous partition node, so a call folds
    in only the nodes since), one
    select_controls call and one greedy_lookahead batch over their GREEDY
    lanes, which
    refuses a scored (game, q) drift above l_f (1 + sup-norm of the stopped
    path) with ContractError.  The simulation steps are one _lockstep_solve
    call over all lanes at STEP_SOLVE_TOL: each step makes one lane_terms call at the held pairs,
    refuses a drift above l_f (1 + sup-norm of the stopped path) with
    ContractError, and takes one implicit step for all lanes; the terminal
    node's companion minima run after the solve.  A stopped path is built
    only if the game reads it, and once per node, where the control picks,
    the greedy answers and the step share it.  Each lane is bit-identical
    to its game played alone.  Errors follow the lockstep rule of
    pdhj.evolution over these phases, time-major: the earliest node's error
    wins, whichever partition its lane is on.  A table of another shape, of a dtype that is
    not an integer, or with an entry other than GREEDY or 0..n_q - 1 raises
    DomainError before any play, and so does a partition that require_span
    refuses.
    """
    spec, inner = strategy.spec, strategy.x0.grid
    nodes, n_last = inner.nodes, inner.n_steps
    columns, inverses = [], []
    for j, (partition, table) in enumerate(zip(partitions, q_tables)):
        table = np.asarray(table)
        if table.ndim != 2 or len(table) != partition.n_steps:
            raise DomainError(f"q table of shape {table.shape} for {partition.n_steps} cells")
        if table.dtype.kind not in "iu":
            raise DomainError(f"q table of partition {j} has dtype {table.dtype}, not an integer")
        bad = table[(table != GREEDY) & ((table < 0) | (table >= spec.controls.n_q))]
        if bad.size:
            raise DomainError(f"q table of partition {j} holds {bad[0]}, neither GREEDY "
                              f"({GREEDY}) nor a q index in 0..{spec.controls.n_q - 1}")
        _, first, inverse = np.unique(table, axis=1, return_index=True, return_inverse=True)
        order = np.argsort(first)
        columns.append(table[:, first[order]])
        inverses.append(np.argsort(order)[inverse.reshape(-1)])
    bounds = np.cumsum([0] + [column.shape[1] for column in columns])
    m, n_max = bounds[-1], max(map(len, columns), default=0)
    p, q, kind, index = (np.zeros((n_max + 1, m), dtype=int) for _ in range(4))
    at = np.full((n_last + 1, m), np.nan)  # each lane's partition time at its nodes
    for partition, column, lo, hi in zip(partitions, columns, bounds, bounds[1:]):
        require_span(partition, strategy.t0, inner)
        q[: len(column), lo:hi] = column  # GREEDY entries are answered in play
        at[[inner.node_index(t) for t in partition.nodes], lo:hi] = partition.nodes[:, None]
    k0 = inner.node_index(strategy.t0)

    values = np.repeat(strategy.x0.values[:, None, :], m, axis=1)  # (node, lane, coordinate)
    step_cost, u = np.zeros((n_max, m)), np.zeros((n_max + 1, m))
    cell = np.zeros(m, dtype=int)  # the partition node each lane reaches next
    # the companion scan's carry: each (lane, path candidate)'s running maximum of
    # |x - y|^2 over the lane's nodes up to covered[lane] (-1: none yet)
    sup_sq = np.zeros((m, strategy._paths.shape[1]))
    covered = np.full(m, -1)

    def decide(k, bound=None):
        """Node k's companion minima and, before T, its control picks and greedy
        answers, the greedy lanes checked against their growth bound (bound,
        per lane: every lane steps at every node, so _lockstep_solve's
        active lanes are all lanes); returns the node's stopped paths, built
        on first read and keyed by the lane as a Python int (an np.int64 key
        would miss an int's entry)."""
        path_at = functools.cache(lambda g: stopped_at(inner, values[:, g], k))
        for t in np.unique(at[k][~np.isnan(at[k])]):
            group = np.flatnonzero(at[k] == t)
            i = cell[group]
            carry = sup_sq[group]
            u[i, group], kind[i, group], index[i, group], gradients = \
                strategy.companion_minima(t, values[: k + 1, group], (carry, covered[group]))
            sup_sq[group], covered[group] = carry, k
            if k == n_last:
                continue
            p[i, group] = strategy.select_controls(
                t, values[k, group], lambda n: path_at(int(group[n])), gradients)
            greedy = np.flatnonzero(q[i, group] == GREEDY)
            if greedy.size:
                cells = (i[greedy], group[greedy])
                states = stopped_value_at(inner, values, k, t)[cells[1]]
                q[cells] = greedy_lookahead(spec, strategy.value, t, k, states,
                                            lambda n: path_at(int(cells[1][n])), p[cells],
                                            bound[cells[1]])
            cell[group] += 1
        return path_at

    def step_forcing(k, lanes, values, bound):
        path_at = decide(k, bound)
        held = (lanes, p[cell[lanes] - 1, lanes], q[cell[lanes] - 1, lanes])
        drift, cost = spec.lane_terms(nodes[k], values[k], lambda g: path_at(int(g)), held)
        step_cost[cell[lanes] - 1, lanes] += (nodes[k + 1] - nodes[k]) * cost
        return drift

    _lockstep_solve(spec.op, nodes, values, k0, n_last, np.full(m, float(spec.l_f)),
                    STEP_SOLVE_TOL, step_forcing)
    decide(n_last)  # the terminal node's companion minima

    running = sum(step_cost, np.zeros(m))  # cell by cell, in the order they were played
    terminal = spec.final_costs(values[-1], lambda g: Path(inner, values[:, g]))
    return [FeedbackPlay(partition, p[:n, lo:hi], q[:n, lo:hi], step_cost[:n, lo:hi],
                         u[: n + 1, lo:hi], kind[:n, lo:hi], index[:n, lo:hi], values[:, lo:hi],
                         running[lo:hi], terminal[lo:hi]).lanes(inverse)
            for partition, inverse, lo, hi, n in zip(partitions, inverses, bounds, bounds[1:],
                                                     map(len, columns))]


def greedy_lookahead(spec: GameSpec, value: ValueTable, t: float, k: int, states: np.ndarray,
                     path_of, p_indices, bounds) -> np.ndarray:
    """The greedy adversary's q index for each of N games at node k (time t):
    the one-step lookahead maximizer of dt * cost + upper value at the
    successor against the committed p, dt one value-grid mesh (cut at T).
    states (N, dim) and path_of are as in GameSpec.lane_terms, p_indices (N,)
    the committed p's, and bounds (N,) each game's growth bound l_f (1 +
    sup-norm of its stopped path), the one _lockstep_solve hands the step.
    The q's are scanned in order and a score must beat the best so far by
    more than 1e-15, so ties keep the first q.

    The (game, q) pairs are the lanes of one lockstep step (errors as
    pdhj.evolution states): one lane_terms call for the committed rows (in
    game, then q order), one growth-bound check (_over_growth_bound, with
    _lockstep_solve's message for the first failing row, so a q the
    lookahead scores but never picks is refused too), one batched implicit
    step, one read of the successors.  Each game's pick is the one it gets alone.
    """
    n_q = spec.controls.n_q
    dt = min(value.grid.mesh, value.grid.t_end - t)
    n = len(states)
    rows = np.repeat(np.arange(n), n_q)
    played = (rows, np.repeat(p_indices, n_q), np.tile(np.arange(n_q), n))
    drifts, costs = spec.lane_terms(t, states, path_of, played)
    fmag, bound = _row_norms(drifts), np.asarray(bounds, dtype=float)[rows]
    over = _over_growth_bound(fmag, bound)
    if over.size:
        row = over[0]
        raise ContractError(f"forcing magnitude {fmag[row]:.6e} exceeds L(1+sup) = "
                            f"{bound[row]:.6e} at step {k}")
    succ, _, _ = _drift_step(spec.op, t + dt, dt, states[rows], drifts, STEP_SOLVE_TOL, k)
    scores = (dt * costs + value.interp_batch("upper", t + dt, succ)).reshape(n, n_q)
    picks, best = np.zeros(n, dtype=int), np.full(n, -np.inf)
    for j in range(n_q):
        better = scores[:, j] > best + 1e-15
        picks[better], best[better] = j, scores[better, j]
    return picks


def adversary_pool(n_q: int, budget: int, seed: int, cells: int):
    """The deterministic nested pool of budget adversaries as (labels, q):
    the constants, the greedy lookahead, then seeded random adversaries.

    q, shape (cells, budget), holds each adversary's q index per cell:
    constant[j] plays j, greedy-lookahead is GREEDY, and random[s] is one
    draw integers(n_q, size=cells) from the stream of default_rng(s), the
    same values as one integers(n_q) per cell; the streams come from one
    seeding pass and one shared Generator (evolution._keyed_streams).  A
    pool played on several partitions in turn is one table over their
    cells, split by rows; a fresh pool per partition is one table each.  A
    budget below 1, or a seed that is not an integer or is below 0, is
    refused (DomainError).
    """
    if budget < 1:
        raise DomainError("budget must be >= 1")
    problem = _seed_problem(seed)
    if problem is not None:
        raise DomainError(f"seed {problem}, got {seed}")
    randoms = range(seed, seed + max(budget - n_q - 1, 0))
    labels = ([f"constant[{j}]" for j in range(n_q)] + ["greedy-lookahead"]
              + [f"random[{s}]" for s in randoms])
    columns = ([np.full(cells, j) for j in range(n_q)] + [np.full(cells, GREEDY)]
               + [rng.integers(n_q, size=cells) for rng in _keyed_streams(randoms)])
    return labels[:budget], np.stack(columns[:budget], axis=1)


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
    def from_payoffs(cls, labels, partitions, payoffs, budget: int,
                     seed: int) -> "GuaranteeEstimate":
        """The worst payoff per partition and overall, with its certificate:
        labels names the pool's adversaries (adversary_pool's labels), and
        payoffs[i] holds the payoff of each of their games on partitions[i],
        in label order; a tie keeps the earlier adversary."""
        per_partition = []
        for partition, payoff in zip(partitions, payoffs):
            worst = int(np.argmax(payoff))
            per_partition.append({"n_steps": partition.n_steps, "mesh": partition.mesh,
                                  "worst_payoff": payoff[worst],
                                  "worst_adversary": labels[worst]})
        certificate = {
            "seed": seed,
            "budget": budget,
            "pool": list(labels),
            "partition_meshes": [p.mesh for p in partitions],
        }
        return cls(value=float(max(p["worst_payoff"] for p in per_partition)),
                   per_partition=tuple(per_partition), budget=budget, seed=seed,
                   certificate=certificate)


# ---------------------------------------------------------------------------
# desk-scale game builders
# ---------------------------------------------------------------------------

def bilinear_game(scale: float = 1.0, gain: float = 1.0,
                  controls: ControlGrid = ControlGrid((-1.0, 1.0), (-1.0, 1.0))) -> GameSpec:
    """dim-1 game with drift scale * p * q and terminal cost |x(T)|: the
    classic non-Isaacs example.  l_f bounds the drift on `controls`."""
    def stage(t, states, path_of, P, Q):
        drift = (scale * P[:, None]) * Q[None, :]
        shape = (len(states),) + drift.shape
        return np.broadcast_to(drift[..., None], shape + (1,)), np.zeros(shape)

    return GameSpec(op=make_linear_operator(dim=1, gain=gain), stage=stage,
                    terminal=lambda states, path_of: _row_norms(states), controls=controls,
                    l_f=abs(scale) * (_largest(controls.p_points) * _largest(controls.q_points)),
                    lambda_L=0.1, name="bilinear")


def isaacs_game(scale: float = 0.5, gain: float = 1.0, cost_weight: float = 0.1,
                controls: ControlGrid = ControlGrid((-1.0, 0.0, 1.0),
                                                    (-1.0, 0.0, 1.0))) -> GameSpec:
    """dim-1 Isaacs game: drift scale * (p + q), state-quadratic running cost
    and terminal cost |x(T)|^2.  l_f bounds the drift on `controls`.

    The stage objective is separable in (p, q), so min-max equals max-min and
    the Isaacs gap vanishes identically.
    """
    def stage(t, states, path_of, P, Q):
        drift = scale * (P[:, None] + Q[None, :])
        shape = (len(states),) + drift.shape
        cost = cost_weight * _row_dots(states, states)  # the bits of np.dot(xt, xt)
        return (np.broadcast_to(drift[..., None], shape + (1,)),
                np.broadcast_to(cost[:, None, None], shape))

    # state bound on the tube from x0 ~ O(1): dissipative gain-1 drift keeps
    # |x| <= ~1.5, so the sup-norm Lipschitz constant of the running cost is
    # cost_weight * 2 * 1.5
    lam = max(3.0 * cost_weight, 0.1)
    return GameSpec(op=make_linear_operator(dim=1, gain=gain), stage=stage,
                    terminal=lambda states, path_of: _row_dots(states, states),
                    controls=controls,
                    l_f=abs(scale) * (_largest(controls.p_points) + _largest(controls.q_points)),
                    lambda_L=lam, name="isaacs-additive")


def constant_game(cost: float = 1.0, gain: float = 1.0,
                  controls: ControlGrid = ControlGrid((0.0,), (0.0,))) -> GameSpec:
    """Zero dynamics forcing, constant running cost: value is cost * (T - t)."""
    def stage(t, states, path_of, P, Q):
        shape = (len(states), len(P), len(Q))
        return np.zeros(shape + (1,)), np.full(shape, float(cost))

    return GameSpec(op=make_linear_operator(dim=1, gain=gain), stage=stage,
                    terminal=lambda states, path_of: np.zeros(len(states)),
                    controls=controls,
                    l_f=0.0, lambda_L=0.1, name="constant")


def _largest(points) -> float:
    return max(abs(v) for v in points)


def with_terminal_shift(spec: GameSpec, shift: float) -> GameSpec:
    """Add a constant to the terminal cost (stability experiment family)."""
    return replace(spec, terminal=lambda states, path_of: spec.terminal(states, path_of) + shift,
                   name=f"{spec.name}-hshift")


def with_drift_perturbation(spec: GameSpec, magnitude: float) -> GameSpec:
    """Add a constant drift, perturbing the Hamiltonian z-dependently by (w, z)."""
    dim = spec.op.space.dim
    w = np.full(dim, magnitude)

    def stage(t, states, path_of, P, Q):
        drift, cost = spec.stage(t, states, path_of, P, Q)
        return drift + w, cost

    return replace(spec, stage=stage, l_f=spec.l_f + abs(magnitude) * np.sqrt(dim),
                   name=f"{spec.name}-fdrift")
