"""Discrete paths (time grids, stopped paths, padded batch kernels) and the state space.

A path is a piecewise-linear interpolant of samples on a time grid with values
in a finite-dimensional state space.  All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_NODE_TOL = 1e-12
_NODE_INDEX_TOL = 1e-9  # nearest_node's match tolerance
_READ_ENTRIES = 1 << 22  # extend_histories' bound on one values_at bisect


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes t_0 < t_1 < ... < t_n on [t_start, t_end].

    Uniform by default; explicit nodes support non-uniform partitions.

    Attributes
    ----------
    t_start, t_end : float
        Grid span, t_end - t_start > 0.
    n_steps : int
        Number of intervals (nodes = n_steps + 1).
    """

    t_start: float
    t_end: float
    n_steps: int
    explicit_nodes: tuple = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.t_end > self.t_start):
            raise DomainError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        if self.n_steps < 1:
            raise DomainError(f"need n_steps >= 1, got {self.n_steps}")
        if self.explicit_nodes is not None:
            nodes = np.array(self.explicit_nodes, dtype=float)
            if len(nodes) != self.n_steps + 1:
                raise DomainError("explicit node count does not match n_steps + 1")
            if not np.all(np.diff(nodes) > 0):
                raise DomainError("nodes must be strictly increasing")
            if abs(nodes[0] - self.t_start) > _NODE_TOL or abs(nodes[-1] - self.t_end) > _NODE_TOL:
                raise DomainError("explicit nodes must span [t_start, t_end]")
        else:
            nodes = np.linspace(self.t_start, self.t_end, self.n_steps + 1)
        # built once and shared read-only; not fields, so eq, hash and repr ignore them
        nodes.setflags(write=False)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_node_list", nodes.tolist())  # for bisect lookups

    @classmethod
    def from_nodes(cls, nodes) -> "TimeGrid":
        nodes = tuple(float(t) for t in nodes)
        return cls(nodes[0], nodes[-1], len(nodes) - 1, explicit_nodes=nodes)

    @property
    def nodes(self) -> np.ndarray:
        """The node times, one shared read-only array."""
        return self._nodes

    @property
    def mesh(self) -> float:
        """Maximum step size."""
        return float(np.max(np.diff(self.nodes)))

    def contains(self, t):
        """Whether t lies in the grid's span, with _NODE_TOL slack; for an
        array of times, an array of answers."""
        return (self.t_start - _NODE_TOL <= t) & (t <= self.t_end + _NODE_TOL)

    def require_contains(self, t: float, what: str = "t"):
        if not self.contains(t):
            raise DomainError(f"{what}={t} outside grid span [{self.t_start}, {self.t_end}]")

    def nearest_node(self, t) -> tuple:
        """(k, on_node): the node nearest t, and whether t equals it within
        _NODE_INDEX_TOL * max(1, |t_end|); node_index and table reads use it.
        For an array of times, shape (N,), k and on_node are arrays of shape
        (N,), each entry the answer for that time alone."""
        tol = _NODE_INDEX_TOL * max(1.0, abs(self.t_end))
        if np.ndim(t):  # each distinct time once
            times, inverse = np.unique(t, return_inverse=True)
            k = np.argmin(np.abs(self.nodes - times[:, None]), axis=1)
            return k[inverse], (np.abs(self.nodes[k] - times) <= tol)[inverse]
        k = int(np.argmin(np.abs(self.nodes - t)))
        return k, bool(abs(self.nodes[k] - t) <= tol)

    def node_index(self, t: float) -> int:
        """Index of the node nearest_node matches t to, else DomainError."""
        k, on_node = self.nearest_node(t)
        if not on_node:
            raise DomainError(f"t={t} is not a grid node")
        return k

    def refine(self, factor: int = 2) -> "TimeGrid":
        """Subdivide every interval `factor` times."""
        if factor < 1:
            raise DomainError("factor must be >= 1")
        if self.explicit_nodes is None:
            return TimeGrid(self.t_start, self.t_end, self.n_steps * factor)
        nodes = self.nodes
        out = [nodes[0]]
        for a, b in zip(nodes[:-1], nodes[1:]):
            out.extend(a + (b - a) * (j + 1) / factor for j in range(factor))
        return TimeGrid.from_nodes(out)


def _as_matrix(values, n_nodes: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != n_nodes:
        raise DomainError(f"values shape {arr.shape} does not match {n_nodes} grid nodes")
    if not np.all(np.isfinite(arr)):
        raise DomainError("path values must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class Path:
    """Piecewise-linear path on a time grid with values in R^dim.

    `values` has one row per grid node.  The array is copied and frozen at
    construction; Path objects never mutate.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values, self.grid.n_steps + 1).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, grid: TimeGrid, point) -> "Path":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(grid, np.tile(point, (grid.n_steps + 1, 1)))

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value_at(self, t: float) -> np.ndarray:
        """Piecewise-linear interpolant at time t (clamped to the span ends)."""
        return stopped_value_at(self.grid, self.values, self.grid.n_steps, t)

    def resample(self, grid: TimeGrid) -> "Path":
        """Interpolate onto another grid covering a subset of this path's span."""
        if grid.t_start < self.grid.t_start - _NODE_TOL or grid.t_end > self.grid.t_end + _NODE_TOL:
            raise DomainError("resample target grid exceeds the path span")
        return Path(grid, values_at(self.grid.nodes[None], self.values[None], grid.nodes[None])[0])

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        lines = [",".join(["t"] + [f"x_{i + 1}" for i in range(self.dim)])]
        for t, row in zip(self.grid.nodes, self.values):
            lines.append(",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in row]))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "format": "path-v1",
            "t": [float(t) for t in self.grid.nodes],
            "x": [[float(v) for v in row] for row in self.values],
        }


def stopped_at(grid: TimeGrid, values: np.ndarray, k: int) -> Path:
    """The path of working node values stopped at node k: rows after k repeat row k.

    Step-by-step integrators fill `values` in place; the stopped path is what
    the dynamics and costs may see at t_k.
    """
    held = values.copy()
    held[k + 1:] = held[k]
    return Path(grid, held)


def stopped_value_at(grid: TimeGrid, values: np.ndarray, k: int, t: float) -> np.ndarray:
    """x(t) of the node values stopped at node k, bit for bit the value_at of
    stopped_at(grid, values, k), without building that path.

    values has shape (node, ..., dim); any lane axes between are read together.
    """
    if not grid.t_start - _NODE_TOL <= t <= grid.t_end + _NODE_TOL:
        grid.require_contains(t)
    nodes = grid._node_list
    t = min(max(t, nodes[0]), nodes[-1])
    j = min(max(bisect_right(nodes, t) - 1, 0), len(nodes) - 2)
    w = (t - nodes[j]) / (nodes[j + 1] - nodes[j])
    return (1.0 - w) * values[min(j, k)] + w * values[min(j + 1, k)]


def extend_history(x0: Path, grid: TimeGrid, t0: float) -> Path:
    """The history x0 on `grid`: x0 up to t0, frozen at x0(t0) after.

    The nodes up to t0 are read with one values_at call, bit for bit
    x0.value_at at each; one outside x0's span raises as value_at does.
    """
    return extend_histories([x0], [grid], [history_reads(x0, grid, t0)])[0]


def history_reads(x0: Path, grid: TimeGrid, t0: float) -> tuple:
    """(times, frozen): the nodes of `grid` up to t0, where extend_history
    reads x0, and x0's value at min(t0, its end), which it holds after
    them.  A time outside x0's span raises DomainError as value_at does,
    the frozen value's first."""
    frozen = x0.value_at(min(t0, x0.grid.t_end))
    times = grid.nodes[grid.nodes <= t0 + 1e-12]
    outside = ~x0.grid.contains(times)
    if outside.any():
        x0.grid.require_contains(float(times[outside][0]))
    return times, frozen


def extend_histories(x0s, grids, reads) -> list:
    """extend_history of each (x0, grid) in turn, paths of one dimension,
    from its history_reads result: values_at calls over the padded x0s read
    every history's nodes, as many rows at once as keep values_at's
    (rows, times, nodes) bisect within _READ_ENTRIES entries (one row at
    least), so the memory is one history's on fine grids.  The histories
    are built in order, so a non-finite one raises (DomainError) before the
    next is built."""
    if not reads:
        return []
    at = np.zeros((len(reads), max(len(times) for times, _ in reads)))
    for row, (x0, (times, _)) in enumerate(zip(x0s, reads)):
        at[row] = x0.grid.t_start  # padding, at a time in the path's span
        at[row, :len(times)] = times
    nodes, values = pad_paths([x0.grid.nodes for x0 in x0s], [x0.values for x0 in x0s])
    rows = max(1, _READ_ENTRIES // (at.shape[1] * nodes.shape[1]))
    read = np.concatenate([values_at(nodes[r:r + rows], values[r:r + rows], at[r:r + rows])
                           for r in range(0, len(at), rows)])
    paths = []
    for grid, (times, frozen), row in zip(grids, reads, read):
        vals = np.empty((grid.n_steps + 1, len(frozen)))
        vals[:len(times)] = row[:len(times)]
        vals[len(times):] = frozen
        paths.append(Path(grid, vals))
    return paths


# ---------------------------------------------------------------------------
# many paths at once
#
# The padded layout: S paths of one dimension as nodes, shape (S, N), each
# row a path's grid nodes padded after its last node with +inf, and values,
# shape (S, N, dim), its node values (padding rows finite and never read as
# path values).  Paths pad over time, never over coordinates, so every sum
# over a row's coordinates runs as it does for the one path.
# ---------------------------------------------------------------------------

def _row_dots(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row of X (shape (..., d)) with y (shape (..., d) or
    (d,)), as the one-row product x @ y computes it: a stack of (1, d) @ (d, 1)
    products matches it bit for bit, where (X * y).sum(-1) and X @ y need not.

    When d is 1 for both, the result is the one product plus the +0.0 the
    stacked product's sum starts from (so a -0.0 product reads +0.0), with
    no reduction over the length-1 axis: the same bits, NaN included.  Last
    axes that differ go to the stacked product, which refuses them.
    """
    if X.shape[-1] == 1 and y.shape[-1] == 1:
        return X[..., 0] * y[..., 0] + 0.0
    return (X[..., None, :] @ y[..., :, None])[..., 0, 0]


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X, equal to the one-row np.linalg.norm
    (np.linalg.norm(X, axis=1) sums the squares another way)."""
    return np.sqrt(_row_dots(X, X))


def _sum_sq(X: np.ndarray) -> np.ndarray:
    """np.sum(X ** 2, axis=-1), the squared norm of each row of X as the
    pairwise sum takes it; in dimension 1 the one square, the bits that sum
    gives, without a reduction over the length-1 axis."""
    if X.shape[-1] == 1:
        return X[..., 0] ** 2
    return np.sum(X ** 2, axis=-1)


def pad_paths(node_rows, value_rows):
    """(nodes, values) of paths of one dimension in the padded layout, from
    each path's node array and (nodes, dim) value array."""
    width = max(len(nodes) for nodes in node_rows)
    nodes_out = np.full((len(node_rows), width), np.inf)
    values_out = np.zeros((len(node_rows), width, value_rows[0].shape[1]))
    for row, (nodes, values) in enumerate(zip(node_rows, value_rows)):
        nodes_out[row, :len(nodes)] = nodes
        values_out[row, :len(nodes)] = values
    return nodes_out, values_out


def values_at(nodes: np.ndarray, values: np.ndarray, t) -> np.ndarray:
    """Path.value_at of S padded paths at once, bit for bit.

    t has shape (S,), one time per path, or (S, M), M times per path, each
    within its path's span; the result has shape t.shape + (dim,).
    """
    t = np.asarray(t, dtype=float)
    one = t.ndim == 1
    if one:
        t = t[:, None]
    rows = np.arange(len(t))[:, None]
    last = np.isfinite(nodes).sum(axis=1)[:, None] - 1
    t_first, t_last = nodes[:, :1], nodes[rows, last]
    t = np.where(t_first > t, t_first, t)  # min(max(t, t_0), t_n), ties as value_at breaks them
    t = np.where(t_last < t, t_last, t)
    k = np.clip((nodes[:, None, :] <= t[..., None]).sum(axis=-1) - 1, 0, last - 1)  # bisect_right
    t_k, t_k1 = nodes[rows, k], nodes[rows, k + 1]
    w = ((t - t_k) / (t_k1 - t_k))[..., None]
    out = (1.0 - w) * values[rows, k] + w * values[rows, k + 1]
    return out[:, 0] if one else out


def stopped_sup_sq(nodes: np.ndarray, values: np.ndarray, t: np.ndarray):
    """(max_{s <= t} |x(s)|^2, x(t)) of S padded paths at once, one time each:
    the largest squared node norm up to t and |x(t)|^2, exact for polylines
    (|x(s)| is convex on each segment)."""
    xt = values_at(nodes, values, t)
    cur_sq = _row_dots(xt, xt)  # the bits of np.dot(xt, xt)
    node_sq = np.where(nodes <= t[:, None] + _NODE_TOL, _sum_sq(values), -np.inf)
    best = node_sq.max(axis=1)
    return np.where(cur_sq > best, cur_sq, best), xt  # max(best, cur_sq)


def stop_paths(nodes: np.ndarray, values: np.ndarray, t: np.ndarray):
    """S padded paths stopped at one time each: x on [t_start, t], x(t) after.

    Returns the stopped paths' (nodes, values) in the padded layout.  A path
    keeps its grid with the rows after t frozen at x(t) when that candidate
    gives x(t) within _NODE_TOL; otherwise t is inserted as a node (the kink
    at t is not representable on the grid), the path is resampled there and
    stopped again, and the result is one column wider.  Stopping is
    idempotent.
    """
    xt = values_at(nodes, values, t)
    frozen = nodes > t[:, None] + _NODE_TOL
    stopped = np.where(frozen[..., None], xt[:, None, :], values)
    keep = _row_norms(values_at(nodes, stopped, t) - xt) <= _NODE_TOL * (1.0 + _row_norms(xt))
    if keep.all():
        return nodes, stopped
    miss = ~keep
    grown = np.sort(np.concatenate([nodes[miss], t[miss, None]], axis=1), axis=1)
    sub_nodes, sub_values = stop_paths(grown, values_at(nodes[miss], values[miss], grown),
                                       t[miss])
    width = sub_nodes.shape[1]
    nodes_out = np.full((len(t), width), np.inf)
    values_out = np.zeros((len(t), width, values.shape[2]))
    nodes_out[keep, :nodes.shape[1]] = nodes[keep]
    values_out[keep, :nodes.shape[1]] = stopped[keep]
    nodes_out[miss], values_out[miss] = sub_nodes, sub_values
    return nodes_out, values_out


@dataclass(frozen=True)
class StateSpace:
    """Finite-dimensional stand-in for the Gelfand triple V in H in V*.

    |.|_H is Euclidean; ||.||_V is the weighted p-norm (sum_i w_i |v_i|^p)^(1/p)
    with every weight w_i = dim^(p/2 - 1) >= 1, which makes |v|_H <= ||v||_V
    hold with constant 1; the duality pairing is the Euclidean inner product,
    and V* carries the conjugate exponent q = p/(p - 1).
    """

    dim: int
    p_exp: float = 2.0

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be >= 1")
        if self.p_exp < 2.0:
            raise DomainError("p exponent must be >= 2")

    @property
    def q_exp(self) -> float:
        return self.p_exp / (self.p_exp - 1.0)

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.dim, self.dim ** (self.p_exp / 2.0 - 1.0))

    def norm_v(self, v) -> float:
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return float(np.sum(self.weights * np.abs(v) ** self.p_exp) ** (1.0 / self.p_exp))

    def dual_norm(self, h) -> float:
        """Norm on V* induced by ||.||_V through the Euclidean pairing."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        q = self.q_exp
        return float(np.sum(self.weights ** (-q / self.p_exp) * np.abs(h) ** q) ** (1.0 / q))


def kappa_constant() -> float:
    """The sandwich constant (3 - sqrt(5)) / 2."""
    return (3.0 - math.sqrt(5.0)) / 2.0
