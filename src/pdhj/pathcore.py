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

    def contains(self, t: float) -> bool:
        return self.t_start - _NODE_TOL <= t <= self.t_end + _NODE_TOL

    def require_contains(self, t: float, what: str = "t"):
        if not self.contains(t):
            raise DomainError(f"{what}={t} outside grid span [{self.t_start}, {self.t_end}]")

    def node_index(self, t: float, tol: float = 1e-9) -> int:
        """Index of the node equal to t, or DomainError if t is not a node."""
        nodes = self.nodes
        k = int(np.argmin(np.abs(nodes - t)))
        if abs(nodes[k] - t) > tol * max(1.0, abs(self.t_end)):
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
        return Path(grid, np.array([self.value_at(t) for t in grid.nodes]))

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
    here, after = values[min(j, k)], values[min(j + 1, k)]
    if w == 0.0:  # at a node (1 - w) * x is x; w * next keeps the blend's zero signs
        return here + w * after
    return (1.0 - w) * here + w * after


def extend_history(x0: Path, grid: TimeGrid, t0: float) -> Path:
    """The history x0 on `grid`: x0 up to t0, frozen at x0(t0) after."""
    vals = np.empty((grid.n_steps + 1, x0.dim))
    xt0 = x0.value_at(min(t0, x0.grid.t_end))
    for i, t in enumerate(grid.nodes):
        vals[i] = x0.value_at(t) if t <= t0 + 1e-12 else xt0
    return Path(grid, vals)


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
    products matches it bit for bit, where (X * y).sum(-1) and X @ y need not."""
    return (X[..., None, :] @ y[..., :, None])[..., 0, 0]


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X, equal to the one-row np.linalg.norm
    (np.linalg.norm(X, axis=1) sums the squares another way)."""
    return np.sqrt(_row_dots(X, X))


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


def sup_norms(nodes: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """max_{s <= t} |x(s)| of S padded paths at once, one time each: the
    largest node norm up to t and the norm of x(t), exact for polylines
    (|x(s)| is convex on each segment)."""
    node_norms = np.where(nodes <= t[:, None] + _NODE_TOL, np.linalg.norm(values, axis=-1),
                          -np.inf)
    best = node_norms.max(axis=1)
    cur = _row_norms(values_at(nodes, values, t))
    return np.where(cur > best, cur, best)  # max(best, cur)


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
