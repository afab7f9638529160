"""Monotone coercive operators and the time-delay evolution solver.

Solves x'(t) + A(t, x(t)) = f(t) step by step with implicit (backward) Euler:
each step is a strongly monotone root-finding problem handled by damped Newton
with a safeguarded fallback.  Trajectories with forcing bounded by
L * (1 + sup-norm of the stopped path) form the discrete reachable tube.

Every lane solve runs the one step loop _lockstep_solve: each lane has its
own start node, end node and history, and the steps run time-major over the
grid's absolute nodes, each moving the lanes whose window covers it.  At
each step one batched forcing call gives every active lane's f, one check
refuses every |f| above L (1 + sup-norm) (the lowest failing lane's
ContractError), and one _implicit_step_batch call moves every active lane.
The forced solves call it directly with one window shared by every lane:
solve_delay_evolution with one lane whose f is a row of its forcing array,
sample_reachable_set with one lane per tube draw and one _ball_points call
per step.  pdhj.minimax solves every site of a residual run as one lane
set, each site's lanes over its own window, whose forcing phases per step
are the characteristic aims (one batched gradient), the stage terms (one
full-grid call over every active lane, which gives the characteristic
picks, the game drift and every lane's Hamiltonian) and the tube draws (one
_ball_points call).  pdhj.game plays every feedback game of a run as one
lane set, at STEP_SOLVE_TOL, whose forcing phases per step are the node's
decisions (the companion minima, the control picks and the greedy answers)
and the held pairs' stage terms (one lane_terms call); so play, too, is
refused a drift above L (1 + sup-norm).

Lockstep loops (_lockstep_solve and its callers here, in pdhj.minimax and
in pdhj.game; the greedy lookahead and the DP slice in pdhj.game; the
table reads and operator pairings of site_checks in pdhj.minimax) raise
the first error they meet, taking time steps in order and the phases of
each step in the order their docstrings list.  Every
phase is batched, and raises for its whole batch: the forcing-bound check
and _implicit_step_batch the error of their lowest failing lane, a
value-table read (the gradient's probes included) the batch's largest
lattice margin (the one to expand by), and a game's stage terms
(GameSpec.lane_terms, one stage-function call for all lanes) the first
non-finite entry in (lane, p, q) order, the drift before the cost of an
entry.  So at a simulation node a feedback run picks the controls of the
lanes deciding there in one batch and answers their greedy lanes with one
batched lookahead, before the step's stage terms, its forcing-bound check
and its implicit step; it plays every partition and pool as one lane set,
time-major, so an earlier step's error wins whichever partition and pool it
is on (partition by partition, the first partition's error came first
however late its step); a residual run's sites step together, time-major,
so the earlier step's error wins whichever site and lane it is on (a site by
site order would raise the first site's error however late its step), and a
non-finite stage term of any lane raises during the solve, at its step, in
(lane, p, q) order (a viscosity scan's lanes too check their full control
grid); the characteristic functional then has only its table-read phase,
one batch per node over every site.  A DP slice's phases are its stage
terms, its Markov probe, its implicit step and one table read of both
sides.  The sampled Hamiltonians of
pdhj.game (sampled_hamiltonians, which isaacs-check and the Lipschitz audit
use) take them one time group at a time: the distinct sample times in order
of first appearance, every sample at a time in one batch, so they raise the
first non-finite entry of the first group that has one, not that of the
first failing sample.
Lanes that succeed do not depend on this order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AuditError, ContractError, DomainError, SolverError
from .pathcore import Path, StateSpace, _row_norms

NEWTON_MAX_ITER = 50
# Two implicit-step tolerances, each relative (tol (1 + |x_k|) per row).  STEP_TOL
# serves the forced solve, the tube and the residual lanes; STEP_SOLVE_TOL the
# value-table lanes: the DP slice, the feedback games and the greedy lookahead.
# They are not merged yet: with 1e-11 everywhere, minimax_check's result moves by
# up to 1.8e-10 (seed 0), and the benchmark's reference results pin those bits.
STEP_TOL = 1e-10
STEP_SOLVE_TOL = 1e-11
FORCING_BOUND_TOL = 1e-9
FORCING_ALGORITHM = "ball-uniform-pcg64/v1"
MONOTONICITY_TOL = 1e-12  # audit_hypotheses flags a pairing below -MONOTONICITY_TOL


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A monotone coercive operator A(t, .) with declared constants.

    eval_fn maps (t, V) -> A(t, V) (V*-vectors as H-arrays through the
    Euclidean pairing) for a stack of states V of shape (..., dim), returning
    the same shape, each row computed as it would be alone; it is the one
    entry point, used for single states and stacks alike.  Declared
    constants feed the hypothesis audit:
    boundedness  ||A(t,x)||_* <= a1_bound + c1 ||x||^(p-1),
    coercivity   <A(t,x), x>  >= c2 ||x||^p.
    eval_fn must be reentrant (no hidden mutable state).
    """

    space: StateSpace
    eval_fn: object
    c1: float
    c2: float
    a1_bound: float = 0.0

    def __post_init__(self):
        if self.c1 < 0 or self.a1_bound < 0:
            raise DomainError("c1 and a1_bound must be >= 0")
        if not self.c2 > 0:
            raise DomainError("c2 must be > 0")

    def __call__(self, t: float, v) -> np.ndarray:
        """A(t, v) at one state, shape (dim,)."""
        return self.batch(t, np.atleast_1d(v))

    def batch(self, t: float, V: np.ndarray) -> np.ndarray:
        """A(t, .) on a stack of states V, shape (..., dim), in one eval_fn call."""
        out = np.asarray(self.eval_fn(t, V), dtype=float)
        expected = V.shape[:-1] + (self.space.dim,)
        if out.shape != expected:
            raise DomainError(f"operator returned shape {out.shape}, expected {expected}")
        return out


def make_linear_operator(dim: int = 1, gain: float = 1.0) -> OperatorSpec:
    """A(t, x) = gain * x with p = 2, coercive with c2 = gain; a gain not
    above 0 is refused (DomainError), since A is then not coercive."""
    space = StateSpace(dim=dim, p_exp=2.0)
    return OperatorSpec(
        space=space,
        eval_fn=lambda t, v: gain * v,
        c1=abs(gain),
        c2=gain,
        a1_bound=0.0,
    )


def build_p_laplacian(nodes: int, p_exp: float, audit_samples: int = 200, seed: int = 0) -> OperatorSpec:
    """1-D discrete p-Laplacian on (0, 1) with homogeneous Dirichlet boundary.

    Interior nodes only; A(x)_i = -D(|Dx|^(p-2) Dx)_i by central flux
    differencing.  The coercivity constant c2 is estimated by a seeded audit
    (half the minimum observed ratio, so later audits clear it) and the
    boundedness constant c1 by the maximum observed ratio with a 2x margin.
    """
    if nodes < 2:
        raise DomainError("need at least 2 interior nodes")
    if p_exp < 2.0:
        raise DomainError("p exponent must be >= 2")
    h = 1.0 / (nodes + 1)
    space = StateSpace(dim=nodes, p_exp=float(p_exp))

    def eval_fn(t, v):  # along the last axis, so one state or a stack alike
        zero = np.zeros(v.shape[:-1] + (1,))
        d = np.diff(np.concatenate((zero, v, zero), axis=-1), axis=-1) / h
        flux = np.abs(d) ** (p_exp - 2.0) * d
        return -np.diff(flux, axis=-1) / h

    probe = OperatorSpec(space=space, eval_fn=eval_fn, c1=1.0, c2=1e-30, a1_bound=0.0)
    rng = np.random.default_rng(seed)
    coercivity, boundedness = [], []
    for _ in range(audit_samples):
        x = rng.standard_normal(nodes) * rng.choice([0.1, 1.0, 3.0])
        ax = probe(0.0, x)
        nv = space.norm_v(x)
        if nv > 0:
            coercivity.append(float(np.dot(ax, x)) / nv ** p_exp)
            boundedness.append(space.dual_norm(ax) / nv ** (p_exp - 1.0))
    c2_est = 0.5 * min(coercivity)
    if not c2_est > 0:
        raise AuditError("p-Laplacian calibration found a non-coercive sample")
    return OperatorSpec(space=space, eval_fn=eval_fn, c1=2.0 * max(boundedness),
                        c2=c2_est, a1_bound=0.0)


@dataclass(frozen=True)
class AuditReport:
    """Observed hypothesis extremes for an operator over seeded random samples;
    passed is `not violations`.  The runner writes dataclasses.asdict of it."""

    samples: int
    seed: int
    monotonicity_min: float
    coercivity_min: float
    boundedness_max: float
    violations: tuple
    passed: bool


def audit_hypotheses(op: OperatorSpec, samples: int, seed: int) -> AuditReport:
    """Sample-based audit of monotonicity, coercivity, and boundedness.

    Reports the minimum monotonicity pairing <A(t,x)-A(t,y), x-y>, the minimum
    coercivity ratio <A(t,x), x> / ||x||^p, and the maximum boundedness ratio
    against the declared constants; any violation is flagged.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    dim, p = op.space.dim, op.space.p_exp
    mono_min, coer_min, bound_max = np.inf, np.inf, 0.0
    for i in range(samples):
        t = rng.uniform(0.0, 1.0)
        scale = rng.choice([0.05, 0.5, 1.0, 5.0])
        x = rng.standard_normal(dim) * scale
        y = rng.standard_normal(dim) * scale
        ax, ay = op(t, x), op(t, y)
        if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
            raise AuditError("non-finite operator output", sample={"t": t, "x": x, "y": y})
        mono_min = min(mono_min, float(np.dot(ax - ay, x - y)))
        nv = op.space.norm_v(x)
        if nv > 1e-12:
            coer_min = min(coer_min, float(np.dot(ax, x)) / nv ** p)
            denom = op.a1_bound + op.c1 * nv ** (p - 1.0)
            if denom > 0:
                bound_max = max(bound_max, op.space.dual_norm(ax) / denom)
    violations = []
    if mono_min < -MONOTONICITY_TOL:
        violations.append(f"monotonicity pairing {mono_min:.3e} < -{MONOTONICITY_TOL:g}")
    if coer_min < op.c2 - 1e-12:
        violations.append(f"coercivity ratio {coer_min:.3e} below declared c2 {op.c2:.3e}")
    if bound_max > 1.0 + 1e-9:
        violations.append(f"boundedness ratio {bound_max:.3e} exceeds declared envelope")
    return AuditReport(samples=samples, seed=seed, monotonicity_min=float(mono_min),
                       coercivity_min=float(coer_min), boundedness_max=float(bound_max),
                       violations=tuple(violations), passed=not violations)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """One delay-evolution solve: path, applied forcing, and solver diagnostics."""

    path: Path
    forcing_trace: np.ndarray
    start_index: int
    step_count: int
    residual_estimate: float
    newton_total: int
    newton_max: int
    forcing_algorithm: str = None

    def to_json_obj(self) -> dict:
        return {
            "path": self.path.to_json_obj(),
            "forcing_trace": [[float(v) for v in row] for row in np.atleast_2d(self.forcing_trace)],
            "start_index": self.start_index,
            "step_count": self.step_count,
            "residual_estimate": self.residual_estimate,
            "newton_total": self.newton_total,
            "newton_max": self.newton_max,
            "forcing_algorithm": self.forcing_algorithm,
        }


def _implicit_step_batch(op: OperatorSpec, t_next: float, dt: float, targets: np.ndarray,
                         guesses: np.ndarray, tols: np.ndarray, step_index: int):
    """Solve g(xi) = xi + dt*A(t_next, xi) - target = 0 for each row of targets
    and guesses, shape (M, dim); returns (xi, iters, res) with shapes
    (M, dim), (M,), (M,).

    A masked damped Newton runs all lanes: a finite-difference Jacobian per
    lane, one batched solve, and one line-search schedule for all lanes with
    the same acceptance test, so each lane's arithmetic does not depend on
    the other lanes.  A lane that stalls (a singular Jacobian, an exhausted
    line search, or NEWTON_MAX_ITER iterations) keeps its iteration count and
    goes to _fallback_step.  Stalled lanes fall back in lane order, so the
    SolverError a batch raises is its lowest stalled lane's.
    """
    targets = np.asarray(targets, dtype=float)
    guesses = np.asarray(guesses, dtype=float)
    m, dim = targets.shape
    xi = guesses.copy()
    tols = np.broadcast_to(np.asarray(tols, dtype=float), (m,))
    iters = np.zeros(m, dtype=int)
    res = np.zeros(m)
    stalled = []

    def g(X, lanes):
        return X + dt * op.batch(t_next, X) - targets[lanes]

    lanes = np.arange(m)
    gx = g(xi, lanes)
    for _ in range(NEWTON_MAX_ITER):
        r = _row_norms(gx)
        done = r <= tols[lanes]
        res[lanes[done]] = r[done]
        lanes, gx, r = lanes[~done], gx[~done], r[~done]
        if not lanes.size:
            break
        iters[lanes] += 1
        X = xi[lanes]
        fd = 1e-7 * (1.0 + _row_norms(X))
        jac = np.empty((len(lanes), dim, dim))
        for j in range(dim):
            e = np.zeros_like(X)
            e[:, j] = fd
            jac[:, :, j] = (g(X + e, lanes) - gx) / fd[:, None]
        ok = np.ones(len(lanes), dtype=bool)
        try:
            step = np.linalg.solve(jac, -gx[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # find the singular lanes one by one
            step = np.zeros_like(X)
            for n in range(len(lanes)):
                try:
                    step[n] = np.linalg.solve(jac[n], -gx[n])
                except np.linalg.LinAlgError:
                    ok[n] = False
        pending = ok.copy()
        lam = 1.0
        while lam >= 1e-6 and pending.any():
            idx = np.flatnonzero(pending)
            trial = X[idx] + lam * step[idx]
            gt = g(trial, lanes[idx])
            accept = _row_norms(gt) <= (1.0 - 0.25 * lam) * r[idx]
            X[idx[accept]] = trial[accept]
            gx[idx[accept]] = gt[accept]
            pending[idx[accept]] = False
            lam *= 0.5
        xi[lanes] = X
        moved = ok & ~pending
        stalled.extend(lanes[~moved])
        lanes, gx = lanes[moved], gx[moved]
    stalled.extend(lanes)
    for n in sorted(stalled):
        xi[n], iters[n], res[n] = _fallback_step(op, t_next, dt, targets[n], guesses[n],
                                                 float(tols[n]), step_index, int(iters[n]))
    return xi, iters, res


def _drift_step(op: OperatorSpec, t_next: float, dt: float, x: np.ndarray, drift: np.ndarray,
                rel_tol: float, step_index: int):
    """One implicit-Euler step of each row of x, shape (M, dim), under its
    drift: _implicit_step_batch with target x + dt*drift, guess x and
    tolerance rel_tol (1 + |x|) per row."""
    return _implicit_step_batch(op, t_next, dt, x + dt * drift, x,
                                rel_tol * (1.0 + _row_norms(x)), step_index)


def _fallback_step(op: OperatorSpec, t_next: float, dt: float, target: np.ndarray,
                   guess: np.ndarray, tol: float, step_index: int, iters: int):
    """The safeguarded root of g for one lane whose damped Newton stalled:
    bisection in dimension 1, relaxation from the guess otherwise.  Returns
    (xi, iters, |g|) with iters passed through; raises SolverError."""

    def g(xi):
        return xi + dt * op(t_next, xi) - target

    if len(target) == 1:
        return _bisect_step(g, target, tol, step_index, iters)
    xi = guess.astype(float).copy()
    tau = 0.5
    for _ in range(4000):
        gx = g(xi)
        res = float(np.linalg.norm(gx))
        if res <= tol:
            return xi, iters, res
        trial = xi - tau * gx
        if np.linalg.norm(g(trial)) < res:
            xi = trial
        else:
            tau *= 0.5
            if tau < 1e-12:
                break
    raise SolverError(f"implicit step failed to converge at step {step_index}", step_index)


def _bisect_step(g, target, tol, step_index, iters):
    # g is scalar and strictly increasing (identity plus dt * monotone A)
    lo = hi = float(target[0])
    width = 1.0 + abs(lo)
    for _ in range(200):
        if g(np.array([lo]))[0] <= 0.0:
            break
        lo -= width
        width *= 2.0
    width = 1.0 + abs(hi)
    for _ in range(200):
        if g(np.array([hi]))[0] >= 0.0:
            break
        hi += width
        width *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(np.array([mid]))[0]
        if abs(val) <= tol:
            return np.array([mid]), iters, abs(val)
        if val > 0:
            hi = mid
        else:
            lo = mid
    raise SolverError(f"bisection failed to converge at step {step_index}", step_index)


def solve_delay_evolution(op: OperatorSpec, t0: float, x0: Path, forcing=None, *,
                          lipschitz_L: float) -> SolveReport:
    """Extend the history x0 past t0 by implicit Euler on x' + A(t, x) = f.

    x0 must live on the full solver grid with t0 at a grid node; node values at
    times <= t0 are kept verbatim.  `forcing` is None (f = 0) or an array of
    shape (n_steps, dim) whose row k is f on the grid interval [t_k, t_k+1],
    indexed from the grid's start whatever t0 is.  The applied forcing must
    respect |f| <= lipschitz_L (1 + sup-norm); violations raise ContractError.
    """
    grid = x0.grid
    shape = (grid.n_steps, x0.dim)
    forcing = np.zeros(shape) if forcing is None else np.asarray(forcing, dtype=float)
    if forcing.shape != shape:
        raise DomainError(f"forcing has shape {forcing.shape}, expected {shape}")
    solved = _lockstep_solve(op, grid.nodes, x0.values[:, None, :].copy(), grid.node_index(t0),
                             grid.n_steps, np.array([float(lipschitz_L)]), STEP_TOL,
                             lambda k, lanes, values, bound: forcing[k][None])
    return _reports(x0, t0, solved)[0]


def _reports(x0: Path, t0: float, solved, forcing_algorithm: str = None) -> list:
    """One SolveReport per lane of a _lockstep_solve result `solved`."""
    values, trace, iters, res = solved
    grid = x0.grid
    k0 = grid.node_index(t0)
    return [SolveReport(path=Path(grid, values[:, lane]), forcing_trace=trace[:, lane].copy(),
                        start_index=k0, step_count=grid.n_steps - k0,
                        residual_estimate=float(res[:, lane].max(initial=0.0)),
                        newton_total=int(iters[:, lane].sum()),
                        newton_max=int(iters[:, lane].max(initial=0)),
                        forcing_algorithm=forcing_algorithm)
            for lane in range(values.shape[1])]


def _lockstep_solve(op: OperatorSpec, nodes: np.ndarray, values: np.ndarray, start, end,
                    L: np.ndarray, rel_tol: float, step_forcing):
    """The one step loop of every lane solve: m lanes of x' + A(t, x) = f on
    the grid nodes `nodes`, lane n from node start[n] to node end[n] with the
    tube constant L[n], L shape (m,); start and end are ints shared by every
    lane or arrays of shape (m,).  Each step solves to rel_tol as _drift_step
    does; m = 0 takes no step.

    values, shape (node, lane, coordinate), holds each lane's history through
    its start node; the solve fills lane n's nodes start[n] + 1 .. end[n] in
    place and reads and writes no other entry, so a lane's nodes past its
    end keep whatever they hold.  The steps run time-major over the absolute
    nodes, each step moving the lanes whose window covers it (none: no step).
    step_forcing(k, lanes, values, bound) returns the forcing of those lanes
    at t_k, shape (len(lanes), dim), lanes being the active lanes'
    increasing index array; values is the whole array, filled through node k
    on the active lanes, and bound = L (1 + sup-norm of each active lane's
    stopped path).  Each step then checks |f| <= bound (a non-finite forcing
    fails the check; the ContractError names the lowest failing lane) and
    moves the active lanes with one _implicit_step_batch call; an L below 0
    is refused (DomainError) before the first step.  Returns
    (values, trace, iters, res): the node values, and per step of each lane's
    window, row j holding its step start + j, the forcings, shape
    (step, lane, dim), the Newton iterations and the step residuals, shapes
    (step, lane), zero past the lane's window.
    """
    if not np.all(L >= 0):
        raise DomainError("lipschitz_L must be >= 0")
    m, dim = len(L), values.shape[2]
    start = np.broadcast_to(np.asarray(start, dtype=int), (m,))
    end = np.broadcast_to(np.asarray(end, dtype=int), (m,))
    steps = int((end - start).max(initial=0))
    trace = np.zeros((steps, m, dim))
    iters = np.zeros((steps, m), dtype=int)
    res = np.zeros((steps, m))
    # running max of the node norms up to t_k (np.linalg.norm over the coordinates)
    node_sup = np.empty(m)
    for k0 in np.unique(start):
        held = start == k0
        node_sup[held] = np.max(np.linalg.norm(values[: k0 + 1, held], axis=2), axis=0)

    for k in range(int(start.min(initial=0)), int(end.max(initial=0))):
        lanes = np.flatnonzero((start <= k) & (k < end))
        if not lanes.size:
            continue
        row = k - start[lanes]
        t_k1 = nodes[k + 1]
        dt = t_k1 - nodes[k]
        x_k = values[k, lanes]
        cur = _row_norms(x_k)  # |x(t_k)|, the stopped sup-norm's last term
        bound = L[lanes] * (1.0 + np.maximum(node_sup[lanes], cur))
        f = step_forcing(k, lanes, values, bound)
        fmag = _row_norms(f)
        over = np.flatnonzero(~(fmag <= bound + FORCING_BOUND_TOL * (1.0 + bound)))
        if over.size:
            lane = over[0]
            raise ContractError(f"forcing magnitude {fmag[lane]:.6e} exceeds L(1+sup) = "
                                f"{bound[lane]:.6e} at step {k}")
        x_next, iters[row, lanes], res[row, lanes] = _drift_step(op, t_k1, dt, x_k, f, rel_tol, k)
        values[k + 1, lanes] = x_next
        node_sup[lanes] = np.maximum(node_sup[lanes], np.linalg.norm(x_next, axis=1))
        trace[row, lanes] = f
    return values, trace, iters, res


def _ball_points(streams, dim: int, radii: np.ndarray) -> np.ndarray:
    """One point uniform in the ball of radius radii[n] from each stream n,
    shape (len(streams), dim).

    The streams draw in order, each as a one-point draw does: a radius <= 0
    draws nothing and gives the zero point; otherwise the stream draws
    standard_normal(dim), then uniform() only when that direction's norm is
    not zero (a zero norm gives the zero point).  The drawn directions are
    scaled in one array step, direction / |direction| * radius * u^(1/dim),
    bit for bit the one-point arithmetic.
    """
    directions = np.zeros((len(streams), dim))
    shrink = np.zeros(len(streams))
    drawn = np.zeros(len(streams), dtype=bool)
    for n, (rng, radius) in enumerate(zip(streams, radii)):
        if radius <= 0.0:
            continue
        direction = directions[n] = rng.standard_normal(dim)
        if direction @ direction != 0.0:  # the one-point draw's |direction| != 0
            drawn[n] = True
            shrink[n] = rng.uniform() ** (1.0 / dim)
    points = np.zeros((len(streams), dim))
    rows = np.flatnonzero(drawn)
    d = directions[rows]
    points[rows] = d / _row_norms(d)[:, None] * radii[rows, None] * shrink[rows, None]
    return points


def sample_reachable_set(op: OperatorSpec, t0: float, x0: Path, count: int, seed: int, *,
                         lipschitz_L: float) -> list:
    """`count` solves under randomized admissible forcings, deterministic per seed.

    Each sample draws its forcing piecewise-constant, uniformly in the ball of
    radius lipschitz_L (1 + sup-norm of the stopped path) at every step, from
    its own PRNG stream derived from (seed, sample index).  The samples are
    the lanes of one _lockstep_solve call, each step's draws one _ball_points
    call.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    streams = [np.random.default_rng([seed, i]) for i in range(count)]
    grid = x0.grid
    solved = _lockstep_solve(op, grid.nodes, np.repeat(x0.values[:, None, :], count, axis=1),
                             grid.node_index(t0), grid.n_steps, np.full(count, float(lipschitz_L)),
                             STEP_TOL,
                             lambda k, lanes, values, bound: _ball_points(streams, x0.dim, bound))
    return _reports(x0, t0, solved, FORCING_ALGORITHM)
