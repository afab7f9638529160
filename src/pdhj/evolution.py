"""Monotone coercive operators and the time-delay evolution solver.

Solves x'(t) + A(t, x(t)) = f(t) step by step with implicit (backward) Euler:
each step is a strongly monotone root-finding problem handled by damped Newton
with a safeguarded fallback.  Trajectories with forcing bounded by
L * (1 + sup-norm of the stopped path) form the discrete reachable tube.

Every lane solve runs the one step loop _lockstep_solve: each lane has its
own start node, end node and history, and the steps run window-major: step j
moves every lane whose window holds a j-th step, each at its own node start +
j, so a lane set takes as many steps as its longest window (lanes that share
a start step through the grid's nodes in order).  At each step one
batched forcing call gives every active lane's f, one check refuses every
|f| above L (1 + sup-norm), and one _implicit_step_batch call moves every
active lane, each row at its own node's time and step.
The forced solves call it directly with one window shared by every lane:
solve_delay_evolution with one lane whose f is a row of its forcing array,
sample_reachable_set with one lane per tube sample and one _ball_points call
per step.  A tube lane's stream takes its whole window of draws before the
first step (_tube_draws), in the order one draw per step takes them, since its
radius L (1 + sup-norm) is above 0 at every step when L > 0 and a lane
with L = 0 draws nothing; so _ball_points is array arithmetic.  Every keyed
stream (a tube lane's default_rng([seed, i]), and pdhj.game's adversary
pools) gets its PCG64 state from one array pass that reproduces
SeedSequence's seeding (_pcg64_seeds), and draws from one shared Generator
set to that state (_keyed_streams), so no Generator is built per key and the
bits are default_rng's; a seed that is not an integer, or is below 0, is
refused before any work.  pdhj.minimax solves every site of a
residual run as one lane set, each site's lanes over its own window, whose
forcing phases per step are the characteristic aims (one batched
gradient, each row at its node's time), the stage terms (one full-grid
lane_terms call per distinct node of the step, in node order, which gives
the characteristic picks, the game drift and every lane's Hamiltonian) and
the tube points (one _ball_points call on the pre-drawn windows).
pdhj.game plays every feedback game of a run as one
lane set, at STEP_SOLVE_TOL, whose forcing phases per step are the node's
decisions (the companion minima, the control picks and the greedy answers,
whose (game, q) drifts are checked against the same bound before their
lookahead step) and the held pairs' stage terms (one lane_terms call); so
play, too, is refused a drift above L (1 + sup-norm).

Lockstep loops (_lockstep_solve and its callers here, in pdhj.minimax and
in pdhj.game; the greedy lookahead and the DP oracle in pdhj.game; the
table reads and operator pairings of site_checks in pdhj.minimax) raise
the first error they meet, taking steps in order and the phases of
each step in the order their docstrings list.  Every
phase is batched, and raises for its whole batch: the forcing-bound check
and _implicit_step_batch the error of their first failing lane in the
step's order (by node, then by lane), a
value-table read (the gradient's probes included) the batch's largest
lattice margin (the one to expand by), and a game's stage terms
(GameSpec.lane_terms, one stage-function call for all lanes at a time) the
first non-finite entry in (lane, p, q) order, the drift before the cost of an
entry.  So at a simulation node a feedback run picks the controls of the
lanes deciding there in one batch and answers their greedy lanes with one
batched lookahead, before the step's stage terms, its forcing-bound check
and its implicit step; it plays every partition and pool as one lane set,
time-major (its lanes share a start), so an earlier step's error wins
whichever partition and pool it is on.  A residual run's
sites step together, window-major, so the earliest window step's error
wins, then the earliest time's, then the lowest lane's, whichever site it
is on, and a
non-finite stage term of any lane raises during the solve, at its step, in
(lane, p, q) order (a viscosity scan's lanes too check their full control
grid); the characteristic functional then has only its table-read phase,
one read of every site's rows, which names the largest margin among the
rows of the first window step with a state off the lattice.  The DP oracle
(pdhj.game.dp_values) solves every slice's successors before its recursion reads any, so its
phases span the slices: every slice's stage terms and Markov probe, in
recursion order (k = n_steps - 1 first), then one growth-bound check of
every cell (|f| <= l_f (1 + |x|) on the constant lifts, the rule of
_over_growth_bound; ContractError names the first cell in recursion
order), then one _implicit_step_batch call over every (slice, point, p, q)
cell, each row at its slice's time and step (the lowest failing row's
SolverError, naming its slice's k), then one table read of both sides per
slice in recursion order.  So every stage-term or probe error comes before
any step error, and every step error before any coverage error; a coverage
error names the first slice in recursion order with a successor off the
lattice, and the cell with the largest margin in it.  The
sampled Hamiltonians of
pdhj.game (sampled_hamiltonians, which isaacs-check and the Lipschitz audit
use) take them one time group at a time: the distinct sample times in order
of first appearance, every sample at a time in one batch, so they raise the
first non-finite entry of the first group that has one, not that of the
first failing sample.
Lanes that succeed do not depend on this order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import AuditError, ContractError, DomainError, SolverError
from .pathcore import Path, StateSpace, _row_dots, _row_norms

NEWTON_MAX_ITER = 50
# Two implicit-step tolerances, each relative (tol (1 + |x_k|) per row).  STEP_TOL
# serves the forced solve, the tube and the residual lanes; STEP_SOLVE_TOL the
# value-table lanes: the DP oracle, the feedback games and the greedy lookahead.
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
    entry point, used for single states and stacks alike.  t is a float
    (the batched implicit step passes a time its rows share as the float),
    or, from the batched implicit step and the hypothesis audit, a column
    of shape (M, 1) holding the time of each of the M rows of V, so eval_fn
    must broadcast it against V as it would a float (both built-in
    operators ignore t).  Declared
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
        x = rng.standard_normal(nodes) * (0.1, 1.0, 3.0)[rng.integers(0, 3)]  # rng.choice's bits
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

    The samples (t, scale, x, y) are drawn one at a time and then evaluated
    at once: one op.batch call per side, with each sample's t as a column,
    and the pairings by _row_dots; the ratios reduce in draw order, with
    norm_v and dual_norm one sample at a time.  The first sample in draw
    order with a non-finite operator output raises AuditError.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    dim, p = op.space.dim, op.space.p_exp
    scales = (0.05, 0.5, 1.0, 5.0)
    t, X, Y = np.empty(samples), np.empty((samples, dim)), np.empty((samples, dim))
    for i in range(samples):
        t[i] = rng.random()
        scale = scales[rng.integers(0, len(scales))]
        X[i] = rng.standard_normal(dim) * scale
        Y[i] = rng.standard_normal(dim) * scale
    AX, AY = op.batch(t[:, None], X), op.batch(t[:, None], Y)
    finite = np.isfinite(AX).all(axis=1) & np.isfinite(AY).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise AuditError("non-finite operator output",
                         sample={"t": float(t[i]), "x": X[i].copy(), "y": Y[i].copy()})
    mono_min, coer_min, bound_max = np.inf, np.inf, 0.0
    for i, (mono, coer) in enumerate(zip(_row_dots(AX - AY, X - Y).tolist(),
                                         _row_dots(AX, X).tolist())):
        mono_min = min(mono_min, mono)
        nv = op.space.norm_v(X[i])
        if nv > 1e-12:
            coer_min = min(coer_min, coer / nv ** p)
            denom = op.a1_bound + op.c1 * nv ** (p - 1.0)
            if denom > 0:
                bound_max = max(bound_max, op.space.dual_norm(AX[i]) / denom)
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


def _implicit_step_batch(op: OperatorSpec, t_next, dt, targets: np.ndarray,
                         guesses: np.ndarray, tols: np.ndarray, step_index):
    """Solve g(xi) = xi + dt*A(t_next, xi) - target = 0 for each row of targets
    and guesses, shape (M, dim); returns (xi, iters, res) with shapes
    (M, dim), (M,), (M,).

    t_next, dt and step_index are per row, shape (M,), or a scalar shared by
    every row; op.batch gets a shared t_next as the float and per-row times
    as a column (M, 1).  A masked damped Newton runs all lanes: a
    finite-difference Jacobian per lane, one batched solve, and one
    line-search schedule for all lanes with the same acceptance test, so each
    lane's arithmetic does not depend on the other lanes.  While every row is
    live the kernel indexes no rows.  In dimension 1 the Jacobian is the one
    column (g(X + fd) - g) / fd, the Newton step the quotient -g/J, the bits
    np.linalg.solve gives there, and a row with J = 0 is singular, as
    np.linalg.solve finds it.  When no live row is singular, the full step
    (lambda = 1) is tried on every row at once, and the rows that reject it
    go on halving from lambda = 1/2, so each row accepts the lambda the
    schedule gives it alone.  A lane that stalls (a singular
    Jacobian, an exhausted line search, or NEWTON_MAX_ITER iterations) keeps
    its iteration count and goes to _fallback_step with its own row's t_next,
    dt and step_index.  Stalled lanes fall back in lane order, so the
    SolverError a batch raises is its lowest stalled lane's, naming that
    lane's step.
    """
    targets = np.asarray(targets, dtype=float)
    guesses = np.asarray(guesses, dtype=float)
    m, dim = targets.shape
    xi = guesses.copy()
    tols = np.broadcast_to(np.asarray(tols, dtype=float), (m,))
    t_next, dt = (float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float)[:, None]
                  for v in (t_next, dt))
    iters = np.zeros(m, dtype=int)
    res = np.zeros(m)
    stalled = []

    def g(X, lanes):  # lanes None: every row
        if lanes is None:
            return X + dt * op.batch(t_next, X) - targets
        t_rows, dt_rows = (v if isinstance(v, float) else v[lanes] for v in (t_next, dt))
        return X + dt_rows * op.batch(t_rows, X) - targets[lanes]

    live = None  # the live rows' indices, None while every row is live
    gx = g(xi, None)
    for _ in range(NEWTON_MAX_ITER if m else 0):
        r = _row_norms(gx)
        done = r <= (tols if live is None else tols[live])
        if done.any():
            rows = np.arange(m) if live is None else live
            res[rows[done]] = r[done]
            live, gx, r = rows[~done], gx[~done], r[~done]
            if not live.size:
                break
        if live is None:
            iters += 1
            X = xi  # updated in place
        else:
            iters[live] += 1
            X = xi[live]
        fd = 1e-7 * (1.0 + _row_norms(X))
        if dim == 1:  # the Jacobian is one column, the step the quotient
            jac = (g(X + fd[:, None], live) - gx) / fd[:, None]
            step, ok = _newton_steps(jac[:, :, None], gx)
        else:
            jac = np.empty((len(X), dim, dim))
            for j in range(dim):
                e = np.zeros_like(X)
                e[:, j] = fd
                jac[:, :, j] = (g(X + e, live) - gx) / fd[:, None]
            step, ok = _newton_steps(jac, gx)
        lam = 1.0
        if ok.all():  # the full step on every row at once
            trial = X + step
            gt = g(trial, live)
            accept = _row_norms(gt) <= 0.75 * r
            pending = ~accept
            if pending.any():
                X[accept], gx[accept] = trial[accept], gt[accept]
            else:  # every row took it
                X[...], gx = trial, gt
            lam = 0.5
        else:
            pending = ok.copy()
        while lam >= 1e-6 and pending.any():
            idx = np.flatnonzero(pending)
            trial = X[idx] + lam * step[idx]
            gt = g(trial, idx if live is None else live[idx])
            accept = _row_norms(gt) <= (1.0 - 0.25 * lam) * r[idx]
            X[idx[accept]] = trial[accept]
            gx[idx[accept]] = gt[accept]
            pending[idx[accept]] = False
            lam *= 0.5
        if live is not None:
            xi[live] = X
        moved = ok & ~pending
        if not moved.all():
            rows = np.arange(m) if live is None else live
            stalled.extend(rows[~moved])
            live, gx = rows[moved], gx[moved]
    stalled.extend(range(m) if live is None else live)
    for n in sorted(stalled):
        t_n, dt_n = (v if isinstance(v, float) else float(v[n, 0]) for v in (t_next, dt))
        k_n = int(step_index if np.ndim(step_index) == 0 else step_index[n])
        xi[n], iters[n], res[n] = _fallback_step(op, t_n, dt_n, targets[n], guesses[n],
                                                 float(tols[n]), k_n, int(iters[n]))
    return xi, iters, res


def _newton_steps(jac: np.ndarray, gx: np.ndarray):
    """(step, ok): each row's Newton step, the solution of jac[n] step = -gx[n]
    for jac (M, dim, dim) and gx (M, dim), and whether jac[n] is nonsingular
    (a singular row's step is not used).

    One np.linalg.solve call for the batch; if it finds a singular matrix,
    one call per row marks which.  In dimension 1 the step is the quotient
    -g/J, the bits of np.linalg.solve there (which marks a row singular
    exactly when J = 0), without its per-call cost.
    """
    if jac.shape[1] == 1:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
            return -gx / jac[:, :, 0], jac[:, 0, 0] != 0.0
    ok = np.ones(len(gx), dtype=bool)
    try:
        return np.linalg.solve(jac, -gx[:, :, None])[:, :, 0], ok
    except np.linalg.LinAlgError:  # find the singular rows one by one
        step = np.zeros_like(gx)
        for n in range(len(gx)):
            try:
                step[n] = np.linalg.solve(jac[n], -gx[n])
            except np.linalg.LinAlgError:
                ok[n] = False
        return step, ok


def _drift_step(op: OperatorSpec, t_next, dt, x: np.ndarray, drift: np.ndarray,
                rel_tol: float, step_index):
    """One implicit-Euler step of each row of x, shape (M, dim), under its
    drift: _implicit_step_batch with target x + dt*drift, guess x and
    tolerance rel_tol (1 + |x|) per row; t_next, dt and step_index are per
    row or shared, as there."""
    dt_rows = dt if np.ndim(dt) == 0 else np.asarray(dt, dtype=float)[:, None]
    return _implicit_step_batch(op, t_next, dt, x + dt_rows * drift, x,
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


def _over_growth_bound(fmag: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The flat indices, increasing, of the forcing magnitudes fmag that break
    their growth bound L (1 + sup-norm), given as bound (broadcast against
    fmag), with FORCING_BOUND_TOL relative slack; a magnitude that is not
    finite breaks it.  The lane solve and the DP oracle share this rule."""
    return np.flatnonzero(~(fmag <= bound + FORCING_BOUND_TOL * (1.0 + bound)))


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
    end keep whatever they hold.  The steps run window-major: step j moves
    every lane whose window holds a j-th step, each at its own node
    k = start[n] + j, so the loop takes as many steps as the longest window.
    step_forcing(k, lanes, values, bound) returns the forcing of those lanes
    at t_k, shape (len(lanes), dim).  lanes holds the active lanes ordered
    by node, then by index (increasing when start is shared), and k is the
    shared int node when start is an int, else each active lane's node,
    shape (len(lanes),); values is the whole array, filled through node k on
    the active lanes, and bound = L (1 + sup-norm of each active lane's
    stopped path).  Each step then checks |f| <= bound (a non-finite forcing
    fails the check; the ContractError names the first failing lane in that
    order, so the earliest node, then the lowest lane) and moves the active
    lanes with one _implicit_step_batch call, each row at its own node; an L
    below 0 is refused (DomainError) before the first step.  Returns
    (values, trace, iters, res): the node values, and per step of each
    lane's window, row j holding its step start + j, the forcings, shape
    (step, lane, dim), the Newton iterations and the step residuals, shapes
    (step, lane), zero past the lane's window.
    """
    if not np.all(L >= 0):
        raise DomainError("lipschitz_L must be >= 0")
    m, dim = len(L), values.shape[2]
    shared = np.ndim(start) == 0
    start = np.broadcast_to(np.asarray(start, dtype=int), (m,))
    length = np.broadcast_to(np.asarray(end, dtype=int), (m,)) - start
    steps = int(length.max(initial=0))
    trace = np.zeros((steps, m, dim))
    iters = np.zeros((steps, m), dtype=int)
    res = np.zeros((steps, m))
    # running max of the node norms up to t_k (np.linalg.norm over the coordinates,
    # whose bits _row_norms gives in dimension 1)
    node_norms = _row_norms if dim == 1 else lambda V: np.linalg.norm(V, axis=-1)
    node_sup = np.empty(m)
    for k0 in np.unique(start):
        held = start == k0
        node_sup[held] = np.max(node_norms(values[: k0 + 1, held]), axis=0)

    order = np.arange(m) if shared else np.argsort(start, kind="stable")  # by node, then lane
    for j in range(steps):
        lanes = order[length[order] > j]
        k = int(start[0]) + j if shared else start[lanes] + j
        t_k1 = nodes[k + 1]
        dt = t_k1 - nodes[k]
        x_k = values[k, lanes]
        cur = _row_norms(x_k)  # |x(t_k)|, the stopped sup-norm's last term
        bound = L[lanes] * (1.0 + np.maximum(node_sup[lanes], cur))
        f = step_forcing(k, lanes, values, bound)
        fmag = _row_norms(f)
        over = _over_growth_bound(fmag, bound)
        if over.size:
            lane = over[0]
            raise ContractError(f"forcing magnitude {fmag[lane]:.6e} exceeds L(1+sup) = "
                                f"{bound[lane]:.6e} at step {k if shared else k[lane]}")
        x_next, iters[j, lanes], res[j, lanes] = _drift_step(op, t_k1, dt, x_k, f, rel_tol, k)
        values[k + 1, lanes] = x_next
        node_sup[lanes] = np.maximum(node_sup[lanes], node_norms(x_next))
        trace[j, lanes] = f
    return values, trace, iters, res


# numpy's SeedSequence (a pool of four 32-bit words, hashed with these
# constants) and the multiplier of its PCG64 (O'Neill's 128-bit LCG)
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_problem(seed):
    """Why seed cannot key a random stream, or None: it must be an integer
    (a Python or numpy integer) and not below 0."""
    if not isinstance(seed, (int, np.integer)):
        return "must be an integer"
    if seed < 0:
        return "must be >= 0"
    return None


def _ragged_index(counts: np.ndarray):
    """(row, j): the index arrays of entry j < counts[row] of every row, row
    by row, for rows that hold counts[row] entries each."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)


def _words(value) -> list:
    """The little-endian 32-bit words SeedSequence takes from one integer
    entropy element (0 is one word); one below 0 is refused, as there."""
    value = int(value)
    if value < 0:
        raise DomainError(f"a stream key must be >= 0, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _pcg64_seeds(keys):
    """(state, inc) of PCG64(SeedSequence(key)).state for each key in turn,
    an integer or a sequence of integers, each at least 0, from one array
    pass.

    The keys' entropy words are mixed into SeedSequence's four-word pool in
    uint64 arrays (every product is reduced mod 2**32, as the uint32
    arithmetic of SeedSequence), words past the fourth with the extra
    mixing loop of the keys that have them; the pool's eight output words
    are PCG64's 128-bit seed and stream, whose seeding then takes two LCG
    steps, in Python integers, one key at a time.
    """
    memo, flat, lens = {}, array("Q"), array("q")  # memo: the words of each distinct element
    for key in keys:
        first = len(flat)
        for v in (key,) if isinstance(key, (int, np.integer)) else key:
            words = memo.get(v)
            if words is None:
                words = memo[v] = _words(v)
            flat.extend(words)
        lens.append(len(flat) - first)
    lens = np.frombuffer(lens, dtype=np.int64)
    entropy = np.zeros((len(lens), max(_POOL, int(lens.max(initial=0)))), dtype=np.uint64)
    entropy[_ragged_index(lens)] = np.frombuffer(flat, dtype=np.uint64)
    mask, shift = np.uint64(_MASK32), np.uint64(16)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * np.uint64(hash_const)) & mask
        return value ^ (value >> shift)

    def mix(x, y):
        result = (np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y) & mask
        return result ^ (result >> shift)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[1]):
        more = lens > src
        for dst in range(_POOL):
            pool[dst] = np.where(more, mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL):  # generate_state(4, np.uint64): eight words, the pool cycled
        value = pool[i % _POOL] ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * np.uint64(hash_const)) & mask
        out.append(value ^ (value >> shift))
    halves = ((out[2 * i] | (out[2 * i + 1] << np.uint64(32))).tolist() for i in range(4))
    for s_hi, s_lo, q_hi, q_lo in zip(*halves):
        inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
        yield (((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT) + inc) & _MASK128, inc


def _keyed_streams(keys):
    """For each key in turn, one shared Generator set to default_rng(key)'s
    fresh state: the bits of default_rng(key) without building a Generator
    per key.  A key's draws must be taken before the next key is reached."""
    rng = np.random.Generator(np.random.PCG64(0))
    seeded = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    for state, inc in _pcg64_seeds(keys):
        seeded["state"] = {"state": state, "inc": inc}
        rng.bit_generator.state = seeded
        yield rng


def _tube_draws(keys, steps, dim: int, L: np.ndarray):
    """Every tube lane's window of ball draws, taken key by key.

    Lane n draws from the stream of default_rng(keys[n]) (keys[n] None: no
    stream), which _keyed_streams gives it in one shared Generator, at each
    of its steps[n] window steps, as a one-point draw does:
    standard_normal(dim), then random() only when that direction's square is
    not 0.  A lane with L[n] = 0 has no stream and draws nothing, since its
    radius L (1 + sup-norm) is then 0 at every step; with L[n] > 0 the
    radius stays above 0.  Returns (unit, shrink, drawn), shapes
    (lane, step, dim), (lane, step) and (lane, step): each draw's direction
    / |direction| and random() ** (1/dim), and whether the step drew a point
    (else the zero point), all 0 past a lane's window.
    """
    width = int(max(steps, default=0))
    size = None if dim == 1 else dim  # standard_normal() is standard_normal(1)[0], bit for bit
    power = 1.0 / dim
    lanes = np.array([n for n, (key, lane_L) in enumerate(zip(keys, L))
                      if key is not None and lane_L > 0], dtype=int)
    # every drawing lane's window, lane by lane, as C doubles; NaN: no uniform
    normals, shrinks = array("d"), array("d")
    for n, rng in zip(lanes.tolist(), _keyed_streams([keys[n] for n in lanes])):
        normal, uniform = rng.standard_normal, rng.random
        for _ in range(steps[n]):
            direction = normal(size)
            if size is None:
                normals.append(direction)
            else:
                normals.frombytes(direction.tobytes())
            # the one-point draw's |direction| != 0: a sum of squares is 0
            # exactly when every square is, whatever the order of the sum
            square = direction * direction if size is None else direction.dot(direction)
            shrinks.append(uniform() ** power if square != 0.0 else np.nan)
    lane_of, j = _ragged_index(np.asarray(steps, dtype=int)[lanes])
    rows = (lanes[lane_of], j)
    shrink = np.zeros((len(keys), width))
    shrink[rows] = np.frombuffer(shrinks)
    drawn = np.zeros((len(keys), width), dtype=bool)
    drawn[rows] = ~np.isnan(shrink[rows])
    shrink[~drawn] = 0.0
    d = np.frombuffer(normals).reshape(-1, dim)[drawn[rows]]
    unit = np.zeros((len(keys), width, dim))
    unit[drawn] = d / _row_norms(d)[:, None]
    return unit, shrink, drawn


def _ball_points(draws, lanes: np.ndarray, rows: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """One point uniform in the ball of radius radii[i] for each lane
    lanes[i] at its window step rows[i], from the _tube_draws result draws,
    shape (len(lanes), dim): unit * radius * shrink, bit for bit the
    one-point arithmetic, and the zero point where the step drew none."""
    unit, shrink, drawn = draws
    points = unit[lanes, rows] * radii[:, None] * shrink[lanes, rows, None]
    points[~drawn[lanes, rows]] = 0.0
    return points


def sample_reachable_set(op: OperatorSpec, t0: float, x0: Path, count: int, seed: int, *,
                         lipschitz_L: float) -> list:
    """`count` solves under randomized admissible forcings, deterministic per seed.

    Each sample draws its forcing piecewise-constant, uniformly in the ball of
    radius lipschitz_L (1 + sup-norm of the stopped path) at every step, from
    its own PRNG stream default_rng([seed, sample index]), whose whole window
    of draws _tube_draws takes before the first step.  The samples are the
    lanes of one _lockstep_solve call, each step's points one _ball_points
    call.  A count below 1, or a seed that _seed_problem refuses (not an
    integer, or below 0), is refused (DomainError) before any work.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    problem = _seed_problem(seed)
    if problem is not None:
        raise DomainError(f"seed {problem}, got {seed}")
    grid = x0.grid
    k0 = grid.node_index(t0)
    L = np.full(count, float(lipschitz_L))
    draws = _tube_draws([[seed, i] for i in range(count)], [grid.n_steps - k0] * count,
                        x0.dim, L)
    lanes = np.arange(count)
    solved = _lockstep_solve(op, grid.nodes, np.repeat(x0.values[:, None, :], count, axis=1),
                             k0, grid.n_steps, L, STEP_TOL,
                             lambda k, act, values, bound: _ball_points(draws, lanes, k - k0,
                                                                        bound))
    return _reports(x0, t0, solved, FORCING_ALGORITHM)
