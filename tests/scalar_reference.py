"""Scalar loops that array programs replaced, kept verbatim as the references
the batches are checked against.

- _implicit_step: the implicit-Euler step of _implicit_step_batch.  It reads
  NEWTON_MAX_ITER from pdhj.evolution at call time, so a test that
  monkeypatches the limit changes the batch and the reference alike.
- property_battery_records: the sampled loop of pdhj.upsilon.property_battery
  (one Path per sample), with its non_anticipativity_gap.
- isaacs_samples and audit_hamiltonian_lipschitz: the Hamiltonian samples of
  the isaacs-check runner and the Lipschitz audit of pdhj.game, one
  hamiltonian call per (sample, z).
- _solve_reference, _tube_draw_reference and _sample_reference: the
  one-lane step loop of pdhj.evolution._lockstep_solve, with a forcing that
  is None, an array indexed by grid interval or a callable (t_k, stopped
  path) -> control fed through an optional game rhs; one ball draw per step
  for a tube sample; sample_reachable_set as one such solve per sample.
- _ball_point: the one-point tube draw of pdhj.evolution._ball_points.
- value_gradient: the one-state ValueTable.gradient, 2·dim scalar reads.
- _candidate_runs_reference and _char_policy: the residual candidates of
  pdhj.minimax._candidate_runs as one sequential solve per candidate, a
  characteristic aimed by value_gradient and picking its pair from one
  lane's stage terms.
- drift and stage_cost: one (p, q) entry of GameSpec.lane_terms through the
  path callbacks, with its finiteness check.
- game_audit: the growth and finiteness audit of a GameSpec on random
  paths, which no run calls.
- stop_path, sup_norm and d_infinity: the one-path forms of the padded
  kernels pdhj.pathcore.stop_paths and sup_norms, and the pseudometric on
  (t, path) pairs; path_difference, the pointwise x - y of two paths.
- path_from_csv, path_from_json_obj, path_from_json and to_json: reading
  Path.to_csv and Path.to_json_obj back, and the sorted-key JSON text of any
  object with a to_json_obj; csv_text, Path.to_csv as the csv module writes
  it.
- norm_h and pairing: the Euclidean norm of H and the Euclidean pairing of
  V* with V that StateSpace stands for.
- upsilon, penalty_psi and lyapunov_nu: the one-path surrogate, penalty and
  Lyapunov function that pdhj.upsilon._surrogate_batch, the property
  battery and FeedbackStrategy.companion_minima evaluate in batches.
- measurable_selection: the smallest-index selection rule that
  pdhj.game.minimax_records applies to every control pick.
- calibrate_step_bound and estimate_guaranteed_result: one adversary pool
  played on each partition, then reduced as the feedback-run runner reduces
  the slices of its lane set (step_rate_bound, GuaranteeEstimate.from_payoffs).
- scale_costs: a game with its running and terminal costs scaled jointly.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from pdhj import evolution
from pdhj.errors import ConfigurationError, ContractError, DomainError, EvaluationError, \
    SolverError
from pdhj.evolution import FORCING_ALGORITHM, FORCING_BOUND_TOL, STEP_TOL, OperatorSpec, \
    SolveReport, _bisect_step
from pdhj.game import FeedbackStrategy, GameSpec, GuaranteeEstimate, LipschitzReport, ValueTable, \
    _finite_cost, _finite_drift, adversary_pool, hamiltonian, is_upper_side, \
    play_feedback_games, step_rate_bound
from pdhj.pathcore import _NODE_TOL, Path, TimeGrid, _row_dots, kappa_constant, stopped_at
from pdhj.upsilon import LyapunovParams, surrogate_terms


# -- paths --------------------------------------------------------------------

def stop_path(x: Path, t: float) -> Path:
    """Freeze the path at time t: agrees with x on [t_start, t], constant x(t) after.

    If t falls strictly between grid nodes, the kink at t is not representable
    on the original grid, so t is inserted as a node; the result is then exact
    and stopping is idempotent.
    """
    x.grid.require_contains(t)
    nodes = x.grid.nodes
    xt = x.value_at(t)
    vals = x.values.copy()
    vals[nodes > t + _NODE_TOL] = xt
    candidate = Path(x.grid, vals)
    if np.linalg.norm(candidate.value_at(t) - xt) <= _NODE_TOL * (1.0 + np.linalg.norm(xt)):
        return candidate
    grid = TimeGrid.from_nodes(np.sort(np.append(nodes, t)))
    return stop_path(x.resample(grid), t)


def sup_norm(x: Path, t: float) -> float:
    """max_{s <= t} |x(s)| over grid nodes plus the interpolated value at t.

    Exact for polylines: |x(s)| is convex on each linear segment, so the
    running maximum is attained at nodes (or at t itself).
    """
    x.grid.require_contains(t)
    nodes = x.grid.nodes
    mask = nodes <= t + _NODE_TOL
    best = float(np.max(np.linalg.norm(x.values[mask], axis=1))) if np.any(mask) else 0.0
    return max(best, float(np.linalg.norm(x.value_at(t))))


def d_infinity(pair1, pair2) -> float:
    """Pseudometric |t1 - t2| + sup_s |x1(s ^ t1) - x2(s ^ t2)| for (t, path) pairs.

    Paths may live on different grids with the same span; values are compared
    on the union of both node sets plus the two stop times, which is exact for
    polylines.
    """
    t1, x1 = pair1
    t2, x2 = pair2
    g1, g2 = x1.grid, x2.grid
    if abs(g1.t_start - g2.t_start) > _NODE_TOL or abs(g1.t_end - g2.t_end) > _NODE_TOL:
        raise DomainError("paths must share the same time span")
    g1.require_contains(t1, "t1")
    g2.require_contains(t2, "t2")
    times = np.union1d(np.union1d(g1.nodes, g2.nodes), [t1, t2])
    v1 = np.array([x1.value_at(min(s, t1)) for s in times])
    v2 = np.array([x2.value_at(min(s, t2)) for s in times])
    return abs(t1 - t2) + float(np.max(np.linalg.norm(v1 - v2, axis=1)))


def path_difference(x: Path, y: Path) -> Path:
    """x - y on x's grid (y resampled there if its grid differs)."""
    if x.grid != y.grid:
        y = y.resample(x.grid)
    return Path(x.grid, x.values - y.values)


def _grid_from_nodes(nodes: np.ndarray) -> TimeGrid:
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes) - 1
    uniform = np.linspace(nodes[0], nodes[-1], n + 1)
    if np.max(np.abs(uniform - nodes)) <= _NODE_TOL * max(1.0, abs(nodes[-1])):
        return TimeGrid(float(nodes[0]), float(nodes[-1]), n)
    return TimeGrid.from_nodes(nodes)


def path_from_csv(text: str) -> Path:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][0] != "t":
        raise DomainError("path CSV must start with a 't,x_1,...' header")
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    return Path(_grid_from_nodes(data[:, 0]), data[:, 1:])


def path_from_json_obj(obj: dict) -> Path:
    if obj.get("format") != "path-v1":
        raise DomainError("not a path-v1 JSON object")
    return Path(_grid_from_nodes(np.asarray(obj["t"], dtype=float)), obj["x"])


def path_from_json(text: str) -> Path:
    return path_from_json_obj(json.loads(text))


def csv_text(x: Path) -> str:
    """Path.to_csv as the csv module writes the same rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"x_{i + 1}" for i in range(x.dim)])
    for t, row in zip(x.grid.nodes, x.values):
        writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])
    return buf.getvalue()


def to_json(obj) -> str:
    """obj.to_json_obj() as sorted-key JSON text."""
    return json.dumps(obj.to_json_obj(), sort_keys=True)


def norm_h(v) -> float:
    return float(np.linalg.norm(np.atleast_1d(v)))


def pairing(h, v) -> float:
    return float(np.dot(np.atleast_1d(h), np.atleast_1d(v)))


# -- the surrogate, the penalty and the Lyapunov function on one path ---------

@dataclass(frozen=True, eq=False)
class UpsilonEval:
    """Value and path derivatives of the sup-norm surrogate at one (t, x)."""

    value: float
    dx: np.ndarray
    dt: float = 0.0


@dataclass(frozen=True, eq=False)
class PenaltyEval:
    """Penalty of a path pair: value, the theta ratio in [0, 4], and the gradient."""

    value: float
    theta: float
    grad: np.ndarray


@dataclass(frozen=True, eq=False)
class NuEval:
    """Value and path derivatives of the Lyapunov function at one (t, x)."""

    value: float
    dt: float
    dx: np.ndarray


def _stopped_sup_sq(x: Path, t: float, cur_sq: float) -> float:
    """max of squared node norms up to t, including the interpolated value at t."""
    x.grid.require_contains(t)
    nodes = x.grid.nodes
    mask = nodes <= t + 1e-12
    best = float(np.max(np.sum(x.values[mask] ** 2, axis=1))) if np.any(mask) else 0.0
    return max(best, cur_sq)


def upsilon(t: float, x: Path) -> UpsilonEval:
    """Evaluate the surrogate at (t, x); dt is identically zero."""
    xt = x.value_at(t)
    cur_sq = float(np.dot(xt, xt))
    value, factor = surrogate_terms(_stopped_sup_sq(x, t, cur_sq), cur_sq)
    return UpsilonEval(value=value, dx=factor * xt, dt=0.0)


def penalty_psi(t: float, x: Path, y: Path) -> PenaltyEval:
    """Penalty of (x, y): surrogate of the difference path.

    theta = 4 |x(t)-y(t)|^2 / sup^2 lies in [0, 4]; the gradient is
    theta * (x(t) - y(t)).  Satisfies kappa*sup^2 <= value <= 3*sup^2.
    """
    diff = path_difference(x, y)
    dt_vec = diff.value_at(t)
    cur_sq = float(np.dot(dt_vec, dt_vec))
    value, theta = surrogate_terms(_stopped_sup_sq(diff, t, cur_sq), cur_sq)
    return PenaltyEval(value=value, theta=theta, grad=theta * dt_vec)


def lyapunov_beta(params: LyapunovParams, upsilon_value: float) -> float:
    return math.sqrt(params.epsilon ** 4 + upsilon_value)


def lyapunov_nu(params: LyapunovParams, t: float, x: Path) -> NuEval:
    """nu(t, x) = alpha(t) * sqrt(eps^4 + surrogate(t, x)) with its derivatives."""
    xt = x.value_at(t)
    cur_sq = float(np.dot(xt, xt))
    ups, factor = surrogate_terms(_stopped_sup_sq(x, t, cur_sq), cur_sq)
    alpha = params.alpha(t)
    beta = lyapunov_beta(params, ups)
    # factor = theta(t, x, 0); dx = alpha/(2 beta) * theta * x(t)
    return NuEval(value=alpha * beta, dt=params.alpha_prime(t) * beta,
                  dx=(alpha / (2.0 * beta)) * factor * xt)


def _implicit_step(op: OperatorSpec, t_next: float, dt: float, target: np.ndarray,
                   guess: np.ndarray, tol: float, step_index: int):
    """Solve g(xi) = xi + dt*A(t_next, xi) - target = 0; returns (xi, iterations, |g|)."""

    def g(xi):
        return xi + dt * op(t_next, xi) - target

    dim = len(target)
    xi = guess.astype(float).copy()
    gx = g(xi)
    iters = 0
    for _ in range(evolution.NEWTON_MAX_ITER):
        res = float(np.linalg.norm(gx))
        if res <= tol:
            return xi, iters, res
        iters += 1
        jac = np.eye(dim)
        fd = 1e-7 * (1.0 + float(np.linalg.norm(xi)))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = fd
            jac[:, j] = (g(xi + e) - gx) / fd
        try:
            step = np.linalg.solve(jac, -gx)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while lam >= 1e-6:
            trial = xi + lam * step
            gt = g(trial)
            if np.linalg.norm(gt) <= (1.0 - 0.25 * lam) * res:
                xi, gx = trial, gt
                break
            lam *= 0.5
        else:
            break
    # damped Newton stalled; safeguarded fallback
    if dim == 1:
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


def _solve_reference(op: OperatorSpec, t0: float, x0: Path, forcing=None, *, lipschitz_L: float,
                     rhs=None, forcing_algorithm: str = None) -> SolveReport:
    """The one-lane step loop of solve_delay_evolution: f is rhs(t_k, stopped
    path, control), or the control itself without rhs, where the control is
    zero for forcing None, forcing[k] for an array and forcing(t_k, stopped
    path) for a callable."""
    grid = x0.grid
    k0 = grid.node_index(t0)
    nodes = grid.nodes
    n = grid.n_steps
    dim = x0.dim

    values = x0.values.copy()
    trace = np.zeros((n - k0, dim))
    newton_total, newton_max, worst_res = 0, 0, 0.0

    for k in range(k0, n):
        t_k, t_k1 = nodes[k], nodes[k + 1]
        dt = t_k1 - t_k
        x_stop = stopped_at(grid, values, k)
        if forcing is None:
            control = np.zeros(dim)
        elif callable(forcing):
            control = forcing(t_k, x_stop)
        else:
            control = forcing[k]
        f_k = control if rhs is None else rhs(t_k, x_stop, control)
        f_k = np.atleast_1d(np.asarray(f_k, dtype=float))
        bound = lipschitz_L * (1.0 + sup_norm(x_stop, t_k))
        fmag = float(np.linalg.norm(f_k))
        if fmag > bound + FORCING_BOUND_TOL * (1.0 + bound):
            raise ContractError(
                f"forcing magnitude {fmag:.6e} exceeds L(1+sup) = {bound:.6e} at step {k}")
        target = values[k] + dt * f_k
        tol = STEP_TOL * (1.0 + float(np.linalg.norm(values[k])))
        xi, iters, res = _implicit_step(op, t_k1, dt, target, values[k], tol, k)
        values[k + 1] = xi
        trace[k - k0] = f_k
        newton_total += iters
        newton_max = max(newton_max, iters)
        worst_res = max(worst_res, res)

    return SolveReport(path=Path(grid, values), forcing_trace=trace, start_index=k0,
                       step_count=n - k0, residual_estimate=worst_res,
                       newton_total=newton_total, newton_max=newton_max,
                       forcing_algorithm=forcing_algorithm)


def _tube_draw_reference(lipschitz_L: float, dim: int, seed: int, i: int):
    """The per-sample forcing of the sequential sample_reachable_set."""
    rng = np.random.default_rng([seed, i])

    def draw(t_k, x_stop):
        return _ball_point(rng, dim, lipschitz_L * (1.0 + sup_norm(x_stop, t_k)))
    return draw


def _sample_reference(op: OperatorSpec, t0: float, x0: Path, count: int, seed: int, *,
                      lipschitz_L: float) -> list:
    """sample_reachable_set as one sequential solve per sample."""
    return [_solve_reference(op, t0, x0, _tube_draw_reference(lipschitz_L, x0.dim, seed, i),
                             lipschitz_L=lipschitz_L, forcing_algorithm=FORCING_ALGORITHM)
            for i in range(count)]


def non_anticipativity_gap(t: float, x: Path) -> float:
    """|surrogate(t, x) - surrogate(t, stopped x)| -- zero by construction."""
    return abs(upsilon(t, x).value - upsilon(t, stop_path(x, t)).value)


def property_battery_records(samples: int = 500, seed: int = 0) -> list:
    """The sampled records of property_battery: sandwich bounds through
    non-anticipativity (the chain-rule records are not sampled)."""
    rng = np.random.default_rng(seed)
    kappa = kappa_constant()
    checks = []

    worst_low, worst_high = np.inf, -np.inf
    theta_min, theta_max = np.inf, -np.inf
    grad_excess = -np.inf
    dt_nonzero = 0
    na_gap = 0.0
    for _ in range(samples):
        n = int(rng.integers(4, 20))
        grid = TimeGrid(0.0, 1.0, n)
        dim = int(rng.integers(1, 4))
        x = Path(grid, rng.standard_normal((n + 1, dim)))
        y = Path(grid, rng.standard_normal((n + 1, dim)))
        t = rng.uniform(0.0, 1.0)
        pe = penalty_psi(t, x, y)
        s2 = sup_norm(path_difference(x, y), t) ** 2
        if s2 > 0:
            worst_low = min(worst_low, pe.value - kappa * s2)
            worst_high = max(worst_high, pe.value - 3.0 * s2)
        theta_min = min(theta_min, pe.theta)
        theta_max = max(theta_max, pe.theta)
        ev = upsilon(t, x)
        bound = 4.0 * float(np.linalg.norm(x.value_at(t)))
        grad_excess = max(grad_excess, float(np.linalg.norm(ev.dx)) - bound * (1.0 + 1e-12))
        dt_nonzero += ev.dt != 0.0
        na_gap = max(na_gap, non_anticipativity_gap(t, x))

    checks.append({"name": "sandwich-lower", "value": float(worst_low),
                   "passed": worst_low >= -1e-10})
    checks.append({"name": "sandwich-upper", "value": float(worst_high),
                   "passed": worst_high <= 1e-10})
    checks.append({"name": "theta-range", "value": [float(theta_min), float(theta_max)],
                   "passed": 0.0 <= theta_min and theta_max <= 4.0})
    checks.append({"name": "gradient-bound", "value": float(grad_excess),
                   "passed": grad_excess <= 0.0})
    checks.append({"name": "dt-zero", "value": int(dt_nonzero), "passed": dt_nonzero == 0})
    checks.append({"name": "non-anticipativity", "value": float(na_gap),
                   "passed": na_gap <= 1e-12})
    return checks


def isaacs_samples(spec: GameSpec, samples: int, seed: int):
    """(max_isaacs_gap, order_violations) of the isaacs-check runner."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, 8)
    dim = spec.dyn.op.space.dim
    worst_gap, violations = 0.0, 0
    for _ in range(samples):
        x = Path(grid, rng.standard_normal((9, dim)))
        z = rng.standard_normal(dim)
        ev = hamiltonian(spec, float(rng.choice(grid.nodes)), x, z)
        worst_gap = max(worst_gap, ev.isaacs_gap)
        violations += ev.isaacs_gap < -1e-12
    return worst_gap, int(violations)


def audit_hamiltonian_lipschitz(spec: GameSpec, samples: int, seed: int) -> LipschitzReport:
    """Max of |F(z1) - F(z2)| / ((1 + sup)|z1 - z2|) over both Hamiltonians."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    dim = spec.dyn.op.space.dim
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(4, 10))
        grid = TimeGrid(0.0, 1.0, n)
        x = Path(grid, rng.standard_normal((n + 1, dim)) * rng.choice([0.3, 1.0, 2.0]))
        t = float(rng.choice(grid.nodes))
        z1 = rng.standard_normal(dim) * rng.choice([0.5, 2.0])
        z2 = rng.standard_normal(dim) * rng.choice([0.5, 2.0])
        dz = float(np.linalg.norm(z1 - z2))
        if dz < 1e-12:
            continue
        h1 = hamiltonian(spec, t, x, z1)
        h2 = hamiltonian(spec, t, x, z2)
        scale = (1.0 + sup_norm(x, t)) * dz
        worst = max(worst,
                    abs(h1.f_minus - h2.f_minus) / scale,
                    abs(h1.f_plus - h2.f_plus) / scale)
    return LipschitzReport(samples=samples, seed=seed, max_ratio=worst, bound=spec.l_f,
                           flagged=worst > spec.l_f + 1e-9)


def _ball_point(rng, dim: int, radius: float) -> np.ndarray:
    if radius <= 0.0:
        return np.zeros(dim)
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return np.zeros(dim)
    return direction / norm * radius * rng.uniform() ** (1.0 / dim)


def value_gradient(table: ValueTable, side: str, t: float, state) -> np.ndarray:
    """Central-difference lattice gradient of the value at (t, state)."""
    state = np.atleast_1d(np.asarray(state, dtype=float))
    g = np.zeros(table.lattice.dim)
    for d in range(table.lattice.dim):
        h = table.lattice.spacing[d]
        up = state.copy()
        dn = state.copy()
        up[d] = min(up[d] + h, table.lattice.hi[d])
        dn[d] = max(dn[d] - h, table.lattice.lo[d])
        if up[d] - dn[d] < 1e-300:
            continue
        g[d] = (table.interp(side, t, up) - table.interp(side, t, dn)) / (up[d] - dn[d])
    return g


def _char_policy(spec: GameSpec, table: ValueTable, side: str, role: str, z):
    """Feedback control selector realizing a characteristic trajectory.

    For the upper Hamiltonian (min over p of max over q), the supersolution
    characteristic commits p along the value gradient and lets q answer the
    test direction z; the subsolution characteristic swaps the two roles.
    The lower Hamiltonian mirrors this with q committing first.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    upper = is_upper_side(side)

    def policy(t, x_stop):
        zhat = value_gradient(table, side, t, x_stop.value_at(t))
        drift, cost = spec.stage_terms(t, x_stop)  # both matrices from one lane_terms call
        M_test, M_grad = cost + _row_dots(drift, z), cost + _row_dots(drift, zhat)
        if upper:
            commit, answer = (M_grad, M_test) if role == "super" else (M_test, M_grad)
            i = int(np.argmin(commit.max(axis=1)))
            j = int(np.argmax(answer[i, :]))
        else:
            commit, answer = (M_test, M_grad) if role == "super" else (M_grad, M_test)
            j = int(np.argmax(commit.min(axis=0)))
            i = int(np.argmin(answer[:, j]))
        return (spec.controls.p_points[i], spec.controls.q_points[j])

    return policy


def _candidate_runs_reference(spec: GameSpec, table: ValueTable, side: str, t0: float,
                              hist: Path, z, budget: int, seed: int) -> list:
    """(label, SolveReport) candidates, one sequential solve each: the constant
    pairs, the two characteristics and the random tube draws."""
    dyn = spec.dyn
    runs = []
    for i, p in enumerate(spec.controls.p_points):
        for j, q in enumerate(spec.controls.q_points):
            rep = _solve_reference(dyn.op, t0, hist, lambda t, x, pq=(p, q): pq,
                                   lipschitz_L=dyn.lipschitz_L, rhs=dyn.rhs)
            runs.append((f"constant[p{i},q{j}]", rep))
    for role in ("super", "sub"):
        rep = _solve_reference(dyn.op, t0, hist, _char_policy(spec, table, side, role, z),
                               lipschitz_L=dyn.lipschitz_L, rhs=dyn.rhs)
        runs.append((f"characteristic[{role}]", rep))
    n_random = max(0, budget - len(runs))
    if n_random > 0:
        for i, rep in enumerate(_sample_reference(dyn.op, t0, hist, n_random, seed,
                                                  lipschitz_L=spec.l_f)):
            runs.append((f"random[{i}]", rep))
    return runs


def drift(spec: GameSpec, t: float, x: Path, p, q) -> np.ndarray:
    """The drift of the control pair (p, q) at (t, x) from the game's rhs."""
    return _finite_drift(np.atleast_1d(np.asarray(spec.dyn.rhs(t, x, (p, q)), dtype=float)),
                         t, p, q)


def stage_cost(spec: GameSpec, t: float, x: Path, p, q) -> float:
    """The running cost of the control pair (p, q) at (t, x)."""
    return _finite_cost(float(spec.running_cost(t, x, p, q)), t, p, q)


def game_audit(spec: GameSpec, samples: int, seed: int) -> dict:
    """Check |f| <= l_f (1 + sup) and finiteness of costs on random inputs."""
    rng = np.random.default_rng(seed)
    dim = spec.dyn.op.space.dim
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(4, 12))
        grid = TimeGrid(0.0, 1.0, n)
        x = Path(grid, rng.standard_normal((n + 1, dim)) * rng.choice([0.3, 1.0, 3.0]))
        t = float(rng.choice(grid.nodes))
        p = spec.controls.p_points[rng.integers(spec.controls.n_p)]
        q = spec.controls.q_points[rng.integers(spec.controls.n_q)]
        f = drift(spec, t, x, p, q)
        stage_cost(spec, t, x, p, q)
        spec.final_cost(x)
        worst = max(worst, float(np.linalg.norm(f)) / (spec.l_f * (1.0 + sup_norm(x, t)) + 1e-300))
    return {"samples": samples, "seed": seed, "max_growth_ratio": worst,
            "passed": worst <= 1.0 + 1e-9}


# -- games ----------------------------------------------------------------------

def measurable_selection(h_grid: np.ndarray, epsilon: float) -> np.ndarray:
    """Smallest-index selection of a near-maximizing column per row.

    For each row p, picks the first index n with h[p, n] = max_m h[p, m]; on
    finite grids the epsilon slack is unused (the maximum is attained exactly),
    but epsilon > 0 is required to match the selection's contract.  A
    minimizing pick is the selection on the negated rows.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    H = np.asarray(h_grid, dtype=float)
    if H.ndim != 2:
        raise DomainError("h_grid must be a 2-D matrix over P x Q")
    if not np.all(np.isfinite(H)):
        raise EvaluationError("h_grid contains non-finite entries")
    row_max = H.max(axis=1)
    return np.argmax(H == row_max[:, None], axis=1)


def calibrate_step_bound(spec: GameSpec, strategy: FeedbackStrategy, partitions,
                         calibration_budget: int, seed: int) -> float:
    """step_rate_bound of a calibration adversary pool played on each partition."""
    pool = adversary_pool(spec, strategy.value, calibration_budget, seed)
    return step_rate_bound([play_feedback_games(spec, strategy, pool, partition)
                            for partition in partitions])


def estimate_guaranteed_result(spec: GameSpec, strategy: FeedbackStrategy,
                               t0: float, x0: Path, adversary_budget: int,
                               partitions, *, seed: int = 0) -> GuaranteeEstimate:
    """Max payoff over the sampled adversary pool and the listed partitions:
    GuaranteeEstimate.from_payoffs of the pool played on each partition."""
    if abs(strategy.t0 - t0) > 1e-9:
        raise ConfigurationError(
            f"strategy was built for t0={strategy.t0}, estimate asked for t0={t0}")
    if np.linalg.norm(strategy.x0.value_at(t0) - x0.value_at(min(t0, x0.grid.t_end))) > 1e-9:
        raise ConfigurationError("strategy history does not match the requested start state")
    pool = adversary_pool(spec, strategy.value, adversary_budget, seed)
    return GuaranteeEstimate.from_payoffs(
        pool, partitions, [play_feedback_games(spec, strategy, pool, p).payoff for p in partitions],
        adversary_budget, seed)


def scale_costs(spec: GameSpec, factor: float) -> GameSpec:
    """Multiply running and terminal costs jointly by a positive factor."""
    markov = None
    if spec.markov_terms is not None:
        def markov(t, states, P, Q):
            drift, cost = spec.markov_terms(t, states, P, Q)
            return drift, factor * cost
    return replace(spec,
                   running_cost=lambda t, x, p, q: factor * spec.running_cost(t, x, p, q),
                   terminal_cost=lambda x: factor * spec.terminal_cost(x),
                   lambda_L=spec.lambda_L * max(factor, 1e-12),
                   name=f"{spec.name}-x{factor:g}", markov_terms=markov)
