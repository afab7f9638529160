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
- _ball_point: the one-point tube draw of pdhj.evolution._ball_points,
  whose draws pdhj.evolution._tube_draws takes a whole window at a time.
- newton_steps_solve: the Newton step of pdhj.evolution._newton_steps by
  np.linalg.solve in every dimension (its dimension-1 quotient is checked
  against it).
- audit_hypotheses_reference: the one-sample loop of
  pdhj.evolution.audit_hypotheses, one operator call per sample and side.
- value_gradient: the one-state ValueTable.gradient, 2·dim scalar reads.
- _dp_slice and dp_value_reference: one backward DP step of both sides as
  its own array program (its stage terms, its probe, its implicit step and
  one table read), and the recursion as one such step per slice: the
  per-slice program that pdhj.game.dp_values splits into a dynamics phase
  shared by every slice and a per-slice recursion; recompute_slice: one
  backward DP step redone from a table's next node, the bit-exact check of
  the dynamic programming principle.
- _candidate_runs_reference and _char_policy: the residual candidates of
  pdhj.minimax._candidate_runs as one sequential solve per candidate, a
  characteristic aimed by value_gradient and picking its pair from one
  lane's stage terms.
- callback_game: a GameSpec whose stage and terminal functions sweep
  per-pair path callbacks (rhs, running_cost, terminal_cost), one lane and
  one control pair at a time; reference_game, a built-in game in that
  form, each formula written once more per control pair and per path: the
  reference the built-ins' stage and terminal functions are checked
  against; planar_game, a dim-2 test game in either form.
- drift and stage_cost: one (p, q) entry of a game's stage terms at one lane,
  from its stage function on the one-pair grid, with the finiteness checks
  _finite_drift and _finite_cost; stage_matrix, cost + (f, z) of one lane
  over the full control grid, one pair at a time.
- game_audit: the growth and finiteness audit of a GameSpec on random
  paths, which no run calls.
- stop_path, sup_norm and d_infinity: the one-path forms of the padded
  kernels pdhj.pathcore.stop_paths and stopped_sup_sq, and the pseudometric on
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
- carried_tables, calibrate_step_bound and estimate_guaranteed_result: one
  adversary pool played on the partitions in turn (one q table over their
  cells, split by rows), then reduced as the feedback-run runner reduces the
  slices of its lane set (step_rate_bound, GuaranteeEstimate.from_payoffs).
- constant_adversary, random_adversary and greedy_reference: the lanes of an
  adversary_pool q table as the callables they replaced, policies (t,
  path_of, p_index) -> q index called once per cell; a random one draws one
  integers(n_q) per call from a generator carried across calls, the greedy
  one steps and reads the table once per q (refusing a q whose drift breaks
  l_f (1 + sup-norm), as the greedy lookahead does).  reference_pool lists
  them in adversary_pool's order.
- run_feedback_game_reference and companion_minimum_reference: one game
  against one such policy with its own scalar step loop (which refuses a
  drift above l_f (1 + sup-norm) as _solve_reference does), and the one-game
  companion minimum it aims by, one kind after another over the lattice
  points and strategy.library, a probe or library end off the lattice
  dropped: the reference every lane of play_feedback_games is checked
  against, bit for bit.
- scale_costs: a game with its running and terminal costs scaled jointly.
"""

import csv
import inspect
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from pdhj import evolution
from pdhj.errors import AuditError, ConfigurationError, ContractError, DomainError, \
    EvaluationError, LatticeCoverageError, SolverError
from pdhj.evolution import FORCING_ALGORITHM, FORCING_BOUND_TOL, MONOTONICITY_TOL, \
    STEP_SOLVE_TOL, STEP_TOL, AuditReport, OperatorSpec, SolveReport, _bisect_step, _drift_step, \
    make_linear_operator
from pdhj.game import COMPANION_KINDS, COVERAGE_TOL, ControlGrid, \
    FeedbackPlay, FeedbackStrategy, GameSpec, GuaranteeEstimate, LipschitzReport, \
    StateLattice, ValueTable, _lift_paths, _PathReads, _require_markov, adversary_pool, \
    bilinear_game, constant_game, hamiltonian, is_upper_side, isaacs_game, \
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


def newton_steps_solve(jac: np.ndarray, gx: np.ndarray):
    """(step, ok) of pdhj.evolution._newton_steps by np.linalg.solve alone:
    one call for the batch, then, if it finds a singular matrix, one per row."""
    ok = np.ones(len(gx), dtype=bool)
    try:
        return np.linalg.solve(jac, -gx[:, :, None])[:, :, 0], ok
    except np.linalg.LinAlgError:
        step = np.zeros_like(gx)
        for n in range(len(gx)):
            try:
                step[n] = np.linalg.solve(jac[n], -gx[n])
            except np.linalg.LinAlgError:
                ok[n] = False
        return step, ok


def audit_hypotheses_reference(op: OperatorSpec, samples: int, seed: int) -> AuditReport:
    """audit_hypotheses as one loop over the samples, drawing and evaluating
    each in turn with Generator.uniform and Generator.choice."""
    rng = np.random.default_rng(seed)
    p = op.space.p_exp
    mono_min, coer_min, bound_max = np.inf, np.inf, 0.0
    for _ in range(samples):
        t = rng.uniform(0.0, 1.0)
        scale = rng.choice([0.05, 0.5, 1.0, 5.0])
        x = rng.standard_normal(op.space.dim) * scale
        y = rng.standard_normal(op.space.dim) * scale
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
    dim = spec.op.space.dim
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
    dim = spec.op.space.dim
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


def _dp_slice(spec: GameSpec, grid: TimeGrid, lattice: StateLattice, k: int,
              next_values: np.ndarray, lifts) -> np.ndarray:
    """One backward step of both sides: node k's values from next_values,
    the next node's lower and upper values stacked on a last axis (shape
    lattice.shape + (2,)), returned in the same shape.

    The slice is one array program over its (point, p, q) cells: one
    lane_terms call over every lattice point (lane n's path is lifts[n]),
    one batched implicit step, one interpolate_batch call that reads both
    sides, and the min/max as axis reductions.  At node k > 0 a game whose
    stage function called path_of is probed by _require_markov.  Its phases
    are the stage terms, the probe, the implicit step and the table read,
    and a successor off the lattice names the cell with the largest margin
    (the first such cell on ties), found in the margins the refused read
    carries.  It checks no growth bound.
    """
    t_k, t_k1 = grid.nodes[k:k + 2]
    dt = t_k1 - t_k
    controls = spec.controls
    points = lattice.points()
    n_points, dim = points.shape
    cells = (n_points, controls.n_p, controls.n_q)
    reads = _PathReads(lifts)
    drift, cost = spec.lane_terms(t_k, points, reads)
    if reads.called and k > 0:
        _require_markov(spec, grid, k, points, (drift, cost))
    starts = np.broadcast_to(points[:, None, None, :], drift.shape).reshape(-1, dim)
    succ, _, _ = _drift_step(spec.op, t_k1, dt, starts, drift.reshape(-1, dim),
                             STEP_SOLVE_TOL, k)
    try:
        read = lattice.interpolate_batch(next_values, succ)
    except LatticeCoverageError as refused:
        idx, i, j = np.unravel_index(int(np.argmax(refused.margins)), cells)
        raise LatticeCoverageError(
            f"successor left the lattice at time index {k} (state {points[idx]}, "
            f"p={controls.p_points[i]!r}, q={controls.q_points[j]!r}): {refused}",
            margin=refused.margin) from None
    obj = (dt * cost)[..., None] + read.reshape(cells + (2,))
    # lower: the maximizer commits first, max over q of min over p; upper: the
    # minimizer commits first, min over p of max over q
    return np.stack([obj[..., 0].min(axis=1).max(axis=1), obj[..., 1].max(axis=2).min(axis=1)],
                    axis=-1).reshape(lattice.shape + (2,))


def dp_value_reference(spec: GameSpec, grid: TimeGrid, lattice: StateLattice) -> ValueTable:
    """The backward recursion as one _dp_slice call per slice, k = n_steps - 1
    first, from the terminal cost at the lattice points."""
    lifts = _lift_paths(lattice, grid)
    values = np.empty((grid.n_steps + 1,) + lattice.shape + (2,))
    values[-1] = spec.final_costs(lattice.points(), lifts.__getitem__).reshape(
        lattice.shape)[..., None]
    for k in range(grid.n_steps - 1, -1, -1):
        values[k] = _dp_slice(spec, grid, lattice, k, values[k + 1], lifts)
    return ValueTable(grid=grid, lattice=lattice, v_minus=values[..., 0].copy(),
                      v_plus=values[..., 1].copy())


def recompute_slice(table: ValueTable, spec: GameSpec, k: int, side: str) -> np.ndarray:
    """Redo the backward step at time index k from slice k+1 of both sides and
    return the named side's slice; an unknown side is refused (DomainError)."""
    upper = is_upper_side(side)
    next_values = np.stack([table.v_minus[k + 1], table.v_plus[k + 1]], axis=-1)
    both = _dp_slice(spec, table.grid, table.lattice, k, next_values,
                     _lift_paths(table.lattice, table.grid))
    return both[..., int(upper)]


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
        drift, cost = spec.lane_terms(t, x_stop.value_at(t)[None], lambda _: x_stop)
        M_test, M_grad = cost[0] + _row_dots(drift[0], z), cost[0] + _row_dots(drift[0], zhat)
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
    runs = []
    for i, p in enumerate(spec.controls.p_points):
        for j, q in enumerate(spec.controls.q_points):
            rep = _solve_reference(spec.op, t0, hist, lambda t, x, pq=(p, q): pq,
                                   lipschitz_L=spec.l_f, rhs=_pair_rhs(spec))
            runs.append((f"constant[p{i},q{j}]", rep))
    for role in ("super", "sub"):
        rep = _solve_reference(spec.op, t0, hist, _char_policy(spec, table, side, role, z),
                               lipschitz_L=spec.l_f, rhs=_pair_rhs(spec))
        runs.append((f"characteristic[{role}]", rep))
    n_random = max(0, budget - len(runs))
    if n_random > 0:
        for i, rep in enumerate(_sample_reference(spec.op, t0, hist, n_random, seed,
                                                  lipschitz_L=spec.l_f)):
            runs.append((f"random[{i}]", rep))
    return runs


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


def _pair_terms(spec: GameSpec, t: float, x: Path, p, q):
    """(drift, cost) of the control pair (p, q) at (t, x): the game's stage
    function on the one lane x and the one-pair grid."""
    f, c = spec.stage(t, x.value_at(t)[None], lambda _: x, np.array([p], dtype=float),
                      np.array([q], dtype=float))
    return np.asarray(f, dtype=float)[0, 0, 0], float(np.asarray(c)[0, 0, 0])


def drift(spec: GameSpec, t: float, x: Path, p, q) -> np.ndarray:
    """The drift of the control pair (p, q) at (t, x)."""
    return _finite_drift(_pair_terms(spec, t, x, p, q)[0], t, p, q)


def stage_cost(spec: GameSpec, t: float, x: Path, p, q) -> float:
    """The running cost of the control pair (p, q) at (t, x)."""
    return _finite_cost(_pair_terms(spec, t, x, p, q)[1], t, p, q)


def _pair_rhs(spec: GameSpec):
    """The game's drift as an rhs(t, stopped path, (p, q)) of _solve_reference."""
    return lambda t, x, u: drift(spec, t, x, *u)


def stage_matrix(spec: GameSpec, t: float, x: Path, z) -> np.ndarray:
    """M[i, j] = cost(p_i, q_j) + (f(p_i, q_j), z) over the full control grid,
    one cost and one drift call per (p, q)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    M = np.empty((spec.controls.n_p, spec.controls.n_q))
    for i, p in enumerate(spec.controls.p_points):
        for j, q in enumerate(spec.controls.q_points):
            M[i, j] = stage_cost(spec, t, x, p, q) + float(drift(spec, t, x, p, q) @ z)
    return M


def game_audit(spec: GameSpec, samples: int, seed: int) -> dict:
    """Check |f| <= l_f (1 + sup) and finiteness of costs on random inputs."""
    rng = np.random.default_rng(seed)
    dim = spec.op.space.dim
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
        spec.final_costs(x.values[-1][None], lambda _: x)
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


def carried_tables(n_q: int, budget: int, seed: int, partitions):
    """adversary_pool played on the partitions in turn: (labels, one q table
    per partition), the rows of one table over all their cells."""
    cells = [partition.n_steps for partition in partitions]
    labels, q = adversary_pool(n_q, budget, seed, sum(cells))
    return labels, np.split(q, np.cumsum(cells)[:-1])


def calibrate_step_bound(spec: GameSpec, strategy: FeedbackStrategy, partitions,
                         calibration_budget: int, seed: int) -> float:
    """step_rate_bound of a calibration adversary pool played on each partition."""
    _, tables = carried_tables(spec.controls.n_q, calibration_budget, seed, partitions)
    return step_rate_bound(play_feedback_games(strategy, partitions, tables))


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
    labels, tables = carried_tables(spec.controls.n_q, adversary_budget, seed, partitions)
    return GuaranteeEstimate.from_payoffs(
        labels, partitions,
        [play.payoff for play in play_feedback_games(strategy, partitions, tables)],
        adversary_budget, seed)


# -- adversaries as per-cell policies, and the one-game loop that plays them ----

def constant_adversary(q_index: int):
    """The constant[j] lane of a q table as a policy (t, path_of, p_index) -> q."""
    def policy(t, path_of, p_index):
        return q_index
    return policy


def random_adversary(seed: int, n_q: int):
    """The random[s] lane as a policy: one integers(n_q) per call, from a
    generator of its own that one call carries to the next, and so from one
    partition to the next."""
    rng = np.random.default_rng(seed)

    def policy(t, path_of, p_index):
        return int(rng.integers(n_q))
    return policy


def greedy_reference(spec: GameSpec, value: ValueTable):
    """The greedy lookahead as a policy: one implicit step and one table read
    per q, the path_of() path's state at t as the start; a q whose drift
    breaks l_f (1 + sup-norm) raises ContractError before its step."""

    def policy(t, path_of, p_index):
        x = path_of()
        p = spec.controls.p_points[p_index]
        dt = min(value.grid.mesh, value.grid.t_end - t)
        state = x.value_at(t)
        k = x.grid.node_index(t)
        best_j, best_val = 0, -np.inf
        bound = spec.l_f * (1.0 + sup_norm(x, t))
        for j, q in enumerate(spec.controls.q_points):
            f = drift(spec, t, x, p, q)
            fmag = float(np.linalg.norm(f))
            if fmag > bound + FORCING_BOUND_TOL * (1.0 + bound):
                raise ContractError(f"forcing magnitude {fmag:.6e} exceeds L(1+sup) = "
                                    f"{bound:.6e} at step {k}")
            target = state + dt * f
            tol = STEP_SOLVE_TOL * (1.0 + float(np.linalg.norm(state)))
            succ, _, _ = _implicit_step(spec.op, t + dt, dt, target, state, tol, k)
            val = dt * stage_cost(spec, t, x, p, q) + value.interp("upper", t + dt, succ)
            if val > best_val + 1e-15:
                best_j, best_val = j, val
        return best_j
    return policy


def reference_pool(spec: GameSpec, value: ValueTable, budget: int, seed: int) -> list:
    """adversary_pool's lanes as policies, in its order."""
    n_q = spec.controls.n_q
    pool = [constant_adversary(j) for j in range(n_q)] + [greedy_reference(spec, value)]
    pool += [random_adversary(seed + i, n_q) for i in range(max(budget - n_q - 1, 0))]
    return pool[:budget]


def _probe_candidates_reference(strategy: FeedbackStrategy, t: float, state: np.ndarray):
    """The one-state probe read: (kept indices, offsets, values)."""
    offsets = strategy._probe_offsets(t, len(state))
    probes = state - offsets
    kept = np.flatnonzero(strategy.value.lattice.coverage_margins(probes) <= COVERAGE_TOL)
    u_vals = strategy.value.interp_batch("upper", t, probes[kept]) if kept.size \
        else np.empty(0)
    return kept.tolist(), offsets[kept], u_vals


def companion_minimum_reference(strategy: FeedbackStrategy, t: float, x: Path):
    """The one-game companion minimum that companion_minima replaced."""
    k = x.grid.node_index(t)
    X = x.values[: k + 1]
    alpha = strategy.params.alpha(t)
    eps4 = strategy.params.epsilon ** 4
    trace_state = X[-1]
    best = (float(strategy.value.interp("upper", t, trace_state) + alpha * np.sqrt(eps4)),
            "trace", 0, np.zeros(x.dim))

    def consider(kind, indices, diffs, u_vals):
        nonlocal best
        sq = np.sum(diffs ** 2, axis=2)
        ups, factor = surrogate_terms(sq.max(axis=0), sq[-1])
        beta = np.sqrt(eps4 + ups)
        total = u_vals + alpha * beta
        i = int(np.argmin(total))
        if total[i] < best[0]:
            best = (float(total[i]), kind, indices[i],
                    (alpha / (2.0 * beta[i])) * factor[i] * diffs[-1, i])

    kept, offsets, u_vals = _probe_candidates_reference(strategy, t, trace_state)
    if kept:
        consider("probe", kept, offsets[None, :, :], u_vals)
    points = strategy.value.lattice.points()
    consider("lattice", range(len(points)), X[:, None, :] - points[None, :, :],
             strategy.value.interp_batch("upper", t, points))
    # a library sample whose end lies off the lattice has no upper value: dropped
    kept = [i for i, y in enumerate(strategy.library)
            if strategy.value.lattice.coverage_margins(y.values[k][None])[0] <= COVERAGE_TOL]
    if kept:
        lib = np.stack([strategy.library[i].values[: k + 1] for i in kept], axis=1)
        consider("library", kept, X[:, None, :] - lib,
                 strategy.value.interp_batch("upper", t, lib[-1]))
    return best


def run_feedback_game_reference(spec: GameSpec, strategy: FeedbackStrategy, adversary,
                                partition: TimeGrid) -> FeedbackPlay:
    """One game of spec against the policy adversary on one partition, with
    its own scalar step loop, as the one-game FeedbackPlay record: the
    reference every lane of play_feedback_games is checked against."""
    inner = strategy.x0.grid
    nodes = inner.nodes
    values = strategy.x0.values.copy()
    part_nodes = partition.nodes
    p_indices, q_indices, records = [], [], []
    running = 0.0
    x_now = stopped_at(inner, values, inner.node_index(part_nodes[0]))
    companion = companion_minimum_reference(strategy, part_nodes[0], x_now)
    for i in range(partition.n_steps):
        t_i, t_i1 = part_nodes[i], part_nodes[i + 1]
        ka, kb = inner.node_index(t_i), inner.node_index(t_i1)
        p_idx = int(np.argmin(stage_matrix(spec, t_i, x_now, companion[3]).max(axis=1)))
        q_idx = int(adversary(t_i, lambda: x_now, p_idx))
        p = spec.controls.p_points[p_idx]
        q = spec.controls.q_points[q_idx]
        step_cost = 0.0
        for k in range(ka, kb):
            dt = nodes[k + 1] - nodes[k]
            x_stop = stopped_at(inner, values, k)
            f = drift(spec, nodes[k], x_stop, p, q)
            step_cost += dt * stage_cost(spec, nodes[k], x_stop, p, q)
            bound = spec.l_f * (1.0 + sup_norm(x_stop, nodes[k]))
            fmag = float(np.linalg.norm(f))
            if fmag > bound + FORCING_BOUND_TOL * (1.0 + bound):
                raise ContractError(
                    f"forcing magnitude {fmag:.6e} exceeds L(1+sup) = {bound:.6e} at step {k}")
            target = values[k] + dt * f
            tol = STEP_SOLVE_TOL * (1.0 + float(np.linalg.norm(values[k])))
            values[k + 1], _, _ = _implicit_step(spec.op, nodes[k + 1], dt,
                                                 target, values[k], tol, k)
        running += step_cost
        x_next = stopped_at(inner, values, kb)
        after = companion_minimum_reference(strategy, t_i1, x_next)
        records.append({
            "step_cost": step_cost,
            "u_shifted_before": companion[0],
            "u_shifted_after": after[0],
            "companion_kind": companion[1],
            "companion_index": companion[2],
        })
        x_now, companion = x_next, after
        p_indices.append(p_idx)
        q_indices.append(q_idx)
    final_path = Path(inner, values)

    def column(key):
        return np.array([rec[key] for rec in records])[:, None]

    return FeedbackPlay(partition=partition, p=np.array(p_indices)[:, None],
                        q=np.array(q_indices)[:, None], step_cost=column("step_cost"),
                        u=np.array([rec["u_shifted_before"] for rec in records]
                                   + [records[-1]["u_shifted_after"]])[:, None],
                        kind=np.array([COMPANION_KINDS.index(rec["companion_kind"])
                                       for rec in records])[:, None],
                        index=column("companion_index"), values=values[:, None, :],
                        running=np.array([running]),
                        terminal=spec.final_costs(values[-1][None], lambda _: final_path))


def scale_costs(spec: GameSpec, factor: float) -> GameSpec:
    """Multiply running and terminal costs jointly by a positive factor."""
    def stage(t, states, path_of, P, Q):
        drift, cost = spec.stage(t, states, path_of, P, Q)
        return drift, factor * cost
    return replace(spec, stage=stage,
                   terminal=lambda states, path_of: factor * spec.terminal(states, path_of),
                   lambda_L=spec.lambda_L * max(factor, 1e-12), name=f"{spec.name}-x{factor:g}")


# -- games in their callback form ----------------------------------------------

def callback_game(op: OperatorSpec, rhs, running_cost, terminal_cost, controls, l_f: float,
                  lambda_L: float, name: str = "game") -> GameSpec:
    """A GameSpec that reads its lanes' paths, from per-pair callbacks.

    rhs(t, stopped path, (p, q)) gives the drift and running_cost(t, stopped
    path, p, q) the running cost of one control pair; the stage function
    calls path_of once per lane and then both callbacks per (p, q) pair of
    the grid it is given, in (p, q) order, the drift first.
    terminal_cost(path) gives one lane's terminal cost from its full path.
    The finiteness checks are GameSpec.lane_terms's and final_costs's.
    """
    def stage(t, states, path_of, P, Q):
        drift = np.empty((len(states), len(P), len(Q), states.shape[1]))
        cost = np.empty(drift.shape[:-1])
        for n in range(len(states)):
            x = path_of(n)
            for i, p in enumerate(P.tolist()):
                for j, q in enumerate(Q.tolist()):
                    drift[n, i, j] = rhs(t, x, (p, q))
                    cost[n, i, j] = running_cost(t, x, p, q)
        return drift, cost

    def terminal(states, path_of):
        return np.array([float(terminal_cost(path_of(n))) for n in range(len(states))])

    return GameSpec(op=op, stage=stage, terminal=terminal, controls=controls, l_f=l_f,
                    lambda_L=lambda_L, name=name)


def _bilinear_callbacks(scale, **_):
    return (lambda t, x, u: np.array([scale * u[0] * u[1]]), lambda t, x, p, q: 0.0,
            lambda x: float(np.linalg.norm(x.values[-1])))


def _isaacs_callbacks(scale, cost_weight, **_):
    def running(t, x, p, q):
        xt = x.value_at(t)
        return cost_weight * float(np.dot(xt, xt))

    return (lambda t, x, u: np.array([scale * (float(u[0]) + float(u[1]))]), running,
            lambda x: float(np.dot(x.values[-1], x.values[-1])))


def _constant_callbacks(cost, **_):
    return lambda t, x, u: np.zeros(1), lambda t, x, p, q: cost, lambda x: 0.0


def planar_game(callbacks: bool = False) -> GameSpec:
    """A dim-2 test game: drift 0.4 (p, q), running cost 0.05 |x(t)|^2 +
    0.1 p q and terminal cost |x(T)|^2, with batched stage and terminal
    functions, or in callback form."""
    op, name = make_linear_operator(dim=2, gain=1.0), "planar"
    controls = ControlGrid(p_points=(-1.0, 1.0), q_points=(-1.0, 0.5, 1.0))
    if callbacks:
        def running(t, x, p, q):
            xt = x.value_at(t)
            return 0.05 * float(np.dot(xt, xt)) + 0.1 * p * q

        return callback_game(op, lambda t, x, u: 0.4 * np.array([float(u[0]), float(u[1])]),
                             running, lambda x: float(np.dot(x.values[-1], x.values[-1])),
                             controls, l_f=0.8, lambda_L=0.3, name=name)

    def stage(t, states, path_of, P, Q):
        drift = 0.4 * np.stack(np.broadcast_arrays(P[:, None], Q[None, :]), axis=-1)
        cost = 0.05 * _row_dots(states, states)[:, None, None] + (0.1 * P[:, None]) * Q[None, :]
        return np.broadcast_to(drift, (len(states),) + drift.shape), cost

    return GameSpec(op=op, stage=stage, terminal=lambda states, path_of: _row_dots(states, states),
                    controls=controls, l_f=0.8, lambda_L=0.3, name=name)


_CALLBACKS = {bilinear_game: _bilinear_callbacks, isaacs_game: _isaacs_callbacks,
              constant_game: _constant_callbacks}


def reference_game(builder, **kwargs) -> GameSpec:
    """The callback form of the built-in game builder(**kwargs): its operator,
    controls, constants and name, with a stage and terminal function that
    read every lane's path and evaluate the builder's formulas one control
    pair and one lane at a time."""
    spec = builder(**kwargs)
    args = inspect.signature(builder).bind(**kwargs)
    args.apply_defaults()
    rhs, running, terminal = _CALLBACKS[builder](**args.arguments)
    return callback_game(spec.op, rhs, running, terminal, spec.controls, spec.l_f,
                         spec.lambda_L, spec.name)
