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
- _ball_point: the one-point tube draw of pdhj.evolution._ball_points.
- value_gradient: the one-state ValueTable.gradient, 2·dim scalar reads.
- candidate_runs and _char_policy: the residual candidates of
  pdhj.minimax._candidate_runs as two lane solves with one callable forcing
  per game lane, a characteristic aimed by value_gradient and picking its
  pair from one lane's stage terms.
- game_audit: the growth and finiteness audit of a GameSpec on random
  paths, which no run calls.
"""

import numpy as np

from pdhj import evolution
from pdhj.errors import DomainError, SolverError
from pdhj.evolution import DelayDynamics, OperatorSpec, _bisect_step, sample_reachable_set, \
    solve_delay_lanes
from pdhj.game import GameSpec, LipschitzReport, ValueTable, hamiltonian, is_upper_side
from pdhj.pathcore import Path, TimeGrid, _row_dots, kappa_constant, stop_path, sup_norm
from pdhj.upsilon import penalty_psi, upsilon


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
        s2 = sup_norm(x - y, t) ** 2
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


def candidate_runs(spec: GameSpec, table: ValueTable, side: str, t0: float,
                   hist: Path, z, budget: int, seed: int):
    """(label, SolveReport) candidates: constant pairs, characteristics, random tube.

    Two lane solves: the game lanes (the constant pairs, then the two
    characteristics) and the random tube lanes.
    """
    labels, forcings = [], []
    for i, p in enumerate(spec.controls.p_points):
        for j, q in enumerate(spec.controls.q_points):
            labels.append(f"constant[p{i},q{j}]")
            forcings.append(lambda t, x, pq=(p, q): pq)
    for role in ("super", "sub"):
        labels.append(f"characteristic[{role}]")
        forcings.append(_char_policy(spec, table, side, role, z))
    runs = list(zip(labels, solve_delay_lanes(spec.dyn, t0, hist, forcings)))
    n_random = max(0, budget - len(runs))
    if n_random > 0:
        tube = DelayDynamics.forced(spec.dyn.op, spec.l_f)
        for i, rep in enumerate(sample_reachable_set(tube, t0, hist, n_random, seed)):
            runs.append((f"random[{i}]", rep))
    return runs


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
        f = spec.drift(t, x, p, q)
        spec.stage_cost(t, x, p, q)
        spec.final_cost(x)
        worst = max(worst, float(np.linalg.norm(f)) / (spec.l_f * (1.0 + sup_norm(x, t)) + 1e-300))
    return {"samples": samples, "seed": seed, "max_growth_ratio": worst,
            "passed": worst <= 1.0 + 1e-9}
