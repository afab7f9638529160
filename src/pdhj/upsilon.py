"""The smooth sup-norm surrogate, its path derivatives, and the Lyapunov machinery.

For a path x and time t, with S = sup-norm of the stopped path and c = |x(t)|:

    value  = (S^2 - c^2)^2 / S^2 + 2 c^2        (0 when S = 0)
    d/dx   = 4 (c^2 / S^2) x(t)                 (0 when S = 0)
    d/dt   = 0

The value is sandwiched between kappa * S^2 and 3 * S^2 with
kappa = (3 - sqrt(5)) / 2, which drives both the penalty used for path
comparisons and the decaying Lyapunov function used by feedback strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError, ParameterError
from .pathcore import Path, TimeGrid, _row_dots, _row_norms, kappa_constant, pad_paths, \
    stop_paths, stopped_sup_sq

ZERO_BRANCH_TOL = 1e-14
SMOOTHNESS_RATIO_BOUND = 1.2
CHAIN_RULE_REFINEMENTS = 3  # grid halvings after the path's own grid


def surrogate_terms(sup_sq, cur_sq):
    """(value, factor) of the surrogate, where the x-derivative is factor * x(t).

    The one implementation of (S^2 - c^2)^2 / S^2 + 2 c^2 and 4 c^2 / S^2;
    both are 0 on the zero branch S <= ZERO_BRANCH_TOL * (1 + c).  Works
    elementwise on arrays and returns Python floats for scalar input.  Works
    with squared norms: the running maximum of squares includes the current
    square, so cur_sq <= sup_sq holds exactly in floating point and the
    factor (= theta against the zero path) never exceeds 4.
    """
    sup_sq = np.asarray(sup_sq, dtype=float)
    cur_sq = np.asarray(cur_sq, dtype=float)
    live = sup_sq > (ZERO_BRANCH_TOL * (1.0 + np.sqrt(cur_sq))) ** 2
    denom = np.where(live, sup_sq, 1.0)
    gap = denom - cur_sq  # squared by multiplication: ** on a numpy scalar calls libm pow
    value = np.where(live, gap * gap / denom + 2.0 * cur_sq, 0.0)
    factor = np.where(live, 4.0 * cur_sq / denom, 0.0)
    if value.ndim == 0:
        return float(value), float(factor)
    return value, factor


@dataclass(frozen=True)
class LyapunovParams:
    """Parameters of the decaying Lyapunov function nu.

    alpha(t) = (exp(-2*lambda_L*t/kappa) - eps*sqrt(kappa)) / eps stays positive
    on [0, horizon] exactly when eps <= epsilon0, with
    epsilon0 = exp(-2*lambda_L*horizon/kappa) / (2 sqrt(kappa)).  kappa and
    epsilon0 are derived, not constructor arguments.
    """

    epsilon: float
    lambda_L: float
    horizon: float
    kappa: float = field(init=False)
    epsilon0: float = field(init=False)

    def __post_init__(self):
        if not self.lambda_L > 0:
            raise ParameterError("lambda_L must be > 0")
        if not self.horizon > 0:
            raise ParameterError("horizon must be > 0")
        eps0 = self._epsilon0(self.lambda_L, self.horizon)
        object.__setattr__(self, "kappa", kappa_constant())
        object.__setattr__(self, "epsilon0", eps0)
        if not (0.0 < self.epsilon <= eps0 * (1.0 + 1e-12)):
            raise ParameterError(
                f"epsilon must lie in (0, {eps0:.6e}], got {self.epsilon:.6e}")

    @staticmethod
    def _epsilon0(lambda_L: float, horizon: float) -> float:
        kappa = kappa_constant()
        return math.exp(-2.0 * lambda_L * horizon / kappa) / (2.0 * math.sqrt(kappa))

    @classmethod
    def at_epsilon0(cls, lambda_L: float, horizon: float) -> "LyapunovParams":
        return cls(epsilon=cls._epsilon0(lambda_L, horizon), lambda_L=lambda_L, horizon=horizon)

    def alpha(self, t: float) -> float:
        return (math.exp(-2.0 * self.lambda_L * t / self.kappa)
                - self.epsilon * math.sqrt(self.kappa)) / self.epsilon

    def alpha_prime(self, t: float) -> float:
        return -(2.0 * self.lambda_L / self.kappa) \
            * math.exp(-2.0 * self.lambda_L * t / self.kappa) / self.epsilon


# ---------------------------------------------------------------------------
# chain-rule verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChainRuleReport:
    """Refinement study of the functional chain rule along one path segment.

    levels holds (n_steps, lhs, rhs, gap) per refinement; observed_orders are
    log2 gap ratios between consecutive levels.  `exact` marks gaps at the
    rounding floor, where no order can be measured.
    """

    functional: str
    t0: float
    t1: float
    levels: tuple
    observed_orders: tuple
    order_estimate: float
    kink_count: int
    exact: bool


def _functional_profile(name: str, x: Path, params: LyapunovParams):
    """Per-node (phi, d/dt phi, d/dx phi) arrays along the whole path."""
    cur_sq = np.sum(x.values ** 2, axis=1)
    values, factors = surrogate_terms(np.maximum.accumulate(cur_sq), cur_sq)
    dx = factors[:, None] * x.values

    if name == "upsilon":
        return values, np.zeros(len(values)), dx
    if name == "nu":
        if params is None:
            raise DomainError("nu needs LyapunovParams")
        t_nodes = x.grid.nodes
        alpha = np.array([params.alpha(t) for t in t_nodes])
        alpha_p = np.array([params.alpha_prime(t) for t in t_nodes])
        beta = np.sqrt(params.epsilon ** 4 + values)
        return alpha * beta, alpha_p * beta, (alpha / (2.0 * beta))[:, None] * dx
    raise DomainError(f"unknown functional {name!r}")


def _check_smooth_segment(x: Path, k0: int, k1: int):
    nodes = x.grid.nodes
    if k1 - k0 < 2:
        return
    dt = np.diff(nodes[k0:k1 + 1])[:, None]
    slopes = np.diff(x.values[k0:k1 + 1], axis=0) / dt
    jumps = np.linalg.norm(np.diff(slopes, axis=0), axis=1)
    peak = float(np.max(np.linalg.norm(slopes, axis=1)))
    worst = float(np.max(jumps)) if len(jumps) else 0.0
    if worst > 0.0 and worst / max(peak, 1e-12) > SMOOTHNESS_RATIO_BOUND:
        raise ContractError(
            f"non-smooth segment: slope jump ratio {worst / max(peak, 1e-12):.3f} "
            f"exceeds {SMOOTHNESS_RATIO_BOUND}")


def verify_chain_rule(functional: str, x: Path, t0: float, t1: float, *,
                      params: LyapunovParams = None) -> ChainRuleReport:
    """Compare phi(t1,x) - phi(t0,x) against the chain-rule quadrature under refinement.

    The right-hand side integrates d/dt phi + (x', d/dx phi) by composite
    trapezoid on the path grid, with x' the per-interval polyline slope.
    CHAIN_RULE_REFINEMENTS halvings of the grid resample the polyline (exact
    interpolation), so the gap isolates quadrature error; observed orders are
    log2 gap ratios.
    A path whose slope jumps exceed SMOOTHNESS_RATIO_BOUND times the slope
    scale is rejected as non-smooth.
    """
    grid = x.grid
    k0, k1 = grid.node_index(t0), grid.node_index(t1)
    if k1 <= k0:
        raise DomainError("need t1 > t0 on the grid")
    _check_smooth_segment(x, k0, k1)

    levels = []
    gaps = []
    current = x
    c0, c1 = k0, k1
    for _ in range(CHAIN_RULE_REFINEMENTS + 1):
        phi, dphi_dt, dphi_dx = _functional_profile(functional, current, params)
        nodes = current.grid.nodes
        lhs = phi[c1] - phi[c0]
        dt = np.diff(nodes[c0:c1 + 1])
        slopes = np.diff(current.values[c0:c1 + 1], axis=0) / dt[:, None]
        flux = np.einsum("kd,kd->k", slopes,
                         0.5 * (dphi_dx[c0:c1] + dphi_dx[c0 + 1:c1 + 1]))
        rhs = float(np.sum(dt * (0.5 * (dphi_dt[c0:c1] + dphi_dt[c0 + 1:c1 + 1]) + flux)))
        gap = abs(lhs - rhs)
        levels.append((current.grid.n_steps, float(lhs), rhs, gap))
        gaps.append(gap)
        current = current.resample(current.grid.refine(2))
        c0, c1 = 2 * c0, 2 * c1

    floor = 1e-13 * (1.0 + abs(levels[0][1]))
    exact = all(g <= floor for g in gaps)
    orders = []
    for g_a, g_b in zip(gaps[:-1], gaps[1:]):
        if g_a > floor and g_b > floor:
            orders.append(math.log2(g_a / g_b))
    estimate = float(np.median(orders)) if orders else float("inf")
    return ChainRuleReport(functional=functional, t0=t0, t1=t1, levels=tuple(levels),
                           observed_orders=tuple(orders), order_estimate=estimate,
                           kink_count=_count_kinks(x, k0, k1), exact=exact)


def _count_kinks(x: Path, k0: int, k1: int) -> int:
    """Regime switches of the running sup (attaining <-> frozen) strictly inside the window.

    The running sup is the stopped sup, taken from the path's first node.  A
    switch right at the window start is not a kink: the integrand is smooth
    from t0 on when the regime settles immediately.
    """
    cur_sq = np.sum(x.values ** 2, axis=1)
    attaining = (cur_sq >= np.maximum.accumulate(cur_sq) * (1.0 - 1e-9))[k0:k1 + 1]
    switches = attaining[1:] != attaining[:-1]
    return int(np.sum(switches[1:]))


def _surrogate_batch(nodes: np.ndarray, values: np.ndarray, t: np.ndarray):
    """(value, factor, x(t)) of the surrogate on S paths in the padded layout of
    pathcore.values_at, one time each, at the stopped sup of stopped_sup_sq.

    On the difference x - y it gives the penalty Psi(t, x, y): value,
    theta = factor, and gradient theta * (x(t) - y(t)).
    """
    sup_sq, xt = stopped_sup_sq(nodes, values, t)
    value, factor = surrogate_terms(sup_sq, _row_dots(xt, xt))
    return value, factor, xt


def _battery_terms(nodes: np.ndarray, x: np.ndarray, y: np.ndarray, t: np.ndarray) -> dict:
    """Per-sample quantities of the property battery for paths x and y of one
    dimension on the padded grids nodes, as arrays of shape (S,)."""
    diff = x - y
    sup_sq, diff_t = stopped_sup_sq(nodes, diff, t)
    penalty, theta = surrogate_terms(sup_sq, _row_dots(diff_t, diff_t))
    value, factor, xt = _surrogate_batch(nodes, x, t)
    bound = 4.0 * _row_norms(xt)
    stopped_value = _surrogate_batch(*stop_paths(nodes, x, t), t)[0]
    return {"penalty": penalty, "theta": theta, "sup": np.sqrt(sup_sq),
            "grad_excess": _row_norms(factor[:, None] * xt) - bound * (1.0 + 1e-12),
            "dt": np.zeros(len(t)),  # upsilon's d/dt, identically zero
            "na_gap": np.abs(value - stopped_value)}


def property_battery(samples: int = 500, seed: int = 0) -> dict:
    """Run the full surrogate/penalty property battery; one record per property.

    Checks the sandwich bounds, the theta range, the gradient bound, the zero
    time derivative, non-anticipativity, and chain-rule refinement orders on
    representative smooth paths.

    The samples are drawn one at a time (grid, dimension, x, y, t) and then
    evaluated as one array program per dimension (_battery_terms); the
    records reduce the per-sample values in draw order.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    kappa = kappa_constant()
    checks = []

    grids, draws = {}, []
    for _ in range(samples):
        n = int(rng.integers(4, 20))
        if n not in grids:
            grids[n] = TimeGrid(0.0, 1.0, n)
        dim = int(rng.integers(1, 4))
        x = rng.standard_normal((n + 1, dim))
        y = rng.standard_normal((n + 1, dim))
        draws.append((grids[n].nodes, dim, x, y, rng.random()))  # the bits of uniform(0.0, 1.0)
    terms = {}
    for dim in sorted({draw[1] for draw in draws}):
        idx = [i for i, draw in enumerate(draws) if draw[1] == dim]
        nodes, x = pad_paths([draws[i][0] for i in idx], [draws[i][2] for i in idx])
        y = pad_paths([draws[i][0] for i in idx], [draws[i][3] for i in idx])[1]
        t = np.array([draws[i][4] for i in idx])
        for name, vals in _battery_terms(nodes, x, y, t).items():
            terms.setdefault(name, np.empty(samples))[idx] = vals

    worst_low, worst_high = np.inf, -np.inf
    theta_min, theta_max = np.inf, -np.inf
    grad_excess = -np.inf
    na_gap = 0.0
    dt_nonzero = int(np.count_nonzero(terms["dt"]))
    for value, theta, sup, excess, gap in zip(*(terms[name].tolist() for name in (
            "penalty", "theta", "sup", "grad_excess", "na_gap"))):
        s2 = sup ** 2  # Python's float power (libm pow), as sup_norm(x - y, t) ** 2
        if s2 > 0:
            worst_low = min(worst_low, value - kappa * s2)
            worst_high = max(worst_high, value - 3.0 * s2)
        theta_min = min(theta_min, theta)
        theta_max = max(theta_max, theta)
        grad_excess = max(grad_excess, excess)
        na_gap = max(na_gap, gap)

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

    grid = TimeGrid(0.0, 1.0, 16)
    falling = Path(grid, 2.0 - grid.nodes)
    peaked = Path(grid, 1.0 + 4.0 * grid.nodes * (1.0 - grid.nodes))
    params = LyapunovParams.at_epsilon0(lambda_L=0.5, horizon=1.0)
    for name, path, functional, kwargs, floor in (
            ("chain-rule-smooth", falling, "upsilon", {}, 1.9),
            ("chain-rule-kink", peaked, "upsilon", {}, 0.9),
            ("chain-rule-nu", falling, "nu", {"params": params}, 1.9)):
        rep = verify_chain_rule(functional, path, 0.0, 1.0, **kwargs)
        checks.append({"name": name,
                       "value": rep.order_estimate if not rep.exact else "exact",
                       "passed": rep.exact or rep.order_estimate >= floor})
    return {"samples": samples, "seed": seed, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
