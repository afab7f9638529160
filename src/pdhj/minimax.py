"""Residual checks for minimax/viscosity solution properties and stability runs.

The existential quantifier over reachable trajectories is replaced by a
best-over-sampled-candidates search with a reported budget: a PASS is sampled
evidence, not proof, and every report says so.  Candidates mix constant
control pairs, two characteristic feedback constructions aimed along the value
gradient, and random reachable-tube forcings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .evolution import _ball_points, _lockstep_solve
from .game import GameSpec, StateLattice, ValueTable, dp_value, hamiltonian, is_upper_side, \
    minimax_records, with_drift_perturbation, with_terminal_shift
from .pathcore import Path, TimeGrid, _row_dots, extend_history, stopped_at

CERTIFICATION_NOTE = "sampled-evidence: pass certifies the searched candidate set only"

# composite tolerance tol = a * lattice_spacing + b * mesh + c / sqrt(budget);
# coefficients frozen after calibration on the desk-scale games
TOL_LATTICE_COEFF = 0.5
TOL_MESH_COEFF = 0.5
TOL_BUDGET_COEFF = 0.05


def composite_tolerance(lattice_spacing: float, mesh: float, budget: int) -> float:
    return (TOL_LATTICE_COEFF * lattice_spacing + TOL_MESH_COEFF * mesh
            + TOL_BUDGET_COEFF / math.sqrt(max(budget, 1)))


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Outcome of one sub/super residual search at a site; site holds the
    site's t0, state x0(t0) and test direction z, as JSON values.  The runner
    writes dataclasses.asdict of it."""

    site: dict
    direction: str
    side: str
    slack: float
    tolerance: float
    verdict: bool
    best_candidate: str
    binding_time: float
    lhs: float
    rhs: float
    budget: int
    seed: int
    certification: str = CERTIFICATION_NOTE


def _window_grid(grid: TimeGrid, t0: float, horizon: float):
    """Sub-grid of table nodes spanning [t_start, min(t0+horizon, T)] with >= 1 step past t0."""
    k0 = grid.node_index(t0)
    if k0 >= grid.n_steps:
        raise DomainError("site time t0 must lie strictly before the terminal node")
    nodes = grid.nodes
    t_end = min(t0 + horizon, grid.t_end)
    k_end = int(np.searchsorted(nodes, t_end + 1e-12)) - 1
    k_end = max(k_end, k0 + 1)
    return TimeGrid.from_nodes(nodes[: k_end + 1]), k0, k_end


def _candidate_runs(spec: GameSpec, table: ValueTable, side: str, t0: float,
                    hist: Path, z, budget: int, seed: int):
    """(labels, values, forcing, hams) of a site's candidates, solved as one lane set.

    The lanes are the constant control pairs (fixed p and q index arrays),
    the two characteristics and max(0, budget - n_p n_q - 2) random tube
    samples; values has shape (node, lane, dim) on hist.grid, and forcing
    (step, lane, dim) and hams, the side's Hamiltonian of (t_k, x(t_k), z),
    (step, lane) from t0 on.  Every lane takes the tube constant spec.l_f.
    Each step has four phases, in this order for the lockstep rule of
    pdhj.evolution:

    1. the characteristic aims: one ValueTable.gradient call;
    2. the stage terms: one full-grid lane_terms call over every lane, so a
       non-finite entry of any lane raises here, at its step, in (lane, p, q)
       order.  It gives the characteristics' stage matrices, the game lanes'
       drift at their played pairs and every lane's Hamiltonian.  For the
       upper Hamiltonian (min over p of max over q) the supersolution
       characteristic commits p along the value gradient and lets q answer
       the test direction z; the subsolution characteristic swaps the two
       roles, and the lower Hamiltonian mirrors this with q committing
       first.  Ties break to the smallest index;
    3. the tube draws: one _ball_points call;
    4. the forcing-bound check and the implicit step of _lockstep_solve.
    """
    controls = spec.controls
    n_pairs = controls.n_p * controls.n_q
    n_game = n_pairs + 2
    n_random = max(0, budget - n_game)
    labels = ([f"constant[p{i},q{j}]" for i in range(controls.n_p) for j in range(controls.n_q)]
              + ["characteristic[super]", "characteristic[sub]"]
              + [f"random[{i}]" for i in range(n_random)])
    game = np.arange(n_game)
    p_idx = np.append(game[:n_pairs] // controls.n_q, [0, 0])
    q_idx = np.append(game[:n_pairs] % controls.n_q, [0, 0])
    chars = slice(n_pairs, n_game)
    L = np.full(n_game + n_random, float(spec.l_f))
    streams = [np.random.default_rng([seed, i]) for i in range(n_random)]
    z = np.atleast_1d(np.asarray(z, dtype=float))
    upper = is_upper_side(side)
    # the super lane commits along the gradient on the upper side, the sub lane on the lower
    grad_commits = np.array([upper, not upper])[:, None, None]
    rows = np.arange(2)
    grid = hist.grid
    nodes = grid.nodes
    k0 = grid.node_index(t0)
    hams = np.empty((grid.n_steps - k0, len(L)))

    def step_forcing(k, values, bound):
        t_k, x_k = nodes[k], values[k]
        zhat = table.gradient(side, t_k, x_k[chars])
        drift, cost = spec.lane_terms(t_k, x_k, lambda lane: stopped_at(grid, values[:, lane], k))
        M_test = cost + _row_dots(drift, z)
        f_minus, f_plus = minimax_records(M_test)[:2]
        hams[k - k0] = f_plus if upper else f_minus
        M_grad = cost[chars] + _row_dots(drift[chars], zhat[:, None, None, :])
        commit = np.where(grad_commits, M_grad, M_test[chars])
        answer = np.where(grad_commits, M_test[chars], M_grad)
        if upper:
            p_idx[chars] = np.argmin(commit.max(axis=2), axis=1)
            q_idx[chars] = np.argmax(answer[rows, p_idx[chars], :], axis=1)
        else:
            q_idx[chars] = np.argmax(commit.min(axis=1), axis=1)
            p_idx[chars] = np.argmin(answer[rows, :, q_idx[chars]], axis=1)
        f = np.empty((len(L), hist.dim))
        f[:n_game] = drift[game, p_idx, q_idx]
        f[n_game:] = _ball_points(streams, hist.dim, bound[n_game:])
        return f

    values, forcing, _, _ = _lockstep_solve(spec.op, t0, hist, L, step_forcing)
    return labels, values, forcing, hams


def _window_values(table: ValueTable, side: str, nodes, states: np.ndarray) -> np.ndarray:
    """u(nodes[m], states[c, m]) for states shaped (candidate, node, coordinate):
    one interp_batch call per node reads every candidate, so a state off the
    lattice raises the largest margin of the first node that has one."""
    return np.stack([table.interp_batch(side, t, states[:, m]) for m, t in enumerate(nodes)],
                    axis=1)


def _characteristic_functional(table: ValueTable, side: str, grid: TimeGrid, values: np.ndarray,
                               forcing: np.ndarray, hams: np.ndarray, z, t0: float, u0: float):
    """G[c, m] = int_{t0}^{t_m} ((-f, z) + F(s, x, z)) ds + u(t_m, x(t_m)) - u0
    per candidate c and window node t_m > t0; returns (G, times).

    values, forcing and hams are the candidates of _candidate_runs, which
    took the stage terms; the only phase here is the table reads of
    _window_values.  The integral is summed node by node from zeros, not
    with np.cumsum: the loop turns a leading -0.0 into +0.0, and that sign
    can reach a printed slack.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    nodes = grid.nodes
    k0 = grid.node_index(t0)
    integral = np.empty((values.shape[1], grid.n_steps - k0))
    acc = np.zeros(values.shape[1])
    for k in range(k0, grid.n_steps):
        acc = acc + (nodes[k + 1] - nodes[k]) * (-_row_dots(forcing[k - k0], z) + hams[k - k0])
        integral[:, k - k0] = acc
    times = nodes[k0 + 1:]
    states = values[k0 + 1:].transpose(1, 0, 2)
    return integral + _window_values(table, side, times, states) - u0, times


def minimax_residual(u: ValueTable, spec: GameSpec, site, direction: str,
                     horizon: float, search_budget: int, *, seed: int = 0,
                     side: str = "upper", tolerance: float = None) -> ResidualReport:
    """Search sampled reachable trajectories for the sub/super characteristic bound.

    sub: slack = max over candidates of min over window times of G; passes when
    slack >= -tol.  super: slack = min over candidates of max over times of G;
    passes when slack <= tol.  G is the characteristic functional of the table.
    """
    if direction not in ("sub", "super"):
        raise DomainError("direction must be 'sub' or 'super'")
    t0, x0, z = site
    win_grid, k0, _ = _window_grid(u.grid, t0, horizon)
    hist = extend_history(x0, win_grid, t0)
    u0 = u.interp(side, t0, hist.value_at(t0))
    if tolerance is None:
        tolerance = composite_tolerance(max(u.lattice.spacing), u.grid.mesh, search_budget)

    labels, values, forcing, hams = _candidate_runs(spec, u, side, t0, hist, z, search_budget,
                                                    seed)
    G, times = _characteristic_functional(u, side, win_grid, values, forcing, hams, z, t0, u0)
    # each candidate's first extremum over time, then the first best candidate
    over_time, over_candidates = (np.argmin, np.argmax) if direction == "sub" \
        else (np.argmax, np.argmin)
    m = over_time(G, axis=1)
    extremes = G[np.arange(len(G)), m]
    c = int(over_candidates(extremes))
    best_slack, best_label, best_time = float(extremes[c]), labels[c], float(times[m[c]])

    verdict = best_slack >= -tolerance if direction == "sub" else best_slack <= tolerance
    return ResidualReport(
        site={"t0": float(t0), "state": [float(v) for v in np.atleast_1d(x0.value_at(t0))],
              "z": [float(v) for v in np.atleast_1d(z)]},
        direction=direction, side=side,
        slack=best_slack, tolerance=tolerance, verdict=bool(verdict),
        best_candidate=best_label, binding_time=best_time,
        lhs=u0, rhs=u0 + best_slack, budget=search_budget, seed=seed)


# ---------------------------------------------------------------------------
# viscosity residual with the canonical affine test pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ViscosityReport:
    """Extremum certificate and inequality slack for the canonical test pair."""

    site_t0: float
    site_state: tuple
    z: tuple
    c: float
    side: str
    super_certificate_gap: float
    super_certificate_holds: bool
    super_verdict: str
    sub_certificate_gap: float
    sub_certificate_holds: bool
    sub_verdict: str
    tolerance: float
    budget: int
    seed: int
    certification: str = CERTIFICATION_NOTE


def viscosity_scan(u: ValueTable, spec: GameSpec, site, z, horizon: float, *,
                   c_values=None, search_budget: int = 24, seed: int = 0,
                   side: str = "upper", tolerance: float = None) -> dict:
    """Scan the canonical test pair over slope offsets c.

    The pair is phi(t,x) = u0 + (t-t0)(c - F0) + (x(t)-x0(t0), z) plus the
    operator correction integral of <A(s, x(s)), z>.  It tests the
    supersolution inequality when phi + correction - u has a local max at the
    site over the sampled window (then the inequality reduces to c <= 0), and
    the subsolution inequality at a local min (c >= 0).  A failed extremum
    certificate makes the test vacuous: recorded, not passed.

    The candidate trajectories and every term of E = phi + correction - u
    except (t - t0) c are computed once per site; each c only redoes the sum.
    For an honest table every c yields pass or vacuous: a certified extremum
    with |c| beyond tolerance is a witnessed sub/supersolution violation.
    Returns the per-c reports and whether any violation was found.  A state
    off the lattice raises from the table reads of _window_values.
    """
    t0, x0 = site
    z = np.atleast_1d(np.asarray(z, dtype=float))
    win_grid, k0, _ = _window_grid(u.grid, t0, horizon)
    hist = extend_history(x0, win_grid, t0)
    state0 = hist.value_at(t0)
    u0 = u.interp(side, t0, state0)
    F0 = hamiltonian(spec, t0, hist, z)
    F0_val = F0.f_plus if is_upper_side(side) else F0.f_minus
    if tolerance is None:
        tolerance = composite_tolerance(max(u.lattice.spacing), u.grid.mesh, search_budget)
    if c_values is None:
        c_values = (-4.0 * tolerance, -tolerance, 0.0, tolerance, 4.0 * tolerance)

    # (candidate, window node t > t0) arrays: the correction, (x(t) - x0(t0), z), u(t, x(t))
    values = _candidate_runs(spec, u, side, t0, hist, z, search_budget, seed)[1]
    nodes = win_grid.nodes
    paths = np.ascontiguousarray(values.transpose(1, 0, 2))  # (candidate, node, coordinate)
    op = spec.op
    a_pair = [_row_dots(op.batch(nodes[k], paths[:, k]), z)
              for k in range(k0, win_grid.n_steps + 1)]
    corr = np.zeros(len(paths))
    corrs = np.empty((len(paths), win_grid.n_steps - k0))
    for k in range(k0, win_grid.n_steps):
        dt = nodes[k + 1] - nodes[k]
        corr = corr + 0.5 * dt * (a_pair[k - k0] + a_pair[k + 1 - k0])
        corrs[:, k - k0] = corr
    states = paths[:, k0 + 1:]
    times = nodes[k0 + 1:]
    dzs = _row_dots(states - state0, z)
    u_vals = _window_values(u, side, times, states)

    cert_tol = 1e-9 * (1.0 + abs(u0))
    reports = []
    violation = False
    for c in c_values:
        c = float(c)
        E = u0 + (times - t0) * (c - F0_val) + dzs + corrs - u_vals
        # E(t0, x0) = 0 is always included
        sup_gap = max(0.0, float(E.max()))
        inf_gap = min(0.0, float(E.min()))
        super_holds = sup_gap <= cert_tol
        sub_holds = inf_gap >= -cert_tol
        super_verdict = ("pass" if c <= tolerance else "fail") if super_holds else "vacuous"
        sub_verdict = ("pass" if c >= -tolerance else "fail") if sub_holds else "vacuous"
        reports.append(ViscosityReport(
            site_t0=float(t0), site_state=tuple(float(v) for v in state0),
            z=tuple(float(v) for v in z), c=c, side=side,
            super_certificate_gap=sup_gap, super_certificate_holds=bool(super_holds),
            super_verdict=super_verdict,
            sub_certificate_gap=inf_gap, sub_certificate_holds=bool(sub_holds),
            sub_verdict=sub_verdict, tolerance=tolerance,
            budget=search_budget, seed=seed))
        violation = violation or super_verdict == "fail" or sub_verdict == "fail"
    return {"reports": reports, "violation_found": violation,
            "c_values": [float(c) for c in c_values], "tolerance": tolerance}


# ---------------------------------------------------------------------------
# half-relaxed-limit stability experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Distances of perturbed value tables to the unperturbed one."""

    family: str
    n_list: tuple
    distances: tuple
    side: str
    strictly_decreasing: bool
    shift_exactness: tuple


STABILITY_FAMILIES = {"h-shift": with_terminal_shift, "f-drift": with_drift_perturbation}


def stability_refusal(family: str, n_list):
    """(field, message) of the first stability_experiment input it refuses, or None.

    The family must be one of STABILITY_FAMILIES, and n_list a nonempty,
    strictly increasing list of n >= 1: an empty list would pass vacuously,
    and a repeated n gives two equal distances, which can never decrease
    strictly.
    """
    if family not in STABILITY_FAMILIES:
        return "family", (f"unknown perturbation family {family!r}; expected one of "
                          f"{sorted(STABILITY_FAMILIES)}")
    if not n_list:
        return "n_list", "n_list must not be empty"
    if min(n_list) < 1:
        return "n_list", "n_list entries must be >= 1"
    if any(a >= b for a, b in zip(n_list[:-1], n_list[1:])):
        return "n_list", "n_list must be increasing (magnitudes 1/n decreasing)"
    return None


def stability_experiment(spec: GameSpec, family: str, n_list, grid: TimeGrid,
                         lattice: StateLattice) -> StabilityReport:
    """Compute upper value tables under a 1/n perturbation family and their
    sup distances to the unperturbed upper value (report side "upper").

    'h-shift' adds 1/n to the terminal cost: the backward min/max recursion is
    shift-equivariant, so the distance equals 1/n exactly (up to rounding).
    'f-drift' adds a constant drift of magnitude 1/n, perturbing the
    Hamiltonian z-dependently.  shift_exactness, |distance - 1/n|, is None
    for f-drift, where no exact distance is known.  Inputs that stability_refusal names raise
    DomainError before any table is computed.
    """
    n_list = tuple(int(n) for n in n_list)
    refusal = stability_refusal(family, n_list)
    if refusal is not None:
        raise DomainError(refusal[1])
    base_vals = dp_value(spec, grid, lattice).v_plus
    distances, exactness = [], []
    for n in n_list:
        spec_n = STABILITY_FAMILIES[family](spec, 1.0 / n)
        dist = float(np.max(np.abs(dp_value(spec_n, grid, lattice).v_plus - base_vals)))
        distances.append(dist)
        exactness.append(abs(dist - 1.0 / n) if family == "h-shift" else None)
    decreasing = all(a > b for a, b in zip(distances[:-1], distances[1:]))
    return StabilityReport(family=family, n_list=n_list, distances=tuple(distances),
                           side="upper", strictly_decreasing=decreasing,
                           shift_exactness=tuple(exactness))


def bump_table(table: ValueTable, time_index: int, state_index, amount: float,
               side: str = "upper") -> ValueTable:
    """Corrupt one interior table entry (mutation testing of the residual checks)."""
    v_minus, v_plus = table.v_minus.copy(), table.v_plus.copy()
    target = v_plus if is_upper_side(side) else v_minus
    idx = (time_index,) + tuple(np.atleast_1d(state_index))
    target[idx] += amount
    return ValueTable(grid=table.grid, lattice=table.lattice, v_minus=v_minus, v_plus=v_plus)
