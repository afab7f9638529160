"""Residual checks for minimax/viscosity solution properties and stability runs.

The existential quantifier over reachable trajectories is replaced by a
best-over-sampled-candidates search with a reported budget: a PASS is sampled
evidence, not proof, and every report says so.  Candidates mix constant
control pairs, two characteristic feedback constructions aimed along the value
gradient, and random reachable-tube forcings.

site_checks is the residual layer's one entry point.  It runs every residual
search and viscosity scan of a run on one lane set: each site's game lanes
(the constant pairs and the two characteristics) once, whatever checks read
them, and one block of tube lanes per distinct seed of its checks, all
stepping together on the value table's nodes, each site's lanes over its own
window.  A run raises the first error in this order: a check kind or a site
dimension it refuses, before any work; each site's own reads (its window and
the table at its state), site by site; then the lane solve, time-major
across the sites, so the earlier step's error wins whichever site it is on
(the phases of each step are _candidate_runs').  A scan's Hamiltonian F0 at
(t0, x0(t0)) is its lanes' first stage terms, so a non-finite stage term
there raises at its step of the solve, as the sub/super functional's do.
Then come the scans' operator pairings and then the table reads along the
candidates, each one batch per node in time order over every site, a read
naming the largest margin among the lanes of the first node where some
candidate leaves the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .evolution import STEP_TOL, _ball_points, _lockstep_solve
from .game import GameSpec, StateLattice, ValueTable, dp_value, is_upper_side, minimax_records, \
    with_drift_perturbation, with_terminal_shift
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


class Site(NamedTuple):
    """A site of site_checks and the checks to run there.

    x0 is the history, a Path on the value table's grid (in _candidate_runs,
    on the site's window grid, a prefix of it), t0 a node of that grid
    before its last, and z the test direction, each of the game's dimension.
    checks holds (kind, seed) pairs; the seed seeds the check's tube lanes,
    so two checks of a site with one seed read the same lanes.

    "sub" and "super" search the candidates for the sub/super characteristic
    bound on G, the characteristic functional of the table: sub's slack is
    the max over candidates of the min over window times of G, and passes
    when slack >= -tol; super's is the min over candidates of the max over
    times, and passes when slack <= tol.

    "scan" scans the canonical test pair over slope offsets c: phi(t, x) =
    u0 + (t - t0)(c - F0) + (x(t) - x0(t0), z) plus the operator correction
    integral of <A(s, x(s)), z>.  It tests the supersolution inequality when
    E = phi + correction - u has a local max at the site over the sampled
    window (then the inequality reduces to c <= 0), and the subsolution
    inequality at a local min (c >= 0).  A failed extremum certificate makes
    the test vacuous: recorded, not passed.  Every term of E but (t - t0) c
    is computed once per scan; each c only redoes the sum.  For an honest
    table every c yields pass or vacuous: a certified extremum with |c|
    beyond tolerance is a witnessed sub/supersolution violation.
    """

    t0: float
    x0: Path
    z: object
    checks: tuple


CHECK_KINDS = ("sub", "super", "scan")


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


class _Lanes(NamedTuple):
    """The candidate lanes of _candidate_runs.

    values, shape (node, lane, dim), on the table's nodes up to the last
    window's end, NaN past each lane's own end; forcing (step, lane, dim) and
    hams, the side's Hamiltonian of (t_k, x(t_k), z), (step, lane), per step
    of each lane's window (row j holds step start + j, zero past the
    window), as _lockstep_solve returns them; start and end, each
    lane's window nodes, site its site's index and z its site's z, shape
    (lane, dim); blocks[s][seed], the lanes of site s's candidates under that
    seed, in the order of labels.
    """

    labels: list
    values: np.ndarray
    forcing: np.ndarray
    hams: np.ndarray
    start: np.ndarray
    end: np.ndarray
    site: np.ndarray
    z: np.ndarray
    blocks: list


_PAIR, _CHARACTERISTIC, _TUBE = 0, 1, 2


def _candidate_runs(spec: GameSpec, table: ValueTable, side: str, sites, budget: int) -> _Lanes:
    """The candidates of every site, solved as one lane set.

    sites holds Site records whose x0 is the history on the site's window
    grid, a prefix of the table's grid; only the seeds of their checks are
    read.  A site's lanes are its game lanes, the constant control pairs
    (fixed p and q index arrays) and the two characteristics, and then, per
    distinct seed of its checks, max(0, budget - n_p n_q - 2)
    random tube samples, sample i drawing from default_rng([seed, i]), a
    stream that lives over its site's window only.  Every lane takes the
    tube constant spec.l_f and steps from its site's t0 to the end of its
    window.  Each step has four phases, in this order for the lockstep
    rule of pdhj.evolution, each one call over the lanes of every site whose
    window covers the step:

    1. the characteristic aims: one ValueTable.gradient call;
    2. the stage terms: one full-grid lane_terms call, so a non-finite entry
       of any lane raises here, at its step, in (lane, p, q) order.  It gives
       the characteristics' stage matrices, the game lanes' drift at their
       played pairs and every lane's Hamiltonian.  For the upper Hamiltonian
       (min over p of max over q) the supersolution characteristic commits p
       along the value gradient and lets q answer the test direction z; the
       subsolution characteristic swaps the two roles, and the lower
       Hamiltonian mirrors this with q committing first.  Ties break to the
       smallest index;
    3. the tube draws: one _ball_points call;
    4. the forcing-bound check and the implicit step of _lockstep_solve.

    Each lane's arithmetic is row by row, so a site's lanes hold the bits
    they hold when the site is solved alone.
    """
    controls = spec.controls
    n_pairs = controls.n_p * controls.n_q
    n_game = n_pairs + 2
    n_random = max(0, budget - n_game)
    labels = ([f"constant[p{i},q{j}]" for i in range(controls.n_p) for j in range(controls.n_q)]
              + ["characteristic[super]", "characteristic[sub]"]
              + [f"random[{i}]" for i in range(n_random)])
    kinds, site_of, keys, blocks = [], [], [], []  # keys: (seed, sample index) per lane
    for s, site in enumerate(sites):
        first = len(kinds)
        game = np.arange(first, first + n_game)
        kinds += [_PAIR] * n_pairs + [_CHARACTERISTIC] * 2
        keys += [(-1, -1)] * n_game
        site_blocks = {}
        for seed in dict.fromkeys(seed for _, seed in site.checks):
            site_blocks[seed] = np.concatenate([game, np.arange(len(kinds), len(kinds) + n_random)])
            kinds += [_TUBE] * n_random
            keys += [(seed, i) for i in range(n_random)]
        site_of += [s] * (len(kinds) - first)
        blocks.append(site_blocks)
    kind, site_of, keys = (np.array(a, dtype=int) for a in (kinds, site_of, keys))
    m, dim = len(kind), spec.op.space.dim
    grids = [site.x0.grid for site in sites]
    start = np.array([grid.node_index(site.t0) for grid, site in zip(grids, sites)])[site_of]
    end = np.array([grid.n_steps for grid in grids])[site_of]
    z_lane = np.array([np.atleast_1d(np.asarray(site.z, dtype=float)) for site in sites])[site_of]
    values = np.full((end.max() + 1, m, dim), np.nan)
    for s, site in enumerate(sites):
        values[: grids[s].n_steps + 1, site_of == s] = site.x0.values[:, None, :]
    upper = is_upper_side(side)
    p_idx, q_idx = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
    p_idx[kind == _PAIR] = np.tile(np.arange(n_pairs) // controls.n_q, len(sites))
    q_idx[kind == _PAIR] = np.tile(np.arange(n_pairs) % controls.n_q, len(sites))
    # the super lane commits along the gradient on the upper side, the sub lane on the lower
    grad_commits = np.zeros(m, dtype=bool)
    grad_commits[kind == _CHARACTERISTIC] = np.tile([upper, not upper], len(sites))
    stream_of = np.empty(m, dtype=object)
    nodes = table.grid.nodes
    hams = np.zeros(((end - start).max(), m))

    def step_forcing(k, act, values, bound):
        t_k, x_k, kind_k = nodes[k], values[k, act], kind[act]
        chars, tube = np.flatnonzero(kind_k == _CHARACTERISTIC), np.flatnonzero(kind_k == _TUBE)
        game = np.flatnonzero(kind_k != _TUBE)
        zhat = table.gradient(side, t_k, x_k[chars])
        drift, cost = spec.lane_terms(t_k, x_k, lambda j: stopped_at(
            grids[site_of[act[j]]], values[: end[act[j]] + 1, act[j]], k))
        M_test = cost + _row_dots(drift, z_lane[act][:, None, None, :])
        f_minus, f_plus = minimax_records(M_test)[:2]
        hams[k - start[act], act] = f_plus if upper else f_minus
        M_grad = cost[chars] + _row_dots(drift[chars], zhat[:, None, None, :])
        commits = grad_commits[act[chars]][:, None, None]
        commit = np.where(commits, M_grad, M_test[chars])
        answer = np.where(commits, M_test[chars], M_grad)
        rows, c = np.arange(len(chars)), act[chars]
        if upper:
            p_idx[c] = np.argmin(commit.max(axis=2), axis=1)
            q_idx[c] = np.argmax(answer[rows, p_idx[c], :], axis=1)
        else:
            q_idx[c] = np.argmax(commit.min(axis=1), axis=1)
            p_idx[c] = np.argmin(answer[rows, :, q_idx[c]], axis=1)
        f = np.empty((len(act), dim))
        f[game] = drift[game, p_idx[act[game]], q_idx[act[game]]]
        tubes = act[tube]
        for lane in tubes[start[tubes] == k]:  # a site's streams live over its window
            stream_of[lane] = np.random.default_rng(keys[lane].tolist())
        f[tube] = _ball_points(stream_of[tubes], dim, bound[tube])
        stream_of[tubes[end[tubes] == k + 1]] = None
        return f

    values, forcing, _, _ = _lockstep_solve(spec.op, nodes, values, start, end,
                                            np.full(m, float(spec.l_f)), STEP_TOL, step_forcing)
    return _Lanes(labels, values, forcing, hams, start, end, site_of, z_lane, blocks)


def _characteristic_functional(table: ValueTable, side: str, nodes, runs: _Lanes,
                               u0_lane: np.ndarray):
    """(G, reads), each shape (lane, step): reads[lane, j] = u(t_{k+1},
    x(t_{k+1})) and G[lane, j] = int_{t0}^{t_{k+1}} ((-f, z) + F(s, x, z)) ds
    + reads[lane, j] - u0 per lane at its window step k = start + j (0 past
    the window).

    runs is the lane set of _candidate_runs, which took the stage terms;
    u0_lane holds each lane's site's u0.  One interp_batch call per node
    reads every lane whose window holds it, so a state off the lattice
    raises the largest margin among the lanes of the first node that has
    one.  The integral is summed step by step from zeros, not with
    np.cumsum: the loop turns a leading -0.0 into +0.0, and that sign can
    reach a printed slack.
    """
    start, end = runs.start, runs.end
    G, reads = np.zeros((2, len(start), int((end - start).max())))
    acc = np.zeros(len(start))
    for k in range(int(start.min()), int(end.max())):
        lanes = np.flatnonzero((start <= k) & (k < end))
        if not lanes.size:
            continue
        j = k - start[lanes]
        reads[lanes, j] = table.interp_batch(side, nodes[k + 1], runs.values[k + 1, lanes])
        acc[lanes] = acc[lanes] + (nodes[k + 1] - nodes[k]) * (
            -_row_dots(runs.forcing[j, lanes], runs.z[lanes]) + runs.hams[j, lanes])
        G[lanes, j] = acc[lanes] + reads[lanes, j] - u0_lane[lanes]
    return G, reads


def _operator_corrections(op, nodes, runs: _Lanes, lanes: np.ndarray):
    """int_{t0}^{t_{k+1}} <A(s, x(s)), z> ds by the trapezoid rule for the
    given lanes, shape (lane, step) as _characteristic_functional's G: one
    op.batch call per node over those lanes whose window holds it."""
    start, end = runs.start, runs.end
    corrs = np.zeros((len(start), int((end - start).max())))
    corr, last = np.zeros(len(start)), np.zeros(len(start))  # last: the pairing at node k - 1
    for k in range(int(start[lanes].min()), int(end[lanes].max()) + 1):
        held = lanes[(start[lanes] <= k) & (k <= end[lanes])]
        pairing = _row_dots(op.batch(nodes[k], runs.values[k, held]), runs.z[held])
        past = start[held] < k
        act = held[past]
        corr[act] = corr[act] + 0.5 * (nodes[k] - nodes[k - 1]) * (last[act] + pairing[past])
        corrs[act, k - 1 - start[act]] = corr[act]
        last[held] = pairing
    return corrs


def site_checks(u: ValueTable, spec: GameSpec, sites, horizon: float, search_budget: int, *,
                side: str = "upper", c_values=None) -> list:
    """Run the checks of every Site in sites on one candidate lane set.

    Returns, per site, its checks' results in order: a ResidualReport for
    "sub" and "super", for "scan" a dict of the per-c ViscosityReports
    ("reports"), whether any c witnessed a violation ("violation_found"),
    "c_values" and "tolerance".  Each check searches search_budget
    candidates over its site's window [t0, min(t0 + horizon, T)] of u's grid
    against the tolerance, composite_tolerance of u's lattice spacing and
    mesh and search_budget, and the scans test c_values (by default -4, -1,
    0, 1 and 4 times the tolerance).  An
    unknown check kind, or a site whose history or z is not of the game's
    dimension, is refused before any work; the other errors come in the
    module docstring's order.
    """
    dim = spec.op.space.dim
    for s, site in enumerate(sites):
        for kind, _ in site.checks:
            if kind not in CHECK_KINDS:
                raise DomainError(f"check kind must be one of {CHECK_KINDS}, got {kind!r}")
        z_shape = np.shape(np.atleast_1d(site.z))
        if site.x0.dim != dim or z_shape != (dim,):
            raise DomainError(f"site {s}: history of dimension {site.x0.dim} and z of shape "
                              f"{z_shape}, where the game has dimension {dim}")
    tolerance = composite_tolerance(max(u.lattice.spacing), u.grid.mesh, search_budget)
    if c_values is None:
        c_values = (-4.0 * tolerance, -tolerance, 0.0, tolerance, 4.0 * tolerance)
    if not sites:
        return []
    windows, states0, u0s = [], [], []  # windows: each site with its history on its window grid
    for t0, x0, z, checks in sites:
        win_grid, _, _ = _window_grid(u.grid, t0, horizon)
        hist = extend_history(x0, win_grid, t0)
        windows.append(Site(t0, hist, np.atleast_1d(np.asarray(z, dtype=float)), checks))
        states0.append(hist.value_at(t0))
        u0s.append(u.interp(side, t0, states0[-1]))
    runs = _candidate_runs(spec, u, side, windows, search_budget)
    nodes = u.grid.nodes
    scans = [runs.blocks[s][seed] for s, site in enumerate(sites)
             for kind, seed in site.checks if kind == "scan"]
    if scans:
        corrs = _operator_corrections(spec.op, nodes, runs, np.unique(np.concatenate(scans)))
    G, reads = _characteristic_functional(u, side, nodes, runs, np.array(u0s)[runs.site])
    results = []
    for s, (site, (t0, hist, z, _), state0, u0) in enumerate(zip(sites, windows, states0, u0s)):
        k0, k_end = hist.grid.node_index(t0), hist.grid.n_steps
        steps = k_end - k0
        times = hist.grid.nodes[k0 + 1:]
        out = []
        for kind, seed in site.checks:
            lanes = runs.blocks[s][seed]
            if kind == "scan":
                states = np.ascontiguousarray(
                    runs.values[k0 + 1:k_end + 1, lanes].transpose(1, 0, 2))
                # row 0 of hams: the side's Hamiltonian at (t0, x0(t0), z), F0
                out.append(_scan_result(
                    t0, state0, z, u0, float(runs.hams[0, lanes[0]]), times,
                    _row_dots(states - state0, z), corrs[lanes, :steps], reads[lanes, :steps],
                    c_values, side, tolerance, search_budget, seed))
            else:
                out.append(_residual_report(
                    kind, G[lanes, :steps], times, runs.labels, t0, site.x0, z, u0, side,
                    tolerance, search_budget, seed))
        results.append(out)
    return results


def _residual_report(direction, G, times, labels, t0, x0, z, u0, side, tolerance, budget,
                     seed) -> ResidualReport:
    """The report of one residual search from its candidates' functional G,
    shape (candidate, window node past t0)."""
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
              "z": [float(v) for v in z]},
        direction=direction, side=side,
        slack=best_slack, tolerance=tolerance, verdict=bool(verdict),
        best_candidate=best_label, binding_time=best_time,
        lhs=u0, rhs=u0 + best_slack, budget=budget, seed=seed)


def _scan_result(t0, state0, z, u0, F0_val, times, dzs, corrs, u_vals, c_values, side,
                 tolerance, budget, seed) -> dict:
    """A scan's dict from its candidates' (candidate, window node past t0)
    terms of E: (x(t) - x0(t0), z), the correction and u(t, x(t))."""
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
            budget=budget, seed=seed))
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
