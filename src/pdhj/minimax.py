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
stepping together window-major on the value table's nodes, each site's
lanes over its own window: step j moves every lane at its own site's node
t0 + j.  A run raises the first error in this order: a check kind, a check
seed (not an integer, or below 0) or a site dimension it refuses, before
any work; each site's window and the span of its history (a time outside
its x0's span), site by site; the histories' values, built in one values_at
call and validated site by site; one read of the table at every site's
state (the largest margin among the sites); then the
lane solve, window-major across the sites, so the earliest window step's
error wins, then the earliest time's, then the lowest lane's, whichever
site it is on (the phases of each step are _candidate_runs').  A scan's
Hamiltonian F0 at (t0, x0(t0)) is its lanes' first stage terms, so a
non-finite stage term there raises at its step of the solve, as the
sub/super functional's do.  Then come the scans' operator pairings, one
batch over every scan lane's window nodes, and then the table reads along
the candidates, one batch over every site, a read naming the largest margin
among the lanes of the first window step where some candidate leaves the
lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, LatticeCoverageError
from .evolution import STEP_TOL, _ball_points, _lockstep_solve, _ragged_index, _seed_problem, \
    _tube_draws
from .game import COVERAGE_TOL, GameSpec, StateLattice, ValueTable, _coverage_error, dp_value, \
    dp_values, is_upper_side, minimax_records, with_drift_perturbation, with_terminal_shift
from .pathcore import Path, TimeGrid, _row_dots, extend_histories, history_reads, \
    pad_paths, stopped_at, values_at

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
    writes a copy of its fields (every one a JSON value, so the copy
    serializes as dataclasses.asdict of it does)."""

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


def _window_grid(grid: TimeGrid, t0: float, horizon: float, built=None):
    """(window grid, k0, k_end): the sub-grid of table nodes spanning
    [t_start, min(t0+horizon, T)] with >= 1 step past t0, and the nodes of
    t0 and of the window's end.  built, a dict, keeps the grid of each end
    node for the next call, so sites that share an end share one grid."""
    k0 = grid.node_index(t0)
    if k0 >= grid.n_steps:
        raise DomainError("site time t0 must lie strictly before the terminal node")
    nodes = grid.nodes
    t_end = min(t0 + horizon, grid.t_end)
    k_end = int(np.searchsorted(nodes, t_end + 1e-12)) - 1
    k_end = max(k_end, k0 + 1)
    built = {} if built is None else built
    if k_end not in built:
        built[k_end] = TimeGrid.from_nodes(nodes[: k_end + 1])
    return built[k_end], k0, k_end


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
    random tube samples, sample i drawing from default_rng([seed, i]) over
    its site's window only.  Every lane takes the
    tube constant spec.l_f and steps from its site's t0 to the end of its
    window; the lanes step window-major (_lockstep_solve), so window step j
    moves the lanes of every site whose window holds a j-th step, each at its
    own node.  Each step has four phases, in this order for the lockstep
    rule of pdhj.evolution, each over those lanes, which come ordered by
    node, then by lane:

    1. the characteristic aims: one ValueTable.gradient call, each row at
       its node's time;
    2. the stage terms: one full-grid lane_terms call per distinct node of
       the step, in node order, each at that node's float time, so a
       non-finite entry of any lane raises here, at its step, in (lane, p,
       q) order within its node.  They give the characteristics' stage
       matrices, the game lanes' drift at their played pairs and every
       lane's Hamiltonian.  For the upper Hamiltonian
       (min over p of max over q) the supersolution characteristic commits p
       along the value gradient and lets q answer the test direction z; the
       subsolution characteristic swaps the two roles, and the lower
       Hamiltonian mirrors this with q committing first.  Ties break to the
       smallest index;
    3. the tube points: one _ball_points call, on the windows of draws that
       _tube_draws takes for every tube lane when the lane set is built, in
       the order a one-point draw per step takes them;
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
    kinds, site_of, keys, blocks = [], [], [], []  # keys: [seed, sample index] per tube lane
    for s, site in enumerate(sites):
        first = len(kinds)
        game = np.arange(first, first + n_game)
        kinds += [_PAIR] * n_pairs + [_CHARACTERISTIC] * 2
        keys += [None] * n_game
        site_blocks = {}
        for seed in dict.fromkeys(seed for _, seed in site.checks):
            site_blocks[seed] = np.concatenate([game, np.arange(len(kinds), len(kinds) + n_random)])
            kinds += [_TUBE] * n_random
            keys += [[seed, i] for i in range(n_random)]
        site_of += [s] * (len(kinds) - first)
        blocks.append(site_blocks)
    kind, site_of = (np.array(a, dtype=int) for a in (kinds, site_of))
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
    L = np.full(m, float(spec.l_f))
    draws = _tube_draws(keys, end - start, dim, L)
    nodes = table.grid.nodes
    hams = np.zeros(((end - start).max(), m))

    def stage_terms(k, act, x_k, values):
        """One full-grid lane_terms call per distinct node of k, in node order
        (act is ordered by node), each at its node's float time."""
        cuts = np.flatnonzero(np.diff(k)) + 1
        terms = [spec.lane_terms(nodes[k[lo]], x_k[lo:hi], lambda j, lanes=act[lo:hi], node=k[lo]:
                                 stopped_at(grids[site_of[lanes[j]]],
                                            values[: end[lanes[j]] + 1, lanes[j]], node))
                 for lo, hi in zip([0, *cuts], [*cuts, len(act)])]
        return terms[0] if len(terms) == 1 else [np.concatenate(a) for a in zip(*terms)]

    def step_forcing(k, act, values, bound):
        x_k, kind_k = values[k, act], kind[act]
        chars, tube = np.flatnonzero(kind_k == _CHARACTERISTIC), np.flatnonzero(kind_k == _TUBE)
        game = np.flatnonzero(kind_k != _TUBE)
        zhat = table.gradient(side, nodes[k[chars]], x_k[chars])
        drift, cost = stage_terms(k, act, x_k, values)
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
        f[tube] = _ball_points(draws, tubes, k[tube] - start[tubes], bound[tube])
        return f

    values, forcing, _, _ = _lockstep_solve(spec.op, nodes, values, start, end, L, STEP_TOL,
                                            step_forcing)
    return _Lanes(labels, values, forcing, hams, start, end, site_of, z_lane, blocks)


def _read_rows(table: ValueTable, side: str, times, states, steps: np.ndarray):
    """table.interp_batch of every row at its own time in one call.  A
    refusal names the largest margin among the rows of the first window step
    (steps, per row) that has a row off the lattice, as one read per window
    step would."""
    try:
        return table.interp_batch(side, times, states)
    except LatticeCoverageError as refused:
        first = steps[refused.margins > COVERAGE_TOL].min()
        raise _coverage_error(refused.margins[steps == first]) from None


def _characteristic_functional(table: ValueTable, side: str, nodes, runs: _Lanes,
                               u0_lane: np.ndarray):
    """(G, reads), each shape (lane, step): reads[lane, j] = u(t_{k+1},
    x(t_{k+1})) and G[lane, j] = int_{t0}^{t_{k+1}} ((-f, z) + F(s, x, z)) ds
    + reads[lane, j] - u0 per lane at its window step k = start + j (0 past
    the window).

    runs is the lane set of _candidate_runs, which took the stage terms;
    u0_lane holds each lane's site's u0.  One interp_batch call reads every
    (lane, window step), each at its node's time, so a state off the
    lattice raises the largest margin among the lanes of the first window
    step that has one (_read_rows).  The integrands are formed for every
    row at once, and the integral is summed window step by window step from
    zeros, not with np.cumsum: the loop turns a leading -0.0 into +0.0, and
    that sign can reach a printed slack.
    """
    start, length = runs.start, runs.end - runs.start
    lanes, steps = _ragged_index(length)
    k = start[lanes] + steps
    G, reads, terms = np.zeros((3, len(start), int(length.max())))
    reads[lanes, steps] = _read_rows(table, side, nodes[k + 1], runs.values[k + 1, lanes], steps)
    terms[lanes, steps] = (nodes[k + 1] - nodes[k]) * (
        -_row_dots(runs.forcing[steps, lanes], runs.z[lanes]) + runs.hams[steps, lanes])
    acc = np.zeros(len(start))
    for j in range(G.shape[1]):
        held = np.flatnonzero(length > j)
        acc[held] = acc[held] + terms[held, j]
        G[held, j] = acc[held] + reads[held, j] - u0_lane[held]
    return G, reads


def _operator_corrections(op, nodes, runs: _Lanes, lanes: np.ndarray):
    """int_{t0}^{t_{k+1}} <A(s, x(s)), z> ds by the trapezoid rule for the
    given lanes, shape (lane, step) as _characteristic_functional's G: one
    op.batch call over every window node of those lanes, each row at its
    node's time (a column), then the sums window step by window step."""
    start, length = runs.start, runs.end - runs.start
    rows, j = _ragged_index(length[lanes] + 1)  # window nodes start .. end
    rows = lanes[rows]
    k = start[rows] + j
    pairing = np.zeros((len(start), int(length[lanes].max()) + 1))
    pairing[rows, j] = _row_dots(op.batch(nodes[k][:, None], runs.values[k, rows]), runs.z[rows])
    corrs = np.zeros((len(start), int(length.max())))
    corr = np.zeros(len(start))
    for step in range(1, pairing.shape[1]):
        held = lanes[length[lanes] >= step]
        k = start[held] + step
        corr[held] = corr[held] + 0.5 * (nodes[k] - nodes[k - 1]) * (
            pairing[held, step - 1] + pairing[held, step])
        corrs[held, step - 1] = corr[held]
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
    unknown check kind, a check seed that is not an integer (a Python or
    numpy integer) or is below 0, or a site whose history or z is not of the
    game's dimension, is refused (DomainError naming the site) before any
    work; the other errors come in the module docstring's order.
    """
    dim = spec.op.space.dim
    for s, site in enumerate(sites):
        for kind, seed in site.checks:
            if kind not in CHECK_KINDS:
                raise DomainError(f"check kind must be one of {CHECK_KINDS}, got {kind!r}")
            problem = _seed_problem(seed)
            if problem is not None:
                raise DomainError(f"site {s}: check seed {seed} {problem}")
        z_shape = np.shape(np.atleast_1d(site.z))
        if site.x0.dim != dim or z_shape != (dim,):
            raise DomainError(f"site {s}: history of dimension {site.x0.dim} and z of shape "
                              f"{z_shape}, where the game has dimension {dim}")
    tolerance = composite_tolerance(max(u.lattice.spacing), u.grid.mesh, search_budget)
    if c_values is None:
        c_values = (-4.0 * tolerance, -tolerance, 0.0, tolerance, 4.0 * tolerance)
    if not sites:
        return []
    win_grids, reads, built = [], [], {}  # each site's window grid and history reads
    for t0, x0, _, _ in sites:
        win_grids.append(_window_grid(u.grid, t0, horizon, built)[0])
        reads.append(history_reads(x0, win_grids[-1], t0))
    hists = extend_histories([site.x0 for site in sites], win_grids, reads)
    t0s = np.array([site.t0 for site in sites], dtype=float)
    states0 = values_at(*pad_paths([grid.nodes for grid in win_grids],
                                   [hist.values for hist in hists]), t0s)
    windows = [Site(t0, hist, np.atleast_1d(np.asarray(z, dtype=float)), checks)
               for (t0, _, z, checks), hist in zip(sites, hists)]
    u0s = u.interp_batch(side, t0s, states0).tolist()
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
    Its games share their dynamics, so one dp_values call computes the base
    table and the family's together.  'f-drift' adds a constant drift of
    magnitude 1/n, perturbing the Hamiltonian z-dependently; each of its
    games has its own stage function and so its own dp_value call.
    shift_exactness, |distance - 1/n|, is None for f-drift, where no exact
    distance is known.  Inputs that stability_refusal names raise
    DomainError before any table is computed.
    """
    n_list = tuple(int(n) for n in n_list)
    refusal = stability_refusal(family, n_list)
    if refusal is not None:
        raise DomainError(refusal[1])
    games = [spec] + [STABILITY_FAMILIES[family](spec, 1.0 / n) for n in n_list]
    tables = dp_values(games, grid, lattice) if family == "h-shift" \
        else [dp_value(game, grid, lattice) for game in games]
    base_vals = tables[0].v_plus
    distances, exactness = [], []
    for n, table in zip(n_list, tables[1:]):
        dist = float(np.max(np.abs(table.v_plus - base_vals)))
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
