"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not deferred: sandwich constants, convergence
windows, exactness tolerances, the composite residual tolerance, and the
calibrated Lyapunov step bound with its 95% / 2x violation policy.
"""

import math
import time

import numpy as np
import pytest

from pdhj.evolution import (
    audit_hypotheses,
    build_p_laplacian,
    make_linear_operator,
    solve_delay_evolution,
)
from pdhj.game import (
    ControlGrid,
    StateLattice,
    bilinear_game,
    dp_value,
    extremal_shift_strategy,
    hamiltonian,
    isaacs_game,
    lyapunov_violation_stats,
    minimax_records,
    play_feedback_games,
)
from pdhj.minimax import Site, bump_table, composite_tolerance, site_checks, \
    stability_experiment
from pdhj.pathcore import Path, TimeGrid, kappa_constant
from pdhj.upsilon import LyapunovParams, verify_chain_rule
from scalar_reference import calibrate_step_bound, carried_tables, estimate_guaranteed_result, \
    measurable_selection, path_difference, penalty_psi, recompute_slice, reference_game, sup_norm, \
    upsilon

KAPPA = kappa_constant()


def report(number, name, passed, detail):
    line = f"criterion {number:2d} ({name}): {'PASS' if passed else 'FAIL'} -- {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def desk_table():
    """The desk-scale Isaacs game with its 64 x 32 upper/lower value table."""
    spec = isaacs_game(scale=0.5)
    grid = TimeGrid(0.0, 1.0, 32)
    lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(64,))
    start = time.monotonic()
    table = dp_value(spec, grid, lattice)
    elapsed = time.monotonic() - start
    return spec, grid, lattice, table, elapsed


def test_criterion_01_upsilon_sandwich_bounds():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(4, 24))
        dim = int(rng.integers(1, 4))
        grid = TimeGrid(0.0, 1.0, n)
        scale = rng.choice([0.1, 1.0, 10.0])
        x = Path(grid, rng.standard_normal((n + 1, dim)) * scale)
        y = Path(grid, rng.standard_normal((n + 1, dim)) * scale)
        t = rng.uniform(0.0, 1.0)
        value = penalty_psi(t, x, y).value
        s2 = sup_norm(path_difference(x, y), t) ** 2
        if value < KAPPA * s2 - 1e-10 * (1.0 + s2) or value > 3.0 * s2 + 1e-10 * (1.0 + s2):
            violations += 1
    elapsed = time.monotonic() - start
    report(1, "penalty sandwich", violations == 0 and elapsed < 5.0,
           f"0 violations required, got {violations}; runtime {elapsed:.2f}s < 5s")


def _smooth_path_suite(rng, count):
    """Smooth analytic paths sampled on 16-step grids, mixed regimes."""
    paths = []
    grid = TimeGrid(0.0, 1.0, 16)
    s = grid.nodes
    for i in range(count):
        family = i % 4
        if family == 0:  # rising magnitude
            a, b = rng.uniform(0.5, 1.5), rng.uniform(0.3, 1.0)
            vals = (a + b * s)[:, None]
        elif family == 1:  # falling magnitude, possibly turning but staying below start
            a = rng.uniform(1.0, 2.0)
            b = rng.uniform(-1.0, -0.4)
            c = rng.uniform(-0.15, 0.15)
            vals = (a + b * s + c * s * s)[:, None]
        elif family == 2:  # interior peak
            a, b = rng.uniform(0.8, 1.2), rng.uniform(1.0, 4.0)
            vals = (a + b * s * (1.0 - s))[:, None]
        else:  # planar curve with drifting radius
            r = 1.0 + 0.3 * rng.uniform(0.5, 1.5) * s
            ang = math.pi / 3.0 * s
            vals = np.stack([r * np.cos(ang), 0.8 * np.sin(ang) + rng.uniform(0.2, 0.6)],
                            axis=1)
        paths.append(Path(grid, vals))
    return paths


def test_criterion_02_chain_rule_orders():
    rng = np.random.default_rng(202)
    params = LyapunovParams.at_epsilon0(lambda_L=0.5, horizon=1.0)
    start = time.monotonic()
    failures = []
    for idx, path in enumerate(_smooth_path_suite(rng, 100)):
        for functional, kwargs in (("upsilon", {}), ("nu", {"params": params})):
            rep = verify_chain_rule(functional, path, 0.0, 1.0, **kwargs)
            floor = 0.9 if rep.kink_count >= 1 else 1.9
            if not (rep.exact or rep.order_estimate >= floor):
                failures.append((idx, functional, rep.kink_count, rep.order_estimate))
    elapsed = time.monotonic() - start
    report(2, "chain rule refinement", not failures and elapsed < 30.0,
           f"100 paths x 2 functionals, order >= 1.9 (smooth) / 0.9 (kink); "
           f"failures={failures[:3]}; runtime {elapsed:.2f}s < 30s")


def test_criterion_03_theta_and_gradient_bounds():
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(2000):
        n = int(rng.integers(4, 16))
        dim = int(rng.integers(1, 4))
        grid = TimeGrid(0.0, 1.0, n)
        x = Path(grid, rng.standard_normal((n + 1, dim)) * rng.choice([0.01, 1.0, 50.0]))
        y = Path(grid, rng.standard_normal((n + 1, dim)) * rng.choice([0.01, 1.0, 50.0]))
        t = rng.uniform(0.0, 1.0)
        pe = penalty_psi(t, x, y)
        if not (0.0 <= pe.theta <= 4.0):
            violations += 1
        ev = upsilon(t, x)
        bound = 4.0 * float(np.linalg.norm(x.value_at(t))) * (1.0 + 1e-12)
        if float(np.linalg.norm(ev.dx)) > bound or ev.dt != 0.0:
            violations += 1
    report(3, "theta range and gradient bound", violations == 0,
           f"theta in [0,4] and |grad| <= 4|x(t)| on 2000 evaluations; "
           f"violations={violations}")


def test_criterion_04_solver_first_order_window():
    start = time.monotonic()
    op = make_linear_operator(dim=1, gain=1.0)
    ratios_all = []
    for forced in (False, True):
        errors = []
        for n in (8, 16, 32, 64, 128):
            grid = TimeGrid(0.0, 1.0, n)
            if forced:
                rep = solve_delay_evolution(op, 0.0, Path.constant(grid, [0.0]), np.ones((n, 1)),
                                            lipschitz_L=2.0)
                exact = 1.0 - math.exp(-1.0)
            else:
                rep = solve_delay_evolution(op, 0.0, Path.constant(grid, [1.0]), lipschitz_L=0.0)
                exact = math.exp(-1.0)
            errors.append(abs(rep.path.values[-1, 0] - exact))
        ratios = [a / b for a, b in zip(errors[:-1], errors[1:])]
        ratios_all.append([round(r, 3) for r in ratios])
        assert len(ratios) == 4
    elapsed = time.monotonic() - start
    ok = all(1.7 <= r <= 2.3 for rs in ratios_all for r in rs) and elapsed < 10.0
    report(4, "solver order", ok,
           f"halving ratios {ratios_all} all in [1.7, 2.3]; runtime {elapsed:.2f}s < 10s")


def test_criterion_05_p_laplacian_audits():
    results = []
    ok = True
    for p in (2.0, 3.0, 4.0):
        for nodes in (8, 16, 32):
            op = build_p_laplacian(nodes, p)
            audit = audit_hypotheses(op, 1000, seed=int(p * 100 + nodes))
            good = (audit.monotonicity_min >= -1e-12
                    and op.c2 > 0.0
                    and audit.coercivity_min >= op.c2)
            ok = ok and good
            results.append((p, nodes, round(audit.monotonicity_min, 15),
                            round(audit.coercivity_min, 6)))
    report(5, "operator audits", ok,
           f"p in {{2,3,4}} x nodes in {{8,16,32}}, 1000 samples each; "
           f"monotonicity >= -1e-12 and coercivity >= declared c2 > 0")


def test_criterion_06_hamiltonian_facts():
    grid = TimeGrid(0.0, 1.0, 4)
    x = Path.constant(grid, [0.0])
    pq = hamiltonian(bilinear_game(scale=1.0), 0.0, x, np.array([1.0]))
    additive = hamiltonian(isaacs_game(scale=1.0, cost_weight=0.0,
                                       controls=ControlGrid((-1.0, 1.0), (-1.0, 1.0))),
                           0.0, x, np.array([1.0]))
    rng = np.random.default_rng(606)
    order_ok = True
    for _ in range(200):
        spec = bilinear_game(scale=float(rng.uniform(0.2, 2.0)))
        n = int(rng.integers(4, 10))
        g = TimeGrid(0.0, 1.0, n)
        xp = Path(g, rng.standard_normal((n + 1, 1)))
        ev = hamiltonian(spec, float(rng.choice(g.nodes)), xp, rng.standard_normal(1))
        order_ok = order_ok and ev.f_minus <= ev.f_plus
    ok = (pq.isaacs_gap == 2.0 and pq.f_minus == -1.0 and pq.f_plus == 1.0
          and additive.isaacs_gap == 0.0 and order_ok)
    report(6, "hamiltonian facts", ok,
           f"bilinear gap {pq.isaacs_gap} == 2 exactly, additive gap "
           f"{additive.isaacs_gap} == 0 exactly, F- <= F+ on 200 samples")


def test_criterion_07_dp_coherence(desk_table):
    spec, grid, lattice, table, elapsed = desk_table
    bit_exact = all(
        np.array_equal(recompute_slice(table, spec, k, "upper"), table.v_plus[k])
        and np.array_equal(recompute_slice(table, spec, k, "lower"), table.v_minus[k])
        for k in range(grid.n_steps))
    ordered = bool(np.all(table.v_minus <= table.v_plus + 1e-12))
    points = lattice.points()
    terminal = reference_game(isaacs_game, scale=0.5).final_costs(
        points, lambda n: Path.constant(grid, points[n]))
    terminal_exact = (np.array_equal(table.v_plus[-1].ravel(), terminal)
                      and np.array_equal(table.v_minus[-1].ravel(), terminal))
    ok = bit_exact and ordered and terminal_exact and elapsed < 60.0
    report(7, "dp coherence", ok,
           f"DPP recompute bit-exact={bit_exact}, v- <= v+ pointwise={ordered}, "
           f"terminal exact={terminal_exact}, 64x32 build {elapsed:.1f}s < 60s")


def test_criterion_08_feedback_efficacy(desk_table):
    spec, grid, lattice, table, _ = desk_table
    params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=grid.t_end)
    x0 = Path.constant(grid, [0.4])
    partitions = [TimeGrid(0.0, 1.0, 8), TimeGrid(0.0, 1.0, 16), TimeGrid(0.0, 1.0, 32)]
    strategy = extremal_shift_strategy(spec, params, 0.0, x0, partitions[0],
                                       value=table, library_size=64, seed=0)
    m_hat = calibrate_step_bound(spec, strategy, partitions, 12, seed=1000)
    budget = 200
    est = estimate_guaranteed_result(spec, strategy, 0.0, x0, budget, partitions,
                                     seed=2000)
    v_site = table.interp("upper", 0.0, np.array([0.4]))
    tol = m_hat * grid.t_end + params.epsilon + max(lattice.spacing)
    worst = [p["worst_payoff"] for p in est.per_partition]
    weakly_decreasing = all(b <= a + 0.005 for a, b in zip(worst[:-1], worst[1:]))

    v_minus_site = table.interp("lower", 0.0, np.array([0.4]))
    plays = play_feedback_games(strategy, partitions,
                                carried_tables(spec.controls.n_q, budget, 2000, partitions)[1])
    stats = lyapunov_violation_stats(plays, m_hat)
    ok = (est.value <= v_site + tol
          and est.value >= v_minus_site - tol
          and weakly_decreasing
          and stats["fraction_within"] >= 0.95
          and stats["worst_excess_ratio"] <= 2.0)
    report(8, "feedback efficacy", ok,
           f"v- {v_minus_site:.4f} - tol <= estimate {est.value:.4f} <= "
           f"v+ {v_site:.4f} + tol {tol:.4f}; "
           f"per-partition worst {['%.4f' % w for w in worst]} weakly decreasing; "
           f"steps within m-hat*dt: {stats['fraction_within']:.3f} >= 0.95, "
           f"worst excess {stats['worst_excess_ratio']:.2f} <= 2.0 "
           f"(m-hat {m_hat:.4f}, budget {budget})")


def test_criterion_09_measurable_selection():
    rng = np.random.default_rng(909)
    exact = True
    for _ in range(50):
        H = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        sel = measurable_selection(H, epsilon=1e-9)
        for i, row in enumerate(H):
            best = max(row)
            exact = exact and row[sel[i]] == best and sel[i] == list(row).index(best)
    tie_a = measurable_selection(np.array([[2.0, 2.0, 1.0], [0.0, 3.0, 3.0]]), 1.0)
    tie_b = measurable_selection(np.full((3, 4), 7.0), 1.0)
    ties_ok = list(tie_a) == [0, 1] and list(tie_b) == [0, 0, 0]
    # minimax_records, behind every Hamiltonian a run computes, picks each
    # control by this rule on the reduced rows (negated for the minimizer)
    kernel_ok = True
    for draw in range(40):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        M = rng.integers(-2, 3, shape).astype(float) if draw % 2 else rng.standard_normal(shape)
        _, _, minus_q, minus_p, plus_p, plus_q = minimax_records(M)
        rows = np.arange(shape[0])
        picks = (measurable_selection(M.min(axis=1), 1.0),
                 measurable_selection(-M[rows, :, minus_q], 1.0),
                 measurable_selection(-M.max(axis=2), 1.0),
                 measurable_selection(M[rows, plus_p, :], 1.0))
        kernel_ok = kernel_ok and all(np.array_equal(got, want) for got, want in zip(
            (minus_q, minus_p, plus_p, plus_q), picks))
    report(9, "measurable selection", exact and ties_ok and kernel_ok,
           f"exact epsilon-optimality on 50 random matrices; "
           f"smallest-index ties on constructed cases: {ties_ok}; "
           f"minimax_records picks by the rule on 40 stage-matrix stacks: {kernel_ok}")


def test_criterion_10_minimax_residuals(desk_table):
    spec, grid, lattice, table, _ = desk_table
    rng = np.random.default_rng(1010)
    horizon = 4.0 * grid.mesh
    budget = 32
    tol = composite_tolerance(max(lattice.spacing), grid.mesh, budget)
    sites = []
    for i in range(20):
        k = int(rng.integers(0, grid.n_steps - 4))
        state = float(rng.uniform(-1.2, 1.2))
        z = rng.standard_normal(1) * 0.8
        x0 = Path.constant(grid, [state])
        sites.append(Site(grid.nodes[k], x0, z, (("sub", 3000 + i), ("super", 4000 + i))))
    failures = [(i, sub.slack, sup.slack)
                for i, (sub, sup) in enumerate(site_checks(table, spec, sites, horizon, budget))
                if not (sub.verdict and sup.verdict)]
    k_mid, s_mid = grid.n_steps // 2, 32
    bumped = bump_table(table, k_mid, s_mid, 0.2, side="upper")
    x0 = Path.constant(grid, [float(lattice.axes[0][s_mid])])
    (mut,), = site_checks(bumped, spec, [Site(grid.nodes[k_mid], x0, np.zeros(1),
                                              (("sub", 5000),))], horizon, budget)
    ok = not failures and not mut.verdict
    report(10, "minimax residuals", ok,
           f"20 random sites pass sub+super at composite tol {tol:.4f} "
           f"(failures={failures}); bumped table detected: {not mut.verdict} "
           f"(slack {mut.slack:.3f})")


def test_criterion_11_stability():
    spec = isaacs_game(scale=0.5)
    grid = TimeGrid(0.0, 1.0, 16)
    lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
    shift = stability_experiment(spec, "h-shift", (2, 4, 8, 16), grid, lattice)
    shift_exact = all(e <= 1e-12 for e in shift.shift_exactness)
    drift = stability_experiment(spec, "f-drift", (2, 4, 8, 16), grid, lattice)
    ok = shift_exact and drift.strictly_decreasing
    report(11, "stability", ok,
           f"h-shift distances {['%.6f' % d for d in shift.distances]} equal 1/n "
           f"exactly (<=1e-12); f-drift distances "
           f"{['%.4f' % d for d in drift.distances]} strictly decreasing")
