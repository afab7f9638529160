import numpy as np
import pytest

from pdhj.errors import DomainError, EvaluationError, LatticeCoverageError
from pdhj.evolution import DelayDynamics, make_linear_operator
from pdhj.game import (
    COMPANION_KINDS,
    STEP_RATE_FLOOR,
    ControlGrid,
    FeedbackPlay,
    FeedbackStrategy,
    GameSpec,
    GuaranteeEstimate,
    StateLattice,
    ValueTable,
    bilinear_game,
    constant_adversary,
    constant_game,
    dp_value,
    extremal_shift_strategy,
    hamiltonian,
    audit_hamiltonian_lipschitz,
    isaacs_game,
    lyapunov_violation_stats,
    play_feedback_games,
    random_adversary,
    recompute_slice,
    simulation_grid,
    step_rate_bound,
)
from pdhj.pathcore import Path, TimeGrid, stopped_at
from pdhj.upsilon import LyapunovParams
from scalar_reference import drift, estimate_guaranteed_result, game_audit, lyapunov_nu, \
    measurable_selection, path_difference, scale_costs, stage_cost


def one_point_path(grid, value=0.0):
    return Path.constant(grid, [value])


def brute_hamiltonians(spec, t, x, z):
    """Independent enumeration oracle for the lower/upper Hamiltonians."""
    rows = []
    for p in spec.controls.p_points:
        row = []
        for q in spec.controls.q_points:
            row.append(stage_cost(spec, t, x, p, q) + float(drift(spec, t, x, p, q) @ np.atleast_1d(z)))
        rows.append(row)
    f_minus = max(min(rows[i][j] for i in range(len(rows))) for j in range(len(rows[0])))
    f_plus = min(max(row) for row in rows)
    return f_minus, f_plus


class TestHamiltonian:
    def test_additive_game_has_zero_gap(self):
        spec = isaacs_game(scale=1.0, levels=(-1.0, 1.0), cost_weight=0.0)
        grid = TimeGrid(0.0, 1.0, 4)
        x = one_point_path(grid, 0.0)
        ev = hamiltonian(spec, 0.0, x, np.array([1.0]))
        assert ev.f_minus == 0.0
        assert ev.f_plus == 0.0
        assert ev.isaacs_gap == 0.0

    def test_bilinear_game_gap_two(self):
        spec = bilinear_game(scale=1.0)
        grid = TimeGrid(0.0, 1.0, 4)
        x = one_point_path(grid, 0.0)
        ev = hamiltonian(spec, 0.0, x, np.array([1.0]))
        assert ev.f_minus == -1.0
        assert ev.f_plus == 1.0
        assert ev.isaacs_gap == 2.0

    def test_zero_direction_constant_cost(self):
        spec = constant_game(cost=2.5)
        grid = TimeGrid(0.0, 1.0, 4)
        ev = hamiltonian(spec, 0.3, one_point_path(grid, 1.0), np.array([0.0]))
        assert ev.f_minus == 2.5
        assert ev.f_plus == 2.5

    def test_matches_brute_force_on_random_games(self):
        rng = np.random.default_rng(0)
        grid = TimeGrid(0.0, 1.0, 4)
        for _ in range(30):
            table = rng.standard_normal((3, 4))
            drift = rng.standard_normal((3, 4))
            op = make_linear_operator()
            dyn = DelayDynamics(
                op=op,
                rhs=lambda t, x, u, d=drift: np.array([d[int(u[0]), int(u[1])]]),
                lipschitz_L=10.0)
            spec = GameSpec(
                dyn=dyn,
                running_cost=lambda t, x, p, q, tb=table: float(tb[int(p), int(q)]),
                terminal_cost=lambda x: 0.0,
                controls=ControlGrid(p_points=(0, 1, 2), q_points=(0, 1, 2, 3)),
                l_f=10.0, lambda_L=1.0)
            x = one_point_path(grid, float(rng.standard_normal()))
            z = rng.standard_normal(1)
            ev = hamiltonian(spec, 0.5, x, z)
            f_minus, f_plus = brute_hamiltonians(spec, 0.5, x, z)
            assert ev.f_minus == pytest.approx(f_minus, abs=1e-14)
            assert ev.f_plus == pytest.approx(f_plus, abs=1e-14)
            assert ev.f_minus <= ev.f_plus

    def test_nonfinite_ingredients_raise(self):
        op = make_linear_operator()
        dyn = DelayDynamics(op=op, rhs=lambda t, x, u: np.array([np.inf]), lipschitz_L=1.0)
        spec = GameSpec(dyn=dyn, running_cost=lambda t, x, p, q: 0.0,
                        terminal_cost=lambda x: 0.0,
                        controls=ControlGrid(p_points=(0,), q_points=(0,)),
                        l_f=1.0, lambda_L=1.0)
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(EvaluationError):
            hamiltonian(spec, 0.0, one_point_path(grid), np.array([1.0]))


class TestLipschitzAudit:
    def test_bounded_by_construction(self):
        spec = isaacs_game()
        report = audit_hamiltonian_lipschitz(spec, 200, seed=1)
        assert report.max_ratio <= spec.l_f + 1e-9
        assert not report.flagged

    def test_zero_dynamics_ratio_zero(self):
        spec = constant_game(cost=1.0)
        report = audit_hamiltonian_lipschitz(spec, 100, seed=2)
        assert report.max_ratio == 0.0

    def test_game_spec_audit(self):
        assert game_audit(isaacs_game(), 100, seed=3)["passed"]
        assert game_audit(bilinear_game(), 100, seed=4)["passed"]


class TestStateLattice:
    def test_points_and_interpolation(self):
        lat = StateLattice(lo=(0.0,), hi=(1.0,), shape=(5,))
        vals = lat.points()[:, 0] ** 2
        got = lat.interpolate_batch(vals, np.array([[0.5], [0.25]]))
        assert got[0] == pytest.approx(0.25, abs=0.05)
        assert got[1] == pytest.approx(0.0625, abs=0.05)

    def test_out_of_lattice_raises_with_margin(self):
        lat = StateLattice(lo=(-1.0,), hi=(1.0,), shape=(5,))
        with pytest.raises(LatticeCoverageError) as err:
            lat.interpolate_batch(np.zeros(5), np.array([[1.5]]))
        assert err.value.margin == pytest.approx(0.5)

    def test_non_finite_state_is_off_the_lattice(self):
        # a NaN compares false with every bound, so its margin is +inf rather
        # than an index read at int(NaN)
        lat = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
        states = np.array([[np.nan], [0.0], [np.inf], [-np.inf], [2.5]])
        assert lat.coverage_margins(states).tolist() == [np.inf, 0.0, np.inf, np.inf, 0.5]
        with pytest.raises(LatticeCoverageError) as err:
            lat.interpolate_batch(np.arange(33.0), np.array([[np.nan], [0.0]]))
        assert err.value.margin == np.inf
        plane = StateLattice(lo=(0.0, 0.0), hi=(1.0, 1.0), shape=(3, 3))
        assert plane.coverage_margins(np.array([[0.5, np.nan], [0.5, 0.5]])).tolist() == [np.inf, 0.0]

    def test_axes_built_once_and_read_only(self):
        lat = StateLattice(lo=(-1.0, 0.0), hi=(1.0, 2.0), shape=(5, 3))
        assert lat.axes is lat.axes
        assert np.array_equal(lat.axes[1], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            lat.axes[0][0] = 3.0
        assert lat == StateLattice(lo=(-1.0, 0.0), hi=(1.0, 2.0), shape=(5, 3))
        assert hash(lat) == hash(StateLattice(lo=(-1.0, 0.0), hi=(1.0, 2.0), shape=(5, 3)))

    def test_dim_cap(self):
        with pytest.raises(DomainError):
            StateLattice(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0), shape=(3, 3, 3))

    def test_2d_interpolation(self):
        lat = StateLattice(lo=(0.0, 0.0), hi=(1.0, 1.0), shape=(3, 3))
        field = np.add.outer(lat.axes[0], lat.axes[1])
        assert lat.interpolate_batch(field, np.array([[0.3, 0.7]]))[0] == pytest.approx(1.0)

    def test_value_table_time_interpolation(self):
        spec = constant_game(cost=2.0)
        grid = TimeGrid(0.0, 1.0, 4)
        table = dp_value(spec, grid, small_lattice(n=5))
        # value is 2(1 - t); between nodes the linear-in-time interpolant is exact
        assert table.interp("upper", 0.375, np.array([0.0])) == pytest.approx(1.25, abs=1e-9)

    def test_value_table_batch_rejects_time_outside_span(self):
        table = dp_value(constant_game(cost=2.0), TimeGrid(0.0, 1.0, 4), small_lattice(n=5))
        states = np.array([[0.0], [0.5]])
        with pytest.raises(DomainError):
            table.interp_batch("upper", 1.5, states)
        with pytest.raises(DomainError):
            table.interp("upper", -0.5, np.array([0.0]))


def small_lattice(span=2.0, n=33):
    return StateLattice(lo=(-span,), hi=(span,), shape=(n,))


class TestDpValue:
    def test_zero_costs_zero_value(self):
        spec = isaacs_game(cost_weight=0.0)
        spec = GameSpec(dyn=spec.dyn, running_cost=spec.running_cost,
                        terminal_cost=lambda x: 0.0, controls=spec.controls,
                        l_f=spec.l_f, lambda_L=spec.lambda_L, name="zero")
        table = dp_value(spec, TimeGrid(0.0, 1.0, 8), small_lattice())
        assert np.allclose(table.v_minus, 0.0, atol=1e-12)
        assert np.allclose(table.v_plus, 0.0, atol=1e-12)

    def test_constant_game_value(self):
        spec = constant_game(cost=1.5)
        grid = TimeGrid(0.0, 1.0, 16)
        table = dp_value(spec, grid, small_lattice())
        expected = 1.5 * (1.0 - grid.nodes)
        for k in range(17):
            assert np.allclose(table.v_plus[k], expected[k], atol=1e-10)

    def test_bilinear_gap_opens(self):
        spec = bilinear_game(scale=1.0)
        table = dp_value(spec, TimeGrid(0.0, 1.0, 8), small_lattice())
        assert np.all(table.v_minus <= table.v_plus + 1e-12)
        assert np.max(table.v_plus - table.v_minus) > 0.05

    def test_terminal_slice_exact(self):
        spec = isaacs_game()
        lat = small_lattice()
        table = dp_value(spec, TimeGrid(0.0, 1.0, 4), lat)
        expected = np.array([spec.final_cost(Path.constant(table.grid, pt))
                             for pt in lat.points()])
        assert np.array_equal(table.v_plus[-1], expected)
        assert np.array_equal(table.v_minus[-1], expected)

    def test_single_step_matches_enumeration_oracle(self):
        spec = isaacs_game(scale=0.5)
        grid = TimeGrid(0.0, 0.25, 1)
        lat = small_lattice()
        table = dp_value(spec, grid, lat)
        axis = lat.axes[0]
        h_slice = np.array([spec.final_cost(Path.constant(grid, [s])) for s in axis])
        dt = 0.25
        for idx, xi in enumerate(axis):
            lift = Path.constant(grid, [xi])
            best_plus = np.inf
            for p in spec.controls.p_points:
                worst = -np.inf
                for q in spec.controls.q_points:
                    f = drift(spec, 0.0, lift, p, q)[0]
                    succ = (xi + dt * f) / (1.0 + dt)  # closed-form implicit step, gain 1
                    val = dt * stage_cost(spec, 0.0, lift, p, q) + np.interp(succ, axis, h_slice)
                    worst = max(worst, val)
                best_plus = min(best_plus, worst)
            assert table.v_plus[0, idx] == pytest.approx(best_plus, abs=1e-9)

    def test_dpp_recompute_bit_exact(self):
        spec = isaacs_game()
        table = dp_value(spec, TimeGrid(0.0, 1.0, 8), small_lattice())
        for k in (0, 3, 7):
            assert np.array_equal(recompute_slice(table, spec, k, "upper"), table.v_plus[k])
            assert np.array_equal(recompute_slice(table, spec, k, "lower"), table.v_minus[k])

    def test_side_aliases_and_unknown_side(self):
        # "upper" and "lower" are the only side names; the old aliases are refused
        spec = isaacs_game()
        table = dp_value(spec, TimeGrid(0.0, 1.0, 4), small_lattice(n=9))
        assert np.array_equal(recompute_slice(table, spec, 1, "upper"), table.v_plus[1])
        assert np.array_equal(recompute_slice(table, spec, 1, "lower"), table.v_minus[1])
        for side in ("plus", "minus", "both", "uper", "Upper"):
            with pytest.raises(DomainError, match="unknown side"):
                recompute_slice(table, spec, 1, side)
            with pytest.raises(DomainError, match="unknown side"):
                table.side_values(side)

    def test_cost_scaling_linearity(self):
        spec = isaacs_game()
        grid = TimeGrid(0.0, 1.0, 6)
        lat = small_lattice()
        base = dp_value(spec, grid, lat)
        doubled = dp_value(scale_costs(spec, 2.0), grid, lat)
        assert np.allclose(doubled.v_plus, 2.0 * base.v_plus, atol=1e-9)
        assert np.allclose(doubled.v_minus, 2.0 * base.v_minus, atol=1e-9)

    def test_expansion_error_names_margin(self):
        spec = isaacs_game(scale=4.0)
        tight = StateLattice(lo=(-0.05,), hi=(0.05,), shape=(5,))
        with pytest.raises(LatticeCoverageError) as err:
            dp_value(spec, TimeGrid(0.0, 1.0, 4), tight)
        assert err.value.margin > 0.0

    def test_value_table_serializes(self):
        spec = constant_game()
        table = dp_value(spec, TimeGrid(0.0, 1.0, 2), small_lattice(n=5))
        obj = table.to_json_obj()
        assert "v_plus" in obj and "v_minus" in obj
        csv_text = table.to_csv()
        assert csv_text.startswith("t,s_1,v_minus,v_plus")

    def test_value_continuity_sanity(self):
        # values vary boundedly in time and state on the lattice: the observed
        # increments yield a finite candidate modulus, no jumps
        spec = isaacs_game(scale=0.5)
        grid = TimeGrid(0.0, 1.0, 16)
        lat = small_lattice()
        table = dp_value(spec, grid, lat)
        dt_jump = np.max(np.abs(np.diff(table.v_plus, axis=0))) / grid.mesh
        dx_jump = np.max(np.abs(np.diff(table.v_plus, axis=1))) / lat.spacing[0]
        assert np.isfinite(dt_jump) and dt_jump < 20.0
        assert np.isfinite(dx_jump) and dx_jump < 20.0


class TestMeasurableSelection:
    def test_product_matrix_example(self):
        points = (-1.0, 0.0, 1.0)
        H = np.array([[p * q for q in points] for p in points])
        sel = measurable_selection(H, epsilon=1e-9)
        assert list(sel) == [0, 0, 2]

    def test_constant_matrix_all_first(self):
        sel = measurable_selection(np.full((4, 5), 3.3), epsilon=0.1)
        assert list(sel) == [0, 0, 0, 0]

    def test_exact_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            H = rng.standard_normal((int(rng.integers(2, 8)), int(rng.integers(2, 8))))
            sel = measurable_selection(H, epsilon=1e-6)
            for i, row in enumerate(H):
                # independent oracle: python max + first-index scan
                best = max(row)
                assert row[sel[i]] == best
                assert sel[i] == list(row).index(best)

    def test_constructed_ties_take_smallest_index(self):
        H = np.array([[1.0, 2.0, 2.0, 0.0], [5.0, 5.0, 5.0, 5.0]])
        sel = measurable_selection(H, epsilon=1.0)
        assert list(sel) == [1, 0]

    def test_epsilon_must_be_positive(self):
        with pytest.raises(DomainError):
            measurable_selection(np.zeros((2, 2)), epsilon=0.0)

    def test_nonfinite_matrix_rejected(self):
        H = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(EvaluationError):
            measurable_selection(H, epsilon=0.5)


def desk_setup(n_time=16, lattice_n=33, span=2.0):
    spec = isaacs_game(scale=0.5)
    grid = TimeGrid(0.0, 1.0, n_time)
    lattice = small_lattice(span=span, n=lattice_n)
    table = dp_value(spec, grid, lattice)
    params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
    return spec, grid, lattice, table, params


class TestFeedbackStrategy:
    def test_zero_difference_gradient_is_zero(self):
        # x0 sits on the lattice point 0, so the best companion has zero
        # difference and the gradient is that of nu at the zero path
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        x0 = one_point_path(grid, 0.0)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0,
                                           TimeGrid(0.0, 1.0, 4),
                                           value=table, library_size=4, seed=0)
        gradient = strategy.companion_minima(0.0, strategy.x0.values[:1, None, :])[3][0]
        nu = lyapunov_nu(params, 0.0,
                         path_difference(strategy.x0, Path.constant(strategy.x0.grid, [0.0])))
        assert np.all(gradient == 0.0)
        assert np.array_equal(gradient, nu.dx)

    def test_companion_gradient_matches_lyapunov_nu(self):
        # make one random lattice state the cheapest companion by lowering its
        # value; the strategy's gradient must then be d/dx nu(t, x - c)
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        rng = np.random.default_rng(7)
        j = int(rng.integers(len(lattice.points())))
        c = lattice.points()[j]
        v_plus = table.v_plus.copy()
        v_plus[:, j] = -1e3
        rigged = ValueTable(grid=grid, lattice=lattice, v_minus=None, v_plus=v_plus)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.0),
                                           TimeGrid(0.0, 1.0, 4),
                                           value=rigged, library_size=4, seed=0)
        sim = strategy.x0.grid
        x = Path(sim, 0.5 * rng.standard_normal((sim.n_steps + 1, 1)))
        t = 0.5
        k = sim.node_index(t)
        _, kinds, indices, gradients = strategy.companion_minima(t, x.values[: k + 1, None, :])
        nu = lyapunov_nu(params, t, path_difference(x, Path.constant(sim, c)))
        assert (COMPANION_KINDS[kinds[0]], indices[0]) == ("lattice", j)
        assert np.any(nu.dx != 0.0)
        assert gradients[0] == pytest.approx(nu.dx, rel=1e-12, abs=0.0)

    def test_zero_gradient_selection_is_static_minimax(self):
        # at t0 with x0 on a lattice point the best companion is x0 itself,
        # so the gradient vanishes and p solves min over p of max over q at z=0
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        x0 = one_point_path(grid, 0.0)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0,
                                           TimeGrid(0.0, 1.0, 4),
                                           value=table, library_size=0, seed=0)
        gradient = strategy.companion_minima(0.0, strategy.x0.values[:1, None, :])[3][0]
        p_index = _select_one(strategy, 0.0, strategy.x0, gradient)
        M = spec.stage_matrix(0.0, strategy.x0, np.zeros(1))
        assert p_index == int(np.argmin(M.max(axis=1)))

    def test_select_agrees_with_hamiltonian_argmin(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        x0 = one_point_path(grid, 0.4)
        partition = TimeGrid(0.0, 1.0, 8)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0, partition,
                                           value=table, library_size=16, seed=1)
        gradient = strategy.companion_minima(0.0, strategy.x0.values[:1, None, :])[3][0]
        p_index = _select_one(strategy, 0.0, strategy.x0, gradient)
        ev = hamiltonian(spec, 0.0, strategy.x0, gradient)
        assert p_index == ev.plus_p_index

    def test_run_deterministic(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        partition = TimeGrid(0.0, 1.0, 4)
        x0 = one_point_path(grid, 0.4)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0, partition,
                                           value=table, library_size=8, seed=2)
        adv = constant_adversary(1)
        first = play_feedback_games(spec, strategy, [adv], partition)
        second = play_feedback_games(spec, strategy, [adv], partition)
        assert np.array_equal(first.p, second.p)
        assert np.array_equal(first.values, second.values)
        assert first.payoff == second.payoff

    def test_payoff_is_exact_sum(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.4),
                                           partition, value=table, library_size=8, seed=3)
        play = play_feedback_games(spec, strategy, [random_adversary(5, spec.controls.n_q)],
                                   partition)
        running = 0.0
        for cost in play.step_cost[:, 0]:  # the cells' costs, added in cell order
            running += cost
        assert play.running[0] == running
        assert play.payoff[0] == play.running[0] + play.terminal[0]

    def test_zero_cost_game_payoff_zero(self):
        spec = isaacs_game(cost_weight=0.0)
        spec = GameSpec(dyn=spec.dyn, running_cost=spec.running_cost,
                        terminal_cost=lambda x: 0.0, controls=spec.controls,
                        l_f=spec.l_f, lambda_L=spec.lambda_L, name="zero-cost")
        grid = TimeGrid(0.0, 1.0, 8)
        table = dp_value(spec, grid, small_lattice())
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.2),
                                           partition, value=table, library_size=4, seed=4)
        for adv in (constant_adversary(0), constant_adversary(2),
                    random_adversary(1, 3)):
            assert play_feedback_games(spec, strategy, [adv], partition).payoff[0] == 0.0

    def test_simulation_grid_unions_nodes(self):
        value_grid = TimeGrid(0.0, 1.0, 32)
        partition = TimeGrid(0.0, 1.0, 8)
        inner = simulation_grid(value_grid, partition)
        assert inner.n_steps == 32  # partition nodes already included

    def test_play_record_shapes(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.4),
                                           partition, value=table, library_size=4, seed=6)
        play = play_feedback_games(spec, strategy, [constant_adversary(0), random_adversary(1, 3)],
                                   partition)
        for name in ("p", "q", "step_cost", "u_before", "u_after", "kind", "index", "residual"):
            assert getattr(play, name).shape == (4, 2), name
        assert play.values.shape == (len(strategy.x0.grid.nodes), 2, 1)
        assert play.running.shape == play.terminal.shape == play.payoff.shape == (2,)
        assert np.all(play.q[:, 0] == 0)
        # each cell starts at the shifted value the one before it ended at
        assert np.array_equal(play.u_before[1:], play.u_after[:-1])
        assert np.array_equal(play.residual, play.step_cost + play.u_after - play.u_before)
        assert set(play.kind.ravel().tolist()) <= set(range(len(COMPANION_KINDS)))
        # one game's record is a lane slice, its arrays copied out
        second = play.lanes(slice(1, 2))
        assert second.values.shape == (len(strategy.x0.grid.nodes), 1, 1)
        assert np.array_equal(second.p[:, 0], play.p[:, 1])
        assert second.payoff.tolist() == play.payoff[1:].tolist()


class TestGuaranteedResult:
    def test_zero_game_budget_one(self):
        spec = isaacs_game(cost_weight=0.0)
        spec = GameSpec(dyn=spec.dyn, running_cost=spec.running_cost,
                        terminal_cost=lambda x: 0.0, controls=spec.controls,
                        l_f=spec.l_f, lambda_L=spec.lambda_L, name="zero-cost")
        grid = TimeGrid(0.0, 1.0, 8)
        table = dp_value(spec, grid, small_lattice())
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        x0 = one_point_path(grid, 0.0)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0, TimeGrid(0.0, 1.0, 4),
                                           value=table, library_size=4, seed=7)
        est = estimate_guaranteed_result(spec, strategy, 0.0, x0, 1,
                                         [TimeGrid(0.0, 1.0, 4)], seed=7)
        assert est.value == 0.0

    def test_monotone_in_budget(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        x0 = one_point_path(grid, 0.4)
        partition = TimeGrid(0.0, 1.0, 8)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0, partition,
                                           value=table, library_size=8, seed=8)
        small = estimate_guaranteed_result(spec, strategy, 0.0, x0, 4, [partition], seed=8)
        large = estimate_guaranteed_result(spec, strategy, 0.0, x0, 8, [partition], seed=8)
        assert large.value >= small.value - 1e-12

    def test_certificate_records_pool(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        x0 = one_point_path(grid, 0.4)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0, partition,
                                           value=table, library_size=4, seed=9)
        est = estimate_guaranteed_result(spec, strategy, 0.0, x0, 5, [partition], seed=9)
        assert est.certificate["budget"] == 5
        assert len(est.certificate["pool"]) == 5

    def test_estimate_validates_site_against_strategy(self):
        from pdhj.errors import ConfigurationError
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        x0 = one_point_path(grid, 0.4)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0, partition,
                                           value=table, library_size=4, seed=9)
        with pytest.raises(ConfigurationError):
            estimate_guaranteed_result(spec, strategy, 0.5, x0, 2, [partition])
        with pytest.raises(ConfigurationError):
            estimate_guaranteed_result(spec, strategy, 0.0, one_point_path(grid, -1.0),
                                       2, [partition])

    def test_strategy_requires_value_table(self):
        from pdhj.errors import ConfigurationError
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        with pytest.raises(ConfigurationError):
            FeedbackStrategy(spec, params, None, 0.0, one_point_path(grid, 0.0), [])

    def test_mid_horizon_start(self):
        # a game entered at t0 = 0.5 with nontrivial history
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        hist = Path(grid, 0.4 + 0.2 * grid.nodes[:, None])
        partition = TimeGrid.from_nodes([0.5, 0.75, 1.0])
        strategy = extremal_shift_strategy(spec, params, 0.5, hist, partition,
                                           value=table, library_size=8, seed=10)
        play = play_feedback_games(spec, strategy, [constant_adversary(2)], partition)
        sim = strategy.x0.grid
        k0 = sim.node_index(0.5)
        expected = np.array([hist.value_at(t) for t in sim.nodes[: k0 + 1]])
        assert np.allclose(play.values[: k0 + 1, 0], expected, atol=1e-12)
        assert play.p.shape == (2, 1)

    def test_partition_must_match_t0(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        with pytest.raises(DomainError):
            extremal_shift_strategy(spec, params, 0.5, one_point_path(grid, 0.0),
                                    TimeGrid(0.0, 1.0, 4), value=table, library_size=2)


def _play_of_residuals(residual):
    """A hand-built record on the 4-cell partition of [0, 1] (dt = 0.25) whose
    residual is the given (step, game) array."""
    residual = np.asarray(residual, dtype=float)
    zeros, codes, n = np.zeros_like(residual), np.zeros(residual.shape, dtype=int), \
        residual.shape[1]
    return FeedbackPlay(partition=TimeGrid(0.0, 1.0, 4), p=codes, q=codes, step_cost=residual,
                        u_before=zeros, u_after=zeros, kind=codes, index=codes,
                        values=np.zeros((5, n, 1)), running=np.zeros(n), terminal=np.zeros(n))


class TestPlayReductions:
    residual = [[0.5, -1.0], [0.6, 0.25], [0.25, 1.5], [0.0, 0.1]]

    def test_step_rate_bound_is_the_largest_rate_floored(self):
        assert step_rate_bound([_play_of_residuals(self.residual)]) == 1.5 / 0.25
        assert step_rate_bound([_play_of_residuals(-np.ones((4, 2)))]) == STEP_RATE_FLOOR
        assert step_rate_bound([]) == STEP_RATE_FLOOR

    def test_violation_stats_count_the_bound_itself_within(self):
        play = _play_of_residuals(self.residual)
        # m_hat * dt = 0.5: the residual 0.5 is within, 0.6 and 1.5 exceed it
        # by the ratios 1.2 and 3; the second record is game 1 again
        stats = lyapunov_violation_stats([play, play.lanes([1])], 2.0)
        assert stats == {"steps": 12, "within_bound": 9, "fraction_within": 0.75,
                         "worst_excess_ratio": 3.0}
        assert type(stats["steps"]) is int and type(stats["within_bound"]) is int
        assert lyapunov_violation_stats([], 2.0)["fraction_within"] == 1.0

    def test_worst_payoff_tie_keeps_the_earlier_adversary(self):
        pool = [constant_adversary(j) for j in range(4)]
        partitions = [TimeGrid(0.0, 1.0, 4), TimeGrid(0.0, 1.0, 8)]
        est = GuaranteeEstimate.from_payoffs(
            pool, partitions, [np.array([1.0, 3.0, 3.0, 2.0]), np.array([0.5, 0.5, 0.0, 0.5])],
            budget=4, seed=0)
        assert [(p["worst_payoff"], p["worst_adversary"]) for p in est.per_partition] == \
            [(3.0, "constant[1]"), (0.5, "constant[0]")]
        assert est.value == 3.0
        assert est.certificate["pool"] == [f"constant[{j}]" for j in range(4)]


def planar_game():
    op = make_linear_operator(dim=2, gain=1.0)
    dyn = DelayDynamics(
        op=op,
        rhs=lambda t, x, u: 0.4 * np.array([float(u[0]), float(u[1])]),
        lipschitz_L=0.8)
    return GameSpec(
        dyn=dyn,
        running_cost=lambda t, x, p, q: 0.05 * float(np.dot(x.value_at(t), x.value_at(t))),
        terminal_cost=lambda x: float(np.dot(x.values[-1], x.values[-1])),
        controls=ControlGrid(p_points=(-1.0, 1.0), q_points=(-1.0, 1.0)),
        l_f=0.8, lambda_L=0.3, name="planar")


class TestTwoDimensional:
    def test_dp_value_2d(self):
        spec = planar_game()
        grid = TimeGrid(0.0, 1.0, 4)
        lattice = StateLattice(lo=(-1.5, -1.5), hi=(1.5, 1.5), shape=(9, 9))
        table = dp_value(spec, grid, lattice)
        assert table.v_plus.shape == (5, 9, 9)
        assert np.all(table.v_minus <= table.v_plus + 1e-12)
        assert np.array_equal(recompute_slice(table, spec, 2, "upper"), table.v_plus[2])

    def test_feedback_run_2d(self):
        from pdhj.upsilon import LyapunovParams
        spec = planar_game()
        grid = TimeGrid(0.0, 1.0, 8)
        lattice = StateLattice(lo=(-1.5, -1.5), hi=(1.5, 1.5), shape=(9, 9))
        table = dp_value(spec, grid, lattice)
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        x0 = Path.constant(grid, [0.3, -0.2])
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0, partition,
                                           value=table, library_size=8, seed=11)
        play = play_feedback_games(spec, strategy, [constant_adversary(1)], partition)
        assert np.all(np.isfinite(play.values))
        assert play.payoff[0] == play.running[0] + play.terminal[0]


def _probe_offsets_reference(strategy, t, dim):
    """The probe offsets as a list, built one offset at a time."""
    budget = strategy.PROBE_BUDGET_RATE * strategy.spec.l_f * max(t - strategy.t0, 0.0)
    if budget <= 0.0:
        return []
    eps_sq = strategy.params.epsilon ** 2
    offsets = []
    for scale in strategy.PROBE_SCALES:
        s = min(scale * eps_sq, budget)
        if s <= 0.0:
            continue
        for d in range(dim):
            for sign in (1.0, -1.0):
                e = np.zeros(dim)
                e[d] = sign * s
                offsets.append(e)
    return offsets


def _probe_candidates_reference(strategy, t, state):
    """The per-offset probe loop: one interp call per probe, off-lattice probes skipped."""
    kept, offsets, u_vals = [], [], []
    for i, o in enumerate(_probe_offsets_reference(strategy, t, len(state))):
        try:
            u_vals.append(strategy.value.interp("upper", t, state - o))
        except LatticeCoverageError:
            continue
        kept.append(i)
        offsets.append(o)
    return kept, offsets, u_vals


class TestCompanionOncePerNode:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_batched_probes_match_per_offset_loop(self, dim):
        if dim == 1:
            spec, grid, lattice, table, params = desk_setup(n_time=8)
        else:
            spec, grid = planar_game(), TimeGrid(0.0, 1.0, 4)
            lattice = StateLattice(lo=(-1.5, -1.5), hi=(1.5, 1.5), shape=(9, 9))
            table = dp_value(spec, grid, lattice)
            params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        strategy = extremal_shift_strategy(spec, params, 0.0, Path.constant(grid, np.zeros(dim)),
                                           TimeGrid(0.0, 1.0, 4), value=table,
                                           library_size=0, seed=0)
        hi = np.asarray(lattice.hi)
        eps_sq = params.epsilon ** 2
        # interior, on the edge, and just inside it: the edge states drop some probes
        states = [np.zeros(dim), hi, hi - 1e-10, hi - 2.0 * eps_sq, np.asarray(lattice.lo)]
        partial = 0
        for t in (0.0, 0.25, 0.5, 1.0):
            steps = [abs(o).max() for o in _probe_offsets_reference(strategy, t, dim)]
            # the smallest probe leaves the box by 5e-10, inside COVERAGE_TOL: kept
            near = [hi - min(steps) + 5e-10] if steps else []
            # every state is one game of a single batched call
            offsets, kept, u_vals = strategy._probe_candidates(t, np.array(states + near))
            n_all = len(_probe_offsets_reference(strategy, t, dim))
            assert offsets.shape == (n_all, dim)
            assert kept.shape == u_vals.shape == (len(states + near), n_all)
            assert strategy._probe_offsets(t, dim).tobytes() == offsets.tobytes()
            for g, state in enumerate(states + near):
                ref_kept, ref_offsets, ref_u = _probe_candidates_reference(strategy, t, state)
                assert np.flatnonzero(kept[g]).tolist() == ref_kept
                assert offsets[kept[g]].tobytes() == \
                    np.array(ref_offsets, dtype=float).reshape(-1, dim).tobytes()
                assert u_vals[g, kept[g]].tobytes() == np.array(ref_u, dtype=float).tobytes()
                assert np.all(u_vals[g, ~kept[g]] == np.inf)
                partial += 0 < len(ref_kept) < n_all
        assert partial > 0

    def test_one_companion_minimum_per_partition_node(self, monkeypatch):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.4),
                                           partition, value=table, library_size=8, seed=2)
        pool = [random_adversary(3, spec.controls.n_q), constant_adversary(0),
                random_adversary(4, spec.controls.n_q)]
        calls = []
        original = FeedbackStrategy.companion_minima

        def counted(self, t, X):
            calls.append((t, X.shape[1]))
            return original(self, t, X)

        monkeypatch.setattr(FeedbackStrategy, "companion_minima", counted)
        play = play_feedback_games(spec, strategy, pool, partition)
        monkeypatch.undo()
        # n + 1 batched calls for n steps, each for the whole pool
        assert calls == [(t, len(pool)) for t in partition.nodes]
        # each cell holds the companion minimum on the path stopped at its nodes
        for g in range(len(pool)):
            self._check_cells(strategy, partition, play, g)

    @staticmethod
    def _check_cells(strategy, partition, play, g):
        sim, values = strategy.x0.grid, play.values[:, g]
        for i in range(partition.n_steps):
            t_i, t_i1 = partition.nodes[i], partition.nodes[i + 1]
            before = strategy.companion_minima(t_i, values[: sim.node_index(t_i) + 1, None, :])
            after = strategy.companion_minima(t_i1, values[: sim.node_index(t_i1) + 1, None, :])
            assert (play.u_before[i, g], play.kind[i, g], play.index[i, g]) \
                == tuple(a[0] for a in before[:3])
            assert play.u_after[i, g] == after[0][0]
            assert play.p[i, g] == _select_one(
                strategy, t_i, stopped_at(sim, values, sim.node_index(t_i)), before[3][0])


def _select_one(strategy, t, x, gradient):
    """FeedbackStrategy.select_controls for the one game at (t, x) aimed by gradient."""
    p_indices = strategy.select_controls(t, x.value_at(t)[None], lambda _: x, gradient[None])
    assert p_indices.shape == (1,)
    return int(p_indices[0])


def _stage_matrix_reference(spec, t, x, z):
    """The per-pair stage matrix loop: one cost and one drift call per (p, q)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    M = np.empty((spec.controls.n_p, spec.controls.n_q))
    for i, p in enumerate(spec.controls.p_points):
        for j, q in enumerate(spec.controls.q_points):
            M[i, j] = stage_cost(spec, t, x, p, q) + float(drift(spec, t, x, p, q) @ z)
    return M


def _failing_game(bad):
    """A 2x3 game whose drift or cost is non-finite at each ("drift" | "cost", p, q) in bad."""
    def rhs(t, x, u):
        return np.array([np.nan if ("drift",) + tuple(u) in bad else 0.1 * (u[0] - u[1])])

    def running(t, x, p, q):
        return np.inf if ("cost", p, q) in bad else 0.5 * p * q + float(x.value_at(t)[0])

    return GameSpec(dyn=DelayDynamics(op=make_linear_operator(), rhs=rhs, lipschitz_L=1.0),
                    running_cost=running, terminal_cost=lambda x: 0.0,
                    controls=ControlGrid(p_points=(0.0, 1.0), q_points=(0.0, 1.0, 2.0)),
                    l_f=1.0, lambda_L=1.0)


class TestStageSweep:
    @pytest.mark.parametrize("make", [isaacs_game, bilinear_game, planar_game])
    def test_stage_matrix_matches_per_pair_loop(self, make):
        spec = make()
        dim = spec.dyn.op.space.dim
        rng = np.random.default_rng(12)
        grid = TimeGrid(0.0, 1.0, 8)
        for _ in range(40):
            x = Path(grid, rng.standard_normal((9, dim)) * rng.choice([0.1, 1.0, 30.0]))
            t = float(rng.choice([grid.nodes[3], rng.uniform(0.0, 1.0)]))
            z = rng.standard_normal(dim) * rng.choice([1e-3, 1.0, 1e3])
            got = spec.stage_matrix(t, x, z)
            assert got.tobytes() == _stage_matrix_reference(spec, t, x, z).tobytes()
            drift, cost = spec.stage_terms(t, x)
            assert drift.shape == (spec.controls.n_p, spec.controls.n_q, dim)
            assert cost.tobytes() == np.array(
                [[stage_cost(spec, t, x, p, q) for q in spec.controls.q_points]
                 for p in spec.controls.p_points]).tobytes()

    @pytest.mark.parametrize("bad,message", [
        ({("cost", 0.0, 2.0), ("drift", 1.0, 0.0)}, "non-finite running cost at t=0.5, p=0.0, q=2.0"),
        ({("drift", 0.0, 1.0), ("cost", 1.0, 1.0)}, "non-finite drift at t=0.5, p=0.0, q=1.0"),
    ])
    def test_first_offending_pair_raises(self, bad, message):
        spec = _failing_game(bad)
        x = Path.constant(TimeGrid(0.0, 1.0, 4), [0.3])
        with pytest.raises(EvaluationError) as ref:
            _stage_matrix_reference(spec, 0.5, x, [1.0])
        for call in (lambda: spec.stage_matrix(0.5, x, [1.0]), lambda: spec.stage_terms(0.5, x),
                     lambda: hamiltonian(spec, 0.5, x, [1.0])):
            with pytest.raises(EvaluationError) as got:
                call()
            assert str(got.value) == str(ref.value) == message
        with pytest.raises(EvaluationError, match=message.replace("t=0.5", "t=0.75")):
            dp_value(spec, TimeGrid(0.0, 1.0, 4), StateLattice(lo=(-1.0,), hi=(1.0,), shape=(3,)))

    def test_drift_before_cost_within_a_pair(self):
        spec = _failing_game({("drift", 1.0, 0.0), ("cost", 1.0, 0.0)})
        x = Path.constant(TimeGrid(0.0, 1.0, 4), [0.3])
        with pytest.raises(EvaluationError, match="non-finite drift at t=0.5, p=1.0, q=0.0"):
            spec.stage_matrix(0.5, x, [1.0])
