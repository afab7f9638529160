import dataclasses

import numpy as np
import pytest

from pdhj import pathcore
from pdhj.errors import DomainError, EvaluationError, LatticeCoverageError
from pdhj.evolution import make_linear_operator
from pdhj.game import (
    COMPANION_KINDS,
    COVERAGE_TOL,
    STEP_RATE_FLOOR,
    ControlGrid,
    FeedbackPlay,
    FeedbackStrategy,
    GameSpec,
    GuaranteeEstimate,
    StateLattice,
    ValueTable,
    bilinear_game,
    constant_game,
    dp_value,
    extremal_shift_strategy,
    hamiltonian,
    audit_hamiltonian_lipschitz,
    minimax_records,
    isaacs_game,
    lyapunov_violation_stats,
    play_feedback_games,
    sampled_hamiltonians,
    simulation_grid,
    step_rate_bound,
    with_drift_perturbation,
)
from pdhj.pathcore import Path, TimeGrid, _row_dots, stopped_at
from pdhj.upsilon import LyapunovParams
from scalar_reference import callback_game, companion_minimum_reference, drift, \
    estimate_guaranteed_result, game_audit, lyapunov_nu, measurable_selection, path_difference, \
    recompute_slice, reference_game, scale_costs, stage_cost, stage_matrix


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
        spec = isaacs_game(scale=1.0, cost_weight=0.0,
                           controls=ControlGrid((-1.0, 1.0), (-1.0, 1.0)))
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
            spec = callback_game(
                op=make_linear_operator(),
                rhs=lambda t, x, u, d=drift: np.array([d[int(u[0]), int(u[1])]]),
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
        spec = callback_game(op=make_linear_operator(), rhs=lambda t, x, u: np.array([np.inf]),
                             running_cost=lambda t, x, p, q: 0.0,
                             terminal_cost=lambda x: 0.0,
                             controls=ControlGrid(p_points=(0,), q_points=(0,)),
                             l_f=1.0, lambda_L=1.0)
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(EvaluationError):
            hamiltonian(spec, 0.0, one_point_path(grid), np.array([1.0]))

    def test_z_of_another_dimension_is_refused(self):
        # a 1-D game's drift is not broadcast across the coordinates of a 2-D z
        spec, x = bilinear_game(), one_point_path(TimeGrid(0.0, 1.0, 4), 0.5)
        with pytest.raises(ValueError):
            hamiltonian(spec, 0.5, x, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            sampled_hamiltonians(spec, np.array([0.5]), x.value_at(0.5)[None], lambda _: x,
                                 np.ones((1, 1, 2)))


class TestGameSpec:
    @pytest.mark.parametrize("l_f", [-1.0, np.nan, np.inf])
    def test_refuses_growth_constant_not_finite_or_negative(self, l_f):
        spec = isaacs_game()
        with pytest.raises(DomainError, match="^l_f must be finite and >= 0"):
            GameSpec(op=spec.op, stage=spec.stage, terminal=spec.terminal,
                     controls=spec.controls, l_f=l_f, lambda_L=spec.lambda_L)
        with pytest.raises(DomainError, match="^l_f must be finite and >= 0"):
            dataclasses.replace(spec, l_f=l_f)

    def test_drift_perturbation_adds_to_the_one_growth_constant(self):
        spec = isaacs_game(scale=0.5)
        assert with_drift_perturbation(spec, -0.25).l_f == spec.l_f + 0.25


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

    @pytest.mark.parametrize("lat", [StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,)),
                                     StateLattice(lo=(-1.5, 0.0), hi=(1.5, 2.0), shape=(7, 9))],
                             ids=["1d", "2d"])
    def test_refusal_carries_the_margins_it_took(self, lat):
        # a caller that needs per-row answers takes them from the refusal
        rng = np.random.default_rng(5)
        states = np.concatenate([rng.uniform(lat.lo, lat.hi, (6, lat.dim)),
                                 np.array(lat.hi)[None] + [[0.25], [1e-10], [3.0]],
                                 np.full((1, lat.dim), np.nan)])
        mixed = states[[0, 1, 6, 2, 7, 9, 3]]  # inside, past hi and not finite, interleaved
        with pytest.raises(LatticeCoverageError) as err:
            lat.interpolate_batch(np.zeros(lat.shape), mixed)
        want = lat.coverage_margins(mixed)
        assert err.value.margins.tobytes() == want.tobytes()
        assert err.value.margin == np.max(want) == np.inf
        with pytest.raises(LatticeCoverageError) as err:
            lat.interpolate_batch(np.zeros(lat.shape), states[:8])
        assert err.value.margins.tobytes() == lat.coverage_margins(states[:8]).tobytes()
        assert err.value.margin == 0.25

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_error_asks_for_no_margin(self, bad):
        # no bounds cover a non-finite state, so the message names no margin to expand by
        lat = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
        with pytest.raises(LatticeCoverageError) as err:
            lat.interpolate_batch(np.arange(33.0), np.array([[bad], [0.0]]))
        assert str(err.value) == "state is not finite; no lattice covers it"
        assert err.value.margin == np.inf

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

    @pytest.mark.parametrize("lo,hi,name", [
        ((-np.inf,), (2.0,), "lo"), ((0.0,), (np.inf,), "hi"), ((np.nan,), (1.0,), "lo"),
        ((0.0, 0.0), (1.0, np.nan), "hi")])
    def test_rejects_non_finite_bounds(self, lo, hi, name):
        # an infinite bound would build a nan axis that reads fail to index
        with pytest.raises(DomainError, match=f"^lattice {name} must be finite"):
            StateLattice(lo=lo, hi=hi, shape=(5,) * len(lo))

    def test_2d_interpolation(self):
        lat = StateLattice(lo=(0.0, 0.0), hi=(1.0, 1.0), shape=(3, 3))
        field = np.add.outer(lat.axes[0], lat.axes[1])
        assert lat.interpolate_batch(field, np.array([[0.3, 0.7]]))[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("lat", [StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,)),
                                     StateLattice(lo=(-1.5, 0.0), hi=(1.5, 2.0), shape=(7, 9))],
                             ids=["1d", "2d"])
    def test_stacked_fields_read_as_each_field_alone(self, lat):
        rng = np.random.default_rng(4)
        fields = rng.standard_normal(lat.shape + (2, 3))
        states = rng.uniform(lat.lo, lat.hi, (11, lat.dim))
        got = lat.interpolate_batch(fields, states)
        assert got.shape == (11, 2, 3)
        for i in range(2):
            for j in range(3):
                want = lat.interpolate_batch(np.ascontiguousarray(fields[..., i, j]), states)
                assert got[:, i, j].tobytes() == want.tobytes()
        off = np.concatenate([states, np.array(lat.hi)[None] + 0.25])
        with pytest.raises(LatticeCoverageError) as stacked:
            lat.interpolate_batch(fields, off)
        with pytest.raises(LatticeCoverageError) as alone:
            lat.interpolate_batch(fields[..., 0, 0], off)
        assert stacked.value.margin == alone.value.margin == 0.25
        assert str(stacked.value) == str(alone.value)

    def test_off_node_read_is_one_lattice_read(self, monkeypatch):
        table = dp_value(isaacs_game(), TimeGrid(0.0, 1.0, 4), small_lattice(n=9))
        states = np.array([[-0.7], [0.1], [1.3]])
        calls = []
        read = StateLattice.interpolate_batch
        monkeypatch.setattr(StateLattice, "interpolate_batch",
                            lambda self, values, s: calls.append(1) or read(self, values, s))
        got = table.interp_batch("upper", 0.375, states)
        assert len(calls) == 1
        a, b = (read(table.lattice, table.v_plus[k], states) for k in (1, 2))
        assert got.tobytes() == (a + 0.5 * (b - a)).tobytes()

    def test_table_read_matches_nodes_as_node_index_does(self, monkeypatch):
        # one node match: widened, it puts a read 1e-4 past node 2 on that node
        table = dp_value(isaacs_game(), TimeGrid(0.0, 1.0, 4), small_lattice(n=9))
        states = np.array([[-0.7], [0.1], [1.3]])
        t = table.grid.nodes[2] + 1e-4
        blended = table.interp_batch("upper", t, states)
        monkeypatch.setattr(pathcore, "_NODE_INDEX_TOL", 1e-3)
        assert table.grid.node_index(t) == 2
        got = table.interp_batch("upper", t, states)
        assert got.tobytes() == table.lattice.interpolate_batch(table.v_plus[2], states).tobytes()
        assert got.tobytes() != blended.tobytes()

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


def _zero_terminal(states, path_of):
    return np.zeros(len(states))


def small_lattice(span=2.0, n=33):
    return StateLattice(lo=(-span,), hi=(span,), shape=(n,))


class TestDpValue:
    def test_zero_costs_zero_value(self):
        spec = isaacs_game(cost_weight=0.0)
        spec = dataclasses.replace(spec, terminal=_zero_terminal, name="zero")
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
        points = lat.points()
        expected = reference_game(isaacs_game).final_costs(
            points, lambda n: Path.constant(table.grid, points[n]))
        assert np.array_equal(table.v_plus[-1], expected)
        assert np.array_equal(table.v_minus[-1], expected)

    def test_single_step_matches_enumeration_oracle(self):
        spec = isaacs_game(scale=0.5)
        grid = TimeGrid(0.0, 0.25, 1)
        lat = small_lattice()
        table = dp_value(spec, grid, lat)
        axis = lat.axes[0]
        h_slice = reference_game(isaacs_game, scale=0.5).final_costs(
            axis[:, None], lambda n: Path.constant(grid, [axis[n]]))
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
        rigged = ValueTable(grid=grid, lattice=lattice, v_minus=table.v_minus, v_plus=v_plus)
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
        M = stage_matrix(spec, 0.0, strategy.x0, np.zeros(1))
        assert p_index == int(np.argmin(M.max(axis=1)))

    def test_select_agrees_with_hamiltonian_argmin(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        x0 = one_point_path(grid, 0.4)
        partition = TimeGrid(0.0, 1.0, 8)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0, partition,
                                           value=table, library_size=16, seed=1)
        gradient = strategy.companion_minima(0.0, strategy.x0.values[:1, None, :])[3][0]
        p_index = _select_one(strategy, 0.0, strategy.x0, gradient)
        plus_p = minimax_records(stage_matrix(spec, 0.0, strategy.x0, gradient)[None])[4]
        assert p_index == plus_p[0]

    def test_run_deterministic(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        partition = TimeGrid(0.0, 1.0, 4)
        x0 = one_point_path(grid, 0.4)
        strategy = extremal_shift_strategy(spec, params, 0.0, x0, partition,
                                           value=table, library_size=8, seed=2)
        q = np.ones((partition.n_steps, 1), dtype=int)
        first, = play_feedback_games(strategy, [partition], [q])
        second, = play_feedback_games(strategy, [partition], [q])
        assert np.array_equal(first.p, second.p)
        assert np.array_equal(first.values, second.values)
        assert first.payoff == second.payoff

    def test_payoff_is_exact_sum(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.4),
                                           partition, value=table, library_size=8, seed=3)
        play, = play_feedback_games(strategy, [partition], [
            np.random.default_rng(5).integers(spec.controls.n_q, size=(partition.n_steps, 1))])
        running = 0.0
        for cost in play.step_cost[:, 0]:  # the cells' costs, added in cell order
            running += cost
        assert play.running[0] == running
        assert play.payoff[0] == play.running[0] + play.terminal[0]

    def test_zero_cost_game_payoff_zero(self):
        spec = isaacs_game(cost_weight=0.0)
        spec = dataclasses.replace(spec, terminal=_zero_terminal, name="zero-cost")
        grid = TimeGrid(0.0, 1.0, 8)
        table = dp_value(spec, grid, small_lattice())
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.2),
                                           partition, value=table, library_size=4, seed=4)
        # constant[0], constant[2] and random[1]
        q = np.stack([np.zeros(4, dtype=int), np.full(4, 2),
                      np.random.default_rng(1).integers(3, size=4)], axis=1)
        play, = play_feedback_games(strategy, [partition], [q])
        assert play.payoff.tolist() == [0.0, 0.0, 0.0]

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
        q = np.stack([np.zeros(4, dtype=int), np.random.default_rng(1).integers(3, size=4)],
                     axis=1)  # constant[0] and random[1]
        play, = play_feedback_games(strategy, [partition], [q])
        for name in ("p", "q", "step_cost", "kind", "index", "residual"):
            assert getattr(play, name).shape == (4, 2), name
        assert play.u.shape == (5, 2)
        assert play.values.shape == (len(strategy.x0.grid.nodes), 2, 1)
        assert play.running.shape == play.terminal.shape == play.payoff.shape == (2,)
        assert np.all(play.q[:, 0] == 0)
        # each cell runs from the shifted value at its first node to the one at its last
        assert np.array_equal(play.residual, play.step_cost + play.u[1:] - play.u[:-1])
        assert set(play.kind.ravel().tolist()) <= set(range(len(COMPANION_KINDS)))
        # one game's record is a lane slice, its arrays copied out
        second = play.lanes(slice(1, 2))
        assert second.values.shape == (len(strategy.x0.grid.nodes), 1, 1)
        assert np.array_equal(second.p[:, 0], play.p[:, 1])
        assert second.payoff.tolist() == play.payoff[1:].tolist()


class TestGuaranteedResult:
    def test_zero_game_budget_one(self):
        spec = isaacs_game(cost_weight=0.0)
        spec = dataclasses.replace(spec, terminal=_zero_terminal, name="zero-cost")
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
        play, = play_feedback_games(strategy, [partition], [np.full((2, 1), 2)])
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

    @pytest.mark.parametrize("nodes", [[5e-10, 0.5, 1.0], [0.0, 0.5, 1.0 + 5e-10]],
                             ids=["start-5e-10", "end-5e-10"])
    def test_builder_refuses_the_partitions_play_refuses(self, nodes):
        # one span rule: a partition a hair off [t0, T] is refused by the
        # builder with the message play refuses it with
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        bad = TimeGrid.from_nodes(nodes)
        with pytest.raises(DomainError) as built:
            extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.4), bad,
                                    value=table, library_size=2)
        assert str(built.value) == (f"partition must span [t0, T] = [0.0, 1.0], "
                                    f"not [{nodes[0]!r}, {nodes[-1]!r}]")
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.4),
                                           TimeGrid(0.0, 1.0, 2), value=table, library_size=2)
        with pytest.raises(DomainError) as played:
            play_feedback_games(strategy, [bad], [np.zeros((2, 1), dtype=int)])
        assert str(played.value) == str(built.value)

    def test_play_refuses_a_partition_short_of_the_simulation_grid(self):
        # play applies the rule on the grid it steps on: a hand-built strategy
        # whose simulation grid runs past T would leave its last node unplayed
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        strategy = FeedbackStrategy(spec, params, table, 0.0,
                                    Path.constant(TimeGrid(0.0, 1.5, 12), [0.4]), [])
        with pytest.raises(DomainError, match=r"^partition must span \[t0, T\] = \[0.0, 1.5\]"):
            play_feedback_games(strategy, [TimeGrid(0.0, 1.0, 4)], [np.zeros((4, 1), dtype=int)])

    def test_t0_before_the_value_grid_is_refused(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        with pytest.raises(DomainError, match=r"^t0=-0.5 outside grid span \[0.0, 1.0\]$"):
            extremal_shift_strategy(spec, params, -0.5, one_point_path(grid, 0.4),
                                    TimeGrid(-0.5, 1.0, 3), value=table, library_size=2)


def _play_of_residuals(residual):
    """A hand-built record on the 4-cell partition of [0, 1] (dt = 0.25) whose
    residual is the given (step, game) array."""
    residual = np.asarray(residual, dtype=float)
    codes, n = np.zeros(residual.shape, dtype=int), residual.shape[1]
    return FeedbackPlay(partition=TimeGrid(0.0, 1.0, 4), p=codes, q=codes, step_cost=residual,
                        u=np.zeros((len(residual) + 1, n)), kind=codes, index=codes,
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
        labels = [f"constant[{j}]" for j in range(4)]
        partitions = [TimeGrid(0.0, 1.0, 4), TimeGrid(0.0, 1.0, 8)]
        est = GuaranteeEstimate.from_payoffs(
            labels, partitions, [np.array([1.0, 3.0, 3.0, 2.0]), np.array([0.5, 0.5, 0.0, 0.5])],
            budget=4, seed=0)
        assert [(p["worst_payoff"], p["worst_adversary"]) for p in est.per_partition] == \
            [(3.0, "constant[1]"), (0.5, "constant[0]")]
        assert est.value == 3.0
        assert est.certificate["pool"] == [f"constant[{j}]" for j in range(4)]


def planar_game():
    return callback_game(
        op=make_linear_operator(dim=2, gain=1.0),
        rhs=lambda t, x, u: 0.4 * np.array([float(u[0]), float(u[1])]),
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
        play, = play_feedback_games(strategy, [partition], [np.ones((4, 1), dtype=int)])
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


def _companion_reads(monkeypatch, strategy, t, X):
    """The table reads of companion_minima(t, X) as (ends, u), shaped (game,
    own candidate, coordinate) and (game, own candidate): the states of each
    game's trace and probes in its first read, and their upper values, +inf
    where that read was refused and a second read left the row out."""
    calls, read = [], ValueTable.interp_batch

    def spy(self, side, t, states):
        try:
            calls.append((states, read(self, side, t, states)))
        except LatticeCoverageError as refused:
            calls.append((states, refused))
            raise
        return calls[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(ValueTable, "interp_batch", spy)
        strategy.companion_minima(t, X)
    (ends, u), *second = calls
    if isinstance(u, LatticeCoverageError):
        kept = u.margins <= COVERAGE_TOL
        (kept_ends, kept_u), = second
        assert kept_ends.tobytes() == ends[kept].tobytes()
        u = np.full(len(ends), np.inf)
        u[kept] = kept_u
    else:
        assert second == []
    n_games, dim = X.shape[1:]
    n_own = n_games * (1 + len(strategy._probe_offsets(t, dim)))
    return ends[:n_own].reshape(n_games, -1, dim), u[:n_own].reshape(n_games, -1)


def _lattice_spies(monkeypatch):
    """Record every StateLattice read as (states, refused) and count the
    coverage_margins calls; returns (reads, margin_calls)."""
    reads, margin_calls = [], []
    read, margins = StateLattice.interpolate_batch, StateLattice.coverage_margins

    def spy_read(self, values, states):
        try:
            out = read(self, values, states)
        except LatticeCoverageError:
            reads.append((states, True))
            raise
        reads.append((states, False))
        return out

    monkeypatch.setattr(StateLattice, "interpolate_batch", spy_read)
    monkeypatch.setattr(StateLattice, "coverage_margins",
                        lambda self, states: margin_calls.append(1) or margins(self, states))
    return reads, margin_calls


class TestCompanionOncePerNode:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_batched_probes_match_per_offset_loop(self, dim, monkeypatch):
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
            # every probe of every state in companion_minima's one read
            offsets = strategy._probe_offsets(t, dim)
            n_all = len(_probe_offsets_reference(strategy, t, dim))
            assert offsets.shape == (n_all, dim)
            X = np.array(states + near)[None]
            ends, u = _companion_reads(monkeypatch, strategy, t, X)
            # the trace is the zero offset, then each probe its state less its offset
            assert ends.tobytes() == (X[0][:, None, :] - np.concatenate(
                [np.zeros((1, dim)), offsets])).tobytes()
            u_vals = u[:, 1:]
            kept = u_vals < np.inf  # a dropped probe reads +inf
            for g, state in enumerate(states + near):
                ref_kept, ref_offsets, ref_u = _probe_candidates_reference(strategy, t, state)
                assert np.flatnonzero(kept[g]).tolist() == ref_kept
                assert offsets[kept[g]].tobytes() == \
                    np.array(ref_offsets, dtype=float).reshape(-1, dim).tobytes()
                assert u_vals[g, kept[g]].tobytes() == np.array(ref_u, dtype=float).tobytes()
                partial += 0 < len(ref_kept) < n_all
        assert partial > 0

    @staticmethod
    def _games(strategy, t, shifts):
        """Node values up to t of one game per shift: the history moved by it."""
        k = strategy.x0.grid.node_index(t)
        return strategy.x0.values[: k + 1, None, :] + np.asarray(shifts)[:, None]

    def test_candidates_on_the_lattice_take_one_read(self, monkeypatch):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.4),
                                           TimeGrid(0.0, 1.0, 4), value=table, library_size=8,
                                           seed=2)
        X = self._games(strategy, 0.5, [0.0, 0.3, -0.5])
        offsets = strategy._probe_offsets(0.5, 1)
        ends = np.concatenate([(X[-1][:, None] - offsets).reshape(-1, 1),
                               strategy._paths[len(X) - 1]])
        assert len(offsets) and lattice.coverage_margins(ends).max() <= COVERAGE_TOL
        reads, margin_calls = _lattice_spies(monkeypatch)
        strategy.companion_minima(0.5, X)
        assert [refused for _, refused in reads] == [False]
        assert len(margin_calls) == 1

    def test_refused_rows_are_never_interpolated(self, monkeypatch):
        # from x0 on the lattice edge, probes and library ends leave the lattice
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, -2.0),
                                           TimeGrid(0.0, 1.0, 4), value=table, library_size=8,
                                           seed=0)
        t = 0.125
        X = self._games(strategy, t, [0.0, 1e-3, 2.0])
        off = lattice.coverage_margins(strategy._paths[len(X) - 1]) > COVERAGE_TOL
        assert off.any() and not off.all()
        reads, margin_calls = _lattice_spies(monkeypatch)
        totals, kinds, indices, gradients = strategy.companion_minima(t, X)
        monkeypatch.undo()
        # the one read is refused, and the second reads only the kept rows
        assert [refused for _, refused in reads] == [True, False]
        assert len(margin_calls) == 2
        assert lattice.coverage_margins(reads[1][0]).max() <= COVERAGE_TOL
        assert len(reads[1][0]) < len(reads[0][0])
        sim = strategy.x0.grid
        for g in range(X.shape[1]):
            x = Path(sim, np.concatenate([X[:, g], np.repeat(X[-1:, g], sim.n_steps + 1 - len(X),
                                                             axis=0)]))
            want = companion_minimum_reference(strategy, t, x)
            assert (totals[g], COMPANION_KINDS[kinds[g]], indices[g]) == want[:3]
            assert gradients[g].tobytes() == np.asarray(want[3], dtype=float).tobytes()

    def test_trace_off_the_lattice_raises_its_own_reads_error(self):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.4),
                                           TimeGrid(0.0, 1.0, 4), value=table, library_size=8,
                                           seed=2)
        X = np.array([[[0.4], [2.5], [2.25], [-2.75], [1.9]]])
        with pytest.raises(LatticeCoverageError) as got:
            strategy.companion_minima(0.5, X)
        with pytest.raises(LatticeCoverageError) as own:
            table.interp_batch("upper", 0.5, X[-1])
        assert str(got.value) == str(own.value) == (
            "state leaves the lattice by 7.500000e-01; expand bounds by at least that margin")
        assert got.value.margin == own.value.margin == 0.75

    def test_one_companion_minimum_per_partition_node(self, monkeypatch):
        spec, grid, lattice, table, params = desk_setup(n_time=8)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, one_point_path(grid, 0.4),
                                           partition, value=table, library_size=8, seed=2)
        # random[3], constant[0] and random[4]
        q = np.stack([np.random.default_rng(3).integers(spec.controls.n_q, size=4),
                      np.zeros(4, dtype=int),
                      np.random.default_rng(4).integers(spec.controls.n_q, size=4)], axis=1)
        calls = []
        original = FeedbackStrategy.companion_minima

        def counted(self, t, X, *rest):
            calls.append((t, X.shape[1]))
            return original(self, t, X, *rest)

        monkeypatch.setattr(FeedbackStrategy, "companion_minima", counted)
        play, = play_feedback_games(strategy, [partition], [q])
        monkeypatch.undo()
        # n + 1 batched calls for n steps, each for the whole pool
        assert calls == [(t, 3) for t in partition.nodes]
        # each cell holds the companion minimum on the path stopped at its nodes
        for g in range(3):
            self._check_cells(strategy, partition, play, g)

    @staticmethod
    def _check_cells(strategy, partition, play, g):
        sim, values = strategy.x0.grid, play.values[:, g]
        for i in range(partition.n_steps):
            t_i, t_i1 = partition.nodes[i], partition.nodes[i + 1]
            before = strategy.companion_minima(t_i, values[: sim.node_index(t_i) + 1, None, :])
            after = strategy.companion_minima(t_i1, values[: sim.node_index(t_i1) + 1, None, :])
            assert (play.u[i, g], play.kind[i, g], play.index[i, g]) \
                == tuple(a[0] for a in before[:3])
            assert play.u[i + 1, g] == after[0][0]
            assert play.p[i, g] == _select_one(
                strategy, t_i, stopped_at(sim, values, sim.node_index(t_i)), before[3][0])


def _select_one(strategy, t, x, gradient):
    """FeedbackStrategy.select_controls for the one game at (t, x) aimed by gradient."""
    p_indices = strategy.select_controls(t, x.value_at(t)[None], lambda _: x, gradient[None])
    assert p_indices.shape == (1,)
    return int(p_indices[0])


def _one_lane_terms(spec, t, x):
    """GameSpec.lane_terms with the one lane x over the full control grid."""
    f, cost = spec.lane_terms(t, x.value_at(t)[None], lambda _: x)
    return f[0], cost[0]


def _failing_game(bad):
    """A 2x3 game whose drift or cost is non-finite at each ("drift" | "cost", p, q) in bad."""
    def rhs(t, x, u):
        return np.array([np.nan if ("drift",) + tuple(u) in bad else 0.1 * (u[0] - u[1])])

    def running(t, x, p, q):
        return np.inf if ("cost", p, q) in bad else 0.5 * p * q + float(x.value_at(t)[0])

    return callback_game(op=make_linear_operator(), rhs=rhs,
                         running_cost=running, terminal_cost=lambda x: 0.0,
                         controls=ControlGrid(p_points=(0.0, 1.0), q_points=(0.0, 1.0, 2.0)),
                         l_f=1.0, lambda_L=1.0)


class TestStageSweep:
    @pytest.mark.parametrize("make", [isaacs_game, bilinear_game, planar_game])
    def test_stage_matrix_matches_per_pair_loop(self, make):
        spec = make()
        dim = spec.op.space.dim
        rng = np.random.default_rng(12)
        grid = TimeGrid(0.0, 1.0, 8)
        for _ in range(40):
            x = Path(grid, rng.standard_normal((9, dim)) * rng.choice([0.1, 1.0, 30.0]))
            t = float(rng.choice([grid.nodes[3], rng.uniform(0.0, 1.0)]))
            z = rng.standard_normal(dim) * rng.choice([1e-3, 1.0, 1e3])
            f, cost = _one_lane_terms(spec, t, x)
            got = cost + _row_dots(f, z)
            assert got.tobytes() == stage_matrix(spec, t, x, z).tobytes()
            assert f.shape == (spec.controls.n_p, spec.controls.n_q, dim)
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
            stage_matrix(spec, 0.5, x, [1.0])
        for call in (lambda: _one_lane_terms(spec, 0.5, x),
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
            _one_lane_terms(spec, 0.5, x)
