import dataclasses

import numpy as np
import pytest

from pdhj import minimax
from pdhj.errors import DomainError
from pdhj.game import StateLattice, constant_game, dp_value, hamiltonian, isaacs_game
from pdhj.minimax import (
    ViscosityReport,
    bump_table,
    composite_tolerance,
    minimax_residual,
    stability_experiment,
    viscosity_scan,
)
from pdhj.pathcore import Path, TimeGrid, extend_history


@pytest.fixture(scope="module")
def desk():
    spec = isaacs_game(scale=0.5)
    grid = TimeGrid(0.0, 1.0, 16)
    lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
    table = dp_value(spec, grid, lattice)
    return spec, grid, lattice, table


@pytest.fixture(scope="module")
def const():
    spec = constant_game(cost=1.5)
    grid = TimeGrid(0.0, 1.0, 16)
    lattice = StateLattice(lo=(-1.0,), hi=(1.0,), shape=(9,))
    table = dp_value(spec, grid, lattice)
    return spec, grid, lattice, table


class TestMinimaxResidual:
    def test_constant_game_zero_slack_both_directions(self, const):
        spec, grid, lattice, table = const
        x0 = Path.constant(grid, [0.0])
        site = (0.25, x0, np.zeros(1))
        sub = minimax_residual(table, spec, site, "sub", 0.25, 8, seed=0)
        sup = minimax_residual(table, spec, site, "super", 0.25, 8, seed=0)
        assert abs(sub.slack) <= 1e-10
        assert abs(sup.slack) <= 1e-10
        assert sub.verdict and sup.verdict

    def test_desk_game_passes_at_random_sites(self, desk):
        spec, grid, lattice, table = desk
        rng = np.random.default_rng(7)
        for i in range(8):
            k = int(rng.integers(0, 12))
            x0 = Path.constant(grid, [float(rng.uniform(-1.0, 1.0))])
            z = rng.standard_normal(1) * 0.8
            site = (grid.nodes[k], x0, z)
            sub = minimax_residual(table, spec, site, "sub", 0.25, 24, seed=50 + i)
            sup = minimax_residual(table, spec, site, "super", 0.25, 24, seed=90 + i)
            assert sub.verdict, f"sub failed at site {i}: slack {sub.slack}"
            assert sup.verdict, f"super failed at site {i}: slack {sup.slack}"

    def test_mutation_is_detected(self, desk):
        spec, grid, lattice, table = desk
        bumped = bump_table(table, time_index=8, state_index=16, amount=0.2, side="upper")
        state = lattice.axes[0][16]
        x0 = Path.constant(grid, [float(state)])
        site = (grid.nodes[8], x0, np.zeros(1))
        sub = minimax_residual(bumped, spec, site, "sub", 0.25, 24, seed=3)
        assert not sub.verdict
        assert sub.slack < -sub.tolerance

    def test_budget_moves_slack_toward_passing(self, desk):
        spec, grid, lattice, table = desk
        x0 = Path.constant(grid, [0.5])
        site = (grid.nodes[2], x0, np.array([0.7]))
        tol = composite_tolerance(max(lattice.spacing), grid.mesh, 16)
        small = minimax_residual(table, spec, site, "sub", 0.25, 16, seed=4, tolerance=tol)
        large = minimax_residual(table, spec, site, "sub", 0.25, 32, seed=4, tolerance=tol)
        assert large.slack >= small.slack - 1e-12
        small_sup = minimax_residual(table, spec, site, "super", 0.25, 16, seed=4, tolerance=tol)
        large_sup = minimax_residual(table, spec, site, "super", 0.25, 32, seed=4, tolerance=tol)
        assert large_sup.slack <= small_sup.slack + 1e-12

    def test_lower_side_passes_on_isaacs_table(self, desk):
        spec, grid, lattice, table = desk
        x0 = Path.constant(grid, [0.3])
        site = (grid.nodes[1], x0, np.array([0.4]))
        sub = minimax_residual(table, spec, site, "sub", 0.25, 16, seed=8, side="lower")
        sup = minimax_residual(table, spec, site, "super", 0.25, 16, seed=8, side="lower")
        assert sub.verdict and sup.verdict

    def test_direction_validated(self, desk):
        spec, grid, lattice, table = desk
        x0 = Path.constant(grid, [0.0])
        with pytest.raises(DomainError):
            minimax_residual(table, spec, (0.0, x0, np.zeros(1)), "sideways", 0.25, 4)

    def test_report_serializes(self, const):
        spec, grid, lattice, table = const
        x0 = Path.constant(grid, [0.0])
        rep = minimax_residual(table, spec, (0.0, x0, np.zeros(1)), "sub", 0.25, 4, seed=1)
        obj = rep.to_json_obj()
        assert obj["certification"].startswith("sampled-evidence")
        assert obj["direction"] == "sub"


class TestViscosityResidual:
    def test_constant_game_zero_c_passes_both(self, const):
        spec, grid, lattice, table = const
        x0 = Path.constant(grid, [0.0])
        (rep,) = viscosity_scan(table, spec, (0.25, x0), np.zeros(1), 0.25, c_values=(0.0,),
                                search_budget=4, seed=0)["reports"]
        assert rep.super_certificate_holds and rep.sub_certificate_holds
        assert rep.super_verdict == "pass"
        assert rep.sub_verdict == "pass"

    def test_large_positive_c_is_vacuous_for_super(self, desk):
        spec, grid, lattice, table = desk
        x0 = Path.constant(grid, [0.4])
        (rep,) = viscosity_scan(table, spec, (0.25, x0), np.array([0.5]), 0.25,
                                c_values=(5.0,), search_budget=16, seed=1)["reports"]
        # E grows like c*(t - t0) for large c: no local max at the site
        assert not rep.super_certificate_holds
        assert rep.super_verdict == "vacuous"

    def test_desk_game_no_violation_at_sites(self, desk):
        spec, grid, lattice, table = desk
        rng = np.random.default_rng(11)
        for i in range(6):
            k = int(rng.integers(0, 10))
            x0 = Path.constant(grid, [float(rng.uniform(-0.8, 0.8))])
            z = rng.standard_normal(1) * 0.5
            (rep,) = viscosity_scan(table, spec, (grid.nodes[k], x0), z, 0.25, c_values=(0.0,),
                                    search_budget=16, seed=30 + i)["reports"]
            assert rep.super_verdict in ("pass", "vacuous")
            assert rep.sub_verdict in ("pass", "vacuous")

    def test_report_serializes(self, const):
        spec, grid, lattice, table = const
        x0 = Path.constant(grid, [0.0])
        (rep,) = viscosity_scan(table, spec, (0.0, x0), np.zeros(1), 0.25, c_values=(0.0,),
                                search_budget=4, seed=2)["reports"]
        obj = rep.to_json_obj()
        assert "super" in obj and "sub" in obj

    def test_scan_clean_on_honest_table(self, desk):
        spec, grid, lattice, table = desk
        x0 = Path.constant(grid, [0.5])
        scan = viscosity_scan(table, spec, (grid.nodes[2], x0), np.array([0.4]), 0.25,
                              search_budget=16, seed=5)
        assert not scan["violation_found"]

    def test_bump_table_side_aliases_and_unknown_side(self, desk):
        # "upper" and "lower" are the only side names; the old aliases are refused
        spec, grid, lattice, table = desk
        plus = bump_table(table, 8, 16, 0.2, side="upper")
        minus = bump_table(table, 8, 16, 0.2, side="lower")
        assert plus.v_plus[8, 16] == table.v_plus[8, 16] + 0.2
        assert np.array_equal(plus.v_minus, table.v_minus)
        assert minus.v_minus[8, 16] == table.v_minus[8, 16] + 0.2
        assert np.array_equal(minus.v_plus, table.v_plus)
        for side in ("plus", "minus", "uper"):
            with pytest.raises(DomainError, match="unknown side"):
                bump_table(table, 8, 16, 0.2, side=side)

    def test_scan_detects_bumped_table(self, desk):
        spec, grid, lattice, table = desk
        bumped = bump_table(table, 8, 16, 0.2, side="upper")
        x0 = Path.constant(grid, [float(lattice.axes[0][16])])
        scan = viscosity_scan(bumped, spec, (grid.nodes[8], x0), np.zeros(1), 0.25,
                              search_budget=16, seed=6)
        assert scan["violation_found"]


def _viscosity_residual_reference(u, spec, site, z, c, horizon, *, search_budget=32, seed=0,
                                  side="upper", tolerance=None):
    """The test pair at one c, solving its own candidate set and E row by row."""
    t0, x0 = site
    z = np.atleast_1d(np.asarray(z, dtype=float))
    win_grid, k0, _ = minimax._window_grid(u.grid, t0, horizon)
    hist = extend_history(x0, win_grid, t0)
    state0 = hist.value_at(t0)
    u0 = u.interp(side, t0, state0)
    F0 = hamiltonian(spec, t0, hist, z)
    F0_val = F0.f_plus if side == "upper" else F0.f_minus
    if tolerance is None:
        tolerance = composite_tolerance(max(u.lattice.spacing), u.grid.mesh, search_budget)

    sup_gap, inf_gap = 0.0, 0.0
    nodes = win_grid.nodes
    _, paths, _ = minimax._candidate_runs(spec, u, side, t0, hist, z, search_budget, seed)
    for values in paths.transpose(1, 0, 2):
        op = spec.dyn.op
        a_pair = np.array([float(op(t, values[k]) @ z)
                           for k, t in enumerate(nodes)])
        corr = 0.0
        for k in range(k0, win_grid.n_steps):
            dt = nodes[k + 1] - nodes[k]
            corr += 0.5 * dt * (a_pair[k] + a_pair[k + 1])
            t = nodes[k + 1]
            phi = u0 + (t - t0) * (c - F0_val) + float((values[k + 1] - state0) @ z)
            E = phi + corr - u.interp(side, t, values[k + 1])
            sup_gap = max(sup_gap, E)
            inf_gap = min(inf_gap, E)

    cert_tol = 1e-9 * (1.0 + abs(u0))
    super_holds = sup_gap <= cert_tol
    sub_holds = inf_gap >= -cert_tol
    super_verdict = ("pass" if c <= tolerance else "fail") if super_holds else "vacuous"
    sub_verdict = ("pass" if c >= -tolerance else "fail") if sub_holds else "vacuous"
    return ViscosityReport(
        site_t0=float(t0), site_state=tuple(float(v) for v in state0),
        z=tuple(float(v) for v in z), c=float(c), side=side,
        super_certificate_gap=float(sup_gap), super_certificate_holds=bool(super_holds),
        super_verdict=super_verdict,
        sub_certificate_gap=float(inf_gap), sub_certificate_holds=bool(sub_holds),
        sub_verdict=sub_verdict, tolerance=tolerance,
        budget=search_budget, seed=seed)


def _assert_reports_identical(got, want):
    for f in dataclasses.fields(ViscosityReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b and repr(a) == repr(b), f"{f.name}: {a!r} != {b!r}"


class TestViscosityScanOnePass:
    @pytest.mark.parametrize("fixture,bumped,t_index,state,z", [
        ("desk", False, 2, 0.5, 0.4),
        ("desk", False, 5, -0.3, -0.7),
        ("desk", True, 8, 0.0, 0.0),
        ("const", False, 4, 0.0, 0.0),
        ("const", False, 0, 0.25, 0.6),
    ])
    def test_scan_matches_per_c_reference(self, request, fixture, bumped, t_index, state, z):
        spec, grid, lattice, table = request.getfixturevalue(fixture)
        if bumped:
            table = bump_table(table, 8, 16, 0.2, side="upper")
        site = (grid.nodes[t_index], Path.constant(grid, [state]))
        tol = composite_tolerance(max(lattice.spacing), grid.mesh, 8)
        c_values = (-5.0, -4.0 * tol, -tol, 0.0, tol, 4.0 * tol, 5.0)
        scan = viscosity_scan(table, spec, site, np.array([z]), 0.25, c_values=c_values,
                              search_budget=8, seed=3)
        for c, rep in zip(c_values, scan["reports"]):
            ref = _viscosity_residual_reference(table, spec, site, np.array([z]), c, 0.25,
                                                search_budget=8, seed=3)
            _assert_reports_identical(rep, ref)
        (single,) = viscosity_scan(table, spec, site, np.array([z]), 0.25, c_values=(tol,),
                                   search_budget=8, seed=3)["reports"]
        _assert_reports_identical(single, _viscosity_residual_reference(
            table, spec, site, np.array([z]), tol, 0.25, search_budget=8, seed=3))

    def test_scan_solves_candidates_once(self, desk, monkeypatch):
        spec, grid, lattice, table = desk
        calls = []
        original = minimax._candidate_runs

        def counted(*args, **kwargs):
            calls.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(minimax, "_candidate_runs", counted)
        scan = viscosity_scan(table, spec, (grid.nodes[2], Path.constant(grid, [0.5])),
                              np.array([0.4]), 0.25, search_budget=8, seed=5)
        assert len(scan["reports"]) == 5
        assert len(calls) == 1


class TestStability:
    def test_h_shift_distance_is_exactly_inverse_n(self, desk):
        spec, grid, lattice, _ = desk
        report = stability_experiment(spec, "h-shift", (2, 4, 8, 16),
                                      TimeGrid(0.0, 1.0, 8), lattice)
        for n, dist, exact in zip(report.n_list, report.distances, report.shift_exactness):
            assert dist == pytest.approx(1.0 / n, abs=1e-12)
            assert exact <= 1e-12
        assert report.strictly_decreasing

    def test_f_drift_distances_strictly_decreasing(self, desk):
        spec, grid, lattice, _ = desk
        report = stability_experiment(spec, "f-drift", (2, 4, 8, 16),
                                      TimeGrid(0.0, 1.0, 8), lattice)
        assert report.strictly_decreasing
        assert report.distances[0] > report.distances[-1] > 0.0

    def test_identical_spec_distance_zero(self, desk):
        spec, grid, lattice, _ = desk
        g = TimeGrid(0.0, 1.0, 8)
        a = dp_value(spec, g, lattice)
        b = dp_value(spec, g, lattice)
        assert np.array_equal(a.v_plus, b.v_plus)

    def test_unknown_family_rejected(self, desk):
        spec, grid, lattice, _ = desk
        with pytest.raises(DomainError):
            stability_experiment(spec, "weird", (2, 4), TimeGrid(0.0, 1.0, 4),
                                 StateLattice(lo=(-2.0,), hi=(2.0,), shape=(9,)))

    @pytest.mark.parametrize("n_list, message", [
        ((), "n_list must not be empty"),
        ((0, 2), "n_list entries must be >= 1"),
        ((4, 2), "n_list must be increasing (magnitudes 1/n decreasing)"),
    ], ids=["empty", "below-one", "decreasing"])
    def test_n_list_refused_before_any_table(self, desk, n_list, message, monkeypatch):
        spec, grid, lattice, _ = desk
        monkeypatch.setattr(minimax, "dp_value", None)  # any table would fail loudly
        with pytest.raises(DomainError) as err:
            stability_experiment(spec, "h-shift", n_list, TimeGrid(0.0, 1.0, 4), lattice)
        assert str(err.value) == message

    def test_terminal_condition_exact(self, desk):
        spec, grid, lattice, table = desk
        lifts = [Path.constant(grid, pt) for pt in lattice.points()]
        expected = np.array([spec.final_cost(p) for p in lifts])
        assert np.array_equal(table.v_plus[-1], expected)
        assert np.array_equal(table.v_minus[-1], expected)
