import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdhj.errors import AuditError, ContractError, DomainError
from pdhj.evolution import (
    OperatorSpec,
    audit_hypotheses,
    build_p_laplacian,
    make_linear_operator,
    sample_reachable_set,
    solve_delay_evolution,
)
from pdhj.pathcore import Path, StateSpace, TimeGrid
from scalar_reference import sup_norm




class TestAuditHypotheses:
    def test_identity_operator_clean(self):
        report = audit_hypotheses(make_linear_operator(dim=1, gain=1.0), 500, seed=1)
        assert report.passed
        assert report.monotonicity_min >= -1e-12
        assert report.coercivity_min >= 1.0 - 1e-9

    @pytest.mark.parametrize("gain", [0.0, -1.0])
    def test_linear_operator_without_coercivity_refused(self, gain):
        # c2 = gain: the zero and the negated operator are not coercive
        with pytest.raises(DomainError, match="c2 must be > 0"):
            make_linear_operator(dim=2, gain=gain)

    def test_negated_identity_flagged(self):
        bad = OperatorSpec(space=StateSpace(dim=2), eval_fn=lambda t, v: -v,
                           c1=1.0, c2=1.0)
        report = audit_hypotheses(bad, 300, seed=2)
        assert not report.passed
        assert any("coercivity" in v for v in report.violations)
        assert any("monotonicity" in v for v in report.violations)

    def test_p_laplacian_monotone_over_1000_pairs(self):
        op = build_p_laplacian(8, 3.0)
        report = audit_hypotheses(op, 1000, seed=3)
        assert report.passed
        assert report.monotonicity_min >= -1e-12
        assert report.coercivity_min >= op.c2

    def test_nonfinite_output_raises_with_sample(self):
        bad = OperatorSpec(space=StateSpace(dim=1),
                           eval_fn=lambda t, v: np.full_like(v, np.inf) if abs(v[0]) > 0 else v,
                           c1=1.0, c2=1.0)
        with pytest.raises(AuditError) as err:
            audit_hypotheses(bad, 50, seed=4)
        assert err.value.sample is not None


def _stack(rng, n, dim):
    """n states of dim coordinates at mixed scales."""
    return rng.standard_normal((n, dim)) * rng.choice([0.05, 1.0, 20.0], size=(n, 1))


class TestOneEntryPoint:
    """op.batch on a stack equals op on each of its states, bit for bit."""

    @settings(deadline=None)
    @given(st.integers(2, 16), st.floats(2.0, 6.0), st.integers(1, 64),
           st.integers(0, 2 ** 32 - 1))
    def test_p_laplacian(self, nodes, p, n, seed):
        op = build_p_laplacian(nodes, p, audit_samples=8, seed=seed)
        V = _stack(np.random.default_rng(seed), n, nodes)
        got = op.batch(0.3, V)
        assert got.tobytes() == np.stack([op(0.3, v) for v in V]).tobytes()

    @settings(deadline=None)
    @given(st.integers(1, 4), st.floats(0.1, 10.0), st.integers(1, 64),
           st.integers(0, 2 ** 32 - 1))
    def test_linear(self, dim, gain, n, seed):
        op = make_linear_operator(dim=dim, gain=gain)
        V = _stack(np.random.default_rng(seed), n, dim)
        got = op.batch(0.3, V)
        assert got.tobytes() == np.stack([op(0.3, v) for v in V]).tobytes()

    def test_wrong_shape_names_both_shapes(self):
        op = OperatorSpec(space=StateSpace(dim=2), eval_fn=lambda t, V: V[..., :1],
                          c1=1.0, c2=1.0)
        with pytest.raises(DomainError, match=r"returned shape \(3, 1\), expected \(3, 2\)"):
            op.batch(0.0, np.zeros((3, 2)))
        with pytest.raises(DomainError, match=r"returned shape \(1,\), expected \(2,\)"):
            op(0.0, np.zeros(2))


class TestPLaplacian:
    def test_p2_matches_tridiagonal_stiffness(self):
        n = 8
        op = build_p_laplacian(n, 2.0)
        h = 1.0 / (n + 1)
        main = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        stiffness = main / h ** 2
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(n)
            assert np.allclose(op(0.0, x), stiffness @ x, atol=1e-10)

    def test_zero_at_origin(self):
        op = build_p_laplacian(6, 3.0)
        assert np.allclose(op(0.0, np.zeros(6)), 0.0)

    def test_asymmetric_for_p_gt_2_but_monotone(self):
        op = build_p_laplacian(8, 3.0)
        rng = np.random.default_rng(6)
        asymmetry = 0.0
        for _ in range(50):
            x, y = rng.standard_normal(8), rng.standard_normal(8)
            asymmetry = max(asymmetry,
                            abs(float(op(0.0, x) @ y) - float(op(0.0, y) @ x)))
            assert float((op(0.0, x) - op(0.0, y)) @ (x - y)) >= -1e-12
        assert asymmetry > 1e-6

    def test_estimated_c2_positive(self):
        for p, n in ((2.0, 8), (3.0, 16), (4.0, 32)):
            assert build_p_laplacian(n, p).c2 > 0


def history_path(grid, value=1.0, dim=1):
    return Path.constant(grid, [value] * dim)


class TestSolveDelayEvolution:
    def test_linear_decay_matches_closed_form(self):
        # x' + x = 0, x(0) = 1  ->  x(1) = exp(-1)
        grid = TimeGrid(0.0, 1.0, 64)
        report = solve_delay_evolution(make_linear_operator(), 0.0, history_path(grid),
                                       lipschitz_L=0.0)
        err = abs(report.path.values[-1, 0] - math.exp(-1.0))
        assert err <= 2.0 * grid.mesh

    def test_forced_saturation_matches_closed_form(self):
        # x' + x = 1, x(0) = 0  ->  x(t) = 1 - exp(-t)
        grid = TimeGrid(0.0, 1.0, 64)
        report = solve_delay_evolution(make_linear_operator(), 0.0, Path.constant(grid, [0.0]),
                                       np.ones((64, 1)), lipschitz_L=2.0)
        expected = 1.0 - np.exp(-grid.nodes)
        assert np.max(np.abs(report.path.values[:, 0] - expected)) <= 2.0 * grid.mesh

    def test_zero_fixed_point(self):
        grid = TimeGrid(0.0, 1.0, 32)
        op = build_p_laplacian(4, 3.0)
        report = solve_delay_evolution(op, 0.0, Path.constant(grid, np.zeros(4)), lipschitz_L=0.0)
        assert np.allclose(report.path.values, 0.0, atol=1e-12)

    def test_first_order_convergence_window(self):
        errors = []
        for n in (8, 16, 32, 64, 128):
            grid = TimeGrid(0.0, 1.0, n)
            report = solve_delay_evolution(make_linear_operator(), 0.0, history_path(grid),
                                           lipschitz_L=0.0)
            errors.append(abs(report.path.values[-1, 0] - math.exp(-1.0)))
        ratios = [a / b for a, b in zip(errors[:-1], errors[1:])]
        assert all(1.7 <= r <= 2.3 for r in ratios)

    def test_history_preserved_and_deterministic(self):
        grid = TimeGrid(0.0, 1.0, 16)
        rng = np.random.default_rng(7)
        hist = Path(grid, rng.standard_normal((17, 1)))
        op = make_linear_operator()
        forcing = 0.3 * np.ones((16, 1))
        a = solve_delay_evolution(op, 0.5, hist, forcing, lipschitz_L=1.0)
        b = solve_delay_evolution(op, 0.5, hist, forcing, lipschitz_L=1.0)
        k0 = grid.node_index(0.5)
        assert np.array_equal(a.path.values[: k0 + 1], hist.values[: k0 + 1])
        assert np.array_equal(a.path.values, b.path.values)

    def test_dissipativity_per_step(self):
        # f = 0 and monotone A with A(t,0)=0 force |x_{k+1}| <= |x_k|
        grid = TimeGrid(0.0, 1.0, 24)
        op = build_p_laplacian(6, 3.0)
        rng = np.random.default_rng(8)
        x0 = Path.constant(grid, rng.standard_normal(6))
        report = solve_delay_evolution(op, 0.0, x0, lipschitz_L=0.0)
        norms = np.linalg.norm(report.path.values, axis=1)
        assert np.all(np.diff(norms) <= 1e-9)

    def test_forcing_bound_violation_raises(self):
        grid = TimeGrid(0.0, 1.0, 8)
        with pytest.raises(ContractError):
            solve_delay_evolution(make_linear_operator(), 0.0, Path.constant(grid, [0.0]),
                                  np.ones((8, 1)), lipschitz_L=0.1)

    def test_forcing_of_another_shape_or_negative_l_is_refused(self):
        grid = TimeGrid(0.0, 1.0, 8)
        x0 = Path.constant(grid, [0.0, 0.0])
        op = make_linear_operator(dim=2)
        for forcing in (np.zeros((12, 2)), np.zeros((8, 1)), np.zeros(8)):
            with pytest.raises(DomainError, match="forcing has shape"):
                solve_delay_evolution(op, 0.0, x0, forcing, lipschitz_L=1.0)
        with pytest.raises(DomainError, match="lipschitz_L must be >= 0"):
            solve_delay_evolution(op, 0.0, x0, lipschitz_L=-0.5)
        with pytest.raises(DomainError, match="lipschitz_L must be >= 0"):
            sample_reachable_set(op, 0.0, x0, 2, 0, lipschitz_L=-0.5)

    def test_t0_must_be_grid_node(self):
        grid = TimeGrid(0.0, 1.0, 8)
        with pytest.raises(DomainError):
            solve_delay_evolution(make_linear_operator(), 0.3, Path.constant(grid, [0.0]),
                                  lipschitz_L=0.0)

    def test_unsolvable_step_raises_with_index(self):
        from pdhj.errors import SolverError
        grid = TimeGrid(0.0, 1.0, 4)
        dt = grid.mesh
        # A cancels the identity part and leaves a constant: g has no root
        bad = OperatorSpec(space=StateSpace(dim=2),
                           eval_fn=lambda t, v: -v / dt + np.array([1.0, 0.0]) / dt,
                           c1=1.0, c2=1.0)
        with pytest.raises(SolverError) as err:
            solve_delay_evolution(bad, 0.0, Path.constant(grid, np.zeros(2)), lipschitz_L=0.0)
        assert err.value.step_index == 0

    def test_stiff_p_laplacian_step(self):
        grid = TimeGrid(0.0, 0.5, 16)
        op = build_p_laplacian(12, 4.0)
        x0 = Path.constant(grid, np.sin(np.linspace(0.1, 3.0, 12)))
        report = solve_delay_evolution(op, 0.0, x0, lipschitz_L=0.0)
        assert report.residual_estimate <= 1e-8
        assert np.all(np.isfinite(report.path.values))


class TestSampleReachableSet:
    def test_zero_l_gives_unforced_trajectory(self):
        grid = TimeGrid(0.0, 1.0, 16)
        op = make_linear_operator()
        reports = sample_reachable_set(op, 0.0, history_path(grid), 3, 11, lipschitz_L=0.0)
        baseline = solve_delay_evolution(op, 0.0, history_path(grid), lipschitz_L=0.0)
        for rep in reports:
            assert np.array_equal(rep.path.values, baseline.path.values)
            assert np.allclose(rep.forcing_trace, 0.0)

    def test_forcing_bound_replay_check(self):
        grid = TimeGrid(0.0, 1.0, 20)
        reports = sample_reachable_set(make_linear_operator(), 0.0, history_path(grid), 8, 12,
                                       lipschitz_L=0.7)
        for rep in reports:
            for k, f_k in enumerate(rep.forcing_trace):
                limit = 0.7 * (1.0 + sup_norm(rep.path, grid.nodes[k]))
                assert np.linalg.norm(f_k) <= limit + 1e-9

    def test_history_agreement_and_seed_determinism(self):
        grid = TimeGrid(0.0, 1.0, 16)
        rng = np.random.default_rng(13)
        hist = Path(grid, rng.standard_normal((17, 2)))
        op = make_linear_operator(dim=2)
        runs_a = sample_reachable_set(op, 0.25, hist, 4, 14, lipschitz_L=0.5)
        runs_b = sample_reachable_set(op, 0.25, hist, 4, 14, lipschitz_L=0.5)
        k0 = grid.node_index(0.25)
        for a, b in zip(runs_a, runs_b):
            assert np.array_equal(a.path.values, b.path.values)
            assert np.array_equal(a.path.values[: k0 + 1], hist.values[: k0 + 1])

    def test_report_serializes(self):
        grid = TimeGrid(0.0, 1.0, 8)
        rep = sample_reachable_set(make_linear_operator(), 0.0, history_path(grid), 1, 16,
                                   lipschitz_L=0.3)[0]
        obj = rep.to_json_obj()
        assert obj["forcing_algorithm"] == "ball-uniform-pcg64/v1"
        assert obj["step_count"] == 8
