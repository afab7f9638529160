import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pdhj.errors import ContractError, ParameterError
from pdhj.pathcore import Path, TimeGrid, kappa_constant
from pdhj.upsilon import ZERO_BRANCH_TOL, LyapunovParams, surrogate_terms, verify_chain_rule
from scalar_reference import lyapunov_nu, path_difference, penalty_psi, stop_path, sup_norm, \
    to_json, upsilon

KAPPA = kappa_constant()


def grid(n=16, t_end=1.0):
    return TimeGrid(0.0, t_end, n)


def random_path(rng, n=16, dim=2):
    return Path(grid(n), rng.standard_normal((n + 1, dim)))


def reference_surrogate(sup_sq: float, cur_sq: float):
    """Scalar form of the surrogate kernel, one (sup_sq, cur_sq) pair at a time.

    Squares by multiplication: on Python floats ``d ** 2`` goes through libm
    pow, which is not always correctly rounded, while numpy squares exactly
    like ``d * d``.
    """
    tol = ZERO_BRANCH_TOL * (1.0 + math.sqrt(cur_sq))
    if sup_sq <= tol * tol:
        return 0.0, 0.0
    d = sup_sq - cur_sq
    return d * d / sup_sq + 2.0 * cur_sq, 4.0 * cur_sq / sup_sq


# squared norms from the zero branch (tiny, subnormal, 0) up to large
_SQ = st.one_of(st.floats(min_value=0.0, max_value=1e-26),
                st.floats(min_value=0.0, max_value=1e8))


@st.composite
def _sq_pairs(draw):
    """(sup_sq, cur_sq) with cur_sq <= sup_sq, often equal (a path at its peak)."""
    a, b = draw(_SQ), draw(_SQ)
    sup_sq, cur_sq = max(a, b), min(a, b)
    return sup_sq, sup_sq if draw(st.booleans()) else cur_sq


class TestSurrogateKernel:
    @given(st.lists(_sq_pairs(), min_size=1, max_size=20))
    def test_vectorized_matches_scalar_reference(self, pairs):
        sup_sq = np.array([p[0] for p in pairs])
        cur_sq = np.array([p[1] for p in pairs])
        value, factor = surrogate_terms(sup_sq, cur_sq)
        expected = [reference_surrogate(s, c) for s, c in pairs]
        assert value.tolist() == [e[0] for e in expected]
        assert factor.tolist() == [e[1] for e in expected]
        assert all(0.0 <= f <= 4.0 for f in factor.tolist())

    @given(_sq_pairs())
    @example((99999991.0, 0.0))  # ** 2 on a numpy scalar went through pow: off by one ulp
    def test_scalar_input_gives_floats(self, pair):
        value, factor = surrogate_terms(*pair)
        assert type(value) is float and type(factor) is float
        assert (value, factor) == reference_surrogate(*pair)

    def test_branches(self):
        # zero branch, at the peak (S = c: value 2 c^2, factor 4), below the peak
        assert surrogate_terms(0.0, 0.0) == (0.0, 0.0)
        assert surrogate_terms(1e-30, 1e-30) == (0.0, 0.0)
        assert surrogate_terms(2.25, 2.25) == (4.5, 4.0)
        assert surrogate_terms(4.0, 1.0) == (9.0 / 4.0 + 2.0, 1.0)

    def test_zero_branch_boundary(self):
        # the branch is S^2 <= (tol (1 + c))^2, inclusive; at c = 1e-15 this
        # sits above the looser 1e-28 (1 + c^2) form by a relative 2e-15
        tol = ZERO_BRANCH_TOL * (1.0 + 1e-15)
        assert surrogate_terms(tol * tol, 1e-30) == (0.0, 0.0)
        value, factor = surrogate_terms(np.nextafter(tol * tol, 1.0), 1e-30)
        assert value > 0.0 and factor > 0.0


class TestUpsilonValues:
    def test_zero_path(self):
        ev = upsilon(0.7, Path.constant(grid(), np.zeros(2)))
        assert ev.value == 0.0
        assert np.all(ev.dx == 0.0)
        assert ev.dt == 0.0

    def test_constant_two(self):
        # sup = |x(t)| = 2: first term vanishes, value = 2*4, dx = 4*(4/4)*2
        ev = upsilon(0.3, Path.constant(grid(), [2.0]))
        assert ev.value == pytest.approx(8.0)
        assert ev.dx[0] == pytest.approx(8.0)

    def test_downward_ramp_at_end(self):
        g = grid(10)
        x = Path(g, 1.0 - g.nodes)
        ev = upsilon(1.0, x)
        assert ev.value == pytest.approx(1.0)
        assert np.allclose(ev.dx, 0.0)

    def test_dt_identically_zero_and_gradient_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = random_path(rng, n=12, dim=3)
            t = rng.uniform(0.0, 1.0)
            ev = upsilon(t, x)
            assert ev.dt == 0.0
            bound = 4.0 * np.linalg.norm(x.value_at(t)) * (1.0 + 1e-12)
            assert np.linalg.norm(ev.dx) <= bound

    def test_non_anticipativity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = random_path(rng)
            t = rng.uniform(0.0, 1.0)
            assert upsilon(t, x).value == pytest.approx(
                upsilon(t, stop_path(x, t)).value, abs=1e-12)


class TestPenalty:
    def test_equal_paths(self):
        rng = np.random.default_rng(2)
        x = random_path(rng)
        pe = penalty_psi(0.5, x, x)
        assert pe.value == 0.0
        assert pe.theta == 0.0
        assert np.all(pe.grad == 0.0)

    def test_unit_offset_constants(self):
        g = grid()
        pe = penalty_psi(0.8, Path.constant(g, [1.0]), Path.constant(g, [0.0]))
        assert pe.theta == pytest.approx(4.0)
        assert pe.value == pytest.approx(2.0)
        assert pe.grad[0] == pytest.approx(4.0)

    def test_sandwich_bounds_500_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(4, 20))
            x = random_path(rng, n=n)
            y = Path(x.grid, rng.standard_normal(x.values.shape))
            t = rng.uniform(0.0, 1.0)
            pe = penalty_psi(t, x, y)
            s2 = sup_norm(path_difference(x, y), t) ** 2
            assert pe.value >= KAPPA * s2 - 1e-12 * (1.0 + s2)
            assert pe.value <= 3.0 * s2 + 1e-12 * (1.0 + s2)

    def test_theta_range_and_attainment(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = random_path(rng, n=10)
            y = Path(x.grid, rng.standard_normal(x.values.shape))
            t = rng.uniform(0.0, 1.0)
            pe = penalty_psi(t, x, y)
            assert 0.0 <= pe.theta <= 4.0
            diff = path_difference(x, y)
            cur = np.linalg.norm(diff.value_at(t))
            sup = sup_norm(diff, t)
            if cur >= sup * (1.0 - 1e-13):
                assert pe.theta >= 4.0 - 1e-12
            elif cur <= sup * (1.0 - 1e-6):
                assert pe.theta <= 4.0 - 1e-6


class TestLyapunov:
    def test_epsilon_validation(self):
        params = LyapunovParams.at_epsilon0(lambda_L=1.0, horizon=1.0)
        assert params.epsilon == pytest.approx(params.epsilon0)
        with pytest.raises(ParameterError):
            LyapunovParams(epsilon=2.0 * params.epsilon0, lambda_L=1.0, horizon=1.0)
        with pytest.raises(ParameterError):
            LyapunovParams(epsilon=0.0, lambda_L=1.0, horizon=1.0)

    def test_kappa_value(self):
        params = LyapunovParams.at_epsilon0(lambda_L=0.5, horizon=1.0)
        assert abs(params.kappa - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-15

    def test_kappa_and_epsilon0_are_derived(self):
        params = LyapunovParams(epsilon=1e-3, lambda_L=0.5, horizon=1.0)
        assert params.epsilon0 == LyapunovParams.at_epsilon0(lambda_L=0.5, horizon=1.0).epsilon
        for name in ("kappa", "epsilon0"):
            with pytest.raises(TypeError):
                LyapunovParams(epsilon=1e-3, lambda_L=0.5, horizon=1.0, **{name: 0.5})

    def test_zero_path_values(self):
        params = LyapunovParams.at_epsilon0(lambda_L=0.5, horizon=1.0)
        ev = lyapunov_nu(params, 0.4, Path.constant(grid(), np.zeros(1)))
        beta = params.epsilon ** 2
        assert ev.value == pytest.approx(params.alpha(0.4) * beta)
        assert np.all(ev.dx == 0.0)

    def test_alpha_positive_on_grid(self):
        for eps_frac in (1.0, 0.5, 0.1):
            base = LyapunovParams.at_epsilon0(lambda_L=0.7, horizon=1.0)
            params = LyapunovParams(epsilon=eps_frac * base.epsilon0,
                                    lambda_L=0.7, horizon=1.0)
            assert params.alpha(0.0) == pytest.approx(
                (1.0 - params.epsilon * math.sqrt(params.kappa)) / params.epsilon)
            alphas = [params.alpha(t) for t in np.linspace(0.0, 1.0, 64)]
            assert min(alphas) > 0.0

    def test_dt_formula(self):
        # d/dt nu = alpha'(t) * beta: check against a centered difference in t
        params = LyapunovParams.at_epsilon0(lambda_L=0.5, horizon=1.0)
        x = Path.constant(grid(64), [1.5])
        t, h = 0.5, 1e-6
        v_plus = lyapunov_nu(params, t + h, x).value
        v_minus = lyapunov_nu(params, t - h, x).value
        ev = lyapunov_nu(params, t, x)
        assert ev.dt == pytest.approx((v_plus - v_minus) / (2.0 * h), rel=1e-5)


class TestChainRule:
    def test_constant_path_exact(self):
        report = verify_chain_rule("upsilon", Path.constant(grid(32), [2.0]), 0.0, 1.0)
        assert report.exact
        assert report.levels[0][3] == pytest.approx(0.0, abs=1e-13)

    def test_linear_growth_exact_for_upsilon(self):
        g = grid(32)
        x = Path(g, 1.0 + g.nodes)
        report = verify_chain_rule("upsilon", x, 0.0, 1.0)
        assert report.levels[0][1] == pytest.approx(6.0)  # 2(1+1)^2 - 2(1)^2
        assert report.exact or report.order_estimate >= 1.9

    def test_decreasing_path_second_order(self):
        g = grid(16)
        x = Path(g, 2.0 - g.nodes)
        report = verify_chain_rule("upsilon", x, 0.0, 1.0, refinements=3)
        assert report.levels[0][1] == pytest.approx(-3.75)
        assert report.kink_count == 0
        assert not report.exact
        assert report.order_estimate >= 1.9
        gap_ratios = [a[3] / b[3] for a, b in zip(report.levels[:-1], report.levels[1:])]
        assert all(r >= 3.5 for r in gap_ratios)

    def test_peak_path_has_kink_and_order(self):
        g = grid(16)
        x = Path(g, 1.0 + 4.0 * g.nodes * (1.0 - g.nodes))
        report = verify_chain_rule("upsilon", x, 0.0, 1.0, refinements=3)
        assert report.kink_count >= 1
        assert report.exact or report.order_estimate >= 0.9

    def test_nu_chain_rule_orders(self):
        params = LyapunovParams.at_epsilon0(lambda_L=0.5, horizon=1.0)
        g = grid(16)
        x = Path(g, 1.0 + g.nodes)
        report = verify_chain_rule("nu", x, 0.0, 1.0, params=params, refinements=3)
        assert not report.exact
        assert report.order_estimate >= 1.9

    def test_corner_path_rejected(self):
        g = grid(32)
        x = Path(g, np.abs(g.nodes - 0.5))
        with pytest.raises(ContractError):
            verify_chain_rule("upsilon", x, 0.0, 1.0)

    def test_report_round_trips_to_json(self):
        g = grid(16)
        x = Path(g, 2.0 - g.nodes)
        report = verify_chain_rule("upsilon", x, 0.0, 1.0)
        obj = report.to_json_obj()
        assert obj["functional"] == "upsilon"
        assert len(obj["levels"]) == len(report.levels)
        assert json.loads(to_json(report)) == obj
