"""The forced solves and the batched residual search against the loops they replace."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdhj import cli, evolution, game, minimax
from pdhj.errors import ContractError, DomainError, EvaluationError, LatticeCoverageError, \
    SolverError
from pdhj.evolution import (
    OperatorSpec,
    SolveReport,
    build_p_laplacian,
    make_linear_operator,
    sample_reachable_set,
    solve_delay_evolution,
)
from pdhj.game import (
    ControlGrid,
    GameSpec,
    StateLattice,
    ValueTable,
    bilinear_game,
    dp_value,
    hamiltonian,
    is_upper_side,
    isaacs_game,
)
from pdhj.pathcore import Path, StateSpace, TimeGrid, extend_history, stopped_at
from scalar_reference import _candidate_runs_reference, _sample_reference, _solve_reference, \
    callback_game, reference_game, value_gradient


def _assert_reports_equal(got, want):
    for f in dataclasses.fields(SolveReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "path":
            assert a.grid == b.grid
            a, b = a.values, b.values
        assert np.array_equal(a, b), f"{f.name}: {a!r} != {b!r}"
    for name in ("start_index", "step_count", "newton_total", "newton_max"):
        assert type(getattr(got, name)) is int, name  # JSON-serializable counts


def _forcings(dim, n, rng):
    """No forcing, and two forcing arrays of shape (n, dim)."""
    return [None, 0.2 * rng.standard_normal((n, dim)), np.full((n, dim), -0.15)]


def _history(grid, dim, seed):
    return Path(grid, 0.5 * np.random.default_rng(seed).standard_normal((grid.n_steps + 1, dim)))


class TestLanesMatchSequentialLoop:
    """solve_delay_evolution and sample_reachable_set, each one _lockstep_solve
    call, against the one-lane step loop of scalar_reference."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_linear(self, dim):
        grid = TimeGrid(0.0, 1.0, 12)
        hist = _history(grid, dim, dim)
        op = make_linear_operator(dim=dim, gain=1.5)
        for t0 in (0.0, grid.nodes[5], grid.nodes[-2], grid.nodes[-1]):
            for forcing in _forcings(dim, grid.n_steps, np.random.default_rng(4)):
                _assert_reports_equal(solve_delay_evolution(op, t0, hist, forcing, lipschitz_L=2.0),
                                      _solve_reference(op, t0, hist, forcing, lipschitz_L=2.0))

    def test_p_laplacian(self):
        # eval_fn on the last axis: op.batch is one call for all lanes
        op = build_p_laplacian(5, 3.0)
        grid = TimeGrid(0.0, 0.5, 8)
        hist = Path.constant(grid, np.sin(np.linspace(0.3, 2.8, 5)))
        for forcing in _forcings(5, grid.n_steps, np.random.default_rng(6)):
            _assert_reports_equal(solve_delay_evolution(op, 0.0, hist, forcing, lipschitz_L=1.0),
                                  _solve_reference(op, 0.0, hist, forcing, lipschitz_L=1.0))
        for rep, want in zip(sample_reachable_set(op, 0.0, hist, 3, 9, lipschitz_L=1.0),
                             _sample_reference(op, 0.0, hist, 3, 9, lipschitz_L=1.0)):
            _assert_reports_equal(rep, want)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_lane_stalled(self, dim, monkeypatch):
        # no Newton iteration: every lane takes the fallback step
        monkeypatch.setattr(evolution, "NEWTON_MAX_ITER", 0)
        grid = TimeGrid(0.0, 1.0, 6)
        hist = _history(grid, dim, 11)
        op = make_linear_operator(dim=dim)
        for forcing in _forcings(dim, grid.n_steps, np.random.default_rng(8)):
            _assert_reports_equal(solve_delay_evolution(op, 0.0, hist, forcing, lipschitz_L=1.0),
                                  _solve_reference(op, 0.0, hist, forcing, lipschitz_L=1.0))
        for rep, want in zip(sample_reachable_set(op, 0.0, hist, 4, 3, lipschitz_L=1.0),
                             _sample_reference(op, 0.0, hist, 4, 3, lipschitz_L=1.0)):
            _assert_reports_equal(rep, want)

    def test_one_lane_is_solve_delay_evolution(self):
        # the forcing is indexed by absolute grid interval: rows before t0 are never read
        grid = TimeGrid(0.0, 1.0, 16)
        op = make_linear_operator()
        hist = _history(grid, 1, 3)
        forcing = np.full((16, 1), np.nan)
        forcing[4:, 0] = -0.5 * np.linspace(0.0, 1.0, 12)
        _assert_reports_equal(solve_delay_evolution(op, 0.25, hist, forcing, lipschitz_L=1.0),
                              _solve_reference(op, 0.25, hist, forcing, lipschitz_L=1.0))


class TestTubeLanes:
    @pytest.mark.parametrize("dim", [1, 3])
    def test_tube_matches_sequential_draws(self, dim):
        grid = TimeGrid(0.0, 1.0, 10)
        hist = _history(grid, dim, 2)
        op = make_linear_operator(dim=dim)
        got = sample_reachable_set(op, 0.2, hist, 6, 21, lipschitz_L=0.8)
        for rep, want in zip(got, _sample_reference(op, 0.2, hist, 6, 21, lipschitz_L=0.8)):
            _assert_reports_equal(rep, want)

    def test_sample_i_independent_of_count(self):
        grid = TimeGrid(0.0, 1.0, 8)
        hist = _history(grid, 2, 5)
        op = make_linear_operator(dim=2)
        few = sample_reachable_set(op, 0.0, hist, 3, 4, lipschitz_L=0.6)
        many = sample_reachable_set(op, 0.0, hist, 11, 4, lipschitz_L=0.6)
        for a, b in zip(few, many):
            _assert_reports_equal(a, b)


def _kicks(lanes, *kicks, steps=8):
    """A (step, lane, 1) forcing array, zero but for each (lane, step, size)
    kick at its one step."""
    forcing = np.zeros((steps, lanes, 1))
    for lane, step, size in kicks:
        forcing[step, lane] = size
    return forcing


class TestLaneErrors:
    """The lockstep rule of _lockstep_solve: the earliest step's error; within
    a step, the forcing-bound check, then the batched implicit step, each
    naming its lowest failing lane."""

    grid = TimeGrid(0.0, 1.0, 8)
    hist = Path.constant(grid, [0.5])

    def _error(self, op, L, forcing):
        lanes = forcing.shape[1]
        with pytest.raises(Exception) as info:
            evolution._lockstep_solve(op, self.grid.nodes,
                                      np.repeat(self.hist.values[:, None, :], lanes, axis=1), 0,
                                      self.grid.n_steps, np.full(lanes, L), evolution.STEP_TOL,
                                      lambda k, active, values, bound: forcing[k])
        return info.value

    def test_contract_error_of_the_lowest_lane(self):
        op = make_linear_operator()
        # lane 3 breaks the bound at step 0, lane 1 only at step 5
        err = self._error(op, 1.0, _kicks(5, (1, 5, 9.0), (3, 0, 9.0)))
        assert type(err) is ContractError
        assert str(err) == "forcing magnitude 9.000000e+00 exceeds L(1+sup) = 1.500000e+00 at step 0"
        # lanes 1 and 2 break it in the same step: the lower lane's magnitude
        err = self._error(op, 1.0, _kicks(3, (1, 2, 7.0), (2, 2, 9.0)))
        assert type(err) is ContractError
        assert str(err) == "forcing magnitude 7.000000e+00 exceeds L(1+sup) = 1.500000e+00 at step 2"

    def test_solver_error_of_the_lowest_lane(self):
        # the operator has no root beyond |x| > 2: the step fails there
        op = OperatorSpec(space=StateSpace(dim=1), c1=1.0, c2=1.0,
                          eval_fn=lambda t, v: np.where(np.abs(v) > 2.0, np.nan, v))
        # lane 2 fails at step 2, lane 1 only at step 6
        err = self._error(op, 100.0, _kicks(4, (1, 6, 40.0), (2, 2, 40.0)))
        assert type(err) is SolverError
        assert str(err) == "bisection failed to converge at step 2" and err.step_index == 2

    def test_stalled_lanes_rerun_in_lane_order(self, monkeypatch):
        op = OperatorSpec(space=StateSpace(dim=1), c1=1.0, c2=1.0,
                          eval_fn=lambda t, v: np.where(np.abs(v) > 2.0, np.nan, v))
        calls = []
        fallback = evolution._fallback_step

        def spy(op, t_next, dt, target, guess, tol, step_index, iters):
            calls.append(float(target[0]))
            return fallback(op, t_next, dt, target, guess, tol, step_index, iters)

        monkeypatch.setattr(evolution, "_fallback_step", spy)
        # lane 1 starts off the operator's domain and stalls in the first Newton
        # iteration; lane 0 creeps toward |x| = 2 and stalls later
        with pytest.raises(SolverError) as err:
            evolution._implicit_step_batch(op, 0.125, 0.125, np.array([[40.0], [3.0]]),
                                           np.array([[0.5], [3.0]]), 1e-10, 0)
        assert err.value.step_index == 0
        assert calls == [40.0]  # lane 0 reruns first and raises

    def test_non_finite_forcing_fails_the_bound_at_its_step(self):
        op = make_linear_operator()
        want = "forcing magnitude nan exceeds L(1+sup) = 1.500000e+00 at step 3"
        for forcing in (_kicks(1, (0, 3, np.nan)),
                        _kicks(4, (1, 5, 9.0), (2, 3, np.nan), (3, 3, np.inf))):
            err = self._error(op, 1.0, forcing)
            assert type(err) is ContractError and str(err) == want
        # a lane with an infinite forcing in the same step is the lower lane
        err = self._error(op, 1.0, _kicks(3, (1, 3, -np.inf), (2, 3, np.nan)))
        assert type(err) is ContractError
        assert str(err) == "forcing magnitude inf exceeds L(1+sup) = 1.500000e+00 at step 3"
        # the one-lane solve checks its forcing array the same way
        forcing = np.zeros((8, 1))
        forcing[0] = np.nan
        with pytest.raises(ContractError) as info:
            solve_delay_evolution(op, 0.0, Path.constant(self.grid, [0.0]), forcing,
                                  lipschitz_L=1.0)
        assert str(info.value) == "forcing magnitude nan exceeds L(1+sup) = 1.000000e+00 at step 0"


class TestStaggeredLanes:
    """_lockstep_solve with a window per lane against one solve per window:
    the lanes step time-major on the absolute nodes, each over its own
    window, and every lane ends as its one-window solve ends."""

    grid = TimeGrid(0.0, 1.0, 10)
    # from node 0; up to T, where a window four steps long is cut short; one
    # step alone; overlapping, nested and disjoint windows; and no lane
    # active at node 5 of the second set
    WINDOWS = [[(3, 7), (0, 4), (6, 10), (2, 10), (5, 6), (8, 10)],
               [(0, 2), (1, 5), (6, 10), (7, 9)]]

    def _forcing(self, kicks, ids, seen):
        """step_forcing of the lanes ids: a kick per (lane, step), a pull back
        on the lane's state and a push by its bound, recording the active
        lanes of each step."""
        def step_forcing(k, lanes, values, bound):
            seen.append((k, lanes))
            return kicks[ids[lanes], k] - 0.2 * values[k, lanes] + 0.05 * bound[:, None]
        return step_forcing

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("stalled", [False, True])
    @pytest.mark.parametrize("windows", [0, 1])
    def test_lanes_match_one_window_solves(self, dim, stalled, windows, monkeypatch):
        if stalled:  # no Newton iteration: every lane takes the fallback step
            monkeypatch.setattr(evolution, "NEWTON_MAX_ITER", 0)
        windows = self.WINDOWS[windows]
        op = make_linear_operator(dim=dim, gain=1.5)
        nodes, n, m = self.grid.nodes, self.grid.n_steps, len(windows)
        start, end = (np.array(ends) for ends in zip(*windows))
        rng = np.random.default_rng(dim)
        kicks = 0.3 * rng.standard_normal((m, n, dim))
        history = np.full((n + 1, m, dim), np.nan)  # NaN past each lane's start
        for lane, (a, _) in enumerate(windows):
            history[: a + 1, lane] = 0.5 * rng.standard_normal((a + 1, dim))
        seen = []
        values, trace, iters, res = evolution._lockstep_solve(
            op, nodes, history.copy(), start, end, np.full(m, 2.0), evolution.STEP_TOL,
            self._forcing(kicks, np.arange(m), seen))
        # step j sees exactly the lanes whose window holds a j-th step, each
        # at its own node a + j, ordered by node and then by lane; the loop
        # takes as many steps as the longest window
        order = sorted(range(m), key=lambda lane: (windows[lane][0], lane))
        length = [b - a for a, b in windows]
        want = [([windows[lane][0] + j for lane in order if j < length[lane]],
                 [lane for lane in order if j < length[lane]])
                for j in range(max(length))]
        assert [(k.tolist(), active.tolist()) for k, active in seen] == want
        for lane, (a, b) in enumerate(windows):
            one = evolution._lockstep_solve(op, nodes, history[:, lane:lane + 1].copy(), a, b,
                                            np.array([2.0]), evolution.STEP_TOL,
                                            self._forcing(kicks, np.array([lane]), []))
            assert values[:, lane].tobytes() == one[0][:, 0].tobytes()
            assert np.isnan(values[b + 1:, lane]).all()  # nodes past the end stay untouched
            # row j holds the lane's step a + j, as in the one-window solve
            for got, alone in zip((trace, iters, res), one[1:]):
                assert got[:b - a, lane].tobytes() == alone[:, 0].tobytes()
                assert not got[b - a:, lane].any()

    @pytest.mark.parametrize("kicks,message", [
        # lane 0 breaks the bound at its window step 0 (node 3), lane 1 at its
        # window step 1 (node 1): the earlier window step wins, however late its node
        ({(0, 3): 9.0, (1, 1): 7.0}, "forcing magnitude 9.000000e+00 exceeds L(1+sup) = "
                                     "1.500000e+00 at step 3"),
        # both break it at window step 0: the earlier node wins, though its lane is higher
        ({(0, 3): 9.0, (1, 0): 7.0}, "forcing magnitude 7.000000e+00 exceeds L(1+sup) = "
                                     "1.500000e+00 at step 0"),
        # lanes 0 and 2 at node 3 in window step 0: the lower lane
        ({(2, 3): 8.0, (0, 3): 9.0}, "forcing magnitude 9.000000e+00 exceeds L(1+sup) = "
                                     "1.500000e+00 at step 3"),
    ], ids=["earlier-window-step", "earlier-node", "lower-lane"])
    def test_the_earliest_window_step_then_node_then_lane_raises(self, kicks, message):
        start, end = np.array([3, 0, 3]), np.array([7, 4, 5])
        history = np.full((self.grid.n_steps + 1, 3, 1), 0.5)
        forcing = np.zeros((3, self.grid.n_steps, 1))
        for (lane, k), size in kicks.items():
            forcing[lane, k] = size

        def step_forcing(k, lanes, values, bound):
            return forcing[lanes, k]

        with pytest.raises(ContractError) as err:
            evolution._lockstep_solve(make_linear_operator(), self.grid.nodes, history, start, end,
                                      np.ones(3), evolution.STEP_TOL, step_forcing)
        assert str(err.value) == message

    def test_no_lanes_take_no_step(self):
        seen = []
        values, trace, iters, res = evolution._lockstep_solve(
            make_linear_operator(), self.grid.nodes, np.zeros((self.grid.n_steps + 1, 0, 1)), 0,
            self.grid.n_steps, np.zeros(0), evolution.STEP_TOL,
            lambda k, lanes, values, bound: seen.append(k))
        assert seen == []
        assert values.shape == (self.grid.n_steps + 1, 0, 1) and trace.shape == (0, 0, 1)
        assert iters.shape == res.shape == (0, 0)


# ---------------------------------------------------------------------------
# the residual candidate search
# ---------------------------------------------------------------------------

def _characteristic_functional_reference(spec, table, side, rep, z, t0, u0):
    """The functional of one candidate, one table read per node."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    grid = rep.path.grid
    nodes = grid.nodes
    k0 = rep.start_index
    values = rep.path.values
    G = np.empty(grid.n_steps - k0)
    acc = 0.0
    for k in range(k0, grid.n_steps):
        dt = nodes[k + 1] - nodes[k]
        ham = hamiltonian(spec, nodes[k], stopped_at(grid, values, k), z)
        F_val = ham.f_plus if is_upper_side(side) else ham.f_minus
        f_k = rep.forcing_trace[k - k0]
        acc += dt * (-float(f_k @ z) + F_val)
        G[k - k0] = acc + table.interp(side, nodes[k + 1], values[k + 1]) - u0
    return G, nodes[k0 + 1:]


@pytest.fixture(scope="module")
def desk():
    spec = isaacs_game(scale=0.5)
    grid = TimeGrid(0.0, 1.0, 16)
    lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
    return spec, grid, dp_value(spec, grid, lattice)


@pytest.fixture(scope="module")
def bilinear_desk():
    """A game with an Isaacs gap, so the upper and lower functionals differ."""
    spec = bilinear_game(scale=0.5)
    grid = TimeGrid(0.0, 1.0, 16)
    lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
    return spec, grid, dp_value(spec, grid, lattice)


def _site(table, t_index, state, horizon=0.25):
    win_grid, _, _ = minimax._window_grid(table.grid, table.grid.nodes[t_index], horizon)
    t0 = table.grid.nodes[t_index]
    return t0, extend_history(Path.constant(table.grid, [state]), win_grid, t0)


class TestCandidateSearch:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("t_index,state,z,budget", [
        (2, 0.5, 0.7, 24), (9, -1.2, -0.4, 16), (13, 0.0, 0.0, 8)])
    def test_runs_and_functional_match_sequential(self, desk, side, t_index, state, z, budget):
        self._check(desk, side, t_index, state, z, budget)

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_functional_with_an_isaacs_gap(self, bilinear_desk, side):
        # the upper and lower Hamiltonians differ, so the side picks the functional
        self._check(bilinear_desk, side, 5, 0.3, -0.8, 16)

    @staticmethod
    def _check(desk, side, t_index, state, z, budget):
        spec, grid, table = desk
        t0, hist = _site(table, t_index, state)
        z = np.array([z])
        runs = minimax._candidate_runs(spec, table, side,
                                       [minimax.Site(t0, hist, z, (("sub", 7),))], budget)
        want = _candidate_runs_reference(spec, table, side, t0, hist, z, budget, 7)
        assert runs.labels == [label for label, _ in want]
        _assert_lanes_equal(runs.values, runs.forcing, [rep for _, rep in want])
        u0 = table.interp(side, t0, hist.value_at(t0))
        G, times = _site_functional(table, side, runs, z, u0)
        for row, (_, rep) in zip(G, want):
            ref_G, ref_times = _characteristic_functional_reference(
                spec, table, side, rep, z, t0, u0)
            assert row.tobytes() == ref_G.tobytes()
            assert times.tobytes() == ref_times.tobytes()

    def test_one_lane_set_per_site(self, desk, monkeypatch):
        spec, grid, table = desk
        calls = _count_lane_sets(monkeypatch)
        t0, hist = _site(table, 3, 0.4)
        runs = minimax._candidate_runs(
            spec, table, "upper", [minimax.Site(t0, hist, np.array([0.3]), (("sub", 1),))], 32)
        assert calls == [32]  # the 9 pairs, the 2 characteristics and 21 tube lanes
        assert len(runs.labels) == runs.values.shape[1] == runs.forcing.shape[1] \
            == runs.hams.shape[1] == 32
        calls.clear()
        _one_check(table, spec, (t0, Path.constant(grid, [0.4]), np.array([0.3])), "sub", 16,
                   seed=2)
        assert calls == [16]
        # site_checks: one set for every site; a site's sub and super share its
        # 11 game lanes and add 5 tube lanes per seed, a scan 5 more
        calls.clear()
        sites = [minimax.Site(t0, Path.constant(grid, [0.4]), np.array([0.3]),
                              (("sub", 2), ("super", 3))),
                 minimax.Site(grid.nodes[9], Path.constant(grid, [-0.2]), np.array([0.5]),
                              (("scan", 4),))]
        minimax.site_checks(table, spec, sites, 0.25, 16)
        assert calls == [(11 + 5 + 5) + (11 + 5)]

    @pytest.mark.parametrize("callbacks", [False, True])
    def test_one_lane_terms_call_per_step(self, desk, monkeypatch, callbacks):
        # the solve takes every lane's stage terms once per step, and the
        # functional reads the Hamiltonians it took
        spec, grid, table = desk
        if callbacks:
            spec = reference_game(isaacs_game, scale=0.5)
        calls = []
        original = GameSpec.lane_terms

        def counted(self, t, states, path_of, played=None):
            calls.append((t, len(states), played))
            return original(self, t, states, path_of, played)

        monkeypatch.setattr(GameSpec, "lane_terms", counted)
        t0 = grid.nodes[3]
        site = (t0, Path.constant(grid, [0.4]), np.array([0.3]))
        _one_check(table, spec, site, "sub", 16, seed=2)
        assert calls == [(t, 16, None) for t in grid.nodes[3:7]]

    def test_markov_site_builds_no_path_report_or_scalar_read(self, desk, monkeypatch):
        # isaacs_game's stage function reads no path: no lane builds a stopped path
        spec, grid, table = desk
        t0, hist = _site(table, 3, 0.4)
        calls = _count_lane_sets(monkeypatch)
        counts = {"paths": 0, "reports": 0, "interp": 0, "forced_solves": 0}

        def counting(key, original):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(Path, "__init__", counting("paths", Path.__init__))
        monkeypatch.setattr(SolveReport, "__init__", counting("reports", SolveReport.__init__))
        monkeypatch.setattr(ValueTable, "interp", counting("interp", ValueTable.interp))
        for name in ("solve_delay_evolution", "sample_reachable_set"):
            monkeypatch.setattr(evolution, name, counting("forced_solves", getattr(evolution, name)))
        minimax._candidate_runs(
            spec, table, "upper", [minimax.Site(t0, hist, np.array([0.3]), (("sub", 1),))], 32)
        assert calls == [32]
        assert counts == {"paths": 0, "reports": 0, "interp": 0, "forced_solves": 0}


def _count_lane_sets(monkeypatch, steps=None):
    """Record the lane count of every _lockstep_solve call, and in steps, if
    given, the lanes handed to each step_forcing call."""
    calls = []
    original = evolution._lockstep_solve

    def counted(op, nodes, values, start, end, L, rel_tol, step_forcing):
        calls.append(len(L))

        def forcing(k, lanes, values, bound):
            steps.append((k, lanes))
            return step_forcing(k, lanes, values, bound)

        return original(op, nodes, values, start, end, L, rel_tol,
                        step_forcing if steps is None else forcing)

    for module in (evolution, game, minimax):
        monkeypatch.setattr(module, "_lockstep_solve", counted)
    return calls


def _site_functional(table, side, runs, z, u0):
    """(G, window times) of a one-site lane set of _candidate_runs, as
    site_checks computes them."""
    nodes = table.grid.nodes
    G, _ = minimax._characteristic_functional(table, side, nodes, runs,
                                              np.full(runs.values.shape[1], u0))
    return G, nodes[runs.start[0] + 1:runs.end[0] + 1]


def _one_check(table, spec, site, kind, budget, seed=0, horizon=0.25, **kwargs):
    """The result of site_checks at one Site with one check."""
    (result,), = minimax.site_checks(table, spec, [minimax.Site(*site, ((kind, seed),))],
                                     horizon, budget, **kwargs)
    return result


def _assert_lanes_equal(values, forcing, reports):
    """The (node, lane, dim) values and (step, lane, dim) forcings of a lane
    set, bit for bit the paths and forcing traces of the reports."""
    assert values.shape[1] == forcing.shape[1] == len(reports)
    for lane, rep in enumerate(reports):
        assert values[:, lane].tobytes() == rep.path.values.tobytes()
        assert forcing[:, lane].tobytes() == rep.forcing_trace.tobytes()


def _edge_setup(cost_limit=None):
    """A 1-D game on a narrow lattice that the constant pushes leave; with
    cost_limit, the running cost is non-finite beyond that state."""
    op = make_linear_operator(dim=1, gain=0.1)

    def running(t, x, p, q):
        xt = float(x.value_at(t)[0])
        return np.nan if cost_limit is not None and xt > cost_limit else 0.1 * xt * xt

    spec = callback_game(op=op, rhs=lambda t, x, u: np.array([u[0] + u[1]]),
                         running_cost=running, terminal_cost=lambda x: 0.0,
                         controls=ControlGrid(p_points=(0.0, 1.0), q_points=(0.0, 1.0)),
                         l_f=2.0, lambda_L=0.2, name="edge")
    grid = TimeGrid(0.0, 1.0, 16)
    lattice = StateLattice(lo=(-1.0,), hi=(0.6,), shape=(17,))
    values = np.add.outer(1.0 - grid.nodes, lattice.axes[0] ** 2)
    table = ValueTable(grid=grid, lattice=lattice, v_minus=values, v_plus=values)
    return spec, grid, table


class TestOffLatticeOrder:
    """The residual layer's lockstep order: a site's stage terms raise during
    its solve, at their step, in (lane, p, q) order over every lane's full
    control grid; the functional then only reads the table, and a read names
    the largest margin of the first window node where some candidate leaves
    the lattice."""

    # with a cost limit, the first step at which some lane's state passes it;
    # the full-grid stage terms raise at that lane's first pair (p0, q0),
    # whichever pair the lane plays
    SITE_ERRORS = {
        0.45: "non-finite running cost at t=0.3125, p=0.0, q=0.0",
        0.55: "non-finite running cost at t=0.375, p=0.0, q=0.0",
        0.59: "non-finite running cost at t=0.375, p=0.0, q=0.0",
    }

    @pytest.mark.parametrize("cost_limit", sorted(SITE_ERRORS))
    def test_site_raises_at_its_step(self, cost_limit):
        spec, grid, table = _edge_setup(cost_limit)
        t0, hist = _site(table, 4, 0.4, horizon=0.5)
        z = np.array([0.5])
        with pytest.raises(EvaluationError) as got:
            minimax._candidate_runs(spec, table, "upper",
                                    [minimax.Site(t0, hist, z, (("sub", 0),))], 12)
        assert str(got.value) == self.SITE_ERRORS[cost_limit]
        with pytest.raises(EvaluationError) as got:
            _one_check(table, spec, (t0, Path.constant(grid, [0.4]), z), "sub", 12, horizon=0.5)
        assert str(got.value) == self.SITE_ERRORS[cost_limit]

    # a cost limit raises in the solve (test_site_raises_at_its_step), before
    # the functional runs
    @pytest.mark.parametrize("cost_limit", [None])
    def test_functional_raises_like_candidate_loop(self, cost_limit):
        spec, _, table = _edge_setup(cost_limit)
        t0, hist = _site(table, 4, 0.4, horizon=0.5)
        steps = hist.grid.n_steps
        reports = [solve_delay_evolution(spec.op, t0, hist, np.full((steps, 1), s),
                                         lipschitz_L=spec.l_f) for s in (0.0, 0.9, 1.6, 0.5, 2.0)]
        values = np.stack([rep.path.values for rep in reports], axis=1)
        forcing = np.stack([rep.forcing_trace for rep in reports], axis=1)
        runs = minimax._Lanes([], values, forcing, np.zeros((steps, 5)),
                              np.full(5, hist.grid.node_index(t0)), np.full(5, steps),
                              np.zeros(5, dtype=int), np.zeros((5, 1)), [])
        with pytest.raises(LatticeCoverageError) as got:
            minimax._characteristic_functional(table, "upper", hist.grid.nodes, runs, np.zeros(5))
        assert str(got.value) == ("state leaves the lattice by 4.272212e-02; "
                                  "expand bounds by at least that margin")
        # candidate 4 alone leaves at the second window node; candidate 1,
        # the first in candidate order to leave, does so by 1.168216e-02 two
        # nodes later
        assert got.value.margin == 0.042722117280852845

    def test_a_read_names_the_first_window_step_off_the_lattice(self):
        # window step 1 leaves the box [-1, 0.6] by 0.1 and 0.05, step 2 by
        # 0.5: one read of every row names step 1's largest margin, with its
        # rows' margins, as one read per window step would
        _, grid, table = _edge_setup()
        steps = np.array([0, 0, 1, 1, 2, 2])
        states = np.array([[0.0], [0.5], [0.65], [0.7], [-1.5], [0.0]])
        with pytest.raises(LatticeCoverageError) as got:
            minimax._read_rows(table, "upper", grid.nodes[[3, 5, 4, 6, 5, 7]], states, steps)
        with pytest.raises(LatticeCoverageError) as want:
            table.interp_batch("upper", grid.nodes[4], states[2:4])
        assert str(got.value) == str(want.value) == (
            "state leaves the lattice by 1.000000e-01; expand bounds by at least that margin")
        assert got.value.margin == want.value.margin
        assert got.value.margins.tobytes() == want.value.margins.tobytes()

    def test_viscosity_scan_names_largest_margin_of_first_node(self):
        # constant[p1,q1] alone leaves at the second window node; constant[p0,q1],
        # the first in candidate order to leave, does so by 3.629637e-02 two
        # nodes later
        spec, grid, table = _edge_setup()
        site = (grid.nodes[4], Path.constant(grid, [0.4]), np.array([0.5]))
        with pytest.raises(LatticeCoverageError) as got:
            _one_check(table, spec, site, "scan", 12, horizon=0.5)
        assert str(got.value) == ("state leaves the lattice by 4.272212e-02; "
                                  "expand bounds by at least that margin")
        assert got.value.margin == 0.042722117280852845


class TestGradientStack:
    """ValueTable.gradient on a stack is the one-state gradient row by row."""

    @pytest.mark.parametrize("t", [0.25, 0.28125, 0.3])
    def test_rows_match_one_state_gradient_past_the_edges(self, t):
        # spacing 0.1 on [-1, 0.6]: 0.65 and -1.05 lie within one spacing past
        # an edge, 0.75 and -1.3 beyond it, where the coordinate reads nothing
        _, _, table = _edge_setup()
        states = np.array([[0.0], [0.65], [-0.37], [0.75], [0.6], [-1.05], [-1.3], [0.59]])
        got = table.gradient("upper", t, states)
        assert got.shape == states.shape
        for row, state in zip(got, states):
            assert row.tobytes() == value_gradient(table, "upper", t, state).tobytes()
        assert got[3, 0] == 0.0 and got[6, 0] == 0.0
        assert got[1, 0] != 0.0 and got[5, 0] != 0.0

    def test_beyond_the_edge_reads_nothing(self, monkeypatch):
        _, _, table = _edge_setup()
        read = []
        interp_batch = ValueTable.interp_batch

        def spy(self, side, t, states):
            read.append(states.copy())
            return interp_batch(self, side, t, states)

        monkeypatch.setattr(ValueTable, "interp_batch", spy)
        assert table.gradient("upper", 0.25, np.array([[0.75], [-1.3]])).tolist() == [[0.0], [0.0]]
        assert read == []
        table.gradient("upper", 0.25, np.array([[0.75], [0.0], [0.65]]))
        assert len(read) == 1 and read[0][:, 0].tolist() == [0.1, 0.6, -0.1, 0.55]

    def test_two_dimensional_rows(self):
        grid = TimeGrid(0.0, 1.0, 4)
        lattice = StateLattice(lo=(-1.0, -0.5), hi=(1.0, 0.5), shape=(9, 5))
        rng = np.random.default_rng(3)
        values = rng.standard_normal((5, 9, 5))
        table = ValueTable(grid=grid, lattice=lattice, v_minus=values, v_plus=values)
        states = np.array([[0.1, 0.2], [1.0, -0.5], [-1.0, 0.5], [0.93, -0.41], [0.0, 0.0]])
        got = table.gradient("lower", 0.4, states)
        for row, state in zip(got, states):
            assert row.tobytes() == value_gradient(table, "lower", 0.4, state).tobytes()


@pytest.fixture(scope="module")
def game_desks():
    """name -> (spec, table, state range): two built-in games, the isaacs
    game in callback form, and the edge game with its narrow lattice."""
    grid = TimeGrid(0.0, 1.0, 16)
    lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
    isaacs = isaacs_game(scale=0.5)
    bilinear = bilinear_game(scale=0.5)
    isaacs_table = dp_value(isaacs, grid, lattice)
    edge, _, edge_table = _edge_setup()
    return {
        "isaacs": (isaacs, isaacs_table, (-1.5, 1.5)),
        "bilinear": (bilinear, dp_value(bilinear, grid, lattice), (-1.5, 1.5)),
        "isaacs-callbacks": (reference_game(isaacs_game, scale=0.5), isaacs_table, (-1.5, 1.5)),
        # an l_f above the drift's own bound 2.0: every lane, game and tube,
        # solves at 2.5
        "edge": (dataclasses.replace(edge, l_f=2.5), edge_table, (-0.9, 0.5)),
    }


class TestLaneSetAgainstTwoSolves:
    """The one lane set of _candidate_runs against the sequential solves of
    _candidate_runs_reference, which share neither the step loop nor the
    batched tube draws."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["isaacs", "bilinear", "isaacs-callbacks", "edge"]),
           t_index=st.integers(0, 14), place=st.floats(0.0, 1.0), z=st.floats(-1.5, 1.5),
           side=st.sampled_from(["upper", "lower"]), budget=st.integers(1, 24),
           seed=st.integers(0, 2 ** 16))
    def test_lane_set_matches(self, game_desks, name, t_index, place, z, side, budget, seed):
        spec, table, (lo, hi) = game_desks[name]
        t0, hist = _site(table, t_index, lo + place * (hi - lo))
        z = np.array([z])
        runs = minimax._candidate_runs(spec, table, side,
                                       [minimax.Site(t0, hist, z, (("sub", seed),))], budget)
        want = _candidate_runs_reference(spec, table, side, t0, hist, z, budget, seed)
        assert runs.labels == [label for label, _ in want]
        assert len(runs.labels) == max(budget, spec.controls.n_p * spec.controls.n_q + 2)
        _assert_lanes_equal(runs.values, runs.forcing, [rep for _, rep in want])
        u0 = table.interp(side, t0, hist.value_at(t0))
        try:
            G, times = _site_functional(table, side, runs, z, u0)
        except LatticeCoverageError:  # the edge game's narrow lattice
            with pytest.raises(LatticeCoverageError):
                for _, rep in want:
                    _characteristic_functional_reference(spec, table, side, rep, z, t0, u0)
            return
        for row, (_, rep) in zip(G, want):
            ref_G, ref_times = _characteristic_functional_reference(
                spec, table, side, rep, z, t0, u0)
            assert row.tobytes() == ref_G.tobytes()
            assert times.tobytes() == ref_times.tobytes()


MINIMAX_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "minimax_check.json")
FEEDBACK_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "feedback_run.json")
FEEDBACK_SHORT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "bench", "configs",
                                     "feedback_short.json")


@pytest.fixture(scope="module")
def shipped_minimax():
    """minimax_check.json's resolved config, game and value table."""
    with open(MINIMAX_CONFIG) as fh:
        cfg = cli.validate_config(json.load(fh))
    spec, grid = cli._build_game(cfg["game"]), cli._build_grid(cfg["grid"])
    return cfg, spec, grid, dp_value(spec, grid, cli._build_lattice(cfg["lattice"]))


def _assert_fields_identical(got, want):
    """Two reports field by field, floats bit-equal (repr tells -0.0 from 0.0)."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b and repr(a) == repr(b), f"{f.name}: {a!r} != {b!r}"


class TestSiteChecks:
    """site_checks, every site's checks on one lane set, against its calls at
    one site with one check each."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_equal_one_site_calls(self, shipped_minimax, seed):
        cfg, spec, grid, table = shipped_minimax
        horizon, budget = cfg["horizon"], cfg["budget"]
        rng = np.random.default_rng(seed)
        sites = []
        for i in range(cfg["sites"]):  # the runner's sites at this seed
            k = int(rng.integers(0, grid.n_steps - 2))
            x0 = Path.constant(grid, cli._site_state(rng, table.lattice, 0.6))
            sites.append(minimax.Site(grid.nodes[k], x0, rng.standard_normal(1),
                                      (("sub", seed + 10 + i), ("super", seed + 500 + i))))
        # a site at node 0 and one whose window T cuts short, each with every
        # check kind, and a site whose sub and super share their tube seed
        for k, state in ((0, 0.3), (grid.n_steps - 3, -0.8)):
            sites.append(minimax.Site(grid.nodes[k], Path.constant(grid, [state]),
                                      np.array([-0.7]),
                                      (("scan", seed + 3), ("sub", seed + 1), ("super", seed + 2))))
        sites.append(minimax.Site(grid.nodes[7], Path.constant(grid, [0.1]), np.array([0.9]),
                                  (("sub", seed), ("super", seed))))
        checked = minimax.site_checks(table, spec, sites, horizon, budget)
        assert [len(results) for results in checked] == [len(site.checks) for site in sites]
        for site, results in zip(sites, checked):
            for (kind, check_seed), got in zip(site.checks, results):
                want = _one_check(table, spec, site[:3], kind, budget, check_seed, horizon)
                if kind == "scan":
                    assert {key: got[key] for key in want if key != "reports"} == \
                        {key: want[key] for key in want if key != "reports"}
                    assert len(got["reports"]) == len(want["reports"]) == 5
                    for a, b in zip(got["reports"], want["reports"]):
                        _assert_fields_identical(a, b)
                else:
                    _assert_fields_identical(got, want)

    def test_the_earlier_step_wins_across_sites(self):
        # the first site's stage terms go non-finite at t = 0.5625, the
        # second's at t = 0.1875: site by site the first site's error would
        # come first, time-major the second's does
        spec, grid, table = _edge_setup(0.45)
        z = np.array([0.5])
        late = minimax.Site(grid.nodes[8], Path.constant(grid, [0.4]), z, (("sub", 0),))
        early = minimax.Site(grid.nodes[2], Path.constant(grid, [0.4]), z, (("super", 1),))
        errors = []
        for site in (late, early):
            with pytest.raises(EvaluationError) as got:
                minimax.site_checks(table, spec, [site], 0.5, 12)
            errors.append(str(got.value))
        assert errors == ["non-finite running cost at t=0.5625, p=0.0, q=0.0",
                          "non-finite running cost at t=0.1875, p=0.0, q=0.0"]
        with pytest.raises(EvaluationError) as got:
            minimax.site_checks(table, spec, [late, early], 0.5, 12)
        assert str(got.value) == errors[1]

    def test_the_earlier_window_step_wins_across_sites(self):
        # the early site (window from node 4) goes non-finite at its window
        # step 2 (t = 0.375), the late one (from node 8, past the cost limit
        # from the start) at its window step 0 (t = 0.5): time-major the early
        # site's error would come first, window-major the late one's does
        spec, grid, table = _edge_setup(0.55)
        z = np.array([0.5])
        late = minimax.Site(grid.nodes[8], Path.constant(grid, [0.58]), z, (("super", 1),))
        early = minimax.Site(grid.nodes[4], Path.constant(grid, [0.4]), z, (("sub", 0),))
        errors = []
        for site in (late, early):
            with pytest.raises(EvaluationError) as got:
                minimax.site_checks(table, spec, [site], 0.5, 12)
            errors.append(str(got.value))
        assert errors == ["non-finite running cost at t=0.5, p=0.0, q=0.0",
                          "non-finite running cost at t=0.375, p=0.0, q=0.0"]
        for sites in ([late, early], [early, late]):
            with pytest.raises(EvaluationError) as got:
                minimax.site_checks(table, spec, sites, 0.5, 12)
            assert str(got.value) == errors[0]

    def test_a_path_dependent_lane_reads_its_own_stopped_window(self, desk):
        # the isaacs callbacks alone: every lane's stage terms read path_of,
        # which must give the lane's stopped path on its own site's window
        spec, grid, table = desk
        seen = []

        def stage(t, states, path_of, P, Q):
            for n in range(len(states)):
                x = path_of(n)
                k = x.grid.node_index(t)
                assert (x.values[k + 1:] == x.values[k]).all()  # stopped at t
                seen.append((round(t * grid.n_steps), x.grid.n_steps))
            return desk[0].stage(t, states, path_of, P, Q)

        spec = dataclasses.replace(spec, stage=stage)
        # windows [2, 6] and [13, 16], the second cut short by T
        sites = [minimax.Site(grid.nodes[k], Path.constant(grid, [state]), np.array([0.4]),
                              (("sub", 1), ("super", 2)))
                 for k, state in ((2, 0.3), (13, -0.5))]
        minimax.site_checks(table, spec, sites, 0.25, 12)
        assert sorted(set(seen)) == [(k, 6) for k in range(2, 6)] + [(k, 16) for k in (13, 14, 15)]

    def test_unknown_check_kind_is_refused_before_any_work(self, desk, monkeypatch):
        spec, grid, table = desk
        calls = _count_lane_sets(monkeypatch)
        site = minimax.Site(grid.nodes[2], Path.constant(grid, [0.1]), np.array([0.5]),
                            (("sub", 0), ("sideways", 1)))
        with pytest.raises(DomainError, match="check kind"):
            minimax.site_checks(table, spec, [site], 0.25, 8)
        assert calls == []

    @pytest.mark.parametrize("state,z,shapes", [
        ([0.1], np.array([0.5, 0.2]), "history of dimension 1 and z of shape (2,)"),
        ([0.1, 0.3], np.array([0.5]), "history of dimension 2 and z of shape (1,)"),
        ([0.1], np.zeros((1, 1)), "history of dimension 1 and z of shape (1, 1)"),
    ], ids=["z-too-wide", "history-too-wide", "z-a-matrix"])
    def test_a_site_of_another_dimension_is_refused_before_any_work(self, desk, monkeypatch,
                                                                     state, z, shapes):
        # numpy would otherwise raise a bare ValueError mid-run
        spec, grid, table = desk
        calls = _count_lane_sets(monkeypatch)
        read = []
        monkeypatch.setattr(ValueTable, "interp_batch", lambda *args: read.append(args))
        good = minimax.Site(grid.nodes[2], Path.constant(grid, [0.1]), np.array([0.5]),
                            (("sub", 0),))
        bad = minimax.Site(grid.nodes[4], Path.constant(grid, state), z, (("scan", 1),))
        with pytest.raises(DomainError) as err:
            minimax.site_checks(table, spec, [good, good, bad], 0.25, 8)
        assert str(err.value) == f"site 2: {shapes}, where the game has dimension 1"
        assert calls == [] and read == []

    def test_minimax_check_run_is_two_lane_sets(self, tmp_path, monkeypatch):
        # every site and scan in one set (20 sites of 11 game lanes and two
        # 21-lane tube blocks, 3 scans of 32 lanes), the mutation control in
        # its own; 32 nodes and the control's 4 steps at most
        steps = []
        calls = _count_lane_sets(monkeypatch, steps)
        with open(MINIMAX_CONFIG) as fh:
            assert cli.run(json.load(fh), str(tmp_path)) == 0
        assert calls == [20 * (11 + 21 + 21) + 3 * 32, 32]
        assert len(steps) <= 32 + 4

    @pytest.mark.parametrize("config,library,games,n", [
        (FEEDBACK_SHORT_CONFIG, 64, 62, 16),
        (FEEDBACK_CONFIG, 64, 624, 32),
    ], ids=["feedback_short", "feedback_run"])
    def test_feedback_run_is_two_lane_sets(self, tmp_path, monkeypatch, config, library, games,
                                           n):
        # the companion library, then every distinct game of every partition
        # and pool, each set stepping its lanes together over the whole grid
        steps = []
        calls = _count_lane_sets(monkeypatch, steps)
        with open(config) as fh:
            assert cli.run({**json.load(fh), "seed": 0}, str(tmp_path)) == 0
        assert calls == [library, games]
        assert [(k, len(lanes)) for k, lanes in steps] \
            == [(k, library) for k in range(n)] + [(k, games) for k in range(n)]

    def test_minimax_check_run_takes_stage_terms_once_per_step(self, tmp_path, monkeypatch):
        # inside site_checks, lane_terms is called by the lane solve's steps
        # alone, once per (window step, distinct time): a scan's F0 is its
        # lanes' first Hamiltonian, not a call of its own.  The main set and
        # the mutation control take 4 window steps each
        steps, terms, inside = [], [], []
        _count_lane_sets(monkeypatch, steps)
        lane_terms, site_checks = GameSpec.lane_terms, minimax.site_checks

        def counted_terms(self, *args):
            terms.append(bool(inside))
            return lane_terms(self, *args)

        def within(*args, **kwargs):
            inside.append(True)
            try:
                return site_checks(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(GameSpec, "lane_terms", counted_terms)
        monkeypatch.setattr(cli, "site_checks", within)
        with open(MINIMAX_CONFIG) as fh:
            assert cli.run(json.load(fh), str(tmp_path)) == 0
        assert len(steps) == 8
        assert terms.count(True) == sum(len(np.unique(k)) for k, _ in steps) == 64
