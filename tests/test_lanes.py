"""The forced solves and the batched residual search against the loops they replace."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdhj import evolution, minimax
from pdhj.errors import ContractError, EvaluationError, LatticeCoverageError, SolverError
from pdhj.evolution import (
    DelayDynamics,
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
    value_gradient


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
        with pytest.raises(Exception) as info:
            evolution._lockstep_solve(op, 0.0, self.hist, np.full(forcing.shape[1], L),
                                      lambda k, values, bound: forcing[k])
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
        labels, values, forcing = minimax._candidate_runs(spec, table, side, t0, hist, z,
                                                          budget, 7)
        want = _candidate_runs_reference(spec, table, side, t0, hist, z, budget, 7)
        assert labels == [label for label, _ in want]
        _assert_lanes_equal(values, forcing, [rep for _, rep in want])
        u0 = table.interp(side, t0, hist.value_at(t0))
        G, times = minimax._characteristic_functional(spec, table, side, hist.grid, values,
                                                      forcing, z, t0, u0)
        for row, (_, rep) in zip(G, want):
            ref_G, ref_times = _characteristic_functional_reference(
                spec, table, side, rep, z, t0, u0)
            assert row.tobytes() == ref_G.tobytes()
            assert times.tobytes() == ref_times.tobytes()

    def test_one_lane_set_per_site(self, desk, monkeypatch):
        spec, grid, table = desk
        calls = _count_lane_sets(monkeypatch)
        t0, hist = _site(table, 3, 0.4)
        labels, values, forcing = minimax._candidate_runs(spec, table, "upper", t0, hist,
                                                          np.array([0.3]), 32, 1)
        assert calls == [32]  # the 9 pairs, the 2 characteristics and 21 tube lanes
        assert len(labels) == values.shape[1] == forcing.shape[1] == 32
        calls.clear()
        minimax_site = (t0, Path.constant(grid, [0.4]), np.array([0.3]))
        minimax.minimax_residual(table, spec, minimax_site, "sub", 0.25, 16, seed=2)
        assert calls == [16]

    def test_markov_site_builds_no_path_report_or_scalar_read(self, desk, monkeypatch):
        # isaacs_game declares markov_terms: no lane reads a stopped path
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
        minimax._candidate_runs(spec, table, "upper", t0, hist, np.array([0.3]), 32, 1)
        assert calls == [32]
        assert counts == {"paths": 0, "reports": 0, "interp": 0, "forced_solves": 0}


def _count_lane_sets(monkeypatch):
    """Record the lane count of every _lockstep_solve call."""
    calls = []
    original = evolution._lockstep_solve

    def counted(op, t0, x0, L, step_forcing):
        calls.append(len(L))
        return original(op, t0, x0, L, step_forcing)

    monkeypatch.setattr(evolution, "_lockstep_solve", counted)
    monkeypatch.setattr(minimax, "_lockstep_solve", counted)
    return calls


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

    spec = GameSpec(dyn=DelayDynamics(op=op, rhs=lambda t, x, u: np.array([u[0] + u[1]]),
                                      lipschitz_L=2.0),
                    running_cost=running, terminal_cost=lambda x: 0.0,
                    controls=ControlGrid(p_points=(0.0, 1.0), q_points=(0.0, 1.0)),
                    l_f=2.0, lambda_L=0.2, name="edge")
    grid = TimeGrid(0.0, 1.0, 16)
    lattice = StateLattice(lo=(-1.0,), hi=(0.6,), shape=(17,))
    values = np.add.outer(1.0 - grid.nodes, lattice.axes[0] ** 2)
    table = ValueTable(grid=grid, lattice=lattice, v_minus=values, v_plus=values)
    return spec, grid, table


class TestOffLatticeOrder:
    """The residual layer's lockstep order: every Hamiltonian, node by node and
    within a node candidate by candidate, before the table reads; a read names
    the largest margin of the first window node where some candidate leaves
    the lattice."""

    # with a cost limit, the first node where some candidate's state passes
    # it: candidates 2 and 4 (forcings 1.6 and 2.0) pass 0.55 and 0.59 at
    # t=0.375, before candidate 1 (forcing 0.9) does at 0.4375 and 0.5
    FUNCTIONAL_ERRORS = {
        None: (LatticeCoverageError, "state leaves the lattice by 4.272212e-02; "
                                     "expand bounds by at least that margin"),
        0.45: (EvaluationError, "non-finite running cost at t=0.3125, p=0.0, q=0.0"),
        0.55: (EvaluationError, "non-finite running cost at t=0.375, p=0.0, q=0.0"),
        0.59: (EvaluationError, "non-finite running cost at t=0.375, p=0.0, q=0.0"),
    }

    @pytest.mark.parametrize("cost_limit", [None, 0.45, 0.55, 0.59])
    def test_functional_raises_like_candidate_loop(self, cost_limit):
        spec, _, table = _edge_setup(cost_limit)
        t0, hist = _site(table, 4, 0.4, horizon=0.5)
        # constant forcings on the game's operator: no policy calls the cost
        steps = hist.grid.n_steps
        reports = [solve_delay_evolution(spec.dyn.op, t0, hist, np.full((steps, 1), s),
                                         lipschitz_L=2.0) for s in (0.0, 0.9, 1.6, 0.5, 2.0)]
        values = np.stack([rep.path.values for rep in reports], axis=1)
        forcing = np.stack([rep.forcing_trace for rep in reports], axis=1)
        error, message = self.FUNCTIONAL_ERRORS[cost_limit]
        with pytest.raises(error) as got:
            minimax._characteristic_functional(spec, table, "upper", hist.grid, values, forcing,
                                               np.array([0.5]), t0, 0.0)
        assert str(got.value) == message
        if error is LatticeCoverageError:
            # candidate 4 alone leaves at the second window node; candidate 1,
            # the first in candidate order to leave, does so by 1.168216e-02
            # two nodes later
            assert got.value.margin == 0.042722117280852845

    def test_viscosity_scan_names_largest_margin_of_first_node(self):
        # constant[p1,q1] alone leaves at the second window node; constant[p0,q1],
        # the first in candidate order to leave, does so by 3.629637e-02 two
        # nodes later
        spec, grid, table = _edge_setup()
        site = (grid.nodes[4], Path.constant(grid, [0.4]))
        with pytest.raises(LatticeCoverageError) as got:
            minimax.viscosity_scan(table, spec, site, np.array([0.5]), 0.5,
                                   search_budget=12, seed=0)
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
    """name -> (spec, table, state range): two Markov games, one game with
    the isaacs callbacks alone, and the edge game with its narrow lattice."""
    grid = TimeGrid(0.0, 1.0, 16)
    lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
    isaacs = isaacs_game(scale=0.5)
    bilinear = bilinear_game(scale=0.5)
    isaacs_table = dp_value(isaacs, grid, lattice)
    edge, _, edge_table = _edge_setup()
    return {
        "isaacs": (isaacs, isaacs_table, (-1.5, 1.5)),
        "bilinear": (bilinear, dp_value(bilinear, grid, lattice), (-1.5, 1.5)),
        "isaacs-callbacks": (dataclasses.replace(isaacs, markov_terms=None), isaacs_table,
                             (-1.5, 1.5)),
        # a tube constant apart from the dynamics' own, as the tube lanes take it
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
        labels, values, forcing = minimax._candidate_runs(spec, table, side, t0, hist, z,
                                                          budget, seed)
        want = _candidate_runs_reference(spec, table, side, t0, hist, z, budget, seed)
        assert labels == [label for label, _ in want]
        assert len(labels) == max(budget, spec.controls.n_p * spec.controls.n_q + 2)
        _assert_lanes_equal(values, forcing, [rep for _, rep in want])
        u0 = table.interp(side, t0, hist.value_at(t0))
        try:
            G, times = minimax._characteristic_functional(spec, table, side, hist.grid, values,
                                                          forcing, z, t0, u0)
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
