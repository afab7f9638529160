"""The Markov form of a game against the path callbacks it stands in for.

A game that reads its path only through x(t) may declare markov_terms; every
consumer of stage terms then makes one batched call where the path callbacks
sweep the (p, q) pairs.  These tests hold the form to the callbacks bit for
bit: the form itself on sampled stopped paths, then each consumer run with
and without it (dataclasses.replace(spec, markov_terms=None)).  They also pin
the finiteness order of the batched answer and the DP oracle's refusal of
games that read their past.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdhj.errors import ConfigurationError, DomainError, EvaluationError
from pdhj.evolution import make_linear_operator
from pdhj.game import (
    ControlGrid,
    FeedbackPlay,
    GameSpec,
    StateLattice,
    adversary_pool,
    bilinear_game,
    constant_game,
    dp_value,
    extremal_shift_strategy,
    greedy_adversary,
    isaacs_game,
    play_feedback_games,
    with_drift_perturbation,
    with_terminal_shift,
)
from pdhj.minimax import minimax_residual, viscosity_scan
from pdhj.pathcore import Path, TimeGrid, _row_dots, stopped_at
from pdhj.upsilon import LyapunovParams
from scalar_reference import scale_costs, sup_norm


def _planar_game():
    """A dim-2 game with a Markov form: drift 0.4 (p, q), cost 0.05 |x(t)|^2 + 0.1 p q."""
    def running(t, x, p, q):
        xt = x.value_at(t)
        return 0.05 * float(np.dot(xt, xt)) + 0.1 * p * q

    def markov(t, states, P, Q):
        drift = 0.4 * np.stack(np.broadcast_arrays(P[:, None], Q[None, :]), axis=-1)
        cost = 0.05 * _row_dots(states, states)[:, None, None] + (0.1 * P[:, None]) * Q[None, :]
        return np.broadcast_to(drift, (len(states),) + drift.shape), cost

    return GameSpec(op=make_linear_operator(dim=2, gain=1.0),
                    rhs=lambda t, x, u: 0.4 * np.array([float(u[0]), float(u[1])]),
                    running_cost=running,
                    terminal_cost=lambda x: float(np.dot(x.values[-1], x.values[-1])),
                    controls=ControlGrid(p_points=(-1.0, 1.0), q_points=(-1.0, 0.5, 1.0)),
                    l_f=0.8, lambda_L=0.3, name="planar", markov_terms=markov)


# every built-in, each wrapper that carries the form, and control grids
# replaced as the config runner replaces them (integer points included; at
# (0.7, 0.7), (0.3 p) q and 0.3 (p q) differ in the last bit)
GAMES = {
    "isaacs": lambda: isaacs_game(scale=0.5),
    "isaacs-wide": lambda: isaacs_game(scale=0.7, levels=(-1.0, -0.25, 0.5, 1.0),
                                       cost_weight=0.3),
    "bilinear": lambda: bilinear_game(),
    "constant": lambda: constant_game(cost=0.7),
    "scaled": lambda: scale_costs(isaacs_game(), 2.5),
    "drift": lambda: with_drift_perturbation(bilinear_game(), 1.0 / 3.0),
    "shifted": lambda: with_terminal_shift(scale_costs(isaacs_game(), 0.3), 0.25),
    "controls": lambda: dataclasses.replace(
        isaacs_game(), controls=ControlGrid(p_points=(-2, 0.5, 1.5), q_points=(1, -1))),
    "bilinear-controls": lambda: dataclasses.replace(
        bilinear_game(scale=0.3),
        controls=ControlGrid(p_points=(-1, 0.7), q_points=(0.25, 0.7, -2))),
    "planar": _planar_game,
}


def _path_form(spec):
    return dataclasses.replace(spec, markov_terms=None)


def _callback_terms(spec, t, x):
    """The stage terms by one callback call per (p, q) pair."""
    P, Q = spec.controls.p_points, spec.controls.q_points
    drift = np.array([[np.atleast_1d(spec.rhs(t, x, (p, q))) for q in Q] for p in P],
                     dtype=float)
    cost = np.array([[float(spec.running_cost(t, x, p, q)) for q in Q] for p in P])
    return drift, cost


def _control_arrays(spec):
    return (np.asarray(spec.controls.p_points, dtype=float),
            np.asarray(spec.controls.q_points, dtype=float))


class TestMarkovForm:
    @settings(deadline=None, max_examples=80)
    @given(name=st.sampled_from(sorted(GAMES)), n_steps=st.integers(1, 8), data=st.data())
    def test_matches_path_callbacks_on_stopped_paths(self, name, n_steps, data):
        spec = GAMES[name]()
        dim = spec.op.space.dim
        grid = TimeGrid(0.0, 1.0, n_steps)
        coordinate = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        values = np.array(data.draw(st.lists(
            st.lists(coordinate, min_size=dim, max_size=dim),
            min_size=n_steps + 1, max_size=n_steps + 1)), dtype=float)
        k = data.draw(st.integers(0, n_steps))
        t = grid.nodes[k]
        x = stopped_at(grid, values, k)
        drift, cost = spec.markov_terms(t, x.value_at(t)[None], *_control_arrays(spec))
        want_drift, want_cost = _callback_terms(spec, t, x)
        assert drift.shape == (1,) + want_drift.shape and cost.shape == (1,) + want_cost.shape
        assert drift[0].tobytes() == want_drift.tobytes()
        assert cost[0].tobytes() == want_cost.tobytes()

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_lane_terms_match_the_path_branch(self, name):
        spec = GAMES[name]()
        dim = spec.op.space.dim
        grid = TimeGrid(0.0, 1.0, 6)
        rng = np.random.default_rng(4)
        values = rng.standard_normal((grid.n_steps + 1, 5, dim)) * 2.0
        n_p, n_q = spec.controls.n_p, spec.controls.n_q
        played = (np.arange(5), rng.integers(n_p, size=5), rng.integers(n_q, size=5))
        for k in range(grid.n_steps + 1):
            for entries in (None, played):
                got = spec.lane_terms(grid.nodes[k], values[k],
                                      lambda n: stopped_at(grid, values[:, n], k), entries)
                want = _path_form(spec).lane_terms(
                    grid.nodes[k], values[k], lambda n: stopped_at(grid, values[:, n], k), entries)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_markov_terms_of_the_wrong_shape_raise(self):
        spec = dataclasses.replace(isaacs_game(),
                                   markov_terms=lambda t, s, P, Q: (np.zeros((1, 3, 3, 1)),
                                                                    np.zeros((3, 3))))
        with pytest.raises(DomainError) as err:
            spec.lane_terms(0.5, np.zeros((1, 1)), None)
        assert str(err.value) == ("markov_terms returned shapes (1, 3, 3, 1) and (3, 3), "
                                  "expected (1, 3, 3, 1) and (1, 3, 3)")


# ---------------------------------------------------------------------------
# the finiteness order of the batched answer
# ---------------------------------------------------------------------------

def _faulty_game(bad):
    """A 2x3 game, Markov and path forms alike, whose drift or cost is non-finite at
    each ("drift" | "cost", x(t), p, q) in bad."""
    P, Q = (0.0, 1.0), (0.0, 1.0, 2.0)

    def drift_of(xt, p, q):
        return np.nan if ("drift", xt, p, q) in bad else 0.1 * (p - q)

    def cost_of(xt, p, q):
        return np.inf if ("cost", xt, p, q) in bad else 0.5 * p * q + xt

    def markov(t, states, P_arr, Q_arr):
        drift = np.array([[[[drift_of(s, p, q)] for q in Q] for p in P] for s in states[:, 0]])
        cost = np.array([[[cost_of(s, p, q) for q in Q] for p in P] for s in states[:, 0]])
        return drift, cost

    return GameSpec(op=make_linear_operator(),
                    rhs=lambda t, x, u: np.array([drift_of(float(x.value_at(t)[0]), *u)]),
                    running_cost=lambda t, x, p, q: cost_of(float(x.value_at(t)[0]), p, q),
                    terminal_cost=lambda x: 0.0,
                    controls=ControlGrid(p_points=P, q_points=Q),
                    l_f=1.0, lambda_L=1.0, name="faulty", markov_terms=markov)


class TestFiniteness:
    states = np.array([[0.1], [0.2], [0.3]])

    def _raised(self, spec, played=None):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(EvaluationError) as err:
            spec.lane_terms(0.5, self.states,
                            lambda n: Path.constant(grid, self.states[n]), played)
        return str(err.value)

    @pytest.mark.parametrize("bad, message", [
        # lane 1's cost at (p0, q2) comes before its drift at (p1, q0) and lane 2's
        ({("cost", 0.2, 0.0, 2.0), ("drift", 0.2, 1.0, 0.0), ("drift", 0.3, 0.0, 0.0)},
         "non-finite running cost at t=0.5, p=0.0, q=2.0"),
        # the drift before the cost of one entry
        ({("cost", 0.1, 1.0, 1.0), ("drift", 0.1, 1.0, 1.0)},
         "non-finite drift at t=0.5, p=1.0, q=1.0"),
        # the lowest lane first, whatever its pair
        ({("drift", 0.3, 0.0, 0.0), ("cost", 0.2, 1.0, 2.0)},
         "non-finite running cost at t=0.5, p=1.0, q=2.0"),
    ])
    def test_first_entry_in_lane_p_q_order(self, bad, message):
        spec = _faulty_game(bad)
        assert self._raised(spec) == message
        assert self._raised(_path_form(spec)) == message

    def test_only_played_entries_are_checked(self):
        spec = _faulty_game({("cost", 0.1, 0.0, 0.0), ("drift", 0.2, 1.0, 2.0),
                             ("cost", 0.3, 0.0, 1.0)})
        for form in (spec, _path_form(spec)):
            # each lane plays a finite pair: nothing raises
            drift, cost = form.lane_terms(0.5, self.states, lambda n: Path.constant(
                TimeGrid(0.0, 1.0, 4), self.states[n]), (np.arange(3), [1, 0, 1], [0, 2, 1]))
            assert drift.shape == (3, 1) and cost.shape == (3,)
            # lane 1 plays its faulty pair
            assert self._raised(form, (np.arange(3), [1, 1, 0], [0, 2, 1])) \
                == "non-finite drift at t=0.5, p=1.0, q=2.0"


# ---------------------------------------------------------------------------
# every consumer, with and without the Markov form
# ---------------------------------------------------------------------------

DESK_GAMES = ["isaacs", "bilinear", "constant", "scaled", "drift", "shifted", "controls",
              "planar"]


def _lattice(spec):
    if spec.op.space.dim == 2:
        return StateLattice(lo=(-1.5, -1.5), hi=(1.5, 1.5), shape=(9, 9))
    return StateLattice(lo=(-2.0,), hi=(2.0,), shape=(17,))


def _tables(spec, grid):
    return dp_value(spec, grid, _lattice(spec)), dp_value(_path_form(spec), grid, _lattice(spec))


class TestConsumersMatchThePathForm:
    grid = TimeGrid(0.0, 1.0, 8)

    @pytest.mark.parametrize("name", DESK_GAMES)
    def test_dp_value(self, name):
        markov, path = _tables(GAMES[name](), self.grid)
        assert markov.v_minus.tobytes() == path.v_minus.tobytes()
        assert markov.v_plus.tobytes() == path.v_plus.tobytes()

    @pytest.mark.parametrize("name", ["isaacs", "bilinear", "drift", "planar"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_residual_reports(self, name, side):
        spec = GAMES[name]()
        table, _ = _tables(spec, self.grid)
        dim = spec.op.space.dim
        rng = np.random.default_rng(11)
        for k in (1, 4):
            site = (self.grid.nodes[k], Path.constant(self.grid, rng.uniform(-0.6, 0.6, dim)),
                    rng.standard_normal(dim))
            for direction in ("sub", "super"):
                got, want = (json.dumps(dataclasses.asdict(minimax_residual(
                    table, form, site, direction, 0.25, 14, seed=k, side=side)), allow_nan=False)
                             for form in (spec, _path_form(spec)))
                assert got == want
            got, want = (viscosity_scan(table, form, site[:2], site[2], 0.25, search_budget=14,
                                        seed=k, side=side)
                         for form in (spec, _path_form(spec)))
            assert [dataclasses.asdict(r) for r in got["reports"]] == \
                [dataclasses.asdict(r) for r in want["reports"]]

    @pytest.mark.parametrize("name", ["isaacs", "bilinear", "planar"])
    def test_feedback_traces_and_random_draws(self, name):
        spec = GAMES[name]()
        table, _ = _tables(spec, self.grid)
        n_q = spec.controls.n_q
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        partition = TimeGrid(0.0, 1.0, 4)
        x0 = Path.constant(self.grid, [0.3, -0.2][:spec.op.space.dim])
        plays = []
        for form in (spec, _path_form(spec)):
            strategy = extremal_shift_strategy(form, params, 0.0, x0, partition, value=table,
                                               library_size=16, seed=3)
            # constants, the greedy lookahead, then three random adversaries
            pool = adversary_pool(form, table, n_q + 4, seed=21)
            plays.append(play_feedback_games(strategy, pool, partition))
        got, want = plays
        for f in dataclasses.fields(FeedbackPlay)[1:]:
            assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name
        # each random adversary draws once per cell from its own generator,
        # in cell order, as when its game is played alone
        for i in range(3):
            rng = np.random.default_rng(21 + i)
            assert got.q[:, n_q + 1 + i].tolist() == [int(rng.integers(n_q)) for _ in range(4)]

    @pytest.mark.parametrize("name", ["isaacs", "bilinear-controls", "planar"])
    def test_greedy_picks(self, name):
        spec = GAMES[name]()
        table, _ = _tables(spec, self.grid)
        dim = spec.op.space.dim
        rng = np.random.default_rng(8)
        got, want = greedy_adversary(spec, table), greedy_adversary(_path_form(spec), table)
        for _ in range(30):
            k = int(rng.integers(self.grid.n_steps))
            x = stopped_at(self.grid, rng.uniform(-1.0, 1.0, (self.grid.n_steps + 1, dim)), k)
            for p in range(spec.controls.n_p):
                assert got(self.grid.nodes[k], lambda: x, p) == \
                    want(self.grid.nodes[k], lambda: x, p)


# ---------------------------------------------------------------------------
# the oracle refuses games that read their past
# ---------------------------------------------------------------------------

def _past_reading_game(running, name):
    return GameSpec(op=make_linear_operator(),
                    rhs=lambda t, x, u: np.array([0.5 * (u[0] + u[1])]),
                    running_cost=running, terminal_cost=lambda x: 0.0,
                    controls=ControlGrid(p_points=(-1.0, 1.0), q_points=(-1.0, 1.0)),
                    l_f=1.0, lambda_L=0.2, name=name)


class TestOracleProbe:
    grid = TimeGrid(0.0, 1.0, 4)
    lattice = StateLattice(lo=(-1.0,), hi=(1.0,), shape=(5,))

    def test_delayed_cost_is_refused(self):
        spec = _past_reading_game(
            lambda t, x, p, q: 0.1 * float(x.value_at(max(t - 0.25, 0.0))[0]) ** 2, "delayed")
        with pytest.raises(ConfigurationError) as err:
            dp_value(spec, self.grid, self.lattice)
        # the backward recursion meets the last node before the horizon first
        assert str(err.value) == (
            "game 'delayed' reads its path before t at time node 3 (t=0.75, lattice state "
            "[-1.]): the DP oracle values only games that read the path through x(t)")

    def test_running_sup_norm_is_refused(self):
        spec = _past_reading_game(lambda t, x, p, q: 0.1 * sup_norm(x, t), "sup")
        with pytest.raises(ConfigurationError, match="game 'sup' reads its path before t "
                                                     r"at time node 3 \(t=0\.75"):
            dp_value(spec, self.grid, self.lattice)

    def test_terminal_cost_reading_the_past_is_refused(self):
        # the stage terms read x(t) only; the terminal cost reads x(0)
        spec = dataclasses.replace(isaacs_game(), markov_terms=None,
                                   terminal_cost=lambda x: float(x.values[0][0] ** 2))
        with pytest.raises(ConfigurationError) as err:
            dp_value(spec, self.grid, self.lattice)
        assert str(err.value) == (
            "game 'isaacs-additive' reads its path before T in its terminal cost (lattice "
            "state [-1.]): the DP oracle values only games that read the path through x(T)")

    def test_terminal_running_sup_is_refused(self):
        spec = dataclasses.replace(_past_reading_game(lambda t, x, p, q: 0.0, "sup-end"),
                                   terminal_cost=lambda x: sup_norm(x, x.grid.t_end))
        with pytest.raises(ConfigurationError, match="game 'sup-end' reads its path before T"):
            dp_value(spec, self.grid, self.lattice)

    def test_terminal_cost_of_x_at_the_horizon_passes(self):
        spec = dataclasses.replace(isaacs_game(), markov_terms=None)
        table = dp_value(spec, self.grid, self.lattice)
        assert np.array_equal(table.v_plus, dp_value(isaacs_game(), self.grid,
                                                     self.lattice).v_plus)

    def test_a_game_reading_x_of_t_passes(self):
        spec = _past_reading_game(lambda t, x, p, q: 0.1 * float(x.value_at(t)[0]) ** 2, "now")
        table = dp_value(spec, self.grid, self.lattice)
        assert np.all(np.isfinite(table.v_plus))

    def test_a_declared_markov_form_is_taken_at_its_word(self):
        # the probe runs only on games without a Markov form
        delayed = _past_reading_game(
            lambda t, x, p, q: 0.1 * float(x.value_at(max(t - 0.25, 0.0))[0]) ** 2, "delayed")
        spec = dataclasses.replace(delayed, markov_terms=isaacs_game(scale=0.5).markov_terms)
        dp_value(spec, self.grid, self.lattice)
