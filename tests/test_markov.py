"""A game's stage and terminal functions against the callback references they stand for.

Every built-in game states its drift and running cost once, as one batched
stage function, and its terminal cost as one batched terminal function;
neither reads a path.  Its reference is the same formulas as per-pair path
callbacks (scalar_reference.reference_game, through callback_game).  These
tests hold the two bit for bit: the functions themselves on sampled stopped
paths, under a control-grid override and at extreme terminal states, then
each consumer run with either form.  They also pin the finiteness order of
GameSpec.lane_terms, and the DP oracle's probe: dp_value probes a slice, or
the terminal cost, exactly when the game's function called path_of there,
and refuses a game that reads its past.
"""

import dataclasses
import glob
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdhj import cli
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
    greedy_lookahead,
    isaacs_game,
    play_feedback_games,
    with_drift_perturbation,
    with_terminal_shift,
)
from pdhj.minimax import Site, site_checks, stability_experiment
from pdhj.pathcore import Path, TimeGrid, stopped_at
from pdhj.upsilon import LyapunovParams
from scalar_reference import callback_game, planar_game, reference_game, scale_costs, sup_norm


def _built_in(builder, **kwargs):
    return builder(**kwargs)


# every built-in, each wrapper, and control grids given to the builder as the
# config runner gives them (integer points included; at (0.7, 0.7), (0.3 p) q
# and 0.3 (p q) differ in the last bit).  Each entry takes the form to build
# a builder's game in: _built_in or reference_game.
GAMES = {
    "isaacs": lambda form: form(isaacs_game, scale=0.5),
    "isaacs-wide": lambda form: form(isaacs_game, scale=0.7, cost_weight=0.3,
                                     controls=ControlGrid((-1.0, -0.25, 0.5, 1.0),
                                                          (-1.0, -0.25, 0.5, 1.0))),
    "bilinear": lambda form: form(bilinear_game),
    "constant": lambda form: form(constant_game, cost=0.7),
    "scaled": lambda form: scale_costs(form(isaacs_game), 2.5),
    "drift": lambda form: with_drift_perturbation(form(bilinear_game), 1.0 / 3.0),
    "shifted": lambda form: with_terminal_shift(scale_costs(form(isaacs_game), 0.3), 0.25),
    "controls": lambda form: form(
        isaacs_game, controls=ControlGrid(p_points=(-2, 0.5, 1.5), q_points=(1, -1))),
    "bilinear-controls": lambda form: form(
        bilinear_game, scale=0.3,
        controls=ControlGrid(p_points=(-1, 0.7), q_points=(0.25, 0.7, -2))),
    "planar": lambda form: planar_game(callbacks=form is reference_game),
}


def _game(name):
    return GAMES[name](_built_in)


def _path_form(name):
    return GAMES[name](reference_game)


def _unread(n):
    raise AssertionError("a built-in game's function called path_of")


def _control_arrays(spec):
    return (np.asarray(spec.controls.p_points, dtype=float),
            np.asarray(spec.controls.q_points, dtype=float))


def _assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestMarkovForm:
    """The built-ins' functions, which read x(t) alone, against their references."""

    @settings(deadline=None, max_examples=80)
    @given(name=st.sampled_from(sorted(GAMES)), n_steps=st.integers(1, 8), data=st.data())
    def test_matches_path_callbacks_on_stopped_paths(self, name, n_steps, data):
        spec, reference = _game(name), _path_form(name)
        dim = spec.op.space.dim
        grid = TimeGrid(0.0, 1.0, n_steps)
        coordinate = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        values = np.array(data.draw(st.lists(
            st.lists(coordinate, min_size=dim, max_size=dim),
            min_size=n_steps + 1, max_size=n_steps + 1)), dtype=float)
        k = data.draw(st.integers(0, n_steps))
        t = grid.nodes[k]
        x = stopped_at(grid, values, k)
        for got, want in zip(spec.stage(t, x.value_at(t)[None], _unread, *_control_arrays(spec)),
                             reference.stage(t, x.value_at(t)[None], lambda _: x,
                                             *_control_arrays(spec))):
            _assert_bits_equal(got, want)
        full = Path(grid, values)
        _assert_bits_equal(spec.terminal(values[-1][None], _unread),
                           reference.terminal(values[-1][None], lambda _: full))

    @pytest.mark.parametrize("name", sorted(GAMES))
    @pytest.mark.parametrize("magnitude", [1e-160, 3.7e-161, 1e150, 2.5e149])
    def test_terminal_matches_at_extreme_states(self, name, magnitude):
        # |x(T)|^2 is subnormal near 1e-160, so |x(T)| and sqrt(x . x) differ there
        spec, reference = _game(name), _path_form(name)
        grid = TimeGrid(0.0, 1.0, 2)
        dim = spec.op.space.dim
        states = magnitude * np.array([[1.0, 0.5], [-1.0, -0.75], [0.3, 1.0]])[:, :dim]
        paths = [Path.constant(grid, state) for state in states]
        got = spec.final_costs(states, _unread)
        _assert_bits_equal(got, reference.final_costs(states, lambda n: paths[n]))
        if name == "bilinear":
            assert got.tolist() == [float(np.linalg.norm(x.values[-1])) for x in paths]

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_lane_terms_match_the_path_branch(self, name):
        spec, reference = _game(name), _path_form(name)
        dim = spec.op.space.dim
        grid = TimeGrid(0.0, 1.0, 6)
        rng = np.random.default_rng(4)
        values = rng.standard_normal((grid.n_steps + 1, 5, dim)) * 2.0
        n_p, n_q = spec.controls.n_p, spec.controls.n_q
        played = (np.arange(5), rng.integers(n_p, size=5), rng.integers(n_q, size=5))
        for k in range(grid.n_steps + 1):
            for entries in (None, played):
                got = spec.lane_terms(grid.nodes[k], values[k], _unread, entries)
                want = reference.lane_terms(
                    grid.nodes[k], values[k], lambda n: stopped_at(grid, values[:, n], k), entries)
                for a, b in zip(got, want):
                    _assert_bits_equal(a, b)

    def test_control_grid_sets_the_growth_constant(self):
        wide = ControlGrid(p_points=(-2.0, 2.0), q_points=(-3.0, 1.0))
        assert bilinear_game(controls=wide).l_f == 6.0
        assert isaacs_game(scale=0.5, controls=wide).l_f == 2.5
        # one level set on both axes: the constants the config's levels give
        square = ControlGrid(p_points=(-1.5, 0.5), q_points=(-1.5, 0.5))
        assert bilinear_game(scale=0.7, controls=square).l_f == 0.7 * 1.5 ** 2
        assert isaacs_game(scale=0.3, controls=square).l_f == 2.0 * 0.3 * 1.5

    def test_stage_of_the_wrong_shape_raises(self):
        spec = dataclasses.replace(isaacs_game(),
                                   stage=lambda t, s, path_of, P, Q: (np.zeros((1, 3, 3, 1)),
                                                                      np.zeros((3, 3))))
        with pytest.raises(DomainError) as err:
            spec.lane_terms(0.5, np.zeros((1, 1)), None)
        assert str(err.value) == ("stage returned shapes (1, 3, 3, 1) and (3, 3), "
                                  "expected (1, 3, 3, 1) and (1, 3, 3)")

    def test_terminal_of_the_wrong_shape_raises(self):
        spec = dataclasses.replace(isaacs_game(), terminal=lambda s, path_of: np.zeros((2, 1)))
        with pytest.raises(DomainError) as err:
            spec.final_costs(np.zeros((2, 1)), None)
        assert str(err.value) == "terminal returned shape (2, 1), expected (2,)"

    def test_non_finite_terminal_cost_raises(self):
        spec = dataclasses.replace(isaacs_game(),
                                   terminal=lambda s, path_of: np.array([0.0, np.nan]))
        with pytest.raises(EvaluationError, match="^non-finite terminal cost$"):
            spec.final_costs(np.zeros((2, 1)), None)


# ---------------------------------------------------------------------------
# the finiteness order of lane_terms
# ---------------------------------------------------------------------------

def _faulty_game(bad, callbacks=False):
    """A 2x3 game, batched or in callback form, whose drift or cost is
    non-finite at each ("drift" | "cost", x(t), p, q) in bad."""
    P, Q = (0.0, 1.0), (0.0, 1.0, 2.0)

    def drift_of(xt, p, q):
        return np.nan if ("drift", xt, p, q) in bad else 0.1 * (p - q)

    def cost_of(xt, p, q):
        return np.inf if ("cost", xt, p, q) in bad else 0.5 * p * q + xt

    op, controls = make_linear_operator(), ControlGrid(p_points=P, q_points=Q)
    if callbacks:
        return callback_game(op, lambda t, x, u: np.array([drift_of(float(x.value_at(t)[0]), *u)]),
                             lambda t, x, p, q: cost_of(float(x.value_at(t)[0]), p, q),
                             lambda x: 0.0, controls, l_f=1.0, lambda_L=1.0, name="faulty")

    def stage(t, states, path_of, P_arr, Q_arr):
        drift = np.array([[[[drift_of(s, p, q)] for q in Q] for p in P] for s in states[:, 0]])
        cost = np.array([[[cost_of(s, p, q) for q in Q] for p in P] for s in states[:, 0]])
        return drift, cost

    return GameSpec(op=op, stage=stage, terminal=lambda states, path_of: np.zeros(len(states)),
                    controls=controls, l_f=1.0, lambda_L=1.0, name="faulty")


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
        assert self._raised(_faulty_game(bad)) == message
        assert self._raised(_faulty_game(bad, callbacks=True)) == message

    def test_only_played_entries_are_checked(self):
        bad = {("cost", 0.1, 0.0, 0.0), ("drift", 0.2, 1.0, 2.0), ("cost", 0.3, 0.0, 1.0)}
        for form in (_faulty_game(bad), _faulty_game(bad, callbacks=True)):
            # each lane plays a finite pair: nothing raises
            drift, cost = form.lane_terms(0.5, self.states, lambda n: Path.constant(
                TimeGrid(0.0, 1.0, 4), self.states[n]), (np.arange(3), [1, 0, 1], [0, 2, 1]))
            assert drift.shape == (3, 1) and cost.shape == (3,)
            # lane 1 plays its faulty pair
            assert self._raised(form, (np.arange(3), [1, 1, 0], [0, 2, 1])) \
                == "non-finite drift at t=0.5, p=1.0, q=2.0"


# ---------------------------------------------------------------------------
# every consumer, with either form
# ---------------------------------------------------------------------------

DESK_GAMES = ["isaacs", "bilinear", "constant", "scaled", "drift", "shifted", "controls",
              "planar"]


def _lattice(spec):
    if spec.op.space.dim == 2:
        return StateLattice(lo=(-1.5, -1.5), hi=(1.5, 1.5), shape=(9, 9))
    return StateLattice(lo=(-2.0,), hi=(2.0,), shape=(17,))


def _tables(name, grid):
    spec, reference = _game(name), _path_form(name)
    return dp_value(spec, grid, _lattice(spec)), dp_value(reference, grid, _lattice(spec))


class TestConsumersMatchThePathForm:
    grid = TimeGrid(0.0, 1.0, 8)

    @pytest.mark.parametrize("name", DESK_GAMES)
    def test_dp_value(self, name):
        built, path = _tables(name, self.grid)
        assert built.v_minus.tobytes() == path.v_minus.tobytes()
        assert built.v_plus.tobytes() == path.v_plus.tobytes()

    @pytest.mark.parametrize("name", ["isaacs", "bilinear", "drift", "planar"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_residual_reports(self, name, side):
        spec, reference = _game(name), _path_form(name)
        table, _ = _tables(name, self.grid)
        dim = spec.op.space.dim
        rng = np.random.default_rng(11)
        for k in (1, 4):
            site = Site(self.grid.nodes[k], Path.constant(self.grid, rng.uniform(-0.6, 0.6, dim)),
                        rng.standard_normal(dim), (("sub", k), ("super", k), ("scan", k)))
            (sub, sup, scan), (ref_sub, ref_sup, ref_scan) = (
                site_checks(table, form, [site], 0.25, 14, side=side)[0]
                for form in (spec, reference))
            for got, want in ((sub, ref_sub), (sup, ref_sup)):
                assert json.dumps(dataclasses.asdict(got), allow_nan=False) == \
                    json.dumps(dataclasses.asdict(want), allow_nan=False)
            assert [dataclasses.asdict(r) for r in scan["reports"]] == \
                [dataclasses.asdict(r) for r in ref_scan["reports"]]

    @pytest.mark.parametrize("name", ["isaacs", "bilinear", "planar"])
    def test_feedback_traces_and_random_draws(self, name):
        spec = _game(name)
        table, _ = _tables(name, self.grid)
        n_q = spec.controls.n_q
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        partition = TimeGrid(0.0, 1.0, 4)
        x0 = Path.constant(self.grid, [0.3, -0.2][:spec.op.space.dim])
        plays = []
        for form in (spec, _path_form(name)):
            strategy = extremal_shift_strategy(form, params, 0.0, x0, partition, value=table,
                                               library_size=16, seed=3)
            # constants, the greedy lookahead, then three random adversaries
            _, q = adversary_pool(n_q, n_q + 4, 21, partition.n_steps)
            plays.extend(play_feedback_games(strategy, [partition], [q]))
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
        spec = _game(name)
        table, _ = _tables(name, self.grid)
        dim = spec.op.space.dim
        rng = np.random.default_rng(8)
        for _ in range(30):
            k = int(rng.integers(self.grid.n_steps))
            x = stopped_at(self.grid, rng.uniform(-1.0, 1.0, (self.grid.n_steps + 1, dim)), k)
            p = np.arange(spec.controls.n_p)
            states = np.repeat(x.values[k][None], len(p), axis=0)
            bounds = np.full(len(p), spec.l_f * (1.0 + sup_norm(x, self.grid.nodes[k])))
            got, want = (greedy_lookahead(form, table, self.grid.nodes[k], k, states,
                                          lambda _: x, p, bounds)
                         for form in (spec, _path_form(name)))
            assert got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# the oracle probes what it sees read, and refuses games that read their past
# ---------------------------------------------------------------------------

def _past_reading_game(running, name, terminal_cost=lambda x: 0.0):
    return callback_game(op=make_linear_operator(),
                         rhs=lambda t, x, u: np.array([0.5 * (u[0] + u[1])]),
                         running_cost=running, terminal_cost=terminal_cost,
                         controls=ControlGrid(p_points=(-1.0, 1.0), q_points=(-1.0, 1.0)),
                         l_f=1.0, lambda_L=0.2, name=name)


def _count_reads(monkeypatch):
    """Count the GameSpec.lane_terms calls and the path_of calls that the
    stage and terminal functions make, from here on."""
    counts = {"lane_terms": 0, "path_of": 0}
    lane_terms, final_costs = GameSpec.lane_terms, GameSpec.final_costs

    def counted(path_of):
        def read(n):
            counts["path_of"] += 1
            return path_of(n)
        return read

    def spy_lane_terms(self, t, states, path_of, played=None):
        counts["lane_terms"] += 1
        return lane_terms(self, t, states, counted(path_of), played)

    monkeypatch.setattr(GameSpec, "lane_terms", spy_lane_terms)
    monkeypatch.setattr(GameSpec, "final_costs",
                        lambda self, states, path_of: final_costs(self, states, counted(path_of)))
    return counts


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
        # the stage function reads x(t) only; the terminal function reads x(0)
        def terminal(states, path_of):
            return np.array([float(path_of(n).values[0][0] ** 2) for n in range(len(states))])

        spec = dataclasses.replace(isaacs_game(), terminal=terminal)
        with pytest.raises(ConfigurationError) as err:
            dp_value(spec, self.grid, self.lattice)
        assert str(err.value) == (
            "game 'isaacs-additive' reads its path before T in its terminal cost (lattice "
            "state [-1.]): the DP oracle values only games that read the path through x(T)")

    def test_terminal_probe_takes_every_pushed_cost_before_comparing(self):
        # the first point's pushed cost differs and the last one's is not
        # finite: the probe's one final_costs call raises before any compare
        def terminal(states, path_of):
            starts = [float(path_of(n).values[0][0]) for n in range(len(states))]
            return np.array([np.nan if x0 > 2.5 else x0 ** 2 for x0 in starts])

        spec = dataclasses.replace(isaacs_game(), terminal=terminal)
        with pytest.raises(EvaluationError, match="^non-finite terminal cost$"):
            dp_value(spec, self.grid, self.lattice)

    def test_terminal_running_sup_is_refused(self):
        spec = _past_reading_game(lambda t, x, p, q: 0.0, "sup-end",
                                  terminal_cost=lambda x: sup_norm(x, x.grid.t_end))
        with pytest.raises(ConfigurationError, match="game 'sup-end' reads its path before T"):
            dp_value(spec, self.grid, self.lattice)

    def test_terminal_cost_of_x_at_the_horizon_passes(self):
        table = dp_value(reference_game(isaacs_game), self.grid, self.lattice)
        assert np.array_equal(table.v_plus, dp_value(isaacs_game(), self.grid,
                                                     self.lattice).v_plus)

    def test_a_game_reading_x_of_t_passes(self):
        spec = _past_reading_game(lambda t, x, p, q: 0.1 * float(x.value_at(t)[0]) ** 2, "now")
        table = dp_value(spec, self.grid, self.lattice)
        assert np.all(np.isfinite(table.v_plus))

    def test_the_shipped_game_is_never_probed(self, monkeypatch):
        counts = _count_reads(monkeypatch)
        built = dp_value(isaacs_game(scale=0.5), self.grid, self.lattice)
        assert counts == {"lane_terms": self.grid.n_steps, "path_of": 0}
        # the callback form reads every lift: each slice after the first and
        # the terminal cost are probed, one more lane_terms call per slice
        counts.update(lane_terms=0, path_of=0)
        path = dp_value(reference_game(isaacs_game, scale=0.5), self.grid, self.lattice)
        assert counts["lane_terms"] == 2 * self.grid.n_steps - 1
        assert built.v_minus.tobytes() == path.v_minus.tobytes()
        assert built.v_plus.tobytes() == path.v_plus.tobytes()

    def test_probes_exactly_the_slices_that_read_a_path(self, monkeypatch):
        # the isaacs stage function, which calls path_of from t = 0.5 on
        # without using it: nodes 2 and 3 are probed, and pass
        base = isaacs_game()
        read_at = []

        def stage(t, states, path_of, P, Q):
            if t >= 0.5:
                read_at.append(t)
                for n in range(len(states)):
                    path_of(n)
            return base.stage(t, states, path_of, P, Q)

        counts = _count_reads(monkeypatch)
        table = dp_value(dataclasses.replace(base, stage=stage), self.grid, self.lattice)
        assert read_at == [0.75, 0.75, 0.5, 0.5]  # each read slice, then its probe
        assert counts["lane_terms"] == self.grid.n_steps + 2
        assert table.v_plus.tobytes() == dp_value(base, self.grid, self.lattice).v_plus.tobytes()


def _shipped_configs():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, "configs", "*.json")))
    paths.append(os.path.join(root, "bench", "configs", "feedback_short.json"))
    configs = [cli.validate_config(json.load(open(path))) for path in paths]
    return [pytest.param(cfg, id=os.path.basename(path))
            for path, cfg in zip(paths, configs) if "game" in cfg]


@pytest.mark.parametrize("cfg", _shipped_configs())
def test_shipped_games_never_pay_for_the_probe(cfg, monkeypatch):
    # a config without a value grid (isaacs-check) is valued on a small one
    grid = cli._build_grid(cfg["grid"]) if "grid" in cfg else TimeGrid(0.0, 1.0, 8)
    lattice = cli._build_lattice(cfg["lattice"]) if "lattice" in cfg else \
        StateLattice(lo=(-2.0,), hi=(2.0,), shape=(17,))
    spec = cli._build_game(cfg["game"])
    counts = _count_reads(monkeypatch)
    if cfg["kind"] == "stability-run":
        # an h-shift family shares its dynamics: one set of stage terms for
        # the base table and every perturbed one
        assert cfg["family"] == "h-shift"
        stability_experiment(spec, cfg["family"], cfg["n_list"], grid, lattice)
    else:
        dp_value(spec, grid, lattice)
    assert counts == {"lane_terms": grid.n_steps, "path_of": 0}
