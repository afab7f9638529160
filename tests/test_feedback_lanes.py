"""The adversary pools played as one lane set, against the game-by-game loop it replaced."""

import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from pdhj import cli, evolution, game
from pdhj.errors import ContractError, DomainError, EvaluationError, LatticeCoverageError, \
    SolverError
from pdhj.evolution import (
    OperatorSpec,
    make_linear_operator,
    sample_reachable_set,
    solve_delay_evolution,
)
from pdhj.game import (
    COMPANION_KINDS,
    GREEDY,
    ControlGrid,
    FeedbackPlay,
    FeedbackStrategy,
    GuaranteeEstimate,
    StateLattice,
    ValueTable,
    adversary_pool,
    constant_game,
    dp_value,
    extremal_shift_strategy,
    greedy_lookahead,
    isaacs_game,
    lyapunov_violation_stats,
    play_feedback_games,
    step_rate_bound,
)
from pdhj.pathcore import Path, StateSpace, TimeGrid, stopped_at
from pdhj.upsilon import LyapunovParams
from scalar_reference import calibrate_step_bound, callback_game, carried_tables, \
    companion_minimum_reference, constant_adversary, estimate_guaranteed_result, \
    greedy_reference, random_adversary, reference_game, reference_pool, \
    run_feedback_game_reference, sup_norm


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _assert_plays_equal(got, want):
    """Two records bit for bit: the same partition, and every array of the
    same dtype, shape and bytes."""
    assert got.partition == want.partition
    for f in dataclasses.fields(FeedbackPlay)[1:]:
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
        assert a.tobytes() == b.tobytes(), f.name


def _assert_game_equal(play, g, want):
    """Game g's columns of play against the one-game record want."""
    _assert_plays_equal(play.lanes([g]), want)


def _assert_lanes_match(spec, strategy, play, pool):
    """Every lane of play against its policy in pool, played alone."""
    assert play.p.shape[1] == len(pool)
    for g, adversary in enumerate(pool):
        _assert_game_equal(play, g, run_feedback_game_reference(spec, strategy, adversary,
                                                                play.partition))


def _planar_game():
    return callback_game(
        op=make_linear_operator(dim=2, gain=1.0),
        rhs=lambda t, x, u: 0.4 * np.array([float(u[0]), float(u[1])]),
        running_cost=lambda t, x, p, q: 0.05 * float(np.dot(x.value_at(t), x.value_at(t))),
        terminal_cost=lambda x: float(np.dot(x.values[-1], x.values[-1])),
        controls=ControlGrid(p_points=(-1.0, 1.0), q_points=(-1.0, 1.0)),
        l_f=0.8, lambda_L=0.3, name="planar")


def _desk(dim, library_size, partition_steps=(4, 8)):
    """A game, its table on an 8-step value grid, and a strategy for the
    partitions of [0, 1] with the given step counts."""
    if dim == 1:
        spec, x0 = isaacs_game(scale=0.5), [0.4]
        lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
    else:
        spec, x0 = _planar_game(), [0.3, -0.2]
        lattice = StateLattice(lo=(-1.5, -1.5), hi=(1.5, 1.5), shape=(9, 9))
    grid = TimeGrid(0.0, 1.0, 8)
    table = dp_value(spec, grid, lattice)
    params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
    partitions = [TimeGrid(0.0, 1.0, n) for n in partition_steps]
    strategy = extremal_shift_strategy(spec, params, 0.0, Path.constant(grid, x0),
                                       partitions, value=table,
                                       library_size=library_size, seed=5)
    return spec, table, strategy, partitions


def _companion_widths(monkeypatch):
    """The number of games of each companion_minima call, recorded."""
    widths, real = [], FeedbackStrategy.companion_minima

    def counted(self, t, X, *rest):
        widths.append(X.shape[1])
        return real(self, t, X, *rest)

    monkeypatch.setattr(FeedbackStrategy, "companion_minima", counted)
    return widths


def _distinct(table):
    return np.unique(table, axis=1).shape[1]


# ---------------------------------------------------------------------------
# equality with the game-by-game loop
# ---------------------------------------------------------------------------

class TestPoolMatchesGameByGame:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("library_size", [0, 64])
    def test_every_adversary_kind(self, dim, library_size, monkeypatch):
        # partitions of 3, 4 and 8 steps on the 8-step value grid; 3 and 4 do not nest
        spec, table, strategy, partitions = _desk(dim, library_size, (3, 4, 8))
        n_q, budget = spec.controls.n_q, spec.controls.n_q + 4
        # constants, the greedy lookahead, then random lanes: one pool played on
        # the partitions in turn (its random draws carry across), and a fresh
        # pool of the same seed on each
        _, carried = carried_tables(n_q, budget, 17, partitions)
        tables = [np.hstack([rows, adversary_pool(n_q, budget, 17, len(rows))[1]])
                  for rows in carried]
        widths = _companion_widths(monkeypatch)
        plays = play_feedback_games(strategy, partitions, tables)
        monkeypatch.undo()
        # the distinct columns reach the companion minima once: the first
        # partition's fresh pool repeats its carried one, and every table's
        # greedy columns are one
        assert widths[0] == sum(map(_distinct, tables)) < sum(t.shape[1] for t in tables)
        assert _distinct(tables[0]) == _distinct(tables[0][:, :budget])
        carried_pool = reference_pool(spec, table, budget, 17)
        kinds = set()
        for play in plays:
            _assert_lanes_match(spec, strategy, play,
                                carried_pool + reference_pool(spec, table, budget, 17))
            kinds.update(play.kind.ravel().tolist())
        assert len(kinds) > 1  # the games' minima come from several kinds

    def test_random_generators_carry_across_partitions(self):
        spec, table, strategy, partitions = _desk(1, 8)
        n_q = spec.controls.n_q
        _, tables = carried_tables(n_q, n_q + 4, 3, partitions)
        randoms = slice(n_q + 1, None)  # random[3], random[4] and random[5]
        plays = play_feedback_games(strategy, partitions, [t[:, randoms] for t in tables])
        pool = [random_adversary(s, n_q) for s in (3, 4, 5)]
        for play in plays:
            _assert_lanes_match(spec, strategy, play, pool)
        # a fresh pool replays the first partition's choices, the carried one does not
        fresh = adversary_pool(n_q, n_q + 4, 3, partitions[1].n_steps)[1]
        assert np.array_equal(fresh[: partitions[0].n_steps], tables[0])
        assert not np.array_equal(fresh, tables[1])

    def test_pool_of_one_is_the_one_game_case(self):
        spec, table, strategy, partitions = _desk(1, 16)
        plays = play_feedback_games(strategy, partitions,
                                    [np.full((p.n_steps, 1), GREEDY) for p in partitions])
        for play in plays:
            _assert_plays_equal(play, run_feedback_game_reference(
                spec, strategy, greedy_reference(spec, table), play.partition))

    def test_mid_horizon_start(self):
        spec = isaacs_game(scale=0.5)
        grid = TimeGrid(0.0, 1.0, 8)
        table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,)))
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        x0 = Path(grid, 0.3 * np.sin(np.arange(9.0))[:, None])
        partition = TimeGrid(0.5, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.5, x0, partition, value=table,
                                           library_size=8, seed=1)
        _, q = adversary_pool(spec.controls.n_q, 6, 2, partition.n_steps)
        play, = play_feedback_games(strategy, [partition], [q])
        _assert_lanes_match(spec, strategy, play, reference_pool(spec, table, 6, 2))

    def test_library_samples_off_the_lattice_are_dropped(self):
        # from x0 on the lattice edge the tube samples leave the lattice; a
        # sample whose end is off it at a partition node has no upper value
        spec = isaacs_game(scale=0.5)
        grid = TimeGrid(0.0, 1.0, 8)
        lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
        table = dp_value(spec, grid, lattice)
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        partition = TimeGrid(0.0, 1.0, 8)
        strategy = extremal_shift_strategy(spec, params, 0.0, Path.constant(grid, [-2.0]),
                                           partition, value=table, library_size=8, seed=0)
        sim = strategy.x0.grid
        ends = np.stack([y.values[[sim.node_index(t) for t in partition.nodes]]
                         for y in strategy.library], axis=1).reshape(-1, 1)
        off = lattice.coverage_margins(ends) > game.COVERAGE_TOL
        assert 0 < off.sum() < off.size
        _, q = adversary_pool(spec.controls.n_q, 6, 2, partition.n_steps)
        play, = play_feedback_games(strategy, [partition], [q])
        _assert_lanes_match(spec, strategy, play, reference_pool(spec, table, 6, 2))

    def test_no_scalar_step_on_the_normal_path(self, monkeypatch):
        spec, table, strategy, partitions = _desk(1, 8)
        calls = []
        fallback = evolution._fallback_step

        def counted(*args):
            calls.append(args[-2])
            return fallback(*args)

        monkeypatch.setattr(evolution, "_fallback_step", counted)
        play_feedback_games(strategy, partitions[1:],
                            [adversary_pool(spec.controls.n_q, 6, 1, partitions[1].n_steps)[1]])
        assert calls == []

    def test_empty_pool(self):
        spec, table, strategy, partitions = _desk(1, 0)
        play, = play_feedback_games(strategy, partitions[:1],
                                    [np.zeros((partitions[0].n_steps, 0), dtype=int)])
        assert play.p.shape == play.residual.shape == (partitions[0].n_steps, 0)
        assert play.values.shape == (len(strategy.x0.grid.nodes), 0, 1)
        assert play.payoff.shape == (0,)

    def test_tables_and_partitions_are_checked(self):
        spec, table, strategy, partitions = _desk(1, 0)
        with pytest.raises(DomainError, match="q table of shape"):
            play_feedback_games(strategy, partitions, [np.zeros((4, 1), dtype=int)] * 2)
        with pytest.raises(DomainError, match="must span"):
            play_feedback_games(strategy, [TimeGrid(0.5, 1.0, 4)],
                                [np.zeros((4, 1), dtype=int)])

    @pytest.mark.parametrize("entry,dtype", [(-2, int), (None, int), (7, int), (0, float),
                                             (1, bool)])
    def test_q_entries_are_checked_before_any_play(self, monkeypatch, entry, dtype):
        # a q entry must be GREEDY or a q index: -2 would otherwise play index
        # n_q - 2 through negative indexing, and n_q would raise IndexError
        spec, table, strategy, partitions = _desk(1, 0)
        n_q = spec.controls.n_q
        entry = n_q if entry is None else entry
        calls = _companion_widths(monkeypatch)
        good = np.full((partitions[0].n_steps, 2), GREEDY)
        bad = np.zeros((partitions[1].n_steps, 3), dtype=dtype)
        bad[5, 2] = entry
        with pytest.raises(DomainError) as err:
            play_feedback_games(strategy, partitions, [good, bad])
        if dtype is int:
            assert str(err.value) == (f"q table of partition 1 holds {entry}, neither GREEDY "
                                      f"(-1) nor a q index in 0..{n_q - 1}")
        else:
            assert str(err.value) == (f"q table of partition 1 has dtype {np.dtype(dtype)}, "
                                      f"not an integer")
        assert calls == []


def test_one_draw_is_the_per_cell_draws():
    # a random lane's column is one integers(n_q, size=n) draw: the values and
    # the generator state of n draws integers(n_q), as random_adversary makes them
    for seed in range(50):
        for n_q in (2, 3, 5):
            for n in (1, 8, 16, 33):
                whole, single = np.random.default_rng(seed), np.random.default_rng(seed)
                drawn = whole.integers(n_q, size=n)
                assert drawn.tolist() == [int(single.integers(n_q)) for _ in range(n)]
                assert whole.bit_generator.state == single.bit_generator.state


def _isaacs_desk(built_in, grid_steps=8, partition_steps=(4, 8)):
    """The Isaacs game, built in or in its callback form, its table, and a
    strategy for the partitions."""
    spec = isaacs_game(scale=0.5) if built_in else reference_game(isaacs_game, scale=0.5)
    grid = TimeGrid(0.0, 1.0, grid_steps)
    table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,)))
    params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
    partitions = [TimeGrid(0.0, 1.0, n) for n in partition_steps]
    x0 = Path.constant(grid, [0.4])
    strategy = extremal_shift_strategy(spec, params, 0.0, x0, partitions, value=table,
                                       library_size=16, seed=5)
    return spec, table, strategy, partitions, x0


class TestGreedyLanes:
    @pytest.mark.parametrize("built_in", [True, False])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_groups_match_the_per_q_loop_off_node(self, built_in, explicit, monkeypatch):
        # on a 15-step grid the 5-step partition's node 0.6000000000000001
        # is a hair past the simulation grid's node 0.6; an explicit
        # partition puts every inner node up to 7e-13 past the grid's
        if explicit:
            spec, table, _, _, x0 = _isaacs_desk(built_in)
            partition = TimeGrid.from_nodes([0.0, 0.25 + 5e-13, 0.5 + 3e-13, 0.75 + 7e-13, 1.0])
            strategy = extremal_shift_strategy(
                spec, LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0), 0.0, x0,
                partition, value=table, library_size=16, seed=5)
        else:
            spec, table, strategy, (partition,), _ = _isaacs_desk(built_in, 15, (5,))
        off = [t for t in partition.nodes if t not in strategy.x0.grid.nodes]
        assert len(off) == (3 if explicit else 1)
        n, n_q = partition.n_steps, spec.controls.n_q
        # the two greedy lanes are one distinct column, answered as one batch
        q = np.stack([np.full(n, 2), np.full(n, GREEDY),
                      np.random.default_rng(4).integers(n_q, size=n), np.full(n, GREEDY)], axis=1)
        pool = [constant_adversary(2), greedy_reference(spec, table), random_adversary(4, n_q),
                greedy_reference(spec, table)]
        # each batch reads the x(t) of the stopped path its lanes read alone
        lookahead, batches = game.greedy_lookahead, []

        def spy(spec, value, t, k, states, path_of, p_indices, bounds):
            for m, state in enumerate(states):
                assert state.tobytes() == path_of(m).value_at(t).tobytes()
            batches.append(len(states))
            return lookahead(spec, value, t, k, states, path_of, p_indices, bounds)

        monkeypatch.setattr(game, "greedy_lookahead", spy)
        play, = play_feedback_games(strategy, [partition], [q])
        assert batches == [1] * n
        _assert_lanes_match(spec, strategy, play, pool)
        assert np.array_equal(play.q[:, 1], play.q[:, 3])

    def test_one_call_per_partition_time_at_a_node(self, monkeypatch):
        # the explicit partition's inner nodes lie up to 7e-13 past the regular
        # one's, on the same simulation nodes: there each time is its own group
        spec, table, _, _, x0 = _isaacs_desk(True)
        partitions = [TimeGrid(0.0, 1.0, 4),
                      TimeGrid.from_nodes([0.0, 0.25 + 5e-13, 0.5 + 3e-13, 0.75 + 7e-13, 1.0])]
        strategy = extremal_shift_strategy(
            spec, LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0), 0.0, x0,
            partitions, value=table, library_size=16, seed=5)
        assert strategy.x0.grid.n_steps == 8
        _, q = adversary_pool(spec.controls.n_q, 6, 1, 4)
        widths = _companion_widths(monkeypatch)
        plays = play_feedback_games(strategy, partitions, [q, q])
        monkeypatch.undo()
        n = _distinct(q)
        assert widths == [2 * n] + [n, n] * 3 + [2 * n]
        for play in plays:
            _assert_lanes_match(spec, strategy, play, reference_pool(spec, table, 6, 1))

    @pytest.mark.parametrize("built_in", [True, False])
    def test_stopped_paths_built_only_when_read(self, built_in, monkeypatch):
        spec, table, strategy, partitions, _ = _isaacs_desk(built_in)
        built = []

        def counted(grid, values, k):
            built.append(k)
            return stopped_at(grid, values, k)

        monkeypatch.setattr(game, "stopped_at", counted)
        _, q = adversary_pool(spec.controls.n_q, 6, 1, 4)  # constants, greedy, random
        play_feedback_games(strategy, partitions[:1], [q])
        # the built-in game reads none; the callback form each distinct lane's
        # path once per simulation node, which the controls, the greedy
        # answers and the step share
        assert len(built) == (0 if built_in else _distinct(q) * 8)


# ---------------------------------------------------------------------------
# the feedback run's pools as one lane set
# ---------------------------------------------------------------------------

def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True).encode()


def _short_config(**changes):
    path = pathlib.Path(__file__).parents[1] / "bench" / "configs" / "feedback_short.json"
    return cli.validate_config({**json.loads(path.read_text()), "seed": 0, **changes})


class TestPoolsAsOneLaneSet:
    """cli._run_feedback's calibration, estimate and replay pools as one lane
    set, sliced by pool, against the pools played in separate calls."""

    @pytest.mark.parametrize("built_in", [True, False])
    def test_matches_separate_passes(self, built_in):
        spec, table, strategy, partitions, x0 = _isaacs_desk(built_in)
        calibration_budget, budget, seed = 6, 9, 3
        n_q = spec.controls.n_q
        # the tables cli._run_feedback plays: the calibration and estimate
        # pools carried across the partitions, a fresh replay pool on each
        _, calibration = carried_tables(n_q, calibration_budget, seed + 1, partitions)
        labels, estimate = carried_tables(n_q, budget, seed + 2, partitions)
        replays = [adversary_pool(n_q, min(budget, 16), seed + 2, p.n_steps)[1]
                   for p in partitions]
        played = play_feedback_games(strategy, partitions,
                                     [np.hstack(t) for t in zip(calibration, estimate, replays)])
        pool_lanes = [slice(0, calibration_budget), slice(calibration_budget,
                                                          calibration_budget + budget),
                      slice(calibration_budget + budget, None)]
        # each pool in its own call
        separate = [play_feedback_games(strategy, partitions, tables)
                    for tables in (calibration, estimate, replays)]
        for i in range(len(partitions)):
            for j in range(3):
                _assert_plays_equal(played[i].lanes(pool_lanes[j]), separate[j][i])
        # the first partition's replays repeat the estimate's first lanes
        _assert_plays_equal(played[0].lanes(pool_lanes[2]),
                            played[0].lanes(slice(calibration_budget,
                                                  calibration_budget + replays[0].shape[1])))

        m_hat = step_rate_bound([play.lanes(pool_lanes[0]) for play in played])
        assert m_hat == step_rate_bound(separate[0])
        assert m_hat == calibrate_step_bound(spec, strategy, partitions, calibration_budget,
                                             seed + 1)
        est = GuaranteeEstimate.from_payoffs(labels, partitions,
                                             [play.payoff[pool_lanes[1]] for play in played],
                                             budget, seed + 2)
        want = estimate_guaranteed_result(spec, strategy, 0.0, x0, budget, partitions,
                                          seed=seed + 2)
        assert _json_bytes(dataclasses.asdict(est)) == _json_bytes(dataclasses.asdict(want))
        assert est.certificate["pool"] == ["constant[0]", "constant[1]", "constant[2]",
                                           "greedy-lookahead"] + \
            [f"random[{seed + 2 + i}]" for i in range(5)]
        assert lyapunov_violation_stats([play.lanes(pool_lanes[2]) for play in played], m_hat) \
            == lyapunov_violation_stats(separate[2], m_hat)

    def test_feedback_run_plays_one_lane_set(self, monkeypatch):
        real, calls = cli.play_feedback_games, []

        def recording(strategy, partitions, tables):
            calls.append(([p.n_steps for p in partitions], [t.shape[1] for t in tables]))
            return real(strategy, partitions, tables)

        monkeypatch.setattr(cli, "play_feedback_games", recording)
        widths = _companion_widths(monkeypatch)
        cli._run_feedback(_short_config(), {})
        # one call: the 8 + 24 + 16 lanes of each partition, 96 in all; 62 of
        # them distinct, each in the one companion_minima call per node
        assert calls == [([8, 16], [48, 48])]
        assert len(widths) == 17 and widths[0] == 62


def _capped():
    """A dim-1 operator that is NaN past |x| = 1: a lane kicked by q = 40
    fails the implicit step of the cell it is kicked in."""
    return OperatorSpec(space=StateSpace(dim=1), c1=1.0, c2=1.0,
                        eval_fn=lambda t, v: np.where(np.abs(v) > 1.0, np.nan, v))


def _kicked(partition, t_kick):
    """A one-lane q table on partition: q index 2 in the cell that starts at
    t_kick, if one does, and 0 elsewhere."""
    return (np.abs(partition.nodes[:-1] - t_kick) < 1e-12).astype(int)[:, None] * 2


class TestPoolErrorOrder:
    """All partitions step together, so the earliest step's error wins
    whichever partition its lane is on; played partition by partition, the
    first partition's error came first."""

    @pytest.mark.parametrize("t_calibration, t_estimate", [
        (0.125, 0.75),  # calibration fails on the finer partition only
        (0.75, 0.25),   # both fail on the coarser one, the estimate earlier
    ])
    def test_the_earlier_error_of_the_lane_set(self, t_calibration, t_estimate):
        base, _, strategy, partitions, _ = _isaacs_desk(True)
        playing = _playing(strategy, _variant(base, op=_capped(), q_points=(0.0, 1.0, 40.0)))
        tables = [np.hstack([np.zeros((p.n_steps, 1), dtype=int), _kicked(p, t_calibration),
                             _kicked(p, t_estimate)]) for p in partitions]
        with pytest.raises(SolverError) as err:
            play_feedback_games(playing, partitions, tables)
        # the simulation grid has 8 steps, so the kick at t fails step 8 t
        assert err.value.step_index == 8 * min(t_calibration, t_estimate)
        with pytest.raises(SolverError) as coarse:
            play_feedback_games(playing, partitions[:1], tables[:1])
        assert coarse.value.step_index == (6 if t_calibration == 0.125 else 2)

    def test_feedback_run_raises_the_earliest_steps_error(self, monkeypatch):
        real = cli.play_feedback_games

        def kicked(strategy, partitions, tables):
            spec = _variant(strategy.spec, op=_capped(), q_points=(0.0, 1.0, 40.0))
            tables = [np.zeros_like(table) for table in tables]
            tables[0][6, 8] = 2  # the estimate's first lane, t = 0.75 on 8 steps: step 12
            tables[1][1, 0] = 2  # the calibration's first lane, t = 0.0625 on 16 steps: step 1
            return real(_playing(strategy, spec), partitions, tables)

        monkeypatch.setattr(cli, "play_feedback_games", kicked)
        with pytest.raises(SolverError) as err:
            cli._run_feedback(_short_config(budget=20), {})
        assert err.value.step_index == 1


# ---------------------------------------------------------------------------
# ties between candidate kinds
# ---------------------------------------------------------------------------

class TestCompanionTies:
    def test_trace_wins_its_ties_with_lattice_and_library(self):
        # no drift, and x0 = 0 is a rest point of A: the state stays on the
        # lattice point 0, and every library sample (a tube of radius 0) is the
        # constant path at 0; the trace, that lattice point and all 64 samples
        # tie exactly
        spec = constant_game(cost=1.0)
        grid = TimeGrid(0.0, 1.0, 8)
        table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,)))
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        partition = TimeGrid(0.0, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.0, Path.constant(grid, [0.0]),
                                           partition, value=table, library_size=64, seed=0)
        assert all(np.all(y.values == 0.0) for y in strategy.library)
        play, = play_feedback_games(strategy, [partition],
                                    [np.zeros((partition.n_steps, 2), dtype=int)])
        assert np.all(play.values == 0.0)
        _assert_lanes_match(spec, strategy, play, [constant_adversary(0)] * 2)
        assert np.all(play.kind == COMPANION_KINDS.index("trace"))

    def test_lattice_kind_wins_cells_on_the_bilinear_short_run(self, monkeypatch):
        # on the isaacs feedback configs the lattice companion never wins a
        # cell; on the bilinear game of the short run it wins 153 of 1,152 at
        # seed 0, so the kind is live and must stay
        cfg = _short_config(game={"kind": "bilinear"}, epsilon_fraction=1.0)
        real, kinds = cli.play_feedback_games, []

        def recording(strategy, partitions, tables):
            plays = real(strategy, partitions, tables)
            kinds.extend(play.kind.ravel() for play in plays)
            return plays

        monkeypatch.setattr(cli, "play_feedback_games", recording)
        cli._run_feedback(cfg, {})
        kinds = np.concatenate(kinds)
        assert len(kinds) == 1152
        assert np.count_nonzero(kinds == COMPANION_KINDS.index("lattice")) >= 1

    def test_earlier_kind_and_smaller_index_win(self):
        # epsilon 1/8 makes every probe offset a binary fraction, so a probe
        # state - o and a lattice point are the same double
        spec = isaacs_game(scale=0.5)
        grid = TimeGrid(0.0, 1.0, 8)
        lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
        table = dp_value(spec, grid, lattice)
        points = lattice.points()[:, 0]
        j, j_hi = 18, 23  # the points 0.25 and 0.875, rigged low
        v_plus = table.v_plus.copy()
        v_plus[:, [j, j_hi]] = -1e3
        v_plus[:, j + 1:j_hi] = 1e3  # high ground between them
        rigged = ValueTable(grid=grid, lattice=lattice, v_minus=table.v_minus, v_plus=v_plus)
        params = LyapunovParams(epsilon=0.125, lambda_L=spec.lambda_L, horizon=1.0)
        eps_sq = params.epsilon ** 2
        c, c_hi = points[j], points[j_hi]
        library = [Path.constant(grid, [v]) for v in (1.3, c, -0.7, c, c_hi, c_hi)]
        strategy = FeedbackStrategy(spec, params, rigged, 0.0, Path.constant(grid, [0.4]),
                                    library)
        assert c + eps_sq - eps_sq == c
        cases = [
            # probe 2 (offset +eps^2) reads c: it ties lattice c and library 1 and 3
            (4, c + eps_sq, ("probe", 2)),
            # no probes at t0: lattice c ties library 1 and 3
            (0, c + eps_sq, ("lattice", j)),
            # halfway between c and c_hi: lattice c ties lattice c_hi and library 1, 3, 4, 5
            (4, 0.5 * (c + c_hi), ("lattice", j)),
            (4, 1.1, None),
        ]
        for k, state, expect in cases:
            t = grid.nodes[k]
            X = np.full((k + 1, 3, 1), state)
            X[:, 1] = 0.4  # the other games of the batch change nothing
            X[:, 2] = state - 0.01
            totals, kinds, indices, gradients = strategy.companion_minima(t, X)
            assert (totals.dtype, kinds.dtype, indices.dtype, gradients.shape) == \
                (float, int, int, (3, 1))
            for g in range(3):
                x = Path(grid, np.concatenate([X[:, g], np.repeat(X[-1:, g], 8 - k, axis=0)]))
                want = companion_minimum_reference(strategy, t, x)
                assert (totals[g], COMPANION_KINDS[kinds[g]], indices[g]) == want[:3]
                assert gradients[g].tobytes() == np.asarray(want[3], dtype=float).tobytes()
            if expect is not None:
                assert (COMPANION_KINDS[kinds[0]], indices[0]) == expect


class TestCompanionMemory:
    @staticmethod
    def _peak(n_steps):
        """The tracemalloc peak of one companion_minima call over every node
        of an n_steps simulation grid: 100 games, 64 lattice points and 64
        library samples."""
        spec = isaacs_game(scale=0.5)
        table = dp_value(spec, TimeGrid(0.0, 1.0, 16),
                         StateLattice(lo=(-2.0,), hi=(2.0,), shape=(64,)))
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        sim = TimeGrid(0.0, 1.0, n_steps)
        rng = np.random.default_rng(0)
        library = [Path(sim, rng.uniform(-1.0, 1.0, (n_steps + 1, 1))) for _ in range(64)]
        strategy = FeedbackStrategy(spec, params, table, 0.0, Path.constant(sim, [0.0]), library)
        X = rng.uniform(-1.0, 1.0, (n_steps + 1, 100, 1))
        strategy.companion_minima(1.0, X)
        tracemalloc.start()
        try:
            strategy.companion_minima(1.0, X)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_transient_memory_does_not_grow_with_the_node_count(self):
        # the scan holds (game, candidate) arrays, never a node axis beside them
        assert self._peak(64) <= 1.2 * self._peak(16)


class TestCarriedScan:
    """Play's companion scan, carried from node to node, against the full
    rescan of every node at every call."""

    @staticmethod
    def _partitions():
        """A 16-step, a 4-step and an 8-step partition whose node 3 sits one
        ulp past 0.375: at t = 0.125 the 16- and 8-step lanes (the first and
        the third block) decide together, and at t = 0.375 the 16-step lanes
        and the nudged ones decide apart, at one simulation node."""
        nodes = np.linspace(0.0, 1.0, 9)
        nodes[3] = np.nextafter(0.375, 1.0)
        return [TimeGrid(0.0, 1.0, 16), TimeGrid(0.0, 1.0, 4), TimeGrid.from_nodes(nodes)]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_play_is_the_full_rescan(self, dim, monkeypatch):
        spec, table, _, _ = _desk(dim, 8)
        partitions = self._partitions()
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        x0 = [0.4] if dim == 1 else [0.3, -0.2]
        strategy = extremal_shift_strategy(spec, params, 0.0, Path.constant(table.grid, x0),
                                           partitions, value=table, library_size=8, seed=5)
        tables = [adversary_pool(spec.controls.n_q, 6, 1, p.n_steps)[1] for p in partitions]
        carried = play_feedback_games(strategy, partitions, tables)
        real, calls = FeedbackStrategy.companion_minima, []

        def rescan(self, t, X, carry):
            calls.append((t, carry[1].copy()))
            return real(self, t, X)

        monkeypatch.setattr(FeedbackStrategy, "companion_minima", rescan)
        rescanned = play_feedback_games(strategy, partitions, tables)
        for got, want in zip(carried, rescanned):
            _assert_plays_equal(got, want)
        times, covers = zip(*calls)
        assert times.count(0.375) == times.count(np.nextafter(0.375, 1.0)) == 1
        # a group whose lanes' carries cover different nodes: folded from the earliest
        assert any(len(set(covered.tolist())) > 1 for covered in covers)

    def test_a_resumed_scan_is_the_full_scan(self):
        _, _, strategy, _ = _desk(1, 8)
        nodes = strategy.x0.grid.nodes
        X = np.random.default_rng(3).uniform(-1.5, 1.5, (len(nodes), 5, 1))
        k, covered = 6, np.array([-1, 0, 3, 5, 2])
        sup_sq = np.zeros((5, strategy._paths.shape[1]))
        for g, c in enumerate(covered):  # each game's carry through its own node
            if c >= 0:
                strategy.companion_minima(nodes[c], X[: c + 1, g:g + 1],
                                          (sup_sq[g:g + 1], np.array([-1])))
        got = strategy.companion_minima(nodes[k], X[: k + 1], (sup_sq, covered))
        want = strategy.companion_minima(nodes[k], X[: k + 1])
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        full = np.zeros_like(sup_sq)
        strategy.companion_minima(nodes[k], X[: k + 1], (full, np.full(5, -1)))
        assert sup_sq.tobytes() == full.tobytes()


# ---------------------------------------------------------------------------
# error order: the lockstep rule of pdhj.evolution
# ---------------------------------------------------------------------------

def _kick(node, big=2):
    """The q column of an adversary playing q index `big` in cell `node` (of
    4), else 0; node None never kicks."""
    return np.array([big if i == node else 0 for i in range(4)])


def _playing(strategy, spec):
    """strategy with the game spec in place of its own: the same value,
    history, library and Lyapunov parameters."""
    return FeedbackStrategy(spec, strategy.params, strategy.value, strategy.t0, strategy.x0,
                            strategy.library)


def _isaacs_running(t, x, p, q):
    """The running cost of isaacs_game at its default weight 0.1."""
    return 0.1 * float(np.dot(x.value_at(t), x.value_at(t)))


def _variant(base, op=None, q_points=None, running_cost=_isaacs_running):
    """The Isaacs game base with its drift q (so each game's q moves its own
    state), and the given parts."""
    return callback_game(op=op or base.op, rhs=lambda t, x, u: np.array([float(u[1])]),
                         running_cost=running_cost,
                         terminal_cost=lambda x: float(np.dot(x.values[-1], x.values[-1])),
                         controls=ControlGrid(p_points=base.controls.p_points,
                                              q_points=q_points or base.controls.q_points),
                         l_f=100.0, lambda_L=base.lambda_L)


class TestPoolErrors:
    """The earliest error of the pool: a game that fails at an earlier node
    raises before a lower game that fails later."""

    partition = TimeGrid(0.0, 1.0, 4)

    def _error(self, spec, strategy, *columns):
        with pytest.raises(Exception) as info:
            play_feedback_games(_playing(strategy, spec), [self.partition],
                                [np.stack(columns, axis=1)])
        return info.value

    def _strategy(self):
        spec, table, strategy, _ = _desk(1, 8)
        return spec, strategy

    def test_solver_error_of_the_lower_game(self):
        base, strategy = self._strategy()
        op = OperatorSpec(space=StateSpace(dim=1), c1=1.0, c2=1.0,
                          eval_fn=lambda t, v: np.where(np.abs(v) > 1.0, np.nan, v))
        spec = _variant(base, op=op, q_points=(0.0, 1.0, 40.0))
        # game 1 fails at node 3 (step 6), game 2 earlier, at node 1 (step 2)
        err = self._error(spec, strategy, _kick(None), _kick(3), _kick(1), _kick(None))
        assert type(err) is SolverError
        assert str(err) == "bisection failed to converge at step 2" and err.step_index == 2

    def test_callback_evaluation_error_of_the_lower_game(self):
        base, strategy = self._strategy()

        def running(t, x, p, q):
            return np.inf if x.value_at(t)[0] > 0.8 else 0.1

        spec = _variant(base, q_points=(0.0, 1.5, 3.0), running_cost=running)
        # game 1 (q = 1.5) crosses 0.8 later than game 2 (q = 3), which is past
        # it at t = 0.25; the strategy's full-grid control pick at that node
        # raises at game 2's first pair
        err = self._error(spec, strategy, *np.full((3, 4), [[0], [1], [2]]))
        assert type(err) is EvaluationError
        assert str(err) == "non-finite running cost at t=0.25, p=-1.0, q=0.0"

    def test_adversary_error_of_the_lower_game(self):
        base, strategy = self._strategy()

        def running(t, x, p, q):
            return np.inf if x.value_at(t)[0] > 0.8 else 0.1

        spec = _variant(base, q_points=(0.0, 1.5, 8.0), running_cost=running)
        # the kick of game 2's adversary in cell 1 takes its state past 0.8 one
        # step later, before game 1's kick in cell 3: the played pair's cost
        err = self._error(spec, strategy, _kick(None), _kick(3), _kick(1))
        assert type(err) is EvaluationError
        assert str(err) == "non-finite running cost at t=0.375, p=-1.0, q=8.0"

    def test_coverage_error_names_the_lower_games_margin(self):
        base, strategy = self._strategy()
        spec = _variant(base, q_points=(0.0, 4.0, 8.0))
        # game 1 leaves [-2, 2] later and by less than game 2; the companion
        # read after game 2 leaves reports game 2's margin
        err = self._error(spec, strategy, *np.full((3, 4), [[0], [1], [2]]))
        assert type(err) is LatticeCoverageError
        assert str(err) == ("state leaves the lattice by 1.255357e+00; "
                            "expand bounds by at least that margin")
        assert err.margin == 1.2553574150281963
        with pytest.raises(LatticeCoverageError) as alone:
            run_feedback_game_reference(spec, strategy, constant_adversary(2), self.partition)
        assert alone.value.margin == err.margin

    def _growth_bound_game(self):
        """isaacs_game with l_f = 0.1, whose drift breaks the growth bound,
        aiming by the table of isaacs_game (the DP refuses the broken game)."""
        spec = dataclasses.replace(isaacs_game(), l_f=0.1)
        grid = TimeGrid(0.0, 1.0, 8)
        table = dp_value(isaacs_game(), grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,)))
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        return spec, extremal_shift_strategy(spec, params, 0.0, Path.constant(grid, [0.4]),
                                             self.partition, value=table, library_size=16,
                                             seed=5)

    def test_drift_above_the_growth_bound_is_refused(self):
        # play steps on the one lane loop of pdhj.evolution, which refuses a
        # drift above l_f (1 + sup-norm of the stopped path): here |f| = 1
        # against 0.1 (1 + 0.4) at the first step (the pool's greedy lanes,
        # which check the same bound with the same message, meet it first)
        _, strategy = self._growth_bound_game()
        _, q = adversary_pool(3, 6, 1, 4)
        with pytest.raises(ContractError) as err:
            play_feedback_games(strategy, [self.partition], [q])
        assert str(err.value) == ("forcing magnitude 1.000000e+00 exceeds L(1+sup) = "
                                  "1.400000e-01 at step 0")

    def test_reference_play_refuses_the_same_drift(self):
        spec, strategy = self._growth_bound_game()
        with pytest.raises(ContractError) as lanes:
            play_feedback_games(strategy, [self.partition],
                                [np.zeros((self.partition.n_steps, 1), dtype=int)])
        with pytest.raises(ContractError) as alone:
            run_feedback_game_reference(spec, strategy, constant_adversary(0), self.partition)
        assert str(alone.value) == str(lanes.value)
        assert str(lanes.value).startswith("forcing magnitude 1.000000e+00 exceeds")

    def test_greedy_lookahead_checks_the_growth_bound(self):
        # the drift is q: q = -3 breaks l_f (1 + sup) = 1.4 at the first node,
        # and only the greedy lane scores it, never picking it (its successor
        # scores below q = 0.5's); the played pairs keep the bound
        base, strategy = self._strategy()
        table = strategy.value
        loose = _variant(base, q_points=(0.0, 0.5, -3.0))
        q = np.stack([_kick(None), np.full(4, GREEDY)], axis=1)
        play, = play_feedback_games(_playing(strategy, loose), [self.partition], [q])
        assert 2 not in play.q.tolist()
        spec = dataclasses.replace(loose, l_f=1.0)
        with pytest.raises(ContractError) as lanes:
            play_feedback_games(_playing(strategy, spec), [self.partition], [q])
        assert str(lanes.value) == ("forcing magnitude 3.000000e+00 exceeds L(1+sup) = "
                                    "1.400000e+00 at step 0")
        with pytest.raises(ContractError) as alone:
            run_feedback_game_reference(spec, _playing(strategy, spec),
                                        greedy_reference(spec, table), self.partition)
        assert str(alone.value) == str(lanes.value)


# ---------------------------------------------------------------------------
# the greedy lookahead as one batched step
# ---------------------------------------------------------------------------

def _greedy_one(spec, table, t, x, p_index):
    """greedy_lookahead for the one game whose path is x, at its node t."""
    picks = greedy_lookahead(spec, table, t, x.grid.node_index(t), x.value_at(t)[None],
                             lambda _: x, np.array([p_index]),
                             [spec.l_f * (1.0 + sup_norm(x, t))])
    assert picks.shape == (1,)
    return int(picks[0])


class TestGreedyBatch:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_per_q_loop(self, dim):
        spec, table, strategy, _ = _desk(dim, 0)
        rng = np.random.default_rng(dim)
        sim = strategy.x0.grid
        want = greedy_reference(spec, table)
        for _ in range(40):
            x = Path(sim, 0.4 * rng.standard_normal((sim.n_steps + 1, dim)))
            t = float(sim.nodes[rng.integers(sim.n_steps + 1)])
            for p in range(spec.controls.n_p):
                assert _greedy_one(spec, table, t, x, p) == want(t, lambda: x, p)

    def test_ties_keep_the_first_q(self):
        spec = constant_game()
        grid = TimeGrid(0.0, 1.0, 4)
        table = dp_value(spec, grid, StateLattice(lo=(-1.0,), hi=(1.0,), shape=(5,)))
        spec = constant_game(controls=ControlGrid(p_points=(0.0,), q_points=(0.0, 0.0, 0.0)))
        x = Path.constant(grid, [0.3])
        assert _greedy_one(spec, table, 0.25, x, 0) == 0

    @pytest.mark.parametrize("slope, pick", [(8e-16, 0), (1e-14, 2)])
    def test_scores_within_1e_15_tie(self, slope, pick):
        # no drift, so every q reaches the same successor and the scores
        # differ by dt * cost alone (dt = 0.25): 0, slope / 2 and slope
        base = constant_game()
        grid = TimeGrid(0.0, 1.0, 4)
        table = dp_value(base, grid, StateLattice(lo=(-1.0,), hi=(1.0,), shape=(5,)))
        spec = callback_game(op=base.op, rhs=lambda t, x, u: np.zeros(1),
                             running_cost=lambda t, x, p, q: 4 * slope * q,
                             terminal_cost=lambda x: 0.0,
                             controls=ControlGrid(p_points=(0.0,), q_points=(0.0, 0.5, 1.0)),
                             l_f=1.0, lambda_L=0.1)
        xs = [Path.constant(grid, [v]) for v in (0.3, -0.2)]
        assert _greedy_one(spec, table, 0.25, xs[0], 0) == pick
        # two games in one batch pick as each does alone
        picks = greedy_lookahead(spec, table, 0.25, 1, np.array([[0.3], [-0.2]]),
                                 lambda n: xs[n], np.array([0, 0]),
                                 [spec.l_f * (1.0 + sup_norm(x, 0.25)) for x in xs])
        assert picks.tolist() == [pick, pick]

    def _error(self, spec, table, t=0.25, state=0.1):
        # the table's grid has mesh 0.125, the lookahead step
        x = Path.constant(table.grid, [state])
        with pytest.raises(Exception) as info:
            _greedy_one(spec, table, t, x, 0)
        return info.value

    def test_cost_of_an_earlier_q_before_a_later_drift(self):
        _, table, _, _ = _desk(1, 0)

        def rhs(t, x, u):
            return np.array([np.nan if u[1] == 1.0 else 0.1 * u[1]])

        def running(t, x, p, q):
            return np.inf if q == 0.0 else 0.0

        spec = callback_game(op=make_linear_operator(), rhs=rhs,
                             running_cost=running, terminal_cost=lambda x: 0.0,
                             controls=ControlGrid(p_points=(0.0,), q_points=(-1.0, 0.0, 1.0)),
                             l_f=1.0, lambda_L=1.0)
        # one sweep of the committed row, the drift before the cost of each q:
        # q = 0's cost, not q = 1's drift
        err = self._error(spec, table)
        assert type(err) is EvaluationError
        assert str(err) == "non-finite running cost at t=0.25, p=0.0, q=0.0"

    def test_coverage_margin_of_the_first_q_off_the_lattice(self):
        _, table, _, _ = _desk(1, 0)
        spec = callback_game(op=make_linear_operator(), rhs=lambda t, x, u: np.array([float(u[1])]),
                             running_cost=lambda t, x, p, q: 0.0, terminal_cost=lambda x: 0.0,
                             controls=ControlGrid(p_points=(0.0,), q_points=(0.0, 30.0, 60.0)),
                             l_f=100.0, lambda_L=1.0)
        # one read of all successors: the largest margin, q = 60's (q = 30's is 1.42)
        err = self._error(spec, table)
        assert type(err) is LatticeCoverageError
        assert str(err) == ("state leaves the lattice by 4.755556e+00; "
                            "expand bounds by at least that margin")
        assert err.margin == 4.7555555555555555


# ---------------------------------------------------------------------------
# a faulty operator fails every lockstep loop as it fails the DP
# ---------------------------------------------------------------------------

def test_wrong_shape_operator_raises_like_dp_value():
    broken = OperatorSpec(space=StateSpace(dim=1), eval_fn=lambda t, V: V[..., :0],
                          c1=1.0, c2=1.0)
    base, _, strategy, partitions = _desk(1, 0)
    spec = _variant(base, op=broken)
    grid = TimeGrid(0.0, 1.0, 8)
    hist = Path.constant(grid, [0.5])
    cases = [
        # the DP steps every slice's cells at once: 8 slices of 297
        (lambda: dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))), 2376),
        (lambda: solve_delay_evolution(broken, 0.0, hist, lipschitz_L=1.0), 1),
        (lambda: sample_reachable_set(broken, 0.0, hist, 4, 0, lipschitz_L=1.0), 4),
        (lambda: play_feedback_games(_playing(strategy, spec), partitions[:1],
                                     [np.tile([0, 1], (partitions[0].n_steps, 1))]), 2),
    ]
    for call, rows in cases:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == f"operator returned shape ({rows}, 0), expected ({rows}, 1)"
