"""The adversary pool played as lanes, against the game-by-game loop it replaced."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from pdhj import cli, evolution, game
from pdhj.errors import DomainError, EvaluationError, LatticeCoverageError, SolverError
from pdhj.evolution import (
    DelayDynamics,
    OperatorSpec,
    make_linear_operator,
    sample_reachable_set,
    solve_delay_evolution,
)
from pdhj.game import (
    COMPANION_KINDS,
    COVERAGE_TOL,
    STEP_SOLVE_TOL,
    ControlGrid,
    FeedbackPlay,
    FeedbackStrategy,
    GameSpec,
    GuaranteeEstimate,
    StateLattice,
    ValueTable,
    adversary_pool,
    constant_adversary,
    constant_game,
    dp_value,
    extremal_shift_strategy,
    greedy_adversary,
    isaacs_game,
    lyapunov_violation_stats,
    play_feedback_games,
    random_adversary,
    step_rate_bound,
)
from pdhj.pathcore import Path, StateSpace, TimeGrid, stopped_at
from pdhj.upsilon import LyapunovParams, surrogate_terms
from scalar_reference import _implicit_step, calibrate_step_bound, drift, estimate_guaranteed_result, \
    stage_cost


# ---------------------------------------------------------------------------
# references: the one-game loops, kept verbatim
# ---------------------------------------------------------------------------

def _probe_candidates_reference(strategy, t, state):
    """The one-state probe read: (kept indices, offsets, values)."""
    offsets = strategy._probe_offsets(t, len(state))
    probes = state - offsets
    kept = np.flatnonzero(strategy.value.lattice.coverage_margins(probes) <= COVERAGE_TOL)
    u_vals = strategy.value.interp_batch("upper", t, probes[kept]) if kept.size \
        else np.empty(0)
    return kept.tolist(), offsets[kept], u_vals


def _companion_minimum_reference(strategy, t, x):
    """The one-game companion minimum that companion_minima replaced."""
    k = x.grid.node_index(t)
    X = x.values[: k + 1]
    alpha = strategy.params.alpha(t)
    eps4 = strategy.params.epsilon ** 4
    trace_state = X[-1]
    best = (float(strategy.value.interp("upper", t, trace_state) + alpha * np.sqrt(eps4)),
            "trace", 0, np.zeros(x.dim))

    def consider(kind, indices, diffs, u_vals):
        nonlocal best
        sq = np.sum(diffs ** 2, axis=2)
        ups, factor = surrogate_terms(sq.max(axis=0), sq[-1])
        beta = np.sqrt(eps4 + ups)
        total = u_vals + alpha * beta
        i = int(np.argmin(total))
        if total[i] < best[0]:
            best = (float(total[i]), kind, indices[i],
                    (alpha / (2.0 * beta[i])) * factor[i] * diffs[-1, i])

    kept, offsets, u_vals = _probe_candidates_reference(strategy, t, trace_state)
    if kept:
        consider("probe", kept, offsets[None, :, :], u_vals)
    points = strategy._lattice_points
    consider("lattice", range(len(points)), X[:, None, :] - points[None, :, :],
             strategy.value.interp_batch("upper", t, points))
    if strategy._library_values is not None:
        lib = strategy._library_values[: k + 1]
        consider("library", range(lib.shape[1]), X[:, None, :] - lib,
                 strategy.value.interp_batch("upper", t, lib[-1]))
    return best


def _run_feedback_game_reference(spec, strategy, adversary, partition):
    """The one-game loop with its own scalar step loop that play_feedback_games
    replaced, its per-step records stacked into a one-game FeedbackPlay."""
    inner = strategy.x0.grid
    nodes = inner.nodes
    values = strategy.x0.values.copy()
    part_nodes = partition.nodes
    p_indices, q_indices, records = [], [], []
    running = 0.0
    x_now = stopped_at(inner, values, inner.node_index(part_nodes[0]))
    companion = _companion_minimum_reference(strategy, part_nodes[0], x_now)
    for i in range(partition.n_steps):
        t_i, t_i1 = part_nodes[i], part_nodes[i + 1]
        ka, kb = inner.node_index(t_i), inner.node_index(t_i1)
        p_idx = int(np.argmin(spec.stage_matrix(t_i, x_now, companion[3]).max(axis=1)))
        q_idx = int(adversary(t_i, lambda: x_now, p_idx))
        p = spec.controls.p_points[p_idx]
        q = spec.controls.q_points[q_idx]
        step_cost = 0.0
        for k in range(ka, kb):
            dt = nodes[k + 1] - nodes[k]
            x_stop = stopped_at(inner, values, k)
            f = drift(spec, nodes[k], x_stop, p, q)
            step_cost += dt * stage_cost(spec, nodes[k], x_stop, p, q)
            target = values[k] + dt * f
            tol = STEP_SOLVE_TOL * (1.0 + float(np.linalg.norm(values[k])))
            values[k + 1], _, _ = _implicit_step(spec.dyn.op, nodes[k + 1], dt,
                                                 target, values[k], tol, k)
        running += step_cost
        x_next = stopped_at(inner, values, kb)
        after = _companion_minimum_reference(strategy, t_i1, x_next)
        records.append({
            "t": float(t_i),
            "dt": float(t_i1 - t_i),
            "step_cost": step_cost,
            "u_shifted_before": companion[0],
            "u_shifted_after": after[0],
            "residual": step_cost + after[0] - companion[0],
            "companion_kind": companion[1],
            "companion_index": companion[2],
        })
        x_now, companion = x_next, after
        p_indices.append(p_idx)
        q_indices.append(q_idx)
    final_path = Path(inner, values)

    def column(key):
        return np.array([rec[key] for rec in records])[:, None]

    return FeedbackPlay(partition=partition, p=np.array(p_indices)[:, None],
                        q=np.array(q_indices)[:, None], step_cost=column("step_cost"),
                        u_before=column("u_shifted_before"), u_after=column("u_shifted_after"),
                        kind=np.array([COMPANION_KINDS.index(rec["companion_kind"])
                                       for rec in records])[:, None],
                        index=column("companion_index"), values=values[:, None, :],
                        running=np.array([running]),
                        terminal=np.array([spec.final_cost(final_path)]))


def _greedy_reference(spec, value):
    """The per-q lookahead loop that the batched greedy adversary replaced."""

    def policy(t, x, p_index):
        p = spec.controls.p_points[p_index]
        dt = min(value.grid.mesh, value.grid.t_end - t)
        state = x.value_at(t)
        k = x.grid.node_index(t)
        best_j, best_val = 0, -np.inf
        for j, q in enumerate(spec.controls.q_points):
            f = drift(spec, t, x, p, q)
            target = state + dt * f
            tol = STEP_SOLVE_TOL * (1.0 + float(np.linalg.norm(state)))
            succ, _, _ = _implicit_step(spec.dyn.op, t + dt, dt, target, state, tol, k)
            val = dt * stage_cost(spec, t, x, p, q) + value.interp("upper", t + dt, succ)
            if val > best_val + 1e-15:
                best_j, best_val = j, val
        return best_j
    return policy


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


def _planar_game():
    op = make_linear_operator(dim=2, gain=1.0)
    dyn = DelayDynamics(op=op, rhs=lambda t, x, u: 0.4 * np.array([float(u[0]), float(u[1])]),
                        lipschitz_L=0.8)
    return GameSpec(
        dyn=dyn,
        running_cost=lambda t, x, p, q: 0.05 * float(np.dot(x.value_at(t), x.value_at(t))),
        terminal_cost=lambda x: float(np.dot(x.values[-1], x.values[-1])),
        controls=ControlGrid(p_points=(-1.0, 1.0), q_points=(-1.0, 1.0)),
        l_f=0.8, lambda_L=0.3, name="planar")


def _desk(dim, library_size):
    if dim == 1:
        spec, x0 = isaacs_game(scale=0.5), [0.4]
        lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))
    else:
        spec, x0 = _planar_game(), [0.3, -0.2]
        lattice = StateLattice(lo=(-1.5, -1.5), hi=(1.5, 1.5), shape=(9, 9))
    grid = TimeGrid(0.0, 1.0, 8)
    table = dp_value(spec, grid, lattice)
    params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
    partitions = [TimeGrid(0.0, 1.0, 4), TimeGrid(0.0, 1.0, 8)]
    strategy = extremal_shift_strategy(spec, params, 0.0, Path.constant(grid, x0),
                                       partitions[0], value=table,
                                       library_size=library_size, seed=5)
    return spec, table, strategy, partitions


# ---------------------------------------------------------------------------
# equality with the game-by-game loop
# ---------------------------------------------------------------------------

class TestPoolMatchesGameByGame:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("library_size", [0, 64])
    def test_every_adversary_kind(self, dim, library_size):
        spec, table, strategy, partitions = _desk(dim, library_size)
        # constants, the greedy lookahead, then random adversaries; one pool for
        # both partitions, so the random generators carry their state across
        lanes = adversary_pool(spec, table, spec.controls.n_q + 4, seed=17)
        ref = adversary_pool(spec, table, spec.controls.n_q + 4, seed=17)
        kinds = set()
        for partition in partitions:
            play = play_feedback_games(spec, strategy, lanes, partition)
            assert play.p.shape == (partition.n_steps, len(lanes))
            for g, adv in enumerate(ref):
                _assert_game_equal(play, g,
                                   _run_feedback_game_reference(spec, strategy, adv, partition))
            kinds.update(play.kind.ravel().tolist())
        assert len(kinds) > 1  # the games' minima come from several kinds

    def test_random_generators_carry_across_partitions(self):
        spec, table, strategy, partitions = _desk(1, 8)
        n_q = spec.controls.n_q
        lanes = [random_adversary(s, n_q) for s in (3, 4, 5)]
        ref = [random_adversary(s, n_q) for s in (3, 4, 5)]
        first = [play_feedback_games(spec, strategy, lanes, p) for p in partitions]
        for partition, play in zip(partitions, first):
            for g, adv in enumerate(ref):
                _assert_game_equal(play, g, _run_feedback_game_reference(spec, strategy, adv,
                                                                         partition))
        # a fresh pool replays the first partition's choices, the carried one does not
        fresh = play_feedback_games(spec, strategy,
                                    [random_adversary(s, n_q) for s in (3, 4, 5)],
                                    partitions[1])
        assert not np.array_equal(fresh.q, first[1].q)

    def test_pool_of_one_is_the_one_game_case(self):
        spec, table, strategy, partitions = _desk(1, 16)
        adv = greedy_adversary(spec, table)
        for partition in partitions:
            _assert_plays_equal(play_feedback_games(spec, strategy, [adv], partition),
                                _run_feedback_game_reference(spec, strategy, adv, partition))

    def test_mid_horizon_start(self):
        spec = isaacs_game(scale=0.5)
        grid = TimeGrid(0.0, 1.0, 8)
        table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,)))
        params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
        x0 = Path(grid, 0.3 * np.sin(np.arange(9.0))[:, None])
        partition = TimeGrid(0.5, 1.0, 4)
        strategy = extremal_shift_strategy(spec, params, 0.5, x0, partition, value=table,
                                           library_size=8, seed=1)
        pool = adversary_pool(spec, table, 6, seed=2)
        ref = adversary_pool(spec, table, 6, seed=2)
        play = play_feedback_games(spec, strategy, pool, partition)
        for g, adv in enumerate(ref):
            _assert_game_equal(play, g, _run_feedback_game_reference(spec, strategy, adv,
                                                                     partition))

    def test_no_scalar_step_on_the_normal_path(self, monkeypatch):
        spec, table, strategy, partitions = _desk(1, 8)
        calls = []
        fallback = evolution._fallback_step

        def counted(*args):
            calls.append(args[-2])
            return fallback(*args)

        monkeypatch.setattr(evolution, "_fallback_step", counted)
        play_feedback_games(spec, strategy, adversary_pool(spec, table, 6, seed=1),
                            partitions[1])
        assert calls == []

    def test_empty_pool(self):
        spec, table, strategy, partitions = _desk(1, 0)
        play = play_feedback_games(spec, strategy, [], partitions[0])
        assert play.p.shape == play.residual.shape == (partitions[0].n_steps, 0)
        assert play.values.shape == (len(strategy.x0.grid.nodes), 0, 1)
        assert play.payoff.shape == (0,)


def _isaacs_desk(markov, grid_steps=8, partition_steps=(4, 8)):
    """The Isaacs game with or without its Markov form, its table, and a
    strategy for the partitions."""
    spec = isaacs_game(scale=0.5)
    if not markov:
        spec = dataclasses.replace(spec, markov_terms=None)
    grid = TimeGrid(0.0, 1.0, grid_steps)
    table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,)))
    params = LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0)
    partitions = [TimeGrid(0.0, 1.0, n) for n in partition_steps]
    x0 = Path.constant(grid, [0.4])
    strategy = extremal_shift_strategy(spec, params, 0.0, x0, partitions, value=table,
                                       library_size=16, seed=5)
    return spec, table, strategy, partitions, x0


def _greedy_reference_lane(spec, value):
    """_greedy_reference as a lane policy (t, path_of, p_index)."""
    policy = _greedy_reference(spec, value)
    return lambda t, path_of, p_index: policy(t, path_of(), p_index)


class TestGreedyLanes:
    @pytest.mark.parametrize("markov", [True, False])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_groups_match_the_per_q_loop_off_node(self, markov, explicit, monkeypatch):
        # on a 15-step grid the 5-step partition's node 0.6000000000000001
        # is a hair past the simulation grid's node 0.6; an explicit
        # partition puts every inner node up to 7e-13 past the grid's
        if explicit:
            spec, table, _, _, x0 = _isaacs_desk(markov)
            partition = TimeGrid.from_nodes([0.0, 0.25 + 5e-13, 0.5 + 3e-13, 0.75 + 7e-13, 1.0])
            strategy = extremal_shift_strategy(
                spec, LyapunovParams.at_epsilon0(lambda_L=spec.lambda_L, horizon=1.0), 0.0, x0,
                partition, value=table, library_size=16, seed=5)
        else:
            spec, table, strategy, (partition,), _ = _isaacs_desk(markov, 15, (5,))
        off = [t for t in partition.nodes if t not in strategy.x0.grid.nodes]
        assert len(off) == (3 if explicit else 1)
        n_q = spec.controls.n_q
        # a maximizer of -u picks other q's than one of u
        flipped = ValueTable(grid=table.grid, lattice=table.lattice, v_minus=None,
                             v_plus=-table.v_plus)
        # two equal greedy adversaries answer as one batch, each other one alone
        pool = [constant_adversary(2), greedy_adversary(spec, table),
                greedy_adversary(spec, flipped), random_adversary(4, n_q),
                greedy_adversary(spec, table)]
        assert pool[1] == pool[4] and pool[1] != pool[2]
        ref = [constant_adversary(2), _greedy_reference_lane(spec, table),
               _greedy_reference_lane(spec, flipped), random_adversary(4, n_q),
               _greedy_reference_lane(spec, table)]
        # each batch reads the x(t) of the stopped path its lanes read alone
        answers, batches = game._GreedyLookahead.answers, []

        def spy(self, t, k, states, path_of, p_indices):
            for n, state in enumerate(states):
                assert state.tobytes() == path_of(n).value_at(t).tobytes()
            batches.append(len(states))
            return answers(self, t, k, states, path_of, p_indices)

        monkeypatch.setattr(game._GreedyLookahead, "answers", spy)
        play = play_feedback_games(spec, strategy, pool, partition)
        assert batches == [2, 1] * partition.n_steps
        for g, adv in enumerate(ref):
            _assert_game_equal(play, g, _run_feedback_game_reference(spec, strategy, adv,
                                                                     partition))
        assert not np.array_equal(play.q[:, 2], play.q[:, 1])

    @pytest.mark.parametrize("markov", [True, False])
    def test_stopped_paths_built_only_when_read(self, markov, monkeypatch):
        spec, table, strategy, partitions, _ = _isaacs_desk(markov)
        built = []

        def counted(grid, values, k):
            built.append(k)
            return stopped_at(grid, values, k)

        monkeypatch.setattr(game, "stopped_at", counted)
        pool = adversary_pool(spec, table, 6, seed=1)  # constants, greedy, random
        play_feedback_games(spec, strategy, pool, partitions[0])
        # a Markov game reads none; a path-dependent one each lane's path once
        # per partition node (controls and greedy share it) and once per step
        assert len(built) == (0 if markov else len(pool) * (4 + 8))


# ---------------------------------------------------------------------------
# the feedback run's pools as one lane set per partition
# ---------------------------------------------------------------------------

def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True).encode()


def _random_states(pools):
    return [adv.generator.bit_generator.state for pool in pools for adv in pool
            if hasattr(adv, "generator")]


class TestPoolsAsOneLaneSet:
    """cli._run_feedback's calibration, estimate and replay pools as one lane
    set per partition, sliced by pool, against the pools played in separate
    calls."""

    @pytest.mark.parametrize("markov", [True, False])
    def test_matches_separate_passes(self, markov):
        spec, table, strategy, partitions, x0 = _isaacs_desk(markov)
        calibration_budget, budget, seed = 6, 9, 3

        def pools():
            return (adversary_pool(spec, table, calibration_budget, seed + 1),
                    adversary_pool(spec, table, budget, seed + 2),
                    [adversary_pool(spec, table, min(budget, 16), seed + 2) for _ in partitions])

        # one lane set per partition, as cli._run_feedback plays them
        calibration, pool, replays = pools()
        played = [play_feedback_games(spec, strategy, calibration + pool + replay, part)
                  for part, replay in zip(partitions, replays)]
        pool_lanes = [slice(0, calibration_budget), slice(calibration_budget,
                                                          calibration_budget + budget),
                      slice(calibration_budget + budget, None)]
        # each pool in its own calls: calibration, then estimate, then replays
        calibration_ref, pool_ref, replays_ref = pools()
        separate = [[play_feedback_games(spec, strategy, calibration_ref, p) for p in partitions],
                    [play_feedback_games(spec, strategy, pool_ref, p) for p in partitions],
                    [play_feedback_games(spec, strategy, r, p)
                     for r, p in zip(replays_ref, partitions)]]
        for i in range(len(partitions)):
            for j in range(3):
                _assert_plays_equal(played[i].lanes(pool_lanes[j]), separate[j][i])
        # the first partition's replays repeat the estimate's first lanes
        _assert_plays_equal(played[0].lanes(pool_lanes[2]),
                            played[0].lanes(slice(calibration_budget,
                                                  calibration_budget + len(replays[0]))))

        m_hat = step_rate_bound([play.lanes(pool_lanes[0]) for play in played])
        assert m_hat == step_rate_bound(separate[0])
        assert m_hat == calibrate_step_bound(spec, strategy, partitions, calibration_budget,
                                             seed + 1)
        est = GuaranteeEstimate.from_payoffs(pool, partitions,
                                             [play.payoff[pool_lanes[1]] for play in played],
                                             budget, seed + 2)
        want = estimate_guaranteed_result(spec, strategy, 0.0, x0, budget, partitions,
                                          seed=seed + 2)
        assert _json_bytes(est.to_json_obj()) == _json_bytes(want.to_json_obj())
        assert lyapunov_violation_stats([play.lanes(pool_lanes[2]) for play in played], m_hat) \
            == lyapunov_violation_stats(separate[2], m_hat)
        states = _random_states([calibration, pool] + replays)
        assert len(states) == 2 + 5 + 2 * 5
        assert states == _random_states([calibration_ref, pool_ref] + replays_ref)


def _raise_at_time(t_fail, name):
    def policy(t, path_of, p_index):
        if abs(t - t_fail) < 1e-12:
            raise RuntimeError(name)
        return 0
    return policy


class TestPoolErrorOrder:
    """With one lane set per partition a partition's error wins whichever
    pool it is on; played pool by pool, every calibration error came first."""

    @pytest.mark.parametrize("t_calibration, t_estimate", [
        (0.125, 0.75),  # calibration fails on the finer partition only
        (0.75, 0.25),   # both fail on the coarser one, the estimate earlier
    ])
    def test_the_earlier_error_of_the_lane_set(self, t_calibration, t_estimate):
        spec, _, strategy, partitions, _ = _isaacs_desk(True)
        calibration = [constant_adversary(0), _raise_at_time(t_calibration, "calibration")]
        estimate = [_raise_at_time(t_estimate, "estimate"), constant_adversary(1)]
        with pytest.raises(RuntimeError, match="^calibration$"):
            for pool in (calibration, estimate):
                for part in partitions:
                    play_feedback_games(spec, strategy, pool, part)
        with pytest.raises(RuntimeError, match="^estimate$"):
            for part in partitions:
                play_feedback_games(spec, strategy, calibration + estimate, part)

    def test_feedback_run_raises_the_coarser_partitions_error(self, monkeypatch):
        path = pathlib.Path(__file__).parents[1] / "bench" / "configs" / "feedback_short.json"
        cfg = cli.validate_config({**json.loads(path.read_text()), "seed": 0, "budget": 20})
        real = cli.adversary_pool

        def with_raiser(spec, value, budget, seed):
            pool = real(spec, value, budget, seed)
            if (budget, seed) == (cfg["calibration_budget"], 1):
                pool.append(_raise_at_time(0.0625, "calibration"))  # a 16-step node only
            elif (budget, seed) == (20, 2):
                pool.append(_raise_at_time(0.75, "estimate"))
            return pool

        monkeypatch.setattr(cli, "adversary_pool", with_raiser)
        with pytest.raises(RuntimeError, match="^estimate$"):
            cli._run_feedback(cfg, {})


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
        assert np.all(strategy._library_values == 0.0)
        pool = [constant_adversary(0), constant_adversary(0)]
        play = play_feedback_games(spec, strategy, pool, partition)
        assert np.all(play.values == 0.0)
        for g, adv in enumerate(pool):
            _assert_game_equal(play, g, _run_feedback_game_reference(spec, strategy, adv,
                                                                     partition))
        assert np.all(play.kind == COMPANION_KINDS.index("trace"))

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
        rigged = ValueTable(grid=grid, lattice=lattice, v_minus=None, v_plus=v_plus)
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
                want = _companion_minimum_reference(strategy, t, x)
                assert (totals[g], COMPANION_KINDS[kinds[g]], indices[g]) == want[:3]
                assert gradients[g].tobytes() == np.asarray(want[3], dtype=float).tobytes()
            if expect is not None:
                assert (COMPANION_KINDS[kinds[0]], indices[0]) == expect


# ---------------------------------------------------------------------------
# error order: the lockstep rule of pdhj.evolution
# ---------------------------------------------------------------------------

def _kick(node, big=2):
    """An adversary playing q index `big` at partition node `node` (of 4), else 0."""
    def policy(t, path_of, p_index):
        return big if int(round(t * 4)) == node else 0
    return policy


def _raise_at(node):
    def policy(t, path_of, p_index):
        if int(round(t * 4)) >= node:
            raise RuntimeError(f"adversary failed at node {node}")
        return 0
    return policy


def _variant(base, op=None, q_points=None, running_cost=None):
    """base with its drift q (so each game's q moves its own state), and the given parts."""
    dyn = DelayDynamics(op=op or base.dyn.op, rhs=lambda t, x, u: np.array([float(u[1])]),
                        lipschitz_L=100.0)
    return GameSpec(dyn=dyn, running_cost=running_cost or base.running_cost,
                    terminal_cost=base.terminal_cost,
                    controls=ControlGrid(p_points=base.controls.p_points,
                                         q_points=q_points or base.controls.q_points),
                    l_f=100.0, lambda_L=base.lambda_L)


class TestPoolErrors:
    """The earliest error of the pool: a game that fails at an earlier node
    raises before a lower game that fails later."""

    partition = TimeGrid(0.0, 1.0, 4)

    def _error(self, spec, strategy, pool):
        with pytest.raises(Exception) as info:
            play_feedback_games(spec, strategy, pool, self.partition)
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
        err = self._error(spec, strategy,
                          [constant_adversary(0), _kick(3), _kick(1), constant_adversary(0)])
        assert type(err) is SolverError
        assert str(err) == "bisection failed to converge at step 2" and err.step_index == 2

    def test_callback_evaluation_error_of_the_lower_game(self):
        base, strategy = self._strategy()

        def running(t, x, p, q):
            return np.inf if x.value_at(t)[0] > 0.8 else 0.1

        spec = _variant(base, q_points=(0.0, 1.5, 3.0), running_cost=running)
        # game 1 (q = 1.5) crosses 0.8 later than game 2 (q = 3)
        err = self._error(spec, strategy, [constant_adversary(j) for j in (0, 1, 2)])
        assert type(err) is EvaluationError
        assert str(err) == "non-finite running cost at t=0.25, p=-1.0, q=3.0"

    def test_adversary_error_of_the_lower_game(self):
        base, strategy = self._strategy()
        err = self._error(base, strategy,
                          [constant_adversary(0), _raise_at(3), _raise_at(1)])
        assert type(err) is RuntimeError and str(err) == "adversary failed at node 1"

    def test_coverage_error_names_the_lower_games_margin(self):
        base, strategy = self._strategy()
        spec = _variant(base, q_points=(0.0, 4.0, 8.0))
        # game 1 leaves [-2, 2] later and by less than game 2; the companion
        # read after game 2 leaves reports game 2's margin
        err = self._error(spec, strategy, [constant_adversary(j) for j in (0, 1, 2)])
        assert type(err) is LatticeCoverageError
        assert str(err) == ("state leaves the lattice by 1.255357e+00; "
                            "expand bounds by at least that margin")
        assert err.margin == 1.2553574150281963
        with pytest.raises(LatticeCoverageError) as alone:
            _run_feedback_game_reference(spec, strategy, constant_adversary(2), self.partition)
        assert alone.value.margin == err.margin


# ---------------------------------------------------------------------------
# the greedy lookahead as one batched step
# ---------------------------------------------------------------------------

class TestGreedyBatch:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_per_q_loop(self, dim):
        spec, table, strategy, _ = _desk(dim, 0)
        rng = np.random.default_rng(dim)
        sim = strategy.x0.grid
        got = greedy_adversary(spec, table)
        want = _greedy_reference(spec, table)
        for _ in range(40):
            x = Path(sim, 0.4 * rng.standard_normal((sim.n_steps + 1, dim)))
            t = float(sim.nodes[rng.integers(sim.n_steps + 1)])
            for p in range(spec.controls.n_p):
                assert got(t, lambda: x, p) == want(t, x, p)

    def test_ties_keep_the_first_q(self):
        spec = constant_game()
        grid = TimeGrid(0.0, 1.0, 4)
        table = dp_value(spec, grid, StateLattice(lo=(-1.0,), hi=(1.0,), shape=(5,)))
        spec = GameSpec(dyn=spec.dyn, running_cost=spec.running_cost,
                        terminal_cost=spec.terminal_cost,
                        controls=ControlGrid(p_points=(0.0,), q_points=(0.0, 0.0, 0.0)),
                        l_f=0.0, lambda_L=0.1)
        x = Path.constant(grid, [0.3])
        assert greedy_adversary(spec, table)(0.25, lambda: x, 0) == 0

    @pytest.mark.parametrize("slope, pick", [(8e-16, 0), (1e-14, 2)])
    def test_scores_within_1e_15_tie(self, slope, pick):
        # no drift, so every q reaches the same successor and the scores
        # differ by dt * cost alone (dt = 0.25): 0, slope / 2 and slope
        base = constant_game()
        grid = TimeGrid(0.0, 1.0, 4)
        table = dp_value(base, grid, StateLattice(lo=(-1.0,), hi=(1.0,), shape=(5,)))
        spec = GameSpec(dyn=DelayDynamics(op=base.dyn.op, rhs=lambda t, x, u: np.zeros(1),
                                          lipschitz_L=1.0),
                        running_cost=lambda t, x, p, q: 4 * slope * q,
                        terminal_cost=base.terminal_cost,
                        controls=ControlGrid(p_points=(0.0,), q_points=(0.0, 0.5, 1.0)),
                        l_f=1.0, lambda_L=0.1)
        adversary = greedy_adversary(spec, table)
        xs = [Path.constant(grid, [v]) for v in (0.3, -0.2)]
        assert adversary(0.25, lambda: xs[0], 0) == pick
        # two games in one batch pick as each does alone
        picks = adversary.answers(0.25, 1, np.array([[0.3], [-0.2]]), lambda n: xs[n],
                                  np.array([0, 0]))
        assert picks.tolist() == [pick, pick]

    def _error(self, spec, table, t=0.25, state=0.1):
        # the table's grid has mesh 0.125, the lookahead step
        x = Path.constant(table.grid, [state])
        with pytest.raises(Exception) as info:
            greedy_adversary(spec, table)(t, lambda: x, 0)
        return info.value

    def test_cost_of_an_earlier_q_before_a_later_drift(self):
        _, table, _, _ = _desk(1, 0)

        def rhs(t, x, u):
            return np.array([np.nan if u[1] == 1.0 else 0.1 * u[1]])

        def running(t, x, p, q):
            return np.inf if q == 0.0 else 0.0

        spec = GameSpec(dyn=DelayDynamics(op=make_linear_operator(), rhs=rhs, lipschitz_L=1.0),
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
        spec = GameSpec(dyn=DelayDynamics(op=make_linear_operator(),
                                          rhs=lambda t, x, u: np.array([float(u[1])]),
                                          lipschitz_L=100.0),
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
        (lambda: dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(33,))), 297),
        (lambda: solve_delay_evolution(broken, 0.0, hist, lipschitz_L=1.0), 1),
        (lambda: sample_reachable_set(broken, 0.0, hist, 4, 0, lipschitz_L=1.0), 4),
        (lambda: play_feedback_games(spec, strategy, [constant_adversary(0)] * 2,
                                     partitions[0]), 2),
    ]
    for call, rows in cases:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == f"operator returned shape ({rows}, 0), expected ({rows}, 1)"
