"""The batched DP slice and implicit step against the scalar loops they replace."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from pdhj import cli, evolution
from pdhj.errors import LatticeCoverageError, SolverError
from pdhj.evolution import (
    STEP_SOLVE_TOL,
    OperatorSpec,
    _implicit_step_batch,
    build_p_laplacian,
    make_linear_operator,
)
from pdhj.game import (
    ControlGrid,
    StateLattice,
    _dp_slice,
    _lift_paths,
    bilinear_game,
    constant_game,
    dp_value,
    greedy_lookahead,
    isaacs_game,
)
from pdhj.pathcore import Path, StateSpace, TimeGrid
from scalar_reference import _implicit_step, callback_game, drift, stage_cost


def _dp_slice_reference(spec, grid, lattice, k, v_minus_next, v_plus_next, lifts):
    """The per-(point, p, q) loop that _dp_slice replaced, both sides."""
    nodes = grid.nodes
    t_k, t_k1 = nodes[k], nodes[k + 1]
    dt = t_k1 - t_k
    n_p, n_q = spec.controls.n_p, spec.controls.n_q
    points = lattice.points()
    out_minus = np.empty(len(points))
    out_plus = np.empty(len(points))
    op = spec.op
    for idx, (point, lift) in enumerate(zip(points, lifts)):
        obj_minus = np.empty((n_p, n_q))
        obj_plus = np.empty((n_p, n_q))
        for i, p in enumerate(spec.controls.p_points):
            for j, q in enumerate(spec.controls.q_points):
                f = drift(spec, t_k, lift, p, q)
                target = point + dt * f
                tol = STEP_SOLVE_TOL * (1.0 + float(np.linalg.norm(point)))
                succ, _, _ = _implicit_step(op, t_k1, dt, target, point, tol, k)
                stage = dt * stage_cost(spec, t_k, lift, p, q)
                try:
                    obj_minus[i, j] = stage + lattice.interpolate_batch(v_minus_next, succ[None])[0]
                    obj_plus[i, j] = stage + lattice.interpolate_batch(v_plus_next, succ[None])[0]
                except LatticeCoverageError as err:
                    raise LatticeCoverageError(
                        f"successor left the lattice at time index {k} "
                        f"(state {point}, p={p!r}, q={q!r}): {err}", margin=err.margin)
        out_minus[idx] = np.max(np.min(obj_minus, axis=0))
        out_plus[idx] = np.min(np.max(obj_plus, axis=1))
    return out_minus.reshape(lattice.shape), out_plus.reshape(lattice.shape)


def planar_game():
    return callback_game(
        op=make_linear_operator(dim=2, gain=1.0),
        rhs=lambda t, x, u: 0.4 * np.array([float(u[0]), float(u[1])]),
        running_cost=lambda t, x, p, q: 0.05 * float(np.dot(x.value_at(t), x.value_at(t))),
        terminal_cost=lambda x: float(np.dot(x.values[-1], x.values[-1])),
        controls=ControlGrid(p_points=(-1.0, 0.0, 1.0), q_points=(-1.0, 1.0)),
        l_f=0.8, lambda_L=0.3, name="planar")


def both_slices(spec, grid, lattice, k, next_values):
    """(batched, reference) slices at k from next_values, both sides."""
    lifts = _lift_paths(lattice, grid)
    both = _dp_slice(spec, grid, lattice, k, np.stack([next_values, next_values], axis=-1), lifts)
    return ((both[..., 0], both[..., 1]),
            _dp_slice_reference(spec, grid, lattice, k, next_values, next_values, lifts))


def random_field(lattice, seed):
    return np.random.default_rng(seed).standard_normal(lattice.shape)


class TestBatchedSlice:
    @pytest.mark.parametrize("make", [isaacs_game, bilinear_game, constant_game])
    def test_bit_identical_on_1d_games(self, make):
        spec = make()
        grid = TimeGrid(0.0, 1.0, 8)
        lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(17,))
        for k in (0, 3, 7):
            (m, p), (m_ref, p_ref) = both_slices(spec, grid, lattice, k,
                                                 random_field(lattice, k))
            assert np.array_equal(m, m_ref)
            assert np.array_equal(p, p_ref)

    def test_2d_lattice_agrees(self):
        spec = planar_game()
        grid = TimeGrid(0.0, 1.0, 4)
        lattice = StateLattice(lo=(-1.5, -1.5), hi=(1.5, 1.5), shape=(7, 9))
        for k in (0, 2, 3):
            (m, p), (m_ref, p_ref) = both_slices(spec, grid, lattice, k,
                                                 random_field(lattice, k))
            assert m.shape == p.shape == (7, 9)
            assert np.max(np.abs(m - m_ref)) <= 1e-12
            assert np.max(np.abs(p - p_ref)) <= 1e-12

    def test_scalar_fallback_lanes(self, monkeypatch):
        # no Newton iteration is allowed, so every lane stalls and is rerun by
        # the scalar step (bisection in one dimension, relaxation in two)
        monkeypatch.setattr(evolution, "NEWTON_MAX_ITER", 0)
        grid = TimeGrid(0.0, 1.0, 4)
        cases = [(isaacs_game(), StateLattice(lo=(-2.0,), hi=(2.0,), shape=(9,))),
                 (planar_game(), StateLattice(lo=(-1.5, -1.5), hi=(1.5, 1.5), shape=(5, 5)))]
        for spec, lattice in cases:
            (m, p), (m_ref, p_ref) = both_slices(spec, grid, lattice, 2,
                                                 random_field(lattice, 2))
            assert np.array_equal(m, m_ref)
            assert np.array_equal(p, p_ref)

    def test_dp_value_matches_reference_recursion(self):
        spec = isaacs_game()
        grid = TimeGrid(0.0, 1.0, 6)
        lattice = StateLattice(lo=(-2.0,), hi=(2.0,), shape=(17,))
        table = dp_value(spec, grid, lattice)
        lifts = _lift_paths(lattice, grid)
        for k in range(grid.n_steps):
            m_ref, p_ref = _dp_slice_reference(spec, grid, lattice, k, table.v_minus[k + 1],
                                               table.v_plus[k + 1], lifts)
            assert np.array_equal(table.v_minus[k], m_ref)
            assert np.array_equal(table.v_plus[k], p_ref)


class TestOneReadPerSlice:
    def test_game_value_config_reads_each_slice_once(self, monkeypatch):
        # one interpolate_batch call reads both sides of a slice, and no
        # coverage margins are taken outside it
        config = pathlib.Path(__file__).parent.parent / "configs" / "game_value.json"
        cfg = cli.validate_config(json.loads(config.read_text()))
        grid, lattice = cli._build_grid(cfg["grid"]), cli._build_lattice(cfg["lattice"])
        calls = {"reads": 0, "margins_outside": 0}
        inside = []
        read, margins = StateLattice.interpolate_batch, StateLattice.coverage_margins

        def spy_read(self, values, states):
            calls["reads"] += 1
            inside.append(True)
            try:
                return read(self, values, states)
            finally:
                inside.pop()

        def spy_margins(self, states):
            calls["margins_outside"] += not inside
            return margins(self, states)

        monkeypatch.setattr(StateLattice, "interpolate_batch", spy_read)
        monkeypatch.setattr(StateLattice, "coverage_margins", spy_margins)
        table = dp_value(cli._build_game(cfg["game"]), grid, lattice)
        assert calls == {"reads": grid.n_steps, "margins_outside": 0}
        assert table.v_minus.flags.c_contiguous and table.v_plus.flags.c_contiguous


class TestCoverageError:
    """A successor off the lattice names the cell with the largest margin, the
    first such cell on ties (the per-cell reference names its first offending
    cell)."""

    @pytest.mark.parametrize("lo,hi,cell", [
        # two cells leave by the same largest margin: the first is named
        (-0.05, 0.05, "state [-0.05], p=-1.0, q=-1.0"),
        # the first offending cell, (-0.2, p=-1, q=-1), leaves by 1.56 only
        (-0.2, 0.05, "state [0.05], p=1.0, q=1.0"),
    ], ids=["-0.05-0.05", "-0.2-0.05"])
    def test_names_the_largest_margin_cell(self, lo, hi, cell):
        spec = isaacs_game(scale=4.0)
        grid = TimeGrid(0.0, 1.0, 4)
        tight = StateLattice(lo=(lo,), hi=(hi,), shape=(5,))
        lifts = _lift_paths(tight, grid)
        terminal = np.zeros(tight.shape + (2,))
        want = (f"successor left the lattice at time index 3 ({cell}): state leaves the "
                f"lattice by 1.590000e+00; expand bounds by at least that margin")
        with pytest.raises(LatticeCoverageError) as got:
            _dp_slice(spec, grid, tight, 3, terminal, lifts)
        assert str(got.value) == want
        assert got.value.margin == 1.5899999999999996
        with pytest.raises(LatticeCoverageError) as whole:
            dp_value(spec, grid, tight)
        assert str(whole.value) == want

    @pytest.mark.parametrize("lo,hi,cell", [
        (-0.05, 0.05, "state [-0.05], p=-1.0, q=-1.0"),
        (-0.2, 0.05, "state [0.05], p=1.0, q=1.0"),
    ], ids=["-0.05-0.05", "-0.2-0.05"])
    def test_cell_is_named_from_the_refused_reads_margins(self, monkeypatch, lo, hi, cell):
        # the margins are taken once, inside the one read, and the cell found in them
        spec = isaacs_game(scale=4.0)
        grid = TimeGrid(0.0, 1.0, 4)
        tight = StateLattice(lo=(lo,), hi=(hi,), shape=(5,))
        lifts = _lift_paths(tight, grid)
        calls = {"reads": 0, "margins": 0, "margins_outside": 0}
        inside = []
        read, margins = StateLattice.interpolate_batch, StateLattice.coverage_margins

        def spy_read(self, values, states):
            calls["reads"] += 1
            inside.append(True)
            try:
                return read(self, values, states)
            finally:
                inside.pop()

        def spy_margins(self, states):
            calls["margins"] += 1
            calls["margins_outside"] += not inside
            return margins(self, states)

        monkeypatch.setattr(StateLattice, "interpolate_batch", spy_read)
        monkeypatch.setattr(StateLattice, "coverage_margins", spy_margins)
        with pytest.raises(LatticeCoverageError) as got:
            _dp_slice(spec, grid, tight, 3, np.zeros(tight.shape + (2,)), lifts)
        assert calls == {"reads": 1, "margins": 1, "margins_outside": 0}
        assert str(got.value) == (f"successor left the lattice at time index 3 ({cell}): state "
                                  f"leaves the lattice by 1.590000e+00; expand bounds by at "
                                  f"least that margin")
        assert got.value.margin == 1.5899999999999996


class TestImplicitStepBatch:
    @pytest.mark.parametrize("op", [make_linear_operator(1, 1.0),
                                    make_linear_operator(2, 1.5),
                                    build_p_laplacian(4, 3.0)],
                             ids=["linear-1", "linear-2", "p-laplacian"])
    def test_lanes_match_scalar_step(self, op):
        rng = np.random.default_rng(7)
        dim = op.space.dim
        targets = rng.standard_normal((40, dim)) * rng.choice([0.1, 1.0, 5.0], size=(40, 1))
        guesses = rng.standard_normal((40, dim))
        tols = STEP_SOLVE_TOL * (1.0 + np.linalg.norm(guesses, axis=1))
        xi, iters, res = _implicit_step_batch(op, 0.5, 0.125, targets, guesses, tols, 3)
        for n in range(len(targets)):
            x_ref, it_ref, res_ref = _implicit_step(op, 0.5, 0.125, targets[n], guesses[n],
                                                    tols[n], 3)
            assert np.array_equal(xi[n], x_ref)
            assert iters[n] == it_ref
            assert res[n] == res_ref

    def test_stalled_lane_raises_scalar_solver_error(self):
        space = StateSpace(dim=1, p_exp=2.0)
        broken = OperatorSpec(space=space, eval_fn=lambda t, v: np.full_like(v, np.nan),
                              c1=1.0, c2=1.0)
        with pytest.raises(SolverError) as err:
            _implicit_step_batch(broken, 0.5, 0.125, np.ones((3, 1)), np.zeros((3, 1)),
                                 np.full(3, 1e-11), 6)
        assert err.value.step_index == 6


def _staircase(dim):
    """At dt = 1, g(x) = x + A(x) - t is 0.8 x - t for x >= 0 and floor(x) - t
    below, coordinate by coordinate: on a step the finite-difference Jacobian
    is exactly singular."""
    return OperatorSpec(space=StateSpace(dim=dim), c1=1.0, c2=1.0,
                        eval_fn=lambda t, v: np.where(v >= 0.0, -0.2 * v, np.floor(v) - v))


def _ledge(dim):
    """At dt = 1, g(x) = x + A(x) - t jumps up by 1 at x = 0.5: a difference
    across the jump makes the Newton step tiny, and the line search runs out."""
    return OperatorSpec(space=StateSpace(dim=dim), c1=1.0, c2=1.0,
                        eval_fn=lambda t, v: np.where(v < 0.5, v, v + 1.0))


def _wall(dim):
    """A(x) = x for |x| <= 2 and NaN beyond: a target past the wall is crept
    toward until the line search runs out, and has no root."""
    return OperatorSpec(space=StateSpace(dim=dim), c1=1.0, c2=1.0,
                        eval_fn=lambda t, v: np.where(np.abs(v) > 2.0, np.nan, v))


# (operator, targets, guesses) per lane; each lane's coordinates are equal
STALLS = {
    # lanes 0 and 3 stall after two Newton iterations, lane 2 after one,
    # lane 1 starts on a root
    "singular": (_staircase, [-1.0, -1.0, -1.0, 3.0], [0.5, -0.5, -1.5, 1.0]),
    # lane 0 stalls in its first iteration, lane 2 after creeping up to the
    # jump; lane 1 converges
    "line-search": (_ledge, [0.4, 0.4, 1.0], [0.5 - 2e-8, 0.1, 0.9]),
}
# the same kinds of stall where lanes 1 and 2 have no root
FAILING_STALLS = {
    "singular": (_staircase, [-1.0, -1.5, -1.5, 2.5], [0.5, 0.5, -3.0, 1.0]),
    "line-search": (_wall, [1.0, 40.0, -40.0, 1.5], [0.5, 0.5, -0.5, 0.0]),
}


def _lanes(table, dim):
    make, targets, guesses = table
    return (make(dim), np.repeat(np.array(targets)[:, None], dim, axis=1),
            np.repeat(np.array(guesses)[:, None], dim, axis=1))


class TestStalledLanes:
    """Lanes whose damped Newton stalls against the scalar reference."""

    @staticmethod
    def _spy(monkeypatch):
        """Record (target, guess, Newton iterations) of each lane handed to the
        fallback."""
        calls = []
        fallback = evolution._fallback_step

        def spy(op, t_next, dt, target, guess, tol, step_index, iters):
            calls.append((float(target[0]), float(guess[0]), iters))
            return fallback(op, t_next, dt, target, guess, tol, step_index, iters)

        monkeypatch.setattr(evolution, "_fallback_step", spy)
        return calls

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["singular", "line-search"])
    def test_stalled_lanes_match_scalar_step(self, kind, dim, monkeypatch):
        op, targets, guesses = _lanes(STALLS[kind], dim)
        tols = np.full(len(targets), 1e-11)
        calls = self._spy(monkeypatch)
        xi, iters, res = _implicit_step_batch(op, 0.5, 1.0, targets, guesses, tols, 3)
        for n in range(len(targets)):
            x_ref, it_ref, res_ref = _implicit_step(op, 0.5, 1.0, targets[n], guesses[n],
                                                    tols[n], 3)
            assert np.array_equal(xi[n], x_ref)
            assert iters[n] == it_ref
            assert res[n] == res_ref
        stalled = [it for _, _, it in calls]
        assert len(stalled) == 2 and min(stalled) >= 1 and max(stalled) >= 2

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["singular", "line-search"])
    def test_lowest_stalled_lanes_solver_error(self, kind, dim, monkeypatch):
        op, targets, guesses = _lanes(FAILING_STALLS[kind], dim)
        tols = np.full(len(targets), 1e-11)
        failing = []
        for n in range(len(targets)):
            try:
                _implicit_step(op, 0.5, 1.0, targets[n], guesses[n], tols[n], 5)
            except SolverError as err:
                failing.append((n, err))
        assert [n for n, _ in failing] == [1, 2]
        calls = self._spy(monkeypatch)
        with pytest.raises(SolverError) as got:
            _implicit_step_batch(op, 0.5, 1.0, targets, guesses, tols, 5)
        want = failing[0][1]
        assert str(got.value) == str(want) and got.value.step_index == want.step_index == 5
        # lane 1 raises before lane 2 reaches the fallback
        lanes = [(target, guess) for target, guess, _ in calls]
        assert lanes[-1] == (targets[1, 0], guesses[1, 0])
        assert (targets[2, 0], guesses[2, 0]) not in lanes


def test_greedy_adversary_reports_node_index():
    spec = isaacs_game()
    grid = TimeGrid(0.0, 1.0, 8)
    table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(9,)))
    broken = OperatorSpec(space=spec.op.space, eval_fn=lambda t, v: np.full_like(v, np.nan),
                          c1=1.0, c2=1.0)
    bad = dataclasses.replace(spec, op=broken)
    x = Path.constant(grid, [0.1])
    with pytest.raises(SolverError) as err:
        greedy_lookahead(bad, table, grid.nodes[3], 3, x.values[3][None], lambda _: x,
                         np.array([0]))
    assert err.value.step_index == 3
