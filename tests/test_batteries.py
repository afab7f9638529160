"""The sampled batteries of the checks against the scalar loops they replaced.

The upsilon property battery and the isaacs-check Hamiltonian samples and
Lipschitz audit draw their samples one at a time and evaluate them as array
programs.  These tests hold every per-sample quantity to the public scalar
functions of scalar_reference.py bit for bit (signed zeros included), the
padded path kernels of pdhj.pathcore to Path.value_at and to stop_path and
sup_norm there, and each battery's records to the verbatim loop there.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pdhj import cli
from pdhj.errors import EvaluationError
from pdhj.evolution import make_linear_operator
from pdhj.game import (
    ControlGrid,
    audit_hamiltonian_lipschitz,
    bilinear_game,
    hamiltonian,
    isaacs_game,
    sampled_hamiltonians,
)
from pdhj.pathcore import (
    Path,
    TimeGrid,
    pad_paths,
    stop_paths,
    stopped_sup_sq,
    values_at,
)
from pdhj.upsilon import _battery_terms, _surrogate_batch, property_battery

import scalar_reference
from scalar_reference import callback_game, path_difference, penalty_psi, planar_game, \
    reference_game, stop_path, sup_norm, upsilon

_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
# offsets that put t at, just inside or just outside the stop tolerance of a node
_NEAR = [-2e-12, -1e-12, -5e-13, -1e-13, 1e-13, 5e-13, 1e-12, 2e-12]


@st.composite
def _grids(draw):
    n = draw(st.integers(1, 8))
    t_start = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-2.0,
                                                                      max_value=2.0)))
    if draw(st.booleans()):
        return TimeGrid(t_start, t_start + draw(st.floats(min_value=0.1, max_value=5.0)), n)
    gaps = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n))
    return TimeGrid.from_nodes(t_start + np.concatenate(([0.0], np.cumsum(gaps))))


@st.composite
def _times(draw, grid):
    """A time at a node, within 1e-12 of one, between nodes, or at an end."""
    nodes, n = grid.nodes, grid.n_steps
    kind = draw(st.sampled_from(["node", "near", "between", "end"]))
    i = draw(st.integers(0, n))
    if kind == "node":
        return float(nodes[i])
    if kind == "near":
        t = float(nodes[i]) + draw(st.sampled_from(_NEAR))
        return t if grid.contains(t) else float(nodes[i])
    if kind == "between":
        k = min(i, n - 1)
        return float(nodes[k] + draw(st.floats(min_value=0.0, max_value=1.0))
                     * (nodes[k + 1] - nodes[k]))
    return draw(st.sampled_from([grid.t_start, grid.t_end, -0.0 if grid.t_start == 0.0
                                 else grid.t_start]))


@st.composite
def _samples(draw, max_size=5):
    """Paths x and y of one dimension on their own grids, and one time each."""
    dim = draw(st.integers(1, 3))
    out = []
    for _ in range(draw(st.integers(1, max_size))):
        grid = draw(_grids())
        rows = grid.n_steps + 1
        x, y = (np.array(draw(st.lists(_VALUES, min_size=rows * dim, max_size=rows * dim)))
                .reshape(rows, dim) for _ in range(2))
        out.append((grid, x, y, draw(_times(grid))))
    return out


def _padded(samples):
    nodes, x = pad_paths([s[0].nodes for s in samples], [s[1] for s in samples])
    y = pad_paths([s[0].nodes for s in samples], [s[2] for s in samples])[1]
    return nodes, x, y, np.array([s[3] for s in samples])


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# the case of Path.value_at's old node branch: w is -0.0 at t = -0.0
_SIGNED_ZERO = [(TimeGrid(-0.0, 1.0, 1), np.array([[-0.0], [0.0]]), np.array([[0.0], [-0.0]]),
                 -0.0)]
# t within 1e-12 past a node: the frozen candidate misses x(t) and t is inserted
_PAST_A_NODE = [(TimeGrid(0.0, 1.0, 4), np.array([[3.0], [-2.0], [5.0], [1.0], [0.5]]),
                 np.zeros((5, 1)), 0.25 + 5e-13),
                (TimeGrid(0.0, 1.0, 2), np.array([[1.0], [2.0], [0.0]]), np.ones((3, 1)), 0.5)]


class TestPaddedPathKernels:
    @settings(max_examples=150)
    @given(_samples())
    @example(_SIGNED_ZERO)
    @example(_PAST_A_NODE)
    def test_values_at_stop_paths_and_sup_norms_match_the_scalar_path(self, samples):
        nodes, x, _, t = _padded(samples)
        got_xt = values_at(nodes, x, t)
        got_nodes, got_values = stop_paths(nodes, x, t)
        got_sup_sq, got_xt_of_sup = stopped_sup_sq(nodes, x, t)
        assert _bits(got_xt_of_sup) == _bits(got_xt)
        for s, (grid, xs, _, ts) in enumerate(samples):
            path = Path(grid, xs)
            assert _bits(got_xt[s]) == _bits(path.value_at(ts))
            stopped = stop_path(path, ts)
            m = stopped.grid.n_steps + 1
            assert _bits(got_nodes[s, :m]) == _bits(stopped.grid.nodes)
            assert np.all(np.isinf(got_nodes[s, m:]))
            assert _bits(got_values[s, :m]) == _bits(stopped.values)
            assert _bits(np.sqrt(got_sup_sq[s])) == _bits(sup_norm(path, ts))

    @given(_samples())
    def test_values_at_many_times_per_path(self, samples):
        nodes, x, _, _ = _padded(samples)
        times = np.array([[t, grid.nodes[0], grid.nodes[-1], grid.nodes[grid.n_steps // 2]]
                          for grid, _, _, t in samples])
        got = values_at(nodes, x, times)
        for s, (grid, xs, _, _) in enumerate(samples):
            path = Path(grid, xs)
            for j, tj in enumerate(times[s]):
                assert _bits(got[s, j]) == _bits(path.value_at(float(tj)))


class TestUpsilonBattery:
    @settings(max_examples=150)
    @given(_samples())
    @example(_SIGNED_ZERO)
    @example(_PAST_A_NODE)
    def test_per_sample_terms_match_the_scalar_functions(self, samples):
        nodes, x, y, t = _padded(samples)
        terms = _battery_terms(nodes, x, y, t)
        value, factor, xt = _surrogate_batch(nodes, x, t)
        dx = factor[:, None] * xt
        for s, (grid, xs, ys, ts) in enumerate(samples):
            px, py = Path(grid, xs), Path(grid, ys)
            pe = penalty_psi(ts, px, py)
            assert _bits(terms["penalty"][s]) == _bits(pe.value)
            assert _bits(terms["theta"][s]) == _bits(pe.theta)
            assert _bits(float(terms["sup"][s]) ** 2) == _bits(sup_norm(path_difference(px, py), ts) ** 2)
            ev = upsilon(ts, px)
            assert _bits(value[s]) == _bits(ev.value)
            assert _bits(dx[s]) == _bits(ev.dx)
            assert terms["dt"][s] == ev.dt == 0.0
            bound = 4.0 * float(np.linalg.norm(px.value_at(ts)))
            excess = float(np.linalg.norm(ev.dx)) - bound * (1.0 + 1e-12)
            assert _bits(terms["grad_excess"][s]) == _bits(excess)
            gap = scalar_reference.non_anticipativity_gap(ts, px)
            assert _bits(terms["na_gap"][s]) == _bits(gap)

    # at seed 1348 (100 samples) the sandwich record's sup squared as s * s
    # differs in the last bit from the loop's s ** 2 (libm pow)
    @pytest.mark.parametrize("samples, seed", [(40 + 17 * seed, seed) for seed in range(6)]
                             + [(100, 1348)])
    def test_records_match_the_scalar_loop(self, samples, seed):
        got = property_battery(samples=samples, seed=seed)["checks"][:6]
        assert json.dumps(got) == json.dumps(
            scalar_reference.property_battery_records(samples, seed))


# ---------------------------------------------------------------------------
# Hamiltonian batteries
# ---------------------------------------------------------------------------

def _delayed_running(t, x, p, q):
    past = x.value_at(max(t - 0.25, x.grid.t_start))
    return 0.1 * float(np.dot(past, past)) + 0.2 * p - 0.1 * q


def _delayed_game(running=_delayed_running, name="delayed"):
    """A path-dependent game: its running cost reads x a quarter before t."""
    return callback_game(op=make_linear_operator(),
                         rhs=lambda t, x, u: np.array([0.5 * u[0] * u[1]]),
                         running_cost=running, terminal_cost=lambda x: 0.0,
                         controls=ControlGrid(p_points=(-1.0, 1.0), q_points=(-1.0, 0.0, 1.0)),
                         l_f=0.5, lambda_L=0.2, name=name)


HAMILTONIAN_GAMES = {
    "isaacs": lambda: isaacs_game(scale=0.5),
    "bilinear": bilinear_game,
    "planar": planar_game,
    "isaacs-paths": lambda: reference_game(isaacs_game, scale=0.5),
    "planar-paths": lambda: planar_game(callbacks=True),
    "delayed": _delayed_game,
}


@st.composite
def _hamiltonian_samples(draw, dim):
    """S paths on small grids starting at 0, each at one of its nodes (so
    times repeat across samples), and Z covectors per sample."""
    n_z = draw(st.integers(1, 3))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 6))
        grid = TimeGrid(0.0, draw(st.sampled_from([1.0, 2.0])), n)
        values = np.array(draw(st.lists(_VALUES, min_size=(n + 1) * dim,
                                        max_size=(n + 1) * dim))).reshape(n + 1, dim)
        t = float(grid.nodes[draw(st.integers(0, n))])
        zs = np.array(draw(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                                    min_size=n_z * dim, max_size=n_z * dim))).reshape(n_z, dim)
        out.append((grid, values, t, zs))
    return out


class TestSampledHamiltonians:
    @pytest.mark.parametrize("name", sorted(HAMILTONIAN_GAMES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_hamiltonian_per_sample(self, name, data):
        spec = HAMILTONIAN_GAMES[name]()
        samples = data.draw(_hamiltonian_samples(spec.op.space.dim))
        nodes, values = pad_paths([s[0].nodes for s in samples], [s[1] for s in samples])
        times = np.array([s[2] for s in samples])
        f_minus, f_plus = sampled_hamiltonians(
            spec, times, values_at(nodes, values, times),
            lambda s: Path(samples[s][0], samples[s][1]), np.array([s[3] for s in samples]))
        for s, (grid, vals, t, zs) in enumerate(samples):
            for j, z in enumerate(zs):
                ev = hamiltonian(spec, t, Path(grid, vals), z)
                assert _bits(f_minus[s, j]) == _bits(ev.f_minus)
                assert _bits(f_plus[s, j]) == _bits(ev.f_plus)

    def test_one_stage_call_per_distinct_time_in_order_of_first_appearance(self):
        spec = _delayed_game()
        seen = []
        real = spec.lane_terms

        def counting(t, states, path_of, played=None):
            seen.append((t, len(states)))
            return real(t, states, path_of, played)

        object.__setattr__(spec, "lane_terms", counting)
        grid = TimeGrid(0.0, 1.0, 4)
        times = np.array([0.5, 0.25, 0.5, 1.0, 0.25])
        values = np.zeros((5, 5, 1))
        sampled_hamiltonians(spec, times, np.zeros((5, 1)), lambda s: Path(grid, values[s]),
                             np.ones((5, 2, 1)))
        assert seen == [(0.5, 2), (0.25, 2), (1.0, 1)]

    def test_a_failing_path_dependent_game_raises_in_time_group_order(self):
        # sample 1 (t=0.25) fails first in draw order, but the group of t=0.5,
        # which sample 0 opens, is evaluated first, and there sample 2 fails
        def running(t, x, p, q):
            return math.inf if x.values[0][0] > 1.0 else 0.0

        spec = _delayed_game(running, "fragile")
        grid = TimeGrid(0.0, 1.0, 4)
        values = np.zeros((3, 5, 1))
        values[1:, 0] = 2.0
        times = np.array([0.5, 0.25, 0.5])
        with pytest.raises(EvaluationError) as err:
            sampled_hamiltonians(spec, times, np.zeros((3, 1)),
                                 lambda s: Path(grid, values[s]), np.ones((3, 1, 1)))
        assert str(err.value) == "non-finite running cost at t=0.5, p=-1.0, q=-1.0"
        with pytest.raises(EvaluationError) as first:  # one sample at a time
            for s in range(3):
                hamiltonian(spec, times[s], Path(grid, values[s]), np.ones(1))
        assert str(first.value) == "non-finite running cost at t=0.25, p=-1.0, q=-1.0"


class TestHamiltonianBatteries:
    @pytest.mark.parametrize("name", sorted(HAMILTONIAN_GAMES))
    @pytest.mark.parametrize("seed", [0, 5])
    def test_audit_matches_the_scalar_loop(self, name, seed):
        spec = HAMILTONIAN_GAMES[name]()
        got = audit_hamiltonian_lipschitz(spec, 60, seed)
        want = scalar_reference.audit_hamiltonian_lipschitz(spec, 60, seed)
        assert _bits(got.max_ratio) == _bits(want.max_ratio)
        assert got == want

    @pytest.mark.parametrize("name", sorted(HAMILTONIAN_GAMES))
    def test_isaacs_check_matches_the_scalar_loop(self, name, tmp_path, monkeypatch):
        spec = HAMILTONIAN_GAMES[name]()
        monkeypatch.setattr(cli, "_build_game", lambda block: spec)
        cfg = {"schema_version": 1, "kind": "isaacs-check", "samples": 50}
        cli.run(cfg, str(tmp_path), seed=4)
        result = json.loads((tmp_path / "isaacs-check" / "result.json").read_text())
        worst_gap, violations = scalar_reference.isaacs_samples(spec, 50, 4)
        assert _bits(result["max_isaacs_gap"]) == _bits(worst_gap)
        assert result["order_violations"] == violations
