import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pdhj.errors import DomainError
from pdhj.pathcore import Path, StateSpace, TimeGrid, stopped_at, stopped_value_at
from scalar_reference import csv_text, d_infinity, norm_h, pairing, path_from_csv, \
    path_from_json, stop_path, sup_norm, to_json

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_CSV = (DATA / "path_golden.csv").read_text()
GOLDEN_JSON = (DATA / "path_golden.json").read_text().strip()


def ramp_path(n=10):
    grid = TimeGrid(0.0, 1.0, n)
    return Path(grid, grid.nodes.copy())


def random_path(rng, n=16, dim=2, span=(0.0, 1.0)):
    grid = TimeGrid(span[0], span[1], n)
    return Path(grid, rng.standard_normal((n + 1, dim)))


class TestTimeGrid:
    def test_nodes_and_mesh(self):
        grid = TimeGrid(0.0, 2.0, 4)
        assert np.allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.mesh == pytest.approx(0.5)

    def test_rejects_bad_span(self):
        with pytest.raises(DomainError):
            TimeGrid(1.0, 1.0, 4)
        with pytest.raises(DomainError):
            TimeGrid(0.0, 1.0, 0)

    def test_non_uniform_partition(self):
        grid = TimeGrid.from_nodes([0.0, 0.1, 0.5, 1.0])
        assert grid.mesh == pytest.approx(0.5)
        assert grid.node_index(0.5) == 2
        with pytest.raises(DomainError):
            TimeGrid.from_nodes([0.0, 0.5, 0.5, 1.0])

    def test_nodes_built_once_and_read_only(self):
        grid = TimeGrid(0.0, 1.0, 8)
        assert grid.nodes is grid.nodes
        assert np.array_equal(grid.nodes, np.linspace(0.0, 1.0, 9))
        with pytest.raises(ValueError):
            grid.nodes[0] = 5.0
        assert grid == TimeGrid(0.0, 1.0, 8)
        assert hash(grid) == hash(TimeGrid(0.0, 1.0, 8))
        assert repr(grid) == "TimeGrid(t_start=0.0, t_end=1.0, n_steps=8)"

    def test_explicit_nodes_cached_without_aliasing(self):
        given = np.array([0.0, 0.1, 0.5, 1.0])
        grid = TimeGrid(0.0, 1.0, 3, explicit_nodes=given)
        assert grid.nodes is grid.nodes
        assert np.array_equal(grid.nodes, given)
        assert given.flags.writeable  # the caller's array is copied, not frozen
        with pytest.raises(ValueError):
            grid.nodes[1] = 0.2
        listed = TimeGrid.from_nodes([0.0, 0.1, 0.5, 1.0])
        assert listed == TimeGrid.from_nodes((0.0, 0.1, 0.5, 1.0))
        assert listed.node_index(0.1) == 1

    def test_refine_keeps_nodes(self):
        grid = TimeGrid(0.0, 1.0, 4)
        fine = grid.refine(2)
        assert fine.n_steps == 8
        assert set(np.round(grid.nodes, 12)) <= set(np.round(fine.nodes, 12))


def _value_at_reference(path, t):
    """Path.value_at before its bisect fast path, kept verbatim."""
    path.grid.require_contains(t)
    nodes = path.grid.nodes
    t = min(max(t, nodes[0]), nodes[-1])
    k = int(np.searchsorted(nodes, t, side="right")) - 1
    k = min(max(k, 0), len(nodes) - 2)
    h = nodes[k + 1] - nodes[k]
    w = (t - nodes[k]) / h
    return (1.0 - w) * path.values[k] + w * path.values[k + 1]


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


@st.composite
def _path_and_time(draw):
    """A path on a uniform or explicit grid, and a time at a node, between
    nodes, at or just past an end (clamped), or outside the span."""
    n, dim = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    t_start = draw(st.floats(min_value=-2.0, max_value=2.0))
    if draw(st.booleans()):
        grid = TimeGrid(t_start, t_start + draw(st.floats(min_value=0.1, max_value=5.0)), n)
    else:
        gaps = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n))
        grid = TimeGrid.from_nodes(t_start + np.concatenate(([0.0], np.cumsum(gaps))))
    flat = draw(st.lists(_VALUES, min_size=(n + 1) * dim, max_size=(n + 1) * dim))
    path = Path(grid, np.array(flat).reshape(n + 1, dim))
    nodes = grid.nodes
    k = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["node", "between", "end", "outside"]))
    if kind == "node":
        t = float(nodes[draw(st.integers(0, n))])
    elif kind == "between":
        t = float(nodes[k] + draw(st.floats(min_value=0.0, max_value=1.0)) * (nodes[k + 1] - nodes[k]))
    elif kind == "end":
        t = draw(st.sampled_from([grid.t_start, grid.t_end, grid.t_start - 5e-13,
                                  grid.t_end + 5e-13]))
    else:
        t = draw(st.sampled_from([grid.t_start - 1e-9, grid.t_end + 1e-6, float("nan")]))
    return path, t


class TestValueAt:
    @given(_path_and_time())
    # linspace makes node 0 +0.0, so w is -0.0 at t = -0.0; the node branch
    # must add w * next, not 0.0 * next, to keep the blend's -0.0
    @example((Path(TimeGrid(-0.0, 1.0, 1), [[-0.0], [0.0]]), -0.0))
    def test_matches_blend_formula(self, case):
        path, t = case
        try:
            want = _value_at_reference(path, t)
        except DomainError as err:
            with pytest.raises(DomainError) as got:
                path.value_at(t)
            assert str(got.value) == str(err)
            return
        got = path.value_at(t)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included

    def test_node_time_keeps_the_blend_zero_signs(self):
        # -0.0 + 0.0 * 1.0 is +0.0: returning row k itself would keep -0.0
        path = Path(TimeGrid(0.0, 1.0, 2), [[-0.0], [1.0], [-0.0]])
        assert not np.signbit(path.value_at(0.0)[0])
        out = path.value_at(0.5)
        assert out.flags.writeable and not np.shares_memory(out, path.values)


class TestStoppedValueAt:
    @given(_path_and_time(), st.data())
    def test_matches_value_at_of_the_stopped_path(self, case, data):
        path, t = case
        n = path.grid.n_steps
        k = data.draw(st.integers(0, n))
        if data.draw(st.booleans()):  # a time a hair off a node, as partition nodes may be
            t = float(path.grid.nodes[k]) + data.draw(st.sampled_from([-1e-13, 1e-13]))
        # lanes: the path, its reflection, and its rows reversed
        lanes = np.stack([path.values, -path.values, path.values[::-1]], axis=1)
        try:
            want = [stopped_at(path.grid, lanes[:, g], k).value_at(t) for g in range(3)]
        except DomainError as err:
            with pytest.raises(DomainError) as got:
                stopped_value_at(path.grid, lanes, k, t)
            assert str(got.value) == str(err)
            return
        got = stopped_value_at(path.grid, lanes, k, t)
        assert got.shape == (3, path.dim)
        for g in range(3):
            assert got[g].tobytes() == want[g].tobytes()  # signed zeros included


class TestStopPath:
    def test_constant_path_is_fixed_point(self):
        grid = TimeGrid(0.0, 1.0, 8)
        x = Path.constant(grid, [3.0, -1.0])
        for t in (0.0, 0.3, 1.0):
            assert np.array_equal(stop_path(x, t).values, x.values)

    def test_identity_ramp(self):
        x = ramp_path(10)
        stopped = stop_path(x, 0.5)
        expected = np.minimum(x.grid.nodes, 0.5)[:, None]
        assert np.allclose(stopped.values, expected)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_path(rng)
            t = rng.uniform(0.0, 1.0)
            once = stop_path(x, t)
            assert np.array_equal(stop_path(once, t).values, once.values)

    def test_outside_span_raises(self):
        x = ramp_path()
        with pytest.raises(DomainError):
            stop_path(x, 1.5)


class TestSupNorm:
    def test_zero_path(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert sup_norm(Path.constant(grid, np.zeros(3)), 1.0) == 0.0

    def test_decreasing_ramp_max_at_start(self):
        grid = TimeGrid(0.0, 1.0, 10)
        x = Path(grid, 1.0 - grid.nodes)
        assert sup_norm(x, 1.0) == pytest.approx(1.0)

    def test_matches_refined_sampling_oracle(self):
        # the uniform 10x sampling can miss polyline nodes by up to half its
        # spacing, so the match is only up to spacing * slope
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = random_path(rng, n=12, dim=3)
            t = rng.uniform(0.05, 1.0)
            fine = np.linspace(0.0, t, 10 * 12 + 1)
            oracle = max(np.linalg.norm(x.value_at(s)) for s in fine)
            slopes = np.diff(x.values, axis=0) / np.diff(x.grid.nodes)[:, None]
            interp_tol = (fine[1] - fine[0]) * np.max(np.linalg.norm(slopes, axis=1))
            assert sup_norm(x, t) >= oracle - 1e-12
            assert sup_norm(x, t) <= oracle + interp_tol + 1e-12

    def test_depends_only_on_stopped_path(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = random_path(rng)
            t = rng.uniform(0.0, 1.0)
            assert sup_norm(x, t) == pytest.approx(sup_norm(stop_path(x, t), t), abs=1e-14)

    def test_resampling_invariance(self):
        rng = np.random.default_rng(5)
        x = random_path(rng, n=8)
        fine = x.resample(x.grid.refine(2))
        for t in (0.25, 0.6, 1.0):
            assert sup_norm(fine, t) == pytest.approx(sup_norm(x, t), abs=1e-12)


class TestDInfinity:
    def test_identical_pairs(self):
        x = ramp_path()
        assert d_infinity((0.5, x), (0.5, x)) == 0.0

    def test_time_term_only(self):
        grid = TimeGrid(0.0, 1.0, 4)
        z = Path.constant(grid, np.zeros(1))
        assert d_infinity((0.0, z), (1.0, z)) == pytest.approx(1.0)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            pairs = []
            for _ in range(3):
                n = int(rng.integers(4, 12))
                pairs.append((rng.uniform(0.0, 1.0), random_path(rng, n=n)))
            p1, p2, p3 = pairs
            d12 = d_infinity(p1, p2)
            d21 = d_infinity(p2, p1)
            assert d12 == pytest.approx(d21, abs=1e-12)
            d13 = d_infinity(p1, p3)
            d23 = d_infinity(p2, p3)
            assert d13 <= d12 + d23 + 1e-12

    def test_incompatible_spans(self):
        a = Path.constant(TimeGrid(0.0, 1.0, 4), np.zeros(1))
        b = Path.constant(TimeGrid(0.0, 2.0, 4), np.zeros(1))
        with pytest.raises(DomainError):
            d_infinity((0.5, a), (0.5, b))


class TestSerialization:
    def test_csv_round_trip_golden(self):
        x = path_from_csv(GOLDEN_CSV)
        assert x.dim == 2
        assert x.grid.n_steps == 4
        again = path_from_csv(x.to_csv())
        assert np.array_equal(again.values, x.values)

    def test_json_golden(self):
        x = path_from_json(GOLDEN_JSON)
        obj = json.loads(to_json(x))
        assert obj == json.loads(GOLDEN_JSON)

    def test_golden_files_byte_stable(self):
        # re-serializing the parsed goldens reproduces them byte for byte
        x = path_from_csv(GOLDEN_CSV)
        assert x.to_csv() == GOLDEN_CSV
        y = path_from_json(GOLDEN_JSON)
        assert to_json(y) == GOLDEN_JSON

    @given(_path_and_time())
    def test_csv_matches_the_csv_writer(self, case):
        path, _ = case
        assert path.to_csv() == csv_text(path)

    def test_csv_rejects_missing_header(self):
        with pytest.raises(DomainError):
            path_from_csv("0,1\n0.5,2\n")


class TestStateSpace:
    def test_conjugate_exponents(self):
        space = StateSpace(dim=3, p_exp=3.0)
        assert space.q_exp == pytest.approx(1.5)

    def test_embedding_constant_one(self):
        rng = np.random.default_rng(2)
        for p in (2.0, 3.0, 4.0):
            space = StateSpace(dim=4, p_exp=p)
            for _ in range(200):
                v = rng.standard_normal(4) * rng.choice([0.01, 1.0, 100.0])
                assert norm_h(v) <= space.norm_v(v) * (1.0 + 1e-12)

    def test_duality_pairing_is_euclidean(self):
        space = StateSpace(dim=3, p_exp=2.0)
        h, v = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
        assert pairing(h, v) == pytest.approx(float(h @ v))

    def test_dual_norm_is_operator_norm(self):
        # sup <h, v> / ||v||_V over random v should approach the closed form
        rng = np.random.default_rng(9)
        space = StateSpace(dim=3, p_exp=3.0)
        h = rng.standard_normal(3)
        best = 0.0
        for _ in range(4000):
            v = rng.standard_normal(3)
            best = max(best, abs(pairing(h, v)) / space.norm_v(v))
        assert best <= space.dual_norm(h) * (1.0 + 1e-9)
        assert best >= space.dual_norm(h) * 0.95

    def test_weight_floor_enforced(self):
        # every weight sits at the floor dim^(p/2-1); there is no knob to lower it
        assert StateSpace(dim=4, p_exp=4.0).weights.tolist() == [4.0] * 4
        with pytest.raises(TypeError):
            StateSpace(dim=4, p_exp=4.0, v_weights=(1.0, 1.0, 1.0, 1.0))
