"""The kernels against the code they replaced, bit for bit: the
dimension-1 row kernels against the stacked product and the axis
reductions, the dimension-1 Newton step against np.linalg.solve and the
scalar step, the pre-drawn tube windows against the one-point draw per
step, the seeding pass of the keyed streams against PCG64(SeedSequence(key)),
the per-row table reads against one read per row, the batched histories
against one extend_history per path, the array form of audit_hypotheses
against its one-sample loop; and the Generator equivalences the samplers
rely on, so that a numpy upgrade that breaks one fails here instead of
moving results."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from pdhj import evolution, minimax
from pdhj.errors import AuditError, DomainError, EvaluationError, LatticeCoverageError
from pdhj.evolution import OperatorSpec, _ball_points, _implicit_step_batch, _keyed_streams, \
    _newton_steps, _pcg64_seeds, _tube_draws, audit_hypotheses, build_p_laplacian, \
    make_linear_operator, sample_reachable_set
from pdhj.game import ControlGrid, GameSpec, StateLattice, ValueTable, adversary_pool, \
    dp_value, isaacs_game
from pdhj.minimax import Site, site_checks
from pdhj.pathcore import Path, StateSpace, TimeGrid, _row_dots, _row_norms, _sum_sq, \
    extend_histories, extend_history, history_reads
from scalar_reference import _ball_point, _implicit_step, _sample_reference, \
    audit_hypotheses_reference, newton_steps_solve

N_DRAWS = 10_000


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# Generator equivalences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seq", [(0.05, 0.5, 1.0, 5.0), (0.3, 1.0, 2.0), (0.5, 2.0),
                                 np.linspace(0.0, 1.0, 9)], ids=["4", "3", "2", "nodes"])
def test_choice_is_an_integers_index(seq):
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    want = [a.choice(seq) for _ in range(N_DRAWS)]
    got = [seq[b.integers(0, len(seq))] for _ in range(N_DRAWS)]
    assert _bits(got) == _bits(want)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("call", [lambda rng: rng.uniform(), lambda rng: rng.uniform(0.0, 1.0)],
                         ids=["uniform()", "uniform(0.0, 1.0)"])
def test_uniform_is_random(call):
    a, b = np.random.default_rng(12), np.random.default_rng(12)
    want = [call(a) for _ in range(N_DRAWS)]
    got = [b.random() for _ in range(N_DRAWS)]
    assert _bits(got) == _bits(want)
    assert a.bit_generator.state == b.bit_generator.state


def test_scalar_standard_normal_is_the_one_element_draw():
    # _tube_draws draws a dimension-1 direction as a float
    a, b = np.random.default_rng(13), np.random.default_rng(13)
    want = [a.standard_normal(1)[0] for _ in range(N_DRAWS)]
    got = [b.standard_normal() for _ in range(N_DRAWS)]
    assert _bits(got) == _bits(want)
    assert a.bit_generator.state == b.bit_generator.state


# ---------------------------------------------------------------------------
# the dimension-1 row kernels
# ---------------------------------------------------------------------------

ROW_SPECIAL = (0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
               2.2e-308, 1e200, -1e200, 1e-200, -1e-200)


def _stacked_dots(X, y):
    """The general form of _row_dots: a stack of (1, d) @ (d, 1) products."""
    return (X[..., None, :] @ y[..., :, None])[..., 0, 0]


def _row_stacks():
    """(X, y) pairs of dimension 1: every pair of ROW_SPECIAL, and stacks of
    1, 2 and 10,000 rows, 2-D to 5-D, with special values strewn in, each
    against y of X's shape, y broadcast over the leading axis, and y (1,)."""
    x, y = (a.reshape(-1, 1) for a in np.meshgrid(ROW_SPECIAL, ROW_SPECIAL))
    yield x, y
    rng = np.random.default_rng(30)
    for shape in [(1, 1), (2, 1), (10_000, 1), (3, 4, 1), (2, 3, 5, 1), (2, 2, 3, 4, 1)]:
        X = rng.standard_normal(shape) * np.exp(rng.uniform(-300.0, 300.0, shape))
        X.flat[rng.integers(0, X.size, X.size // 4 + 1)] = rng.choice(ROW_SPECIAL, X.size // 4 + 1)
        for y in (X[::-1].copy(), X[0], np.array([-0.0]), np.array([np.inf])):
            yield X, y


def test_dimension_1_row_dots_are_the_stacked_product():
    with np.errstate(all="ignore"):
        for X, y in _row_stacks():
            want = _stacked_dots(X, y)
            got = _row_dots(X, y)
            assert got.shape == want.shape and _bits(got) == _bits(want)
            assert _bits(_row_dots(X, X)) == _bits(_stacked_dots(X, X))


def test_dimension_1_row_norms_and_squares_are_the_general_forms():
    # _row_norms is also _lockstep_solve's node norm in dimension 1, there
    # replacing np.linalg.norm over the coordinates
    with np.errstate(all="ignore"):
        for X, _ in _row_stacks():
            norms = _row_norms(X)
            assert _bits(norms) == _bits(np.sqrt(_stacked_dots(X, X)))
            assert _bits(norms) == _bits(np.linalg.norm(X, axis=-1))
            assert _bits(_sum_sq(X)) == _bits(np.sum(X ** 2, axis=-1))


def test_other_dimensions_take_the_general_forms():
    rng = np.random.default_rng(31)
    X, y = rng.standard_normal((50, 3)), rng.standard_normal(3)
    assert _bits(_row_dots(X, y)) == _bits(_stacked_dots(X, y))
    assert _bits(_sum_sq(X)) == _bits(np.sum(X ** 2, axis=-1))
    # last axes that differ are refused, as the stacked product refuses them
    for a, b in ((np.ones((3, 1)), np.ones((3, 2))), (np.ones((3, 2)), np.ones(1))):
        with pytest.raises(ValueError):
            _row_dots(a, b)


def test_an_invalid_dimension_1_product_still_raises():
    # inf * 0: the stacked product raised naming matmul; the one product names multiply
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError, match="invalid value encountered in multiply"):
            _row_dots(np.array([[np.inf]]), np.array([[0.0]]))
        with pytest.raises(FloatingPointError, match="invalid value encountered in matmul"):
            _row_dots(np.array([[np.inf, 1.0]]), np.array([[0.0, 1.0]]))


def test_dimension_1_coverage_margins_are_the_general_form():
    lattice = StateLattice(lo=(-1.0,), hi=(0.6,), shape=(5,))
    with np.errstate(all="ignore"):
        for X, _ in _row_stacks():
            states = X.reshape(-1, 1)
            want = np.maximum(np.max(np.maximum(states - np.asarray(lattice.hi),
                                                np.asarray(lattice.lo) - states), axis=1), 0.0)
            want[np.isnan(want)] = np.inf
            assert _bits(lattice.coverage_margins(states)) == _bits(want)
    # two coordinates against a 1-D lattice still take the general form
    states = np.array([[0.0, 2.0], [-3.0, 0.0]])
    assert lattice.coverage_margins(states).tolist() == [2.0 - 0.6, 2.0]


@pytest.mark.parametrize("played", [False, True], ids=["full-grid", "played"])
def test_dimension_1_finiteness_check_is_the_general_form(played):
    # stage terms with non-finite drifts and costs strewn in: the first entry
    # the general check flags, the drift before the cost, is the one named
    rng = np.random.default_rng(32)
    controls = ControlGrid((-1.0, 0.0, 1.0), (-1.0, 1.0))
    for trial in range(40):
        drift = rng.standard_normal((4, 3, 2, 1))
        cost = rng.standard_normal((4, 3, 2))
        drift.flat[rng.integers(0, drift.size, 2)] = rng.choice([np.nan, np.inf, -np.inf], 2)
        cost.flat[rng.integers(0, cost.size, 1)] = rng.choice([np.nan, np.inf, 1.0])
        spec = GameSpec(op=make_linear_operator(1), controls=controls, l_f=1.0, lambda_L=0.1,
                        stage=lambda t, states, path_of, P, Q: (drift, cost),
                        terminal=lambda states, path_of: np.zeros(len(states)))
        index = (np.array([3, 0, 2, 1]), np.array([2, 0, 1, 1]), np.array([1, 1, 0, 0])) \
            if played else None
        d, c = (drift[index], cost[index]) if played else (drift, cost)
        bad_drift = ~np.isfinite(d).all(axis=-1)
        bad = (bad_drift | ~np.isfinite(c)).ravel()
        if not bad.any():
            spec.lane_terms(0.5, np.zeros((4, 1)), None, index)
            continue
        first = int(np.argmax(bad))
        entry = [i[first] for i in index] if played else np.unravel_index(first, c.shape)
        term = "drift" if bad_drift.ravel()[first] else "running cost"
        with pytest.raises(EvaluationError) as err:
            spec.lane_terms(0.5, np.zeros((4, 1)), None, index)
        assert str(err.value) == (f"non-finite {term} at t=0.5, p={controls.p_points[entry[1]]!r}, "
                                  f"q={controls.q_points[entry[2]]!r}")


# ---------------------------------------------------------------------------
# the dimension-1 Newton step
# ---------------------------------------------------------------------------

SPECIAL = (0.0, -0.0, 1.0, -2.5, 1e-300, -5e-324, 1e300, -1e-10, np.inf, -np.inf, np.nan)


def _assert_same_steps(jac, gx):
    got_step, got_ok = _newton_steps(jac, gx)
    want_step, want_ok = newton_steps_solve(jac, gx)
    assert got_ok.tolist() == want_ok.tolist()
    assert _bits(got_step[got_ok]) == _bits(want_step[want_ok])
    return got_ok


def test_dimension_1_step_is_the_solve_on_special_values():
    # J = 0 (either sign) is singular; g and J both infinite is not (both
    # give NaN); 1e300 / 1e-300 overflows to inf in both
    g, J = (a.ravel() for a in np.meshgrid(SPECIAL, SPECIAL))
    ok = _assert_same_steps(J[:, None, None], g[:, None])
    assert ok.tolist() == (J != 0.0).tolist()
    step = _newton_steps(J[:, None, None], g[:, None])[0][:, 0]
    assert np.isnan(step[np.isinf(g) & np.isinf(J)]).all()
    assert np.isinf(step[(g == 1e300) & (J == 1e-300)]).all()


def test_dimension_1_step_is_the_solve_on_random_rows():
    # no row is singular, so the solve takes its one batched call
    rng = np.random.default_rng(14)
    g = rng.standard_normal(200_000) * np.exp(rng.uniform(-30.0, 30.0, 200_000))
    J = rng.standard_normal(200_000) * np.exp(rng.uniform(-30.0, 30.0, 200_000))
    assert _assert_same_steps(J[:, None, None], g[:, None]).all()


def _marked_operator():
    """A(t, v) chosen by each row's time: t = 1 is flat where v <= 1 (with
    dt = 1, g is constant there, so J = 0 at a guess of 0.5); t = 1.5 is -inf
    below 0.25 and +inf up to 0.5 (g = -inf and J = +inf at a guess just
    below 0.25); any other t is 2 v.  Both marked rows stall and bisect to
    a root, 1.5 and 0.75."""
    def eval_fn(t, v):
        t = np.broadcast_to(t, v.shape)
        flat = np.where(v <= 1.0, -v, v - 2.0)
        spiky = np.where(v < 0.25, -np.inf, np.where(v < 0.5, np.inf, v - 0.5))
        return np.select([t == 1.0, t == 1.5], [flat, spiky], 2.0 * v)
    return OperatorSpec(space=StateSpace(dim=1), eval_fn=eval_fn, c1=2.0, c2=1.0)


@pytest.mark.parametrize("marked", [False, True])
def test_dimension_1_kernel_is_the_solve_path(marked, monkeypatch):
    op = _marked_operator()
    rng = np.random.default_rng(15)
    targets, guesses = rng.standard_normal((12, 1)), rng.standard_normal((12, 1))
    if marked:  # rows 3 and 8: J = 0, and g and J infinite
        t_next, dt, step = np.full(12, 0.5), np.full(12, 0.125), np.arange(12)
        t_next[[3, 8]], dt[[3, 8]] = (1.0, 1.5), 1.0
        targets[[3, 8]], guesses[[3, 8]] = 1.0, [[0.5], [0.25 - 1e-9]]
    else:  # a shared time and step stay scalars
        t_next, dt, step = 0.5, 0.125, 4
    tols = 1e-11 * (1.0 + np.abs(guesses[:, 0]))
    bisected = []
    real = evolution._bisect_step

    def counted(g, target, tol, step_index, iters):
        bisected.append(step_index)
        return real(g, target, tol, step_index, iters)

    monkeypatch.setattr(evolution, "_bisect_step", counted)
    got = _implicit_step_batch(op, t_next, dt, targets, guesses, tols, step)
    monkeypatch.setattr(evolution, "_newton_steps", newton_steps_solve)
    want = _implicit_step_batch(op, t_next, dt, targets, guesses, tols, step)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    if marked:
        assert bisected == [3, 8, 3, 8]  # the marked rows fell back, in both kernels
        assert got[0][[3, 8], 0].tolist() == [1.5, 0.75]
    else:
        assert bisected == []


def _cubic():
    """A(t, v) = v^3 (t ignored): with dt = 1, the full Newton step from a
    guess of 0 to a target c > 1 lands near c, where |g| is about c^3, so
    the line search rejects lambda = 1 and halves."""
    return OperatorSpec(space=StateSpace(dim=1), eval_fn=lambda t, v: v * v * v, c1=1.0, c2=1.0)


def _full_step_rejected(op, t_next, dt, targets, guesses):
    """Whether each row's first Newton step fails the test at lambda = 1,
    by the scalar step's own arithmetic."""
    def g(x):
        return x + dt * op.batch(t_next, x) - targets
    gx = g(guesses)
    fd = 1e-7 * (1.0 + np.abs(guesses))
    step = -gx / ((g(guesses + fd) - gx) / fd)
    return np.abs(g(guesses + step))[:, 0] > 0.75 * np.abs(gx)[:, 0]


@pytest.mark.parametrize("times", ["shared", "per-row"])
def test_dimension_1_kernel_is_the_scalar_step_when_full_steps_fail(times):
    # rows that reject lambda = 1 beside rows that take it, and a row already
    # at its root (it leaves the live set before the first step)
    op = _cubic()
    rng = np.random.default_rng(33)
    targets = np.concatenate([rng.uniform(1.5, 40.0, 10), rng.uniform(-0.5, 0.5, 9), [0.0]])
    targets = targets[rng.permutation(20)][:, None]
    guesses = np.where(targets == 0.0, 0.0, 0.1 * rng.standard_normal((20, 1)))
    tols = 1e-11 * (1.0 + np.abs(guesses[:, 0]))
    if times == "shared":
        t_next, dt, step = 0.5, 1.0, 7
        rows_t, rows_dt, rows_k = [t_next] * 20, [dt] * 20, [step] * 20
    else:
        t_next, dt, step = rng.uniform(0.0, 1.0, 20), rng.uniform(0.5, 1.5, 20), np.arange(20)
        rows_t, rows_dt, rows_k = t_next, dt, step
    rejected = _full_step_rejected(op, 0.5, np.asarray(rows_dt, dtype=float)[:, None], targets,
                                   guesses)
    assert 0 < rejected.sum() < 20
    xi, iters, res = _implicit_step_batch(op, t_next, dt, targets, guesses, tols, step)
    for n in range(20):
        want = _implicit_step(op, float(rows_t[n]), float(rows_dt[n]), targets[n], guesses[n],
                              float(tols[n]), int(rows_k[n]))
        assert xi[n].tobytes() == want[0].tobytes()
        assert (iters[n], res[n]) == want[1:]
    # every row rejecting lambda = 1
    far = np.linspace(2.0, 30.0, 6)[:, None]
    xi, iters, res = _implicit_step_batch(op, 0.5, 1.0, far, np.zeros((6, 1)), 1e-11, 3)
    assert _full_step_rejected(op, 0.5, 1.0, far, np.zeros((6, 1))).all()
    for n in range(6):
        want = _implicit_step(op, 0.5, 1.0, far[n], np.zeros(1), 1e-11, 3)
        assert xi[n].tobytes() == want[0].tobytes() and (iters[n], res[n]) == want[1:]


# ---------------------------------------------------------------------------
# the pre-drawn tube windows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tube_window_is_the_one_point_draw_per_step(dim):
    # windows of 5, 1 and 3 steps, a lane with L = 0 and a lane with no stream
    keys = [[7, 0], [7, 1], [7, 2], [8, 0], None]
    steps = np.array([5, 1, 3, 4, 5])
    L = np.array([1.0, 0.5, 2.0, 0.0, 1.0])
    draws = _tube_draws(keys, steps, dim, L)
    streams = [np.random.default_rng(key) for key in keys[:4]]
    radii_rng = np.random.default_rng(dim)
    for j in range(steps.max()):
        lanes = np.array([n for n in range(4) if j < steps[n]])
        radii = L[lanes] * (1.0 + radii_rng.uniform(0.0, 3.0, len(lanes)))
        got = _ball_points(draws, lanes, np.full(len(lanes), j), radii)
        for i, n in enumerate(lanes):
            assert got[i].tobytes() == _ball_point(streams[n], dim, radii[i]).tobytes()
    assert not draws[2][3].any() and not draws[2][4].any()  # L = 0, and no stream: no draw
    assert not draws[2][1, 1:].any()  # past a window: no draw


@pytest.mark.parametrize("L, n_steps", [(0.0, 6), (1.0, 1), (0.7, 6)])
def test_samples_are_the_sequential_solves(L, n_steps):
    grid = TimeGrid(0.0, 1.0, n_steps)
    hist = Path.constant(grid, [0.3, -0.4])
    op = make_linear_operator(dim=2)
    for rep, want in zip(sample_reachable_set(op, 0.0, hist, 5, 3, lipschitz_L=L),
                         _sample_reference(op, 0.0, hist, 5, 3, lipschitz_L=L)):
        assert rep.path.values.tobytes() == want.path.values.tobytes()
        assert rep.forcing_trace.tobytes() == want.forcing_trace.tobytes()


class _ZeroNormals:
    """A generator whose standard_normal gives the zero direction at the
    draws (counted from 0) that zero_at holds, counting the uniforms taken."""

    def __init__(self, rng, zero_at):
        self.rng, self.zero_at, self.normals, self.uniforms = rng, zero_at, 0, 0

    def standard_normal(self, size=None):
        drawn = self.rng.standard_normal(size)
        self.normals += 1
        if self.normals - 1 in self.zero_at:
            return 0.0 if size is None else np.zeros(size)
        return drawn

    def random(self):
        self.uniforms += 1
        return self.rng.random()

    def uniform(self):  # the reference's call
        self.uniforms += 1
        return self.rng.uniform()


@pytest.mark.parametrize("dim", [1, 2])
def test_a_zero_direction_takes_no_uniform(dim, monkeypatch):
    # lane 0's second direction is zero, lane 1's first and third: those
    # steps draw the zero point and no uniform, as the one-point draw does
    keys, steps, zero_at = [[3, 0], [3, 1]], [4, 3], ({1}, {0, 2})
    made, keyed = [], evolution._keyed_streams

    def patched(keys):
        for n, rng in enumerate(keyed(keys)):
            made.append(_ZeroNormals(rng, zero_at[n]))
            yield made[-1]

    monkeypatch.setattr(evolution, "_keyed_streams", patched)
    draws = _tube_draws(keys, steps, dim, np.ones(2))
    refs = [_ZeroNormals(np.random.default_rng(key), zeros) for key, zeros in zip(keys, zero_at)]
    for n, ref in enumerate(refs):
        for j in range(steps[n]):
            got = _ball_points(draws, np.array([n]), np.array([j]), np.array([1.5]))[0]
            assert got.tobytes() == _ball_point(ref, dim, 1.5).tobytes()
    assert [gen.uniforms for gen in made] == [ref.uniforms for ref in refs] == [3, 1]
    assert draws[2].tolist() == [[True, False, True, True], [False, True, False, False]]


# ---------------------------------------------------------------------------
# the keyed streams
# ---------------------------------------------------------------------------

EDGE_SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5)


def _stream_keys() -> list:
    """Over 10,000 keys: [seed, i] pairs and plain integers, with the edge
    values of the words SeedSequence splits an integer into, and keys of
    more than four 32-bit words (SeedSequence's extra mixing loop)."""
    rng = np.random.default_rng(16)
    keys = [[seed, i] for seed in EDGE_SEEDS + (7, 12345) for i in range(1_300)]
    keys += [[i, seed] for i in (0, 3) for seed in EDGE_SEEDS]
    keys += list(EDGE_SEEDS) + list(range(1_000)) + rng.integers(0, 2 ** 63, 1_000).tolist()
    keys += [rng.integers(0, 2 ** 32, n).tolist() for n in (5, 6, 7, 9) for _ in range(50)]
    keys += [2 ** 200 + 7, [2 ** 64 + 5, 2 ** 96, 3], [2 ** 32 - 1] * 6,
             [np.int64(3), np.uint32(7)], np.uint64(2 ** 63)]
    return keys


def test_seeding_pass_is_seed_sequence():
    keys = _stream_keys()
    assert len(keys) >= N_DRAWS
    assert sum(isinstance(key, list) and len(key) > 4 for key in keys) > 200
    want = [(state["state"]["state"], state["state"]["inc"]) for state in
            (np.random.PCG64(np.random.SeedSequence(key)).state for key in keys)]
    assert list(_pcg64_seeds(keys)) == want


def test_keyed_streams_draw_as_default_rng():
    keys = [[5, i] for i in range(40)] + list(EDGE_SEEDS) + [[2 ** 64 + 5, 1, 2, 3, 4]]
    for key, rng in zip(keys, _keyed_streams(keys)):
        fresh = np.random.default_rng(key)
        # a normal, a uniform, and a uint32 half left over for the next key to drop
        got, want = ([gen.standard_normal(3), gen.random(), gen.integers(5, size=3)]
                     for gen in (rng, fresh))
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert rng.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize("n_q,budget,seed,cells", [
    (3, 12, 0, 16), (2, 9, 2 ** 32 - 1, 5), (4, 7, 2 ** 64 + 5, 3), (3, 3, 1, 4)])
def test_adversary_pool_columns_are_default_rng(n_q, budget, seed, cells):
    labels, q = adversary_pool(n_q, budget, seed, cells)
    assert q.shape == (cells, budget)
    randoms = range(budget - n_q - 1)
    assert labels[n_q + 1:] == [f"random[{seed + i}]" for i in randoms]
    for i in randoms:
        want = np.random.default_rng(seed + i).integers(n_q, size=cells)
        assert q[:, n_q + 1 + i].tobytes() == want.tobytes()


def _no_solve(*args, **kwargs):
    raise AssertionError("a lane solve started")


def test_negative_sample_seed_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(evolution, "_lockstep_solve", _no_solve)
    hist = Path.constant(TimeGrid(0.0, 1.0, 4), [0.3])
    with pytest.raises(DomainError, match=r"^seed must be >= 0, got -3$"):
        sample_reachable_set(make_linear_operator(), 0.0, hist, 4, -3, lipschitz_L=1.0)


def test_negative_check_seed_is_refused_before_any_work(monkeypatch):
    spec, grid = isaacs_game(), TimeGrid(0.0, 1.0, 8)
    table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(17,)))
    monkeypatch.setattr(minimax, "_lockstep_solve", _no_solve)
    site = Site(grid.nodes[2], Path.constant(grid, [0.2]), [1.0], (("sub", 4), ("super", -3)))
    with pytest.raises(DomainError, match=r"^site 1: check seed -3 must be >= 0$"):
        site_checks(table, spec, [site._replace(checks=(("scan", 0),)), site], 0.25, 16)


# ---------------------------------------------------------------------------
# the batched histories
# ---------------------------------------------------------------------------

def _history_one_read_per_node(x0: Path, grid: TimeGrid, t0: float) -> np.ndarray:
    """extend_history's values by one x0.value_at call per node."""
    past = grid.nodes <= t0 + 1e-12
    vals = np.empty((grid.n_steps + 1, x0.dim))
    vals[past] = [x0.value_at(t) for t in grid.nodes[past]]
    vals[~past] = x0.value_at(min(t0, x0.grid.t_end))
    return vals


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_histories_are_the_reads_node_by_node(dim):
    # x0 on coarser, finer and non-uniform grids, some spanning less than the
    # target grid, signed zeros among the values, and t0 on and off the nodes
    rng = np.random.default_rng(34)
    grids = [TimeGrid(0.0, 1.0, 8), TimeGrid(0.0, 0.75, 6), TimeGrid.from_nodes([0.0, 0.3, 1.0])]
    cases = []
    for x0_grid in (TimeGrid(0.0, 1.0, 3), TimeGrid(0.0, 1.0, 32),
                    TimeGrid.from_nodes([0.0, 0.1, 0.45, 0.5]), TimeGrid(-0.5, 1.5, 7)):
        values = rng.standard_normal((x0_grid.n_steps + 1, dim))
        values[rng.integers(0, len(values))] = -0.0
        x0 = Path(x0_grid, values)
        for grid in grids:
            for t0 in (0.0, grid.nodes[1], 0.3, 0.45 + 1e-13, grid.t_end):
                if t0 <= x0.grid.t_end and t0 <= grid.t_end:
                    cases.append((x0, grid, t0))
    x0s, grids_of, t0s = zip(*cases)
    reads = [history_reads(x0, grid, t0) for x0, grid, t0 in cases]
    got = extend_histories(list(x0s), grids_of, reads)
    for hist, (x0, grid, t0) in zip(got, cases):
        want = _history_one_read_per_node(x0, grid, t0)
        assert hist.grid is grid and hist.values.tobytes() == want.tobytes()
        assert extend_history(x0, grid, t0).values.tobytes() == want.tobytes()


def test_batched_histories_hold_one_bisect_at_a_time_on_a_fine_grid():
    # one history on a 2048-step grid fills the read bound, so twelve read one
    # at a time and peak near one history's memory (one read of all twelve
    # would hold twelve times its bisect)
    grid = TimeGrid(0.0, 1.0, 2048)
    x0 = Path.constant(grid, [0.5])

    def peak(n):
        reads = [history_reads(x0, grid, grid.t_end)] * n
        tracemalloc.start()
        try:
            extend_histories([x0] * n, [grid] * n, reads)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12) <= 2 * peak(1)


def test_a_history_outside_its_path_is_refused_as_value_at_refuses():
    x0 = Path.constant(TimeGrid(0.25, 0.75, 4), [0.5])
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(DomainError, match=r"^t=0.125 outside grid span \[0.25, 0.75\]$"):
        extend_history(x0, grid, 0.125)  # the frozen value's time first
    with pytest.raises(DomainError, match=r"^t=0.0 outside grid span \[0.25, 0.75\]$"):
        extend_history(x0, grid, 0.5)  # then the first node before x0's start
    with pytest.raises(DomainError, match=r"^t=0.875 outside grid span \[0.0, 0.75\]$"):
        extend_history(Path.constant(TimeGrid(0.0, 0.75, 3), [0.5]), grid, 0.875)


def test_sites_refuse_their_windows_and_histories_site_by_site(monkeypatch):
    # site 1's history leaves its path and site 2's time is no node: site 1's
    # refusal comes first, and without it site 2's, before any table read
    spec, grid = isaacs_game(), TimeGrid(0.0, 1.0, 8)
    table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(17,)))
    monkeypatch.setattr(minimax, "_lockstep_solve", _no_solve)
    monkeypatch.setattr(ValueTable, "interp_batch", _no_solve)
    good = Site(grid.nodes[2], Path.constant(grid, [0.2]), [1.0], (("sub", 4),))
    short = good._replace(x0=Path.constant(TimeGrid(0.125, 1.0, 7), [0.2]))
    off_node = good._replace(t0=0.3)
    with pytest.raises(DomainError, match=r"^t=0.0 outside grid span \[0.125, 1.0\]$"):
        site_checks(table, spec, [good, short, off_node], 0.25, 16)
    with pytest.raises(DomainError, match=r"^t=0.3 is not a grid node$"):
        site_checks(table, spec, [good, off_node, short], 0.25, 16)


# ---------------------------------------------------------------------------
# the operator audit
# ---------------------------------------------------------------------------

OPERATORS = {
    "linear": make_linear_operator(),
    "linear-3d": make_linear_operator(dim=3, gain=2.0),
    "p-laplacian-3": build_p_laplacian(6, 3.0),
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", OPERATORS)
def test_audit_is_the_sample_loop(name, seed):
    op = OPERATORS[name]
    assert repr(audit_hypotheses(op, 200, seed)) == repr(audit_hypotheses_reference(op, 200, seed))


@pytest.mark.parametrize("name", OPERATORS)
def test_audit_raises_the_first_non_finite_sample(name):
    op = OPERATORS[name]
    # infinite wherever a coordinate passes 4: only the scale-5 samples reach it
    blowup = OperatorSpec(space=op.space, c1=op.c1, c2=op.c2,
                          eval_fn=lambda t, v: np.where(np.abs(v) > 4.0, np.inf, op.eval_fn(t, v)))
    errors = []
    for audit in (audit_hypotheses, audit_hypotheses_reference):
        with pytest.raises(AuditError) as err:
            audit(blowup, 200, 0)
        errors.append(err.value)
    got, want = errors
    assert str(got) == str(want) == "non-finite operator output"
    assert got.sample["t"] == want.sample["t"]
    assert got.sample["x"].tobytes() == want.sample["x"].tobytes()
    assert got.sample["y"].tobytes() == want.sample["y"].tobytes()


def test_non_integer_seeds_are_refused_before_any_work(monkeypatch):
    spec, grid = isaacs_game(), TimeGrid(0.0, 1.0, 8)
    table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(17,)))
    for module in (evolution, minimax):
        monkeypatch.setattr(module, "_lockstep_solve", _no_solve)
    monkeypatch.setattr(ValueTable, "interp_batch", _no_solve)  # no site reads its table
    site = Site(grid.nodes[2], Path.constant(grid, [0.2]), [1.0], (("sub", 4), ("sub", 1.5)))
    with pytest.raises(DomainError, match=r"^site 1: check seed 1.5 must be an integer$"):
        site_checks(table, spec, [site._replace(checks=(("scan", 0),)), site], 0.25, 16)
    hist = Path.constant(TimeGrid(0.0, 1.0, 4), [0.3])
    with pytest.raises(DomainError, match=r"^seed must be an integer, got 1.5$"):
        sample_reachable_set(make_linear_operator(), 0.0, hist, 4, 1.5, lipschitz_L=1.0)
    with pytest.raises(DomainError, match=r"^seed must be an integer, got 2.0$"):
        adversary_pool(3, 8, np.float64(2.0), 4)
    with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
        adversary_pool(3, 8, -1, 4)


def test_numpy_integer_seeds_are_accepted():
    hist = Path.constant(TimeGrid(0.0, 1.0, 4), [0.3])
    op = make_linear_operator()
    for got, want in zip(sample_reachable_set(op, 0.0, hist, 3, np.uint16(9), lipschitz_L=1.0),
                         sample_reachable_set(op, 0.0, hist, 3, 9, lipschitz_L=1.0)):
        assert got.path.values.tobytes() == want.path.values.tobytes()
    got, want = adversary_pool(3, 8, np.int32(5), 4), adversary_pool(3, 8, 5, 4)
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    spec, grid = isaacs_game(), TimeGrid(0.0, 1.0, 8)
    table = dp_value(spec, grid, StateLattice(lo=(-2.0,), hi=(2.0,), shape=(17,)))
    site = Site(grid.nodes[2], Path.constant(grid, [0.2]), [1.0], (("sub", np.int64(4)),))
    (got,), = site_checks(table, spec, [site], 0.25, 16)
    (want,), = site_checks(table, spec, [site._replace(checks=(("sub", 4),))], 0.25, 16)
    assert type(got.seed) is np.int64  # the report keeps the seed it was given
    assert repr(dataclasses.replace(got, seed=4)) == repr(want)


# ---------------------------------------------------------------------------
# table reads with one time per row
# ---------------------------------------------------------------------------

def _table(dim: int) -> ValueTable:
    grid = TimeGrid(0.0, 1.0, 8)
    lattice = StateLattice(lo=(-1.0,), hi=(0.6,), shape=(17,)) if dim == 1 \
        else StateLattice(lo=(-1.0, -0.5), hi=(1.0, 0.5), shape=(9, 5))
    rng = np.random.default_rng(17 + dim)
    shape = (grid.n_steps + 1,) + lattice.shape
    return ValueTable(grid=grid, lattice=lattice, v_minus=rng.standard_normal(shape),
                      v_plus=rng.standard_normal(shape))


def _rows(table: ValueTable, n: int, seed: int, pad: float = 0.0):
    """n times, on nodes (some within the node match's tolerance) and off
    them, the grid's ends included, and n states in the lattice box widened
    by pad per side."""
    rng = np.random.default_rng(seed)
    nodes = table.grid.nodes
    times = np.concatenate([nodes[rng.integers(0, len(nodes), n // 2)],
                            rng.uniform(0.0, 1.0, n - n // 2 - 4),
                            [0.0, 1.0, nodes[3] + 1e-12, nodes[5] - 1e-13]])
    lo, hi = np.array(table.lattice.lo) - pad, np.array(table.lattice.hi) + pad
    states = lo + (hi - lo) * rng.uniform(0.0, 1.0, (n, table.lattice.dim))
    states[:4] = [lo, hi, lo, hi]
    return rng.permutation(times), states


@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("dim", [1, 2])
def test_per_row_reads_are_the_row_by_row_reads(dim, side):
    table = _table(dim)
    times, states = _rows(table, 60, dim)
    for rows in (slice(None), np.isin(times, table.grid.nodes)):  # mixed, and all on a node
        got = table.interp_batch(side, times[rows], states[rows])
        want = [table.interp_batch(side, float(t), state[None])[0]
                for t, state in zip(times[rows], states[rows])]
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("dim", [1, 2])
def test_per_row_gradients_are_the_row_by_row_gradients(dim, side):
    # in 1-D, states up to two spacings past the box: some probes clip, and
    # some rows read nothing (a 2-D probe keeps the other coordinate, which
    # must lie in the box)
    table = _table(dim)
    pad = 2.0 * table.lattice.spacing[0] if dim == 1 else 0.0
    times, states = _rows(table, 60, 10 + dim, pad=pad)
    got = table.gradient(side, times, states)
    assert (got == 0.0).any() == (dim == 1)
    for row, t, state in zip(got, times, states):
        assert row.tobytes() == table.gradient(side, float(t), state[None])[0].tobytes()


def test_a_per_row_read_is_refused_as_the_one_time_read():
    # rows 1 and 2 leave the box [-1, 0.6], row 2 by the most; the refusal
    # carries every row's margins, whatever each row's time
    table = _table(1)
    states = np.array([[0.0], [0.7], [-1.3], [0.6]])
    errors = []
    for t in (np.array([0.25, 0.3, 0.5, 1.0]), 0.3):
        with pytest.raises(LatticeCoverageError) as err:
            table.interp_batch("upper", t, states)
        errors.append(err.value)
    got, want = errors
    assert str(got) == str(want) == ("state leaves the lattice by 3.000000e-01; "
                                     "expand bounds by at least that margin")
    assert got.margin == want.margin == table.lattice.coverage_margins(states).max()
    assert got.margins.tobytes() == want.margins.tobytes() \
        == table.lattice.coverage_margins(states).tobytes()
    with pytest.raises(DomainError, match=r"^t=1.5 outside grid span \[0.0, 1.0\]$"):
        table.interp_batch("upper", np.array([0.5, 1.5, -1.0, 0.25]), states)
