"""The checks-path kernels against the code they replaced, bit for bit: the
dimension-1 Newton step against np.linalg.solve, the pre-drawn tube windows
against the one-point draw per step, the array form of audit_hypotheses
against its one-sample loop; and the Generator equivalences the samplers
rely on, so that a numpy upgrade that breaks one fails here instead of
moving results."""

import numpy as np
import pytest

from pdhj import evolution, minimax
from pdhj.errors import AuditError, DomainError
from pdhj.evolution import OperatorSpec, _ball_points, _implicit_step_batch, _newton_steps, \
    _tube_draws, audit_hypotheses, build_p_laplacian, make_linear_operator, sample_reachable_set
from pdhj.game import StateLattice, dp_value, isaacs_game
from pdhj.minimax import Site, site_checks
from pdhj.pathcore import Path, StateSpace, TimeGrid
from scalar_reference import _ball_point, _sample_reference, audit_hypotheses_reference, \
    newton_steps_solve

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
