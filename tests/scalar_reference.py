"""The scalar implicit-Euler step that _implicit_step_batch replaced, kept
verbatim as the reference its lanes are checked against.

It reads NEWTON_MAX_ITER from pdhj.evolution at call time, so a test that
monkeypatches the limit changes the batch and the reference alike.
"""

import numpy as np

from pdhj import evolution
from pdhj.errors import SolverError
from pdhj.evolution import OperatorSpec, _bisect_step


def _implicit_step(op: OperatorSpec, t_next: float, dt: float, target: np.ndarray,
                   guess: np.ndarray, tol: float, step_index: int):
    """Solve g(xi) = xi + dt*A(t_next, xi) - target = 0; returns (xi, iterations, |g|)."""

    def g(xi):
        return xi + dt * op(t_next, xi) - target

    dim = len(target)
    xi = guess.astype(float).copy()
    gx = g(xi)
    iters = 0
    for _ in range(evolution.NEWTON_MAX_ITER):
        res = float(np.linalg.norm(gx))
        if res <= tol:
            return xi, iters, res
        iters += 1
        jac = np.eye(dim)
        fd = 1e-7 * (1.0 + float(np.linalg.norm(xi)))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = fd
            jac[:, j] = (g(xi + e) - gx) / fd
        try:
            step = np.linalg.solve(jac, -gx)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while lam >= 1e-6:
            trial = xi + lam * step
            gt = g(trial)
            if np.linalg.norm(gt) <= (1.0 - 0.25 * lam) * res:
                xi, gx = trial, gt
                break
            lam *= 0.5
        else:
            break
    # damped Newton stalled; safeguarded fallback
    if dim == 1:
        return _bisect_step(g, target, tol, step_index, iters)
    xi = guess.astype(float).copy()
    tau = 0.5
    for _ in range(4000):
        gx = g(xi)
        res = float(np.linalg.norm(gx))
        if res <= tol:
            return xi, iters, res
        trial = xi - tau * gx
        if np.linalg.norm(g(trial)) < res:
            xi = trial
        else:
            tau *= 0.5
            if tau < 1e-12:
                break
    raise SolverError(f"implicit step failed to converge at step {step_index}", step_index)
