"""Per-layer tracer for the pdhj benchmark.

The tracer wraps the public functions and methods of each pdhj module from
outside the package.  A function imported by name (``from .game import
dp_value``) is bound in several module namespaces; the tracer replaces every
binding that is the original object, and restores them all on exit.  A span
wrapper times the call and charges the layer with its self time, the
duration minus the time of the spans it encloses.  A count wrapper only
counts; its time stays with the enclosing span.  A name that no longer exists
is recorded in ``missing`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("game.dp.calls", "count"),
    ("game.dp.cells", "count"),
    ("game.dp.s", "s"),
    ("game.dp.cells_per_s", "1/s"),
    ("game.callbacks", "count"),
    ("game.interp.scalar_calls", "count"),
    ("game.interp.batch_calls", "count"),
    ("game.interp.states", "count"),
    ("game.interp.s", "s"),
    ("game.feedback.games", "count"),
    ("game.feedback.s", "s"),
    ("game.feedback.useful_ratio", "ratio"),
    ("game.companion.calls", "count"),
    ("game.companion.s", "s"),
    ("game.companion.useful_ratio", "ratio"),
    ("game.companion.kind.trace", "count"),
    ("game.companion.kind.probe", "count"),
    ("game.companion.kind.lattice", "count"),
    ("game.companion.kind.library", "count"),
    ("game.hamiltonian.calls", "count"),
    ("game.hamiltonian.s", "s"),
    ("evolution.implicit_steps", "count"),
    ("evolution.newton_iters", "count"),
    ("evolution.step_s", "s"),
    ("evolution.fallbacks", "count"),
    ("evolution.solves", "count"),
    ("evolution.solve_s", "s"),
    ("evolution.tube_samples", "count"),
    ("minimax.residual.calls", "count"),
    ("minimax.residual.s", "s"),
    ("minimax.viscosity.calls", "count"),
    ("minimax.viscosity.s", "s"),
    ("minimax.stability.s", "s"),
    ("pathcore.paths", "count"),
    ("pathcore.path_bytes", "B"),
    ("pathcore.grid_nodes", "count"),
    ("pathcore.value_at.calls", "count"),
    ("upsilon.battery.s", "s"),
    ("upsilon.evals", "count"),
    ("upsilon.lyapunov.calls", "count"),
    ("cli.validate_s", "s"),
    ("cli.self_s", "s"),
    ("cli.result_bytes", "B"),
    ("cli.result_identical", "bool"),
    ("trace.overhead_s", "s"),
)

COMPANION_KINDS = ("trace", "probe", "lattice", "library")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Counters and self-time spans for one traced iteration."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.missing = []
        self._stack = []
        self._undo = []
        self._scalar_depth = 0
        self._companion_keys = set()
        self._game_keys = set()

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer, fn, before=None, after=None):
        stack, self_s, total_s = self._stack, self.self_s, self.total_s
        counts, calls = self.counts, layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self_s[layer] += dt - stack.pop()
                total_s[layer] += dt
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def _count(self, key, fn, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    # -- binding -------------------------------------------------------------

    def _patch_function(self, module: str, name: str, make):
        mod = sys.modules.get(module)
        orig = getattr(mod, name, None) if mod is not None else None
        if orig is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapped = make(orig)
        for m in list(sys.modules.values()):
            mname = getattr(m, "__name__", "")
            if mname != "pdhj" and not mname.startswith("pdhj."):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, orig))

    def _patch_method(self, cls, name: str, make):
        orig = cls.__dict__.get(name)
        if orig is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{name}")
            return
        if isinstance(orig, property):
            wrapped = property(make(orig.fget), orig.fset, orig.fdel, orig.__doc__)
        else:
            wrapped = make(orig)
        setattr(cls, name, wrapped)
        self._undo.append((cls, name, orig))

    # -- hooks (they read raw attributes only, so they perturb no count) ---------

    def _dp_cells(self, args, kwargs):
        spec = _arg(args, kwargs, 0, "spec")
        grid = _arg(args, kwargs, 1, "grid")
        lattice = _arg(args, kwargs, 2, "lattice")
        cells = int(np.prod(lattice.shape)) * spec.controls.n_p * spec.controls.n_q
        self.counts["game.dp.cells"] += cells * grid.n_steps

    def _scalar_interp(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["game.interp.scalar_calls"] += 1
            self.counts["game.interp.states"] += 1
            self._scalar_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._scalar_depth -= 1
        return wrapper

    def _batch_interp(self, fn):
        timed = self._span("game.interp", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._scalar_depth:  # inside a scalar call, already timed and counted
                return fn(*args, **kwargs)
            states = np.atleast_2d(np.asarray(_arg(args, kwargs, 2, "states")))
            self.counts["game.interp.batch_calls"] += 1
            self.counts["game.interp.states"] += states.shape[0]
            return timed(*args, **kwargs)
        return wrapper

    def _game_played(self, args, kwargs, trace):
        part = trace.partition
        self._game_keys.add((part.t_start, part.t_end, part.n_steps,
                             part.explicit_nodes, trace.p_indices, trace.q_indices))
        for rec in trace.step_records:
            self.counts["game.companion.kind." + rec["companion_kind"]] += 1

    def _companion_call(self, args, kwargs):
        strategy, t, x = args[0], float(_arg(args, kwargs, 1, "t")), _arg(args, kwargs, 2, "x")
        self._companion_keys.add((id(strategy), t, x.values.tobytes()))

    def _newton(self, args, kwargs, out):
        self.counts["evolution.newton_iters"] += int(out[1])

    def _tube(self, args, kwargs, out):
        self.counts["evolution.tube_samples"] += int(_arg(args, kwargs, 3, "count"))

    def _path_bytes(self, args, kwargs, out):
        self.counts["pathcore.path_bytes"] += args[0].values.nbytes

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every measured name; pdhj must already be imported."""
        import pdhj.cli  # noqa: F401  (loads every pdhj module)

        # the package re-exports a function named upsilon, so go by module name
        game, pathcore, upsilon = (sys.modules["pdhj." + name]
                                   for name in ("game", "pathcore", "upsilon"))

        span, count, fn = self._span, self._count, self._patch_function
        fn("pdhj.cli", "run", lambda f: span("cli", f))
        fn("pdhj.cli", "validate_config", lambda f: span("cli.validate", f))
        fn("pdhj.game", "dp_value", lambda f: span("game.dp", f, before=self._dp_cells))
        fn("pdhj.game", "hamiltonian", lambda f: span("game.hamiltonian", f))
        fn("pdhj.game", "run_feedback_game",
           lambda f: span("game.feedback", f, after=self._game_played))
        fn("pdhj.evolution", "_implicit_step",
           lambda f: span("evolution.step", f, after=self._newton))
        fn("pdhj.evolution", "_bisect_step", lambda f: count("evolution.fallbacks", f))
        fn("pdhj.evolution", "solve_delay_evolution", lambda f: span("evolution.solve", f))
        fn("pdhj.evolution", "sample_reachable_set",
           lambda f: count("evolution.sample_calls", f, after=self._tube))
        fn("pdhj.minimax", "minimax_residual", lambda f: span("minimax.residual", f))
        fn("pdhj.minimax", "viscosity_scan", lambda f: span("minimax.viscosity", f))
        fn("pdhj.minimax", "stability_experiment", lambda f: span("minimax.stability", f))
        fn("pdhj.upsilon", "property_battery", lambda f: span("upsilon.battery", f))
        for name in ("upsilon", "penalty_psi", "lyapunov_nu"):
            fn("pdhj.upsilon", name, lambda f: count("upsilon.evals", f))

        meth = self._patch_method
        lattice = game.StateLattice
        meth(lattice, "interpolate", lambda f: span("game.interp", self._scalar_interp(f)))
        meth(lattice, "interpolate_batch", self._batch_interp)
        for name in ("select", "shifted_value"):
            meth(game.FeedbackStrategy, name,
                 lambda f: span("game.companion", f, before=self._companion_call))
        for name in ("drift", "stage_cost"):
            meth(game.GameSpec, name, lambda f: count("game.callbacks", f))
        meth(pathcore.Path, "__init__",
             lambda f: count("pathcore.paths", f, after=self._path_bytes))
        meth(pathcore.Path, "value_at", lambda f: count("pathcore.value_at.calls", f))
        meth(pathcore.TimeGrid, "nodes", lambda f: count("pathcore.grid_nodes", f))
        for name in ("alpha", "beta"):
            meth(upsilon.LyapunovParams, name, lambda f: count("upsilon.lyapunov.calls", f))

    def uninstall(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict:
        """Layer metrics of what ran while installed (cli.result_* and
        trace.overhead_s are filled in by the caller)."""
        c, s = self.counts, self.self_s
        dp_total = self.total_s.get("game.dp", 0.0)
        games = c["game.feedback.calls"]
        companion = c["game.companion.calls"]
        out = {
            "game.dp.calls": c["game.dp.calls"],
            "game.dp.cells": c["game.dp.cells"],
            "game.dp.s": s["game.dp"],
            "game.dp.cells_per_s": c["game.dp.cells"] / dp_total if dp_total else 0.0,
            "game.callbacks": c["game.callbacks"],
            "game.interp.scalar_calls": c["game.interp.scalar_calls"],
            "game.interp.batch_calls": c["game.interp.batch_calls"],
            "game.interp.states": c["game.interp.states"],
            "game.interp.s": s["game.interp"],
            "game.feedback.games": games,
            "game.feedback.s": s["game.feedback"],
            "game.feedback.useful_ratio": len(self._game_keys) / games if games else 0.0,
            "game.companion.calls": companion,
            "game.companion.s": s["game.companion"],
            "game.companion.useful_ratio":
                len(self._companion_keys) / companion if companion else 0.0,
            "game.hamiltonian.calls": c["game.hamiltonian.calls"],
            "game.hamiltonian.s": s["game.hamiltonian"],
            "evolution.implicit_steps": c["evolution.step.calls"],
            "evolution.newton_iters": c["evolution.newton_iters"],
            "evolution.step_s": s["evolution.step"],
            "evolution.fallbacks": c["evolution.fallbacks"],
            "evolution.solves": c["evolution.solve.calls"],
            "evolution.solve_s": s["evolution.solve"],
            "evolution.tube_samples": c["evolution.tube_samples"],
            "minimax.residual.calls": c["minimax.residual.calls"],
            "minimax.residual.s": s["minimax.residual"],
            "minimax.viscosity.calls": c["minimax.viscosity.calls"],
            "minimax.viscosity.s": s["minimax.viscosity"],
            "minimax.stability.s": s["minimax.stability"],
            "pathcore.paths": c["pathcore.paths"],
            "pathcore.path_bytes": c["pathcore.path_bytes"],
            "pathcore.grid_nodes": c["pathcore.grid_nodes"],
            "pathcore.value_at.calls": c["pathcore.value_at.calls"],
            "upsilon.battery.s": s["upsilon.battery"],
            "upsilon.evals": c["upsilon.evals"],
            "upsilon.lyapunov.calls": c["upsilon.lyapunov.calls"],
            "cli.validate_s": s["cli.validate"],
            "cli.self_s": s["cli"],
        }
        for kind in COMPANION_KINDS:
            out["game.companion.kind." + kind] = c["game.companion.kind." + kind]
        return out

    def distinct(self) -> dict:
        """The bases of the two useful-work ratios."""
        return {"games": len(self._game_keys), "games_played": self.counts["game.feedback.calls"],
                "companion": len(self._companion_keys),
                "companion_calls": self.counts["game.companion.calls"]}
