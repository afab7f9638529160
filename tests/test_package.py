"""The package namespace: submodules resolve to modules, the scalar
references that live in tests/scalar_reference.py are names of neither the
package nor the modules they came from, and the names and parameters that
were deleted stay deleted."""

import importlib
import inspect
import types

import pytest

import pdhj

MOVED = {
    "pathcore": ("d_infinity", "stop_path", "sup_norm", "_grid_from_nodes"),
    "upsilon": ("upsilon", "penalty_psi", "lyapunov_nu", "_stopped_sup_sq", "UpsilonEval",
                "PenaltyEval", "NuEval"),
    "game": ("calibrate_step_bound", "scale_costs", "measurable_selection",
             "estimate_guaranteed_result"),
}
MOVED_METHODS = {
    ("pathcore", "Path"): ("from_csv", "from_json", "from_json_obj", "to_json", "__sub__"),
    ("pathcore", "StateSpace"): ("norm_h", "pairing"),
    ("upsilon", "LyapunovParams"): ("beta",),
    ("upsilon", "ChainRuleReport"): ("to_json",),
    ("game", "GameSpec"): ("drift", "stage_cost"),
}
# the per-game feedback records, the general-forcing adapter and the knobs
# no caller set, deleted outright
DELETED = {"game": ("StrategyTrace", "play_pools"),
           "evolution": ("solve_delay_lanes", "_lane_forcing", "_control_as_forcing")}
DELETED_METHODS = {("game", "GuaranteeEstimate"): ("from_traces",),
                   ("evolution", "DelayDynamics"): ("forced",),
                   ("pathcore", "Path"): ("zero",)}
DELETED_PARAMETERS = {
    ("evolution", "solve_delay_evolution"): ("dyn", "forcing_algorithm"),
    ("evolution", "sample_reachable_set"): ("dyn",),
    ("game", "FeedbackStrategy"): ("side",),
    ("game", "extremal_shift_strategy"): ("side",),
    ("game", "greedy_adversary"): ("side", "lookahead"),
    ("game", "_GreedyLookahead"): ("side", "lookahead"),
    ("game", "step_rate_bound"): ("floor",),
}


@pytest.mark.parametrize("name", sorted(MOVED))
def test_submodule_names_resolve_to_modules(name):
    assert isinstance(getattr(pdhj, name), types.ModuleType)
    assert getattr(pdhj, name) is importlib.import_module(f"pdhj.{name}")


@pytest.mark.parametrize("module,name", [(m, n) for m, names in MOVED.items() for n in names])
def test_scalar_references_left_the_library(module, name):
    assert not hasattr(importlib.import_module(f"pdhj.{module}"), name)
    if name != module:  # pdhj.upsilon is the module itself
        assert not hasattr(pdhj, name)


@pytest.mark.parametrize("module,cls,name", [(m, c, n) for (m, c), names in MOVED_METHODS.items()
                                             for n in names])
def test_scalar_reference_methods_left_the_library(module, cls, name):
    assert name not in vars(getattr(importlib.import_module(f"pdhj.{module}"), cls))


@pytest.mark.parametrize("module,name", [(m, n) for m, names in DELETED.items() for n in names])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"pdhj.{module}"), name)
    assert not hasattr(pdhj, name)


@pytest.mark.parametrize("module,cls,name", [(m, c, n) for (m, c), names in DELETED_METHODS.items()
                                             for n in names])
def test_deleted_methods_are_gone(module, cls, name):
    assert not hasattr(getattr(importlib.import_module(f"pdhj.{module}"), cls), name)


@pytest.mark.parametrize("module,owner,name", [(m, o, n)
                                               for (m, o), names in DELETED_PARAMETERS.items()
                                               for n in names])
def test_deleted_parameters_are_gone(module, owner, name):
    params = inspect.signature(getattr(importlib.import_module(f"pdhj.{module}"), owner)).parameters
    assert params  # the owner still takes its other parameters
    assert name not in params
