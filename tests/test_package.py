"""The package namespace: submodules resolve to modules, and the scalar
references that live in tests/scalar_reference.py are names of neither the
package nor the modules they came from."""

import importlib
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
