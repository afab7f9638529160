"""The package namespace: submodules resolve to modules, the scalar
references that live in tests/scalar_reference.py are names of neither the
package nor the modules they came from, the names and parameters that
were deleted stay deleted, and every export is used inside the package."""

import ast
import functools
import importlib
import inspect
import pathlib
import types

import numpy as np
import pytest

import pdhj
from pdhj.game import FeedbackStrategy, StateLattice, ValueTable, constant_game
from pdhj.pathcore import Path, TimeGrid
from pdhj.upsilon import LyapunovParams

MOVED = {
    "pathcore": ("d_infinity", "stop_path", "sup_norm", "_grid_from_nodes"),
    "upsilon": ("upsilon", "penalty_psi", "lyapunov_nu", "_stopped_sup_sq", "UpsilonEval",
                "PenaltyEval", "NuEval"),
    "game": ("calibrate_step_bound", "scale_costs", "measurable_selection",
             "estimate_guaranteed_result", "recompute_slice",
             # the finiteness checks of the per-pair callback sweep
             "_finite_drift", "_finite_cost"),
}
MOVED_METHODS = {
    ("pathcore", "Path"): ("from_csv", "from_json", "from_json_obj", "to_json", "__sub__"),
    ("pathcore", "StateSpace"): ("norm_h", "pairing"),
    ("upsilon", "LyapunovParams"): ("beta",),
    ("upsilon", "ChainRuleReport"): ("to_json",),
    ("game", "GameSpec"): ("drift", "stage_cost"),
}
# the per-game feedback records, the general-forcing adapter, the game's
# second copy of its dynamics, the second stopped-sup kernel and the knobs no
# caller set, deleted outright
DELETED = {"game": ("StrategyTrace", "play_pools",
                    # adversaries are q tables: the callables and the lookahead class
                    "constant_adversary", "random_adversary", "greedy_adversary",
                    "_GreedyLookahead",
                    # one Markov probe serves the stage and the terminal function
                    "_require_markov_terminal", "_pushed_histories",
                    # the per-slice program: dp_values solves every slice's
                    # successors in one step (it is the test reference now)
                    "_dp_slice"),
           "evolution": ("solve_delay_lanes", "_lane_forcing", "_control_as_forcing",
                         "DelayDynamics"),
           "pathcore": ("sup_norms",),
           # one table read per node over every site's candidates, folded
           # into the functional's loop; the one-site wrappers of site_checks
           "minimax": ("_window_values", "_window_reads", "minimax_residual",
                       "viscosity_scan")}
DELETED_METHODS = {("game", "GuaranteeEstimate"): ("from_traces", "to_json_obj"),
                   ("evolution", "DelayDynamics"): ("forced",),
                   ("pathcore", "Path"): ("zero",),
                   # the one-lane wrappers of GameSpec.lane_terms, and the
                   # one-path terminal cost that final_costs replaced
                   ("game", "GameSpec"): ("stage_terms", "stage_matrix", "final_cost"),
                   # serializers and metadata no run writes (the runners write
                   # dataclasses.asdict of the reports that only copy fields)
                   ("game", "ValueTable"): ("to_json_obj",),
                   ("game", "ControlGrid"): ("describe",),
                   ("minimax", "ViscosityReport"): ("to_json_obj",),
                   ("minimax", "StabilityReport"): ("to_json_obj",),
                   ("minimax", "ResidualReport"): ("to_json_obj",),
                   ("evolution", "AuditReport"): ("to_json_obj",),
                   ("upsilon", "ChainRuleReport"): ("to_json_obj",),
                   # one read of every companion's end takes the masked read's place
                   ("game", "FeedbackStrategy"): ("_masked_upper",)}
# the per-kind candidate arrays and the probe-only read that the one path
# array and the one masked read of FeedbackStrategy replaced
DELETED_STRATEGY_STATE = ("_lattice_points", "_library_values", "_probe_candidates")
DELETED_PARAMETERS = {
    ("evolution", "solve_delay_evolution"): ("dyn", "forcing_algorithm"),
    ("evolution", "sample_reachable_set"): ("dyn",),
    ("game", "FeedbackStrategy"): ("side",),
    ("game", "extremal_shift_strategy"): ("side",),
    # the owner went too (listed in DELETED), and its parameters with it
    ("game", "greedy_adversary"): ("side", "lookahead"),
    ("game", "_GreedyLookahead"): ("side", "lookahead"),
    ("game", "step_rate_bound"): ("floor",),
    ("minimax", "_characteristic_functional"): ("spec",),
    # one stage and one terminal function per game
    ("game", "GameSpec"): ("dyn", "rhs", "running_cost", "terminal_cost", "markov_terms"),
    # one call plays every partition's q table
    ("game", "play_feedback_games"): ("spec", "adversaries", "partition"),
    ("game", "GuaranteeEstimate.from_payoffs"): ("pool",),
    ("game", "HamiltonianEval"): ("minus_q_index", "minus_p_index", "plus_p_index",
                                  "plus_q_index"),
    ("game", "ValueTable"): ("metadata",),
    # one JSON-valued site field, one shifted-value column, and constants
    # where a parameter no caller set stood
    ("minimax", "ResidualReport"): ("site_t0", "site_state", "z"),
    ("game", "FeedbackPlay"): ("u_before", "u_after"),
    ("evolution", "OperatorSpec"): ("kind",),
    # a builder takes its control grid, and l_f comes from that grid alone
    ("game", "bilinear_game"): ("terminal", "levels"),
    ("game", "isaacs_game"): ("levels",),
    ("evolution", "audit_hypotheses"): ("monotonicity_tol",),
    ("upsilon", "verify_chain_rule"): ("smoothness_bound", "refinements"),
    ("pathcore", "TimeGrid.node_index"): ("tol",),
    ("minimax", "site_checks"): ("tolerance",),
    # a value table always holds both sides
    ("game", "dp_value"): ("side",),
    ("minimax", "stability_experiment"): ("side",),
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
    owner = getattr(importlib.import_module(f"pdhj.{module}"), cls, None)  # None: the class went
    assert not hasattr(owner, name)


@pytest.mark.parametrize("module,owner,name", [(m, o, n)
                                               for (m, o), names in DELETED_PARAMETERS.items()
                                               for n in names])
def test_deleted_parameters_are_gone(module, owner, name):
    if owner in DELETED.get(module, ()):  # the owner went, and its parameters with it
        assert not hasattr(importlib.import_module(f"pdhj.{module}"), owner)
        return
    owner = functools.reduce(getattr, owner.split("."), importlib.import_module(f"pdhj.{module}"))
    params = inspect.signature(owner).parameters
    assert params  # the owner still takes its other parameters
    assert name not in params


@pytest.mark.parametrize("name", DELETED_STRATEGY_STATE)
def test_deleted_strategy_state_is_gone(name):
    grid, lattice = TimeGrid(0.0, 1.0, 2), StateLattice(lo=(-1.0,), hi=(1.0,), shape=(3,))
    zeros = np.zeros((3, 3))
    table = ValueTable(grid=grid, lattice=lattice, v_minus=zeros, v_plus=zeros)
    strategy = FeedbackStrategy(constant_game(), LyapunovParams.at_epsilon0(0.1, 1.0), table,
                                0.0, Path.constant(grid, [0.0]), [Path.constant(grid, [0.5])])
    assert not hasattr(strategy, name)


def _names_used_in_package():
    """Every ast.Name id and ast.Attribute attr in the package's modules
    other than __init__."""
    used = set()
    for source in pathlib.Path(pdhj.__file__).parent.glob("*.py"):
        if source.name != "__init__.py":
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_export_is_used_inside_the_package():
    # an export that only tests call is a helper to delete, not to export
    exports = sorted(name for name, obj in vars(pdhj).items() if not name.startswith("_")
                     and (inspect.isclass(obj) or inspect.isfunction(obj)))
    assert exports
    assert [name for name in exports if name not in _names_used_in_package()] == []
