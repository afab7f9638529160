"""One field of a shipped config set to a boundary or out-of-domain value.

Any field the experiment reads may be mutated, the defaulted ones too: the
mutation applies to the config as validate_config resolves it.  The run
either completes (exit status 0 or 1) and writes strict JSON, or the schema
refuses the config with a UsageError that names the mutated field before any
run directory is made.  It never raises another exception: a value that
reaches the computation is one the experiment handles.  feedback_run.json is
left out for its run time; bench/configs/feedback_short.json runs the same
code.
"""

import copy
import json
import os
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from pdhj import cli
from pdhj.errors import UsageError

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = [p for p in sorted((ROOT / "configs").glob("*.json")) if p.stem != "feedback_run"]
CONFIGS.append(ROOT / "bench" / "configs" / "feedback_short.json")


def _field_paths(block, prefix=()):
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def _mutations(value):
    """0, -1, NaN, an empty list, a wrong type and, for a list, a wrong length."""
    out = [0, -1, float("nan"), [], "x"]
    if isinstance(value, list) and value:
        out.append(value + value[-1:])
    return out


def _strict(constant):
    raise ValueError(f"{constant} in result.json")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_mutated_field_runs_or_is_refused_by_name(data):
    config = cli.validate_config(json.loads(data.draw(st.sampled_from(CONFIGS)).read_text()))
    path = data.draw(st.sampled_from(list(_field_paths(config))))
    block = config
    for key in path[:-1]:
        block = block[key]
    value = data.draw(st.sampled_from(_mutations(block[path[-1]])))
    mutated = copy.deepcopy(config)
    target = mutated
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        try:
            status = cli.run(mutated, out)
        except UsageError as err:
            assert err.field_path == ".".join(path)
            assert not os.path.exists(out)
            return
        assert status in (0, 1)
        name = cli.validate_config(mutated)["name"]
        with open(os.path.join(out, name, "result.json")) as fh:
            json.loads(fh.read(), parse_constant=_strict)
