"""Every shipped experiment writes the reference result.json, byte for byte.

The references are bench/reference/seed0/<stem>.json.  feedback_run.json is
left out for its run time (about 20 s); bench/configs/feedback_short.json runs
the same feedback code on a shorter grid.
"""

import json
import pathlib

import pytest

from pdhj import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted(p for p in (ROOT / "configs").glob("*.json") if p.name != "feedback_run.json")
CONFIGS.append(ROOT / "bench" / "configs" / "feedback_short.json")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_result_matches_reference_bytes(config, tmp_path):
    cfg = json.loads(config.read_text())
    cli.run(cfg, str(tmp_path), seed=0)
    got = (tmp_path / cfg.get("name", cfg["kind"]) / "result.json").read_bytes()
    want = (ROOT / "bench" / "reference" / "seed0" / f"{config.stem}.json").read_bytes()
    assert got == want
