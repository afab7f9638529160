"""Every shipped experiment writes its other run artifacts, byte for byte.

tests/test_golden.py pins result.json; this file pins the rest of a run's
directory (manifest.json aside, which records the config and the host).  The
pins are tests/data/artifacts/<stem>/, written at seed 0 from configs/<stem>.json
and bench/configs/feedback_short.json.  A config whose run writes only
result.json and manifest.json (isaacs_check) has no directory there.
"""

import json
import pathlib

import pytest

from pdhj import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "data" / "artifacts"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
CONFIGS.append(ROOT / "bench" / "configs" / "feedback_short.json")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_artifacts_match_the_pins(config, tmp_path):
    cfg = json.loads(config.read_text())
    cli.run(cfg, str(tmp_path), seed=0)
    run_dir = tmp_path / cfg.get("name", cfg["kind"])
    written = {p.name for p in run_dir.iterdir()} - {"manifest.json", "result.json"}
    pin_dir = PINS / config.stem
    pinned = {p.name for p in pin_dir.iterdir()} if pin_dir.is_dir() else set()
    assert written == pinned
    for name in sorted(pinned):
        assert (run_dir / name).read_bytes() == (pin_dir / name).read_bytes(), name
