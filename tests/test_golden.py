"""Every shipped experiment writes the reference result.json, byte for byte.

The references are bench/reference/seed<n>/<stem>.json.  Every config runs at
seed 0, feedback_run.json included (about 0.66 s in process on a 2-core x86-64
host).  bench/configs/feedback_short.json runs the same feedback code on a
shorter grid, and also at seeds 1 and 2, whose adversary pools draw other
random streams.  The DP and residual configs run at
seeds 1 and 2 too, which draw other residual sites, probes and samples, and the
sampled batteries (upsilon_check, isaacs_check) at seeds 1 to 11; the solver,
residual and DP configs (solve, minimax_check, stability_run, game_value) also
run at seeds 3 to 11.  The minimal
config of each kind, every field defaulted, writes tests/data/defaults/<kind>.json.
"""

import json
import pathlib

import pytest

from pdhj import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
CONFIGS.append(ROOT / "bench" / "configs" / "feedback_short.json")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_result_matches_reference_bytes(config, tmp_path):
    _check(config, 0, tmp_path)


@pytest.mark.parametrize("seed", [1, 2])
def test_feedback_short_other_seeds(seed, tmp_path):
    _check(CONFIGS[-1], seed, tmp_path)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("stem", ["minimax_check", "stability_run", "game_value",
                                  "isaacs_check"])
def test_residual_layer_other_seeds(stem, seed, tmp_path):
    _check(ROOT / "configs" / f"{stem}.json", seed, tmp_path)


@pytest.mark.parametrize("seed", range(1, 12))
@pytest.mark.parametrize("stem", ["upsilon_check", "isaacs_check"])
def test_sampled_batteries_other_seeds(stem, seed, tmp_path):
    _check(ROOT / "configs" / f"{stem}.json", seed, tmp_path)


@pytest.mark.parametrize("seed", range(3, 12))
@pytest.mark.parametrize("stem", ["solve", "minimax_check", "stability_run", "game_value"])
def test_solver_and_residual_layers_later_seeds(stem, seed, tmp_path):
    _check(ROOT / "configs" / f"{stem}.json", seed, tmp_path)


@pytest.mark.parametrize("kind", cli.KINDS)
def test_minimal_config_runs_on_the_defaults(kind, tmp_path):
    cli.run({"schema_version": 1, "kind": kind}, str(tmp_path), seed=0)
    got = (tmp_path / kind / "result.json").read_bytes()
    assert got == (ROOT / "tests" / "data" / "defaults" / f"{kind}.json").read_bytes()


def _check(config, seed, tmp_path):
    cfg = json.loads(config.read_text())
    cli.run(cfg, str(tmp_path), seed=seed)
    got = (tmp_path / cfg.get("name", cfg["kind"]) / "result.json").read_bytes()
    want = (ROOT / "bench" / "reference" / f"seed{seed}" / f"{config.stem}.json").read_bytes()
    assert got == want
