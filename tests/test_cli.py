import io
import json
import os

import pytest

from pdhj.cli import emit_summary, main, run, validate_config
from pdhj.errors import UsageError


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def base_config(kind, **extra):
    cfg = {"schema_version": 1, "kind": kind, "seed": 3}
    cfg.update(extra)
    return cfg


def shipped_config(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


class TestValidation:
    def test_accepts_minimal_configs(self):
        for kind in ("solve", "upsilon-check", "game-value", "isaacs-check",
                     "stability-run"):
            validate_config(base_config(kind))

    def test_rejects_unknown_field(self):
        with pytest.raises(UsageError) as err:
            validate_config(base_config("solve", wobble=1))
        assert "wobble" in str(err.value)

    def test_rejects_wrong_schema_version(self):
        cfg = base_config("solve")
        cfg["schema_version"] = 99
        with pytest.raises(UsageError):
            validate_config(cfg)

    def test_rejects_unknown_kind(self):
        with pytest.raises(UsageError):
            validate_config(base_config("dance"))

    def test_nested_unknown_field_names_path(self):
        cfg = base_config("game-value", game={"kind": "bilinear", "controls": {"oops": []}})
        with pytest.raises(UsageError) as err:
            validate_config(cfg)
        assert "game.controls.oops" in str(err.value)

    def test_missing_q_points_names_field(self, tmp_path):
        cfg = base_config("game-value",
                          game={"kind": "bilinear", "controls": {"p_points": [-1, 1]}},
                          grid={"t_end": 1.0, "n_steps": 4},
                          lattice={"lo": [-2.0], "hi": [2.0], "points": [9]})
        with pytest.raises(UsageError) as err:
            run(cfg, str(tmp_path))
        assert "controls.q_points" in str(err.value)


class TestRun:
    def test_solve_writes_artifacts(self, tmp_path):
        cfg = base_config("solve", name="decay",
                          operator={"kind": "linear", "dim": 1, "gain": 1.0},
                          grid={"t_end": 1.0, "n_steps": 32},
                          initial=[1.0])
        status = run(cfg, str(tmp_path))
        assert status == 0
        run_dir = tmp_path / "decay"
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "result.json").is_file()
        assert (run_dir / "path.csv").is_file()
        result = json.loads((run_dir / "result.json").read_text())
        assert result["passed"] is True
        assert result["final_state"][0] == pytest.approx(0.3678794, abs=0.02)

    def test_upsilon_check_passes(self, tmp_path):
        cfg = base_config("upsilon-check", samples=120)
        assert run(cfg, str(tmp_path)) == 0
        result = json.loads((tmp_path / "upsilon-check" / "result.json").read_text())
        assert result["passed"] is True

    def test_game_value_bilinear_gap(self, tmp_path):
        cfg = base_config("game-value", name="pq",
                          game={"kind": "bilinear", "scale": 1.0},
                          grid={"t_end": 1.0, "n_steps": 8},
                          lattice={"lo": [-2.0], "hi": [2.0], "points": [17]},
                          probe_z=[1.0])
        assert run(cfg, str(tmp_path)) == 0
        result = json.loads((tmp_path / "pq" / "result.json").read_text())
        assert result["isaacs_gap_at_probe"] == pytest.approx(2.0)

    def test_stability_run(self, tmp_path):
        cfg = base_config("stability-run",
                          game={"kind": "isaacs-additive"},
                          grid={"t_end": 1.0, "n_steps": 4},
                          lattice={"lo": [-2.0], "hi": [2.0], "points": [9]},
                          family="h-shift", n_list=[2, 4])
        assert run(cfg, str(tmp_path)) == 0

    def test_result_json_reproducible(self, tmp_path):
        cfg = base_config("game-value",
                          game={"kind": "bilinear"},
                          grid={"t_end": 1.0, "n_steps": 4},
                          lattice={"lo": [-2.0], "hi": [2.0], "points": [9]})
        run(cfg, str(tmp_path / "a"))
        run(cfg, str(tmp_path / "b"))
        text_a = (tmp_path / "a" / "game-value" / "result.json").read_bytes()
        text_b = (tmp_path / "b" / "game-value" / "result.json").read_bytes()
        assert text_a == text_b

    def test_feedback_run_with_step_bound_excess_writes_result(self, tmp_path):
        # some steps exceed m-hat here, which once left numpy scalars in the
        # result and crashed the JSON writer
        cfg = shipped_config("feedback_run.json")
        cfg["grid"]["n_steps"] = 8
        cfg["lattice"]["points"] = [17]
        cfg.update(partition_steps=[4, 8], budget=6, calibration_budget=4, library_size=4)
        status = run(cfg, str(tmp_path), seed=0)
        result = json.loads((tmp_path / cfg["name"] / "result.json").read_text())
        stats = result["lyapunov_stats"]
        assert stats["within_bound"] < stats["steps"]
        assert isinstance(result["passed"], bool)
        assert status == (0 if result["passed"] else 1)

    def test_manifest_written_before_failure(self, tmp_path):
        # an inner computation error still leaves the manifest behind
        cfg = base_config("solve",
                          operator={"kind": "linear", "dim": 1, "gain": 1.0},
                          grid={"t_end": 1.0, "n_steps": 8},
                          lipschitz=0.0,
                          forcing={"kind": "constant", "value": [1.0]})
        with pytest.raises(Exception):
            run(cfg, str(tmp_path))
        assert (tmp_path / "solve" / "manifest.json").is_file()


class TestSummary:
    def test_empty_dir(self, tmp_path):
        buf = io.StringIO()
        assert emit_summary(str(tmp_path), buf) == 0
        assert buf.getvalue().splitlines() == ["name,kind,metric,verdict"]

    def test_status_reflects_failure(self, tmp_path):
        ok = base_config("upsilon-check", name="good", samples=60)
        run(ok, str(tmp_path))
        bad_dir = tmp_path / "broken"
        bad_dir.mkdir()
        (bad_dir / "manifest.json").write_text("{}")
        buf = io.StringIO()
        assert emit_summary(str(tmp_path), buf) == 1
        lines = buf.getvalue().splitlines()
        assert any("INCOMPLETE" in line for line in lines)
        assert any("PASS" in line for line in lines)

    def test_columns_stable_golden(self, tmp_path):
        run(base_config("upsilon-check", name="u1", samples=60), str(tmp_path))
        buf = io.StringIO()
        emit_summary(str(tmp_path), buf)
        header = buf.getvalue().splitlines()[0]
        assert header == "name,kind,metric,verdict"


class TestMain:
    def test_cli_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config("upsilon-check", samples=60)))
        out = tmp_path / "out"
        status = main(["upsilon-check", "--config", str(cfg_path), "--out", str(out)])
        assert status == 0
        assert main(["summary", str(out)]) == 0

    def test_kind_mismatch_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config("upsilon-check")))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    def test_lattice_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        cfg = shipped_config("game_value.json")
        cfg["lattice"] = {"lo": [-2.0, -2.0], "hi": [2.0, 2.0], "points": [9, 9]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["game-value", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "lattice.lo" in capsys.readouterr().err
        assert not (tmp_path / cfg["name"] / "result.json").exists()

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_env_var_default_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PDHJ_OUT_ROOT", str(tmp_path / "envout"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config("upsilon-check", samples=60)))
        assert main(["upsilon-check", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "envout" / "upsilon-check" / "result.json").is_file()
