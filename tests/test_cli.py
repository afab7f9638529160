import io
import json
import os

import numpy as np
import pytest

from pdhj import cli
from pdhj.cli import _site_state, emit_summary, main, run, validate_config
from pdhj.errors import UsageError
from pdhj.evolution import make_linear_operator
from pdhj.pathcore import Path, TimeGrid
from scalar_reference import _solve_reference


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

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
    def test_resolved_config_resolves_to_itself(self, name):
        resolved = validate_config(shipped_config(name))
        assert validate_config(resolved) == resolved

    def test_resolved_config_fills_in_the_defaults(self):
        resolved = validate_config(base_config("minimax-check", grid={"n_steps": 16}))
        assert resolved["name"] == "minimax-check"
        assert resolved["grid"] == {"t_end": 1.0, "n_steps": 16}
        assert resolved["horizon"] == 0.25  # 4 steps of the grid
        assert resolved["lattice"] == {"lo": [-2.0], "hi": [2.0], "points": [64]}
        assert resolved["game"] == {"kind": "isaacs-additive", "scale": 0.5, "gain": 1.0,
                                    "cost_weight": 0.1, "levels": [-1.0, 0.0, 1.0],
                                    "controls": {"p_points": [-1.0, 0.0, 1.0],
                                                 "q_points": [-1.0, 0.0, 1.0]}}

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


def _schema_fields(fields, prefix=""):
    """(path, whether it is a leaf) of every field of a schema table, in blocks too."""
    for key, field in fields.items():
        path = prefix + key
        if isinstance(field.type, cli.Kinds):
            blocks = list(field.type.values())
            yield path + ".kind", True
        else:
            blocks = [field.type] if isinstance(field.type, dict) else []
        yield path, not blocks
        for block in blocks:
            yield from _schema_fields(block, path + ".")


def test_readme_schema_table_lists_every_field():
    with open(os.path.join(CONFIG_DIR, os.pardir, "README.md")) as fh:
        readme = fh.read()
    table = readme[readme.index("| field | type | default | domain |"):]
    rows = table[:table.index("\n\n")].splitlines()[2:]
    cells = [row.split("|")[1].split("(")[0] for row in rows]  # the names before any "(kind)"
    listed = {name for cell in cells for name in cell.replace("`", " ").replace(",", " ").split()}
    schema = dict(path_leaf for experiment in cli.EXPERIMENTS.values()
                  for path_leaf in _schema_fields({**cli._COMMON, **experiment.fields}))
    assert {path for path, leaf in schema.items() if leaf} <= listed <= set(schema)


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

    def test_solve_constant_forcing_from_a_later_node(self, tmp_path):
        # the forcing row of each step is its absolute grid interval, so a
        # solve from t0 = 0.375 reads rows 3.. of the tiled constant
        cfg = base_config("solve", name="pushed", grid={"t_end": 1.0, "n_steps": 8},
                          t0=0.375, initial=[1.0], forcing={"kind": "constant", "value": [0.5]})
        assert run(cfg, str(tmp_path)) == 0
        grid = TimeGrid(0.0, 1.0, 8)
        want = _solve_reference(make_linear_operator(), 0.375, Path.constant(grid, [1.0]),
                                np.full((8, 1), 0.5), lipschitz_L=1.0)
        run_dir = tmp_path / "pushed"
        assert (run_dir / "path.csv").read_text() == want.path.to_csv()
        result = json.loads((run_dir / "result.json").read_text())
        assert result["final_state"] == [float(want.path.values[-1, 0])]
        assert result["newton_total"] == want.newton_total

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

    def test_stability_f_drift_writes_strict_json(self, tmp_path):
        # f-drift knows no exact distance: its shift_exactness is null, never NaN
        cfg = shipped_config("stability_run.json")
        cfg.update(family="f-drift", name="drift")
        status = run(cfg, str(tmp_path))
        text = (tmp_path / "drift" / "result.json").read_text()
        result = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in result.json"))
        assert result["shift_exactness"] == [None] * len(result["n_list"])
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


class TestStrictNumerics:
    """A floating-point error in the computation, or a number that is not finite
    in the result, is an EvaluationError (exit 3) that leaves no result.json."""

    def _battery(self, value):
        def battery(samples, seed):
            return {"samples": samples, "checks": [], "worst": value(), "passed": True}
        return battery

    @pytest.mark.parametrize("value, message", [
        (lambda: float(np.log(np.zeros(1))[0]), "floating-point error: divide by zero"),
        (lambda: float(np.sqrt(-np.ones(1))[0]), "floating-point error: invalid value"),
        (lambda: float(np.exp(np.full(1, 1e3))[0]), "floating-point error: overflow"),
        (lambda: float("inf"), "a number that is not finite in the output"),
        (lambda: 1e308 * 10.0, "a number that is not finite in the output"),
    ], ids=["divide", "invalid", "overflow", "inf", "python-overflow"])
    def test_evaluation_error_after_the_manifest(self, tmp_path, capsys, monkeypatch,
                                                 value, message):
        monkeypatch.setattr(cli, "property_battery", self._battery(value))
        cfg = base_config("upsilon-check", samples=5)
        assert main(["upsilon-check", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert f"EvaluationError: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out" / "upsilon-check").iterdir()) == [
            "manifest.json"]

    def test_underflow_is_not_an_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "property_battery",
                            self._battery(lambda: float(np.exp(np.full(1, -1e3))[0])))
        assert run(base_config("upsilon-check", samples=5), str(tmp_path)) == 0
        result = json.loads((tmp_path / "upsilon-check" / "result.json").read_text())
        assert result["worst"] == 0.0


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

    @pytest.mark.parametrize("text", ['{"kind": "solve", "pass', "[1, 2]", "", "\xff"])
    def test_unreadable_result_is_incomplete(self, tmp_path, capsys, text):
        # a result.json cut off while writing, or one that is not an object
        run(base_config("upsilon-check", name="good", samples=60), str(tmp_path))
        bad_dir = tmp_path / "cut"
        bad_dir.mkdir()
        (bad_dir / "manifest.json").write_text("{}")
        (bad_dir / "result.json").write_bytes(text.encode("latin-1"))
        assert main(["summary", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("cut,?,,INCOMPLETE")
        assert lines[2].endswith(",PASS")

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


def _write(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestVectorLengths:
    """Vectors of the wrong length are refused at config time, naming the field."""

    def _solve(self, **extra):
        cfg = shipped_config("solve.json")
        cfg["operator"] = {"kind": "linear", "dim": 2, "gain": 1.0}
        cfg["initial"] = [1.0, 0.5]
        cfg.update(extra)
        return cfg

    def _refused(self, tmp_path, capsys, cfg, field):
        status = main([cfg["kind"], "--config", _write(tmp_path, cfg), "--out", str(tmp_path)])
        assert status == 2
        assert f"usage error: {field} " in capsys.readouterr().err
        assert not (tmp_path / cfg["name"] / "result.json").exists()
        with pytest.raises(UsageError) as err:
            run(cfg, str(tmp_path / "direct"))
        assert err.value.field_path == field

    def test_matching_lengths_solve(self, tmp_path):
        cfg = self._solve(forcing={"kind": "constant", "value": [0.25, -0.25]})
        assert run(cfg, str(tmp_path)) == 0
        result = json.loads((tmp_path / cfg["name"] / "result.json").read_text())
        assert len(result["final_state"]) == 2

    def test_p_laplacian_state_has_one_coordinate_per_node(self, tmp_path, capsys):
        cfg = base_config("solve", name="plap", operator={"kind": "p-laplacian-1d", "nodes": 4},
                          grid={"t_end": 1.0, "n_steps": 8})
        run(cfg, str(tmp_path / "ok"))
        result = json.loads((tmp_path / "ok" / "plap" / "result.json").read_text())
        assert len(result["final_state"]) == 4
        self._refused(tmp_path, capsys, {**cfg, "initial": [1.0] * 3}, "initial")

    @pytest.mark.parametrize("initial", [[1.0], [1.0, 2.0, 3.0], [1.0, "x"]])
    def test_solve_initial(self, tmp_path, capsys, initial):
        self._refused(tmp_path, capsys, self._solve(initial=initial), "initial")

    @pytest.mark.parametrize("value", [[0.5], [0.5, 0.5, 0.5]])
    def test_solve_forcing_value(self, tmp_path, capsys, value):
        cfg = self._solve(forcing={"kind": "constant", "value": value})
        self._refused(tmp_path, capsys, cfg, "forcing.value")

    def test_feedback_x0(self, tmp_path, capsys):
        cfg = shipped_config("feedback_run.json")
        cfg["x0"] = [0.4, 0.1]
        self._refused(tmp_path, capsys, cfg, "x0")

    @pytest.mark.parametrize("steps", [[], [8, 0], [8, 2.5]])
    def test_feedback_partition_steps(self, tmp_path, capsys, steps):
        cfg = shipped_config("feedback_run.json")
        cfg["partition_steps"] = steps
        self._refused(tmp_path, capsys, cfg, "partition_steps")


class TestConfigRefusals:
    """Numbers that are not finite, list entries of the wrong type or count,
    empty control grids, fields that the chosen kind does not read, and values
    outside their field's domain, are usage errors that name the field (exit 2)
    and leave no run directory."""

    def _refused(self, tmp_path, capsys, cfg, field, seed=None):
        # nothing is written but the config itself: no out root, and no run
        # directory beside it for a name that would climb out of it
        override = [] if seed is None else ["--seed", str(seed)]
        out = tmp_path / "out"
        status = main([cfg["kind"], "--config", _write(tmp_path, cfg), "--out", str(out)]
                      + override)
        assert status == 2
        assert field in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(UsageError) as err:
            run(cfg, str(tmp_path / "direct"), seed=seed)
        assert err.value.field_path == field
        assert not (tmp_path / "direct").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_nan_forcing_value(self, tmp_path, capsys):
        cfg = shipped_config("solve.json")
        cfg["forcing"] = {"kind": "constant", "value": [float("nan")]}
        self._refused(tmp_path, capsys, cfg, "forcing.value")

    def test_nan_lattice_bound(self, tmp_path, capsys):
        cfg = shipped_config("game_value.json")
        cfg["lattice"]["lo"] = [float("nan")]
        self._refused(tmp_path, capsys, cfg, "lattice.lo")

    def test_infinite_number_field(self, tmp_path, capsys):
        cfg = shipped_config("solve.json")
        cfg["lipschitz"] = float("inf")
        self._refused(tmp_path, capsys, cfg, "lipschitz")

    @pytest.mark.parametrize("game, field", [
        ({"kind": "bilinear", "cost_weight": 0.3}, "game.cost_weight"),
        ({"kind": "bilinear", "cost": 2.0}, "game.cost"),
        ({"kind": "constant", "scale": 0.5}, "game.scale"),
        ({"kind": "constant", "levels": [-1.0, 1.0]}, "game.levels"),
        ({"cost": 2.0}, "game.cost"),  # the default kind, isaacs-additive
    ])
    def test_game_field_the_kind_does_not_read(self, tmp_path, capsys, game, field):
        cfg = shipped_config("isaacs_check.json")
        cfg["game"] = game
        self._refused(tmp_path, capsys, cfg, field)

    @pytest.mark.parametrize("operator, field", [
        ({"kind": "linear", "nodes": 4}, "operator.nodes"),
        ({"kind": "linear", "p": 3.0}, "operator.p"),
        ({"kind": "p-laplacian-1d", "gain": 2.0}, "operator.gain"),
    ])
    def test_operator_field_the_kind_does_not_read(self, tmp_path, capsys, operator, field):
        cfg = shipped_config("solve.json")
        cfg["operator"] = operator
        self._refused(tmp_path, capsys, cfg, field)

    def test_probe_z_is_not_read_by_isaacs_check(self, tmp_path, capsys):
        cfg = shipped_config("isaacs_check.json")
        cfg["probe_z"] = [1.0]
        self._refused(tmp_path, capsys, cfg, "probe_z")

    @pytest.mark.parametrize("n_list", [[2.5, 4], ["a"]])
    def test_n_list_entries_are_integers(self, tmp_path, capsys, n_list):
        cfg = shipped_config("stability_run.json")
        cfg["n_list"] = n_list
        self._refused(tmp_path, capsys, cfg, "n_list")

    @pytest.mark.parametrize("n_list, message", [
        ([], "n_list must not be empty"),
        ([0, 2], "n_list entries must be >= 1"),
        ([4, 2], "n_list must be increasing (magnitudes 1/n decreasing)"),
    ], ids=["empty", "below-one", "decreasing"])
    def test_stability_n_list_refused_while_building(self, tmp_path, capsys, n_list, message):
        # an empty list used to pass vacuously (exit 0, "distances": [])
        cfg = shipped_config("stability_run.json")
        cfg["n_list"] = n_list
        self._refused(tmp_path, capsys, cfg, "n_list")
        with pytest.raises(UsageError) as err:
            run(cfg, str(tmp_path / "again"))
        assert str(err.value) == message

    def test_stability_family_refused_while_building(self, tmp_path, capsys):
        # used to exit 3 after the base DP, leaving only manifest.json
        cfg = shipped_config("stability_run.json")
        cfg["family"] = "bogus"
        self._refused(tmp_path, capsys, cfg, "family")
        with pytest.raises(UsageError) as err:
            run(cfg, str(tmp_path / "again"))
        assert str(err.value) == ("unknown perturbation family 'bogus'; "
                                  "expected one of ['f-drift', 'h-shift']")

    @pytest.mark.parametrize("config, field, value, message", [
        ("upsilon_check.json", "samples", 0, "samples must be >= 1, got 0"),
        ("upsilon_check.json", "samples", -3, "samples must be >= 1, got -3"),
        ("isaacs_check.json", "samples", 0, "samples must be >= 1, got 0"),
        ("feedback_run.json", "budget", 0, "budget must be >= 1, got 0"),
        ("feedback_run.json", "calibration_budget", 0, "calibration_budget must be >= 1, got 0"),
        ("minimax_check.json", "sites", 0, "sites must be >= 1, got 0"),
        ("minimax_check.json", "budget", 0, "budget must be >= 1, got 0"),
        ("minimax_check.json", "horizon", 0.0, "horizon must be > 0, got 0.0"),
        ("minimax_check.json", "horizon", -1.0, "horizon must be > 0, got -1.0"),
    ], ids=["upsilon-samples-0", "upsilon-samples-neg", "isaacs-samples", "feedback-budget",
            "feedback-calibration-budget", "minimax-sites", "minimax-budget", "minimax-horizon-0",
            "minimax-horizon-neg"])
    def test_counts_below_one_refused_while_building(self, tmp_path, capsys, config, field,
                                                     value, message):
        # upsilon-check used to pass writing Infinity into result.json, isaacs-check
        # and feedback-run to exit 3 after the manifest, minimax-check to pass
        # vacuously (no sites, no tube samples) or run one step
        cfg = shipped_config(config)
        cfg[field] = value
        self._refused(tmp_path, capsys, cfg, field)
        with pytest.raises(UsageError) as err:
            run(cfg, str(tmp_path / "again"))
        assert str(err.value) == message

    @pytest.mark.parametrize("config, changes, field, seed", [
        # the operator must be monotone and coercive: isaacs-check passed with these,
        # stability-run exited 3 after the manifest, solve failed its audit (exit 1)
        ("isaacs_check.json", {"game": {"gain": -1.0}}, "game.gain", None),
        ("isaacs_check.json", {"game": {"gain": 0.0}}, "game.gain", None),
        ("stability_run.json", {"game": {"gain": -1.0}}, "game.gain", None),
        ("solve.json", {"operator": {"gain": -1.0}}, "operator.gain", None),
        # these exited 3 after the manifest
        ("feedback_run.json", {"library_size": -1}, "library_size", None),
        ("feedback_run.json", {"epsilon_fraction": 0.0}, "epsilon_fraction", None),
        ("feedback_run.json", {"epsilon_fraction": 2.0}, "epsilon_fraction", None),
        ("solve.json", {"t0": 5.0}, "t0", None),
        ("solve.json", {"t0": -1.0}, "t0", None),
        ("solve.json", {"t0": 0.01}, "t0", None),
        # these exited 3, naming no field
        ("solve.json", {"grid": {"n_steps": 0}}, "grid.n_steps", None),
        ("solve.json", {"grid": {"t_end": 0.0}}, "grid.t_end", None),
        ("solve.json", {"grid": {"t_end": -1.0}}, "grid.t_end", None),
        ("game_value.json", {"lattice": {"points": [1]}}, "lattice.points", None),
        ("game_value.json", {"lattice": {"lo": [1.0], "hi": [1.0]}}, "lattice.hi", None),
        ("game_value.json", {"lattice": {"lo": [1.0], "hi": [0.5]}}, "lattice.hi", None),
        ("solve.json", {"operator": {"dim": 0}, "initial": []}, "operator.dim", None),
        ("solve.json", {"operator": {"kind": "p-laplacian-1d", "nodes": 1}, "initial": [1.0]},
         "operator.nodes", None),
        ("solve.json", {"operator": {"kind": "p-laplacian-1d", "nodes": 4, "p": 1.5},
                        "initial": [1.0] * 4}, "operator.p", None),
        ("solve.json", {"lipschitz": -1.0}, "lipschitz", None),
        # a negative seed escaped as a raw ValueError (exit 1) after the manifest
        ("upsilon_check.json", {"seed": -1}, "seed", None),
        ("upsilon_check.json", {}, "seed", -1),
        ("minimax_check.json", {}, "seed", -1),
        ("solve.json", {}, "seed", -1),
        # the run directory is one directory under the out root
        ("upsilon_check.json", {"name": "../escaped"}, "name", None),
        ("upsilon_check.json", {"name": ""}, "name", None),
        ("upsilon_check.json", {"name": "."}, "name", None),
        ("upsilon_check.json", {"name": ".."}, "name", None),
        ("upsilon_check.json", {"name": "a/b"}, "name", None),
    ])
    def test_schema_domains_refused_before_the_run(self, tmp_path, capsys, config, changes,
                                                   field, seed):
        cfg = shipped_config(config)
        cfg.update(changes)
        self._refused(tmp_path, capsys, cfg, field, seed=seed)

    def test_seed_override_replaces_a_refused_config_seed(self, tmp_path):
        cfg = base_config("upsilon-check", samples=20)
        cfg["seed"] = -1
        assert run(cfg, str(tmp_path), seed=4) == 0
        manifest = json.loads((tmp_path / "upsilon-check" / "manifest.json").read_text())
        assert manifest["seed"] == 4 and manifest["config"]["seed"] == 4

    def test_lattice_points_are_integers(self, tmp_path, capsys):
        cfg = shipped_config("game_value.json")
        cfg["lattice"]["points"] = [33.7]
        self._refused(tmp_path, capsys, cfg, "lattice.points")

    @pytest.mark.parametrize("probe_z", [["a"], [1.0, 2.0]])
    def test_probe_z_is_one_number_per_coordinate(self, tmp_path, capsys, probe_z):
        cfg = shipped_config("game_value.json")
        cfg["probe_z"] = probe_z
        self._refused(tmp_path, capsys, cfg, "probe_z")

    @pytest.mark.parametrize("levels", [["a", "b"], []])
    def test_levels_are_numbers(self, tmp_path, capsys, levels):
        cfg = shipped_config("game_value.json")
        cfg["game"]["levels"] = levels
        self._refused(tmp_path, capsys, cfg, "game.levels")

    @pytest.mark.parametrize("key", ["p_points", "q_points"])
    def test_control_grids_are_nonempty(self, tmp_path, capsys, key):
        cfg = shipped_config("game_value.json")
        cfg["game"]["controls"] = {"p_points": [-1.0, 1.0], "q_points": [-1.0, 1.0], key: []}
        self._refused(tmp_path, capsys, cfg, "game.controls." + key)

    def test_control_points_are_numbers(self, tmp_path, capsys):
        cfg = shipped_config("game_value.json")
        cfg["game"]["controls"] = {"p_points": [-1.0, 1.0], "q_points": [-1.0, "1"]}
        self._refused(tmp_path, capsys, cfg, "game.controls.q_points")

    @pytest.mark.parametrize("kind", ["isaacs-additive", "bilinear", "constant"])
    def test_controls_are_read_by_every_game_kind(self, tmp_path, kind):
        cfg = shipped_config("isaacs_check.json")
        cfg["game"] = {"kind": kind, "controls": {"p_points": [-1.0, 1.0],
                                                  "q_points": [-1.0, 1.0]}}
        cfg.update(name="controls", samples=5)
        run(cfg, str(tmp_path))
        assert (tmp_path / "controls" / "result.json").is_file()


def test_feedback_partitions_off_the_first_partition(tmp_path):
    # 12 steps of 1/12 on a 16-step value grid: neither grid holds the other's nodes
    cfg = base_config("feedback-run", name="mixed", grid={"t_end": 1.0, "n_steps": 16},
                      lattice={"lo": [-2.0], "hi": [2.0], "points": [33]},
                      partition_steps=[8, 12], budget=5, calibration_budget=4,
                      library_size=4)
    run(cfg, str(tmp_path))
    result = json.loads((tmp_path / "mixed" / "result.json").read_text())
    assert [p["n_steps"] for p in result["estimate"]["per_partition"]] == [8, 12]


def _planar_game(block):
    from pdhj.evolution import DelayDynamics, make_linear_operator
    from pdhj.game import ControlGrid, GameSpec
    dyn = DelayDynamics(op=make_linear_operator(dim=2, gain=1.0), lipschitz_L=0.8,
                        rhs=lambda t, x, u: 0.4 * np.array([float(u[0]), float(u[1])]))
    return GameSpec(dyn=dyn,
                    running_cost=lambda t, x, p, q: 0.05 * float(np.dot(x.value_at(t),
                                                                        x.value_at(t))),
                    terminal_cost=lambda x: float(np.dot(x.values[-1], x.values[-1])),
                    controls=ControlGrid(p_points=(-1.0, 1.0), q_points=(-1.0, 1.0)),
                    l_f=0.8, lambda_L=0.3, name="planar")


class TestMinimaxSites:
    def test_dim_one_draw_is_the_scalar_draw(self):
        from pdhj.game import StateLattice
        lattice = StateLattice(lo=(-2.0,), hi=(3.0,), shape=(9,))
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        for shrink in (0.6, 0.5, 0.6):
            state = _site_state(a, lattice, shrink)
            assert state.tobytes() == np.array(
                [float(b.uniform(lattice.lo[0] * shrink, lattice.hi[0] * shrink))]).tobytes()
        assert a.standard_normal() == b.standard_normal()

    def test_dim_two_sites_draw_each_coordinate_in_its_own_range(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_build_game", _planar_game)
        sites = []

        def recording(kind, real):
            def call(table, spec, site, *args, **kwargs):
                sites.append((kind, site[1].values[0]))
                return real(table, spec, site, *args, **kwargs)
            return call

        monkeypatch.setattr(cli, "minimax_residual", recording("residual", cli.minimax_residual))
        monkeypatch.setattr(cli, "viscosity_scan", recording("viscosity", cli.viscosity_scan))
        lo, hi = [-2.0, -1.0], [2.0, 3.0]
        cfg = base_config("minimax-check", grid={"t_end": 1.0, "n_steps": 8},
                          lattice={"lo": lo, "hi": hi, "points": [9, 9]}, sites=4,
                          horizon=0.25, budget=4, mutation_control=False)
        run(cfg, str(tmp_path))
        for kind, shrink, count in (("residual", 0.6, 8), ("viscosity", 0.5, 3)):
            states = [state for k, state in sites if k == kind]
            assert len(states) == count
            assert not any(state[0] == state[1] for state in states)  # off the diagonal
            for state in states:
                assert all(shrink * lo[d] <= state[d] <= shrink * hi[d] for d in range(2))

    def test_dim_two_mutation_bumps_one_entry_under_its_site(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_build_game", _planar_game)
        bumps, sites = [], []
        real_bump, real_residual = cli.bump_table, cli.minimax_residual

        def bump(table, *args, **kwargs):
            bumps.append((table, real_bump(table, *args, **kwargs)))
            return bumps[-1][1]

        def residual(table, spec, site, *args, **kwargs):
            if "mutation" in table.metadata:
                sites.append(site)
            return real_residual(table, spec, site, *args, **kwargs)

        monkeypatch.setattr(cli, "bump_table", bump)
        monkeypatch.setattr(cli, "minimax_residual", residual)
        cfg = base_config("minimax-check", grid={"t_end": 1.0, "n_steps": 8},
                          lattice={"lo": [-2.0, -1.0], "hi": [2.0, 3.0], "points": [9, 9]},
                          sites=1, horizon=0.25, budget=4, mutation_control=True)
        run(cfg, str(tmp_path))
        (table, bumped), = bumps
        changed = np.argwhere(bumped.v_plus != table.v_plus)
        assert changed.tolist() == [[4, 4, 4]]  # time index 4, the midpoint of each axis
        (t, x0, z), = sites
        assert t == 0.5 and x0.values.tolist() == [[0.0, 1.0]] * 9


def test_refused_config_leaves_no_run_directory(tmp_path, capsys):
    # bilinear does not read cost_weight: the schema refuses it before the run
    cfg = shipped_config("isaacs_check.json")
    cfg.update(name="bad", game={"kind": "bilinear", "cost_weight": 0.3})
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert not (out / "bad").exists()
    capsys.readouterr()
    assert main(["summary", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["name,kind,metric,verdict"]
