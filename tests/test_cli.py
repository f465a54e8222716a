"""CLI surface: subcommands, exit codes, config diagnostics, plot emission."""

import json

import numpy as np
import pytest

from mhdrecon.cli import main, parse_field_spec
from mhdrecon.fields import ConfigurationError, TorusGrid, eval_field
from mhdrecon.snapshots import read_snapshot


def write_config(tmp_path, name="cfg.json", **fields):
    cfg = {
        "scenario": "theorem2",
        "resolution": 48,
        "dt": 2e-3,
        "t_end": 0.5,
        "output_cadence": 50,
    }
    cfg.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestFieldSpecParsing:
    def test_taylor(self):
        f = parse_field_spec("taylor:2,3", TorusGrid(32))
        assert eval_field(f, [np.pi / 4, 0.0])[1] == pytest.approx(2 * np.cos(np.pi / 2))

    def test_sum_with_amplitudes(self):
        g = TorusGrid(32)
        f = parse_field_spec("taylor:1,1:2.0+tilde-t1:0.5", g)
        expected = 2.0 * np.array([1.0, 0.0]) + 0.5 * np.array([1.0, 0.5])
        assert eval_field(f, [np.pi / 2, np.pi / 2]) == pytest.approx(expected)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            parse_field_spec("fourier:1", TorusGrid(32))


class TestTopologyCommand:
    def test_taylor_11_report(self, tmp_path, capsys):
        code = main(["topology", "--field", "taylor:1,1", "--resolution", "64",
                     "--out", str(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["n_points"] == 8
        report = json.loads((tmp_path / "topology.json").read_text())
        assert len(report["points"]) == 8
        assert report["signature"]["structurally_stable"] is False

    def test_snapshot_input(self, tmp_path, capsys):
        code = main(["gen-field", "--field", "tilde-t1", "--resolution", "64",
                     "--out", str(tmp_path)])
        assert code == 0
        snap_path = capsys.readouterr().out.strip()
        code = main(["topology", "--snapshot", snap_path, "--out", str(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["n_points"] == 4 and out["structurally_stable"] is True

    def test_requires_field_or_snapshot(self, tmp_path):
        assert main(["topology", "--out", str(tmp_path)]) == 1


class TestScenarioCommands:
    def test_theorem2_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["theorem2", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["verdict"] == "reconnection"
        assert report["config"]["resolution"] == 48

    def test_verdict_mismatch_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, expect="no-reconnection")
        assert main(["theorem2", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["theorem2", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_config_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n "scenario": "theorem2",,\n}\n')
        code = main(["theorem2", "--config", str(path)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_wrong_scenario_command_pairing(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["theorem1", "--config", str(cfg)]) == 1

    def test_emit_plots(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "plots"
        code = main(["theorem2", "--config", str(cfg), "--out", str(out_dir),
                     "--emit-plots"])
        assert code == 0
        dats = list(out_dir.glob("*.dat"))
        assert dats, "expected whitespace-separated plot data"
        sample = dats[0].read_text().strip().split("\n")
        assert sample[0].startswith("#")
        assert len(sample[1].split()) >= 2
        assert (out_dir / "plot_all.py").exists()


class TestSimulateCommand:
    def test_custom_run_writes_outputs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": "custom", "resolution": 32, "dt": 2e-3, "t_end": 0.05,
            "output_cadence": 10,
        }))
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "custom_diagnostics.ndjson").exists()
        snap = read_snapshot(out_dir / "custom_final.snap")
        assert snap.header["fields"] == ["u1", "u2", "b1", "b2"]


class TestSweepCommand:
    def test_concurrent_runs(self, tmp_path, capsys):
        sweep = {
            "runs": [
                {"name": "a", "scenario": "custom", "resolution": 32, "dt": 2e-3,
                 "t_end": 0.05, "output_cadence": 10},
                {"name": "b", "scenario": "custom", "resolution": 32, "dt": 2e-3,
                 "t_end": 0.05, "output_cadence": 10, "n": 2, "m": 2},
            ]
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        out_dir = tmp_path / "sweepout"
        code = main(["sweep", "--config", str(path), "--out", str(out_dir),
                     "--threads", "2"])
        assert code == 0
        assert (out_dir / "a" / "report.json").exists()
        assert (out_dir / "b" / "report.json").exists()
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2

    def test_sweep_requires_runs(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"runs": []}))
        assert main(["sweep", "--config", str(path)]) == 1


# Ideal, undamped and stepped far beyond the CFL limit: the roundoff-level
# velocity around the steady Taylor datum grows until it is non-finite at t = 40.
BLOW_UP = {"scenario": "custom", "nu": 0.0, "eta": 0.0, "resolution": 16, "dt": 5.0,
           "t_end": 200.0, "n": 2, "m": 1}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBlowUp:
    def test_simulate_reports_error_and_exits_one(self, tmp_path, capsys):
        path = tmp_path / "blow.json"
        path.write_text(json.dumps(BLOW_UP))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: non-finite spectral coefficient at t = ")

    def test_sweep_reports_blow_up_and_finishes_other_runs(self, tmp_path, capsys):
        sweep = {
            "runs": [
                {"name": "blows", **BLOW_UP},
                {"name": "fine", "scenario": "custom", "resolution": 32, "dt": 2e-3,
                 "t_end": 0.05, "output_cadence": 10},
            ]
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        out_dir = tmp_path / "sweepout"
        code = main(["sweep", "--config", str(path), "--out", str(out_dir), "--threads", "2"])
        assert code == 1
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.strip().split("\n")]
        assert lines[0]["run"] == "blows"
        assert lines[0]["error"].startswith("non-finite spectral coefficient at t = ")
        assert lines[1] == {"run": "fine", "verdict": "completed", "as_expected": True}
        assert captured.err.strip() == f"error: run blows: {lines[0]['error']}"
        assert (out_dir / "fine" / "report.json").exists()


class TestOutDirDefault:
    def test_env_var_controls_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MHD_OUT_DIR", str(tmp_path / "root"))
        code = main(["gen-field", "--field", "taylor:1,1", "--resolution", "32"])
        assert code == 0
        assert (tmp_path / "root" / "gen-field" / "field.snap").exists()
