"""CLI surface: subcommands, exit codes, config diagnostics, plot emission."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mhdrecon
from mhdrecon.cli import SCENARIO_COMMANDS, build_parser, main, parse_field_spec
from mhdrecon.fields import ConfigurationError, TorusGrid
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
        value = f.evaluator.values(np.array([[np.pi / 4, 0.0]]))[0]
        assert value[1] == pytest.approx(2 * np.cos(np.pi / 2))

    def test_sum_with_amplitudes(self):
        g = TorusGrid(32)
        f = parse_field_spec("taylor:1,1:2.0+tilde-t1:0.5", g)
        expected = 2.0 * np.array([1.0, 0.0]) + 0.5 * np.array([1.0, 0.5])
        assert f.evaluator.values(np.array([[np.pi / 2, np.pi / 2]]))[0] == pytest.approx(expected)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            parse_field_spec("fourier:1", TorusGrid(32))

    @pytest.mark.parametrize("spec, term", [
        ("taylor:1,1:nan", "taylor:1,1:nan"),
        ("tilde-t1:inf", "tilde-t1:inf"),
        ("taylor:2,1+tilde-t1:-inf", "tilde-t1:-inf"),
    ])
    def test_non_finite_amplitude_names_the_term(self, spec, term):
        with pytest.raises(ConfigurationError,
                           match=f"field term '{term}': the amplitude must be finite"):
            parse_field_spec(spec, TorusGrid(16))

    def test_bad_amplitude_names_the_term(self):
        with pytest.raises(ConfigurationError, match="bad amplitude in field term 'tilde-t1:x'"):
            parse_field_spec("tilde-t1:x", TorusGrid(16))


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

    def test_field_and_snapshot_refused(self, tmp_path, capsys):
        # refused before the snapshot is read: the file does not exist
        out_dir = tmp_path / "topo"
        code = main(["topology", "--field", "taylor:1,1", "--snapshot",
                     str(tmp_path / "missing.snap"), "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            "error: flags --field and --snapshot: give one source of the field, not both")
        assert not out_dir.exists()

    def test_snapshot_and_resolution_refused(self, tmp_path, capsys):
        # a snapshot carries its resolution; refused before the file is read
        out_dir = tmp_path / "topo"
        code = main(["topology", "--snapshot", str(tmp_path / "missing.snap"),
                     "--resolution", "64", "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: flags --snapshot and --resolution: ")
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["topology", "--resolution", "7"], "--resolution"),
        (["gen-field", "--resolution", "7"], "--resolution"),
    ], ids=["topology-resolution", "gen-field-resolution"])
    def test_bad_grid_flag_names_the_flag(self, tmp_path, capsys, argv, flag):
        code = main([*argv, "--field", "taylor:1,1", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            f"error: flag {flag}: expected an even integer >= 8, got 7")

    def test_non_solenoidal_snapshot_exits_one(self, tmp_path, capsys):
        from mhdrecon.snapshots import write_snapshot

        b1 = np.zeros((16, 16), dtype=complex)
        b1[1, 0], b1[-1, 0] = -0.5j, 0.5j  # (sin x, 0), a gradient
        path = tmp_path / "grad.snap"
        write_snapshot(path, {"b1": b1, "b2": np.zeros_like(b1)}, time=0.0, nu=0.0, eta=0.0)
        assert main(["topology", "--snapshot", str(path), "--out", str(tmp_path)]) == 1
        assert "snapshot field 'b' is not divergence-free" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["taylor:1,1:nan", "tilde-t1:inf"])
    def test_non_finite_field_exits_one(self, tmp_path, capsys, field):
        code = main(["topology", "--field", field, "--resolution", "16", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            f"error: field term '{field}': the amplitude must be finite")
        assert not (tmp_path / "topology.json").exists()

    @pytest.mark.parametrize("field, c1", [("taylor:1,1:1e308", "inf"),
                                           ("taylor:1,1:1e-160", "2e-160")])
    def test_field_out_of_range_names_the_field(self, tmp_path, capsys, field, c1):
        code = main(["topology", "--field", field, "--resolution", "16", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            f"error: field '{field}': C1 norm {c1} is outside [1e-150, 1e+150], the range of "
            "the critical-point search: Jacobian determinants scale with C1^2")
        assert not (tmp_path / "topology.json").exists()

    def test_gen_field_rejects_overflowing_scale(self, tmp_path, capsys):
        code = main(["gen-field", "--field", "taylor:1,1:1e300", "--amplitude", "1e300",
                     "--resolution", "16", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            "error: flag --amplitude: the field 'taylor:1,1:1e300' scaled by 1e+300 "
            "is not finite")
        assert not (tmp_path / "field.snap").exists()

    @pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf"])
    def test_gen_field_rejects_non_finite_amplitude(self, tmp_path, capsys, amplitude):
        code = main(["gen-field", "--field", "taylor:1,1", f"--amplitude={amplitude}",
                     "--resolution", "16", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: flag --amplitude: expected a finite number, got ")
        assert not (tmp_path / "field.snap").exists()


def assert_malformed_config_names_line(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text('{\n "scenario": "theorem2",,\n}\n')
    assert main([command, "--config", str(path)]) == 1
    assert f"malformed JSON in {path} at line 2" in capsys.readouterr().err


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
        assert_malformed_config_names_line(tmp_path, capsys, "theorem2")

    @pytest.mark.parametrize("command", ["theorem2", "remark2"])
    def test_forced_run_without_resistivity_names_eta(self, tmp_path, capsys, command):
        # the closed form of the forced runs divides by eta; the run is refused
        # before the first signature or solver step
        cfg = write_config(tmp_path, scenario=command, resolution=16, eta=0.0)
        out_dir = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out_dir)]) == 1
        assert "error: field 'eta': " in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["remark2", "stability"])
    def test_zero_end_time_names_t_end(self, tmp_path, capsys, command):
        # refused before the first signature or solver step
        cfg = write_config(tmp_path, scenario=command, resolution=16, t_end=0.0)
        out_dir = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: field 't_end': the {command} scenario requires t_end > 0\n")
        assert not out_dir.exists()

    def test_stability_fit_short_of_snapshots_names_t_end(self, tmp_path, capsys):
        # t_end = 0.01 leaves only the final state at t >= t_end / 2
        cfg = write_config(tmp_path, scenario="stability", resolution=16, dt=1e-2,
                           t_end=0.01, output_cadence=5)
        assert main(["stability", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            "error: field 't_end': need at least two positive samples to fit a slope; "
            "t_end = 0.01 leaves 1 snapshot(s) at t >= t_end / 2\n")

    def test_small_mode_at_or_above_large_names_n2_m2(self, tmp_path, capsys):
        # ForcedOracle holds the condition N2^2 < N^2; the run reports it by field
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "theorem2", "n2": 4, "m2": 4, "resolution": 16}))
        out_dir = tmp_path / "run"
        assert main(["theorem2", "--config", str(cfg), "--out", str(out_dir)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert any("'n2'" in line and "'m2'" in line for line in lines), lines
        assert not out_dir.exists()

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


class TestFlagsPerCommand:
    def test_threads_rejected_outside_sweep(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["topology", "--field", "taylor:1,1", "--threads", "2",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    # the critical-point search works out its own seeding, so no command
    # takes a seeding flag: argparse refuses it by name
    @pytest.mark.parametrize("command", ["topology", "simulate", *SCENARIO_COMMANDS])
    def test_bad_seed_grid_names_the_flag(self, tmp_path, capsys, command):
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed-grid", "7", "--out", str(out_dir)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed-grid 7" in capsys.readouterr().err
        assert not out_dir.exists()


# a valid sweep run, quick to check
RUN = {"scenario": "custom", "resolution": 16, "dt": 2e-3, "t_end": 0.01}


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

    def test_threaded_runs_write_what_each_run_writes_alone(self, tmp_path):
        # two runs on two threads, each with its companion on a third and fourth
        runs = {"a": {"scenario": "theorem1", "resolution": 32, "t_end": 0.75},
                "b": {"scenario": "theorem1", "resolution": 32, "t_end": 1.5, "n": 3, "m": 3}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"runs": [{"name": k, **v} for k, v in runs.items()]}))
        out_dir = tmp_path / "sweepout"
        # switching threads often interleaves the four runs finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert main(["sweep", "--config", str(path), "--out", str(out_dir),
                         "--threads", "2"]) == 0
        finally:
            sys.setswitchinterval(interval)
        for name, cfg in runs.items():
            alone = tmp_path / f"alone-{name}"
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(cfg))
            assert main(["theorem1", "--config", str(config), "--out", str(alone)]) == 0
            files = sorted(p.name for p in alone.iterdir())
            assert "report.json" in files
            assert sorted(p.name for p in (out_dir / name).iterdir()) == files
            for f in files:
                assert (out_dir / name / f).read_bytes() == (alone / f).read_bytes(), f

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_names_the_flag(self, tmp_path, capsys, threads):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"runs": [RUN]}))
        out_dir = tmp_path / "sweepout"
        assert main(["sweep", "--config", str(path), "--out", str(out_dir),
                     "--threads", threads]) == 1
        assert capsys.readouterr().err == (
            f"error: flag --threads: expected an integer >= 1, got {threads}\n")
        assert not out_dir.exists()

    def test_malformed_config_names_line(self, tmp_path, capsys):
        assert_malformed_config_names_line(tmp_path, capsys, "sweep")

    def test_sweep_requires_runs(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"runs": []}))
        assert main(["sweep", "--config", str(path)]) == 1

    @pytest.mark.parametrize("config, message", [
        ([1], "sweep config root must be a JSON object"),
        ({"runs": [1]}, "runs[0]: expected a JSON object, got 1"),
        ({"runs": [RUN, "x"]}, "runs[1]: expected a JSON object, got 'x'"),
        ({"runs": [{**RUN, "name": 5}]}, "runs[0].name: expected a non-empty file name"),
        ({"runs": [{**RUN, "name": ""}]}, "runs[0].name: expected a non-empty file name"),
        ({"runs": [{**RUN, "name": "."}]}, "runs[0].name: expected a non-empty file name"),
        ({"runs": [{**RUN, "name": ".."}]}, "runs[0].name: expected a non-empty file name"),
        ({"runs": [{**RUN, "name": "../escape"}]}, "runs[0].name: expected a non-empty file name"),
        ({"runs": [{**RUN, "name": "a/b"}]}, "runs[0].name: expected a non-empty file name"),
        ({"runs": [{**RUN, "name": "a"}, {**RUN, "name": "a"}]},
         "runs[1].name: 'a' names an earlier run too"),
        ({"runs": [RUN, {**RUN, "name": "run_000"}]},
         "runs[1].name: 'run_000' names an earlier run too"),
        ({"runs": [RUN, {**RUN, "dt": -1}]}, "runs[1]: field 'dt': expected a finite number > 0"),
    ])
    def test_bad_run_named(self, tmp_path, capsys, config, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "sub" / "sweepout"
        assert main(["sweep", "--config", str(path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
        # nothing was run, inside or outside --out
        assert not (tmp_path / "sub").exists()


# Ideal, undamped and stepped far beyond the CFL limit: the roundoff-level
# velocity around the steady Taylor datum grows until it is non-finite at t = 40.
BLOW_UP = {"scenario": "custom", "nu": 0.0, "eta": 0.0, "resolution": 16, "dt": 5.0,
           "t_end": 200.0, "n": 2, "m": 1}


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


class TestLogLevel:
    TOPOLOGY = ["topology", "--field", "taylor:1,1", "--resolution", "16"]

    def test_debug_prints_the_trace_statistics(self, tmp_path, capsys):
        assert main(["--log-level", "debug", *self.TOPOLOGY, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        head = ("DEBUG mhdrecon.topology: saddle connections: 0 lone saddles, 4 traced; "
                "traces: 16 hetero, 0 self, 0 stalled, 0 capped; level corrections up to ")
        tail = " osc(psi) in 33 steps"
        [line] = [line for line in err if "saddle connections:" in line]
        assert line.startswith(head) and line.endswith(tail)
        # T_11's separatrices are straight lines on its zero level: roundoff
        assert 0.0 <= float(line[len(head):-len(tail)]) <= 1e-14

    def test_default_level_hides_debug_lines(self, tmp_path, capsys):
        assert main([*self.TOPOLOGY, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_handlers_do_not_stack(self, tmp_path, capsys):
        logger = logging.getLogger("mhdrecon")
        handlers, level = list(logger.handlers), logger.level
        for _ in range(3):
            assert main(["--log-level", "debug", *self.TOPOLOGY, "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().err.count("saddle connections:") == 1
        assert logger.handlers == handlers and logger.level == level

    def test_info_prints_the_frozen_in_certificate(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario="frozen-in", resolution=32, t_end=0.1,
                            output_cadence=10)
        code = main(["--log-level", "info", "frozen-in", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        # the solver's line on the worst CFL number of the run, then the certificate
        assert len(err) == 2
        assert err[0].startswith("INFO mhdrecon.solver: CFL number at worst ")
        assert err[1].startswith("INFO mhdrecon.scenarios: frozen-in certificate: residual ")

    def test_import_leaves_the_loggers_unfiltered(self):
        # importing mhdrecon.cli loads every mhdrecon module
        loggers = [logger for name, logger in logging.root.manager.loggerDict.items()
                   if name.split(".")[0] == "mhdrecon" and isinstance(logger, logging.Logger)]
        assert "mhdrecon.solver" in [logger.name for logger in loggers]
        assert [(logger.name, logger.filters) for logger in loggers if logger.filters] == []

    def test_unknown_level_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", "loud", *self.TOPOLOGY])
        assert exc.value.code == 2
        assert "invalid choice: 'loud'" in capsys.readouterr().err


class TestParserReuse:
    def test_main_calls_share_no_state(self, tmp_path, capsys):
        # one parser serves every call; a flag given in one call does not
        # carry over to the next, which gets the flag's default
        assert build_parser() is build_parser()
        for name, flags in (("first", ["--resolution", "16"]), ("second", [])):
            assert main(["gen-field", "--field", "taylor:1,1", *flags,
                         "--out", str(tmp_path / name)]) == 0
        first, second = (read_snapshot(tmp_path / name / "field.snap")
                         for name in ("first", "second"))
        assert first.arrays["b1"].shape[0] == 16
        assert second.arrays["b1"].shape[0] == 128


class TestOutDirDefault:
    def test_env_var_controls_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MHD_OUT_DIR", str(tmp_path / "root"))
        code = main(["gen-field", "--field", "taylor:1,1", "--resolution", "32"])
        assert code == 0
        assert (tmp_path / "root" / "gen-field" / "field.snap").exists()


# Runs a topology request and a tiny simulation in one fresh interpreter and
# prints, as its last line, the scipy modules they left imported.
_START_UP_SCRIPT = """
import json, sys
from mhdrecon.cli import main
out, config = sys.argv[1:]
assert main(["topology", "--field", "taylor:1,1", "--resolution", "16",
             "--out", out + "/topology"]) == 0
assert main(["simulate", "--config", config, "--out", out + "/simulate"]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


class TestStartUp:
    def test_topology_and_simulate_import_no_scipy(self, tmp_path):
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({"scenario": "custom", "resolution": 16, "t_end": 0.01}))
        src = str(Path(mhdrecon.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _START_UP_SCRIPT, str(tmp_path / "out"), str(config)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
