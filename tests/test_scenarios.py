"""End-to-end scenario runs at reduced desk scale, plus config handling.

Full-scale parameter sets live in test_acceptance; here each scenario runs in
seconds on coarser grids and shorter horizons.
"""

import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdrecon import scenarios
from mhdrecon.fields import TaylorSpec, TorusGrid, make_taylor, make_tilde_t1, zero_field
from mhdrecon.scenarios import (
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    Report,
    fit_log_slope,
    load_config,
    run_frozen_in,
    run_remark2,
    run_scenario,
    run_stability_decay,
    run_theorem1,
    run_theorem2,
)
from mhdrecon.solver import MHDState, SimConfig, simulate
from mhdrecon.topology import FlowMapSample, wrap

from .conftest import FROZEN_IN_MINI


# JSON scalars and lists, non-finite floats, and values near the valid ranges
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=40),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
)

_EVEN_GRID = st.integers(min_value=4, max_value=40).map(lambda v: 2 * v)
# a value that each config field accepts
_VALID_VALUES = {
    "scenario": st.sampled_from(SCENARIOS + ("stability-decay",)),
    "nu": st.floats(0.0, 10.0),
    "eta": st.floats(0.0, 10.0),
    "resolution": _EVEN_GRID,
    "dt": st.floats(1e-6, 1.0),
    "t_end": st.floats(0.0, 10.0) | st.integers(0, 10),
    "n": st.integers(1, 9),
    "m": st.integers(1, 9),
    "n2": st.integers(1, 9),
    "m2": st.integers(1, 9),
    "delta": st.floats(0.0, 1.0),
    "r": st.integers(0, 8),
    "output_cadence": st.integers(1, 100),
    "dealias": st.booleans(),
    "expect": st.none() | st.text(max_size=6),
    "seed_grid": st.none() | _EVEN_GRID,
    "topology_cadence": st.none() | st.integers(1, 10),
}


def mini(scenario, **kw):
    defaults = dict(resolution=48, dt=2e-3, output_cadence=25)
    defaults.update(kw)
    return ExperimentConfig.for_scenario(scenario, **defaults)


# the scenarios that step at dt = 5e-3 and report a time_error_estimate
DIFFUSIVE = ("theorem1", "theorem2", "remark2", "stability")


class TestConfig:
    def test_defaults_resolve(self):
        cfg = ExperimentConfig.for_scenario("theorem1")
        assert cfg.resolution == 128 and cfg.t_end == 2.0 and cfg.delta == 1e-3
        assert cfg.expect == "reconnection"
        frozen = ExperimentConfig.for_scenario("frozen-in")
        assert (frozen.dt, frozen.output_cadence) == (1e-3, 50)
        # the diffusive defaults keep the snapshot interval 0.05 and certify their step
        for scenario in DIFFUSIVE:
            cfg = ExperimentConfig.for_scenario(scenario)
            assert cfg.dt == 5e-3 and cfg.dt * cfg.output_cadence == 0.05, scenario
            report = scenarios.RUNNERS[scenario](mini(scenario, resolution=32, t_end=0.1,
                                                      n=2, m=2))
            estimate = report.metrics["time_error_estimate"]
            assert np.isfinite(estimate) and estimate >= 0, scenario

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            ExperimentConfig.for_scenario("theorem3")

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="viscosity"):
            ExperimentConfig.from_dict({"scenario": "theorem1", "viscosity": 1.0})

    def test_bad_type_named(self):
        with pytest.raises(ConfigError, match="'resolution'"):
            ExperimentConfig.from_dict({"scenario": "theorem1", "resolution": "big"})

    def test_missing_scenario_field(self):
        with pytest.raises(ConfigError, match="scenario"):
            ExperimentConfig.from_dict({"nu": 0.5})

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "scenario": "theorem1",\n  oops\n}\n')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.json"):
            load_config(tmp_path / "nope.json")

    def test_round_trip(self, tmp_path):
        cfg = mini("theorem2", t_end=0.5)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = load_config(path)
        assert loaded == cfg

    def test_stability_decay_alias(self):
        cfg = ExperimentConfig.for_scenario("stability-decay")
        assert cfg.scenario == "stability"

    @pytest.mark.parametrize("name, value", [
        ("seed_grid", "abc"),
        ("seed_grid", 7),
        ("seed_grid", 4),
        ("topology_cadence", "x"),
        ("topology_cadence", 0),
        ("dt", float("nan")),
        ("dt", 0.0),
        ("nu", float("inf")),
        ("eta", -0.1),
        ("t_end", True),
        ("resolution", True),
        ("resolution", 30.0),
        ("resolution", 6),
        ("n", 0),
        ("output_cadence", 0),
        ("scenario", ["x"]),
        ("dealias", 1),
        ("expect", 3),
    ])
    def test_bad_value_named(self, name, value):
        with pytest.raises(ConfigError, match=f"field '{name}'"):
            ExperimentConfig.from_dict({"scenario": "custom", name: value})

    def test_nan_in_json_file_named(self, tmp_path):
        # Python's json module reads NaN, although JSON has no such value
        path = tmp_path / "nan.json"
        path.write_text('{"scenario": "custom", "dt": NaN}')
        with pytest.raises(ConfigError, match="field 'dt'"):
            load_config(path)

    def test_null_optionals_load(self):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "custom", "seed_grid": None, "topology_cadence": None, "expect": None})
        assert cfg.seed_grid is None and cfg.topology_cadence is None and cfg.expect is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.fixed_dictionaries(
            {"scenario": _VALID_VALUES["scenario"]},
            optional={k: v for k, v in _VALID_VALUES.items() if k != "scenario"},
        ),
        st.none() | st.tuples(st.sampled_from([*_VALID_VALUES, "viscosity"]), _JSON_VALUES),
    )
    def test_fuzzed_config_loads_or_names_a_field(self, data, extra):
        # valid values for some fields, plus at most one arbitrary JSON value
        # for a known field or the unknown field 'viscosity'
        if extra is not None:
            data = {**data, extra[0]: extra[1]}
        try:
            cfg = ExperimentConfig.from_dict(data)
        except ConfigError as exc:
            msg = str(exc)
            named = re.match(r"field '(\w+)'", msg)
            if named:
                assert named.group(1) in data or named.group(1) == "scenario", msg
            else:
                assert msg == "unknown config field(s): viscosity", msg
            return
        assert set(data) <= set(cfg.to_dict())
        cfg.grid()
        cfg.sim_config()



@pytest.fixture(scope="module")
def theorem2_mini_report(tmp_path_factory):
    cfg = mini("theorem2", t_end=0.5)
    return run_theorem2(cfg, tmp_path_factory.mktemp("t2"))


class TestTheorem2Mini:
    @pytest.fixture()
    def report(self, theorem2_mini_report):
        return theorem2_mini_report

    def test_verdict(self, report):
        assert report.verdict == "reconnection"
        assert report.as_expected

    def test_counts(self, report):
        assert report.metrics["count_t0"] == 128
        assert report.metrics["count_tT"] == 8

    def test_solver_matches_oracle(self, report):
        assert report.metrics["max_oracle_rel_l2_error"] < 1e-8
        assert report.metrics["max_u_l2"] < 1e-8

    def test_hr_distance_decreases_with_horizon(self):
        d = {}
        for t_end in (0.5, 1.0):
            cfg = mini("theorem2", t_end=t_end)
            d[t_end] = run_theorem2(cfg).metrics["hr_distance_rescaled_to_small"]
        assert d[1.0] < d[0.5]


class TestTimeErrorEstimate:
    """theorem2 has a closed form, so the Richardson estimate of its time
    error can be held to the true error of its final field."""

    @pytest.fixture(scope="class")
    def reports(self):
        return {dt: run_theorem2(ExperimentConfig.for_scenario(
                    "theorem2", resolution=32, dt=dt, t_end=0.4, output_cadence=10))
                for dt in (2e-2, 1e-2)}

    def test_estimate_within_a_factor_two_of_the_true_error(self, reports):
        for dt, report in reports.items():
            t, true_error = report.series["oracle_rel_l2_error"][-1]
            assert t == pytest.approx(0.4)
            estimate = report.metrics["time_error_estimate"]
            assert 0.5 * true_error <= estimate <= 2.0 * true_error, (dt, estimate, true_error)

    def test_halving_dt_shrinks_the_estimate_at_fourth_order(self, reports):
        ratio = (reports[2e-2].metrics["time_error_estimate"]
                 / reports[1e-2].metrics["time_error_estimate"])
        assert 10.0 <= ratio <= 22.0

    def test_companion_blow_up_gives_no_estimate(self, caplog):
        # stable at dt, but the companion run at 2 dt exceeds the CFL limit
        grid = TorusGrid(16)
        u0 = 10.0 * (make_tilde_t1(grid) + make_taylor(TaylorSpec(2, 1), 1.0, grid))
        initial = MHDState(u0, zero_field(grid), 0.0)
        sim_cfg = SimConfig(nu=0.0, eta=0.0, grid=grid, dt=0.02, t_end=2.0)
        final = simulate(sim_cfg, initial)
        with caplog.at_level(logging.WARNING, logger="mhdrecon.scenarios"):
            assert scenarios._time_error_estimate(sim_cfg, initial, final) is None
        assert "no time error estimate" in caplog.text


class TestTheorem1Mini:
    def test_reconnection_at_desk_scale(self, tmp_path):
        # (n, m) = (3, 3): 72 points initially, tilde T1 signature at the end
        cfg = mini("theorem1", n=3, m=3, t_end=1.5)
        report = run_theorem1(cfg, tmp_path)
        assert report.metrics["count_t0"] >= 72
        assert report.signatures["tT"]["structurally_stable"]
        assert report.verdict == "reconnection"

    def test_zero_horizon_is_no_reconnection(self):
        cfg = mini("theorem1", n=2, m=2, t_end=0.0)
        report = run_theorem1(cfg)
        assert report.verdict == "no-reconnection"

    def test_zero_delta_keeps_signature_constant(self):
        # pure decaying Taylor datum: both signatures are the 8nm lattice
        cfg = mini("theorem1", n=2, m=2, t_end=0.5, delta=0.0)
        report = run_theorem1(cfg)
        assert report.verdict == "no-reconnection"
        assert report.signatures["t0"] == report.signatures["tT"]


class TestRemark2Mini:
    def test_reconnection_and_error_reporting(self, tmp_path):
        cfg = mini("remark2", t_end=2.0)
        report = run_remark2(cfg, tmp_path)
        assert report.verdict == "reconnection"
        m = report.metrics
        # simulated and closed-form errors agree to solver accuracy
        assert m["exact_error_sim"] == pytest.approx(m["exact_error_closed_form"], rel=1e-6)
        assert m["u_l2_final"] < 1e-8
        assert m["displayed_bound"] > 0
        assert m["explicit_bound_satisfied"]


class TestFrozenInMini:
    def test_frozen_verdict(self, frozen_in_mini):
        report, _ = frozen_in_mini
        assert report.verdict == "frozen"
        assert report.metrics["frozen_in_residual"] < 1e-3
        assert report.metrics["pushed_line_distance"] < 5e-3
        # the fluid moves (||T21|| ~ 7), so the checks above measure transport
        assert report.metrics["u_l2_max"] > 1
        # the certificates: a continuous pushed curve, a level a0 along line0,
        # and |b(T)| bounded away from 0 where it divides
        assert report.metrics["pushed_line_max_gap"] < 1e-2
        assert report.metrics["line0_potential_spread"] < 1e-12
        assert report.metrics["pushed_line_min_b"] > 0.5

    def test_identity_flow_map_drifts(self, monkeypatch):
        # a flow map that moves nothing leaves line0 where a(T) has moved on
        def identity(trajectory, seeds, t):
            seeds = np.asarray(seeds, dtype=np.float64)
            return FlowMapSample(seeds, wrap(seeds), np.broadcast_to(np.eye(2), (len(seeds), 2, 2)))

        monkeypatch.setattr(scenarios, "flow_map", identity)
        report = run_frozen_in(ExperimentConfig.for_scenario("frozen-in", resolution=32))
        assert report.verdict == "topology-drift"
        assert report.metrics["pushed_line_distance"] > 5e-3
        assert report.metrics["pushed_line_distance"] == pytest.approx(0.21, abs=0.01)
        # the pull-back residual keeps its own flow map and still passes
        assert report.metrics["frozen_in_residual"] < 1e-3

    def test_shuffled_images_trip_the_gap_guard(self, monkeypatch, frozen_in_mini):
        # every pushed point still lies on the level line, but out of order
        # the points no longer form a continuous curve
        def shuffled(trajectory, seeds, t):
            sample = flow_map(trajectory, seeds, t)
            order = np.random.default_rng(0).permutation(len(seeds))
            return FlowMapSample(sample.seeds, sample.images[order], sample.jacobians[order])

        flow_map = scenarios.flow_map
        monkeypatch.setattr(scenarios, "flow_map", shuffled)
        report = run_frozen_in(FROZEN_IN_MINI)
        assert report.verdict == "topology-drift"
        assert report.metrics["pushed_line_max_gap"] >= np.pi
        assert report.metrics["pushed_line_distance"] == (
            frozen_in_mini[0].metrics["pushed_line_distance"])

    def test_nonzero_eta_rejected(self):
        with pytest.raises(ConfigError, match="eta"):
            run_frozen_in(mini("frozen-in", eta=0.5))


@pytest.fixture(scope="module")
def stability_mini_report():
    return run_stability_decay(mini("stability", t_end=1.5))


class TestStabilityMini:
    @pytest.fixture()
    def report(self, stability_mini_report):
        return stability_mini_report

    def test_decay_verdict(self, report):
        assert report.verdict == "decay-confirmed"
        assert report.metrics["fitted_log_slope"] <= report.metrics["slope_target"]

    def test_initial_q(self, report):
        assert report.metrics["q_initial"] == pytest.approx(
            report.metrics["q_initial_predicted"], rel=1e-10
        )

    def test_sigma_default(self, report):
        assert report.metrics["sigma"] == pytest.approx(0.45)

    def test_fit_log_slope_exact_on_exponential(self):
        t = np.linspace(0.0, 3.0, 20)
        assert fit_log_slope(t, 5.0 * np.exp(-1.7 * t)) == pytest.approx(-1.7, rel=1e-10)


class TestReportPlumbing:
    def test_report_embeds_config_and_writes(self, tmp_path):
        cfg = mini("custom", resolution=32, t_end=0.05)
        report = run_scenario(cfg, tmp_path)
        path = tmp_path / "report.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["config"] == cfg.to_dict()
        assert data["verdict"] == "completed"
        assert (tmp_path / "custom_diagnostics.ndjson").exists()
        assert (tmp_path / "custom_initial.snap").exists()
        assert (tmp_path / "custom_final.snap").exists()

    def test_runs_are_deterministic(self):
        for cfg in (mini("theorem2", t_end=0.25), FROZEN_IN_MINI):
            a = run_scenario(cfg).to_dict()
            b = run_scenario(cfg).to_dict()
            assert a == b, cfg.scenario

    def test_topology_cadence_annotates_records(self, tmp_path):
        from mhdrecon.snapshots import read_ndjson

        # custom decays T_11 in place, so every tagged record has its 4 saddles;
        # theorem2 starts from T_22 and is forced toward T_11, so only its
        # first record is sure to have T_22's 16
        for scenario, n, saddles in (("custom", 1, [4, 4]), ("theorem2", 2, [16])):
            cfg = mini(scenario, resolution=48, t_end=0.1, output_cadence=25,
                       n=n, m=n, topology_cadence=2)
            run_scenario(cfg, tmp_path / scenario)
            records = read_ndjson(tmp_path / scenario / f"{scenario}_diagnostics.ndjson")
            tagged = [r for r in records if r.signature is not None]
            assert [r.t for r in tagged] == [records[0].t, records[2].t]
            assert [r.signature["n_saddles"] for r in tagged][:len(saddles)] == saddles
            assert records[1].signature is None  # between cadence firings

    def test_expected_mismatch_flagged(self):
        cfg = mini("theorem2", t_end=0.5, expect="no-reconnection")
        report = run_theorem2(cfg)
        assert report.verdict == "reconnection"
        assert not report.as_expected
