"""End-to-end scenario runs at reduced desk scale, plus config handling.

Full-scale parameter sets live in test_acceptance; here each scenario runs in
seconds on coarser grids and shorter horizons.
"""

import dataclasses
import json
import logging
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdrecon import scenarios
from mhdrecon.fields import TaylorSpec, make_taylor, make_tilde_t1, zero_field
from mhdrecon.scenarios import (
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    Report,
    fit_log_slope,
    frozen_in_initial,
    load_config,
    run_frozen_in,
    run_remark2,
    run_scenario,
    run_stability_decay,
    run_theorem1,
    run_theorem2,
)
from mhdrecon.solver import BlowUpError, MHDState, advance, energy, simulate
from mhdrecon.topology import _TRACE_STEP, FlowMapSample, wrap

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
    "expect": st.none() | st.text(max_size=6),
    "topology_cadence": st.none() | st.integers(1, 10),
}


def mini(scenario, **kw):
    defaults = dict(resolution=48, dt=2e-3, output_cadence=25)
    defaults.update(kw)
    return ExperimentConfig.for_scenario(scenario, **defaults)


# the scenarios that certify their step with a time_error_estimate
DIFFUSIVE = ("theorem1", "theorem2", "remark2", "stability")


class TestConfig:
    def test_defaults_resolve(self):
        cfg = ExperimentConfig.for_scenario("theorem1")
        assert cfg.resolution == 128 and cfg.t_end == 2.0 and cfg.delta == 1e-3
        assert cfg.expect == "reconnection"
        frozen = ExperimentConfig.for_scenario("frozen-in")
        assert (frozen.dt, frozen.output_cadence) == (2.5e-3, 20)
        assert frozen.dt * frozen.output_cadence == 0.05
        steps = {"theorem1": (1e-2, 5), "stability": (1e-2, 5),
                 "theorem2": (5e-2, 1), "remark2": (5e-2, 1)}
        # the diffusive defaults keep the snapshot interval 0.05 and certify their step
        for scenario in DIFFUSIVE:
            cfg = ExperimentConfig.for_scenario(scenario)
            assert (cfg.dt, cfg.output_cadence) == steps[scenario], scenario
            assert cfg.dt * cfg.output_cadence == 0.05, scenario
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
        # seed_grid and dealias are no longer settings, so every value is bad
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
            {"scenario": "custom", "topology_cadence": None, "expect": None})
        assert cfg.topology_cadence is None and cfg.expect is None

    # the critical-point search seeds itself and the 2/3-rule cut is fixed,
    # so neither key is a setting
    @pytest.mark.parametrize("name, value", [("seed_grid", 48), ("seed_grid", None),
                                             ("dealias", True), ("dealias", False)])
    def test_removed_settings_are_refused(self, name, value):
        with pytest.raises(ConfigError, match=f"^field '{name}': not a config field$"):
            ExperimentConfig.from_dict({"scenario": "theorem1", name: value})

    def test_one_grid_per_resolution(self, monkeypatch):
        # every run at one resolution shares its grid and the grid's cached
        # wavenumber arrays, the solver's final fields included
        cfg = mini("theorem1", n=2, m=2, t_end=0.02)
        assert cfg.grid() is cfg.grid() is mini("theorem2").grid()
        assert cfg.grid() is not mini("theorem1", resolution=32).grid()
        finals = []

        def main_run(*args, **kwargs):
            finals.append(simulate(*args, **kwargs))
            return finals[-1]

        def companion(*args, **kwargs):
            final, tally = advance(*args, **kwargs)
            finals.append(final)
            return final, tally

        monkeypatch.setattr(scenarios, "simulate", main_run)
        monkeypatch.setattr(scenarios, "advance", companion)
        run_theorem1(cfg)
        assert len(finals) == 2  # the run and its Richardson companion
        assert all(f.u.grid is cfg.grid() and f.b.grid is cfg.grid() for f in finals)

    # T_44 is representable at M = 10, but it lies beyond the 2/3-rule cut
    # M/3, where its products would alias
    @pytest.mark.parametrize("scenario", ["theorem1", "theorem2", "remark2", "stability"])
    def test_datum_beyond_the_cut_names_the_resolution(self, scenario, monkeypatch):
        # refused before any topology, any run, and the companion's worker
        def not_before_the_check(*args, **kwargs):
            raise AssertionError("datum used before it was checked")

        monkeypatch.setattr(scenarios, "extract_signature", not_before_the_check)
        monkeypatch.setattr(scenarios, "simulate", not_before_the_check)
        threads = threading.active_count()
        cfg = ExperimentConfig.from_dict({"scenario": scenario, "resolution": 10})
        with pytest.raises(ConfigError, match=r"^field 'resolution': .* has a mode \(k1, k2\) = "
                                              r"\(4, 4\) beyond the 2/3-rule cut M/3 = 3\.333 "
                                              r"at M = 10; it needs M >= 12$"):
            run_scenario(cfg)
        assert threading.active_count() == threads

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
            assert named and (named.group(1) in data or named.group(1) == "scenario"), msg
            if named.group(1) == "viscosity":
                assert msg == "field 'viscosity': not a config field", msg
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
    """The Richardson estimate of theorem1's time error, held to the true
    error of its final state against a run at an 8 times finer step."""

    @pytest.fixture(scope="class")
    def errors(self):
        out = {}
        for dt in (2e-2, 1e-2):
            cfg = ExperimentConfig.for_scenario("theorem1", resolution=32, dt=dt, t_end=0.4)
            grid, spec = cfg.grid(), TaylorSpec(cfg.n, cfg.m)
            b0 = ((1.0 / np.sqrt(spec.eigenvalue)) * make_taylor(spec, 1.0, grid)
                  + cfg.delta * make_tilde_t1(grid))
            initial, sim_cfg = MHDState(zero_field(grid), b0, 0.0), cfg.sim_config()
            final = simulate(sim_cfg, initial)
            ref = simulate(dataclasses.replace(sim_cfg, dt=dt / 8), initial)
            true_error = np.sqrt(energy(MHDState(final.u - ref.u, final.b - ref.b)) / energy(ref))
            coarse, _ = advance(dataclasses.replace(sim_cfg, dt=2.0 * sim_cfg.dt), initial)
            out[dt] = (scenarios._time_error_estimate(final, coarse), true_error)
        return out

    def test_estimate_within_a_factor_two_of_the_true_error(self, errors):
        for dt, (estimate, true_error) in errors.items():
            assert 0.5 * true_error <= estimate <= 2.0 * true_error, (dt, estimate, true_error)

    def test_halving_dt_shrinks_the_estimate_at_fourth_order(self, errors):
        ratio = errors[2e-2][0] / errors[1e-2][0]
        assert 10.0 <= ratio <= 22.0

    def test_companion_blow_up_gives_no_estimate(self, caplog):
        # stable at dt, but the companion run at 2 dt, on its worker thread,
        # exceeds the CFL limit
        cfg, b0 = _ideal_from_rest(10.0)
        with caplog.at_level(logging.WARNING, logger="mhdrecon"):
            final, estimate = scenarios._run_from_rest(cfg, None, "custom", b0)
        assert estimate is None and final.t == cfg.t_end
        # the main run's CFL warning, then the companion's blow-up
        assert [r.name for r in caplog.records] == ["mhdrecon.solver", "mhdrecon.scenarios"]
        assert "no time error estimate" in caplog.records[1].getMessage()


def _ideal_from_rest(amplitude: float):
    """An ideal run from rest at M = 16 and dt = 0.04, and its datum.

    The companion at 2 dt blows up from amplitude 10, the run itself from
    amplitude 20.
    """
    cfg = ExperimentConfig.for_scenario("custom", resolution=16, nu=0.0, eta=0.0, dt=0.04,
                                        t_end=2.0)
    grid = cfg.grid()
    return cfg, amplitude * (make_tilde_t1(grid) + make_taylor(TaylorSpec(2, 1), 1.0, grid))


class TestCompanionThread:
    """The Richardson companion steps on a worker thread beside the main run."""

    def test_companion_runs_on_another_thread(self, monkeypatch):
        threads = {}

        def recording(run):
            def recorded(sim_cfg, *args, **kwargs):
                threads[sim_cfg.dt] = threading.get_ident()
                return run(sim_cfg, *args, **kwargs)
            return recorded

        # the main run through simulate, the companion through advance
        monkeypatch.setattr(scenarios, "simulate", recording(simulate))
        monkeypatch.setattr(scenarios, "advance", recording(advance))
        cfg = mini("theorem1", n=2, m=2, t_end=0.02)
        run_theorem1(cfg)
        assert threads[cfg.dt] == threading.get_ident()
        assert threads[2.0 * cfg.dt] != threading.get_ident()

    @pytest.mark.parametrize("scenario", ["theorem1", "stability"])
    def test_estimate_is_the_serial_one(self, scenario):
        cfg = ExperimentConfig.for_scenario(scenario, resolution=32, t_end=0.5)
        report = run_scenario(cfg)
        *_, b0 = scenarios._taylor_datum(cfg, cfg.grid())
        initial, sim_cfg = MHDState(zero_field(cfg.grid()), b0, 0.0), cfg.sim_config()
        final = simulate(sim_cfg, initial)
        coarse = simulate(dataclasses.replace(sim_cfg, dt=2.0 * sim_cfg.dt), initial)
        gap = energy(MHDState(final.u - coarse.u, final.b - coarse.b))
        assert report.metrics["time_error_estimate"] == math.sqrt(gap / energy(final)) / 15.0

    def test_main_run_blow_up_raises_and_leaves_no_thread(self, caplog):
        cfg, b0 = _ideal_from_rest(20.0)
        threads = threading.active_count()
        with caplog.at_level(logging.INFO, logger="mhdrecon"):
            with pytest.raises(BlowUpError):
                scenarios._run_from_rest(cfg, None, "custom", b0)
        assert threading.active_count() == threads
        # the companion's records are dropped with the run
        assert not [r for r in caplog.records if r.name.startswith("mhdrecon")]


class TestForcedRunsStepExactly:
    """With u = 0 and a static force the induction equation of theorem2 and
    remark2 is linear, and ETDRK4 integrates it exactly: one step per
    snapshot interval meets the closed forms to roundoff."""

    @staticmethod
    def _config(scenario):
        return ExperimentConfig.for_scenario(scenario, resolution=32, dt=0.05,
                                             output_cadence=1, t_end=0.5)

    def test_theorem2_meets_its_closed_form(self):
        report = run_theorem2(self._config("theorem2"))
        assert report.metrics["max_oracle_rel_l2_error"] < 1e-13

    def test_remark2_error_is_the_closed_form(self):
        m = run_remark2(self._config("remark2")).metrics
        assert m["exact_error_sim"] == pytest.approx(m["exact_error_closed_form"], rel=1e-12)


class TestCflReport:
    def test_theorem1_default_step_resolves_advection(self, caplog):
        # the run and its companion at 2 dt each log their worst CFL number
        with caplog.at_level(logging.INFO, logger="mhdrecon.solver"):
            run_theorem1(ExperimentConfig.for_scenario("theorem1"))
        lines = [r for r in caplog.records if r.name == "mhdrecon.solver"]
        assert [r.levelname for r in lines] == ["INFO", "INFO"]
        for record in lines:
            found = re.fullmatch(r"CFL number at worst (\S+) over (\d+) steps", record.getMessage())
            assert found, record.getMessage()
            assert 0.0 < float(found.group(1)) < 0.5
        assert [int(re.search(r"over (\d+)", r.getMessage()).group(1)) for r in lines] == [200, 100]

    @pytest.mark.parametrize("scenario", ["frozen-in", "theorem1"])
    def test_zero_length_run_logs_no_cfl_line(self, scenario, caplog):
        # no step is taken, by the run nor by theorem1's companion
        with caplog.at_level(logging.DEBUG, logger="mhdrecon"):
            run_scenario(ExperimentConfig.for_scenario(scenario, resolution=32, t_end=0.0))
        assert [r for r in caplog.records if r.name == "mhdrecon.solver"] == []


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

    def test_ideal_run_keeps_its_portrait(self):
        # the contrast of the abstract: at eta = 0 the lines are frozen into
        # the flow, so T_44 / N + delta tilde T1 keeps its 128 points and its
        # connections, where the resistive default reconnects
        cfg = ExperimentConfig.for_scenario("theorem1", eta=0.0, resolution=32, t_end=0.5)
        report = run_theorem1(cfg)
        assert report.verdict == "no-reconnection"
        assert report.signatures["t0"] == report.signatures["tT"]
        sig = report.signatures["tT"]
        assert (sig["n_saddles"], sig["n_centers"]) == (64, 64)
        assert (sig["hetero_connections"], sig["self_connections"]) == (144, 112)


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
        assert report.metrics["pushed_line_max_gap"] < 2 * _TRACE_STEP
        assert report.metrics["line0_points"] == 1 + int(np.ceil(2 * np.pi / _TRACE_STEP))
        assert report.metrics["line0_potential_spread"] < 1e-12
        assert report.metrics["pushed_line_min_b"] > 0.5
        # ideal induction conserves sum_k w(k) |a(k)|^2 up to time-stepping error
        assert 0.0 <= report.metrics["potential_l2_drift"] < 1e-10

    def test_identity_flow_map_drifts(self, monkeypatch):
        # a flow map that moves nothing leaves line0 where a(T) has moved on
        def identity(trajectory, seeds):
            seeds = np.asarray(seeds, dtype=np.float64)
            return FlowMapSample(seeds, wrap(seeds), np.broadcast_to(np.eye(2), (len(seeds), 2, 2)))

        monkeypatch.setattr(scenarios, "flow_map", identity)
        report = run_frozen_in(ExperimentConfig.for_scenario("frozen-in", resolution=32))
        assert report.verdict == "topology-drift"
        assert report.metrics["pushed_line_distance"] > 5e-3
        assert report.metrics["pushed_line_distance"] == pytest.approx(0.21, abs=0.01)
        # the pull-back residual reads the same flow map, so it fails too: the
        # seeds stay put while b(T) has moved on
        assert report.metrics["frozen_in_residual"] > 1e-3

    def test_shuffled_images_trip_the_gap_guard(self, monkeypatch, frozen_in_mini):
        # every pushed point still lies on the level line, but out of order
        # the points no longer form a continuous curve
        def shuffled(trajectory, seeds):
            sample = flow_map(trajectory, seeds)
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

    def test_zero_horizon_is_exact(self):
        # the run records its initial state alone, and the flow map is the identity
        report = run_frozen_in(ExperimentConfig.for_scenario("frozen-in", resolution=32, t_end=0.0))
        assert report.verdict == "frozen"
        assert report.metrics["frozen_in_residual"] == 0.0


class TestFrozenInDefaultStep:
    """The default frozen-in step is held to the error budget of the
    diffusive runs, and to a CFL number below 0.5 up to M = 256."""

    def test_richardson_estimate_within_budget(self):
        cfg = ExperimentConfig.for_scenario("frozen-in")
        initial, sim_cfg = frozen_in_initial(cfg.grid()), cfg.sim_config()
        final = simulate(sim_cfg, initial)
        coarse, _ = advance(dataclasses.replace(sim_cfg, dt=2.0 * sim_cfg.dt), initial)
        assert scenarios._time_error_estimate(final, coarse) <= 1e-10

    def test_no_cfl_warning_at_m256(self, caplog):
        # the worst CFL number of the whole run (0.204) is reached in its first steps
        cfg = ExperimentConfig.for_scenario("frozen-in", resolution=256, t_end=0.025)
        with caplog.at_level(logging.INFO, logger="mhdrecon.solver"):
            simulate(cfg.sim_config(), frozen_in_initial(cfg.grid()))
        lines = [r for r in caplog.records if r.name == "mhdrecon.solver"]
        assert [r.levelname for r in lines] == ["INFO"]
        assert re.fullmatch(r"CFL number at worst \S+ over 10 steps", lines[0].getMessage())

    def test_default_run_certificates(self, frozen_in_default):
        m = frozen_in_default.metrics
        assert m["frozen_in_residual"] == pytest.approx(5.0046e-7, rel=1e-3)
        assert m["pushed_line_distance"] < 2e-7
        assert 0.0 <= m["potential_l2_drift"] < 1e-10


@pytest.mark.parametrize("name", ["nu", "eta"])
def test_stability_refuses_nonpositive_diffusivity(monkeypatch, name):
    # sigma = 0.9 min(nu, eta) must be positive; the run is refused before any step
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(scenarios, "simulate", no_simulation)
    with pytest.raises(ConfigError, match=f"field '{name}'"):
        run_stability_decay(mini("stability", **{name: 0.0}))


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
