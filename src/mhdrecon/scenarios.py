"""Scripted end-to-end scenarios and their reports.

Each run_* function takes an ExperimentConfig, optionally writes diagnostics
(NDJSON), snapshots, and a report JSON into an output directory, and returns
a Report whose verdict the CLI compares against the expected one. Scenarios:

    theorem1   unforced run from (0, N^-1 T_nm + delta tilde T_1); reconnection
               is certified by a count mismatch between the initial signature
               and the signature of the rescaled final field, which must match
               the structurally stable reference tilde T_1
    theorem2   forced run from (0, T_nm) whose exact solution is known in
               closed form; reconnection by count mismatch
    remark2    variant of theorem2 forced toward tilde T_1, with the exact
               closed-form error compared against its displayed bound and
               against the bound with the omitted norms written out
    frozen-in  ideal run (eta = 0) from the moving datum (T_21, tilde T_1);
               checks the pull-back identity, and that the flow map carries
               a traced magnetic line of b0 onto one level line of the
               magnetic potential a(T)
    stability  perturbed run against the closed-form decaying reference;
               fits the late-time decay rate of the squared H^r perturbation
               norm against the envelope
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import oracles
from .fields import (
    ConfigurationError,
    TaylorSpec,
    TorusGrid,
    c1_norm,
    l2_norm,
    make_taylor,
    make_tilde_t1,
    sobolev_norm,
    zero_field,
)
from .snapshots import (
    DiagnosticsRecord,
    write_ndjson,
    write_state_snapshot,
)
from .solver import (
    BlowUpError,
    ForcingSpec,
    MHDState,
    SimConfig,
    TrajectoryRecorder,
    cross_helicity,
    energy,
    simulate,
)
from .topology import (
    TopologySignature,
    extract_signature,
    flow_map,
    polyline_arclength,
    signatures_equivalent,
    torus_distance,
    trace_integral_line,
    verify_frozen_in,
)

log = logging.getLogger(__name__)

SCENARIOS = ("theorem1", "theorem2", "remark2", "frozen-in", "stability", "custom")

# accepted spelling variants for the scenario name
_SCENARIO_ALIASES = {"stability-decay": "stability"}

# The diffusive runs step at dt = 5e-3: their time_error_estimate is at most
# 8e-11 at these configs, far below what a verdict needs, and theorem2's field
# meets its closed form to 1.4e-10 (dt = 1e-2 would give 2e-9). Every
# scenario keeps the snapshot interval dt * output_cadence = 0.05. frozen-in
# keeps 1e-3: it is ideal and advective (CFL number 0.14 at max |u| = 7), and
# its residual is set by the snapshot interval.
_DEFAULTS = {
    "theorem1": dict(nu=0.5, eta=0.5, resolution=128, dt=5e-3, output_cadence=10, t_end=2.0,
                     delta=1e-3, expect="reconnection"),
    "theorem2": dict(nu=0.5, eta=0.5, resolution=128, dt=5e-3, output_cadence=10, t_end=2.0,
                     expect="reconnection"),
    "remark2": dict(nu=0.5, eta=0.5, resolution=128, dt=5e-3, output_cadence=10, t_end=2.0,
                    expect="reconnection"),
    "frozen-in": dict(nu=0.1, eta=0.0, resolution=128, dt=1e-3, output_cadence=50, t_end=0.25,
                      expect="frozen"),
    "stability": dict(nu=0.5, eta=0.5, resolution=128, dt=5e-3, output_cadence=10, t_end=2.0,
                      delta=1e-3, expect="decay-confirmed"),
    "custom": dict(nu=0.5, eta=0.5, resolution=64, dt=1e-3, output_cadence=50, t_end=1.0,
                   expect="completed"),
}


class ConfigError(ConfigurationError):
    """A scenario configuration is malformed; the message names the field."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite_number(v) -> bool:
    if not (_is_int(v) or isinstance(v, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _is_even_grid(v) -> bool:
    return _is_int(v) and v >= 8 and v % 2 == 0


_NON_NEGATIVE = (lambda v: _is_finite_number(v) and v >= 0, "a finite number >= 0")
_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")

# field -> (test of a value, what the value must be); JSON null is None
_FIELD_RULES = {
    "scenario": (lambda v: isinstance(v, str), "a string"),
    "nu": _NON_NEGATIVE,
    "eta": _NON_NEGATIVE,
    "resolution": (_is_even_grid, "an even integer >= 8"),
    "dt": (lambda v: _is_finite_number(v) and v > 0, "a finite number > 0"),
    "t_end": _NON_NEGATIVE,
    "n": _POSITIVE_INT,
    "m": _POSITIVE_INT,
    "n2": _POSITIVE_INT,
    "m2": _POSITIVE_INT,
    "delta": _NON_NEGATIVE,
    "r": (lambda v: _is_int(v) and 0 <= v <= 8, "an integer in 0..8 (Sobolev index)"),
    "output_cadence": _POSITIVE_INT,
    "dealias": (lambda v: isinstance(v, bool), "true or false"),
    "expect": (lambda v: v is None or isinstance(v, str), "null or a string"),
    "seed_grid": (lambda v: v is None or _is_even_grid(v), "null or an even integer >= 8"),
    "topology_cadence": (lambda v: v is None or _POSITIVE_INT[0](v), "null or an integer >= 1"),
}


def _check_field(name: str, value) -> None:
    test, wanted = _FIELD_RULES[name]
    if not test(value):
        raise ConfigError(f"field {name!r}: expected {wanted}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Resolved scenario parameters; everything a run needs, serializable."""

    scenario: str
    nu: float
    eta: float
    resolution: int
    dt: float
    t_end: float
    n: int = 4
    m: int = 4
    n2: int = 1
    m2: int = 1
    delta: float = 1e-3
    r: int = 3
    output_cadence: int = 50
    dealias: bool = True
    expect: str | None = None
    seed_grid: int | None = None
    topology_cadence: int | None = None

    def __post_init__(self):
        for name in _FIELD_RULES:
            _check_field(name, getattr(self, name))
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"field 'scenario': unknown scenario {self.scenario!r}")

    @classmethod
    def for_scenario(cls, scenario: str, **overrides) -> "ExperimentConfig":
        scenario = _SCENARIO_ALIASES.get(scenario, scenario)
        if scenario not in _DEFAULTS:
            raise ConfigError(f"field 'scenario': unknown scenario {scenario!r}")
        params = dict(_DEFAULTS[scenario])
        params.update(overrides)
        return cls(scenario=scenario, **params)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        if "scenario" not in data:
            raise ConfigError("field 'scenario': missing")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        # the other fields are checked on construction; this one is looked up first
        _check_field("scenario", data["scenario"])
        overrides = {k: v for k, v in data.items() if k != "scenario"}
        return cls.for_scenario(data["scenario"], **overrides)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def grid(self) -> TorusGrid:
        return TorusGrid(self.resolution)

    def sim_config(self, forcing: ForcingSpec | None = None) -> SimConfig:
        return SimConfig(
            nu=self.nu,
            eta=self.eta,
            grid=self.grid(),
            dt=self.dt,
            t_end=self.t_end,
            forcing=forcing or ForcingSpec(),
            dealias=self.dealias,
            output_cadence=self.output_cadence,
        )


def load_config(path) -> ExperimentConfig:
    """Parse a config JSON file; errors carry the offending line or field."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return ExperimentConfig.from_dict(data)


@dataclass
class Report:
    """Outcome of one scenario run; serializes with its full resolved config."""

    scenario: str
    verdict: str
    expected: str | None
    config: dict
    metrics: dict = field(default_factory=dict)
    signatures: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    @property
    def as_expected(self) -> bool:
        return self.expected is None or self.verdict == self.expected

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "verdict": self.verdict,
            "expected": self.expected,
            "as_expected": self.as_expected,
            "config": self.config,
            "metrics": self.metrics,
            "signatures": self.signatures,
            "series": self.series,
        }

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "report.json"
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return path


class _DiagnosticsSink:
    """Collects per-snapshot diagnostics records for NDJSON output.

    When a topology cadence is set, every cadence-th record additionally
    carries the signature counts of the magnetic field at that time.
    """

    def __init__(self, r_max: int, topology_cadence: int | None, seed_resolution: int | None):
        self.r_max = r_max
        self.topology_cadence = topology_cadence
        self.seed_resolution = seed_resolution
        self.records: list[DiagnosticsRecord] = []

    def __call__(self, state: MHDState) -> None:
        signature = None
        if self.topology_cadence and len(self.records) % self.topology_cadence == 0:
            sig, _ = extract_signature(state.b, self.seed_resolution)
            signature = sig.to_dict()
        self.records.append(
            DiagnosticsRecord(
                t=state.t,
                energy_u=l2_norm(state.u) ** 2,
                energy_b=l2_norm(state.b) ** 2,
                cross_helicity=cross_helicity(state),
                sobolev={
                    "u": [sobolev_norm(state.u, r) for r in range(self.r_max + 1)],
                    "b": [sobolev_norm(state.b, r) for r in range(self.r_max + 1)],
                },
                signature=signature,
            )
        )


def _run_with_diagnostics(
    sim_cfg: SimConfig, initial: MHDState, cfg: ExperimentConfig, out_dir, label: str,
    extra_sinks=(),
):
    """Simulate with a trajectory recorder, diagnostics and extra sinks; persist if asked."""
    recorder = TrajectoryRecorder(sim_cfg)
    diags = _DiagnosticsSink(cfg.r, cfg.topology_cadence, cfg.seed_grid)
    final = simulate(sim_cfg, initial, sinks=[recorder, diags, *extra_sinks])
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_ndjson(out / f"{label}_diagnostics.ndjson", diags.records)
        write_state_snapshot(out / f"{label}_initial.snap", initial, sim_cfg.nu, sim_cfg.eta)
        write_state_snapshot(out / f"{label}_final.snap", final, sim_cfg.nu, sim_cfg.eta)
    return final, recorder.trajectory, diags.records


def _time_error_estimate(sim_cfg: SimConfig, initial: MHDState, final: MHDState) -> float | None:
    """Richardson estimate of the relative time-stepping error of final.

    A companion run of the same config at 2 dt, with no sinks, ends about
    2^4 - 1 = 15 times the error of the fourth-order IF-RK4 run away from
    it, so the estimate is ||z_h - z_2h|| / ||z_h|| / 15 with z = (u, b) in
    the combined L2 norm. u alone can be roundoff-small (about 1e-10 on
    theorem2), so the ratio is taken over both fields together. None, with
    a warning, when the companion run blows up.
    """
    try:
        coarse = simulate(dataclasses.replace(sim_cfg, dt=2.0 * sim_cfg.dt), initial)
    except BlowUpError as exc:
        log.warning("companion run at 2 dt = %g blew up (%s); no time error estimate",
                    2.0 * sim_cfg.dt, exc)
        return None
    size = energy(final)
    gap = energy(MHDState(final.u - coarse.u, final.b - coarse.b))
    estimate = math.sqrt(gap / size) / 15.0 if size > 0 else 0.0
    log.info("time_error_estimate %.3g at dt = %g (companion run at 2 dt)",
             estimate, sim_cfg.dt)
    return estimate


@lru_cache(maxsize=None)
def _reference_signature(grid: TorusGrid, seed_resolution: int | None) -> TopologySignature:
    """Signature of tilde T_1, the same for every run on one grid and seeding lattice."""
    sig, _ = extract_signature(make_tilde_t1(grid), seed_resolution)
    return sig


def run_theorem1(cfg: ExperimentConfig, out_dir=None) -> Report:
    """Unforced reconnection run: perturbed large Taylor mode decays onto the
    structurally stable small field."""
    grid = cfg.grid()
    spec = TaylorSpec(cfg.n, cfg.m)
    n_scale = float(np.sqrt(spec.eigenvalue))
    tilde = make_tilde_t1(grid)
    b0 = (1.0 / n_scale) * make_taylor(spec, 1.0, grid) + cfg.delta * tilde
    sig0, pts0 = extract_signature(b0, cfg.seed_grid)

    sim_cfg, initial = cfg.sim_config(), MHDState(zero_field(grid), b0, 0.0)
    final, _, _ = _run_with_diagnostics(sim_cfg, initial, cfg, out_dir, "theorem1")
    time_error = _time_error_estimate(sim_cfg, initial, final)

    if cfg.delta > 0:
        rescale = float(np.exp(cfg.eta * cfg.t_end) / cfg.delta)
    else:
        # unperturbed datum: the perturbative rescaling is undefined, so undo
        # the reference decay instead; the signature is then constant in time
        # and no reconnection can be certified
        rescale = float(np.exp(cfg.eta * spec.eigenvalue * cfg.t_end) * n_scale)
    b_tilde = rescale * final.b
    sig_t, pts_t = extract_signature(b_tilde, cfg.seed_grid)
    ref_sig = _reference_signature(grid, cfg.seed_grid)
    c1_dist = c1_norm(b_tilde - tilde)

    changed = signatures_equivalent(sig0, sig_t) == "distinct"
    settled = (
        sig_t.structurally_stable
        and (sig_t.n_saddles, sig_t.n_centers) == (ref_sig.n_saddles, ref_sig.n_centers)
        and sig_t.hetero_connections == 0
    )
    verdict = "reconnection" if (changed and settled and cfg.t_end > 0) else "no-reconnection"

    return Report(
        scenario="theorem1",
        verdict=verdict,
        expected=cfg.expect,
        config=cfg.to_dict(),
        metrics={
            "count_t0": sig0.n_saddles + sig0.n_centers + sig0.n_degenerate,
            "count_tT": sig_t.n_saddles + sig_t.n_centers + sig_t.n_degenerate,
            "rescale_factor": rescale,
            "c1_distance_to_reference": c1_dist,
            "expected_min_count_t0": 8 * cfg.n * cfg.m,
            "time_error_estimate": time_error,
        },
        signatures={
            "t0": sig0.to_dict(),
            "tT": sig_t.to_dict(),
            "reference": ref_sig.to_dict(),
        },
    )


def run_theorem2(cfg: ExperimentConfig, out_dir=None) -> Report:
    """Forced reconnection run checked against the closed-form solution."""
    grid = cfg.grid()
    spec_nm = TaylorSpec(cfg.n, cfg.m)
    spec_2 = TaylorSpec(cfg.n2, cfg.m2)
    oracle = oracles.ForcedOracle(spec_nm=spec_nm, spec_2=spec_2, eta=cfg.eta)
    forcing = ForcingSpec(kind="theorem2", spec_nm=spec_nm, spec_2=spec_2)

    b0 = make_taylor(spec_nm, 1.0, grid)
    sig0, _ = extract_signature(b0, cfg.seed_grid)

    oracle_errors: list[tuple[float, float]] = []
    u_norms: list[tuple[float, float]] = []

    def compare(state: MHDState) -> None:
        exact = oracles.forced_exact_b(oracle, state.t, grid)
        rel = l2_norm(state.b - exact) / l2_norm(exact)
        oracle_errors.append((state.t, rel))
        u_norms.append((state.t, l2_norm(state.u)))

    sim_cfg, initial = cfg.sim_config(forcing), MHDState(zero_field(grid), b0, 0.0)
    final, _, _ = _run_with_diagnostics(sim_cfg, initial, cfg, out_dir, "theorem2",
                                        extra_sinks=[compare])
    time_error = _time_error_estimate(sim_cfg, initial, final)

    b_tilde = (cfg.eta * spec_2.eigenvalue) * final.b
    small = make_taylor(spec_2, 1.0, grid)
    hr_dist = sobolev_norm(b_tilde - small, cfg.r)
    sig_t, _ = extract_signature(b_tilde, cfg.seed_grid)

    verdict = (
        "reconnection"
        if signatures_equivalent(sig0, sig_t) == "distinct"
        else "no-reconnection"
    )
    return Report(
        scenario="theorem2",
        verdict=verdict,
        expected=cfg.expect,
        config=cfg.to_dict(),
        metrics={
            "count_t0": sig0.n_saddles + sig0.n_centers + sig0.n_degenerate,
            "count_tT": sig_t.n_saddles + sig_t.n_centers + sig_t.n_degenerate,
            "max_oracle_rel_l2_error": max(e for _, e in oracle_errors),
            "max_u_l2": max(v for _, v in u_norms),
            "hr_distance_rescaled_to_small": hr_dist,
            "time_error_estimate": time_error,
            "r": cfg.r,
        },
        signatures={"t0": sig0.to_dict(), "tT": sig_t.to_dict()},
        series={
            "oracle_rel_l2_error": oracle_errors,
            "u_l2": u_norms,
        },
    )


def run_remark2(cfg: ExperimentConfig, out_dir=None) -> Report:
    """Forced run toward tilde T_1 with the closed-form error/bound comparison."""
    grid = cfg.grid()
    spec_nm = TaylorSpec(cfg.n, cfg.m)
    forcing = ForcingSpec(kind="remark2", spec_nm=spec_nm)
    b0 = make_taylor(spec_nm, 1.0, grid)
    sig0, _ = extract_signature(b0, cfg.seed_grid)

    sim_cfg, initial = cfg.sim_config(forcing), MHDState(zero_field(grid), b0, 0.0)
    final, _, _ = _run_with_diagnostics(sim_cfg, initial, cfg, out_dir, "remark2")
    time_error = _time_error_estimate(sim_cfg, initial, final)

    tilde = make_tilde_t1(grid)
    b_tilde = cfg.eta * final.b
    err_sim = sobolev_norm(b_tilde - tilde, cfg.r)
    err_exact = oracles.remark2_exact_error(spec_nm, cfg.r, cfg.eta, cfg.t_end, grid)
    bound = oracles.remark2_error_bound(spec_nm.eigenvalue, cfg.r, cfg.eta, cfg.t_end)
    explicit = oracles.remark2_explicit_bound(spec_nm, cfg.r, cfg.eta, cfg.t_end, grid)
    sig_t, _ = extract_signature(b_tilde, cfg.seed_grid)
    ref_sig = _reference_signature(grid, cfg.seed_grid)

    settled = (
        sig_t.structurally_stable
        and (sig_t.n_saddles, sig_t.n_centers) == (ref_sig.n_saddles, ref_sig.n_centers)
    )
    changed = signatures_equivalent(sig0, sig_t) == "distinct"
    verdict = "reconnection" if (changed and settled) else "no-reconnection"

    return Report(
        scenario="remark2",
        verdict=verdict,
        expected=cfg.expect,
        config=cfg.to_dict(),
        metrics={
            "exact_error_sim": err_sim,
            "exact_error_closed_form": err_exact,
            "displayed_bound": bound,
            "bound_satisfied": bool(err_exact <= bound),
            "explicit_bound": explicit,
            "explicit_bound_satisfied": bool(err_exact <= explicit),
            "u_l2_final": l2_norm(final.u),
            "time_error_estimate": time_error,
            "r": cfg.r,
        },
        signatures={"t0": sig0.to_dict(), "tT": sig_t.to_dict(), "reference": ref_sig.to_dict()},
    )


def run_frozen_in(cfg: ExperimentConfig, out_dir=None) -> Report:
    """Ideal-induction run: pull-back identity plus line transport check.

    The fluid starts moving, (u0, b0) = (T_21, tilde T_1), so the flow map
    carries the magnetic lines somewhere. With b = grad_perp a, ideal
    induction is d_t a + u . grad a = 0, so a line of b0, a level line of
    a0, is carried onto a line of b(T) exactly when a(T, Phi_T(x)) = a0(x)
    along it. The check is pointwise on the pushed points x_i:

    - pushed_line_distance = max_i |a(T, x_i) - a0(x_0)| / |b(T, x_i)|, the
      first-order distance of each pushed point to the level line of a(T)
      through the level of line0;
    - pushed_line_max_gap, the largest torus distance between consecutive
      pushed points, below pi: a continuous pushed curve cannot jump to
      another component of the same level set.

    pushed_line_min_b (the smallest denominator) and line0_potential_spread
    (how level a0 is along the traced line0) are reported as certificates.
    """
    if cfg.eta != 0.0:
        raise ConfigError("field 'eta': the frozen-in scenario requires eta = 0")
    grid = cfg.grid()
    u0 = make_taylor(TaylorSpec(2, 1), 1.0, grid)
    b0 = make_tilde_t1(grid)
    initial = MHDState(u0, b0, 0.0)
    final, trajectory, _ = _run_with_diagnostics(
        cfg.sim_config(), initial, cfg, out_dir, "frozen_in"
    )

    side = np.linspace(0.0, 2.0 * np.pi, 9)[:-1] + 0.35
    seeds = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    residual = verify_frozen_in(trajectory, seeds, cfg.t_end)

    # transport of a traced magnetic line by the flow map: the pushed points
    # must stay on the level of a(T) that line0 has under a0
    line0 = trace_integral_line(b0, [np.pi / 2, np.pi / 2], arclen=2.0 * np.pi)
    pushed = flow_map(trajectory, line0, cfg.t_end).images
    pushed_len = polyline_arclength(pushed)
    a0_line = b0.evaluator.potential(line0)
    b_t = final.b.evaluator
    speed = np.linalg.norm(b_t.values(pushed), axis=-1)
    line_dist = float(np.max(np.abs(b_t.potential(pushed) - a0_line[0])
                             / np.maximum(speed, 1e-300)))
    max_gap = float(torus_distance(pushed[1:], pushed[:-1]).max())
    certificate = {
        "pushed_line_max_gap": max_gap,
        "pushed_line_min_b": float(speed.min()),
        "line0_potential_spread": float(np.ptp(a0_line)),
    }
    log.info("frozen-in certificate: residual %.3g, pushed_line_distance %.3g, %s",
             residual, line_dist, ", ".join(f"{k} {v:.3g}" for k, v in certificate.items()))

    ok = residual < 1e-3 and line_dist < 5e-3 and max_gap < np.pi
    return Report(
        scenario="frozen-in",
        verdict="frozen" if ok else "topology-drift",
        expected=cfg.expect,
        config=cfg.to_dict(),
        metrics={
            "frozen_in_residual": residual,
            "pushed_line_distance": line_dist,
            "pushed_line_arclength": pushed_len,
            **certificate,
            "u_l2_max": max(l2_norm(s.u) for s in trajectory.states),
            "snapshot_interval": cfg.dt * cfg.output_cadence,
            "n_seeds": len(seeds),
            "residual_threshold": 1e-3,
            "line_distance_threshold": 5e-3,
        },
    )


# relative slack of the fitted decay rate against the envelope rate 2 sigma
_DECAY_RATE_TOL = 0.1


def fit_log_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of ln(values) against time."""
    mask = values > 0
    t = np.asarray(times)[mask]
    y = np.log(np.asarray(values)[mask])
    if len(t) < 2:
        raise ConfigurationError("need at least two positive samples to fit a slope")
    a = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(a, y, rcond=None)[0]
    return float(slope)


def run_stability_decay(cfg: ExperimentConfig, out_dir=None) -> Report:
    """Perturbed run against the reference (0, N^-1 T_nm); the squared H^r
    difference must decay at least at the envelope rate 2 sigma, up to
    _DECAY_RATE_TOL.

    The reference is the decaying Taylor solution in closed form
    (oracles.decaying_taylor), so only the perturbed run is simulated.
    """
    if min(cfg.nu, cfg.eta) <= 0:
        raise ConfigError("field 'nu'/'eta': stability decay requires nu, eta > 0")
    grid = cfg.grid()
    spec = TaylorSpec(cfg.n, cfg.m)
    n_scale = float(np.sqrt(spec.eigenvalue))
    base = (1.0 / n_scale) * make_taylor(spec, 1.0, grid)
    tilde = make_tilde_t1(grid)
    perturbed_b0 = base + cfg.delta * tilde

    sim_cfg, initial = cfg.sim_config(), MHDState(zero_field(grid), perturbed_b0, 0.0)
    final, traj, _ = _run_with_diagnostics(sim_cfg, initial, cfg, out_dir, "stability_perturbed")
    time_error = _time_error_estimate(sim_cfg, initial, final)
    reference = oracles.DecayingTaylorOracle(spec, cfg.eta, amplitude=1.0 / n_scale)

    times = np.array(traj.times)
    q = []
    for s_per in traj.states:
        s_ref = oracles.decaying_taylor(reference, s_per.t, grid)
        v = s_per.u - s_ref.u
        h = s_per.b - s_ref.b
        q.append(sobolev_norm(v, cfg.r) ** 2 + sobolev_norm(h, cfg.r) ** 2)
    q = np.array(q)

    gamma = 1.0 + l2_norm(base) ** 2 + (cfg.delta * l2_norm(tilde)) ** 2
    bound = oracles.StabilityBound.for_run(
        cfg.nu, cfg.eta, cfg.r, cfg.delta, n_scale, gamma=gamma
    )
    envelope = [oracles.stability_envelope(bound, t) for t in times]

    late = times >= 0.5 * cfg.t_end
    slope = fit_log_slope(times[late], q[late])
    target = -2.0 * bound.sigma * (1.0 - _DECAY_RATE_TOL)
    verdict = "decay-confirmed" if slope <= target else "decay-too-slow"

    return Report(
        scenario="stability",
        verdict=verdict,
        expected=cfg.expect,
        config=cfg.to_dict(),
        metrics={
            "sigma": bound.sigma,
            "fitted_log_slope": slope,
            "slope_target": target,
            "q_initial": float(q[0]),
            "q_initial_predicted": float(cfg.delta**2 * sobolev_norm(tilde, cfg.r) ** 2),
            "gamma": gamma,
            "time_error_estimate": time_error,
            "r": cfg.r,
        },
        series={
            "q": list(zip(times.tolist(), q.tolist())),
            "envelope": list(zip(times.tolist(), envelope)),
        },
    )


def run_custom(cfg: ExperimentConfig, out_dir=None) -> Report:
    """Plain simulation of the decaying Taylor datum with diagnostics output."""
    grid = cfg.grid()
    b0 = make_taylor(TaylorSpec(cfg.n, cfg.m), 1.0, grid)
    final, _, records = _run_with_diagnostics(
        cfg.sim_config(), MHDState(zero_field(grid), b0, 0.0), cfg, out_dir, "custom"
    )
    return Report(
        scenario="custom",
        verdict="completed",
        expected=cfg.expect,
        config=cfg.to_dict(),
        metrics={
            "final_energy": energy(final),
            "n_records": len(records),
        },
    )


RUNNERS = {
    "theorem1": run_theorem1,
    "theorem2": run_theorem2,
    "remark2": run_remark2,
    "frozen-in": run_frozen_in,
    "stability": run_stability_decay,
    "custom": run_custom,
}


def run_scenario(cfg: ExperimentConfig, out_dir=None) -> Report:
    runner = RUNNERS[cfg.scenario]
    report = runner(cfg, out_dir)
    if out_dir is not None:
        report.write(out_dir)
    return report


def default_out_root() -> Path:
    return Path(os.environ.get("MHD_OUT_DIR", "out"))
