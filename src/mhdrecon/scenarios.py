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
    stability  perturbed run against the heat flow of N^-1 T_nm;
               fits the late-time decay rate of the squared H^r perturbation
               norm against the envelope
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
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
    MHDState,
    SimConfig,
    advance,
    cross_helicity,
    energy,
    heat_propagate,
    require_in_band,
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

# accepted spelling variants for the scenario name
_SCENARIO_ALIASES = {"stability-decay": "stability"}

# Every default keeps the snapshot interval dt * output_cadence = 0.05, and
# the diffusive runs take the largest such step whose time_error_estimate stays
# at about 1e-10 or below. ETDRK4 integrates the induction equation of theorem2
# and remark2 (u = 0, a static force) exactly, so they step at the snapshot
# interval itself and meet their closed forms to roundoff; theorem1 and
# stability carry an O(delta) nonlinear coupling and step at 1e-2 (estimate
# 7.1e-11). frozen-in is ideal and advective; it steps at 2.5e-3 (estimate
# 4.3e-11, worst CFL number 0.10 at M = 128 and 0.20 at M = 256), and its
# residual is set by the snapshot interval. custom keeps 1e-3.
_DEFAULTS = {
    "theorem1": dict(nu=0.5, eta=0.5, resolution=128, dt=1e-2, output_cadence=5, t_end=2.0,
                     delta=1e-3, expect="reconnection"),
    "theorem2": dict(nu=0.5, eta=0.5, resolution=128, dt=5e-2, output_cadence=1, t_end=2.0,
                     expect="reconnection"),
    "remark2": dict(nu=0.5, eta=0.5, resolution=128, dt=5e-2, output_cadence=1, t_end=2.0,
                    expect="reconnection"),
    "frozen-in": dict(nu=0.1, eta=0.0, resolution=128, dt=2.5e-3, output_cadence=20, t_end=0.25,
                      expect="frozen"),
    "stability": dict(nu=0.5, eta=0.5, resolution=128, dt=1e-2, output_cadence=5, t_end=2.0,
                      delta=1e-3, expect="decay-confirmed"),
    "custom": dict(nu=0.5, eta=0.5, resolution=64, dt=1e-3, output_cadence=50, t_end=1.0,
                   expect="completed"),
}

SCENARIOS = tuple(_DEFAULTS)


@lru_cache(maxsize=None)
def _grid(resolution: int) -> TorusGrid:
    return TorusGrid(resolution)


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
    "expect": (lambda v: v is None or isinstance(v, str), "null or a string"),
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
    expect: str | None = None
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
            raise ConfigError(f"field {', '.join(map(repr, sorted(unknown)))}: not a config field")
        # the other fields are checked on construction; this one is looked up first
        _check_field("scenario", data["scenario"])
        overrides = {k: v for k, v in data.items() if k != "scenario"}
        return cls.for_scenario(data["scenario"], **overrides)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def grid(self) -> TorusGrid:
        """The run's grid, one instance per resolution, so its wavenumber arrays are built once."""
        return _grid(self.resolution)

    def sim_config(self, forcing: oracles.ForcedOracle | None = None) -> SimConfig:
        return SimConfig(
            nu=self.nu,
            eta=self.eta,
            grid=self.grid(),
            dt=self.dt,
            t_end=self.t_end,
            forcing=forcing,
            output_cadence=self.output_cadence,
        )


def read_config_json(path):
    """The parsed JSON of a config file; errors carry the file and the offending line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_config(path) -> ExperimentConfig:
    """Parse a config JSON file; errors carry the offending line or field."""
    return ExperimentConfig.from_dict(read_config_json(path))


@dataclass
class Report:
    """Outcome of one scenario run; serializes with its full resolved config."""

    cfg: ExperimentConfig
    verdict: str
    metrics: dict = field(default_factory=dict)
    signatures: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    @property
    def scenario(self) -> str:
        return self.cfg.scenario

    @property
    def expected(self) -> str | None:
        return self.cfg.expect

    @property
    def as_expected(self) -> bool:
        return self.expected is None or self.verdict == self.expected

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "verdict": self.verdict,
            "expected": self.expected,
            "as_expected": self.as_expected,
            "config": self.cfg.to_dict(),
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

    def __init__(self, r_max: int, topology_cadence: int | None):
        self.r_max = r_max
        self.topology_cadence = topology_cadence
        self.records: list[DiagnosticsRecord] = []

    def __call__(self, state: MHDState) -> None:
        signature = None
        if self.topology_cadence and len(self.records) % self.topology_cadence == 0:
            sig, _ = extract_signature(state.b)
            signature = sig.to_dict()
        # the r = 0 entries are the L2 norms
        norms_u = [sobolev_norm(state.u, r) for r in range(self.r_max + 1)]
        norms_b = [sobolev_norm(state.b, r) for r in range(self.r_max + 1)]
        self.records.append(
            DiagnosticsRecord(
                t=state.t,
                energy_u=norms_u[0] ** 2,
                energy_b=norms_b[0] ** 2,
                cross_helicity=cross_helicity(state),
                sobolev={"u": norms_u, "b": norms_b},
                signature=signature,
            )
        )


def _run_with_diagnostics(
    sim_cfg: SimConfig, initial: MHDState, cfg: ExperimentConfig, out_dir, label: str,
    extra_sinks=(),
):
    """Simulate with diagnostics and extra sinks; persist if asked. Returns (final, records)."""
    diags = _DiagnosticsSink(cfg.r, cfg.topology_cadence)
    try:
        final = simulate(sim_cfg, initial, sinks=[diags, *extra_sinks])
    except ConfigurationError as exc:
        # the solver refuses data with modes beyond the 2/3-rule cut of the grid
        raise ConfigError(f"field 'resolution': {exc}") from exc
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_ndjson(out / f"{label}_diagnostics.ndjson", diags.records)
        write_state_snapshot(out / f"{label}_initial.snap", initial, sim_cfg.nu, sim_cfg.eta)
        write_state_snapshot(out / f"{label}_final.snap", final, sim_cfg.nu, sim_cfg.eta)
    return final, diags.records


def _companion_run(sim_cfg: SimConfig, initial: MHDState):
    """The Richardson companion of a run of sim_cfg from initial: (final state, CFL tally).

    The companion is solver.advance of the same config at 2 dt, with no
    sinks. It logs nothing; its caller logs the tally, or the BlowUpError
    it raises.
    """
    return advance(dataclasses.replace(sim_cfg, dt=2.0 * sim_cfg.dt), initial)


def _time_error_estimate(final: MHDState, coarse: MHDState) -> float:
    """Richardson estimate of the relative time-stepping error of final.

    The companion run's final state coarse ends about 2^4 - 1 = 15 times the
    error of the fourth-order ETDRK4 run away from final, so the estimate is
    ||z_h - z_2h|| / ||z_h|| / 15 with z = (u, b) in the combined L2 norm.
    u alone can be roundoff-small (about 1e-10 on theorem2), so the ratio is
    taken over both fields together.
    """
    size = energy(final)
    gap = energy(MHDState(final.u - coarse.u, final.b - coarse.b))
    return math.sqrt(gap / size) / 15.0 if size > 0 else 0.0


def _require_resolved(b0) -> None:
    """Refuse a datum b0 with a mode beyond the solver's 2/3-rule cut, naming the resolution."""
    try:
        require_in_band(b0, "b")
    except ConfigurationError as exc:
        raise ConfigError(f"field 'resolution': {exc}") from exc


@lru_cache(maxsize=None)
def _reference_signature(grid: TorusGrid) -> TopologySignature:
    """Signature of tilde T_1, the same for every run on one grid."""
    sig, _ = extract_signature(make_tilde_t1(grid))
    return sig


def _count(sig: TopologySignature) -> int:
    """The number of critical points of a signature."""
    return sig.n_saddles + sig.n_centers + sig.n_degenerate


def _settled(sig: TopologySignature, ref: TopologySignature) -> bool:
    """sig is structurally stable, with the saddle and center counts of ref."""
    return sig.structurally_stable and (
        (sig.n_saddles, sig.n_centers) == (ref.n_saddles, ref.n_centers))


def _run_from_rest(cfg: ExperimentConfig, out_dir, label: str, b0,
                   forcing: oracles.ForcedOracle | None = None, extra_sinks=()):
    """Run from (0, b0) with diagnostics; returns (final, time_error).

    time_error is the Richardson estimate of _time_error_estimate, or None,
    with a warning, when the companion run blows up. The companion steps on
    a worker thread while the main run steps on the calling thread; numpy's
    transforms and elementwise kernels release the GIL, so the two use two
    cores, and peak memory holds the work arrays of two solvers. Each run
    does the same float operations on its own arrays as it would alone. The
    companion logs nothing itself: once the main run is back, this thread
    logs the companion's CFL tally, or its blow-up, after the main run's
    lines, so the log reads as if the runs had been made one after the
    other. A datum beyond the 2/3-rule cut is refused before the worker
    starts. If the main run raises (a BlowUpError, say), its error leaves
    only once the worker has finished, at most the companion's own run (half
    a run) later, and nothing of the companion is logged.
    """
    _require_resolved(b0)
    sim_cfg, initial = cfg.sim_config(forcing), MHDState(zero_field(cfg.grid()), b0, 0.0)
    with ThreadPoolExecutor(max_workers=1) as worker:
        companion = worker.submit(_companion_run, sim_cfg, initial)
        final, _ = _run_with_diagnostics(sim_cfg, initial, cfg, out_dir, label, extra_sinks)
    try:
        coarse, tally = companion.result()
    except BlowUpError as exc:
        log.warning("companion run at 2 dt = %g blew up (%s); no time error estimate",
                    2.0 * sim_cfg.dt, exc)
        return final, None
    tally.log()
    estimate = _time_error_estimate(final, coarse)
    log.info("time_error_estimate %.3g at dt = %g (companion run at 2 dt)", estimate, sim_cfg.dt)
    return final, estimate


def _taylor_datum(cfg: ExperimentConfig, grid: TorusGrid):
    """The datum b0 = N^-1 T_nm + delta tilde T_1 of theorem1 and stability.

    Returns (N, N^-1 T_nm, tilde T_1, b0).
    """
    spec = TaylorSpec(cfg.n, cfg.m)
    n_scale = float(np.sqrt(spec.eigenvalue))
    base = (1.0 / n_scale) * make_taylor(spec, 1.0, grid)
    tilde = make_tilde_t1(grid)
    return n_scale, base, tilde, base + cfg.delta * tilde


def _reconnection_run(cfg: ExperimentConfig, out_dir, label: str, b0, scale: float,
                      forcing: oracles.ForcedOracle | None = None, extra_sinks=()):
    """The construction of Theorems 1 and 2: run from (0, b0), rescale the final b.

    Returns (sig0, sig_t, final, b_tilde, time_error): the signatures of b0
    and of b_tilde = scale * b(T), the final state, and its
    time_error_estimate.
    """
    _require_resolved(b0)
    sig0, _ = extract_signature(b0)
    final, time_error = _run_from_rest(cfg, out_dir, label, b0, forcing, extra_sinks)
    b_tilde = scale * final.b
    sig_t, _ = extract_signature(b_tilde)
    return sig0, sig_t, final, b_tilde, time_error


def run_theorem1(cfg: ExperimentConfig, out_dir=None) -> Report:
    """Unforced reconnection run: perturbed large Taylor mode decays onto the
    structurally stable small field."""
    grid = cfg.grid()
    n_scale, _, tilde, b0 = _taylor_datum(cfg, grid)
    if cfg.delta > 0:
        rescale = float(np.exp(cfg.eta * cfg.t_end) / cfg.delta)
    else:
        # unperturbed datum: the perturbative rescaling is undefined, so undo
        # the reference decay instead; the signature is then constant in time
        # and no reconnection can be certified
        rescale = float(np.exp(cfg.eta * TaylorSpec(cfg.n, cfg.m).eigenvalue * cfg.t_end)
                        * n_scale)
    sig0, sig_t, _, b_tilde, time_error = _reconnection_run(cfg, out_dir, "theorem1", b0, rescale)
    ref_sig = _reference_signature(grid)

    changed = signatures_equivalent(sig0, sig_t) == "distinct"
    settled = _settled(sig_t, ref_sig)
    verdict = "reconnection" if (changed and settled and cfg.t_end > 0) else "no-reconnection"

    return Report(
        cfg,
        verdict=verdict,
        metrics={
            "count_t0": _count(sig0),
            "count_tT": _count(sig_t),
            "rescale_factor": rescale,
            "c1_distance_to_reference": c1_norm(b_tilde - tilde),
            "expected_min_count_t0": 8 * cfg.n * cfg.m,
            "time_error_estimate": time_error,
        },
        signatures={
            "t0": sig0.to_dict(),
            "tT": sig_t.to_dict(),
            "reference": ref_sig.to_dict(),
        },
    )


def _forced_oracle(cfg: ExperimentConfig, spec_2: TaylorSpec | None) -> oracles.ForcedOracle:
    """The forced construction of a run from T_nm, checked before any work."""
    if cfg.eta <= 0:
        raise ConfigError(f"field 'eta': the {cfg.scenario} scenario requires eta > 0")
    try:
        return oracles.ForcedOracle(TaylorSpec(cfg.n, cfg.m), spec_2, cfg.eta)
    except ConfigurationError as exc:
        # with eta > 0 the oracle refuses only a small mode at or above T_nm
        raise ConfigError(f"field 'n2'/'m2': {exc}, with N2^2 = n2^2 + m2^2 = "
                          f"{cfg.n2**2 + cfg.m2**2} and N^2 = n^2 + m^2 = "
                          f"{cfg.n**2 + cfg.m**2}") from exc


def run_theorem2(cfg: ExperimentConfig, out_dir=None) -> Report:
    """Forced reconnection run checked against the closed-form solution."""
    grid = cfg.grid()
    spec_2 = TaylorSpec(cfg.n2, cfg.m2)
    oracle = _forced_oracle(cfg, spec_2)

    oracle_errors: list[tuple[float, float]] = []
    u_norms: list[tuple[float, float]] = []

    def compare(state: MHDState) -> None:
        exact = oracles.forced_exact_b(oracle, state.t, grid)
        rel = l2_norm(state.b - exact) / l2_norm(exact)
        oracle_errors.append((state.t, rel))
        u_norms.append((state.t, l2_norm(state.u)))

    sig0, sig_t, _, b_tilde, time_error = _reconnection_run(
        cfg, out_dir, "theorem2", make_taylor(oracle.spec_nm, 1.0, grid),
        cfg.eta * spec_2.eigenvalue, oracle, extra_sinks=[compare])
    hr_dist = sobolev_norm(b_tilde - make_taylor(spec_2, 1.0, grid), cfg.r)

    verdict = (
        "reconnection"
        if signatures_equivalent(sig0, sig_t) == "distinct"
        else "no-reconnection"
    )
    return Report(
        cfg,
        verdict=verdict,
        metrics={
            "count_t0": _count(sig0),
            "count_tT": _count(sig_t),
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
    if cfg.t_end <= 0:
        # the closed-form error and its bounds are of a positive time
        raise ConfigError("field 't_end': the remark2 scenario requires t_end > 0")
    grid = cfg.grid()
    oracle = _forced_oracle(cfg, None)
    spec_nm = oracle.spec_nm
    sig0, sig_t, final, b_tilde, time_error = _reconnection_run(
        cfg, out_dir, "remark2", make_taylor(spec_nm, 1.0, grid), cfg.eta, oracle)

    err_sim = sobolev_norm(b_tilde - make_tilde_t1(grid), cfg.r)
    err_exact = oracles.remark2_exact_error(spec_nm, cfg.r, cfg.eta, cfg.t_end, grid)
    bound = oracles.remark2_error_bound(spec_nm.eigenvalue, cfg.r, cfg.eta, cfg.t_end)
    explicit = oracles.remark2_explicit_bound(spec_nm, cfg.r, cfg.eta, cfg.t_end, grid)
    ref_sig = _reference_signature(grid)

    changed = signatures_equivalent(sig0, sig_t) == "distinct"
    verdict = "reconnection" if (changed and _settled(sig_t, ref_sig)) else "no-reconnection"

    return Report(
        cfg,
        verdict=verdict,
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


def frozen_in_initial(grid: TorusGrid) -> MHDState:
    """The moving datum (u0, b0) = (T_21, tilde T_1) of the frozen-in run."""
    return MHDState(make_taylor(TaylorSpec(2, 1), 1.0, grid), make_tilde_t1(grid), 0.0)


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

    line0_points (the number of points traced on line0), pushed_line_min_b
    (the smallest denominator) and line0_potential_spread (how level a0 is
    along line0) are reported as certificates, with potential_l2_drift, the
    relative change of sum_k w(k) |a(k)|^2 from the first to the last
    snapshot (w = grid.multiplicity). The dealiased ideal induction
    conserves that sum exactly, so its drift is the time-stepping error
    alone.
    """
    if cfg.eta != 0.0:
        raise ConfigError("field 'eta': the frozen-in scenario requires eta = 0")
    grid = cfg.grid()
    initial = frozen_in_initial(grid)
    b0 = initial.b
    sim_cfg = cfg.sim_config()
    trajectory: list[MHDState] = []
    final, _ = _run_with_diagnostics(sim_cfg, initial, cfg, out_dir, "frozen_in",
                                     [trajectory.append])

    side = np.linspace(0.0, 2.0 * np.pi, 9)[:-1] + 0.35
    seeds = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    residual = verify_frozen_in(flow_map(trajectory, seeds, cfg.t_end), b0, final.b)

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
    a_sq0, a_sq1 = (float(np.sum(grid.multiplicity * np.abs(b.psi) ** 2)) for b in (b0, final.b))
    certificate = {
        "line0_points": len(line0),
        "pushed_line_max_gap": max_gap,
        "pushed_line_min_b": float(speed.min()),
        "line0_potential_spread": float(np.ptp(a0_line)),
        "potential_l2_drift": abs(a_sq1 - a_sq0) / a_sq0,
    }
    log.info("frozen-in certificate: residual %.3g, pushed_line_distance %.3g, %s",
             residual, line_dist, ", ".join(f"{k} {v:.3g}" for k, v in certificate.items()))

    ok = residual < 1e-3 and line_dist < 5e-3 and max_gap < np.pi
    return Report(
        cfg,
        verdict="frozen" if ok else "topology-drift",
        metrics={
            "frozen_in_residual": residual,
            "pushed_line_distance": line_dist,
            "pushed_line_arclength": pushed_len,
            **certificate,
            "u_l2_max": max(l2_norm(s.u) for s in trajectory),
            "snapshot_interval": cfg.dt * cfg.output_cadence,
            "n_seeds": len(seeds),
            "residual_threshold": 1e-3,
            "line_distance_threshold": 5e-3,
        },
    )


# sigma of the stability envelope as a fraction of min(nu, eta)
_SIGMA_SAFETY = 0.9
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

    The reference is the heat flow of N^-1 T_nm (solver.heat_propagate),
    which the unforced equations keep exactly, so only the perturbed run is
    simulated.
    """
    for name in ("nu", "eta", "t_end"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"field {name!r}: the stability scenario requires {name} > 0")
    sigma = _SIGMA_SAFETY * min(cfg.nu, cfg.eta)
    grid = cfg.grid()
    n_scale, base, tilde, b0 = _taylor_datum(cfg, grid)
    times, q = [], []

    def difference(state: MHDState) -> None:
        # u_ref = 0, so the velocity difference is u itself
        h = state.b - heat_propagate(base, cfg.eta, state.t)
        times.append(state.t)
        q.append(sobolev_norm(state.u, cfg.r) ** 2 + sobolev_norm(h, cfg.r) ** 2)

    _, time_error = _run_from_rest(cfg, out_dir, "stability_perturbed", b0,
                                   extra_sinks=[difference])
    times, q = np.array(times), np.array(q)

    gamma = 1.0 + l2_norm(base) ** 2 + (cfg.delta * l2_norm(tilde)) ** 2
    envelope = [oracles.stability_envelope(cfg.delta, n_scale, cfg.r, sigma, t) for t in times]

    late = times >= 0.5 * cfg.t_end
    try:
        slope = fit_log_slope(times[late], q[late])
    except ConfigurationError as exc:
        raise ConfigError(f"field 't_end': {exc}; t_end = {cfg.t_end} leaves "
                          f"{int(late.sum())} snapshot(s) at t >= t_end / 2") from exc
    target = -2.0 * sigma * (1.0 - _DECAY_RATE_TOL)
    verdict = "decay-confirmed" if slope <= target else "decay-too-slow"

    return Report(
        cfg,
        verdict=verdict,
        metrics={
            "sigma": sigma,
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
    final, records = _run_with_diagnostics(
        cfg.sim_config(), MHDState(zero_field(grid), b0, 0.0), cfg, out_dir, "custom"
    )
    return Report(
        cfg,
        verdict="completed",
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
