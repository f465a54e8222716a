"""Acceptance criteria at their stated parameters and tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Heavy runs (the two reconnection scenarios, the stability
pair, the frozen-in resolution pair) execute once in module-scoped fixtures
and are shared by the criteria that consume them.
"""

import json
import time

import numpy as np
import pytest

from mhdrecon.fields import (
    TaylorSpec,
    TorusGrid,
    l2_norm,
    make_taylor,
    make_tilde_t1,
)
from mhdrecon.oracles import (
    remark2_error_bound,
    remark2_exact_error,
    remark2_explicit_bound,
)
from mhdrecon.scenarios import (
    ExperimentConfig,
    run_frozen_in,
    run_stability_decay,
    run_theorem1,
    run_theorem2,
)
from mhdrecon.snapshots import (
    DiagnosticsRecord,
    read_ndjson,
    read_snapshot,
    write_ndjson,
    write_state_snapshot,
)
from mhdrecon.solver import MHDState
from mhdrecon.topology import find_critical_points, torus_distance

from .reference import laplacian


def check(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}  {description}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num:02d} failed: {description} {detail}"


@pytest.fixture(scope="module")
def theorem2_outcome():
    t0 = time.perf_counter()
    report = run_theorem2(ExperimentConfig.for_scenario("theorem2"))
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def theorem1_outcome():
    t0 = time.perf_counter()
    report = run_theorem1(ExperimentConfig.for_scenario("theorem1"))
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def stability_outcomes():
    reports = {}
    for delta in (1e-3, 5e-4):
        cfg = ExperimentConfig.for_scenario("stability", delta=delta)
        reports[delta] = run_stability_decay(cfg)
    return reports


@pytest.fixture(scope="module")
def frozen_outcomes(frozen_in_default):
    cfg = ExperimentConfig.for_scenario("frozen-in", resolution=256)
    return {128: frozen_in_default, 256: run_frozen_in(cfg)}


def test_criterion_01_taylor_eigenfunction_suite():
    grid = TorusGrid(32)
    worst = 0.0
    for n in range(1, 5):
        for m in range(1, 5):
            f = make_taylor(TaylorSpec(n, m), 1.0, grid)
            resid = laplacian(f) + (n * n + m * m) * f
            worst = max(worst, l2_norm(resid) / l2_norm(f))
    tilde = make_tilde_t1(grid)
    resid = laplacian(tilde) + tilde
    worst = max(worst, l2_norm(resid) / l2_norm(tilde))
    check(1, "Laplacian eigenfield identities for all T_nm (n,m <= 4) and tilde T1",
          worst < 1e-12, f"worst relative residual {worst:.2e}")


def test_criterion_02_topology_golden_counts():
    from mhdrecon.topology import extract_signature

    grid = TorusGrid(128)
    sig11, pts11 = extract_signature(make_taylor(TaylorSpec(1, 1), 1.0, grid))
    saddle_pos = np.array([p.position for p in pts11 if p.kind == "saddle"])
    expected_saddles = [
        [0, np.pi / 2], [0, 3 * np.pi / 2], [np.pi, np.pi / 2], [np.pi, 3 * np.pi / 2],
    ]
    pos_ok = all(
        torus_distance(saddle_pos, np.array(t)).min() < 1e-8 for t in expected_saddles
    )
    t11_ok = (
        len(pts11) == 8
        and sig11.n_saddles == 4
        and pos_ok
        and sig11.hetero_connections > 0
        and not sig11.structurally_stable
    )

    sig_t, pts_t = extract_signature(make_tilde_t1(grid))
    tsad = np.array([p.position for p in pts_t if p.kind == "saddle"])
    t_ok = (
        len(pts_t) == 4
        and sig_t.n_saddles == 2
        and all(torus_distance(tsad, np.array(t)).min() < 1e-8
                for t in ([0.0, 0.0], [np.pi, np.pi]))
        and sig_t.hetero_connections == 0
        and sig_t.structurally_stable
    )
    check(2, "golden signatures of T11 (8 points, saddle web) and tilde T1 (4 points, stable)",
          t11_ok and t_ok,
          f"T11: {len(pts11)} pts hetero={sig11.hetero_connections}; "
          f"tilde T1: {len(pts_t)} pts hetero={sig_t.hetero_connections}")


def test_criterion_03_perturbed_count_robustness():
    grid = TorusGrid(128)
    t44 = make_taylor(TaylorSpec(4, 4), 1.0, grid)
    tilde = make_tilde_t1(grid)
    counts = {}
    for delta in (1e-5, 1e-4, 1e-3):
        pts = find_critical_points(t44 + delta * tilde)
        counts[delta] = sum(1 for p in pts if p.kind != "degenerate")
    ok = all(c >= 128 for c in counts.values())
    check(3, "T44 + delta tilde T1 keeps >= 128 nondegenerate points for delta in {1e-5,1e-4,1e-3}",
          ok, f"counts {counts}")


def test_criterion_04_forced_oracle_equivalence(theorem2_outcome):
    report, _ = theorem2_outcome
    errs = [e for t, e in report.series["oracle_rel_l2_error"] if t <= 1.0 + 1e-9]
    umax = max(v for _, v in report.series["u_l2"])
    ok = max(errs) < 1e-6 and umax < 1e-8
    check(4, "forced run matches closed form over [0,1] (<1e-6) with u below 1e-8",
          ok, f"max rel L2 err {max(errs):.2e}, max ||u|| {umax:.2e}")


def test_criterion_05_forced_reconnection_verdict(theorem2_outcome):
    report, _ = theorem2_outcome
    ok = (
        report.metrics["count_t0"] == 128
        and report.metrics["count_tT"] == 8
        and report.verdict == "reconnection"
        and report.as_expected
    )
    check(5, "forced scenario: 128 points at t=0 vs 8 at t=T, verdict reconnection",
          ok, f"counts {report.metrics['count_t0']} -> {report.metrics['count_tT']}, "
              f"verdict {report.verdict}")


def test_criterion_06_unforced_reconnection_verdict(theorem1_outcome):
    report, elapsed = theorem1_outcome
    sig_t = report.signatures["tT"]
    ok = (
        report.metrics["count_t0"] >= 128
        and sig_t["structurally_stable"]
        and sig_t["n_saddles"] == 2
        and sig_t["n_centers"] == 2
        and sig_t["hetero_connections"] == 0
        and report.verdict == "reconnection"
        and elapsed <= 600.0
    )
    check(6, "unforced scenario: >=128 points at t=0, stable (2,2) tail, verdict reconnection",
          ok, f"count_t0 {report.metrics['count_t0']}, tail {sig_t['n_saddles']}/"
              f"{sig_t['n_centers']}, verdict {report.verdict}, {elapsed:.0f}s")


def test_criterion_07_remark_bound_inequality():
    # || eta b(T) - tilde T1 ||_{H^3} against the Remark-2 estimate
    # eta e^{-eta N^2 T} ||T_nm||_{H^3} + e^{-eta T} ||tilde T1||_{H^3}, with the
    # norms the display omits written out. T_nm and tilde T1 sit on disjoint
    # wavenumber shells, so the closed-form error is the l2 sum of the two
    # terms and must lie within [bound / sqrt(2), bound] on every pair; a wrong
    # term or rate breaks one side. rtol only absorbs summation roundoff.
    grid = TorusGrid(128)
    spec = TaylorSpec(4, 4)
    rtol = 1e-12
    rows = []
    for eta in (0.25, 0.5, 1.0):
        for t_end in (0.5, 1.0, 2.0, 4.0):
            err = remark2_exact_error(spec, 3, eta, t_end, grid)
            explicit = remark2_explicit_bound(spec, 3, eta, t_end, grid)
            displayed = remark2_error_bound(spec.eigenvalue, 3, eta, t_end)
            good = explicit / np.sqrt(2.0) * (1 - rtol) <= err <= explicit * (1 + rtol)
            rows.append((eta, t_end, err, explicit, displayed, good))
    violations = [(e, t) for e, t, *_, good in rows if not good]
    worst_displayed = max(err / d for _, _, err, _, d, _ in rows)
    check(7, "closed-form error lies within [1/sqrt(2), 1] x the explicit Remark-2 bound",
          not violations,
          f"{len(violations)}/12 pairs outside; worst error/displayed-bound = "
          f"{worst_displayed:.3g}")


def test_criterion_08_frozen_in_alfven(frozen_outcomes):
    lo, hi = frozen_outcomes[128].metrics, frozen_outcomes[256].metrics
    res_lo = lo["frozen_in_residual"]
    res_hi = hi["frozen_in_residual"]
    ok_threshold = res_lo < 1e-3
    ok_ratio = 4.0 * res_hi <= res_lo
    check(8, "frozen-in residual below 1e-3 at M=128 and falls >= 4x at M=256",
          ok_threshold and ok_ratio,
          f"res(128) = {res_lo:.3e}, res(256) = {res_hi:.3e}, "
          f"max ||u|| = {lo['u_l2_max']:.3g}, snapshot interval = {lo['snapshot_interval']:.3g}")


def test_criterion_09_stability_decay_rate(stability_outcomes):
    full = stability_outcomes[1e-3]
    half = stability_outcomes[5e-4]
    slope = full.metrics["fitted_log_slope"]
    sigma = full.metrics["sigma"]
    slope_ok = sigma == pytest.approx(0.45) and slope <= -2.0 * sigma * 0.9

    q_full = dict(full.series["q"])
    q_half = dict(half.series["q"])
    rescale_dev = max(
        abs(4.0 * q_half[t] - q_full[t]) / q_full[t] for t in q_full if q_full[t] > 0
    )
    ok = slope_ok and rescale_dev <= 0.05
    check(9, "perturbation energy decays at rate <= -2*0.45*0.9 and scales as delta^2",
          ok, f"slope {slope:.3f} (target {-2 * sigma * 0.9:.3f}), "
              f"delta-halving deviation {rescale_dev:.2%}")


def test_criterion_10_infrastructure(tmp_path):
    # snapshot round-trip bit-exactness on a nontrivial state
    grid = TorusGrid(64)
    state = MHDState(
        0.3 * make_tilde_t1(grid),
        make_taylor(TaylorSpec(3, 2), 0.8, grid) + 1e-3 * make_tilde_t1(grid),
        0.75,
    )
    snap_path = tmp_path / "state.snap"
    write_state_snapshot(snap_path, state, nu=0.5, eta=0.5)
    snap = read_snapshot(snap_path)
    u1, u2 = state.u.components()
    b1, b2 = state.b.components()
    snap_ok = all(
        np.array_equal(snap.arrays[name], ref)
        for name, ref in (("u1", u1), ("u2", u2), ("b1", b1), ("b2", b2))
    )

    records = [
        DiagnosticsRecord(t=0.1 * k, energy_u=np.pi * k, energy_b=1.0 / (k + 1),
                          cross_helicity=-k * 0.77,
                          sobolev={"b": [1.0 + 1e-13 * k, 2.0]})
        for k in range(5)
    ]
    nd_path = tmp_path / "d.ndjson"
    write_ndjson(nd_path, records)
    ndjson_ok = read_ndjson(nd_path) == records

    cfg = ExperimentConfig.for_scenario(
        "theorem2", resolution=48, dt=2e-3, t_end=0.25, output_cadence=25
    )
    rep_a = run_theorem2(cfg).to_dict()
    rep_b = run_theorem2(cfg).to_dict()
    deterministic = rep_a == rep_b

    check(10, "snapshot round-trip bit-exact, NDJSON lossless, scenario runs deterministic",
          snap_ok and ndjson_ok and deterministic,
          f"snapshot={snap_ok} ndjson={ndjson_ok} deterministic={deterministic}")
