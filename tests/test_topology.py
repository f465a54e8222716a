"""Critical points, separatrices, flow maps, and stability verdicts.

Ground truth comes from the analytically known phase portraits: the zeros of
(m sin nx sin my, n cos nx cos my) form the 8nm saddle/center lattice with a
fully connected separatrix web, while (sin y, sin(x)/2) has two unconnected
saddles and two centers.
"""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhdrecon import fields, topology
from mhdrecon.fields import (
    ConfigurationError,
    FieldEvaluator,
    SpectralField2D,
    TaylorSpec,
    TorusGrid,
    c1_norm,
    make_taylor,
    make_tilde_t1,
    zero_field,
)
from mhdrecon.snapshots import read_snapshot, snapshot_to_state
from mhdrecon.solver import MHDState, SimConfig, TrajectoryRecorder, simulate
from mhdrecon.topology import (
    MisuseError,
    TopologySignature,
    classify,
    detect_saddle_connections,
    distance_to_polyline,
    extract_signature,
    find_critical_points,
    flow_map,
    is_structurally_stable,
    polyline_arclength,
    signatures_equivalent,
    sup_field_and_gradient,
    torus_delta,
    torus_distance,
    trace_integral_line,
    verify_frozen_in,
    wrap,
)
from mhdrecon.topology import (
    _ARCLENGTH_CAP,
    _ARRIVAL_RADIUS,
    _EPS_LAUNCH,
    _PSI_TOL_FACTOR,
    _STEP_CAP_RANGE,
    _STEP_FLOOR,
    _STOP_TOL_FACTOR,
    _TRACE_STEP,
    _dedup_wrapped,
    _norm,
    _sign_change_seeds,
    _step_cap,
)

from .conftest import random_divergence_free


def _positions(points, kind=None):
    return np.array([p.position for p in points if kind is None or p.kind == kind])


def _closest(positions, target):
    return float(torus_distance(positions, np.asarray(target)).min())


class TestClassify:
    def test_saddle(self):
        assert classify(np.array([[0.0, 1.0], [0.5, 0.0]]), 1e-8) == "saddle"

    def test_center(self):
        assert classify(np.array([[0.0, -1.0], [0.5, 0.0]]), 1e-8) == "center"

    def test_degenerate(self):
        assert classify(np.zeros((2, 2)), 1e-8) == "degenerate"
        assert classify(np.array([[0.0, 1e-9], [1e-9, 0.0]]), 1e-8) == "degenerate"


class TestCriticalPoints:
    def test_tilde_t1_golden_set(self, grid64):
        pts = find_critical_points(make_tilde_t1(grid64))
        assert len(pts) == 4
        saddles = _positions(pts, "saddle")
        centers = _positions(pts, "center")
        assert len(saddles) == 2 and len(centers) == 2
        for target in ([0.0, 0.0], [np.pi, np.pi]):
            assert _closest(saddles, target) < 1e-8
        for target in ([0.0, np.pi], [np.pi, 0.0]):
            assert _closest(centers, target) < 1e-8

    def test_t11_golden_set(self, grid64):
        pts = find_critical_points(make_taylor(TaylorSpec(1, 1), 1.0, grid64))
        assert len(pts) == 8
        saddles = _positions(pts, "saddle")
        for target in ([0, np.pi / 2], [0, 3 * np.pi / 2], [np.pi, np.pi / 2],
                       [np.pi, 3 * np.pi / 2]):
            assert _closest(saddles, target) < 1e-8
        centers = _positions(pts, "center")
        for target in ([np.pi / 2, 0], [3 * np.pi / 2, 0], [np.pi / 2, np.pi],
                       [3 * np.pi / 2, np.pi]):
            assert _closest(centers, target) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_count_is_8nm(self, grid64, n, m):
        pts = find_critical_points(make_taylor(TaylorSpec(n, m), 1.0, grid64))
        assert len(pts) == 8 * n * m
        kinds = [p.kind for p in pts]
        assert kinds.count("saddle") == 4 * n * m
        assert kinds.count("center") == 4 * n * m

    def test_index_consistency(self, grid64):
        # saddles and centers balance on the torus (Euler characteristic 0)
        f = make_taylor(TaylorSpec(2, 3), 1.0, grid64) + 0.05 * make_tilde_t1(grid64)
        pts = find_critical_points(f)
        kinds = [p.kind for p in pts]
        assert kinds.count("saddle") == kinds.count("center")
        assert kinds.count("degenerate") == 0

    def test_newton_residuals(self, grid64):
        f = make_taylor(TaylorSpec(3, 2), 1.0, grid64) + 1e-3 * make_tilde_t1(grid64)
        pts = find_critical_points(f)
        bound = 1e-10 * c1_norm(f)
        assert all(p.residual < bound for p in pts)

    def test_perturbation_keeps_count(self, grid64):
        t33 = make_taylor(TaylorSpec(3, 3), 1.0, grid64)
        tilde = make_tilde_t1(grid64)
        for delta in (1e-5, 1e-4, 1e-3):
            pts = find_critical_points(t33 + delta * tilde)
            nondeg = [p for p in pts if p.kind != "degenerate"]
            assert len(nondeg) >= 72  # 8 * 3 * 3

    def test_jacobians_trace_free(self, grid64):
        pts = find_critical_points(make_taylor(TaylorSpec(2, 2), 1.0, grid64))
        for p in pts:
            assert abs(np.trace(p.jacobian)) < 1e-8 * np.abs(p.jacobian).max()

    def test_zero_field_rejected(self, grid32):
        with pytest.raises(ConfigurationError):
            find_critical_points(zero_field(grid32))

    def test_failed_seeds_reported_not_raised(self, grid64):
        diag = []
        find_critical_points(make_taylor(TaylorSpec(2, 1), 1.0, grid64), diagnostics=diag)
        for entry in diag:
            assert set(entry) == {"position", "residual"}


def _greedy_dedup(points, residuals, radius):
    """O(n^2) reference of _dedup_wrapped: in order of residual (ties in index
    order), keep a point unless a kept point lies within radius."""
    reps = []
    for i in np.argsort(residuals, kind="stable"):
        if not reps or torus_distance(points[i], points[reps]).min() > radius:
            reps.append(int(i))
    return reps


class TestDedup:
    @pytest.mark.parametrize("radius", [1e-11, 1e-8])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_greedy(self, radius, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.0, 2 * np.pi, (40, 2))
        # clusters on the x seam, on the y seam, and on the corner
        centers[:8, 0] = 0.0
        centers[8:16, 1] = 0.0
        centers[16:20] = 0.0
        members = rng.integers(0, len(centers), 600)
        # spread over 4 radii, so the residual order decides which points are kept
        pts = wrap(centers[members] + rng.uniform(-2.0, 2.0, (600, 2)) * radius)
        residuals = rng.integers(0, 4, 600) * 1e-13  # many ties
        assert np.any(pts > 2 * np.pi - 4 * radius) and np.any(pts < 4 * radius)
        reps = _dedup_wrapped(pts, residuals, radius)
        assert reps == _greedy_dedup(pts, residuals, radius)
        assert 2 * len(centers) < len(reps) < len(pts)


class TestTraceIntegralLine:
    def test_orbit_closes_on_tilde_t1(self, grid64):
        line = trace_integral_line(make_tilde_t1(grid64), [np.pi / 2, np.pi / 2], arclen=10.0)
        start = line[0]
        # skip the initial escape, then require a return to the seed
        assert torus_distance(line[200:], start).min() < 1e-3

    def test_t11_seed_near_saddle_follows_separatrix_web(self, grid64):
        # the orbit through (0.01, pi/2) lies on the level set {psi = 0}, whose
        # components are the lines x in {0, pi} and y in {pi/2, 3pi/2}; this
        # seed sits on the y = pi/2 component and runs toward the next saddle
        line = trace_integral_line(
            make_taylor(TaylorSpec(1, 1), 1.0, grid64), [0.01, np.pi / 2], arclen=3.0
        )
        dist_y_line = np.minimum(
            np.abs(line[:, 1] - np.pi / 2), np.abs(line[:, 1] - 3 * np.pi / 2)
        )
        assert dist_y_line.max() < 2e-2
        assert line[:, 0].max() > 2.0  # it travels toward the saddle at x = pi

    def test_stream_function_is_first_integral(self, grid64):
        f = make_taylor(TaylorSpec(2, 2), 1.0, grid64) + 0.01 * make_tilde_t1(grid64)
        line = trace_integral_line(f, [1.3, 0.4], arclen=8.0)
        vals = f.evaluator.potential(line)
        psi_grid = grid64.to_grid(f.psi)
        assert vals.max() - vals.min() < 1e-5 * (psi_grid.max() - psi_grid.min())

    def test_potential_is_level_on_a_simulated_field(self, frozen_in_mini):
        # b(T) of an ideal run holds modes up to the 2/3 cut-off, so its
        # evaluator is dense; a line traced on it keeps a(T) level to roundoff
        _, out = frozen_in_mini
        b = snapshot_to_state(read_snapshot(out / "frozen_in_final.snap")).b
        assert b.evaluator._dense
        line = trace_integral_line(b, [np.pi / 2, np.pi / 2], arclen=2.0 * np.pi)
        assert np.ptp(b.evaluator.potential(line)) < 1e-12

    def test_seed_at_critical_point_rejected(self, grid64):
        with pytest.raises(ConfigurationError):
            trace_integral_line(make_tilde_t1(grid64), [0.0, 0.0], arclen=1.0)


@pytest.fixture
def values_calls(monkeypatch):
    """Counts FieldEvaluator.values calls made while a test runs."""
    calls = []
    original = FieldEvaluator.values

    def counting(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(FieldEvaluator, "values", counting)
    return calls


def _trace_with_stall_evaluation(f, x0, arclen):
    """Integral-line RK4 that evaluates the field once more per step for the
    stall test: the polyline trace_integral_line must reproduce bit for bit."""
    h = _TRACE_STEP
    evaluator = FieldEvaluator(f)
    sup_f, sup_grad = sup_field_and_gradient(f)
    stop_tol = _STOP_TOL_FACTOR * (sup_f + sup_grad)

    def direction(pts):
        vals = evaluator.values(pts)
        return vals / np.maximum(np.linalg.norm(vals, axis=-1, keepdims=True), 1e-300)

    x = np.atleast_2d(np.asarray(x0, dtype=np.float64)).copy()
    line = [wrap(x[0])]
    for _ in range(int(np.ceil(arclen / h))):
        if np.linalg.norm(evaluator.values(x)) < stop_tol:
            break
        k1 = direction(x)
        k2 = direction(x + 0.5 * h * k1)
        k3 = direction(x + 0.5 * h * k2)
        k4 = direction(x + h * k3)
        x = wrap(x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        line.append(x[0])
    return np.array(line)


def _connections_with_stall_evaluation(f, saddles, step_cap=None):
    """Brute-force separatrix tracing: every saddle is traced and every trace is
    tested for arrival against every saddle, and the field is evaluated again
    at the live points for the first RK4 stage, after the speed evaluation;
    (hetero, self, loop iterations). detect_saddle_connections, which traces
    only saddles with level partners, must give the same counts. The
    arclength step is min(step_cap, max(0.5 |f| / G, _STEP_FLOOR)), with the
    program's cap (_step_cap) by default; step_cap = 1e-2 gives the shorter
    steps of the rule that capped every trace at 1e-2."""
    evaluator = FieldEvaluator(f)
    sup_f, sup_grad = sup_field_and_gradient(f)
    if step_cap is None:
        step_cap = _step_cap(saddles, sup_grad)
    stop_tol = _STOP_TOL_FACTOR * (sup_f + sup_grad)
    psi_grid = f.grid.to_grid(f.psi)
    psi_tol = _PSI_TOL_FACTOR * (psi_grid.max() - psi_grid.min())
    positions = np.array([cp.position for cp in saddles])
    psi_levels = evaluator.potential(positions)

    def direction(pts):
        vals = evaluator.values(pts)
        return vals / np.maximum(np.linalg.norm(vals, axis=-1, keepdims=True), 1e-300)

    starts, signs, origins = [], [], []
    for i, cp in enumerate(saddles):
        w, v = np.linalg.eig(cp.jacobian)
        vu = np.real(v[:, np.argmax(np.real(w))])
        vs = np.real(v[:, np.argmin(np.real(w))])
        vu, vs = vu / np.linalg.norm(vu), vs / np.linalg.norm(vs)
        for vec, sign in ((vu, 1.0), (-vu, 1.0), (vs, -1.0), (-vs, -1.0)):
            starts.append(cp.position + _EPS_LAUNCH * vec)
            signs.append(sign)
            origins.append(i)
    x, signs, origins = wrap(np.array(starts)), np.array(signs), np.array(origins)
    n = len(x)
    active = np.ones(n, dtype=bool)
    left_origin = np.zeros(n, dtype=bool)
    arc = np.zeros(n)
    outcome = np.full(n, "none", dtype=object)
    iterations = 0
    while active.any():
        iterations += 1
        idx = np.nonzero(active)[0]
        speed = np.linalg.norm(evaluator.values(x[idx]), axis=-1)
        h = np.minimum(step_cap, np.maximum(0.5 * speed / max(sup_grad, 1e-300), _STEP_FLOOR))
        stalled = speed < stop_tol
        active[idx[stalled]] = False
        live = idx[~stalled]
        if len(live) == 0:
            continue
        hs, sg, p = h[~stalled][:, None], signs[live][:, None], x[live]
        k1 = sg * direction(p)
        k2 = sg * direction(p + 0.5 * hs * k1)
        k3 = sg * direction(p + 0.5 * hs * k2)
        k4 = sg * direction(p + hs * k3)
        x[live] = wrap(p + (hs / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        arc[live] += hs[:, 0]
        d = torus_distance(x[live][:, None, :], positions[None, :, :])
        left_origin[live] |= torus_distance(x[live], positions[origins[live]]) > 2 * _ARRIVAL_RADIUS
        for j in np.nonzero(d.min(axis=1) < _ARRIVAL_RADIUS)[0]:
            t, target = live[j], d[j].argmin()
            if target == origins[t]:
                if left_origin[t]:
                    outcome[t], active[t] = "self", False
            elif abs(psi_levels[target] - psi_levels[origins[t]]) < psi_tol:
                outcome[t], active[t] = "hetero", False
        active[live[arc[live] > _ARCLENGTH_CAP]] = False
    return int(np.sum(outcome == "hetero")), int(np.sum(outcome == "self")), iterations


class TestEvaluationCounts:
    @pytest.mark.parametrize("seed", [[1.3, 0.4], [0.01, np.pi / 2]])
    def test_trace_makes_four_evaluations_per_step(self, grid64, values_calls, seed):
        f = make_taylor(TaylorSpec(1, 1), 1.0, grid64) + 0.01 * make_tilde_t1(grid64)
        expected = _trace_with_stall_evaluation(f, seed, arclen=3.0)
        values_calls.clear()
        line = trace_integral_line(f, seed, arclen=3.0)
        assert np.array_equal(line, expected)
        assert len(values_calls) == 4 * (len(line) - 1)

    def test_seeding_lattice_evaluated_once(self, grid64, values_calls):
        f = make_taylor(TaylorSpec(3, 2), 1.0, grid64) + 1e-3 * make_tilde_t1(grid64)
        lattice = TorusGrid(48)
        pts = np.stack(np.meshgrid(lattice.nodes, lattice.nodes, indexing="ij"), axis=-1)
        vals = FieldEvaluator(f).values(pts.reshape(-1, 2)).reshape(*lattice.shape, 2)
        mask = np.zeros(lattice.shape, dtype=bool)
        for comp in np.moveaxis(vals, -1, 0):
            corners = np.stack([comp, np.roll(comp, -1, 0), np.roll(comp, -1, 1),
                                np.roll(np.roll(comp, -1, 0), -1, 1)])
            mask |= (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)
        ii, jj = np.nonzero(mask)
        h = lattice.spacing
        expected = np.stack([lattice.nodes[ii] + 0.5 * h, lattice.nodes[jj] + 0.5 * h], axis=-1)
        values_calls.clear()
        seeds = _sign_change_seeds(f, 48)
        assert np.array_equal(seeds, expected)
        assert values_calls == [48 * 48]

    def test_connections_make_four_evaluations_per_iteration(self, grid64, values_calls):
        f = (1.0 / np.sqrt(13.0)) * make_taylor(TaylorSpec(3, 2), 1.0, grid64) \
            + 5e-4 * make_tilde_t1(grid64)
        saddles = [p for p in find_critical_points(f) if p.kind == "saddle"]
        hetero, selfc, iterations = _connections_with_stall_evaluation(f, saddles)
        values_calls.clear()
        assert detect_saddle_connections(f, saddles) == (hetero, selfc)
        assert len(values_calls) == 4 * iterations

    def test_broken_web_closes_in_few_steps(self, grid64, values_calls, caplog):
        # the broken separatrices of this perturbed web loop back to their own
        # saddle over arclength ~16: 430 steps with the step cap of 0.05 that
        # its saddles allow, against 1572 with a cap of 1e-2
        f = (1.0 / np.sqrt(13.0)) * make_taylor(TaylorSpec(3, 2), 1.0, grid64) \
            + 5e-4 * make_tilde_t1(grid64)
        saddles = [p for p in find_critical_points(f) if p.kind == "saddle"]
        values_calls.clear()
        with caplog.at_level(logging.DEBUG, logger="mhdrecon.topology"):
            detect_saddle_connections(f, saddles)
        steps = len(values_calls) // 4
        assert steps <= 500
        assert caplog.records[-1].getMessage().endswith(f" in {steps} steps")

    @pytest.mark.parametrize("seed_resolution", [None, 48])
    def test_signature_reads_the_field_once(self, grid64, monkeypatch, seed_resolution):
        sup_calls, built = [], []
        sup = fields.sup_field_and_gradient
        init = FieldEvaluator.__init__

        def counting_sup(f, *args):
            sup_calls.append(f)
            return sup(f, *args)

        def counting_init(self, f):
            built.append(f)
            init(self, f)

        monkeypatch.setattr(fields, "sup_field_and_gradient", counting_sup)
        monkeypatch.setattr(FieldEvaluator, "__init__", counting_init)
        f = make_taylor(TaylorSpec(3, 2), 1.0, grid64) + 1e-3 * make_tilde_t1(grid64)
        sig, _ = extract_signature(f, seed_resolution)
        assert sig.n_saddles == 24 and sig.hetero_connections > 0
        assert len(sup_calls) == len(built) == 1


class TestSaddleConnections:
    def test_t11_has_heteroclinic_web(self, grid64):
        f = make_taylor(TaylorSpec(1, 1), 1.0, grid64)
        saddles = [p for p in find_critical_points(f) if p.kind == "saddle"]
        hetero, _ = detect_saddle_connections(f, saddles)
        assert hetero > 0

    def test_tilde_t1_has_only_self_connections(self, grid64):
        f = make_tilde_t1(grid64)
        saddles = [p for p in find_critical_points(f) if p.kind == "saddle"]
        hetero, selfc = detect_saddle_connections(f, saddles)
        assert hetero == 0
        assert selfc > 0

    def test_no_saddles_gives_zero(self, grid64):
        f = make_tilde_t1(grid64)
        assert detect_saddle_connections(f, []) == (0, 0)


def _saddles(f):
    return [p for p in find_critical_points(f) if p.kind == "saddle"]


class TestLevelGroups:
    """Saddles whose psi level is matched by no other saddle are not traced;
    the counts must equal those of the brute-force reference."""

    @staticmethod
    def _lone_fields(grid):
        t1 = make_tilde_t1(grid)
        return [t1, t1 + 0.01 * make_taylor(TaylorSpec(4, 4), 1.0, grid)]

    @staticmethod
    def _grouped_fields(grid):
        return [make_taylor(TaylorSpec(1, 1), 1.0, grid),
                (1.0 / np.sqrt(13.0)) * make_taylor(TaylorSpec(3, 2), 1.0, grid)
                + 5e-4 * make_tilde_t1(grid)]

    @pytest.mark.parametrize("which", [0, 1])
    def test_lone_saddles_match_reference(self, grid64, which):
        f = self._lone_fields(grid64)[which]
        saddles = _saddles(f)
        hetero, selfc, _ = _connections_with_stall_evaluation(f, saddles)
        assert (hetero, selfc) == (0, 4 * len(saddles))
        assert detect_saddle_connections(f, saddles) == (hetero, selfc)

    # the counts must equal the reference's both at the program's step cap
    # and with steps of at most 1e-2
    @pytest.mark.parametrize("which", [0, 1])
    def test_level_groups_match_reference(self, grid64, which):
        f = self._grouped_fields(grid64)[which]
        saddles = _saddles(f)
        hetero, selfc, _ = _connections_with_stall_evaluation(f, saddles)
        assert hetero > 0
        assert detect_saddle_connections(f, saddles) == (hetero, selfc)
        assert _connections_with_stall_evaluation(f, saddles, step_cap=1e-2)[:2] == (hetero, selfc)

    # delta from 1e-4 to 10 draws fields with only level groups, only lone
    # saddles, and both. The counts must equal the reference's both at the
    # program's step cap and with steps of at most 1e-2. The example's lone
    # saddles return home in the reference only with a cap on the step.
    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3), log_delta=st.floats(-4.0, 1.0))
    @example(n=2, m=1, log_delta=0.125)
    def test_perturbed_taylor_matches_reference(self, n, m, log_delta):
        grid = TorusGrid(32)
        delta = 10.0 ** log_delta
        f = make_taylor(TaylorSpec(n, m), 1.0 / np.hypot(n, m), grid) \
            + delta * make_tilde_t1(grid)
        saddles = _saddles(f)
        counts = detect_saddle_connections(f, saddles)
        assert counts == _connections_with_stall_evaluation(f, saddles)[:2]
        assert counts == _connections_with_stall_evaluation(f, saddles, step_cap=1e-2)[:2]

    # The program's steps must keep the counts of steps of at most 1e-2: on
    # webs broken by 1e-4 ... 1e-2 of tilde T1, and on fields with weak
    # saddles. With a fixed cap of 0.1 the (1, 3) field loses four self
    # connections (smallest Jacobian singular value 0.032 against G = 4.1)
    # and the (3, 3) field four heteroclinic ones. The last field has a
    # nearly degenerate saddle (0.0064 against G = 4.1).
    @pytest.mark.parametrize("n, m, resolution, delta", [
        *[(n, m, resolution, delta) for n, m in [(3, 2), (4, 4)] for resolution in (64, 128)
          for delta in (1e-4, 1e-3, 1e-2)],
        (1, 3, 32, 1.26), (3, 3, 32, 0.5993), (1, 3, 32, 1.2675),
    ])
    def test_perturbed_webs_match_short_step_reference(self, n, m, resolution, delta):
        grid = TorusGrid(resolution)
        f = make_taylor(TaylorSpec(n, m), 1.0 / np.hypot(n, m), grid) \
            + delta * make_tilde_t1(grid)
        saddles = _saddles(f)
        hetero, selfc, _ = _connections_with_stall_evaluation(f, saddles, step_cap=1e-2)
        assert detect_saddle_connections(f, saddles) == (hetero, selfc)

    # the cap is the smallest singular value of a saddle Jacobian over G,
    # within [1e-2, 5e-2]; expected None is that ratio itself
    @pytest.mark.parametrize("n, m, delta, expected", [
        (1, 1, 0.0, 5e-2), (3, 3, 0.5993, None), (1, 3, 1.26, 1e-2), (1, 3, 1.2675, 1e-2),
    ])
    def test_step_cap_follows_the_weakest_saddle(self, n, m, delta, expected):
        grid = TorusGrid(32)
        f = make_taylor(TaylorSpec(n, m), 1.0 / np.hypot(n, m), grid) \
            + delta * make_tilde_t1(grid)
        saddles = _saddles(f)
        sup_grad = sup_field_and_gradient(f)[1]
        ratio = min(np.linalg.svd(cp.jacobian, compute_uv=False)[-1] for cp in saddles) / sup_grad
        cap = _step_cap(saddles, sup_grad)
        if expected is None:
            assert _STEP_CAP_RANGE[0] < ratio < _STEP_CAP_RANGE[1]
            expected = ratio
        assert cap == pytest.approx(expected, rel=1e-12)

    def test_lone_saddles_are_not_traced(self, grid64, values_calls):
        f = make_tilde_t1(grid64)
        saddles = _saddles(f)
        values_calls.clear()
        assert detect_saddle_connections(f, saddles) == (0, 8)
        assert values_calls == []

    @pytest.mark.parametrize("which, expected", [
        ("lone", "2 lone saddles, 0 traced; traces: 0 hetero, 0 self, 0 stalled, 0 capped "
                 "in 0 steps"),
        ("grouped", "0 lone saddles, 4 traced; traces: 16 hetero, 0 self, 0 stalled, 0 capped "
                    "in 80 steps"),
    ])
    def test_trace_statistics_logged(self, grid64, caplog, which, expected):
        f = self._lone_fields(grid64)[0] if which == "lone" else self._grouped_fields(grid64)[0]
        saddles = _saddles(f)
        with caplog.at_level(logging.DEBUG, logger="mhdrecon.topology"):
            detect_saddle_connections(f, saddles)
        assert [r.getMessage() for r in caplog.records] == [f"saddle connections: {expected}"]

    def test_norm_is_bit_identical_to_numpy(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((4096, 2)) * 10.0 ** rng.uniform(-8, 3, (4096, 1))
        assert np.array_equal(_norm(v), np.linalg.norm(v, axis=-1))
        assert np.array_equal(_norm(v.reshape(64, 64, 2)),
                              np.linalg.norm(v.reshape(64, 64, 2), axis=-1))


class TestPoincareHopf:
    def test_no_warning_on_tilde_t1(self, grid64, caplog):
        with caplog.at_level(logging.WARNING, logger="mhdrecon.topology"):
            extract_signature(make_tilde_t1(grid64))
        assert not caplog.records

    def test_missing_center_warns(self, grid64, caplog, monkeypatch):
        find = topology.find_critical_points

        def drop_a_center(f, *args, **kwargs):
            points = find(f, *args, **kwargs)
            first = next(i for i, p in enumerate(points) if p.kind == "center")
            return points[:first] + points[first + 1:]

        monkeypatch.setattr(topology, "find_critical_points", drop_a_center)
        with caplog.at_level(logging.WARNING, logger="mhdrecon.topology"):
            sig, points = extract_signature(make_tilde_t1(grid64))
        assert sig.to_dict() == TopologySignature(
            n_saddles=2, n_centers=1, self_connections=8, structurally_stable=True).to_dict()
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "2 saddles but 1 centers" in caplog.records[0].getMessage()


class TestStructuralStability:
    def test_tilde_t1_stable(self, grid64):
        stable, sig = is_structurally_stable(make_tilde_t1(grid64))
        assert stable
        assert (sig.n_saddles, sig.n_centers, sig.n_degenerate) == (2, 2, 0)
        assert sig.hetero_connections == 0

    def test_t11_unstable(self, grid64):
        stable, sig = is_structurally_stable(make_taylor(TaylorSpec(1, 1), 1.0, grid64))
        assert not stable
        assert sig.hetero_connections > 0

    def test_zero_field_unstable_by_convention(self, grid32):
        stable, sig = is_structurally_stable(zero_field(grid32))
        assert not stable
        assert sig == TopologySignature()

    def test_stability_implies_clean_signature(self, grid64):
        # the signature invariant: stable => no degenerate points, no heteros
        for f in (make_tilde_t1(grid64), make_taylor(TaylorSpec(1, 1), 1.0, grid64)):
            stable, sig = is_structurally_stable(f)
            if stable:
                assert sig.n_degenerate == 0 and sig.hetero_connections == 0


class TestSignaturesEquivalent:
    sig_a = TopologySignature(2, 2, 0, 0, 8, True)
    sig_b = TopologySignature(4, 4, 0, 16, 0, False)

    def test_count_mismatch_is_distinct(self):
        assert signatures_equivalent(self.sig_a, self.sig_b) == "distinct"

    def test_reflexive_indistinguishable(self):
        assert signatures_equivalent(self.sig_a, self.sig_a) == "indistinguishable"

    def test_matching_invariants_indistinguishable(self):
        other = TopologySignature(2, 2, 0, 0, 4, True)
        assert signatures_equivalent(self.sig_a, other) == "indistinguishable"

    def test_symmetric(self):
        pairs = [(self.sig_a, self.sig_b), (self.sig_a, self.sig_a)]
        for a, b in pairs:
            assert signatures_equivalent(a, b) == signatures_equivalent(b, a)

    def test_stability_with_hetero_mismatch_is_distinct(self):
        a = TopologySignature(2, 2, 0, 0, 2, True)
        b = TopologySignature(2, 2, 0, 4, 0, False)
        assert signatures_equivalent(a, b) == "distinct"


def _ideal_trajectory(grid, u0, b0, t_end=0.25, cadence=25, nu=0.1):
    cfg = SimConfig(nu=nu, eta=0.0, grid=grid, dt=1e-3, t_end=t_end, output_cadence=cadence)
    rec = TrajectoryRecorder(cfg)
    simulate(cfg, MHDState(u0, b0, 0.0), sinks=[rec])
    return rec.trajectory


class TestFlowMap:
    seeds = np.array([[0.5, 1.0], [2.0, 3.0], [4.4, 0.7], [1.1, 5.2]])

    def test_zero_velocity_gives_identity(self, grid64):
        traj = _ideal_trajectory(grid64, zero_field(grid64), make_tilde_t1(grid64))
        sample = flow_map(traj, self.seeds, 0.25)
        assert np.abs(sample.images - self.seeds).max() < 1e-12
        assert np.abs(sample.jacobians - np.eye(2)).max() < 1e-12

    def test_area_preservation(self, grid64):
        traj = _ideal_trajectory(grid64, make_tilde_t1(grid64), zero_field(grid64), nu=0.0)
        sample = flow_map(traj, self.seeds, 0.25)
        assert np.abs(np.linalg.det(sample.jacobians) - 1.0).max() < 1e-4

    def test_steady_field_matches_autonomous_rk4(self, grid64):
        tilde = make_tilde_t1(grid64)
        traj = _ideal_trajectory(grid64, tilde, zero_field(grid64), t_end=0.1, cadence=10, nu=0.0)
        sample = flow_map(traj, self.seeds, 0.1)
        from mhdrecon.fields import FieldEvaluator

        ev = FieldEvaluator(tilde)
        p = self.seeds.copy()
        h = 0.01
        for _ in range(10):
            k1 = ev.values(p)
            k2 = ev.values(p + 0.5 * h * k1)
            k3 = ev.values(p + 0.5 * h * k2)
            k4 = ev.values(p + h * k3)
            p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.abs(sample.images - np.mod(p, 2 * np.pi)).max() < 1e-8

    def test_time_outside_range_rejected(self, grid64):
        traj = _ideal_trajectory(grid64, zero_field(grid64), make_tilde_t1(grid64))
        with pytest.raises(ValueError):
            flow_map(traj, self.seeds, 1.0)


class TestVerifyFrozenIn:
    seeds = np.stack(
        np.meshgrid(np.linspace(0.3, 5.9, 8), np.linspace(0.2, 5.8, 8), indexing="ij"), -1
    ).reshape(-1, 2)

    def test_zero_time_is_exact(self, grid64):
        traj = _ideal_trajectory(grid64, zero_field(grid64), make_tilde_t1(grid64))
        assert verify_frozen_in(traj, self.seeds, 0.0) == 0.0

    def test_stationary_run_is_exact(self, grid64):
        # u0 = 0 with an Euler-stationary b0 keeps u = 0, so transport is trivial
        traj = _ideal_trajectory(grid64, zero_field(grid64), make_tilde_t1(grid64))
        assert verify_frozen_in(traj, self.seeds, 0.25) < 1e-8

    def test_advected_run_is_discretization_limited(self, grid64):
        # genuinely moving fluid: the residual is set by flow-map time stepping
        traj = _ideal_trajectory(
            grid64, make_tilde_t1(grid64), make_taylor(TaylorSpec(2, 1), 1.0, grid64)
        )
        err = verify_frozen_in(traj, self.seeds, 0.25)
        assert err < 1e-5

    def test_resistive_run_rejected(self, grid64):
        cfg = SimConfig(nu=0.1, eta=0.5, grid=grid64, dt=1e-3, t_end=0.05, output_cadence=10)
        rec = TrajectoryRecorder(cfg)
        simulate(cfg, MHDState(zero_field(grid64), make_tilde_t1(grid64), 0.0), sinks=[rec])
        with pytest.raises(MisuseError):
            verify_frozen_in(rec.trajectory, self.seeds, 0.05)


class TestPolyline:
    def test_arclength_across_the_seam(self):
        line = np.stack([np.mod(np.linspace(6.0, 6.6, 61), 2 * np.pi), np.full(61, 1.0)], -1)
        assert polyline_arclength(line) == pytest.approx(0.6, abs=1e-12)

    def test_points_between_vertices_lie_on_line(self):
        line = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 3.0]])
        pts = np.array([[0.5, 1.0], [1.0, 2.2], [1.0, 1.0]])
        assert distance_to_polyline(pts, line) == pytest.approx(0.0, abs=1e-15)

    def test_offset_is_one_sided(self):
        line = np.array([[1.0, 1.0], [2.0, 1.0]])
        pts = np.array([[1.5, 1.2], [2.5, 1.0]])
        assert distance_to_polyline(pts, line) == pytest.approx(0.5, abs=1e-12)
        # the points need not cover the line
        assert distance_to_polyline(pts[:1], line) == pytest.approx(0.2, abs=1e-12)

    def test_wraps_around_torus(self):
        line = np.array([[2 * np.pi - 0.1, 3.0], [0.1, 3.0]])
        pts = np.array([[0.0, 3.05]])
        assert distance_to_polyline(pts, line) == pytest.approx(0.05, abs=1e-12)

    def test_single_vertex_line(self):
        assert distance_to_polyline(np.array([[0.0, 0.3]]), np.array([[0.0, 0.0]])) == (
            pytest.approx(0.3, abs=1e-12)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_across_the_seam(self, seed):
        rng = np.random.default_rng(seed)
        # a random walk that starts next to the corner of the box, so its
        # wrapped vertices jump across the seam; every tenth step is long
        # (up to 1.5), so a point near the middle of a long segment can lie
        # closer to a vertex of another part of the line than to its ends
        steps = rng.uniform(0.0, 0.15, (400, 1)) * _unit_vectors(rng, 400)
        steps[::10] *= 10.0
        line = wrap(np.array([2 * np.pi - 0.2, 0.1]) + np.cumsum(steps, axis=0))
        assert np.any(np.abs(np.diff(line, axis=0)) > np.pi)
        on = rng.integers(0, len(line) - 1, 300)
        along = rng.uniform(0.0, 1.0, (300, 1)) * torus_delta(line[on + 1], line[on])
        near = wrap(line[on] + along + rng.normal(0.0, 0.05, (300, 2)))
        far = rng.uniform(0.0, 2 * np.pi, (50, 2))
        for pts in (near, far, np.concatenate([near, far]), line[::7]):
            got = distance_to_polyline(pts, line)
            assert abs(got - _brute_force_distance(pts, line)) <= 1e-15
        for p in near[:100]:
            got = distance_to_polyline(p, line)
            assert abs(got - _brute_force_distance(p[None], line)) <= 1e-15
        assert distance_to_polyline(line, line) == 0.0

    def test_single_vertex_matches_brute_force(self):
        pts = np.random.default_rng(3).uniform(-1.0, 7.0, (20, 2))
        vertex = np.array([[6.2, 0.05]])
        expected = float(torus_distance(pts, vertex[0]).max())
        assert distance_to_polyline(pts, vertex) == expected

    def test_over_long_segment_rejected(self):
        # [0, 0] -> [4, 0] is a step of 4 along x, not the seam crossing of length 2 pi - 4
        with pytest.raises(ValueError, match="segment 0 .* length 4,"):
            distance_to_polyline([[2.0, 0.0]], [[0.0, 0.0], [4.0, 0.0]])
        with pytest.raises(ValueError, match="segment 1 .* length 3.2"):
            distance_to_polyline([[0.5, 0.5]], [[0.0, 0.0], [1.0, 1.0], [3.0, 3.5]])


def _unit_vectors(rng, n):
    angle = rng.uniform(0.0, 2 * np.pi, n)
    return np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def _brute_force_distance(points, line):
    """Every point against every segment, one point at a time."""
    start = line[:-1]
    seg = torus_delta(line[1:], start)
    seg_sq = np.maximum(np.einsum("si,si->s", seg, seg), 1e-300)
    worst = 0.0
    for p in points:
        d = torus_delta(p[None, :], start)
        s = np.clip(np.einsum("si,si->s", d, seg) / seg_sq, 0.0, 1.0)
        worst = max(worst, float(np.linalg.norm(d - s[:, None] * seg, axis=-1).min()))
    return worst

