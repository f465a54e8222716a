"""Critical points, separatrices, flow maps, and stability verdicts.

Ground truth comes from the analytically known phase portraits: the zeros of
(m sin nx sin my, n cos nx cos my) form the 8nm saddle/center lattice with a
fully connected separatrix web, while (sin y, sin(x)/2) has two unconnected
saddles and two centers.
"""

import logging
import re
import sys
import tracemalloc

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
    l1_sums,
    make_taylor,
    make_tilde_t1,
    zero_field,
)
from mhdrecon.snapshots import read_snapshot, snapshot_to_state
from mhdrecon.solver import MHDState, SimConfig, simulate
from mhdrecon.topology import (
    TopologySignature,
    classify,
    detect_saddle_connections,
    distance_to_polyline,
    extract_signature,
    find_critical_points,
    flow_map,
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
    _EXCLUSION_EPS,
    _PSI_TOL_FACTOR,
    _STEP_FLOOR,
    _STOP_TOL_FACTOR,
    _TRACE_STEP,
    _det,
    _eigen_directions,
    _near_zero,
    _new_zeros,
    _norm,
)

from .conftest import random_divergence_free
from .reference import cell_bounds, grid_bounds, sign_change_mask


def _positions(points, kind=None):
    return np.array([p.position for p in points if kind is None or p.kind == kind])


def _closest(positions, target):
    return float(torus_distance(positions, np.asarray(target)).min())


class TestClassify:
    def test_saddle(self):
        assert classify(_det(np.array([[0.0, 1.0], [0.5, 0.0]])), 1e-8) == "saddle"

    def test_center(self):
        assert classify(_det(np.array([[0.0, -1.0], [0.5, 0.0]])), 1e-8) == "center"

    def test_degenerate(self):
        assert classify(_det(np.zeros((2, 2))), 1e-8) == "degenerate"
        assert classify(_det(np.array([[0.0, 1e-9], [1e-9, 0.0]])), 1e-8) == "degenerate"


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

    def test_failed_seeds_logged_not_raised(self, caplog):
        # at M = 16 half of the nodes of T_44 are its 128 zeros; at the other
        # half f = (+-4, 0) or (0, +-4) and grad f = 0, within the bounds of
        # their cells, so none of those 128 seeds can take a Newton step. The
        # zeros' boxes (half-width 1/32) hold the 4 cells at each zero once
        # four bisections have cut them to side 2 pi / 256 (three leave them
        # at 2 pi / 128, wider than a box, and 512 cells uncovered)
        f = make_taylor(TaylorSpec(4, 4), 1.0, TorusGrid(16))
        with caplog.at_level(logging.DEBUG, logger="mhdrecon.topology"):
            assert len(find_critical_points(f)) == 128
        assert [r.getMessage() for r in caplog.records] == [
            "critical points: 1792 Newton seeds, 128 did not converge; 128 points, "
            "128 in proven boxes; 0 uncovered cells"]

    @pytest.mark.parametrize("delta", [0.59833, 0.6, 0.60167, 0.60667])
    def test_weak_saddles_are_found_once(self, grid32, delta):
        # saddles with smallest singular value ~0.04: Newton stops up to
        # 1e-12 C1 / sigma from each zero, so copies of one zero can land
        # 1e-11 to 7e-11 apart; each zero must be kept once (Poincare-Hopf)
        f = (1.0 / np.sqrt(18.0)) * make_taylor(TaylorSpec(3, 3), 1.0, grid32) \
            + delta * make_tilde_t1(grid32)
        pts = find_critical_points(f)
        kinds = [p.kind for p in pts]
        assert kinds.count("saddle") == kinds.count("center") > 0
        pos = _positions(pts)
        d = torus_distance(pos[:, None, :], pos[None, :, :])
        assert d[np.triu_indices(len(pos), 1)].min() > 1e-3


def _greedy_dedup(points, residuals, radii, centres, kept_radii):
    """O(n^2) reference of _new_zeros: in order of residual (ties in index
    order), keep a point unless it lies in a kept box (max norm), the boxes
    kept before the call included."""
    centres, kept_radii = [*centres], [*kept_radii]
    reps = []
    for i in np.argsort(residuals, kind="stable"):
        d = np.abs(torus_delta(points[i], np.reshape(centres, (-1, 2)))).max(axis=1)
        if not np.any(d <= np.array(kept_radii)):
            reps.append(int(i))
            centres.append(points[i])
            kept_radii.append(radii[i])
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
        # boxes of unequal size, and two boxes on the seams kept at an earlier depth
        radii = radius * rng.uniform(0.5, 1.5, 600)
        kept, kept_radii = centers[[0, 16]], np.full(2, radius)
        reps = _new_zeros(pts, residuals, radii, kept, kept_radii)
        assert reps == _greedy_dedup(pts, residuals, radii, kept, kept_radii)
        assert 2 * len(centers) < len(reps) < len(pts)


class _Stop(Exception):
    """Ends a search once the exclusion tests under study have run."""


def _exclusion_calls(f, monkeypatch, n):
    """(vals, bounds, eps, kept) of the first n exclusion tests (_near_zero) of
    find_critical_points(f); the search stops after the n-th."""
    calls = []
    near_zero = topology._near_zero

    def recording(vals, bounds, eps):
        kept = near_zero(vals, bounds, eps)
        calls.append((vals, bounds, eps, kept))
        if len(calls) == n:
            raise _Stop
        return kept

    with monkeypatch.context() as m:
        m.setattr(topology, "_near_zero", recording)
        with pytest.raises(_Stop):
            find_critical_points(f)
    return calls


def _assert_sign_changes_kept(vals, bounds, eps):
    """A lattice cell whose four corner values of f_i bracket 0 holds a zero
    of f_i. The zero lies in one of the four cells of half-width h / 2 around
    the corners, so the bound of f_i keeps that corner."""
    for comp, bound in zip(vals, bounds):
        kept = np.abs(comp) <= bound + eps
        around = (kept | np.roll(kept, -1, 0) | np.roll(kept, -1, 1)
                  | np.roll(kept, (-1, -1), (0, 1)))
        changes = sign_change_mask(comp[None])
        assert changes.any() and around[changes].all()


class TestSignChangeSeeds:
    """The cells where a component changes sign between the corners, where a
    sign-change seeding would start Newton, each hold a zero of that
    component. The exclusion bounds keep a corner of every such cell, so
    seeding from the bounds leaves out none of them."""

    @pytest.mark.parametrize("resolution", [32, 64, 128, 256])
    @pytest.mark.parametrize("kmax", range(1, 9))
    def test_field_grid_matches_the_corner_stack(self, monkeypatch, resolution, kmax):
        grid = TorusGrid(resolution)
        f = random_divergence_free(grid, kmax, seed=kmax)
        [(vals, bounds, eps, _)] = _exclusion_calls(f, monkeypatch, 1)
        # the first test reads the field's own grid, with the first-order bound
        assert np.array_equal(vals, f.to_grid())
        assert bounds == grid_bounds(l1_sums(f), 0.5 * grid.spacing)
        assert eps == _EXCLUSION_EPS * c1_norm(f)
        _assert_sign_changes_kept(vals, bounds, eps)

    @pytest.mark.parametrize("resolution", [32, 64, 128, 256])
    @pytest.mark.parametrize("kmax", range(1, 9))
    def test_seed_lattice_matches_the_corner_stack(self, monkeypatch, resolution, kmax):
        f = random_divergence_free(TorusGrid(resolution), kmax, seed=kmax)
        s = l1_sums(f)
        first, (vals, bounds, eps, _) = _exclusion_calls(f, monkeypatch, 2)
        # the second test takes the value and Jacobian at each cell the first keeps
        ii, jj = np.nonzero(first[3])
        cells = np.stack([f.grid.nodes[ii], f.grid.nodes[jj]], axis=-1)
        cell_vals, jacs = f.evaluator.values_and_jacobians(cells)
        assert np.array_equal(vals, cell_vals.T)
        assert np.array_equal(bounds, cell_bounds(jacs, s, 0.5 * f.grid.spacing))
        # the second-order bound holds on the wider cells of a 48 lattice too
        lattice = TorusGrid(48)
        pts = np.stack(np.meshgrid(lattice.nodes, lattice.nodes, indexing="ij"), axis=-1)
        lattice_vals, lattice_jacs = f.evaluator.values_and_jacobians(pts.reshape(-1, 2))
        lattice_bounds = cell_bounds(lattice_jacs, s, 0.5 * lattice.spacing)
        _assert_sign_changes_kept(lattice_vals.T.reshape(2, *lattice.shape),
                                  lattice_bounds.reshape(2, *lattice.shape), eps)

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (4, 4)])
    def test_zero_lines_match_the_corner_stack(self, grid32, monkeypatch, n, m):
        # the grid values of T_nm lie on or near 0 along whole grid lines
        f = make_taylor(TaylorSpec(n, m), 1.0, grid32)
        [(vals, bounds, eps, _)] = _exclusion_calls(f, monkeypatch, 1)
        _assert_sign_changes_kept(vals, bounds, eps)
        # every value of the zero field is 0, on its bound of 0: every cell is kept
        zero = zero_field(grid32)
        kept = _near_zero(zero.to_grid(), grid_bounds(l1_sums(zero), 0.5 * grid32.spacing), 0.0)
        assert kept.sum() == 32 * 32


def _search_log(f, caplog):
    """(points, the debug line) of find_critical_points(f)."""
    with caplog.at_level(logging.DEBUG, logger="mhdrecon.topology"):
        points = find_critical_points(f)
    [message] = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("critical points: ")]
    caplog.clear()
    return points, message


def _kind_counts(points):
    kinds = [p.kind for p in points]
    return kinds.count("saddle"), kinds.count("center"), kinds.count("degenerate")


class TestExclusionSeeding:
    """Newton starts from the cells the Fourier-l1 bounds cannot exclude, and
    a cell no Krawczyk box covers is bisected and seeded again."""

    # coarse grids: a seed at the centre of every cell where a component
    # changes sign finds none of T_44's zeros at M = 16 (each such centre
    # lies where det grad f = 0), half of them at M = 12, and 24 of T_32's
    # 48 at M = 12
    @pytest.mark.parametrize("n, m, resolution", [(4, 4, 16), (4, 4, 12), (3, 2, 12)])
    def test_coarse_grids_give_8nm_points(self, n, m, resolution):
        f = make_taylor(TaylorSpec(n, m), 1.0, TorusGrid(resolution))
        assert _kind_counts(find_critical_points(f)) == (4 * n * m, 4 * n * m, 0)

    # generic fields with a zero that seeds at sign-change cells of the
    # field's grid miss, which breaks Poincare-Hopf; seeds at sign-change
    # cells of a 128 lattice give these counts
    @pytest.mark.parametrize("kmax, seed, count", [
        (5, 17, 38), (8, 1, 81), (8, 5, 95), (8, 8, 87), (8, 9, 94), (8, 18, 91)])
    def test_random_fields_keep_poincare_hopf(self, kmax, seed, count):
        f = random_divergence_free(TorusGrid(32), kmax, seed)
        assert _kind_counts(find_critical_points(f)) == (count, count, 0)

    # both families of the signature benchmark at M = 64: every cell the
    # bounds leave lies in a passed box, so the counts are proven
    @pytest.mark.parametrize("family, expected", [
        ("taylor", "176 Newton seeds, 0 did not converge; 48 points, 48 in proven boxes; "
                   "0 uncovered cells"),
        ("tilde", "4 Newton seeds, 0 did not converge; 4 points, 4 in proven boxes; "
                  "0 uncovered cells"),
    ], ids=["taylor", "tilde"])
    def test_signature_fields_are_proven(self, grid64, caplog, family, expected):
        if family == "taylor":
            f = make_taylor(TaylorSpec(3, 2), 1.0 / np.sqrt(13.0), grid64) \
                + 5e-4 * make_tilde_t1(grid64)
        else:
            f = make_tilde_t1(grid64) + 0.01 * make_taylor(TaylorSpec(4, 4), 1.0, grid64)
        points, message = _search_log(f, caplog)
        assert message == f"critical points: {expected}"
        assert len(points) == (48 if family == "taylor" else 4)

    # the random fields above and the weak-saddle fields: full Newton steps
    # keep the kind counts and leave no more uncovered cells than the counts
    # here, which a Newton damped by a line search left
    @pytest.mark.parametrize("field, count, uncovered", [
        ((5, 17), 38, 335), ((8, 1), 81, 1387), ((8, 5), 95, 1450), ((8, 8), 87, 1388),
        ((8, 9), 94, 1439), ((8, 18), 91, 1503),
        (0.59833, 28, 96), (0.6, 28, 92), (0.60167, 24, 88), (0.60667, 24, 92)],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_plain_newton_keeps_the_coverage(self, grid32, caplog, field, count, uncovered):
        if isinstance(field, tuple):
            f = random_divergence_free(grid32, *field)
        else:
            f = (1.0 / np.sqrt(18.0)) * make_taylor(TaylorSpec(3, 3), 1.0, grid32) \
                + field * make_tilde_t1(grid32)
        points, message = _search_log(f, caplog)
        assert _kind_counts(points) == (count, count, 0)
        assert int(re.search(r"; (\d+) uncovered cells$", message).group(1)) <= uncovered

    def test_zeros_on_cell_corners_are_found(self, grid32, caplog):
        # tilde T1 moved by half a cell puts each zero on the corner of four
        # cells. At a corner cell |f1(c)| = sin r exceeds |grad f1(c)| r =
        # r cos r by r^3 / 3, so the four cells are kept by the second-order
        # term H_1 r^2 / 2 (H_1 = 1) alone
        shift = 0.5 * grid32.spacing
        tilde = make_tilde_t1(grid32)
        f = SpectralField2D(grid32, tilde.psi * np.exp(-1j * (grid32.k1 + grid32.k2) * shift))
        points, message = _search_log(f, caplog)
        assert _kind_counts(points) == (2, 2, 0)
        for target in ([0.0, 0.0], [np.pi, np.pi], [0.0, np.pi], [np.pi, 0.0]):
            assert _closest(_positions(points), wrap(np.array(target) + shift)) < 1e-12
        assert message == ("critical points: 16 Newton seeds, 0 did not converge; 4 points, "
                           "4 in proven boxes; 0 uncovered cells")

    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.1])
    def test_t13_cells_are_covered_by_four_bisections(self, grid64, caplog, delta):
        # a box of half-width rho holds a cell of half-width r with the zero
        # at its corner only when 2 r <= rho. The boxes of T_13 / sqrt(10)
        # have rho = 0.0104 at M = 64 (8 of its zeros sit on grid nodes);
        # three bisections (r = 0.0061) left 32, 12 and 16 cells uncovered
        # for these delta, four (r = 0.0031) leave none
        f = make_taylor(TaylorSpec(1, 3), 1.0 / np.sqrt(10.0), grid64) \
            + delta * make_tilde_t1(grid64)
        points, message = _search_log(f, caplog)
        assert _kind_counts(points) == (12, 12, 0)
        assert message.endswith("24 points, 24 in proven boxes; 0 uncovered cells")

    def test_values_within_eps_of_the_bound_are_kept(self):
        # eps allows for the evaluation error of f: a value above the bound
        # by less than eps may still belong to a cell that holds a zero
        bound, eps = np.array([[0.3], [0.2]]), 1e-12
        for excess, kept in ((0.0, True), (0.5 * eps, True), (2.0 * eps, False)):
            for i in range(2):
                vals = bound.copy()
                vals[i] = -(bound[i] + excess)
                assert _near_zero(vals, bound, eps).tolist() == [kept]


class TestSignatureMemory:
    @pytest.mark.parametrize("family", ["taylor", "tilde"])
    def test_set_up_builds_no_full_size_stack(self, family):
        # the two families of the signature benchmark at M = 256. A
        # (5, M, M/2 + 1) complex stack of the l1 series or a (4, M, M) stack
        # of grid values lifts the peak to 7.2 MB; without them the search
        # stays below 3.5 MB, the grid values included
        grid = TorusGrid(256)
        if family == "taylor":
            f = make_taylor(TaylorSpec(2, 1), 1.0 / np.sqrt(5.0), grid) \
                + 5e-4 * make_tilde_t1(grid)
        else:
            f = make_tilde_t1(grid) + 0.01 * make_taylor(TaylorSpec(1, 2), 1.0, grid)
        tracemalloc.start()
        try:
            sig, _ = extract_signature(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sig.n_saddles > 0
        assert peak < 3.5e6


class TestTraceIntegralLine:
    def test_orbit_closes_on_tilde_t1(self, grid64):
        f = make_tilde_t1(grid64)
        line = trace_integral_line(f, [np.pi / 2, np.pi / 2], arclen=10.0)
        start = line[0]
        # skip the first arclength 2, then require a return to the seed
        assert torus_distance(line[int(2.0 / _TRACE_STEP):], start).min() < 0.5 * _TRACE_STEP
        # every point is locked to the seed's level
        assert np.abs(f.evaluator.potential(line) - f.evaluator.potential(line[:1])).max() < 1e-13

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

    def test_t11_near_saddle_trace_keeps_its_level(self, grid64):
        # the trace of the test above, seeded 0.01 from the saddle at the origin
        f = make_taylor(TaylorSpec(1, 1), 1.0, grid64)
        line = trace_integral_line(f, [0.01, np.pi / 2], arclen=3.0)
        psi_grid = grid64.to_grid(f.psi)
        assert np.ptp(f.evaluator.potential(line)) < 1e-12 * (psi_grid.max() - psi_grid.min())

    def test_stream_function_is_first_integral(self, grid64):
        f = make_taylor(TaylorSpec(2, 2), 1.0, grid64) + 0.01 * make_tilde_t1(grid64)
        line = trace_integral_line(f, [1.3, 0.4], arclen=8.0)
        vals = f.evaluator.potential(line)
        psi_grid = grid64.to_grid(f.psi)
        assert vals.max() - vals.min() < 1e-13 * (psi_grid.max() - psi_grid.min())

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


@pytest.fixture
def potential_calls(monkeypatch):
    """Counts FieldEvaluator.potential calls made while a test runs."""
    calls = []
    original = FieldEvaluator.potential

    def counting(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(FieldEvaluator, "potential", counting)
    return calls


@pytest.fixture
def shared_calls(monkeypatch):
    """Counts FieldEvaluator.values_and_potential calls made while a test runs."""
    calls = []
    original = FieldEvaluator.values_and_potential

    def counting(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(FieldEvaluator, "values_and_potential", counting)
    return calls


def _trace_with_stall_evaluation(f, x0, arclen):
    """Integral-line RK4 that evaluates the field once more per step for the
    stall test, and locks each point to the seed's psi level by one Newton
    step along grad psi = (-f2, f1) that reuses the field at the point,
    clamped to a tenth of the step; the next step's first stage reuses that
    field too. The polyline trace_integral_line must reproduce bit for bit."""
    h = _TRACE_STEP
    evaluator = FieldEvaluator(f)
    sup_f, sup_grad = sup_field_and_gradient(f)
    stop_tol = _STOP_TOL_FACTOR * (sup_f + sup_grad)

    def unit(vals):
        return vals / np.maximum(np.linalg.norm(vals, axis=-1, keepdims=True), 1e-300)

    x = np.atleast_2d(np.asarray(x0, dtype=np.float64)).copy()
    level = evaluator.potential(x)
    vals = evaluator.values(x)
    line = [wrap(x[0])]
    for _ in range(int(np.ceil(arclen / h))):
        k1 = unit(vals)
        k2 = unit(evaluator.values(x + 0.5 * h * k1))
        k3 = unit(evaluator.values(x + 0.5 * h * k2))
        k4 = unit(evaluator.values(x + h * k3))
        x = wrap(x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        if np.linalg.norm(evaluator.values(x)) < stop_tol:
            line.append(x[0])
            break
        vals = evaluator.values(x)
        speed = np.linalg.norm(vals, axis=-1)
        miss = evaluator.potential(x) - level
        shift = np.minimum(np.abs(miss), 0.1 * h * speed)
        grad_psi = np.stack([-vals[:, 1], vals[:, 0]], axis=-1)
        x = wrap(x - (np.copysign(shift, miss) / (speed * speed))[:, None] * grad_psi)
        line.append(x[0])
    return np.array(line)


def _connections_with_stall_evaluation(f, saddles):
    """Brute-force separatrix tracing: every saddle is traced and every trace is
    tested for arrival against every saddle, and the field is evaluated again
    at the live points for the first RK4 stage, after the speed evaluation;
    (hetero, self, loop iterations). detect_saddle_connections, which traces
    only saddles with level partners, locks its traces to their level and
    takes longer steps, must give the same counts. Here the traces are not
    locked, and the arclength step is min(1e-2, max(0.5 |f| / G, _STEP_FLOOR)):
    at most the 1e-2 that every trace once took."""
    evaluator = FieldEvaluator(f)
    sup_f, sup_grad = sup_field_and_gradient(f)
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
        h = np.minimum(1e-2, np.maximum(0.5 * speed / max(sup_grad, 1e-300), _STEP_FLOOR))
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
    def test_trace_makes_four_evaluations_per_step(
            self, grid64, values_calls, potential_calls, shared_calls, seed):
        # per step one shared evaluation of f and psi (the stall test, the
        # level lock and the next first stage) and three of f (the other RK4
        # stages), and one shared evaluation at the seed: its stall test and
        # its level
        f = make_taylor(TaylorSpec(1, 1), 1.0, grid64) + 0.01 * make_tilde_t1(grid64)
        expected = _trace_with_stall_evaluation(f, seed, arclen=3.0)
        values_calls.clear()
        potential_calls.clear()
        line = trace_integral_line(f, seed, arclen=3.0)
        assert np.array_equal(line, expected)
        steps = len(line) - 1
        assert steps == int(np.ceil(3.0 / _TRACE_STEP))
        assert len(shared_calls) == 1 + steps
        assert len(values_calls) == 3 * steps
        assert potential_calls == []

    def test_seeding_lattice_evaluated_once(self, grid64, monkeypatch):
        # the first test reads the field's grid, not the evaluator at its
        # nodes; the cells it keeps are evaluated in one call before Newton
        # starts, and no call covers the whole grid
        f = make_taylor(TaylorSpec(3, 2), 1.0, grid64) + 1e-3 * make_tilde_t1(grid64)
        kept = _near_zero(f.to_grid(), grid_bounds(l1_sums(f), 0.5 * grid64.spacing),
                          _EXCLUSION_EPS * c1_norm(f))
        calls = []
        for name in ("values", "values_and_jacobians"):
            original = getattr(FieldEvaluator, name)

            def counting(self, pts, name=name, original=original):
                calls.append((name, len(pts)))
                return original(self, pts)

            monkeypatch.setattr(FieldEvaluator, name, counting)
        assert len(find_critical_points(f)) == 48
        assert calls[0] == ("values_and_jacobians", int(kept.sum()))
        assert max(n for _, n in calls) < 64 * 64

    def test_newton_evaluates_each_iterate_once(self, grid64, monkeypatch):
        # the search evaluates f and J together, in its cell passes and once
        # per Newton iterate; the Krawczyk test and the classification reuse
        # the last iterate's values, so each pass makes one call of its own
        f = (1.0 / np.sqrt(13.0)) * make_taylor(TaylorSpec(3, 2), 1.0, grid64) \
            + 5e-4 * make_tilde_t1(grid64)
        calls, runs = [], []
        for name in ("values", "values_and_jacobians"):
            original = getattr(FieldEvaluator, name)

            def counting(self, pts, name=name, original=original):
                calls.append((name, sys._getframe(1).f_code.co_name))
                return original(self, pts)

            monkeypatch.setattr(FieldEvaluator, name, counting)
        newton = topology._newton

        def counting_newton(*args):
            runs.append(len(calls))
            return newton(*args)

        monkeypatch.setattr(topology, "_newton", counting_newton)
        assert len(find_critical_points(f)) == 48
        assert {name for name, _ in calls} == {"values_and_jacobians"}
        assert {caller for _, caller in calls} == {"find_critical_points", "_newton"}
        passes = [i for i, (_, caller) in enumerate(calls) if caller == "find_critical_points"]
        assert passes == [i - 1 for i in runs]

    @pytest.mark.parametrize("n, m, resolution", [(3, 2, 64), (4, 4, 128)])
    def test_own_grid_as_seed_grid_is_the_default(self, monkeypatch, n, m, resolution):
        # the search seeds from the field's own grid values; the evaluator's
        # values at the same nodes give the same points
        grid = TorusGrid(resolution)
        f = (make_taylor(TaylorSpec(n, m), 1.0 / np.hypot(n, m), grid)
             + 1e-3 * make_tilde_t1(grid))
        points = find_critical_points(f)
        nodes = np.stack(np.meshgrid(grid.nodes, grid.nodes, indexing="ij"), axis=-1)
        lattice = f.evaluator.values(nodes.reshape(-1, 2)).T.reshape(2, *grid.shape)
        assert not np.array_equal(lattice, f.to_grid())
        monkeypatch.setattr(SpectralField2D, "to_grid", lambda self: lattice)
        points_lattice = find_critical_points(f)
        assert len(points) == 8 * n * m
        assert [p.kind for p in points_lattice] == [p.kind for p in points]
        assert np.array_equal(_positions(points_lattice), _positions(points))

    def test_connections_make_four_evaluations_per_iteration(
            self, grid64, values_calls, potential_calls, shared_calls, caplog):
        # per step one shared evaluation of f and psi (the stall test, the
        # level lock and the first RK4 stage) and three of f (the other
        # stages), and one of psi for the saddle levels
        f = (1.0 / np.sqrt(13.0)) * make_taylor(TaylorSpec(3, 2), 1.0, grid64) \
            + 5e-4 * make_tilde_t1(grid64)
        saddles = [p for p in find_critical_points(f) if p.kind == "saddle"]
        hetero, selfc, _ = _connections_with_stall_evaluation(f, saddles)
        values_calls.clear()
        potential_calls.clear()
        with caplog.at_level(logging.DEBUG, logger="mhdrecon.topology"):
            assert detect_saddle_connections(f, saddles) == (hetero, selfc)
        steps = int(re.search(r" in (\d+) steps$", caplog.records[-1].getMessage()).group(1))
        assert steps > 0
        assert len(shared_calls) == steps
        assert len(values_calls) == 3 * steps
        assert len(potential_calls) == 1

    def test_broken_web_closes_in_few_steps(self, grid64, caplog):
        # the broken separatrices of this perturbed web loop back to their own
        # saddle over arclength ~16: 308 steps at the turning scale with the
        # level lock, against 1572 unlocked with steps of at most 1e-2
        f = (1.0 / np.sqrt(13.0)) * make_taylor(TaylorSpec(3, 2), 1.0, grid64) \
            + 5e-4 * make_tilde_t1(grid64)
        saddles = [p for p in find_critical_points(f) if p.kind == "saddle"]
        with caplog.at_level(logging.DEBUG, logger="mhdrecon.topology"):
            detect_saddle_connections(f, saddles)
        steps = int(re.search(r" in (\d+) steps$", caplog.records[-1].getMessage()).group(1))
        assert 0 < steps <= 500

    def test_signature_reads_the_field_once(self, grid64, monkeypatch):
        # one Fourier-l1 pass serves the sup-norm pair and the search's bounds
        sup_calls, l1_calls, built = [], [], []
        sup, l1 = fields.sup_field_and_gradient, fields.l1_sums
        init = FieldEvaluator.__init__

        def counting_sup(f, *args):
            sup_calls.append(f)
            return sup(f, *args)

        def counting_l1(f):
            l1_calls.append(f)
            return l1(f)

        def counting_init(self, f):
            built.append(f)
            init(self, f)

        monkeypatch.setattr(fields, "sup_field_and_gradient", counting_sup)
        monkeypatch.setattr(fields, "l1_sums", counting_l1)
        monkeypatch.setattr(FieldEvaluator, "__init__", counting_init)
        f = make_taylor(TaylorSpec(3, 2), 1.0, grid64) + 1e-3 * make_tilde_t1(grid64)
        sig, _ = extract_signature(f)
        assert sig.n_saddles == 24 and sig.hetero_connections > 0
        assert len(sup_calls) == len(l1_calls) == len(built) == 1


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


class TestEigenDirections:
    @staticmethod
    def _saddle_jacobians(n=1200, seed=5):
        """n random saddle Jacobians (det < 0): general ones, traceless ones
        (those of a divergence-free field), and triangular or diagonal ones,
        where one of the two closed-form candidates vanishes."""
        rng = np.random.default_rng(seed)
        jac = rng.standard_normal((4 * n, 2, 2)) * 10.0 ** rng.uniform(-3, 3, (4 * n, 1, 1))
        jac[1::4, 1, 1] = -jac[1::4, 0, 0]
        jac[2::4, 1, 0] = 0.0
        jac[3::4, 0, 1] = jac[3::4, 1, 0] = 0.0
        return jac[np.linalg.det(jac) < 0][:n]

    def test_match_lapack_up_to_sign(self):
        jacs = self._saddle_jacobians()
        assert len(jacs) >= 1000
        for jac in jacs:
            w, v = np.linalg.eig(jac)
            for got, i in zip(_eigen_directions(jac), (np.argmax(w.real), np.argmin(w.real))):
                want = v[:, i].real / np.linalg.norm(v[:, i].real)
                assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-15)
                assert min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-12, jac

    def test_signature_calls_no_lapack_eig(self, monkeypatch, grid64):
        def no_eig(*args, **kwargs):
            raise AssertionError("np.linalg.eig called")

        monkeypatch.setattr(np.linalg, "eig", no_eig)
        f = make_taylor(TaylorSpec(2, 1), 1.0 / np.sqrt(5.0), grid64) + 5e-4 * make_tilde_t1(grid64)
        sig, _ = extract_signature(f)
        assert sig.n_saddles > 0 and sig.hetero_connections + sig.self_connections > 0


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

    @pytest.mark.parametrize("which", [0, 1])
    def test_level_groups_match_reference(self, grid64, which):
        f = self._grouped_fields(grid64)[which]
        saddles = _saddles(f)
        hetero, selfc, _ = _connections_with_stall_evaluation(f, saddles)
        assert hetero > 0
        assert detect_saddle_connections(f, saddles) == (hetero, selfc)

    # delta from 1e-4 to 10 draws fields with only level groups, only lone
    # saddles, and both. The example's lone saddles return home in the
    # reference only because its steps are at most 1e-2.
    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3), log_delta=st.floats(-4.0, 1.0))
    @example(n=2, m=1, log_delta=0.125)
    def test_perturbed_taylor_matches_reference(self, n, m, log_delta):
        grid = TorusGrid(32)
        delta = 10.0 ** log_delta
        f = make_taylor(TaylorSpec(n, m), 1.0 / np.hypot(n, m), grid) \
            + delta * make_tilde_t1(grid)
        saddles = _saddles(f)
        assert detect_saddle_connections(f, saddles) == _connections_with_stall_evaluation(
            f, saddles)[:2]

    # The program's locked steps must keep the counts of unlocked steps of at
    # most 1e-2: on webs broken by 1e-4 ... 1e-2 of tilde T1, and on fields
    # with weak saddles. Unlocked, with steps of up to 0.1, the (1, 3) field
    # loses four self connections (smallest Jacobian singular value 0.032
    # against G = 4.1) and the two (3, 3) fields four heteroclinic ones. The
    # last field has a nearly degenerate saddle (0.0064 against G = 4.1).
    @pytest.mark.parametrize("n, m, resolution, delta", [
        *[(n, m, resolution, delta) for n, m in [(3, 2), (4, 4)] for resolution in (64, 128)
          for delta in (1e-4, 1e-3, 1e-2)],
        (1, 3, 32, 1.26), (3, 3, 32, 0.5993), (3, 3, 32, 0.5975), (1, 3, 32, 1.2675),
    ])
    def test_perturbed_webs_match_short_step_reference(self, n, m, resolution, delta):
        grid = TorusGrid(resolution)
        f = make_taylor(TaylorSpec(n, m), 1.0 / np.hypot(n, m), grid) \
            + delta * make_tilde_t1(grid)
        saddles = _saddles(f)
        hetero, selfc, _ = _connections_with_stall_evaluation(f, saddles)
        assert detect_saddle_connections(f, saddles) == (hetero, selfc)

    def test_lone_saddles_are_not_traced(self, grid64, values_calls, shared_calls):
        f = make_tilde_t1(grid64)
        saddles = _saddles(f)
        values_calls.clear()
        assert detect_saddle_connections(f, saddles) == (0, 8)
        assert values_calls == [] and shared_calls == []

    # On T_11 the largest level correction is roundoff, so it is pinned by a
    # bound. On the three Taylor webs of the benchmark's topology requests,
    # T_nm / N + 5e-4 tilde T1, the whole line is pinned, correction and step
    # count included.
    @pytest.mark.parametrize("which, expected, correction", [
        ("lone", "2 lone saddles, 0 traced; traces: 0 hetero, 0 self, 0 stalled, 0 capped; "
                 "level corrections up to {} osc(psi) in 0 steps", 0.0),
        ("grouped", "0 lone saddles, 4 traced; traces: 16 hetero, 0 self, 0 stalled, "
                    "0 capped; level corrections up to {} osc(psi) in 33 steps", 1e-14),
        ((4, 4, 128), "0 lone saddles, 64 traced; traces: 144 hetero, 112 self, 0 stalled, "
                      "0 capped; level corrections up to 1.3e-06 osc(psi) in 348 steps", None),
        ((3, 2, 64), "0 lone saddles, 24 traced; traces: 64 hetero, 32 self, 0 stalled, "
                     "0 capped; level corrections up to 1.5e-07 osc(psi) in 309 steps", None),
        ((2, 1, 256), "0 lone saddles, 8 traced; traces: 32 hetero, 0 self, 0 stalled, "
                      "0 capped; level corrections up to 5.1e-09 osc(psi) in 128 steps", None),
    ])
    def test_trace_statistics_logged(self, grid64, caplog, which, expected, correction):
        if which == "lone":
            f = self._lone_fields(grid64)[0]
        elif which == "grouped":
            f = self._grouped_fields(grid64)[0]
        else:
            n, m, resolution = which
            grid = TorusGrid(resolution)
            f = make_taylor(TaylorSpec(n, m), 1.0 / np.hypot(n, m), grid) \
                + 5e-4 * make_tilde_t1(grid)
        saddles = _saddles(f)
        with caplog.at_level(logging.DEBUG, logger="mhdrecon.topology"):
            detect_saddle_connections(f, saddles)
        [message] = [r.getMessage() for r in caplog.records]
        if correction is None:
            assert message == f"saddle connections: {expected}"
            return
        head, _, tail = f"saddle connections: {expected}".partition("{}")
        assert message.startswith(head) and message.endswith(tail)
        assert 0.0 <= float(message[len(head):-len(tail)]) <= correction

    def test_stalled_traces_leave_the_others_running(self, monkeypatch, caplog):
        # a stall threshold raised to 1.5e-5 C1 stops 16 of the 112 traces of
        # this weak-saddle field while the others run on; the line is the one
        # the loop gave when it kept ended traces in place behind a mask
        monkeypatch.setattr(topology, "_STOP_TOL_FACTOR", 1.5e-5)
        grid = TorusGrid(32)
        f = make_taylor(TaylorSpec(3, 3), 1.0 / np.sqrt(18.0), grid) + 0.5993 * make_tilde_t1(grid)
        saddles = _saddles(f)
        with caplog.at_level(logging.DEBUG, logger="mhdrecon.topology"):
            assert detect_saddle_connections(f, saddles) == (64, 32)
        [message] = [r.getMessage() for r in caplog.records]
        assert message == (
            "saddle connections: 0 lone saddles, 28 traced; traces: 64 hetero, 32 self, "
            "16 stalled, 0 capped; level corrections up to 2.8e-05 osc(psi) in 130 steps")

    def test_trace_at_a_missed_zero_stalls(self, monkeypatch, caplog):
        # Without the 64 zeros of T_44 on the lines x or y in {0, pi/2, pi,
        # 3 pi/2} (M = 12), half of the web's traces run onto a missed zero,
        # as with a search that misses them. There each step
        # turns a trace back on itself with |f| above the stall threshold, so
        # without the no-progress end only the arclength cap ends it. The
        # web's heteroclinic traces are under 0.8 long, so a cap of 1 keeps them.
        monkeypatch.setattr(topology, "_ARCLENGTH_CAP", 1.0)
        find = topology.find_critical_points

        def miss_half(f):
            return [p for p in find(f) if np.abs(np.cos(2.0 * p.position)).max() < 0.9]

        monkeypatch.setattr(topology, "find_critical_points", miss_half)
        f = make_taylor(TaylorSpec(4, 4), 1.0, TorusGrid(12))
        with caplog.at_level(logging.DEBUG, logger="mhdrecon.topology"):
            sig, _ = extract_signature(f)
        assert (sig.n_saddles, sig.n_centers, sig.hetero_connections) == (32, 32, 64)
        [message] = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("saddle connections")]
        assert "traces: 64 hetero, 0 self, 64 stalled, 0 capped;" in message

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
        # one center left is also one extremum short of a maximum and a minimum
        assert [r.levelname for r in caplog.records] == ["WARNING", "WARNING"]
        assert "2 saddles but 1 centers" in caplog.records[0].getMessage()
        assert "1 centers and 0 degenerate points" in caplog.records[1].getMessage()

    @pytest.mark.parametrize("resolution, warned", [(16, True), (32, False)])
    def test_missed_extrema_warn(self, caplog, monkeypatch, resolution, warned):
        # a search that finds no point at all: 0 saddles = 0 centers passes
        # Poincare-Hopf, but the potential's maximum and minimum are missing.
        # The search itself finds all of T_44's points
        if warned:
            monkeypatch.setattr(topology, "find_critical_points", lambda f: [])
        f = make_taylor(TaylorSpec(4, 4), 1.0, TorusGrid(resolution))
        with caplog.at_level(logging.WARNING, logger="mhdrecon.topology"):
            sig, _ = extract_signature(f)
        messages = [r.getMessage() for r in caplog.records]
        if warned:
            assert sig.n_centers == 0
            assert ["miss the extrema" in m for m in messages] == [True]
        else:
            assert sig.n_centers == 64
            assert not messages


class TestStructuralStability:
    def test_tilde_t1_stable(self, grid64):
        sig = extract_signature(make_tilde_t1(grid64))[0]
        assert sig.structurally_stable
        assert (sig.n_saddles, sig.n_centers, sig.n_degenerate) == (2, 2, 0)
        assert sig.hetero_connections == 0

    def test_t11_unstable(self, grid64):
        sig = extract_signature(make_taylor(TaylorSpec(1, 1), 1.0, grid64))[0]
        assert not sig.structurally_stable
        assert sig.hetero_connections > 0

    def test_zero_field_unstable_by_convention(self, grid32):
        sig = extract_signature(zero_field(grid32))[0]
        assert not sig.structurally_stable
        assert sig == TopologySignature()

    def test_stability_implies_clean_signature(self, grid64):
        # the signature invariant: stable => no degenerate points, no heteros
        for f in (make_tilde_t1(grid64), make_taylor(TaylorSpec(1, 1), 1.0, grid64)):
            sig = extract_signature(f)[0]
            if sig.structurally_stable:
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
    trajectory = []
    simulate(cfg, MHDState(u0, b0, 0.0), sinks=[trajectory.append])
    return trajectory


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

    def test_one_snapshot_trajectory(self, grid64):
        # a run to t_end = 0 records its initial state alone
        tilde = make_tilde_t1(grid64)
        traj = _ideal_trajectory(grid64, tilde, zero_field(grid64), t_end=0.0)
        assert len(traj) == 1
        sample = flow_map(traj, self.seeds, 0.0)
        assert np.array_equal(sample.images, self.seeds)
        assert np.array_equal(sample.jacobians, np.broadcast_to(np.eye(2), (4, 2, 2)))
        # within the 1e-9 tolerance of the range, one step moves at the snapshot's velocity
        t = 5e-10
        moved = flow_map(traj, self.seeds, t).images - self.seeds
        assert np.abs(moved - t * FieldEvaluator(tilde).values(self.seeds)).max() < 1e-14

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
        b0 = traj[0].b
        assert verify_frozen_in(flow_map(traj, self.seeds, 0.0), b0, b0) == 0.0

    def test_stationary_run_is_exact(self, grid64):
        # u0 = 0 with an Euler-stationary b0 keeps u = 0, so transport is trivial
        traj = _ideal_trajectory(grid64, zero_field(grid64), make_tilde_t1(grid64))
        sample = flow_map(traj, self.seeds, 0.25)
        assert verify_frozen_in(sample, traj[0].b, traj[-1].b) < 1e-8

    def test_advected_run_is_discretization_limited(self, grid64):
        # genuinely moving fluid: the residual is set by flow-map time stepping
        traj = _ideal_trajectory(
            grid64, make_tilde_t1(grid64), make_taylor(TaylorSpec(2, 1), 1.0, grid64)
        )
        err = verify_frozen_in(flow_map(traj, self.seeds, 0.25), traj[0].b, traj[-1].b)
        assert err < 1e-5

    def test_residual_tells_ideal_from_resistive(self, grid64):
        # one datum, one flow; only resistivity moves b off the transported field
        def residual(eta):
            cfg = SimConfig(nu=0.1, eta=eta, grid=grid64, dt=1e-3, t_end=0.05, output_cadence=10)
            traj = []
            b0 = make_taylor(TaylorSpec(2, 1), 1.0, grid64)
            simulate(cfg, MHDState(make_tilde_t1(grid64), b0, 0.0), sinks=[traj.append])
            return verify_frozen_in(flow_map(traj, self.seeds, 0.05), b0, traj[-1].b)

        assert residual(0.0) < 1e-8
        assert residual(0.5) >= 1e-3


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

