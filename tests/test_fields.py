"""Spectral field construction, evaluation, norms, and projections.

Expected values are frozen from hand derivations: Taylor fields have four
active wavenumbers per component, so L2 norms, Jacobians, and stream
functions follow from elementary integrals of sin/cos products. References
that need the full spectrum are built from the vector view
SpectralField2D.components.
"""

import tracemalloc

import numpy as np
import pytest

from mhdrecon.fields import (
    ConfigurationError,
    FieldEvaluator,
    SpectralField2D,
    TaylorSpec,
    TorusGrid,
    _series,
    c1_norm,
    l1_sums,
    l2_norm,
    make_taylor,
    make_tilde_t1,
    project_coeffs,
    sobolev_norm,
    sup_field_and_gradient,
    zero_field,
)
from mhdrecon import fields

from .conftest import random_divergence_free
from .reference import dealias_mask, fourier_l1_pair, laplacian


def _full_wavenumbers(grid):
    """Full-spectrum (k1, k2) arrays (M, M) in FFT order."""
    k = grid.wavenumbers.astype(np.float64)
    return np.meshgrid(k, k, indexing="ij")


def _random_half(grid, n, seed):
    """n real random fields on the half-spectrum, shape (n, M, M/2 + 1)."""
    rng = np.random.default_rng(seed)
    return grid.from_grid(rng.standard_normal((n, *grid.shape))) * grid.resolution


class TestTorusGrid:
    def test_rejects_odd_or_tiny_resolution(self):
        with pytest.raises(ConfigurationError):
            TorusGrid(7)
        with pytest.raises(ConfigurationError):
            TorusGrid(4)

    def test_wavenumber_range(self, grid32):
        k = grid32.wavenumbers
        assert k.min() == -15 and k.max() == 16
        assert sorted(k) == list(range(-15, 17))

    def test_spacing(self, grid32):
        assert grid32.spacing == pytest.approx(2 * np.pi / 32)
        assert grid32.nodes[0] == 0.0

    def test_dealias_mask_cut(self, grid32):
        cut = 32 / 3
        inside = (np.abs(grid32.k1) <= cut) & (np.abs(grid32.k2) <= cut)
        assert np.array_equal(dealias_mask(grid32), inside)


class TestTaylorConstruction:
    def test_eigenvalue(self):
        assert TaylorSpec(2, 3).eigenvalue == 13
        with pytest.raises(ConfigurationError):
            TaylorSpec(0, 1)

    def test_unresolvable_mode_rejected(self, grid32):
        with pytest.raises(ConfigurationError):
            make_taylor(TaylorSpec(16, 1), 1.0, grid32)

    def test_t11_point_values(self, grid32):
        t11 = make_taylor(TaylorSpec(1, 1), 1.0, grid32)
        vals = t11.evaluator.values(np.array([[np.pi / 2, np.pi / 2], [0.0, 0.0]]))
        assert vals[0] == pytest.approx([1.0, 0.0], abs=1e-14)
        assert vals[1] == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_t11_is_laplacian_eigenfield(self, grid32):
        t11 = make_taylor(TaylorSpec(1, 1), 1.0, grid32)
        resid = laplacian(t11) + 2.0 * t11
        assert l2_norm(resid) <= 1e-12 * l2_norm(t11)

    def test_t23_eigenfield_identity(self, grid32):
        t23 = make_taylor(TaylorSpec(2, 3), 1.0, grid32)
        resid = laplacian(t23) + 13.0 * t23
        assert l2_norm(resid) <= 1e-12 * l2_norm(t23)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_eigenfunction_family(self, grid32, n, m):
        f = make_taylor(TaylorSpec(n, m), 1.0, grid32)
        resid = laplacian(f) + (n * n + m * m) * f
        assert l2_norm(resid) < 1e-12 * l2_norm(f)

    def test_amplitude_scaling(self, grid32):
        a = make_taylor(TaylorSpec(2, 1), 3.5, grid32)
        b = make_taylor(TaylorSpec(2, 1), 1.0, grid32)
        assert np.allclose(a.psi, 3.5 * b.psi)

    def test_invariants_hold(self, grid32):
        # the vector view passes the checks of from_components and reads back
        f = make_taylor(TaylorSpec(3, 2), 2.0, grid32)
        back = SpectralField2D.from_components(grid32, f.components())
        assert np.array_equal(back.psi, f.psi)


class TestTildeT1:
    def test_point_values(self, grid32):
        f = make_tilde_t1(grid32)
        vals = f.evaluator.values(np.array([[np.pi / 2, np.pi / 2], [np.pi, np.pi]]))
        assert vals[0] == pytest.approx([1.0, 0.5], abs=1e-14)
        assert vals[1] == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_unit_eigenvalue(self, grid32):
        f = make_tilde_t1(grid32)
        assert np.allclose(-laplacian(f).psi, f.psi)  # -Lap f = f
        resid = laplacian(f) + f
        assert l2_norm(resid) == 0.0

    def test_divergence_free(self, grid32):
        c = make_tilde_t1(grid32).components()
        k1, k2 = _full_wavenumbers(grid32)
        div = k1 * c[0] + k2 * c[1]
        assert np.max(np.abs(div)) < 1e-14


class TestEvaluation:
    def test_grid_node_consistency(self, grid64):
        f = random_divergence_free(grid64, 9, seed=11)
        vals = f.to_grid()
        i, j = 13, 40
        at = f.evaluator.values(np.array([[grid64.nodes[i], grid64.nodes[j]]]))[0]
        scale = np.max(np.abs(vals))
        assert abs(at[0] - vals[0, i, j]) < 1e-12 * scale
        assert abs(at[1] - vals[1, i, j]) < 1e-12 * scale

    def test_dense_and_sparse_paths_agree(self, grid32):
        f = random_divergence_free(grid32, 15, seed=7)
        ev = FieldEvaluator(f)
        assert ev._dense
        pts = np.random.default_rng(0).uniform(0, 2 * np.pi, (6, 2))
        vals, jacs = ev.values_and_jacobians(pts)
        k = grid32.wavenumbers
        c = f.components()
        for p, v in zip(pts, vals):
            phases = np.exp(1j * (k[:, None] * p[0] + k[None, :] * p[1]))
            ref = [np.real(np.sum(c[i] * phases)) for i in range(2)]
            assert np.allclose(v, ref, atol=1e-11)

    def test_band_matches_full_spectrum_sums(self, grid64):
        # active modes fill |k| <= 12 of the 64 x 64 grid: the dense path sums
        # over 25 rows and 13 columns k2 >= 0, and the test checks it drops
        # nothing that counts
        f = random_divergence_free(grid64, 12, seed=5)
        ev = FieldEvaluator(f)
        assert ev._dense
        assert len(ev._kr) == 25 and len(ev._kc) == 13
        pts = np.random.default_rng(1).uniform(0, 2 * np.pi, (40, 2))
        k = grid64.wavenumbers.astype(np.float64)
        k1, k2 = _full_wavenumbers(grid64)
        c = f.components()
        ref_vals = _full_spectrum_sums(c, k, pts)
        ref_jac = np.stack(
            [_full_spectrum_sums(1j * k[:, None] * c, k, pts),
             _full_spectrum_sums(1j * k[None, :] * c, k, pts)], axis=-1)
        ksq = np.where(k1**2 + k2**2 > 0, k1**2 + k2**2, 1.0)
        psi_full = 1j * (k1 * c[1] - k2 * c[0]) / ksq
        ref_psi = _full_spectrum_sums(psi_full[None], k, pts)[:, 0]
        vals, jacs = ev.values_and_jacobians(pts)
        tol = 1e-13 * c1_norm(f)
        assert np.abs(vals - ref_vals).max() < tol
        assert np.abs(jacs - ref_jac).max() < tol
        assert np.abs(ev.values(pts) - ref_vals).max() < tol
        assert np.abs(ev.potential(pts) - ref_psi).max() < tol

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("n_points", [1, 7, 80, 1000])
    def test_values_and_potential_equal_the_separate_calls(self, grid64, dense, n_points):
        # one phase table serves both products, each taken as values and
        # potential take it, so the pair is equal to theirs bit for bit
        if dense:
            f = random_divergence_free(grid64, 12, seed=5)
        else:
            f = make_taylor(TaylorSpec(3, 2), 1.0, grid64) + 1e-3 * make_tilde_t1(grid64)
        ev = FieldEvaluator(f)
        assert ev._dense == dense
        pts = np.random.default_rng(n_points).uniform(0, 2 * np.pi, (n_points, 2))
        vals, psi = ev.values_and_potential(pts)
        assert vals.shape == (n_points, 2) and psi.shape == (n_points,)
        assert np.array_equal(vals, ev.values(pts))
        assert np.array_equal(psi, ev.potential(pts))


def _full_spectrum_sums(coeffs, k, pts):
    """Real parts of sum over the whole (M, M) grid of C[k1, k2] e^{i (k1 x + k2 y)},
    one column per matrix C in coeffs."""
    e1 = np.exp(1j * np.outer(pts[:, 0], k))
    e2 = np.exp(1j * np.outer(pts[:, 1], k))
    return np.real(np.einsum("pa,nab,pb->pn", e1, coeffs, e2))


class TestJacobian:
    def test_tilde_t1_at_origin(self, grid32):
        f = make_tilde_t1(grid32)
        j = f.evaluator.values_and_jacobians(np.array([[0.0, 0.0]]))[1][0]
        assert np.allclose(j, [[0.0, 1.0], [0.5, 0.0]], atol=1e-13)
        assert np.linalg.det(j) == pytest.approx(-0.5, abs=1e-13)

    def test_tilde_t1_at_zero_pi(self, grid32):
        j = make_tilde_t1(grid32).evaluator.values_and_jacobians(np.array([[0.0, np.pi]]))[1][0]
        assert np.allclose(j, [[0.0, -1.0], [0.5, 0.0]], atol=1e-13)
        assert np.linalg.det(j) == pytest.approx(0.5, abs=1e-13)

    def test_t11_determinant(self, grid32):
        f = make_taylor(TaylorSpec(1, 1), 1.0, grid32)
        j = f.evaluator.values_and_jacobians(np.array([[0.0, np.pi / 2]]))[1][0]
        assert np.linalg.det(j) == pytest.approx(-1.0, abs=1e-13)

    def test_trace_free(self, grid64):
        f = random_divergence_free(grid64, 10, seed=3)
        pts = np.random.default_rng(1).uniform(0, 2 * np.pi, (20, 2))
        _, jacs = f.evaluator.values_and_jacobians(pts)
        scale = np.max(np.abs(jacs))
        assert np.max(np.abs(jacs[:, 0, 0] + jacs[:, 1, 1])) < 1e-10 * scale


class TestSobolevNorm:
    def test_t11_l2(self, grid32):
        t11 = make_taylor(TaylorSpec(1, 1), 1.0, grid32)
        assert l2_norm(t11) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-13)

    def test_h1_factor_two(self, grid32):
        f = make_tilde_t1(grid32)
        assert sobolev_norm(f, 1) ** 2 == pytest.approx(2.0 * l2_norm(f) ** 2, rel=1e-13)

    def test_zero_field(self, grid32):
        assert sobolev_norm(zero_field(grid32), 3) == 0.0

    def test_index_range(self, grid32):
        with pytest.raises(ConfigurationError):
            sobolev_norm(make_tilde_t1(grid32), 9)

    def test_parseval(self, grid64):
        f = random_divergence_free(grid64, 12, seed=21)
        grid_sum = np.sqrt(np.sum(f.to_grid() ** 2) * grid64.spacing**2)
        assert grid_sum == pytest.approx(l2_norm(f), rel=1e-10)

    def test_reality(self, grid64):
        f = random_divergence_free(grid64, 12, seed=22)
        complex_vals = np.fft.ifft2(f.components(), axes=(-2, -1)) * grid64.resolution**2
        assert np.max(np.abs(complex_vals.imag)) < 1e-12 * np.max(np.abs(complex_vals.real))


def _oversampled_maxima(f):
    """(max |f_i|, max |J_ij|) sampled on a 4M x 4M grid: the 5 series of
    fields._series, zero-padded, through an inverse real FFT. A lower
    estimate of the suprema."""
    g = f.grid
    big = 4 * g.resolution
    pad = np.zeros((5, big, big // 2 + 1), dtype=np.complex128)
    pad[:, g.wavenumbers % big, : g.spectral_shape[1]] = fields._series(g.k1, g.k2, f.psi)
    vals = np.fft.irfft2(pad, s=(big, big), norm="forward")
    return float(np.max(np.abs(vals[:2]))), float(np.max(np.abs(vals[2:])))


class TestC1Norm:
    def test_tilde_t1(self, grid32):
        # exact: sup |(sin y, sin(x) / 2)| = 1 and sup |d_y sin y| = 1
        for amplitude in (1.0, -3.0, 1e-3):
            pair = sup_field_and_gradient(make_tilde_t1(grid32, amplitude))
            assert pair == pytest.approx((abs(amplitude),) * 2, rel=1e-15, abs=0.0)
        assert c1_norm(make_tilde_t1(grid32)) == pytest.approx(2.0, rel=1e-12)

    def test_zero(self, grid32):
        assert c1_norm(zero_field(grid32)) == 0.0

    def test_homogeneity(self, grid32):
        f = make_taylor(TaylorSpec(2, 3), 1.0, grid32)
        assert c1_norm(-2.5 * f) == pytest.approx(2.5 * c1_norm(f), rel=1e-12)

    @pytest.mark.parametrize("resolution", [32, 64])
    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_bounds_the_oversampled_grid_maximum(self, resolution, seed):
        f = random_divergence_free(TorusGrid(resolution), resolution // 2 - 1, seed=seed)
        grid_f, grid_grad = _oversampled_maxima(f)
        sup_f, sup_grad = sup_field_and_gradient(f)
        assert sup_f >= grid_f and sup_grad >= grid_grad

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2), (4, 4), (1, 7), (6, 5)])
    @pytest.mark.parametrize("amplitude", [1.0, -0.37, 2.5e3])
    def test_exact_for_a_taylor_mode(self, grid32, n, m, amplitude):
        f = make_taylor(TaylorSpec(n, m), amplitude, grid32)
        a = abs(amplitude)
        sup_f, sup_grad = sup_field_and_gradient(f)
        assert sup_f == pytest.approx(a * max(n, m), rel=1e-15, abs=0.0)
        assert sup_grad == pytest.approx(a * max(n * n, m * m, n * m), rel=1e-15, abs=0.0)

    def test_strictly_above_the_maximum_of_two_modes(self, grid32):
        # psi = cos x + sin 3x: f = (0, sin x - 3 cos 3x) and d_x f2 = cos x +
        # 9 sin 3x, whose two terms never peak together
        psi = np.zeros(grid32.spectral_shape, dtype=np.complex128)
        psi[1, 0] = psi[-1, 0] = 0.5
        psi[3, 0], psi[-3, 0] = -0.5j, 0.5j
        f = SpectralField2D(grid32, psi)
        sup_f, sup_grad = sup_field_and_gradient(f)
        assert (sup_f, sup_grad) == (4.0, 10.0)
        grid_f, grid_grad = _oversampled_maxima(f)
        assert sup_f > 1.01 * grid_f and sup_grad > 1.01 * grid_grad

    @pytest.mark.parametrize("resolution", [32, 64, 128, 256])
    @pytest.mark.parametrize("kmax", range(1, 9))
    def test_separable_sums_match_the_series_stack(self, resolution, kmax):
        # the same sums of positive terms, added in another order
        for seed in range(2):
            f = random_divergence_free(TorusGrid(resolution), kmax, seed=100 * kmax + seed)
            assert sup_field_and_gradient(f) == pytest.approx(fourier_l1_pair(f), rel=1e-15,
                                                              abs=0.0)

    @pytest.mark.parametrize("amplitude", [1.0, -0.37, 2.5e3, 1e-3])
    def test_separable_sums_equal_the_series_stack_on_single_modes(self, grid32, amplitude):
        for n in range(1, 8):
            for m in range(1, 8):
                f = make_taylor(TaylorSpec(n, m), amplitude, grid32)
                assert sup_field_and_gradient(f) == fourier_l1_pair(f)
        f = make_tilde_t1(grid32, amplitude)
        assert sup_field_and_gradient(f) == fourier_l1_pair(f)

    def test_sum_of_the_sup_norm_pair(self, grid32):
        f = make_taylor(TaylorSpec(2, 3), 1.0, grid32) + 0.3 * make_tilde_t1(grid32)
        sup_f, sup_grad = sup_field_and_gradient(f)
        assert c1_norm(f) == sup_f + sup_grad


class TestL1Sums:
    @pytest.mark.parametrize("resolution", [32, 256])
    @pytest.mark.parametrize("kmax", [1, 3, 8])
    def test_match_the_direct_sums(self, resolution, kmax):
        g = TorusGrid(resolution)
        f = random_divergence_free(g, kmax, seed=kmax)
        sums = l1_sums(f)
        for a in range(4):
            for b in range(4):
                direct = np.sum(g.multiplicity * np.abs(g.k1) ** a * g.k2**b * np.abs(f.psi))
                assert sums[a, b] == pytest.approx(direct, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 2), (4, 4), (2, 7)])
    def test_exact_for_a_taylor_mode(self, grid32, n, m):
        # psi = -a sin(nx) cos(my): S[a, b] = a n^a m^b
        sums = l1_sums(make_taylor(TaylorSpec(n, m), 0.75, grid32))
        expected = 0.75 * np.array([[n**a * m**b for b in range(4)] for a in range(4)])
        assert np.array_equal(sums, expected)

    @pytest.mark.parametrize("resolution, kmax, seed", [(64, 8, 5), (128, 5, 3), (256, 3, 1)])
    def test_the_sup_norm_pair_is_read_from_the_cached_sums(self, resolution, kmax, seed):
        f = random_divergence_free(TorusGrid(resolution), kmax, seed)
        s = f.l1_sums
        assert np.array_equal(s, l1_sums(f))
        assert sup_field_and_gradient(f) == (max(s[0, 1], s[1, 0]),
                                             max(s[1, 1], s[0, 2], s[2, 0]))


class TestCachedPerField:
    def test_sup_norms_computed_once(self, grid32, monkeypatch):
        calls = []
        original = fields.sup_field_and_gradient

        def counting(f, *args):
            calls.append(f)
            return original(f, *args)

        monkeypatch.setattr(fields, "sup_field_and_gradient", counting)
        f = make_taylor(TaylorSpec(2, 3), 1.0, grid32)
        assert f.sup_norms == original(f)
        assert c1_norm(f) == sum(f.sup_norms)
        assert len(calls) == 1

    def test_evaluator_built_once(self, grid32):
        f = random_divergence_free(grid32, 6, seed=4)
        ev = f.evaluator
        assert isinstance(ev, FieldEvaluator) and f.evaluator is ev
        pts = np.array([[0.3, 1.7], [4.0, 2.2]])
        assert np.array_equal(ev.values(pts), FieldEvaluator(f).values(pts))
        assert f.evaluator is ev


def _half_components(f):
    """Half-spectrum columns k2 >= 0 of the vector view of f."""
    return f.components()[..., : f.grid.resolution // 2 + 1]


def _pairing(grid, a, b):
    """sum over the full spectrum of Re a(k) . conj b(k), for half-spectrum arrays."""
    return np.sum(grid.multiplicity * np.real(a * np.conj(b)))


class TestLerayProjection:
    def _gradient_field(self, grid, seed):
        phi = _random_half(grid, 1, seed)[0]
        return np.stack([1j * grid.k1 * phi, 1j * grid.k2 * phi])

    def test_annihilates_gradients(self, grid32):
        g = self._gradient_field(grid32, 5)
        assert np.abs(project_coeffs(g, grid32)).max() < 1e-12 * np.abs(g).max()

    def test_sine_x_is_pure_gradient(self, grid32):
        c = np.zeros((2, *grid32.spectral_shape), dtype=complex)
        c[0, 1, 0] = -0.5j
        c[0, -1, 0] = 0.5j
        assert np.abs(project_coeffs(c, grid32)).max() < 1e-14

    def test_divergence_free_unchanged(self, grid32):
        c = _half_components(random_divergence_free(grid32, 10, seed=9))
        p = project_coeffs(c, grid32)
        assert np.max(np.abs(p - c)) < 1e-14 * np.max(np.abs(c))

    def test_idempotent(self, grid32):
        c = _random_half(grid32, 2, 17)
        once = project_coeffs(c, grid32)
        twice = project_coeffs(once, grid32)
        assert np.max(np.abs(once - twice)) < 1e-12 * np.max(np.abs(c))

    def test_self_adjoint(self, grid32):
        a, b = _random_half(grid32, 2, 30), _random_half(grid32, 2, 31)
        lhs = _pairing(grid32, project_coeffs(a, grid32), b)
        rhs = _pairing(grid32, a, project_coeffs(b, grid32))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_output_satisfies_invariants(self, grid32):
        p = project_coeffs(_random_half(grid32, 2, 40), grid32)
        div = grid32.k1 * p[0] + grid32.k2 * p[1]
        assert np.abs(div).max() < 1e-12 * np.abs(p).max()
        assert np.all(p[:, 0, 0] == 0.0) and np.all(p[:, grid32.nyquist_mask] == 0.0)


class TestStreamFunction:
    def test_t11_stream(self, grid32):
        # psi = -sin(x) cos(y): d_y psi = sin x sin y, -d_x psi = cos x cos y
        f = make_taylor(TaylorSpec(1, 1), 1.0, grid32)
        pts = np.array([[0.4, 1.3], [3.0, 5.1], [2.2, 0.9]])
        expected = -np.sin(pts[:, 0]) * np.cos(pts[:, 1])
        assert np.allclose(f.evaluator.potential(pts), expected, atol=1e-13)
        grid_vals = grid32.to_grid(f.psi)
        x, y = np.meshgrid(grid32.nodes, grid32.nodes, indexing="ij")
        assert np.allclose(grid_vals, -np.sin(x) * np.cos(y), atol=1e-13)

    def test_tilde_t1_stream(self, grid32):
        # psi = cos(x)/2 - cos(y) reproduces (sin y, sin(x)/2) under grad-perp
        f = make_tilde_t1(grid32)
        pts = np.array([[0.4, 1.3], [3.0, 5.1]])
        expected = 0.5 * np.cos(pts[:, 0]) - np.cos(pts[:, 1])
        assert np.allclose(f.evaluator.potential(pts), expected, atol=1e-13)

    def test_dense_potential_matches_grid(self, grid32):
        # a random field takes the evaluator's separable (dense) path
        f = random_divergence_free(grid32, 12, seed=3)
        x, y = np.meshgrid(grid32.nodes, grid32.nodes, indexing="ij")
        pts = np.stack([x.ravel(), y.ravel()], axis=-1)
        expected = grid32.to_grid(f.psi).ravel()
        assert np.allclose(f.evaluator.potential(pts), expected, atol=1e-12 * np.abs(expected).max())

    def test_reconstruction(self, grid64):
        # f = (d_y psi, -d_x psi), with the derivatives of psi's grid values
        # taken by a full-spectrum FFT
        f = random_divergence_free(grid64, 14, seed=2)
        psi = grid64.to_grid(f.psi)
        k1, k2 = _full_wavenumbers(grid64)
        spec = np.fft.fft2(psi)
        dpsi_dx = np.real(np.fft.ifft2(1j * k1 * spec))
        dpsi_dy = np.real(np.fft.ifft2(1j * k2 * spec))
        vals = f.to_grid()
        scale = np.abs(vals).max()
        assert np.abs(vals[0] - dpsi_dy).max() < 1e-12 * scale
        assert np.abs(vals[1] + dpsi_dx).max() < 1e-12 * scale

    def test_roundtrip_from_scalar(self, grid32):
        raw = _random_half(grid32, 1, 8)[0]
        raw[0, 0] = 0.0
        raw[grid32.nyquist_mask] = 0.0
        f = SpectralField2D(grid32, raw)
        back = SpectralField2D.from_components(grid32, f.components()).psi
        assert np.max(np.abs(back - raw)) < 1e-12 * np.max(np.abs(raw))



class TestFieldAlgebra:
    def test_add_sub_scale(self, grid32):
        a = make_taylor(TaylorSpec(1, 2), 1.0, grid32)
        b = make_tilde_t1(grid32)
        combo = 2.0 * a + b - a
        assert np.allclose(combo.psi, a.psi + b.psi)

    def test_grid_mismatch_rejected(self, grid32, grid64):
        with pytest.raises(ConfigurationError):
            make_tilde_t1(grid32) + make_tilde_t1(grid64)

    def test_validate_catches_divergence(self, grid32):
        # (sin x, 0) is a gradient
        c = np.zeros((2, 32, 32), dtype=complex)
        c[0, 1, 0] = -0.5j
        c[0, -1, 0] = 0.5j
        with pytest.raises(ConfigurationError, match="b1/b2 is not divergence-free"):
            SpectralField2D.from_components(grid32, c, name="b1/b2")

    def test_coeffs_read_only(self, grid32):
        f = make_tilde_t1(grid32)
        with pytest.raises(ValueError):
            f.psi[0, 1] = 1.0


class TestVectorView:
    def test_components_of_taylor_fields(self, grid32):
        # T_21 = (sin 2x sin y, 2 cos 2x cos y) and tilde T_1 = (sin y, sin(x) / 2)
        c = make_taylor(TaylorSpec(2, 1), 1.0, grid32).components()
        assert (c[0, 2, 1], c[0, 2, -1], c[1, -2, 1]) == (-0.25, 0.25, 0.5)
        assert np.count_nonzero(c) == 8
        c = make_tilde_t1(grid32).components()
        assert (c[0, 0, 1], c[0, 0, -1], c[1, 1, 0], c[1, -1, 0]) == (-0.5j, 0.5j, -0.25j, 0.25j)
        assert np.count_nonzero(c) == 4

    def test_grid_values_match_components(self, grid32):
        f = random_divergence_free(grid32, 10, seed=6)
        vals = np.real(np.fft.ifft2(f.components())) * grid32.resolution**2
        assert np.abs(vals - f.to_grid()).max() < 1e-13 * np.abs(vals).max()

    @pytest.mark.parametrize("resolution", [32, 256])
    def test_grid_values_match_the_stacked_transform(self, resolution):
        g = TorusGrid(resolution)
        f = random_divergence_free(g, 8, seed=resolution)
        stacked = g.to_grid(_series(g.k1, g.k2, f.psi, jacobian=False))
        assert np.array_equal(f.to_grid(), stacked)

    def test_grid_values_transform_one_component_at_a_time(self):
        # a (2, M, M/2 + 1) complex stack of both series, and the complex
        # intermediate of its transform, lift the peak to 3.16 MB at M = 256
        # for a 1.05 MB result; one component at a time it stays at 2.11 MB
        grid = TorusGrid(256)
        f = make_taylor(TaylorSpec(2, 1), 1.0 / np.sqrt(5.0), grid) + 5e-4 * make_tilde_t1(grid)
        tracemalloc.start()
        try:
            f.to_grid()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.8e6

    def test_rejects_complex_valued_field(self, grid32):
        c = make_tilde_t1(grid32).components()
        c[0, 0, 1] += 0.1  # no conjugate partner at (0, -1)
        with pytest.raises(ConfigurationError, match="u1/u2 is not Hermitian"):
            SpectralField2D.from_components(grid32, c, name="u1/u2")

    def test_rejects_nonzero_average(self, grid32):
        c = make_tilde_t1(grid32).components()
        c[1, 0, 0] = 0.3
        with pytest.raises(ConfigurationError, match="zero average"):
            SpectralField2D.from_components(grid32, c)

    def test_rejects_wrong_shape(self, grid32):
        with pytest.raises(ConfigurationError, match="shape"):
            SpectralField2D.from_components(grid32, np.zeros((2, 16, 16)))
        with pytest.raises(ConfigurationError, match="shape"):
            SpectralField2D(grid32, np.zeros((32, 32)))

    def test_nyquist_content_dropped(self, grid32):
        # cos(M/2 y) e_x is real and divergence-free, but lies on a Nyquist line
        c = make_tilde_t1(grid32).components()
        c[0, 0, 16] = 0.1
        f = SpectralField2D.from_components(grid32, c)
        assert np.array_equal(f.psi, make_tilde_t1(grid32).psi)


def _full_spectrum_kept(f):
    """Full-spectrum modes (k1, k2) kept by the weighted-tail rule applied to
    the vector view, as a set."""
    c = f.components()
    k1, k2 = _full_wavenumbers(f.grid)
    weight = ((1.0 + np.maximum(np.abs(k1), np.abs(k2))) * np.abs(c).sum(axis=0)).ravel()
    order = np.argsort(weight, kind="stable")
    cut = np.searchsorted(np.cumsum(weight[order]), fields._EVAL_TAIL_RTOL * weight.sum(),
                          side="right")
    keep = order[cut:]
    return set(zip(k1.ravel()[keep].astype(int), k2.ravel()[keep].astype(int)))


class TestActiveModes:
    @pytest.mark.parametrize("make", [
        lambda g: make_taylor(TaylorSpec(3, 2), 0.3, g) + 1e-3 * make_tilde_t1(g),
        lambda g: random_divergence_free(g, 12, seed=1),
        lambda g: random_divergence_free(g, 30, seed=2) * 1e-3 + make_tilde_t1(g),
    ], ids=["taylor", "band", "tail"])
    def test_same_modes_as_the_full_spectrum_rule(self, grid64, make):
        # the kept entries k2 >= 0 with their conjugates -k are the modes the
        # rule keeps on the full spectrum, up to completing a conjugate pair
        # that the cut splits
        f = make(grid64)
        keep = fields._active_modes(f)
        k1 = grid64.k1.ravel()[keep].astype(int)
        k2 = grid64.k2.ravel()[keep].astype(int)
        half = set(zip(k1, k2)) | set(zip(-k1, -k2))
        full = _full_spectrum_kept(f)
        assert half == full | {(-a, -b) for a, b in full}
        n_full = grid64.multiplicity.ravel()[keep].sum()
        assert FieldEvaluator(f)._dense == (n_full > 4 * grid64.resolution)
        assert n_full - len(full) in (0, 1)

    @pytest.mark.parametrize("kmax", [2, 5, 15])
    @pytest.mark.parametrize("seed", range(4))
    def test_total_weight_is_at_most_three_c1(self, grid32, kmax, seed):
        # the tail cut of _EVAL_TAIL_RTOL * weight is then below 3e-13 C1
        f = random_divergence_free(grid32, kmax, seed=seed) + make_tilde_t1(grid32, 0.1 * seed)
        k1, k2 = np.abs(grid32.k1), grid32.k2
        weight = grid32.multiplicity * (1.0 + np.maximum(k1, k2)) * (k1 + k2) * np.abs(f.psi)
        assert weight.sum() <= 3.0 * c1_norm(f)
