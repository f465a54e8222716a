"""Spectral field construction, evaluation, norms, and projections.

Expected values are frozen from hand derivations: Taylor fields have four
active wavenumbers per component, so L2 norms, Jacobians, and stream
functions follow from elementary integrals of sin/cos products.
"""

import numpy as np
import pytest

from mhdrecon.fields import (
    ConfigurationError,
    FieldEvaluator,
    SpectralField2D,
    TaylorSpec,
    TorusGrid,
    c1_norm,
    eval_field,
    jacobian,
    l2_inner,
    l2_norm,
    laplacian,
    leray_project,
    make_taylor,
    make_tilde_t1,
    sobolev_norm,
    stream_function,
    sup_field_and_gradient,
    zero_field,
)
from mhdrecon import fields

from .conftest import random_divergence_free


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
        assert np.array_equal(grid32.dealias_mask, inside)


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
        assert eval_field(t11, [np.pi / 2, np.pi / 2]) == pytest.approx([1.0, 0.0], abs=1e-14)
        assert eval_field(t11, [0.0, 0.0]) == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_t11_is_laplacian_eigenfield(self, grid32):
        t11 = make_taylor(TaylorSpec(1, 1), 1.0, grid32)
        resid = SpectralField2D(grid32, laplacian(t11).coeffs + 2.0 * t11.coeffs)
        assert l2_norm(resid) <= 1e-12 * l2_norm(t11)

    def test_t23_eigenfield_identity(self, grid32):
        t23 = make_taylor(TaylorSpec(2, 3), 1.0, grid32)
        resid = SpectralField2D(grid32, laplacian(t23).coeffs + 13.0 * t23.coeffs)
        assert l2_norm(resid) <= 1e-12 * l2_norm(t23)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_eigenfunction_family(self, grid32, n, m):
        f = make_taylor(TaylorSpec(n, m), 1.0, grid32)
        resid = SpectralField2D(grid32, laplacian(f).coeffs + (n * n + m * m) * f.coeffs)
        assert l2_norm(resid) < 1e-12 * l2_norm(f)

    def test_amplitude_scaling(self, grid32):
        a = make_taylor(TaylorSpec(2, 1), 3.5, grid32)
        b = make_taylor(TaylorSpec(2, 1), 1.0, grid32)
        assert np.allclose(a.coeffs, 3.5 * b.coeffs)

    def test_invariants_hold(self, grid32):
        make_taylor(TaylorSpec(3, 2), 2.0, grid32).validate()


class TestTildeT1:
    def test_point_values(self, grid32):
        f = make_tilde_t1(grid32)
        assert eval_field(f, [np.pi / 2, np.pi / 2]) == pytest.approx([1.0, 0.5], abs=1e-14)
        assert eval_field(f, [np.pi, np.pi]) == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_unit_eigenvalue(self, grid32):
        f = make_tilde_t1(grid32)
        assert np.allclose(-laplacian(f).coeffs, f.coeffs)  # -Lap f = f
        resid = SpectralField2D(grid32, laplacian(f).coeffs + f.coeffs)
        assert l2_norm(resid) == 0.0

    def test_divergence_free(self, grid32):
        f = make_tilde_t1(grid32)
        div = grid32.k1 * f.coeffs[0] + grid32.k2 * f.coeffs[1]
        assert np.max(np.abs(div)) < 1e-14


class TestEvaluation:
    def test_grid_node_consistency(self, grid64):
        f = random_divergence_free(grid64, 9, seed=11)
        vals = f.to_grid()
        i, j = 13, 40
        pt = [grid64.nodes[i], grid64.nodes[j]]
        scale = np.max(np.abs(vals))
        assert abs(eval_field(f, pt)[0] - vals[0, i, j]) < 1e-12 * scale
        assert abs(eval_field(f, pt)[1] - vals[1, i, j]) < 1e-12 * scale

    def test_batch_matches_single(self, grid32):
        f = make_taylor(TaylorSpec(2, 2), 1.0, grid32)
        pts = np.array([[0.3, 1.2], [4.0, 2.2], [5.9, 0.1]])
        batch = eval_field(f, pts)
        for k, p in enumerate(pts):
            assert np.allclose(batch[k], eval_field(f, p))

    def test_dense_and_sparse_paths_agree(self, grid32):
        f = random_divergence_free(grid32, 15, seed=7)
        ev = FieldEvaluator(f)
        assert ev._dense
        pts = np.random.default_rng(0).uniform(0, 2 * np.pi, (6, 2))
        vals, jacs = ev.values_and_jacobians(pts)
        k = grid32.wavenumbers
        for p, v in zip(pts, vals):
            phases = np.exp(1j * (k[:, None] * p[0] + k[None, :] * p[1]))
            ref = [np.real(np.sum(f.coeffs[i] * phases)) for i in range(2)]
            assert np.allclose(v, ref, atol=1e-11)

    def test_band_matches_full_spectrum_sums(self, grid64):
        # active modes fill |k| <= 12 of the 64 x 64 grid: the dense path sums
        # over 25 rows and columns, and the test checks it drops nothing that counts
        f = random_divergence_free(grid64, 12, seed=5)
        ev = FieldEvaluator(f)
        assert ev._dense
        assert len(ev._kr) < grid64.resolution and len(ev._kc) < grid64.resolution
        pts = np.random.default_rng(1).uniform(0, 2 * np.pi, (40, 2))
        k = grid64.wavenumbers.astype(np.float64)
        c = f.coeffs
        ref_vals = _full_spectrum_sums(c, k, pts)
        ref_jac = np.stack(
            [_full_spectrum_sums(1j * k[:, None] * c, k, pts),
             _full_spectrum_sums(1j * k[None, :] * c, k, pts)], axis=-1)
        ref_psi = _full_spectrum_sums(stream_function(f)[None], k, pts)[:, 0]
        vals, jacs = ev.values_and_jacobians(pts)
        tol = 1e-13 * c1_norm(f)
        assert np.abs(vals - ref_vals).max() < tol
        assert np.abs(jacs - ref_jac).max() < tol
        assert np.abs(ev.values(pts) - ref_vals).max() < tol
        assert np.abs(ev.potential(pts) - ref_psi).max() < tol


def _full_spectrum_sums(coeffs, k, pts):
    """Real parts of sum over the whole (M, M) grid of C[k1, k2] e^{i (k1 x + k2 y)},
    one column per matrix C in coeffs."""
    e1 = np.exp(1j * np.outer(pts[:, 0], k))
    e2 = np.exp(1j * np.outer(pts[:, 1], k))
    return np.real(np.einsum("pa,nab,pb->pn", e1, coeffs, e2))


class TestJacobian:
    def test_tilde_t1_at_origin(self, grid32):
        f = make_tilde_t1(grid32)
        j = jacobian(f, [0.0, 0.0])
        assert np.allclose(j, [[0.0, 1.0], [0.5, 0.0]], atol=1e-13)
        assert np.linalg.det(j) == pytest.approx(-0.5, abs=1e-13)

    def test_tilde_t1_at_zero_pi(self, grid32):
        j = jacobian(make_tilde_t1(grid32), [0.0, np.pi])
        assert np.allclose(j, [[0.0, -1.0], [0.5, 0.0]], atol=1e-13)
        assert np.linalg.det(j) == pytest.approx(0.5, abs=1e-13)

    def test_t11_determinant(self, grid32):
        j = jacobian(make_taylor(TaylorSpec(1, 1), 1.0, grid32), [0.0, np.pi / 2])
        assert np.linalg.det(j) == pytest.approx(-1.0, abs=1e-13)

    def test_trace_free(self, grid64):
        f = random_divergence_free(grid64, 10, seed=3)
        pts = np.random.default_rng(1).uniform(0, 2 * np.pi, (20, 2))
        jacs = jacobian(f, pts)
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
        complex_vals = np.fft.ifft2(f.coeffs, axes=(-2, -1)) * grid64.resolution**2
        assert np.max(np.abs(complex_vals.imag)) < 1e-12 * np.max(np.abs(complex_vals.real))


class TestC1Norm:
    def test_tilde_t1(self, grid32):
        assert c1_norm(make_tilde_t1(grid32)) == pytest.approx(2.0, rel=1e-12)

    def test_zero(self, grid32):
        assert c1_norm(zero_field(grid32)) == 0.0

    def test_homogeneity(self, grid32):
        f = make_taylor(TaylorSpec(2, 3), 1.0, grid32)
        assert c1_norm(-2.5 * f) == pytest.approx(2.5 * c1_norm(f), rel=1e-12)

    def test_oversample_validation(self, grid32):
        with pytest.raises(ConfigurationError):
            c1_norm(make_tilde_t1(grid32), oversample=1)

    def test_sum_of_the_sup_norm_pair(self, grid32):
        f = make_taylor(TaylorSpec(2, 3), 1.0, grid32) + 0.3 * make_tilde_t1(grid32)
        sup_f, sup_grad = sup_field_and_gradient(f)
        assert c1_norm(f) == sup_f + sup_grad
        assert c1_norm(f, oversample=8) == sum(sup_field_and_gradient(f, oversample=8))


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
        assert np.array_equal(eval_field(f, pts), FieldEvaluator(f).values(pts))
        assert f.evaluator is ev


class TestLerayProjection:
    def _gradient_field(self, grid, seed):
        rng = np.random.default_rng(seed)
        shape = grid.shape
        phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        phi = 0.5 * (phi + np.conj(np.roll(phi[::-1, ::-1], (1, 1), axis=(0, 1))))
        phi[0, 0] = 0.0
        return np.stack([1j * grid.k1 * phi, 1j * grid.k2 * phi])

    def test_annihilates_gradients(self, grid32):
        g = self._gradient_field(grid32, 5)
        assert l2_norm(leray_project(g, grid32)) < 1e-12 * np.abs(g).max()

    def test_sine_x_is_pure_gradient(self, grid32):
        c = np.zeros((2, 32, 32), dtype=complex)
        c[0, 1, 0] = -0.5j
        c[0, -1, 0] = 0.5j
        assert l2_norm(leray_project(c, grid32)) < 1e-14

    def test_divergence_free_unchanged(self, grid32):
        f = random_divergence_free(grid32, 10, seed=9)
        p = leray_project(f.coeffs, grid32)
        assert np.max(np.abs(p.coeffs - f.coeffs)) < 1e-14 * np.max(np.abs(f.coeffs))

    def test_idempotent(self, grid32):
        rng = np.random.default_rng(17)
        c = rng.standard_normal((2, 32, 32)) + 1j * rng.standard_normal((2, 32, 32))
        c = grid32.hermitianize(c)
        once = leray_project(c, grid32)
        twice = leray_project(once.coeffs, grid32)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-12 * np.max(np.abs(c))

    def test_self_adjoint(self, grid32):
        f = random_divergence_free(grid32, 8, seed=30)
        rng = np.random.default_rng(31)
        raw = rng.standard_normal((2, 32, 32)) + 1j * rng.standard_normal((2, 32, 32))
        raw = grid32.hermitianize(raw)
        raw[:, 0, 0] = 0.0
        g = SpectralField2D(grid32, raw)
        pg = leray_project(raw, grid32)
        lhs = l2_inner(leray_project(f.coeffs, grid32), g)
        rhs = l2_inner(f, pg)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_output_satisfies_invariants(self, grid32):
        rng = np.random.default_rng(40)
        c = rng.standard_normal((2, 32, 32)) + 1j * rng.standard_normal((2, 32, 32))
        leray_project(grid32.hermitianize(c), grid32).validate()


def _grad_perp(grid, psi):
    """The field (d_y psi, -d_x psi) of stream-function coefficients psi."""
    return SpectralField2D(grid, np.stack([1j * grid.k2 * psi, -1j * grid.k1 * psi]))


class TestStreamFunction:
    def test_t11_stream(self, grid32):
        # psi = -sin(x) cos(y): d_y psi = sin x sin y, -d_x psi = cos x cos y
        f = make_taylor(TaylorSpec(1, 1), 1.0, grid32)
        pts = np.array([[0.4, 1.3], [3.0, 5.1], [2.2, 0.9]])
        expected = -np.sin(pts[:, 0]) * np.cos(pts[:, 1])
        assert np.allclose(f.evaluator.potential(pts), expected, atol=1e-13)
        grid_vals = grid32.to_grid(stream_function(f))
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
        expected = grid32.to_grid(stream_function(f)).ravel()
        assert np.allclose(f.evaluator.potential(pts), expected, atol=1e-12 * np.abs(expected).max())

    def test_reconstruction(self, grid64):
        f = random_divergence_free(grid64, 14, seed=2)
        rec = _grad_perp(grid64, stream_function(f))
        assert l2_norm(rec - f) < 1e-12 * l2_norm(f)

    def test_roundtrip_from_scalar(self, grid32):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape)
        raw = 0.5 * (raw + np.conj(np.roll(raw[::-1, ::-1], (1, 1), axis=(0, 1))))
        raw[0, 0] = 0.0
        back = stream_function(_grad_perp(grid32, raw))
        assert np.max(np.abs(back - raw)) < 1e-12 * np.max(np.abs(raw))


class TestFieldAlgebra:
    def test_add_sub_scale(self, grid32):
        a = make_taylor(TaylorSpec(1, 2), 1.0, grid32)
        b = make_tilde_t1(grid32)
        combo = 2.0 * a + b - a
        assert np.allclose(combo.coeffs, a.coeffs + b.coeffs)

    def test_grid_mismatch_rejected(self, grid32, grid64):
        with pytest.raises(ConfigurationError):
            make_tilde_t1(grid32) + make_tilde_t1(grid64)

    def test_validate_catches_divergence(self, grid32):
        c = np.zeros((2, 32, 32), dtype=complex)
        c[0, 1, 0] = -0.5j
        c[0, -1, 0] = 0.5j
        with pytest.raises(ConfigurationError):
            SpectralField2D(grid32, c).validate()

    def test_coeffs_read_only(self, grid32):
        f = make_tilde_t1(grid32)
        with pytest.raises(ValueError):
            f.coeffs[0, 0, 0] = 1.0
