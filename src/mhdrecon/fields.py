"""Divergence-free vector fields on the 2-torus in spectral representation.

Fields live on the periodic square [0, 2pi)^2 and are stored as full-complex
Fourier coefficient arrays c[k1, k2] in the convention

    f(x, y) = sum_k c(k) exp(i (k1 x + k2 y)),

so that the unnormalized L2 norm satisfies  ||f||^2 = (2 pi)^2 sum |c(k)|^2.
Wavenumbers are the integer lattice k_i in {-M/2+1, ..., M/2} for an M x M
grid (the Nyquist index carries the label +M/2).

The building blocks are the Taylor eigenfields

    T_nm      = (m sin(n x) sin(m y), n cos(n x) cos(m y)),   -Lap T_nm = (n^2+m^2) T_nm,
    tilde T_1 = (sin y, sin(x) / 2),                          -Lap = 1,

both divergence-free, zero-average, and stationary for 2D Euler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as sfft


class ConfigurationError(ValueError):
    """A requested construction is not representable on the given grid."""


# Relative accuracy of truncated point evaluations; kept well below every
# tolerance used by callers (Newton residuals are checked at 1e-10 * C1).
_EVAL_TAIL_RTOL = 1e-13

# Oversampling factor of the sup-norm grid (SpectralField2D.sup_norms).
_SUP_OVERSAMPLE = 4


@dataclass(frozen=True)
class TorusGrid:
    """Uniform M x M collocation grid on [0, 2pi)^2 with integer wavenumbers."""

    resolution: int

    def __post_init__(self):
        m = self.resolution
        if m < 8 or m % 2 != 0:
            raise ConfigurationError(f"resolution must be even and >= 8, got {m}")

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """1D integer wavenumbers in FFT index order, Nyquist labeled +M/2."""
        m = self.resolution
        k = np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)
        k[m // 2] = m // 2
        k.setflags(write=False)
        return k

    @cached_property
    def k1(self) -> np.ndarray:
        k = np.broadcast_to(self.wavenumbers[:, None], self.shape).copy()
        k.setflags(write=False)
        return k

    @cached_property
    def k2(self) -> np.ndarray:
        k = np.broadcast_to(self.wavenumbers[None, :], self.shape).copy()
        k.setflags(write=False)
        return k

    @cached_property
    def ksq(self) -> np.ndarray:
        k = self.k1.astype(np.float64) ** 2 + self.k2.astype(np.float64) ** 2
        k.setflags(write=False)
        return k

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to 0 (solves Poisson on mean-free data)."""
        with np.errstate(divide="ignore"):
            inv = np.where(self.ksq > 0, 1.0 / np.where(self.ksq > 0, self.ksq, 1.0), 0.0)
        inv.setflags(write=False)
        return inv

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: True where max(|k1|, |k2|) <= M/3."""
        cut = self.resolution / 3.0
        mask = (np.abs(self.k1) <= cut) & (np.abs(self.k2) <= cut)
        mask.setflags(write=False)
        return mask

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True on the Nyquist lines |k_i| = M/2, where the sign of the
        wavenumber label is ambiguous and real odd derivatives do not exist."""
        ny = self.resolution // 2
        mask = (self.k1 == ny) | (self.k2 == ny)
        mask.setflags(write=False)
        return mask

    @cached_property
    def conj_index(self) -> np.ndarray:
        """Index array mapping wavenumber k to -k (modulo M)."""
        idx = (-np.arange(self.resolution)) % self.resolution
        idx.setflags(write=False)
        return idx

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.arange(self.resolution) * (2.0 * np.pi / self.resolution)
        x.setflags(write=False)
        return x

    @property
    def shape(self) -> tuple[int, int]:
        return (self.resolution, self.resolution)

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.resolution

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform to real collocation values (last two axes)."""
        m2 = self.resolution**2
        return np.real(sfft.ifft2(coeffs, axes=(-2, -1))) * m2

    def from_grid(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of real collocation values to coefficients."""
        return sfft.fft2(values.astype(np.complex128), axes=(-2, -1)) / self.resolution**2

    def hermitianize(self, coeffs: np.ndarray) -> np.ndarray:
        """Project onto Hermitian-symmetric arrays, c(-k) = conj(c(k))."""
        flipped = np.roll(coeffs[..., ::-1, ::-1], shift=(1, 1), axis=(-2, -1))
        return 0.5 * (coeffs + np.conj(flipped))


@dataclass(frozen=True)
class TaylorSpec:
    """Mode indices (n, m) of a Taylor eigenfield; eigenvalue of -Lap is n^2 + m^2."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError(f"Taylor indices must be >= 1, got {(self.n, self.m)}")

    @property
    def eigenvalue(self) -> int:
        return self.n**2 + self.m**2


@dataclass(frozen=True)
class SpectralField2D:
    """Real, divergence-free, zero-average vector field stored spectrally.

    ``coeffs`` has shape (2, M, M): one full-complex coefficient array per
    vector component, indexed by wavenumber in FFT order.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2, *self.grid.shape):
            raise ConfigurationError(f"coefficient array has shape {c.shape}, expected (2, M, M)")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def validate(self, rtol: float = 1e-12) -> None:
        """Check Hermitian symmetry, zero divergence and zero mean.

        Raises ConfigurationError on violation; tolerances are relative to the
        coefficient magnitude scale.
        """
        g, c = self.grid, self.coeffs
        scale = float(np.max(np.abs(c))) or 1.0
        herm = c - g.hermitianize(c)
        if np.max(np.abs(herm)) > rtol * scale:
            raise ConfigurationError("field is not Hermitian-symmetric (not real)")
        div = g.k1 * c[0] + g.k2 * c[1]
        kscale = float(np.max(np.abs(g.k1 * c[0])) + np.max(np.abs(g.k2 * c[1]))) or 1.0
        if np.max(np.abs(div)) > rtol * kscale:
            raise ConfigurationError("field is not divergence-free")
        if abs(c[0, 0, 0]) > rtol * scale or abs(c[1, 0, 0]) > rtol * scale:
            raise ConfigurationError("field does not have zero average")

    def to_grid(self) -> np.ndarray:
        """Collocation values, shape (2, M, M)."""
        return self.grid.to_grid(self.coeffs)

    @cached_property
    def evaluator(self) -> "FieldEvaluator":
        """The point evaluator of this field, built on first use."""
        return FieldEvaluator(self)

    @cached_property
    def sup_norms(self) -> tuple[float, float]:
        """(sup |f|, sup |grad f|), computed on first use."""
        return sup_field_and_gradient(self)

    def __add__(self, other: "SpectralField2D") -> "SpectralField2D":
        if other.grid.resolution != self.grid.resolution:
            raise ConfigurationError("cannot combine fields on different grids")
        return SpectralField2D(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField2D") -> "SpectralField2D":
        if other.grid.resolution != self.grid.resolution:
            raise ConfigurationError("cannot combine fields on different grids")
        return SpectralField2D(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField2D":
        return SpectralField2D(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField2D":
        return SpectralField2D(self.grid, -self.coeffs)


def zero_field(grid: TorusGrid) -> SpectralField2D:
    return SpectralField2D(grid, np.zeros((2, *grid.shape), dtype=np.complex128))


def make_taylor(spec: TaylorSpec, amplitude: float, grid: TorusGrid) -> SpectralField2D:
    """Exact spectral representation of amplitude * T_nm.

    T_nm = (m sin(nx) sin(my), n cos(nx) cos(my)); each component occupies the
    four wavenumbers (+-n, +-m).
    """
    n, m = spec.n, spec.m
    if n >= grid.resolution // 2 or m >= grid.resolution // 2:
        raise ConfigurationError(
            f"Taylor mode {(n, m)} is not resolvable on an M={grid.resolution} grid"
        )
    c = np.zeros((2, *grid.shape), dtype=np.complex128)
    a = amplitude
    # sin(nx) sin(my) = -1/4 [e^{i(nx+my)} - e^{i(nx-my)} - e^{i(-nx+my)} + e^{-i(nx+my)}]
    c[0, n, m] = -a * m / 4.0
    c[0, n, -m] = a * m / 4.0
    c[0, -n, m] = a * m / 4.0
    c[0, -n, -m] = -a * m / 4.0
    # cos(nx) cos(my) = 1/4 [e^{i(nx+my)} + e^{i(nx-my)} + e^{i(-nx+my)} + e^{-i(nx+my)}]
    c[1, n, m] = a * n / 4.0
    c[1, n, -m] = a * n / 4.0
    c[1, -n, m] = a * n / 4.0
    c[1, -n, -m] = a * n / 4.0
    return SpectralField2D(grid, c)


def make_tilde_t1(grid: TorusGrid, amplitude: float = 1.0) -> SpectralField2D:
    """Exact spectral representation of amplitude * (sin y, sin(x)/2), eigenvalue 1."""
    c = np.zeros((2, *grid.shape), dtype=np.complex128)
    a = amplitude
    c[0, 0, 1] = -0.5j * a
    c[0, 0, -1] = 0.5j * a
    c[1, 1, 0] = -0.25j * a
    c[1, -1, 0] = 0.25j * a
    return SpectralField2D(grid, c)


def _active_modes(coeffs: np.ndarray, grid: TorusGrid):
    """Flat lists (k1, k2, c...) keeping modes whose weighted tail is negligible.

    The dropped modes have sum (1+|k|) |c| below _EVAL_TAIL_RTOL times the total,
    so truncated point values and first derivatives are accurate to that
    relative level. Deterministic for a given coefficient array.
    """
    comps = coeffs.reshape(coeffs.shape[0], -1) if coeffs.ndim == 3 else coeffs.reshape(1, -1)
    k1 = grid.k1.ravel().astype(np.float64)
    k2 = grid.k2.ravel().astype(np.float64)
    mag = np.abs(comps).sum(axis=0)
    weight = (1.0 + np.maximum(np.abs(k1), np.abs(k2))) * mag
    total = weight.sum()
    if total == 0.0:
        keep = np.zeros(0, dtype=np.intp)
    else:
        order = np.argsort(weight, kind="stable")
        tail = np.cumsum(weight[order])
        cut = np.searchsorted(tail, _EVAL_TAIL_RTOL * total, side="right")
        keep = np.sort(order[cut:])
    return k1[keep], k2[keep], [comp[keep] for comp in comps]


class FieldEvaluator:
    """Evaluates a spectral field (and its Jacobian) at arbitrary points.

    Values are exact trigonometric sums, spectrally accurate at off-grid
    points. Sparse fields (few active wavenumbers) sum over the active modes
    directly; dense fields use the separable form sum_k1 e^{i k1 x} sum_k2
    C[k1, k2] e^{i k2 y}, which costs one (P, R) x (R, C) product per
    coefficient matrix instead of a (P, M^2) phase table. R and C are the
    rows k1 and columns k2 that hold an active mode (the band of the field):
    every mode outside them lies in the tail that _active_modes drops.
    """

    def __init__(self, field: SpectralField2D):
        self.grid = field.grid
        self._k1, self._k2, (self._c1, self._c2) = _active_modes(field.coeffs, field.grid)
        m = field.grid.resolution
        self._dense = len(self._k1) > 4 * m
        if self._dense:
            rows = np.unique(self._k1.astype(np.intp) % m)
            cols = np.unique(self._k2.astype(np.intp) % m)
            k = field.grid.wavenumbers.astype(np.float64)
            self._kr, self._kc = k[rows], k[cols]
            band = np.ix_(rows, cols)
            mats = []
            for c in field.coeffs:
                c = c[band]
                mats += [c, 1j * self._kr[:, None] * c, 1j * self._kc[None, :] * c]
            # (R, 6C): value, d/dx and d/dy matrices of both components side by side
            self._jac_mats = np.concatenate(mats, axis=1)
            self._val_mats = np.concatenate([mats[0], mats[3]], axis=1)
            self._psi = stream_function(field)[band]

    def _phases(self, pts: np.ndarray) -> np.ndarray:
        return np.exp(1j * (pts[:, 0, None] * self._k1 + pts[:, 1, None] * self._k2))

    def _separable_sums(self, pts: np.ndarray, mats: np.ndarray) -> np.ndarray:
        """Real parts of sum_k1 e^{i k1 x} sum_k2 C[k1, k2] e^{i k2 y}, shape
        (P, n), for the n matrices C of shape (R, C) set side by side in mats."""
        e1 = np.exp(1j * pts[:, 0, None] * self._kr)
        e2 = np.exp(1j * pts[:, 1, None] * self._kc)
        rows = (e1 @ mats).reshape(len(pts), -1, len(self._kc))
        return np.real((rows @ e2[:, :, None])[:, :, 0])

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Field values at points, shape (P, 2)."""
        if self._dense:
            return self._separable_sums(pts, self._val_mats)
        e = self._phases(pts)
        return np.stack([np.real(e @ self._c1), np.real(e @ self._c2)], axis=-1)

    def potential(self, pts: np.ndarray) -> np.ndarray:
        """Stream function psi at points, shape (P,), with f = (d_y psi, -d_x psi).

        Sums the coefficients of stream_function over the active modes, or in
        the separable form over the band for dense fields.
        """
        if self._dense:
            return self._separable_sums(pts, self._psi)[:, 0]
        ksq = self._k1**2 + self._k2**2
        psi = 1j * (self._k1 * self._c2 - self._k2 * self._c1) / np.where(ksq > 0, ksq, 1.0)
        return np.real(self._phases(pts) @ psi)

    def values_and_jacobians(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values (P, 2), Jacobians (P, 2, 2)) with J[i, j] = d f_i / d x_j."""
        if self._dense:
            sums = self._separable_sums(pts, self._jac_mats).reshape(len(pts), 2, 3)
            return sums[:, :, 0].copy(), sums[:, :, 1:].copy()
        f = np.empty((len(pts), 2))
        jac = np.empty((len(pts), 2, 2))
        e = self._phases(pts)
        for i, c in enumerate((self._c1, self._c2)):
            f[:, i] = np.real(e @ c)
            jac[:, i, 0] = np.real(e @ (1j * self._k1 * c))
            jac[:, i, 1] = np.real(e @ (1j * self._k2 * c))
        return f, jac


def eval_field(f: SpectralField2D, x) -> np.ndarray:
    """Evaluate f at one point (2,) or many points (P, 2) by exact trig summation."""
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = f.evaluator.values(pts)
    return out[0] if np.ndim(x) == 1 else out


def jacobian(f: SpectralField2D, x) -> np.ndarray:
    """Spectral Jacobian grad f at one point (2, 2) or many points (P, 2, 2)."""
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _, jac = f.evaluator.values_and_jacobians(pts)
    return jac[0] if np.ndim(x) == 1 else jac


def laplacian(f: SpectralField2D) -> SpectralField2D:
    return SpectralField2D(f.grid, -f.grid.ksq * f.coeffs)


def sobolev_norm(f: SpectralField2D, r: int) -> float:
    """Inhomogeneous Sobolev norm (sum_k (1+|k|^2)^r |fhat(k)|^2)^(1/2).

    Coefficients are scaled so that r = 0 is the L2 norm under the
    unnormalized inner product on [0, 2pi)^2.
    """
    if not 0 <= r <= 8:
        raise ConfigurationError(f"Sobolev index must be in 0..8, got {r}")
    w = (1.0 + f.grid.ksq) ** r
    total = np.sum(w * (np.abs(f.coeffs[0]) ** 2 + np.abs(f.coeffs[1]) ** 2))
    return float(2.0 * np.pi * np.sqrt(total))


def l2_norm(f: SpectralField2D) -> float:
    return sobolev_norm(f, 0)


def l2_inner(f: SpectralField2D, g: SpectralField2D) -> float:
    """Unnormalized L2 pairing int f . g dx."""
    total = np.sum(np.real(f.coeffs * np.conj(g.coeffs)))
    return float((2.0 * np.pi) ** 2 * total)


def _upsampled_grid(coeffs: np.ndarray, grid: TorusGrid, oversample: int) -> np.ndarray:
    """Zero-padded inverse transform onto an (oversample*M)^2 grid."""
    m = grid.resolution
    big = oversample * m
    k = grid.wavenumbers
    pad = np.zeros((*coeffs.shape[:-2], big, big), dtype=np.complex128)
    idx = k % big
    pad[..., idx[:, None], idx[None, :]] = coeffs
    return np.real(sfft.ifft2(pad, axes=(-2, -1))) * big**2


def sup_field_and_gradient(
    f: SpectralField2D, oversample: int = _SUP_OVERSAMPLE
) -> tuple[float, float]:
    """(sup |f|, sup ||grad f||) in max norms, on an oversampled grid.

    The suprema are approximated by sampling at oversample*M points per axis
    via zero-padded spectral upsampling.
    """
    if oversample < 2:
        raise ConfigurationError("oversample must be >= 2")
    g = f.grid
    stacked = np.concatenate([f.coeffs, 1j * g.k1 * f.coeffs, 1j * g.k2 * f.coeffs])
    vals = _upsampled_grid(stacked, g, oversample)
    return float(np.max(np.abs(vals[:2]))), float(np.max(np.abs(vals[2:])))


def c1_norm(f: SpectralField2D, oversample: int = _SUP_OVERSAMPLE) -> float:
    """sup |f| + sup ||grad f||, the sum of the two sup_field_and_gradient values."""
    if oversample == _SUP_OVERSAMPLE:
        sup_f, sup_grad = f.sup_norms
    else:
        sup_f, sup_grad = sup_field_and_gradient(f, oversample)
    return sup_f + sup_grad


def project_coeffs(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Leray projection per mode: c(k) -> c(k) - k (k . c(k)) / |k|^2.

    The k = 0 mode and the Nyquist lines are set to zero; on the Nyquist
    lines the wavenumber sign is ambiguous, so no consistent real projection
    exists there (every field produced by this package is band-limited well
    below them).
    """
    kdotc = grid.k1 * coeffs[0] + grid.k2 * coeffs[1]
    factor = kdotc * grid.inv_ksq
    out = np.empty_like(coeffs)
    out[0] = coeffs[0] - grid.k1 * factor
    out[1] = coeffs[1] - grid.k2 * factor
    out[:, 0, 0] = 0.0
    out[:, grid.nyquist_mask] = 0.0
    return out


def leray_project(coeffs: np.ndarray, grid: TorusGrid) -> SpectralField2D:
    """Project a raw Hermitian-symmetric spectral vector field onto
    divergence-free, zero-average fields."""
    return SpectralField2D(grid, project_coeffs(np.asarray(coeffs, dtype=np.complex128), grid))


def stream_function(f: SpectralField2D) -> np.ndarray:
    """Coefficients (M, M) of the stream function psi with f = (d_y psi, -d_x psi).

    Inverting f1 = i k2 psi, f2 = -i k1 psi gives
    psi(k) = i (k1 f2(k) - k2 f1(k)) / |k|^2 for k != 0, psi(0) = 0.
    """
    g = f.grid
    return 1j * (g.k1 * f.coeffs[1] - g.k2 * f.coeffs[0]) * g.inv_ksq
