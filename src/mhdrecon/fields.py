"""Divergence-free vector fields on the 2-torus, stored as stream functions.

Fields live on the periodic square [0, 2pi)^2. A zero-average,
divergence-free field is the skew gradient of its stream function,

    f = grad_perp psi = (d_y psi, -d_x psi),

and SpectralField2D stores psi: its Fourier coefficients in the convention
psi(x, y) = sum_k psi(k) exp(i (k1 x + k2 y)), on the (M, M/2 + 1)
half-spectrum of the real FFT. Wavenumbers k1 run over {-M/2+1, ..., M/2}
in FFT order (the Nyquist index carries the label +M/2) and k2 over
{0, ..., M/2}; the modes with k2 < 0 are the conjugates psi(-k) =
conj(psi(k)) of a real function and are not stored. So every field is real
and divergence-free by construction, and its unnormalized L2 norm is

    ||f||^2 = (2 pi)^2 sum_k |k|^2 |psi(k)|^2   (over the full spectrum),

where a stored entry with k2 > 0 stands for two modes, k and -k
(TorusGrid.multiplicity). The mean of psi and its Nyquist lines |k_i| = M/2
are kept at zero: on those lines the sign of the wavenumber is ambiguous, so
no real odd derivative exists there.

The building blocks are the Taylor eigenfields

    T_nm      = (m sin(n x) sin(m y), n cos(n x) cos(m y)),   psi = -sin(n x) cos(m y),
    tilde T_1 = (sin y, sin(x) / 2),                          psi = cos(x) / 2 - cos(y),

with -Lap T_nm = (n^2+m^2) T_nm and -Lap tilde T_1 = tilde T_1, both
zero-average and stationary for 2D Euler.

The vector view of a field, the full-complex (2, M, M) coefficients of its
components that snapshot format v1 stores, is computed on demand by
SpectralField2D.components and read back by SpectralField2D.from_components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ConfigurationError(ValueError):
    """A requested construction is not representable on the given grid."""


# Relative accuracy of truncated point evaluations. The modes _active_modes
# drops weigh below this times the total weight, which is at most 3 C1
# (c1_norm; compare term by term), so values and first derivatives are off
# by less than 3e-13 C1, under the Newton residual target of 1e-12 C1.
_EVAL_TAIL_RTOL = 1e-13


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TorusGrid:
    """Uniform M x M collocation grid on [0, 2pi)^2 and its real-FFT half-spectrum.

    The wavenumber arrays k1, k2, ksq, ... have the half-spectrum shape
    (M, M/2 + 1), and to_grid/from_grid are the real transform pair between
    half-spectrum coefficients and collocation values.
    """

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
        return _frozen(k)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.resolution, self.resolution)

    @property
    def spectral_shape(self) -> tuple[int, int]:
        return (self.resolution, self.resolution // 2 + 1)

    @cached_property
    def k1(self) -> np.ndarray:
        k = self.wavenumbers.astype(np.float64)[:, None]
        return _frozen(np.broadcast_to(k, self.spectral_shape).copy())

    @cached_property
    def k2(self) -> np.ndarray:
        k = np.arange(self.resolution // 2 + 1, dtype=np.float64)[None, :]
        return _frozen(np.broadcast_to(k, self.spectral_shape).copy())

    @cached_property
    def ksq(self) -> np.ndarray:
        return _frozen(self.k1**2 + self.k2**2)

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to 0 (solves Poisson on mean-free data)."""
        ksq = self.ksq
        return _frozen(np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0))

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Full-spectrum modes per half-spectrum entry: 2 (k and -k) for
        0 < k2 < M/2, 1 on the self-conjugate columns k2 = 0 and k2 = M/2."""
        w = np.full(self.spectral_shape, 2.0)
        w[:, 0] = w[:, -1] = 1.0
        return _frozen(w)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True on the Nyquist lines |k_i| = M/2."""
        ny = self.resolution // 2
        return _frozen((self.k1 == ny) | (self.k2 == ny))

    @cached_property
    def nodes(self) -> np.ndarray:
        return _frozen(np.arange(self.resolution) * (2.0 * np.pi / self.resolution))

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.resolution

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Real collocation values of half-spectrum coefficients (last two axes)."""
        return np.fft.irfft2(coeffs, s=self.shape, axes=(-2, -1), norm="forward")

    def from_grid(self, values: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients of real collocation values (last two axes)."""
        return np.fft.rfft2(values, axes=(-2, -1), norm="forward")


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


def _series(k1, k2, psi, jacobian: bool = True) -> np.ndarray:
    """Coefficients of f1 = d_y psi and f2 = -d_x psi, then, with jacobian,
    of d_x f1, d_y f1 and d_x f2 (d_y f2 = -d_x f1, since div f = 0)."""
    series = [1j * k2 * psi, -1j * k1 * psi]
    if jacobian:
        series += [-k1 * k2 * psi, -k2 * k2 * psi, k1 * k1 * psi]
    return np.stack(series)


@dataclass(frozen=True)
class SpectralField2D:
    """Real, divergence-free, zero-average vector field f = grad_perp psi.

    ``psi`` holds the coefficients of the stream function on the (M, M/2 + 1)
    half-spectrum. The constructor copies it and zeroes its mean and its
    Nyquist lines.
    """

    grid: TorusGrid
    psi: np.ndarray

    def __post_init__(self):
        psi = np.array(self.psi, dtype=np.complex128)
        if psi.shape != self.grid.spectral_shape:
            raise ConfigurationError(
                f"stream function has shape {psi.shape}, expected (M, M/2 + 1) = "
                f"{self.grid.spectral_shape}"
            )
        psi[0, 0] = 0.0
        psi[self.grid.nyquist_mask] = 0.0
        object.__setattr__(self, "psi", _frozen(psi))

    @classmethod
    def from_components(
        cls, grid: TorusGrid, coeffs: np.ndarray, name: str = "field"
    ) -> "SpectralField2D":
        """The field of a vector view: full-complex coefficients (2, M, M).

        Raises ConfigurationError naming ``name`` unless the coefficients are
        finite, Hermitian-symmetric (a real field), divergence-free and
        zero-average, the last three to 1e-12 relative to their scale.
        Nyquist-line content is dropped.
        """
        rtol = 1e-12
        c = np.asarray(coeffs, dtype=np.complex128)
        m = grid.resolution
        if c.shape != (2, m, m):
            raise ConfigurationError(f"{name}: components of shape {c.shape}, expected (2, {m}, {m})")
        # every comparison with NaN is false, so the tests below would pass it
        if not np.all(np.isfinite(c)):
            raise ConfigurationError(f"{name} has non-finite coefficients")
        scale = float(np.max(np.abs(c))) or 1.0
        mirror = np.conj(np.roll(c[:, ::-1, ::-1], 1, axis=(1, 2)))  # conj c(-k)
        if 0.5 * np.max(np.abs(c - mirror)) > rtol * scale:
            raise ConfigurationError(f"{name} is not Hermitian-symmetric (not real)")
        half = c[..., : m // 2 + 1]
        k1, k2 = grid.k1, grid.k2
        div = k1 * half[0] + k2 * half[1]
        kscale = float(np.max(np.abs(k1 * half[0])) + np.max(np.abs(k2 * half[1]))) or 1.0
        if np.max(np.abs(div)) > rtol * kscale:
            raise ConfigurationError(f"{name} is not divergence-free")
        if max(abs(c[0, 0, 0]), abs(c[1, 0, 0])) > rtol * scale:
            raise ConfigurationError(f"{name} does not have zero average")
        # f1 = i k2 psi, f2 = -i k1 psi
        return cls(grid, 1j * (k1 * half[1] - k2 * half[0]) * grid.inv_ksq)

    def components(self) -> np.ndarray:
        """The vector view: full-complex coefficients (2, M, M) of (f1, f2)."""
        g, m = self.grid, self.grid.resolution
        half = _series(g.k1, g.k2, self.psi, jacobian=False)
        full = np.empty((2, m, m), dtype=np.complex128)
        full[..., : m // 2 + 1] = half
        # c(k1, -k2) = conj c(-k1, k2) for the columns k2 = M/2 - 1, ..., 1
        full[..., m // 2 + 1 :] = np.conj(np.roll(half[:, ::-1, m // 2 - 1 : 0 : -1], 1, axis=1))
        return full

    def to_grid(self) -> np.ndarray:
        """Collocation values, shape (2, M, M), transformed one component at a time."""
        g = self.grid
        return np.stack([g.to_grid(1j * g.k2 * self.psi), g.to_grid(-1j * g.k1 * self.psi)])

    @cached_property
    def evaluator(self) -> "FieldEvaluator":
        """The point evaluator of this field, built on first use."""
        return FieldEvaluator(self)

    @cached_property
    def l1_sums(self) -> np.ndarray:
        """The Fourier-l1 sums of fields.l1_sums, computed on first use."""
        return _frozen(l1_sums(self))

    @cached_property
    def sup_norms(self) -> tuple[float, float]:
        """The upper bounds (sup |f|, sup ||grad f||) of sup_field_and_gradient,
        computed on first use."""
        return sup_field_and_gradient(self)

    def __add__(self, other: "SpectralField2D") -> "SpectralField2D":
        if other.grid.resolution != self.grid.resolution:
            raise ConfigurationError("cannot combine fields on different grids")
        return SpectralField2D(self.grid, self.psi + other.psi)

    def __sub__(self, other: "SpectralField2D") -> "SpectralField2D":
        if other.grid.resolution != self.grid.resolution:
            raise ConfigurationError("cannot combine fields on different grids")
        return SpectralField2D(self.grid, self.psi - other.psi)

    def __mul__(self, scalar: float) -> "SpectralField2D":
        return SpectralField2D(self.grid, self.psi * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField2D":
        return SpectralField2D(self.grid, -self.psi)


def zero_field(grid: TorusGrid) -> SpectralField2D:
    return SpectralField2D(grid, np.zeros(grid.spectral_shape, dtype=np.complex128))


def make_taylor(spec: TaylorSpec, amplitude: float, grid: TorusGrid) -> SpectralField2D:
    """Exact spectral representation of amplitude * T_nm, psi = -amplitude sin(nx) cos(my)."""
    n, m = spec.n, spec.m
    if n >= grid.resolution // 2 or m >= grid.resolution // 2:
        raise ConfigurationError(
            f"Taylor mode {(n, m)} is not resolvable on an M={grid.resolution} grid"
        )
    psi = np.zeros(grid.spectral_shape, dtype=np.complex128)
    # -sin(nx) cos(my) = i/4 [e^{i(nx+my)} - e^{i(-nx+my)}] + conjugates
    psi[n, m] = 0.25j * amplitude
    psi[-n, m] = -0.25j * amplitude
    return SpectralField2D(grid, psi)


def make_tilde_t1(grid: TorusGrid, amplitude: float = 1.0) -> SpectralField2D:
    """Exact spectral representation of amplitude * (sin y, sin(x)/2), eigenvalue 1,
    psi = amplitude (cos(x)/2 - cos(y))."""
    psi = np.zeros(grid.spectral_shape, dtype=np.complex128)
    psi[1, 0] = psi[-1, 0] = 0.25 * amplitude
    psi[0, 1] = -0.5 * amplitude
    return SpectralField2D(grid, psi)


def _active_modes(f: SpectralField2D) -> np.ndarray:
    """Flat half-spectrum indices of the modes kept by point evaluation.

    A mode weighs (1 + |k|_inf) (|f1(k)| + |f2(k)|) = (1 + |k|_inf) (|k1| +
    |k2|) |psi(k)|, once for every full-spectrum mode it stands for. The
    dropped modes weigh in total below _EVAL_TAIL_RTOL times all of them, so
    truncated point values and first derivatives are accurate to that
    relative level. Deterministic for a given psi.
    """
    g = f.grid
    k1, k2 = np.abs(g.k1.ravel()), g.k2.ravel()
    weight = (1.0 + np.maximum(k1, k2)) * (k1 + k2) * np.abs(f.psi.ravel())
    counted = weight * g.multiplicity.ravel()
    total = counted.sum()
    if total == 0.0:
        return np.zeros(0, dtype=np.intp)
    order = np.argsort(weight, kind="stable")
    tail = np.cumsum(counted[order])
    cut = np.searchsorted(tail, _EVAL_TAIL_RTOL * total, side="right")
    return np.sort(order[cut:])


class FieldEvaluator:
    """Evaluates a field, its Jacobian and its stream function at arbitrary points.

    Values are exact trigonometric sums over the modes _active_modes keeps,
    spectrally accurate at off-grid points: Re sum_k w(k) c(k) e^{i k.x} over
    the half-spectrum, with w the multiplicity of each entry. Field and
    Jacobian are the 5 series of _series. Sparse fields (at most 4M active
    full-spectrum modes) sum over the active modes directly; dense fields use
    the separable form sum_k1 e^{i k1 x} sum_k2 C[k1, k2] e^{i k2 y}, which
    costs one (P, R) x (R, C) product per series instead of a (P, modes)
    phase table. R and C are the rows k1 and the columns k2 >= 0 that hold
    an active mode (the band of the field): every mode outside them lies in
    the tail that _active_modes drops.
    """

    def __init__(self, field: SpectralField2D):
        g = field.grid
        keep = _active_modes(field)
        weight = g.multiplicity.ravel()[keep]
        self._dense = weight.sum() > 4 * g.resolution
        if self._dense:
            ncols = g.spectral_shape[1]
            rows, cols = np.unique(keep // ncols), np.unique(keep % ncols)
            self._kr, self._kc = g.k1[rows, 0], g.k2[0, cols]
            # (R, C) weighted psi of the band, and the (R, 5C) series side by side
            self._psi = field.psi[np.ix_(rows, cols)] * g.multiplicity[0, cols]
            self._mats = np.concatenate(_series(self._kr[:, None], self._kc[None, :], self._psi),
                                        axis=1)
            self._val_mats = self._mats[:, : 2 * len(cols)].copy()
        else:
            # the same series as (K, n) tables over the K active modes
            self._k1, self._k2 = g.k1.ravel()[keep], g.k2.ravel()[keep]
            psi = field.psi.ravel()[keep] * weight
            self._psi = psi[:, None]
            self._mats = _series(self._k1, self._k2, psi).T
            self._val_mats = self._mats[:, :2].copy()

    def _phases(self, pts: np.ndarray):
        """The phase table of the points: e^{i k.x} over the active modes,
        shape (P, K), or on the dense path the pair e1 = e^{i k1 x}, (P, R),
        and e2 = e^{i k2 y}, (P, C)."""
        if self._dense:
            return (np.exp(1j * pts[:, 0, None] * self._kr),
                    np.exp(1j * pts[:, 1, None] * self._kc))
        return np.exp(1j * (pts[:, 0, None] * self._k1 + pts[:, 1, None] * self._k2))

    def _sums(self, phases, mats: np.ndarray) -> np.ndarray:
        """Real parts of the series of mats at the points of a phase table,
        shape (P, n). On the dense path they are sum_k1 e^{i k1 x} sum_k2
        C[k1, k2] e^{i k2 y} for the n matrices C of shape (R, C) set side by
        side in mats."""
        if not self._dense:
            return np.real(phases @ mats)
        e1, e2 = phases
        rows = (e1 @ mats).reshape(len(e1), mats.shape[1] // len(self._kc), len(self._kc))
        return np.real((rows @ e2[:, :, None])[:, :, 0])

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Field values at points, shape (P, 2)."""
        return self._sums(self._phases(pts), self._val_mats)

    def potential(self, pts: np.ndarray) -> np.ndarray:
        """Stream function psi at points, shape (P,), with f = (d_y psi, -d_x psi)."""
        return self._sums(self._phases(pts), self._psi)[:, 0]

    def values_and_potential(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values (P, 2), psi (P,)) from one phase table; each equals what
        values and potential return bit for bit. The two products stay
        apart: one product over the concatenated matrices rounds differently."""
        phases = self._phases(pts)
        return self._sums(phases, self._val_mats), self._sums(phases, self._psi)[:, 0]

    def values_and_jacobians(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values (P, 2), Jacobians (P, 2, 2)) with J[i, j] = d f_i / d x_j."""
        s = self._sums(self._phases(pts), self._mats)
        jac = s[:, [2, 3, 4, 2]].reshape(-1, 2, 2)
        jac[:, 1, 1] *= -1.0
        return s[:, :2].copy(), jac


def sobolev_norm(f: SpectralField2D, r: int) -> float:
    """Inhomogeneous Sobolev norm (sum_k (1+|k|^2)^r |fhat(k)|^2)^(1/2).

    Coefficients are scaled so that r = 0 is the L2 norm under the
    unnormalized inner product on [0, 2pi)^2; |fhat(k)|^2 = |k|^2 |psi(k)|^2.
    """
    if not 0 <= r <= 8:
        raise ConfigurationError(f"Sobolev index must be in 0..8, got {r}")
    g = f.grid
    w = g.multiplicity * (1.0 + g.ksq) ** r * g.ksq
    return float(2.0 * np.pi * np.sqrt(np.sum(w * np.abs(f.psi) ** 2)))


def l2_norm(f: SpectralField2D) -> float:
    return sobolev_norm(f, 0)


def l2_inner(f: SpectralField2D, g: SpectralField2D) -> float:
    """Unnormalized L2 pairing int f . g dx."""
    grid = f.grid
    total = np.sum(grid.multiplicity * grid.ksq * np.real(f.psi * np.conj(g.psi)))
    return float((2.0 * np.pi) ** 2 * total)


def sup_field_and_gradient(f: SpectralField2D) -> tuple[float, float]:
    """Upper bounds (sup |f|, sup ||grad f||) in max norms: Fourier-l1 sums.

    Every value of a series s is a sum of its modes, so |s(x)| <= sum_k w(k)
    |s(k)| over the half-spectrum, with w the multiplicity of each entry.
    The pair is the largest such sum over f1, f2 and over the three Jacobian
    series of _series, so it bounds the field and every Jacobian entry at
    every point. It equals the suprema for a single Taylor mode T_nm,
    (max(n, m), max(n^2, m^2, nm)), and for tilde T_1, (1, 1). Fields cache
    the pair as SpectralField2D.sup_norms.

    The five series are psi times |k2|, |k1|, |k1 k2|, k2^2 and k1^2, so
    their sums are the entries S01, S10, S11, S02 and S20 of the field's
    cached l1 sums (SpectralField2D.l1_sums).
    """
    s = f.l1_sums
    return float(max(s[0, 1], s[1, 0])), float(max(s[1, 1], s[0, 2], s[2, 0]))


def l1_sums(f: SpectralField2D) -> np.ndarray:
    """The Fourier-l1 sums S[a, b] = sum_k w(k) |k1|^a |k2|^b |psi(k)|, a, b = 0..3,
    each a bound on |d_x^a d_y^b psi|. Fields cache them as
    SpectralField2D.l1_sums.

    w depends on k2 alone, so each sum is separable: the row sums of A =
    |psi| against w k2^b, dotted with |k1|^a. That reads A once and builds
    no array larger than psi.
    """
    g = f.grid
    k1, k2, w = np.abs(g.k1[:, 0]), g.k2[0], g.multiplicity[0]
    rows = np.abs(f.psi) @ np.stack([w * k2**b for b in range(4)], axis=1)
    return np.stack([k1**a for a in range(4)]) @ rows


def c1_norm(f: SpectralField2D) -> float:
    """Upper bound on sup |f| + sup ||grad f||: the sum of the two
    sup_field_and_gradient values."""
    return sum(f.sup_norms)


def project_coeffs(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Leray projection per mode of half-spectrum vector coefficients (2, M, M/2 + 1):
    c(k) -> c(k) - k (k . c(k)) / |k|^2, with k = 0 and the Nyquist lines set
    to zero.

    No run path needs it, since a field is divergence-free by construction;
    the vector-form reference of the solver's tests does.
    """
    kdotc = grid.k1 * coeffs[0] + grid.k2 * coeffs[1]
    factor = kdotc * grid.inv_ksq
    out = np.stack([coeffs[0] - grid.k1 * factor, coeffs[1] - grid.k2 * factor])
    out[:, 0, 0] = 0.0
    out[:, grid.nyquist_mask] = 0.0
    return out
