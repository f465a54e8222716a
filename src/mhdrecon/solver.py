"""Time integration of incompressible 2D MHD on the torus.

The system

    d_t u + (u . grad) u + grad P = nu Lap u + (b . grad) b + f1,
    d_t b + (u . grad) b = (b . grad) u + eta Lap b + f2,
    div u = div b = 0,

is advanced in potential form (Orszag & Tang, JFM 90, 1979). Both fields are
divergence-free with zero average, so u = grad_perp psi and b = grad_perp a
with grad_perp = (d_y, -d_x). The state is the pair of stream functions
(psi, a), and with the vorticity omega = -Lap psi the equations become

    d_t omega = curl div(b b^T - u u^T) + nu Lap omega + curl f1,
    d_t a     = u1 b2 - u2 b1 + eta Lap a + psi(f2),

with psi(f2) the stream function of f2; the first is stepped as the equation
of psi = omega / |k|^2. Pressure and the divergence constraint never appear,
so the step needs no Leray projection and no Hermitian symmetrization.
Nonlinear terms are formed on the M x M collocation grid with 2/3-rule
dealiasing, so every mode with max(|k1|, |k2|) > M/3 stays zero, and the
state holds only the dealiased block |k1|, k2 <= M/3 of the (M, M/2 + 1)
real-FFT half-spectrum (44% of its entries); an MHDState embeds it back
into the half-spectrum of SpectralField2D. Data with a mode beyond the cut
would feed aliased products, so simulate refuses them with a
ConfigurationError that names the mode. The transforms are numpy.fft's,
each 2-D transform as two 1-D passes (a complex one over k1, a real one
over k2) on the block's columns only, writing into work arrays kept from
call to call.
The step is the fourth-order exponential time differencing scheme ETDRK4
(Cox & Matthews, J. Comput. Phys. 176, 2002) with the linear part
L = -(nu, eta) |k|^2: the diffusion semigroups are applied exactly, and the
nonlinear terms and forces, evaluated at the stage times t, t + h/2, t + h/2
and t + h, are integrated against them. A linear run with a static force,
such as the induction equation of the forced runs, is integrated exactly,
and where L = 0 (an ideal run) the step is classical RK4. An MHDState holds
the fields of psi and a themselves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import factorial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .fields import (
    ConfigurationError,
    SpectralField2D,
    TorusGrid,
    l2_inner,
    make_taylor,
    zero_field,
)
# Not called here: bench/tracer.py looks the projection up as solver.project_coeffs.
from .fields import project_coeffs  # noqa: F401

if TYPE_CHECKING:  # oracles imports MHDState from here
    from .oracles import ForcedOracle

log = logging.getLogger(__name__)


class BlowUpError(RuntimeError):
    """Raised when a coefficient becomes non-finite during time stepping."""

    def __init__(self, time: float, detail: str = ""):
        message = f"non-finite spectral coefficient at t = {time:.6g}"
        super().__init__(f"{message} ({detail})" if detail else message)
        self.time = time


@dataclass(frozen=True)
class MHDState:
    """Velocity and magnetic field, each a stream-function field, plus the simulation clock."""

    u: SpectralField2D
    b: SpectralField2D
    t: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs: physics parameters, grid, stepping, forcing.

    forcing is None for an unforced run, or the forced construction whose
    closed form the run follows; its eta must be the run's.
    """

    nu: float
    eta: float
    grid: TorusGrid
    dt: float
    t_end: float
    forcing: ForcedOracle | None = None
    output_cadence: int = 50

    def __post_init__(self):
        if self.nu < 0 or self.eta < 0:
            raise ConfigurationError("viscosity and resistivity must be >= 0")
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.t_end < 0:
            raise ConfigurationError("t_end must be >= 0")
        if self.output_cadence < 1:
            raise ConfigurationError("output_cadence must be >= 1")
        if self.forcing is not None and self.forcing.eta != self.eta:
            raise ConfigurationError(
                f"the forcing has eta = {self.forcing.eta}, the run eta = {self.eta}")


def require_in_band(f: SpectralField2D, name: str) -> None:
    """Raise ConfigurationError, naming the mode, if f has a mode beyond the 2/3-rule cut.

    The cut keeps the modes with |k1|, k2 <= floor(M/3) of f's grid; the
    error names f as name, the mode, and the M the mode needs.
    """
    grid, psi = f.grid, f.psi
    m = grid.resolution
    c = m // 3
    if not (np.any(psi[:, c + 1 :]) or np.any(psi[c + 1 : m - c])):
        return
    k1, k2 = grid.k1, grid.k2
    band = np.where(psi != 0, np.maximum(np.abs(k1), k2), 0.0)
    i, j = np.unravel_index(np.argmax(band), band.shape)
    raise ConfigurationError(
        f"{name} has a mode (k1, k2) = ({k1[i, j]:.0f}, {k2[i, j]:.0f}) beyond the "
        f"2/3-rule cut M/3 = {m / 3:.4g} at M = {m}; it needs M >= {3 * band[i, j]:.0f}")


class _HalfSpectrum:
    """The state space of the solver: (psi, a) on the dealiased block of the half-spectrum.

    The 2/3 rule keeps the modes with |k1|, k2 <= c = floor(M/3), and every
    other entry of the (M, M/2 + 1) rfft2 half-spectrum stays zero, so the
    state holds only the kept ones. Arrays have shape (2, 2c + 1, c + 1):
    rows k1 = 0 .. c, then -c .. -1 (FFT order), columns k2 = 0 .. c. The
    nonlinear terms are still formed on the M x M collocation grid. The
    reality of the fields is implicit in the real transforms, so no
    Hermitian symmetry has to be kept up.
    """

    def __init__(self, grid: TorusGrid):
        m = grid.resolution
        c = self.cut = m // 3
        self.grid = grid
        # the block's two row slabs, k1 = 0 .. c and k1 = -c .. -1, each as
        # (its rows in the half-spectrum, its rows in the block)
        self._slabs = ((slice(0, c + 1), slice(0, c + 1)), (slice(m - c, m), slice(c + 1, None)))
        k1, k2, self.ksq, inv_ksq = (
            self._block(a) for a in (grid.k1, grid.k2, grid.ksq, grid.inv_ksq))
        # grad_perp = (d_y, -d_x) in spectral form
        self.perp = np.stack([1j * k2, -1j * k1])
        # the vorticity tendency's factors, divided by |k|^2 for that of psi;
        # both vanish at k = 0 through inv_ksq
        self.strain = (k1 * k2) * inv_ksq
        self.shear = (k1**2 - k2**2) * inv_ksq
        # work arrays, reused by every call: allocating arrays of this size
        # afresh faults their pages in again each time, about a third of the
        # RHS time at M = 128. The transforms write into them through out=:
        # _spec holds the four spectra of u and b, then (its first three
        # slots) the spectra of the products; _grid their grid values. Only
        # the block's c + 1 columns of _spec enter the inverse transforms,
        # whose real pass zero-pads the columns k2 > c itself; the rows
        # between the two slabs are zeroed on each call.
        self._spec = np.empty((4, m, m // 2 + 1), dtype=np.complex128)
        self._grid = np.empty((4, m, m))
        self._prod = np.empty((3, m, m))
        self._tmp = np.empty((m, m))
        self.stages = np.empty((5, 2, 2 * c + 1, c + 1), dtype=np.complex128)

    def _block(self, a: np.ndarray) -> np.ndarray:
        """The block's entries of a half-spectrum array (last two axes)."""
        return np.concatenate([a[..., rows, : self.cut + 1] for rows, _ in self._slabs], axis=-2)

    def from_fields(self, u: SpectralField2D, b: SpectralField2D) -> np.ndarray:
        """The state of (u, b); ConfigurationError if either has a mode beyond the cut."""
        for f, name in ((u, "u"), (b, "b")):
            require_in_band(f, name)
        return self._block(np.stack([u.psi, b.psi]))

    def embed(self, z: np.ndarray) -> np.ndarray:
        """The half-spectrum array of the block array z (last two axes), zero beyond the cut."""
        full = np.zeros((*z.shape[:-2], *self.grid.spectral_shape), dtype=np.complex128)
        for rows, zrows in self._slabs:
            full[..., rows, : self.cut + 1] = z[..., zrows, :]
        return full

    def to_state(self, z: np.ndarray, t: float) -> MHDState:
        # one field at a time: SpectralField2D copies its array
        return MHDState(*(SpectralField2D(self.grid, self.embed(zi)) for zi in z), t)

    def rhs(self, z: np.ndarray, out: np.ndarray) -> None:
        """Nonlinear tendencies of (psi, a) into out, diffusion-free.

        With S = u u^T - b b^T and w = u1 b2 - u2 b1, the curl of
        -div S is k1 k2 (S22 - S11) + (k1^2 - k2^2) S12, the tendency of
        omega = |k|^2 psi, and the induction term curl(u x b) = grad_perp w
        has the potential w. Only the block enters and leaves the
        transforms, which act column by column, so the kept entries are
        those of the full half-spectrum transforms bit for bit. The grid
        values of u and b stay in the work arrays until the next call
        (max_speed reads them).
        """
        m, c = self.grid.resolution, self.cut
        spec, prod, tmp = self._spec, self._prod, self._tmp
        cols = spec[..., : c + 1]
        # the 2-D transforms as two 1-D passes, complex over k1 and real over k2
        for rows, zrows in self._slabs:
            np.multiply(self.perp[:, zrows], z[0, zrows], out=cols[:2, rows])
            np.multiply(self.perp[:, zrows], z[1, zrows], out=cols[2:, rows])
        cols[:, c + 1 : m - c] = 0.0
        np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
        u1, u2, b1, b2 = np.fft.irfft(cols, n=m, axis=-1, norm="forward", out=self._grid)
        np.multiply(u2, u2, out=prod[0])
        prod[0] -= np.multiply(b2, b2, out=tmp)
        prod[0] -= np.multiply(u1, u1, out=tmp)
        prod[0] += np.multiply(b1, b1, out=tmp)
        np.multiply(u1, u2, out=prod[1])
        prod[1] -= np.multiply(b1, b2, out=tmp)
        np.multiply(u1, b2, out=prod[2])
        prod[2] -= np.multiply(u2, b1, out=tmp)
        np.fft.rfft(prod, axis=-1, norm="forward", out=spec[:3])
        s = np.fft.fft(cols[:3], axis=-2, norm="forward", out=cols[:3])
        for rows, zrows in self._slabs:
            o = out[:, zrows]
            np.multiply(self.strain[zrows], s[0, rows], out=o[0])
            o[0] += np.multiply(self.shear[zrows], s[1, rows], out=s[1, rows])
            o[1] = s[2, rows]
        out[1, 0, 0] = 0.0

    def max_speed(self) -> float:
        """The largest |u1| or |u2| over the grid values of the last rhs call.

        Read without an |u| temporary; np.max keeps a NaN as np.abs did.
        """
        u1, u2 = self._grid[:2]
        return float(np.max([u1.max(), -u1.min(), u2.max(), -u2.min()]))


class _Forcing:
    """f1(t), f2(t) of a forced construction as their stream functions on the dealiased block.

    For the oracle's closed form b(t) = c1(t) big + c2(t) small, with big =
    T_nm, the force is f2 = small, static, and f1(t) = -c1(t) c2(t) X with
    X = (big . grad) small + (small . grad) big, the advective cross term of
    b(t): it keeps u = 0. Only the curl of f1 acts on the vorticity (the
    pressure absorbs the rest), so f1 enters the equation of psi as
    curl f1 / |k|^2, the stream function of its solenoidal part; f2 enters
    that of a as its stream function. Without an oracle there is no force.
    """

    def __init__(self, oracle: ForcedOracle | None, half: _HalfSpectrum):
        self.oracle = oracle
        if oracle is None:
            return
        grid = half.grid
        big = make_taylor(oracle.spec_nm, 1.0, grid)
        small = oracle.small_mode(grid)
        require_in_band(big, "the force's T_nm")
        require_in_band(small, "the force's small field")
        # X is taken from the solver's own Lorentz term by polarization: at
        # u = big - small, b = big + small the psi tendency of rhs is
        # curl div(b b^T - u u^T) / |k|^2 = 2 curl X / |k|^2, dealiased like the
        # term it cancels
        self._static = half.from_fields(zero_field(grid), small)
        tendency = np.empty_like(self._static)
        half.rhs(half.from_fields(big - small, big + small), tendency)
        self._cross = 0.5 * tendency[0]

    def add_to(self, out: np.ndarray, t: float) -> None:
        """Add the stream functions of f1(t) and f2(t) to the tendencies out."""
        if self.oracle is not None:
            c1, c2 = self.oracle.coefficients(t)
            out += self._static
            out[0] += (-c1 * c2) * self._cross


# Taylor coefficients, j = 0 .. 19, of phi_1(z) = (e^z - 1) / z and of the
# ETDRK4 weights g_k = 6 f_k / h, each 1 at z = 0. Below |z| = 1 the series
# stand in for the closed forms, which cancel there; the first term left out
# is below 1e-18.
_SERIES = {
    "phi1": [1.0 / factorial(j + 1) for j in range(20)],
    "g1": [6 * (j + 1) ** 2 / factorial(j + 3) for j in range(20)],
    "g2": [6 * (j + 1) / factorial(j + 3) for j in range(20)],
    "g3": [6 * (1 - j) / factorial(j + 3) for j in range(20)],
}


def _series_near_zero(values: np.ndarray, z: np.ndarray, name: str) -> np.ndarray:
    """values with the Taylor series of _SERIES[name] put in where |z| < 1.

    The series is summed by Horner's rule; at z = 0 that gives its first
    coefficient, 1, exactly.
    """
    coeffs = _SERIES[name]
    near = np.abs(z) < 1.0
    if near.any():
        zs = z[near]
        acc = np.full_like(zs, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= zs
            acc += c
        values[near] = acc
    return values


class _EtdCoefficients(NamedTuple):
    """The ETDRK4 coefficients of one step size h, at z = L h.

    e = e^z, e_half = e^{z/2}, q = h/2 phi_1(z/2), p = q (e^{z/2} - 1), and
    the weights f1, f2, f3 of Cox & Matthews,

        f1 = h (-4 - z + e^z (4 - 3z + z^2)) / z^3,
        f2 = h (2 + z + e^z (z - 2)) / z^3,
        f3 = h (-4 - 3z - z^2 + e^z (4 - z)) / z^3.

    At z = 0 q is h/2 and f1, f2, f3 are h/6, the weights of classical RK4.
    """

    e: np.ndarray
    e_half: np.ndarray
    q: np.ndarray
    p: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray

    @classmethod
    def at(cls, z: np.ndarray, h: float) -> "_EtdCoefficients":
        """The coefficients at the real z = L h <= 0, for steps of size h."""
        z = np.asarray(z, dtype=np.float64)
        z_half = 0.5 * z
        e, e_half, em1_half = np.exp(z), np.exp(z_half), np.expm1(z_half)
        # the closed forms everywhere, then the series where |z| < 1
        with np.errstate(divide="ignore", invalid="ignore"):
            phi1_half = em1_half / z_half
            z3 = z * z * z
            g1 = 6.0 * (-4.0 - z + e * (4.0 + z * (z - 3.0))) / z3
            g2 = 6.0 * (2.0 + z + e * (z - 2.0)) / z3
            g3 = 6.0 * (-4.0 - z * (3.0 + z) + e * (4.0 - z)) / z3
        q = (0.5 * h) * _series_near_zero(phi1_half, z_half, "phi1")
        sixth = h / 6.0
        return cls(e, e_half, q, q * em1_half, sixth * _series_near_zero(g1, z, "g1"),
                   sixth * _series_near_zero(g2, z, "g2"), sixth * _series_near_zero(g3, z, "g3"))


def _etd_coefficients(cfg: SimConfig, half: _HalfSpectrum, h: float) -> _EtdCoefficients:
    """ETDRK4 coefficients of (psi, a) for steps of size h, with L = -(nu, eta) |k|^2.

    With nu = eta the coefficients have one row, which broadcasts over both fields.
    """
    visc = [cfg.nu] if cfg.nu == cfg.eta else [cfg.nu, cfg.eta]
    return _EtdCoefficients.at(np.stack([-v * half.ksq for v in visc]) * h, h)


class _CflTally:
    """The worst CFL number of one run, and how many of its steps reached 0.5."""

    def __init__(self):
        self.steps = 0
        self.over = 0
        self.worst = 0.0

    def add(self, cfl: float) -> None:
        self.steps += 1
        if cfl >= 0.5:
            self.over += 1
        if cfl > self.worst:
            self.worst = cfl

    def summary(self) -> str:
        return f"CFL number >= 0.5 on {self.over} of {self.steps} steps, at worst {self.worst:.3g}"

    def log(self) -> None:
        """Log the tally at info level, or as a warning if a step reached 0.5.

        A run of no steps logs nothing.
        """
        if not self.steps:
            return
        if self.over:
            log.warning("%s; the time step under-resolves advection", self.summary())
        else:
            log.info("CFL number at worst %.3g over %d steps", self.worst, self.steps)


def _step(z, t: float, h: float, half: _HalfSpectrum, forcing: _Forcing,
          etd: _EtdCoefficients, cfl_tally: _CflTally) -> np.ndarray:
    """One ETDRK4 step of (psi, a); z itself is left as it is.

    The CFL number of the step, from max |u| at its start, is added to
    cfl_tally.
    """
    n1, n2, n3, n4, zs = half.stages

    def rhs(zz, tt, out):
        half.rhs(zz, out)
        forcing.add_to(out, tt)

    rhs(z, t, n1)
    # max |u| at the step's start, read off the first stage's grid values
    cfl_tally.add(h * half.max_speed() * half.grid.resolution / (2.0 * np.pi))
    # the stage states a = e_half z + q n1 and b = e_half z + q n2, and
    # c = e_half a + q (2 n3 - n1) = e z + p n1 + 2 q n3
    ez_half = np.multiply(etd.e_half, z, out=n4)
    np.multiply(etd.q, n1, out=zs)
    zs += ez_half
    rhs(zs, t + 0.5 * h, n2)
    np.multiply(etd.q, n2, out=zs)
    zs += ez_half
    rhs(zs, t + 0.5 * h, n3)
    zn = etd.e * z
    np.multiply(etd.p, n1, out=zs)
    zs += zn
    np.multiply(etd.q, n3, out=n4)
    n4 *= 2.0
    zs += n4
    rhs(zs, t + h, n4)
    # z_new = e z + f1 n1 + 2 f2 (n2 + n3) + f3 n4
    n2 += n3
    n2 *= etd.f2
    n2 *= 2.0
    n1 *= etd.f1
    n1 += n2
    n4 *= etd.f3
    n1 += n4
    zn += n1
    if not np.all(np.isfinite(zn)):
        raise BlowUpError(t + h)
    return zn


def advance(cfg: SimConfig, initial: MHDState, sinks=()) -> tuple[MHDState, _CflTally]:
    """Advance to cfg.t_end, emitting states to sinks at the output cadence.

    Returns the final state and the run's CFL tally, and logs nothing: the
    caller logs the tally (_CflTally.log) when it suits it. The final step
    is shortened to land exactly on t_end. Sinks are callables receiving an
    MHDState; they fire at the initial state, every cfg.output_cadence-th
    step, and the final state. On blow-up the last good state is flushed
    before the error propagates; if a step reached CFL number 0.5, the
    error's message carries the tally's summary. Initial fields or a forced
    construction with a mode beyond the 2/3-rule cut M/3 raise
    ConfigurationError, naming the mode, before any sink fires.
    """
    t0 = initial.t
    total = cfg.t_end - t0
    if total < 0:
        raise ConfigurationError("initial state is already past t_end")

    def emit(state):
        for sink in sinks:
            sink(state)
        return state

    # data beyond the dealiasing cut are refused before any state is emitted
    half = _HalfSpectrum(cfg.grid)
    forcing = _Forcing(cfg.forcing, half)
    z = half.from_fields(initial.u, initial.b)
    tally = _CflTally()
    emit(initial)
    if total == 0:
        return initial, tally

    n_full = int(np.floor(total / cfg.dt + 1e-9))
    leftover = total - n_full * cfg.dt
    if leftover < 1e-12 * max(1.0, abs(cfg.t_end)):
        leftover = 0.0
    etd = _etd_coefficients(cfg, half, cfg.dt)
    t = t0
    try:
        # a state that blows up overflows in the products of the RHS; the
        # finite check after each step reports it as one BlowUpError
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_full):
                z = _step(z, t, cfg.dt, half, forcing, etd, tally)
                t = t0 + (i + 1) * cfg.dt
                if (i + 1) % cfg.output_cadence == 0 and not (i + 1 == n_full and leftover == 0.0):
                    emit(half.to_state(z, t))
            if leftover > 0.0:
                z = _step(z, t, leftover, half, forcing,
                          _etd_coefficients(cfg, half, leftover), tally)
    except BlowUpError as exc:
        emit(half.to_state(z, t))  # flush the last good state before propagating
        if tally.over:
            raise BlowUpError(exc.time, tally.summary()) from None
        raise
    return emit(half.to_state(z, cfg.t_end)), tally


def simulate(cfg: SimConfig, initial: MHDState, sinks=()) -> MHDState:
    """The final state of advance(cfg, initial, sinks), with the run's CFL tally logged.

    The worst CFL number is logged once at the end of the run, at info
    level, or as a warning with the number of steps whose CFL number
    reached 0.5 if there are any; a run of zero length logs nothing.
    """
    final, tally = advance(cfg, initial, sinks)
    tally.log()
    return final


def heat_propagate(f: SpectralField2D, eta: float, t: float) -> SpectralField2D:
    """Apply the diffusion semigroup exp(eta t Lap): multiply by exp(-eta |k|^2 t)."""
    if t < 0:
        raise ConfigurationError("heat_propagate requires t >= 0")
    return SpectralField2D(f.grid, f.psi * np.exp(-eta * f.grid.ksq * t))


def energy(state: MHDState) -> float:
    """Total energy (||u||^2 + ||b||^2) / 2 in the unnormalized L2 norm."""
    return 0.5 * (l2_inner(state.u, state.u) + l2_inner(state.b, state.b))


def cross_helicity(state: MHDState) -> float:
    """int u . b dx."""
    return l2_inner(state.u, state.b)
