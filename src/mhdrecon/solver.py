"""Time integration of incompressible 2D MHD on the torus.

The system

    d_t u + (u . grad) u + grad P = nu Lap u + (b . grad) b + f1,
    d_t b + (u . grad) b = (b . grad) u + eta Lap b + f2,
    div u = div b = 0,

is advanced in potential form (Orszag & Tang, JFM 90, 1979). Both fields are
divergence-free with zero average, so u = grad_perp psi and b = grad_perp a
with grad_perp = (d_y, -d_x). The state is the vorticity omega = -Lap psi and
the magnetic potential a, stored on the (M, M/2 + 1) half-spectrum of the
real FFT, and the equations become

    d_t omega = curl div(b b^T - u u^T) + nu Lap omega + curl f1,
    d_t a     = u1 b2 - u2 b1 + eta Lap a + psi(f2),

with psi(f2) the stream function of f2. Pressure and the divergence
constraint never appear, so the step needs no Leray projection and no
Hermitian symmetrization. Nonlinear terms are formed on the collocation grid
with 2/3-rule dealiasing, and the diffusion semigroups exp(-nu |k|^2 t),
exp(-eta |k|^2 t) are applied exactly through an integrating-factor RK4 step.
Forces are evaluated at the RK substage times, which keeps the step
fourth-order for time-dependent forcing. MHDState keeps the full-complex
vector fields (u, b); they are rebuilt from the potentials, by Hermitian
extension, only when a state is handed out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .fields import (
    ConfigurationError,
    SpectralField2D,
    TaylorSpec,
    TorusGrid,
    make_taylor,
    make_tilde_t1,
)
# Not called here: bench/tracer.py looks the projection up as solver.project_coeffs.
from .fields import project_coeffs  # noqa: F401


class BlowUpError(RuntimeError):
    """Raised when a coefficient becomes non-finite during time stepping."""

    def __init__(self, time: float):
        super().__init__(f"non-finite spectral coefficient at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class MHDState:
    """Velocity and magnetic field (both spectral) plus the simulation clock."""

    u: SpectralField2D
    b: SpectralField2D
    t: float = 0.0


@dataclass(frozen=True)
class ForcingSpec:
    """Declarative description of the body forces (f1 on u, f2 on b).

    kinds:
      none      no forcing
      theorem2  f2 = T_{n2,m2} static; f1(t) = -c1(t) c2(t) X with X the
                advective cross term of the two Taylor modes, chosen so the
                exact solution keeps u = 0 (c1, c2 are the time coefficients
                of the two modes in the closed-form magnetic field)
      remark2   same construction with the small mode replaced by tilde T_1
      custom    static Taylor forces given as (target, spec, amplitude) tuples

    Both forces always have zero average. They are not required to be
    solenoidal; the pressure absorbs any gradient part.
    """

    kind: str = "none"
    spec_nm: TaylorSpec | None = None
    spec_2: TaylorSpec | None = None
    custom: tuple = ()

    def __post_init__(self):
        if self.kind not in ("none", "theorem2", "remark2", "custom"):
            raise ConfigurationError(f"unknown forcing kind {self.kind!r}")
        if self.kind == "theorem2":
            if self.spec_nm is None or self.spec_2 is None:
                raise ConfigurationError("theorem2 forcing needs spec_nm and spec_2")
            if self.spec_2.eigenvalue >= self.spec_nm.eigenvalue:
                raise ConfigurationError("theorem2 forcing requires N2^2 < N^2")
        if self.kind == "remark2" and self.spec_nm is None:
            raise ConfigurationError("remark2 forcing needs spec_nm")


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs: physics parameters, grid, stepping, forcing."""

    nu: float
    eta: float
    grid: TorusGrid
    dt: float
    t_end: float
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    dealias: bool = True
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

    def to_dict(self) -> dict:
        d = {
            "nu": self.nu,
            "eta": self.eta,
            "resolution": self.grid.resolution,
            "dt": self.dt,
            "t_end": self.t_end,
            "dealias": self.dealias,
            "output_cadence": self.output_cadence,
            "forcing": {"kind": self.forcing.kind},
        }
        if self.forcing.spec_nm is not None:
            d["forcing"]["n"] = self.forcing.spec_nm.n
            d["forcing"]["m"] = self.forcing.spec_nm.m
        if self.forcing.spec_2 is not None:
            d["forcing"]["n2"] = self.forcing.spec_2.n
            d["forcing"]["m2"] = self.forcing.spec_2.m
        return d


def advective_cross_term(a: SpectralField2D, b: SpectralField2D) -> np.ndarray:
    """Coefficients of (a . grad) b + (b . grad) a, formed pseudo-spectrally."""
    g = a.grid
    ag = a.to_grid()
    bg = b.to_grid()
    out = np.empty((2, *g.shape), dtype=np.complex128)
    for i in range(2):
        dbx = g.to_grid(1j * g.k1 * b.coeffs[i])
        dby = g.to_grid(1j * g.k2 * b.coeffs[i])
        dax = g.to_grid(1j * g.k1 * a.coeffs[i])
        day = g.to_grid(1j * g.k2 * a.coeffs[i])
        prod = ag[0] * dbx + ag[1] * dby + bg[0] * dax + bg[1] * day
        out[i] = g.from_grid(prod)
    out[:, 0, 0] = 0.0
    return out


def forced_time_coefficients(eta: float, nsq: float, n2sq: float, t: float) -> tuple[float, float]:
    """(c1, c2) = (e^{-eta N^2 t}, (1 - e^{-eta N2^2 t}) / (eta N2^2)).

    The time coefficients of the two modes in the closed-form forced field
    b(t) = c1 T_nm + c2 T_{N2}, with nsq = N^2 and n2sq = N2^2.
    """
    c1 = float(np.exp(-eta * nsq * t))
    c2 = float(-np.expm1(-n2sq * eta * t) / (eta * n2sq))
    return c1, c2


class _HalfSpectrum:
    """The state space of the solver: (omega, a) on the rfft2 half-spectrum.

    Arrays have shape (2, M, M/2 + 1): wavenumbers k1 in FFT order along the
    first grid axis and k2 = 0 .. M/2 along the second. The reality of the
    fields is implicit in the real transforms, so no Hermitian symmetry has
    to be kept up.
    """

    def __init__(self, grid: TorusGrid, dealias: bool):
        m = grid.resolution
        half = m // 2 + 1
        self.grid = grid
        self.k1 = grid.k1[:, :half].astype(np.float64)
        self.k2 = grid.k2[:, :half].astype(np.float64)
        self.ksq = grid.ksq[:, :half]
        self.inv_ksq = grid.inv_ksq[:, :half]
        # grad_perp = (d_y, -d_x) in spectral form
        self.perp = np.stack([1j * self.k2, -1j * self.k1])
        # the Nyquist lines have no consistent real odd derivative; drop them
        # on conversion, and from every nonlinear tendency together with k = 0
        regular = ~grid.nyquist_mask[:, :half]
        self.regular = regular.astype(np.float64)
        keep = (grid.dealias_mask[:, :half] if dealias else regular) & (self.ksq > 0)
        self.keep = keep = keep.astype(np.float64)
        self.strain = keep * (self.k1 * self.k2)
        self.shear = keep * (self.k1**2 - self.k2**2)
        self.conj = grid.conj_index
        # work arrays, reused by every call: allocating arrays of this size
        # afresh faults their pages in again each time, about a third of the
        # RHS time at M = 128
        self._spec = np.empty((4, m, half), dtype=np.complex128)
        self._prod = np.empty((3, m, m))
        self._tmp = np.empty((m, m))
        self.stages = np.empty((5, 2, m, half), dtype=np.complex128)

    def curl(self, coeffs: np.ndarray) -> np.ndarray:
        """i (k1 c2 - k2 c1) of a full-complex vector field, on the half-spectrum."""
        half = self.k1.shape[1]
        return 1j * (self.k1 * coeffs[1, :, :half] - self.k2 * coeffs[0, :, :half]) * self.regular

    def from_fields(self, u: SpectralField2D, b: SpectralField2D) -> np.ndarray:
        """(omega, a) of a state; Nyquist-line and gradient content is dropped."""
        z = np.empty((2, *self.ksq.shape), dtype=np.complex128)
        z[0] = self.curl(u.coeffs)
        z[1] = self.curl(b.coeffs) * self.inv_ksq
        return z

    def full(self, half: np.ndarray) -> np.ndarray:
        """Full-complex coefficients from a half-spectrum by Hermitian extension."""
        m = self.grid.resolution
        n = m // 2
        out = np.empty((*half.shape[:-1], m), dtype=np.complex128)
        out[..., : n + 1] = half
        out[..., n + 1 :] = np.conj(half[..., self.conj, n - 1 : 0 : -1])
        for j in (0, n):  # the self-conjugate columns k2 = 0 and k2 = M/2
            col = half[..., j]
            out[..., j] = 0.5 * (col + np.conj(col[..., self.conj]))
        return out

    def to_state(self, z: np.ndarray, t: float) -> MHDState:
        """The vector view (u, b) = (grad_perp psi, grad_perp a) of (omega, a)."""
        g = self.grid
        u = SpectralField2D(g, self.full(self.perp * (z[0] * self.inv_ksq)))
        b = SpectralField2D(g, self.full(self.perp * z[1]))
        return MHDState(u, b, t)

    def rhs(self, z: np.ndarray, out: np.ndarray) -> float:
        """Nonlinear tendencies of (omega, a) into out, diffusion-free; returns max grid |u|.

        With S = u u^T - b b^T and w = u1 b2 - u2 b1, the curl of
        -div S is k1 k2 (S22 - S11) + (k1^2 - k2^2) S12 and the induction
        term curl(u x b) = grad_perp w has the potential w.
        """
        m = self.grid.resolution
        c, prod, tmp = self._spec, self._prod, self._tmp
        np.multiply(z[0], self.inv_ksq, out=c[1])  # psi
        np.multiply(self.perp[0], c[1], out=c[0])
        np.multiply(self.perp[1], c[1], out=c[1])
        np.multiply(self.perp, z[1], out=c[2:])
        u1, u2, b1, b2 = sfft.irfft2(c, s=(m, m), axes=(-2, -1), norm="forward", overwrite_x=True)
        umax = max(float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))
        np.multiply(u2, u2, out=prod[0])
        prod[0] -= np.multiply(b2, b2, out=tmp)
        prod[0] -= np.multiply(u1, u1, out=tmp)
        prod[0] += np.multiply(b1, b1, out=tmp)
        np.multiply(u1, u2, out=prod[1])
        prod[1] -= np.multiply(b1, b2, out=tmp)
        np.multiply(u1, b2, out=prod[2])
        prod[2] -= np.multiply(u2, b1, out=tmp)
        s = sfft.rfft2(prod, axes=(-2, -1), norm="forward", overwrite_x=True)
        np.multiply(self.strain, s[0], out=out[0])
        out[0] += np.multiply(self.shear, s[1], out=s[1])
        np.multiply(self.keep, s[2], out=out[1])
        return umax


class _Forcing:
    """f1(t), f2(t) as (curl f1, stream function of f2) on the half-spectrum.

    Only the curl of f1 acts on the vorticity (the pressure absorbs the
    rest), and only the stream function of f2 on the magnetic potential.
    """

    def __init__(self, spec: ForcingSpec, half: _HalfSpectrum, eta: float):
        grid = half.grid
        self.eta = eta
        self._static: np.ndarray | None = None
        self._cross: np.ndarray | None = None
        self._nsq = self._n2sq = 0.0
        fu = np.zeros((2, *grid.shape), dtype=np.complex128)
        fb = np.zeros_like(fu)
        kind = spec.kind
        if kind in ("theorem2", "remark2"):
            if eta <= 0:
                raise ConfigurationError(f"{kind} forcing requires eta > 0")
            big = make_taylor(spec.spec_nm, 1.0, grid)
            if kind == "theorem2":
                small = make_taylor(spec.spec_2, 1.0, grid)
                self._n2sq = float(spec.spec_2.eigenvalue)
            else:
                small = make_tilde_t1(grid)
                self._n2sq = 1.0
            self._nsq = float(spec.spec_nm.eigenvalue)
            fb += small.coeffs
            self._cross = half.curl(advective_cross_term(big, small))
        elif kind == "custom":
            for target, tspec, amp in spec.custom:
                f = (
                    make_tilde_t1(grid, amp)
                    if tspec == "tilde_t1"
                    else make_taylor(tspec, amp, grid)
                )
                if target == "u":
                    fu += f.coeffs
                elif target == "b":
                    fb += f.coeffs
                else:
                    raise ConfigurationError(f"custom forcing target must be u or b, got {target!r}")
        if np.any(fu) or np.any(fb):
            self._static = np.stack([half.curl(fu), half.curl(fb) * half.inv_ksq])

    def add_to(self, out: np.ndarray, t: float) -> None:
        """Add (curl f1(t), psi(f2(t))) to the tendencies out."""
        if self._static is not None:
            out += self._static
        if self._cross is not None:
            c1, c2 = forced_time_coefficients(self.eta, self._nsq, self._n2sq, t)
            out[0] += (-c1 * c2) * self._cross


def nonlinear_rhs(state: MHDState, dealias: bool = True) -> tuple[SpectralField2D, SpectralField2D]:
    """Nonlinear spectral tendencies of (u, b); diffusion and forcing excluded."""
    half = _HalfSpectrum(state.u.grid, dealias)
    dz = half.stages[0]
    half.rhs(half.from_fields(state.u, state.b), dz)
    view = half.to_state(dz, state.t)
    return view.u, view.b


def _exp_factors(cfg: SimConfig, half: _HalfSpectrum, h: float):
    """Integrating factors of (omega, a) over a full and a half step of size h."""
    visc = np.stack([cfg.nu * half.ksq, cfg.eta * half.ksq])
    return np.exp(-visc * h), np.exp(-visc * (0.5 * h))


def _step(z, t: float, h: float, half: _HalfSpectrum, forcing: _Forcing, exps) -> np.ndarray:
    """One integrating-factor RK4 step of (omega, a); z itself is left as it is."""
    e_f, e_h = exps
    n1, n2, n3, n4, zs = half.stages

    def rhs(zz, tt, out):
        umax = half.rhs(zz, out)
        forcing.add_to(out, tt)
        return umax

    umax = rhs(z, t, n1)
    cfl = h * umax * half.grid.resolution / (2.0 * np.pi)
    if cfl >= 0.5:
        warnings.warn(
            f"CFL number {cfl:.2f} >= 0.5; the time step under-resolves advection",
            RuntimeWarning,
            stacklevel=3,
        )
    # the stage states e_h (z + h/2 n1), e_h z + h/2 n2 and e_f z + h e_h n3
    np.multiply(n1, 0.5 * h, out=zs)
    zs += z
    zs *= e_h
    rhs(zs, t + 0.5 * h, n2)
    np.multiply(n2, 0.5 * h, out=zs)
    zs += e_h * z
    rhs(zs, t + 0.5 * h, n3)
    np.multiply(e_h, n3, out=zs)
    zs *= h
    zs += e_f * z
    rhs(zs, t + h, n4)
    # z_new = e_f z + h/6 (e_f n1 + 2 e_h (n2 + n3) + n4)
    n2 += n3
    n2 *= e_h
    n2 *= 2.0
    n1 *= e_f
    n1 += n2
    n1 += n4
    n1 *= h / 6.0
    zn = e_f * z
    zn += n1
    if not np.all(np.isfinite(zn)):
        raise BlowUpError(t + h)
    return zn


def step(state: MHDState, cfg: SimConfig) -> MHDState:
    """Advance one time step of size cfg.dt; diffusion is handled exactly."""
    half = _HalfSpectrum(cfg.grid, cfg.dealias)
    forcing = _Forcing(cfg.forcing, half, cfg.eta)
    z = _step(half.from_fields(state.u, state.b), state.t, cfg.dt, half, forcing,
              _exp_factors(cfg, half, cfg.dt))
    return half.to_state(z, state.t + cfg.dt)


def simulate(cfg: SimConfig, initial: MHDState, sinks=()) -> MHDState:
    """Advance to cfg.t_end, emitting states to sinks at the output cadence.

    The final step is shortened to land exactly on t_end. Sinks are callables
    receiving an MHDState; they fire at the initial state, every
    cfg.output_cadence-th step, and the final state. On blow-up the last good
    state is flushed before the error propagates.
    """
    t0 = initial.t
    total = cfg.t_end - t0
    if total < 0:
        raise ConfigurationError("initial state is already past t_end")

    def emit(state):
        for sink in sinks:
            sink(state)
        return state

    emit(initial)
    if total == 0:
        return initial

    half = _HalfSpectrum(cfg.grid, cfg.dealias)
    forcing = _Forcing(cfg.forcing, half, cfg.eta)
    z = half.from_fields(initial.u, initial.b)
    n_full = int(np.floor(total / cfg.dt + 1e-9))
    leftover = total - n_full * cfg.dt
    if leftover < 1e-12 * max(1.0, abs(cfg.t_end)):
        leftover = 0.0
    exps = _exp_factors(cfg, half, cfg.dt)
    t = t0
    try:
        for i in range(n_full):
            z = _step(z, t, cfg.dt, half, forcing, exps)
            t = t0 + (i + 1) * cfg.dt
            if (i + 1) % cfg.output_cadence == 0 and not (i + 1 == n_full and leftover == 0.0):
                emit(half.to_state(z, t))
        if leftover > 0.0:
            z = _step(z, t, leftover, half, forcing, _exp_factors(cfg, half, leftover))
    except BlowUpError:
        emit(half.to_state(z, t))  # flush the last good state before propagating
        raise
    return emit(half.to_state(z, cfg.t_end))


def heat_propagate(f: SpectralField2D, eta: float, t: float) -> SpectralField2D:
    """Apply the diffusion semigroup exp(eta t Lap): multiply by exp(-eta |k|^2 t)."""
    if t < 0:
        raise ConfigurationError("heat_propagate requires t >= 0")
    return SpectralField2D(f.grid, f.coeffs * np.exp(-eta * f.grid.ksq * t))


@dataclass
class Trajectory:
    """Uniform-cadence snapshots of a run, as recorded by TrajectoryRecorder."""

    cfg: SimConfig
    times: list[float] = field(default_factory=list)
    states: list[MHDState] = field(default_factory=list)

    def state_at(self, t: float, atol: float = 1e-9) -> MHDState:
        for st in self.states:
            if abs(st.t - t) <= atol:
                return st
        raise ValueError(f"no snapshot at t = {t}")


class TrajectoryRecorder:
    """Sink that accumulates snapshots into a Trajectory."""

    def __init__(self, cfg: SimConfig):
        self.trajectory = Trajectory(cfg)

    def __call__(self, state: MHDState) -> None:
        self.trajectory.times.append(state.t)
        self.trajectory.states.append(state)


def duhamel_remainder(trajectory: Trajectory, eta: float) -> list[tuple[float, SpectralField2D]]:
    """D(t) = b(t) - exp(eta t Lap) b0 for every snapshot.

    This is the numerically exact total deviation of the magnetic field from
    pure heat evolution of its initial value.
    """
    if not trajectory.states:
        raise ValueError("trajectory has no snapshots; the initial state is required")
    b0 = trajectory.states[0].b
    t0 = trajectory.states[0].t
    out = []
    for st in trajectory.states:
        heated = heat_propagate(b0, eta, st.t - t0)
        out.append((st.t, st.b - heated))
    return out


def energy(state: MHDState) -> float:
    """Total energy (||u||^2 + ||b||^2) / 2 in the unnormalized L2 norm."""
    s = np.sum(np.abs(state.u.coeffs) ** 2) + np.sum(np.abs(state.b.coeffs) ** 2)
    return float(0.5 * (2.0 * np.pi) ** 2 * s)


def cross_helicity(state: MHDState) -> float:
    """int u . b dx."""
    s = np.sum(np.real(state.u.coeffs * np.conj(state.b.coeffs)))
    return float((2.0 * np.pi) ** 2 * s)
