"""Time integration of incompressible 2D MHD on the torus.

The system

    d_t u + (u . grad) u + grad P = nu Lap u + (b . grad) b + f1,
    d_t b + (u . grad) b = (b . grad) u + eta Lap b + f2,
    div u = div b = 0,

is advanced in potential form (Orszag & Tang, JFM 90, 1979). Both fields are
divergence-free with zero average, so u = grad_perp psi and b = grad_perp a
with grad_perp = (d_y, -d_x). The state is the pair of stream functions
(psi, a) on the (M, M/2 + 1) half-spectrum of the real FFT, the layout of
SpectralField2D, and with the vorticity omega = -Lap psi the equations
become

    d_t omega = curl div(b b^T - u u^T) + nu Lap omega + curl f1,
    d_t a     = u1 b2 - u2 b1 + eta Lap a + psi(f2),

with psi(f2) the stream function of f2; the first is stepped as the equation
of psi = omega / |k|^2. Pressure and the divergence constraint never appear,
so the step needs no Leray projection and no Hermitian symmetrization.
Nonlinear terms are formed on the collocation grid with 2/3-rule dealiasing,
and the diffusion semigroups exp(-nu |k|^2 t), exp(-eta |k|^2 t) are applied
exactly through an integrating-factor RK4 step. Forces are evaluated at the
RK substage times, which keeps the step fourth-order for time-dependent
forcing. An MHDState holds the fields of psi and a themselves.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .fields import (
    ConfigurationError,
    SpectralField2D,
    TaylorSpec,
    TorusGrid,
    l2_inner,
    make_taylor,
    make_tilde_t1,
    zero_field,
)
# Not called here: bench/tracer.py looks the projection up as solver.project_coeffs.
from .fields import project_coeffs  # noqa: F401

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
class ForcingSpec:
    """Declarative description of the body forces (f1 on u, f2 on b).

    kinds:
      none      no forcing
      theorem2  f2 = T_{n2,m2} static; f1(t) = -c1(t) c2(t) X with X the
                advective cross term of the two Taylor modes, chosen so the
                exact solution keeps u = 0 (c1, c2 are the time coefficients
                of the two modes in the closed-form magnetic field)
      remark2   same construction with the small mode replaced by tilde T_1

    Both forces always have zero average. Only the curl of f1 acts (the
    pressure absorbs its gradient part), so f1 need not be solenoidal.
    """

    kind: str = "none"
    spec_nm: TaylorSpec | None = None
    spec_2: TaylorSpec | None = None

    def __post_init__(self):
        if self.kind not in ("none", "theorem2", "remark2"):
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


def forced_time_coefficients(eta: float, nsq: float, n2sq: float, t: float) -> tuple[float, float]:
    """(c1, c2) = (e^{-eta N^2 t}, (1 - e^{-eta N2^2 t}) / (eta N2^2)).

    The time coefficients of the two modes in the closed-form forced field
    b(t) = c1 T_nm + c2 T_{N2}, with nsq = N^2 and n2sq = N2^2.
    """
    c1 = float(np.exp(-eta * nsq * t))
    c2 = float(-np.expm1(-n2sq * eta * t) / (eta * n2sq))
    return c1, c2


class _HalfSpectrum:
    """The state space of the solver: (psi, a) on the rfft2 half-spectrum.

    Arrays have shape (2, M, M/2 + 1): wavenumbers k1 in FFT order along the
    first grid axis and k2 = 0 .. M/2 along the second. The reality of the
    fields is implicit in the real transforms, so no Hermitian symmetry has
    to be kept up.
    """

    def __init__(self, grid: TorusGrid, dealias: bool):
        m = grid.resolution
        half = m // 2 + 1
        self.grid = grid
        self.k1, self.k2, self.ksq, self.inv_ksq = grid.k1, grid.k2, grid.ksq, grid.inv_ksq
        # grad_perp = (d_y, -d_x) in spectral form
        self.perp = np.stack([1j * self.k2, -1j * self.k1])
        # the Nyquist lines have no consistent real odd derivative; drop them
        # from every nonlinear tendency together with k = 0
        keep = (grid.dealias_mask if dealias else ~grid.nyquist_mask) & (self.ksq > 0)
        self.keep = keep = keep.astype(np.float64)
        # the vorticity tendency's factors, divided by |k|^2 for that of psi
        self.strain = keep * (self.k1 * self.k2) * self.inv_ksq
        self.shear = keep * (self.k1**2 - self.k2**2) * self.inv_ksq
        # work arrays, reused by every call: allocating arrays of this size
        # afresh faults their pages in again each time, about a third of the
        # RHS time at M = 128
        self._spec = np.empty((4, m, half), dtype=np.complex128)
        self._prod = np.empty((3, m, m))
        self._tmp = np.empty((m, m))
        self.stages = np.empty((5, 2, m, half), dtype=np.complex128)

    def from_fields(self, u: SpectralField2D, b: SpectralField2D) -> np.ndarray:
        return np.stack([u.psi, b.psi])

    def to_state(self, z: np.ndarray, t: float) -> MHDState:
        return MHDState(SpectralField2D(self.grid, z[0]), SpectralField2D(self.grid, z[1]), t)

    def rhs(self, z: np.ndarray, out: np.ndarray) -> float:
        """Nonlinear tendencies of (psi, a) into out, diffusion-free; returns max grid |u|.

        With S = u u^T - b b^T and w = u1 b2 - u2 b1, the curl of
        -div S is k1 k2 (S22 - S11) + (k1^2 - k2^2) S12, the tendency of
        omega = |k|^2 psi, and the induction term curl(u x b) = grad_perp w
        has the potential w.
        """
        m = self.grid.resolution
        c, prod, tmp = self._spec, self._prod, self._tmp
        np.multiply(self.perp, z[0], out=c[:2])
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


def _cross_potential(half: _HalfSpectrum, a: SpectralField2D, b: SpectralField2D) -> np.ndarray:
    """curl X / |k|^2 for X = (a . grad) b + (b . grad) a: the stream function
    of the solenoidal part of X, formed on the grid without dealiasing, with
    k = 0 and the Nyquist lines dropped.

    For divergence-free a, b, X = div S with S = a b^T + b a^T, and
    curl div S = k1 k2 (S11 - S22) - (k1^2 - k2^2) S12.
    """
    g = half.grid
    a1, a2, b1, b2 = g.to_grid(np.concatenate([half.perp * a.psi, half.perp * b.psi]))
    s = g.from_grid(np.stack([2.0 * (a1 * b1 - a2 * b2), a1 * b2 + a2 * b1]))
    cross = (half.k1 * half.k2 * s[0] - (half.k1**2 - half.k2**2) * s[1]) * half.inv_ksq
    cross[g.nyquist_mask] = 0.0
    return cross


class _Forcing:
    """f1(t), f2(t) as their stream functions on the half-spectrum.

    Only the curl of f1 acts on the vorticity (the pressure absorbs the
    rest), so f1 enters the equation of psi as curl f1 / |k|^2, the stream
    function of its solenoidal part; f2 enters that of a as its stream
    function.
    """

    def __init__(self, spec: ForcingSpec, half: _HalfSpectrum, eta: float):
        grid = half.grid
        self.eta = eta
        self._static: np.ndarray | None = None
        self._cross: np.ndarray | None = None
        self._nsq = self._n2sq = 0.0
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
            # f2 = small is static; f1 is the time-dependent cross term alone
            self._static = half.from_fields(zero_field(grid), small)
            self._cross = _cross_potential(half, big, small)

    def add_to(self, out: np.ndarray, t: float) -> None:
        """Add the stream functions of f1(t) and f2(t) to the tendencies out."""
        if self._cross is not None:
            c1, c2 = forced_time_coefficients(self.eta, self._nsq, self._n2sq, t)
            out += self._static
            out[0] += (-c1 * c2) * self._cross


def nonlinear_rhs(state: MHDState, dealias: bool = True) -> tuple[SpectralField2D, SpectralField2D]:
    """Nonlinear spectral tendencies of (u, b); diffusion and forcing excluded."""
    half = _HalfSpectrum(state.u.grid, dealias)
    dz = half.stages[0]
    half.rhs(half.from_fields(state.u, state.b), dz)
    view = half.to_state(dz, state.t)
    return view.u, view.b


def _exp_factors(cfg: SimConfig, half: _HalfSpectrum, h: float):
    """Integrating factors of (psi, a) over a full and a half step of size h."""
    visc = np.stack([cfg.nu * half.ksq, cfg.eta * half.ksq])
    return np.exp(-visc * h), np.exp(-visc * (0.5 * h))


class _CflTally:
    """The steps of one run whose CFL number reached 0.5, and the worst of them."""

    def __init__(self):
        self.over = 0
        self.worst = 0.0

    def add(self, cfl: float) -> None:
        self.over += 1
        self.worst = max(self.worst, cfl)

    def summary(self, n_steps: int | None = None) -> str:
        of = "" if n_steps is None else f" of {n_steps}"
        return f"CFL number >= 0.5 on {self.over}{of} steps, at worst {self.worst:.3g}"


def _step(z, t: float, h: float, half: _HalfSpectrum, forcing: _Forcing, exps,
          cfl_tally: _CflTally) -> np.ndarray:
    """One integrating-factor RK4 step of (psi, a); z itself is left as it is.

    A step whose CFL number, from max |u| at its start, is 0.5 or more is
    added to cfl_tally.
    """
    e_f, e_h = exps
    n1, n2, n3, n4, zs = half.stages

    def rhs(zz, tt, out):
        umax = half.rhs(zz, out)
        forcing.add_to(out, tt)
        return umax

    umax = rhs(z, t, n1)
    cfl = h * umax * half.grid.resolution / (2.0 * np.pi)
    if cfl >= 0.5:
        cfl_tally.add(cfl)
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
    """Advance one time step of size cfg.dt: simulate up to state.t + cfg.dt."""
    return simulate(dataclasses.replace(cfg, t_end=state.t + cfg.dt), state)


def simulate(cfg: SimConfig, initial: MHDState, sinks=()) -> MHDState:
    """Advance to cfg.t_end, emitting states to sinks at the output cadence.

    The final step is shortened to land exactly on t_end. Sinks are callables
    receiving an MHDState; they fire at the initial state, every
    cfg.output_cadence-th step, and the final state. On blow-up the last good
    state is flushed before the error propagates. Steps whose CFL number
    reaches 0.5 are summed up in one logged warning at the end of the run,
    or in the message of the blow-up error.
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
    tally = _CflTally()
    t = t0
    try:
        # a state that blows up overflows in the products of the RHS; the
        # finite check after each step reports it as one BlowUpError
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_full):
                z = _step(z, t, cfg.dt, half, forcing, exps, tally)
                t = t0 + (i + 1) * cfg.dt
                if (i + 1) % cfg.output_cadence == 0 and not (i + 1 == n_full and leftover == 0.0):
                    emit(half.to_state(z, t))
            if leftover > 0.0:
                z = _step(z, t, leftover, half, forcing, _exp_factors(cfg, half, leftover), tally)
    except BlowUpError as exc:
        emit(half.to_state(z, t))  # flush the last good state before propagating
        if tally.over:
            raise BlowUpError(exc.time, tally.summary()) from None
        raise
    if tally.over:
        log.warning("%s; the time step under-resolves advection",
                    tally.summary(n_full + (leftover > 0.0)))
    return emit(half.to_state(z, cfg.t_end))


def heat_propagate(f: SpectralField2D, eta: float, t: float) -> SpectralField2D:
    """Apply the diffusion semigroup exp(eta t Lap): multiply by exp(-eta |k|^2 t)."""
    if t < 0:
        raise ConfigurationError("heat_propagate requires t >= 0")
    return SpectralField2D(f.grid, f.psi * np.exp(-eta * f.grid.ksq * t))


@dataclass
class Trajectory:
    """Uniform-cadence snapshots of a run, as recorded by TrajectoryRecorder."""

    cfg: SimConfig
    times: list[float] = field(default_factory=list)
    states: list[MHDState] = field(default_factory=list)

    def state_at(self, t: float) -> MHDState:
        """The snapshot at time t, matched to within 1e-9."""
        for st in self.states:
            if abs(st.t - t) <= 1e-9:
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
    return 0.5 * (l2_inner(state.u, state.u) + l2_inner(state.b, state.b))


def cross_helicity(state: MHDState) -> float:
    """int u . b dx."""
    return l2_inner(state.u, state.b)
