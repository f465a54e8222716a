"""Closed-form reference solutions and decay envelopes.

These are the ground truths the solver and the scripted scenarios are checked
against: the decaying single-Taylor solution, the forced solution

    b(t) = e^{-eta N^2 t} T_nm + ((1 - e^{-eta N2^2 t}) / (eta N2^2)) T_{N2}

(the velocity force that keeps u = 0 for it is the solver's "theorem2"
forcing), and the decay-envelope shapes of the stability and Duhamel
estimates (with every unquantified constant set to 1; envelopes are used for
rate and shape comparisons only, never for pointwise domination claims).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    ConfigurationError,
    SpectralField2D,
    TaylorSpec,
    TorusGrid,
    make_taylor,
    make_tilde_t1,
    sobolev_norm,
    zero_field,
)
from .solver import MHDState, forced_time_coefficients

# sigma of the stability envelope as a fraction of min(nu, eta)
_SIGMA_SAFETY = 0.9


@dataclass(frozen=True)
class DecayingTaylorOracle:
    """Exact unforced solution (u, b) = (0, amplitude e^{-eta N^2 t} T_nm)."""

    spec: TaylorSpec
    eta: float
    amplitude: float = 1.0


@dataclass(frozen=True)
class ForcedOracle:
    """Exact solution of the forced system with magnetic forcing T_{N2}.

    The triple (0, b(t), P(t)) solves the forced equations when the velocity
    force is -c1(t) c2(t) [(T_nm . grad) T_{N2} + (T_{N2} . grad) T_nm], the
    term that cancels the advective cross term of b(t) (ForcingSpec "theorem2").
    """

    spec_nm: TaylorSpec
    spec_2: TaylorSpec
    eta: float

    def __post_init__(self):
        if self.spec_2.eigenvalue >= self.spec_nm.eigenvalue:
            raise ConfigurationError("ForcedOracle requires N2^2 < N^2")
        if self.eta <= 0:
            raise ConfigurationError("ForcedOracle requires eta > 0")

    def coefficients(self, t: float) -> tuple[float, float]:
        """Time coefficients (c1, c2) of T_nm and T_{N2} in the closed form."""
        return forced_time_coefficients(
            self.eta, self.spec_nm.eigenvalue, self.spec_2.eigenvalue, t
        )


@dataclass(frozen=True)
class StabilityBound:
    """Parameters of the perturbation-decay envelope delta^2 N^{2r} e^{-2 sigma t}.

    sigma must lie strictly below min(nu, eta) of the run it describes;
    for_run derives it as 0.9 min(nu, eta). gamma is the
    aggregate initial-energy constant (1 + sum of squared L2 norms of the
    four initial fields); it enters only the untestable constant and is
    carried for reporting.
    """

    sigma: float
    r: int
    delta: float
    n_scale: float
    gamma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if self.n_scale <= 0 or self.delta < 0:
            raise ConfigurationError("n_scale must be positive and delta >= 0")

    @classmethod
    def for_run(
        cls,
        nu: float,
        eta: float,
        r: int,
        delta: float,
        n_scale: float,
        gamma: float = 1.0,
    ) -> "StabilityBound":
        if min(nu, eta) <= 0:
            raise ConfigurationError("stability bound needs nu, eta > 0")
        return cls(sigma=_SIGMA_SAFETY * min(nu, eta), r=r, delta=delta, n_scale=n_scale, gamma=gamma)


def decaying_taylor(oracle: DecayingTaylorOracle, t: float, grid: TorusGrid) -> MHDState:
    """The exact state at time t: u = 0, b = amplitude e^{-eta N^2 t} T_nm."""
    if t < 0:
        raise ConfigurationError("oracle time must be >= 0")
    amp = oracle.amplitude * float(np.exp(-oracle.eta * oracle.spec.eigenvalue * t))
    return MHDState(zero_field(grid), make_taylor(oracle.spec, amp, grid), t)


def forced_exact_b(oracle: ForcedOracle, t: float, grid: TorusGrid) -> SpectralField2D:
    """The closed-form magnetic field of the forced construction at time t."""
    if t < 0:
        raise ConfigurationError("oracle time must be >= 0")
    c1, c2 = oracle.coefficients(t)
    big = make_taylor(oracle.spec_nm, 1.0, grid)
    small = make_taylor(oracle.spec_2, 1.0, grid)
    return c1 * big + c2 * small


def forced_exact_b_dt(oracle: ForcedOracle, t: float, grid: TorusGrid) -> SpectralField2D:
    """Analytic time derivative of forced_exact_b (for residual checks)."""
    nsq = oracle.spec_nm.eigenvalue
    n2sq = oracle.spec_2.eigenvalue
    d1 = -oracle.eta * nsq * float(np.exp(-oracle.eta * nsq * t))
    d2 = float(np.exp(-n2sq * oracle.eta * t))
    big = make_taylor(oracle.spec_nm, 1.0, grid)
    small = make_taylor(oracle.spec_2, 1.0, grid)
    return d1 * big + d2 * small


def stability_envelope(bound: StabilityBound, t: float) -> float:
    """The decay shape delta^2 N^{2r} e^{-2 sigma t} (untestable constant omitted)."""
    if t < 0:
        raise ConfigurationError("envelope time must be >= 0")
    return float(bound.delta**2 * bound.n_scale ** (2 * bound.r) * np.exp(-2.0 * bound.sigma * t))


def duhamel_envelopes(
    delta: float, n_scale: float, r: int, eta: float, sigma: float, t: float
) -> tuple[float, float]:
    """Bound shapes for the two Duhamel integrals, with constants set to 1.

    Returns (delta^2 N^{r+3} e^{-sigma t},
             delta N^{-2} + delta N^{r+1} e^{-eta N^2 t / 2}).
    """
    if min(delta, n_scale, eta, sigma) <= 0 or t < 0:
        raise ConfigurationError("duhamel_envelopes needs positive inputs and t >= 0")
    lh = delta**2 * n_scale ** (r + 3) * np.exp(-sigma * t)
    lm = delta * n_scale**-2 + delta * n_scale ** (r + 1) * np.exp(-eta * n_scale**2 * t / 2.0)
    return float(lh), float(lm)


def remark2_error_bound(eigenvalue: float, r: int, eta: float, t_end: float) -> float:
    """The displayed bound eta (N^r e^{-eta N^2 T} + e^{-eta T}) with N = sqrt(eigenvalue).

    This is the estimate as displayed, and the exact error exceeds it. It
    leaves out two norms: ||T_nm||_{H^r} / N^r (18.6 for T_44, r = 3) and
    ||tilde T_1||_{H^r} (14.05 for r = 3). It also puts a factor eta on the
    e^{-eta T} term, which the closed-form error does not carry. PAPER.md
    holds only the abstract, so it cannot settle whether that eta belongs to
    the paper's display or was added when the display was transcribed here.
    remark2_explicit_bound is the estimate with these constants written out.
    """
    if eigenvalue <= 0 or eta <= 0 or t_end <= 0:
        raise ConfigurationError("remark2_error_bound needs positive inputs")
    n = float(np.sqrt(eigenvalue))
    return float(eta * (n**r * np.exp(-eta * eigenvalue * t_end) + np.exp(-eta * t_end)))


def remark2_explicit_bound(
    spec_nm: TaylorSpec, r: int, eta: float, t_end: float, grid: TorusGrid
) -> float:
    """eta e^{-eta N^2 T} ||T_nm||_{H^r} + e^{-eta T} ||tilde T_1||_{H^r}.

    The triangle-inequality bound on || eta b(T) - tilde T_1 ||_{H^r}, with
    the norms of both fields in place of the constants the display omits.
    T_nm and tilde T_1 occupy disjoint wavenumber shells, so the exact error
    is the l2 sum of the two terms and lies between this bound / sqrt(2) and
    this bound.
    """
    if eta <= 0 or t_end <= 0:
        raise ConfigurationError("remark2_explicit_bound needs eta > 0 and t_end > 0")
    big = sobolev_norm(make_taylor(spec_nm, 1.0, grid), r)
    small = sobolev_norm(make_tilde_t1(grid), r)
    return float(
        eta * np.exp(-eta * spec_nm.eigenvalue * t_end) * big + np.exp(-eta * t_end) * small
    )


def remark2_exact_b(spec_nm: TaylorSpec, eta: float, t: float, grid: TorusGrid) -> SpectralField2D:
    """Closed-form field for the variant forced by tilde T_1 (eigenvalue 1):

    b(t) = e^{-eta N^2 t} T_nm + ((1 - e^{-eta t}) / eta) tilde T_1.
    """
    if eta <= 0 or t < 0:
        raise ConfigurationError("remark2_exact_b needs eta > 0 and t >= 0")
    c1, c2 = forced_time_coefficients(eta, spec_nm.eigenvalue, 1.0, t)
    big = make_taylor(spec_nm, 1.0, grid)
    small = make_tilde_t1(grid)
    return c1 * big + c2 * small


def remark2_exact_error(
    spec_nm: TaylorSpec, r: int, eta: float, t_end: float, grid: TorusGrid
) -> float:
    """|| eta b(T) - tilde T_1 ||_{H^r} evaluated from the closed form.

    The difference is eta e^{-eta N^2 T} T_nm - e^{-eta T} tilde T_1 exactly.
    """
    c1 = eta * float(np.exp(-eta * spec_nm.eigenvalue * t_end))
    c2 = -float(np.exp(-eta * t_end))
    big = make_taylor(spec_nm, 1.0, grid)
    small = make_tilde_t1(grid)
    return sobolev_norm(c1 * big + c2 * small, r)
