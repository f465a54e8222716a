"""Closed-form reference solutions and decay envelopes.

These are the ground truths the solver and the scripted scenarios are checked
against: the forced solution

    b(t) = e^{-eta N^2 t} T_nm + ((1 - e^{-eta N2^2 t}) / (eta N2^2)) T_{N2}

(ForcedOracle; with tilde T_1 in place of T_{N2}, the variant of Remark 2;
the solver applies the force it describes when it is SimConfig.forcing), and
the decay-envelope shape of the stability estimate (with every unquantified
constant set to 1; the envelope is used for rate and shape comparisons only,
never for pointwise domination claims). The unforced reference of the
stability run, (0, e^{-eta N^2 t} N^-1 T_nm), is the heat flow of its datum,
solver.heat_propagate.
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
)


@dataclass(frozen=True)
class ForcedOracle:
    """Exact solution of the forced system with magnetic forcing by a small mode.

    The small mode is T_{N2} for spec_2, or tilde T_1 (N2^2 = 1) when spec_2 is
    None, the variant of Remark 2. The triple (0, b(t), P(t)) solves the
    forced equations when the magnetic force is the small mode and the
    velocity force is -c1(t) c2(t) [(T_nm . grad) T_{N2} + (T_{N2} . grad) T_nm],
    the term that cancels the advective cross term of b(t). This is the one
    description of the forced construction: as SimConfig.forcing it is the
    force the solver applies.
    """

    spec_nm: TaylorSpec
    spec_2: TaylorSpec | None
    eta: float

    def __post_init__(self):
        if self.n2sq >= self.spec_nm.eigenvalue:
            raise ConfigurationError("ForcedOracle requires N2^2 < N^2")
        if self.eta <= 0:
            raise ConfigurationError("ForcedOracle requires eta > 0")

    @property
    def n2sq(self) -> float:
        """N2^2, the eigenvalue of the small mode."""
        return 1.0 if self.spec_2 is None else self.spec_2.eigenvalue

    def small_mode(self, grid: TorusGrid) -> SpectralField2D:
        """The magnetic forcing: T_{N2}, or tilde T_1 when spec_2 is None."""
        return make_tilde_t1(grid) if self.spec_2 is None else make_taylor(self.spec_2, 1.0, grid)

    def coefficients(self, t: float) -> tuple[float, float]:
        """Time coefficients of T_nm and the small mode in the closed form:
        (c1, c2) = (e^{-eta N^2 t}, (1 - e^{-eta N2^2 t}) / (eta N2^2))."""
        c1 = float(np.exp(-self.eta * self.spec_nm.eigenvalue * t))
        c2 = float(-np.expm1(-self.n2sq * self.eta * t) / (self.eta * self.n2sq))
        return c1, c2


def forced_exact_b(oracle: ForcedOracle, t: float, grid: TorusGrid) -> SpectralField2D:
    """The closed-form magnetic field of the forced construction at time t."""
    if t < 0:
        raise ConfigurationError("oracle time must be >= 0")
    c1, c2 = oracle.coefficients(t)
    return c1 * make_taylor(oracle.spec_nm, 1.0, grid) + c2 * oracle.small_mode(grid)


def stability_envelope(delta: float, n_scale: float, r: int, sigma: float, t: float) -> float:
    """The decay shape delta^2 N^{2r} e^{-2 sigma t} (untestable constant omitted)."""
    if t < 0:
        raise ConfigurationError("envelope time must be >= 0")
    return float(delta**2 * n_scale ** (2 * r) * np.exp(-2.0 * sigma * t))


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


def remark2_exact_error(
    spec_nm: TaylorSpec, r: int, eta: float, t_end: float, grid: TorusGrid
) -> float:
    """|| eta b(T) - tilde T_1 ||_{H^r} evaluated from the closed form of Remark 2."""
    b = forced_exact_b(ForcedOracle(spec_nm, None, eta), t_end, grid)
    return sobolev_norm(eta * b - make_tilde_t1(grid), r)
