"""Closed forms and plain formulas that only the tests check the program against.

The time derivative of the forced construction's magnetic field, the bound
shapes of the Duhamel integrals, and the direct forms of two topology
kernels: the Fourier-l1 sums over the stack of the five series, and the
sign-change mask from the min and max of the four corners of each cell. No
run of the program needs them.
"""

import numpy as np

from mhdrecon.fields import (
    ConfigurationError,
    SpectralField2D,
    TorusGrid,
    _series,
    make_taylor,
)
from mhdrecon.oracles import ForcedOracle


def forced_exact_b_dt(oracle: ForcedOracle, t: float, grid: TorusGrid) -> SpectralField2D:
    """Analytic time derivative of oracles.forced_exact_b (for residual checks)."""
    nsq = oracle.spec_nm.eigenvalue
    d1 = -oracle.eta * nsq * float(np.exp(-oracle.eta * nsq * t))
    d2 = float(np.exp(-oracle.n2sq * oracle.eta * t))
    return d1 * make_taylor(oracle.spec_nm, 1.0, grid) + d2 * oracle.small_mode(grid)


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


def fourier_l1_pair(f: SpectralField2D) -> tuple[float, float]:
    """fields.sup_field_and_gradient as the sums sum_k w(k) |s(k)| over the
    (5, M, M/2 + 1) stack of the series s of fields._series."""
    g = f.grid
    sums = np.sum(g.multiplicity * np.abs(_series(g.k1, g.k2, f.psi)), axis=(-2, -1))
    return float(sums[:2].max()), float(sums[2:].max())


def sign_change_mask(vals: np.ndarray) -> np.ndarray:
    """Cells (i, j) of a periodic lattice in which a component of vals (2, M, M)
    changes sign: the least of the four corner values is <= 0 and the largest
    is >= 0."""
    mask = np.zeros(vals.shape[1:], dtype=bool)
    for comp in vals:
        corners = np.stack(
            [comp, np.roll(comp, -1, 0), np.roll(comp, -1, 1), np.roll(np.roll(comp, -1, 0), -1, 1)]
        )
        mask |= (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)
    return mask
