"""Closed forms that only the tests check the program against.

The time derivative of the forced construction's magnetic field and the
bound shapes of the Duhamel integrals; no run of the program needs them.
"""

import numpy as np

from mhdrecon.fields import ConfigurationError, SpectralField2D, TorusGrid, make_taylor
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
