"""Closed forms and plain formulas that only the tests check the program against.

The time derivative of the forced construction's magnetic field, the Duhamel
remainder of a run and the bound shapes of the Duhamel integrals, the direct
form of the Fourier-l1 sums over the stack of the five series, the sign-change
mask from the min and max of the four corners of each cell, and the bounds of
the critical-point search's exclusion test written out from the l1 sums,
the 2/3-rule mask of the half-spectrum and the Laplacian of a field. No run
of the program needs them.
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
from mhdrecon.solver import MHDState, heat_propagate


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


def dealias_mask(grid: TorusGrid) -> np.ndarray:
    """2/3-rule mask of the half-spectrum: True where max(|k1|, |k2|) <= M/3."""
    cut = grid.resolution / 3.0
    return (np.abs(grid.k1) <= cut) & (grid.k2 <= cut)


def laplacian(f: SpectralField2D) -> SpectralField2D:
    return SpectralField2D(f.grid, -f.grid.ksq * f.psi)


def fourier_l1_pair(f: SpectralField2D) -> tuple[float, float]:
    """fields.sup_field_and_gradient as the sums sum_k w(k) |s(k)| over the
    (5, M, M/2 + 1) stack of the series s of fields._series."""
    g = f.grid
    sums = np.sum(g.multiplicity * np.abs(_series(g.k1, g.k2, f.psi)), axis=(-2, -1))
    return float(sums[:2].max()), float(sums[2:].max())


def duhamel_remainder(trajectory: list[MHDState], eta: float) -> list[tuple[float, SpectralField2D]]:
    """D(t) = b(t) - exp(eta t Lap) b0 for every snapshot.

    This is the numerically exact total deviation of the magnetic field from
    pure heat evolution of its initial value.
    """
    if not trajectory:
        raise ValueError("trajectory has no snapshots; the initial state is required")
    b0 = trajectory[0].b
    t0 = trajectory[0].t
    out = []
    for st in trajectory:
        heated = heat_propagate(b0, eta, st.t - t0)
        out.append((st.t, st.b - heated))
    return out


def sign_change_mask(vals: np.ndarray) -> np.ndarray:
    """Cells (i, j) of a periodic lattice in which a component of vals (n, M, M)
    changes sign: the least of the four corner values is <= 0 and the largest
    is >= 0."""
    mask = np.zeros(vals.shape[1:], dtype=bool)
    for comp in vals:
        corners = np.stack(
            [comp, np.roll(comp, -1, 0), np.roll(comp, -1, 1), np.roll(np.roll(comp, -1, 0), -1, 1)]
        )
        mask |= (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)
    return mask


def grid_bounds(s: np.ndarray, r: float) -> tuple[float, float]:
    """How far f1 = d_y psi and f2 = -d_x psi can move from a point over the
    cell of half-width r (max norm) around it, from the l1 sums S[a, b] of
    fields.l1_sums: sup |grad f1|_1 <= S11 + S02 and sup |grad f2|_1 <= S20 + S11."""
    return (s[1, 1] + s[0, 2]) * r, (s[2, 0] + s[1, 1]) * r


def cell_bounds(jacs: np.ndarray, s: np.ndarray, r: float) -> np.ndarray:
    """The same from the Jacobians (P, 2, 2) at the cells' centres: the linear
    term |d_x f_i| r + |d_y f_i| r plus H_i r^2 / 2, where H_1 = S21 + 2 S12 +
    S03 and H_2 = S30 + 2 S21 + S12 bound the second derivatives. Shape (2, P)."""
    curve = np.array([[s[2, 1] + 2 * s[1, 2] + s[0, 3]], [s[3, 0] + 2 * s[2, 1] + s[1, 2]]])
    return np.abs(jacs).sum(axis=2).T * r + 0.5 * curve * r * r
