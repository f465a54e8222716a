import numpy as np
import pytest
from hypothesis import settings

from mhdrecon.fields import SpectralField2D, TorusGrid

# Property tests draw the same examples on every host and run, and keep no
# example database between runs.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def grid32() -> TorusGrid:
    return TorusGrid(32)


@pytest.fixture(scope="session")
def grid64() -> TorusGrid:
    return TorusGrid(64)


def random_divergence_free(grid: TorusGrid, kmax: int, seed: int) -> SpectralField2D:
    """Deterministic band-limited divergence-free zero-average field: the
    field of a random real stream function, with components of unit size per mode."""
    rng = np.random.default_rng(seed)
    psi = grid.from_grid(rng.standard_normal(grid.shape)) * grid.resolution
    band = (np.abs(grid.k1) <= kmax) & (grid.k2 <= kmax)
    return SpectralField2D(grid, psi * band * np.sqrt(grid.inv_ksq))
