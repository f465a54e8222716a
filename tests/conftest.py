import numpy as np
import pytest
from hypothesis import settings

from mhdrecon.fields import SpectralField2D, TorusGrid, leray_project

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
    """Deterministic band-limited divergence-free zero-average field."""
    rng = np.random.default_rng(seed)
    shape = (2, grid.resolution, grid.resolution)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    band = (np.abs(grid.k1) <= kmax) & (np.abs(grid.k2) <= kmax)
    c *= band
    c = grid.hermitianize(c)
    c[:, 0, 0] = 0.0
    return leray_project(c, grid)
