import numpy as np
import pytest
from hypothesis import settings

from mhdrecon.fields import SpectralField2D, TorusGrid
from mhdrecon.scenarios import ExperimentConfig, run_frozen_in
from mhdrecon.solver import _HalfSpectrum

# Property tests draw the same examples on every host and run, and keep no
# example database between runs.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


# the frozen-in scenario at desk scale: M = 64 up to t = 0.1, ten snapshot intervals
FROZEN_IN_MINI = ExperimentConfig.for_scenario(
    "frozen-in", resolution=64, dt=2e-3, t_end=0.1, output_cadence=10)


@pytest.fixture(scope="session")
def frozen_in_mini(tmp_path_factory):
    """(report, output directory) of one FROZEN_IN_MINI run."""
    out = tmp_path_factory.mktemp("frozen_in_mini")
    return run_frozen_in(FROZEN_IN_MINI, out), out


@pytest.fixture(scope="session")
def frozen_in_default():
    """The report of one frozen-in run at its default config (M = 128)."""
    return run_frozen_in(ExperimentConfig.for_scenario("frozen-in"))


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


def nonlinear_tendencies(state):
    """The nonlinear tendencies of (u, b) as fields, from _HalfSpectrum.rhs;
    diffusion and forcing excluded."""
    half = _HalfSpectrum(state.u.grid)
    out = np.empty_like(half.stages[0])
    half.rhs(half.from_fields(state.u, state.b), out)
    view = half.to_state(out, state.t)
    return view.u, view.b
