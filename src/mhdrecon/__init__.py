"""Pseudo-spectral 2D incompressible MHD with magnetic-line topology analysis."""

from .fields import (
    ConfigurationError,
    SpectralField2D,
    TaylorSpec,
    TorusGrid,
    c1_norm,
    l2_norm,
    make_taylor,
    make_tilde_t1,
    sobolev_norm,
    zero_field,
)
from .oracles import ForcedOracle
from .scenarios import ExperimentConfig, Report, load_config, run_scenario
from .solver import (
    BlowUpError,
    MHDState,
    SimConfig,
    heat_propagate,
    simulate,
)
from .topology import (
    CriticalPoint,
    TopologySignature,
    detect_saddle_connections,
    extract_signature,
    find_critical_points,
    flow_map,
    signatures_equivalent,
    trace_integral_line,
    verify_frozen_in,
)

__all__ = [
    "BlowUpError",
    "ConfigurationError",
    "CriticalPoint",
    "ExperimentConfig",
    "ForcedOracle",
    "MHDState",
    "Report",
    "SimConfig",
    "SpectralField2D",
    "TaylorSpec",
    "TopologySignature",
    "TorusGrid",
    "c1_norm",
    "detect_saddle_connections",
    "extract_signature",
    "find_critical_points",
    "flow_map",
    "heat_propagate",
    "l2_norm",
    "load_config",
    "make_taylor",
    "make_tilde_t1",
    "run_scenario",
    "signatures_equivalent",
    "simulate",
    "sobolev_norm",
    "trace_integral_line",
    "verify_frozen_in",
    "zero_field",
]
__version__ = "0.1.0"
