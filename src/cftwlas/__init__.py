"""Closed-form two-way TOA localization and synchronization (CFTWLAS).

Joint estimation of position, velocity, clock offset, and clock drift of a
moving device from paired request/response TOA measurements against fixed
anchors, plus a Gauss-Newton baseline, estimation-bound analysis, and a
reproducible Monte-Carlo campaign harness.
"""

__version__ = "0.1.0"

from .analysis import (
    crlb,
    flops_cftwlas,
    flops_iterative_per_iter,
    jacobian,
    predict_measurements,
)
from .baseline import gauss_newton, make_initializer
from .errors import ConfigurationError, DegenerateGeometryError, GeometryError
from .estimator import estimate
from .linear_system import build_system
from .montecarlo import CampaignConfig, MethodSpec, benchmark_config, run_campaign
from .scenario import (
    AnchorSet,
    MeasurementSet,
    NoiseSpec,
    UdState,
    add_noise,
    build_square_scenario,
    forward_model,
    noise_for_snr,
    sample_ud_state,
)
