"""Closed-form two-way TOA localization and synchronization (CFTWLAS).

Joint estimation of position, velocity, clock offset, and clock drift of a
moving device from paired request/response TOA measurements against fixed
anchors, plus a Gauss-Newton baseline, estimation-bound analysis, and a
reproducible Monte-Carlo campaign harness.
"""

__version__ = "0.1.0"

from .analysis import (
    BlockValues,
    CrlbResult,
    crlb,
    flops_cftwlas,
    flops_iterative_per_iter,
    jacobian,
    predict_measurements,
)
from .baseline import IterationTrace, gauss_newton, make_initializer
from .errors import ConfigurationError, DegenerateGeometryError, GeometryError
from .estimator import (
    Candidate,
    EstimateFlags,
    EstimateReport,
    Residuals,
    compute_residuals,
    estimate,
    raw_estimate,
    wls_refine,
)
from .linear_system import (
    ConstraintMatrices,
    LinearSystem,
    build_system,
    constraint_matrices,
)
from .montecarlo import (
    CampaignConfig,
    CampaignStats,
    CellStats,
    MethodSpec,
    benchmark_config,
    run_campaign,
)
from .polysolve import (
    AuxiliaryPair,
    BivariateQuadratic,
    BivariateSolution,
    coefficients_from_system,
    solve_pair,
    solve_pair_detailed,
)
from .scenario import (
    SPEED_OF_LIGHT,
    AnchorSet,
    MeasurementSet,
    NoiseSpec,
    UdState,
    add_noise,
    build_square_scenario,
    forward_model,
    noise_for_snr,
    sample_ud_state,
    sigma_from_snr,
)
