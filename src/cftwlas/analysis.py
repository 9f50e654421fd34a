"""Measurement model, Jacobians, estimation bounds, flop models, and per-run
block errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateGeometryError, GeometryError
from .scenario import AnchorSet, NoiseSpec, UdState

# Direction vectors are undefined below this range.
_MIN_RANGE = 1e-9


def _ranges(state: UdState, anchors: AnchorSet):
    """Device-to-anchor vectors and ranges at the request and reception instants."""
    diff0 = anchors.positions - state.pos
    d0 = np.linalg.norm(diff0, axis=1)
    diff1 = diff0 - np.outer(anchors.schedule, state.vel)
    d1 = np.linalg.norm(diff1, axis=1)
    if d0.min() < _MIN_RANGE or d1.min() < _MIN_RANGE:
        raise GeometryError("state coincides with an anchor")
    return diff0, d0, diff1, d1


def predict_measurements(state: UdState, anchors: AnchorSet) -> np.ndarray:
    """Noise-free stacked measurement vector [requests, responses] at a state.

    This is the package's one measurement model: synthesis, candidate
    residuals, refinement and Gauss-Newton all read it.
    """
    _, d_request, _, d_response = _ranges(state, anchors)
    request = d_request - state.offset
    response = d_response + state.offset + state.drift * anchors.schedule
    return np.concatenate([request, response])


def jacobian(state: UdState, anchors: AnchorSet) -> np.ndarray:
    """Derivative of the stacked measurement vector in the parameter vector.

    Request rows are [-e_i, 0, -1, 0] with e_i the unit vector from the device
    to anchor i at the request instant; response rows are
    [-l_i, -l_i*dt_i, 1, dt_i] with l_i the unit vector at the reception
    instant.
    """
    m, n = anchors.count, anchors.ndim
    diff0, d0, diff1, d1 = _ranges(state, anchors)
    e = diff0 / d0[:, None]
    l = diff1 / d1[:, None]

    jac = np.zeros((2 * m, 2 * n + 2))
    jac[:m, :n] = -e
    jac[:m, 2 * n] = -1.0
    jac[m:, :n] = -l
    jac[m:, n : 2 * n] = -l * anchors.schedule[:, None]
    jac[m:, 2 * n] = 1.0
    jac[m:, 2 * n + 1] = anchors.schedule
    return jac


@dataclass(frozen=True)
class BlockValues:
    """One scalar per parameter block (position, velocity, offset, drift)."""

    pos: float
    vel: float
    offset: float
    drift: float


@dataclass(frozen=True)
class CrlbResult:
    """Fisher information and its inverse, with per-block subtraces.

    ``blocks`` holds traces of the diagonal sub-blocks of the bound, so
    ``sqrt(blocks.pos)`` is the best achievable position RMSE at this state.
    """

    fisher: np.ndarray
    crlb: np.ndarray
    blocks: BlockValues


def crlb(state: UdState, anchors: AnchorSet, noise: NoiseSpec) -> CrlbResult:
    """Lower bound on the error covariance of any unbiased estimator.

    Computed as the inverse of J' W J with J evaluated at the true state and W
    the inverse-variance weight matrix.
    """
    jac = jacobian(state, anchors)
    w = noise.weights()
    fisher = jac.T @ (w[:, None] * jac)
    fisher = 0.5 * (fisher + fisher.T)
    try:
        bound = np.linalg.inv(fisher)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError("singular information matrix") from exc
    if not np.isfinite(bound).all():
        raise DegenerateGeometryError("singular information matrix")
    n = anchors.ndim
    blocks = BlockValues(
        pos=float(np.trace(bound[:n, :n])),
        vel=float(np.trace(bound[n : 2 * n, n : 2 * n])),
        offset=float(bound[2 * n, 2 * n]),
        drift=float(bound[2 * n + 1, 2 * n + 1]),
    )
    return CrlbResult(fisher=fisher, crlb=bound, blocks=blocks)


def _check_flop_args(ndim: int, an_count: int) -> None:
    if ndim < 1:
        raise ConfigurationError("dimension must be at least 1")
    if an_count < ndim + 2:
        raise ConfigurationError(f"need at least {ndim + 2} anchors")


def flops_cftwlas(ndim: int, an_count: int) -> int:
    """Flop count of one closed-form estimate (constant, no iterations)."""
    _check_flop_args(ndim, an_count)
    n, m = ndim, an_count
    return (
        32 * n**3 + 32 * n**2 * m + 104 * n**2 + 124 * n * m + 148 * n + 130 * m + 697
    )


def flops_iterative_per_iter(ndim: int, an_count: int) -> int:
    """Flop count of a single Gauss-Newton iteration on the same residuals."""
    _check_flop_args(ndim, an_count)
    n, m = ndim, an_count
    return 16 * n**3 + 16 * n**2 * m + 56 * n**2 + 44 * n * m + 64 * n + 32 * m + 24


def block_sq_errors(estimate: UdState, truth: UdState) -> BlockValues:
    """Squared error norms per parameter block."""
    return BlockValues(
        pos=float(np.sum((estimate.pos - truth.pos) ** 2)),
        vel=float(np.sum((estimate.vel - truth.vel) ** 2)),
        offset=float((estimate.offset - truth.offset) ** 2),
        drift=float((estimate.drift - truth.drift) ** 2),
    )
