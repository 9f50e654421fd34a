"""Measurement model, Jacobians, estimation bounds and flop models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateGeometryError, GeometryError
from .scenario import MIN_RANGE, AnchorSet, NoiseSpec, UdState, _check_sizes


def _ranges(pos: np.ndarray, vel: np.ndarray, anchors: AnchorSet):
    """Device-to-anchor vectors and ranges of K states.

    ``pos`` and ``vel`` are (K, N). Returns the (K, N, M) vectors, one
    coordinate per middle index, and (K, M) ranges at the request and
    reception instants, and a (K,) mask of the states that sit on an anchor,
    where direction vectors are undefined.
    """
    diff0 = anchors._positions_t - pos[:, :, None]
    # The summed squares, in the order np.linalg.norm(axis=-1) adds them.
    d0 = np.sqrt(np.add.reduce(diff0 * diff0, axis=1))
    diff1 = diff0 - anchors.schedule * vel[:, :, None]
    d1 = np.sqrt(np.add.reduce(diff1 * diff1, axis=1))
    on_anchor = np.minimum(d0, d1).min(axis=1) < MIN_RANGE
    return diff0, d0, diff1, d1, on_anchor


def _evaluate(thetas: np.ndarray, anchors: AnchorSet):
    """The package's one measurement model, on K parameter vectors (K, 2N+2).

    Returns ``_ranges`` (the on-anchor mask last) and the (K, 2M) stacked
    [requests, responses] model rows; a row on an anchor carries no meaning.
    Synthesis, candidate scoring, residuals, refinement and Gauss-Newton all
    read it.
    """
    n = anchors.ndim
    ranges = _ranges(thetas[:, :n], thetas[:, n : 2 * n], anchors)
    offset, drift = thetas[:, 2 * n, None], thetas[:, 2 * n + 1, None]
    request = ranges[1] - offset
    response = ranges[3] + offset + drift * anchors.schedule
    return ranges, np.concatenate([request, response], axis=1)


def _jacobians(diff0, d0, diff1, d1, anchors: AnchorSet) -> np.ndarray:
    """The (K, 2M, 2N+2) Jacobians of K states from their ranges.

    Request rows are [-e_i, 0, -1, 0] with e_i the unit vector from the
    device to anchor i at the request instant; response rows are
    [-l_i, -l_i*dt_i, 1, dt_i] with l_i the unit vector at the reception
    instant.
    """
    m, n = anchors.count, anchors.ndim
    template = anchors._jacobian_template
    jac = np.empty((d0.shape[0], *template.shape))
    jac[...] = template
    # -(a / b) and a / -b are the same double, so -e and -l are written in
    # place from the negated ranges, through views with the (K, N, M) layout
    # of the vectors.
    np.divide(diff0, -d0[:, None, :], out=jac[:, :m, :n].transpose(0, 2, 1))
    np.divide(diff1, -d1[:, None, :], out=jac[:, m:, :n].transpose(0, 2, 1))
    np.multiply(jac[:, m:, :n], anchors.schedule[:, None], out=jac[:, m:, n : 2 * n])
    return jac


def predict_measurements(state: UdState, anchors: AnchorSet) -> np.ndarray:
    """Noise-free stacked measurement vector [requests, responses] at a state;
    the K=1 case of ``_evaluate``. Raises ConfigurationError for a state
    whose dimension is not the anchors' and GeometryError for a state on an
    anchor."""
    _check_sizes(anchors, state=state)
    ranges, rows = _evaluate(state.as_vector()[None], anchors)
    if ranges[4][0]:
        raise GeometryError("state coincides with an anchor")
    return rows[0]


def jacobian(state: UdState, anchors: AnchorSet) -> np.ndarray:
    """Derivative of the stacked measurement vector in the parameter vector;
    the K=1 case of ``_jacobians``. Raises ConfigurationError for a state
    whose dimension is not the anchors' and GeometryError for a state on an
    anchor."""
    _check_sizes(anchors, state=state)
    ranges = _ranges(state.pos[None], state.vel[None], anchors)
    if ranges[4][0]:
        raise GeometryError("state coincides with an anchor")
    return _jacobians(*ranges[:4], anchors)[0]


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
    the inverse-variance weight matrix. A state dimension or request sigma
    count that is not the anchors' raises ConfigurationError.
    """
    _check_sizes(anchors, noise=noise)
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
    n, diag = anchors.ndim, bound.diagonal()
    # numpy's sums, the bits of np.trace; sum() of floats compensates from 3.12.
    pos, vel = diag[: 2 * n].reshape(2, n).sum(axis=1).tolist()
    blocks = BlockValues(pos, vel, *diag[2 * n :].tolist())
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
