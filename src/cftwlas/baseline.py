"""Gauss-Newton iterative estimator over the same two-way TOA residuals.

The comparison method: plain undamped Gauss-Newton on the weighted residuals,
requiring an initial guess. Velocity, offset, and drift are initialized to
zero; only the position is seeded (optionally perturbed from truth for
initialization-sensitivity studies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import jacobian, predict_measurements
from .errors import GeometryError
from .estimator import _check_sizes, compute_residuals
from .scenario import AnchorSet, MeasurementSet, NoiseSpec, UdState


@dataclass(frozen=True)
class IterationTrace:
    """Weighted costs of one Gauss-Newton run, initial state first."""

    costs: tuple[float, ...]
    converged: bool
    iterations_used: int
    diverged: bool = False


def make_initializer(
    truth: UdState, pos_std: float, rng: np.random.Generator
) -> UdState:
    """Initial guess: truth position plus isotropic Gaussian noise, zero dynamics."""
    pos = truth.pos + rng.normal(0.0, pos_std, size=truth.ndim)
    return UdState(pos, np.zeros(truth.ndim), 0.0, 0.0)


def gauss_newton(
    meas: MeasurementSet,
    anchors: AnchorSet,
    noise: NoiseSpec,
    init: UdState,
    max_iter: int = 20,
    tol: float = 1e-4,
) -> tuple[UdState, IterationTrace]:
    """Iterate theta <- theta + (J'WJ)^-1 J'W (gamma - h(theta)).

    Stops when the update norm drops below ``tol`` (meters; ``tol=0`` disables
    early stopping) or after ``max_iter`` iterations. A singular normal matrix
    or a non-finite iterate sets the diverged flag and returns the last valid
    iterate. No damping or line search is applied, so divergence is recorded,
    not repaired. Inputs whose sizes disagree raise ConfigurationError; an
    iterate (the initial guess included) on an anchor raises GeometryError from
    the cost evaluation.
    """
    _check_sizes(meas, anchors, noise)
    gamma = meas.stacked()
    w = noise.weights()
    state = init
    costs = [compute_residuals(init, meas, anchors, noise).weighted_cost]
    converged = False
    diverged = False
    iterations_used = 0

    for _ in range(max_iter):
        try:
            jac = jacobian(state, anchors)
            residual = gamma - predict_measurements(state, anchors)
        except GeometryError:
            diverged = True
            break
        jt_w = jac.T * w
        try:
            delta = np.linalg.solve(jt_w @ jac, jt_w @ residual)
        except np.linalg.LinAlgError:
            diverged = True
            break
        theta = state.as_vector() + delta
        if not np.isfinite(theta).all():
            diverged = True
            break
        iterations_used += 1
        state = UdState.from_vector(theta)
        costs.append(compute_residuals(state, meas, anchors, noise).weighted_cost)
        if np.linalg.norm(delta) < tol:
            converged = True
            break

    trace = IterationTrace(
        costs=tuple(costs),
        converged=converged,
        iterations_used=iterations_used,
        diverged=diverged,
    )
    return state, trace
