"""Gauss-Newton iterative estimator over the same two-way TOA residuals.

The comparison method: plain undamped Gauss-Newton on the weighted residuals,
requiring an initial guess. Velocity, offset, and drift are initialized to
zero; only the position is seeded (optionally perturbed from truth for
initialization-sensitivity studies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# bench/spans.py rebinds jacobian, predict_measurements and compute_residuals
# here, so those names stay importable.
from .analysis import _evaluate, _jacobians, jacobian, predict_measurements  # noqa: F401
from .errors import GeometryError
from .estimator import _check_sizes, _wls_step, compute_residuals  # noqa: F401
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
    early stopping) or after ``max_iter`` iterations. Each step is the
    refinement's ``_wls_step`` on a batch of one. A singular normal matrix
    gives a NaN step; a non-finite iterate sets the diverged flag and returns
    the last valid iterate. No damping or line search is applied, so
    divergence is recorded, not repaired. Inputs whose sizes disagree raise
    ConfigurationError; an iterate (the initial guess included) on an anchor
    raises GeometryError from the cost evaluation.
    """
    _check_sizes(meas, anchors, noise)
    gamma = meas.stacked()[None]
    w = noise.weights()[None]
    ok = np.ones(1, dtype=bool)
    theta = init.as_vector()[None]
    costs = []
    converged = False
    diverged = False
    iterations_used = 0

    while True:
        ranges, model = _evaluate(theta, anchors)
        if ranges[4][0]:
            raise GeometryError("state coincides with an anchor")
        residual = gamma - model
        costs.append(float(residual[0] @ (w[0] * residual[0])))
        if converged or iterations_used >= max_iter:
            break
        delta = _wls_step(_jacobians(*ranges[:4], anchors), residual, w, ok)[0]
        step = theta + delta
        if not np.isfinite(step).all():
            diverged = True
            break
        theta = step
        iterations_used += 1
        converged = bool(np.linalg.norm(delta[0]) < tol)

    trace = IterationTrace(
        costs=tuple(costs),
        converged=converged,
        iterations_used=iterations_used,
        diverged=diverged,
    )
    return UdState.from_vector(theta[0]), trace
