"""Gauss-Newton iterative estimator over the same two-way TOA residuals.

The comparison method: plain undamped Gauss-Newton on the weighted residuals,
requiring an initial guess. Velocity, offset, and drift are initialized to
zero; only the position is seeded (optionally perturbed from truth for
initialization-sensitivity studies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# gauss_newton takes the residual and the Jacobian of a state from one
# _state_ranges pass; bench/spans.py rebinds jacobian, predict_measurements and
# compute_residuals here, so those names stay importable.
from .analysis import (  # noqa: F401
    _jacobians,
    _rows,
    _state_ranges,
    jacobian,
    predict_measurements,
)
from .estimator import _check_sizes, compute_residuals  # noqa: F401
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

    def evaluate(state: UdState):
        """Ranges, residual and weighted cost at a state, from one range pass;
        the same arithmetic as compute_residuals."""
        ranges = _state_ranges(state, anchors)
        model = _rows(ranges[1], ranges[3], state.offset, state.drift, anchors)[0]
        residual = gamma - model
        return ranges, residual, float(residual @ (w * residual))

    state = init
    ranges, residual, cost = evaluate(init)
    costs = [cost]
    converged = False
    diverged = False
    iterations_used = 0

    for _ in range(max_iter):
        jac = _jacobians(*ranges[:4], anchors)[0]
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
        ranges, residual, cost = evaluate(state)
        costs.append(cost)
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
