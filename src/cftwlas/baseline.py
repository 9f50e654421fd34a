"""Gauss-Newton iterative estimator over the same two-way TOA residuals.

The comparison method: plain undamped Gauss-Newton on the weighted residuals,
requiring an initial guess. Velocity, offset, and drift are initialized to
zero; only the position is seeded (optionally perturbed from truth for
initialization-sensitivity studies).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

# bench/spans.py rebinds jacobian, predict_measurements and compute_residuals
# here, so those names stay importable.
from .analysis import _evaluate, _jacobians, jacobian, predict_measurements  # noqa: F401
from .errors import ConfigurationError, GeometryError
from .estimator import _wls_step, compute_residuals  # noqa: F401
from .scenario import AnchorSet, MeasurementSet, NoiseSpec, UdState, _check_sizes


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


def _gauss_newton_batch(
    gamma, weights, thetas, anchors: AnchorSet, max_iter: int, tol: float
):
    """Gauss-Newton on K rows of (K, 2M) measurements and weights from their
    (K, 2N+2) initial parameter vectors, all on one anchor layout.

    Each step is the refinement's ``_wls_step`` on the rows still iterating;
    all of them have taken the same number of steps. A row stops when its
    iterate sits on an anchor, when its last update norm was below ``tol``
    or after ``max_iter`` steps, and diverges when its step is not finite (a
    singular normal matrix gives a NaN step); either way it leaves the stack.
    Row k's outputs do not depend on the other rows. Returns the final
    (K, 2N+2) states (the last finite iterate; NaN for an on-anchor row) and
    per-row lists: the tuple of weighted costs (initial state first, none
    for an on-anchor iterate), the iterations used and the converged,
    diverged and on-anchor flags.
    """
    rows = thetas.shape[0]
    states = np.empty(thetas.shape)
    costs = [[] for _ in range(rows)]
    iterations = [0] * rows
    converged = [False] * rows
    diverged = [False] * rows
    on_anchor = [False] * rows
    live = np.arange(rows)
    theta = thetas
    done = [False] * rows  # the last update norm was below tol
    for step in count():
        if not live.size:
            break
        ranges, model = _evaluate(theta, anchors)
        residual = gamma - model
        # r @ (w * r) and |delta| per row as stacked dot products: bit for
        # bit the one-row dot product and np.linalg.norm.
        cost = np.matmul(residual[:, None, :], (weights * residual)[:, :, None])
        anchor = ranges[4].tolist()
        for k, c, a in zip(live.tolist(), cost.ravel().tolist(), anchor):
            if not a:
                costs[k].append(c)
        if step >= max_iter or True in anchor or True in done:
            stop = [step >= max_iter or a or d for a, d in zip(anchor, done)]
            for j, (k, a, d, s) in enumerate(zip(live.tolist(), anchor, done, stop)):
                if s:
                    states[k] = np.nan if a else theta[j]
                    iterations[k], converged[k], on_anchor[k] = step, d and not a, a
            if False not in stop:
                break
            keep = ~np.array(stop)
            live, theta, gamma, weights, residual, *ranges = (
                x[keep] for x in (live, theta, gamma, weights, residual, *ranges)
            )
        # No row left is on an anchor: every row is ok for the step.
        jac = _jacobians(*ranges[:4], anchors)
        delta = _wls_step(jac, residual, weights, ~ranges[4])[0]
        nxt = theta + delta
        finite = np.isfinite(nxt).all(axis=1)
        if False in finite.tolist():
            for k in live[~finite].tolist():
                iterations[k], diverged[k] = step, True
            states[live[~finite]] = theta[~finite]
            live, nxt, gamma, weights, delta = (
                x[finite] for x in (live, nxt, gamma, weights, delta)
            )
        theta = nxt
        norm = np.sqrt(np.matmul(delta[:, None, :], delta[:, :, None]))
        done = (norm.ravel() < tol).tolist()
    costs = [tuple(c) for c in costs]
    return states, costs, iterations, converged, diverged, on_anchor


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
    early stopping) or after ``max_iter`` iterations. It is the batch of one
    of ``_gauss_newton_batch``, whose steps are the refinement's
    ``_wls_step``. A singular normal matrix gives a NaN step; a non-finite
    iterate sets the diverged flag and returns the last valid iterate. No
    damping or line search is applied, so divergence is recorded, not
    repaired. Inputs whose counts or dimensions disagree with the anchors',
    a negative ``max_iter`` and a negative or NaN ``tol`` raise
    ConfigurationError; an iterate (the initial guess included) on an anchor
    raises GeometryError.
    """
    _check_sizes(anchors, meas, noise, init)
    if max_iter < 0 or not tol >= 0.0:
        raise ConfigurationError(f"max_iter {max_iter} and tol {tol} must be >= 0")
    states, costs, iterations, converged, diverged, on_anchor = _gauss_newton_batch(
        meas.stacked()[None],
        noise.weights()[None],
        init.as_vector()[None],
        anchors,
        max_iter,
        tol,
    )
    if on_anchor[0]:
        raise GeometryError("state coincides with an anchor")
    trace = IterationTrace(costs[0], converged[0], iterations[0], diverged[0])
    return UdState.from_vector(states[0]), trace
