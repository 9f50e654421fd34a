"""Closed-form two-way TOA localization and synchronization (CFTWLAS).

The pipeline has three stages: build the squared-and-differenced linear
system, solve the bivariate quadratic system for the auxiliary pair and map
each real root back to a parameter vector (raw estimation, picking the
candidate with the smallest weighted residual cost), then apply a single
weighted least squares step linearized at the raw estimate (refinement). The
refinement also yields the error covariance (J' W J)^-1 at the final
linearization point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import jacobian, predict_measurements
from .errors import ConfigurationError, GeometryError
from .linear_system import build_system
from .polysolve import AuxiliaryPair, coefficients_from_system, solve_pair_detailed
from .scenario import AnchorSet, MeasurementSet, NoiseSpec, UdState


@dataclass(frozen=True)
class Residuals:
    """Measurement residuals of a state and their weighted quadratic cost."""

    request: np.ndarray
    response: np.ndarray
    weighted_cost: float


@dataclass(frozen=True)
class Candidate:
    """One auxiliary-pair root with its mapped state and selection cost."""

    pair: AuxiliaryPair
    state: UdState
    weighted_cost: float
    from_fallback: bool = False


@dataclass
class EstimateFlags:
    degenerate_geometry: bool = False
    no_real_root_fallback: bool = False
    refinement_singular: bool = False


@dataclass(frozen=True)
class EstimateReport:
    """Full output of one estimation call.

    ``refined`` is present exactly when neither ``degenerate_geometry`` nor
    ``refinement_singular`` is set; ``raw`` survives a singular refinement as
    the best effort. ``refinement_cov`` is (J' W J)^-1 at the last
    linearization point.
    """

    raw: UdState | None
    refined: UdState | None
    candidates: tuple[Candidate, ...]
    refinement_cov: np.ndarray | None
    flags: EstimateFlags = field(default_factory=EstimateFlags)


def _check_sizes(meas: MeasurementSet, anchors: AnchorSet, noise: NoiseSpec) -> None:
    """Reject inputs whose anchor, measurement and noise counts differ."""
    if not anchors.count == meas.count == noise.count:
        raise ConfigurationError(
            f"{anchors.count} anchors, {meas.count} measurement pairs and "
            f"{noise.count} request sigmas: the three counts must match"
        )


def compute_residuals(
    state: UdState, meas: MeasurementSet, anchors: AnchorSet, noise: NoiseSpec
) -> Residuals:
    """Residuals of the measurements against a candidate state."""
    stacked = meas.stacked() - predict_measurements(state, anchors)
    cost = float(stacked @ (noise.weights() * stacked))
    return Residuals(stacked[: meas.count], stacked[meas.count :], cost)


def raw_estimate(
    meas: MeasurementSet,
    anchors: AnchorSet,
    noise: NoiseSpec,
    ref_index: int = 0,
) -> tuple[UdState, list[Candidate]]:
    """Closed-form raw estimate with candidate selection.

    Every real root of the auxiliary system yields a candidate state, as does
    the real part of every complex conjugate root pair (noise routinely pushes
    the meaningful intersection slightly off the real axis, leaving only
    spurious real roots). The candidate minimizing the weighted residual cost
    wins, ties broken by the smaller parameter norm; complex-seeded candidates
    are marked ``from_fallback``.

    Raises DegenerateGeometryError for rank-deficient geometry and
    GeometryError when no usable candidate exists at all.
    """
    system = build_system(meas, anchors, ref_index=ref_index)
    q1, q2 = coefficients_from_system(system)
    solution = solve_pair_detailed(q1, q2)

    def realize(pair: AuxiliaryPair, fallback: bool) -> Candidate | None:
        theta = system.g + system.U @ [pair.lam1, pair.lam2]
        if not np.isfinite(theta).all():
            return None
        state = UdState.from_vector(theta)
        try:
            cost = compute_residuals(state, meas, anchors, noise).weighted_cost
        except GeometryError:
            return None
        if not np.isfinite(cost):
            return None
        return Candidate(pair, state, cost, from_fallback=fallback)

    candidates = [
        cand
        for pair in solution.pairs
        if (cand := realize(pair, fallback=False)) is not None
    ]
    candidates.extend(
        cand
        for seed in solution.complex_pairs
        if (cand := realize(seed.pair, fallback=True)) is not None
    )
    if not candidates:
        raise GeometryError("no usable raw-estimate candidate")

    best = min(
        candidates,
        key=lambda c: (c.weighted_cost, float(np.linalg.norm(c.state.as_vector()))),
    )
    return best.state, candidates


def wls_refine(
    raw: UdState,
    meas: MeasurementSet,
    anchors: AnchorSet,
    noise: NoiseSpec,
    steps: int = 1,
) -> tuple[UdState, np.ndarray | None]:
    """Weighted least squares refinement of a raw estimate.

    Each step linearizes the measurement function at the current state and
    applies one WLS correction. Returns the refined state and (J' W J)^-1
    evaluated at the final linearization point; on a singular normal matrix
    the raw state comes back with covariance None.
    """
    state = raw
    gamma = meas.stacked()
    w = noise.weights()
    normal = None
    for _ in range(steps):
        try:
            jac = jacobian(state, anchors)
            residual = gamma - predict_measurements(state, anchors)
        except GeometryError:
            return raw, None
        jt_w = jac.T * w
        normal = jt_w @ jac
        try:
            delta = np.linalg.solve(normal, jt_w @ residual)
        except np.linalg.LinAlgError:
            return raw, None
        theta = state.as_vector() + delta
        if not np.isfinite(theta).all():
            return raw, None
        state = UdState.from_vector(theta)
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        return raw, None
    if not np.isfinite(cov).all():
        return raw, None
    return state, cov


def estimate(
    meas: MeasurementSet,
    anchors: AnchorSet,
    noise: NoiseSpec,
    refine_steps: int = 1,
    ref_index: int = 0,
) -> EstimateReport:
    """Run the full pipeline, mapping failures to flags instead of raising.

    Inputs whose sizes disagree raise ConfigurationError.
    """
    _check_sizes(meas, anchors, noise)
    flags = EstimateFlags()
    try:
        raw, candidates = raw_estimate(meas, anchors, noise, ref_index=ref_index)
    except GeometryError:
        flags.degenerate_geometry = True
        return EstimateReport(None, None, (), None, flags)
    flags.no_real_root_fallback = all(c.from_fallback for c in candidates)

    refined, cov = wls_refine(raw, meas, anchors, noise, steps=refine_steps)
    if cov is None:
        flags.refinement_singular = True
        return EstimateReport(raw, None, tuple(candidates), None, flags)
    return EstimateReport(raw, refined, tuple(candidates), cov, flags)
