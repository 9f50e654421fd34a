"""Closed-form two-way TOA localization and synchronization (CFTWLAS).

The pipeline has three stages: build the squared-and-differenced linear
system, solve the bivariate quadratic system for the auxiliary pair and map
each real root back to a parameter vector (raw estimation, picking the
candidate with the smallest weighted residual cost), then apply a single
weighted least squares step linearized at the raw estimate (refinement). The
refinement also yields the error covariance (J' W J)^-1 at the final
linearization point.

Every stage is a stacked kernel over K measurement rows that share one anchor
geometry, and a row's output does not depend on the other rows of its batch.
``estimate_batch`` runs them on many rows at once; ``estimate`` and the
functions it calls through this module (``raw_estimate``, ``wls_refine`` and
the solver stages) are their one-row case and build the report objects. The
kernels leave floating-point warnings to their caller: ``estimate_batch``
turns them off once for its whole chain, and each one-row stage once for its
own kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import _evaluate, _jacobians, jacobian, predict_measurements
from .errors import ConfigurationError, GeometryError
from .linear_system import _solve_stack, build_system, build_systems
from .polysolve import (
    AuxiliaryPair,
    coefficients_from_system,
    quadratic_coefficients,
    solve_pair_detailed,
    solve_pairs,
)
from .scenario import AnchorSet, MeasurementSet, NoiseSpec, UdState, _check_sizes


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


def compute_residuals(
    state: UdState, meas: MeasurementSet, anchors: AnchorSet, noise: NoiseSpec
) -> Residuals:
    """Residuals of the measurements against a candidate state."""
    stacked = meas.stacked() - predict_measurements(state, anchors)
    cost = float(stacked @ (noise.weights() * stacked))
    return Residuals(stacked[: meas.count], stacked[meas.count :], cost)


def _candidate_states(g: np.ndarray, U: np.ndarray, lam: np.ndarray):
    """Parameter vectors ``g + U lam`` (K, S, 2N+2) of a (K, S, 2) table of
    pairs ``lam``."""
    return g[:, None] + np.matmul(U[:, None], lam[:, :, :, None])[..., 0]


def _score(thetas, gamma, weights, anchors: AnchorSet):
    """Weighted residual cost of every slot of K rows' (K, S, P) candidate
    table and each row's winner.

    One model evaluation scores every slot; a slot that is empty (NaN), not
    finite, sits on an anchor or has a non-finite cost is unusable. The
    lowest cost wins; among equal costs the smaller parameter norm, then the
    lower slot. A row without a usable slot gets -1. Returns the (K, S)
    costs (inf where unusable) and usable mask, the (K,) intp winners and
    the model ranges and rows of the K S slots, flat in row order.
    """
    rows, slots, p = thetas.shape
    ranges, model = _evaluate(thetas.reshape(-1, p), anchors)
    residuals = gamma[:, None] - model.reshape(rows, slots, gamma.shape[1])
    weighted = weights[:, None] * residuals
    # r @ (w * r) per slot, as compute_residuals evaluates it.
    cost = np.matmul(residuals[..., None, :], weighted[..., None])[..., 0, 0]
    on_anchor = ranges[4].reshape(rows, slots)
    usable = np.isfinite(thetas).all(axis=2) & ~on_anchor & np.isfinite(cost)
    cost = np.where(usable, cost, np.inf)
    tied = cost == cost.min(axis=1, keepdims=True)
    norm = np.where(tied, np.square(thetas).sum(axis=2), np.inf)
    winner = np.where(usable.any(axis=1), norm.argmin(axis=1), -1)
    return cost, usable, winner, ranges, model


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise ConfigurationError(f"refinement needs at least 1 step, got {steps}")


def _refine(thetas, jac, model, gamma, weights, steps: int, anchors: AnchorSet):
    """WLS refinement of R raw states given their Jacobians and model rows.

    Each step applies one ``_wls_step`` linearized at the current state.
    Returns the refined states, (J' W J)^-1 at the last linearization point
    and the mask of the rows whose refinement held: a state on an anchor, a
    singular normal matrix or a non-finite result fails a row, whose outputs
    are then NaN.
    """
    ok = np.ones(thetas.shape[0], dtype=bool)
    state = thetas
    for step in range(steps):
        if step:
            ranges, model = _evaluate(state, anchors)
            ok &= ~ranges[4]
            jac = _jacobians(*ranges[:4], anchors)
        delta, normal = _wls_step(jac, gamma - model, weights, ok)
        state = state + delta
    cov = _solve_stack(np.linalg.inv, (normal,), ok)
    # A state that went non-finite stays so through later steps.
    ok &= np.isfinite(state).all(axis=1) & np.isfinite(cov).all(axis=(1, 2))
    if not ok.all():
        state[~ok] = np.nan
        cov[~ok] = np.nan
    return state, cov, ok


def _wls_step(jac, residual, weights, ok):
    """One weighted least squares correction (J'WJ)^-1 J'W r of K rows from
    their (K, 2M, P) Jacobians, (K, 2M) residuals and weights.

    Returns the (K, P) corrections and the (K, P, P) normal matrices; a
    singular row's correction is NaN and the row leaves ``ok`` (None keeps
    every row). Refinement and Gauss-Newton both step through it.
    """
    jt_w = (jac * weights[:, :, None]).transpose(0, 2, 1)
    normal = np.matmul(jt_w, jac)
    rhs = np.matmul(jt_w, residual[:, :, None])
    return _solve_stack(np.linalg.solve, (normal, rhs), ok)[:, :, 0], normal


def raw_estimate(
    meas: MeasurementSet,
    anchors: AnchorSet,
    noise: NoiseSpec,
) -> tuple[UdState, list[Candidate]]:
    """Closed-form raw estimate with candidate selection.

    Each root of the auxiliary system's resultant yields at most one
    candidate state (``solve_pair_detailed``): a real root its solution, and
    a complex conjugate pair, or a real root that no seed solves, the real
    part of its projection (noise routinely pushes the meaningful
    intersection slightly off the real axis, leaving only spurious real
    roots). The candidate minimizing the weighted residual cost wins, ties
    broken by the smaller parameter norm, then the earlier candidate;
    projected candidates are marked ``from_fallback``.

    Raises DegenerateGeometryError for rank-deficient geometry and
    GeometryError when no usable candidate exists at all.
    """
    system = build_system(meas, anchors)
    q1, q2 = coefficients_from_system(system)
    solution = solve_pair_detailed(q1, q2)

    roots = [(pair, False) for pair in solution.pairs]
    roots.extend((seed.pair, True) for seed in solution.complex_pairs)
    if not roots:
        raise GeometryError("no usable raw-estimate candidate")
    lam = np.array([[(p.lam1, p.lam2) for p, _ in roots]], dtype=float)
    with np.errstate(all="ignore"):
        thetas = _candidate_states(system.g[None], system.U[None], lam)
        cost, usable, (winner,), _, _ = _score(
            thetas, meas.stacked()[None], noise.weights()[None], anchors
        )
    candidates = []
    best = None
    for i, ((pair, fallback), keep) in enumerate(zip(roots, usable[0].tolist())):
        if keep:
            state = UdState.from_vector(thetas[0, i])
            candidate = Candidate(pair, state, float(cost[0, i]), from_fallback=fallback)
            candidates.append(candidate)
            if i == winner:
                best = state
    if best is None:
        raise GeometryError("no usable raw-estimate candidate")
    return best, candidates


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
    the raw state comes back with covariance None. Fewer than one step raises
    ConfigurationError.
    """
    _check_steps(steps)
    try:
        jac = jacobian(raw, anchors)
        model = predict_measurements(raw, anchors)
    except GeometryError:
        return raw, None
    with np.errstate(all="ignore"):
        refined, cov, ok = _refine(
            raw.as_vector()[None],
            jac[None],
            model[None],
            meas.stacked()[None],
            noise.weights()[None],
            steps,
            anchors,
        )
    if not ok[0]:
        return raw, None
    return UdState.from_vector(refined[0]), cov[0]


@dataclass(frozen=True)
class BatchEstimate:
    """Closed-form estimates of K measurement rows on one anchor geometry.

    ``raw`` and ``refined`` are (K, 2N+2) parameter vectors, NaN where
    ``estimate`` would report None. The (K,) flags mean what EstimateFlags
    says. ``candidates`` counts each row's usable slots of the ``solve_pairs``
    table, at most four, as ``len(estimate(...).candidates)``: a real double
    root counts twice, as its two solutions at one x, or as its one solution
    and its projection.
    """

    raw: np.ndarray
    refined: np.ndarray
    degenerate: np.ndarray
    no_real_root: np.ndarray
    refine_singular: np.ndarray
    candidates: np.ndarray


def estimate_batch(
    gamma: np.ndarray,
    weights: np.ndarray,
    anchors: AnchorSet,
    refine_steps: int = 1,
) -> BatchEstimate:
    """``estimate`` for K rows of (K, 2M) stacked [requests, responses] TOAs
    with their (K, 2M) weights, through the same kernels; row k of the result
    equals, bit for bit, what ``estimate`` reports for row k alone. TOAs or
    weights of another shape raise ConfigurationError."""
    _check_steps(refine_steps)
    rows, m, p = gamma.shape[0], anchors.count, 2 * anchors.ndim + 2
    if gamma.shape != (rows, 2 * m) or weights.shape != gamma.shape:
        raise ConfigurationError(
            f"{gamma.shape} TOAs and {weights.shape} weights on {m} anchors: "
            f"both must be (K, {2 * m})"
        )
    with np.errstate(all="ignore"):
        _, _, solution, full_rank = build_systems(gamma[:, :m], gamma[:, m:], anchors)
        solved = np.flatnonzero(full_rank)
        g, U = solution[solved, :, 0], solution[solved, :, 1:]
        lam, _, projected, _ = solve_pairs(quadratic_coefficients(g, U, anchors.ndim))
        thetas = _candidate_states(g, U, lam)
        _, usable, winner, ranges, model = _score(thetas, gamma[solved], weights[solved], anchors)
        won = np.flatnonzero(winner >= 0)
        pick = won * lam.shape[1] + winner[won]
        raw_won = thetas.reshape(-1, p)[pick]
        row = solved[won]
        jac = _jacobians(*(r[pick] for r in ranges[:4]), anchors)
        refined_won, _, ok = _refine(
            raw_won, jac, model[pick], gamma[row], weights[row], refine_steps, anchors
        )
    candidates = np.zeros(rows, dtype=np.intp)
    candidates[solved] = usable.sum(axis=1)
    real = np.zeros(rows, dtype=np.intp)
    real[solved] = (usable & ~projected).sum(axis=1)
    raw = np.full((rows, p), np.nan)
    raw[row] = raw_won
    refined = np.full((rows, p), np.nan)
    refined[row] = refined_won
    degenerate = np.ones(rows, dtype=bool)
    degenerate[row] = False
    refine_singular = np.zeros(rows, dtype=bool)
    refine_singular[row] = ~ok
    return BatchEstimate(
        raw=raw,
        refined=refined,
        degenerate=degenerate,
        no_real_root=~degenerate & (real == 0),
        refine_singular=refine_singular,
        candidates=candidates,
    )


def estimate(
    meas: MeasurementSet,
    anchors: AnchorSet,
    noise: NoiseSpec,
    refine_steps: int = 1,
) -> EstimateReport:
    """Run the full pipeline, mapping failures to flags instead of raising.

    Inputs whose sizes disagree and fewer than one refinement step raise
    ConfigurationError.
    """
    _check_sizes(anchors, meas, noise)
    _check_steps(refine_steps)
    flags = EstimateFlags()
    try:
        raw, candidates = raw_estimate(meas, anchors, noise)
    except GeometryError:
        flags.degenerate_geometry = True
        return EstimateReport(None, None, (), None, flags)
    flags.no_real_root_fallback = all(c.from_fallback for c in candidates)

    refined, cov = wls_refine(raw, meas, anchors, noise, steps=refine_steps)
    if cov is None:
        flags.refinement_singular = True
        return EstimateReport(raw, None, tuple(candidates), None, flags)
    return EstimateReport(raw, refined, tuple(candidates), cov, flags)
