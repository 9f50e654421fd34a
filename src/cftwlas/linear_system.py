"""Linearization of the two-way TOA equations.

Squaring each TOA equation and differencing against a reference anchor removes
the shared quadratic term and yields a system that is linear in the device
parameters once two auxiliary variables are introduced:

    lam1 = drift^2 - |vel|^2        lam2 = offset*drift - pos.vel

The system reads ``A @ theta = y + G @ [lam1, lam2]`` with one request row and
one response row per non-reference anchor. ``g`` and ``U`` are the least
squares images of ``y`` and ``G``, so that ``theta = g + U @ lam`` for any
auxiliary pair consistent with the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateGeometryError
from .scenario import AnchorSet, MeasurementSet

# A smallest-to-largest singular value ratio of A below this is rank loss.
_RANK_RTOL = 1e-9


@dataclass(frozen=True)
class LinearSystem:
    """Collective linear form of the squared-and-differenced TOA equations.

    Attributes:
        A: (2(M-1), 2N+2) coefficient matrix (request rows stacked on
            response rows).
        y: (2(M-1),) right-hand side.
        G: (2(M-1), 2) map from the auxiliary pair to the right-hand side;
            the request block is identically zero.
        g: (2N+2,) least squares solution of ``A g = y``.
        U: (2N+2, 2) least squares solution of ``A U = G``.
    """

    A: np.ndarray
    y: np.ndarray
    G: np.ndarray
    g: np.ndarray
    U: np.ndarray

    @property
    def ndim(self) -> int:
        return (self.A.shape[1] - 2) // 2


@dataclass(frozen=True)
class ConstraintMatrices:
    """Quadratic forms tying the parameter vector to the auxiliary pair.

    For theta = [pos, vel, offset, drift]:
        theta' h1 theta = drift^2 - |vel|^2          (= lam1)
        theta' h2 theta = 2 (offset*drift - pos.vel) (= 2 lam2)
    """

    h1: np.ndarray
    h2: np.ndarray


def constraint_matrices(ndim: int) -> ConstraintMatrices:
    """Build the two (2N+2)-square constraint matrices for dimension N."""
    if ndim < 1:
        raise ConfigurationError("dimension must be at least 1")
    n = ndim
    h1 = np.diag(np.concatenate([np.zeros(n), -np.ones(n), [0.0, 1.0]]))
    h2 = np.zeros((2 * n + 2, 2 * n + 2))
    h2[:n, n : 2 * n] = -np.eye(n)
    h2[n : 2 * n, :n] = -np.eye(n)
    h2[2 * n, 2 * n + 1] = 1.0
    h2[2 * n + 1, 2 * n] = 1.0
    return ConstraintMatrices(h1, h2)


def build_system(
    meas: MeasurementSet,
    anchors: AnchorSet,
    ref_index: int = 0,
) -> LinearSystem:
    """Assemble the collective linear system from (possibly noisy) TOAs.

    Differencing uses the anchor at ``ref_index`` as reference; a
    near-collinear reference degrades conditioning, hence the knob. Raises
    DegenerateGeometryError when the smallest singular value of A falls below
    ``_RANK_RTOL`` times the largest (per-parameter observability is lost, as
    when the device sits at the center of a 4-anchor square with zero
    velocity).
    """
    m, n = anchors.count, anchors.ndim
    if meas.count != m:
        raise ConfigurationError("measurement and anchor counts differ")
    if m < n + 2:
        raise ConfigurationError(
            f"need at least {n + 2} anchors for {n}-D estimation, got {m}"
        )
    if not 0 <= ref_index < m:
        raise ConfigurationError(f"reference index {ref_index} out of range")

    q = anchors.positions
    dt = anchors.schedule
    rho = meas.request_toa
    tau = meas.response_toa
    idx = np.array([i for i in range(m) if i != ref_index])
    r = ref_index

    dq = q[idx] - q[r]
    zeros_col = np.zeros((m - 1, 1))
    a_request = np.hstack(
        [dq, np.zeros((m - 1, n)), (rho[idx] - rho[r])[:, None], zeros_col]
    )
    a_response = np.hstack(
        [
            dq,
            dt[idx, None] * q[idx] - dt[r] * q[r],
            (tau[r] - tau[idx])[:, None],
            (dt[r] * tau[r] - dt[idx] * tau[idx])[:, None],
        ]
    )
    q_sq = np.sum(q**2, axis=1)
    y_request = 0.5 * (q_sq[idx] - q_sq[r] - (rho[idx] ** 2 - rho[r] ** 2))
    y_response = 0.5 * (q_sq[idx] - q_sq[r] - (tau[idx] ** 2 - tau[r] ** 2))
    g_response = np.column_stack([0.5 * (dt[r] ** 2 - dt[idx] ** 2), dt[r] - dt[idx]])

    A = np.vstack([a_request, a_response])
    y = np.concatenate([y_request, y_response])
    G = np.vstack([np.zeros((m - 1, 2)), g_response])

    svals = np.linalg.svd(A, compute_uv=False)
    if svals[0] <= 0.0 or svals[-1] < _RANK_RTOL * svals[0]:
        raise DegenerateGeometryError(
            "linearized system is rank deficient for this geometry"
        )

    solution, *_ = np.linalg.lstsq(A, np.column_stack([y, G]), rcond=None)
    return LinearSystem(A=A, y=y, G=G, g=solution[:, 0], U=solution[:, 1:])
