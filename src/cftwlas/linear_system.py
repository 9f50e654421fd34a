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
from functools import lru_cache

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


@lru_cache(maxsize=8)
def constraint_matrices(ndim: int) -> ConstraintMatrices:
    """The two (2N+2)-square constraint matrices for dimension N.

    Built once per dimension; the arrays are read-only because every caller
    shares them.
    """
    if ndim < 1:
        raise ConfigurationError("dimension must be at least 1")
    n = ndim
    h1 = np.diag(np.concatenate([np.zeros(n), -np.ones(n), [0.0, 1.0]]))
    h2 = np.zeros((2 * n + 2, 2 * n + 2))
    h2[:n, n : 2 * n] = -np.eye(n)
    h2[n : 2 * n, :n] = -np.eye(n)
    h2[2 * n, 2 * n + 1] = 1.0
    h2[2 * n + 1, 2 * n] = 1.0
    h1.setflags(write=False)
    h2.setflags(write=False)
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

    # Reference anchor r, the others in order.
    r = ref_index
    idx = np.array([i for i in range(m) if i != r])
    q, qi = anchors.positions[r], anchors.positions[idx]
    dt, dti = anchors.schedule[r], anchors.schedule[idx]
    rho, rhoi = meas.request_toa[r], meas.request_toa[idx]
    tau, taui = meas.response_toa[r], meas.response_toa[idx]
    q_sq = np.sum(anchors.positions**2, axis=1)
    q_sq, q_sqi = q_sq[r], q_sq[idx]

    # Request rows on top of response rows; the right-hand sides y and G are
    # the columns of ``rhs``.
    k = m - 1
    A = np.zeros((2 * k, 2 * n + 2))
    rhs = np.zeros((2 * k, 3))
    dq = qi - q
    A[:k, :n] = dq
    A[:k, 2 * n] = rhoi - rho
    A[k:, :n] = dq
    A[k:, n : 2 * n] = dti[:, None] * qi - dt * q
    A[k:, 2 * n] = tau - taui
    A[k:, 2 * n + 1] = dt * tau - dti * taui
    rhs[:k, 0] = 0.5 * (q_sqi - q_sq - (rhoi**2 - rho**2))
    rhs[k:, 0] = 0.5 * (q_sqi - q_sq - (taui**2 - tau**2))
    rhs[k:, 1] = 0.5 * (dt**2 - dti**2)
    rhs[k:, 2] = dt - dti
    y, G = rhs[:, 0], rhs[:, 1:]

    # The least squares solve also returns the singular values of A, which
    # decide the rank check.
    solution, _, _, svals = np.linalg.lstsq(A, rhs, rcond=None)
    if svals[0] <= 0.0 or svals[-1] < _RANK_RTOL * svals[0]:
        raise DegenerateGeometryError(
            "linearized system is rank deficient for this geometry"
        )
    return LinearSystem(A=A, y=y, G=G, g=solution[:, 0], U=solution[:, 1:])
