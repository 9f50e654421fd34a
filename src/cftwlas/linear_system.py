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
from .scenario import AnchorSet, MeasurementSet, _check_sizes

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


@lru_cache(maxsize=8)
def constraint_matrices(ndim: int) -> np.ndarray:
    """The two (2N+2)-square constraint matrices for dimension N as one
    (2, 2N+2, 2N+2) stack [h1, h2].

    For theta = [pos, vel, offset, drift]:
        theta' h1 theta = drift^2 - |vel|^2          (= lam1)
        theta' h2 theta = 2 (offset*drift - pos.vel) (= 2 lam2)

    Built once per dimension; the stack is read-only because every caller
    shares it.
    """
    if ndim < 1:
        raise ConfigurationError("dimension must be at least 1")
    n = ndim
    forms = np.zeros((2, 2 * n + 2, 2 * n + 2))
    forms[0] = np.diag(np.concatenate([np.zeros(n), -np.ones(n), [0.0, 1.0]]))
    forms[1, :n, n : 2 * n] = -np.eye(n)
    forms[1, n : 2 * n, :n] = -np.eye(n)
    forms[1, 2 * n, 2 * n + 1] = 1.0
    forms[1, 2 * n + 1, 2 * n] = 1.0
    forms.setflags(write=False)
    return forms


def build_systems(
    request: np.ndarray,
    response: np.ndarray,
    anchors: AnchorSet,
    ref_index: int = 0,
):
    """Stacked linear systems of K measurement rows on one anchor geometry.

    ``request`` and ``response`` are (K, M) TOAs. Returns the (K, 2(M-1),
    2N+2) matrices A, the (K, 2(M-1), 3) right-hand sides [y, G], their
    (K, 2N+2, 3) least squares images [g, U] and a (K,) mask of the rows
    whose A keeps full column rank; the images of the other rows carry no
    meaning. Each row is solved through its own singular value
    decomposition, so a row's output does not depend on the other rows.
    Inputs are not validated here (``build_system`` does that).
    """
    rows = request.shape[0]
    geo = _geometry(
        anchors.positions.tobytes(), anchors.schedule.tobytes(), anchors.ndim, ref_index
    )
    k, n, r, idx = geo.k, anchors.ndim, ref_index, geo.others
    A = np.repeat(geo.A[None], rows, axis=0)
    rhs = np.repeat(geo.rhs[None], rows, axis=0)
    # The measurement columns: request rows on top of response rows.
    rho, rhoi = request[:, r, None], request[:, idx]
    tau, taui = response[:, r, None], response[:, idx]
    A[:, :k, 2 * n] = rhoi - rho
    A[:, k:, 2 * n] = tau - taui
    A[:, k:, 2 * n + 1] = geo.dt * tau - geo.dti * taui
    rhs[:, :k, 0] = 0.5 * (geo.q_diff - (rhoi**2 - rho**2))
    rhs[:, k:, 0] = 0.5 * (geo.q_diff - (taui**2 - tau**2))

    try:
        solution, full_rank = _solve(A, rhs)
    except np.linalg.LinAlgError:
        # A row whose decomposition fails (non-finite TOAs) has no solution.
        solution = np.full((rows, 2 * n + 2, 3), np.nan)
        full_rank = np.zeros(rows, dtype=bool)
        for row in range(rows):
            try:
                solution[row], full_rank[row] = _solve(A[row : row + 1], rhs[row : row + 1])
            except np.linalg.LinAlgError:
                pass
    return A, rhs, solution, full_rank


@dataclass(frozen=True)
class _Geometry:
    """The measurement-free part of the stacked system for one anchor layout
    and reference: A without its offset and drift columns, the right-hand
    side without y, and what the measurement columns need."""

    k: int
    others: np.ndarray
    A: np.ndarray
    rhs: np.ndarray
    dt: float
    dti: np.ndarray
    q_diff: np.ndarray


@lru_cache(maxsize=16)
def _geometry(positions: bytes, schedule: bytes, ndim: int, ref_index: int) -> _Geometry:
    """``_Geometry`` of an anchor layout, given as the bytes of its positions
    and schedule; campaigns reuse one layout for every run of a cell."""
    pos = np.frombuffer(positions).reshape(-1, ndim)
    sched = np.frombuffer(schedule)
    m, n, r = pos.shape[0], ndim, ref_index
    k = m - 1
    idx = np.array([i for i in range(m) if i != r])
    q, qi = pos[r], pos[idx]
    dt, dti = sched[r], sched[idx]
    q_sq = np.sum(pos**2, axis=1)
    A = np.zeros((2 * k, 2 * n + 2))
    rhs = np.zeros((2 * k, 3))
    dq = qi - q
    A[:k, :n] = dq
    A[k:, :n] = dq
    A[k:, n : 2 * n] = dti[:, None] * qi - dt * q
    rhs[k:, 1] = 0.5 * (dt**2 - dti**2)
    rhs[k:, 2] = dt - dti
    q_diff = q_sq[idx] - q_sq[r]
    for shared in (idx, A, rhs, dti, q_diff):
        shared.setflags(write=False)
    return _Geometry(k, idx, A, rhs, float(dt), dti, q_diff)


def _solve(A: np.ndarray, rhs: np.ndarray):
    """Least squares images of stacked right-hand sides and the rank mask.

    A = W diag(s) V', so the images are V diag(1/s) W' rhs; the singular
    values decide the rank check.
    """
    w, s, vt = np.linalg.svd(A, full_matrices=False)
    with np.errstate(all="ignore"):
        scaled = np.matmul(w.transpose(0, 2, 1), rhs) / s[:, :, None]
    full_rank = (s[:, 0] > 0.0) & (s[:, -1] >= _RANK_RTOL * s[:, 0])
    return np.matmul(vt.transpose(0, 2, 1), scaled), full_rank


def build_system(
    meas: MeasurementSet,
    anchors: AnchorSet,
    ref_index: int = 0,
) -> LinearSystem:
    """Assemble the collective linear system from (possibly noisy) TOAs.

    The one-row case of ``build_systems``. Differencing uses the anchor at
    ``ref_index`` as reference; a near-collinear reference degrades
    conditioning, hence the knob. Raises DegenerateGeometryError when the
    smallest singular value of A falls below ``_RANK_RTOL`` times the largest
    (per-parameter observability is lost, as when the device sits at the
    center of a 4-anchor square with zero velocity) or the TOAs are not
    finite.
    """
    _check_sizes(anchors, meas)
    m, n = anchors.count, anchors.ndim
    if m < n + 2:
        raise ConfigurationError(
            f"need at least {n + 2} anchors for {n}-D estimation, got {m}"
        )
    if not 0 <= ref_index < m:
        raise ConfigurationError(f"reference index {ref_index} out of range")
    A, rhs, solution, full_rank = build_systems(
        meas.request_toa[None], meas.response_toa[None], anchors, ref_index
    )
    if not full_rank[0]:
        raise DegenerateGeometryError(
            "linearized system is rank deficient for this geometry"
        )
    return LinearSystem(
        A=A[0], y=rhs[0, :, 0], G=rhs[0, :, 1:], g=solution[0, :, 0], U=solution[0, :, 1:]
    )
