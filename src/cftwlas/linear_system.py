"""Linearization of the two-way TOA equations.

Squaring each TOA equation and differencing against a reference anchor removes
the shared quadratic term and yields a system that is linear in the device
parameters once two auxiliary variables are introduced:

    lam1 = drift^2 - |vel|^2        lam2 = offset*drift - pos.vel

The system reads ``A @ theta = y + G @ [lam1, lam2]`` with one request row and
one response row per non-reference anchor. ``g`` and ``U`` are the least
squares images of ``y`` and ``G``, so that ``theta = g + U @ lam`` for any
auxiliary pair consistent with the measurements.

Only the offset and drift columns of A and y depend on the measurements. The
other 2N columns are fixed by the anchor layout, which is factored once;
each measurement row then costs a projection and a 2-column factorization,
and a singular value decomposition only when a bound cannot settle its rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

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

    ``build_system`` solves both through the QR factorization of A that
    ``build_systems`` assembles, and tests A's rank on its singular values.
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
    meaning. Only the offset and drift columns of A and y depend on the
    measurements: the thin QR of the other 2N columns comes with the layout
    (``_geometry``), so each row projects its measurement columns and
    right-hand sides off that factor, factors the 2-column rest by modified
    Gram-Schmidt and back-substitutes. The rank test reads s_min / s_max of
    A. 1 / (|A|_F |R^-1|_F), R the assembled triangular factor, bounds it
    from below and clears a row without LAPACK; a row it cannot clear takes
    a values-only singular value decomposition of A, and a row whose A is
    not finite fails. Every step is per row, so a row's output does not
    depend on the other rows. Inputs are not validated here (``build_system``
    does that), and floating-point errors are left to the caller's
    ``np.errstate``: a huge finite TOA overflows, and its row fails the rank
    test.
    """
    rows = request.shape[0]
    geo = _geometry(
        anchors.positions.tobytes(), anchors.schedule.tobytes(), anchors.ndim, ref_index
    )
    k2, n = 2 * geo.k, anchors.ndim
    p = 2 * n + 2
    # [A | y, G] of every row over two constant rows; A and the right-hand
    # sides are views of it. The offset and drift columns are linear in the
    # TOAs and y in their squares: request rows on top of response rows.
    toa = np.concatenate((request, response), axis=1)[:, None]
    ext = np.repeat(geo.ext[None], rows, axis=0)
    ext[:, :k2, 2 * n : p] = np.matmul(toa, geo.linear).reshape(rows, k2, 2)
    ext[:, :k2, p] = geo.half_q + np.matmul(toa * toa, geo.square)[:, 0]
    # For x = ext[:, :, 2N:] = [c0, c1, y, G], z stacks the projection
    # (I - Q1 Q1') x off the fixed columns (2k rows) on F^+ x with -I under
    # c0 and c1 (2N + 2 rows). Modified Gram-Schmidt on the projected c0 and
    # c1, carried through every row of z, leaves the least squares images of
    # y and G in those last 2N + 2 rows.
    z = np.matmul(geo.project, ext[:, :, 2 * n :])
    t = np.matmul(z[:, :k2, :1].transpose(0, 2, 1), z[:, :k2])
    z1 = z[:, :, 1:] - z[:, :, :1] * (t[:, :, 1:] / t[:, :, :1])
    v = np.matmul(z1[:, :k2, :1].transpose(0, 2, 1), z1[:, :k2])
    solution = z1[:, k2:, 1:] - z1[:, k2:, :1] * (v[:, :, 1:] / v[:, :, :1])
    # |R^-1|_F^2 is |R1^-1|_F^2 plus that of the measurement columns of
    # R^-1: the last rows of z's c0 over r11 and of z1's c1 over r22, with
    # r11^2 = t0 and r22^2 = v0.
    w0, w1 = z[:, k2:, 0], z1[:, k2:, 0]
    inv_sq = geo.r1_inv_sq + (
        np.add.reduce(w0 * w0, axis=1) / t[:, 0, 0] + np.add.reduce(w1 * w1, axis=1) / v[:, 0, 0]
    )
    cols = ext[:, :k2, 2 * n : p]
    a_sq = geo.f_sq + np.add.reduce((cols * cols).reshape(rows, -1), axis=1)
    # A NaN bound (a zero or non-finite pivot) never clears a row.
    full_rank = a_sq * inv_sq <= _RANK_RTOL**-2
    A = ext[:, :k2, :p]
    if False in full_rank.tolist():
        exact = np.flatnonzero(~full_rank)
        exact = exact[np.isfinite(A[exact]).all(axis=(1, 2))]
        if exact.size:
            s = _solve_stack(partial(np.linalg.svd, compute_uv=False), (A[exact],))
            # A NaN row (a failed decomposition) fails both tests.
            full_rank[exact] = (s[:, 0] > 0.0) & (s[:, -1] >= _RANK_RTOL * s[:, 0])
    return A, ext[:, :k2, p:], solution, full_rank


@dataclass(frozen=True)
class _Geometry:
    """The measurement-free part of the stacked systems of one anchor layout
    and reference.

    ``ext`` is [A | y, G] without the offset and drift columns and y, over
    two rows that hold the 2x2 identity under those two columns. ``linear`` (2M, 4k) maps
    the TOAs [requests, responses] to the offset and drift columns (row by
    row), and ``square`` (2M, 2k) their squares to y less ``half_q``. With
    F = Q1 R1 the thin QR of the 2N fixed columns of A, ``project`` is
    [[I - Q1 Q1', 0], [R1^-1 Q1', 0], [0, -I]], and ``f_sq`` and
    ``r1_inv_sq`` are |F|_F^2 and |R1^-1|_F^2. Where LAPACK cannot invert
    R1 they are NaN, and every row takes the exact rank test.
    """

    k: int
    ext: np.ndarray
    linear: np.ndarray
    square: np.ndarray
    half_q: np.ndarray
    project: np.ndarray
    f_sq: float
    r1_inv_sq: float


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
    ext = np.zeros((2 * k + 2, 2 * n + 5))
    dq = qi - q
    ext[:k, :n] = dq
    ext[k : 2 * k, :n] = dq
    ext[k : 2 * k, n : 2 * n] = dti[:, None] * qi - dt * q
    ext[k : 2 * k, 2 * n + 3] = 0.5 * (dt**2 - dti**2)
    ext[k : 2 * k, 2 * n + 4] = dt - dti
    ext[2 * k :, 2 * n : 2 * n + 2] = np.eye(2)
    rows = np.arange(k)
    # c0 = [rho_i - rho, tau - tau_i], c1 = [0, dt tau - dt_i tau_i] and
    # y = [q_diff - (rho_i^2 - rho^2), q_diff - (tau_i^2 - tau^2)] / 2.
    linear = np.zeros((2 * m, 2 * k, 2))
    linear[idx, rows, 0], linear[r, :k, 0] = 1.0, -1.0
    linear[m + r, k:, 0], linear[m + idx, k + rows, 0] = 1.0, -1.0
    linear[m + r, k:, 1], linear[m + idx, k + rows, 1] = dt, -dti
    square = np.zeros((2 * m, 2 * k))
    square[idx, rows], square[r, :k] = -0.5, 0.5
    square[m + idx, k + rows], square[m + r, k:] = -0.5, 0.5
    half_q = 0.5 * np.tile(q_sq[idx] - q_sq[r], 2)
    fixed = ext[: 2 * k, : 2 * n]
    q1, r1 = np.linalg.qr(fixed)
    try:
        r1_inv = np.linalg.inv(r1)
    except np.linalg.LinAlgError:
        r1_inv = np.full(r1.shape, np.nan)
    project = np.zeros((2 * k + 2 * n + 2, 2 * k + 2))
    project[: 2 * k, : 2 * k] = np.eye(2 * k) - q1 @ q1.T
    project[2 * k : 2 * k + 2 * n, : 2 * k] = r1_inv @ q1.T
    project[-2:, -2:] = -np.eye(2)
    linear = linear.reshape(2 * m, 4 * k)
    for shared in (ext, linear, square, half_q, project):
        shared.setflags(write=False)
    return _Geometry(
        k, ext, linear, square, half_q, project, float(np.sum(fixed**2)), float(np.sum(r1_inv**2))
    )


def _solve_stack(solve, args, ok=None):
    """``solve(*args)`` on the rows of the (K, ...) stacks ``args`` that the
    (K,) mask ``ok`` keeps, every row when ``ok`` is None. ``solve`` takes
    each row as its own LAPACK problem and returns an array
    (``np.linalg.solve``, ``np.linalg.inv``, ``np.linalg.svd`` of values).
    One stacked call takes the kept rows; where LAPACK rejects a stack, each
    half goes alone, down to single rows, so one rejected row among K > 1
    costs at most 1 + 2 ceil(log2 K) calls. A rejected row leaves ``ok``,
    and every row outside ``ok`` comes back NaN."""
    # None stands for every row as given; a stack LAPACK rejects is split.
    stacks, parts = [None if ok is None or False not in ok.tolist() else np.flatnonzero(ok)], []
    while stacks:
        rows = stacks.pop()
        try:
            out = solve(*(args if rows is None else (a[rows] for a in args)))
        except np.linalg.LinAlgError:
            rows = np.arange(len(args[0])) if rows is None else rows
            stacks += np.array_split(rows, 2)[::-1] if rows.size > 1 else []
            continue
        if rows is None:
            return out
        parts.append((rows, out))
    if not parts:  # every row rejected: a stack of none gives the shape
        parts.append((np.arange(0), solve(*(a[:0] for a in args))))
    if ok is not None:  # the rows LAPACK rejected leave the mask
        ok[:] = False
        ok[np.concatenate([rows for rows, _ in parts])] = True
    full = np.full((len(args[0]), *parts[0][1].shape[1:]), np.nan)
    for rows, out in parts:
        full[rows] = out
    return full


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
    with np.errstate(all="ignore"):
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
