"""Analytic solution of two bivariate quadratic equations.

The auxiliary variables of the linearized TOA problem satisfy a pair of
quadratics

    a x^2 + b x y + c y^2 + d x + e y + f = 0

in x = lam1, y = lam2. y is eliminated through the classical resultant of
the two conics, giving a polynomial in x of degree at most four whose roots
are found via companion-matrix eigenvalues; y is back-substituted. Two
Newton steps on the 2x2 system and a normalized-residual test then polish
and check the real candidate pairs; the singular-Jacobian early stop and
the non-finite exit apply to each pair on its own. A real root's y seed is
-t1/t2; only where that is missing or fails the residual test do both
equations' y roots seed it. The accepted pairs are merged in seed order,
and by Bezout's bound at most four real pairs are kept.

``solve_pairs`` does this for K pairs at once, in one pass over stacked
arrays at every K: scale, eliminate, take the companion roots, keep the
distinct real ones, back-substitute into one (F, 5) seed table of the F kept
values, polish its cells, merge the passing ones and lay out the candidates
flat. Each pair's result depends on that pair alone: every array operation
is elementwise, acts on one pair's own matrix or, in the order-dependent
passes (``_cluster_rows``, ``_merge_pairs``, ``_distinct``), takes one
position at a time with each pair's own state. ``solve_pair_detailed`` is
the one-pair case on Python floats, from the normalization to the
projection dedupe; only the companion eigenvalues and the -t1/t2
projections at complex roots stay numpy calls, on the pair's own small
arrays. The y-elimination (``_y_elimination``, ``_conv``) is one code for
floats and arrays. Every other step has one array pass, which
``solve_pairs`` runs, and one loop on Python floats (``_scaled_pair``,
``_cluster``, ``_kept_root``, ``_polish_seed``, ``_insert_pair``), which
``solve_pair_detailed`` runs; the loop repeats the arithmetic of its array
pass in the same order, so both give the same bits.

Solutions can be many orders of magnitude larger than unity (the auxiliary
variables of the TOA problem reach 1e7) while the quadratic coefficients are
correspondingly tiny, which would make the resultant coefficients span the
whole double range. Each variable is therefore rescaled by a magnitude
estimate from the coefficient balances before elimination and scaled back
afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linear_system import constraint_matrices

# Coefficients this small relative to the equation scale are treated as zero.
_COEFF_ZERO_RTOL = 1e-12
# A univariate root counts as real when |imag| <= this times max(1, |real|).
_IMAG_RTOL = 1e-6
# Two pairs closer than this (relative) are the same solution.
_DEDUPE_RTOL = 1e-7
# A polished pair is a solution when its normalized residual is at most this.
_RESIDUAL_RTOL = 1e-8
# Newton steps that polish each seed, in both the float loop and the array pass.
_POLISH_STEPS = 2


@dataclass(frozen=True)
class BivariateQuadratic:
    """Coefficients of a x^2 + b xy + c y^2 + d x + e y + f = 0."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self) -> None:
        values = tuple(map(float, (self.a, self.b, self.c, self.d, self.e, self.f)))
        if not all(map(math.isfinite, values)):
            raise ValueError("quadratic coefficients must be finite")
        for name, value in zip("abcdef", values):
            object.__setattr__(self, name, value)

    def __call__(self, x: float, y: float) -> float:
        return (
            self.a * x * x
            + self.b * x * y
            + self.c * y * y
            + self.d * x
            + self.e * y
            + self.f
        )

    def scale(self) -> float:
        return max(
            abs(self.a), abs(self.b), abs(self.c), abs(self.d), abs(self.e), abs(self.f)
        )

    def scaled(self, factor: float) -> "BivariateQuadratic":
        return BivariateQuadratic(
            factor * self.a,
            factor * self.b,
            factor * self.c,
            factor * self.d,
            factor * self.e,
            factor * self.f,
        )


@dataclass(frozen=True)
class AuxiliaryPair:
    """One (lam1, lam2) solution of the auxiliary-variable system."""

    lam1: float
    lam2: float


@dataclass(frozen=True)
class ComplexSeed:
    """Real projection of a complex conjugate root pair.

    ``rel_imag`` is the imaginary magnitude of the eliminated-polynomial root
    relative to max(1, |real part|): small values indicate a real root pushed
    just off the axis by noise, large ones a genuinely complex pair whose
    projection carries little meaning.
    """

    pair: AuxiliaryPair
    rel_imag: float


@dataclass(frozen=True)
class BivariateSolution:
    """Full solver output.

    ``pairs`` holds the real solutions. ``complex_pairs`` holds the real
    projections of the complex conjugate root pairs, ordered by increasing
    relative imaginary magnitude; measurement noise routinely pushes the
    physically meaningful intersection slightly off the real axis, so
    callers may treat near-real projections as additional candidates.
    Both are empty when the equations share a factor that contains y.
    """

    pairs: tuple[AuxiliaryPair, ...]
    complex_pairs: tuple[ComplexSeed, ...]


def _terms(q: BivariateQuadratic) -> tuple[float, ...]:
    return (q.a, q.b, q.c, q.d, q.e, q.f)


# quadratic_coefficients reads a, b, c, d, e, f of each equation off the gram
# matrix of [u1, u2, g] under its constraint form.
_GRAM_ROW = [0, 0, 1, 0, 1, 2]
_GRAM_COL = [0, 1, 1, 2, 2, 2]
_GRAM_SCALE = np.array([1.0, 2.0, 1.0, 2.0, 2.0, 1.0])
_SHIFT = np.array([[0.0, 0.0, 0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, -2.0, 0.0]])


def quadratic_coefficients(g: np.ndarray, U: np.ndarray, ndim: int) -> np.ndarray:
    """Quadratic-pair coefficients of K linearized systems.

    ``g`` is (K, 2N+2) and ``U`` (K, 2N+2, 2). Substituting
    ``theta = g + U lam`` into the two constraint quadratic forms and moving
    lam1 (respectively 2 lam2) to the left side yields the two equations
    solved here; the moves contribute the -1 in d1 and the -2 in e2. Returns
    (K, 2, 6): [a, b, c, d, e, f] per row and equation.
    """
    basis = np.concatenate([U, g[:, :, None]], axis=2)[:, None]  # u1, u2, g
    # gram[:, i, j, l] is column j' h_i column l.
    forms = constraint_matrices(ndim)
    gram = np.matmul(np.matmul(basis.transpose(0, 1, 3, 2), forms), basis)
    return gram[:, :, _GRAM_ROW, _GRAM_COL] * _GRAM_SCALE + _SHIFT


def coefficients_from_system(sys):
    """Quadratic-pair coefficients for a linearized system; the one-row case
    of ``quadratic_coefficients``.

    Args:
        sys: LinearSystem with attributes ``g`` and ``U``.

    Returns:
        Tuple of two BivariateQuadratic in (lam1, lam2).
    """
    ((q1, q2),) = quadratic_coefficients(sys.g[None], sys.U[None], sys.ndim).tolist()
    return BivariateQuadratic(*q1), BivariateQuadratic(*q2)


def solve_pair(q1: BivariateQuadratic, q2: BivariateQuadratic) -> list[AuxiliaryPair]:
    """All real solutions of the two quadratics (0 to 4 pairs)."""
    return list(solve_pair_detailed(q1, q2).pairs)


def solve_pair_detailed(
    q1: BivariateQuadratic, q2: BivariateQuadratic
) -> BivariateSolution:
    """Solve the quadratic pair, reporting real pairs and complex projections.

    The one-pair case of ``solve_pairs``, on Python floats from start to
    finish: every step repeats the arithmetic of the array pass in the same
    order, so the result equals the pair's ``solve_pairs`` row bit for bit.
    Only the companion eigenvalues and the projections of the resultant's
    complex roots stay numpy calls, on the pair's own small arrays.
    """
    if q1.scale() == 0.0 or q2.scale() == 0.0:
        raise ValueError("an equation is identically zero")
    m, sx, sy = _scaled_pair(_terms(q1), _terms(q2))
    t1, t2, cross, square = _y_elimination(*m)
    no_square = max(abs(m[0][2]), abs(m[1][2])) <= _COEFF_ZERO_RTOL
    resultant = [*cross, 0.0] if no_square else square
    magnitude = max(map(abs, resultant))
    if not magnitude > 1e-14:
        return BivariateSolution((), ())
    resultant = [c / magnitude for c in resultant]
    degree = max(k for k, c in enumerate(resultant) if abs(c) > 1e-13)
    roots = []
    if degree:
        companion = [[0.0] * (degree - 1) + [-(c / resultant[degree])] for c in resultant[:degree]]
        for i in range(1, degree):
            companion[i][i - 1] = 1.0
        roots = np.linalg.eigvals(np.array(companion)).astype(complex).tolist()
        roots.sort(key=lambda z: (z.real, z.imag))
    real = [abs(z.imag) <= _IMAG_RTOL * max(1.0, abs(z.real)) for z in roots]

    # Each kept value's -t1/t2 seed, or its equation seeds where that is
    # missing or fails, merged in seed order; then its equations' complex y.
    pairs: list = []
    projections: list = []
    for k in _cluster([z.real for z, r in zip(roots, real) if r]):
        values, ok, c_re, c_rel, cplx = _kept_root(m, t1, t2, k)
        for c, (y, valid) in enumerate(zip(values, ok)):
            if valid:
                px, py, res = _polish_seed(m, k, y)
                if res <= _RESIDUAL_RTOL:
                    _insert_pair(pairs, (px, py), res)
                    if c == 0:
                        break
        for re, rel, is_complex in zip(c_re, c_rel, cplx):
            if is_complex:
                _add_projection(projections, k, re, rel, True)
    upper = [z for z, r in zip(roots, real) if not r and z.imag > 0]
    if upper:
        count = len(upper)
        with np.errstate(all="ignore"):
            conjugate = _conjugate_projections(
                np.array([m] * count), np.array([t1] * count), np.array([t2] * count),
                np.array(upper),
            )
        for x, y, rel in zip(*(v.tolist() for v in conjugate)):
            _add_projection(projections, x, y, rel)

    deduped: list = []
    for seed in sorted(projections, key=lambda s: s[2]):
        _add_projection(deduped, *seed, True)
    return BivariateSolution(
        tuple(AuxiliaryPair(x * sx, y * sy) for x, y in sorted(p for p, _ in pairs)),
        tuple(ComplexSeed(AuxiliaryPair(x * sx, y * sy), rel) for x, y, rel in deduped),
    )


def _scaled_pair(e1, e2):
    """The normalization and variable scaling of ``solve_pairs`` for one
    pair [a, b, c, d, e, f] x 2 on Python floats: the scaled equations and
    the scales sx, sy."""
    n = [[v / s for v in eq] for eq in (e1, e2) for s in [max(map(abs, eq))]]
    best = [math.inf, math.inf]
    for eq in n:
        const = abs(eq[5])
        if const > 1e-30:
            for i, (linear, square) in enumerate(((eq[3], eq[0]), (eq[4], eq[2]))):
                if abs(linear) > 1e-30:
                    best[i] = min(best[i], const / abs(linear))
                if abs(square) > 1e-30:
                    best[i] = min(best[i], math.sqrt(const / abs(square)))
    sx, sy = (max(1.0, b) if b < math.inf else 1.0 for b in best)
    factors = (sx * sx, sx * sy, sy * sy, sx, sy, 1.0)
    m = [[v * f for v, f in zip(eq, factors)] for eq in n]
    return [[v / s for v in eq] for eq in m for s in [max(map(abs, eq))]], sx, sy


def solve_pairs(coef: np.ndarray):
    """Solve K quadratic pairs at once.

    ``coef`` is (K, 2, 6): [a, b, c, d, e, f] per row and equation. Returns
    the candidates of all rows as flat arrays ``(row, lam, from_complex,
    rel_imag)``: each candidate's row (C,), its (lam1, lam2) as (C, 2),
    whether it is the real projection of a complex root (C,) and that root's
    relative imaginary magnitude (C,), 0 for a real pair. Rows come in order;
    a row lists its real solutions in ascending (lam1, lam2) order, then its
    projections nearest-to-real first (see BivariateSolution).

    One pass over stacked arrays, under the caller's ``np.errstate``
    (``estimate_batch`` turns floating-point warnings off): the
    normalized and scaled equations, their y-resultants, one companion
    eigenvalue call per resultant degree, the distinct real roots (kept
    values), one seed table of the kept values' y candidates, one Newton
    polish and residual pass over its -t1/t2 column and one over the
    equation seeds of the kept values where that fails, one merge of each
    row's passing seeds, and the complex-root projections. Each row's result
    depends on that row alone. A row has no solution when an equation is
    identically zero or not finite, or when its y-resultant vanishes
    identically: then both equations share a factor that contains y, or
    neither contains y, and the pair has no isolated solution.
    """
    rows = coef.shape[0]
    s = np.abs(coef).max(axis=2)
    usable = (np.isfinite(s) & (s > 0.0)).all(axis=1)
    n = coef / s[:, :, None]
    sx, sy = _variable_scales(n)
    m = n.copy()
    m[:, :, :5] *= np.array([sx * sx, sx * sy, sy * sy, sx, sy]).T[:, None]
    m /= np.abs(m).max(axis=2)[:, :, None]

    t1, t2, resultant = _y_resultants(m)
    magnitude = np.abs(resultant).max(axis=1)
    resultant = resultant / magnitude[:, None]
    solvable = usable & (magnitude > 1e-14)
    # The degree left once negligible leading coefficients are dropped.
    degree = 4 - np.argmax(np.abs(resultant[:, ::-1]) > 1e-13, axis=1)
    roots = np.full((rows, 4), np.nan, dtype=complex)
    for d in sorted(set(degree[solvable].tolist()) - {0}):
        at = np.flatnonzero(solvable & (degree == d))
        roots[at, :d] = _companion_roots(resultant[at, : d + 1])
    re, im = roots.real, roots.imag
    real = np.abs(im) <= _IMAG_RTOL * np.maximum(1.0, np.abs(re))

    # The seed table (F, 5) of the F kept values (``_kept_roots``), row
    # by row. Column 0, the -t1/t2 seed, is polished first; the equation
    # seeds of columns 1-4 only where the kept value's column-0 residual
    # did not pass: t2 vanishes there, or -t1/t2 is too inaccurate, as
    # at a double root where two solutions share one x. A cell not
    # polished keeps a NaN residual, which fails.
    values, keep = _cluster_rows(np.where(real, re, np.nan))
    kr, kc = np.nonzero(keep)
    kv = values[kr, kc]
    seed, ok, cplx_re, cplx_rel, cplx = _kept_roots(m[kr], t1[kr], t2[kr], kv)
    tx, ty, res = (np.full(seed.shape, np.nan) for _ in range(3))
    for columns in (np.arange(5) == 0, np.arange(5) > 0):
        at = ok & columns & ~(res[:, :1] <= _RESIDUAL_RTOL)
        k = np.nonzero(at)[0]
        q = m[kr[k]].transpose(2, 1, 0)
        x, y = _newton_polish(q, kv[k], seed[at])
        tx[at], ty[at], res[at] = x, y, _normalized_residual(q, x, y)
    # Each row's passing cells merged in seed order, as ``_insert_pair``.
    passed = res <= _RESIDUAL_RTOL
    real_pairs = _merge_pairs(
        kr[np.nonzero(passed)[0]], tx[passed], ty[passed], res[passed], rows
    )

    # Projections as (4, P) tables [row, x, y, rel_imag] of their finite
    # pairs: where an equation's y went complex at a kept value,
    # deduplicated as they are added, and one per conjugate pair of the
    # resultant's own roots (roots of real polynomials come in exact
    # conjugate pairs). Rows are exact as floats.
    ck, ce = np.nonzero(cplx)
    zj, zc = np.nonzero(~real & (im > 0))
    at_kept = np.stack([kr[ck], kv[ck], cplx_re[ck, ce], cplx_rel[ck, ce]])
    conjugate = np.stack([zj, *_conjugate_projections(m[zj], t1[zj], t2[zj], roots[zj, zc])])
    at_kept, conjugate = (p[:, np.isfinite(p[1:3]).all(axis=0)] for p in (at_kept, conjugate))
    at_kept = at_kept[:, _distinct(at_kept[0].astype(np.intp), *at_kept[1:3], rows)]
    # Each row's projections nearest-to-real first; the sort is stable.
    joined = np.concatenate([at_kept, conjugate], axis=1)
    joined = joined[:, np.lexsort((joined[3], joined[0]))]
    joined = joined[:, _distinct(joined[0].astype(np.intp), *joined[1:3], rows)]

    # Each row's real pairs, then its projections, scaled back.
    real_count = real_pairs[0].size
    table = np.concatenate([[*real_pairs, np.zeros(real_count)], joined], axis=1)
    order = np.argsort(table[0], kind="stable")
    row, x, y, rel = table[:, order]
    row = row.astype(np.intp)
    return row, np.stack([x * sx[row], y * sy[row]], axis=1), order >= real_count, rel


def _variable_scales(n: np.ndarray):
    """Order-of-magnitude estimates of both solution components per row.

    ``n`` is (K, 2, 6). At a root the constant term is balanced by the
    linear or the pure-square term of the variable, so |f|/|linear| and
    sqrt(|f|/|square|) bound the magnitude from above; the smaller of the
    two tracks whichever term dominates. Returns the (K,) scales of x and y.
    """
    size = np.abs(n)
    const, linear, squares = size[:, :, 5:6], size[:, :, 3:5], size[:, :, 0:3:2]
    has = const > 1e-30
    by_linear = np.where(has & (linear > 1e-30), const / linear, np.inf)
    by_square = np.where(has & (squares > 1e-30), np.sqrt(const / squares), np.inf)
    best = np.minimum(by_linear, by_square).min(axis=1)
    scales = np.maximum(1.0, np.where(best == np.inf, 1.0, best))
    return scales[:, 0], scales[:, 1]


@lru_cache(maxsize=None)
def _power_terms(a: int, b: int) -> tuple:
    """The (i, j) of the products p[i] q[j] of each power of an (a, b)
    polynomial product, lowest power first and, within a power, highest i
    first."""
    return tuple(
        tuple((i, k - i) for i in range(min(k, a - 1), max(0, k - b + 1) - 1, -1))
        for k in range(a + b - 1)
    )


def _conv(p, q) -> list:
    """Product of two polynomials, lowest power first, given as coefficient
    sequences of floats or of (K,) arrays.

    Each power sums its products from the highest i down, as in
    t0 + (t1 + t2): the order of OpenBLAS's 0/1-matrix product of the outer
    products, which fixed the bits of the outputs, and one order for the
    one-pair and the array path alike.
    """
    out = []
    for (i, j), *rest in _power_terms(len(p), len(q)):
        total = p[i] * q[j]
        for i, j in rest:
            total = p[i] * q[j] + total
        out.append(total)
    return out


def _y_elimination(eq1, eq2):
    """t1 (3), t2 (2), the cross term (4) and t1^2 - t2 cross (5) of the
    y-elimination of two equations [a, b, c, d, e, f], as polynomials in x
    (lowest power first); each coefficient is a float for one pair or a (K,)
    array for K rows.

    Written as a quadratic in y, equation i reads c_i y^2 + P1_i(x) y +
    P0_i(x) with P1 = e + b x and P0 = f + d x + a x^2; y is -t1/t2 where
    t2 does not vanish. When neither equation has a y^2 term the resultant
    is the cross term P1_1 P0_2 - P0_1 P1_2 alone; this covers linear pairs.
    """
    a1, b1, c1, d1, e1, f1 = eq1
    a2, b2, c2, d2, e2, f2 = eq2
    p1, p0 = (e1, b1), (f1, d1, a1)
    q1, q0 = (e2, b2), (f2, d2, a2)
    t1 = [c1 * v - c2 * w for v, w in zip(q0, p0)]
    t2 = [c1 * v - c2 * w for v, w in zip(q1, p1)]
    # Adding +0.0 turns a -0.0 into +0.0, as that matrix product did; a sum
    # with any nonzero term does not depend on the sign of a zero in it.
    cross = [u - v + 0.0 for u, v in zip(_conv(p1, q0), _conv(p0, q1))]
    square = [u - v + 0.0 for u, v in zip(_conv(t1, t1), _conv(t2, cross))]
    return t1, t2, cross, square


def _y_resultants(m: np.ndarray):
    """t1 (K, 3), t2 (K, 2) and the resultant (K, 5) of the y-elimination
    (``_y_elimination``) of every row of ``m`` (K, 2, 6). Whether a y^2 term
    vanishes is judged on the scaled coefficients ``m``, at the magnitude of
    the solution.
    """
    t1, t2, cross, square = _y_elimination(m[:, 0].T, m[:, 1].T)
    no_square = np.abs(m[:, :, 2]).max(axis=1) <= _COEFF_ZERO_RTOL
    # Padded by slice assignment: np.pad costs more than the whole y-resultant.
    padded = np.zeros((m.shape[0], 5))
    padded[:, :4] = np.stack(cross, axis=1)
    resultant = np.where(no_square[:, None], padded, np.stack(square, axis=1))
    return np.stack(t1, axis=1), np.stack(t2, axis=1), resultant


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Sorted roots of K polynomials of one degree d, (K, d+1) lowest power
    first, through one stacked companion eigenvalue call."""
    d = c.shape[1] - 1
    companion = np.zeros((c.shape[0], d, d))
    companion.reshape(c.shape[0], -1)[:, d :: d + 1] = 1.0
    companion[:, :, -1] = -(c[:, :d] / c[:, d, None])
    roots = np.linalg.eigvals(companion).astype(complex)
    roots.sort(axis=1)
    return roots


def _conjugate_projections(m, t1, t2, z):
    """Real projections of complex resultant roots ``z`` (n,): x is the real
    part of each root and y that of -t1/t2 there, or of ``_first_root`` where
    t2 vanishes. ``m`` (n, 2, 6), ``t1`` (n, 3) and ``t2`` (n, 2) belong to
    each root's elimination. Returns x, y and the relative imaginary
    magnitude as (n,) arrays. The complex arithmetic stays on numpy arrays:
    Python and numpy complex scalars round differently.
    """
    t1z = t1[:, 0] + (t1[:, 1] + t1[:, 2] * z) * z
    t2z = t2[:, 0] + t2[:, 1] * z
    other = (-t1z / t2z).real
    flat = np.abs(t2z) <= 1e-12 * np.maximum(1.0, np.abs(t1z))
    for i in np.flatnonzero(flat).tolist():
        other[i] = _first_root(m[i], complex(z[i])).real
    return z.real, other, np.abs(z.imag) / np.maximum(1.0, np.abs(z.real))


def _by_position(row, rows, *values):
    """Entries of nondecreasing rows laid out by their position in the row:
    each (C,) value array as (width, rows), NaN-padded. Returns the per-row
    counts, the entries' (position, row) index and the layouts."""
    counts = np.bincount(row, minlength=rows)
    at = np.arange(row.size) - (np.cumsum(counts) - counts)[row], row
    laid = []
    for v in values:
        out = np.full((counts.max(initial=0), rows), np.nan)
        out[at] = v
        laid.append(out)
    return counts, at, laid


def _tolerance(v: np.ndarray) -> np.ndarray:
    """The _same_pair tolerance of each component value."""
    return _DEDUPE_RTOL * np.maximum(1.0, np.abs(v))


def _merge_pairs(row, x, y, res, rows):
    """``_insert_pair`` of each row's accepted seeds in order, then each
    row's pairs in ascending order, for all rows at once.

    ``row`` holds the seeds' nondecreasing row indices and ``res`` their
    residuals. The merge takes one seed position at a time, over every row
    at once; a row holds up to five slots, NaN when empty, and a row without
    a seed at that position keeps its slots. Returns the kept pairs as flat
    (row, x, y) arrays.
    """
    counts, _, (new_x, new_y, new_res) = _by_position(row, rows, x, y, res)
    tol_x, tol_y = _tolerance(new_x), _tolerance(new_y)
    kx, ky, kres = (np.full((5, rows), np.nan) for _ in range(3))
    n = np.zeros(rows, dtype=np.intp)
    slots, every = np.arange(5)[:, None], np.arange(rows)
    for p in range(new_x.shape[0]):
        nx, ny, nres = new_x[p], new_y[p], new_res[p]
        # The first same-pair slot, else a new one at the end.
        same = (np.abs(nx - kx) <= tol_x[p]) & (np.abs(ny - ky) <= tol_y[p])
        found = same.any(axis=0)
        slot = np.where(found, same.argmax(axis=0), n)
        has = counts > p
        put = (slots == slot) & (has & (~found | (nres < kres[slot, every])))
        kx, ky, kres = np.where(put, nx, kx), np.where(put, ny, ky), np.where(put, nres, kres)
        n += has & ~found
        if n.max(initial=0) > 4:
            # Bezout bound: keep the four best-fitting pairs.
            full = np.flatnonzero(n > 4)
            order = np.argsort(kres[:, full], axis=0, kind="stable")
            for kept in (kx, ky, kres):
                kept[:, full] = np.take_along_axis(kept[:, full], order, axis=0)
                kept[4, full] = np.nan
            n[full] = 4
    kept_slot, kept_row = np.nonzero(slots < n)
    fx, fy = kx[kept_slot, kept_row], ky[kept_slot, kept_row]
    order = np.lexsort((fy, fx, kept_row))
    return kept_row[order], fx[order], fy[order]


def _distinct(row, x, y, rows):
    """Mask of the finite pairs that are not ``_same_pair`` as an earlier
    kept pair of their row, the rows nondecreasing; one position at a time
    over every row at once."""
    _, at, (px, py) = _by_position(row, rows, x, y)
    tol_x, tol_y = _tolerance(px), _tolerance(py)
    keep = ~np.isnan(px)
    for p in range(1, px.shape[0]):
        same = (np.abs(px[p] - px[:p]) <= tol_x[p]) & (np.abs(py[p] - py[:p]) <= tol_y[p])
        keep[p] &= ~(same & keep[:p]).any(axis=0)
    return keep[at]


def _cluster_rows(values: np.ndarray):
    """``_cluster`` of every row of (J, R) values at once, NaN where a row
    has no value: each row sorted and its kept mask, one position at a
    time."""
    values = np.sort(values, axis=1, kind="stable")
    keep = ~np.isnan(values)
    last = values[:, 0]
    for c in range(1, values.shape[1]):
        v = values[:, c]
        keep[:, c] &= np.abs(v - last) > 1e-9 * np.maximum(1.0, np.abs(v))
        last = np.where(keep[:, c], v, last)
    return values, keep


def _add_projection(projections, x, y, rel, dedupe=False):
    """Append the projection (x, y, rel_imag) of a complex candidate when its
    coordinates are finite (and, with ``dedupe``, new)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return
    seed = (x, y, rel)
    if not (dedupe and any(_same_pair(seed, s) for s in projections)):
        projections.append(seed)


def _kept_roots(q: np.ndarray, t1: np.ndarray, t2: np.ndarray, kept: np.ndarray):
    """Candidates for y at F kept values, the real resultant roots in x.

    ``q`` is (F, 2, 6) (both equations), ``t1`` (F, 3) and ``t2`` (F, 2).
    Returns the real candidates as (F, 5) values [-t1/t2, eq1 r1, eq1 r2,
    eq2 r1, eq2 r2] with their validity mask, and each equation's complex
    root of positive imaginary part as (F, 2) real parts and relative
    imaginary magnitudes with a validity mask. -t1/t2 is valid where
    |t2| > 1e-10 max(1, |x|); it is the one seed of its kept value unless
    its polished pair fails, and only then are the equation candidates
    polished (``solve_pairs``). A real pair takes the larger-magnitude root
    first and its companion via the product (stable pairing); a conjugate
    pair within _IMAG_RTOL of the real axis counts as one real root.
    """
    out = np.empty((kept.shape[0], 5))
    ok = np.empty(out.shape, dtype=bool)
    t1v = t1[:, 0] + (t1[:, 1] + t1[:, 2] * kept) * kept
    t2v = t2[:, 0] + t2[:, 1] * kept
    out[:, 0] = -t1v / t2v
    ok[:, 0] = np.abs(t2v) > 1e-10 * np.maximum(1.0, np.abs(kept))

    k = kept[:, None]
    aa = q[:, :, 2]
    bb = q[:, :, 1] * k + q[:, :, 4]
    cc = (q[:, :, 0] * k + q[:, :, 3]) * k + q[:, :, 5]
    abs_a, abs_b = np.abs(aa), np.abs(bb)
    tiny = _COEFF_ZERO_RTOL * np.maximum(np.maximum(abs_a, abs_b), np.abs(cc))
    quadratic = abs_a > tiny
    linear = ~quadratic & (abs_b > tiny)
    two_a = 2.0 * aa
    disc = bb * bb - 2.0 * two_a * cc
    root = np.sqrt(np.abs(disc))
    # The root of larger magnitude, then its companion through the product;
    # a zero denominator leaves the single root 0.
    denom = -bb - np.copysign(root, bb)
    r1 = denom / two_a
    re = -bb / two_a
    im = root / np.abs(two_a)
    near = im <= _IMAG_RTOL * np.maximum(1.0, np.abs(re))
    real_pair = quadratic & (disc >= 0.0)
    out[:, 1::2] = np.where(linear, -cc / bb, np.where(real_pair, r1, re))
    out[:, 2::2] = cc / (aa * r1)
    ok[:, 1::2] = linear | real_pair | (quadratic & near)
    ok[:, 2::2] = real_pair & (denom != 0.0)
    rel = np.abs(im) / np.maximum(1.0, np.abs(re))
    return out, ok, re, rel, quadratic & ~real_pair & ~near


def _kept_root(eqs, t1, t2, k):
    """``_kept_roots`` of one kept value ``k`` on Python floats, ``eqs``
    holding both equations' [a, b, c, d, e, f]: the five candidate values
    and their validity flags, and per equation the real part and relative
    imaginary magnitude of its complex root and whether that counts.

    Each valid entry is computed with the arithmetic of ``_kept_roots`` in
    the same order, so it has the same bits; the others are NaN.
    """
    a0, a1, a2 = t1
    b0, b1 = t2
    nan = math.nan
    t1v = a0 + (a1 + a2 * k) * k
    t2v = b0 + b1 * k
    valid = abs(t2v) > 1e-10 * max(1.0, abs(k))
    values, flags = [-t1v / t2v if valid else nan], [valid]
    re_part, rel_part, cplx = [], [], []
    for a, b, c, d, e, f in eqs:
        aa, bb, cc = c, b * k + e, (a * k + d) * k + f
        tiny = _COEFF_ZERO_RTOL * max(max(abs(aa), abs(bb)), abs(cc))
        re = rel = nan
        near = True
        if abs(aa) > tiny:
            two_a = 2.0 * aa
            disc = bb * bb - 2.0 * two_a * cc
            root = math.sqrt(abs(disc))
            re, im = -bb / two_a, root / abs(two_a)
            if disc >= 0.0:
                denom = -bb - math.copysign(root, bb)
                r1 = denom / two_a
                values += [r1, _divide(cc, aa * r1) if denom != 0.0 else nan]
                flags += [True, denom != 0.0]
            else:
                near = im <= _IMAG_RTOL * max(1.0, abs(re))
                rel = abs(im) / max(1.0, abs(re))
                values += [re if near else nan, nan]
                flags += [near, False]
        elif abs(bb) > tiny:
            values += [-cc / bb, nan]
            flags += [True, False]
        else:
            values += [nan, nan]
            flags += [False, False]
        re_part.append(re)
        rel_part.append(rel)
        cplx.append(not near)
    return values, flags, re_part, rel_part, cplx


def _divide(a: float, b: float) -> float:
    """a / b with IEEE results for a zero divisor, bit for bit as numpy
    divides (0/0 is the CPU's default NaN, whose sign bit is set on x86)."""
    if b:
        return a / b
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(a) / b)


def _first_root(q: np.ndarray, kept: complex) -> complex:
    """The first root in y of the first of two equations (2, 6) that has
    one, at a complex resultant root x; 0 if neither."""
    for a, b, c, d, e, f in q.tolist():
        aa, bb, cc = c, b * kept + e, a * kept * kept + d * kept + f
        scale = max(abs(aa), abs(bb), abs(cc))
        if scale == 0.0:
            continue
        if abs(aa) <= _COEFF_ZERO_RTOL * scale:
            if abs(bb) > _COEFF_ZERO_RTOL * scale:
                return -cc / bb
            continue
        disc = np.sqrt(complex(bb * bb - 4.0 * aa * cc))
        denom = -bb - disc if abs(-bb - disc) >= abs(-bb + disc) else -bb + disc
        return denom / (2.0 * aa)
    return 0.0


def _cluster(values: list[float]) -> list[float]:
    """Collapse numerically equal roots (multiplicities from the resultant)."""
    out: list[float] = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > 1e-9 * max(1.0, abs(v)):
            out.append(v)
    return out


def _polish_seed(q: list, x: float, y: float):
    """Newton polish and normalized residual of one seed on Python floats.

    ``q`` holds both equations' [a, b, c, d, e, f]. The arithmetic is the
    per-seed loop that the array pass below reproduces element by element.
    """
    (a1, b1, c1, d1, e1, f1), (a2, b2, c2, d2, e2, f2) = q
    a1_2, c1_2, a2_2, c2_2 = 2.0 * a1, 2.0 * c1, 2.0 * a2, 2.0 * c2
    for _ in range(_POLISH_STEPS):
        g1 = a1 * x * x + b1 * x * y + c1 * y * y + d1 * x + e1 * y + f1
        g2 = a2 * x * x + b2 * x * y + c2 * y * y + d2 * x + e2 * y + f2
        j11 = a1_2 * x + b1 * y + d1
        j12 = b1 * x + c1_2 * y + e1
        j21 = a2_2 * x + b2 * y + d2
        j22 = b2 * x + c2_2 * y + e2
        p, r = j11 * j22, j12 * j21
        det = p - r
        if abs(det) <= 1e-14 * max(1.0, abs(p), abs(r)):
            break
        x -= (g1 * j22 - g2 * j12) / det
        y -= (j11 * g2 - j21 * g1) / det
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.nan, math.nan, math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return x, y, math.inf
    worst = None
    for a, b, c, d, e, f in q:
        terms = (a * x * x, b * x * y, c * y * y, d * x, e * y)
        value = terms[0] + terms[1] + terms[2] + terms[3] + terms[4] + f
        scale = max(*map(abs, terms), abs(f))
        res = abs(value) / max(scale, 1e-30)
        # max(r1, r2): a NaN first residual wins, as in the array pass.
        worst = res if worst is None or res > worst else worst
    return x, y, worst


# The polish and residual below run on arrays with one column per seed and
# one row per equation; each seed carries its own coefficients. Each element
# must be bitwise what a per-seed scalar loop gives (tests/test_polysolve.py
# keeps that loop as the reference), so every expression keeps the scalar
# evaluation order. np.fmax stands in for Python's max(), which skips a NaN
# that is not its first argument; it is used only where that first argument
# cannot be NaN. Floating-point warnings are left to the caller's
# ``np.errstate``.


def _newton_polish(coef: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Newton steps on the 2x2 system from each seed (x[i], y[i]).

    ``coef`` is (6, 2, S): a..f of both equations for each seed. A seed stops
    where its Jacobian is singular and becomes NaN where an iterate is not
    finite; the others carry on.
    """
    a, b, c, d, e, f = coef
    a2, c2 = 2.0 * a, 2.0 * c
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_POLISH_STEPS):
        (f1, f2) = a * x * x + b * x * y + c * y * y + d * x + e * y + f
        (j11, j21) = a2 * x + b * y + d
        (j12, j22) = b * x + c2 * y + e
        det = j11 * j22 - j12 * j21
        bound = 1e-14 * np.fmax(np.fmax(1.0, np.abs(j11 * j22)), np.abs(j12 * j21))
        active &= ~(np.abs(det) <= bound)
        new_x = x - (f1 * j22 - f2 * j12) / det
        new_y = y - (j11 * f2 - j21 * f1) / det
        finite = np.isfinite(new_x) & np.isfinite(new_y)
        x = np.where(active, np.where(finite, new_x, np.nan), x)
        y = np.where(active, np.where(finite, new_y, np.nan), y)
        active &= finite
    return x, y


def _normalized_residual(coef: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Residual relative to the largest term of each equation at the point.

    ``coef`` is (6, 2, S) as for ``_newton_polish``. Dividing by the point
    magnitude instead would let far-away points pass on sheer size, since
    their tiny-coefficient terms never reach the tolerance times x^2. Points
    that are not finite get inf.
    """
    a, b, c, d, e, f = coef
    value = a * x * x + b * x * y + c * y * y + d * x + e * y + f
    # |a x x| is not NaN for finite x, the only points whose value is used.
    scale = np.abs(a * x * x)
    for term in (b * x * y, c * y * y, d * x, e * y, f):
        scale = np.fmax(scale, np.abs(term))
    (r1, r2) = np.abs(value) / np.fmax(scale, 1e-30)
    # max(r1, r2) keeps a NaN r1, so no fmax here.
    res = np.where(r2 > r1, r2, r1)
    return np.where(np.isfinite(x) & np.isfinite(y), res, np.inf)


def _same_pair(new: tuple, kept: tuple) -> bool:
    """Both components agree within _DEDUPE_RTOL relative to the new pair."""
    same_x = abs(new[0] - kept[0]) <= _DEDUPE_RTOL * max(1.0, abs(new[0]))
    return same_x and abs(new[1] - kept[1]) <= _DEDUPE_RTOL * max(1.0, abs(new[1]))


def _insert_pair(pairs: list[tuple[tuple, float]], pair: tuple, res: float) -> None:
    for i, (kept, kept_res) in enumerate(pairs):
        if _same_pair(pair, kept):
            if res < kept_res:
                pairs[i] = (pair, res)
            return
    pairs.append((pair, res))
    if len(pairs) > 4:
        # Bezout bound: keep the four best-fitting pairs.
        pairs.sort(key=lambda t: t[1])
        del pairs[4:]
