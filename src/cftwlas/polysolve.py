"""Analytic solution of two bivariate quadratic equations.

The auxiliary variables of the linearized TOA problem satisfy a pair of
quadratics

    a x^2 + b x y + c y^2 + d x + e y + f = 0

in x = lam1, y = lam2. y is eliminated through the classical resultant of
the two conics, giving a polynomial in x of degree at most four whose roots
are found via companion-matrix eigenvalues. Each root fills one of four
slots, in the sorted order of the roots, with at most one candidate:

* a real root alone at its x seeds y = -t1/t2; two Newton steps on the 2x2
  system and a normalized-residual test polish and check the seed;
* where -t1/t2 is missing (t2 vanishes) or fails, and in a run of real roots
  at one x (a double root, where two solutions may share one x and -t1/t2
  is 0/0), the j-th slot of the run keeps the j-th passing root in y,
  ascending, of the first equation that has one;
* a real root that no seed solves, and the upper member of a complex
  conjugate pair, hold the unpolished projection x = Re z, y = Re(-t1/t2)
  at the root z (the first equation's root in y where t2 vanishes); a
  conjugate pair's lower member leaves its slot empty.

``solve_pairs`` does this for K pairs at once on stacked arrays; each row
depends on that row alone. ``solve_pair_detailed`` is the one-pair case on
Python floats, one loop over at most four roots; only the companion
eigenvalues and the projections stay numpy calls, on the pair's own small
arrays. The y-elimination (``_y_elimination``, ``_conv``) is one code for
floats and arrays; every other step has an array pass and a loop on Python
floats (``_scaled_pair``, ``_t_seed``, ``_equation_seeds``, ``_polish_seed``)
that repeats its arithmetic in the same order, so both give the same bits.

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
# Real roots this close (relative) are one x: the eigenvalues split a double
# root by up to about this.
_SAME_X_RTOL = 1e-5
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
    """Real projection of a complex conjugate root pair, or of a real root
    that no seed solved.

    ``rel_imag`` is the imaginary magnitude of the eliminated-polynomial root
    relative to max(1, |real part|): small values indicate a real root, or
    one pushed just off the axis by noise, large ones a genuinely complex
    pair whose projection carries little meaning.
    """

    pair: AuxiliaryPair
    rel_imag: float


@dataclass(frozen=True)
class BivariateSolution:
    """Full solver output: the usable slots of one ``solve_pairs`` row.

    ``pairs`` holds the real solutions in slot order, so ascending in the
    resultant root they came from; a real double root may give two equal
    pairs, one per slot. ``complex_pairs`` holds the projections, one per
    complex conjugate root pair and one per real root that no seed solved,
    ordered by increasing relative imaginary magnitude (stable in slot
    order); measurement noise routinely pushes the physically meaningful
    intersection slightly off the real axis, so callers may treat near-real
    projections as additional candidates. Together they hold at most four
    entries. Both are empty when the equations share a factor that
    contains y.
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
    """Solve the quadratic pair, reporting real pairs and projections.

    The one-pair case of ``solve_pairs`` on Python floats (see the module
    docstring); the result equals the pair's ``solve_pairs`` row bit for bit.
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
    roots = _companion_roots(np.array([resultant[: degree + 1]]))[0].tolist() if degree else []
    real = [abs(z.imag) <= _IMAG_RTOL * max(1.0, abs(z.real)) for z in roots]

    # One slot per root, as in the pair's ``solve_pairs`` row; ``runs`` holds
    # each root's position in its run of real roots at one x.
    runs = [0]
    for (w, r0), (z, r1) in zip(zip(roots, real), zip(roots[1:], real[1:])):
        close = r0 and r1 and abs(z.real - w.real) <= _SAME_X_RTOL * max(1.0, abs(z.real))
        runs.append(runs[-1] + 1 if close else 0)
    pairs: list = []
    projected = []
    for i, (z, is_real) in enumerate(zip(roots, real)):
        if not is_real:
            if z.imag > 0:
                projected.append(z)
            continue
        x = z.real
        alone = runs[i] == 0 and runs[i + 1 : i + 2] != [1]
        y, valid = _t_seed(t1, t2, x)
        if alone and valid:
            px, py, res = _polish_seed(m, x, y)
            if res <= _RESIDUAL_RTOL:
                pairs.append((px, py))
                continue
        polished = (_polish_seed(m, x, y) for y in _equation_seeds(m, x))
        passing = [(px, py) for px, py, res in polished if res <= _RESIDUAL_RTOL]
        if runs[i] < len(passing):
            pairs.append(passing[runs[i]])
        else:
            projected.append(z)
    projections = []
    if projected:
        with np.errstate(all="ignore"):
            values = _conjugate_projections(
                *(np.array([v] * len(projected)) for v in (m, t1, t2)), np.array(projected)
            )
        values = zip(*(v.tolist() for v in values))
        projections = sorted((p for p in values if all(map(math.isfinite, p))), key=lambda s: s[2])
    return BivariateSolution(
        tuple(AuxiliaryPair(x * sx, y * sy) for x, y in pairs),
        tuple(ComplexSeed(AuxiliaryPair(x * sx, y * sy), rel) for x, y, rel in projections),
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
    """Solve K quadratic pairs at once, one slot per resultant root.

    ``coef`` is (K, 2, 6): [a, b, c, d, e, f] per row and equation. Returns
    the (K, 4) slot table ``(lam, solved, projected, rel_imag)``, one slot
    per root as the module docstring says: each slot's (lam1, lam2) as
    (K, 4, 2), NaN where the slot is not solved; the solved mask; whether
    the slot holds a projection rather than a polished solution; and the
    relative imaginary magnitude of a projection's root, 0 elsewhere.

    Runs under the caller's ``np.errstate`` (``estimate_batch`` turns
    floating-point warnings off), with one companion eigenvalue call per
    resultant degree and one polish pass each over the -t1/t2 seeds and the
    equation seeds. A row has no solution when an equation is identically
    zero or not finite, or when its y-resultant vanishes identically: then
    both equations share a factor that contains y, or neither contains y,
    and the pair has no isolated solution.
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
    x, y, rel = np.full((rows, 4), np.nan), np.full((rows, 4), np.nan), np.zeros((rows, 4))

    # Real slots: one alone at its x polishes its -t1/t2 seed; the j-th slot
    # of a run at one x, or one whose -t1/t2 fails, keeps the j-th passing
    # of its ascending equation seeds.
    kr, kc = np.nonzero(real)
    kx = re[kr, kc]
    seed, ok = _kept_roots(m[kr], t1[kr], t2[kr], kx)
    run, alone = (v[kr, kc] for v in _runs(real, re))
    px, py, passed = np.full(kx.shape, np.nan), np.full(kx.shape, np.nan), ok[:, 0] & alone
    px[passed], py[passed], passed[passed] = _polished(m[kr[passed]], kx[passed], seed[passed, 0])
    f = np.flatnonzero(~passed)
    if f.size:
        j, q, n = run[f], m[kr[f]], f.size
        fx, fy, fpass = _polished(np.concatenate([q, q]), np.tile(kx[f], 2), seed[f, 1:].T.ravel())
        pass_lo, pass_hi = fpass[:n] & ok[f, 1], fpass[n:] & ok[f, 2]
        take_lo = (j == 0) & pass_lo
        take_hi = ((j == 0) & ~pass_lo | (j == 1) & pass_lo) & pass_hi
        px[f], py[f] = np.where(take_lo, fx[:n], fx[n:]), np.where(take_lo, fy[:n], fy[n:])
        passed[f] = take_lo | take_hi
    x[kr, kc], y[kr, kc] = px, py

    # Projections: the upper member of a conjugate pair (roots of real
    # polynomials come in exact conjugate pairs) and an unsolved real root.
    projected = ~real & (im > 0)
    projected[kr, kc] = ~passed
    zj, zc = np.nonzero(projected)
    x[zj, zc], y[zj, zc], rel[zj, zc] = _conjugate_projections(
        m[zj], t1[zj], t2[zj], roots[zj, zc]
    )
    solved = (real | projected) & np.isfinite(x) & np.isfinite(y)
    lam = np.stack([x * sx[:, None], y * sy[:, None]], axis=2)
    lam[~solved] = np.nan
    return lam, solved, projected, rel


def _polished(q: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Newton-polished seeds (x[i], y[i]) of the equations ``q`` (S, 2, 6)
    and whether each passes the residual test."""
    coef = q.transpose(2, 1, 0)
    x, y = _newton_polish(coef, x, y)
    return x, y, _normalized_residual(coef, x, y) <= _RESIDUAL_RTOL


def _runs(real: np.ndarray, x: np.ndarray):
    """Each real slot's position in its run, the consecutive real slots of a
    row whose x agree within _SAME_X_RTOL, and whether it is alone in its run.
    (K, 4) in, two (K, 4) out."""
    run = np.zeros(real.shape, dtype=np.intp)
    for c in range(1, real.shape[1]):
        close = np.abs(x[:, c] - x[:, c - 1]) <= _SAME_X_RTOL * np.maximum(1.0, np.abs(x[:, c]))
        run[:, c] = np.where(real[:, c] & real[:, c - 1] & close, run[:, c - 1] + 1, 0)
    alone = run == 0
    alone[:, :-1] &= run[:, 1:] == 0
    return run, alone


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


def _kept_roots(q: np.ndarray, t1: np.ndarray, t2: np.ndarray, kept: np.ndarray):
    """The y seeds at F real resultant roots ``kept`` in x.

    ``q`` is (F, 2, 6) (both equations), ``t1`` (F, 3) and ``t2`` (F, 2).
    Returns (F, 3) seeds [-t1/t2, lo, hi] with their validity mask: -t1/t2,
    valid where |t2| > 1e-10 max(1, |x|), and the y roots, ascending, of the
    first equation that has one. A real pair takes the larger-magnitude root
    first and its companion via the product, where that is not zero (stable
    pairing); a conjugate pair within _IMAG_RTOL of the real axis counts as
    one real root.
    """
    rows = np.arange(kept.shape[0])
    out = np.empty((kept.shape[0], 3))
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
    r1 = (-bb - np.copysign(root, bb)) / two_a
    re = -bb / two_a
    near = root / np.abs(two_a) <= _IMAG_RTOL * np.maximum(1.0, np.abs(re))
    real_pair = quadratic & (disc >= 0.0)
    first = np.where(linear, -cc / bb, np.where(real_pair, r1, re))
    has = linear | real_pair | (quadratic & near)
    eq = np.where(has[:, 0], 0, 1)
    product = (aa * r1)[rows, eq]
    one, two = first[rows, eq], cc[rows, eq] / product
    both = real_pair[rows, eq] & (product != 0.0)
    swap = both & (two < one)
    out[:, 1], out[:, 2] = np.where(swap, two, one), np.where(swap, one, two)
    ok[:, 1], ok[:, 2] = has[rows, eq], both
    return out, ok


def _t_seed(t1, t2, k):
    """-t1/t2 at a real root ``k`` on Python floats and whether it is valid:
    column 0 of ``_kept_roots``, NaN where invalid."""
    t1v = t1[0] + (t1[1] + t1[2] * k) * k
    t2v = t2[0] + t2[1] * k
    valid = abs(t2v) > 1e-10 * max(1.0, abs(k))
    return (-t1v / t2v if valid else math.nan), valid


def _equation_seeds(eqs, k) -> list:
    """The valid entries of columns 1 and 2 of ``_kept_roots`` for one real
    root ``k`` on Python floats, ``eqs`` holding both equations' [a, b, c,
    d, e, f]; the same arithmetic in the same order, so the same bits."""
    for a, b, c, d, e, f in eqs:
        aa, bb, cc = c, b * k + e, (a * k + d) * k + f
        tiny = _COEFF_ZERO_RTOL * max(max(abs(aa), abs(bb)), abs(cc))
        if abs(aa) > tiny:
            two_a = 2.0 * aa
            disc = bb * bb - 2.0 * two_a * cc
            root = math.sqrt(abs(disc))
            if disc >= 0.0:
                r1 = (-bb - math.copysign(root, bb)) / two_a
                if aa * r1 == 0.0:
                    return [r1]
                r2 = cc / (aa * r1)
                return [r2, r1] if r2 < r1 else [r1, r2]
            re = -bb / two_a
            if root / abs(two_a) <= _IMAG_RTOL * max(1.0, abs(re)):
                return [re]
        elif abs(bb) > tiny:
            return [-cc / bb]
    return []


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
# one row per equation. Each element must be bitwise what ``_polish_seed``
# gives, so every expression keeps the scalar evaluation order. np.fmax
# stands in for Python's max(), which skips a NaN that is not its first
# argument, only where that first argument cannot be NaN. Floating-point
# warnings are left to the caller's ``np.errstate``.


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
