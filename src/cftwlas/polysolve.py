"""Analytic solution of two bivariate quadratic equations.

The auxiliary variables of the linearized TOA problem satisfy a pair of
quadratics

    a x^2 + b x y + c y^2 + d x + e y + f = 0

in x = lam1, y = lam2. y is eliminated through the classical resultant of
the two conics, giving a polynomial in x of degree at most four whose roots
are found via companion-matrix eigenvalues; y is back-substituted. Two
Newton steps on the 2x2 system and a normalized-residual test then polish
and check every real candidate pair; the singular-Jacobian early stop and
the non-finite exit apply to each pair on its own. The accepted pairs are
merged in seed order, and by Bezout's bound at most four real pairs are
kept.

``solve_pairs`` does this for K pairs at once in stacked arrays, and
``solve_pair_detailed`` is its one-pair case. Each pair's result depends on
that pair alone: every array operation is elementwise or acts on one pair's
own matrix, and where a loop on Python floats replaces an array pass for a
few values (``_kept_roots_each``, ``_polish_seed``) it repeats the same
arithmetic in the same order.

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
    """Solve the quadratic pair, reporting real pairs and complex projections;
    the one-row case of ``solve_pairs``."""
    if q1.scale() == 0.0 or q2.scale() == 0.0:
        raise ValueError("an equation is identically zero")
    ((pairs, complex_pairs),) = solve_pairs(np.array([[_terms(q1), _terms(q2)]]))
    return BivariateSolution(
        tuple(AuxiliaryPair(x, y) for x, y in pairs),
        tuple(ComplexSeed(AuxiliaryPair(x, y), rel) for x, y, rel in complex_pairs),
    )


def solve_pairs(coef: np.ndarray) -> list[tuple]:
    """Solve K quadratic pairs at once.

    ``coef`` is (K, 2, 6): [a, b, c, d, e, f] per row and equation. Returns a
    list with one ``(pairs, complex_pairs)`` per row, where ``pairs`` holds
    the real solutions as ascending (lam1, lam2) tuples and ``complex_pairs``
    the (lam1, lam2, rel_imag) projections of complex roots, nearest-to-real
    first (see BivariateSolution).

    Every row takes the y-elimination in stacked arrays: one companion
    eigenvalue call per resultant degree, then one Newton polish and one
    residual pass over the seeds of every row. Each row's result depends on
    that row alone. A row has no solution when an equation is identically
    zero or not finite, or when its y-resultant vanishes identically: then
    both equations share a factor that contains y, or neither contains y,
    and the pair has no isolated solution.
    """
    with np.errstate(all="ignore"):
        return _solve_pairs(coef)


def _solve_pairs(coef: np.ndarray) -> list[tuple]:
    """The body of ``solve_pairs``, run with floating-point warnings off."""
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

    return [
        (
            tuple((x * fx, y * fy) for x, y in pairs),
            tuple((x * fx, y * fy, rel) for x, y, rel in complex_pairs),
        )
        for (pairs, complex_pairs), fx, fy in zip(
            _back_substitute(m, t1, t2, roots), sx.tolist(), sy.tolist()
        )
    ]


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


@lru_cache(maxsize=8)
def _antidiagonals(a: int, b: int) -> np.ndarray:
    """0/1 matrix summing an (a, b) outer product into polynomial powers."""
    out = np.zeros((a * b, a + b - 1))
    for i in range(a):
        for j in range(b):
            out[i * b + j, i + j] = 1.0
    out.setflags(write=False)
    return out


def _conv(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Products of K polynomial pairs (K, a) and (K, b), lowest power first."""
    k, a = p.shape
    b = q.shape[1]
    outer = (p[:, :, None] * q[:, None, :]).reshape(k, 1, a * b)
    return np.matmul(outer, _antidiagonals(a, b))[:, 0]


def _y_resultants(m: np.ndarray):
    """t1 (K, 3), t2 (K, 2) and the resultant (K, 5) of the y-elimination of
    every row, as polynomials in x (lowest power first).

    Written as a quadratic in y, equation i reads c_i y^2 + P1_i(x) y +
    P0_i(x) with P1 = e + b x and P0 = f + d x + a x^2; y is -t1/t2 where
    t2 does not vanish. When neither equation has a y^2 term the resultant
    is the cross term P1_1 P0_2 - P0_1 P1_2 alone; this covers linear pairs.
    Whether a y^2 term vanishes is judged on the scaled coefficients ``m``,
    at the magnitude of the solution.
    """
    # Per equation: [c, e, b, f, d, a] = y^2, P1 and P0 coefficients.
    views = m[:, :, [2, 4, 1, 5, 3, 0]]
    c1, p1, p0 = views[:, 0, :1], views[:, 0, 1:3], views[:, 0, 3:]
    c2, q1, q0 = views[:, 1, :1], views[:, 1, 1:3], views[:, 1, 3:]
    t1 = c1 * q0 - c2 * p0
    t2 = c1 * q1 - c2 * p1
    cross = _conv(p1, q0) - _conv(p0, q1)
    no_square = np.abs(views[:, :, 0]).max(axis=1) <= _COEFF_ZERO_RTOL
    # Padded by slice assignment: np.pad costs more than the whole y-resultant.
    padded = np.zeros((m.shape[0], 5))
    padded[:, :4] = cross
    resultant = np.where(no_square[:, None], padded, _conv(t1, t1) - _conv(t2, cross))
    return t1, t2, resultant


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


# Below this many kept values or seeds the per-value loops on Python floats
# (_kept_roots_each, _polish_seed) are cheaper than the array passes; each
# loop gives the bits of its array pass.
_ARRAY_MIN = 24


def _back_substitute(m, t1, t2, roots):
    """Real pairs and complex projections of J y-eliminations.

    ``m`` is (J, 2, 6), ``t1`` and ``t2`` are (J, 3) and (J, 2) and
    ``roots`` (J, 4) holds the resultant roots in x, NaN-padded. Every real
    root yields y seeds from -t1/t2 and from both equations as quadratics in
    y; the seeds of all eliminations are polished together and a seed whose
    normalized residual passes joins its elimination's pairs. Complex
    candidates become projections. Returns one ``(pairs, complex_pairs)``
    per elimination, in the scaled variables.
    """
    re, im = roots.real, roots.imag
    real = np.abs(im) <= _IMAG_RTOL * np.maximum(1.0, np.abs(re))
    upper = ~real & (im > 0)

    # Distinct real roots of each elimination, flat with their elimination.
    kept_row: list[int] = []
    kept: list[float] = []
    for j, (values, is_real) in enumerate(zip(re.tolist(), real.tolist())):
        for v in _cluster([v for v, r in zip(values, is_real) if r]):
            kept_row.append(j)
            kept.append(v)
    kr = np.array(kept_row, dtype=np.intp)
    kv = np.array(kept, dtype=float)

    kept_roots = _kept_roots if kv.size >= _ARRAY_MIN else _kept_roots_each
    others, ok, cplx_re, cplx_im, cplx_ok = kept_roots(m[kr], t1[kr], t2[kr], kv)

    # Real seeds in kept order, polished together.
    seed_k, seed_c = np.nonzero(ok)
    seed_row = kr[seed_k]
    x, y = kv[seed_k], others[seed_k, seed_c]
    if x.size < _ARRAY_MIN:
        polished = [
            _polish_seed(q, xi, yi)
            for q, xi, yi in zip(m[seed_row].tolist(), x.tolist(), y.tolist())
        ]
    else:
        coef = m[seed_row].transpose(2, 1, 0)
        x, y = _newton_polish(coef, x, y)
        polished = zip(x.tolist(), y.tolist(), _normalized_residual(coef, x, y).tolist())

    pairs: list[list] = [[] for _ in range(m.shape[0])]
    for j, (xi, yi, ri) in zip(seed_row.tolist(), polished):
        if ri <= _RESIDUAL_RTOL:
            _insert_pair(pairs[j], (xi, yi), ri)

    # A real kept value whose companion went complex: keep its projection.
    complex_pairs: list[list] = [[] for _ in range(m.shape[0])]
    if cplx_ok.any():
        ck, ce = np.nonzero(cplx_ok)
        for j, kept_value, o_re, o_im in zip(
            kr[ck].tolist(),
            kv[ck].tolist(),
            cplx_re[ck, ce].tolist(),
            cplx_im[ck, ce].tolist(),
        ):
            rel = abs(o_im) / max(1.0, abs(o_re))
            _add_projection(complex_pairs[j], kept_value, o_re, rel, dedupe=True)

    # One representative per conjugate pair of the resultant itself (roots of
    # real polynomials come in exact conjugate pairs).
    zj, zc = np.nonzero(upper)
    if zj.size:
        z = roots[zj, zc]
        t1z, t2z = t1[zj], t2[zj]
        t1z = t1z[:, 0] + (t1z[:, 1] + t1z[:, 2] * z) * z
        t2z = t2z[:, 0] + t2z[:, 1] * z
        other = (-t1z / t2z).real
        flat = np.abs(t2z) <= 1e-12 * np.maximum(1.0, np.abs(t1z))
        if flat.any():
            for i in np.flatnonzero(flat).tolist():
                other[i] = _first_root(m[zj[i]], complex(z[i])).real
        for j, z_kept, z_im, o_re in zip(
            zj.tolist(), z.real.tolist(), z.imag.tolist(), other.tolist()
        ):
            rel = abs(z_im) / max(1.0, abs(z_kept))
            _add_projection(complex_pairs[j], z_kept, o_re, rel)

    out = []
    for found, projections in zip(pairs, complex_pairs):
        # Deduplicate and order nearest-to-real first.
        deduped: list[tuple] = []
        for seed in sorted(projections, key=lambda s: s[2]):
            if not any(_same_pair(seed, kept_seed) for kept_seed in deduped):
                deduped.append(seed)
        out.append((sorted(p for p, _ in found), deduped))
    return out


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

    ``q`` is (F, 2, 6) (both equations), ``t1`` (F, 3) and ``t2`` (F, 2). Returns the real candidates as (F, 5) values [-t1/t2, eq1 r1,
    eq1 r2, eq2 r1, eq2 r2] with their validity mask, and each equation's
    complex root of positive imaginary part as (F, 2) real and imaginary
    parts with a validity mask. A real pair takes the larger-magnitude root
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
    return out, ok, re, im, quadratic & ~real_pair & ~near


def _kept_roots_each(q: np.ndarray, t1: np.ndarray, t2: np.ndarray, kept: np.ndarray):
    """``_kept_roots`` on Python floats, one kept value at a time.

    Each valid entry is computed with the arithmetic of ``_kept_roots`` in
    the same order, so it has the same bits; entries outside the validity
    masks are NaN.
    """
    out, ok, re_part, im_part, cplx = [], [], [], [], []
    nan = math.nan
    per_kept = zip(q.tolist(), t1.tolist(), t2.tolist(), kept.tolist())
    for eqs, (a0, a1, a2), (b0, b1), k in per_kept:
        t1v = a0 + (a1 + a2 * k) * k
        t2v = b0 + b1 * k
        valid = abs(t2v) > 1e-10 * max(1.0, abs(k))
        values, flags = [-t1v / t2v if valid else nan], [valid]
        for a, b, c, d, e, f in eqs:
            aa, bb, cc = c, b * k + e, (a * k + d) * k + f
            tiny = _COEFF_ZERO_RTOL * max(max(abs(aa), abs(bb)), abs(cc))
            re = im = nan
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
                    values += [re if near else nan, nan]
                    flags += [near, False]
            elif abs(bb) > tiny:
                values += [-cc / bb, nan]
                flags += [True, False]
            else:
                values += [nan, nan]
                flags += [False, False]
            re_part.append(re)
            im_part.append(im)
            cplx.append(not near)
        out.append(values)
        ok.append(flags)
    rows = kept.shape[0]
    return (
        np.array(out, dtype=float).reshape(rows, 5),
        np.array(ok, dtype=bool).reshape(rows, 5),
        np.array(re_part, dtype=float).reshape(rows, 2),
        np.array(im_part, dtype=float).reshape(rows, 2),
        np.array(cplx, dtype=bool).reshape(rows, 2),
    )


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


def _polish_seed(q: list, x: float, y: float, steps: int = 2):
    """Newton polish and normalized residual of one seed on Python floats.

    ``q`` holds both equations' [a, b, c, d, e, f]. The arithmetic is the
    per-seed loop that the array pass below reproduces element by element.
    """
    (a1, b1, c1, d1, e1, f1), (a2, b2, c2, d2, e2, f2) = q
    a1_2, c1_2, a2_2, c2_2 = 2.0 * a1, 2.0 * c1, 2.0 * a2, 2.0 * c2
    for _ in range(steps):
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
# cannot be NaN.


def _newton_polish(
    coef: np.ndarray, x: np.ndarray, y: np.ndarray, steps: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on the 2x2 system from each seed (x[i], y[i]).

    ``coef`` is (6, 2, S): a..f of both equations for each seed. A seed stops
    where its Jacobian is singular and becomes NaN where an iterate is not
    finite; the others carry on.
    """
    a, b, c, d, e, f = coef
    a2, c2 = 2.0 * a, 2.0 * c
    active = np.ones(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(steps):
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
    with np.errstate(all="ignore"):
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
