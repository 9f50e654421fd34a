"""Analytic solution of two bivariate quadratic equations.

The auxiliary variables of the linearized TOA problem satisfy a pair of
quadratics

    a x^2 + b x y + c y^2 + d x + e y + f = 0

in x = lam1, y = lam2. One variable is eliminated through the classical
resultant of the two conics, giving a univariate polynomial of degree at most
four whose real roots are found via companion-matrix eigenvalues; the other
variable is back-substituted. All real candidate pairs of one elimination are
then polished together: two Newton steps on the 2x2 system and the
normalized-residual test run once over float64 arrays, with the same
arithmetic, in the same order, as a per-pair loop would do. The singular-
Jacobian early stop and the non-finite exit apply to each pair on its own.
The accepted pairs are merged in seed order, and by Bezout's bound at most
four real pairs are kept.

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

import numpy as np

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

    def with_substitution(self, sx: float, sy: float) -> "BivariateQuadratic":
        """Coefficients after substituting x -> sx*x, y -> sy*y."""
        return BivariateQuadratic(
            self.a * sx * sx,
            self.b * sx * sy,
            self.c * sy * sy,
            self.d * sx,
            self.e * sy,
            self.f,
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
    ``ill_conditioned`` marks eliminations that degenerated (shared
    components, vanishing resultants).
    """

    pairs: tuple[AuxiliaryPair, ...]
    complex_pairs: tuple[ComplexSeed, ...]
    ill_conditioned: bool


def coefficients_from_system(sys):
    """Quadratic-pair coefficients for a linearized system.

    Substituting ``theta = g + U lam`` into the two constraint quadratic forms
    and moving lam1 (respectively 2 lam2) to the left side yields the two
    equations solved here; the moves contribute the -1 in d1 and the -2 in e2.

    Args:
        sys: LinearSystem with attributes ``g`` and ``U``.

    Returns:
        Tuple of two BivariateQuadratic in (lam1, lam2).
    """
    from .linear_system import constraint_matrices

    forms = constraint_matrices(sys.ndim)
    g = sys.g
    u1 = sys.U[:, 0]
    u2 = sys.U[:, 1]

    def quad(h: np.ndarray, shift_d: float, shift_e: float) -> BivariateQuadratic:
        u1h = u1 @ h
        u2h = u2 @ h
        return BivariateQuadratic(
            a=u1h @ u1,
            b=2.0 * (u1h @ u2),
            c=u2h @ u2,
            d=2.0 * (u1h @ g) + shift_d,
            e=2.0 * (u2h @ g) + shift_e,
            f=g @ h @ g,
        )

    return quad(forms.h1, -1.0, 0.0), quad(forms.h2, 0.0, -2.0)


def solve_pair(q1: BivariateQuadratic, q2: BivariateQuadratic) -> list[AuxiliaryPair]:
    """All real solutions of the two quadratics (0 to 4 pairs)."""
    return list(solve_pair_detailed(q1, q2).pairs)


def solve_pair_detailed(
    q1: BivariateQuadratic, q2: BivariateQuadratic
) -> BivariateSolution:
    """Solve the quadratic pair, reporting fallback and conditioning info."""
    s1, s2 = q1.scale(), q2.scale()
    if s1 == 0.0 or s2 == 0.0:
        raise ValueError("an equation is identically zero")
    n1, n2 = q1.scaled(1.0 / s1), q2.scaled(1.0 / s2)

    sx = _variable_scale(n1, n2, "x")
    sy = _variable_scale(n1, n2, "y")
    m1 = n1.with_substitution(sx, sy)
    m1 = m1.scaled(1.0 / m1.scale())
    m2 = n2.with_substitution(sx, sy)
    m2 = m2.scaled(1.0 / m2.scale())

    # Linearity must be judged at the scale of the solution: quadratic
    # coefficients that look negligible next to the constant term can still
    # dominate once the variables reach their natural magnitude.
    if _is_linear(m1) and _is_linear(m2):
        pairs, ill = _solve_linear(n1, n2)
        return BivariateSolution(pairs, (), ill)

    result = _solve_by_elimination(m1, m2, eliminate="y")
    if result is None:
        result = _solve_by_elimination(m1, m2, eliminate="x")
    if result is None:
        if _is_linear(m1) or _is_linear(m2):
            pairs, _ = _solve_linear(n1, n2)
            if pairs:
                return BivariateSolution(pairs, (), True)
        return BivariateSolution((), (), True)

    def unscale(p: AuxiliaryPair) -> AuxiliaryPair:
        return AuxiliaryPair(p.lam1 * sx, p.lam2 * sy)

    return BivariateSolution(
        tuple(unscale(p) for p in result.pairs),
        tuple(
            ComplexSeed(unscale(s.pair), s.rel_imag) for s in result.complex_pairs
        ),
        result.ill_conditioned,
    )


def _is_linear(q: BivariateQuadratic) -> bool:
    return max(abs(q.a), abs(q.b), abs(q.c)) <= _COEFF_ZERO_RTOL


def _variable_scale(n1: BivariateQuadratic, n2: BivariateQuadratic, var: str) -> float:
    """Order-of-magnitude estimate of a solution component.

    At a root the constant term is balanced by the linear or the pure-square
    term of the variable, so |f|/|linear| and sqrt(|f|/|square|) bound the
    magnitude from above; the smaller of the two tracks whichever term
    dominates.
    """
    candidates = []
    for q in (n1, n2):
        lin = abs(q.d) if var == "x" else abs(q.e)
        square = abs(q.a) if var == "x" else abs(q.c)
        const = abs(q.f)
        if const > 1e-30:
            if lin > 1e-30:
                candidates.append(const / lin)
            if square > 1e-30:
                candidates.append(math.sqrt(const / square))
    if not candidates:
        return 1.0
    return max(1.0, min(candidates))


def _solve_linear(
    q1: BivariateQuadratic, q2: BivariateQuadratic
) -> tuple[tuple[AuxiliaryPair, ...], bool]:
    det = q1.d * q2.e - q1.e * q2.d
    scale = max(abs(q1.d * q2.e), abs(q1.e * q2.d), 1e-30)
    if abs(det) <= 1e-12 * scale:
        return (), True
    x = (-q1.f * q2.e + q2.f * q1.e) / det
    y = (-q1.d * q2.f + q2.d * q1.f) / det
    return (AuxiliaryPair(x, y),), False


def _poly_views(q: BivariateQuadratic, eliminate: str):
    """Coefficients of q as a quadratic in the eliminated variable.

    Returns (p2, p1, p0): the number multiplying the square of the eliminated
    variable, and the polynomials in the kept variable (lowest power first)
    multiplying its linear and constant powers.
    """
    if eliminate == "y":
        return q.c, np.array([q.e, q.b]), np.array([q.f, q.d, q.a])
    return q.a, np.array([q.d, q.b]), np.array([q.f, q.e, q.c])


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing zero coefficients, keeping at least one."""
    if c[-1] != 0:
        return c
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1] if nonzero.size else c[:1]


def _polysub(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Coefficients of c1 - c2 (lowest power first), trimmed."""
    c1, c2 = _trim(c1), _trim(c2)
    if len(c1) > len(c2):
        out = c1.copy()
        out[: len(c2)] -= c2
    else:
        out = -c2
        out[: len(c1)] += c1
    return _trim(out)


def _polymul(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Coefficients of c1 * c2 (lowest power first), trimmed."""
    return _trim(np.convolve(_trim(c1), _trim(c2)))


def _polyval(x, c: np.ndarray):
    """Horner evaluation of c (lowest power first) at the scalar x."""
    *rest, value = c.tolist()
    value = value + x * 0
    for coef in reversed(rest):
        value = coef + value * x
    return value


def _polyroots(c: np.ndarray) -> np.ndarray:
    """Sorted roots of c (lowest power first, nonzero leading coefficient)."""
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    n = len(c) - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n :: n + 1] = 1
    companion[:, -1] -= c[:-1] / c[-1]
    roots = np.linalg.eigvals(companion)
    roots.sort()
    return roots


def _solve_by_elimination(
    n1: BivariateQuadratic, n2: BivariateQuadratic, eliminate: str
) -> BivariateSolution | None:
    """Eliminate one variable; None when the resultant vanishes identically."""
    p2, p1, p0 = _poly_views(n1, eliminate)
    q2, q1, q0 = _poly_views(n2, eliminate)
    # Polynomials in the kept variable: the eliminated one is -t1/t2 wherever
    # t2 does not vanish.
    t1 = _polysub(p2 * q0, q2 * p0)
    t2 = _polysub(p2 * q1, q2 * p1)

    degenerate_leads = abs(p2) <= _COEFF_ZERO_RTOL and abs(q2) <= _COEFF_ZERO_RTOL
    cross = _polysub(_polymul(p1, q0), _polymul(p0, q1))
    if degenerate_leads:
        resultant = cross
    else:
        resultant = _polysub(_polymul(t1, t1), _polymul(t2, cross))

    magnitude = np.abs(resultant).max()
    if magnitude <= 1e-14:
        return None
    resultant = resultant / magnitude
    keep = np.nonzero(np.abs(resultant) > 1e-13)[0]
    if keep.size == 0:
        return None
    resultant = resultant[: keep[-1] + 1]
    if resultant.size == 1:
        # Nonzero constant: no finite intersections along this variable.
        return BivariateSolution((), (), False)

    roots = _polyroots(resultant)
    real_roots = []
    complex_roots = []
    for root in roots:
        if abs(root.imag) <= _IMAG_RTOL * max(1.0, abs(root.real)):
            real_roots.append(float(root.real))
        else:
            complex_roots.append(root)

    seeds: list[tuple[float, float]] = []
    complex_pairs: list[ComplexSeed] = []

    def add_seed(kept_value: float, other: complex) -> None:
        xy = _ordered(kept_value, other.real, eliminate)
        if not (np.isfinite(xy[0]) and np.isfinite(xy[1])):
            return
        rel = abs(other.imag) / max(1.0, abs(other.real))
        seed = ComplexSeed(AuxiliaryPair(*xy), rel)
        if not any(_same_pair(seed.pair, s.pair) for s in complex_pairs):
            complex_pairs.append(seed)

    for kept in _cluster(real_roots):
        real_others, complex_others = _companion_candidates(
            n1, n2, t1, t2, kept, eliminate
        )
        seeds.extend(_ordered(kept, other, eliminate) for other in real_others)
        # Real resultant root whose companion went complex: keep its
        # projection too.
        for other in complex_others:
            add_seed(kept, other)

    pairs: list[tuple[AuxiliaryPair, float]] = []
    if seeds:
        x, y = _newton_polish(n1, n2, *np.array(seeds).T)
        res = _normalized_residual(n1, n2, x, y)
        for xi, yi, ri in zip(x.tolist(), y.tolist(), res.tolist()):
            if ri <= _RESIDUAL_RTOL:
                _insert_pair(pairs, AuxiliaryPair(xi, yi), ri)

    # One representative per conjugate pair of the resultant itself (roots of
    # real polynomials come in exact conjugate pairs).
    for z in (z for z in complex_roots if z.imag > 0):
        other = _companion_value(n1, n2, t1, t2, z, eliminate)
        rel = abs(z.imag) / max(1.0, abs(z.real))
        xy = _ordered(z.real, complex(other).real, eliminate)
        if np.isfinite(xy[0]) and np.isfinite(xy[1]):
            seed = ComplexSeed(AuxiliaryPair(*xy), rel)
            complex_pairs.append(seed)

    # Deduplicate and order nearest-to-real first.
    deduped: list[ComplexSeed] = []
    for seed in sorted(complex_pairs, key=lambda s: s.rel_imag):
        if not any(_same_pair(seed.pair, kept.pair) for kept in deduped):
            deduped.append(seed)
    complex_pairs = deduped

    ordered = tuple(p for p, _ in sorted(pairs, key=lambda t: (t[0].lam1, t[0].lam2)))
    return BivariateSolution(ordered, tuple(complex_pairs), False)


def _ordered(kept: float, other: float, eliminate: str) -> tuple[float, float]:
    return (kept, other) if eliminate == "y" else (other, kept)


def _cluster(values: list[float]) -> list[float]:
    """Collapse numerically equal roots (multiplicities from the resultant)."""
    out: list[float] = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > 1e-9 * max(1.0, abs(v)):
            out.append(v)
    return out


def _companion_value(
    n1, n2, t1_poly, t2_poly, kept: complex, eliminate: str
) -> complex:
    """Eliminated-variable value via the linear combination of the two conics."""
    t1 = _polyval(kept, t1_poly)
    t2 = _polyval(kept, t2_poly)
    if abs(t2) <= 1e-12 * max(1.0, abs(t1)):
        # Fall back to one equation's quadratic roots.
        for q in (n1, n2):
            cands = _quadratic_in_eliminated(q, kept, eliminate)
            if cands:
                return cands[0]
        return 0.0
    return -t1 / t2


def _companion_candidates(
    n1, n2, t1_poly, t2_poly, kept: float, eliminate: str
) -> tuple[list[float], list[complex]]:
    """Candidates for the eliminated variable at a fixed kept value.

    Returns the real candidates and, separately, one representative per
    complex conjugate candidate pair (the back-substituted variable can go
    complex even when the resultant root itself is real).
    """
    reals: list[float] = []
    cplx: list[complex] = []
    t1 = _polyval(kept, t1_poly)
    t2 = _polyval(kept, t2_poly)
    if abs(t2) > 1e-10 * max(1.0, abs(kept)):
        reals.append(float(np.real(-t1 / t2)))
    for q in (n1, n2):
        for cand in _quadratic_in_eliminated(q, kept, eliminate):
            if abs(cand.imag) <= _IMAG_RTOL * max(1.0, abs(cand.real)):
                reals.append(float(cand.real))
            elif cand.imag > 0:
                cplx.append(cand)
    return reals, cplx


def _quadratic_in_eliminated(
    q: BivariateQuadratic, kept: complex, eliminate: str
) -> list[complex]:
    """Roots of q in the eliminated variable with the kept one fixed."""
    if eliminate == "y":
        aa = q.c
        bb = q.b * kept + q.e
        cc = q.a * kept * kept + q.d * kept + q.f
    else:
        aa = q.a
        bb = q.b * kept + q.d
        cc = q.c * kept * kept + q.e * kept + q.f
    scale = max(abs(aa), abs(bb), abs(cc))
    if scale == 0.0:
        return []
    if abs(aa) <= _COEFF_ZERO_RTOL * scale:
        if abs(bb) <= _COEFF_ZERO_RTOL * scale:
            return []
        return [-cc / bb]
    disc = np.sqrt(complex(bb * bb - 4.0 * aa * cc))
    # Stable pairing: the larger-magnitude root first, companion via product.
    denom = -bb - disc if abs(-bb - disc) >= abs(-bb + disc) else -bb + disc
    if denom == 0.0:
        return [complex(0.0)]
    r1 = denom / (2.0 * aa)
    r2 = cc / (aa * r1) if r1 != 0.0 else -bb / aa
    return [r1, r2]


# The polish and residual below run on arrays with one column per seed and
# one row per equation. Each element must be bitwise what a per-seed scalar
# loop gives (tests/test_polysolve.py keeps that loop as the reference), so
# every expression keeps the scalar evaluation order. np.fmax stands in for
# Python's max(), which skips a NaN that is not its first argument; it is used
# only where that first argument cannot be NaN.


def _columns(n1: BivariateQuadratic, n2: BivariateQuadratic):
    """The six coefficients of both equations, each as a (2, 1) column."""
    rows = np.array(
        [(n1.a, n1.b, n1.c, n1.d, n1.e, n1.f), (n2.a, n2.b, n2.c, n2.d, n2.e, n2.f)]
    )
    return rows.T[:, :, None]


def _newton_polish(
    n1: BivariateQuadratic,
    n2: BivariateQuadratic,
    x: np.ndarray,
    y: np.ndarray,
    steps: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on the 2x2 system from each seed (x[i], y[i]).

    A seed stops where its Jacobian is singular and becomes NaN where an
    iterate is not finite; the others carry on.
    """
    a, b, c, d, e, f = _columns(n1, n2)
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


def _normalized_residual(n1, n2, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Residual relative to the largest term of each equation at the point.

    Dividing by the point magnitude instead would let far-away points pass on
    sheer size, since their tiny-coefficient terms never reach the tolerance
    times x^2. Points that are not finite get inf.
    """
    a, b, c, d, e, f = _columns(n1, n2)
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


def _same_pair(new: AuxiliaryPair, kept: AuxiliaryPair) -> bool:
    """Both components agree within _DEDUPE_RTOL relative to the new pair."""
    same_x = abs(new.lam1 - kept.lam1) <= _DEDUPE_RTOL * max(1.0, abs(new.lam1))
    return same_x and abs(new.lam2 - kept.lam2) <= _DEDUPE_RTOL * max(1.0, abs(new.lam2))


def _insert_pair(
    pairs: list[tuple[AuxiliaryPair, float]], pair: AuxiliaryPair, res: float
) -> None:
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
