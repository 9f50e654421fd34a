"""An exact count of the auxiliary pair's real roots, against the slot table.

``solve_pairs`` decides which resultant roots are real by a tolerance on
companion eigenvalues (``_IMAG_RTOL``), and which real roots are one x by
another (``_SAME_X_RTOL``). The oracle here is exact: the resultant's
coefficients, as ``solve_pairs`` hands them to the eigenvalue call, are
doubles and so rationals, and Sturm sequences in ``fractions.Fraction``
count the polynomial's real roots without rounding. Only the count is
checked, not where the roots lie. It counts a multiple root as often as its
multiplicity, because the table gives each root of a double one its own
slot.
"""

from fractions import Fraction

import numpy as np
import pytest

from cftwlas import build_square_scenario
from cftwlas import polysolve
from cftwlas.linear_system import build_systems
from cftwlas.montecarlo import CampaignConfig, _window_inputs
from cftwlas.polysolve import _IMAG_RTOL, quadratic_coefficients, solve_pairs

# Two resultant roots this close, relative to max(1, |z|), make a near-double
# root: the only place where the table's count may differ from the exact one.
# A conjugate pair that _IMAG_RTOL lets pass as real lies this close.
_BAND = 2.0 * _IMAG_RTOL


def _trim(p: list) -> list:
    """``p`` (lowest power first) without its zero leading coefficients."""
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _remainder(p: list, q: list) -> list:
    """The remainder of p divided by q, polynomials in rationals."""
    p = list(p)
    while len(p) >= len(q):
        factor, shift = p[-1] / q[-1], len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        p = _trim(p[:-1])
    return p


def _sturm_chain(p: list) -> list:
    """The Sturm sequence of ``p``; its last member is gcd(p, p') up to a
    constant factor."""
    chain = [p, _trim([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        rest = _remainder(chain[-2], chain[-1])
        if not rest:
            break
        chain.append([-c for c in rest])
    return chain


def _distinct(chain: list) -> int:
    """The distinct real roots of a Sturm sequence's first member: the sign
    changes along the chain at -inf less those at +inf."""

    def variations(sign_of_x):
        signs = [(1 if q[-1] > 0 else -1) * sign_of_x ** (len(q) - 1) for q in chain]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(-1) - variations(1)


def real_root_count(coefficients) -> int:
    """The number of real roots, with multiplicity and exactly, of the
    polynomial whose float coefficients, lowest power first, are
    ``coefficients``. A root of multiplicity k is a root of p, gcd(p, p'),
    and so on down, k times over, so the count sums the distinct real roots
    of that chain of divisors."""
    p = _trim([Fraction(float(c)) for c in coefficients])
    total = 0
    while len(p) > 1:
        chain = _sturm_chain(p)
        total += _distinct(chain)
        p = chain[-1]
    return total


def table_count(row: np.ndarray):
    """Solve one (2, 6) pair alone. Returns the exact count of the resultant
    that the eigenvalue call received, the table's count of real slots
    (solved, and not the projection of a conjugate pair) and the sorted
    roots; ``None`` for a pair whose resultant reaches no eigenvalue
    call."""
    seen = []
    companion_roots = polysolve._companion_roots

    def spy(c):
        roots = companion_roots(c)
        seen.append((c[0].copy(), roots[0]))
        return roots

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(polysolve, "_companion_roots", spy)
        _, solved, projected, rel = solve_pairs(row[None])
    if not seen:
        return None
    (c, roots), = seen
    real = solved & ~(projected & (rel > _IMAG_RTOL))
    return real_root_count(c), int(np.count_nonzero(real)), roots


def near_double(roots: np.ndarray) -> bool:
    """Whether two of the roots lie within _BAND of each other."""
    return any(
        abs(a - b) <= _BAND * max(1.0, abs(a))
        for i, a in enumerate(roots) for b in roots[i + 1 :]
    )


def disagreements(rows) -> list:
    """(exact, table count, roots) of the rows whose counts differ."""
    results = (table_count(row) for row in rows)
    return [r for r in results if r is not None and r[0] != r[1]]


def _through(rng, points) -> list:
    """[a, b, c, d, e, f] of a random quadratic through two points apart in y."""
    (x1, y1), (x2, y2) = points
    a, b, c, d = rng.normal(size=4)
    r1, r2 = (a * x * x + b * x * y + c * y * y + d * x for x, y in points)
    e = (r2 - r1) / (y1 - y2)
    return [a, b, c, d, e, -r1 - e * y1]


def planted_near_doubles(rng, count: int) -> np.ndarray:
    """Pairs that share two solutions whose x differ by 1e-9 to 1e-3,
    relative, so that their resultant has two roots that close."""
    rows = []
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        x1, y1 = rng.normal(size=2) * scale
        x2 = x1 + 10.0 ** rng.uniform(-9.0, -3.0) * max(1.0, abs(x1)) * rng.choice([-1.0, 1.0])
        y2 = y1 + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0) * scale
        points = [(x1, y1), (x2, y2)]
        rows.append([_through(rng, points), _through(rng, points)])
    return np.array(rows)


def campaign_rows(an_count: int, snr_db: float, runs: int) -> np.ndarray:
    """The (K, 2, 6) quadratic pairs of a campaign window's first ``runs``
    runs of cell 0, seed 1, as ``estimate_batch`` builds them."""
    cfg = CampaignConfig(an_counts=(an_count,), snr_db=(snr_db,), runs=runs, seed=1)
    anchors = build_square_scenario(cfg.anchor_side_m, an_count, cfg.response_step_s)
    _, gamma, _, _ = _window_inputs(cfg, anchors, 0, snr_db, 0, runs)
    m = anchors.count
    with np.errstate(all="ignore"):
        _, _, solution, full_rank = build_systems(gamma[:, :m], gamma[:, m:], anchors)
        g, U = solution[full_rank, :, 0], solution[full_rank, :, 1:]
        return quadratic_coefficients(g, U, anchors.ndim)


class TestSturmCount:
    @pytest.mark.parametrize(
        "roots",
        [[1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0],
         [1.0, 1.0, -3.0, -3.0], [-2.0, 0.5], [0.0]],
    )
    def test_counts_real_roots_with_multiplicity(self, roots):
        coefficients = np.polynomial.polynomial.polyfromroots(roots)
        assert real_root_count(coefficients) == len(roots)
        assert real_root_count(-2.0 * coefficients) == len(roots)

    def test_complex_and_constant_polynomials(self):
        assert real_root_count([1.0, 0.0, 1.0]) == 0  # x^2 + 1
        assert real_root_count([1.0, 0.0, 2.0, 0.0, 1.0]) == 0  # (x^2 + 1)^2
        assert real_root_count([-1.0, 0.0, 0.0, 0.0, 1.0]) == 2  # x^4 - 1
        assert real_root_count([0.0, 0.0, 1.0, 0.0, 1.0]) == 2  # x^2 (x^2 + 1)
        assert real_root_count([3.0]) == real_root_count([0.0, 0.0]) == 0
        # A double root split by one part in 2**52 is two roots or none.
        assert real_root_count([1.0 - 2.0**-52, -2.0, 1.0]) == 2
        assert real_root_count([1.0 + 2.0**-52, -2.0, 1.0]) == 0


def test_table_real_counts_equal_the_exact_count():
    # Random pairs, pairs with a planted near-double root and campaign rows
    # at 4 and 8 anchors, 10 and 30 dB (seed 1). The table's count of real
    # slots equals the exact count of real roots on every row but the pinned
    # ones: 33 of the 400 planted pairs. There the rounded resultant has a
    # conjugate pair, which the eigenvalues put within _IMAG_RTOL of the
    # axis, so the table counts two real roots more. Those planted solutions
    # lie at most 5.1e-8 apart in x, and the table returns both of them. Every
    # disagreement lies in the near-double band.
    rng = np.random.default_rng(18)
    cases = {
        "random": (rng.normal(size=(400, 2, 6)), 0),
        "near double": (planted_near_doubles(rng, 400), 33),
        **{
            f"{an} anchors, {snr:g} dB": (campaign_rows(an, snr, 300), 0)
            for an in (4, 8) for snr in (10.0, 30.0)
        },
    }
    for name, (rows, pinned) in cases.items():
        differ = disagreements(rows)
        assert len(differ) == pinned, name
        for exact, counted, roots in differ:
            assert counted == exact + 2 and near_double(roots), (name, roots)
