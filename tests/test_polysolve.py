import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftwlas import (
    AuxiliaryPair,
    BivariateQuadratic,
    LinearSystem,
    build_square_scenario,
    build_system,
    coefficients_from_system,
    forward_model,
    sample_ud_state,
    solve_pair,
    solve_pair_detailed,
)
from cftwlas.polysolve import (
    _kept_roots,
    _kept_roots_each,
    _newton_polish,
    _normalized_residual,
    _polish_seed,
    _terms,
    solve_pairs,
)


def term_scale(q, x, y):
    return max(
        abs(q.a * x * x), abs(q.b * x * y), abs(q.c * y * y),
        abs(q.d * x), abs(q.e * y), abs(q.f), 1e-30,
    )


def rel_residual(q1, q2, x, y):
    return max(
        abs(q1(x, y)) / term_scale(q1, x, y),
        abs(q2(x, y)) / term_scale(q2, x, y),
    )


def planted_system(rng, scale):
    """Two random quadratics sharing one planted real solution."""
    x, y = rng.normal(size=2) * scale
    quads = []
    for _ in range(2):
        a, b, c, d, e = rng.normal(size=5)
        f = -(a * x * x + b * x * y + c * y * y + d * x + e * y)
        quads.append(BivariateQuadratic(a, b, c, d, e, f))
    return quads[0], quads[1], x, y


def noise_free_pair(seed):
    rng = np.random.default_rng(seed)
    anchors = build_square_scenario(800.0, 8)
    ud = sample_ud_state(rng, 500.0, center=anchors.center)
    sys_ = build_system(forward_model(ud, anchors), anchors)
    q1, q2 = coefficients_from_system(sys_)
    lam1 = ud.drift**2 - float(ud.vel @ ud.vel)
    lam2 = ud.offset * ud.drift - float(ud.pos @ ud.vel)
    return q1, q2, lam1, lam2


class TestCoefficients:
    def test_zero_system_leaves_only_shift_terms(self):
        # With U = 0 and g = 0 the equations collapse to -lam1 = 0 and
        # -2 lam2 = 0.
        sys_ = LinearSystem(
            A=np.eye(6), y=np.zeros(6), G=np.zeros((6, 2)),
            g=np.zeros(6), U=np.zeros((6, 2)),
        )
        q1, q2 = coefficients_from_system(sys_)
        assert (q1.a, q1.b, q1.c, q1.e, q1.f) == (0, 0, 0, 0, 0)
        assert q1.d == -1.0
        assert (q2.a, q2.b, q2.c, q2.d, q2.f) == (0, 0, 0, 0, 0)
        assert q2.e == -2.0

    def test_true_pair_is_a_root_noise_free(self):
        for seed in range(5):
            q1, q2, lam1, lam2 = noise_free_pair(seed)
            assert rel_residual(q1, q2, lam1, lam2) < 1e-9

    def test_cross_coefficient_symmetry(self):
        # b = 2 u1' H u2 has to equal u1' H u2 + u2' H u1 for symmetric H.
        rng = np.random.default_rng(5)
        q1, q2, *_ = noise_free_pair(7)
        sys_ = build_system(
            forward_model(
                sample_ud_state(np.random.default_rng(7), 500.0,
                                center=build_square_scenario(800.0, 8).center),
                build_square_scenario(800.0, 8),
            ),
            build_square_scenario(800.0, 8),
        )
        from cftwlas.linear_system import constraint_matrices

        forms = constraint_matrices(2)
        u1, u2 = sys_.U[:, 0], sys_.U[:, 1]
        for q, h in ((q1, forms.h1), (q2, forms.h2)):
            both_ways = u1 @ h @ u2 + u2 @ h @ u1
            assert q.b == pytest.approx(both_ways, rel=1e-12, abs=1e-15)


class TestSolvePair:
    def test_separable_squares(self):
        q1 = BivariateQuadratic(1, 0, 0, 0, 0, -1)  # x^2 = 1
        q2 = BivariateQuadratic(0, 0, 1, 0, 0, -1)  # y^2 = 1
        pairs = solve_pair(q1, q2)
        found = sorted((round(p.lam1), round(p.lam2)) for p in pairs)
        assert found == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_degenerate_linear_case(self):
        q1 = BivariateQuadratic(0, 0, 0, 1, 0, -2)  # x = 2
        q2 = BivariateQuadratic(0, 0, 0, 0, 1, -3)  # y = 3
        pairs = solve_pair(q1, q2)
        assert len(pairs) == 1
        assert pairs[0].lam1 == pytest.approx(2.0)
        assert pairs[0].lam2 == pytest.approx(3.0)

    def test_linear_and_quadratic_mix(self):
        q1 = BivariateQuadratic(0, 0, 0, 1, 0, -2)  # x = 2
        q2 = BivariateQuadratic(0, 0, 1, 0, 0, -1)  # y^2 = 1
        pairs = solve_pair(q1, q2)
        found = sorted((round(p.lam1), round(p.lam2)) for p in pairs)
        assert found == [(2, -1), (2, 1)]

    def test_noise_free_scenario_recovers_true_pair(self):
        for seed in range(8):
            q1, q2, lam1, lam2 = noise_free_pair(seed + 100)
            pairs = solve_pair(q1, q2)
            best = min(
                max(
                    abs(p.lam1 - lam1) / max(1.0, abs(lam1)),
                    abs(p.lam2 - lam2) / max(1.0, abs(lam2)),
                )
                for p in pairs
            )
            assert best < 1e-8

    def test_planted_solutions_recovered(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-2, 4)
            q1, q2, x, y = planted_system(rng, scale)
            pairs = solve_pair(q1, q2)
            assert pairs, "no real solution found for a planted system"
            best = min(
                max(
                    abs(p.lam1 - x) / max(1.0, abs(x)),
                    abs(p.lam2 - y) / max(1.0, abs(y)),
                )
                for p in pairs
            )
            assert best < 1e-6

    def test_returned_pairs_back_substitute(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            q1, q2, *_ = planted_system(rng, 10.0 ** rng.uniform(-1, 3))
            for p in solve_pair(q1, q2):
                assert rel_residual(q1, q2, p.lam1, p.lam2) < 1e-8

    def test_at_most_four_solutions(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            q1, q2, *_ = planted_system(rng, 1.0)
            assert len(solve_pair(q1, q2)) <= 4

    def test_scaling_invariance(self):
        # Multiplying either equation by a nonzero constant cannot change
        # the solution set.
        rng = np.random.default_rng(11)
        for _ in range(50):
            q1, q2, *_ = planted_system(rng, 5.0)
            base = sorted(
                (p.lam1, p.lam2) for p in solve_pair(q1, q2)
            )
            scaled = sorted(
                (p.lam1, p.lam2)
                for p in solve_pair(q1.scaled(137.0), q2.scaled(-1e-3))
            )
            assert len(base) == len(scaled)
            for (x1, y1), (x2, y2) in zip(base, scaled):
                assert x1 == pytest.approx(x2, rel=1e-6, abs=1e-9)
                assert y1 == pytest.approx(y2, rel=1e-6, abs=1e-9)

    def test_identically_zero_equation_rejected(self):
        q = BivariateQuadratic(0, 0, 0, 0, 0, 0)
        other = BivariateQuadratic(1, 0, 0, 0, 0, -1)
        with pytest.raises(ValueError):
            solve_pair(q, other)

    def test_no_real_intersection_reports_complex_pairs(self):
        # Unit circle against a line that misses it: the intersections are
        # x = 2, y = +-i sqrt(3), so only a complex projection remains.
        q1 = BivariateQuadratic(1, 0, 1, 0, 0, -1)  # x^2 + y^2 = 1
        q2 = BivariateQuadratic(0, 0, 0, 1, 0, -2)  # x = 2
        sol = solve_pair_detailed(q1, q2)
        assert sol.pairs == ()
        assert sol.complex_pairs
        seed = sol.complex_pairs[0].pair
        assert seed.lam1 == pytest.approx(2.0, abs=1e-9)
        assert seed.lam2 == pytest.approx(0.0, abs=1e-9)

    def test_inconsistent_system_returns_nothing(self):
        # Same conic shifted by a constant: the variety is empty even over
        # the complex numbers.
        q1 = BivariateQuadratic(1, 0, 1, 0, 0, 1)
        q2 = BivariateQuadratic(1, 0, 1, 0, 0, -1)
        sol = solve_pair_detailed(q1, q2)
        assert sol.pairs == ()
        assert sol.complex_pairs == ()

    def test_complex_seed_ordering(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            q1, q2, *_ = planted_system(rng, 2.0)
            sol = solve_pair_detailed(q1, q2)
            rels = [s.rel_imag for s in sol.complex_pairs]
            assert rels == sorted(rels)

    def test_auxiliary_pair_is_plain_data(self):
        pair = AuxiliaryPair(1.5, -2.5)
        assert pair.lam1 == 1.5 and pair.lam2 == -2.5


# Per-seed scalar reference for the array polish and residual of
# cftwlas.polysolve: every array element must equal, bit for bit, what this
# loop gives for its seed.
def ref_newton_polish(n1, n2, x, y, steps=2):
    for _ in range(steps):
        f1 = n1(x, y)
        f2 = n2(x, y)
        j11 = 2.0 * n1.a * x + n1.b * y + n1.d
        j12 = n1.b * x + 2.0 * n1.c * y + n1.e
        j21 = 2.0 * n2.a * x + n2.b * y + n2.d
        j22 = n2.b * x + 2.0 * n2.c * y + n2.e
        det = j11 * j22 - j12 * j21
        if abs(det) <= 1e-14 * max(1.0, abs(j11 * j22), abs(j12 * j21)):
            break
        x -= (f1 * j22 - f2 * j12) / det
        y -= (j11 * f2 - j21 * f1) / det
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.nan, math.nan
    return x, y


def ref_term_scale(q, x, y):
    return max(
        abs(q.a * x * x), abs(q.b * x * y), abs(q.c * y * y),
        abs(q.d * x), abs(q.e * y), abs(q.f),
    )


def ref_normalized_residual(n1, n2, x, y):
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    r1 = abs(n1(x, y)) / max(ref_term_scale(n1, x, y), 1e-30)
    r2 = abs(n2(x, y)) / max(ref_term_scale(n2, x, y), 1e-30)
    return max(r1, r2)


def same_bits(a, b):
    """Bitwise equality of two floats, any two NaNs counting as equal."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


_coef = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-1e-12, 1e-12, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)
_quadratic = st.builds(BivariateQuadratic, *([_coef] * 6))
_seed_value = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(9.9e6, 1.01e7).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e155, 0.0]),
)


@st.composite
def _polish_case(draw):
    kind = draw(st.sampled_from(["free", "proportional", "constant"]))
    if kind == "constant":
        # Constant equations: the Jacobian vanishes.
        n1, n2 = (BivariateQuadratic(0, 0, 0, 0, 0, draw(_coef)) for _ in range(2))
    else:
        n1 = draw(_quadratic)
        # Proportional equations have a singular Jacobian everywhere.
        factor = draw(st.floats(-1e3, 1e3).filter(lambda v: v != 0.0))
        n2 = n1.scaled(factor) if kind == "proportional" else draw(_quadratic)
    seeds = draw(st.lists(st.tuples(_seed_value, _seed_value), min_size=1, max_size=8))
    return n1, n2, seeds


def _flat_coefficients(cases):
    """The (6, 2, S) per-seed coefficients of the flat-seed polish for
    (n1, n2, seeds) cases, seeds of all cases concatenated in order."""
    columns = [
        [[getattr(n1, k), getattr(n2, k)] for k in "abcdef"]
        for n1, n2, seeds in cases
        for _ in seeds
    ]
    return np.array(columns).transpose(1, 2, 0)


@settings(max_examples=400, deadline=None)
@given(st.lists(_polish_case(), min_size=1, max_size=4))
def test_array_polish_matches_per_seed_loop_bitwise(cases):
    # Seeds of several quadratic pairs share one flat pass, as the seeds of
    # every row of a batch do.
    seeds = [(n1, n2, s) for n1, n2, case_seeds in cases for s in case_seeds]
    coef = _flat_coefficients(cases)
    xs = np.array([s[0] for _, _, s in seeds])
    ys = np.array([s[1] for _, _, s in seeds])
    x, y = _newton_polish(coef, xs, ys)
    res = _normalized_residual(coef, x, y)
    for i, (n1, n2, (sx, sy)) in enumerate(seeds):
        rx, ry = ref_newton_polish(n1, n2, sx, sy)
        rres = ref_normalized_residual(n1, n2, rx, ry)
        assert same_bits(float(x[i]), rx) and same_bits(float(y[i]), ry), (i, sx, sy)
        assert same_bits(float(res[i]), rres), i
        # The per-seed loop that replaces the array pass for few seeds.
        px, py, pres = _polish_seed([_terms(n1), _terms(n2)], sx, sy)
        assert same_bits(px, rx) and same_bits(py, ry) and same_bits(pres, rres), i


def test_array_polish_covers_early_stop_and_nan_exit():
    # x^2 = 1 and y^2 = 1: the Jacobian is singular on both axes, a seed at
    # 1e200 overflows to a NaN exit, and a regular seed takes both steps.
    n1 = BivariateQuadratic(1, 0, 0, 0, 0, -1)
    n2 = BivariateQuadratic(0, 0, 1, 0, 0, -1)
    xs = np.array([0.0, 1e200, 1.2, math.inf])
    ys = np.array([0.5, 1.0, 0.9, 1.0])
    coef = _flat_coefficients([(n1, n2, xs)])
    x, y = _newton_polish(coef, xs, ys)
    assert x[0] == 0.0 and y[0] == 0.5  # stopped before the first step
    assert math.isnan(x[1]) and math.isnan(y[1])
    assert (x[2], y[2]) == ref_newton_polish(n1, n2, 1.2, 0.9)
    res = _normalized_residual(coef, x, y)
    assert res[1] == math.inf and res[3] == math.inf


_kept_case = st.tuples(
    st.lists(_coef, min_size=12, max_size=12),
    st.lists(_coef, min_size=5, max_size=5),
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_kept_case, min_size=1, max_size=6))
def test_kept_roots_loop_matches_array_pass_bitwise(cases):
    # The per-kept-value loop and the array pass agree on every validity
    # flag and, bit for bit, on every valid candidate.
    q = np.array([c[0] for c in cases]).reshape(-1, 2, 6)
    t = np.array([c[1] for c in cases])
    kept = np.array([c[2] for c in cases])
    with np.errstate(all="ignore"):
        array = _kept_roots(q, t[:, :3], t[:, 3:], kept)
    loop = _kept_roots_each(q, t[:, :3], t[:, 3:], kept)
    out, ok, re, im, cplx = array
    l_out, l_ok, l_re, l_im, l_cplx = loop
    np.testing.assert_array_equal(ok, l_ok)
    np.testing.assert_array_equal(cplx, l_cplx)
    assert out[ok].tobytes() == l_out[ok].tobytes()
    assert re[cplx].tobytes() == l_re[cplx].tobytes()
    assert im[cplx].tobytes() == l_im[cplx].tobytes()


def _edge_rows():
    """Planted pairs after rows outside the common case: linear pairs, a pair
    without y^2 terms and pairs whose equations share a factor. Returns the
    (K, 2, 6) coefficients and, for the rows that have one, the expected
    (pairs, complex_pairs), recorded from the scalar elimination that used to
    solve the first three of them."""
    rng = np.random.default_rng(14)
    rows = [
        # linear
        ([(0, 0, 0, 1, 0, -2), (0, 0, 0, 0, 1, -3)], (((2.0, 3.0),), ())),
        # linear and quadratic
        ([(0, 0, 0, 1, 0, -2), (0, 0, 1, 0, 0, -1)], None),
        # no y^2 term at all
        (
            [(1, 0, 0, 0, 1, -2), (0, 1, 0, 1, 0, -3)],
            (
                ((-2.103803402735536, -2.425988757361622),),
                ((1.0519017013677676, 1.2129943786808122, 0.39968210369068097),),
            ),
        ),
        # separable squares
        ([(1, 0, 0, 0, 0, -1), (0, 0, 1, 0, 0, -1)], None),
        # circle and a missing line
        ([(1, 0, 1, 0, 0, -1), (0, 0, 0, 1, 0, -2)], None),
        # generic linear
        (
            [(0, 0, 0, 2, -1, 3), (0, 0, 0, 1, 4, -5)],
            (((-0.7777777777777779, 1.4444444444444446),), ()),
        ),
        # shared factor y - 1: no isolated solution
        ([(0, 1, 1, -1, -1, 0), (0, 2, 1, -2, 0, -1)], ((), ())),
        # shared factor x + y - 1: no isolated solution
        ([(0, 0, 0, 1, 1, -1), (1, 1, 0, -3, -2, 2)], ((), ())),
    ]
    for _ in range(6):
        q1, q2, *_ = planted_system(rng, 10.0 ** rng.uniform(-1, 3))
        rows.append(([_terms(q1), _terms(q2)], None))
    coef, expected = zip(*rows)
    return np.array(coef, dtype=float), expected


def test_edge_rows_solved_the_same_alone_and_in_a_batch():
    coef, expected = _edge_rows()
    together = solve_pairs(coef)
    for row, want in zip(together, expected):
        if want is not None:
            assert [len(part) for part in row] == [len(part) for part in want]
            for got, value in zip(sum(row, ()), sum(want, ())):
                assert got == pytest.approx(value, rel=1e-12)
    for k in range(len(coef)):
        (alone,) = solve_pairs(coef[k : k + 1])
        assert repr(alone) == repr(together[k])
    perm = np.random.default_rng(2).permutation(len(coef))
    shuffled = solve_pairs(coef[perm])
    assert [repr(r) for r in shuffled] == [repr(together[k]) for k in perm]


# The same pair with x and y swapped: [a, b, c, d, e, f] -> [c, b, a, e, d, f].
_SWAP_XY = [2, 1, 0, 4, 3, 5]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-2.0, 4.0),
    st.tuples(*[st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0)] * 2),
)
def test_planted_root_found_from_both_variable_orders(seed, exponent, factors):
    # One elimination direction serves every row: the y-elimination must
    # recover a planted root from the x<->y-swapped pair too, with the same
    # number of real pairs, whatever scale each equation carries.
    q1, q2, x, y = planted_system(np.random.default_rng(seed), 10.0**exponent)
    s1, e1, s2, e2 = factors
    pair = np.array([
        _terms(q1.scaled(s1 * 10.0**e1)), _terms(q2.scaled(s2 * 10.0**e2))
    ])
    direct, swapped = solve_pairs(np.stack([pair, pair[:, _SWAP_XY]]))
    swapped_back = [(px, py) for py, px in swapped[0]]
    assert len(direct[0]) == len(swapped_back)
    size = max(abs(x), abs(y))
    for pairs in (direct[0], swapped_back):
        assert any(
            abs(px - x) <= 1e-6 * size and abs(py - y) <= 1e-6 * size
            for px, py in pairs
        )
