import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cftwlas import (
    AnchorSet,
    add_noise,
    build_square_scenario,
    build_system,
    forward_model,
    noise_for_snr,
    sample_ud_state,
)
from cftwlas.linear_system import LinearSystem, constraint_matrices
from cftwlas import polysolve
from cftwlas.polysolve import (
    AuxiliaryPair,
    BivariateQuadratic,
    _cluster,
    _cluster_rows,
    _distinct,
    _insert_pair,
    _kept_root,
    _kept_roots,
    _merge_pairs,
    _newton_polish,
    _normalized_residual,
    _polish_seed,
    _same_pair,
    _terms,
    coefficients_from_system,
    solve_pair,
    solve_pair_detailed,
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
        h1, h2 = constraint_matrices(2)
        u1, u2 = sys_.U[:, 0], sys_.U[:, 1]
        for q, h in ((q1, h1), (q2, h2)):
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
    with np.errstate(all="ignore"):
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
    with np.errstate(all="ignore"):
        x, y = _newton_polish(coef, xs, ys)
        res = _normalized_residual(coef, x, y)
    assert x[0] == 0.0 and y[0] == 0.5  # stopped before the first step
    assert math.isnan(x[1]) and math.isnan(y[1])
    assert (x[2], y[2]) == ref_newton_polish(n1, n2, 1.2, 0.9)
    assert res[1] == math.inf and res[3] == math.inf


_kept_case = st.tuples(
    st.lists(_coef, min_size=12, max_size=12),
    st.lists(_coef, min_size=5, max_size=5),
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_kept_case, min_size=1, max_size=6))
# y^2 + 5e-324 y = 0 at x = 0: the discriminant underflows to 0, the first
# root is -0.0 and its companion 0 / -0.0 is numpy's 0/0 NaN, sign bit set.
@example([([0.0, 0.0, 1.0, 0.0, 5e-324, 0.0] + [0.0] * 6, [0.0] * 5, 0.0)])
def test_kept_roots_loop_matches_array_pass_bitwise(cases):
    # The per-kept-value loop and the array pass agree on every validity
    # flag and, bit for bit, on every valid candidate.
    q = np.array([c[0] for c in cases]).reshape(-1, 2, 6)
    t = np.array([c[1] for c in cases])
    kept = np.array([c[2] for c in cases])
    with np.errstate(all="ignore"):
        array = _kept_roots(q, t[:, :3], t[:, 3:], kept)
    # The loop side: ``_kept_root`` on Python floats, one kept value at a
    # time, laid out as the array pass returns it.
    per_kept = zip(q.tolist(), t[:, :3].tolist(), t[:, 3:].tolist(), kept.tolist())
    found = [_kept_root(*args) for args in per_kept]
    l_out, l_ok, l_re, l_rel, l_cplx = (np.array(part) for part in zip(*found))
    out, ok, re, rel, cplx = array
    np.testing.assert_array_equal(ok, l_ok)
    assert np.isnan(l_out[~l_ok]).all()
    np.testing.assert_array_equal(cplx, l_cplx)
    assert out[ok].tobytes() == l_out[ok].tobytes()
    assert re[cplx].tobytes() == l_re[cplx].tobytes()
    assert rel[cplx].tobytes() == l_rel[cplx].tobytes()


def _seeds_over(coef):
    """The seeds that ``solve_pairs`` polishes for one row, recorded as they
    reach ``_newton_polish``, as (x, y, first) in the original variables.
    The first Newton pass takes the -t1/t2 seeds, which ``first`` marks; the
    second takes the equation seeds of the kept values where those fail."""
    calls = []

    def record(q, x, y):
        calls.append((x, y))
        return _newton_polish(q, x, y)

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(polysolve, "_newton_polish", record)
        solve_pairs(coef)
        sx, sy = polysolve._variable_scales(coef / np.abs(coef).max(axis=2)[:, :, None])
    (x0, y0), (x1, y1) = calls
    first = np.arange(x0.size + x1.size) < x0.size
    return np.concatenate([x0, x1]) * sx[0], np.concatenate([y0, y1]) * sy[0], first


def _both_paths(coef):
    """The real pairs of one row from the one-pair loops and from a batch."""
    q1, q2 = (BivariateQuadratic(*q) for q in coef[0])
    return [tuple((p.lam1, p.lam2) for p in solve_pair(q1, q2)), solve_rows(coef)[0][0]]


def test_kept_root_where_t2_vanishes_seeds_from_the_equations():
    # The unit circles about (0, 0) and (1, 0) meet at (1/2, +-sqrt(3)/2).
    # Neither has an x y or a y term, so t2 vanishes identically: -t1/t2 is
    # 0/0 at the kept value 1/2, and its seeds are both equations' y roots.
    coef = np.array([[[1.0, 0.0, 1.0, 0.0, 0.0, -1.0], [1.0, 0.0, 1.0, -2.0, 0.0, 0.0]]])
    x, y, first = _seeds_over(coef)
    assert not first.any()
    assert np.allclose(x, 0.5)
    assert sorted(set(np.round(y, 12).tolist())) == [-0.866025403784, 0.866025403784]
    root = math.sqrt(3.0) / 2.0
    for pairs in _both_paths(coef):
        np.testing.assert_allclose(pairs, [(0.5, -root), (0.5, root)], rtol=1e-12)


def test_failing_t2_seed_falls_back_to_the_equations():
    # x^2 + y^2 = 2 and x^2 + xy + y^2 - y = 2 differ by (x - 1) y, so they
    # meet at (1, +-1) and (+-sqrt(2), 0). Over x = 1 the resultant has a
    # double root, which the eigenvalues split by about 1e-8: t2 (x - 1 up
    # to scale) passes its zero test there, but -t1/t2 is 0 and polishes to
    # no solution. Both y then come from the equations' roots, while at
    # +-sqrt(2) -t1/t2 is the one seed.
    coef = np.array([[[1.0, 0.0, 1.0, 0.0, 0.0, -2.0], [1.0, 1.0, 1.0, 0.0, -1.0, -2.0]]])
    x, y, first = _seeds_over(coef)
    near_one = np.abs(x - 1.0) < 1e-6
    assert first[near_one].any() and not (np.abs(y[first & near_one]) > 1e-6).any()
    assert sorted(set(np.round(y[near_one & ~first], 6).tolist())) == [-1.0, 1.0]
    assert (np.abs(np.abs(x[first & ~near_one]) - math.sqrt(2.0)) < 1e-9).all()
    want = [(-math.sqrt(2.0), 0.0), (1.0, -1.0), (1.0, 1.0), (math.sqrt(2.0), 0.0)]
    for pairs in _both_paths(coef):
        # Ascending pairs, but the two x over 1 differ in their last bits.
        pairs = sorted(pairs, key=lambda p: (round(p[0], 9), p[1]))
        np.testing.assert_allclose(pairs, want, rtol=1e-9, atol=1e-12)


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


def per_row(solved, rows):
    """The flat candidates of ``solve_pairs`` as one (pairs, complex_pairs)
    of tuples per row."""
    out = [([], []) for _ in range(rows)]
    for k, lam, from_complex, rel in zip(*(v.tolist() for v in solved)):
        if from_complex:
            out[k][1].append((*lam, rel))
        else:
            out[k][0].append(tuple(lam))
    return [(tuple(pairs), tuple(projections)) for pairs, projections in out]


def solve_rows(coef):
    with np.errstate(all="ignore"):
        return per_row(solve_pairs(coef), len(coef))


def loop_rows(coef):
    """Each row solved alone by ``solve_pair_detailed``, the one-pair path on
    Python floats, as one (pairs, complex_pairs) of tuples per row."""
    out = []
    for q1, q2 in coef.tolist():
        sol = solve_pair_detailed(BivariateQuadratic(*q1), BivariateQuadratic(*q2))
        out.append((
            tuple((p.lam1, p.lam2) for p in sol.pairs),
            tuple((s.pair.lam1, s.pair.lam2, s.rel_imag) for s in sol.complex_pairs),
        ))
    return out


def test_edge_rows_solved_the_same_alone_and_in_a_batch():
    coef, expected = _edge_rows()
    together = solve_rows(coef)
    for row, want in zip(together, expected):
        if want is not None:
            assert [len(part) for part in row] == [len(part) for part in want]
            for got, value in zip(sum(row, ()), sum(want, ())):
                assert got == pytest.approx(value, rel=1e-12)
    for k in range(len(coef)):
        (alone,) = solve_rows(coef[k : k + 1])
        assert repr(alone) == repr(together[k])
    assert repr(loop_rows(coef)) == repr(together)
    perm = np.random.default_rng(2).permutation(len(coef))
    shuffled = solve_rows(coef[perm])
    assert [repr(r) for r in shuffled] == [repr(together[k]) for k in perm]


def _scenario_rows(layout, seed, rows, noise_free):
    """Quadratic-pair coefficients (K, 2, 6) of ``rows`` measurement rows on
    one geometry: a 4-, 5- or 8-anchor square or, for "3d", 5 to 9 random
    3-D anchors; noisy rows draw their SNR from 0 to 50 dB."""
    rng = np.random.default_rng(seed)
    if layout == "3d":
        m = int(rng.integers(5, 10))
        anchors = AnchorSet(rng.uniform(0.0, 800.0, size=(m, 3)), 0.01 * np.arange(1, m + 1))
    else:
        anchors = build_square_scenario(800.0, layout)
    coef = []
    for _ in range(rows):
        ud = sample_ud_state(rng, 500.0, center=anchors.center, ndim=anchors.ndim)
        meas = forward_model(ud, anchors)
        if not noise_free:
            meas = add_noise(meas, noise_for_snr(ud, anchors, float(rng.uniform(0.0, 50.0))), rng)
        coef.append([_terms(q) for q in coefficients_from_system(build_system(meas, anchors))])
    return np.array(coef)


@settings(max_examples=80, deadline=None)
@given(
    layout=st.sampled_from([4, 5, 8, "3d"]),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 12),
    noise_free=st.booleans(),
)
def test_one_pair_path_equals_its_batch_row(layout, seed, rows, noise_free):
    # solve_pair_detailed solves its pair on Python floats; each of its real
    # pairs and projections, rel_imag included, must be bit for bit what the
    # array passes of solve_pairs give for that row in a batch.
    coef = _scenario_rows(layout, seed, rows, noise_free)
    assert repr(loop_rows(coef)) == repr(solve_rows(coef))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_quadratic, _quadratic), min_size=1, max_size=4))
def test_one_pair_path_equals_its_batch_row_on_drawn_pairs(drawn):
    # The same on drawn coefficients, whose zeros, tiny and unit values make
    # linear, no-y^2 and low-degree pairs.
    drawn = [(q1, q2) for q1, q2 in drawn if q1.scale() > 0.0 and q2.scale() > 0.0]
    coef = np.array([[_terms(q1), _terms(q2)] for q1, q2 in drawn]).reshape(-1, 2, 6)
    assert repr(loop_rows(coef)) == repr(solve_rows(coef))


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
    direct, swapped = solve_rows(np.stack([pair, pair[:, _SWAP_XY]]))
    swapped_back = [(px, py) for py, px in swapped[0]]
    assert len(direct[0]) == len(swapped_back)
    size = max(abs(x), abs(y))
    for pairs in (direct[0], swapped_back):
        assert any(
            abs(px - x) <= 1e-6 * size and abs(py - y) <= 1e-6 * size
            for px, py in pairs
        )


# --- the array merge and cluster against their loops -------------------------


@st.composite
def _root_rows(draw):
    """Rows of up to four values, some a few 1e-9 (relative) from another, on
    either side of _cluster's tolerance."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        values: list[float] = []
        for _ in range(draw(st.integers(0, 4))):
            if values and draw(st.booleans()):
                base = draw(st.sampled_from(values))
                step = draw(st.sampled_from([0.0, 5e-10, 9e-10, 1e-9, 1.1e-9, -6e-10, 2e-9]))
                values.append(base + step * max(1.0, abs(base)))
            else:
                values.append(draw(st.one_of(
                    st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, -1.0])
                )))
        rows.append(values)
    return rows


@settings(max_examples=300, deadline=None)
@given(_root_rows())
# A chain: each value is within the tolerance of the one before, and measured
# against the last kept one.
@example([[1.0, 1.0 + 6e-10, 1.0 + 1.2e-9, 1.0 + 1.8e-9]])
@example([[0.0, -0.0], [], [-0.0, 0.0, 3.0]])
def test_array_cluster_matches_loop_bitwise(rows):
    values = np.full((len(rows), 4), np.nan)
    for j, row in enumerate(rows):
        values[j, : len(row)] = row
    ordered, keep = _cluster_rows(values)
    for j, row in enumerate(rows):
        want = np.array(_cluster(row), dtype=float)
        assert ordered[j][keep[j]].tobytes() == want.tobytes(), j


_SAME_STEPS = [0.0, 4e-8, 9e-8, 1e-7, 1.1e-7, -6e-8, 3e-7]


@st.composite
def _seed_rows(draw):
    """Rows of accepted seeds (x, y, residual) near a few base pairs, on
    either side of the same-pair tolerance, so that seeds replace and chain
    into one another and a row can reach more than four distinct pairs."""
    coord = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0, 1.0]))
    bases = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=7))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        seeds = []
        for _ in range(draw(st.integers(0, 14))):
            bx, by = draw(st.sampled_from(bases))
            sx, sy = draw(st.sampled_from(_SAME_STEPS)), draw(st.sampled_from(_SAME_STEPS))
            res = draw(st.sampled_from([0.0, 1e-12, 3e-10, 1e-9, 5e-9, 1e-8]))
            seeds.append((bx + sx * max(1.0, abs(bx)), by + sy * max(1.0, abs(by)), res))
        rows.append(seeds)
    return rows


def _flat_seeds(rows):
    flat = [(j, *seed) for j, seeds in enumerate(rows) for seed in seeds]
    row = np.array([f[0] for f in flat], dtype=np.intp)
    x, y, res = (np.array([f[i] for f in flat], dtype=float) for i in (1, 2, 3))
    return row, x, y, res


@settings(max_examples=300, deadline=None)
@given(_seed_rows())
# A lower residual replaces the kept pair.
@example([[(1.0, 2.0, 5e-9), (1.0 + 5e-8, 2.0, 1e-9), (1.0, 2.0 - 5e-8, 3e-9)]])
# A chain: each seed is the same pair as the one it replaced, not as the first.
@example([[(1.0, 1.0, 1e-9), (1.0 + 9e-8, 1.0, 5e-10), (1.0 + 1.8e-7, 1.0, 1e-10)]])
# Six distinct pairs: the fifth and sixth trim the row to the four lowest
# residuals, ties kept in slot order.
@example([[(6.0, 6.0, 5e-9), (2.0, 2.0, 1e-9), (3.0, 3.0, 5e-9), (4.0, 4.0, 0.0),
           (5.0, 5.0, 5e-9), (1.0, 1.0, 1e-9), (3.0 + 5e-7, 3.0, 0.0)], []])
def test_array_merge_matches_insert_pair_bitwise(rows):
    row, x, y, res = _flat_seeds(rows)
    got_row, got_x, got_y = _merge_pairs(row, x, y, res, len(rows))
    for j, seeds in enumerate(rows):
        pairs: list = []
        for sx, sy, sres in seeds:
            _insert_pair(pairs, (sx, sy), sres)
        want = np.array(sorted(p for p, _ in pairs), dtype=float).reshape(-1, 2)
        mine = got_row == j
        assert np.stack([got_x[mine], got_y[mine]], axis=1).tobytes() == want.tobytes(), j
    assert (np.diff(got_row) >= 0).all()


@settings(max_examples=200, deadline=None)
@given(_seed_rows())
def test_array_dedupe_matches_loop_bitwise(rows):
    row, x, y, _ = _flat_seeds(rows)
    want = []
    for seeds in rows:
        kept: list = []
        for sx, sy, _ in seeds:
            new = not any(_same_pair((sx, sy), k) for k in kept)
            if new:
                kept.append((sx, sy))
            want.append(new)
    assert _distinct(row, x, y, len(rows)).tolist() == want


# Rows of 5- and 8-anchor campaign windows (15, 5 and 30 dB) with far-off,
# ill-conditioned solutions. With one -t1/t2 seed per kept value they stay
# within four pairs; the touching rows below reach the trim.
_TRIM_ROWS = [
    [
        [-4.255301419509261e-09, -5.339177523224539e-08, -2.363142303415763e-08,
         -2.122890513057907, -7.794919524510209, -96007685.18484008],
        [3.5861247792952495e-10, 8.327871967577836e-09, 4.269127878904086e-08,
         0.10973643508937585, 0.3130900771475118, -1122101.7421721965],
    ],
    [
        [1.1715687102998583e-09, 5.277513755825843e-08, 5.830373931464346e-07,
         -1.0879195365476262, -0.7430997206057576, -33090982.77850588],
        [-2.953300685770996e-11, -2.5156912997394518e-09, -4.010881533124793e-08,
         0.07814363957319578, -0.41456090766827103, 5390340.305276516],
    ],
    [
        [6.138570939184714e-09, 2.907932912261215e-07, 3.422966841228337e-06,
         -1.3072828486498793, -7.321256091720684, 3722882.4492889084],
        [2.1731307592234668e-10, 9.290399808166176e-09, 9.712091184677421e-08,
         0.0448018502340306, -0.8172085636251805, -708148.3505157471],
    ],
]


# Pairs even in y, so that t2 vanishes identically and every kept value
# seeds from both equations' y roots: an ellipse and a conic that nearly
# touch it at two points over one x (t1 = k (x - x0)^2 - delta, delta about
# 1e-7). The nearly fourfold roots of the resultant t1^2 split into four kept
# values whose seeds polish to more than four pairs that pass the residual
# test, repeat one another and replace one another.
_TOUCHING_ROWS = [
    [[2.0, 0.0, 1.0, 0.0, 0.0, -3.0], [8.0, 0.0, 3.0, 4.0, 0.0, -7.0000001]],
    [[3.0, 0.0, 1.0, -1.0, 0.0, -3.0], [4.0, 0.0, 1.0, -3.0, 0.0, -2.0000001]],
    [[2.0, 0.0, 1.0, 1.0, 0.0, -2.0], [5.0, 0.0, 3.0, 1.0, 0.0, -6.9999999]],
]


def _complex_meeting_rows(rng, count):
    """Pairs a (x - x1)(x - x2) + c (y^2 + 1) = 0 that meet only at y = +-i
    over x1 and x2: each double resultant root splits into two real kept
    values whose equations both project to the same pair, so the first
    complex set repeats pairs with rel_imag differing in the last bits."""
    rows = []
    for _ in range(count):
        x1, x2 = rng.uniform(-5.0, 5.0, 2)
        rows.append([
            [a, 0.0, c, -a * (x1 + x2), 0.0, a * x1 * x2 + c]
            for a, c in ((rng.uniform(0.5, 3.0), 1.0), (rng.uniform(0.5, 3.0), 2.0))
        ])
    return np.array(rows)


def test_batch_merge_equals_rows_alone(monkeypatch):
    # The trim rows, the edge rows, planted and noise-free pairs, random
    # pairs with several complex projections and the touching rows, whose
    # kept values seed from the equations: in a batch they take the array
    # merge, alone through the one-pair loops ``_insert_pair``, and between
    # them they replace kept pairs, repeat them and trim past four.
    rng = np.random.default_rng(21)
    planted = [planted_system(rng, 10.0 ** rng.uniform(-1, 3))[:2] for _ in range(8)]
    noise_free = [noise_free_pair(seed)[:2] for seed in range(6)]
    coef = np.concatenate([
        np.array(_TRIM_ROWS),
        _edge_rows()[0],
        np.array([[_terms(q1), _terms(q2)] for q1, q2 in planted + noise_free]),
        rng.normal(size=(12, 2, 6)),
        _complex_meeting_rows(rng, 8),
        np.array(_TOUCHING_ROWS),
    ])

    paths = set()

    def recording(pairs, pair, res):
        for kept, kept_res in pairs:
            if _same_pair(pair, kept):
                paths.add("replace" if res < kept_res else "same")
                break
        else:
            if len(pairs) == 4:
                paths.add("trim")
        return _insert_pair(pairs, pair, res)

    monkeypatch.setattr(polysolve, "_insert_pair", recording)
    alone = loop_rows(coef)
    assert paths == {"replace", "same", "trim"}

    merges = []

    def counted(*args):
        merges.append(len(args[0]))
        return _merge_pairs(*args)

    monkeypatch.setattr(polysolve, "_merge_pairs", counted)
    together = solve_rows(coef)
    assert merges
    assert repr(together) == repr(alone)


def test_one_row_call_dedupes_each_projection_set_once(monkeypatch):
    # A one-row call walks its rows by position once in the merge, once in
    # the dedupe of the projections at kept values and once in the dedupe of
    # both projection sets joined: at most 3 layouts and 2 dedupe passes,
    # whatever the row holds.
    calls = {"_distinct": 0, "_by_position": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(polysolve, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(polysolve, name, counted)
    rng = np.random.default_rng(23)
    coef = np.concatenate([
        _complex_meeting_rows(rng, 3),
        rng.normal(size=(6, 2, 6)),
        np.array([[_terms(q) for q in noise_free_pair(seed)[:2]] for seed in range(3)]),
        _edge_rows()[0],
    ])
    projections = 0
    for k in range(len(coef)):
        before = dict(calls)
        with np.errstate(all="ignore"):
            projections += int(solve_pairs(coef[k : k + 1])[2].sum())
        assert calls["_distinct"] - before["_distinct"] <= 2, k
        assert calls["_by_position"] - before["_by_position"] <= 3, k
    assert projections
