import numpy as np
import pytest

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
