import numpy as np
import pytest

from cftwlas import (
    AnchorSet,
    ConfigurationError,
    MeasurementSet,
    NoiseSpec,
    UdState,
    add_noise,
    build_square_scenario,
    compute_residuals,
    estimate,
    forward_model,
    jacobian,
    noise_for_snr,
    raw_estimate,
    sample_ud_state,
    wls_refine,
)


ANCHORS = build_square_scenario(800.0, 8)
UNIT_NOISE = NoiseSpec(np.ones(8), 1.0)


def rel_block_errors(est, truth):
    out = []
    for a, b in ((est.pos, truth.pos), (est.vel, truth.vel)):
        out.append(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))
    out.append(abs(est.offset - truth.offset) / max(1.0, abs(truth.offset)))
    out.append(abs(est.drift - truth.drift) / max(1.0, abs(truth.drift)))
    return out


class TestRawEstimate:
    def test_noise_free_exactness(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
            meas = forward_model(ud, ANCHORS)
            raw, candidates = raw_estimate(meas, ANCHORS, UNIT_NOISE)
            assert candidates
            assert max(rel_block_errors(raw, ud)) < 1e-6

    def test_selected_candidate_minimizes_cost(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
            noise = noise_for_snr(ud, ANCHORS, 25.0)
            meas = add_noise(forward_model(ud, ANCHORS), noise, rng)
            raw, candidates = raw_estimate(meas, ANCHORS, noise)
            best = min(c.weighted_cost for c in candidates)
            chosen = [c for c in candidates
                      if np.array_equal(c.state.as_vector(), raw.as_vector())]
            assert chosen and chosen[0].weighted_cost == best

    def test_truth_candidate_has_zero_cost_noise_free(self):
        rng = np.random.default_rng(2)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        meas = forward_model(ud, ANCHORS)
        raw, candidates = raw_estimate(meas, ANCHORS, UNIT_NOISE)
        costs = sorted(c.weighted_cost for c in candidates)
        assert costs[0] < 1e-12
        if len(costs) > 1:
            assert costs[0] < costs[1]

    def test_single_candidate_returned_unconditionally(self):
        rng = np.random.default_rng(3)
        for seed in range(40):
            ud = sample_ud_state(np.random.default_rng(seed), 500.0,
                                 center=ANCHORS.center)
            meas = forward_model(ud, ANCHORS)
            raw, candidates = raw_estimate(meas, ANCHORS, UNIT_NOISE)
            real = [c for c in candidates if not c.from_fallback]
            if len(real) == 1:
                np.testing.assert_array_equal(
                    raw.as_vector(), real[0].state.as_vector()
                )
                break
        else:
            pytest.skip("no single-root draw in sample")


class TestWlsRefine:
    def test_fixed_point_at_truth(self):
        rng = np.random.default_rng(4)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        meas = forward_model(ud, ANCHORS)
        refined, cov = wls_refine(ud, meas, ANCHORS, UNIT_NOISE)
        assert cov is not None
        np.testing.assert_allclose(
            refined.as_vector(), ud.as_vector(), rtol=0, atol=1e-9
        )

    def test_quadratic_error_contraction(self):
        # One step removes the first-order error component, so the residual
        # error shrinks like the square of the initial offset.
        ud = UdState([300.0, 500.0], [20.0, -30.0], 2000.0, -500.0)
        meas = forward_model(ud, ANCHORS)
        errs = {}
        direction = np.array([0.6, 0.8])
        for delta in (10.0, 1.0, 0.1):
            raw = UdState(ud.pos + delta * direction, ud.vel, ud.offset, ud.drift)
            refined, _ = wls_refine(raw, meas, ANCHORS, UNIT_NOISE)
            errs[delta] = np.linalg.norm(refined.as_vector() - ud.as_vector())
        assert errs[1.0] / errs[10.0] < 0.02
        assert errs[0.1] / errs[1.0] < 0.02

    def test_covariance_is_inverse_normal_matrix_at_raw(self):
        rng = np.random.default_rng(5)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        noise = noise_for_snr(ud, ANCHORS, 30.0)
        meas = add_noise(forward_model(ud, ANCHORS), noise, rng)
        raw, _ = raw_estimate(meas, ANCHORS, noise)
        _, cov = wls_refine(raw, meas, ANCHORS, noise, steps=1)
        jac = jacobian(raw, ANCHORS)
        normal = jac.T @ (noise.weights()[:, None] * jac)
        np.testing.assert_allclose(cov @ normal, np.eye(6), atol=1e-8)

    def test_singular_geometry_returns_raw(self):
        ud = UdState([300.0, 500.0], [0.0, 0.0], 0.0, 0.0)
        meas = forward_model(ud, ANCHORS)
        on_anchor = UdState(ANCHORS.positions[0], [0.0, 0.0], 0.0, 0.0)
        out, cov = wls_refine(on_anchor, meas, ANCHORS, UNIT_NOISE)
        assert cov is None
        np.testing.assert_array_equal(out.as_vector(), on_anchor.as_vector())

    def test_multiple_steps_supported(self):
        ud = UdState([300.0, 500.0], [20.0, -30.0], 2000.0, -500.0)
        meas = forward_model(ud, ANCHORS)
        raw = UdState(ud.pos + [25.0, -10.0], ud.vel, ud.offset, ud.drift)
        one, _ = wls_refine(raw, meas, ANCHORS, UNIT_NOISE, steps=1)
        three, _ = wls_refine(raw, meas, ANCHORS, UNIT_NOISE, steps=3)
        err_one = np.linalg.norm(one.as_vector() - ud.as_vector())
        err_three = np.linalg.norm(three.as_vector() - ud.as_vector())
        assert err_three < err_one


class TestEstimate:
    def test_noise_free_run_is_clean(self):
        rng = np.random.default_rng(6)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        report = estimate(forward_model(ud, ANCHORS), ANCHORS, UNIT_NOISE)
        assert not report.flags.degenerate_geometry
        assert not report.flags.refinement_singular
        assert report.refined is not None
        assert report.refinement_cov is not None
        assert max(rel_block_errors(report.refined, ud)) < 1e-6

    def test_center_of_square_sets_degenerate_flag(self):
        anchors = build_square_scenario(800.0, 4)
        ud = UdState([400.0, 400.0], [0.0, 0.0], 100.0, 10.0)
        report = estimate(forward_model(ud, anchors), anchors,
                          NoiseSpec(np.ones(4), 1.0))
        assert report.flags.degenerate_geometry
        assert report.raw is None and report.refined is None
        assert report.candidates == ()

    def test_heavy_noise_never_produces_nan(self):
        # SNR 0 dB: noise as large as the ranges themselves. Output must be
        # finite or explicitly flagged, for every seeded draw.
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
            noise = noise_for_snr(ud, ANCHORS, 0.0)
            meas = add_noise(forward_model(ud, ANCHORS), noise, rng)
            report = estimate(meas, ANCHORS, noise)
            if report.refined is not None:
                assert np.isfinite(report.refined.as_vector()).all()
            if report.raw is not None:
                assert np.isfinite(report.raw.as_vector()).all()
            if report.refined is None:
                assert report.flags.degenerate_geometry or (
                    report.flags.refinement_singular
                )

    def test_translation_covariance_noise_free(self):
        rng = np.random.default_rng(7)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        base = estimate(forward_model(ud, ANCHORS), ANCHORS, UNIT_NOISE)
        shift = np.array([1234.5, -987.0])
        moved_anchors = AnchorSet(ANCHORS.positions + shift, ANCHORS.schedule)
        moved_ud = UdState(ud.pos + shift, ud.vel, ud.offset, ud.drift)
        moved = estimate(forward_model(moved_ud, moved_anchors),
                         moved_anchors, UNIT_NOISE)
        scale = max(1.0, np.linalg.norm(ud.as_vector()))
        assert np.abs(moved.refined.pos - base.refined.pos - shift).max() < 1e-9 * scale
        assert np.abs(moved.refined.vel - base.refined.vel).max() < 1e-9 * scale
        assert abs(moved.refined.offset - base.refined.offset) < 1e-9 * scale
        assert abs(moved.refined.drift - base.refined.drift) < 1e-9 * scale

    def test_rotation_covariance_noise_free(self):
        rng = np.random.default_rng(8)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        base = estimate(forward_model(ud, ANCHORS), ANCHORS, UNIT_NOISE)
        th = 0.7
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        anchors2 = AnchorSet(ANCHORS.positions @ rot.T, ANCHORS.schedule)
        ud2 = UdState(rot @ ud.pos, rot @ ud.vel, ud.offset, ud.drift)
        moved = estimate(forward_model(ud2, anchors2), anchors2, UNIT_NOISE)
        scale = max(1.0, np.linalg.norm(ud.as_vector()))
        assert np.abs(moved.refined.pos - rot @ base.refined.pos).max() < 1e-9 * scale
        assert np.abs(moved.refined.vel - rot @ base.refined.vel).max() < 1e-9 * scale
        cost_a = compute_residuals(base.refined, forward_model(ud, ANCHORS),
                                   ANCHORS, UNIT_NOISE).weighted_cost
        cost_b = compute_residuals(moved.refined, forward_model(ud2, anchors2),
                                   anchors2, UNIT_NOISE).weighted_cost
        assert abs(cost_a - cost_b) < 1e-9

    def test_residuals_match_measurement_model(self):
        rng = np.random.default_rng(9)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        noise = noise_for_snr(ud, ANCHORS, 30.0)
        meas = add_noise(forward_model(ud, ANCHORS), noise, rng)
        res = compute_residuals(ud, meas, ANCHORS, noise)
        d = np.linalg.norm(ANCHORS.positions - ud.pos, axis=1)
        np.testing.assert_allclose(
            res.request, meas.request_toa - d + ud.offset
        )
        assert res.weighted_cost >= 0.0
        stacked = np.concatenate([res.request, res.response])
        assert res.weighted_cost == pytest.approx(
            float(stacked @ (noise.weights() * stacked))
        )

    def test_size_mismatch_rejected(self):
        ud = UdState([300.0, 500.0], [0.0, 0.0], 0.0, 0.0)
        meas = forward_model(ud, ANCHORS)
        with pytest.raises(ConfigurationError, match="counts must match"):
            estimate(meas, ANCHORS, NoiseSpec(np.ones(7), 1.0))
        short = forward_model(ud, build_square_scenario(800.0, 5))
        with pytest.raises(ConfigurationError, match="counts must match"):
            estimate(short, ANCHORS, UNIT_NOISE)

    def test_report_shapes(self):
        rng = np.random.default_rng(10)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        noise = noise_for_snr(ud, ANCHORS, 30.0)
        meas = add_noise(forward_model(ud, ANCHORS), noise, rng)
        report = estimate(meas, ANCHORS, noise, refine_steps=2)
        assert report.refinement_cov.shape == (6, 6)
        assert len(report.candidates) >= 1
