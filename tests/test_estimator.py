import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftwlas import (
    AnchorSet,
    ConfigurationError,
    GeometryError,
    MeasurementSet,
    NoiseSpec,
    UdState,
    add_noise,
    build_square_scenario,
    build_system,
    estimate,
    forward_model,
    jacobian,
    noise_for_snr,
    predict_measurements,
    sample_ud_state,
)
from cftwlas import estimator, linear_system
from cftwlas.analysis import _evaluate, _jacobians
from cftwlas.estimator import compute_residuals, raw_estimate, wls_refine
from cftwlas.polysolve import (
    AuxiliaryPair,
    BivariateSolution,
    coefficients_from_system,
    solve_pair_detailed,
)


ANCHORS = build_square_scenario(800.0, 8)
UNIT_NOISE = NoiseSpec(np.ones(8), 1.0)


# A shift component: up to a few square sides.
_coordinate = st.floats(-2000.0, 2000.0)
# Noise-free device states of the campaign prior: a position within 250 m of
# the square's center on each axis, a velocity up to 35 m/s per axis, the
# offset up to 20 us and the drift within 10 ppm, in meters.
_states = st.builds(
    lambda dx, dy, vx, vy, offset, drift: UdState(
        ANCHORS.center + [dx, dy], [vx, vy], offset, drift
    ),
    *[st.floats(-250.0, 250.0)] * 2, *[st.floats(-35.0, 35.0)] * 2,
    st.floats(0.0, 6000.0), st.floats(-3000.0, 3000.0),
)


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

    @pytest.mark.parametrize("steps", [0, -1])
    def test_fewer_than_one_step_rejected(self, steps):
        ud = UdState([300.0, 500.0], [20.0, -30.0], 2000.0, -500.0)
        meas = forward_model(ud, ANCHORS)
        with pytest.raises(ConfigurationError, match="at least 1 step"):
            wls_refine(ud, meas, ANCHORS, UNIT_NOISE, steps=steps)
        with pytest.raises(ConfigurationError, match="at least 1 step"):
            estimate(meas, ANCHORS, UNIT_NOISE, refine_steps=steps)
        with pytest.raises(ConfigurationError, match="at least 1 step"):
            _batch(ANCHORS, [(meas, UNIT_NOISE)], refine_steps=steps)


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

    @settings(max_examples=60, deadline=None)
    @given(ud=_states, shift=st.tuples(_coordinate, _coordinate))
    def test_translation_covariance_noise_free(self, ud, shift):
        base = estimate(forward_model(ud, ANCHORS), ANCHORS, UNIT_NOISE)
        shift = np.array(shift)
        moved_anchors = AnchorSet(ANCHORS.positions + shift, ANCHORS.schedule)
        moved_ud = UdState(ud.pos + shift, ud.vel, ud.offset, ud.drift)
        moved = estimate(forward_model(moved_ud, moved_anchors),
                         moved_anchors, UNIT_NOISE)
        scale = max(1.0, np.linalg.norm(ud.as_vector()))
        assert np.abs(moved.refined.pos - base.refined.pos - shift).max() < 1e-9 * scale
        assert np.abs(moved.refined.vel - base.refined.vel).max() < 1e-9 * scale
        assert abs(moved.refined.offset - base.refined.offset) < 1e-9 * scale
        assert abs(moved.refined.drift - base.refined.drift) < 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(ud=_states, th=st.floats(-np.pi, np.pi))
    def test_rotation_covariance_noise_free(self, ud, th):
        base = estimate(forward_model(ud, ANCHORS), ANCHORS, UNIT_NOISE)
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


def _noisy_inputs(an_count, seed, snr_db=20.0, runs=6):
    anchors = build_square_scenario(800.0, an_count)
    rng = np.random.default_rng(seed)
    for _ in range(runs):
        ud = sample_ud_state(rng, 600.0, center=anchors.center)
        noise = noise_for_snr(ud, anchors, snr_db)
        yield anchors, add_noise(forward_model(ud, anchors), noise, rng), noise


def _pair_on_an_anchor(system, anchors):
    """An auxiliary pair whose state meets an anchor at the request instant
    or at a reception instant, found from the affine map theta = g + U lam."""
    n = anchors.ndim
    g, u = system.g, system.U
    for dt, anchor in zip(anchors.schedule, anchors.positions):
        for k in (0.0, dt):
            # Device position at time k after the request: pos + k vel.
            lin = u[:n] + k * u[n : 2 * n]
            if np.linalg.cond(lin) < 1e8:
                lam = np.linalg.solve(lin, anchor - g[:n] - k * g[n : 2 * n])
                return AuxiliaryPair(*lam)
    raise AssertionError("no auxiliary pair reaches an anchor")


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestOnePassScoring:
    """raw_estimate scores all candidates with one stacked model evaluation."""

    @pytest.mark.parametrize("an_count", [4, 5, 8])
    def test_costs_equal_per_candidate_residuals_bitwise(self, an_count):
        for snr_db in (10.0, 30.0):
            for anchors, meas, noise in _noisy_inputs(an_count, an_count, snr_db):
                raw, candidates = raw_estimate(meas, anchors, noise)
                assert any(c.state is raw for c in candidates)
                for c in candidates:
                    cost = compute_residuals(c.state, meas, anchors, noise).weighted_cost
                    assert _bits(c.weighted_cost) == _bits(cost)

    @pytest.mark.parametrize("an_count", [4, 5, 8])
    def test_stacked_rows_equal_single_state_model_bitwise(self, an_count):
        for anchors, meas, noise in _noisy_inputs(an_count, 10 + an_count):
            _, candidates = raw_estimate(meas, anchors, noise)
            thetas = np.array([c.state.as_vector() for c in candidates])
            ranges, rows = _evaluate(thetas, anchors)
            assert not ranges[4].any()
            for row, c in zip(rows, candidates):
                assert _bits(row) == _bits(predict_measurements(c.state, anchors))

    @pytest.mark.parametrize("an_count", [4, 5, 8])
    def test_candidate_on_an_anchor_is_dropped(self, an_count, monkeypatch):
        anchors, meas, noise = next(_noisy_inputs(an_count, 20 + an_count))
        system = build_system(meas, anchors)
        solution = solve_pair_detailed(*coefficients_from_system(system))
        on_anchor = _pair_on_an_anchor(system, anchors)
        state = UdState.from_vector(
            system.g + system.U @ [on_anchor.lam1, on_anchor.lam2]
        )
        with pytest.raises(GeometryError):
            compute_residuals(state, meas, anchors, noise)

        planted = BivariateSolution(
            solution.pairs + (on_anchor,), solution.complex_pairs
        )
        monkeypatch.setattr(estimator, "solve_pair_detailed", lambda q1, q2: planted)
        raw, candidates = raw_estimate(meas, anchors, noise)
        assert len(candidates) == len(solution.pairs) + len(solution.complex_pairs)
        assert all(c.pair is not on_anchor for c in candidates)
        monkeypatch.undo()
        expected_raw, _ = raw_estimate(meas, anchors, noise)
        assert _bits(raw.as_vector()) == _bits(expected_raw.as_vector())


# --- stacked kernels: row independence ------------------------------------


def _window(layout, seed, rows, noise_free, center):
    """One anchor geometry and ``rows`` (measurements, noise) inputs on it.

    ``layout`` is a square anchor count (4, 5, 8) or "3d" for 5 to 9 random
    3-D anchors. ``center`` adds the criterion-10 input (device at the
    center of the 4-anchor square, at rest, noise-free) to a 4-anchor window.
    """
    rng = np.random.default_rng(seed)
    if layout == "3d":
        m = int(rng.integers(5, 10))
        positions = rng.uniform(0.0, 800.0, size=(m, 3))
        anchors = AnchorSet(positions, 0.01 * np.arange(1, m + 1))
    else:
        anchors = build_square_scenario(800.0, layout)
    unit = NoiseSpec(np.ones(anchors.count), 1.0)
    window = []
    for _ in range(rows):
        ud = sample_ud_state(rng, 500.0, center=anchors.center, ndim=anchors.ndim)
        if noise_free:
            window.append((forward_model(ud, anchors), unit))
        else:
            noise = noise_for_snr(ud, anchors, float(rng.uniform(6.0, 50.0)))
            window.append((add_noise(forward_model(ud, anchors), noise, rng), noise))
    if center and layout == 4:
        at_rest = UdState([400.0, 400.0], [0.0, 0.0], 100.0, 10.0)
        at = int(rng.integers(0, rows + 1))
        window.insert(at, (forward_model(at_rest, anchors), unit))
    return anchors, window


def _batch(anchors, window, refine_steps=1):
    return estimator.estimate_batch(
        np.array([meas.stacked() for meas, _ in window]),
        np.array([noise.weights() for _, noise in window]),
        anchors,
        refine_steps=refine_steps,
    )


def _state_bits(state, size):
    return _bits(np.full(size, np.nan) if state is None else state.as_vector())


def _assert_row_is_estimate(batch, k, report):
    size = batch.raw.shape[1]
    assert _bits(batch.raw[k]) == _state_bits(report.raw, size)
    assert _bits(batch.refined[k]) == _state_bits(report.refined, size)
    flags = report.flags
    assert bool(batch.degenerate[k]) == flags.degenerate_geometry
    assert bool(batch.no_real_root[k]) == flags.no_real_root_fallback
    assert bool(batch.refine_singular[k]) == flags.refinement_singular
    assert int(batch.candidates[k]) == len(report.candidates)


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from([4, 5, 8, "3d"]),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 9),
    noise_free=st.booleans(),
    center=st.booleans(),
    steps=st.integers(1, 3),
    order=st.randoms(use_true_random=False),
)
def test_batch_rows_equal_estimate_alone_bitwise(
    layout, seed, rows, noise_free, center, steps, order
):
    # Every row of a batch, and of any permutation or split of it, is what
    # estimate() reports for that row alone, bit for bit.
    anchors, window = _window(layout, seed, rows, noise_free, center)
    reports = [estimate(meas, anchors, noise, refine_steps=steps) for meas, noise in window]
    batch = _batch(anchors, window, steps)
    for k, report in enumerate(reports):
        _assert_row_is_estimate(batch, k, report)

    perm = list(range(len(window)))
    order.shuffle(perm)
    shuffled = _batch(anchors, [window[i] for i in perm], steps)
    for pos, i in enumerate(perm):
        _assert_row_is_estimate(shuffled, pos, reports[i])

    cut = order.randint(1, len(window)) if len(window) > 1 else 1
    for lo, hi in ((0, cut), (cut, len(window))):
        if lo < hi:
            part = _batch(anchors, window[lo:hi], steps)
            for k in range(lo, hi):
                _assert_row_is_estimate(part, k - lo, reports[k])


@pytest.mark.parametrize(
    "toas, weights",
    [((3, 14), (3, 14)), ((3, 16), (3, 14)), ((16,), (16,)), ((3, 16), (2, 16))],
)
def test_batch_of_another_shape_rejected(toas, weights):
    # (K, 2M) TOAs and weights on M = 8 anchors, or a ConfigurationError
    # naming both shapes; (3, 14) TOAs reached a numpy IndexError and (3, 14)
    # weights a broadcast ValueError.
    with pytest.raises(ConfigurationError, match=r"both must be \(K, 16\)"):
        estimator.estimate_batch(np.ones(toas), np.ones(weights), ANCHORS)


def test_center_degenerate_row_flagged_in_batch():
    anchors, window = _window(4, 3, 3, noise_free=True, center=True)
    batch = _batch(anchors, window)
    assert batch.degenerate.sum() == 1
    assert np.isnan(batch.raw[batch.degenerate]).all()
    assert np.isfinite(batch.refined[~batch.degenerate]).all()


def test_wls_step_singular_row_is_nan_and_leaves_the_others_bitwise():
    # The step refinement and Gauss-Newton share: a row whose normal matrix
    # is singular gets a NaN correction and leaves ``ok``; every other row
    # gets the bits it gets in a batch of one. Gauss-Newton passes no mask
    # and gets the same corrections.
    anchors, window = _window("3d", 11, 5, noise_free=False, center=False)
    rng = np.random.default_rng(12)
    thetas = np.array([
        sample_ud_state(rng, 500.0, center=anchors.center, ndim=3).as_vector()
        for _ in window
    ])
    ranges, model = _evaluate(thetas, anchors)
    jac = _jacobians(*ranges[:4], anchors)
    jac[2, :, 1] = 0.0
    residual = np.array([meas.stacked() for meas, _ in window]) - model
    weights = np.array([noise.weights() for _, noise in window])
    ok = np.ones(len(window), dtype=bool)
    delta, normal = estimator._wls_step(jac, residual, weights, ok)
    assert np.isnan(delta[2]).all()
    assert ok.tolist() == [True, True, False, True, True]
    assert _bits(estimator._wls_step(jac, residual, weights, None)[0]) == _bits(delta)
    for k in (0, 1, 3, 4):
        one = np.ones(1, dtype=bool)
        alone, alone_normal = estimator._wls_step(
            jac[k : k + 1], residual[k : k + 1], weights[k : k + 1], one
        )
        assert one[0] and np.isfinite(alone).all()
        assert _bits(delta[k]) == _bits(alone[0])
        assert _bits(normal[k]) == _bits(alone_normal[0])


def test_singular_refinement_keeps_the_raw_state(monkeypatch):
    # A zero Jacobian makes the normal matrix singular: estimate() keeps the
    # raw state, sets refinement_singular and reports neither a refined
    # state nor a covariance.
    ud = UdState([300.0, 500.0], [20.0, -30.0], 2000.0, -500.0)
    meas = forward_model(ud, ANCHORS)
    raw = estimate(meas, ANCHORS, UNIT_NOISE).raw
    monkeypatch.setattr(estimator, "jacobian", lambda state, anchors: np.zeros((16, 6)))
    report = estimate(meas, ANCHORS, UNIT_NOISE)
    assert report.flags == estimator.EstimateFlags(refinement_singular=True)
    assert _bits(report.raw.as_vector()) == _bits(raw.as_vector())
    assert report.refined is None and report.refinement_cov is None
    assert report.candidates


def test_all_zero_weight_row_takes_the_smallest_norm_tie_and_fails_refinement():
    # Zero weights make every candidate of a row cost 0: the tie goes to the
    # first candidate of smallest parameter norm, and its refinement's
    # normal matrix is zero, so the row is refine_singular with a NaN
    # refined state. Every other row is what estimate() reports for it.
    anchors, window = _window(8, 5, 4, noise_free=False, center=False)
    gamma = np.array([meas.stacked() for meas, _ in window])
    weights = np.array([noise.weights() for _, noise in window])
    weights[1] = 0.0
    batch = estimator.estimate_batch(gamma, weights, anchors)
    assert batch.refine_singular.tolist() == [False, True, False, False]
    assert np.isnan(batch.refined[1]).all()
    meas, noise = window[1]
    _, candidates = raw_estimate(meas, anchors, noise)
    assert batch.candidates[1] == len(candidates) > 1
    states = [c.state.as_vector() for c in candidates]
    smallest = min(states, key=np.linalg.norm)
    assert _bits(batch.raw[1]) == _bits(smallest)
    for k in (0, 2, 3):
        _assert_row_is_estimate(batch, k, estimate(window[k][0], anchors, window[k][1]))


@pytest.mark.parametrize(
    "at, value",
    [(3, np.nan), (slice(None), np.inf), (3, np.inf), (12, -np.inf)],
    ids=["nan", "all_inf", "one_inf", "one_minus_inf"],
)
def test_non_finite_toa_row_is_degenerate_and_leaves_the_others_bitwise(
    monkeypatch, at, value
):
    # A NaN or infinite TOA leaves its row of A not finite: the row fails the
    # rank test without a singular value decomposition, only that row is
    # degenerate, and every other row, which the bound clears, is what
    # estimate() reports.
    anchors, window = _window(8, 7, 5, noise_free=False, center=False)
    gamma = np.array([meas.stacked() for meas, _ in window])
    weights = np.array([noise.weights() for _, noise in window])
    gamma[2, at] = value
    calls = []

    def counted(A, *args, **kwargs):
        calls.append(A.shape[0])
        return svd(A, *args, **kwargs)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", counted)
    batch = estimator.estimate_batch(gamma, weights, anchors)
    assert calls == []
    assert batch.degenerate.tolist() == [False, False, True, False, False]
    assert np.isnan(batch.raw[2]).all() and np.isnan(batch.refined[2]).all()
    for k in (0, 1, 3, 4):
        _assert_row_is_estimate(batch, k, estimate(window[k][0], anchors, window[k][1]))


@pytest.mark.filterwarnings("error")
def test_huge_finite_toa_row_is_degenerate_without_warnings():
    # A request TOA of 1e200 m overflows the squared TOAs of the right-hand
    # side; the row fails the rank test, no RuntimeWarning escapes, and every
    # other row is what estimate() reports.
    anchors, window = _window(8, 7, 5, noise_free=False, center=False)
    gamma = np.array([meas.stacked() for meas, _ in window])
    weights = np.array([noise.weights() for _, noise in window])
    gamma[2, 3] = 1e200
    batch = estimator.estimate_batch(gamma, weights, anchors)
    assert batch.degenerate.tolist() == [False, False, True, False, False]
    assert np.isnan(batch.raw[2]).all() and np.isnan(batch.refined[2]).all()
    for k in (0, 1, 3, 4):
        _assert_row_is_estimate(batch, k, estimate(window[k][0], anchors, window[k][1]))


@pytest.mark.parametrize("rows, at", [(16, 0), (16, 9), (20, 13), (20, 19)])
def test_singular_row_costs_log_many_stacked_calls(monkeypatch, rows, at):
    # One singular normal matrix among K rows: the refinement's step makes
    # at most 1 + 2 ceil(log2 K) stacked solves, and its covariance, whose
    # mask already excludes that row, one stacked inv. The singular row is
    # NaN and leaves the mask; every other row has the bits of its batch of
    # one.
    anchors, window = _window("3d", 11, rows, noise_free=False, center=False)
    rng = np.random.default_rng(12)
    thetas = np.array([
        sample_ud_state(rng, 500.0, center=anchors.center, ndim=3).as_vector()
        for _ in window
    ])
    ranges, model = _evaluate(thetas, anchors)
    jac = _jacobians(*ranges[:4], anchors)
    jac[at, :, 1] = 0.0
    gamma = np.array([meas.stacked() for meas, _ in window])
    weights = np.array([noise.weights() for _, noise in window])
    calls = {"solve": [], "inv": []}

    def counted(name):
        lapack = getattr(np.linalg, name)

        def call(*args):
            calls[name].append(args[0].shape[0])
            return lapack(*args)

        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    state, cov, ok = estimator._refine(thetas, jac, model, gamma, weights, 1, anchors)
    bound = 1 + 2 * int(np.ceil(np.log2(rows)))
    assert calls["solve"][0] == rows and len(calls["solve"]) <= bound
    assert calls["inv"] == [rows - 1]
    assert np.flatnonzero(~ok).tolist() == [at]
    assert np.isnan(state[at]).all() and np.isnan(cov[at]).all()
    for k in sorted(set(range(rows)) - {at}):
        one = slice(k, k + 1)
        alone = estimator._refine(
            thetas[one], jac[one], model[one], gamma[one], weights[one], 1, anchors
        )
        assert alone[2][0]
        assert _bits(state[k]) == _bits(alone[0][0])
        assert _bits(cov[k]) == _bits(alone[1][0])
