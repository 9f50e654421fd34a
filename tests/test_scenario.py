import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    forward_model,
    noise_for_snr,
    sample_ud_state,
)
from cftwlas.scenario import SPEED_OF_LIGHT

# The smallest and largest sigmas whose weights 1/sigma^2 are finite.
_SMALLEST_SIGMA = math.nextafter(2.0**-512, math.inf)
_LARGEST_SIGMA = math.sqrt(sys.float_info.max)


class TestBuildSquareScenario:
    def test_eight_anchors_corners_and_midpoints(self):
        anchors = build_square_scenario(800.0, 8)
        expected = np.array(
            [
                [0, 0], [800, 0], [800, 800], [0, 800],
                [400, 0], [800, 400], [400, 800], [0, 400],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(anchors.positions, expected)
        np.testing.assert_allclose(anchors.schedule, 0.01 * np.arange(1, 9))

    def test_four_anchors_corners_only(self):
        anchors = build_square_scenario(800.0, 4)
        np.testing.assert_allclose(
            anchors.positions, [[0, 0], [800, 0], [800, 800], [0, 800]]
        )
        np.testing.assert_allclose(anchors.schedule, [0.01, 0.02, 0.03, 0.04])

    def test_five_anchors_adds_one_midpoint(self):
        anchors = build_square_scenario(800.0, 5)
        assert anchors.count == 5
        np.testing.assert_allclose(anchors.positions[4], [400, 0])

    def test_pattern_scales_down(self):
        anchors = build_square_scenario(2.0, 4)
        np.testing.assert_allclose(
            anchors.positions, [[0, 0], [2, 0], [2, 2], [0, 2]]
        )

    @pytest.mark.parametrize("count", [2, 3, 6, 7, 9])
    def test_unsupported_anchor_count(self, count):
        with pytest.raises(ConfigurationError):
            build_square_scenario(800.0, count)

    def test_nonpositive_side(self):
        with pytest.raises(ConfigurationError):
            build_square_scenario(0.0, 4)


class TestForwardModel:
    ANCHORS = AnchorSet([[3.0, 4.0], [10.0, 10.0]], [0.01, 0.02])

    def test_pythagorean_zero_clock(self):
        ud = UdState([0.0, 0.0], [0.0, 0.0], 0.0, 0.0)
        meas = forward_model(ud, self.ANCHORS)
        assert meas.request_toa[0] == pytest.approx(5.0)
        assert meas.response_toa[0] == pytest.approx(5.0)

    def test_offset_enters_with_opposite_signs(self):
        ud = UdState([0.0, 0.0], [0.0, 0.0], 2.0, 0.0)
        meas = forward_model(ud, self.ANCHORS)
        assert meas.request_toa[0] == pytest.approx(3.0)
        assert meas.response_toa[0] == pytest.approx(7.0)

    def test_velocity_displaces_reception_point(self):
        # Response range is evaluated at the displaced position: the device
        # moves by v*dt = (1, 0) before the first reception, giving
        # |(3,4)-(1,0)|.
        ud = UdState([0.0, 0.0], [100.0, 0.0], 0.0, 0.0)
        meas = forward_model(ud, self.ANCHORS)
        assert meas.request_toa[0] == pytest.approx(5.0)
        assert meas.response_toa[0] == pytest.approx(np.sqrt(20.0))

    def test_drift_accumulates_over_schedule(self):
        anchors = AnchorSet([[3.0, 4.0], [0.0, 5.0]], [0.01, 0.02])
        ud = UdState([0.0, 0.0], [0.0, 0.0], 0.0, 100.0)
        meas = forward_model(ud, anchors)
        np.testing.assert_allclose(meas.response_toa, [5.0 + 1.0, 5.0 + 2.0])

    def test_coincident_anchor_raises(self):
        anchors = AnchorSet([[0.0, 0.0], [1.0, 0.0]], [0.01, 0.02])
        ud = UdState([0.0, 0.0], [0.0, 0.0], 0.0, 0.0)
        with pytest.raises(GeometryError):
            forward_model(ud, anchors)


class TestSigmaFromSnr:
    """A link's noise sigma from its distance and the SNR, as
    ``noise_for_snr`` gives it."""

    @staticmethod
    def sigma(distance, snr_db):
        anchors = AnchorSet([[0.0, 0.0], [0.0, 1.0]], [0.01, 0.02])
        ud = UdState([distance, 0.0], [0.0, 0.0], 0.0, 0.0)
        return noise_for_snr(ud, anchors, snr_db).sigma_request[0]

    def test_forty_db(self):
        assert self.sigma(100.0, 40.0) == pytest.approx(1.0)

    def test_twenty_db(self):
        assert self.sigma(100.0, 20.0) == pytest.approx(10.0)

    def test_center_to_corner_thirty_db(self):
        # Center-to-corner distance of the 800 m square at 30 dB.
        assert self.sigma(565.7, 30.0) == pytest.approx(
            565.7 * 10.0**-1.5, rel=1e-12
        )
        assert self.sigma(565.7, 30.0) == pytest.approx(17.889, abs=5e-4)

    def test_nonpositive_distance(self):
        with pytest.raises(GeometryError):
            self.sigma(0.0, 30.0)


class TestSampleUdState:
    def test_default_ranges_cover_clock_priors(self):
        # Offset up to 20 us and drift up to +-10 ppm, both scaled by the
        # signal speed.
        rng = np.random.default_rng(0)
        b_hi = 20e-6 * SPEED_OF_LIGHT
        w_hi = 10e-6 * SPEED_OF_LIGHT
        assert b_hi == pytest.approx(5995.84916)
        assert w_hi == pytest.approx(2997.92458)
        for _ in range(500):
            ud = sample_ud_state(rng, 500.0, center=[400.0, 400.0])
            assert 0.0 <= ud.offset <= b_hi
            assert -w_hi <= ud.drift <= w_hi
            assert np.linalg.norm(ud.vel) <= 50.0
            assert np.all(np.abs(ud.pos - 400.0) <= 250.0)

    def test_degenerate_ranges_give_static_device(self):
        rng = np.random.default_rng(1)
        ud = sample_ud_state(
            rng, 500.0, vmax=0.0, offset_range_s=(0.0, 0.0),
            drift_range_ppm=(0.0, 0.0),
        )
        np.testing.assert_array_equal(ud.vel, [0.0, 0.0])
        assert ud.offset == 0.0
        assert ud.drift == 0.0

    def test_fixed_seed_reproduces_draw(self):
        a = sample_ud_state(np.random.default_rng(42), 500.0)
        b = sample_ud_state(np.random.default_rng(42), 500.0)
        np.testing.assert_array_equal(a.as_vector(), b.as_vector())

    def test_three_dimensional_sampling(self):
        rng = np.random.default_rng(2)
        ud = sample_ud_state(rng, 500.0, center=[0.0, 0.0, 0.0], ndim=3)
        assert ud.pos.shape == (3,)
        assert ud.vel.shape == (3,)

    @pytest.mark.parametrize("ndim, length", [(2, 1), (2, 3), (3, 2), (3, 4)])
    def test_center_of_another_dimension_rejected(self, ndim, length):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigurationError, match=f"a {length}-D center for a {ndim}-D"):
            sample_ud_state(rng, 500.0, center=np.zeros(length), ndim=ndim)


class TestAddNoise:
    def _clean(self):
        anchors = build_square_scenario(800.0, 4)
        ud = UdState([250.0, 350.0], [5.0, -3.0], 100.0, 20.0)
        return forward_model(ud, anchors)

    def test_fixed_seed_reproduces_noise(self):
        meas = self._clean()
        noise = NoiseSpec(np.full(4, 2.0), 3.0)
        a = add_noise(meas, noise, np.random.default_rng(7))
        b = add_noise(meas, noise, np.random.default_rng(7))
        np.testing.assert_array_equal(a.request_toa, b.request_toa)
        np.testing.assert_array_equal(a.response_toa, b.response_toa)

    def test_truth_retained(self):
        # The noise-free input set is left untouched.
        meas = self._clean()
        truth = meas.stacked().copy()
        noise = NoiseSpec(np.full(4, 2.0), 3.0)
        out = add_noise(meas, noise, np.random.default_rng(7))
        np.testing.assert_array_equal(meas.stacked(), truth)
        assert not np.array_equal(out.request_toa, meas.request_toa)

    def test_sample_variance_matches_declared_sigma(self):
        # 1e5 iid request-noise draws pooled over anchors with one shared
        # sigma; the sample variance estimates sigma^2 to well within 3%.
        rng = np.random.default_rng(11)
        positions = np.column_stack([np.arange(100.0), np.zeros(100)]) + [0.0, 50.0]
        anchors = AnchorSet(positions, 0.001 * np.arange(1, 101))
        ud = UdState([50.0, -200.0], [0.0, 0.0], 10.0, 0.0)
        clean = forward_model(ud, anchors)
        sigma = 1.7
        noise = NoiseSpec(np.full(100, sigma), 2.9)
        draws = []
        for _ in range(1000):
            noisy = add_noise(clean, noise, rng)
            draws.append(noisy.request_toa - clean.request_toa)
        var = np.var(np.concatenate(draws))
        assert var == pytest.approx(sigma**2, rel=0.03)

    def test_families_independent(self):
        # Correlations between request and response noise vanish.
        rng = np.random.default_rng(13)
        anchors = build_square_scenario(800.0, 4)
        ud = UdState([300.0, 200.0], [0.0, 0.0], 0.0, 0.0)
        clean = forward_model(ud, anchors)
        noise = NoiseSpec(np.full(4, 1.0), 1.0)
        eps, eta = [], []
        for _ in range(20000):
            noisy = add_noise(clean, noise, rng)
            eps.append(noisy.request_toa[0] - clean.request_toa[0])
            eta.append(noisy.response_toa[0] - clean.response_toa[0])
        corr = np.corrcoef(eps, eta)[0, 1]
        assert abs(corr) < 0.03


class TestNoiseForSnr:
    def test_request_sigmas_follow_link_distance(self):
        anchors = build_square_scenario(800.0, 4)
        ud = UdState([400.0, 400.0], [0.0, 0.0], 0.0, 0.0)
        noise = noise_for_snr(ud, anchors, 30.0)
        d = np.linalg.norm(anchors.positions - ud.pos, axis=1)
        np.testing.assert_allclose(noise.sigma_request, d * 10.0**-1.5)
        assert noise.sigma_response == pytest.approx(float(np.mean(d)) * 10.0**-1.5)

    def test_response_rules(self):
        anchors = build_square_scenario(800.0, 4)
        ud = UdState([100.0, 100.0], [0.0, 0.0], 0.0, 0.0)
        d = np.linalg.norm(anchors.positions - ud.pos, axis=1)
        lo = noise_for_snr(ud, anchors, 30.0, "min").sigma_response
        hi = noise_for_snr(ud, anchors, 30.0, "max").sigma_response
        assert lo == pytest.approx(d.min() * 10.0**-1.5)
        assert hi == pytest.approx(d.max() * 10.0**-1.5)
        with pytest.raises(ConfigurationError):
            noise_for_snr(ud, anchors, 30.0, "median")

    def test_device_within_model_threshold_of_anchor_rejected(self):
        # 1e-10 m is inside the measurement model's on-anchor range, so the
        # noise levels are refused just as the model would refuse the state.
        anchors = build_square_scenario(800.0, 4)
        ud = UdState(anchors.positions[2] + [1e-10, 0.0], [0.0, 0.0], 0.0, 0.0)
        with pytest.raises(GeometryError, match="coincides with an anchor"):
            noise_for_snr(ud, anchors, 30.0)
        with pytest.raises(GeometryError, match="coincides with an anchor"):
            forward_model(ud, anchors)

    def test_state_of_another_dimension_rejected(self):
        anchors = build_square_scenario(800.0, 4)
        ud = UdState([400.0, 400.0, 10.0], [0.0, 0.0, 0.0], 0.0, 0.0)
        with pytest.raises(ConfigurationError, match="3-D state and 2-D anchors"):
            noise_for_snr(ud, anchors, 30.0)


class TestDomainTypes:
    def test_anchor_schedule_must_increase(self):
        with pytest.raises(ConfigurationError):
            AnchorSet([[0.0, 0.0], [1.0, 0.0]], [0.02, 0.01])

    def test_anchor_positions_must_differ(self):
        with pytest.raises(ConfigurationError):
            AnchorSet([[1.0, 0.0], [1.0, 0.0]], [0.01, 0.02])

    def test_single_anchor_rejected(self):
        with pytest.raises(ConfigurationError):
            AnchorSet([[0.0, 0.0]], [0.01])

    def test_state_vector_roundtrip(self):
        ud = UdState([1.0, 2.0], [3.0, 4.0], 5.0, 6.0)
        np.testing.assert_array_equal(ud.as_vector(), [1, 2, 3, 4, 5, 6])
        back = UdState.from_vector(ud.as_vector())
        np.testing.assert_array_equal(back.pos, ud.pos)
        assert back.offset == ud.offset and back.drift == ud.drift

    def test_measurement_lengths_must_match(self):
        with pytest.raises(ConfigurationError):
            MeasurementSet([1.0, 2.0], [1.0])

    def test_stacked_order_requests_first(self):
        meas = MeasurementSet([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_array_equal(meas.stacked(), [1, 2, 3, 4])

    def test_noise_spec_weights(self):
        noise = NoiseSpec([2.0, 4.0], 5.0)
        np.testing.assert_allclose(
            noise.weights(), [0.25, 0.0625, 0.04, 0.04]
        )

    def test_noise_spec_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec([1.0, 0.0], 1.0)
        with pytest.raises(ConfigurationError):
            NoiseSpec([1.0], -1.0)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_noise_spec_rejects_each_bad_sigma(self, bad):
        with pytest.raises(ConfigurationError, match="request"):
            NoiseSpec([1.0, bad, 2.0], 1.0)
        with pytest.raises(ConfigurationError, match="request"):
            NoiseSpec(np.array([[bad]]), 1.0)
        with pytest.raises(ConfigurationError, match="response"):
            NoiseSpec([1.0, 2.0], bad)

    def test_noise_spec_accepts_positive_finite_and_empty(self):
        # The extremes whose weights 1/sigma^2 are positive finite doubles.
        for response in (_SMALLEST_SIGMA, _LARGEST_SIGMA):
            weights = NoiseSpec([_SMALLEST_SIGMA, _LARGEST_SIGMA], response).weights()
            assert np.isfinite(weights).all() and (weights > 0.0).all()
        assert NoiseSpec(np.empty(0), 2.0).count == 0

    @pytest.mark.parametrize(
        "bad",
        [5e-324, 1e-200, 2.0**-512, math.nextafter(_LARGEST_SIGMA, math.inf), 1e200, 1e308],
    )
    def test_noise_spec_rejects_sigma_without_finite_weight(self, bad):
        # sigma^2 underflows to 0 or below the inverse of the largest double
        # (an infinite weight), or overflows (a zero weight).
        with pytest.raises(ConfigurationError, match="request"):
            NoiseSpec([1.0, bad, 2.0], 1.0)
        with pytest.raises(ConfigurationError, match="response"):
            NoiseSpec([1.0, 2.0], bad)


def _uniform_call_state(rng, region_side, vmax, offset_range_s, drift_range_ppm, center):
    """``sample_ud_state`` in 2-D through one ``rng.uniform(lows, highs)``."""
    half = region_side / 2.0
    lows = np.concatenate([center - half, [0.0, 0.0, offset_range_s[0], drift_range_ppm[0]]])
    highs = np.concatenate(
        [center + half, [vmax, 2.0 * np.pi, offset_range_s[1], drift_range_ppm[1]]]
    )
    draw = rng.uniform(lows, highs)
    pos, (speed, heading, offset, drift) = draw[:2], draw[2:]
    direction = np.array([np.cos(heading), np.sin(heading)])
    return UdState(
        pos, speed * direction, offset * SPEED_OF_LIGHT, drift * 1e-6 * SPEED_OF_LIGHT
    )


_bound = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e-5, math.inf, -math.inf, math.nan, 1.7e308, -1.7e308]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    _bound,
    _bound,
    st.tuples(_bound, _bound),
    st.tuples(_bound, _bound),
    st.tuples(_bound, _bound),
)
@example(1, 500.0, 50.0, (1e-5, 1e-5), (3.0, 3.0), (400.0, 400.0))  # zero width
@example(1, 0.0, 0.0, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))  # all zero width
@example(0, 0.0, -0.0, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))  # a -0.0 range
@example(1, 500.0, 50.0, (2e-5, 0.0), (-10.0, 10.0), (400.0, 400.0))  # reversed
@example(1, -500.0, 50.0, (0.0, 2e-5), (10.0, -10.0), (400.0, 400.0))  # reversed
@example(1, 500.0, 50.0, (0.0, math.inf), (-10.0, 10.0), (400.0, 400.0))
@example(1, 500.0, 50.0, (2e-5, 0.0), (-1.7e308, 1.7e308), (400.0, 400.0))  # both
@example(1, 500.0, math.nan, (0.0, 2e-5), (-10.0, 10.0), (400.0, 400.0))
@example(1, 500.0, 50.0, (0.0, 2e-5), (-10.0, 10.0), (math.nan, 400.0))
def test_state_draw_matches_one_uniform_call(seed, region, vmax, offset, drift, center):
    # The same state bits, or the same error in numpy's order (a non-finite
    # range before a negative one), and the stream left at the same place.
    def outcome(sample):
        rng = np.random.default_rng(seed)
        try:
            state = sample(rng)
        except (OverflowError, ValueError, ConfigurationError) as exc:
            return type(exc), str(exc), rng.random()
        return state.as_vector().tobytes(), rng.random()

    center = np.array(center)
    got = outcome(lambda rng: sample_ud_state(rng, region, vmax, offset, drift, center=center))
    # The reference's own arithmetic overflows on the extreme ranges drawn.
    with np.errstate(all="ignore"):
        want = outcome(lambda rng: _uniform_call_state(rng, region, vmax, offset, drift, center))
    assert got == want
