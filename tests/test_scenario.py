import numpy as np
import pytest

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
