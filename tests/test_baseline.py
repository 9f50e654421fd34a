import numpy as np
import pytest

from cftwlas import (
    ConfigurationError,
    NoiseSpec,
    UdState,
    add_noise,
    build_square_scenario,
    forward_model,
    gauss_newton,
    make_initializer,
    noise_for_snr,
    sample_ud_state,
)

ANCHORS = build_square_scenario(800.0, 8)
UNIT_NOISE = NoiseSpec(np.ones(8), 1.0)


class TestMakeInitializer:
    def test_zero_std_keeps_position_and_zeroes_dynamics(self):
        truth = UdState([300.0, 500.0], [20.0, -30.0], 2000.0, -500.0)
        init = make_initializer(truth, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(init.pos, truth.pos)
        np.testing.assert_array_equal(init.vel, [0.0, 0.0])
        assert init.offset == 0.0 and init.drift == 0.0

    def test_perturbation_scales_with_std(self):
        truth = UdState([300.0, 500.0], [0.0, 0.0], 0.0, 0.0)
        rng = np.random.default_rng(1)
        small = [np.linalg.norm(make_initializer(truth, 50.0, rng).pos - truth.pos)
                 for _ in range(200)]
        big = [np.linalg.norm(make_initializer(truth, 200.0, rng).pos - truth.pos)
               for _ in range(200)]
        assert np.mean(big) > 2.0 * np.mean(small)


class TestGaussNewton:
    def test_truth_init_converges_immediately_noise_free(self):
        rng = np.random.default_rng(2)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        meas = forward_model(ud, ANCHORS)
        est, trace = gauss_newton(meas, ANCHORS, UNIT_NOISE, ud)
        assert trace.converged
        assert trace.iterations_used == 1
        first_update = np.linalg.norm(est.as_vector() - ud.as_vector())
        assert first_update <= 1e-9

    def test_deterministic_given_identical_inputs(self):
        rng = np.random.default_rng(3)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        noise = noise_for_snr(ud, ANCHORS, 30.0)
        meas = add_noise(forward_model(ud, ANCHORS), noise, rng)
        init = make_initializer(ud, 50.0, np.random.default_rng(9))
        a, _ = gauss_newton(meas, ANCHORS, noise, init)
        b, _ = gauss_newton(meas, ANCHORS, noise, init)
        np.testing.assert_array_equal(a.as_vector(), b.as_vector())

    def test_final_cost_not_above_initial_when_converged(self):
        rng = np.random.default_rng(4)
        checked = 0
        for seed in range(40):
            run_rng = np.random.default_rng(seed)
            ud = sample_ud_state(run_rng, 500.0, center=ANCHORS.center)
            noise = noise_for_snr(ud, ANCHORS, 30.0)
            meas = add_noise(forward_model(ud, ANCHORS), noise, run_rng)
            init = make_initializer(ud, 50.0, rng)
            _, trace = gauss_newton(meas, ANCHORS, noise, init)
            if trace.converged:
                assert trace.costs[-1] <= trace.costs[0]
                checked += 1
        assert checked > 30

    def test_trace_bookkeeping(self):
        rng = np.random.default_rng(5)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        noise = noise_for_snr(ud, ANCHORS, 30.0)
        meas = add_noise(forward_model(ud, ANCHORS), noise, rng)
        init = make_initializer(ud, 50.0, rng)
        _, trace = gauss_newton(meas, ANCHORS, noise, init, max_iter=7)
        assert len(trace.costs) == trace.iterations_used + 1
        assert trace.iterations_used <= 7

    def test_zero_tol_disables_convergence(self):
        rng = np.random.default_rng(6)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        meas = forward_model(ud, ANCHORS)
        init = make_initializer(ud, 50.0, rng)
        _, trace = gauss_newton(meas, ANCHORS, UNIT_NOISE, init,
                                max_iter=6, tol=0.0)
        assert not trace.converged
        assert trace.iterations_used == 6

    def test_good_init_reaches_bound_scale_accuracy(self):
        # 50 m initialization noise: the iterative solution lands at the
        # noise floor, far below the initialization error.
        rng = np.random.default_rng(7)
        errors = []
        for seed in range(150):
            run_rng = np.random.default_rng(seed)
            ud = sample_ud_state(run_rng, 500.0, center=ANCHORS.center)
            noise = noise_for_snr(ud, ANCHORS, 30.0)
            meas = add_noise(forward_model(ud, ANCHORS), noise, run_rng)
            init = make_initializer(ud, 50.0, rng)
            est, trace = gauss_newton(meas, ANCHORS, noise, init)
            if trace.converged:
                errors.append(np.linalg.norm(est.pos - ud.pos))
        rmse = float(np.sqrt(np.mean(np.square(errors))))
        assert rmse < 15.0

    def test_size_mismatch_rejected(self):
        ud = UdState([300.0, 500.0], [0.0, 0.0], 0.0, 0.0)
        meas = forward_model(ud, ANCHORS)
        with pytest.raises(ConfigurationError, match="counts must match"):
            gauss_newton(meas, ANCHORS, NoiseSpec(np.ones(7), 1.0), ud)
        short = forward_model(ud, build_square_scenario(800.0, 5))
        with pytest.raises(ConfigurationError, match="counts must match"):
            gauss_newton(short, ANCHORS, UNIT_NOISE, ud)
