import numpy as np
import pytest

from cftwlas import (
    AnchorSet,
    CampaignConfig,
    ConfigurationError,
    DegenerateGeometryError,
    GeometryError,
    NoiseSpec,
    UdState,
    build_square_scenario,
    crlb,
    flops_cftwlas,
    flops_iterative_per_iter,
    forward_model,
    jacobian,
    predict_measurements,
    run_campaign,
    sample_ud_state,
)
from cftwlas.estimator import compute_residuals
from cftwlas.montecarlo import _aggregate_cell, _MethodRecord

ANCHORS = build_square_scenario(800.0, 8)


def finite_difference_jacobian(state, anchors, step=1e-3):
    """Independent oracle: central differences of the measurement function."""
    theta = state.as_vector()
    cols = []
    for j in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += step
        lo[j] -= step
        cols.append(
            (
                predict_measurements(UdState.from_vector(hi), anchors)
                - predict_measurements(UdState.from_vector(lo), anchors)
            )
            / (2.0 * step)
        )
    return np.column_stack(cols)


class TestJacobian:
    def test_unit_direction_row(self):
        anchors = AnchorSet([[1.0, 0.0], [0.0, 1.0]], [0.01, 0.02])
        state = UdState([0.0, 0.0], [0.0, 0.0], 0.0, 0.0)
        jac = jacobian(state, anchors)
        np.testing.assert_allclose(jac[0], [-1, 0, 0, 0, -1, 0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
            jac = jacobian(ud, ANCHORS)
            fd = finite_difference_jacobian(ud, ANCHORS)
            rel = np.abs(jac - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, rel.max())
        assert worst <= 1e-5

    def test_zero_velocity_unifies_direction_vectors(self):
        state = UdState([300.0, 200.0], [0.0, 0.0], 100.0, 10.0)
        jac = jacobian(state, ANCHORS)
        m = ANCHORS.count
        np.testing.assert_allclose(jac[:m, :2], jac[m:, :2])

    def test_response_rows_carry_schedule(self):
        state = UdState([300.0, 200.0], [0.0, 0.0], 0.0, 0.0)
        jac = jacobian(state, ANCHORS)
        m = ANCHORS.count
        np.testing.assert_allclose(jac[m:, 5], ANCHORS.schedule)
        np.testing.assert_allclose(jac[m:, 4], np.ones(m))
        np.testing.assert_allclose(jac[:m, 4], -np.ones(m))

    def test_on_anchor_raises(self):
        state = UdState(ANCHORS.positions[2], [0.0, 0.0], 0.0, 0.0)
        with pytest.raises(Exception):
            jacobian(state, ANCHORS)


ANCHORS_3D = AnchorSet(
    np.column_stack([ANCHORS.positions, 50.0 * np.arange(8)]), ANCHORS.schedule
)


@pytest.mark.parametrize("model", [predict_measurements, forward_model, jacobian])
@pytest.mark.parametrize("ndim", [2, 3])
def test_state_of_another_dimension_rejected(model, ndim):
    # A ConfigurationError naming both dimensions: a 2-D state on 3-D anchors
    # reached a numpy IndexError (model) or broadcast ValueError (Jacobian),
    # and a 3-D state on 2-D anchors was read as a wrong 2-D state.
    state = UdState(np.full(ndim, 300.0), np.ones(ndim), 0.0, 0.0)
    anchors = ANCHORS_3D if ndim == 2 else ANCHORS
    with pytest.raises(ConfigurationError, match=f"{ndim}-D state and {5 - ndim}-D"):
        model(state, anchors)


class TestCrlb:
    def _state_noise(self, seed=1, snr=30.0):
        from cftwlas import noise_for_snr

        rng = np.random.default_rng(seed)
        ud = sample_ud_state(rng, 500.0, center=ANCHORS.center)
        return ud, noise_for_snr(ud, ANCHORS, snr)

    def test_size_mismatch_rejected(self):
        # A 2-D state on 3-D anchors and request sigmas of another count
        # raise ConfigurationError naming both sizes, not a numpy error.
        ud, noise = self._state_noise()
        with pytest.raises(ConfigurationError, match="2-D state and 3-D anchors"):
            crlb(ud, ANCHORS_3D, noise)
        short = NoiseSpec(noise.sigma_request[:-1], noise.sigma_response)
        with pytest.raises(ConfigurationError, match="8 anchors and 7 request sigmas"):
            crlb(ud, ANCHORS, short)

    def test_inverse_identity(self):
        ud, noise = self._state_noise()
        result = crlb(ud, ANCHORS, noise)
        np.testing.assert_allclose(
            result.crlb @ result.fisher, np.eye(6), atol=1e-8
        )

    def test_fisher_symmetric(self):
        ud, noise = self._state_noise(2)
        result = crlb(ud, ANCHORS, noise)
        asym = np.abs(result.fisher - result.fisher.T).max()
        assert asym <= 1e-12 * np.abs(result.fisher).max()

    def test_noise_scaling_scales_bound(self):
        ud, noise = self._state_noise(3)
        base = crlb(ud, ANCHORS, noise)
        k = 2.5
        scaled = crlb(
            ud, ANCHORS,
            NoiseSpec(k * noise.sigma_request, k * noise.sigma_response),
        )
        np.testing.assert_allclose(scaled.crlb, k**2 * base.crlb, rtol=1e-9)
        assert scaled.blocks.pos == pytest.approx(k**2 * base.blocks.pos)

    def test_rigid_motion_invariance(self):
        ud, noise = self._state_noise(4)
        base = crlb(ud, ANCHORS, noise)
        shift = np.array([500.0, -800.0])
        moved = crlb(
            UdState(ud.pos + shift, ud.vel, ud.offset, ud.drift),
            AnchorSet(ANCHORS.positions + shift, ANCHORS.schedule),
            noise,
        )
        np.testing.assert_allclose(moved.crlb, base.crlb, rtol=1e-9, atol=1e-12)
        th = 1.1
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        big = np.eye(6)
        big[:2, :2] = rot
        big[2:4, 2:4] = rot
        rotated = crlb(
            UdState(rot @ ud.pos, rot @ ud.vel, ud.offset, ud.drift),
            AnchorSet(ANCHORS.positions @ rot.T, ANCHORS.schedule),
            noise,
        )
        np.testing.assert_allclose(
            rotated.crlb, big @ base.crlb @ big.T, rtol=1e-8, atol=1e-9
        )
        assert rotated.blocks.offset == pytest.approx(base.blocks.offset)
        assert rotated.blocks.drift == pytest.approx(base.blocks.drift)

    def test_block_traces_consistent_with_matrix(self):
        ud, noise = self._state_noise(5)
        result = crlb(ud, ANCHORS, noise)
        assert result.blocks.pos == pytest.approx(np.trace(result.crlb[:2, :2]))
        assert result.blocks.vel == pytest.approx(np.trace(result.crlb[2:4, 2:4]))
        assert result.blocks.offset == pytest.approx(result.crlb[4, 4])
        assert result.blocks.drift == pytest.approx(result.crlb[5, 5])

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_block_traces_equal_np_trace_bitwise(self, ndim):
        # The blocks are running sums of the bound's diagonal; np.trace adds
        # the diagonal of a 2- or 3-D block in the same order.
        rng = np.random.default_rng(40 + ndim)
        n = ndim
        for _ in range(300):
            m = int(rng.integers(ndim + 3, 10))
            anchors = AnchorSet(
                rng.uniform(0.0, 800.0, size=(m, ndim)), 0.01 * np.arange(1, m + 1)
            )
            ud = sample_ud_state(rng, 500.0, center=anchors.center, ndim=ndim)
            noise = NoiseSpec(rng.uniform(0.1, 10.0, m), float(rng.uniform(0.1, 10.0)))
            result = crlb(ud, anchors, noise)
            bound = result.crlb
            assert result.blocks.pos == float(np.trace(bound[:n, :n]))
            assert result.blocks.vel == float(np.trace(bound[n : 2 * n, n : 2 * n]))
            assert result.blocks.offset == bound[2 * n, 2 * n]
            assert result.blocks.drift == bound[2 * n + 1, 2 * n + 1]

    def test_collinear_anchors_and_motion_along_them_are_singular(self):
        # Anchors on one line and a device on it moving along it: nothing
        # measures the position and velocity across the line.
        anchors = AnchorSet([[100.0 * i, 0.0] for i in range(5)], 0.01 * np.arange(1, 6))
        ud = UdState([150.0, 0.0], [3.0, 0.0], 0.0, 0.0)
        with pytest.raises(DegenerateGeometryError, match="singular information matrix"):
            crlb(ud, anchors, NoiseSpec(np.ones(5), 1.0))

    def test_center_of_square_fisher_is_usable_or_degenerate(self):
        # At the 4-anchor center the linearized builder degenerates, but the
        # information matrix itself can stay invertible; this only checks the
        # call never returns garbage.
        anchors = build_square_scenario(800.0, 4)
        ud = UdState([400.0, 400.0], [0.0, 0.0], 100.0, 10.0)
        noise = NoiseSpec(np.ones(4), 1.0)
        try:
            result = crlb(ud, anchors, noise)
        except DegenerateGeometryError:
            return
        assert np.isfinite(result.crlb).all()


class TestFlopModels:
    def test_published_operating_point(self):
        assert flops_cftwlas(2, 8) == 5713
        assert flops_iterative_per_iter(2, 8) == 1976

    def test_three_dimensional_point(self):
        assert flops_cftwlas(3, 8) == 9261

    def test_returns_int(self):
        assert isinstance(flops_cftwlas(2, 8), int)
        assert isinstance(flops_iterative_per_iter(3, 5), int)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            flops_cftwlas(0, 8)
        with pytest.raises(ConfigurationError):
            flops_iterative_per_iter(2, 3)


@pytest.mark.parametrize("an_count", [4, 5, 8])
def test_one_measurement_model(an_count):
    # Synthesis, residuals and prediction share one model: bitwise equal
    # values, an exactly zero cost at the truth, and one on-anchor error.
    anchors = build_square_scenario(800.0, an_count)
    noise = NoiseSpec(np.ones(an_count), 1.0)
    rng = np.random.default_rng(an_count)
    for _ in range(50):
        ud = sample_ud_state(rng, 500.0, center=anchors.center)
        meas = forward_model(ud, anchors)
        np.testing.assert_array_equal(meas.stacked(), predict_measurements(ud, anchors))
        assert compute_residuals(ud, meas, anchors, noise).weighted_cost == 0.0
    on_anchor = UdState(anchors.positions[-1], [0.0, 0.0], 10.0, 1.0)
    with pytest.raises(GeometryError):
        forward_model(on_anchor, anchors)
    with pytest.raises(GeometryError):
        predict_measurements(on_anchor, anchors)
    with pytest.raises(GeometryError):
        compute_residuals(on_anchor, meas, anchors, noise)


def _reduce(runs, crlb_pos_sqrt=2.0):
    """Reduce (squared block errors or None, raw squared errors or None) per
    run with the campaign's cell reducer, as one closed-form cell; None is a
    run without a state, a NaN row of the method record."""

    def stack(errors):
        return np.array([[np.nan] * 4 if e is None else e for e in errors])

    ref, raw = zip(*runs)
    record = _MethodRecord(np.zeros(len(runs), bool), stack(ref), stack(raw), None, 0.0)
    crlb_sqrt = np.tile([crlb_pos_sqrt, 1.0, 1.0, 1.0], (len(runs), 1))
    cfg = CampaignConfig(runs=len(runs))
    (cell,) = _aggregate_cell(cfg, 8, 30.0, crlb_sqrt, [record])
    return cell


class TestErrorStats:
    """Cell error statistics, as the campaign reducer computes them."""

    def test_all_zero_errors(self):
        cell = _reduce([((0.0, 0.0, 0.0, 0.0), None)] * 5)
        assert cell.rmse.pos == 0.0
        assert cell.raw_rmse is None
        assert cell.large_error_rate == 0.0
        assert cell.failure_rate == 0.0
        assert cell.runs == 5

    def test_boundary_error_not_counted_large(self):
        # Error exactly at three sigma stays inside (strict inequality):
        # sqrt(bound) = 2, threshold = 6.
        exactly = (6.0**2, 0.0, 0.0, 0.0)
        just_over = ((6.0 + 1e-9) ** 2, 0.0, 0.0, 0.0)
        assert _reduce([(exactly, None)]).large_error_rate == 0.0
        assert _reduce([(just_over, None)]).large_error_rate == 1.0

    def test_failures_count_as_large_and_skip_rmse(self):
        cell = _reduce([((1.0, 4.0, 9.0, 16.0), None), (None, None)])
        assert cell.failure_rate == 0.5
        assert cell.large_error_rate == 0.5
        assert (cell.rmse.pos, cell.rmse.vel) == (1.0, 2.0)
        assert (cell.rmse.offset, cell.rmse.drift) == (3.0, 4.0)

    def test_rows_summed_in_run_order(self):
        # The reducer's sums are a running sum over the runs, bit for bit;
        # numpy's pairwise sum along a contiguous axis gives other bits.
        errors = np.random.default_rng(4).lognormal(0.0, 3.0, size=(1000, 4))
        cell = _reduce([(tuple(e), None) for e in errors])
        sums = np.zeros(4)
        for e in errors:
            sums += e
        rmse = [cell.rmse.pos, cell.rmse.vel, cell.rmse.offset, cell.rmse.drift]
        assert rmse == np.sqrt(sums / 1000).tolist()
        assert not np.array_equal(np.ascontiguousarray(errors.T).sum(axis=1), sums)

    def test_reports_raw_and_refined_separately(self):
        cell = run_campaign(CampaignConfig(runs=20, seed=6)).cells[0]
        assert cell.raw_rmse is not None
        assert cell.rmse.pos <= cell.raw_rmse.pos
        assert 0.0 <= cell.large_error_rate <= 1.0
