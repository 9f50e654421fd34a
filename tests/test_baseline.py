import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftwlas import (
    AnchorSet,
    ConfigurationError,
    GeometryError,
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
from cftwlas import baseline
from cftwlas.analysis import _evaluate, _jacobians, _ranges
from cftwlas.baseline import IterationTrace, _gauss_newton_batch

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

    def test_negative_max_iter_and_bad_tol_rejected(self):
        ud = UdState([300.0, 500.0], [0.0, 0.0], 0.0, 0.0)
        meas = forward_model(ud, ANCHORS)
        for kw in ({"max_iter": -1}, {"tol": float("nan")}, {"tol": -1e-4}):
            with pytest.raises(ConfigurationError, match="max_iter"):
                gauss_newton(meas, ANCHORS, UNIT_NOISE, ud, **kw)
        state, trace = gauss_newton(meas, ANCHORS, UNIT_NOISE, ud, max_iter=0)
        assert state.as_vector().tobytes() == ud.as_vector().tobytes()
        assert len(trace.costs) == 1 and trace.iterations_used == 0

    def test_size_mismatch_rejected(self):
        ud = UdState([300.0, 500.0], [0.0, 0.0], 0.0, 0.0)
        meas = forward_model(ud, ANCHORS)
        with pytest.raises(ConfigurationError, match="counts must match"):
            gauss_newton(meas, ANCHORS, NoiseSpec(np.ones(7), 1.0), ud)
        short = forward_model(ud, build_square_scenario(800.0, 5))
        with pytest.raises(ConfigurationError, match="counts must match"):
            gauss_newton(short, ANCHORS, UNIT_NOISE, ud)

    def test_initial_guess_of_another_dimension_rejected(self):
        # A 2-D initial guess on 3-D anchors raises ConfigurationError naming
        # both dimensions, not an IndexError from the first step.
        anchors_3d = AnchorSet(
            np.column_stack([ANCHORS.positions, 50.0 * np.arange(8)]), ANCHORS.schedule
        )
        truth = UdState([300.0, 500.0, 20.0], [0.0, 0.0, 0.0], 0.0, 0.0)
        meas = forward_model(truth, anchors_3d)
        init = UdState([300.0, 500.0], [0.0, 0.0], 0.0, 0.0)
        with pytest.raises(ConfigurationError, match="2-D state and 3-D anchors"):
            gauss_newton(meas, anchors_3d, UNIT_NOISE, init)


# --- the shared WLS step against the loop it replaced ----------------------


def reference_gauss_newton(meas, anchors, noise, init, max_iter=20, tol=1e-4):
    """Gauss-Newton with its own model evaluation, its own solve and a
    validated state per iterate, as it stood before it took the refinement's
    stacked step; kept to pin that step's results bit for bit."""
    gamma = meas.stacked()
    w = noise.weights()

    def evaluate(state):
        ranges = _ranges(state.pos[None], state.vel[None], anchors)
        if ranges[4][0]:
            raise GeometryError("state coincides with an anchor")
        request = ranges[1] - state.offset
        response = ranges[3] + state.offset + state.drift * anchors.schedule
        residual = gamma - np.concatenate([request, response], axis=1)[0]
        return ranges, residual, float(residual @ (w * residual))

    state = init
    ranges, residual, cost = evaluate(init)
    costs = [cost]
    converged = diverged = False
    iterations_used = 0
    for _ in range(max_iter):
        jac = _jacobians(*ranges[:4], anchors)[0]
        jt_w = jac.T * w
        try:
            delta = np.linalg.solve(jt_w @ jac, jt_w @ residual)
        except np.linalg.LinAlgError:
            diverged = True
            break
        theta = state.as_vector() + delta
        if not np.isfinite(theta).all():
            diverged = True
            break
        iterations_used += 1
        state = UdState.from_vector(theta)
        ranges, residual, cost = evaluate(state)
        costs.append(cost)
        if np.linalg.norm(delta) < tol:
            converged = True
            break
    return state, IterationTrace(tuple(costs), converged, iterations_used, diverged)


def _outcome(run):
    """Bits of a Gauss-Newton result, or the type of the error it raised."""
    try:
        state, trace = run()
    except GeometryError as exc:
        return type(exc)
    return (
        state.as_vector().tobytes(),
        np.array(trace.costs).tobytes(),
        trace.converged,
        trace.iterations_used,
        trace.diverged,
    )


def _assert_matches_reference(meas, anchors, noise, init, **kw):
    assert _outcome(lambda: gauss_newton(meas, anchors, noise, init, **kw)) == (
        _outcome(lambda: reference_gauss_newton(meas, anchors, noise, init, **kw))
    )


@settings(max_examples=200, deadline=None)
@given(
    ndim=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    init_std=st.sampled_from([0.0, 50.0, 200.0]),
    max_iter=st.integers(0, 20),
    tol=st.sampled_from([0.0, 1e-4, 1.0]),
)
def test_gauss_newton_matches_reference_loop_bitwise(ndim, seed, init_std, max_iter, tol):
    rng = np.random.default_rng(seed)
    if ndim == 2:
        anchors = build_square_scenario(800.0, int(rng.choice([4, 5, 8])))
    else:
        m = int(rng.integers(5, 10))
        anchors = AnchorSet(rng.uniform(0.0, 800.0, (m, 3)), 0.01 * np.arange(1, m + 1))
    ud = sample_ud_state(rng, 500.0, center=anchors.center, ndim=ndim)
    noise = noise_for_snr(ud, anchors, float(rng.uniform(0.0, 50.0)))
    meas = add_noise(forward_model(ud, anchors), noise, rng)
    init = make_initializer(ud, init_std, rng)
    _assert_matches_reference(meas, anchors, noise, init, max_iter=max_iter, tol=tol)


@pytest.mark.parametrize("ndim", [2, 3])
def test_singular_normal_matrix_is_diverged_like_the_reference(ndim, monkeypatch):
    # Anchors on a line (a plane in 3-D) and a device in it that moves in it:
    # no measurement depends on the off-line position or velocity, so J'WJ
    # has zero rows and columns.
    positions = np.zeros((5, ndim))
    positions[:, 0] = [0.0, 100.0, 300.0, 700.0, 900.0]
    if ndim == 3:
        positions[:, 1] = [0.0, 400.0, -300.0, 200.0, 50.0]
    anchors = AnchorSet(positions, 0.01 * np.arange(1, 6))
    off = np.zeros(ndim - 1)
    truth = UdState([450.0, *off], [5.0, *off], 300.0, 2.0)
    init = UdState([400.0, *off], np.zeros(ndim), 0.0, 0.0)
    noise = NoiseSpec(np.ones(5), 1.0)
    meas = forward_model(truth, anchors)
    _assert_matches_reference(meas, anchors, noise, init, tol=0.0)
    state, trace = gauss_newton(meas, anchors, noise, init, tol=0.0)
    assert trace.diverged and not trace.converged
    assert trace.iterations_used == 0 and len(trace.costs) == 1
    assert state.as_vector().tobytes() == init.as_vector().tobytes()
    # Once its only row has left, the kernel stops, however large max_iter.
    evaluations = []

    def counted(thetas, anchors):
        evaluations.append(len(thetas))
        assert len(evaluations) <= 2, "the kernel iterates an empty stack"
        return _evaluate(thetas, anchors)

    monkeypatch.setattr(baseline, "_evaluate", counted)
    _, trace = gauss_newton(meas, anchors, noise, init, max_iter=10**9, tol=0.0)
    assert trace.diverged


def test_batch_whose_rows_all_diverge_stops_without_an_empty_evaluation(monkeypatch):
    # The line layout of the test above: every row has a singular normal
    # matrix, so all of them diverge on the first step, and the kernel
    # returns then instead of evaluating the empty stack that is left.
    positions = np.zeros((5, 2))
    positions[:, 0] = [0.0, 100.0, 300.0, 700.0, 900.0]
    anchors = AnchorSet(positions, 0.01 * np.arange(1, 6))
    truths = [UdState([x, 0.0], [v, 0.0], 300.0, 2.0) for x, v in ((450, 5), (620, -3), (80, 1))]
    gamma = np.array([forward_model(t, anchors).stacked() for t in truths])
    inits = np.array([[x - 30.0, 0.0, 0.0, 0.0, 0.0, 0.0] for x in (450, 620, 80)])
    evaluations = []

    def counted(thetas, anchors):
        evaluations.append(len(thetas))
        return _evaluate(thetas, anchors)

    monkeypatch.setattr(baseline, "_evaluate", counted)
    states, costs, iterations, converged, diverged, on_anchor = _gauss_newton_batch(
        gamma, np.ones_like(gamma), inits, anchors, max_iter=10**9, tol=0.0
    )
    assert evaluations == [3]
    assert diverged == [True] * 3 and iterations == [0] * 3
    assert converged == on_anchor == [False] * 3
    assert [len(c) for c in costs] == [1] * 3
    assert states.tobytes() == inits.tobytes()


# --- the batched kernel against gauss_newton alone -------------------------


def _draw_window(ndim, seed, init_std, rows):
    """``rows`` noisy runs on one random layout with their initial guesses."""
    rng = np.random.default_rng(seed)
    if ndim == 2:
        anchors = build_square_scenario(800.0, int(rng.choice([4, 5, 8])))
    else:
        m = int(rng.integers(5, 10))
        anchors = AnchorSet(rng.uniform(0.0, 800.0, (m, 3)), 0.01 * np.arange(1, m + 1))
    runs = []
    for _ in range(rows):
        ud = sample_ud_state(rng, 500.0, center=anchors.center, ndim=ndim)
        noise = noise_for_snr(ud, anchors, float(rng.uniform(0.0, 50.0)))
        meas = add_noise(forward_model(ud, anchors), noise, rng)
        runs.append((meas, noise, make_initializer(ud, init_std, rng)))
    return anchors, runs


def _kernel(anchors, runs, max_iter=20, tol=1e-4):
    return _gauss_newton_batch(
        np.array([meas.stacked() for meas, _, _ in runs]),
        np.array([noise.weights() for _, noise, _ in runs]),
        np.array([init.as_vector() for _, _, init in runs]),
        anchors,
        max_iter,
        tol,
    )


def _batch(anchors, runs, **kw):
    """Per-row outcomes of one ``_gauss_newton_batch`` call, in the form of
    ``_outcome``: an on-anchor row gives GeometryError."""
    if not runs:
        return []
    states, costs, iterations, converged, diverged, on_anchor = _kernel(
        anchors, runs, **kw
    )
    return [
        GeometryError if on_anchor[k] else (
            states[k].tobytes(),
            np.array(costs[k]).tobytes(),
            converged[k],
            iterations[k],
            diverged[k],
        )
        for k in range(len(runs))
    ]


def _alone(anchors, runs, **kw):
    return [
        _outcome(lambda: gauss_newton(meas, anchors, noise, init, **kw))
        for meas, noise, init in runs
    ]


@settings(max_examples=60, deadline=None)
@given(
    ndim=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    init_std=st.sampled_from([0.0, 50.0, 200.0]),
    max_iter=st.integers(0, 20),
    tol=st.sampled_from([0.0, 1e-4, 1.0]),
    rows=st.integers(1, 12),
    data=st.data(),
)
def test_batched_rows_equal_gauss_newton_alone(
    ndim, seed, init_std, max_iter, tol, rows, data
):
    anchors, runs = _draw_window(ndim, seed, init_std, rows)
    kw = {"max_iter": max_iter, "tol": tol}
    alone = _alone(anchors, runs, **kw)
    assert _batch(anchors, runs, **kw) == alone
    perm = data.draw(st.permutations(range(rows)))
    assert _batch(anchors, [runs[k] for k in perm], **kw) == [alone[k] for k in perm]
    cut = data.draw(st.integers(0, rows))
    split = _batch(anchors, runs[:cut], **kw) + _batch(anchors, runs[cut:], **kw)
    assert split == alone


@pytest.mark.parametrize("ndim", [2, 3])
def test_singular_and_on_anchor_rows_leave_the_others_unchanged(ndim):
    # Row 1 has a singular normal matrix (anchors on a line or plane, device
    # in it); row 2 starts on an anchor. Rows 0 and 3 are ordinary runs.
    positions = np.zeros((5, ndim))
    positions[:, 0] = [0.0, 100.0, 300.0, 700.0, 900.0]
    if ndim == 3:
        positions[:, 1] = [0.0, 400.0, -300.0, 200.0, 50.0]
    anchors = AnchorSet(positions, 0.01 * np.arange(1, 6))
    off = np.zeros(ndim - 1)
    noise = NoiseSpec(np.ones(5), 1.0)
    truth = UdState([450.0, *off], [5.0, *off], 300.0, 2.0)
    singular = (forward_model(truth, anchors), noise,
                UdState([400.0, *off], np.zeros(ndim), 0.0, 0.0))
    on_anchor = (forward_model(truth, anchors), noise,
                 UdState(positions[2], np.zeros(ndim), 0.0, 0.0))
    rng = np.random.default_rng(11)
    ordinary = []
    for _ in range(2):
        ud = UdState(positions[1] + rng.uniform(50.0, 80.0, ndim),
                     rng.uniform(-5.0, 5.0, ndim), 100.0, 1.0)
        ordinary.append((add_noise(forward_model(ud, anchors), noise, rng), noise,
                         make_initializer(ud, 5.0, rng)))
    runs = [ordinary[0], singular, on_anchor, ordinary[1]]
    for kw in ({"tol": 0.0}, {}):
        batch = _batch(anchors, runs, **kw)
        assert batch == _alone(anchors, runs, **kw)
        assert batch[1][4] and not batch[1][2]  # singular row: diverged
        assert batch[2] is GeometryError
        assert all(isinstance(row, tuple) for row in (batch[0], batch[3]))
    states = _kernel(anchors, runs)[0]
    assert np.isnan(states[2]).all() and np.isfinite(states[[0, 1, 3]]).all()
