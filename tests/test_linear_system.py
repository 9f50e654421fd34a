import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cftwlas import (
    AnchorSet,
    ConfigurationError,
    DegenerateGeometryError,
    UdState,
    build_square_scenario,
    build_system,
    forward_model,
)
from cftwlas.linear_system import _RANK_RTOL, build_systems, constraint_matrices


def random_state(rng, ndim=2):
    return UdState(
        rng.uniform(100, 700, size=ndim),
        rng.uniform(-40, 40, size=ndim),
        rng.uniform(0, 5000),
        rng.uniform(-2500, 2500),
    )


# The states of ``random_state``, drawn component by component.
_states = st.builds(
    UdState,
    st.lists(st.floats(100, 700), min_size=2, max_size=2),
    st.lists(st.floats(-40, 40), min_size=2, max_size=2),
    st.floats(0, 5000),
    st.floats(-2500, 2500),
)


def true_aux(ud):
    lam1 = ud.drift**2 - float(ud.vel @ ud.vel)
    lam2 = ud.offset * ud.drift - float(ud.pos @ ud.vel)
    return lam1, lam2


class TestConstraintMatrices:
    def test_quadratic_form_identities(self):
        # theta' h1 theta = drift^2 - |v|^2 and theta' h2 theta =
        # 2 (offset*drift - p.v), checked on a large random sample.
        rng = np.random.default_rng(0)
        for ndim in (2, 3):
            h1, h2 = constraint_matrices(ndim)
            for _ in range(500):
                ud = random_state(rng, ndim)
                theta = ud.as_vector()
                lam1, lam2 = true_aux(ud)
                assert theta @ h1 @ theta == pytest.approx(lam1, rel=1e-12, abs=1e-9)
                assert theta @ h2 @ theta == pytest.approx(2 * lam2, rel=1e-12, abs=1e-9)

    def test_shapes_and_symmetry(self):
        h1, h2 = constraint_matrices(3)
        assert h1.shape == (8, 8)
        assert h2.shape == (8, 8)
        np.testing.assert_array_equal(h2, h2.T)

    def test_h1_diagonal_layout(self):
        h1, _ = constraint_matrices(2)
        np.testing.assert_array_equal(
            np.diag(h1), [0, 0, -1, -1, 0, 1]
        )


class TestBuildSystem:
    def test_noise_free_collective_identity(self):
        # A theta* - y - G lam* vanishes for noise-free inputs.
        rng = np.random.default_rng(1)
        anchors = build_square_scenario(800.0, 8)
        for _ in range(20):
            ud = random_state(rng)
            meas = forward_model(ud, anchors)
            sys_ = build_system(meas, anchors)
            lam1, lam2 = true_aux(ud)
            residual = sys_.A @ ud.as_vector() - sys_.y - sys_.G @ [lam1, lam2]
            scale = max(1.0, np.abs(sys_.y).max())
            assert np.abs(residual).max() < 1e-9 * scale

    def test_noise_free_ls_consistency(self):
        # g + U lam* recovers theta* whenever A has full column rank.
        rng = np.random.default_rng(2)
        anchors = build_square_scenario(800.0, 8)
        for _ in range(20):
            ud = random_state(rng)
            sys_ = build_system(forward_model(ud, anchors), anchors)
            lam1, lam2 = true_aux(ud)
            theta = sys_.g + sys_.U @ [lam1, lam2]
            np.testing.assert_allclose(theta, ud.as_vector(), rtol=1e-8, atol=1e-6)

    def test_dimensions_eight_anchors(self):
        anchors = build_square_scenario(800.0, 8)
        ud = UdState([300.0, 500.0], [10.0, 5.0], 100.0, 10.0)
        sys_ = build_system(forward_model(ud, anchors), anchors)
        assert sys_.A.shape == (14, 6)
        assert sys_.G.shape == (14, 2)
        assert sys_.y.shape == (14,)
        assert sys_.g.shape == (6,)
        assert sys_.U.shape == (6, 2)
        assert sys_.ndim == 2

    def test_request_block_of_g_is_zero(self):
        anchors = build_square_scenario(800.0, 5)
        ud = UdState([300.0, 500.0], [10.0, 5.0], 100.0, 10.0)
        sys_ = build_system(forward_model(ud, anchors), anchors)
        np.testing.assert_array_equal(sys_.G[:4], np.zeros((4, 2)))

    def test_center_of_square_is_degenerate(self):
        # Equidistant device with zero velocity kills the request rows'
        # contribution and the system loses column rank.
        anchors = build_square_scenario(800.0, 4)
        ud = UdState([400.0, 400.0], [0.0, 0.0], 123.0, 45.0)
        meas = forward_model(ud, anchors)
        with pytest.raises(DegenerateGeometryError):
            build_system(meas, anchors)

    def test_too_few_anchors(self):
        anchors = AnchorSet([[0.0, 0.0], [800.0, 0.0], [800.0, 800.0]],
                            [0.01, 0.02, 0.03])
        ud = UdState([300.0, 200.0], [1.0, 2.0], 10.0, 1.0)
        with pytest.raises(ConfigurationError):
            build_system(forward_model(ud, anchors), anchors)

    def test_measurement_count_mismatch_names_both_counts(self):
        ud = UdState([300.0, 200.0], [1.0, 2.0], 10.0, 1.0)
        meas = forward_model(ud, build_square_scenario(800.0, 5))
        with pytest.raises(ConfigurationError, match="4 anchors and 5 measurement pairs"):
            build_system(meas, build_square_scenario(800.0, 4))

    def test_rank_never_drops_when_anchors_added(self):
        rng = np.random.default_rng(3)
        full = build_square_scenario(800.0, 8)
        ud = random_state(rng)
        ranks = []
        for m in range(4, 9):
            anchors = AnchorSet(full.positions[:m], full.schedule[:m])
            meas = forward_model(ud, anchors)
            sys_ = build_system(meas, anchors)
            svals = np.linalg.svd(sys_.A, compute_uv=False)
            ranks.append(int(np.sum(svals > 1e-9 * svals[0])))
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), count=st.sampled_from([4, 5, 8]))
    def test_alternative_reference_anchor(self, data, count):
        # Any reference anchor recovers a noise-free state on the 4-, 5- and
        # 8-anchor squares.
        anchors = build_square_scenario(800.0, count)
        ref_index = data.draw(st.integers(0, count - 1), label="ref_index")
        ud = data.draw(_states, label="ud")
        try:
            sys_ = build_system(forward_model(ud, anchors), anchors, ref_index=ref_index)
        except DegenerateGeometryError:
            assume(False)
        lam = true_aux(ud)
        theta = sys_.g + sys_.U @ lam
        np.testing.assert_allclose(theta, ud.as_vector(), rtol=1e-8, atol=1e-6)

    def test_bad_reference_index(self):
        anchors = build_square_scenario(800.0, 4)
        ud = UdState([300.0, 200.0], [1.0, 2.0], 10.0, 1.0)
        meas = forward_model(ud, anchors)
        with pytest.raises(ConfigurationError):
            build_system(meas, anchors, ref_index=4)


def _toas(anchors, states, rng, sigma):
    """(K, M) request and response TOAs of the states, with Gaussian noise."""
    meas = [forward_model(ud, anchors) for ud in states]
    request = np.array([m.request_toa for m in meas])
    response = np.array([m.response_toa for m in meas])
    return (
        request + rng.normal(0.0, sigma, request.shape),
        response + rng.normal(0.0, sigma, response.shape),
    )


def _build(request, response, anchors):
    with np.errstate(all="ignore"):
        return build_systems(request, response, anchors)


def _svd_rank(A):
    """The rank test on the singular values of each A of a stack."""
    s = np.linalg.svd(A, compute_uv=False)
    return (s[:, 0] > 0.0) & (s[:, -1] >= _RANK_RTOL * s[:, 0])


def _straddling_rows():
    """The criterion-10 row (the centre of the 4-anchor square, at rest),
    then that row with its second request TOA moved so that s_min / s_max of
    A falls just below, just at or above, further below and further above
    _RANK_RTOL: bisection on the move brackets the crossing."""
    anchors = build_square_scenario(800.0, 4)
    ud = UdState([400.0, 400.0], [0.0, 0.0], 123.0, 45.0)
    request, response = _toas(anchors, [ud], np.random.default_rng(0), 0.0)

    def moved(eps):
        r = request.repeat(len(eps), axis=0)
        r[:, 1] += eps
        return r, response.repeat(len(eps), axis=0)

    def ratio(eps):
        s = np.linalg.svd(_build(*moved([eps]), anchors)[0], compute_uv=False)[0]
        return s[-1] / s[0]

    lo, hi = 0.0, 1.0
    assert ratio(hi) > _RANK_RTOL
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ratio(mid) < _RANK_RTOL else (lo, mid)
    return anchors, *moved([0.0, lo, hi, lo * (1 - 1e-4), hi * (1 + 1e-4)])


class TestStackedSolve:
    """``build_systems`` against per-row LAPACK: least squares images, rank
    decisions and which rows reach the singular value decomposition."""

    @settings(max_examples=200, deadline=None)
    @given(
        ndim=st.sampled_from([2, 3]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        log_sigma=st.floats(-3.0, 1.0),
    )
    def test_images_match_lstsq_and_rank_matches_svd(self, ndim, data, seed, log_sigma):
        # Random layouts with N + 2 to 8 anchors. Each image column is
        # within 64 eps cond(A) of lstsq's, relative to its largest entry;
        # both solvers err by about eps cond(A).
        m = data.draw(st.integers(ndim + 2, 8), label="anchors")
        rng = np.random.default_rng(seed)
        anchors = AnchorSet(
            rng.uniform(0.0, 1000.0, (m, ndim)), np.cumsum(rng.uniform(1e-3, 2e-2, m))
        )
        states = [
            UdState(
                rng.uniform(0.0, 1000.0, ndim),
                rng.uniform(-50.0, 50.0, ndim),
                rng.uniform(0.0, 5000.0),
                rng.uniform(-2500.0, 2500.0),
            )
            for _ in range(4)
        ]
        A, rhs, images, full_rank = _build(
            *_toas(anchors, states, rng, 10.0**log_sigma), anchors
        )
        assert full_rank.tolist() == _svd_rank(A).tolist()
        eps = np.finfo(float).eps
        for k in np.flatnonzero(full_rank):
            expected = np.linalg.lstsq(A[k], rhs[k], rcond=None)[0]
            s = np.linalg.svd(A[k], compute_uv=False)
            tol = 64 * eps * s[0] / s[-1] * np.abs(expected).max(axis=0)
            assert (np.abs(images[k] - expected) <= tol).all(), k

    def test_rank_decisions_straddling_the_threshold_equal_the_svd(self):
        anchors, request, response = _straddling_rows()
        A, _, _, full_rank = _build(request, response, anchors)
        expected = [False, False, True, False, True]
        assert _svd_rank(A).tolist() == expected
        assert full_rank.tolist() == expected

    @pytest.mark.parametrize("slope", [0.0, 1 / 3], ids=["on_axis", "tilted"])
    def test_collinear_layout_is_degenerate_on_every_row(self, slope):
        # The fixed columns lose rank, so no row can keep it; every row takes
        # the exact test. On an axis the QR factor has exact zero pivots
        # that LAPACK cannot invert, off it pivots at rounding level.
        x = np.arange(5) * 300.0
        anchors = AnchorSet(np.stack([x, 10.0 + slope * x], axis=1), 0.01 * np.arange(1, 6))
        rng = np.random.default_rng(4)
        states = [random_state(rng) for _ in range(6)]
        A, _, _, full_rank = _build(*_toas(anchors, states, rng, 0.1), anchors)
        assert not _svd_rank(A).any()
        assert not full_rank.any()


class TestSvdCalls:
    """The singular value decomposition runs only on the rows that the bound
    cannot clear and whose A is finite, all of them in one stacked call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        svd = np.linalg.svd

        def counted(A, *args, **kwargs):
            seen.append(A.copy())
            return svd(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return seen

    def test_well_conditioned_stack_makes_no_call(self, calls):
        anchors = build_square_scenario(800.0, 8)
        rng = np.random.default_rng(5)
        states = [random_state(rng) for _ in range(16)]
        full_rank = _build(*_toas(anchors, states, rng, 0.3), anchors)[3]
        assert full_rank.all()
        assert calls == []

    def test_only_rows_the_bound_cannot_clear_reach_the_exact_test(self, calls):
        # Straddling rows (the criterion-10 row among them) and a huge finite
        # TOA take the exact test; a NaN TOA fails without it, and the
        # well-conditioned rows are cleared by the bound.
        anchors, request, response = _straddling_rows()
        calls.clear()
        rng = np.random.default_rng(6)
        states = [random_state(rng) for _ in range(3)]
        good_request, good_response = _toas(anchors, states, rng, 0.3)
        request = np.concatenate([good_request[:2], request, good_request[2:], request[:2]])
        response = np.concatenate([good_response[:2], response, good_response[2:], response[:2]])
        request[8, 1] = np.nan
        request[9, 2] = 1e200
        A, _, _, full_rank = _build(request, response, anchors)
        exact = [2, 3, 4, 5, 6, 9]
        assert full_rank.tolist() == [True, True, False, False, True, False, True, True] + [
            False, False,
        ]
        assert len(calls) == 1
        assert calls[0].tobytes() == A[exact].tobytes()

    def test_rejected_exact_stack_is_split_and_only_its_culprit_fails(self, monkeypatch):
        # LAPACK rejecting the stacks that hold the straddling row whose rank
        # holds: the stack is halved down to that row, which fails, and the
        # other rows keep their decisions.
        anchors, request, response = _straddling_rows()
        sizes = []
        svd = np.linalg.svd
        culprit = _build(request, response, anchors)[0][2].tobytes()

        def rejecting(A, *args, **kwargs):
            sizes.append(A.shape[0])
            if any(a.tobytes() == culprit for a in A):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", rejecting)
        full_rank = _build(request, response, anchors)[3]
        assert sizes == [5, 3, 2, 1, 2]
        assert full_rank.tolist() == [False, False, False, False, True]
