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
from cftwlas.linear_system import constraint_matrices


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
