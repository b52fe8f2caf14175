"""Localizer tests: posterior statistics, filtering, tracking, EKF."""

import numpy as np
import pytest

import poseinn.localizer as lc
from poseinn.errors import (ConditioningError, DimensionError, DomainError,
                            NonFiniteError, TrackingError)
from poseinn.geometry import Aabb, Pose, wrap_angle
from poseinn.model import ModelConfig, PoseRegressor

BOUNDS = Aabb(np.array([-2.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0]))


def tiny_model(dim=3, conditional=False, seed=0):
    return PoseRegressor(
        ModelConfig(dim=dim, image_hw=16, enc_L=2, blocks=3, hidden=32,
                    conditional=conditional, seed=seed), BOUNDS)


def active_model(conditional=False):
    """Tiny model whose coupling output layers are non-zero, so the flow is
    no longer a bare permutation and the image and condition reach it."""
    m = tiny_model(conditional=conditional)
    rng = np.random.default_rng(5)
    for k, t in m.params.items():
        if k.startswith("flow.") and (".s.w2" in k or ".t.w2" in k):
            t.data = rng.normal(size=t.data.shape) * 0.3
    return m


def make_posterior(variances, dim=3):
    """Posterior stub with prescribed per-dim variance."""
    v = np.asarray(variances, dtype=np.float64)
    return lc.PosePosterior(samples=np.zeros((2, dim)), mean=np.zeros(dim),
                            variance=v, position_cov=np.diag(v[:2]), dim=dim)


class TestSummarize:
    def test_single_sample_zero_variance(self):
        p = lc.summarize_samples(np.array([[0.3, -0.2, 1.0]]), 3)
        assert np.all(p.variance == 0) and np.all(p.position_cov == 0)
        np.testing.assert_allclose(p.mean, [0.3, -0.2, 1.0])

    def test_identical_samples_zero_variance(self):
        s = np.tile([[0.5, 0.1, -2.0]], (7, 1))
        p = lc.summarize_samples(s, 3)
        assert np.all(p.variance == 0)

    def test_circular_mean_across_seam(self):
        s = np.array([[0, 0, np.pi - 0.1], [0, 0, -np.pi + 0.1]])
        p = lc.summarize_samples(s, 3)
        assert abs(abs(p.mean[2]) - np.pi) < 1e-9  # mean at the seam, not 0
        np.testing.assert_allclose(p.variance[2], 0.1 ** 2, atol=1e-9)

    def test_position_cov_matches_numpy(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(40, 3))
        s[:, 2] = rng.uniform(-1, 1, 40)
        p = lc.summarize_samples(s, 3)
        want = np.cov(s[:, :2].T, ddof=0)
        np.testing.assert_allclose(p.position_cov, want, atol=1e-12)
        assert p.mean_pose.dim == 3

    def test_scalar_uncertainty_positions_only(self):
        p = make_posterior([1.0, 2.0, 7.0])
        assert p.scalar_uncertainty() == 3.0


class _ConstantZ:
    """rng stand-in whose standard_normal tiles one row."""

    def standard_normal(self, shape):
        return np.tile(np.linspace(-0.5, 0.5, shape[1]), (shape[0], 1))


class TestLocalize:
    def test_deterministic_given_seed(self):
        m = tiny_model()
        img = np.random.default_rng(1).uniform(0, 1, (16, 16, 3))
        a = lc.localize(m, img, n_samples=20, rng=np.random.default_rng(42))
        b = lc.localize(m, img, n_samples=20, rng=np.random.default_rng(42))
        assert np.array_equal(a.samples, b.samples)

    def test_single_sample_zero_variance(self):
        m = tiny_model()
        img = np.random.default_rng(1).uniform(0, 1, (16, 16, 3))
        p = lc.localize(m, img, n_samples=1, rng=np.random.default_rng(0))
        assert np.all(p.variance == 0)

    def test_identical_z_identical_samples(self):
        m = tiny_model()
        img = np.random.default_rng(1).uniform(0, 1, (16, 16, 3))
        p = lc.localize(m, img, n_samples=12, rng=_ConstantZ())
        assert np.all(p.samples == p.samples[0])
        assert np.all(p.variance == 0)

    def test_input_validation(self):
        m = tiny_model()
        img = np.zeros((16, 16, 3))
        with pytest.raises(DimensionError):
            lc.localize(m, np.zeros((8, 8, 3)), rng=np.random.default_rng(0))
        with pytest.raises(DomainError):
            lc.localize(m, img, n_samples=0, rng=np.random.default_rng(0))

    def test_condition_contract(self):
        img = np.zeros((16, 16, 3))
        at = Pose(np.zeros(3), np.zeros(3), dim=3)
        with pytest.raises(ConditioningError):
            lc.localize(tiny_model(conditional=True), img, rng=np.random.default_rng(0))
        with pytest.raises(ConditioningError):
            lc.localize(tiny_model(), img, condition=at, rng=np.random.default_rng(0))

    def test_conditional_model_uses_condition(self):
        m = active_model(conditional=True)
        img = np.random.default_rng(1).uniform(0, 1, (16, 16, 3))
        a = lc.localize(m, img, n_samples=8, rng=np.random.default_rng(0),
                        condition=Pose(np.array([1.3, 0.2, 0]), np.zeros(3), dim=3))
        b = lc.localize(m, img, n_samples=8, rng=np.random.default_rng(0),
                        condition=Pose(np.array([-1.3, 0.2, 0]), np.zeros(3), dim=3))
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("conditional,n", [(False, 50), (True, 500)])
    def test_samples_bitwise_equal_to_graph_building_path(self, conditional, n):
        m = active_model(conditional=conditional)
        img = np.random.default_rng(1).uniform(0, 1, (16, 16, 3))
        cond = Pose(np.array([0.4, -0.7, 0]), np.array([0.9, 0, 0]), dim=3) if conditional else None
        post = lc.localize(m, img, n_samples=n, condition=cond, rng=np.random.default_rng(3))
        y = np.repeat(m.vae.encode(img[None], mode="mean").data, n, axis=0)
        z = np.random.default_rng(3).standard_normal((n, 3))
        c = None if cond is None else m.condition_vector(cond)[None]
        x = m.flow.inverse(y, z, c)
        assert x.requires_grad
        assert post.samples.tobytes() == m.decode_pose_vectors(x.data).tobytes()

    @pytest.mark.parametrize("name", ["flow.block1.s.w0", "flow.block2.t.w2"])
    def test_nan_flow_weight_raises_one_line(self, name):
        m = tiny_model()
        w = m.params[name]
        w.data = w.data.copy()
        w.data[0, 0] = np.nan
        img = np.random.default_rng(1).uniform(0, 1, (16, 16, 3))
        with pytest.raises(NonFiniteError) as e:
            lc.localize(m, img, n_samples=8, rng=np.random.default_rng(0))
        assert "flow inverse" in str(e.value) and "\n" not in str(e.value)


class TestVarianceFilter:
    def test_distinct_values_keep_lower_half(self):
        ps = [make_posterior([v, 0, 0]) for v in (3.0, 1.0, 5.0, 2.0, 4.0)]
        mask, kept = lc.variance_filter(ps)
        assert mask.tolist() == [True, True, False, True, False]
        assert len(kept) == 3  # ceil(5 / 2)

    def test_ties_all_kept(self):
        ps = [make_posterior([1.0, 1.0, 0]) for _ in range(4)]
        mask, kept = lc.variance_filter(ps)
        assert mask.all() and len(kept) == 4

    def test_even_count_keeps_half(self):
        ps = [make_posterior([v, 0, 0]) for v in (1.0, 2.0, 3.0, 4.0)]
        mask, kept = lc.variance_filter(ps)
        assert len(kept) == 2

    def test_needs_two(self):
        with pytest.raises(DomainError):
            lc.variance_filter([make_posterior([1, 0, 0])])


class TestSequential:
    def test_same_cell_initials_identical_tracks(self):
        m = tiny_model(conditional=True)
        imgs = np.random.default_rng(3).uniform(0, 1, (4, 16, 16, 3))
        a = Pose(np.array([1.26, 0.74, 0]), np.array([np.deg2rad(31.0), 0, 0]), dim=3)
        b = Pose(np.array([1.41, 0.55, 0]), np.array([np.deg2rad(58.0), 0, 0]), dim=3)
        ta = lc.sequential_localize(m, imgs, a, np.random.default_rng(7), n_samples=10)
        tb = lc.sequential_localize(m, imgs, b, np.random.default_rng(7), n_samples=10)
        for pa, pb in zip(ta, tb):
            assert np.array_equal(pa.posterior.samples, pb.posterior.samples)

    def test_unconditional_runs_frame_independent(self):
        m = tiny_model()
        imgs = np.random.default_rng(3).uniform(0, 1, (3, 16, 16, 3))
        start = Pose(np.zeros(3), np.zeros(3), dim=3)
        track = lc.sequential_localize(m, imgs, start, np.random.default_rng(0),
                                       n_samples=5)
        assert [t.frame for t in track] == [0, 1, 2]
        assert all(t.condition is None for t in track)

    def test_divergence_flag(self):
        m = tiny_model()
        imgs = np.random.default_rng(3).uniform(0, 1, (4, 16, 16, 3))
        start = Pose(np.zeros(3), np.zeros(3), dim=3)
        # negative ceiling: every frame counts toward the divergence streak
        track = lc.sequential_localize(m, imgs, start, np.random.default_rng(0),
                                       n_samples=6, var_ceiling=-1.0, lost_after=2)
        assert not track[0].lost and all(t.lost for t in track[1:])

    def test_planar_only_and_empty_stream(self):
        with pytest.raises(TrackingError):
            lc.sequential_localize(tiny_model(dim=6), np.zeros((1, 16, 16, 3)),
                                   Pose(np.zeros(3), np.zeros(3), dim=6),
                                   np.random.default_rng(0))
        with pytest.raises(DimensionError):
            lc.sequential_localize(tiny_model(), np.zeros((0, 16, 16, 3)),
                                   Pose(np.zeros(3), np.zeros(3), dim=3),
                                   np.random.default_rng(0))


class TestHeadingModes:
    def test_bimodal_lobes_found(self):
        rng = np.random.default_rng(0)
        h = np.concatenate([rng.normal(0.3, 0.08, 30), rng.normal(0.3 + np.pi, 0.08, 20)])
        modes = lc.heading_modes(h)
        assert len(modes) >= 2
        (c0, m0), (c1, m1) = modes[0], modes[1]
        gap = abs(wrap_angle(c0 - c1))
        assert gap > np.deg2rad(120)
        assert m0 >= 0.5 and m1 >= 0.3

    def test_unimodal_single_dominant(self):
        rng = np.random.default_rng(1)
        modes = lc.heading_modes(rng.normal(-1.0, 0.05, 50))
        assert modes[0][1] > 0.9
        assert all(m[1] < 0.1 for m in modes[1:])

    def test_seam_lobe_not_split(self):
        rng = np.random.default_rng(2)
        h = wrap_angle(rng.normal(np.pi, 0.05, 40))
        modes = lc.heading_modes(h)
        # one lobe at the seam: a single mode holds nearly everything
        assert modes[0][1] > 0.9

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            lc.heading_modes(np.array([]))


def random_psd(rng, n=3, scale=1.0):
    a = rng.normal(size=(n, n))
    return a @ a.T * scale + np.eye(n) * 1e-6


class TestEkf:
    def test_predict_pure_forward_at_heading(self):
        st = lc.EkfState(np.array([1.0, 2.0, np.pi / 2]), np.eye(3) * 0.01)
        out = lc.ekf_predict(st, lc.OdometryStep(0.5, 0.0, 0.0))
        np.testing.assert_allclose(out.mean, [1.0, 2.5, np.pi / 2], atol=1e-12)

    def test_predict_covariance_formula(self):
        rng = np.random.default_rng(0)
        st = lc.EkfState(np.array([0.3, -0.1, 0.7]), random_psd(rng, scale=0.1))
        od = lc.OdometryStep(0.2, 0.05, 0.1, noise=np.array([1e-4, 1e-4, 1e-5]))
        out = lc.ekf_predict(st, od)
        c, s = np.cos(0.7), np.sin(0.7)
        F = np.array([[1, 0, -s * 0.2 - c * 0.05],
                      [0, 1, c * 0.2 - s * 0.05],
                      [0, 0, 1]])
        want = F @ st.cov @ F.T + np.diag(od.noise)
        np.testing.assert_allclose(out.cov, want, atol=1e-12)

    def test_prediction_chain_matches_se2_composition(self):
        rng = np.random.default_rng(1)
        st = lc.EkfState(np.zeros(3), np.eye(3) * 1e-6)
        x = np.zeros(3)
        for _ in range(25):
            od = lc.OdometryStep(*rng.uniform(-0.2, 0.2, 3))
            st = lc.ekf_predict(st, od)
            c, s = np.cos(x[2]), np.sin(x[2])
            x = np.array([x[0] + c * od.d_forward - s * od.d_lateral,
                          x[1] + s * od.d_forward + c * od.d_lateral,
                          wrap_angle(x[2] + od.d_theta)])
        np.testing.assert_allclose(st.mean, x, atol=1e-9)

    def test_update_zero_r_returns_measurement(self):
        st = lc.EkfState(np.array([0.0, 0.0, 0.5]), np.eye(3) * 0.2)
        meas = np.array([1.0, -1.0, 0.9])
        out = lc.ekf_update(st, meas, np.zeros((3, 3)))
        np.testing.assert_allclose(out.mean, meas, atol=1e-9)

    def test_update_huge_r_keeps_prediction(self):
        rng = np.random.default_rng(2)
        st = lc.EkfState(np.array([0.2, 0.4, -0.3]), random_psd(rng, scale=0.5))
        out = lc.ekf_update(st, np.array([5.0, -5.0, 1.0]), np.eye(3) * 1e12)
        assert np.linalg.norm(out.mean - st.mean) < 1e-6

    def test_scalar_closed_form_gain(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            P, R = rng.uniform(0.01, 5.0, 2)
            x, m = rng.uniform(-3, 3, 2)
            st = lc.EkfState(np.array([x, 0.0, 0.0]), np.diag([P, 0.5, 0.1]))
            out = lc.ekf_update(st, np.array([m, 0.0, 0.0]),
                                np.diag([R, 1.0, 1.0]))
            k = P / (P + R)
            np.testing.assert_allclose(out.mean[0], x + k * (m - x), atol=1e-12)
            np.testing.assert_allclose(out.cov[0, 0], (1 - k) * P, atol=1e-12)

    def test_update_never_raises_trace(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            st = lc.EkfState(rng.normal(size=3), random_psd(rng))
            out = lc.ekf_update(st, rng.normal(size=3), random_psd(rng))
            assert np.trace(out.cov) <= np.trace(st.cov) + 1e-12

    def test_heading_innovation_wraps(self):
        st = lc.EkfState(np.array([0.0, 0.0, np.pi - 0.05]), np.eye(3) * 0.1)
        out = lc.ekf_update(st, np.array([0.0, 0.0, -np.pi + 0.05]), np.eye(3) * 0.1)
        assert abs(abs(out.mean[2]) - np.pi) < 0.06  # stays at the seam

    def test_bad_measurement_covariance(self):
        st = lc.EkfState(np.zeros(3), np.eye(3))
        with pytest.raises(ConditioningError):
            lc.ekf_update(st, np.zeros(3), -np.eye(3))
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ConditioningError):
            lc.ekf_update(st, np.zeros(3), bad)

    def test_singular_innovation_covariance(self):
        # an exact prior and a one-sample posterior: P + R = 0
        st = lc.EkfState(np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(ConditioningError, match="innovation covariance is singular") as ei:
            lc.ekf_update(st, np.ones(3), np.zeros((3, 3)))
        assert "\n" not in str(ei.value)

    def test_state_validation(self):
        with pytest.raises(ConditioningError):
            lc.EkfState(np.zeros(3), -np.eye(3))
        with pytest.raises(DimensionError):
            lc.EkfState(np.zeros(2), np.eye(3))
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="EKF mean must be finite"):
                lc.EkfState(np.array([bad, 0.0, 0.0]), np.eye(3))
        with pytest.raises(DomainError):
            lc.OdometryStep(0.0, 0.0, 0.0, noise=np.array([-1.0, 0, 0]))
        with pytest.raises(DomainError):
            lc.OdometryStep(np.nan, 0.0, 0.0)

    def test_posterior_measurement_cov(self):
        rng = np.random.default_rng(5)
        s = np.column_stack([rng.normal(0, 0.1, 30), rng.normal(0, 0.2, 30),
                             rng.normal(1.0, 0.05, 30)])
        p = lc.summarize_samples(s, 3)
        mean, cov = lc.posterior_measurement(p)
        dev = s - mean
        dev[:, 2] = wrap_angle(dev[:, 2])
        np.testing.assert_allclose(cov, dev.T @ dev / 30, atol=1e-12)
        with pytest.raises(TrackingError):
            lc.posterior_measurement(lc.summarize_samples(np.zeros((2, 6)), 6))

    def test_fuse_composes_predict_and_update(self):
        rng = np.random.default_rng(6)
        st = lc.EkfState(np.array([0.1, 0.2, 0.3]), random_psd(rng, scale=0.05))
        od = lc.OdometryStep(0.1, 0.0, 0.05, noise=np.full(3, 1e-5))
        s = np.column_stack([rng.normal(0.25, 0.02, 20), rng.normal(0.2, 0.02, 20),
                             rng.normal(0.4, 0.01, 20)])
        post = lc.summarize_samples(s, 3)
        fused = lc.ekf_fuse(st, od, post)
        mean, cov = lc.posterior_measurement(post)
        want = lc.ekf_update(lc.ekf_predict(st, od), mean, cov)
        np.testing.assert_allclose(fused.mean, want.mean, atol=1e-12)
        np.testing.assert_allclose(fused.cov, want.cov, atol=1e-12)
