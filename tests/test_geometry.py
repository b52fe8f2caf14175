"""Geometry tests. Rotation matrices are checked against an independent
oracle (scipy), encodings against direct term-by-term re-evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from poseinn import geometry as geo
from poseinn import sampler as sp
from poseinn import scenegen as sg
from poseinn.errors import DimensionError, DomainError
from poseinn.model import ModelConfig, PoseRegressor


class TestWrapAngle:
    def test_basic(self):
        assert geo.wrap_angle(0.0) == 0.0
        assert geo.wrap_angle(np.pi) == -np.pi
        np.testing.assert_allclose(geo.wrap_angle(3 * np.pi / 2), -np.pi / 2)
        np.testing.assert_allclose(geo.wrap_angle(-3 * np.pi / 2), np.pi / 2)

    @given(st.floats(-50.0, 50.0))
    def test_range_and_equivalence(self, a):
        w = float(geo.wrap_angle(a))
        assert -np.pi <= w < np.pi
        np.testing.assert_allclose(np.sin(w), np.sin(a), atol=1e-9)
        np.testing.assert_allclose(np.cos(w), np.cos(a), atol=1e-9)

    def test_range_holds_next_to_odd_multiples_of_pi(self):
        # just below -pi, a + pi is a tiny negative number that np.mod rounds
        # up to 2 pi; the result is -pi, never +pi
        assert geo.wrap_angle(np.nextafter(-np.pi, -np.inf)) == -np.pi
        steps = np.arange(-40, 41)[:, None]
        a = np.concatenate([k * np.pi + steps * np.spacing(k * np.pi)
                            for k in (-5, -3, -1, 1, 3, 5)]).ravel()
        w = geo.wrap_angle(a)
        assert np.all((-np.pi <= w) & (w < np.pi))
        assert np.array_equal(geo.wrap_angle(w), w)  # idempotent on its outputs


class TestPose:
    def test_planar_invariant(self):
        p = geo.Pose(np.array([1.0, 2.0, 0.0]), np.array([0.5, 0.0, 0.0]), dim=3)
        np.testing.assert_array_equal(p.as_vector(), [1.0, 2.0, 0.5])
        with pytest.raises(DomainError):
            geo.Pose(np.array([1.0, 2.0, 0.3]), np.zeros(3), dim=3)
        with pytest.raises(DomainError):
            geo.Pose(np.zeros(3), np.array([0.0, 0.1, 0.0]), dim=3)

    def test_vector_roundtrip(self):
        v = np.random.default_rng(42).uniform(-1.0, 1.0, size=3)
        p = geo.Pose.from_vector(v, 3)
        np.testing.assert_allclose(p.as_vector(), v, atol=1e-15)

    def test_angle_wrapped_at_construction(self):
        p = geo.Pose(np.zeros(3), np.array([3 * np.pi, 0.0, 0.0]))
        np.testing.assert_allclose(p.euler[0], -np.pi)

    def test_bad_dim(self):
        # planar poses only: dim 6 is refused like any other width
        for dim in (4, 6):
            with pytest.raises(DimensionError, match="planar poses only"):
                geo.Pose(np.zeros(3), np.zeros(3), dim=dim)
        with pytest.raises(DimensionError, match="planar poses only"):
            geo.Pose.from_vector(np.zeros(6), 6)
        with pytest.raises(DimensionError):
            geo.Pose.from_vector(np.zeros(4), 3)


def euler_to_matrix(tz: float, tx: float, ty: float) -> np.ndarray:
    """Intrinsic Z-X-Y rotation Rz(tz) @ Rx(tx) @ Ry(ty); at zero tilt, the
    oracle for ``Pose.rotation``."""
    ca, sa = np.cos(tz), np.sin(tz)
    cb, sb = np.cos(tx), np.sin(tx)
    cc, sc = np.cos(ty), np.sin(ty)
    return np.array([
        [ca * cc - sa * sb * sc, -sa * cb, ca * sc + sa * sb * cc],
        [sa * cc + ca * sb * sc, ca * cb, sa * sc - ca * sb * cc],
        [-cb * sc, sb, cb * cc],
    ])


def oracle_rotation(pose: geo.Pose) -> np.ndarray:
    return euler_to_matrix(pose.euler[0], pose.euler[1], pose.euler[2])


class TestEuler:
    def test_identity(self):
        np.testing.assert_allclose(euler_to_matrix(0, 0, 0), np.eye(3), atol=1e-15)

    def test_z_quarter_turn(self):
        np.testing.assert_allclose(
            euler_to_matrix(np.pi / 2, 0, 0),
            [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)

    def test_axis_rotations_match_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tz, tx, ty = rng.uniform(-np.pi, np.pi, size=3)
            ours = euler_to_matrix(tz, tx, ty)
            ref = (Rotation.from_euler("z", tz) * Rotation.from_euler("x", tx)
                   * Rotation.from_euler("y", ty)).as_matrix()
            np.testing.assert_allclose(ours, ref, atol=1e-12)


class TestPlanarRotation:
    """``Pose.rotation`` is Rz(theta) written out. It equals the three-angle
    oracle at zero tilt in value; the two differ only in the signs of zero
    entries (the oracle's R[2, 0] is -0.0), which no rendered or filtered
    bit may see."""

    HEADINGS = np.concatenate([[np.pi, -np.pi, np.nextafter(np.pi, 0.0)],
                               np.arange(-16, 17) * (np.pi / 8),
                               np.random.default_rng(8).uniform(-4.0, 4.0, 200)])

    def test_equals_the_oracle_in_value(self):
        for h in self.HEADINGS:
            p = geo.Pose(np.zeros(3), np.array([h, 0.0, 0.0]))
            got, want = p.rotation(), oracle_rotation(p)
            assert got.shape == (3, 3) and got.dtype == np.float64
            assert np.array_equal(got, want), h
            assert got[2, 2] == 1.0 and not np.any(got[2, :2]) and not np.any(got[:2, 2])

    @pytest.mark.parametrize("symmetric", [False, True], ids=["walkthrough", "symmetric"])
    def test_render_and_frustum_bits_match_the_oracle(self, monkeypatch, symmetric):
        scene = (sg.generate_symmetric_scene(5) if symmetric
                 else sg.generate_scene(11, n_primitives=5))
        intr = sg.CameraIntrinsics(width=16, height=16)
        rng = np.random.default_rng(12)
        lo, hi = scene.bounds.lo + 0.3, scene.bounds.hi - 0.3
        poses = (sg.generate_trajectory(scene, "loop", 24) + sg.generate_trajectory(scene, "grid", 16)
                 + [geo.Pose(np.array([x, y, 0.0]), np.array([h, 0.0, 0.0]))
                    for x, y, h in zip(rng.uniform(lo[0], hi[0], 40), rng.uniform(lo[1], hi[1], 40),
                                       self.HEADINGS[:40])])
        cloud = sp.index_cloud(sg.export_point_cloud(scene, 4000, np.random.default_rng(2)))

        def run():
            # a pose that sees no point has delta nan, so deltas go by their bits
            n, delta = zip(*(sp._frustum_stats(p, intr, cloud) for p in poses))
            return (sg.render_batch(scene, intr, poses).view(np.uint64).copy(), list(n),
                    np.array(delta).view(np.uint64))

        images, n, delta = run()
        monkeypatch.setattr(geo.Pose, "rotation", oracle_rotation)
        images_oracle, n_oracle, delta_oracle = run()
        assert np.array_equal(images, images_oracle)
        assert n == n_oracle and np.array_equal(delta, delta_oracle)
        assert sum(k > 0 for k in n) > len(poses) // 2


class TestNormalize:
    """The one pose normaliser: PoseRegressor.normalize_vectors and its
    inverse denormalize_vectors."""

    BOUNDS = geo.Aabb(np.array([-2.0, -3.0, -1.0]), np.array([2.0, 3.0, 1.0]))

    def model(self):
        return PoseRegressor(ModelConfig(dim=3, image_hw=16, enc_L=1, blocks=1,
                                         hidden=4), self.BOUNDS)

    def test_center_maps_to_zero(self):
        v = np.append(self.BOUNDS.center[:2], 0.0)[None, :]
        np.testing.assert_array_equal(self.model().normalize_vectors(v), np.zeros((1, 3)))

    def test_corner_maps_to_ones(self):
        m = self.model()
        v = np.stack([np.append(self.BOUNDS.hi[:2], 0.0), np.append(self.BOUNDS.lo[:2], 0.0)])
        np.testing.assert_array_equal(m.normalize_vectors(v)[:, :2],
                                      [np.ones(2), -np.ones(2)])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        v = np.column_stack([rng.uniform(self.BOUNDS.lo[:2], self.BOUNDS.hi[:2], (200, 2)),
                             rng.uniform(-np.pi, np.pi, 200)])
        m = self.model()
        np.testing.assert_allclose(m.denormalize_vectors(m.normalize_vectors(v)), v,
                                   atol=1e-12)

    def test_planar_roundtrip(self):
        rng = np.random.default_rng(9)
        v = np.column_stack([rng.uniform(-2, 2, 100), rng.uniform(-3, 3, 100),
                             rng.uniform(-np.pi, np.pi, 100)])
        m = self.model()
        n = m.normalize_vectors(v)
        assert np.all(np.abs(n) <= 1.0)
        np.testing.assert_allclose(m.denormalize_vectors(n), v, atol=1e-12)

    def test_outside_bounds_raises(self):
        with pytest.raises(DomainError):
            self.model().normalize_vectors(np.array([[2.5, 0.0, 0.0]]))

    def test_marginal_overflow_clamped(self):
        n = self.model().normalize_vectors(np.array([[2.0 + 5e-7, 0.0, 0.0]]))
        assert n[0, 0] == 1.0

    def test_aabb_validation(self):
        with pytest.raises(DomainError):
            geo.Aabb(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_aabb_refuses_non_finite_corner(self, bad):
        # nan compares false with everything, so the ordering check alone
        # would let it through
        for corner in ("lo", "hi"):
            lo, hi = np.zeros(3), np.ones(3)
            {"lo": lo, "hi": hi}[corner][1] = bad
            with pytest.raises(DomainError, match="must be finite") as ei:
                geo.Aabb(lo, hi)
            assert "\n" not in str(ei.value)


class TestPositionalEncode:
    def test_zero_pose_pattern(self):
        enc = geo.positional_encode_batch(np.zeros((1, 6)), L=5)[0]
        assert enc.shape == (66,)
        np.testing.assert_array_equal(enc[:60:2], np.zeros(30))  # sines
        np.testing.assert_array_equal(enc[1:60:2], np.ones(30))  # cosines
        np.testing.assert_array_equal(enc[60:], np.zeros(6))

    def test_single_scalar_p1_L1(self):
        enc = geo.positional_encode_batch(np.array([[1.0]]), L=1)[0]
        np.testing.assert_allclose(enc, [0.0, -1.0, 1.0], atol=1e-12)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(42)
        for d in (3, 6):
            v = rng.uniform(-1.0, 1.0, size=d)
            enc = geo.positional_encode_batch(v[None, :], L=5)[0]
            assert enc.shape == (2 * d * 5 + d,)
            expected = []
            for p in v:
                for k in range(5):
                    expected.append(np.sin(2.0 ** k * np.pi * p))
                    expected.append(np.cos(2.0 ** k * np.pi * p))
            expected.extend(v)
            np.testing.assert_allclose(enc, expected, atol=1e-12)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=6))
    @settings(max_examples=50)
    def test_pairs_on_unit_circle(self, vals):
        enc = geo.positional_encode_batch(np.array([vals]), L=3)[0]
        d = len(vals)
        gamma = enc[:2 * d * 3].reshape(d, 3, 2)
        np.testing.assert_allclose(gamma[:, :, 0] ** 2 + gamma[:, :, 1] ** 2,
                                   np.ones((d, 3)), atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            geo.positional_encode_batch(np.array([[1.1, 0.0, 0.0]]), L=5)

    def test_rejects_bad_depth(self):
        with pytest.raises(DomainError):
            geo.positional_encode_batch(np.zeros((1, 3)), L=0)
