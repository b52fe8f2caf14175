"""Renderer and scene tests: analytic ray-sphere oracle at the image
center, bitwise rigid invariance on dyadic coordinates, binomial bounds on
the point-cloud allocation."""

import numpy as np
import pytest

from poseinn import scenegen as sg
from poseinn.errors import ConfigError, DomainError, GenerationError
from poseinn.geometry import Aabb, Pose, wrap_angle

BOUNDS = Aabb(np.array([-2.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0]))


def one_sphere_scene(center, radius=0.5, albedo=(0.8, 0.2, 0.1), bounds=BOUNDS) -> sg.Scene:
    return sg.Scene(bounds, (sg.Sphere(np.array(center, dtype=float), radius,
                                       np.array(albedo)),), np.array([0.04, 0.05, 0.08]))


def pose_at(x, y, heading, dim=3, z=0.0, pitch=0.0) -> Pose:
    if dim == 3:
        return Pose(np.array([x, y, 0.0]), np.array([heading, 0.0, 0.0]), dim=3)
    return Pose(np.array([x, y, z]), np.array([heading, pitch, 0.0]), dim=6)


class TestRender:
    def test_empty_frustum_uniform_background(self):
        scene = one_sphere_scene([-1.5, 0.0, 0.0])
        img = sg.render(scene, sg.CameraIntrinsics(16, 16), pose_at(0.0, 0.0, 0.0))
        np.testing.assert_array_equal(img, np.tile(scene.background, (16, 16, 1)))

    def test_center_pixel_analytic_sphere(self):
        # odd image side puts one pixel exactly on the optical axis
        scene = one_sphere_scene([1.5, 0.0, 0.0], radius=0.5)
        intr = sg.CameraIntrinsics(9, 9)
        img = sg.render(scene, intr, pose_at(0.0, 0.0, 0.0))
        # closed form: ray (1,0,0) hits at t = 1.5 - 0.5 = 1.0, normal (-1,0,0),
        # vertical light gives zero lambert, so shade = ambient / (1 + falloff*t)
        t_hit = 1.0
        shade = sg.AMBIENT / (1.0 + sg.DEPTH_FALLOFF * t_hit)
        np.testing.assert_allclose(img[4, 4], np.array([0.8, 0.2, 0.1]) * shade, atol=1e-12)
        np.testing.assert_array_equal(img[0, 0], scene.background)
        np.testing.assert_array_equal(img[8, 8], scene.background)

    def test_rigid_translation_bitwise(self):
        # dyadic coordinates + integer shift keep every float op exact
        prim = sg.Sphere(np.array([0.75, -0.25, 0.125]), 0.5, np.array([0.3, 0.6, 0.9]))
        box = sg.Box(np.array([-0.5, 0.5, 0.0]), np.array([0.25, 0.375, 0.25]),
                     np.array([0.9, 0.4, 0.1]))
        scene = sg.Scene(BOUNDS, (prim, box), np.array([0.04, 0.05, 0.08]))
        shift = np.array([3.0, -2.0, 1.0])
        scene2 = sg.Scene(
            Aabb(BOUNDS.lo + shift, BOUNDS.hi + shift),
            (sg.Sphere(prim.center + shift, prim.radius, prim.albedo),
             sg.Box(box.center + shift, box.half, box.albedo)),
            scene.background)
        intr = sg.CameraIntrinsics(16, 16)
        p1 = Pose(np.array([-1.5, 0.25, 0.0]), np.array([0.0, 0.0, 0.0]), dim=6)
        p2 = Pose(p1.position + shift, p1.euler, dim=6)
        np.testing.assert_array_equal(sg.render(scene, intr, p1), sg.render(scene2, intr, p2))

    def test_purity_and_range(self):
        scene = sg.generate_scene(3)
        intr = sg.CameraIntrinsics(16, 16)
        p = pose_at(0.0, 0.0, 0.7)
        a = sg.render(scene, intr, p)
        b = sg.render(scene, intr, p)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_millimeter_sensitivity(self):
        scene = sg.generate_scene(3)
        intr = sg.CameraIntrinsics(32, 32)
        # face a primitive so something is in view
        prim0 = scene.primitives[0].center
        p = pose_at(0.0, 0.0, float(np.arctan2(prim0[1], prim0[0])))
        q = pose_at(0.001, 0.0, float(np.arctan2(prim0[1], prim0[0])))
        a, b = sg.render(scene, intr, p), sg.render(scene, intr, q)
        assert np.mean((a - b) ** 2) > 0.0

    def test_pose_outside_bounds_rejected(self):
        scene = sg.generate_scene(1)
        with pytest.raises(DomainError):
            sg.render(scene, sg.CameraIntrinsics(16, 16), pose_at(5.0, 0.0, 0.0))

    def test_symmetric_scene_opposite_views_match(self):
        scene = sg.generate_symmetric_scene(7)
        intr = sg.CameraIntrinsics(16, 16)
        c = scene.bounds.center
        p = pose_at(0.4, -0.3, 0.9)
        q = pose_at(2 * c[0] - 0.4, 2 * c[1] + 0.3, 0.9 + np.pi)
        np.testing.assert_allclose(sg.render(scene, intr, p), sg.render(scene, intr, q),
                                   atol=1e-9)


class TestSceneValidation:
    def test_primitive_outside_bounds(self):
        with pytest.raises(DomainError):
            one_sphere_scene([1.9, 0.0, 0.0], radius=0.5)

    def test_needs_primitive(self):
        with pytest.raises(DomainError):
            sg.Scene(BOUNDS, (), np.array([0.0, 0.0, 0.0]))

    def test_bad_albedo(self):
        with pytest.raises(DomainError):
            sg.Sphere(np.zeros(3), 0.5, np.array([1.2, 0.0, 0.0]))

    def test_intrinsics_validation(self):
        with pytest.raises(sg.DimensionError):
            sg.CameraIntrinsics(4, 16)
        with pytest.raises(DomainError):
            sg.CameraIntrinsics(16, 16, hfov=3.5)

    def test_generated_scene_deterministic(self):
        a, b = sg.generate_scene(11), sg.generate_scene(11)
        assert len(a.primitives) == len(b.primitives)
        for pa, pb in zip(a.primitives, b.primitives):
            np.testing.assert_array_equal(pa.center, pb.center)


class TestPointCloud:
    def test_single_sphere_on_surface(self):
        scene = one_sphere_scene([0.0, 0.0, 0.0], radius=0.9)
        pts = sg.export_point_cloud(scene, 500, np.random.default_rng(0))
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 0.9, atol=1e-9)

    def test_area_ratio_binomial(self):
        big = sg.Sphere(np.array([-1.0, 0.0, 0.0]), 0.8, np.array([0.5, 0.5, 0.5]))
        small = sg.Sphere(np.array([1.0, 0.0, 0.0]), 0.4, np.array([0.5, 0.5, 0.5]))
        scene = sg.Scene(BOUNDS, (big, small), np.array([0.0, 0.0, 0.0]))
        n = 5000
        pts = sg.export_point_cloud(scene, n, np.random.default_rng(42))
        assert len(pts) == n
        n_big = int(np.sum(np.linalg.norm(pts - big.center, axis=1) < 0.8 + 1e-6))
        p = 0.8  # area ratio 4:1
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(n_big - n * p) <= 3 * sigma

    def test_box_points_on_surface(self):
        box = sg.Box(np.array([0.0, 0.0, 0.0]), np.array([0.5, 0.3, 0.2]),
                     np.array([0.5, 0.5, 0.5]))
        scene = sg.Scene(BOUNDS, (box,), np.array([0.0, 0.0, 0.0]))
        pts = sg.export_point_cloud(scene, 400, np.random.default_rng(1))
        rel = np.abs(pts - box.center)
        assert np.all(rel <= box.half + 1e-9)
        on_face = np.min(np.abs(rel - box.half), axis=1)
        np.testing.assert_allclose(on_face, 0.0, atol=1e-9)

    def test_deterministic(self):
        scene = sg.generate_scene(5)
        a = sg.export_point_cloud(scene, 100, np.random.default_rng(9))
        b = sg.export_point_cloud(scene, 100, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_bad_count(self):
        with pytest.raises(DomainError):
            sg.export_point_cloud(sg.generate_scene(1), 0, np.random.default_rng(0))


class TestTrajectory:
    def test_loop_circle_tangent(self):
        scene = sg.generate_scene(4)  # primitives hug the walls; center is free
        poses = sg.generate_trajectory(scene, "loop", 8)
        assert len(poses) == 8
        c = scene.bounds.center
        radii = [np.hypot(p.position[0] - c[0], p.position[1] - c[1]) for p in poses]
        np.testing.assert_allclose(radii, radii[0], rtol=1e-9)
        for i, p in enumerate(poses):
            phi = 2 * np.pi * i / 8
            np.testing.assert_allclose(p.euler[0], wrap_angle(phi + np.pi / 2), atol=1e-12)

    def test_positions_collision_free_and_inside(self):
        scene = sg.generate_scene(6)
        for style, k in (("loop", 12), ("grid", 9)):
            for p in sg.generate_trajectory(scene, style, k):
                assert not scene.position_collides(p.position)
                assert scene.bounds.contains(p.position)

    def test_grid_coverage_gap(self):
        scene = one_sphere_scene([1.5, 1.5, 0.0], radius=0.3)
        k = 16
        poses = sg.generate_trajectory(scene, "grid", k)
        pts = np.array([p.position[:2] for p in poses])
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        max_gap = d.min(axis=1).max()
        diag = np.linalg.norm(scene.bounds.hi - scene.bounds.lo)
        assert max_gap < diag / np.sqrt(k)

    def test_se3_trajectory(self):
        scene = sg.generate_scene(2)
        poses = sg.generate_trajectory(scene, "loop", 10, dim=6)
        assert all(p.dim == 6 for p in poses)
        assert any(abs(p.position[2]) > 1e-6 for p in poses)

    def test_impossible_placement(self):
        bounds = Aabb(np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))
        blocker = sg.Sphere(np.zeros(3), 0.999, np.array([0.5, 0.5, 0.5]))
        scene = sg.Scene(bounds, (blocker,), np.array([0.0, 0.0, 0.0]))
        with pytest.raises(GenerationError):
            sg.generate_trajectory(scene, "loop", 8)

    def test_bad_style_and_k(self):
        scene = sg.generate_scene(1)
        with pytest.raises(ConfigError):
            sg.generate_trajectory(scene, "spiral", 8)
        with pytest.raises(DomainError):
            sg.generate_trajectory(scene, "loop", 1)

    def test_explicit_loop_factor_sets_radius(self):
        scene = sg.generate_scene(4)  # inner rings clear; 0.55 ring collides
        c = scene.bounds.center
        for factor in (0.3, 0.45):
            poses = sg.generate_trajectory(scene, "loop", 8, loop_factor=factor)
            radii = [np.hypot(p.position[0] - c[0], p.position[1] - c[1]) for p in poses]
            np.testing.assert_allclose(radii, factor * scene.bounds.half[0], rtol=1e-9)

    def test_distinct_factors_give_disjoint_rings(self):
        scene = sg.generate_scene(4)
        a = sg.generate_trajectory(scene, "loop", 20, loop_factor=0.45)
        b = sg.generate_trajectory(scene, "loop", 20, loop_factor=0.3)
        pa = np.array([p.position[:2] for p in a])
        pb = np.array([p.position[:2] for p in b])
        gap = np.min(np.linalg.norm(pa[:, None] - pb[None, :], axis=2))
        assert gap > 0.25  # rings 0.3 m apart in radius

    def test_bad_loop_factor(self):
        scene = sg.generate_scene(4)
        with pytest.raises(DomainError):
            sg.generate_trajectory(scene, "loop", 8, loop_factor=1.5)
        # a factor that collides with wall-hugging primitives fails loudly
        blocker = sg.Sphere(np.array([1.1, 0.0, 0.0]), 0.2, np.array([0.5, 0.5, 0.5]))
        bounds = Aabb(np.array([-2.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0]))
        scene2 = sg.Scene(bounds, (blocker,), np.zeros(3))
        with pytest.raises(GenerationError):
            sg.generate_trajectory(scene2, "loop", 64, loop_factor=0.55)


class TestSceneFile:
    def test_roundtrip_exact(self, tmp_path):
        scene = sg.generate_scene(13)
        path = tmp_path / "scene.txt"
        sg.save_scene(scene, path)
        loaded = sg.load_scene(path)
        assert len(loaded.primitives) == len(scene.primitives)
        for a, b in zip(scene.primitives, loaded.primitives):
            assert type(a) is type(b)
            np.testing.assert_array_equal(a.center, b.center)
            np.testing.assert_array_equal(a.albedo, b.albedo)
        np.testing.assert_array_equal(loaded.bounds.lo, scene.bounds.lo)
        # identical render proves full fidelity
        intr = sg.CameraIntrinsics(9, 9)
        p = pose_at(0.1, -0.2, 1.2)
        np.testing.assert_array_equal(sg.render(scene, intr, p), sg.render(loaded, intr, p))

    def test_unknown_key_rejected(self, tmp_path):
        scene = sg.generate_scene(1, n_primitives=1)
        path = tmp_path / "scene.txt"
        sg.save_scene(scene, path)
        path.write_text(path.read_text() + "mystery = 1\n")
        with pytest.raises(ConfigError):
            sg.load_scene(path)

    def test_bad_version(self, tmp_path):
        scene = sg.generate_scene(1, n_primitives=1)
        path = tmp_path / "scene.txt"
        sg.save_scene(scene, path)
        path.write_text(path.read_text().replace("version = 1", "version = 9"))
        with pytest.raises(ConfigError):
            sg.load_scene(path)

    def test_malformed_primitive(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("type = scene\nversion = 1\nseed = 0\n"
                        "bounds_lo = -1 -1 -1\nbounds_hi = 1 1 1\n"
                        "background = 0 0 0\nprimitive_count = 1\n"
                        "prim0 = cone 0 0 0 1 0.5 0.5 0.5\n")
        with pytest.raises(ConfigError):
            sg.load_scene(path)
