"""Renderer and scene tests: analytic ray-sphere oracle at the image
center, bitwise rigid invariance on dyadic coordinates, the batched
renderer bitwise against a per-pose oracle, binomial bounds on the
point-cloud allocation."""

import re

import numpy as np
import pytest

from poseinn import scenegen as sg
from poseinn.errors import ConfigError, DimensionError, DomainError, GenerationError
from poseinn.geometry import Aabb, Pose, squared_norms, wrap_angle

BOUNDS = Aabb(np.array([-2.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0]))
# a scene file's keys before its primitive lines
SCENE_HEAD = ("type = scene\nversion = 1\nseed = 0\nbounds_lo = -1 -1 -1\n"
              "bounds_hi = 1 1 1\nbackground = 0 0 0\n")


def one_sphere_scene(center, radius=0.5, albedo=(0.8, 0.2, 0.1), bounds=BOUNDS) -> sg.Scene:
    return sg.Scene(bounds, (sg.Sphere(np.array(center, dtype=float), radius,
                                       np.array(albedo)),), np.array([0.04, 0.05, 0.08]))


def pose_at(x, y, heading) -> Pose:
    return Pose(np.array([x, y, 0.0]), np.array([heading, 0.0, 0.0]))


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
        shift = np.array([3.0, -2.0, 0.0])  # planar poses keep z = 0
        scene2 = sg.Scene(
            Aabb(BOUNDS.lo + shift, BOUNDS.hi + shift),
            (sg.Sphere(prim.center + shift, prim.radius, prim.albedo),
             sg.Box(box.center + shift, box.half, box.albedo)),
            scene.background)
        intr = sg.CameraIntrinsics(16, 16)
        p1 = Pose(np.array([-1.5, 0.25, 0.0]), np.array([0.0, 0.0, 0.0]))
        p2 = Pose(p1.position + shift, p1.euler)
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


def render_one(scene, intr, pose):
    """Per-pose raycast with numpy's row reductions: the renderer as it was
    before batching, kept as the bitwise oracle of ``render_batch``."""
    origin = pose.position
    flat = ray_dirs(intr, pose.rotation())
    unit = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    best_t = np.full(len(unit), np.inf)
    best_prim = np.full(len(unit), -1, dtype=np.intp)
    for i, prim in enumerate(scene.primitives):
        if isinstance(prim, sg.Sphere):
            oc = origin - prim.center
            bb = unit @ oc
            disc = bb * bb - (oc @ oc - prim.radius ** 2)
            hit = disc >= 0.0
            sq = np.sqrt(np.where(hit, disc, 0.0))
            t = np.where(-bb - sq > 1e-9, -bb - sq, -bb + sq)
            t = np.where(hit & (t > 1e-9), t, np.inf)
        else:
            lo, hi = prim.center - prim.half, prim.center + prim.half
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = 1.0 / unit
                t1 = (lo[None, :] - origin[None, :]) * inv
                t2 = (hi[None, :] - origin[None, :]) * inv
            para = unit == 0.0
            inside = (origin >= lo) & (origin <= hi)
            t1 = np.where(para, -np.inf, t1)
            t2 = np.where(para, np.where(inside[None, :], np.inf, -np.inf), t2)
            tnear = np.max(np.minimum(t1, t2), axis=1)
            tfar = np.min(np.maximum(t1, t2), axis=1)
            hit = (tnear <= tfar) & (tfar > 1e-9)
            t = np.where(tnear > 1e-9, tnear, tfar)
            t = np.where(hit & (t > 1e-9), t, np.inf)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_prim[closer] = i
    img = np.tile(scene.background, (len(unit), 1))
    for i, prim in enumerate(scene.primitives):
        mask = best_prim == i
        if not np.any(mask):
            continue
        rel = (origin - prim.center)[None, :] + best_t[mask, None] * unit[mask]
        if isinstance(prim, sg.Sphere):
            n = rel / np.linalg.norm(rel, axis=1, keepdims=True)
        else:
            scaled = rel / prim.half
            axis = np.argmax(np.abs(scaled), axis=1)
            n = np.zeros_like(rel)
            n[np.arange(len(rel)), axis] = np.sign(scaled[np.arange(len(rel)), axis])
        lambert = np.maximum(0.0, n @ np.array([0.0, 0.0, 1.0]))  # the vertical light
        shade = (sg.AMBIENT + (1.0 - sg.AMBIENT) * lambert) / (1.0 + sg.DEPTH_FALLOFF * best_t[mask])
        img[mask] = prim.albedo[None, :] * shade[:, None]
    return img.reshape(intr.height, intr.width, 3)


def ray_dirs(intr, rot):
    """(H*W, 3) unnormalized ray directions, one image's worth."""
    w, h = intr.width, intr.height
    a = (2.0 * (np.arange(w) + 0.5) / w - 1.0) * np.tan(intr.hfov / 2.0)
    b = (2.0 * (np.arange(h) + 0.5) / h - 1.0) * np.tan(intr.hfov / 2.0) * (h / w)
    return (rot[:, 0][None, None, :] - a[None, :, None] * rot[:, 1][None, :]
            - b[:, None, None] * rot[:, 2][None, :]).reshape(-1, 3)


def random_poses(scene, k, rng, axis_headings=False):
    """k collision-free poses; with axis_headings every other one looks
    along a world axis, so some rays have components of exactly 0."""
    poses = []
    while len(poses) < k:
        x, y = rng.uniform(scene.bounds.lo[:2], scene.bounds.hi[:2])
        if scene.position_collides(np.array([x, y, 0.0])):
            continue
        heading = (0.0 if axis_headings and len(poses) % 2 == 0
                   else rng.uniform(-np.pi, np.pi))
        poses.append(pose_at(x, y, heading))
    return poses


def mixed_scale(rng, shape):
    """Normal draws scaled by 10**u, u uniform in [-8, 8] per entry."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)


def association_split(rng, n):
    """Triples of squares whose two sum orders differ: (x*x + y*y) + z*z,
    numpy's order, against x*x + (y*y + z*z)."""
    v = mixed_scale(rng, (n, 3))
    sq = v * v
    left = (sq[:, 0] + sq[:, 1]) + sq[:, 2]
    right = sq[:, 0] + (sq[:, 1] + sq[:, 2])
    differ = left != right
    return v[differ], left[differ], right[differ]


BIG = Aabb(np.full(3, -10.0), np.full(3, 10.0))
GREY = np.full(3, 0.5)


def intersected(monkeypatch):
    """(primitive, frame count) of every _intersect_sphere and
    _intersect_box call made from now on."""
    calls = []

    def counting(fn):
        def wrapped(origins, *args):
            calls.append((args[-1], len(origins)))
            return fn(origins, *args)
        return wrapped

    monkeypatch.setattr(sg, "_intersect_sphere", counting(sg._intersect_sphere))
    monkeypatch.setattr(sg, "_intersect_box", counting(sg._intersect_box))
    return calls


def frames_of(calls, prim):
    return sum(n for p, n in calls if p is prim)


def bounding_radius(prim):
    return prim.radius if isinstance(prim, sg.Sphere) else float(np.linalg.norm(prim.half))


def slack(origin, prim):
    """The cull's slack in metres for one camera and primitive."""
    return sg.CULL_SLACK * (np.abs(origin).max() + np.abs(prim.center).max()
                            + bounding_radius(prim))


def pyramid_faces(pose, intr):
    """Face name -> (outward unit normal, unit direction along the face's
    middle line, on the inner side of every other face), for the view
    pyramid with its apex at the camera; the depth face, which meets the
    pyramid only at the camera, gets a zero direction."""
    rot = pose.rotation()
    f, left, up = rot[:, 0], rot[:, 1], rot[:, 2]
    tan_h = np.tan(intr.hfov / 2.0)
    tan_v = tan_h * intr.height / intr.width
    faces = {"depth": (-f, np.zeros(3)),
             "left": (left - tan_h * f, f + tan_h * left),
             "right": (-left - tan_h * f, f - tan_h * left),
             "top": (up - tan_v * f, f + tan_v * up),
             "bottom": (-up - tan_v * f, f - tan_v * up)}
    return {k: (n / np.linalg.norm(n), e / np.linalg.norm(e) if e.any() else e)
            for k, (n, e) in faces.items()}


def culled_oracle(pose, intr, prim):
    """Whether the primitive's bounding sphere lies outside a face of the
    view pyramid by more than the slack, face by face in metres."""
    rel = prim.center - pose.position
    reach = bounding_radius(prim) + slack(pose.position, prim)
    return any(rel @ n > reach for n, _ in pyramid_faces(pose, intr).values())


CULL_INTRINSICS = [sg.CameraIntrinsics(16, 16), sg.CameraIntrinsics(16, 16, 0.2),
                   sg.CameraIntrinsics(16, 16, 3.0), sg.CameraIntrinsics(20, 9, 1.2),
                   sg.CameraIntrinsics(9, 20, 1.2)]


class TestRenderBatch:
    @pytest.mark.parametrize("k", [1, sg.CHUNK - 1, sg.CHUNK, sg.CHUNK + 1, 2 * sg.CHUNK + 3])
    def test_bitwise_per_pose_oracle(self, monkeypatch, k):
        scene = sg.generate_scene(3)
        intr = sg.CameraIntrinsics(16, 12)
        poses = random_poses(scene, k, np.random.default_rng(k))
        calls = intersected(monkeypatch)
        images = sg.render_batch(scene, intr, poses)
        assert images.shape == (k, 12, 16, 3) and images.flags.c_contiguous
        for pose, image in zip(poses, images):
            assert image.tobytes() == render_one(scene, intr, pose).tobytes()
        # each primitive is intersected with exactly the frames it is not
        # culled from, and both kinds of pair occur
        kept = [sum(not culled_oracle(pose, intr, prim) for pose in poses)
                for prim in scene.primitives]
        assert [frames_of(calls, prim) for prim in scene.primitives] == kept
        assert 0 < sum(kept) < k * len(scene.primitives) or k == 1

    def test_slab_parallel_rays_odd_width(self):
        scene = sg.generate_scene(4)
        intr = sg.CameraIntrinsics(9, 9)
        poses = random_poses(scene, sg.CHUNK + 5, np.random.default_rng(9), axis_headings=True)
        rots = np.array([p.rotation() for p in poses])
        assert np.any(sg._unit_rays(intr, rots) == 0.0)
        assert any(isinstance(prim, sg.Box) for prim in scene.primitives)
        for pose, image in zip(poses, sg.render_batch(scene, intr, poses)):
            assert image.tobytes() == render_one(scene, intr, pose).tobytes()

    def test_symmetric_scene(self):
        scene = sg.generate_symmetric_scene(5)
        intr = sg.CameraIntrinsics(32, 32)
        poses = random_poses(scene, sg.CHUNK + 2, np.random.default_rng(5), axis_headings=True)
        for pose, image in zip(poses, sg.render_batch(scene, intr, poses)):
            assert image.tobytes() == render_one(scene, intr, pose).tobytes()

    def test_render_is_a_batch_of_one(self):
        scene = sg.generate_scene(2)
        intr = sg.CameraIntrinsics(32, 32)
        for pose in random_poses(scene, 6, np.random.default_rng(2), axis_headings=True):
            assert sg.render(scene, intr, pose).tobytes() == render_one(scene, intr, pose).tobytes()

    def test_empty_batch(self):
        images = sg.render_batch(sg.generate_scene(1), sg.CameraIntrinsics(8, 8), [])
        assert images.shape == (0, 8, 8, 3)

    def test_pose_outside_bounds_mid_batch(self):
        scene = sg.generate_scene(1)
        poses = random_poses(scene, 2 * sg.CHUNK, np.random.default_rng(1))
        bad = pose_at(5.0, 0.0, 0.0)
        poses.insert(sg.CHUNK + 3, bad)
        msg = f"camera position {bad.position} outside scene bounds"
        with pytest.raises(DomainError, match=re.escape(msg)):
            sg.render_batch(scene, sg.CameraIntrinsics(16, 16), poses)

    def test_ray_norms_at_mixed_scales(self):
        v, left, _ = association_split(np.random.default_rng(6), 100_000)
        assert len(v) > 1000
        got = squared_norms(v)
        assert got.tobytes() == left.tobytes()
        assert got.tobytes() == np.add.reduce(v * v, axis=1).tobytes()
        assert np.sqrt(got).tobytes() == np.linalg.norm(v, axis=1).tobytes()

    def test_unit_rays_match_linalg_norm(self):
        rng = np.random.default_rng(8)
        intr = sg.CameraIntrinsics(15, 11)
        rots = np.array([Pose(np.zeros(3), np.array([h, 0.0, 0.0])).rotation()
                         for h in rng.uniform(-np.pi, np.pi, 40)])
        for rot, unit in zip(rots, sg._unit_rays(intr, rots).transpose(1, 2, 0)):
            dirs = ray_dirs(intr, rot)
            want = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            assert unit.tobytes() == want.tobytes()


class TestCull:
    """The per-frame primitive cull: images bitwise as the per-pose oracle
    renders them testing every ray, and a primitive is intersected exactly
    with the frames whose view pyramid its bounding sphere may reach."""

    CAMERA = (0.25, -0.5)

    @staticmethod
    def anchor(pose):
        """A sphere 3 m ahead that every view sees."""
        return sg.Sphere(pose.position + 3.0 * pose.rotation()[:, 0], 0.4, np.array([0.2, 0.7, 0.3]))

    @staticmethod
    def assert_oracle(scene, intr, poses):
        for pose, image in zip(poses, sg.render_batch(scene, intr, poses)):
            assert image.tobytes() == render_one(scene, intr, pose).tobytes()

    @pytest.mark.parametrize("intr", CULL_INTRINSICS,
                             ids=["90deg", "hfov0.2", "hfov3.0", "wide", "tall"])
    @pytest.mark.parametrize("heading", [0.0, 2.1])
    @pytest.mark.parametrize("kind", ["sphere", "box"])
    def test_face_slack(self, monkeypatch, intr, heading, kind):
        # a primitive placed outside one face by s: culled only when s is more
        # than the slack; inside, or outside by less, it is intersected
        pose = pose_at(*self.CAMERA, heading)
        half = np.array([0.2, 0.15, 0.25])
        radius = 0.3 if kind == "sphere" else float(np.linalg.norm(half))
        calls = intersected(monkeypatch)
        for face, (normal, edge) in pyramid_faces(pose, intr).items():
            base = pose.position + 2.0 * edge + radius * normal
            m = sg.CULL_SLACK * (np.abs(pose.position).max() + np.abs(base).max() + radius)
            for s in (-2.0 * m, -0.5 * m, 0.5 * m, 2.0 * m):
                center = base + s * normal
                prim = (sg.Sphere(center, radius, GREY) if kind == "sphere"
                        else sg.Box(center, half, GREY))
                scene = sg.Scene(BIG, (self.anchor(pose), prim), np.zeros(3))
                del calls[:]
                self.assert_oracle(scene, intr, [pose])
                assert frames_of(calls, prim) == (0 if s > m else 1), (face, s / m)
                assert frames_of(calls, scene.primitives[0]) == 1

    def test_bounding_sphere_containing_camera(self, monkeypatch):
        pose = pose_at(*self.CAMERA, 0.7)
        f = pose.rotation()[:, 0]
        # the camera sits inside the sphere: every ray hits it from inside
        inside = sg.Sphere(pose.position + np.array([0.1, 0.05, 0.0]), 0.5, GREY)
        # the box lies wholly behind the camera, 0.15 m from it, but its
        # bounding sphere (radius 0.52) contains the camera
        behind = sg.Box(pose.position - 0.45 * f, np.full(3, 0.3), np.array([0.9, 0.1, 0.1]))
        assert not behind.contains(*pose.position)
        assert np.linalg.norm(behind.center - pose.position) < bounding_radius(behind)
        calls = intersected(monkeypatch)
        for prims in ((inside,), (self.anchor(pose), behind)):
            scene = sg.Scene(BIG, prims, np.zeros(3))
            del calls[:]
            self.assert_oracle(scene, CULL_INTRINSICS[0], [pose])
            assert [n for _, n in calls] == [1] * len(prims)
        image = sg.render(sg.Scene(BIG, (inside,), np.zeros(3)), CULL_INTRINSICS[0], pose)
        assert not np.any(np.all(image == 0.0, axis=-1))

    def test_primitive_behind_camera(self, monkeypatch):
        pose = pose_at(*self.CAMERA, -1.2)
        f = pose.rotation()[:, 0]
        hidden = (sg.Sphere(pose.position - 3.0 * f, 0.5, GREY),
                  sg.Box(pose.position - 2.0 * f + np.array([0.0, 0.0, 0.5]), np.full(3, 0.4), GREY))
        scene = sg.Scene(BIG, (self.anchor(pose),) + hidden, np.zeros(3))
        calls = intersected(monkeypatch)
        for intr in CULL_INTRINSICS:
            del calls[:]
            self.assert_oracle(scene, intr, [pose])
            assert [p for p, _ in calls] == [scene.primitives[0]]

    def test_chunk_that_sees_nothing(self, monkeypatch):
        scene = sg.Scene(BIG, (sg.Sphere(np.array([5.0, 0.0, 0.0]), 0.5, GREY),), np.zeros(3))
        rng = np.random.default_rng(4)
        poses = [pose_at(x, y, np.pi + h) for x, y, h in zip(
            rng.uniform(-5.0, 0.0, sg.CHUNK + 3), rng.uniform(-3.0, 3.0, sg.CHUNK + 3),
            rng.uniform(-0.3, 0.3, sg.CHUNK + 3))]
        calls = intersected(monkeypatch)
        rays = []
        unit_rays = sg._unit_rays
        monkeypatch.setattr(sg, "_unit_rays", lambda intr, rots: rays.append(len(rots))
                            or unit_rays(intr, rots))
        intr = sg.CameraIntrinsics(16, 16)
        images = sg.render_batch(scene, intr, poses)
        assert calls == [] and rays == []
        assert np.all(images == 0.0)
        for pose, image in zip(poses, images):
            assert image.tobytes() == render_one(scene, intr, pose).tobytes()

    def test_hidden_primitive_never_intersected(self, monkeypatch):
        # the README walkthrough's scene and training loop, plus a box that
        # no camera on the loop can see: it sits below every view pyramid
        base = sg.generate_scene(11)
        hidden = sg.Box(np.array([0.0, 0.0, -0.95]), np.array([0.05, 0.05, 0.05]), GREY)
        scene = sg.Scene(base.bounds, base.primitives + (hidden,), base.background)
        poses = sg.generate_trajectory(base, "loop", 200, 3, loop_factor=0.35)
        intr = sg.CameraIntrinsics(32, 32)
        calls = intersected(monkeypatch)
        images = sg.render_batch(scene, intr, poses)
        assert frames_of(calls, hidden) == 0
        # most (primitive, frame) pairs are culled, and every other pair is
        # intersected once
        kept = [sum(not culled_oracle(pose, intr, prim) for pose in poses)
                for prim in base.primitives]
        assert [frames_of(calls, prim) for prim in base.primitives] == kept
        assert sum(kept) < 0.5 * len(poses) * len(base.primitives)
        assert images.tobytes() == sg.render_batch(base, intr, poses).tobytes()
        for i in range(0, len(poses), 25):
            assert images[i].tobytes() == render_one(scene, intr, poses[i]).tobytes()

    def test_slab_parallel_ray_beside_box(self):
        # heading 0 at an odd width: the middle column's rays have y = 0
        # exactly; the box's y slab [0.7, 1.3] excludes the camera's y = 0,
        # so those rays pass beside it, while columns to the left see it
        box = sg.Box(np.array([1.4, 1.0, 0.0]), np.array([0.4, 0.3, 0.5]), np.array([0.9, 0.4, 0.1]))
        scene = sg.Scene(BOUNDS, (box,), np.array([0.04, 0.05, 0.08]))
        intr = sg.CameraIntrinsics(9, 9)
        pose = pose_at(0.0, 0.0, 0.0)
        unit = sg._unit_rays(intr, pose.rotation()[None])[:, 0].reshape(3, 9, 9)
        assert np.all(unit[1, :, 4] == 0.0)
        for image in (sg.render(scene, intr, pose), render_one(scene, intr, pose)):
            np.testing.assert_array_equal(image[:, 4], np.tile(scene.background, (9, 1)))
            assert np.any(np.all(image[:, :4] != scene.background, axis=-1))


class TestPositionCollides:
    @staticmethod
    def collides_old(scene, p):
        p = np.asarray(p, dtype=np.float64)
        return any(bool(np.sum((p - prim.center) ** 2) < prim.radius ** 2)
                   if isinstance(prim, sg.Sphere)
                   else bool(np.all(np.abs(p - prim.center) < prim.half))
                   for prim in scene.primitives)

    def test_sphere_boundary_at_mixed_scales(self):
        # each radius squares to the larger of the two sum orders of the
        # point's offset, so the answer flips if they are summed the other way
        rng = np.random.default_rng(10)
        big = Aabb(np.full(3, -1e30), np.full(3, 1e30))
        checked = 0
        for center, d in zip(mixed_scale(rng, (3000, 3)), mixed_scale(rng, (3000, 3))):
            p = center + d
            sq = (p - center) ** 2
            left, right = (sq[0] + sq[1]) + sq[2], sq[0] + (sq[1] + sq[2])
            r = float(np.sqrt(max(left, right)))
            if left == right or r ** 2 != max(left, right):
                continue
            scene = sg.Scene(big, (sg.Sphere(center, r, np.full(3, 0.5)),), np.zeros(3))
            inside = bool(left < right)  # numpy's order decides: left < r**2
            assert self.collides_old(scene, p) == inside
            assert scene.position_collides(p) == inside
            checked += 1
        assert checked > 100

    def test_random_points_at_mixed_scales(self):
        rng = np.random.default_rng(11)
        big = Aabb(np.full(3, -1e30), np.full(3, 1e30))
        agree = hits = 0
        for _ in range(300):
            prims = []
            for _ in range(3):
                c, scale = mixed_scale(rng, 3), 10.0 ** rng.uniform(-8, 8)
                prims.append(sg.Sphere(c, scale * rng.uniform(0.1, 2.0), np.full(3, 0.5)))
                prims.append(sg.Box(c + mixed_scale(rng, 3), scale * rng.uniform(0.1, 2.0, 3),
                                    np.full(3, 0.5)))
            scene = sg.Scene(big, tuple(prims), np.zeros(3))
            for prim in prims:
                size = prim.radius if isinstance(prim, sg.Sphere) else float(prim.half.max())
                for p in prim.center + size * rng.uniform(-1.5, 1.5, size=(10, 3)):
                    old = self.collides_old(scene, p)
                    assert scene.position_collides(p) == old
                    agree += 1
                    hits += old
        assert 0.2 < hits / agree < 0.9

    def test_list_and_nan_points(self):
        scene = sg.generate_scene(1)
        prim = scene.primitives[0]
        assert scene.position_collides(list(prim.center))
        assert not scene.position_collides([np.nan, 0.0, 0.0])


class TestSceneValidation:
    def test_primitive_outside_bounds(self):
        with pytest.raises(DomainError):
            one_sphere_scene([1.9, 0.0, 0.0], radius=0.5)

    def test_box_must_contain_camera_height(self):
        # planar cameras sit at z = 0, so a box above or below it is refused
        for lo, hi in ((1.0, 3.0), (-3.0, -0.5)):
            bounds = Aabb(np.array([-2.0, -2.0, lo]), np.array([2.0, 2.0, hi]))
            with pytest.raises(DomainError, match="camera height z = 0"):
                sg.generate_scene(1, bounds)
        floor = Aabb(np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0]))
        sg.Scene(floor, (sg.Sphere(np.array([1.0, 1.0, 1.0]), 0.5, np.ones(3)),), np.zeros(3))

    def test_needs_primitive(self):
        with pytest.raises(DomainError):
            sg.Scene(BOUNDS, (), np.array([0.0, 0.0, 0.0]))

    def test_bad_albedo(self):
        with pytest.raises(DomainError):
            sg.Sphere(np.zeros(3), 0.5, np.array([1.2, 0.0, 0.0]))

    # every comparison with NaN is false, so each check is written to fail on it
    @pytest.mark.parametrize("make, why", [
        (lambda: sg.Sphere(np.array([np.nan, 0.0, 0.0]), 0.3, np.ones(3)),
         "sphere center must be finite"),
        (lambda: sg.Sphere(np.zeros(3), np.nan, np.ones(3)), "sphere radius must be positive"),
        (lambda: sg.Box(np.zeros(3), np.array([0.2, np.nan, 0.2]), np.ones(3)),
         "box center and half-extents must be finite"),
        (lambda: sg.Box(np.zeros(3), np.full(3, 0.2), np.array([0.5, np.nan, 0.5])),
         "albedo must be 3 values in"),
    ], ids=["sphere_center", "sphere_radius", "box_half", "box_albedo"])
    def test_nan_primitive_refused(self, make, why):
        with pytest.raises(DomainError, match=re.escape(why)):
            make()

    def test_intrinsics_validation(self):
        with pytest.raises(sg.DimensionError):
            sg.CameraIntrinsics(4, 16)
        with pytest.raises(DomainError):
            sg.CameraIntrinsics(16, 16, hfov=3.5)

    @pytest.mark.parametrize("dims", [(32.5, 32), (32, 32.0), (True, 32), ("32", 32)])
    def test_intrinsics_refuse_non_integer_sides(self, dims):
        # 32.5 used to pass here and fail in render_batch with a bare TypeError
        with pytest.raises(DimensionError, match="image dims must be integers >= 8"):
            sg.CameraIntrinsics(*dims)
        assert sg.CameraIntrinsics(np.int64(9), np.int32(11)).width == 9

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

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_non_integer_count_refused(self, n):
        # 2.5 used to return 2 points
        with pytest.raises(DomainError, match="point count must be an integer >= 1"):
            sg.export_point_cloud(sg.generate_scene(1), n, np.random.default_rng(0))
        assert len(sg.export_point_cloud(sg.generate_scene(1), np.int64(3),
                                         np.random.default_rng(0))) == 3


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
                assert np.all((p.position >= scene.bounds.lo) & (p.position <= scene.bounds.hi))

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

    def test_loop_tests_collisions_at_camera_height(self):
        # the box's mid-height is 1; the sphere sits on the 0.55 ring at the
        # cameras' z = 0 and does not reach z = 1
        bounds = Aabb(np.array([-2.0, -2.0, -1.0]), np.array([2.0, 2.0, 3.0]))
        blocker = sg.Sphere(np.array([1.1, 0.0, 0.0]), 0.3, np.array([0.5, 0.5, 0.5]))
        scene = sg.Scene(bounds, (blocker,), np.zeros(3))
        poses = sg.generate_trajectory(scene, "loop", 64)
        assert not any(scene.position_collides(p.position) for p in poses)
        np.testing.assert_allclose(np.hypot(*poses[0].position[:2]), 0.35 * 2.0, rtol=1e-12)

    def test_se3_trajectory(self):
        # planar poses only: a 6-D trajectory is refused, for either style
        scene = sg.generate_scene(2)
        for style in ("loop", "grid"):
            with pytest.raises(DimensionError, match="planar poses only"):
                sg.generate_trajectory(scene, style, 10, dim=6)

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

    # a scene file's primitive line is a known kind followed by its finite
    # numbers, and each fault is one line that names the file and the key
    @pytest.mark.parametrize("line, why", [
        ("cone 0 0 0 1 0.5 0.5 0.5", "prim1: kind must be 'sphere' or 'box', got 'cone'"),
        ("", "prim1: kind must be 'sphere' or 'box', got ''"),
        ("sphere 0.5 nan 0 0.3 0.5 0.5 0.5", "prim1 must be finite, got '0.5 nan 0 0.3"),
        ("sphere 0.5 0 0 0.3 0.5 0.5", "prim1: expected 7 floats, got 6"),
        ("box 0.5 0 0 0.2 0.2 0.2 x 0.5 0.5", "prim1: not parseable as floats"),
    ], ids=["malformed_primitive", "empty", "nan", "count", "not_a_number"])
    def test_primitive_line_fault(self, tmp_path, line, why):
        path = tmp_path / "scene.txt"
        path.write_text(f"{SCENE_HEAD}primitive_count = 2\n"
                        f"prim0 = sphere -0.5 0 0 0.3 0.5 0.5 0.5\nprim1 = {line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {why}")) as ei:
            sg.load_scene(path)
        assert "\n" not in str(ei.value)

    @pytest.mark.parametrize("count", [0, 300000])
    def test_primitive_count_bounded_by_the_file(self, tmp_path, count):
        # checked before the set of primitive key names is built, so a huge
        # count is one short line, not one that lists every missing key
        path = tmp_path / "scene.txt"
        path.write_text(f"{SCENE_HEAD}primitive_count = {count}\n"
                        "prim0 = sphere 0 0 0 0.3 0.5 0.5 0.5\n")
        with pytest.raises(ConfigError, match="primitive_count must be in") as ei:
            sg.load_scene(path)
        assert len(str(ei.value)) < 200 and "\n" not in str(ei.value)
