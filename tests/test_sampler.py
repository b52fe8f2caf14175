"""Sampler tests. The load-bearing oracle is an independent brute-force
reimplementation of the view metrics and the three rules; every accepted
pose must re-pass it, and every rejected candidate must fail the same rule
first."""

import logging
import re

import numpy as np
import pytest
from scipy.stats import chi2

from poseinn import sampler as sp
from poseinn import scenegen as sg
from poseinn.errors import DomainError, SamplingError
from poseinn.geometry import Aabb, Pose, wrap_angle

BOUNDS = Aabb(np.array([-2.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0]))
INTR = sg.CameraIntrinsics(32, 32)


def brute_force_stats(pose, intr, cloud, training_positions):
    """Independent per-point frustum test: rotate each point into the
    camera frame one at a time with explicit trigonometry."""
    r = pose.rotation()
    fwd, left, up = r[:, 0], r[:, 1], r[:, 2]
    tan_h = np.tan(intr.hfov / 2)
    tan_v = tan_h * intr.height / intr.width
    n = 0
    best = np.inf
    for pt in cloud:
        rel = pt - pose.position
        depth = float(np.dot(rel, fwd))
        if depth <= 0:
            continue
        if abs(np.dot(rel, left)) > depth * tan_h:
            continue
        if abs(np.dot(rel, up)) > depth * tan_v:
            continue
        n += 1
        best = min(best, float(np.linalg.norm(rel)))
    d_train = min(float(np.linalg.norm(pose.position - t)) for t in training_positions)
    return n, (best if n else float("nan")), d_train


def brute_force_reason(stats, ranges, cfg):
    """The first of the three rules brute_force_stats' result fails, or None."""
    n, d_view, d_train = stats
    if d_train > cfg.max_delta_training:
        return sp.REASON_RULE1
    if not ranges.n_lo <= n <= ranges.n_hi:
        return sp.REASON_RULE2
    if n == 0 or not ranges.d_lo <= d_view <= ranges.d_hi:
        return sp.REASON_RULE3
    return None


def brute_force_passes(pose, intr, cloud, training_positions, ranges, cfg):
    stats = brute_force_stats(pose, intr, cloud, training_positions)
    return brute_force_reason(stats, ranges, cfg) is None


def one_pass_stats(pose, intr, cloud):
    """The frustum stats from one frustum test of the whole cloud, as the
    sampler computed them before it culled by grid cell."""
    rel = np.asarray(cloud, dtype=np.float64) - pose.position
    cam = rel @ pose.rotation()
    depth, lat, vert = cam[:, 0], cam[:, 1], cam[:, 2]
    tan_h = np.tan(intr.hfov / 2.0)
    tan_v = tan_h * (intr.height / intr.width)
    mask = (depth > 0.0) & (np.abs(lat) <= depth * tan_h) & (np.abs(vert) <= depth * tan_v)
    n = int(np.count_nonzero(mask))
    return n, (sp._nearest(np.compress(mask, rel, axis=0)) if n else float("nan"))


def heading_pose(x, y, heading):
    return Pose(np.array([x, y, 0.0]), np.array([heading, 0.0, 0.0]))


def toy_setup(scene_seed=3, n_train=12, n_cloud=800):
    scene = sg.generate_scene(scene_seed, bounds=BOUNDS)
    cloud = sg.export_point_cloud(scene, n_cloud, np.random.default_rng(scene_seed + 100))
    # poses on a loop, but facing the scene center so the cloud is in view
    ring = sg.generate_trajectory(scene, "loop", n_train)
    c = scene.bounds.center
    train = [Pose(p.position,
                  np.array([np.arctan2(c[1] - p.position[1], c[0] - p.position[0]), 0.0, 0.0]),
                  dim=3) for p in ring]
    return scene, cloud, train


class TestInView:
    def test_facing_away_sees_nothing(self):
        cloud = np.array([[2.0, 0.0, 0.0], [1.5, 0.3, 0.1]])
        pose = Pose(np.zeros(3), np.array([np.pi, 0.0, 0.0]), dim=3)  # looking -x
        assert sp._frustum_stats(pose, INTR, sp.index_cloud(cloud))[0] == 0

    def test_single_axis_point(self):
        cloud = np.array([[2.0, 0.0, 0.0]])
        pose = Pose(np.zeros(3), np.zeros(3), dim=3)
        n, d_view = sp._frustum_stats(pose, INTR, sp.index_cloud(cloud))
        assert n == 1
        np.testing.assert_allclose(d_view, 2.0, atol=1e-12)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(42)
        scene, cloud, train = toy_setup()
        positions = np.array([p.position for p in train])
        index = sp.index_cloud(cloud[:200])
        for _ in range(25):
            pose = Pose(
                np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0]),
                np.array([rng.uniform(-np.pi, np.pi), 0.0, 0.0]), dim=3)
            got_n, got_d = sp._frustum_stats(pose, INTR, index)
            n, d_view, _ = brute_force_stats(pose, INTR, cloud[:200], positions)
            assert got_n == n
            if n:
                np.testing.assert_allclose(got_d, d_view, atol=1e-12)
            else:
                assert np.isnan(got_d)


class TestCulledStats:
    """_frustum_stats on the cell index equals the one-pass oracle bit for
    bit: the count exactly, delta_in_view by its bytes (nan included)."""

    @staticmethod
    def assert_bitwise(poses, intr, cloud):
        index = sp.index_cloud(cloud)
        for pose in poses:
            got, want = sp._frustum_stats(pose, intr, index), one_pass_stats(pose, intr, cloud)
            assert got[0] == want[0], (pose, got, want)
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes(), (pose, got, want)

    @staticmethod
    def exact_rows(monkeypatch):
        """Row counts of the _frustum_mask calls made from now on."""
        rows, mask = [], sp._frustum_mask

        def counting(rel, rot, intr):
            rows.append(len(rel))
            return mask(rel, rot, intr)

        monkeypatch.setattr(sp, "_frustum_mask", counting)
        return rows

    def random_poses(self, rng, n, lo=-2.0, hi=2.0):
        return [heading_pose(*rng.uniform(lo, hi, 2), rng.uniform(-np.pi, np.pi))
                for _ in range(n)]

    def test_walkthrough_cloud(self, monkeypatch):
        # the README walkthrough's scene, cloud and training loop
        scene = sg.generate_scene(11)
        cloud = sg.export_point_cloud(scene, 20000, np.random.default_rng([11, 2]))
        train = sg.generate_trajectory(scene, "loop", 200, 3, loop_factor=0.35)
        lo, hi = scene.bounds.lo, scene.bounds.hi
        rng = np.random.default_rng(20)
        poses = train + [heading_pose(rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]),
                                      rng.uniform(-np.pi, np.pi)) for _ in range(200)]
        rows = self.exact_rows(monkeypatch)
        self.assert_bitwise(poses, INTR, cloud)
        # only the points of cells the frustum boundary may cross are tested
        assert len(rows) == len(poses) and sum(rows) < 0.15 * len(cloud) * len(poses)

    def test_tiny_and_degenerate_clouds(self):
        rng = np.random.default_rng(21)
        poses = self.random_poses(rng, 60) + [heading_pose(0.0, 0.0, 0.0)]
        column = np.column_stack([np.full(50, 1.0), np.full(50, 0.5), rng.uniform(-1, 1, 50)])
        for cloud in (np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 0.0]]),
                      np.tile([[1.0, 0.2, -0.1]], (40, 1)), column,
                      np.column_stack([rng.uniform(-1, 1, 50), np.zeros(50), np.zeros(50)])):
            self.assert_bitwise(poses, INTR, cloud)

    def test_points_on_cell_borders_depth_zero_and_lateral_edge(self):
        # integer coordinates over a 16 m extent lie on the 16 x 16 grid's lines
        g = np.arange(0.0, 17.0)
        xs, ys = np.meshgrid(g, g)
        border = np.column_stack([xs.ravel(), ys.ravel(), np.tile([-1.0, 0.0, 1.0], 97)[:289]])
        rng = np.random.default_rng(22)
        poses = self.random_poses(rng, 100, 0.0, 16.0) + [heading_pose(8.0, 8.0, 0.0),
                                                          heading_pose(3.0, 5.0, np.pi / 2)]
        self.assert_bitwise(poses, INTR, border)
        # heading 0 at the origin: x is the depth, y the lateral offset
        tan_h, tan_v = sp._half_tans(INTR)
        d = np.linspace(0.5, 4.0, 8)
        edge = np.concatenate([
            np.column_stack([np.zeros(8), d - 2.0, d - 2.0]),  # depth exactly 0
            np.column_stack([d, d * tan_h, np.zeros(8)]),  # |lat| == depth * tan_h
            np.column_stack([d, -d * tan_h, np.zeros(8)]),
            np.column_stack([d, np.zeros(8), d * tan_v]),  # |vert| == depth * tan_v
        ])
        pose = heading_pose(0.0, 0.0, 0.0)
        n, _ = one_pass_stats(pose, INTR, edge)
        assert n == 24  # the three edges are in view, depth 0 is not
        self.assert_bitwise([pose] + self.random_poses(rng, 50), INTR, edge)

    def test_camera_inside_a_cell_box(self):
        rng = np.random.default_rng(23)
        cloud = rng.uniform(-1.0, 1.0, (3000, 3))
        poses = [heading_pose(0.0, 0.0, h) for h in np.linspace(-np.pi, np.pi, 13)]
        poses += [heading_pose(*rng.uniform(-0.1, 0.1, 2), rng.uniform(-np.pi, np.pi))
                  for _ in range(40)]
        self.assert_bitwise(poses, INTR, cloud)

    @pytest.mark.parametrize("intr", [sg.CameraIntrinsics(32, 32, 0.2),
                                      sg.CameraIntrinsics(32, 32, 3.0),
                                      sg.CameraIntrinsics(48, 16),
                                      sg.CameraIntrinsics(16, 40, 1.2)],
                             ids=["hfov0.2", "hfov3.0", "wide", "tall"])
    def test_field_of_view_and_aspect(self, intr):
        scene, cloud, train = toy_setup(n_cloud=3000)
        rng = np.random.default_rng(24)
        self.assert_bitwise(train + self.random_poses(rng, 80), intr, cloud)

    @pytest.mark.parametrize("n_edge", [1, 2])
    def test_one_and_two_row_boundary_subsets(self, monkeypatch, n_edge):
        # a cluster well inside the view, a point behind the camera and
        # n_edge points on the lateral edge, alone in their cell: the exact
        # test runs on n_edge rows, whose rel @ rot rows must equal the
        # full pass's
        rng = np.random.default_rng(25 + n_edge)
        tan_h, _ = sp._half_tans(INTR)
        rows = self.exact_rows(monkeypatch)
        hits = 0
        for heading in rng.uniform(-np.pi, np.pi, 200):
            fwd = np.array([np.cos(heading), np.sin(heading), 0.0])
            left = np.array([-np.sin(heading), np.cos(heading), 0.0])
            cluster = 10.0 * fwd + rng.uniform(-0.1, 0.1, (30, 3))
            d = 5.0 + rng.uniform(0.0, 0.01, n_edge)[:, None]
            edge = d * fwd + d * tan_h * left * (1.0 + rng.uniform(-1e-15, 1e-15, (n_edge, 1)))
            cloud = np.concatenate([cluster, [-10.0 * fwd], edge])
            pose = heading_pose(0.0, 0.0, heading)
            del rows[:]
            got = sp._frustum_stats(pose, INTR, sp.index_cloud(cloud))
            assert rows == [n_edge]
            want = one_pass_stats(pose, INTR, cloud)
            assert got[0] == want[0]
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
            hits += want[0] - 30
        assert 0 < hits < 200 * n_edge  # edge points fall on both sides of the test

    def test_nearest_point_behind_a_nearer_box(self):
        # cell B's box is nearer than cell A's single point, but B's points
        # are farther by about 5e-8 relative: the minimum is A's point, which
        # a bound loose by 1e-7 would skip
        intr = sg.CameraIntrinsics(32, 32, 2.0)
        h = np.sqrt(2e-6)
        cloud = np.array([[5.0, 0.0, 0.0], [3.0, 4.0 - 1e-7, h], [3.0, 4.0 - 1e-7, -h]])
        pose = heading_pose(0.0, 0.0, 0.0)
        assert one_pass_stats(pose, intr, cloud) == (3, 5.0)
        self.assert_bitwise([pose], intr, cloud)

    def test_cloud_rows_are_reordered_not_changed(self):
        scene, cloud, _ = toy_setup()
        index = sp.index_cloud(cloud)
        assert index.counts.sum() == len(cloud) and np.all(index.counts > 0)
        np.testing.assert_array_equal(np.sort(index.points, axis=0), np.sort(cloud, axis=0))
        for start, count, lo, hi in zip(index.starts, index.counts, index.lo, index.hi):
            cell = index.points[start:start + count]
            np.testing.assert_array_equal(cell.min(axis=0), lo)
            np.testing.assert_array_equal(cell.max(axis=0), hi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cloud_refused(self, bad):
        scene, cloud, train = toy_setup()
        cloud = cloud.copy()
        cloud[17, 2] = bad
        positions = np.array([p.position for p in train])
        ranges = sp.AcceptanceRanges(0.0, 1e9, 0.0, 1e9)
        calls = [lambda: sp.index_cloud(cloud),
                 lambda: sp.compute_ranges(train, INTR, cloud, 1.0),
                 lambda: sp.filter_pose(train[0], positions, cloud, INTR, ranges,
                                        sp.SamplingConfig()),
                 lambda: sp.sample_poses(scene, cloud, train, INTR,
                                         sp.SamplingConfig(target=5))]
        for call in calls:
            with pytest.raises(DomainError, match="point cloud coordinates must be finite"):
                call()


class TestSampleOrientation:
    def test_zero_noise_returns_training_orientation(self):
        _, _, train = toy_setup()
        h = sp.sample_orientation(train, 0.0, np.random.default_rng(5))
        assert any(abs(wrap_angle(h - p.euler[0])) < 1e-12 for p in train)

    def test_geodesic_bound_10k_planar(self):
        _, _, train = toy_setup()
        max_angle = np.deg2rad(3.6)
        rng = np.random.default_rng(42)
        train_rots = np.stack([p.rotation() for p in train])
        headings = [sp.sample_orientation(train, max_angle, rng) for _ in range(10_000)]
        samples = np.stack([Pose(np.zeros(3), np.array([h, 0.0, 0.0])).rotation()
                            for h in headings])
        # trace-based angle to every training rotation, vectorized
        traces = np.einsum("nij,kij->nk", samples, train_rots)
        angles = np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))
        assert np.all(angles.min(axis=1) <= max_angle + 1e-9)
        # spot-check the vectorized oracle against the wrapped heading
        # difference, which is the geodesic distance between two headings
        np.testing.assert_allclose(
            angles[0].min(),
            min(abs(wrap_angle(headings[0] - p.euler[0])) for p in train), atol=1e-12)

    def test_deterministic_single_pose(self):
        train = [Pose(np.zeros(3), np.array([0.3, 0.0, 0.0]), dim=3)]
        a = sp.sample_orientation(train, 0.1, np.random.default_rng(9))
        b = sp.sample_orientation(train, 0.1, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_empty_training_set(self):
        with pytest.raises(SamplingError):
            sp.sample_orientation([], 0.1, np.random.default_rng(0))


class TestRanges:
    def test_min_le_max_and_reuse(self):
        scene, cloud, train = toy_setup()
        r = sp.compute_ranges(train, INTR, cloud, 1.0)
        assert r.n_lo <= r.n_hi and r.d_lo <= r.d_hi

    def test_widening(self):
        scene, cloud, train = toy_setup()
        r1 = sp.compute_ranges(train, INTR, cloud, widen=1.0)
        r2 = sp.compute_ranges(train, INTR, cloud, widen=1.5)
        assert r2.n_lo <= r1.n_lo and r2.n_hi >= r1.n_hi
        assert r2.d_lo <= r1.d_lo and r2.d_hi >= r1.d_hi

    def test_blind_training_set_rejected(self):
        cloud = np.array([[1.9, 1.9, 0.0]])
        train = [Pose(np.zeros(3), np.array([np.arctan2(-1.9, -1.9), 0.0, 0.0]), dim=3)]
        with pytest.raises(SamplingError):
            sp.compute_ranges(train, INTR, cloud, 1.0)

    def test_empty_cloud_sees_nothing(self):
        _, _, train = toy_setup()
        with pytest.raises(SamplingError, match="no training pose sees any cloud point"):
            sp.compute_ranges(train, INTR, np.zeros((0, 3)), 1.0)


class TestNearest:
    @staticmethod
    def mixed_scale(rng, shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)

    def test_rows_whose_sum_orders_differ(self):
        # single rows whose squares sum differently as x*x + (y*y + z*z):
        # numpy's norm sums them (x*x + y*y) + z*z
        v = self.mixed_scale(np.random.default_rng(12), (20_000, 3))
        sq = v * v
        differ = (sq[:, 0] + sq[:, 1]) + sq[:, 2] != sq[:, 0] + (sq[:, 1] + sq[:, 2])
        rows = v[differ][:1000]
        assert len(rows) == 1000
        for row in rows:
            got = sp._nearest(row[None, :])
            assert np.float64(got).tobytes() == np.linalg.norm(row[None, :], axis=1)[0].tobytes()

    def test_random_sets_match_linalg_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            rel = self.mixed_scale(rng, (int(rng.integers(1, 300)), 3))
            want = np.min(np.linalg.norm(rel, axis=1))
            assert np.float64(sp._nearest(rel)).tobytes() == want.tobytes()


class TestFilterPose:
    def test_training_pose_accepted(self):
        scene, cloud, train = toy_setup()
        positions = np.array([p.position for p in train])
        ranges = sp.compute_ranges(train, INTR, cloud, 1.0)
        res = sp.filter_pose(train[0], positions, cloud, INTR, ranges, sp.SamplingConfig())
        assert res.accepted and res.reason is None

    def test_empty_training_set(self):
        scene, cloud, train = toy_setup()
        ranges = sp.compute_ranges(train, INTR, cloud, 1.0)
        with pytest.raises(SamplingError, match="empty training set"):
            sp.filter_pose(train[0], np.zeros((0, 3)), cloud, INTR, ranges, sp.SamplingConfig())

    def test_far_candidate_rejected_rule1(self):
        scene, cloud, train = toy_setup()
        positions = np.array([p.position for p in train]) + np.array([100.0, 0.0, 0.0])
        ranges = sp.compute_ranges(train, INTR, cloud, 1.0)
        res = sp.filter_pose(train[0], positions, cloud, INTR, ranges, sp.SamplingConfig())
        assert not res.accepted and res.reason == sp.REASON_RULE1
        # rule 1 is decided before any frustum work
        assert res.stats.n_in_view is None and res.stats.delta_in_view is None
        _, _, d_train = brute_force_stats(train[0], INTR, cloud, positions)
        np.testing.assert_allclose(res.stats.delta_training, d_train, atol=1e-12)

    def test_first_failing_rule_matches_brute_force_randomized(self):
        scene, cloud, train = toy_setup()
        positions = np.array([p.position for p in train])
        ranges = sp.compute_ranges(train, INTR, cloud, 1.0)
        cfg = sp.SamplingConfig()
        lo, hi = scene.bounds.lo, scene.bounds.hi
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(300):
            # half the candidates sit near a training position, so every
            # rule and acceptance occur, not only rule-1 rejects
            if rng.random() < 0.5:
                pos = positions[rng.integers(len(positions))] + rng.uniform(-0.5, 0.5, 3)
                pos[2] = 0.0
            else:
                pos = np.array([rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]), 0.0])
            cand = Pose(pos, np.array([rng.uniform(-np.pi, np.pi), 0.0, 0.0]), dim=3)
            res = sp.filter_pose(cand, positions, cloud, INTR, ranges, cfg)
            n, d_view, d_train = stats = brute_force_stats(cand, INTR, cloud, positions)
            want = brute_force_reason(stats, ranges, cfg)
            assert (res.accepted, res.reason) == (want is None, want)
            seen.add(res.reason)
            np.testing.assert_allclose(res.stats.delta_training, d_train, atol=1e-12)
            if res.reason == sp.REASON_RULE1:
                assert res.stats.n_in_view is None and res.stats.delta_in_view is None
                continue
            assert res.stats.n_in_view == n
            if n:
                np.testing.assert_allclose(res.stats.delta_in_view, d_view, atol=1e-12)
            else:
                assert np.isnan(res.stats.delta_in_view)
        assert seen == {None, sp.REASON_RULE1, sp.REASON_RULE2, sp.REASON_RULE3}

    def test_wall_hugger_rejected_rule3(self):
        # camera close to a wall of points: widened rule 2 range passes,
        # rule 3 minimum still trips on the too-near surface
        rng = np.random.default_rng(1)
        wall = np.column_stack([np.full(400, 1.0), rng.uniform(-1, 1, 400),
                                rng.uniform(-0.05, 0.05, 400)])
        train = [Pose(np.array([-0.5, 0.0, 0.0]), np.zeros(3), dim=3),
                 Pose(np.array([-0.6, 0.1, 0.0]), np.zeros(3), dim=3)]
        positions = np.array([p.position for p in train])
        ranges = sp.compute_ranges(train, INTR, wall, widen=4.0)
        candidate = Pose(np.array([0.7, 0.0, 0.0]), np.zeros(3), dim=3)
        cfg = sp.SamplingConfig(max_delta_training=10.0)  # let rule 1 pass
        res = sp.filter_pose(candidate, positions, wall, INTR, ranges, cfg)
        bf_n, bf_d, _ = brute_force_stats(candidate, INTR, wall, positions)
        assert ranges.n_lo <= bf_n <= ranges.n_hi  # rule 2 passes
        assert bf_d < ranges.d_lo  # constructed to undershoot the min
        assert not res.accepted and res.reason == sp.REASON_RULE3

    def test_rule1_monotone(self):
        scene, cloud, train = toy_setup()
        positions = np.array([p.position for p in train])
        ranges = sp.compute_ranges(train, INTR, cloud, 1.0)
        cfg = sp.SamplingConfig()
        base = train[0]
        rejected_seen = False
        for dist in (0.6, 1.0, 1.5, 2.0):
            target = base.position + np.array([0.0, dist, 0.0])
            if np.any(target > scene.bounds.hi):
                break
            cand = Pose(target, base.euler, dim=3)
            res = sp.filter_pose(cand, positions, cloud, INTR, ranges, cfg)
            stats = res.stats
            if stats.delta_training > cfg.max_delta_training:
                assert not res.accepted
                rejected_seen = True
        assert rejected_seen


class TestSamplePoses:
    def test_accepted_all_repass_brute_force(self):
        scene, cloud, train = toy_setup()
        cfg = sp.SamplingConfig(target=100, seed=42)
        ranges = sp.compute_ranges(train, INTR, cloud, cfg.widen)
        out = sp.sample_poses(scene, cloud, train, INTR, cfg)
        assert len(out) == 100
        positions = np.array([p.position for p in train])
        for pose, stats in out:
            assert brute_force_passes(pose, INTR, cloud, positions, ranges, cfg)

    def test_single_training_pose_rule1_bound(self):
        scene, cloud, train = toy_setup()
        solo = [train[0]]
        cfg = sp.SamplingConfig(target=10, seed=1, widen=1.5)
        out = sp.sample_poses(scene, cloud, solo, INTR, cfg)
        for pose, stats in out:
            assert np.linalg.norm(pose.position - solo[0].position) <= 0.5 + 1e-12

    def test_deterministic(self):
        scene, cloud, train = toy_setup()
        cfg = sp.SamplingConfig(target=25, seed=7)
        a = sp.sample_poses(scene, cloud, train, INTR, cfg)
        b = sp.sample_poses(scene, cloud, train, INTR, cfg)
        for (pa, _), (pb, _) in zip(a, b):
            np.testing.assert_array_equal(pa.position, pb.position)
            np.testing.assert_array_equal(pa.euler, pb.euler)

    def test_filter_called_once_per_non_colliding_candidate(self, monkeypatch):
        # perfbench times datagen's frames and takes its calibration samples
        # by wrapping sampler.filter_pose; batching or inlining the calls
        # would silently strip those samples
        scene, cloud, train = toy_setup()
        calls = {"collides": 0, "collisions": 0, "filter": 0}
        collides, filter_pose = sg.Scene.position_collides, sp.filter_pose

        def counting_collides(self, p):
            out = collides(self, p)
            calls["collides"] += 1
            calls["collisions"] += bool(out)
            return out

        def counting_filter(*args, **kwargs):
            calls["filter"] += 1
            return filter_pose(*args, **kwargs)

        monkeypatch.setattr(sg.Scene, "position_collides", counting_collides)
        monkeypatch.setattr(sp, "filter_pose", counting_filter)
        out = sp.sample_poses(scene, cloud, train, INTR, sp.SamplingConfig(target=20, seed=5))
        assert len(out) == 20 and calls["collisions"] > 0
        assert calls["filter"] == calls["collides"] - calls["collisions"]

    def test_success_logs_tally(self, caplog):
        scene, cloud, train = toy_setup()
        cfg = sp.SamplingConfig(target=20, seed=5)
        with caplog.at_level(logging.INFO, logger="poseinn.sampler"):
            out = sp.sample_poses(scene, cloud, train, INTR, cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "poseinn.sampler"]
        assert len(lines) == 1
        m = re.fullmatch(r"sample_poses: (\d+) attempts, (\d+) accepted, (\d+) collisions, "
                         r"rejected by rule 1/2/3: (\d+)/(\d+)/(\d+)", lines[0])
        assert m, lines[0]
        attempts, accepted, collisions, r1, r2, r3 = map(int, m.groups())
        assert accepted == len(out) == cfg.target
        assert attempts == accepted + collisions + r1 + r2 + r3
        assert r1 > 0

    def test_budget_exhaustion_diagnostics(self):
        scene, cloud, train = toy_setup()
        # unreachable training positions: every candidate fails rule 1
        far = [Pose(p.position, p.euler, dim=3) for p in train]
        cfg = sp.SamplingConfig(target=50, budget_factor=2, seed=3,
                                max_delta_training=1e-6)
        with pytest.raises(SamplingError, match="rule1"):
            sp.sample_poses(scene, cloud, far, INTR, cfg)

    def test_quadrant_uniformity_chi2(self):
        """Symmetric feasibility: central cloud, training ring with
        4-fold-symmetric headings; accepted xy positions should spread
        uniformly over quadrants relative to feasible-region mass."""
        bounds = Aabb(np.array([-2.0, -2.0, -0.5]), np.array([2.0, 2.0, 0.5]))
        ball = sg.Sphere(np.zeros(3), 0.4, np.array([0.7, 0.7, 0.7]))
        scene = sg.Scene(bounds, (ball,), np.array([0.0, 0.0, 0.0]))
        cloud = sg.export_point_cloud(scene, 600, np.random.default_rng(0))
        train = []
        for i in range(8):
            phi = 2 * np.pi * i / 8
            x, y = 1.3 * np.cos(phi), 1.3 * np.sin(phi)
            train.append(Pose(np.array([x, y, 0.0]),
                              np.array([np.arctan2(-y, -x), 0.0, 0.0]), dim=3))
        cfg = sp.SamplingConfig(target=2000, seed=11, widen=1.2)
        out = sp.sample_poses(scene, cloud, train, INTR, cfg)
        quad = np.zeros(4)
        for pose, _ in out:
            x, y = pose.position[:2]
            quad[(0 if x >= 0 else 1) + (0 if y >= 0 else 2)] += 1
        expected = np.full(4, len(out) / 4)
        stat = float(np.sum((quad - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.99, df=3), (quad, stat)

    def test_empty_inputs(self):
        scene, cloud, train = toy_setup()
        with pytest.raises(SamplingError):
            sp.sample_poses(scene, cloud, [], INTR, sp.SamplingConfig(target=5))
        with pytest.raises(SamplingError, match="cannot sample poses against an empty cloud"):
            sp.sample_poses(scene, np.zeros((0, 3)), train, INTR, sp.SamplingConfig(target=5))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            sp.SamplingConfig(target=0)
        with pytest.raises(DomainError):
            sp.SamplingConfig(widen=0.5)

    @pytest.mark.parametrize("kw, msg", [
        ({"target": 2.5}, "target must be an integer, got 2.5"),
        ({"target": True}, "target must be an integer, got True"),
        ({"budget_factor": 1.5}, "budget_factor must be an integer, got 1.5"),
        ({"budget_factor": True}, "budget_factor must be an integer, got True"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": False}, "seed must be an integer, got False"),
    ], ids=["target_float", "target_bool", "budget_float", "budget_bool", "seed_negative",
            "seed_float", "seed_bool"])
    def test_non_integer_counts_and_seed_refused(self, kw, msg):
        # each used to pass construction and crash sample_poses with a bare
        # TypeError or numpy's ValueError
        with pytest.raises(DomainError) as info:
            sp.SamplingConfig(**kw)
        assert str(info.value) == msg
        assert sp.SamplingConfig(target=np.int64(3), budget_factor=np.int32(2),
                                 seed=np.uint8(1)).target == 3
