"""End-to-end gate for the shipped guarantees, one test per guarantee.

Each test states its tolerance inline and checks it against an oracle
computed independently of the code under test (finite differences, scipy
rotations, a brute-force image matcher, byte comparison of rerun
artifacts). Run with -v to get one pass/fail line per guarantee.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import poseinn.cli as cli
import poseinn.dataset as ds
import poseinn.localizer as loc
import poseinn.ndiff as nd
import poseinn.sampler as sm
import poseinn.scenegen as sg
import poseinn.trainer as tr
from poseinn.flow import FlowModel
from poseinn.geometry import Aabb, Pose, positional_encode_batch, wrap_angle
from poseinn.model import ModelConfig, PoseRegressor

from conftest import randomize_output_layers, run_cli


# ---------------------------------------------------------------------------
# 1. invertibility round trips
# ---------------------------------------------------------------------------

def test_invertibility_round_trips_under_1e9():
    """1000 random planar flows (some conditional): both round trips exact
    to 1e-9 in the max norm, all inside 10 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for i in range(1000):
        cfg = ModelConfig(
            dim=3,
            enc_L=int(rng.integers(1, 4)),
            blocks=int(rng.integers(1, 4)),
            hidden=int(rng.integers(8, 25)),
            layers=int(rng.integers(1, 3)),
            conditional=i % 4 == 0,
            cond_width=8,
            seed=int(rng.integers(0, 2**31)),
        )
        flow = FlowModel(cfg)
        randomize_output_layers(flow, rng)
        n = int(rng.integers(1, 4))
        c = rng.uniform(-1.0, 1.0, size=(n, cfg.cond_dim)) if cfg.conditional else None
        x = rng.uniform(-1.0, 1.0, size=(n, cfg.x_len))
        y, z = flow.forward(x, c)
        x_back = flow.inverse(y.data, z.data, c).data
        worst = max(worst, float(np.max(np.abs(x_back - x))))

        y0 = rng.standard_normal((n, cfg.latent))
        z0 = rng.standard_normal((n, 3))
        x2 = flow.inverse(y0, z0, c).data
        y2, z2 = flow.forward(x2, c)
        worst = max(worst, float(np.max(np.abs(y2.data - y0))),
                    float(np.max(np.abs(z2.data - z0))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"worst round-trip error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. gradients vs central finite differences
# ---------------------------------------------------------------------------

def _directional_check(build, arrays, rng, n_dirs=20, h=1e-6, tol=1e-5,
                       label=""):
    """Analytic directional derivatives vs central differences.

    build(tensors) must return a scalar graph node. Directions are
    unit-norm over the concatenation of all input arrays.
    """
    tensors = [nd.Tensor(a.copy(), requires_grad=True) for a in arrays]
    build(tensors).backward()
    grads = [t.grad.copy() for t in tensors]

    def value(arrs):
        return build([nd.Tensor(a) for a in arrs]).item()

    for k in range(n_dirs):
        dirs = [rng.standard_normal(a.shape) for a in arrays]
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in dirs))
        dirs = [d / norm for d in dirs]
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, dirs))
        fp = value([a + h * d for a, d in zip(arrays, dirs)])
        fm = value([a - h * d for a, d in zip(arrays, dirs)])
        fd = (fp - fm) / (2.0 * h)
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6)
        assert rel < tol, (f"{label}: direction {k} rel error {rel:.3e} "
                           f"(fd {fd:.6e} vs analytic {analytic:.6e})")


def _weighted(rng):
    """Scalarizer with a fixed random weighting, so every output entry
    contributes to the checked derivative."""
    cache = {}

    def scal(t):
        shape = t.data.shape
        if shape not in cache:
            cache[shape] = nd.Tensor(rng.standard_normal(shape))
        return nd.tsum(nd.mul(t, cache[shape]))

    return scal


def _op_table(rng):
    """One (label, arrays, graph builder) row per public tensor op."""
    w = _weighted(rng)
    n34 = lambda: rng.standard_normal((3, 4))
    away_from_zero = rng.uniform(0.2, 1.5, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    in_acos_domain = rng.uniform(-0.9, 0.9, (3, 4))
    # clip kinks at the bounds: keep inputs 0.1 clear of +-0.8
    clip_safe = np.where(rng.random((3, 4)) < 0.5,
                         rng.uniform(-0.7, 0.7, (3, 4)),
                         rng.uniform(0.9, 1.8, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)))
    idx = np.array([4, 0, 5, 2, 5, 1])

    return [
        ("add", [n34(), n34()], lambda t: w(nd.add(t[0], t[1]))),
        ("sub", [n34(), n34()], lambda t: w(nd.sub(t[0], t[1]))),
        ("mul", [n34(), n34()], lambda t: w(nd.mul(t[0], t[1]))),
        ("linear", [rng.standard_normal((3, 4)), rng.standard_normal((4, 5)),
                    rng.standard_normal(5)],
         lambda t: w(nd.linear(t[0], t[1], t[2]))),
        ("linear_row_bias", [rng.standard_normal((3, 4)), rng.standard_normal((4, 5)),
                             rng.standard_normal((3, 5))],
         lambda t: w(nd.linear(t[0], t[1], t[2]))),
        ("exp", [0.5 * n34()], lambda t: w(nd.exp(t[0]))),
        ("tanh", [n34()], lambda t: w(nd.tanh(t[0]))),
        ("sigmoid", [n34()], lambda t: w(nd.sigmoid(t[0]))),
        ("sin", [n34()], lambda t: w(nd.sin(t[0]))),
        ("cos", [n34()], lambda t: w(nd.cos(t[0]))),
        ("acos", [in_acos_domain], lambda t: w(nd.acos(t[0]))),
        ("leaky_relu", [away_from_zero],
         lambda t: w(nd.leaky_relu(t[0]))),
        ("clip", [clip_safe], lambda t: w(nd.clip(t[0], -0.8, 0.8))),
        ("concat", [rng.standard_normal((3, 2)), rng.standard_normal((3, 5))],
         lambda t: w(nd.concat([t[0], t[1]]))),
        ("narrow", [rng.standard_normal((3, 6))],
         lambda t: w(nd.narrow(t[0], 1, 5))),
        ("split", [rng.standard_normal((3, 7))],
         lambda t: sum((w(p) for p in nd.split(t[0], [2, 4, 1])),
                       nd.Tensor(np.array(0.0)))),
        ("gather_cols", [rng.standard_normal((3, 6))],
         lambda t: w(nd.gather_cols(t[0], idx))),
        ("reshape", [n34()], lambda t: w(nd.reshape(t[0], (2, 6)))),
        ("tsum", [n34()], lambda t: nd.tsum(t[0])),
        ("tsum_axis", [n34()], lambda t: w(nd.tsum(t[0], axis=1))),
        ("tmean", [n34()], lambda t: nd.tmean(t[0])),
        ("mse", [n34(), n34()], lambda t: nd.mse(t[0], t[1])),
        ("conv2d", [rng.standard_normal((2, 5, 6, 3)),
                    0.4 * rng.standard_normal((3, 3, 3, 4)),
                    0.1 * rng.standard_normal(4)],
         lambda t: w(nd.conv2d(t[0], t[1], t[2], stride=2, pad=1))),
        ("conv_transpose2d", [rng.standard_normal((2, 3, 3, 2)),
                              0.4 * rng.standard_normal((4, 4, 2, 3)),
                              0.1 * rng.standard_normal(3)],
         lambda t: w(nd.conv_transpose2d(t[0], t[1], t[2], stride=2, pad=1))),
    ]


class _FrozenAdam(nd.Adam):
    """Adam whose step is a no-op: lets train_step build the full loss and
    backprop without moving the parameters."""

    def step(self, lr):
        pass


def test_gradients_match_central_differences():
    """Every tensor op and the full composed training loss agree with
    central finite differences to 1e-5 relative on 20 random directions,
    inside 60 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(321)
    for label, arrays, build in _op_table(rng):
        _directional_check(build, arrays, rng, n_dirs=20, h=1e-6,
                           tol=1e-5, label=label)

    # composed loss: every term active, including the likelihood one
    bounds = Aabb(np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0]))
    model = PoseRegressor(ModelConfig(dim=3, image_hw=16, enc_L=2, blocks=2,
                                      hidden=16, layers=2, seed=7), bounds)
    for t in model.params.values():
        t.data = t.data + 0.05 * rng.standard_normal(t.data.shape)
    cfg = tr.TrainConfig(w_kl=1e-3, w_nll=0.1, seed=0)
    poses = np.column_stack([rng.uniform(-1.5, 1.5, 3),
                             rng.uniform(-1.5, 1.5, 3),
                             rng.uniform(-np.pi, np.pi, 3)])
    images = rng.uniform(0.0, 1.0, (3, 16, 16, 3))

    def loss():
        # a fresh identically seeded rng pins the sampled latent noise, so
        # repeated evaluations see the same deterministic loss surface
        entry = tr.train_step(model, poses, images, cfg,
                              np.random.default_rng(99), lr=0.0,
                              opt=_FrozenAdam(model.params))
        return entry.total

    loss()
    grads = {k: t.grad.copy() for k, t in model.params.items()}
    names = sorted(model.params)
    base = {k: model.params[k].data.copy() for k in names}
    h = 1e-5
    for k in range(20):
        dirs = {n: rng.standard_normal(base[n].shape) for n in names}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in dirs.values()))
        analytic = 0.0
        for n in names:
            dirs[n] /= norm
            analytic += float(np.sum(grads[n] * dirs[n]))
        vals = []
        for sign in (1.0, -1.0):
            for n in names:
                model.params[n].data = base[n] + sign * h * dirs[n]
            vals.append(loss())
        fd = (vals[0] - vals[1]) / (2.0 * h)
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6)
        assert rel < 1e-5, (f"composed loss: direction {k} rel error "
                            f"{rel:.3e} (fd {fd:.6e} vs {analytic:.6e})")
    for n in names:
        model.params[n].data = base[n]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 3. positional-encoding oracle
# ---------------------------------------------------------------------------

def test_encoding_and_geodesic_match_oracles():
    """Positional encoding matches a term-by-term scalar evaluation to
    1e-12 (the encoding is width-generic, so d = 6 stays covered)."""
    rng = np.random.default_rng(42)
    for d, L in ((3, 4), (6, 6), (3, 1)):
        n = 40
        v = rng.uniform(-1.0, 1.0, (n, d))
        enc = positional_encode_batch(v, L)
        oracle = np.empty((n, 2 * d * L + d))
        for r in range(n):
            col = 0
            for j in range(d):
                for ell in range(L):
                    oracle[r, col] = math.sin((2.0 ** ell) * math.pi * v[r, j])
                    oracle[r, col + 1] = math.cos((2.0 ** ell) * math.pi * v[r, j])
                    col += 2
            oracle[r, 2 * d * L:] = v[r]
        assert np.max(np.abs(enc - oracle)) < 1e-12


# ---------------------------------------------------------------------------
# 4. sampler rules re-pass a brute-force reimplementation
# ---------------------------------------------------------------------------

def _brute_view(pose, intr, cloud):
    """Frustum count and nearest in-view distance, rebuilt from the camera
    convention (forward/left/up columns) with scipy rotations."""
    r = Rotation.from_euler("ZXY", pose.euler).as_matrix()
    fwd, left, up = r[:, 0], r[:, 1], r[:, 2]
    rel = cloud - pose.position
    depth = rel @ fwd
    lat = rel @ left
    vert = rel @ up
    tan_h = math.tan(intr.hfov / 2.0)
    tan_v = tan_h * intr.height / intr.width
    inside = (depth > 0.0) & (np.abs(lat) <= depth * tan_h) \
        & (np.abs(vert) <= depth * tan_v)
    n = int(np.count_nonzero(inside))
    d = float(np.min(np.linalg.norm(rel[inside], axis=1))) if n else math.inf
    return n, d


def test_sampler_output_repasses_brute_force_rules():
    """On 3 random scenes every accepted pose re-passes an independent
    implementation of the acceptance rules; nearest-training distance
    never exceeds 0.5 m and orientation noise never exceeds 3.6 degrees
    (>= 10^4 individual checks)."""
    checks = 0
    for seed in (21, 22, 23):
        scene = sg.generate_scene(seed, n_primitives=4 + seed % 3)
        intr = sg.CameraIntrinsics()
        training = sg.generate_trajectory(scene, "loop", 60)
        cloud = sg.export_point_cloud(scene, 1500, np.random.default_rng([seed, 9]))
        cfg = sm.SamplingConfig(target=850, seed=seed)
        accepted = sm.sample_poses(scene, cloud, training, intr, cfg)
        assert len(accepted) == cfg.target

        tpos = np.array([p.position for p in training])
        train_rots = Rotation.from_matrix(np.stack([p.rotation() for p in training]))
        ns, dists = [], []
        for p in training:
            n, d = _brute_view(p, intr, cloud)
            ns.append(n)
            if n:
                dists.append(d)
        n_lo, n_hi = min(ns), max(ns)
        d_lo, d_hi = min(dists), max(dists)

        for pose, stats in accepted:
            d_tr = float(np.min(np.linalg.norm(tpos - pose.position, axis=1)))
            assert d_tr <= cfg.max_delta_training, f"rule 1 violated: {d_tr}"
            assert abs(d_tr - stats.delta_training) < 1e-9
            checks += 1

            n, d = _brute_view(pose, intr, cloud)
            assert n == stats.n_in_view
            assert n_lo <= n <= n_hi, f"rule 2 violated: {n} not in [{n_lo}, {n_hi}]"
            checks += 1

            assert abs(d - stats.delta_in_view) < 1e-9
            assert d_lo <= d <= d_hi, f"rule 3 violated: {d} not in [{d_lo}, {d_hi}]"
            checks += 1

            rel = Rotation.from_matrix(pose.rotation()) * train_rots.inv()
            noise = float(np.min(rel.magnitude()))
            assert noise <= sm.MAX_ROT_NOISE + 1e-9, \
                f"orientation noise {math.degrees(noise):.3f} deg"
            checks += 1
    assert checks >= 10_000, f"only {checks} checks ran"


# ---------------------------------------------------------------------------
# 5-7. end-to-end toy localization and its downstream properties
# ---------------------------------------------------------------------------

def _posteriors(run, seed, offset=0):
    return [loc.localize(run.model, run.test.images[i], 50,
                         rng=np.random.default_rng([seed, offset + i]))
            for i in range(run.test.count)]


def _errors(preds, gt):
    trans = np.linalg.norm(preds[:, :2] - gt[:, :2], axis=1)
    rot = np.abs(wrap_angle(preds[:, 2] - gt[:, 2]))
    return trans, rot


def test_toy_localization_beats_thresholds_and_tracks_oracle(toy_run):
    """Toy pipeline (4 m box, 32x32, 200 train + 2000 synthetic, planar,
    30 epochs): median test errors < 0.20 m and < 5 degrees, within 2x of
    the brute-force nearest-rendered-image floor, in under 20 minutes."""
    t0 = time.perf_counter()
    posts = _posteriors(toy_run, seed=0)
    localize_seconds = time.perf_counter() - t0
    preds = np.array([p.mean for p in posts])
    trans, rot = _errors(preds, toy_run.test.poses)
    med_t, med_r = float(np.median(trans)), float(np.median(rot))

    refs = np.concatenate([toy_run.train.images, toy_run.synth.images])
    ref_poses = np.concatenate([toy_run.train.poses, toy_run.synth.poses])
    flat = refs.reshape(len(refs), -1)
    oracle_pred = np.empty((toy_run.test.count, 3))
    for i in range(toy_run.test.count):
        ssd = np.sum((flat - toy_run.test.images[i].reshape(-1)) ** 2, axis=1)
        oracle_pred[i] = ref_poses[np.argmin(ssd)]
    o_trans, o_rot = _errors(oracle_pred, toy_run.test.poses)
    floor_t, floor_r = float(np.median(o_trans)), float(np.median(o_rot))

    total = toy_run.pipeline_seconds + localize_seconds
    assert med_t < 0.20, f"median translation {med_t:.4f} m (floor {floor_t:.4f})"
    assert math.degrees(med_r) < 5.0, \
        f"median heading {math.degrees(med_r):.2f} deg (floor {math.degrees(floor_r):.2f})"
    assert med_t <= 2.0 * floor_t, \
        f"translation {med_t:.4f} m vs 2x floor {2 * floor_t:.4f} m"
    assert med_r <= 2.0 * floor_r, \
        f"heading {math.degrees(med_r):.2f} vs 2x floor {math.degrees(2 * floor_r):.2f} deg"
    assert total < 1200.0, f"pipeline + localization took {total:.0f} s"


def test_variance_filter_lowers_mean_translation_error(toy_run):
    """Keeping the at-or-below-median-variance posteriors does not raise
    the mean translation error, in at least 4 of 5 seeds."""
    wins = 0
    for seed in range(5):
        rep = cli.evaluate_posteriors(_posteriors(toy_run, seed), toy_run.test.poses)
        wins += rep.summary["filt_mean_trans_m"] <= rep.summary["raw_mean_trans_m"]
    assert wins >= 4, f"filtering lowered the mean in only {wins}/5 seeds"


def test_ekf_fusion_lowers_median_heading_error(toy_run):
    """Fusing pose posteriors with noisy odometry (1 cm, 0.5 degrees per
    step) lowers the median heading error in at least 4 of 5 seeds, and
    the zero/infinite measurement-noise limits hold to 1e-6."""
    gt = toy_run.test.poses
    sig_t, sig_r = 0.01, math.radians(0.5)
    wins = 0
    for seed in range(5):
        posts = _posteriors(toy_run, seed, offset=5000)
        raw = [abs(float(wrap_angle(p.mean[2] - gt[i, 2])))
               for i, p in enumerate(posts)]
        rng = np.random.default_rng([777, seed])
        state = loc.EkfState(gt[0], np.diag([1e-4, 1e-4, 1e-4]))
        fused = []
        prev = gt[0]
        for i in range(len(gt)):
            c, s = math.cos(prev[2]), math.sin(prev[2])
            dx, dy = gt[i, :2] - prev[:2]
            step = loc.OdometryStep(
                c * dx + s * dy + rng.normal(0.0, sig_t),
                -s * dx + c * dy + rng.normal(0.0, sig_t),
                float(wrap_angle(gt[i, 2] - prev[2])) + rng.normal(0.0, sig_r),
                noise=np.array([sig_t**2, sig_t**2, sig_r**2]))
            state = loc.ekf_update(loc.ekf_predict(state, step),
                                   *loc.posterior_measurement(posts[i]))
            fused.append(abs(float(wrap_angle(state.mean[2] - gt[i, 2]))))
            prev = gt[i]
        wins += np.median(fused) <= np.median(raw)
    assert wins >= 4, f"fusion lowered the median heading in only {wins}/5 seeds"

    state = loc.EkfState(np.array([0.5, -0.2, 0.3]),
                         np.diag([0.04, 0.04, 0.02]))
    meas = np.array([0.1, 0.15, -0.4])
    sharp = loc.ekf_update(state, meas, 1e-12 * np.eye(3))
    assert np.max(np.abs(sharp.mean - meas)) < 1e-6
    assert np.max(np.abs(sharp.cov)) < 1e-6
    vague = loc.ekf_update(state, meas, 1e12 * np.eye(3))
    assert np.max(np.abs(vague.mean - state.mean)) < 1e-6
    assert np.max(np.abs(vague.cov - state.cov)) < 1e-6


# ---------------------------------------------------------------------------
# 8. bimodal heading posterior on the symmetric scene
# ---------------------------------------------------------------------------

def test_symmetric_scene_yields_bimodal_headings(symmetric_run):
    """On the half-turn-symmetric scene the 50-sample heading posterior
    shows two modes >= 120 degrees apart, each holding >= 20% of the
    samples, on >= 80% of test frames."""
    ok = 0
    n = symmetric_run.test.count
    for i in range(n):
        post = loc.localize(symmetric_run.model, symmetric_run.test.images[i],
                            50, rng=np.random.default_rng([0, i]))
        modes = loc.heading_modes(post.samples[:, 2])
        if len(modes) < 2:
            continue
        (a1, m1), (a2, m2) = modes[0], modes[1]
        gap = abs(float(wrap_angle(a1 - a2)))
        if gap >= math.radians(120.0) and m1 >= 0.20 and m2 >= 0.20:
            ok += 1
    assert ok >= 0.80 * n, f"bimodal on {ok}/{n} frames"


# ---------------------------------------------------------------------------
# 9. bitwise reproducibility of every artifact-writing command
# ---------------------------------------------------------------------------

def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _assert_identical(a, b, verb):
    ta, tb = _tree(a), _tree(b)
    assert sorted(ta) == sorted(tb), f"{verb}: file sets differ"
    for name in ta:
        assert ta[name] == tb[name], f"{verb}: {name} differs between reruns"


def test_reruns_are_bitwise_identical(tmp_path):
    """Every artifact-writing command, rerun with the same seed, produces
    byte-identical blobs, checkpoints, and reports."""
    cfg = tmp_path / "cfg"
    cfg.mkdir()
    (cfg / "scene.cfg").write_text("kind = scene_config\nprimitives = 4\n")
    (cfg / "sample.cfg").write_text(
        "kind = sampling_config\ntarget = 5\nmax_delta_training = 0.8\n"
        "cloud_points = 800\nbudget_factor = 500\n")
    (cfg / "train.cfg").write_text(
        "kind = train_config\nepochs = 2\nbatch = 4\nwarmup_epochs = 1\n"
        "checkpoint_every = 1\nenc_L = 2\nblocks = 2\nhidden = 16\n")

    def pair(verb, extra):
        out = []
        for tag in ("a", "b"):
            d = tmp_path / f"{verb}-{tag}"
            run_cli([verb, *extra, "--out", d])
            out.append(d)
        _assert_identical(out[0], out[1], verb)
        return out[0]

    scene_dir = pair("gen-scene", ["--config", cfg / "scene.cfg", "--seed", 3])
    (cfg / "data.cfg").write_text(
        f"kind = data_config\nscene = {scene_dir / 'scene.kv'}\ndim = 3\n"
        "image_hw = 16\ntrain_count = 10\ntest_count = 4\n"
        "test_style = loop\ntest_loop_factor = 0.3\n")
    data_dir = pair("gen-data", ["--config", cfg / "data.cfg", "--seed", 3])
    pair("sample-poses", ["--config", cfg / "sample.cfg",
                          "--data", data_dir / "train.kv", "--seed", 3])
    run_dir = pair("train", ["--config", cfg / "train.cfg",
                             "--data", data_dir / "train.kv", "--seed", 3])
    pair("eval", ["--ckpt", run_dir / "model.ckpt", "--samples", 8,
                  "--data", data_dir / "test.kv", "--seed", 4])

    test_d = ds.load_dataset(data_dir / "test.kv")
    x, y, th = (float(v) for v in test_d.poses[0])
    (cfg / "track.cfg").write_text(
        f"kind = track_config\ninit = {x!r} {y!r} {th!r}\nn_samples = 6\n")
    (cfg / "odom.txt").write_text("0.05 0.0 0.1\n" * test_d.count)
    pair("track", ["--config", cfg / "track.cfg",
                   "--ckpt", run_dir / "model.ckpt",
                   "--data", data_dir / "test.kv", "--odom", cfg / "odom.txt",
                   "--seed", 5])
