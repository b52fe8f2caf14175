"""The four benchmark workloads: set-up, timed phase and output checks.

Each workload is three functions. ``setup`` builds every input from the
workload seed and is timed (``setup_s``); ``run`` is the timed phase and
only records outputs; ``check`` verifies those outputs afterwards, outside
the timed phase and outside any trace.

- serve-frames: closed loop, one client. One unconditional ``localize``
  (n = 50) per request; every request carries a distinct 32x32 image.
- track-dense: closed loop, one client, sequential. EKF predict with noisy
  odometry, conditional ``localize`` (n = 500), measurement, update and
  heading modes per frame; each frame depends on the previous estimate.
- train-joint: batch job. ``trainer.train`` on 200 real frames and a
  synthetic split, the README toy recipe, writing checkpoints.
- datagen: batch job. ``gen-data`` then ``sample-poses`` through
  ``poseinn.cli.main`` with the README walkthrough configs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import astuple, dataclass, field

import numpy as np

from poseinn import cli, dataset, localizer, sampler, scenegen, trainer
from poseinn.geometry import Pose, wrap_angle
from poseinn.model import ModelConfig, PoseRegressor

from . import checks
from .calib import NO_CALIBRATION
from .tracer import Patcher, record_durations

# Every workload renders the README walkthrough scene (gen-scene --seed 11).
# Render and sampling costs are properties of the scene: over scene seeds
# 1 to 10 a 32x32 render took 0.83 to 1.49 ms and an accepted synthetic
# pose 6.3 to 9.3 ms, which would swamp any bound. The workload seed drives
# everything else: model initialisation, training batches, the serving
# views, sensor and odometry noise, sampler candidates and posterior draws.
WALKTHROUGH_SCENE_SEED = 11
TRAIN_LOOP, TEST_LOOP = 0.35, 0.4  # README loop factors of the two splits
SENSOR_NOISE = 0.02                # per-pixel sigma that makes requests distinct
ODOM_SIGMA_T, ODOM_SIGMA_R = 0.01, np.radians(0.5)  # as in the EKF acceptance test
TOY_RATES = dict(lr_start=0.002, lr_end=0.0002, w_kl=0.001)  # README toy recipe


@dataclass(frozen=True)
class Size:
    """Input sizes. FULL is the benchmark; TINY only exercises the code."""

    image_hw: int
    setup_repeats: int      # set-ups per run; setup_s is their median
    check_every: int        # stride of the requests re-issued by the checks
    batch: int
    short_train_frames: int  # frames of the serving models' set-up schedule
    serve_pool: int         # distinct rendered views behind the requests
    noise_bank: int         # sensor-noise fields combined with those views
    serve_samples: int
    track_frames: int       # frames of the tracked loop (wraps around)
    track_samples: int
    train_frames: int
    synth_frames: int
    train_epochs: int
    data_train: int
    data_test: int
    data_target: int
    cloud_points: int
    max_delta_training: float  # sampler rule 1; tiny loops need a wider one
    budget_factor: int

    def sampling(self, target: int, seed: int) -> sampler.SamplingConfig:
        return sampler.SamplingConfig(target=target, seed=seed,
                                      max_delta_training=self.max_delta_training,
                                      budget_factor=self.budget_factor)


FULL = Size(image_hw=32, setup_repeats=3, check_every=50,
            batch=25, short_train_frames=100, serve_pool=128, noise_bank=128,
            serve_samples=50, track_frames=200, track_samples=500, train_frames=200,
            synth_frames=200, train_epochs=4, data_train=200, data_test=50,
            data_target=2000, cloud_points=20000, max_delta_training=0.5, budget_factor=100)
TINY = Size(image_hw=16, setup_repeats=2, check_every=2,
            batch=4, short_train_frames=8, serve_pool=4, noise_bank=4, serve_samples=8,
            track_frames=6, track_samples=16, train_frames=16, synth_frames=16,
            train_epochs=4, data_train=12, data_test=4, data_target=8, cloud_points=2000,
            max_delta_training=0.8, budget_factor=500)


@dataclass
class Record:
    """What a timed phase produced, and what its checks found."""

    ops: int = 0            # requests, frames, training steps or frames written
    frames: int = 0         # frames behind frames_per_s
    busy: list = field(default_factory=list)   # (t0, t1): what frames_per_s divides by
    laps: list = field(default_factory=list)   # (t0, t1) of each frame-level operation
    attempted: int = 0      # operations whose outputs are checked
    failed: set = field(default_factory=set)
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)  # workload-only metrics: name -> (value, unit)
    outputs: list = field(default_factory=list)

    def timing_metrics(self, calib=NO_CALIBRATION) -> dict:
        """Frame latency percentiles and frame rate, name -> (value, unit),
        with the times brought to the reference speed by ``calib``."""
        lat_ms = [1e3 * calib.normalise(t0, t1) for t0, t1 in self.laps]
        busy_s = sum(calib.normalise(t0, t1) for t0, t1 in self.busy)
        return {"frame_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
                "frame_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
                "frames_per_s": (self.frames / busy_s, "1/s")}

    def fail(self, op, reason: str | None) -> None:
        """Count ``op`` as failed if ``reason`` is set; None fails the run itself."""
        if reason is None:
            return
        if op is not None:
            self.failed.add(op)
        self.errors.append(reason if op is None else f"op {op}: {reason}")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _model_config(size: Size, seed: int, conditional: bool) -> ModelConfig:
    return ModelConfig(dim=3, image_hw=size.image_hw, conditional=conditional, seed=seed)


def _intrinsics(size: Size) -> scenegen.CameraIntrinsics:
    return scenegen.CameraIntrinsics(width=size.image_hw, height=size.image_hw)


def _scene() -> scenegen.Scene:
    return scenegen.generate_scene(WALKTHROUGH_SCENE_SEED)


def _render_loop(scene, size: Size, count: int, factor: float):
    poses = scenegen.generate_trajectory(scene, "loop", count, 3, loop_factor=factor)
    return poses, scenegen.render_batch(scene, _intrinsics(size), poses)


def _short_trained_model(scene, size: Size, seed: int, conditional: bool) -> PoseRegressor:
    """One epoch on a training loop, so the flow's zero-initialised output
    layers are non-zero and serving runs on a model, not the identity."""
    poses, images = _render_loop(scene, size, size.short_train_frames, TRAIN_LOOP)
    model = PoseRegressor(_model_config(size, seed, conditional), scene.bounds)
    cfg = trainer.TrainConfig(epochs=1, batch=size.batch, warmup_epochs=0,
                              checkpoint_every=0, seed=seed, **TOY_RATES)
    trainer.train(model, np.array([p.as_vector() for p in poses]), images, cfg)
    return model


def _params_digest(model: PoseRegressor) -> str:
    return digest(*model.param_arrays().values())


def _deadline_reached(deadline: float, done: int) -> bool:
    return done > 0 and time.perf_counter() >= deadline


def _recheck_request(rec: Record, op: int, model: PoseRegressor, image: np.ndarray,
                     post, condition: Pose | None, rng) -> None:
    """Re-issue one request with the same rng seed (bitwise-identical
    samples) and round-trip its flow inputs through inverse and forward."""
    n = len(post.samples)
    again = localizer.localize(model, image, n, condition=condition, rng=rng(op))
    rec.fail(op, checks.bitwise_equal(again.samples, post.samples, "re-issued posterior samples"))
    y = np.repeat(model.vae.encode(image[None], mode="mean").data, n, axis=0)
    z = rng(op).standard_normal((n, 3))
    c = None if condition is None else np.tile(model.condition_vector(condition), (n, 1))
    rec.fail(op, checks.round_trip(model.flow, y, z, c))


# ---------------------------------------------------------------------------
# serve-frames
# ---------------------------------------------------------------------------

@dataclass
class ServeState:
    seed: int
    size: Size
    model: PoseRegressor
    views: np.ndarray   # (P, hw, hw, 3) renders of distinct poses
    noise: np.ndarray   # (Q, hw, hw, 3) sensor-noise fields

    @property
    def capacity(self) -> int:
        return len(self.views) * len(self.noise)

    def request_image(self, i: int) -> np.ndarray:
        """Request i: view i mod P plus noise field (i div P) mod Q, so the
        first P * Q requests are pairwise distinct."""
        p = len(self.views)
        return np.clip(self.views[i % p] + self.noise[(i // p) % len(self.noise)], 0.0, 1.0)

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 9, i])


def _serving_views(scene, intr, count: int, rng: np.random.Generator) -> np.ndarray:
    """Renders of collision-free planar poses scattered around the training
    ring, heading roughly along it. A pose whose render repeats an earlier
    one (two views of bare background look alike) is drawn again, so the
    views are pairwise distinct."""
    views, seen = [], set()
    while len(views) < count:
        phi = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(0.3, 0.45) * scene.bounds.half[:2]
        xy = scene.bounds.center[:2] + radius * np.array([np.cos(phi), np.sin(phi)])
        heading = phi + np.pi / 2.0 + rng.normal(0.0, 0.2)
        pose = Pose(np.array([xy[0], xy[1], 0.0]), np.array([heading, 0.0, 0.0]), dim=3)
        if scene.position_collides(pose.position):
            continue
        image = scenegen.render(scene, intr, pose)
        key = hashlib.sha1(image.tobytes()).digest()
        if key not in seen:
            seen.add(key)
            views.append(image)
    return np.stack(views)


def serve_setup(seed: int, size: Size, work: str):
    scene = _scene()
    model = _short_trained_model(scene, size, seed, conditional=False)
    rng = np.random.default_rng([seed, 1])
    views = _serving_views(scene, _intrinsics(size), size.serve_pool, rng)
    hw = size.image_hw
    noise = rng.normal(0.0, SENSOR_NOISE, size=(size.noise_bank, hw, hw, 3))
    st = ServeState(seed, size, model, views, noise)
    return st, digest(views, noise) + _params_digest(model)


def serve_run(st: ServeState, seconds: float, tracer, calib=NO_CALIBRATION) -> Record:
    rec = Record()
    clock = calib.clock
    start = clock()
    deadline = time.perf_counter() + seconds  # wall time, calibration included
    n = st.size.serve_samples
    i = 0
    while i < st.capacity and not _deadline_reached(deadline, i):
        image = st.request_image(i)
        tracer.op = i
        t0 = clock()
        try:
            post = localizer.localize(st.model, image, n, rng=st.rng(i))
        except Exception as e:  # a failed request is counted, the loop goes on
            post = e
        rec.laps.append((t0, clock()))
        rec.outputs.append(post)
        calib.tick()
        i += 1
    rec.busy.append((start, clock()))
    rec.ops = rec.frames = rec.attempted = i
    return rec


def serve_check(st: ServeState, rec: Record) -> None:
    for i, post in enumerate(rec.outputs):
        if isinstance(post, Exception):
            rec.fail(i, f"raised {post!r}")
        else:
            rec.fail(i, checks.posterior(post, st.size.serve_samples, 3))
    for i in range(0, rec.ops, st.size.check_every):
        if i not in rec.failed:
            _recheck_request(rec, i, st.model, st.request_image(i), rec.outputs[i], None, st.rng)
    share = checks.shared_share(st.request_image(i) for i in range(rec.ops))
    rec.extra["shared_image_share"] = (share, "ratio")
    if share != 0.0:
        rec.fail(None, f"{share:.3%} of requests repeat an earlier image")


# ---------------------------------------------------------------------------
# track-dense
# ---------------------------------------------------------------------------

@dataclass
class TrackState:
    seed: int
    size: Size
    model: PoseRegressor
    images: np.ndarray
    odometry: list      # step k moves from loop pose k - 1 to loop pose k
    start: localizer.EkfState

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 9, k])


def track_setup(seed: int, size: Size, work: str):
    scene = _scene()
    model = _short_trained_model(scene, size, seed, conditional=True)
    poses, images = _render_loop(scene, size, size.track_frames, TEST_LOOP)
    gt = np.array([p.as_vector() for p in poses])
    rng = np.random.default_rng([seed, 3])
    noise = np.array([ODOM_SIGMA_T ** 2, ODOM_SIGMA_T ** 2, ODOM_SIGMA_R ** 2])
    odometry = []
    for k in range(len(gt)):
        prev, cur = gt[k - 1], gt[k]  # k = 0 closes the loop
        c, s = np.cos(prev[2]), np.sin(prev[2])
        dx, dy = cur[:2] - prev[:2]
        odometry.append(localizer.OdometryStep(
            c * dx + s * dy + rng.normal(0.0, ODOM_SIGMA_T),
            -s * dx + c * dy + rng.normal(0.0, ODOM_SIGMA_T),
            float(wrap_angle(cur[2] - prev[2])) + rng.normal(0.0, ODOM_SIGMA_R),
            noise=noise))
    start = localizer.EkfState(gt[-1], np.diag([1e-4, 1e-4, 1e-4]))
    st = TrackState(seed, size, model, images, odometry, start)
    odo = np.array([[o.d_forward, o.d_lateral, o.d_theta] for o in odometry])
    return st, digest(images, odo) + _params_digest(model)


def track_run(st: TrackState, seconds: float, tracer, calib=NO_CALIBRATION) -> Record:
    rec = Record()
    clock = calib.clock
    start = clock()
    deadline = time.perf_counter() + seconds  # wall time, calibration included
    n, loop = st.size.track_samples, len(st.images)
    state = st.start
    k = 0
    while not _deadline_reached(deadline, k):
        j = k % loop
        tracer.op = k
        t0 = clock()
        try:
            state = localizer.ekf_predict(state, st.odometry[j])
            cond = Pose.from_vector(state.mean, 3)
            post = localizer.localize(st.model, st.images[j], n, condition=cond, rng=st.rng(k))
            meas_mean, meas_cov = localizer.posterior_measurement(post)
            state = localizer.ekf_update(state, meas_mean, meas_cov)
            modes = localizer.heading_modes(post.samples[:, 2])
        except Exception as e:  # the filter state is lost: count it and stop
            rec.laps.append((t0, clock()))
            rec.outputs.append(e)
            k += 1
            break
        rec.laps.append((t0, clock()))
        rec.outputs.append((cond, post, state, modes))
        calib.tick()
        k += 1
    rec.busy.append((start, clock()))
    rec.ops = rec.frames = rec.attempted = k
    return rec


def track_check(st: TrackState, rec: Record) -> None:
    for k, out in enumerate(rec.outputs):
        if isinstance(out, Exception):
            rec.fail(k, f"raised {out!r}")
            continue
        _, post, state, modes = out
        rec.fail(k, checks.posterior(post, st.size.track_samples, 3))
        rec.fail(k, checks.psd(state.cov))
        if not modes:
            rec.fail(k, "no heading mode")
    for k in range(0, rec.ops, st.size.check_every):
        if k not in rec.failed:
            cond, post, _, _ = rec.outputs[k]
            _recheck_request(rec, k, st.model, st.images[k % len(st.images)], post, cond,
                             st.rng)


# ---------------------------------------------------------------------------
# train-joint
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    seed: int
    size: Size
    bounds: object
    poses: np.ndarray
    images: np.ndarray
    synth_poses: np.ndarray
    synth_images: np.ndarray
    work: str

    def config(self) -> trainer.TrainConfig:
        # README toy recipe at a fixed, short epoch count: one warm-up
        # epoch, then alternating synthetic and real epochs, so the last
        # epoch and the first one after warm-up both use the synthetic pool
        return trainer.TrainConfig(epochs=self.size.train_epochs, batch=self.size.batch,
                                   mix="alternate", warmup_epochs=1, checkpoint_every=2,
                                   seed=self.seed, **TOY_RATES)


def train_setup(seed: int, size: Size, work: str):
    scene = _scene()
    intr = _intrinsics(size)
    poses, images = _render_loop(scene, size, size.train_frames, TRAIN_LOOP)
    cloud = scenegen.export_point_cloud(scene, size.cloud_points,
                                        np.random.default_rng([seed, 2]))
    accepted = sampler.sample_poses(scene, cloud, poses, intr,
                                    size.sampling(size.synth_frames, seed))
    synth = [p for p, _ in accepted]
    st = TrainState(seed, size, scene.bounds, np.array([p.as_vector() for p in poses]),
                    images, np.array([p.as_vector() for p in synth]),
                    scenegen.render_batch(scene, intr, synth), work)
    return st, digest(st.poses, st.images, st.synth_poses, st.synth_images)


def _train_job(st: TrainState, cfg: trainer.TrainConfig, out_dir: str, keep_model: bool):
    os.makedirs(out_dir)
    model = PoseRegressor(_model_config(st.size, st.seed, False), st.bounds)
    entries, opt = trainer.train(model, st.poses, st.images, cfg, synth_poses=st.synth_poses,
                                 synth_images=st.synth_images, out_dir=out_dir)
    # later jobs are compared byte for byte with the first one, so only the
    # first keeps its model: memory does not grow with the job count
    return (model, opt, entries, out_dir) if keep_model else (None, None, entries, out_dir)


def train_run(st: TrainState, seconds: float, tracer, calib=NO_CALIBRATION) -> Record:
    rec = Record()
    clock = calib.clock
    deadline = time.perf_counter() + seconds  # wall time, calibration included
    cfg = st.config()
    patcher = Patcher()
    record_durations(patcher, trainer, "train_step", rec.laps, calib)
    try:
        while not _deadline_reached(deadline, len(rec.outputs)):
            job = len(rec.outputs)
            tracer.op = job
            t0 = clock()
            try:
                result = _train_job(st, cfg, os.path.join(st.work, f"train-job{job}"),
                                    keep_model=job == 0)
            except Exception as e:  # a failed job is counted, the next one runs
                result = e
            rec.busy.append((t0, clock()))
            rec.outputs.append(result)
    finally:
        patcher.restore()
    pools = (len(st.poses), len(st.synth_poses))
    per_job = sum(pools[e % 2] for e in range(cfg.epochs))
    rec.attempted = len(rec.outputs)
    rec.frames = per_job * rec.attempted
    rec.ops = len(rec.laps)
    return rec


def train_check(st: TrainState, rec: Record) -> None:
    cfg = st.config()
    first = None
    for j, out in enumerate(rec.outputs):
        if isinstance(out, Exception):
            rec.fail(j, f"raised {out!r}")
            continue
        model, opt, entries, out_dir = out
        periodic = os.path.join(out_dir, f"epoch_{cfg.checkpoint_every:04d}.ckpt")
        if not os.path.exists(periodic):
            rec.fail(j, f"missing periodic checkpoint {periodic}")
        final = os.path.join(out_dir, "model.ckpt")
        with open(final, "rb") as f:
            blob = f.read()
        if j == 0:
            rec.fail(j, checks.loss_entries(entries, cfg.warmup_epochs))
            rec.fail(j, checks.checkpoint(final, model, opt))
            first = (entries, blob)
            rec.extra["train_loss_last"] = (entries[-1].total, "loss")
        elif first is None or [astuple(e) for e in entries] != [astuple(e) for e in first[0]] \
                or blob != first[1]:
            rec.fail(j, "rerun of the training job is not bitwise identical to the first")


# ---------------------------------------------------------------------------
# datagen
# ---------------------------------------------------------------------------

@dataclass
class DatagenState:
    seed: int
    size: Size
    scene_path: str
    data_cfg: str
    sample_cfg: str
    work: str

    def commands(self, out: str) -> list[list[str]]:
        common = ["--seed", str(self.seed), "--threads", "1", "--out", out]
        return [["gen-data", "--config", self.data_cfg, *common],
                ["sample-poses", "--config", self.sample_cfg,
                 "--data", os.path.join(out, "train.kv"), *common]]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def _quiet_cli(argv: list[str]) -> int:
    """cli.main with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def datagen_setup(seed: int, size: Size, work: str):
    """gen-scene and the config files of the README walkthrough; the
    workload seed is the --seed of the two timed commands."""
    root = os.path.join(work, "datagen-setup")
    os.makedirs(root, exist_ok=True)
    scene_cfg = _write(os.path.join(root, "scene.cfg"), "kind = scene_config\nprimitives = 5\n")
    scene_dir = os.path.join(root, "scene")
    rc = _quiet_cli(["gen-scene", "--config", scene_cfg, "--seed", str(WALKTHROUGH_SCENE_SEED),
                     "--threads", "1", "--out", scene_dir])
    if rc != 0:
        raise RuntimeError(f"gen-scene exited {rc}")
    scene_path = os.path.join(scene_dir, "scene.kv")
    data_cfg = _write(os.path.join(root, "data.cfg"), (
        f"kind = data_config\nscene = {scene_path}\ndim = 3\nimage_hw = {size.image_hw}\n"
        f"train_count = {size.data_train}\ntrain_style = loop\n"
        f"train_loop_factor = {TRAIN_LOOP}\ntest_count = {size.data_test}\n"
        f"test_style = loop\ntest_loop_factor = {TEST_LOOP}\n"))
    sample_cfg = _write(os.path.join(root, "sample.cfg"), (
        f"kind = sampling_config\ntarget = {size.data_target}\n"
        f"cloud_points = {size.cloud_points}\n"
        f"max_delta_training = {size.max_delta_training}\n"
        f"budget_factor = {size.budget_factor}\n"))
    with open(scene_path, "rb") as f:
        scene_bytes = f.read()
    st = DatagenState(seed, size, scene_path, data_cfg, sample_cfg, work)
    return st, hashlib.sha256(scene_bytes).hexdigest()


def datagen_run(st: DatagenState, seconds: float, tracer, calib=NO_CALIBRATION) -> Record:
    rec = Record()
    clock = calib.clock
    deadline = time.perf_counter() + seconds  # wall time, calibration included
    saved: list = []

    def spy(original):
        # only the first pass keeps its arrays: later passes are compared
        # file by file with it, so memory does not grow with the pass count
        def save_dataset(*args, **kwargs):
            if not rec.outputs:
                saved.append((args[1], args[2], args[3]))  # name, poses, images
            return original(*args, **kwargs)
        return save_dataset

    accepted_at: list = []

    def accept_clock(original):
        # a synthetic frame's latency is the rejection search that found it:
        # the time from the previous accepted candidate to this one
        def filter_pose(*args, **kwargs):
            result = original(*args, **kwargs)
            if result.accepted:
                accepted_at.append(clock())
            calib.tick()
            return result
        return filter_pose

    patcher = Patcher()
    patcher.wrap(dataset, "save_dataset", spy)
    patcher.wrap(sampler, "filter_pose", accept_clock)
    try:
        while not _deadline_reached(deadline, len(rec.outputs)):
            p = len(rec.outputs)
            out = os.path.join(st.work, f"datagen-pass{p}")
            codes = []
            accepted_at.clear()
            t0 = clock()
            for c, argv in enumerate(st.commands(out)):
                tracer.op = 2 * p + c
                codes.append(_quiet_cli(argv))
            rec.busy.append((t0, clock()))
            rec.laps.extend(zip(accepted_at, accepted_at[1:]))
            rec.outputs.append((out, codes, saved if p == 0 else None))
    finally:
        patcher.restore()
    rec.attempted = 2 * len(rec.outputs)
    rec.frames = len(rec.outputs) * sum(len(poses) for _, poses, _ in saved)
    rec.ops = rec.frames
    return rec


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_first_pass(st: DatagenState, rec: Record, out: str, saved: list) -> None:
    """Stored blobs equal what the commands rendered; a subset of frames
    renders again bitwise; a subset of synthetic poses re-passes the filter."""
    scene = scenegen.load_scene(st.scene_path)
    size = st.size
    intr = _intrinsics(size)
    loops = {"train": (size.data_train, TRAIN_LOOP), "test": (size.data_test, TEST_LOOP)}
    op = {"train": 0, "test": 0, "synth": 1}
    names = sorted(name for name, _, _ in saved)
    if names != ["synth", "test", "train"]:
        rec.fail(0, f"datasets written: {names}")
        return
    for name, poses, images in saved:
        loaded = dataset.load_dataset(os.path.join(out, f"{name}.kv"))
        rec.fail(op[name], checks.stored_images(loaded.images, images))
        rec.fail(op[name], checks.bitwise_equal(
            loaded.poses, np.asarray(poses, dtype=np.float32).astype(np.float64),
            f"{name} stored poses and float32 poses"))
        if name in loops:
            count, factor = loops[name]
            truth = scenegen.generate_trajectory(scene, "loop", count, 3, loop_factor=factor)
            for i in range(0, count, size.check_every):
                rec.fail(op[name], checks.bitwise_equal(
                    scenegen.render(scene, intr, truth[i]), images[i],
                    f"{name} frame {i} renders"))
        else:
            cloud = scenegen.export_point_cloud(scene, size.cloud_points,
                                                np.random.default_rng([st.seed, 2]))
            train = dataset.load_dataset(os.path.join(out, "train.kv"))
            rec.fail(op[name], checks.synthetic_poses(
                np.asarray(poses)[::size.check_every], train.poses, cloud, intr,
                size.sampling(size.data_target, st.seed)))


def datagen_check(st: DatagenState, rec: Record) -> None:
    first_files = None
    for p, (out, codes, saved) in enumerate(rec.outputs):
        for c, rc in enumerate(codes):
            if rc != 0:
                rec.fail(2 * p + c, f"command exited {rc}")
        if any(codes):
            continue
        files = {name: _file_digest(os.path.join(out, name)) for name in sorted(os.listdir(out))}
        if p == 0:
            _check_first_pass(st, rec, out, saved)
            first_files = files
        elif files != first_files:
            rec.fail(2 * p + 1, "rerun of datagen did not write bitwise identical files")


# package calls that set-ups make many times; the host's speed is sampled
# after them, so that a set-up of seconds is normalised by samples taken
# while it ran
SETUP_SAMPLE_POINTS = ((scenegen, "render"), (trainer, "train_step"), (sampler, "filter_pose"))


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    op: str   # what one operation is, for the printed report
    rate: str | None = None  # the workload's own name for frames_per_s
    setup_repeats: int | None = None  # instead of the size's, for a set-up of milliseconds


WORKLOADS = {
    "serve-frames": Workload(serve_setup, serve_run, serve_check, "request"),
    "track-dense": Workload(track_setup, track_run, track_check, "frame"),
    "train-joint": Workload(train_setup, train_run, train_check, "training step",
                            "train_samples_per_s"),
    "datagen": Workload(datagen_setup, datagen_run, datagen_check, "frame written",
                        "dataset_frames_per_s", setup_repeats=15),
}
