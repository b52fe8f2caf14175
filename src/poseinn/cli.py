"""Command-line pipeline: scene generation, dataset rendering, pose
augmentation, training, evaluation and tracking, which fuses odometry
through an EKF.

Every artifact a command writes is a pure function of its inputs and the
root --seed, so a rerun at the same BLAS thread count produces
bitwise-identical bytes. --threads only prints a warning; pin BLAS with
OPENBLAS_NUM_THREADS=1 instead. Timing goes to stdout only, never into
files. Config files are strict key-value text: an unknown key is an error,
not a silent default.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import shutil
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import dataset as ds
from . import localizer as loc
from . import sampler as sp
from . import scenegen as sg
from . import trainer as tr
from .errors import ConditioningError, ConfigError, PoseInnError
from .geometry import Aabb, Pose, wrap_angle
from .kvconfig import as_float, as_floats, as_int, as_str, ensure_keys, read_kv, \
    read_text, write_kv
from .model import ModelConfig, PoseRegressor

log = logging.getLogger("poseinn")

_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("POSEINN_LOG", "error")
    if name not in _LEVELS:
        raise ConfigError(f"POSEINN_LOG must be one of {sorted(_LEVELS)}, got {name!r}")
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(_LEVELS[name])


class _OutputDir:
    """Creates the output directory and holds a lockfile while the command
    runs; a second command pointed at the same directory fails fast instead
    of interleaving writes."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self.lock = os.path.join(self.path, ".lock")
        self.fd = -1

    def __enter__(self) -> str:
        os.makedirs(self.path, exist_ok=True)
        try:
            self.fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output dir {self.path} is locked by another run "
                f"(remove {self.lock} if stale)") from None
        return self.path

    def __exit__(self, *exc) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            os.unlink(self.lock)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _read_config(path, kind: str, optional: set[str],
                 required: set[str] = frozenset()) -> dict[str, str]:
    """Strict-parse a config file into its key-value pairs."""
    pairs = read_kv(path)
    ensure_keys(pairs, required | {"kind"}, optional, source=str(path))
    if as_str(pairs, "kind") != kind:
        raise ConfigError(f"{path}: kind must be '{kind}', got {pairs['kind']!r}")
    return pairs


def _reject_unread(pairs: dict[str, str], keys: set[str], path, why: str) -> None:
    """A config key that the chosen mode would ignore is an error, like an
    unknown key; the one error line names every such key present."""
    present = sorted(keys & pairs.keys())
    if present:
        raise ConfigError(f"{path}: keys not read {why}: {present}")


def _gi(pairs: dict[str, str], key: str, default: int) -> int:
    return as_int(pairs, key) if key in pairs else default


def _gs(pairs, key: str, default: str, allowed=None) -> str:
    return as_str(pairs, key, allowed=allowed) if key in pairs else default


def _resolve(base_file, path: str) -> str:
    """Paths inside a config/manifest are relative to that file's directory."""
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(os.fspath(base_file))), path)


def _copy_scene(scene_path: str, out: str) -> None:
    """Place the scene file inside the output dir so datasets are portable."""
    dst = os.path.join(out, "scene.kv")
    if os.path.abspath(scene_path) != os.path.abspath(dst):
        shutil.copyfile(scene_path, dst)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    """Raw and variance-filtered localization errors over evaluated frames.

    Translation in meters, rotation in degrees; median and mean are both
    reported since neither subsumes the other under heavy-tailed errors.
    """

    n_frames: int
    n_kept: int
    raw_median_trans: float
    raw_mean_trans: float
    raw_median_rot: float
    raw_mean_rot: float
    filt_median_trans: float
    filt_mean_trans: float
    filt_median_rot: float
    filt_mean_rot: float
    trans_errors: np.ndarray
    rot_errors: np.ndarray
    uncertainties: np.ndarray
    kept: np.ndarray


def pose_errors(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(translation error m, wrapped heading error deg) between two
    (x, y, theta) pose vectors."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    t = float(np.linalg.norm(pred[:2] - gt[:2]))
    r = abs(float(wrap_angle(pred[2] - gt[2])))
    return t, float(np.degrees(r))


def evaluate_posteriors(posteriors: list, gt_poses: np.ndarray) -> MetricsReport:
    """Score posteriors against ground truth and apply the variance filter.

    Exposed separately from cmd_eval so a posterior can be substituted
    directly (e.g. forced to ground truth to sanity-check the zero of the
    error metric).
    """
    n = len(posteriors)
    if n == 0:
        raise ConfigError("empty test split: nothing to evaluate")
    gt_poses = np.asarray(gt_poses, dtype=np.float64)
    if gt_poses.shape != (n, 3):
        raise ConfigError(f"ground truth shape {gt_poses.shape} != ({n}, 3)")

    errs = np.array([pose_errors(p.mean, gt_poses[i]) for i, p in enumerate(posteriors)])
    unc = np.array([p.scalar_uncertainty() for p in posteriors])
    kept = loc.variance_filter(posteriors)[0] if n >= 2 else np.ones(1, dtype=bool)

    te, re = errs[:, 0], errs[:, 1]
    return MetricsReport(
        n_frames=n, n_kept=int(np.sum(kept)),
        raw_median_trans=float(np.median(te)), raw_mean_trans=float(np.mean(te)),
        raw_median_rot=float(np.median(re)), raw_mean_rot=float(np.mean(re)),
        filt_median_trans=float(np.median(te[kept])), filt_mean_trans=float(np.mean(te[kept])),
        filt_median_rot=float(np.median(re[kept])), filt_mean_rot=float(np.mean(re[kept])),
        trans_errors=te, rot_errors=re, uncertainties=unc, kept=kept)


def _report_fields(rep: MetricsReport) -> dict[str, str]:
    return {
        "n_frames": str(rep.n_frames),
        "n_kept": str(rep.n_kept),
        "raw_median_trans_m": repr(rep.raw_median_trans),
        "raw_mean_trans_m": repr(rep.raw_mean_trans),
        "raw_median_rot_deg": repr(rep.raw_median_rot),
        "raw_mean_rot_deg": repr(rep.raw_mean_rot),
        "filt_median_trans_m": repr(rep.filt_median_trans),
        "filt_mean_trans_m": repr(rep.filt_mean_trans),
        "filt_median_rot_deg": repr(rep.filt_median_rot),
        "filt_mean_rot_deg": repr(rep.filt_mean_rot),
    }


def _frames_table(rep: MetricsReport) -> str:
    lines = ["frame\terr_trans_m\terr_rot_deg\tuncertainty\tkept"]
    for i in range(rep.n_frames):
        lines.append(f"{i}\t{float(rep.trans_errors[i])!r}\t{float(rep.rot_errors[i])!r}"
                     f"\t{float(rep.uncertainties[i])!r}\t{int(rep.kept[i])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_scene(args) -> None:
    pairs = _read_config(args.config, "scene_config",
                         optional={"bounds", "primitives", "symmetric"})
    bounds = None
    if "bounds" in pairs:
        b = as_floats(pairs, "bounds", 6)
        bounds = Aabb(b[:3], b[3:])
    if _gi(pairs, "symmetric", 0):
        _reject_unread(pairs, {"primitives"}, args.config, "when symmetric = 1")
        scene = sg.generate_symmetric_scene(args.seed, bounds)
    else:
        scene = sg.generate_scene(args.seed, bounds, _gi(pairs, "primitives", 5))
    with _OutputDir(args.out) as out:
        sg.save_scene(scene, os.path.join(out, "scene.kv"))
    print(f"scene.kv: {len(scene.primitives)} primitives, seed {args.seed}")


def cmd_gen_data(args) -> None:
    pairs = _read_config(
        args.config, "data_config", required={"scene"},
        optional={"dim", "image_hw", "train_count", "test_count",
                  "train_style", "test_style", "train_loop_factor",
                  "test_loop_factor"})
    scene_path = _resolve(args.config, as_str(pairs, "scene"))
    scene = sg.load_scene(scene_path)
    dim = _gi(pairs, "dim", 3)
    hw = _gi(pairs, "image_hw", 32)
    intr = sg.CameraIntrinsics(width=hw, height=hw)
    styles = {"loop", "grid"}
    t0 = time.perf_counter()
    splits = {}
    for split, default_style, default_count in (("train", "loop", 200), ("test", "grid", 50)):
        style = _gs(pairs, f"{split}_style", default_style, styles)
        factor = f"{split}_loop_factor"
        if style == "grid":
            _reject_unread(pairs, {factor}, args.config, f"when {split}_style = grid")
        splits[split] = sg.generate_trajectory(
            scene, style, _gi(pairs, f"{split}_count", default_count), dim,
            loop_factor=as_float(pairs, factor) if factor in pairs else None)
    with _OutputDir(args.out) as out:
        _copy_scene(scene_path, out)
        for split, poses in splits.items():
            images = sg.render_batch(scene, intr, poses)
            vecs = np.array([p.as_vector() for p in poses])
            ds.save_dataset(out, split, vecs, images, "scene.kv", intr, args.seed)
            log.info("%s split: %d frames", split, len(poses))
    dt = time.perf_counter() - t0
    print(f"rendered {len(splits['train'])} train + {len(splits['test'])} test "
          f"frames ({hw}x{hw}) in {dt:.1f} s")


def cmd_sample_poses(args) -> None:
    pairs = _read_config(
        args.config, "sampling_config",
        optional={"target", "max_delta_training", "widen", "budget_factor",
                  "cloud_points"})
    data = ds.load_dataset(args.data)
    scene = sg.load_scene(data.scene_path)
    cfg = _sampling_config(pairs, args.seed)
    t0 = time.perf_counter()
    cloud = sg.export_point_cloud(scene, _gi(pairs, "cloud_points", 20000),
                                  np.random.default_rng([args.seed, 2]))
    training = [Pose.from_vector(v, data.pose_dim) for v in data.poses]
    accepted = sp.sample_poses(scene, cloud, training, data.intrinsics, cfg)
    poses = np.array([p.as_vector() for p, _ in accepted])
    images = sg.render_batch(scene, data.intrinsics, [p for p, _ in accepted])
    with _OutputDir(args.out) as out:
        _copy_scene(data.scene_path, out)
        manifest = ds.save_dataset(out, "synth", poses, images, "scene.kv",
                                   data.intrinsics, args.seed)
    dt = time.perf_counter() - t0
    print(f"{manifest}: {len(poses)} synthetic frames in {dt:.1f} s")


_FIELD_PARSERS = {"int": as_int, "float": as_float, "str": as_str,
                  "bool": lambda pairs, key: bool(as_int(pairs, key))}
_MODEL_FROM_DATA = {"dim", "image_hw", "seed"}


def _config_fields(pairs: dict[str, str], cls, skip: set[str]) -> dict:
    """The keys of dataclass ``cls`` present in ``pairs``, parsed by field
    type; absent keys keep the dataclass default, which lives only there."""
    return {f.name: _FIELD_PARSERS[f.type](pairs, f.name) for f in fields(cls)
            if f.name not in skip and f.name in pairs}


def _sampling_config(pairs: dict[str, str], seed: int) -> sp.SamplingConfig:
    return sp.SamplingConfig(**_config_fields(pairs, sp.SamplingConfig, {"seed"}), seed=seed)


def _train_config(pairs: dict[str, str], seed: int) -> tr.TrainConfig:
    return tr.TrainConfig(**_config_fields(pairs, tr.TrainConfig, {"seed"}), seed=seed)


def _model_config(pairs: dict[str, str], data: ds.Dataset, seed: int) -> ModelConfig:
    kw = _config_fields(pairs, ModelConfig, _MODEL_FROM_DATA)
    return ModelConfig(dim=data.pose_dim, image_hw=data.intrinsics.height, seed=seed, **kw)


_TRAIN_KEYS = ({f.name for f in fields(tr.TrainConfig)} - {"seed"}) \
    | ({f.name for f in fields(ModelConfig)} - _MODEL_FROM_DATA)


def _check_model_data(cfg: ModelConfig, data: ds.Dataset, what: str) -> None:
    if cfg.image_hw != data.intrinsics.height or cfg.image_hw != data.intrinsics.width:
        raise ConfigError(
            f"{what}: model expects {cfg.image_hw}x{cfg.image_hw} images, dataset has "
            f"{data.intrinsics.height}x{data.intrinsics.width}")


def cmd_train(args) -> None:
    pairs = _read_config(args.config, "train_config", optional=_TRAIN_KEYS)
    data = ds.load_dataset(args.data)
    if data.intrinsics.width != data.intrinsics.height:
        raise ConfigError("training needs square images")
    if data.count == 0:
        raise ConfigError("empty training split")
    synth = ds.load_dataset(args.synth) if args.synth else None
    if synth is not None and synth.intrinsics != data.intrinsics:
        raise ConfigError("synthetic split does not match training split")

    cfg = _train_config(pairs, args.seed)
    if args.resume:
        ck = tr.load_checkpoint(args.resume)
        model, start = ck.model, ck.epoch
        _check_model_data(model.config, data, f"resume {args.resume}")
        for name, value in _config_fields(pairs, ModelConfig, _MODEL_FROM_DATA).items():
            have = getattr(model.config, name)
            if value != have:
                raise ConfigError(f"resume {args.resume}: {name} is {value} in "
                                  f"{args.config} but {have} in the checkpoint")
        if start >= cfg.epochs:
            raise ConfigError(
                f"checkpoint is already at epoch {start}; set epochs > {start}")
        opt = tr.restore_optimizer(ck)
    else:
        scene = sg.load_scene(data.scene_path)
        model = PoseRegressor(_model_config(pairs, data, args.seed), scene.bounds)
        start, opt = 0, None

    t0 = time.perf_counter()
    with _OutputDir(args.out) as out:
        entries, _ = tr.train(model, data.poses, data.images, cfg,
                              synth_poses=None if synth is None else synth.poses,
                              synth_images=None if synth is None else synth.images,
                              out_dir=out, start_epoch=start, opt=opt)
        with open(os.path.join(out, "loss.tsv"), "w", encoding="utf-8") as f:
            f.write(tr.format_loss_table(entries))
    dt = time.perf_counter() - t0
    print(f"trained epochs {start}..{cfg.epochs - 1} in {dt:.1f} s; "
          f"final total loss {entries[-1].total:.6f}")


def cmd_eval(args) -> None:
    ck = tr.load_checkpoint(args.ckpt)
    model = ck.model
    if model.config.conditional:
        raise ConditioningError(
            "conditional checkpoints need a pose prior per frame; use the track command")
    data = ds.load_dataset(args.data)
    if data.count == 0:
        raise ConfigError("empty test split: nothing to evaluate")
    _check_model_data(model.config, data, str(args.ckpt))
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")

    t0 = time.perf_counter()
    posteriors = [loc.localize(model, data.images[i], args.samples,
                               rng=np.random.default_rng([args.seed, i]))
                  for i in range(data.count)]
    rep = evaluate_posteriors(posteriors, data.poses)
    with _OutputDir(args.out) as out:
        write_kv(os.path.join(out, "report.kv"),
                 {"kind": "eval_report", "version": "1",
                  "seed": str(args.seed), "n_samples": str(args.samples),
                  **_report_fields(rep)})
        with open(os.path.join(out, "frames.tsv"), "w", encoding="utf-8") as f:
            f.write(_frames_table(rep))
    dt = time.perf_counter() - t0
    print(f"evaluated {rep.n_frames} frames in {dt:.1f} s")
    print(f"raw:      median {rep.raw_median_trans:.4f} m / {rep.raw_median_rot:.2f} deg, "
          f"mean {rep.raw_mean_trans:.4f} m / {rep.raw_mean_rot:.2f} deg")
    print(f"filtered: median {rep.filt_median_trans:.4f} m / {rep.filt_median_rot:.2f} deg, "
          f"mean {rep.filt_mean_trans:.4f} m / {rep.filt_mean_rot:.2f} deg "
          f"({rep.n_kept}/{rep.n_frames} kept)")


def _read_odom(path, n_frames: int, noise_var: np.ndarray) -> list[loc.OdometryStep]:
    """One 'd_forward d_lateral d_theta' line per frame, body-frame meters/rad."""
    lines = [ln.strip() for ln in read_text(path).splitlines()
             if ln.strip() and not ln.startswith("#")]
    if len(lines) != n_frames:
        raise ConfigError(f"{path}: {len(lines)} odometry lines for {n_frames} frames")
    steps = []
    for i, ln in enumerate(lines):
        tok = ln.split()
        if len(tok) != 3:
            raise ConfigError(f"{path}: line {i + 1}: expected 3 values, got {len(tok)}")
        try:
            df, dl, dth = (float(t) for t in tok)
        except ValueError:
            raise ConfigError(f"{path}: line {i + 1}: not parseable as floats") from None
        steps.append(loc.OdometryStep(df, dl, dth, noise=noise_var))
    return steps


def _finite_floats(pairs: dict[str, str], key: str, path,
                   default: np.ndarray | None = None) -> np.ndarray:
    """Three finite floats from ``key``, or ``default`` when it is absent."""
    if key not in pairs:
        return default
    vals = as_floats(pairs, key, 3)
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{path}: key '{key}' must be finite, got {pairs[key]!r}")
    return vals


def cmd_track(args) -> None:
    pairs = _read_config(args.config, "track_config", required={"init"},
                         optional={"n_samples", "init_var", "odom_var"})
    init = _finite_floats(pairs, "init", args.config)
    init_var = _finite_floats(pairs, "init_var", args.config, np.array([1e-2, 1e-2, 1e-2]))
    odom_var = _finite_floats(pairs, "odom_var", args.config, np.array([1e-4, 1e-4, 7.6e-5]))
    n_samples = _gi(pairs, "n_samples", 50)
    ck = tr.load_checkpoint(args.ckpt)
    model = ck.model
    data = ds.load_dataset(args.data)
    if data.count == 0:
        raise ConfigError("empty test split: nothing to track")
    _check_model_data(model.config, data, str(args.ckpt))

    t0 = time.perf_counter()
    means = np.zeros((data.count, 3))
    variances = np.zeros((data.count, 3))
    steps = _read_odom(args.odom, data.count, odom_var)
    state = loc.EkfState(init, np.diag(init_var))
    for i in range(data.count):
        state = loc.ekf_predict(state, steps[i])
        cond = Pose.from_vector(state.mean, 3) if model.config.conditional else None
        post = loc.localize(model, data.images[i], n_samples, condition=cond,
                            rng=np.random.default_rng([args.seed, i]))
        state = loc.ekf_update(state, *loc.posterior_measurement(post))
        means[i] = state.mean
        variances[i] = np.diag(state.cov)

    errs = np.array([pose_errors(means[i], data.poses[i]) for i in range(data.count)])
    with _OutputDir(args.out) as out:
        lines = ["frame\tx\ty\ttheta\tvar_x\tvar_y\tvar_theta\terr_trans_m\terr_rot_deg"]
        for i in range(data.count):
            lines.append("\t".join([str(i)] + [repr(float(v)) for v in
                                              (*means[i], *variances[i], *errs[i])]))
        with open(os.path.join(out, "track.tsv"), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        write_kv(os.path.join(out, "report.kv"), {
            "kind": "track_report", "version": "2",
            "seed": str(args.seed), "n_frames": str(data.count),
            "median_trans_m": repr(float(np.median(errs[:, 0]))),
            "mean_trans_m": repr(float(np.mean(errs[:, 0]))),
            "median_rot_deg": repr(float(np.median(errs[:, 1]))),
            "mean_rot_deg": repr(float(np.mean(errs[:, 1]))),
        })
    dt = time.perf_counter() - t0
    print(f"tracked {data.count} frames in {dt:.1f} s; median "
          f"{float(np.median(errs[:, 0])):.4f} m / {float(np.median(errs[:, 1])):.2f} deg")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line machine-parsable usage errors
        self.exit(2, f"ERROR usage: {message}\n")


_COMMANDS = {
    "gen-scene": cmd_gen_scene,
    "gen-data": cmd_gen_data,
    "sample-poses": cmd_sample_poses,
    "train": cmd_train,
    "eval": cmd_eval,
    "track": cmd_track,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use. Every default is
    immutable, and parse_args fills a fresh namespace per call."""
    p = _Parser(prog="poseinn",
                description="Pose regression via invertible image-to-pose flows.")
    sub = p.add_subparsers(dest="verb", required=True, metavar="VERB")

    def add(verb, **extra_help):
        q = sub.add_parser(verb, help=extra_help.get("help", ""))
        q.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
        q.add_argument("--threads", type=int, default=1,
                       help="sets no thread count; above 1 only prints a warning")
        q.add_argument("--out", required=True, help="output directory")
        return q

    q = add("gen-scene", help="generate a random scene file")
    q.add_argument("--config", required=True)
    q = add("gen-data", help="render train/test splits along trajectories")
    q.add_argument("--config", required=True)
    q = add("sample-poses", help="augment a dataset with filtered synthetic poses")
    q.add_argument("--config", required=True)
    q.add_argument("--data", required=True, help="training split manifest")
    q = add("train", help="train a model on a dataset")
    q.add_argument("--config", required=True)
    q.add_argument("--data", required=True, help="training split manifest")
    q.add_argument("--synth", help="optional synthetic split manifest")
    q.add_argument("--resume", help="checkpoint to continue from")
    q = add("eval", help="per-frame localization metrics on a test split")
    q.add_argument("--ckpt", required=True)
    q.add_argument("--data", required=True, help="test split manifest")
    q.add_argument("--samples", type=int, default=50,
                   help="posterior samples per frame (default 50)")
    q = add("track", help="localize an image stream, fused with odometry")
    q.add_argument("--config", required=True)
    q.add_argument("--ckpt", required=True)
    q.add_argument("--data", required=True, help="ordered frames manifest")
    q.add_argument("--odom", required=True,
                   help="odometry to fuse, one 'df dl dtheta' line per frame")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.threads > 1:
            print(f"WARNING: --threads {args.threads} voids bitwise determinism",
                  file=sys.stderr)
        _COMMANDS[args.verb](args)
    except PoseInnError as e:
        print(f"ERROR {e.code}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"ERROR io: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"ERROR memory: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
