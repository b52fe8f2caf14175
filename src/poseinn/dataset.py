"""Dataset artifacts: raw little-endian float32 blobs plus a kv manifest.

Poses are d-float records (x, y, theta) or (x, y, z, tz, tx, ty); images are
HWC float32 in [0, 1]. The manifest pins the record counts, so a blob whose
byte size disagrees is rejected rather than silently reinterpreted. Values
are checked on save and again on load: poses must be finite and image
values finite and in [0, 1], so bad data stops where it enters the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kvconfig import as_float, as_int, as_str, ensure_keys, read_kv, write_kv
from .scenegen import CameraIntrinsics

MANIFEST_VERSION = 1

_REQUIRED = {"version", "kind", "split", "scene", "pose_dim", "count",
             "image_h", "image_w", "hfov", "poses_blob", "images_blob",
             "seed", "config_hash"}
SPLITS = ("train", "test", "synth")


@dataclass(frozen=True)
class Dataset:
    """In-memory dataset: float64 views of the stored float32 records."""

    poses: np.ndarray
    images: np.ndarray
    pose_dim: int
    intrinsics: CameraIntrinsics
    scene_path: str
    split: str
    seed: int
    config_hash: str

    @property
    def count(self) -> int:
        return len(self.poses)


def save_dataset(out_dir, name: str, poses: np.ndarray, images: np.ndarray,
                 scene_file: str, intr: CameraIntrinsics, seed: int,
                 config_hash: str, split: str = "train") -> str:
    """Write {name}_poses.f32, {name}_images.f32 and {name}.kv; returns the
    manifest path. Blob paths in the manifest are relative to its directory."""
    poses = np.asarray(poses, dtype=np.float64)
    images = np.asarray(images, dtype=np.float64)
    if poses.ndim != 2 or poses.shape[1] not in (3, 6):
        raise ConfigError(f"poses must be (n, 3) or (n, 6), got {poses.shape}")
    if images.shape != (len(poses), intr.height, intr.width, 3):
        raise ConfigError(
            f"images must be ({len(poses)}, {intr.height}, {intr.width}, 3), "
            f"got {images.shape}")
    if split not in SPLITS:
        raise ConfigError(f"split must be one of {SPLITS}, got {split!r}")
    poses_blob = f"{name}_poses.f32"
    images_blob = f"{name}_images.f32"
    poses_path = os.path.join(out_dir, poses_blob)
    images_path = os.path.join(out_dir, images_blob)
    # checked as stored: a finite pose beyond float32's range would be inf
    with np.errstate(over="ignore"):
        poses32 = np.ascontiguousarray(poses, dtype="<f4")
    if not np.all(np.isfinite(poses32)):
        raise ConfigError(f"blob {poses_path}: pose values must be finite as float32")
    # written so that NaN fails it too
    if not np.all((images >= 0) & (images <= 1)):
        raise ConfigError(f"blob {images_path}: image values must be finite and lie in [0, 1]")

    with open(poses_path, "wb") as f:
        f.write(poses32.tobytes())
    with open(images_path, "wb") as f:
        f.write(np.ascontiguousarray(images, dtype="<f4").tobytes())

    manifest = os.path.join(out_dir, f"{name}.kv")
    write_kv(manifest, {
        "version": str(MANIFEST_VERSION),
        "kind": "dataset",
        "split": split,
        "scene": scene_file,
        "pose_dim": str(poses.shape[1]),
        "count": str(len(poses)),
        "image_h": str(intr.height),
        "image_w": str(intr.width),
        "hfov": repr(float(intr.hfov)),
        "poses_blob": poses_blob,
        "images_blob": images_blob,
        "seed": str(int(seed)),
        "config_hash": config_hash,
    })
    return manifest


def load_dataset(manifest_path) -> Dataset:
    """Parse the manifest, validate blob sizes exactly, and load both blobs;
    a non-finite pose, or an image value that is not finite or lies outside
    [0, 1], rejects its blob."""
    manifest_path = os.fspath(manifest_path)
    pairs = read_kv(manifest_path)
    ensure_keys(pairs, _REQUIRED, source=manifest_path)
    version = as_int(pairs, "version")
    if version != MANIFEST_VERSION:
        raise ConfigError(f"{manifest_path}: unsupported manifest version {version}")
    if as_str(pairs, "kind") != "dataset":
        raise ConfigError(f"{manifest_path}: not a dataset manifest")

    dim = as_int(pairs, "pose_dim")
    if dim not in (3, 6):
        raise ConfigError(f"{manifest_path}: pose_dim must be 3 or 6, got {dim}")
    count = as_int(pairs, "count")
    h, w = as_int(pairs, "image_h"), as_int(pairs, "image_w")
    intr = CameraIntrinsics(width=w, height=h, hfov=as_float(pairs, "hfov"))

    base = os.path.dirname(manifest_path)
    poses_path = os.path.join(base, as_str(pairs, "poses_blob"))
    images_path = os.path.join(base, as_str(pairs, "images_blob"))
    poses = _read_blob(poses_path, count * dim, manifest_path).reshape(count, dim)
    if not np.all(np.isfinite(poses)):
        raise ConfigError(f"{manifest_path}: blob {poses_path} holds a non-finite pose")
    images = _read_blob(images_path, count * h * w * 3, manifest_path).reshape(count, h, w, 3)
    if not np.all((images >= 0) & (images <= 1)):
        raise ConfigError(f"{manifest_path}: blob {images_path} holds an image value "
                          "that is not finite or lies outside [0, 1]")
    return Dataset(poses=poses, images=images, pose_dim=dim, intrinsics=intr,
                   scene_path=os.path.join(base, as_str(pairs, "scene")),
                   split=as_str(pairs, "split", allowed=SPLITS),
                   seed=as_int(pairs, "seed"),
                   config_hash=as_str(pairs, "config_hash"))


def _read_blob(path: str, n_values: int, manifest: str) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise ConfigError(f"{manifest}: cannot read blob {path}: {e}") from e
    if len(raw) != 4 * n_values:
        raise ConfigError(
            f"{manifest}: blob {path} holds {len(raw)} bytes, "
            f"expected exactly {4 * n_values} ({n_values} float32 values)")
    return np.frombuffer(raw, dtype="<f4").astype(np.float64)
