"""Dataset artifacts: raw little-endian float32 blobs plus a kv manifest.

Poses are planar 3-float records (x, y, theta); the manifest's
``pose_dim`` records that width and must read 3. Images are HWC float32 in
[0, 1]. The manifest pins the record counts, so a blob whose byte size
disagrees is rejected rather than silently reinterpreted. Values are
checked on save and again on load: poses must be finite and image values
finite and in [0, 1], so bad data stops where it enters the program.
Blobs are written and read in chunks of ``BLOB_CHUNK`` values, so neither
direction holds a whole-blob copy beside the float64 array.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kvconfig import as_float, as_int, as_str, ensure_keys, read_kv, write_kv
from .scenegen import CameraIntrinsics

MANIFEST_VERSION = 2

_REQUIRED = {"version", "kind", "split", "scene", "pose_dim", "count",
             "image_h", "image_w", "hfov", "poses_blob", "images_blob", "seed"}
SPLITS = ("train", "test", "synth")
BLOB_CHUNK = 1 << 17  # float values cast and moved per blob write or read


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

    @property
    def count(self) -> int:
        return len(self.poses)


def save_dataset(out_dir, name: str, poses: np.ndarray, images: np.ndarray,
                 scene_file: str, intr: CameraIntrinsics, seed: int) -> str:
    """Write {name}_poses.f32, {name}_images.f32 and {name}.kv; returns the
    manifest path. ``name`` is the split, one of ``SPLITS``. Blob paths in
    the manifest are relative to its directory."""
    poses = np.asarray(poses, dtype=np.float64)
    images = np.asarray(images, dtype=np.float64)
    if poses.ndim != 2 or poses.shape[1] != 3:
        raise ConfigError(f"poses must be (n, 3), got {poses.shape}")
    if images.shape != (len(poses), intr.height, intr.width, 3):
        raise ConfigError(
            f"images must be ({len(poses)}, {intr.height}, {intr.width}, 3), "
            f"got {images.shape}")
    if name not in SPLITS:
        raise ConfigError(f"split must be one of {SPLITS}, got {name!r}")
    poses_blob = f"{name}_poses.f32"
    images_blob = f"{name}_images.f32"
    poses_path = os.path.join(out_dir, poses_blob)
    images_path = os.path.join(out_dir, images_blob)
    # checked as stored: a finite pose beyond float32's range would be inf
    with np.errstate(over="ignore"):
        poses32 = np.ascontiguousarray(poses, dtype="<f4")
    if not np.all(np.isfinite(poses32)):
        raise ConfigError(f"blob {poses_path}: pose values must be finite as float32")
    if not _in_unit_range(images):
        raise ConfigError(f"blob {images_path}: image values must be finite and lie in [0, 1]")

    with open(poses_path, "wb") as f:
        f.write(poses32)
    flat = images.reshape(-1)
    with open(images_path, "wb") as f:
        for at in range(0, flat.size, BLOB_CHUNK):
            f.write(flat[at:at + BLOB_CHUNK].astype("<f4"))

    manifest = os.path.join(out_dir, f"{name}.kv")
    write_kv(manifest, {
        "version": str(MANIFEST_VERSION),
        "kind": "dataset",
        "split": name,
        "scene": scene_file,
        "pose_dim": str(poses.shape[1]),
        "count": str(len(poses)),
        "image_h": str(intr.height),
        "image_w": str(intr.width),
        "hfov": repr(float(intr.hfov)),
        "poses_blob": poses_blob,
        "images_blob": images_blob,
        "seed": str(int(seed)),
    })
    return manifest


def load_dataset(manifest_path) -> Dataset:
    """Parse the manifest, validate blob sizes exactly, and load both blobs;
    a non-finite pose, or an image value that is not finite or lies outside
    [0, 1], rejects its blob."""
    manifest_path = os.fspath(manifest_path)
    pairs = read_kv(manifest_path)
    # the version before the key set, which differs between versions; a
    # missing version is one of the missing keys
    version = as_int(pairs, "version") if "version" in pairs else MANIFEST_VERSION
    if version != MANIFEST_VERSION:
        raise ConfigError(f"{manifest_path}: unsupported manifest version {version}")
    ensure_keys(pairs, _REQUIRED, source=manifest_path)
    if as_str(pairs, "kind") != "dataset":
        raise ConfigError(f"{manifest_path}: not a dataset manifest")

    dim = as_int(pairs, "pose_dim")
    if dim != 3:
        raise ConfigError(f"{manifest_path}: pose_dim must be 3 (planar poses only), got {dim}")
    count = as_int(pairs, "count")
    if count < 0:
        raise ConfigError(f"{manifest_path}: count must be >= 0, got {count}")
    h, w = as_int(pairs, "image_h"), as_int(pairs, "image_w")
    intr = CameraIntrinsics(width=w, height=h, hfov=as_float(pairs, "hfov"))

    base = os.path.dirname(manifest_path)
    poses_path = os.path.join(base, as_str(pairs, "poses_blob"))
    images_path = os.path.join(base, as_str(pairs, "images_blob"))
    poses = _read_blob(poses_path, count * dim, manifest_path).reshape(count, dim)
    if not np.all(np.isfinite(poses)):
        raise ConfigError(f"{manifest_path}: blob {poses_path} holds a non-finite pose")
    images = _read_blob(images_path, count * h * w * 3, manifest_path).reshape(count, h, w, 3)
    if not _in_unit_range(images):
        raise ConfigError(f"{manifest_path}: blob {images_path} holds an image value "
                          "that is not finite or lies outside [0, 1]")
    return Dataset(poses=poses, images=images, pose_dim=dim, intrinsics=intr,
                   scene_path=os.path.join(base, as_str(pairs, "scene")),
                   split=as_str(pairs, "split", allowed=SPLITS),
                   seed=as_int(pairs, "seed"))


def _in_unit_range(values: np.ndarray) -> bool:
    """Every value finite and in [0, 1]; NaN fails, as min and max carry it.
    An empty array passes."""
    return values.size == 0 or bool(values.min() >= 0.0 and values.max() <= 1.0)


def _read_blob(path: str, n_values: int, manifest: str) -> np.ndarray:
    """The blob's float32 values as float64, cast chunk by chunk into the
    result; its byte size must be exactly ``4 * n_values``."""
    out = np.empty(n_values)
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size == 4 * n_values:
                buf = np.empty(min(n_values, BLOB_CHUNK), dtype="<f4")
                for at in range(0, n_values, BLOB_CHUNK):
                    part = buf[:n_values - at]
                    got = f.readinto(part)
                    if got != part.nbytes:  # the file shrank while it was read
                        size = 4 * at + got
                        break
                    out[at:at + len(part)] = part
    except OSError as e:
        raise ConfigError(f"{manifest}: cannot read blob {path}: {e}") from e
    if size != 4 * n_values:
        raise ConfigError(
            f"{manifest}: blob {path} holds {size} bytes, "
            f"expected exactly {4 * n_values} ({n_values} float32 values)")
    return out
