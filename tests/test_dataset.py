import os

import numpy as np
import pytest

import poseinn.dataset as ds
from poseinn.errors import ConfigError
from poseinn.scenegen import CameraIntrinsics

INTR = CameraIntrinsics(width=8, height=8, hfov=np.deg2rad(90.0))


def make(tmp_path, n=5, dim=3, name="train"):
    rng = np.random.default_rng(0)
    poses = rng.uniform(-1, 1, (n, dim))
    images = rng.uniform(0, 1, (n, 8, 8, 3))
    path = ds.save_dataset(tmp_path, name, poses, images, "scene.kv", INTR,
                           seed=42, config_hash="abc123")
    return path, poses, images


class TestRoundTrip:
    def test_values_survive_at_float32_precision(self, tmp_path):
        path, poses, images = make(tmp_path)
        d = ds.load_dataset(path)
        # storage is float32, so round-trip equals an explicit down-up cast
        assert np.array_equal(d.poses, poses.astype(np.float32).astype(np.float64))
        assert np.array_equal(d.images, images.astype(np.float32).astype(np.float64))
        assert d.poses.dtype == np.float64 and d.images.dtype == np.float64

    def test_metadata(self, tmp_path):
        path, _, _ = make(tmp_path, n=7)
        d = ds.load_dataset(path)
        assert d.count == 7
        assert d.pose_dim == 3
        assert d.seed == 42
        assert d.config_hash == "abc123"
        assert d.intrinsics.width == 8 and d.intrinsics.height == 8
        assert abs(d.intrinsics.hfov - INTR.hfov) < 1e-15
        assert d.scene_path == os.path.join(str(tmp_path), "scene.kv")

    def test_dim6(self, tmp_path):
        path, poses, _ = make(tmp_path, dim=6)
        d = ds.load_dataset(path)
        assert d.pose_dim == 6
        assert d.poses.shape == (5, 6)

    def test_blob_bytes_little_endian_f32(self, tmp_path):
        path, poses, _ = make(tmp_path, name="t")
        raw = open(os.path.join(tmp_path, "t_poses.f32"), "rb").read()
        assert raw == np.ascontiguousarray(poses, dtype="<f4").tobytes()

    def test_save_twice_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        p1, _, _ = make(a)
        p2, _, _ = make(b)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert (open(a / "train_images.f32", "rb").read()
                == open(b / "train_images.f32", "rb").read())


class TestValidation:
    def test_truncated_poses_blob(self, tmp_path):
        path, _, _ = make(tmp_path)
        blob = os.path.join(tmp_path, "train_poses.f32")
        raw = open(blob, "rb").read()
        open(blob, "wb").write(raw[:-4])
        with pytest.raises(ConfigError, match="bytes"):
            ds.load_dataset(path)

    def test_oversized_images_blob(self, tmp_path):
        path, _, _ = make(tmp_path)
        with open(os.path.join(tmp_path, "train_images.f32"), "ab") as f:
            f.write(b"\x00" * 4)
        with pytest.raises(ConfigError, match="bytes"):
            ds.load_dataset(path)

    def test_missing_blob(self, tmp_path):
        path, _, _ = make(tmp_path)
        os.remove(os.path.join(tmp_path, "train_poses.f32"))
        with pytest.raises(ConfigError, match="cannot read blob"):
            ds.load_dataset(path)

    def test_unknown_manifest_key_rejected(self, tmp_path):
        path, _, _ = make(tmp_path)
        with open(path, "a") as f:
            f.write("extra_key = 1\n")
        with pytest.raises(ConfigError, match="extra_key"):
            ds.load_dataset(path)

    def test_missing_manifest_key_rejected(self, tmp_path):
        path, _, _ = make(tmp_path)
        lines = [ln for ln in open(path).read().splitlines()
                 if not ln.startswith("seed")]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="seed"):
            ds.load_dataset(path)

    def test_bad_version(self, tmp_path):
        path, _, _ = make(tmp_path)
        text = open(path).read().replace("version = 1", "version = 9")
        open(path, "w").write(text)
        with pytest.raises(ConfigError, match="version"):
            ds.load_dataset(path)

    def test_bad_kind(self, tmp_path):
        path, _, _ = make(tmp_path)
        text = open(path).read().replace("kind = dataset", "kind = scene")
        open(path, "w").write(text)
        with pytest.raises(ConfigError, match="not a dataset manifest"):
            ds.load_dataset(path)

    def test_save_rejects_shape_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        poses = rng.uniform(-1, 1, (5, 3))
        images = rng.uniform(0, 1, (4, 8, 8, 3))
        with pytest.raises(ConfigError, match="images must be"):
            ds.save_dataset(tmp_path, "x", poses, images, "s.kv", INTR, 0, "h")

    def test_save_rejects_bad_pose_dim(self, tmp_path):
        with pytest.raises(ConfigError, match="poses must be"):
            ds.save_dataset(tmp_path, "x", np.zeros((5, 4)),
                            np.zeros((5, 8, 8, 3)), "s.kv", INTR, 0, "h")

    def test_save_rejects_out_of_range_pixels(self, tmp_path):
        images = np.zeros((2, 8, 8, 3))
        images[0, 0, 0, 0] = 1.5
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            ds.save_dataset(tmp_path, "x", np.zeros((2, 3)), images,
                            "s.kv", INTR, 0, "h")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])  # 1e39 is inf as float32
    def test_save_rejects_non_finite_pose(self, tmp_path, bad):
        poses = np.zeros((2, 3))
        poses[1, 2] = bad
        with pytest.raises(ConfigError, match="x_poses.f32: pose values must be finite"):
            ds.save_dataset(tmp_path, "x", poses, np.zeros((2, 8, 8, 3)), "s.kv", INTR, 0, "h")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_save_rejects_non_finite_pixels(self, tmp_path, bad):
        images = np.zeros((2, 8, 8, 3))
        images[1, 4, 4, 2] = bad
        with pytest.raises(ConfigError, match="x_images.f32: image values must be finite"):
            ds.save_dataset(tmp_path, "x", np.zeros((2, 3)), images, "s.kv", INTR, 0, "h")
        assert os.listdir(tmp_path) == []


class TestLoadValues:
    """A blob edited after saving is checked again where it is read."""

    def poke(self, tmp_path, blob, values):
        path, _, _ = make(tmp_path)
        f = os.path.join(tmp_path, blob)
        vals = np.fromfile(f, dtype="<f4")
        vals[:len(values)] = values
        vals.tofile(f)
        return path, f

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pose(self, tmp_path, bad):
        path, blob = self.poke(tmp_path, "train_poses.f32", [0.5, bad])
        with pytest.raises(ConfigError) as e:
            ds.load_dataset(path)
        assert str(e.value) == f"{path}: blob {blob} holds a non-finite pose"

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 1.0001, -1e-6])
    def test_bad_image_value(self, tmp_path, bad):
        path, blob = self.poke(tmp_path, "train_images.f32", [0.5, bad])
        with pytest.raises(ConfigError) as e:
            ds.load_dataset(path)
        assert str(e.value) == (f"{path}: blob {blob} holds an image value that is not "
                                "finite or lies outside [0, 1]")

    def test_range_ends_load(self, tmp_path):
        path, _ = self.poke(tmp_path, "train_images.f32", [0.0, 1.0])
        d = ds.load_dataset(path)
        assert d.images.reshape(-1)[:2].tolist() == [0.0, 1.0]
