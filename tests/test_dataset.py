import os
from pathlib import Path

import numpy as np
import pytest

import poseinn.dataset as ds
from poseinn.errors import ConfigError
from poseinn.kvconfig import read_kv
from poseinn.scenegen import CameraIntrinsics

from conftest import traced_peak

INTR = CameraIntrinsics(width=8, height=8, hfov=np.deg2rad(90.0))


def make(tmp_path, n=5, dim=3, name="train"):
    rng = np.random.default_rng(0)
    poses = rng.uniform(-1, 1, (n, dim))
    images = rng.uniform(0, 1, (n, 8, 8, 3))
    path = ds.save_dataset(tmp_path, name, poses, images, "scene.kv", INTR, seed=42)
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
        manifest = read_kv(path)
        assert (manifest["pose_dim"], manifest["seed"]) == ("3", "42")
        assert d.intrinsics.width == 8 and d.intrinsics.height == 8
        assert abs(d.intrinsics.hfov - INTR.hfov) < 1e-15
        assert d.scene_path == os.path.join(str(tmp_path), "scene.kv")

    def test_dim6(self, tmp_path):
        # planar poses only: 6-float records are refused on save, and a
        # manifest whose pose_dim reads 6 on load, blob sizes aside
        with pytest.raises(ConfigError, match=r"poses must be \(n, 3\)"):
            make(tmp_path, dim=6)
        path, _, _ = make(tmp_path)
        text = Path(path).read_text(encoding="utf-8")
        assert "pose_dim = 3\n" in text
        Path(path).write_text(text.replace("pose_dim = 3\n", "pose_dim = 6\n"),
                              encoding="utf-8")
        with pytest.raises(ConfigError, match="pose_dim must be 3") as ei:
            ds.load_dataset(path)
        assert "\n" not in str(ei.value)

    def test_blob_bytes_little_endian_f32(self, tmp_path):
        path, poses, _ = make(tmp_path, name="test")
        raw = (tmp_path / "test_poses.f32").read_bytes()
        assert raw == np.ascontiguousarray(poses, dtype="<f4").tobytes()

    def test_save_twice_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        p1, _, _ = make(a)
        p2, _, _ = make(b)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        assert (a / "train_images.f32").read_bytes() == (b / "train_images.f32").read_bytes()


class TestValidation:
    def test_truncated_poses_blob(self, tmp_path):
        path, _, _ = make(tmp_path)
        blob = tmp_path / "train_poses.f32"
        blob.write_bytes(blob.read_bytes()[:-4])
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
        # the version too, which is read before the other keys are checked
        for key in ("seed", "version"):
            path, _, _ = make(tmp_path)
            lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
                     if not ln.startswith(key)]
            Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
            with pytest.raises(ConfigError) as e:
                ds.load_dataset(path)
            assert str(e.value) == f"{path}: missing required keys: ['{key}']"

    def test_bad_version(self, tmp_path):
        path, _, _ = make(tmp_path)
        text = Path(path).read_text(encoding="utf-8").replace("version = 2", "version = 9")
        Path(path).write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="version"):
            ds.load_dataset(path)

    def test_version_1_manifest_names_its_version(self, tmp_path):
        # version 1 carried a config_hash; its version is the error, not its keys
        path, _, _ = make(tmp_path)
        text = Path(path).read_text(encoding="utf-8").replace("version = 2", "version = 1")
        Path(path).write_text(text + "config_hash = abc123\n", encoding="utf-8")
        with pytest.raises(ConfigError) as e:
            ds.load_dataset(path)
        assert str(e.value) == f"{path}: unsupported manifest version 1"

    def test_negative_count_refused_before_any_blob(self, tmp_path):
        path, _, _ = make(tmp_path)
        text = Path(path).read_text(encoding="utf-8").replace("count = 5", "count = -1")
        Path(path).write_text(text, encoding="utf-8")
        for blob in ("train_poses.f32", "train_images.f32"):
            os.remove(tmp_path / blob)
        with pytest.raises(ConfigError) as e:
            ds.load_dataset(path)
        assert str(e.value) == f"{path}: count must be >= 0, got -1"

    def test_bad_kind(self, tmp_path):
        path, _, _ = make(tmp_path)
        text = Path(path).read_text(encoding="utf-8").replace("kind = dataset", "kind = scene")
        Path(path).write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="not a dataset manifest"):
            ds.load_dataset(path)

    def test_save_rejects_shape_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        poses = rng.uniform(-1, 1, (5, 3))
        images = rng.uniform(0, 1, (4, 8, 8, 3))
        with pytest.raises(ConfigError, match="images must be"):
            ds.save_dataset(tmp_path, "test", poses, images, "s.kv", INTR, 0)

    def test_save_rejects_unknown_split(self, tmp_path):
        with pytest.raises(ConfigError, match="split must be one of .* got 'x'"):
            ds.save_dataset(tmp_path, "x", np.zeros((2, 3)), np.zeros((2, 8, 8, 3)),
                            "s.kv", INTR, 0)
        assert os.listdir(tmp_path) == []

    def test_split_is_the_name(self, tmp_path):
        for split in ds.SPLITS:
            path, _, _ = make(tmp_path, name=split)
            assert read_kv(path)["split"] == split
            assert ds.load_dataset(path).count == 5

    @pytest.mark.parametrize("key, bad, why", [
        ("split", "val", "key 'split': expected one of"),
        ("seed", "x", "key 'seed': expected integer, got 'x'")])
    def test_manifest_split_and_seed_still_checked(self, tmp_path, key, bad, why):
        # neither is kept on the loaded dataset, but a bad value is refused
        path, _, _ = make(tmp_path)
        text = Path(path).read_text(encoding="utf-8")
        good = f"{key} = {read_kv(path)[key]}\n"
        assert good in text
        Path(path).write_text(text.replace(good, f"{key} = {bad}\n"), encoding="utf-8")
        with pytest.raises(ConfigError, match=why):
            ds.load_dataset(path)

    def test_save_rejects_bad_pose_dim(self, tmp_path):
        with pytest.raises(ConfigError, match="poses must be"):
            ds.save_dataset(tmp_path, "test", np.zeros((5, 4)),
                            np.zeros((5, 8, 8, 3)), "s.kv", INTR, 0)

    def test_save_rejects_out_of_range_pixels(self, tmp_path):
        images = np.zeros((2, 8, 8, 3))
        images[0, 0, 0, 0] = 1.5
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            ds.save_dataset(tmp_path, "test", np.zeros((2, 3)), images,
                            "s.kv", INTR, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])  # 1e39 is inf as float32
    def test_save_rejects_non_finite_pose(self, tmp_path, bad):
        poses = np.zeros((2, 3))
        poses[1, 2] = bad
        with pytest.raises(ConfigError, match="test_poses.f32: pose values must be finite"):
            ds.save_dataset(tmp_path, "test", poses, np.zeros((2, 8, 8, 3)), "s.kv", INTR, 0)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_save_rejects_non_finite_pixels(self, tmp_path, bad):
        images = np.zeros((2, 8, 8, 3))
        images[1, 4, 4, 2] = bad
        with pytest.raises(ConfigError, match="test_images.f32: image values must be finite"):
            ds.save_dataset(tmp_path, "test", np.zeros((2, 3)), images, "s.kv", INTR, 0)
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


class TestChunkedBlobs:
    """Blobs are written and read in chunks of ``BLOB_CHUNK`` values."""

    @pytest.mark.parametrize("chunk,n", [(5, 3), (7, 5), (191, 5), (1000, 5), (None, 700)],
                             ids=["chunk5", "chunk7", "chunk191", "chunk1000", "chunk_real"])
    def test_bytes_equal_whole_array_cast(self, tmp_path, monkeypatch, chunk, n):
        # n frames of 8x8x3 values are never a whole number of chunks
        if chunk is not None:
            monkeypatch.setattr(ds, "BLOB_CHUNK", chunk)
        assert (n * 192) % ds.BLOB_CHUNK != 0
        path, poses, images = make(tmp_path, n=n)
        raw = (tmp_path / "train_images.f32").read_bytes()
        assert raw == np.ascontiguousarray(images, dtype="<f4").tobytes()
        d = ds.load_dataset(path)
        assert d.images.tobytes() == images.astype(np.float32).astype(np.float64).tobytes()
        assert d.poses.tobytes() == poses.astype(np.float32).astype(np.float64).tobytes()

    def test_empty_split_round_trips(self, tmp_path):
        path = ds.save_dataset(tmp_path, "test", np.zeros((0, 3)), np.zeros((0, 8, 8, 3)),
                               "s.kv", INTR, 0)
        assert (tmp_path / "test_images.f32").read_bytes() == b""
        d = ds.load_dataset(path)
        assert d.poses.shape == (0, 3) and d.images.shape == (0, 8, 8, 3)

    @pytest.mark.parametrize("at", [0, 191, -1], ids=["first", "chunk_end", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0001, -1e-6])
    def test_bad_value_in_any_chunk(self, tmp_path, monkeypatch, at, bad):
        monkeypatch.setattr(ds, "BLOB_CHUNK", 192)
        rng = np.random.default_rng(1)
        images = rng.uniform(0, 1, (4, 8, 8, 3))
        images.reshape(-1)[at] = bad
        with pytest.raises(ConfigError, match="test_images.f32: image values must be finite"):
            ds.save_dataset(tmp_path, "test", np.zeros((4, 3)), images, "s.kv", INTR, 0)
        assert os.listdir(tmp_path) == []
        # the same value written behind save's back is refused on load
        images.reshape(-1)[at] = 0.5
        path = ds.save_dataset(tmp_path, "test", np.zeros((4, 3)), images, "s.kv", INTR, 0)
        blob = os.path.join(tmp_path, "test_images.f32")
        vals = np.fromfile(blob, dtype="<f4")
        vals[at] = bad
        vals.tofile(blob)
        with pytest.raises(ConfigError) as e:
            ds.load_dataset(path)
        assert str(e.value) == (f"{path}: blob {blob} holds an image value that is not "
                                "finite or lies outside [0, 1]")


class TestBlobMemory:
    """tracemalloc bounds on what saving and loading allocate beyond the
    arrays themselves; 600 frames of 32x32 are 14.7 MB of float64."""

    INTR32 = CameraIntrinsics(width=32, height=32, hfov=np.deg2rad(90.0))

    def frames(self):
        rng = np.random.default_rng(2)
        return rng.uniform(-1, 1, (600, 3)), rng.uniform(0, 1, (600, 32, 32, 3))

    def test_save_makes_no_whole_copy(self, tmp_path):
        # a float32 copy of the images and its bytes would add 14.7 MB
        poses, images = self.frames()
        peak, _ = traced_peak(lambda: ds.save_dataset(
            tmp_path, "synth", poses, images, "s.kv", self.INTR32, 0))
        assert peak < 1.5e6

    def test_load_holds_no_raw_bytes(self, tmp_path):
        # the raw blob beside the float64 result would add 7.4 MB
        poses, images = self.frames()
        path = ds.save_dataset(tmp_path, "synth", poses, images, "s.kv", self.INTR32, 0)
        peak, d = traced_peak(lambda: ds.load_dataset(path))
        assert peak - d.images.nbytes < 1.5e6
