import argparse
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poseinn.cli as cli
import poseinn.dataset as ds
import poseinn.localizer as loc
import poseinn.sampler as sp
import poseinn.trainer as tr
from poseinn.geometry import Pose, wrap_angle
from poseinn.kvconfig import read_kv
from poseinn.model import ModelConfig


README = Path(__file__).resolve().parents[1] / "README.md"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def readme_commands() -> list[list[str]]:
    """The argv of every `poseinn` command in README.md: lines of fenced
    ``sh`` blocks, with backslash continuations joined, and inline code
    spans. Leading VAR=value assignments are dropped."""
    text = README.read_text(encoding="utf-8")
    fence = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
    lines = [ln for lang, body in fence.findall(text) if lang == "sh"
             for ln in body.replace("\\\n", " ").splitlines()]
    lines += re.findall(r"`([^`]+)`", fence.sub("", text))
    cmds = []
    for ln in lines:
        argv = shlex.split(ln, comments=True)
        while argv and re.fullmatch(r"\w+=\S*", argv[0]):
            argv.pop(0)
        if argv[:1] == ["poseinn"]:
            cmds.append(argv[1:])
    return cmds


SCENE_CFG = "kind = scene_config\nprimitives = 4\n"
DATA_CFG = ("kind = data_config\nscene = {scene}\ndim = 3\nimage_hw = 16\n"
            "train_count = 12\ntest_count = 4\n")
SAMPLING_CFG = ("kind = sampling_config\ntarget = 8\nmax_delta_training = 0.8\n"
                "cloud_points = 2000\nbudget_factor = 500\n")
TRAIN_CFG = ("kind = train_config\nepochs = 2\nbatch = 4\nwarmup_epochs = 1\n"
             "checkpoint_every = 1\nenc_L = 2\nblocks = 2\nhidden = 16\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    scene_cfg = write(root / "scene.cfg", SCENE_CFG)
    assert cli.main(["gen-scene", "--config", scene_cfg, "--seed", "3",
                     "--out", str(root / "scene")]) == 0
    scene = str(root / "scene" / "scene.kv")

    data_cfg = write(root / "data.cfg", DATA_CFG.format(scene=scene))
    assert cli.main(["gen-data", "--config", data_cfg, "--seed", "3",
                     "--out", str(root / "data")]) == 0

    samp_cfg = write(root / "samp.cfg", SAMPLING_CFG)
    assert cli.main(["sample-poses", "--config", samp_cfg,
                     "--data", str(root / "data" / "train.kv"),
                     "--seed", "3", "--out", str(root / "data")]) == 0

    train_cfg = write(root / "train.cfg", TRAIN_CFG)
    assert cli.main(["train", "--config", train_cfg,
                     "--data", str(root / "data" / "train.kv"),
                     "--synth", str(root / "data" / "synth.kv"),
                     "--seed", "3", "--out", str(root / "run")]) == 0
    return {"root": root, "scene": scene, "data_cfg": data_cfg,
            "train_cfg": train_cfg,
            "train": str(root / "data" / "train.kv"),
            "test": str(root / "data" / "test.kv"),
            "synth": str(root / "data" / "synth.kv"),
            "ckpt": str(root / "run" / "model.ckpt")}


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root = pipeline["root"]
        for rel in ["scene/scene.kv", "data/train.kv", "data/train_poses.f32",
                    "data/train_images.f32", "data/test.kv", "data/synth.kv",
                    "run/model.ckpt", "run/epoch_0001.ckpt", "run/loss.tsv"]:
            assert (root / rel).exists(), rel

    def test_split_counts_and_flags(self, pipeline):
        train = ds.load_dataset(pipeline["train"])
        test = ds.load_dataset(pipeline["test"])
        synth = ds.load_dataset(pipeline["synth"])
        assert (train.count, test.count, synth.count) == (12, 4, 8)
        assert [read_kv(pipeline[k])["split"] for k in ("train", "test", "synth")] \
            == ["train", "test", "synth"]

    def test_lockfiles_released(self, pipeline):
        root = pipeline["root"]
        assert not (root / "data" / ".lock").exists()
        assert not (root / "run" / ".lock").exists()

    def test_eval_runs_and_reports(self, pipeline, tmp_path):
        out = tmp_path / "eval"
        assert cli.main(["eval", "--ckpt", pipeline["ckpt"],
                         "--data", pipeline["test"], "--samples", "10",
                         "--seed", "1", "--out", str(out)]) == 0
        report = read_kv(out / "report.kv")
        assert list(report) == [
            "kind", "version", "seed", "n_samples", "n_frames", "n_kept",
            "raw_median_trans_m", "raw_mean_trans_m", "raw_median_rot_deg", "raw_mean_rot_deg",
            "filt_median_trans_m", "filt_mean_trans_m", "filt_median_rot_deg",
            "filt_mean_rot_deg"]
        assert (report["kind"], report["n_frames"], report["n_kept"]) == ("eval_report", "4", "2")
        rows = (out / "frames.tsv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4  # header + one row per test frame

    def test_eval_deterministic(self, pipeline, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["eval", "--ckpt", pipeline["ckpt"],
                             "--data", pipeline["test"], "--samples", "10",
                             "--seed", "7", "--out", str(out)]) == 0
            outs.append((out / "report.kv").read_bytes()
                        + (out / "frames.tsv").read_bytes())
        assert outs[0] == outs[1]

    def test_track_sequential(self, pipeline, tmp_path):
        # the columns and report fields README "Formats" lists
        cfg = write(tmp_path / "track.cfg",
                    "kind = track_config\ninit = 1.0 0.0 1.5\nn_samples = 10\n")
        out = tmp_path / "track"
        assert cli.main(["track", "--config", cfg, "--ckpt", pipeline["ckpt"],
                         "--data", pipeline["test"], "--seed", "2",
                         "--odom", write(tmp_path / "o.txt", "0 0 0\n" * 4),
                         "--out", str(out)]) == 0
        rows = [r.split("\t") for r in (out / "track.tsv").read_text().strip().splitlines()]
        assert rows[0] == ["frame", "x", "y", "theta", "var_x", "var_y", "var_theta",
                           "err_trans_m", "err_rot_deg"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
        assert all(len(r) == 9 for r in rows)
        report = read_kv(out / "report.kv")
        assert list(report) == ["kind", "version", "seed", "n_frames", "median_trans_m",
                                "mean_trans_m", "median_rot_deg", "mean_rot_deg"]
        assert (report["kind"], report["version"], report["n_frames"]) == (
            "track_report", "2", "4")

    def test_loss_table_epochs(self, pipeline):
        rows = (pipeline["root"] / "run" / "loss.tsv").read_text().strip().splitlines()
        assert rows[0].startswith("epoch\t")
        assert [r.split("\t")[0] for r in rows[1:]] == ["0", "1"]


class TestGenData:
    def test_rerun_bitwise_identical(self, pipeline, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main(["gen-data", "--config", pipeline["data_cfg"],
                             "--seed", "3", "--out", str(out)]) == 0
            blobs.append((out / "train.kv").read_bytes()
                         + (out / "train_poses.f32").read_bytes()
                         + (out / "train_images.f32").read_bytes()
                         + (out / "test_images.f32").read_bytes())
        assert blobs[0] == blobs[1]

    def test_relative_scene_path(self, pipeline, tmp_path):
        # config sits next to the scene file and names it bare
        cfg_dir = pipeline["root"] / "scene"
        cfg = write(cfg_dir / "rel.cfg", DATA_CFG.format(scene="scene.kv"))
        assert cli.main(["gen-data", "--config", cfg, "--seed", "3",
                         "--out", str(tmp_path / "rel")]) == 0


class TestSamplePoses:
    def test_target_zero_one_error_line(self, pipeline, tmp_path, capsys):
        cfg = write(tmp_path / "s0.cfg", "kind = sampling_config\ntarget = 0\n")
        out = tmp_path / "zero"
        assert cli.main(["sample-poses", "--config", cfg,
                         "--data", pipeline["train"], "--seed", "5",
                         "--out", str(out)]) == 1
        assert "must be positive" in one_error_line(capsys, "domain")
        assert not out.exists()

    @pytest.mark.parametrize("key, why", [("max_delta_training", "must be positive"),
                                          ("widen", "widen must be >= 1")])
    def test_nan_threshold_one_error_line(self, pipeline, tmp_path, capsys, key, why):
        cfg = write(tmp_path / "s.cfg", SAMPLING_CFG.replace("max_delta_training = 0.8\n", "")
                    + f"{key} = nan\n")
        out = tmp_path / "nan"
        assert cli.main(["sample-poses", "--config", cfg, "--data", pipeline["train"],
                         "--seed", "5", "--out", str(out)]) == 1
        assert why in one_error_line(capsys, "domain")
        assert not (out / "synth.kv").exists()

    @pytest.mark.parametrize("error, detail", [
        (MemoryError("Unable to allocate 2.18 TiB for an array with shape "
                     "(100000000000, 3) and data type float64"), "Unable to allocate 2.18 TiB"),
        (MemoryError(), "out of memory")])
    def test_memory_error_one_error_line(self, pipeline, tmp_path, capsys, monkeypatch,
                                         error, detail):
        # stands in for a cloud too large to allocate; nothing huge is allocated
        def export_point_cloud(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.sg, "export_point_cloud", export_point_cloud)
        cfg = write(tmp_path / "huge.cfg", SAMPLING_CFG.replace(
            "cloud_points = 2000", "cloud_points = 100000000000"))
        out = tmp_path / "huge"
        assert cli.main(["sample-poses", "--config", cfg, "--data", pipeline["train"],
                         "--seed", "5", "--out", str(out)]) == 1
        assert detail in one_error_line(capsys, "memory")
        assert not out.exists()

    def test_synth_poses_within_delta_of_training(self, pipeline):
        train = ds.load_dataset(pipeline["train"])
        synth = ds.load_dataset(pipeline["synth"])
        for v in synth.poses:
            d = np.min(np.linalg.norm(train.poses[:, :2] - v[:2], axis=1))
            assert d <= 0.8 + 1e-6


class TestTrainResume:
    def test_resume_matches_straight_run(self, pipeline, tmp_path):
        out = tmp_path / "resumed"
        assert cli.main(["train", "--config", pipeline["train_cfg"],
                         "--data", pipeline["train"], "--synth", pipeline["synth"],
                         "--resume", str(pipeline["root"] / "run" / "epoch_0001.ckpt"),
                         "--seed", "3", "--out", str(out)]) == 0
        straight = (pipeline["root"] / "run" / "model.ckpt").read_bytes()
        assert (out / "model.ckpt").read_bytes() == straight
        rows = (out / "loss.tsv").read_text().strip().splitlines()
        assert [r.split("\t")[0] for r in rows[1:]] == ["1"]  # continues numbering

    @pytest.mark.parametrize("old, new, why", [
        ("blocks = 2", "blocks = 5", "blocks is 5 in {cfg} but 2 in the checkpoint"),
        ("hidden = 16", "hidden = 16\nconditional = 1",
         "conditional is True in {cfg} but False in the checkpoint"),
        ("hidden = 16", "hidden = 16\nlayers = 2", None),
    ])
    def test_resume_compares_model_keys(self, pipeline, tmp_path, capsys, old, new, why):
        cfg = write(tmp_path / "t.cfg", TRAIN_CFG.replace(old, new))
        rc = cli.main(["train", "--config", cfg, "--data", pipeline["train"],
                       "--synth", pipeline["synth"],
                       "--resume", str(pipeline["root"] / "run" / "epoch_0001.ckpt"),
                       "--seed", "3", "--out", str(tmp_path / "o")])
        if why is None:  # a model key set to the checkpoint's value
            assert rc == 0
        else:
            assert rc == 1
            assert why.format(cfg=cfg) in one_error_line(capsys, "config")

    def test_resume_dim_mismatch(self, pipeline, tmp_path, capsys):
        # gen-data refuses dim = 6, so the 6-D split is a copy of the
        # training split whose manifest claims pose_dim = 6
        d6 = tmp_path / "d6"
        shutil.copytree(os.path.dirname(pipeline["train"]), d6)
        text = (d6 / "train.kv").read_text(encoding="utf-8")
        assert "pose_dim = 3\n" in text
        write(d6 / "train.kv", text.replace("pose_dim = 3\n", "pose_dim = 6\n"))
        rc = cli.main(["train", "--config", pipeline["train_cfg"],
                       "--data", str(d6 / "train.kv"),
                       "--resume", pipeline["ckpt"],
                       "--seed", "3", "--out", str(tmp_path / "r6")])
        assert rc == 1
        assert "ERROR config:" in capsys.readouterr().err

    def test_resume_past_end(self, pipeline, tmp_path, capsys):
        rc = cli.main(["train", "--config", pipeline["train_cfg"],
                       "--data", pipeline["train"], "--synth", pipeline["synth"],
                       "--resume", pipeline["ckpt"],
                       "--seed", "3", "--out", str(tmp_path / "past")])
        assert rc == 1
        assert "already at epoch" in capsys.readouterr().err


class TestTrackEkf:
    def test_prediction_only_equals_integrated_odometry(self, pipeline, tmp_path):
        # the odometry file as track --odom reads it, chained through the
        # prediction step alone, retraces the ground-truth poses
        test = ds.load_dataset(pipeline["test"])
        gt = test.poses
        lines = ["0 0 0"]
        for i in range(1, test.count):
            c, s = np.cos(gt[i - 1, 2]), np.sin(gt[i - 1, 2])
            dx, dy = gt[i, :2] - gt[i - 1, :2]
            lines.append(f"{float(c * dx + s * dy)!r} {float(-s * dx + c * dy)!r} "
                         f"{float(wrap_angle(gt[i, 2] - gt[i - 1, 2]))!r}")
        odom = write(tmp_path / "odom.txt", "\n".join(lines) + "\n")
        state = loc.EkfState(gt[0], np.zeros((3, 3)))
        for i, step in enumerate(cli._read_odom(odom, test.count, np.zeros(3))):
            state = loc.ekf_predict(state, step)
            assert np.max(np.abs(state.mean[:2] - gt[i, :2])) < 1e-9
            assert abs(wrap_angle(state.mean[2] - gt[i, 2])) < 1e-9

    def test_ekf_with_measurements_runs(self, pipeline, tmp_path):
        test = ds.load_dataset(pipeline["test"])
        odom = write(tmp_path / "o.txt", "0 0 0\n" * test.count)
        cfg = write(tmp_path / "t.cfg",
                    "kind = track_config\ninit = 1.0 0.0 0.0\nn_samples = 10\n")
        assert cli.main(["track", "--config", cfg, "--ckpt", pipeline["ckpt"],
                         "--data", pipeline["test"], "--odom", odom,
                         "--seed", "4", "--out", str(tmp_path / "fuse")]) == 0


class TestErrors:
    def test_unknown_config_key(self, pipeline, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", SCENE_CFG + "typo_key = 1\n")
        rc = cli.main(["gen-scene", "--config", cfg, "--seed", "0",
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:") and "typo_key" in err

    def test_wrong_kind(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", "kind = data_config\nscene = x\n")
        rc = cli.main(["gen-scene", "--config", cfg, "--seed", "0",
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "kind" in capsys.readouterr().err

    def test_locked_output_dir(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg", SCENE_CFG)
        out = tmp_path / "busy"
        out.mkdir()
        (out / ".lock").touch()
        rc = cli.main(["gen-scene", "--config", cfg, "--seed", "0",
                       "--out", str(out)])
        assert rc == 1
        assert "locked" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["gen-scene", "--config", str(tmp_path / "nope.cfg"),
                       "--seed", "0", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR config:")

    def test_ekf_flag_is_a_usage_error(self, pipeline, tmp_path, capsys):
        # track fuses with odometry exactly when --odom is given
        cfg = write(tmp_path / "t.cfg", "kind = track_config\ninit = 0 0 0\n")
        with pytest.raises(SystemExit) as ei:
            cli.main(["track", "--config", cfg, "--ckpt", pipeline["ckpt"],
                      "--data", pipeline["test"], "--ekf",
                      "--odom", write(tmp_path / "o.txt", "0 0 0\n" * 4),
                      "--seed", "0", "--out", str(tmp_path / "o")])
        assert ei.value.code == 2
        assert "--ekf" in one_error_line(capsys, "usage")

    def test_track_requires_odom(self, pipeline, tmp_path, capsys):
        # track is odometry fusion; without odometry it has nothing to run
        cfg = write(tmp_path / "t.cfg", "kind = track_config\ninit = 0 0 0\n")
        with pytest.raises(SystemExit) as ei:
            cli.main(["track", "--config", cfg, "--ckpt", pipeline["ckpt"],
                      "--data", pipeline["test"], "--seed", "0", "--out", str(tmp_path / "o")])
        assert ei.value.code == 2
        assert "--odom" in one_error_line(capsys, "usage")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("init", "nan 0.0 0.0"), ("init_var", "0.01 inf 0.01"), ("odom_var", "nan 0 0")])
    def test_track_non_finite_value(self, pipeline, tmp_path, capsys, key, value):
        keys = {"init": "0 0 0", key: value}
        cfg = write(tmp_path / "t.cfg", "kind = track_config\n"
                    + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert cli.main(["track", "--config", cfg, "--ckpt", pipeline["ckpt"],
                         "--data", pipeline["test"], "--out", str(tmp_path / "o"),
                         "--odom", write(tmp_path / "o.txt", "0 0 0\n" * 4)]) == 1
        assert f"key '{key}' must be finite" in one_error_line(capsys, "config")
        assert not (tmp_path / "o").exists()

    def test_odom_line_count_mismatch(self, pipeline, tmp_path, capsys):
        cfg = write(tmp_path / "t.cfg", "kind = track_config\ninit = 0 0 0\n")
        odom = write(tmp_path / "o.txt", "0 0 0\n")  # 1 line for 4 frames
        rc = cli.main(["track", "--config", cfg, "--ckpt", pipeline["ckpt"],
                       "--data", pipeline["test"], "--odom", odom,
                       "--seed", "0", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "odometry lines" in capsys.readouterr().err

    # a header comment and a blank line come first, so the file's line 4
    # is the second data line
    @pytest.mark.parametrize("bad, message", [
        ("0 0 x", "line 4: not parseable as floats"),
        ("0 nan 0", "line 4 must be finite")])
    def test_odom_error_names_file_line(self, pipeline, tmp_path, capsys, bad, message):
        cfg = write(tmp_path / "t.cfg", "kind = track_config\ninit = 0 0 0\n")
        odom = write(tmp_path / "o.txt", f"# header\n\n0 0 0\n{bad}\n0 0 0\n0 0 0\n")
        assert cli.main(["track", "--config", cfg, "--ckpt", pipeline["ckpt"],
                         "--data", pipeline["test"], "--odom", odom,
                         "--out", str(tmp_path / "o")]) == 1
        err = one_error_line(capsys, "config")
        assert odom in err and message in err
        assert not (tmp_path / "o").exists()

    def test_eval_rejects_conditional_checkpoint(self, pipeline, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", TRAIN_CFG.replace("epochs = 2", "epochs = 1")
                    + "conditional = 1\n")
        out = tmp_path / "cond"
        assert cli.main(["train", "--config", cfg, "--data", pipeline["train"],
                         "--seed", "0", "--out", str(out)]) == 0
        rc = cli.main(["eval", "--ckpt", str(out / "model.ckpt"),
                       "--data", pipeline["test"], "--seed", "0",
                       "--out", str(tmp_path / "e")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR conditioning:")

    # keys of values that are now module constants, and the degree keys
    @pytest.mark.parametrize("verb, key", [
        *[("train", k) for k in ("w_fwd", "w_rev_pos", "w_rev_rot", "w_rev_enc", "w_recon",
                                 "clamp", "cond_cell_xy", "cond_cell_theta_deg")],
        ("sample-poses", "max_rot_noise_deg"), ("gen-data", "hfov_deg")])
    def test_retired_key_is_unknown(self, pipeline, tmp_path, capsys, verb, key):
        base = {"train": TRAIN_CFG, "sample-poses": SAMPLING_CFG,
                "gen-data": DATA_CFG.format(scene=pipeline["scene"])}[verb]
        argv = [verb, "--config", write(tmp_path / "c.cfg", f"{base}{key} = 1\n"),
                "--out", str(tmp_path / "o")]
        if verb != "gen-data":
            argv += ["--data", pipeline["train"]]
        assert cli.main(argv) == 1
        assert f"unknown keys: ['{key}']" in one_error_line(capsys, "config")
        assert not (tmp_path / "o").exists()

    def test_bad_log_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POSEINN_LOG", "chatty")
        cfg = write(tmp_path / "s.cfg", SCENE_CFG)
        rc = cli.main(["gen-scene", "--config", cfg, "--seed", "0",
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "POSEINN_LOG" in capsys.readouterr().err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["gen-scene", "--config", "x"])  # --out missing
        assert ei.value.code == 2
        assert capsys.readouterr().err.startswith("ERROR usage:")

    def test_threads_warning(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg", SCENE_CFG)
        assert cli.main(["gen-scene", "--config", cfg, "--threads", "2",
                         "--out", str(tmp_path / "o")]) == 0
        assert "voids bitwise determinism" in capsys.readouterr().err


# keys track does not read, with a value each, by mode; track has one mode,
# odometry fusion (ekf)
TRACK_MODES = {"ekf": {"measure": "0", "fuse_heading": "0", "var_ceiling": "1.0",
                       "lost_after": "3"}}


def one_error_line(capsys, code: str) -> str:
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {code}:") and err.count("\n") == 1, err
    return err


class TestModeKeys:
    """A config key that the chosen mode does not read is rejected, like an
    unknown key, with one error line that names it."""

    @pytest.mark.parametrize("mode, key", [(m, k) for m, keys in TRACK_MODES.items()
                                           for k in keys])
    def test_track_rejects_unread_key(self, pipeline, tmp_path, capsys, mode, key):
        cfg = write(tmp_path / "t.cfg",
                    f"kind = track_config\ninit = 0 0 0\n{key} = {TRACK_MODES[mode][key]}\n")
        assert cli.main(["track", "--config", cfg, "--ckpt", pipeline["ckpt"],
                         "--data", pipeline["test"], "--out", str(tmp_path / "o"),
                         "--odom", write(tmp_path / "o.txt", "0 0 0\n" * 4)]) == 1
        assert f"'{key}'" in one_error_line(capsys, "config")
        assert not (tmp_path / "o").exists()

    def test_gen_scene_symmetric_rejects_primitives(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg", "kind = scene_config\nsymmetric = 1\nprimitives = 3\n")
        assert cli.main(["gen-scene", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = one_error_line(capsys, "config")
        assert "'primitives'" in err and "symmetric = 1" in err

    @pytest.mark.parametrize("split, style_line", [("train", "train_style = grid\n"),
                                                   ("test", "")])  # test defaults to grid
    def test_gen_data_grid_rejects_loop_factor(self, pipeline, tmp_path, capsys,
                                               split, style_line):
        cfg = write(tmp_path / "d.cfg", DATA_CFG.format(scene=pipeline["scene"])
                    + f"{style_line}{split}_loop_factor = 0.3\n")
        assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = one_error_line(capsys, "config")
        assert f"'{split}_loop_factor'" in err and f"{split}_style = grid" in err


def run_module(argv, tmp_path) -> subprocess.CompletedProcess:
    """``python -m poseinn.cli``: unlike ``cli.main`` under pytest, the
    child's numpy warnings would reach its stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "poseinn.cli", *map(str, argv)],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)


def write_records(path, ckpt, records: dict) -> str:
    """A copy of checkpoint file ``ckpt`` with its header and meta block
    kept and its records replaced by ``records``, in that order. A record
    given as a shape tuple is written with that shape and no values."""
    blob = Path(ckpt).read_bytes()
    head = 16 + struct.unpack_from("<Q", blob, 8)[0]
    out = [blob[:head], struct.pack("<I", len(records))]
    for name, a in records.items():
        shape, data = (a, b"") if isinstance(a, tuple) else \
            (a.shape, np.ascontiguousarray(a, "<f8").tobytes())
        out += [struct.pack("<I", len(name)), name.encode(), struct.pack("<I", len(shape)),
                struct.pack(f"<{len(shape)}I", *shape), data]
    path.write_bytes(b"".join(out))
    return str(path)


class TestOneErrorLine:
    @pytest.mark.parametrize("verb, cfg_key", [("gen-data", "image_hw"),
                                                ("sample-poses", "cloud_points")])
    def test_non_integer_side_or_point_count(self, pipeline, tmp_path, capsys, verb, cfg_key):
        # the CLI paths to CameraIntrinsics and export_point_cloud parse these
        # keys as integers, so 32.5 and 2.5 are refused before the library
        if verb == "gen-data":
            cfg = write(tmp_path / "d.cfg", DATA_CFG.format(scene=pipeline["scene"])
                        .replace("image_hw = 16", "image_hw = 32.5"))
            argv = ["gen-data", "--config", cfg]
            bad = "32.5"
        else:
            cfg = write(tmp_path / "s.cfg", SAMPLING_CFG.replace("cloud_points = 2000",
                                                                 "cloud_points = 2.5"))
            argv = ["sample-poses", "--config", cfg, "--data", pipeline["train"]]
            bad = "2.5"
        assert cli.main(argv + ["--seed", "0", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR config: key '{cfg_key}': expected integer, got '{bad}'"]

    def test_non_integer_manifest_side(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(pipeline["train"]), data)
        manifest = data / "train.kv"
        text = manifest.read_text()
        assert "image_w = 16\n" in text
        manifest.write_text(text.replace("image_w = 16\n", "image_w = 16.5\n"))
        assert cli.main(["sample-poses", "--config", write(tmp_path / "s.cfg", SAMPLING_CFG),
                         "--data", str(manifest), "--seed", "0",
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR config: key 'image_w': expected integer, got '16.5'"]

    def test_diverging_train(self, pipeline, tmp_path):
        cfg = write(tmp_path / "c.cfg", TRAIN_CFG + "lr_start = 1e300\nlr_end = 1e300\n")
        proc = run_module(["train", "--config", cfg, "--data", pipeline["train"],
                           "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("ERROR non_finite: epoch 0: non-finite training loss: recon=")
        assert "total=" in lines[0]

    def test_nan_in_dataset_blob(self, pipeline, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(pipeline["train"]), data)
        blob = data / "train_images.f32"
        vals = np.fromfile(blob, dtype="<f4")
        vals[5] = np.nan
        vals.tofile(blob)
        proc = run_module(["train", "--config", pipeline["train_cfg"],
                           "--data", data / "train.kv", "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"ERROR config: {data / 'train.kv'}: blob {blob} holds an image value "
            "that is not finite or lies outside [0, 1]"]

    def test_bad_flow_permutation(self, pipeline, tmp_path):
        ck = tr.load_checkpoint(pipeline["ckpt"])
        w = ck.model.flow.width
        ck.model.flow.perms[0] = np.zeros(w, dtype=np.intp)
        bad = tmp_path / "bad.ckpt"
        tr.save_checkpoint(bad, ck.model, epoch=ck.epoch, train_cfg=ck.train,
                           opt=tr.restore_optimizer(ck))
        proc = run_module(["eval", "--ckpt", bad, "--data", pipeline["test"], "--seed", "0",
                           "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"ERROR checkpoint: flow permutation 'perm0' is not a permutation of 0..{w - 1}"]

    @pytest.mark.parametrize("case", [
        "missing_param", "param_shape", "missing_perm", "perm_shape", "missing_moment",
        "moment_shape", "unexpected", "not_a_permutation", "pad_moved", "non_finite",
        "overflowing_shape"])
    def test_checkpoint_record_faults(self, pipeline, tmp_path, capsys, case):
        # every missing, unexpected or misshapen record is one checkpoint
        # line naming it; the permutation and finiteness rules keep theirs
        ck = tr.load_checkpoint(pipeline["ckpt"])
        table = {**ck.model.param_arrays(), **tr.restore_optimizer(ck).state_arrays()}
        w, p, m = "flow.block0.s.w0", "flow.perm1", "adam.v.vae.enc.conv0.w"
        shape = {k: table[k].shape for k in (w, p, m)}
        swapped = table[p].copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        edits = {
            "missing_param": ({w: None}, f"checkpoint: missing checkpoint record '{w}'"),
            "param_shape": ({w: table[w].reshape(-1)},
                            f"checkpoint: checkpoint record '{w}' has shape "
                            f"{(table[w].size,)}, expected {shape[w]}"),
            "missing_perm": ({p: None}, f"checkpoint: missing checkpoint record '{p}'"),
            "perm_shape": ({p: table[p][None]}, f"checkpoint: checkpoint record '{p}' has "
                                                f"shape {(1, *shape[p])}, expected {shape[p]}"),
            "missing_moment": ({m: None}, f"checkpoint: missing checkpoint record '{m}'"),
            "moment_shape": ({m: table[m].reshape(-1)},
                             f"checkpoint: checkpoint record '{m}' has shape "
                             f"{(table[m].size,)}, expected {shape[m]}"),
            "unexpected": ({"vae.bogus": np.zeros(3)},
                           "checkpoint: unexpected checkpoint record 'vae.bogus'"),
            "not_a_permutation": ({p: np.zeros_like(table[p])},
                                  f"checkpoint: flow permutation 'perm1' is not a permutation "
                                  f"of 0..{shape[p][0] - 1}"),
            "pad_moved": ({p: swapped},
                          "checkpoint: flow permutation 'perm1' moves the pad channel 0"),
            "non_finite": ({w: np.full(shape[w], np.inf)},
                           "non_finite: flow parameter 'block0.s.w0' is not finite"),
            # (2^32 - 1)^2 values wrap around in int64; the file holds none
            "overflowing_shape": ({w: (2 ** 32 - 1, 2 ** 32 - 1)},
                                  "checkpoint: truncated checkpoint file"),
        }
        edit, why = edits[case]
        table.update(edit)
        bad = write_records(tmp_path / "bad.ckpt", pipeline["ckpt"],
                            {k: a for k, a in table.items() if a is not None})
        capsys.readouterr()
        rc = cli.main(["eval", "--ckpt", bad, "--data", pipeline["test"], "--seed", "0",
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"ERROR {why}"]
        assert not (tmp_path / "o").exists()

    def test_eval_empty_split(self, pipeline, tmp_path, capsys):
        # refused by evaluate_posteriors, before the output directory exists
        intr = ds.load_dataset(pipeline["test"]).intrinsics
        empty = ds.save_dataset(tmp_path, "test", np.zeros((0, 3)),
                                np.zeros((0, intr.height, intr.width, 3)), "scene.kv", intr, 0)
        capsys.readouterr()
        rc = cli.main(["eval", "--ckpt", pipeline["ckpt"], "--data", empty, "--seed", "0",
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR config: empty test split: nothing to evaluate"]
        assert not (tmp_path / "o").exists()

    def test_bad_meta_block(self, pipeline, tmp_path):
        blob = Path(pipeline["ckpt"]).read_bytes()
        end = 16 + struct.unpack_from("<Q", blob, 8)[0]
        meta = json.loads(blob[16:end])
        del meta["epoch"]
        meta_b = json.dumps(meta).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(meta_b)) + meta_b + blob[end:])
        proc = run_module(["eval", "--ckpt", bad, "--data", pipeline["test"], "--seed", "0",
                           "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "ERROR checkpoint: checkpoint meta block has no key 'epoch'"]

    def test_checkpoint_meta_dim_6(self, pipeline, tmp_path):
        blob = Path(pipeline["ckpt"]).read_bytes()
        end = 16 + struct.unpack_from("<Q", blob, 8)[0]
        meta = json.loads(blob[16:end])
        assert meta["model"]["dim"] == 3
        meta["model"]["dim"] = 6
        meta_b = json.dumps(meta).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(meta_b)) + meta_b + blob[end:])
        proc = run_module(["eval", "--ckpt", bad, "--data", pipeline["test"], "--seed", "0",
                           "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "ERROR checkpoint: checkpoint meta key 'model' does not decode: "
            "pose dim must be 3 (planar poses only), got 6"]

    def test_gen_data_dim_6(self, pipeline, tmp_path):
        cfg = write(tmp_path / "d.cfg", DATA_CFG.format(scene=pipeline["scene"])
                    .replace("dim = 3\n", "dim = 6\n"))
        proc = run_module(["gen-data", "--config", cfg, "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "ERROR dimension: trajectory pose dim must be 3 (planar poses only), got 6"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_gen_scene_non_finite_bounds(self, tmp_path, bad):
        cfg = write(tmp_path / "s.cfg", f"kind = scene_config\nbounds = 0 0 0 {bad} 4 3\n")
        proc = run_module(["gen-scene", "--config", cfg, "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"ERROR config: key 'bounds' must be finite, got '0 0 0 {bad} 4 3'"]
        assert not (tmp_path / "o").exists()

    def test_gen_scene_box_above_floor(self, tmp_path):
        cfg = write(tmp_path / "s.cfg", "kind = scene_config\nbounds = 0 0 1 4 4 3\n")
        proc = run_module(["gen-scene", "--config", cfg, "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "ERROR domain: scene box z range [1.0, 3.0] does not contain the camera height z = 0"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["w_kl", "w_nll"])
    def test_nan_loss_weight(self, pipeline, tmp_path, key):
        cfg = write(tmp_path / "t.cfg", TRAIN_CFG + f"{key} = nan\n")
        proc = run_module(["train", "--config", cfg, "--data", pipeline["train"],
                           "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"ERROR domain: loss weight {key} must be finite and >= 0, got nan"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", list(cli._COMMANDS))
    def test_negative_seed(self, pipeline, tmp_path, verb):
        cfgs = {"gen-scene": SCENE_CFG, "gen-data": DATA_CFG.format(scene=pipeline["scene"]),
                "sample-poses": SAMPLING_CFG, "train": TRAIN_CFG,
                "track": "kind = track_config\ninit = 0 0 0\n"}
        argv = [verb, "--seed", "-1", "--out", tmp_path / "o"]
        if verb in cfgs:
            argv += ["--config", write(tmp_path / "c.cfg", cfgs[verb])]
        if verb in ("sample-poses", "train"):
            argv += ["--data", pipeline["train"]]
        if verb in ("eval", "track"):
            argv += ["--ckpt", pipeline["ckpt"], "--data", pipeline["test"]]
        if verb == "track":
            argv += ["--odom", write(tmp_path / "o.txt", "0 0 0\n" * 4)]
        proc = run_module(argv, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["ERROR config: --seed must be >= 0, got -1"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb, role", [
        *[(verb, "config") for verb in ("gen-scene", "gen-data", "sample-poses", "train",
                                        "track")],
        ("track", "odom"), ("gen-data", "scene"), ("eval", "data")])
    def test_non_utf8_text_input(self, pipeline, tmp_path, capsys, verb, role):
        # every text input goes through one reader: a byte that is not
        # UTF-8 is one config line naming the file, before any output
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"kind = x\n\xff\n")
        cfgs = {"gen-scene": SCENE_CFG,
                "gen-data": DATA_CFG.format(scene=bad if role == "scene" else pipeline["scene"]),
                "sample-poses": SAMPLING_CFG, "train": TRAIN_CFG,
                "track": "kind = track_config\ninit = 0 0 0\n"}
        args = {"--out": str(tmp_path / "o")}
        if verb in cfgs:
            args["--config"] = write(tmp_path / "c.cfg", cfgs[verb])
        if verb in ("sample-poses", "train"):
            args["--data"] = pipeline["train"]
        if verb in ("eval", "track"):
            args.update({"--ckpt": pipeline["ckpt"], "--data": pipeline["test"]})
        if verb == "track":
            args["--odom"] = write(tmp_path / "o.txt", "0 0 0\n" * 4)
        if role != "scene":
            args[f"--{role}"] = str(bad)
        assert cli.main([verb, *(x for pair in args.items() for x in pair)]) == 1
        assert one_error_line(capsys, "config").startswith(
            f"ERROR config: {bad} is not valid UTF-8:")
        assert not (tmp_path / "o").exists()

    def test_unreadable_scene_file_is_a_config_error(self, tmp_path, capsys):
        # a directory where the scene file should be
        cfg = write(tmp_path / "d.cfg", DATA_CFG.format(scene=tmp_path))
        assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR config: cannot read {tmp_path}: Is a directory"]
        assert not (tmp_path / "o").exists()

    def test_resume_with_other_architecture(self, pipeline, tmp_path):
        cfg = write(tmp_path / "t.cfg", TRAIN_CFG.replace("blocks = 2", "blocks = 5")
                    .replace("hidden = 16", "hidden = 64"))
        ck = pipeline["root"] / "run" / "epoch_0001.ckpt"
        proc = run_module(["train", "--config", cfg, "--data", pipeline["train"],
                           "--resume", ck, "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"ERROR config: resume {ck}: blocks is 5 in {cfg} but 2 in the checkpoint"]
        assert not (tmp_path / "o").exists()

    def test_singular_innovation_covariance(self, pipeline, tmp_path):
        # an exact prior, noiseless odometry and one-sample posteriors: P + R = 0
        cfg = write(tmp_path / "t.cfg", "kind = track_config\ninit = 0 0 0\nn_samples = 1\n"
                    "init_var = 0 0 0\nodom_var = 0 0 0\n")
        proc = run_module(["track", "--config", cfg, "--ckpt", pipeline["ckpt"],
                           "--data", pipeline["test"],
                           "--odom", write(tmp_path / "o.txt", "0 0 0\n" * 4),
                           "--out", tmp_path / "o"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "ERROR conditioning: EKF innovation covariance is singular"]


class TestConfigDefaults:
    def test_empty_train_config_keeps_dataclass_defaults(self):
        assert cli._train_config({}, seed=4) == tr.TrainConfig(seed=4)

    def test_empty_sampling_config_keeps_dataclass_defaults(self):
        assert cli._sampling_config({}, seed=4) == sp.SamplingConfig(seed=4)

    def test_empty_model_config_keeps_dataclass_defaults(self, pipeline):
        data = ds.load_dataset(pipeline["train"])
        want = ModelConfig(dim=3, image_hw=data.intrinsics.height, seed=4)
        assert cli._model_config({}, data, seed=4) == want

    def test_keys_parse_by_field_type(self, pipeline):
        data = ds.load_dataset(pipeline["train"])
        pairs = {"epochs": "7", "lr_start": "0.01", "mix": "alternate", "conditional": "1",
                 "cond_width": "8"}
        cfg = cli._train_config(pairs, seed=0)
        assert (cfg.epochs, cfg.lr_start, cfg.mix) == (7, 0.01, "alternate")
        mc = cli._model_config(pairs, data, seed=0)
        assert mc.conditional is True and mc.cond_width == 8
        sc = cli._sampling_config({"budget_factor": "7", "widen": "1.5"}, seed=0)
        assert (sc.budget_factor, sc.widen) == (7, 1.5)


class TestMetrics:
    def test_pose_errors_planar_wrap(self):
        t, r = cli.pose_errors(np.array([1.0, 2.0, np.pi - 0.1]),
                               np.array([1.0, 2.0, -np.pi + 0.1]))
        assert t == 0.0
        assert abs(r - np.degrees(0.2)) < 1e-9

    def test_forced_ground_truth_posterior_zero_error(self):
        gt = np.array([[0.5, -0.3, 1.0], [-0.2, 0.8, -2.0]])
        posts = [loc.summarize_samples(np.tile(g, (5, 1)), 3) for g in gt]
        rep = cli.evaluate_posteriors(posts, gt)
        assert [rep.summary[f"raw_{k}"] for k in ("median_trans_m", "mean_trans_m",
                                                  "median_rot_deg", "mean_rot_deg")] == [0.0] * 4

    def test_median_between_min_and_max(self):
        rng = np.random.default_rng(1)
        gt = rng.uniform(-1, 1, (9, 3))
        posts = [loc.summarize_samples(g + rng.normal(0, 0.1, (7, 3)), 3) for g in gt]
        rep = cli.evaluate_posteriors(posts, gt)
        assert rep.trans_errors.min() <= rep.summary["raw_median_trans_m"] \
            <= rep.trans_errors.max()
        kept = rep.trans_errors[rep.kept]
        assert kept.min() <= rep.summary["filt_median_trans_m"] <= kept.max()

    def test_error_summary_keys_and_values(self):
        errs = np.array([[1.0, 10.0], [2.0, 40.0], [6.0, 70.0]])
        assert cli.error_summary(errs, "raw_") == {
            "raw_median_trans_m": 2.0, "raw_mean_trans_m": 3.0,
            "raw_median_rot_deg": 40.0, "raw_mean_rot_deg": 40.0}
        assert list(cli.error_summary(errs, "")) == [
            "median_trans_m", "mean_trans_m", "median_rot_deg", "mean_rot_deg"]

    def test_lone_frame_is_kept(self):
        gt = np.array([[0.5, -0.3, 1.0]])
        rep = cli.evaluate_posteriors([loc.summarize_samples(gt + 0.1, 3)], gt)
        assert rep.kept.tolist() == [True]
        assert rep.summary["filt_mean_trans_m"] == rep.summary["raw_mean_trans_m"]

    def test_empty_set_rejected(self):
        with pytest.raises(Exception, match="empty test split"):
            cli.evaluate_posteriors([], np.zeros((0, 3)))


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_defaults_are_immutable(self):
        parsers = [cli.build_parser()]
        for action in parsers[0]._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
        defaults = [a.default for p in parsers for a in p._actions]
        assert all(d is None or isinstance(d, (bool, int, str)) for d in defaults), defaults

    def test_back_to_back_mains_parse_independently(self, monkeypatch):
        seen = []
        for verb in list(cli._COMMANDS):
            monkeypatch.setitem(cli._COMMANDS, verb, lambda args: seen.append(vars(args)))
        common = {"seed": 0, "threads": 1, "out": "o"}
        runs = [
            (["train", "--config", "t.cfg", "--data", "d.kv", "--synth", "s.kv",
              "--resume", "r.ckpt", "--seed", "5", "--out", "o"],
             {"verb": "train", "config": "t.cfg", "data": "d.kv", "synth": "s.kv",
              "resume": "r.ckpt", **common, "seed": 5}),
            (["train", "--config", "t.cfg", "--data", "d.kv", "--out", "o"],
             {"verb": "train", "config": "t.cfg", "data": "d.kv", "synth": None,
              "resume": None, **common}),
            (["eval", "--ckpt", "m.ckpt", "--data", "d.kv", "--samples", "7",
              "--threads", "2", "--out", "o"],
             {"verb": "eval", "ckpt": "m.ckpt", "data": "d.kv", "samples": 7,
              **common, "threads": 2}),
            (["eval", "--ckpt", "m.ckpt", "--data", "d.kv", "--out", "o"],
             {"verb": "eval", "ckpt": "m.ckpt", "data": "d.kv", "samples": 50, **common}),
            (["track", "--config", "k.cfg", "--ckpt", "m.ckpt", "--data", "d.kv",
              "--odom", "odom.txt", "--out", "o"],
             {"verb": "track", "config": "k.cfg", "ckpt": "m.ckpt", "data": "d.kv",
              "odom": "odom.txt", **common}),
            (["gen-scene", "--config", "s.cfg", "--out", "o"],
             {"verb": "gen-scene", "config": "s.cfg", **common}),
        ]
        for argv, _ in runs:
            assert cli.main(argv) == 0
        assert seen == [want for _, want in runs]


class TestReadme:
    def test_readme_commands_parse(self):
        """Every `poseinn ...` command the README shows is one the parser
        accepts; nothing is run."""
        cmds = readme_commands()
        assert len(cmds) >= 7
        parser = cli.build_parser()
        bad = []
        for argv in cmds:
            try:
                parser.parse_args(argv)
            except SystemExit:
                bad.append(" ".join(argv))
        assert bad == []
