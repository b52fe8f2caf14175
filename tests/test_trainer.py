"""Trainer, model wrapper, and checkpoint tests."""

import json
import os
import struct

import numpy as np
import pytest

import poseinn.localizer as lc
import poseinn.ndiff as nd
import poseinn.trainer as tr
from poseinn.errors import CheckpointError, DimensionError, DomainError, NonFiniteError
from poseinn.geometry import Aabb, Pose
from poseinn.model import COND_CELL_THETA, ModelConfig, PoseRegressor
from poseinn.ndiff import Tensor

from conftest import traced_peak

BOUNDS = Aabb(np.array([-2.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0]))


def tiny_model(conditional=False, seed=0):
    return PoseRegressor(
        ModelConfig(dim=3, image_hw=16, enc_L=2, blocks=3, hidden=32,
                    conditional=conditional, seed=seed), BOUNDS)


def tiny_data(n=10, seed=0):
    rng = np.random.default_rng(seed)
    poses = np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n),
                             rng.uniform(-np.pi, np.pi, n)])
    images = rng.uniform(0.0, 1.0, (n, 16, 16, 3))
    return poses, images


class TestModelWrapper:
    def test_normalize_round_trip(self):
        m = tiny_model()
        poses, _ = tiny_data(50)
        back = m.denormalize_vectors(m.normalize_vectors(poses))
        np.testing.assert_allclose(back, poses, atol=1e-12)

    def test_encode_tail_is_normalized_pose(self):
        m = tiny_model()
        poses, _ = tiny_data(20)
        x = m.encode_pose_batch(poses)
        assert x.shape == (20, m.config.x_len)
        np.testing.assert_allclose(x[:, m.config.latent:], m.normalize_vectors(poses),
                                   atol=0)
        np.testing.assert_allclose(m.decode_pose_vectors(x), poses, atol=1e-12)

    def test_out_of_bounds_pose_rejected(self):
        m = tiny_model()
        with pytest.raises(DomainError):
            m.normalize_vectors(np.array([[5.0, 0.0, 0.0]]))

    def test_grid_rounding_example(self):
        m = tiny_model(conditional=True)
        rows = m.condition_batch(np.array([[1.26, 0.74, np.deg2rad(31.0)]]))
        cell = m.decode_pose_vectors(rows)[0]
        np.testing.assert_allclose(cell[:2], [1.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(np.rad2deg(cell[2]), 45.0, atol=1e-9)

    def test_condition_clamps_position_into_bounds(self):
        # a drifted estimate is clamped to the box (-2..2) first: x = 5 snaps
        # like x = 2, whose cell [2, 2.5) has its center clamped back to 2,
        # and y = -7 like y = -2, in the edge cell [-2, -1.5)
        m = tiny_model(conditional=True)
        rows = m.condition_batch(np.array([[5.0, -7.0, 0.0], [2.0, -2.0, 0.0]]))
        assert rows[0].tobytes() == rows[1].tobytes()
        np.testing.assert_allclose(m.decode_pose_vectors(rows)[0, :2], [2.0, -1.75],
                                   atol=1e-12)

    @pytest.mark.parametrize("heading, center", [
        (0.0, 0.5 * COND_CELL_THETA),                   # on a cell edge: the cell above
        (3 * COND_CELL_THETA, 3.5 * COND_CELL_THETA),
        (-3 * COND_CELL_THETA, -2.5 * COND_CELL_THETA),
        (np.pi - 1e-12, 5.5 * COND_CELL_THETA),         # a hair below pi: the top cell
        (-np.pi, -5.5 * COND_CELL_THETA),               # -pi: the bottom cell
        (np.nextafter(-np.pi, -np.inf), -5.5 * COND_CELL_THETA),  # wraps to -pi
        (3 * np.pi, -5.5 * COND_CELL_THETA)])
    def test_condition_heading_cells(self, heading, center):
        m = tiny_model(conditional=True)
        cell = m.decode_pose_vectors(m.condition_batch(np.array([[0.1, 0.1, heading]])))[0]
        np.testing.assert_allclose(cell[2], center, atol=1e-12)

    def test_condition_vector_is_a_batch_row(self):
        # bit for bit: training conditions on the batch, tracking on one row
        m = tiny_model(conditional=True)
        poses, _ = tiny_data(20)
        rows = m.condition_batch(poses)
        for i, v in enumerate(poses):
            p = Pose.from_vector(v, 3)
            assert m.condition_vector(p).tobytes() == rows[i].tobytes()
            assert (m.condition_vector(p).tobytes()
                    == m.condition_batch(p.as_vector()[None])[0].tobytes())

    def test_condition_same_cell_same_vector(self):
        m = tiny_model(conditional=True)
        a = Pose(np.array([1.26, 0.74, 0.0]), np.array([np.deg2rad(31.0), 0, 0]), dim=3)
        b = Pose(np.array([1.41, 0.55, 0.0]), np.array([np.deg2rad(58.0), 0, 0]), dim=3)
        c = Pose(np.array([0.9, 0.74, 0.0]), np.array([np.deg2rad(31.0), 0, 0]), dim=3)
        va, vb, vc = (m.condition_vector(p) for p in (a, b, c))
        assert np.array_equal(va, vb)       # same 0.5 m / 30 deg cell
        assert not np.array_equal(va, vc)   # different x cell
        assert va.shape == (m.config.cond_dim,)

    def test_conditional_requires_planar(self):
        # every model is planar, conditional or not
        for conditional in (True, False):
            with pytest.raises(DimensionError, match="planar poses only"):
                ModelConfig(dim=6, conditional=conditional)

    def test_params_shared_with_submodules(self):
        m = tiny_model()
        assert m.params["flow.block0.s.w0"] is m.flow.params["block0.s.w0"]
        assert m.params["vae.enc.conv0.w"] is m.vae.params["enc.conv0.w"]


class TestSchedule:
    def test_lr_endpoints(self):
        cfg = tr.TrainConfig(epochs=30)
        assert tr.learning_rate(cfg, 0) == 5e-4
        assert abs(tr.learning_rate(cfg, 29) - 5e-5) < 1e-12

    def test_lr_geometric_shape(self):
        cfg = tr.TrainConfig(epochs=11)
        for e in range(11):
            want = 5e-4 * 0.1 ** (e / 10)
            assert abs(tr.learning_rate(cfg, e) - want) < 1e-12

    def test_single_epoch_uses_lr_start(self):
        assert tr.learning_rate(tr.TrainConfig(epochs=1), 0) == 5e-4

    def test_config_validation(self):
        with pytest.raises(DomainError):
            tr.TrainConfig(lr_start=1e-5, lr_end=1e-4)
        with pytest.raises(DomainError):
            tr.TrainConfig(w_kl=-1.0)
        for name in ("w_kl", "w_nll"):
            for bad in (float("nan"), float("inf"), -1e-12):
                with pytest.raises(DomainError, match=f"loss weight {name} must be finite"):
                    tr.TrainConfig(**{name: bad})
        with pytest.raises(DomainError):
            tr.TrainConfig(epochs=0)
        for mix in ("shaken", "pool"):
            with pytest.raises(DomainError, match="mix must be 'alternate'"):
                tr.TrainConfig(mix=mix)


class TestRotationLosses:
    def test_planar_matches_wrapped_difference(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-np.pi, np.pi, (40, 1))
        b = rng.uniform(-np.pi, np.pi, (40, 1))
        loss = tr._planar_rotation_loss(Tensor(a), b).item()
        diff = np.abs(np.arctan2(np.sin(a - b), np.cos(a - b)))
        np.testing.assert_allclose(loss, diff.mean(), atol=1e-6)


class TestMmd:
    def test_zero_on_same_sample_and_grows_with_shift(self):
        a = np.random.default_rng(3).standard_normal((20, 3))
        assert tr.mmd(a, a).item() == 0.0
        near, far = tr.mmd(a, a + 0.1).item(), tr.mmd(a, a + 1.0).item()
        assert 0.0 < near < far


def fixed_step(model, opt, poses, imgs, cfg, i, lr=5e-4):
    return tr.train_step(model, poses, imgs, cfg, np.random.default_rng([9, i]), lr, opt)


class TestTrainStep:
    def test_total_is_weighted_sum(self):
        m = tiny_model()
        poses, imgs = tiny_data(6)
        cfg = tr.TrainConfig(epochs=2, batch=6, w_kl=1e-3)
        e = fixed_step(m, nd.Adam(m.params), poses, imgs, cfg, 0)
        want = (tr.W_FWD * e.fwd + tr.W_REV_POS * e.rev_pos + tr.W_REV_ROT * e.rev_rot
                + tr.W_REV_ENC * e.rev_enc + tr.W_RECON * e.recon + cfg.w_kl * e.kl
                + tr.W_FWD_MMD * e.fwd_mmd + tr.W_REV_MMD * e.rev_mmd)
        assert abs(e.total - want) < 1e-12

    def test_warmup_total_is_weighted_sum(self):
        m = tiny_model()
        poses, imgs = tiny_data(6)
        cfg = tr.TrainConfig(epochs=2, batch=6)
        e = tr.train_step(m, poses, imgs, cfg, np.random.default_rng(0), 5e-4,
                          nd.Adam(m.params), warmup=True)
        assert e.fwd == e.rev_pos == e.rev_rot == e.rev_enc == e.nll == e.fwd_mmd == e.rev_mmd == 0.0
        assert abs(e.total - (tr.W_RECON * e.recon + cfg.w_kl * e.kl)) < 1e-12

    def test_repeated_steps_decrease_total(self):
        m = tiny_model()
        poses, imgs = tiny_data(5)
        cfg = tr.TrainConfig(epochs=2, batch=5)
        opt = nd.Adam(m.params)
        first = fixed_step(m, opt, poses, imgs, cfg, 0)
        last = None
        for i in range(1, 50):
            last = fixed_step(m, opt, poses, imgs, cfg, i)
        assert last.total < first.total

    def test_zero_weights_freeze_parameters(self, monkeypatch):
        m = tiny_model()
        poses, imgs = tiny_data(5)
        cfg = tr.TrainConfig(epochs=2, batch=5, w_kl=0)
        for name in ("W_RECON", "W_FWD", "W_REV_POS", "W_REV_ROT", "W_REV_ENC",
                     "W_FWD_MMD", "W_REV_MMD"):
            monkeypatch.setattr(tr, name, 0.0)
        before = {k: v.copy() for k, v in m.param_arrays().items()}
        fixed_step(m, nd.Adam(m.params), poses, imgs, cfg, 0)
        after = m.param_arrays()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_warmup_touches_only_vae(self):
        m = tiny_model()
        poses, imgs = tiny_data(5)
        before = {k: v.copy() for k, v in m.param_arrays().items()}
        tr.train_step(m, poses, imgs, tr.TrainConfig(epochs=2, batch=5),
                      np.random.default_rng(0), 5e-4, nd.Adam(m.params), warmup=True)
        after = m.param_arrays()
        assert all(np.array_equal(before[k], after[k]) for k in before
                   if k.startswith("flow."))
        assert any(not np.array_equal(before[k], after[k]) for k in before
                   if k.startswith("vae."))

    def test_conditional_step_runs(self):
        m = tiny_model(conditional=True)
        poses, imgs = tiny_data(5)
        cond = m.condition_batch(poses)
        e = tr.train_step(m, poses, imgs, tr.TrainConfig(epochs=2, batch=5),
                          np.random.default_rng(0), 5e-4, nd.Adam(m.params),
                          cond_vecs=cond)
        assert np.isfinite(e.total)

    def test_optional_likelihood_term(self):
        m = tiny_model()
        poses, imgs = tiny_data(5)
        cfg = tr.TrainConfig(epochs=2, batch=5, w_nll=0.5)
        e = fixed_step(m, nd.Adam(m.params), poses, imgs, cfg, 0)
        base = (tr.W_FWD * e.fwd + tr.W_REV_POS * e.rev_pos + tr.W_REV_ROT * e.rev_rot
                + tr.W_REV_ENC * e.rev_enc + tr.W_RECON * e.recon + cfg.w_kl * e.kl
                + tr.W_FWD_MMD * e.fwd_mmd + tr.W_REV_MMD * e.rev_mmd)
        assert abs(e.total - (base + cfg.w_nll * e.nll)) < 1e-10

    def test_negative_likelihood_reported_as_is(self):
        m = tiny_model()
        # positive log-scales make the forward log-det large, so nll < 0
        last = m.config.layers
        for k in range(m.config.blocks):
            b = m.params[f"flow.block{k}.s.b{last}"]
            b.data = np.full_like(b.data, 0.3)
        poses, imgs = tiny_data(5)
        cfg = tr.TrainConfig(epochs=2, batch=5, w_nll=0.5)
        e = fixed_step(m, nd.Adam(m.params), poses, imgs, cfg, 0)
        assert e.nll < 0
        want = (tr.W_FWD * e.fwd + tr.W_REV_POS * e.rev_pos + tr.W_REV_ROT * e.rev_rot
                + tr.W_REV_ENC * e.rev_enc + tr.W_RECON * e.recon + cfg.w_kl * e.kl
                + tr.W_FWD_MMD * e.fwd_mmd + tr.W_REV_MMD * e.rev_mmd + cfg.w_nll * e.nll)
        assert abs(e.total - want) < 1e-10

    def test_empty_batch_rejected(self):
        m = tiny_model()
        with pytest.raises(DomainError):
            tr.train_step(m, np.zeros((0, 3)), np.zeros((0, 16, 16, 3)),
                          tr.TrainConfig(), np.random.default_rng(0), 5e-4,
                          nd.Adam(m.params))

    def test_nonfinite_loss_reports_components(self):
        m = tiny_model()
        m.params["vae.enc.lv.b"].data = np.full_like(m.params["vae.enc.lv.b"].data, 2000.0)
        poses, imgs = tiny_data(4)
        with pytest.raises(NonFiniteError, match="non-finite training loss"):
            fixed_step(m, nd.Adam(m.params), poses, imgs,
                       tr.TrainConfig(epochs=2, batch=4), 0)

    @pytest.mark.parametrize("fault", ["nan_image", "lv_bias_overflow"])
    def test_nonfinite_loss_raises_before_backward(self, fault):
        m = tiny_model()
        poses, imgs = tiny_data(4)
        cfg = tr.TrainConfig(epochs=2, batch=4)
        opt = nd.Adam(m.params)
        fixed_step(m, opt, poses, imgs, cfg, 0)  # the moments and t exist
        if fault == "nan_image":
            imgs = imgs.copy()
            imgs[1, 2, 3, 0] = np.nan
        else:  # exp(logvar / 2) overflows in the reparameterised sample
            m.params["vae.enc.lv.b"].data = np.full_like(m.params["vae.enc.lv.b"].data, 2000.0)

        def state():
            return ([p.data.tobytes() for p in m.params.values()]
                    + [a.tobytes() for a in opt.state_arrays().values()] + [opt.state["t"]])

        before = state()
        with pytest.raises(NonFiniteError) as e:
            fixed_step(m, opt, poses, imgs, cfg, 1)
        msg = str(e.value)
        assert msg.startswith("non-finite training loss: recon=")
        for name in ("recon", "kl", "fwd", "rev_pos", "rev_rot", "rev_enc", "fwd_mmd",
                     "rev_mmd", "total"):
            assert f" {name}=" in msg
        assert state() == before

    def test_step_after_a_failed_localize_fills_every_gradient(self):
        m = tiny_model()
        w = m.params["flow.block0.s.w0"]
        good = w.data
        w.data = good.copy()
        w.data[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            lc.localize(m, np.zeros((16, 16, 3)), n_samples=4, rng=np.random.default_rng(0))
        w.data = good
        poses, imgs = tiny_data(4)
        fixed_step(m, nd.Adam(m.params), poses, imgs, tr.TrainConfig(epochs=2, batch=4), 0)
        assert all(p.grad is not None for p in m.params.values())


class TestTrain:
    def test_two_epochs_decrease_loss(self):
        m = tiny_model()
        poses, imgs = tiny_data(10)
        cfg = tr.TrainConfig(epochs=8, batch=5, warmup_epochs=0, checkpoint_every=0, seed=1)
        entries, _ = tr.train(m, poses, imgs, cfg)
        assert len(entries) == 8
        assert entries[-1].total < entries[0].total

    def test_identical_seeds_identical_checkpoints(self, tmp_path):
        poses, imgs = tiny_data(8)
        cfg = tr.TrainConfig(epochs=2, batch=4, warmup_epochs=1, checkpoint_every=0, seed=5)
        blobs = []
        for run in ("a", "b"):
            m = tiny_model(seed=2)
            _, opt = tr.train(m, poses, imgs, cfg)
            p = tmp_path / f"{run}.ckpt"
            tr.save_checkpoint(p, m, epoch=2, train_cfg=cfg, opt=opt)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        poses, imgs = tiny_data(8)
        cfg = tr.TrainConfig(epochs=6, batch=4, warmup_epochs=1, checkpoint_every=3, seed=3)
        d1, d2 = tmp_path / "full", tmp_path / "resumed"
        d1.mkdir(), d2.mkdir()
        ma = tiny_model()
        tr.train(ma, poses, imgs, cfg, out_dir=d1)
        ck = tr.load_checkpoint(d1 / "epoch_0003.ckpt")
        tr.train(ck.model, poses, imgs, cfg, start_epoch=ck.epoch,
                 opt=tr.restore_optimizer(ck), out_dir=d2)
        assert (d1 / "model.ckpt").read_bytes() == (d2 / "model.ckpt").read_bytes()

    def test_alternate_mixing_cycles_pools(self):
        m = tiny_model()
        poses, imgs = tiny_data(6, seed=1)
        sposes, simgs = tiny_data(6, seed=2)
        cfg = tr.TrainConfig(epochs=4, batch=6, warmup_epochs=0, checkpoint_every=0)
        entries, _ = tr.train(m, poses, imgs, cfg, synth_poses=sposes, synth_images=simgs)
        assert len(entries) == 4

    def test_batch_larger_than_pool_rejected(self):
        m = tiny_model()
        poses, imgs = tiny_data(4)
        with pytest.raises(DomainError):
            tr.train(m, poses, imgs, tr.TrainConfig(epochs=1, batch=5))


def saved_meta(path) -> dict:
    """The JSON meta block of a checkpoint file."""
    blob = path.read_bytes()
    return json.loads(blob[16:16 + struct.unpack_from("<Q", blob, 8)[0]])


def write_parts(path, meta: dict, records: list) -> None:
    """A checkpoint file from a meta dict and (name, array) records, which
    may leave out or add names."""
    meta_b = json.dumps(meta).encode()
    out = [tr.MAGIC, struct.pack("<IQ", tr.VERSION, len(meta_b)), meta_b,
           struct.pack("<I", len(records))]
    for name, a in records:
        out += [struct.pack("<I", len(name)), name.encode(), struct.pack("<I", a.ndim),
                struct.pack(f"<{a.ndim}I", *a.shape), np.ascontiguousarray(a, "<f8").tobytes()]
    path.write_bytes(b"".join(out))


def save_fresh(path, m: PoseRegressor) -> None:
    """Save ``m`` at epoch 0 with a fresh optimizer and the default train
    config, so that every record and meta key is present."""
    tr.save_checkpoint(path, m, epoch=0, train_cfg=tr.TrainConfig(), opt=nd.Adam(m.params))


def stepped_checkpoint(path) -> tuple[dict, list]:
    """Save a tiny model after one Adam step and return its parts."""
    m = tiny_model()
    opt = nd.Adam(m.params)
    for t in m.params.values():
        t.grad = np.ones_like(t.data)
    opt.step(lr=1e-3)
    tr.save_checkpoint(path, m, epoch=1, train_cfg=tr.TrainConfig(), opt=opt)
    return saved_meta(path), list({**m.param_arrays(), **opt.state_arrays()}.items())


class TestCheckpoint:
    def test_parts_round_trip_bitwise(self, tmp_path):
        p, q = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_parts(q, *stepped_checkpoint(p))
        assert p.read_bytes() == q.read_bytes()

    @pytest.mark.parametrize("case", ["stray", "missing_moment", "moment_shape",
                                      "no_moments_after_a_step", "some_moments_at_step_0",
                                      "one_moment_missing_at_step_0"])
    def test_record_set_fixed_by_meta(self, tmp_path, case):
        p = tmp_path / "m.ckpt"
        meta, records = stepped_checkpoint(p)
        first = records[0][0]
        params = [(k, a) for k, a in records if not k.startswith("adam.")]
        if case == "stray":
            records += [("flow.block7.s.w0", np.zeros((2, 2))), ("vae.bogus", np.zeros(3))]
            why = "unexpected checkpoint record 'flow.block7.s.w0'"
        elif case == "missing_moment":
            records = [r for r in records if r[0] != f"adam.m.{first}"]
            why = f"missing checkpoint record 'adam.m.{first}'"
        elif case == "moment_shape":
            records = [(k, a.reshape(-1) if k == f"adam.v.{first}" else a) for k, a in records]
            why = f"checkpoint record 'adam.v.{first}' has shape"
        elif case == "no_moments_after_a_step":
            records = params
            why = "missing checkpoint record 'adam.m."
        elif case == "some_moments_at_step_0":
            meta["adam_t"] = 0
            records = params + [(f"adam.m.{first}", dict(records)[f"adam.m.{first}"])]
            why = "missing checkpoint record 'adam.m."
        else:
            meta["adam_t"] = 0
            records = [r for r in records if r[0] != f"adam.v.{first}"]
            why = f"missing checkpoint record 'adam.v.{first}'$"
        write_parts(p, meta, records)
        with pytest.raises(CheckpointError, match=why) as ei:
            tr.load_checkpoint(p)
        assert "\n" not in str(ei.value)

    def test_repeated_record_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        meta, records = stepped_checkpoint(p)
        name = "flow.block0.s.w0"
        records.append((name, np.full_like(dict(records)[name], 7.0)))
        write_parts(p, meta, records)
        with pytest.raises(CheckpointError, match=f"repeated checkpoint record '{name}'") as ei:
            tr.load_checkpoint(p)
        assert "\n" not in str(ei.value)

    def test_moments_required_at_step_0(self, tmp_path):
        # a fresh optimizer's zero moments are saved and restored like any
        # others, and a step-0 file without them is refused
        m = tiny_model()
        p = tmp_path / "m.ckpt"
        save_fresh(p, m)
        ck = tr.load_checkpoint(p)
        assert ck.adam_t == 0 and len(ck.opt_arrays) == 2 * len(m.params)
        restored = tr.restore_optimizer(ck)
        assert restored.state["t"] == 0
        for a in restored.state_arrays().values():
            assert not np.any(a)
        write_parts(p, saved_meta(p), list(m.param_arrays().items()))
        with pytest.raises(CheckpointError, match="missing checkpoint record 'adam.m.") as ei:
            tr.load_checkpoint(p)
        assert "\n" not in str(ei.value)

    @pytest.mark.parametrize("case", ["no_epoch", "model_key", "train_key", "train_null",
                                      "model_not_mapping", "epoch_not_int", "negative_epoch"])
    def test_bad_meta_block_rejected(self, tmp_path, case):
        p = tmp_path / "m.ckpt"
        meta, records = stepped_checkpoint(p)
        edits = {
            "no_epoch": (lambda: meta.pop("epoch"), "meta block has no key 'epoch'"),
            "model_key": (lambda: meta["model"].update(bogus=1),
                          "meta key 'model' does not decode: .*'bogus'"),
            "train_key": (lambda: meta["train"].update(bogus=1),
                          "meta key 'train' does not decode: .*'bogus'"),
            "train_null": (lambda: meta.update(train=None), "meta key 'train' does not decode"),
            "model_not_mapping": (lambda: meta.update(model=[3]),
                                  "meta key 'model' does not decode"),
            "epoch_not_int": (lambda: meta.update(epoch="one"),
                              "meta key 'epoch' does not decode"),
            "negative_epoch": (lambda: meta.update(epoch=-2),
                               "meta epoch -2 and adam_t 1 must be >= 0"),
        }
        edit, why = edits[case]
        edit()
        write_parts(p, meta, records)
        with pytest.raises(CheckpointError, match=why) as ei:
            tr.load_checkpoint(p)
        assert "\n" not in str(ei.value)

    def test_non_finite_parameter_rejected(self, tmp_path):
        # a single infinite scale-net weight would saturate the coupling's
        # tanh clamp and leave localize's output finite
        m = tiny_model()
        w = m.params["flow.block1.s.w1"]
        w.data = w.data.copy()
        w.data[0, 0] = np.inf
        p = tmp_path / "inf.ckpt"
        save_fresh(p, m)
        with pytest.raises(NonFiniteError, match="flow parameter 'block1.s.w1' is not finite"):
            tr.load_checkpoint(p)

    def test_round_trip_bitwise_forward(self, tmp_path):
        m = tiny_model(seed=7)
        p = tmp_path / "m.ckpt"
        save_fresh(p, m)
        ck = tr.load_checkpoint(p)
        poses, _ = tiny_data(3)
        x = m.encode_pose_batch(poses)
        y1, z1 = m.flow.forward(x)
        y2, z2 = ck.model.flow.forward(x)
        assert np.array_equal(y1.data, y2.data) and np.array_equal(z1.data, z2.data)
        img = np.random.default_rng(0).uniform(0, 1, (2, 16, 16, 3))
        assert np.array_equal(m.vae.encode(img).data, ck.model.vae.encode(img).data)

    def test_truncated_file_rejected(self, tmp_path):
        m = tiny_model()
        p = tmp_path / "m.ckpt"
        save_fresh(p, m)
        blob = p.read_bytes()
        p.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            tr.load_checkpoint(p)

    def test_version_bump_rejected(self, tmp_path):
        m = tiny_model()
        p = tmp_path / "m.ckpt"
        save_fresh(p, m)
        blob = bytearray(p.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            tr.load_checkpoint(p)

    def test_version_1_layout_refused_in_one_line(self, tmp_path, monkeypatch):
        m = tiny_model()
        latent = m.config.latent
        # version 1 pooled the last grid, so its heads were (latent, latent)
        for head in ("mu", "lv"):
            m.params[f"vae.enc.{head}.w"].data = np.zeros((latent, latent))
        p = tmp_path / "v1.ckpt"
        monkeypatch.setattr(tr, "VERSION", 1)
        save_fresh(p, m)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="version 1") as ei:
            tr.load_checkpoint(p)
        assert "\n" not in str(ei.value)

    def test_version_2_meta_refused_in_one_line(self, tmp_path, monkeypatch):
        m = tiny_model()
        p = tmp_path / "v2.ckpt"
        save_fresh(p, m)
        # version 2 also wrote five loss weights, clamp and cond_cell_*
        meta = saved_meta(p)
        meta["train"].update(w_fwd=1.0, w_rev_pos=1.0, w_rev_rot=1.0, w_rev_enc=0.1, w_recon=1.0)
        meta["model"].update(clamp=2.0, cond_cell_xy=0.5, cond_cell_theta=np.pi / 6)
        monkeypatch.setattr(tr, "VERSION", 2)
        write_parts(p, meta, list(m.param_arrays().items()))
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="version 2") as ei:
            tr.load_checkpoint(p)
        assert "reads version 3" in str(ei.value) and "\n" not in str(ei.value)

    @pytest.mark.parametrize("case", ["not_a_permutation", "moves_pad"])
    def test_bad_flow_permutation_rejected(self, tmp_path, case):
        m = tiny_model()
        w = m.flow.width
        assert w == m.config.x_len + 1  # a planar working vector has odd length
        if case == "not_a_permutation":
            m.flow.perms[0] = np.zeros(w, dtype=np.intp)
            why = f"is not a permutation of 0..{w - 1}"
        else:
            m.flow.perms[0] = np.roll(np.arange(w), 1)
            why = "moves the pad channel 0"
        p = tmp_path / "perm.ckpt"
        save_fresh(p, m)
        with pytest.raises(CheckpointError) as ei:
            tr.load_checkpoint(p)
        assert str(ei.value) == f"flow permutation 'perm0' {why}"

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            tr.load_checkpoint(p)

    def test_train_config_echoed(self, tmp_path):
        m = tiny_model()
        cfg = tr.TrainConfig(epochs=4, batch=2, w_kl=5e-4)
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(p, m, epoch=4, train_cfg=cfg, opt=nd.Adam(m.params))
        ck = tr.load_checkpoint(p)
        assert ck.train == cfg and ck.epoch == 4


class TestLossTable:
    def test_floats_round_trip(self):
        e = tr.LossEntry(epoch=3, lr=1 / 3, total=0.1 + 0.2, fwd=1e-17, rev_pos=2.5,
                         rev_rot=0.3, rev_enc=0.0, recon=np.pi, kl=1e-300)
        text = tr.format_loss_table([e])
        header, row = text.strip().split("\n")
        vals = row.split("\t")
        assert vals[0] == "3"
        assert float(vals[1]) == e.lr and float(vals[2]) == e.total
        assert float(vals[8]) == e.kl

    def test_header(self):
        header = tr.format_loss_table([]).rstrip("\n")
        assert header == "\t".join(["epoch", "lr", "total", "fwd", "rev_pos", "rev_rot", "rev_enc",
                                    "recon", "kl", "nll", "fwd_mmd", "rev_mmd"])


class TestMemory:
    """tracemalloc bounds at the default model width (408k parameters,
    32x32 images, batch 25)."""

    def model(self):
        return PoseRegressor(ModelConfig(dim=3, image_hw=32, seed=1), BOUNDS)

    def test_joint_step_frees_the_graph_it_consumes(self):
        # holding every saved activation and every intermediate gradient
        # until the step returns reaches about 48 MB
        m = self.model()
        opt = nd.Adam(m.params)
        rng = np.random.default_rng(4)
        poses = np.column_stack([rng.uniform(-1.5, 1.5, 25), rng.uniform(-1.5, 1.5, 25),
                                 rng.uniform(-np.pi, np.pi, 25)])
        imgs = rng.uniform(0.0, 1.0, (25, 32, 32, 3))
        cfg = tr.TrainConfig(epochs=1, batch=25)
        fixed_step(m, opt, poses, imgs, cfg, 0)
        peak, _ = traced_peak(lambda: fixed_step(m, opt, poses, imgs, cfg, 1))
        assert peak < 36e6
        assert all(t.grad is not None for t in m.params.values())

    def test_checkpoint_written_record_by_record(self, tmp_path):
        # the file is 9.8 MB; a joined copy of it and its parts is 19.6 MB
        m = self.model()
        opt = nd.Adam(m.params)
        peak, _ = traced_peak(lambda: tr.save_checkpoint(
            tmp_path / "m.ckpt", m, epoch=0, train_cfg=tr.TrainConfig(), opt=opt))
        assert os.path.getsize(tmp_path / "m.ckpt") > 9e6
        assert peak < 1e6
