"""VAE tests: shapes, pooling linearity, KL closed forms, FD gradients
through the conv stacks, and a short training run driving reconstruction
error down."""

import numpy as np
import pytest

from poseinn import ndiff as nd
from poseinn.encoder import Vae, kl_divergence
from poseinn.errors import DimensionError, DomainError
from poseinn.geometry import Aabb
from poseinn.model import ModelConfig, PoseRegressor


def tiny_vae(enc_L=2, hw=16, seed=1) -> Vae:
    """A VAE with latent width 2 * 3 * enc_L whose weights are drawn
    from ``seed`` >= 1: a model draws its VAE from its own seed + 1, and a
    model seed is >= 0."""
    return Vae(ModelConfig(dim=3, enc_L=enc_L, image_hw=hw, seed=seed - 1))


class TestShapes:
    def test_latent_width_30_for_default(self):
        vae = tiny_vae(enc_L=5, hw=32, seed=1)
        rng = np.random.default_rng(0)
        imgs = rng.uniform(size=(2, 32, 32, 3))
        out = vae.encode(imgs, mode="mean")
        assert out.data.shape == (2, 30)

    def test_decode_shape_and_range(self):
        vae = tiny_vae()
        rng = np.random.default_rng(1)
        img = vae.decode(rng.normal(size=(3, 12)) * 2.0)
        assert img.data.shape == (3, 16, 16, 3)
        assert np.all(img.data >= 0.0) and np.all(img.data <= 1.0)

    def test_dim_mismatch_rejected(self):
        vae = tiny_vae()
        with pytest.raises(DimensionError):
            vae.encode(np.zeros((1, 32, 32, 3)), mode="mean")
        with pytest.raises(DimensionError):
            vae.decode(np.zeros((1, 13)))

    def test_bad_config(self):
        for kw in ({"image_hw": 24}, {"image_hw": 0}, {"enc_L": 0}):
            with pytest.raises(DimensionError):
                ModelConfig(dim=3, **kw)


class TestEncodeModes:
    def test_mean_mode_deterministic(self):
        vae = tiny_vae()
        rng = np.random.default_rng(2)
        imgs = rng.uniform(size=(2, 16, 16, 3))
        a = vae.encode(imgs, mode="mean").data
        b = vae.encode(imgs, mode="mean").data
        np.testing.assert_array_equal(a, b)

    def test_other_modes_refused(self):
        vae = tiny_vae()
        for mode in ("sample", "nonsense"):
            with pytest.raises(DomainError, match=f"unknown encode mode '{mode}'"):
                vae.encode(np.zeros((1, 16, 16, 3)), mode=mode)


class TestKl:
    def test_standard_normal_is_zero(self):
        z = np.zeros((1, 5))
        assert kl_divergence(nd.Tensor(z), nd.Tensor(z)).item() == 0.0

    def test_unit_mean_scalar(self):
        v = kl_divergence(nd.Tensor(np.array([[1.0]])), nd.Tensor(np.array([[0.0]])))
        np.testing.assert_allclose(v.item(), 0.5, atol=1e-15)

    def test_nonnegative_10k(self):
        rng = np.random.default_rng(5)
        mu = rng.normal(size=(10_000, 4)) * 2.0
        lv = rng.normal(size=(10_000, 4)) * 2.0
        per = 0.5 * (mu ** 2 + np.exp(lv) - 1.0 - lv)
        assert np.all(per.sum(axis=1) >= 0.0)
        # and the tensor version agrees with the closed form
        got = kl_divergence(nd.Tensor(mu[:100]), nd.Tensor(lv[:100])).item()
        np.testing.assert_allclose(got, per[:100].sum(axis=1).mean(), rtol=1e-12)

    def test_grad_matches_closed_form(self):
        mu = nd.Tensor(np.array([[0.3, -0.7]]), requires_grad=True)
        lv = nd.Tensor(np.array([[0.2, -0.1]]), requires_grad=True)
        kl_divergence(mu, lv).backward()
        np.testing.assert_allclose(mu.grad, mu.data, atol=1e-12)  # d/dmu = mu
        np.testing.assert_allclose(lv.grad, 0.5 * (np.exp(lv.data) - 1.0), atol=1e-12)


class TestGradients:
    def test_encoder_grads_match_fd(self):
        vae = tiny_vae(enc_L=1, seed=7)
        rng = np.random.default_rng(6)
        imgs = rng.uniform(0.2, 0.8, size=(2, 16, 16, 3))
        target = rng.normal(size=(2, 6))

        def loss_value():
            mu, lv = vae.encode_stats(imgs)
            return float((nd.mse(mu, nd.Tensor(target)) + kl_divergence(mu, lv)).data)

        for t in vae.params.values():
            t.grad = None
        mu, lv = vae.encode_stats(imgs)
        (nd.mse(mu, nd.Tensor(target)) + kl_divergence(mu, lv)).backward()

        h = 1e-5
        for name in ["enc.conv0.w", "enc.conv3.w", "enc.mu.w", "enc.lv.b"]:
            t = vae.params[name]
            flat = t.data.reshape(-1)
            for i in rng.integers(0, flat.size, size=4):
                old = flat[i]
                flat[i] = old + h
                fp = loss_value()
                flat[i] = old - h
                fm = loss_value()
                flat[i] = old
                num = (fp - fm) / (2 * h)
                got = t.grad.reshape(-1)[i]
                assert abs(got - num) <= 1e-4 * max(1.0, abs(num)), (name, i, got, num)

    def test_decoder_grads_match_fd(self):
        vae = tiny_vae(enc_L=1, seed=8)
        rng = np.random.default_rng(7)
        lat = rng.normal(size=(1, 6))
        target = rng.uniform(size=(1, 16, 16, 3))

        def loss_value():
            return float(nd.mse(vae.decode(lat), nd.Tensor(target)).data)

        for t in vae.params.values():
            t.grad = None
        nd.mse(vae.decode(lat), nd.Tensor(target)).backward()

        h = 1e-5
        for name in ["dec.lin.w", "dec.conv0.w", "dec.conv3.b"]:
            t = vae.params[name]
            flat = t.data.reshape(-1)
            for i in rng.integers(0, flat.size, size=4):
                old = flat[i]
                flat[i] = old + h
                fp = loss_value()
                flat[i] = old - h
                fm = loss_value()
                flat[i] = old
                num = (fp - fm) / (2 * h)
                got = t.grad.reshape(-1)[i]
                assert abs(got - num) <= 1e-4 * max(1.0, abs(num)), (name, i, got, num)


class TestTrainingBehavior:
    def test_reconstruction_improves(self):
        """VAE-only training on a small image set drives recon loss down."""
        vae = tiny_vae(enc_L=1, seed=9)
        rng = np.random.default_rng(8)
        # structured images: random blocks, not pure noise
        imgs = np.zeros((20, 16, 16, 3))
        for i in range(20):
            imgs[i, :, : 4 + 2 * (i % 5), :] = rng.uniform(0.3, 1.0, size=3)
        opt = nd.Adam(vae.params)
        losses = []
        for _ in range(30):
            opt.zero_grad()
            mu, lv = vae.encode_stats(imgs)
            recon = nd.mse(vae.decode(mu), nd.Tensor(imgs))
            loss = recon + nd.mul(kl_divergence(mu, lv), 1e-3)
            loss.backward()
            opt.step(lr=3e-3)
            losses.append(recon.item())
        assert losses[-1] < 0.5 * losses[0]

    def test_serialization_roundtrip(self):
        src, dst = (PoseRegressor(ModelConfig(dim=3, enc_L=2, image_hw=16, seed=s),
                                  Aabb(-np.ones(3), np.ones(3))) for s in (10, 11))
        dst.load_param_arrays(src.param_arrays())
        imgs = np.random.default_rng(9).uniform(size=(1, 16, 16, 3))
        np.testing.assert_array_equal(src.vae.encode(imgs, mode="mean").data,
                                      dst.vae.encode(imgs, mode="mean").data)
