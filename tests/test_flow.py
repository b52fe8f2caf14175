"""Coupling-flow tests: exact invertibility, permutation behavior at zero
init, log-det against a finite-difference Jacobian oracle, gradients
against finite differences, and the architecture checks of ModelConfig."""

import numpy as np
import pytest

from poseinn import ndiff as nd
from poseinn import trainer as tr
from poseinn.errors import CheckpointError, ConditioningError, DimensionError, DomainError
from poseinn.flow import FlowModel
from poseinn.geometry import Aabb
from poseinn.model import ModelConfig, PoseRegressor

from conftest import randomize_output_layers


def rand_model(dim=3, enc_L=2, blocks=4, hidden=24, conditional=False, seed=0) -> FlowModel:
    m = FlowModel(ModelConfig(dim=dim, enc_L=enc_L, blocks=blocks, hidden=hidden,
                              conditional=conditional, seed=seed))
    randomize_output_layers(m, np.random.default_rng(seed))
    return m


def rand_regressor(seed: int) -> PoseRegressor:
    m = PoseRegressor(ModelConfig(dim=3, enc_L=2, blocks=4, hidden=24, image_hw=16, seed=seed),
                      Aabb(-np.ones(3), np.ones(3)))
    randomize_output_layers(m.flow, np.random.default_rng(seed))
    return m


class TestInvertibility:
    def test_roundtrip_many_random_models(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            m = rand_model(enc_L=int(rng.integers(1, 4)),
                           blocks=int(rng.integers(1, 7)),
                           hidden=int(rng.choice([8, 16, 32])), seed=trial)
            x = rng.normal(size=(8, m.config.x_len))
            y, z = m.forward(x)
            back = m.inverse(y, z)
            assert np.max(np.abs(back.data - x)) < 1e-9

    def test_roundtrip_other_direction(self):
        rng = np.random.default_rng(1)
        m = rand_model(dim=3, enc_L=2, seed=5)
        y0 = rng.normal(size=(10, m.config.latent))
        z0 = rng.normal(size=(10, m.config.dim))
        x = m.inverse(y0, z0)
        y1, z1 = m.forward(x)
        assert np.max(np.abs(y1.data - y0)) < 1e-9
        assert np.max(np.abs(z1.data - z0)) < 1e-9

    def test_conditional_roundtrip(self):
        rng = np.random.default_rng(2)
        m = rand_model(dim=3, conditional=True, seed=9)
        x = rng.normal(size=(6, m.config.x_len))
        c = rng.normal(size=(6, m.config.cond_dim))
        y, z = m.forward(x, c)
        back = m.inverse(y, z, c)
        assert np.max(np.abs(back.data - x)) < 1e-9

    def test_padded_width_is_even(self):
        # x_len = 6L + 3 is odd for every L, so the flow always pads
        for enc_L in range(1, 6):
            m = rand_model(dim=3, enc_L=enc_L)
            assert m.config.x_len == 6 * enc_L + 3
            assert m.width == m.config.x_len + 1 and m.width % 2 == 0
            assert all(p[0] == 0 for p in m.perms)

    def test_output_layout(self):
        m = rand_model(dim=3, enc_L=2)
        x = np.random.default_rng(3).normal(size=(4, 15))
        y, z = m.forward(x)
        assert y.data.shape == (4, 12) and z.data.shape == (4, 3)


class TestZeroInit:
    def test_forward_is_permutation_composition(self):
        cfg = ModelConfig(dim=3, enc_L=2, blocks=4, hidden=16, seed=7)
        m = FlowModel(cfg)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, cfg.x_len))
        w = np.concatenate([np.zeros((5, 1)), x], axis=1)  # pad channel
        for p in m.perms:
            w = w[:, p]
        expected = w[:, 1:]
        y, z = m.forward(x)
        np.testing.assert_array_equal(np.concatenate([y.data, z.data], axis=1), expected)

    def test_inverse_is_inverse_permutation(self):
        cfg = ModelConfig(dim=3, enc_L=1, blocks=3, hidden=16, seed=8)
        m = FlowModel(cfg)
        rng = np.random.default_rng(1)
        y = rng.normal(size=(4, cfg.latent))
        z = rng.normal(size=(4, cfg.dim))
        w = np.concatenate([np.zeros((4, 1)), y, z], axis=1)  # pad channel
        for ip in reversed(m.inv_perms):
            w = w[:, ip]
        back = m.inverse(nd.Tensor(y), nd.Tensor(z))
        np.testing.assert_array_equal(back.data, w[:, 1:])

    def test_log_det_zero(self):
        m = FlowModel(ModelConfig(dim=3, enc_L=2, blocks=4, seed=2))
        x = np.random.default_rng(4).normal(size=(3, 15))
        np.testing.assert_array_equal(m.forward_log_det(x)[2].data, np.zeros(3))


class TestLogDet:
    def test_matches_fd_jacobian_dim15(self):
        # d=3, L=2 gives pose encodings of length 15; the pad channel is
        # passive in every block, so it adds nothing to the log-det
        m = rand_model(dim=3, enc_L=2, blocks=3, hidden=12, seed=11)
        assert m.config.x_len == 15
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=15) * 0.5

        def f(v):
            y, z = m.forward(v[None, :])
            return np.concatenate([y.data[0], z.data[0]])

        h = 1e-6
        jac = np.zeros((15, 15))
        for j in range(15):
            e = np.zeros(15)
            e[j] = h
            jac[:, j] = (f(x0 + e) - f(x0 - e)) / (2 * h)
        _, ref = np.linalg.slogdet(jac)
        ours = float(m.forward_log_det(x0[None, :])[2].data[0])
        np.testing.assert_allclose(ours, ref, atol=1e-4)

    def test_additivity_across_blocks(self):
        m2 = rand_model(dim=3, enc_L=1, blocks=2, hidden=12, seed=17)
        # one-block flows holding block 0 and block 1 of m2
        ma, mb = rand_model(dim=3, enc_L=1, blocks=1), rand_model(dim=3, enc_L=1, blocks=1)
        for one, k in ((ma, 0), (mb, 1)):
            for name, t in one.params.items():
                t.data = m2.params[name.replace("block0", f"block{k}")].data
            one.perms, one.inv_perms = [m2.perms[k]], [m2.inv_perms[k]]
        x = np.random.default_rng(7).normal(size=(3, 9))
        ya, za = ma.forward(x)
        mid = np.concatenate([ya.data, za.data], axis=1)
        total = ma.forward_log_det(x)[2].data + mb.forward_log_det(mid)[2].data
        np.testing.assert_allclose(m2.forward_log_det(x)[2].data, total, atol=1e-9)


class TestGradients:
    def test_param_gradients_match_fd_through_forward(self):
        m = rand_model(dim=3, enc_L=1, blocks=2, hidden=8, seed=21)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, m.config.x_len)) * 0.5
        target = rng.normal(size=(4, m.config.latent))

        def loss_value():
            y, _ = m.forward(x)
            return float(nd.mse(y, nd.Tensor(target)).data)

        for t in m.params.values():
            t.grad = None
        y, z = m.forward(x)
        loss = nd.mse(y, nd.Tensor(target)) + nd.mse(z, nd.Tensor(np.zeros_like(z.data)))
        loss.backward()

        def loss_both():
            y2, z2 = m.forward(x)
            return (float(nd.mse(y2, nd.Tensor(target)).data)
                    + float(nd.mse(z2, nd.Tensor(np.zeros_like(z2.data))).data))

        h = 1e-5
        checked = 0
        for name in ["block0.s.w0", "block0.t.w1", "block1.s.b0", "block1.t.w2"]:
            t = m.params[name]
            flat = t.data.reshape(-1)
            idx = rng.integers(0, flat.size, size=min(5, flat.size))
            for i in idx:
                old = flat[i]
                flat[i] = old + h
                fp = loss_both()
                flat[i] = old - h
                fm = loss_both()
                flat[i] = old
                num = (fp - fm) / (2 * h)
                got = t.grad.reshape(-1)[i]
                assert abs(got - num) <= 1e-5 * max(1.0, abs(num)), (name, i, got, num)
                checked += 1
        assert checked >= 20

    def test_param_gradients_match_fd_through_inverse(self):
        m = rand_model(dim=3, enc_L=1, blocks=2, hidden=8, seed=23)
        rng = np.random.default_rng(9)
        y = rng.normal(size=(4, m.config.latent)) * 0.5
        z = rng.normal(size=(4, m.config.dim)) * 0.5
        target = rng.normal(size=(4, m.config.x_len))

        def loss_value():
            return float(nd.mse(m.inverse(y, z), nd.Tensor(target)).data)

        for t in m.params.values():
            t.grad = None
        nd.mse(m.inverse(y, z), nd.Tensor(target)).backward()

        h = 1e-5
        for name in ["block0.s.w1", "block1.t.b1"]:
            t = m.params[name]
            flat = t.data.reshape(-1)
            for i in rng.integers(0, flat.size, size=5):
                old = flat[i]
                flat[i] = old + h
                fp = loss_value()
                flat[i] = old - h
                fm = loss_value()
                flat[i] = old
                num = (fp - fm) / (2 * h)
                got = t.grad.reshape(-1)[i]
                assert abs(got - num) <= 1e-5 * max(1.0, abs(num)), (name, i, got, num)

    def test_input_gradient_through_forward(self):
        m = rand_model(dim=3, enc_L=1, blocks=2, hidden=8, seed=25)
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=(2, m.config.x_len)) * 0.5
        xt = nd.Tensor(x0.copy(), requires_grad=True)
        y, z = m.forward(xt)
        nd.tsum(nd.mul(y, y)).backward()
        h = 1e-6

        def f(v):
            y2, _ = m.forward(v)
            return float(np.sum(y2.data ** 2))

        for (i, j) in [(0, 0), (0, 4), (1, 7), (1, 8)]:
            e = np.zeros_like(x0)
            e[i, j] = h
            num = (f(x0 + e) - f(x0 - e)) / (2 * h)
            assert abs(xt.grad[i, j] - num) <= 1e-5 * max(1.0, abs(num))


class TestConditioning:
    def test_condition_changes_output(self):
        m = rand_model(dim=3, conditional=True, seed=31)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, m.config.x_len))
        c1 = np.zeros((2, m.config.cond_dim))
        c2 = np.ones((2, m.config.cond_dim))
        y1, _ = m.forward(x, c1)
        y2, _ = m.forward(x, c2)
        assert np.max(np.abs(y1.data - y2.data)) > 1e-6

    def test_missing_condition_rejected(self):
        m = rand_model(dim=3, conditional=True)
        x = np.zeros((1, m.config.x_len))
        with pytest.raises(ConditioningError):
            m.forward(x)

    def test_unexpected_condition_rejected(self):
        m = rand_model(dim=3)
        x = np.zeros((1, m.config.x_len))
        with pytest.raises(ConditioningError):
            m.forward(x, np.zeros((1, 3)))

    def test_condition_shape_checked(self):
        m = rand_model(dim=3, conditional=True)
        x = np.zeros((2, m.config.x_len))
        cd = m.config.cond_dim
        with pytest.raises(DimensionError):
            m.forward(x, np.zeros((2, 5)))
        with pytest.raises(DimensionError):
            m.forward(x, np.zeros((3, cd)))
        with pytest.raises(DimensionError):
            m.inverse(np.zeros((3, m.config.latent)), np.zeros((3, 3)), np.zeros((2, cd)))


class TestSplitCondition:
    """One condition row serves a whole batch through the split first layer."""

    @pytest.mark.parametrize("rows", [1, 5])
    def test_subnet_is_the_mlp_of_passive_and_embedding_side_by_side(self, rows):
        m = rand_model(dim=3, conditional=True, seed=32)
        rng = np.random.default_rng(13)
        for name, t in m.params.items():
            if ".b" in name:  # biases start at zero; make each one count
                t.data = rng.normal(size=t.data.shape)
        passive = rng.normal(size=(5, m.half))
        ce = m.embed_condition(rng.normal(size=(rows, m.config.cond_dim))).data
        h = np.concatenate([passive, np.broadcast_to(ce, (5, ce.shape[1]))], axis=1)
        n_layers = m.config.layers + 1
        for i in range(n_layers):
            h = h @ m.params[f"block1.t.w{i}"].data + m.params[f"block1.t.b{i}"].data
            if i < n_layers - 1:
                h = np.maximum(h, nd.LEAKY_ALPHA * h)
        got = m._subnet("block1.t", nd.Tensor(passive), nd.Tensor(ce)).data
        np.testing.assert_allclose(got, h, rtol=0, atol=1e-12)

    def test_one_row_matches_tiled_rows(self):
        m = rand_model(dim=3, conditional=True, seed=33)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(7, m.config.x_len))
        c = rng.normal(size=(1, m.config.cond_dim))
        tiled = np.tile(c, (7, 1))
        for a, b in zip(m.forward_log_det(x, c), m.forward_log_det(x, tiled)):
            assert np.max(np.abs(a.data - b.data)) < 1e-9
        y, z = rng.normal(size=(7, m.config.latent)), rng.normal(size=(7, 3))
        assert np.max(np.abs(m.inverse(y, z, c).data - m.inverse(y, z, tiled).data)) < 1e-9

    def test_roundtrip_with_one_row(self):
        m = rand_model(dim=3, conditional=True, seed=34)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(9, m.config.x_len))
        c = rng.normal(size=(1, m.config.cond_dim))
        y, z = m.forward(x, c)
        assert np.max(np.abs(m.inverse(y, z, c).data - x)) < 1e-9

    @pytest.mark.parametrize("rows", [1, 4])
    def test_condition_rows_of_first_layer_and_embedding_match_fd(self, rows):
        m = rand_model(dim=3, enc_L=1, blocks=2, hidden=8, conditional=True, seed=35)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(4, m.config.x_len)) * 0.5
        c = rng.normal(size=(rows, m.config.cond_dim))
        target = rng.normal(size=(4, m.config.latent))

        def loss():
            y, _ = m.forward(x, c)
            return nd.mse(y, nd.Tensor(target))

        for t in m.params.values():
            t.grad = None
        loss().backward()
        h = 1e-5
        cond_rows = np.arange(m.half, m.params["block0.s.w0"].data.shape[0])
        cond_w0 = m.params["cond.w0"].data.shape
        picks = [("block0.s.w0", (i, j)) for i, j in zip(rng.choice(cond_rows, 5),
                                                           rng.integers(0, 8, 5))]
        picks += [("cond.w0", (i, j)) for i, j in zip(rng.integers(0, cond_w0[0], 5),
                                                       rng.integers(0, cond_w0[1], 5))]
        for name, idx in picks:
            t = m.params[name]
            old = t.data[idx]
            t.data[idx] = old + h
            fp = loss().item()
            t.data[idx] = old - h
            fm = loss().item()
            t.data[idx] = old
            num = (fp - fm) / (2 * h)
            got = t.grad[idx]
            assert abs(got - num) <= 1e-5 * max(1.0, abs(num)), (name, idx, got, num)


class TestOneRowLatent:
    """One image-latent row serves a whole batch: the top coupling's
    subnets run on one row and broadcast over the rows of z."""

    @pytest.mark.parametrize("conditional,c_rows", [(False, 0), (True, 1), (True, 6)])
    def test_matches_repeated_latent(self, conditional, c_rows):
        m = rand_model(dim=3, conditional=conditional, seed=51)
        rng = np.random.default_rng(17)
        y = rng.normal(size=(1, m.config.latent))
        z = rng.normal(size=(6, 3))
        c = None
        if conditional:
            c = np.tile(rng.normal(size=(1, m.config.cond_dim)), (c_rows, 1))
        one = m.inverse(y, z, c).data
        rep = m.inverse(np.repeat(y, 6, axis=0), z, c).data
        assert one.shape == (6, m.config.x_len)
        # a one-row product rounds differently from a many-row one, and the
        # random couplings scale the output far past 1, so the bound is
        # relative to the output's size
        assert np.max(np.abs(one - rep)) <= 1e-12 * np.max(np.abs(rep))
        y2, z2 = m.forward(one, c)
        assert np.max(np.abs(y2.data - y)) < 1e-9
        assert np.max(np.abs(z2.data - z)) < 1e-9

    def test_other_row_count_rejected(self):
        m = rand_model(dim=3)
        with pytest.raises(DimensionError, match="latent has 2 rows") as e:
            m.inverse(np.zeros((2, m.config.latent)), np.zeros((5, 3)))
        assert "\n" not in str(e.value)

    def test_gradients_match_fd(self):
        m = rand_model(dim=3, enc_L=1, blocks=2, hidden=8, conditional=True, seed=52)
        rng = np.random.default_rng(18)
        yt = nd.Tensor(rng.normal(size=(1, m.config.latent)) * 0.5, requires_grad=True)
        z = rng.normal(size=(4, m.config.dim)) * 0.5
        c = rng.normal(size=(1, m.config.cond_dim))
        target = rng.normal(size=(4, m.config.x_len))

        def loss(y):
            return nd.mse(m.inverse(y, z, c), nd.Tensor(target))

        for t in m.params.values():
            t.grad = None
        loss(yt).backward()
        h = 1e-5
        top = m.config.blocks - 1
        picks = [(m.params[f"block{top}.{net}.{p}"], idx)
                 for net, p, idx in [("s", "w0", (1, 3)), ("s", "w0", (2, 5)), ("t", "w0", (1, 0)),
                                     ("t", "b0", (4,)), ("s", "w1", (3, 6)), ("t", "b1", (2,))]]
        picks += [(yt, (0, j)) for j in range(m.config.latent)]
        for t, idx in picks:
            old = t.data[idx]
            t.data[idx] = old + h
            fp = loss(yt.data).item()
            t.data[idx] = old - h
            fm = loss(yt.data).item()
            t.data[idx] = old
            num = (fp - fm) / (2 * h)
            got = t.grad[idx]
            assert abs(got - num) <= 1e-5 * max(1.0, abs(num)), (idx, got, num)

class TestAmbiguityChannel:
    def test_two_z_two_poses(self):
        m = rand_model(dim=3, seed=41)
        rng = np.random.default_rng(12)
        y = rng.normal(size=(1, m.config.latent))
        xa = m.inverse(y, rng.normal(size=(1, 3)))
        xb = m.inverse(y, rng.normal(size=(1, 3)))
        assert np.max(np.abs(xa.data - xb.data)) > 1e-6


class TestShapesAndSerialization:
    def test_dimension_errors(self):
        m = rand_model(dim=3, enc_L=2)
        with pytest.raises(DimensionError):
            m.forward(np.zeros((2, 7)))
        with pytest.raises(DimensionError):
            m.inverse(np.zeros((2, 5)), np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            m.inverse(np.zeros((2, 12)), np.zeros((3, 3)))

    def test_same_seed_same_model(self):
        a = rand_model(seed=5)
        b = rand_model(seed=5)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)
        for pa, pb in zip(a.perms, b.perms):
            np.testing.assert_array_equal(pa, pb)

    def test_param_roundtrip_bitwise(self):
        src = rand_regressor(seed=6)
        dst = rand_regressor(seed=999)
        dst.load_param_arrays(src.param_arrays())
        x = np.random.default_rng(13).normal(size=(3, src.config.x_len))
        ys, zs = src.flow.forward(x)
        yd, zd = dst.flow.forward(x)
        np.testing.assert_array_equal(ys.data, yd.data)
        np.testing.assert_array_equal(zs.data, zd.data)

    @pytest.mark.parametrize("kw", [{"hidden": 0}, {"hidden": -3},
                                    {"conditional": True, "cond_width": 0},
                                    {"enc_L": 0}, {"blocks": 0}, {"layers": 0}])
    def test_nonpositive_width_rejected(self, kw):
        with pytest.raises(DimensionError):
            ModelConfig(dim=3, **kw)

    def test_unconditional_ignores_cond_width(self):
        assert ModelConfig(dim=3, cond_width=0).cond_width == 0

    def test_missing_param_rejected(self, tmp_path):
        # a file written without one parameter record, its moments kept
        m = rand_regressor(seed=1)
        arrays = m.param_arrays()
        del arrays["flow.block0.s.w0"]
        m.param_arrays = lambda: arrays
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(p, m, epoch=0, train_cfg=tr.TrainConfig(), opt=nd.Adam(m.params))
        with pytest.raises(CheckpointError,
                           match="^missing checkpoint record 'flow.block0.s.w0'$"):
            tr.load_checkpoint(p)
