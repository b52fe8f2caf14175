"""Tensor engine tests: every op's gradient is checked against central
finite differences before anything downstream trusts it."""

import contextlib
import os

import numpy as np
import pytest

from poseinn import ndiff as nd
from poseinn.errors import (
    DimensionError,
    DomainError,
    OptimizerError,
    TapeError,
)


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f(x)
        flat[i] = old - h
        fm = f(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


class TestElementwise:
    def test_add_sub_mul_values(self):
        a = nd.Tensor([[1.0, 2.0]])
        b = nd.Tensor([[3.0, 5.0]])
        np.testing.assert_array_equal((a + b).data, [[4.0, 7.0]])
        np.testing.assert_array_equal((a - b).data, [[-2.0, -3.0]])
        np.testing.assert_array_equal((a * b).data, [[3.0, 10.0]])

    def test_scalar_sugar(self):
        a = nd.Tensor([[2.0]])
        assert (1.0 + a).item() == 3.0
        assert (1.0 - a).item() == -1.0
        assert (3.0 * a).item() == 6.0
        assert (-a).item() == -2.0

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_binary_grads(self, op):
        rng = np.random.default_rng(42)
        f = getattr(nd, op)
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 4))
        a = nd.Tensor(x, requires_grad=True)
        b = nd.Tensor(y, requires_grad=True)
        nd.tsum(f(a, b) * nd.Tensor(rng.normal(size=(3, 4)))).backward()
        ga, gb = a.grad.copy(), b.grad.copy()

        def run(xv, yv):
            aa, bb = nd.Tensor(xv), nd.Tensor(yv)
            # same weighting as above
            rng2 = np.random.default_rng(42)
            rng2.normal(size=(3, 4))
            rng2.normal(size=(3, 4))
            w = rng2.normal(size=(3, 4))
            return float(np.sum(f(aa, bb).data * w))

        np.testing.assert_allclose(ga, fd_grad(lambda v: run(v, y), x.copy()), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(gb, fd_grad(lambda v: run(x, v), y.copy()), rtol=1e-5, atol=1e-8)

    def test_broadcast_grad_shapes(self):
        rng = np.random.default_rng(7)
        a = nd.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = nd.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        nd.tsum(a * b).backward()
        assert b.grad.shape == (1, 3)
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0, keepdims=True))
        np.testing.assert_allclose(a.grad, np.broadcast_to(b.data, (4, 3)))

    def test_row_bias_broadcast(self):
        a = nd.Tensor(np.ones((5, 2)), requires_grad=True)
        bias = nd.Tensor(np.zeros(2), requires_grad=True)
        nd.tsum(a + bias).backward()
        assert bias.grad.shape == (2,)
        np.testing.assert_array_equal(bias.grad, [5.0, 5.0])


class TestUnaryGrads:
    @pytest.mark.parametrize("name", ["exp", "tanh", "sin", "cos", "sigmoid"])
    def test_smooth_unary(self, name):
        rng = np.random.default_rng(3)
        f = getattr(nd, name)
        x0 = rng.uniform(-1.5, 1.5, size=(2, 5))
        t = nd.Tensor(x0.copy(), requires_grad=True)
        nd.tsum(f(t)).backward()
        num = fd_grad(lambda v: float(np.sum(f(nd.Tensor(v)).data)), x0.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-8)

    def test_leaky_relu_grad(self):
        # stay away from the kink so FD is valid
        x0 = np.array([[-2.0, -0.7, 0.9, 3.0]])
        t = nd.Tensor(x0.copy(), requires_grad=True)
        nd.tsum(nd.leaky_relu(t)).backward()
        num = fd_grad(lambda v: float(np.sum(nd.leaky_relu(nd.Tensor(v)).data)), x0.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-6)

    def test_leaky_relu_forward_is_bitwise_the_where_form(self):
        rng = np.random.default_rng(4)
        sub = np.finfo(np.float64).smallest_subnormal
        normal = np.finfo(np.float64).tiny
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            sub, -sub, 7 * sub, -7 * sub, 1e-310, -1e-310, normal, -normal])
        scaled = rng.normal(size=(6, 50)) * 10.0 ** rng.integers(-300, 300, size=(6, 50))
        for x in (rng.normal(size=(8, 40)), scaled, special):
            got = nd.leaky_relu(nd.Tensor(x)).data
            assert got.tobytes() == np.where(x > 0, x, 0.01 * x).tobytes()

    def test_exp_trivial(self):
        assert nd.exp(nd.Tensor(0.0)).item() == 1.0

    def test_acos_grad_and_domain(self):
        x0 = np.array([[-0.8, -0.2, 0.3, 0.9]])
        t = nd.Tensor(x0.copy(), requires_grad=True)
        nd.tsum(nd.acos(t)).backward()
        num = fd_grad(lambda v: float(np.sum(np.arccos(v))), x0.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-5)
        with pytest.raises(DomainError):
            nd.acos(nd.Tensor([1.0]))

    def test_clip_grad_masks_saturated(self):
        t = nd.Tensor([[-3.0, 0.0, 3.0]], requires_grad=True)
        out = nd.clip(t, -1.0, 1.0)
        np.testing.assert_array_equal(out.data, [[-1.0, 0.0, 1.0]])
        nd.tsum(out).backward()
        np.testing.assert_array_equal(t.grad, [[0.0, 1.0, 0.0]])

    def test_clip_then_acos_is_safe(self):
        t = nd.Tensor([1.0 + 1e-12], requires_grad=True)
        out = nd.acos(nd.clip(t, -1.0 + 1e-7, 1.0 - 1e-7))
        out.backward()
        assert np.isfinite(out.item()) and np.isfinite(t.grad).all()


class TestMatmul:
    def test_identity(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = nd.matmul(nd.Tensor(a), nd.Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_grad(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        a = nd.Tensor(x.copy(), requires_grad=True)
        b = nd.Tensor(w.copy(), requires_grad=True)
        nd.tsum(nd.matmul(a, b)).backward()
        na = fd_grad(lambda v: float(np.sum(v @ w)), x.copy())
        nb = fd_grad(lambda v: float(np.sum(x @ v)), w.copy())
        np.testing.assert_allclose(a.grad, na, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(b.grad, nb, rtol=1e-5, atol=1e-8)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            nd.matmul(nd.Tensor(np.ones((2, 3))), nd.Tensor(np.ones((2, 3))))
        with pytest.raises(DimensionError):
            nd.matmul(nd.Tensor(np.ones(3)), nd.Tensor(np.ones((3, 2))))


class TestLinear:
    @pytest.mark.parametrize("bias_shape", [(5,), (1, 5), (3, 5)])
    def test_equals_matmul_then_add_bitwise(self, bias_shape):
        rng = np.random.default_rng(12)
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=bias_shape)]
        before = [a.tobytes() for a in arrays]
        g_out = rng.normal(size=(3, 5))
        results = []
        for build in (lambda x, w, b: nd.linear(x, w, b),
                      lambda x, w, b: nd.matmul(x, w) + b):
            ts = [nd.Tensor(a, requires_grad=True) for a in arrays]
            out = build(*ts)
            nd.tsum(nd.mul(out, g_out)).backward()
            results.append([out.data] + [t.grad for t in ts])
        for got, ref in zip(*results):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("bias_shape", [(6,), (2, 5), (4, 5), (3, 1, 5), (1, 1, 5)])
    def test_bias_must_broadcast_into_product(self, bias_shape):
        x, w = nd.Tensor(np.ones((3, 4))), nd.Tensor(np.ones((4, 5)))
        with pytest.raises(DimensionError):
            nd.linear(x, w, nd.Tensor(np.ones(bias_shape)))

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            nd.linear(nd.Tensor(np.ones((2, 3))), nd.Tensor(np.ones((2, 3))), nd.Tensor(np.ones(3)))
        with pytest.raises(DimensionError):
            nd.linear(nd.Tensor(np.ones(3)), nd.Tensor(np.ones((3, 2))), nd.Tensor(np.ones(2)))


class TestShapeOps:
    def test_concat_split_roundtrip(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 7))
        t = nd.Tensor(x, requires_grad=True)
        parts = nd.split(t, [2, 5])
        back = nd.concat(parts)
        np.testing.assert_array_equal(back.data, x)
        nd.tsum(back * nd.Tensor(np.ones((3, 7)))).backward()
        np.testing.assert_array_equal(t.grad, np.ones((3, 7)))

    def test_split_grad_routing(self):
        t = nd.Tensor(np.zeros((2, 4)), requires_grad=True)
        a, b = nd.split(t, [1, 3])
        nd.tsum(a * 2.0 + 0.0 * nd.tsum(b)).backward()
        np.testing.assert_array_equal(t.grad, [[2, 0, 0, 0], [2, 0, 0, 0]])

    def test_split_bad_sizes(self):
        with pytest.raises(DimensionError):
            nd.split(nd.Tensor(np.zeros((2, 4))), [1, 2])

    def test_gather_cols_is_permutation(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 6))
        perm = rng.permutation(6)
        out = nd.gather_cols(nd.Tensor(x), perm)
        np.testing.assert_array_equal(out.data, x[:, perm])
        # applying the inverse permutation restores the input
        inv = np.argsort(perm)
        np.testing.assert_array_equal(nd.gather_cols(out, inv).data, x)

    def test_gather_cols_grad(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 5))
        perm = rng.permutation(5)
        w = rng.normal(size=(3, 5))
        t = nd.Tensor(x.copy(), requires_grad=True)
        nd.tsum(nd.gather_cols(t, perm) * nd.Tensor(w)).backward()
        num = fd_grad(lambda v: float(np.sum(v[:, perm] * w)), x.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-6, atol=1e-9)

    def test_reshape_grad(self):
        t = nd.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        nd.tsum(nd.reshape(t, (3, 2))).backward()
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))

    def test_concat_shape_check(self):
        with pytest.raises(DimensionError):
            nd.concat([nd.Tensor(np.zeros((2, 3))), nd.Tensor(np.zeros((3, 3)))])


class TestReductions:
    def test_sum_axis_grads(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4))
        for axis, keep in [(None, False), (0, False), (1, True)]:
            t = nd.Tensor(x.copy(), requires_grad=True)
            nd.tsum(nd.tsum(t, axis=axis, keepdims=keep) * 1.0).backward()
            np.testing.assert_array_equal(t.grad, np.ones((3, 4)))

    def test_mean(self):
        t = nd.Tensor(np.array([[2.0, 4.0, 6.0]]), requires_grad=True)
        m = nd.tmean(t)
        assert m.item() == 4.0
        m.backward()
        np.testing.assert_allclose(t.grad, np.full((1, 3), 1.0 / 3.0))

    def test_mse_value_and_grad(self):
        pred = nd.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        targ = nd.Tensor(np.array([[0.0, 0.0]]))
        loss = nd.mse(pred, targ)
        np.testing.assert_allclose(loss.item(), 2.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [[1.0, 2.0]])  # 2*(p-t)/n, n=2

    def test_mse_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nd.mse(nd.Tensor(np.zeros((1, 2))), nd.Tensor(np.zeros((2, 1))))


class TestConv:
    @pytest.mark.parametrize("shape,k,stride,pad", [
        ((1, 32, 32, 3), 4, 2, 1), ((2, 5, 7, 4), 3, 1, 2), ((3, 6, 6, 2), 4, 2, 0)])
    def test_im2col_columns_match_np_pad(self, shape, k, stride, pad):
        x = np.random.default_rng(4).normal(size=shape)
        x[0, 0, 0, 0] = -0.0
        cols, ho, wo = nd._im2col(x, k, stride, pad)
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        ref = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
        ref = ref[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
        assert (ho, wo) == ref.shape[1:3]
        want = ref.reshape(shape[0], ho, wo, k * k * shape[3])
        assert cols.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_conv2d_matches_direct(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 6, 6, 3))
        w = rng.normal(size=(4, 4, 3, 5))
        b = rng.normal(size=(5,))
        out = nd.conv2d(nd.Tensor(x), nd.Tensor(w), nd.Tensor(b), stride=2, pad=1).data
        # brute-force reference
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        ref = np.zeros_like(out)
        for n in range(2):
            for i in range(out.shape[1]):
                for j in range(out.shape[2]):
                    patch = xp[n, 2 * i:2 * i + 4, 2 * j:2 * j + 4, :]
                    for co in range(5):
                        ref[n, i, j, co] = np.sum(patch * w[:, :, :, co]) + b[co]
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_conv2d_grads(self):
        rng = np.random.default_rng(22)
        x0 = rng.normal(size=(1, 4, 4, 2))
        w0 = rng.normal(size=(4, 4, 2, 3))
        b0 = rng.normal(size=(3,))
        x = nd.Tensor(x0.copy(), requires_grad=True)
        w = nd.Tensor(w0.copy(), requires_grad=True)
        b = nd.Tensor(b0.copy(), requires_grad=True)
        nd.tsum(nd.conv2d(x, w, b)).backward()

        def f(xv, wv, bv):
            return float(np.sum(nd.conv2d(nd.Tensor(xv), nd.Tensor(wv), nd.Tensor(bv)).data))

        np.testing.assert_allclose(x.grad, fd_grad(lambda v: f(v, w0, b0), x0.copy()), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(w.grad, fd_grad(lambda v: f(x0, v, b0), w0.copy()), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(b.grad, fd_grad(lambda v: f(x0, w0, v), b0.copy()), rtol=1e-4, atol=1e-7)

    def test_conv_transpose_upsamples(self):
        rng = np.random.default_rng(23)
        x = nd.Tensor(rng.normal(size=(1, 4, 4, 3)))
        w = nd.Tensor(rng.normal(size=(4, 4, 3, 2)) * 0.1)
        b = nd.Tensor(np.zeros(2))
        out = nd.conv_transpose2d(x, w, b, stride=2, pad=1)
        assert out.data.shape == (1, 8, 8, 2)

    def test_conv_transpose_grads(self):
        rng = np.random.default_rng(24)
        x0 = rng.normal(size=(1, 3, 3, 2))
        w0 = rng.normal(size=(4, 4, 2, 2)) * 0.3
        b0 = rng.normal(size=(2,))
        x = nd.Tensor(x0.copy(), requires_grad=True)
        w = nd.Tensor(w0.copy(), requires_grad=True)
        b = nd.Tensor(b0.copy(), requires_grad=True)
        nd.tsum(nd.conv_transpose2d(x, w, b)).backward()

        def f(xv, wv, bv):
            return float(np.sum(nd.conv_transpose2d(nd.Tensor(xv), nd.Tensor(wv), nd.Tensor(bv)).data))

        np.testing.assert_allclose(x.grad, fd_grad(lambda v: f(v, w0, b0), x0.copy()), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(w.grad, fd_grad(lambda v: f(x0, v, b0), w0.copy()), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(b.grad, fd_grad(lambda v: f(x0, w0, v), b0.copy()), rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("transpose", [False, True], ids=["conv2d", "conv_transpose2d"])
    def test_bias_in_place_equals_plus_b_bitwise(self, transpose):
        """The bias is added in place into the fresh product; the values and
        all three gradients are those of the out-of-place ``+ b`` form."""
        rng = np.random.default_rng(27)
        x0, w0, b0 = rng.normal(size=(2, 6, 6, 3)), rng.normal(size=(4, 4, 3, 5)), rng.normal(size=5)
        x, w, b = (nd.Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        out = (nd.conv_transpose2d if transpose else nd.conv2d)(x, w, b)
        g = rng.normal(size=out.shape)
        nd.tsum(nd.mul(out, g)).backward()
        if transpose:
            wmat = w0[::-1, ::-1].transpose(2, 0, 1, 3).reshape(3, -1)
            flat = x0.reshape(-1, 3)
            ref = nd._col2im((flat @ wmat).reshape(2, 6, 6, -1), out.shape, 4, 2, 1) + b0
            gflat = nd._im2col(g, 4, 2, 1)[0].reshape(-1, 4 * 4 * 5)
            grads = [(gflat @ wmat.T).reshape(x0.shape),
                     (flat.T @ gflat).reshape(3, 4, 4, 5).transpose(1, 2, 0, 3)[::-1, ::-1],
                     g.sum(axis=(0, 1, 2))]
        else:
            flat = nd._im2col(x0, 4, 2, 1)[0].reshape(-1, 4 * 4 * 3)
            wmat = w0.reshape(-1, 5)
            ref = (flat @ wmat + b0).reshape(out.shape)
            gflat = g.reshape(-1, 5)
            grads = [nd._col2im((gflat @ wmat.T).reshape(2, 3, 3, -1), x0.shape, 4, 2, 1),
                     (flat.T @ gflat).reshape(w0.shape), gflat.sum(axis=0)]
        for got, want in zip([out.data, x.grad, w.grad, b.grad], [ref, *grads]):
            assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_conv_transpose_matches_direct(self):
        rng = np.random.default_rng(25)
        for (h, wd, k, stride, pad) in [(3, 5, 4, 2, 1), (4, 3, 3, 2, 1)]:
            x = rng.normal(size=(2, h, wd, 3))
            w = rng.normal(size=(k, k, 3, 5))
            b = rng.normal(size=(5,))
            out = nd.conv_transpose2d(nd.Tensor(x), nd.Tensor(w), nd.Tensor(b), stride=stride, pad=pad).data
            ho, wo = stride * (h - 1) + k - 2 * pad, stride * (wd - 1) + k - 2 * pad
            assert out.shape == (2, ho, wo, 5)
            # brute-force scatter: input pixel (iy, ix) lands on output
            # (stride*iy + i - pad, stride*ix + j - pad) through the flipped tap
            ref = np.zeros_like(out) + b
            for n in range(2):
                for iy in range(h):
                    for ix in range(wd):
                        for i in range(k):
                            for j in range(k):
                                oy, ox = stride * iy + i - pad, stride * ix + j - pad
                                if 0 <= oy < ho and 0 <= ox < wo:
                                    ref[n, oy, ox] += x[n, iy, ix] @ w[k - 1 - i, k - 1 - j]
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

            # the zero-dilation composition it replaces: stride-1 zeros between
            # pixels, then a unit-stride conv2d padded by k-1-pad
            dil = np.zeros((2, stride * (h - 1) + 1, stride * (wd - 1) + 1, 3))
            dil[:, ::stride, ::stride] = x
            g = rng.normal(size=out.shape)
            xt, wt, bt = (nd.Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
            nd.tsum(nd.mul(nd.conv_transpose2d(xt, wt, bt, stride=stride, pad=pad), nd.Tensor(g))).backward()
            dt, wr, br = (nd.Tensor(a.copy(), requires_grad=True) for a in (dil, w, b))
            composed = nd.conv2d(dt, wr, br, stride=1, pad=k - 1 - pad)
            np.testing.assert_allclose(out, composed.data, rtol=1e-12, atol=1e-12)
            nd.tsum(nd.mul(composed, nd.Tensor(g))).backward()
            np.testing.assert_allclose(xt.grad, dt.grad[:, ::stride, ::stride], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(wt.grad, wr.grad, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bt.grad, br.grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("w_shape", [(4, 3, 2, 2), (4, 4, 3, 2)],
                             ids=["non_square_kernel", "cin_mismatch"])
    def test_conv_transpose_rejects_bad_weight(self, w_shape):
        x = nd.Tensor(np.zeros((1, 3, 3, 2)))
        with pytest.raises(DimensionError, match="conv_transpose2d weight"):
            nd.conv_transpose2d(x, nd.Tensor(np.zeros(w_shape)), nd.Tensor(np.zeros(2)))


class TestComposite:
    def test_mlp_chain_gradcheck(self):
        """Random 2-layer MLP with the ops the flow nets use."""
        rng = np.random.default_rng(31)
        x0 = rng.normal(size=(3, 4))
        w1, b1 = rng.normal(size=(4, 8)) * 0.5, rng.normal(size=8) * 0.1
        w2, b2 = rng.normal(size=(8, 2)) * 0.5, rng.normal(size=2) * 0.1

        def build(t):
            h = nd.leaky_relu(nd.matmul(t, nd.Tensor(w1)) + nd.Tensor(b1))
            o = nd.tanh(nd.matmul(h, nd.Tensor(w2)) + nd.Tensor(b2))
            return nd.tsum(nd.exp(o * 0.3) * nd.sin(o))

        t = nd.Tensor(x0.copy(), requires_grad=True)
        build(t).backward()
        num = fd_grad(lambda v: float(build(nd.Tensor(v)).data), x0.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-8)

    def test_grad_accumulates_on_reuse(self):
        t = nd.Tensor([[3.0]], requires_grad=True)
        (nd.tsum(t * t)).backward()  # d/dt t^2 = 2t
        np.testing.assert_allclose(t.grad, [[6.0]])

    def test_determinism(self):
        rng = np.random.default_rng(42)
        x0 = rng.normal(size=(4, 6))
        outs = []
        for _ in range(2):
            t = nd.Tensor(x0.copy(), requires_grad=True)
            out = nd.tsum(nd.tanh(nd.matmul(t, nd.Tensor(np.ones((6, 3))))))
            out.backward()
            outs.append((float(out.data), t.grad.copy()))
        assert outs[0][0] == outs[1][0]
        np.testing.assert_array_equal(outs[0][1], outs[1][1])


class TestTape:
    def test_second_backward_rejected(self):
        t = nd.Tensor([[1.0]], requires_grad=True)
        out = nd.tsum(t * 2.0)
        out.backward()
        with pytest.raises(TapeError):
            out.backward()

    def test_backward_needs_scalar(self):
        t = nd.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            (t * 1.0).backward()

    def test_backward_needs_grad_ancestry(self):
        with pytest.raises(TapeError):
            nd.tsum(nd.Tensor(np.ones(3))).backward()

    def test_no_grad_tracking_without_requires(self):
        out = nd.tanh(nd.Tensor([[0.3]]))
        assert not out.requires_grad

    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "no_grad"])
    def test_nonfinite_values_pass_through_every_op(self, graph):
        # no op checks its values; in graph mode each still records its node
        x = nd.Tensor([[800.0, np.nan]], requires_grad=True)
        w = nd.Tensor([[1.0, 0.0], [0.0, 1.0]], requires_grad=True)
        with contextlib.nullcontext() if graph else nd.no_grad(), np.errstate(all="ignore"):
            outs = [nd.exp(x), nd.matmul(x, w), nd.linear(x, w, x), x * 2.0, nd.tanh(x),
                    nd.leaky_relu(x), nd.concat([x, x]), nd.narrow(x, 1, 2),
                    nd.gather_cols(x, [1, 0]), nd.reshape(x, (2, 1)), nd.tsum(x),
                    nd.mse(x, nd.Tensor([[0.0, 0.0]]))]
        assert np.isinf(outs[0].data[0, 0]) and np.isnan(outs[0].data[0, 1])
        for out in outs:
            assert not np.all(np.isfinite(out.data))
            assert out.requires_grad is graph


class TestNoGrad:
    def test_ops_on_parameters_build_no_graph(self):
        w = nd.Tensor([[0.5, -1.0], [2.0, 0.3]], requires_grad=True)
        x = nd.Tensor([[1.0, -2.0]], requires_grad=True)
        with nd.no_grad():
            outs = [nd.matmul(x, w), nd.linear(x, w, x), x + w, nd.leaky_relu(x), nd.exp(x),
                    nd.tanh(x), nd.concat([x, x]), nd.narrow(w, 0, 1, axis=0),
                    nd.gather_cols(w, [1, 0]), nd.tsum(x)]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == () and out._bwd is None

    def test_backward_on_result_raises(self):
        x = nd.Tensor([[1.0, -2.0]], requires_grad=True)
        with nd.no_grad():
            out = nd.tsum(nd.tanh(x))
        with pytest.raises(TapeError):
            out.backward()
        assert x.grad is None

    def test_graph_mode_back_after_exception(self):
        x = nd.Tensor([[1.0]], requires_grad=True)
        with pytest.raises(DimensionError):
            with nd.no_grad():
                nd.matmul(x, nd.Tensor(np.ones((3, 1))))
        assert (x * 2.0).requires_grad
        with np.errstate(over="ignore"):
            out = nd.exp(x * 800.0)
        assert out.requires_grad and np.isinf(out.data).all()

    def test_nested_blocks_restore_the_outer_mode(self):
        x = nd.Tensor([[1.0]], requires_grad=True)
        with nd.no_grad():
            with nd.no_grad():
                pass
            assert not (x * 2.0).requires_grad
            with pytest.raises(DimensionError):
                with nd.no_grad():
                    nd.matmul(x, nd.Tensor(np.ones((3, 1))))
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad


def adam_over(**arrays) -> nd.Adam:
    return nd.Adam({k: nd.Tensor(np.array(v, dtype=np.float64), requires_grad=True)
                    for k, v in arrays.items()})


class TestAdam:
    def test_zero_grad_keeps_params(self):
        opt = adam_over(w=[1.0, 2.0])
        opt.params["w"].grad = np.zeros(2)
        opt.step(lr=0.1)
        np.testing.assert_array_equal(opt.params["w"].data, [1.0, 2.0])
        assert opt.state["t"] == 1

    def test_first_step_magnitude(self):
        # bias correction makes the first step almost exactly lr*sign(g)
        opt = adam_over(w=[0.0])
        opt.params["w"].grad = np.array([3.7])
        opt.step(lr=0.05)
        np.testing.assert_allclose(opt.params["w"].data, [-0.05], rtol=1e-6)

    def test_quadratic_convergence(self):
        # minimize (w-3)^2 from w=0: 100 steps at lr=0.1 lands within 0.05
        opt = adam_over(w=[0.0])
        w = opt.params["w"]
        for _ in range(100):
            w.grad = 2.0 * (w.data - 3.0)
            opt.step(lr=0.1)
        assert abs(w.data[0] - 3.0) < 0.05

    def test_nonfinite_grad_names_param(self):
        opt = adam_over(bad_param=np.zeros(2))
        opt.params["bad_param"].grad = np.array([np.nan, 0.0])
        with pytest.raises(OptimizerError, match="bad_param"):
            opt.step(lr=0.1)

    def test_missing_grad_is_zero(self):
        opt = adam_over(a=[1.0], b=[5.0])
        opt.params["a"].grad = np.array([1.0])
        opt.step(lr=0.1)
        np.testing.assert_array_equal(opt.params["b"].data, [5.0])
        assert opt.params["a"].data[0] < 1.0

    def test_shape_mismatch(self):
        opt = adam_over(w=np.zeros(2))
        opt.params["w"].grad = np.zeros(3)
        with pytest.raises(OptimizerError):
            opt.step(lr=0.1)

    def test_matches_update_written_out(self):
        # the bias-corrected update in numpy, bitwise, over 5 steps; "b" never
        # gets a gradient, so it enters as zeros and only its moments decay
        rng = np.random.default_rng(42)
        w0, b0 = rng.normal(size=(3, 3)), rng.normal(size=3)
        opt = nd.Adam({"w": nd.Tensor(w0.copy(), requires_grad=True),
                       "b": nd.Tensor(b0.copy(), requires_grad=True)})
        ref = {"w": w0.copy(), "b": b0.copy()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        for t in range(1, 6):
            opt.zero_grad()
            w = opt.params["w"]
            nd.mse(nd.matmul(w, nd.Tensor(np.eye(3))), nd.Tensor(np.eye(3))).backward()
            grads = {"w": w.grad.copy(), "b": np.zeros(3)}
            opt.step(lr=lr)
            for k in ref:
                m[k] = b1 * m[k] + (1.0 - b1) * grads[k]
                v[k] = b2 * v[k] + (1.0 - b2) * (grads[k] * grads[k])
                ref[k] = ref[k] - lr * (m[k] / (1.0 - b1 ** t)) \
                    / (np.sqrt(v[k] / (1.0 - b2 ** t)) + eps)
                np.testing.assert_array_equal(opt.params[k].data, ref[k])
                np.testing.assert_array_equal(opt.state["m"][k], m[k])
                np.testing.assert_array_equal(opt.state["v"][k], v[k])
            assert opt.state["t"] == t

    @pytest.mark.parametrize("bad", [np.array([np.inf, 0.0]), np.zeros(3)],
                             ids=["non_finite", "wrong_shape"])
    def test_error_leaves_state_untouched(self, bad):
        # "b" comes after "a", so an update that wrote before checking every
        # gradient would already have moved "a" and its moments
        opt = adam_over(a=[1.0, 2.0], b=[3.0, 4.0])
        opt.params["a"].grad = np.array([0.5, -0.5])
        opt.params["b"].grad = bad
        with pytest.raises(OptimizerError):
            opt.step(lr=0.1)
        assert opt.state["t"] == 0
        for a in opt.state_arrays().values():
            np.testing.assert_array_equal(a, np.zeros(2))
        np.testing.assert_array_equal(opt.params["a"].data, [1.0, 2.0])
        opt.params["b"].grad = np.array([0.25, 1.0])
        opt.step(lr=0.1)
        params = {k: t.data.copy() for k, t in opt.params.items()}
        moments = {k: a.copy() for k, a in opt.state_arrays().items()}
        opt.params["b"].grad = bad
        with pytest.raises(OptimizerError, match="'b'"):
            opt.step(lr=0.1)
        assert opt.state["t"] == 1
        for k, t in opt.params.items():
            np.testing.assert_array_equal(t.data, params[k])
        for k, a in opt.state_arrays().items():
            np.testing.assert_array_equal(a, moments[k])

    def test_state_roundtrip(self):
        opt = adam_over(w=np.ones(2))
        t = opt.params["w"]
        t.grad = np.array([0.5, -0.5])
        opt.step(lr=0.1)
        arrs = opt.state_arrays()
        assert list(arrs) == ["adam.m.w", "adam.v.w"]
        opt2 = nd.Adam({"w": nd.Tensor(t.data.copy(), requires_grad=True)})
        opt2.load_state_arrays(arrs, t=1)
        assert opt2.state["t"] == 1
        np.testing.assert_array_equal(opt2.state["m"]["w"], opt.state["m"]["w"])
        np.testing.assert_array_equal(opt2.state["v"]["w"], opt.state["v"]["w"])


def test_blas_runs_on_one_thread():
    """The root conftest.py pins BLAS to one thread before numpy loads, so
    the matmuls here run single-threaded and reruns sum in one order.
    A BLAS that does not report its thread count passes unchecked."""
    from perfbench.envinfo import environment

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert environment(root, 0)["blas_threads"] in (1, "unknown")
