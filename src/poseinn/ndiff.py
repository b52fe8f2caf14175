"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is float64. A ``Tensor`` wraps a numpy array and, when it is the
result of a differentiable op, remembers its parents and a backward closure.
Tensors are immutable values: ops never write into an input array, so the
creation order of tensors is already a topological order of the compute
graph. ``Tensor.backward`` exploits that: it collects the grad-requiring
nodes reachable from a scalar root and walks them in exact reverse creation
order.

An op builds a graph node when one of its inputs requires a gradient;
model parameters always do, so training and any direct call into a model
build graphs. Inside ``no_grad()`` every op returns a plain tensor with
no parents and no backward closure, and inference that wants no gradient
runs there. No op checks its result for finiteness: a NaN or Inf flows
through the ops as it does through numpy. Values are checked where they
leave the engine: ``trainer.train_step`` checks every loss term before
``backward()``, ``localizer.localize`` checks the flow output,
``Adam.step`` checks every gradient and ``PoseRegressor.load_param_arrays``
every loaded weight.
Callers run the ops under ``np.errstate(all="ignore")`` so that a
non-finite value is reported by one of those checks, not by warnings.

Only the layers this project uses are supported: 2-D matmul and affine
layers, elementwise arithmetic with numpy-style broadcasting on
add/sub/mul, a handful of nonlinearities, concat/split/column-gather,
reshape, reductions, MSE, stride-2 convolutions (direct, and transposed
as its adjoint through the same im2col/col2im pair). No GPU, no
higher-order derivatives.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, DomainError, OptimizerError, TapeError

_node_ids = itertools.count()
_grad_enabled = True

# negative-side slope of leaky_relu; 0 < LEAKY_ALPHA < 1 lets its forward
# take the larger of x and LEAKY_ALPHA * x
LEAKY_ALPHA = 0.01
# Adam's moment decay rates and denominator guard (Kingma & Ba's values)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """Immutable float64 array with optional gradient tracking.

    ``data`` must never be mutated after construction; the optimizer is the
    single sanctioned exception and only touches leaf parameters between
    backward passes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_nid", "_parents", "_bwd", "_op", "_spent")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _bwd=None, _op="leaf"):
        self.data = _as_f64(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._nid = next(_node_ids)
        self._parents = _parents
        self._bwd = _bwd
        self._op = _op
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Reverse-mode pass from this scalar; fills ``.grad`` on leaves.

        Creation order is a valid topological order because tensors are
        immutable: every op's inputs exist before its output. The root is
        seeded with gradient 1, the grad-requiring nodes reachable from it
        are visited in exact reverse creation order, and each node's
        backward closure accumulates into its parents. A root can only be
        run once; rerunning would silently double-accumulate leaf gradients.
        """
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar root")
        if not self.requires_grad:
            raise TapeError("backward() on a tensor with no grad-requiring ancestry")
        if self._spent:
            raise TapeError("second backward pass on the same root; rebuild the graph first")
        seen: dict[int, Tensor] = {}
        stack = [self]
        while stack:
            t = stack.pop()
            if t._nid in seen:
                continue
            seen[t._nid] = t
            for p in t._parents:
                if p.requires_grad and p._nid not in seen:
                    stack.append(p)
        self._spent = True
        self.grad = np.ones_like(self.data)
        for nid in sorted(seen, reverse=True):
            node = seen[nid]
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, grad={self.requires_grad})"

    # operator sugar; python scalars become constant tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


@contextmanager
def no_grad():
    """Ops inside the block build no graph; the previous mode comes back on
    exit, also when the block raises."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data: np.ndarray, parents: tuple, bwd, op: str) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _bwd=bwd, _op=op)
    return Tensor(data, _op=op)


# ---------------------------------------------------------------------------
# elementwise and linear ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data - b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bwd, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims disagree: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(out_data, (a, b), bwd, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine layer ``x @ w + b`` as one node: the bias is added in place
    into the fresh product, so no second array of the output's size is
    made. ``b`` must broadcast into the product's shape; values and
    gradients equal those of ``matmul`` then ``add`` bitwise."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(f"linear needs 2-D operands, got {x.data.shape} @ {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(f"linear inner dims disagree: {x.data.shape} @ {w.data.shape}")
    out_data = x.data @ w.data
    try:
        out_data += b.data
    except ValueError:
        raise DimensionError(
            f"linear bias {b.data.shape} does not broadcast into {out_data.shape}") from None

    def bwd(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (x, w, b), bwd, "linear")


def exp(a) -> Tensor:
    a = _wrap(a)
    out_data = np.exp(a.data)

    def bwd(g):
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), bwd, "exp")


def tanh(a) -> Tensor:
    a = _wrap(a)
    out_data = np.tanh(a.data)

    def bwd(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bwd, "tanh")


def leaky_relu(a) -> Tensor:
    a = _wrap(a)
    out_data = LEAKY_ALPHA * a.data
    np.maximum(a.data, out_data, out=out_data)

    def bwd(g):
        _accumulate(a, g * np.where(a.data > 0.0, 1.0, LEAKY_ALPHA))

    return _make(out_data, (a,), bwd, "leaky_relu")


def sin(a) -> Tensor:
    a = _wrap(a)
    out_data = np.sin(a.data)

    def bwd(g):
        _accumulate(a, g * np.cos(a.data))

    return _make(out_data, (a,), bwd, "sin")


def cos(a) -> Tensor:
    a = _wrap(a)
    out_data = np.cos(a.data)

    def bwd(g):
        _accumulate(a, -g * np.sin(a.data))

    return _make(out_data, (a,), bwd, "cos")


def acos(a) -> Tensor:
    """Arccosine; inputs must stay strictly inside (-1, 1)."""
    a = _wrap(a)
    if np.any(np.abs(a.data) >= 1.0):
        raise DomainError("acos input touches +-1; clip first")
    out_data = np.arccos(a.data)

    def bwd(g):
        _accumulate(a, -g / np.sqrt(1.0 - a.data * a.data))

    return _make(out_data, (a,), bwd, "acos")


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient is zero where the clamp binds."""
    a = _wrap(a)
    out_data = np.clip(a.data, lo, hi)

    def bwd(g):
        _accumulate(a, g * ((a.data > lo) & (a.data < hi)))

    return _make(out_data, (a,), bwd, "clip")


def sigmoid(a) -> Tensor:
    """Logistic squashing, composed from tanh."""
    return mul(add(tanh(mul(a, 0.5)), 1.0), 0.5)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    parts = [_wrap(p) for p in parts]
    ref = parts[0].data.shape
    for p in parts:
        s = p.data.shape
        if len(s) != len(ref) or any(s[i] != ref[i] for i in range(len(ref)) if i != axis):
            raise DimensionError(f"concat off-axis shape mismatch: {s} vs {ref}")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def bwd(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(a, b)
            _accumulate(p, g[tuple(idx)])

    return _make(out_data, tuple(parts), bwd, "concat")


def narrow(t: Tensor, start: int, stop: int, axis: int = 1) -> Tensor:
    """Contiguous slice along one axis."""
    t = _wrap(t)
    if not (0 <= start <= stop <= t.data.shape[axis]):
        raise DimensionError(f"narrow [{start}:{stop}) outside axis of length {t.data.shape[axis]}")
    idx = [slice(None)] * t.data.ndim
    idx[axis] = slice(start, stop)
    out_data = t.data[tuple(idx)].copy()

    def bwd(g):
        if t.requires_grad:
            full = np.zeros_like(t.data)
            full[tuple(idx)] = g
            _accumulate(t, full)

    return _make(out_data, (t,), bwd, "narrow")


def split(t: Tensor, sizes: list[int], axis: int = 1) -> list[Tensor]:
    t = _wrap(t)
    if sum(sizes) != t.data.shape[axis]:
        raise DimensionError(f"split sizes {sizes} do not sum to axis length {t.data.shape[axis]}")
    outs, at = [], 0
    for s in sizes:
        outs.append(narrow(t, at, at + s, axis))
        at += s
    return outs


def gather_cols(t: Tensor, idx: np.ndarray) -> Tensor:
    """Column permutation/selection: out[:, j] = t[:, idx[j]]."""
    t = _wrap(t)
    idx = np.asarray(idx, dtype=np.intp)
    out_data = t.data[:, idx]

    def bwd(g):
        if t.requires_grad:
            full = np.zeros_like(t.data)
            np.add.at(full, (slice(None), idx), g)
            _accumulate(t, full)

    return _make(out_data, (t,), bwd, "gather_cols")


def reshape(t: Tensor, shape) -> Tensor:
    t = _wrap(t)
    out_data = t.data.reshape(shape)

    def bwd(g):
        _accumulate(t, g.reshape(t.data.shape))

    return _make(out_data, (t,), bwd, "reshape")


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------

def tsum(t: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    t = _wrap(t)
    out_data = t.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accumulate(t, np.broadcast_to(g, t.data.shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accumulate(t, np.broadcast_to(ge, t.data.shape).copy())

    return _make(out_data, (t,), bwd, "sum")


def tmean(t: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    t = _wrap(t)
    n = t.data.size if axis is None else t.data.shape[axis]
    return mul(tsum(t, axis=axis, keepdims=keepdims), 1.0 / n)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error; gradient w.r.t. pred is 2*(pred-target)/n."""
    pred, target = _wrap(pred), _wrap(target)
    if pred.data.shape != target.data.shape:
        raise DimensionError(f"mse shape mismatch: {pred.data.shape} vs {target.data.shape}")
    diff = pred.data - target.data
    out_data = np.array(np.mean(diff * diff))
    n = pred.data.size

    def bwd(g):
        scaled = (2.0 / n) * float(g) * diff
        _accumulate(pred, scaled)
        _accumulate(target, -scaled)

    return _make(out_data, (pred, target), bwd, "mse")


# ---------------------------------------------------------------------------
# image ops (NHWC layout)
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    n, h, w, c = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    xp = x
    if pad:  # zero border, as np.pad's default, without its per-call overhead
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        xp[:, pad:pad + h, pad:pad + w, :] = x
    sn, sh, sw, sc = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, ho, wo, k, k, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    return view.reshape(n, ho, wo, k * k * c), ho, wo


def _col2im(gcols: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    n, h, w, c = x_shape
    _, ho, wo, _ = gcols.shape
    gc = gcols.reshape(n, ho, wo, k, k, c)
    gx = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    for i in range(k):
        for j in range(k):
            gx[:, i:i + ho * stride:stride, j:j + wo * stride:stride, :] += gc[:, :, :, i, j, :]
    return gx[:, pad:pad + h, pad:pad + w, :] if pad else gx


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2, pad: int = 1) -> Tensor:
    """2-D convolution on (N,H,W,Cin) with weights (k,k,Cin,Cout)."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    k = w.data.shape[0]
    if w.data.shape[1] != k or w.data.shape[2] != x.data.shape[3]:
        raise DimensionError(f"conv2d weight {w.data.shape} does not match input {x.data.shape}")
    n = x.data.shape[0]
    cout = w.data.shape[3]
    cols, ho, wo = _im2col(x.data, k, stride, pad)
    flat = cols.reshape(-1, cols.shape[-1])
    wmat = w.data.reshape(-1, cout)
    out_data = flat @ wmat
    out_data += b.data
    out_data = out_data.reshape(n, ho, wo, cout)

    def bwd(g):
        gflat = g.reshape(-1, cout)
        _accumulate(w, (flat.T @ gflat).reshape(w.data.shape))
        _accumulate(b, gflat.sum(axis=0))
        if x.requires_grad:
            gcols = (gflat @ wmat.T).reshape(n, ho, wo, -1)
            _accumulate(x, _col2im(gcols, x.data.shape, k, stride, pad))

    return _make(out_data, (x, w, b), bwd, "conv2d")


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2, pad: int = 1) -> Tensor:
    """Transposed convolution on (N,H,W,Cin): the adjoint of ``conv2d``.

    ``w`` is stored in the equivalent-convolution layout (k, k, Cin, Cout):
    the result equals a unit-stride convolution with ``w``, with k-1-pad
    zeros of padding, over ``x`` with stride-1 zeros between its pixels. Each input
    pixel instead scatters ``x @ w[::-1, ::-1]`` into a k×k output window
    through ``_col2im``, so no zeros are multiplied. The output size is
    stride*(H-1) + k - 2*pad, i.e. stride*H for k=4, stride=2, pad=1.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    k = w.data.shape[0]
    if w.data.shape[1] != k or w.data.shape[2] != x.data.shape[3]:
        raise DimensionError(f"conv_transpose2d weight {w.data.shape} does not match input {x.data.shape}")
    n, h, wd, cin = x.data.shape
    cout = w.data.shape[3]
    ho = stride * (h - 1) + k - 2 * pad
    wo = stride * (wd - 1) + k - 2 * pad
    # (Cin, k*k*Cout): column (i, j, co) holds the flipped tap w[k-1-i, k-1-j, :, co]
    wmat = w.data[::-1, ::-1].transpose(2, 0, 1, 3).reshape(cin, -1)
    flat = x.data.reshape(-1, cin)
    cols = (flat @ wmat).reshape(n, h, wd, -1)
    out_data = _col2im(cols, (n, ho, wo, cout), k, stride, pad)
    out_data += b.data

    def bwd(g):
        gcols, _, _ = _im2col(g, k, stride, pad)
        gflat = gcols.reshape(-1, gcols.shape[-1])
        gw = (flat.T @ gflat).reshape(cin, k, k, cout).transpose(1, 2, 0, 3)[::-1, ::-1]
        _accumulate(w, gw)
        _accumulate(b, g.sum(axis=(0, 1, 2)))
        if x.requires_grad:
            _accumulate(x, (gflat @ wmat.T).reshape(x.data.shape))

    return _make(out_data, (x, w, b), bwd, "conv_transpose2d")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Bias-corrected Adam over a dict of named leaf tensors, with the
    ``ADAM_*`` constants; ``step(lr)`` takes that step's learning rate.

    It starts at step ``t`` 0 with zero moments ``state["m"]``/``state["v"]``.
    ``step`` checks every gradient (finite, same shape as its parameter)
    before its first write, so a bad gradient raises ``OptimizerError`` and
    leaves the parameters, the moments and ``t`` untouched. A missing
    gradient counts as zero (the moments still decay). The moments are
    updated in place; each parameter's ``.data`` is rebound to a new array.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.state: dict = {"m": {k: np.zeros_like(p.data) for k, p in params.items()},
                            "v": {k: np.zeros_like(p.data) for k, p in params.items()},
                            "t": 0}

    def step(self, lr: float) -> None:
        grads = {}
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.all(np.isfinite(g)):
                raise OptimizerError(f"non-finite gradient for parameter '{name}'")
            if g.shape != p.data.shape:
                raise OptimizerError(
                    f"gradient shape {g.shape} != param shape {p.data.shape} for '{name}'")
            grads[name] = g
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        t = self.state["t"] + 1
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, p in self.params.items():
            g = grads[name]
            m, v = self.state["m"][name], self.state["v"][name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        self.state["t"] = t

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flatten optimizer state for checkpointing: each parameter's m, then its v."""
        return {f"adam.{s}.{k}": self.state[s][k] for k in self.params for s in "mv"}

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        self.state = {
            "m": {k: np.array(arrays[f"adam.m.{k}"]) for k in self.params},
            "v": {k: np.array(arrays[f"adam.v.{k}"]) for k in self.params},
            "t": t,
        }
