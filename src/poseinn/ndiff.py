"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is float64. A ``Tensor`` wraps a numpy array and, when it is the
result of a differentiable op, remembers its parents and a backward closure.
``Tensor.__init__`` is the only constructor, and every op builds its
result through it, so counting its calls counts every tensor made. It
keeps a float64 ndarray as it is and converts anything else (a list,
another dtype, the numpy scalar of a full reduction) to one, so an op
result's ``.data`` is always a float64 ndarray, 0-d for a full reduction.
Tensors are immutable values: ops never write into an input array, so the
creation order of tensors is already a topological order of the compute
graph. ``Tensor.backward`` exploits that: it collects the grad-requiring
nodes reachable from a scalar root and walks them in exact reverse creation
order. The graph is freed as it is consumed: once an op node's backward
closure has run, the node drops its gradient, its closure and its parents
and is marked spent, so the arrays each op saved for backward go while the
pass walks down the graph. Only leaves keep ``.grad``. A graph is consumed
once: a backward pass that reaches a spent node raises ``TapeError``.
A closure computes a parent's gradient only when that parent requires one,
so a constant operand (a target, a scalar factor, the data a first layer
reads) costs no backward work. The first gradient a tensor receives is
kept as it is, not copied; later ones are summed into a new array, never
in place, and no closure writes an array once it has handed it over. So
one array may be the gradient of several tensors, as ``add`` hands the
same ``g`` to both parents.

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

Only the layers this project uses are supported: 2-D affine layers
(``linear`` is the one matrix product), elementwise arithmetic with
numpy-style broadcasting on add/sub/mul, a handful of nonlinearities,
concat/split/column-gather, reshape, full and per-axis sums, the full
mean, MSE, stride-2 convolutions (direct, and transposed as its adjoint
through the same im2col/col2im pair). ``+`` and ``-`` are the only
operators a tensor takes; every other op is called by name. No GPU, no
higher-order derivatives. A shape op or a reduction refuses a bad axis,
index or size with one ``DimensionError``.
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


_F64, _INTP = np.dtype(np.float64), np.dtype(np.intp)


class Tensor:
    """Immutable float64 array with optional gradient tracking.

    ``data`` must never be mutated after construction; the optimizer is the
    single sanctioned exception and only touches leaf parameters between
    backward passes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_nid", "_parents", "_bwd", "_op", "_spent")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _bwd=None, _op="leaf"):
        self.data = data if type(data) is np.ndarray and data.dtype is _F64 else np.asarray(data, _F64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._nid = next(_node_ids)
        self._parents = _parents
        self._bwd = _bwd
        self._op = _op
        self._spent = False

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
        backward closure accumulates into its parents. Each op node is freed
        as soon as its closure has run: its ``grad``, closure and parents are
        dropped and it is marked spent, so only leaves keep ``.grad``. A pass
        that would reach a spent node (the same root again, or a subgraph an
        earlier pass consumed) raises ``TapeError`` before any gradient is
        touched; rerunning would silently double-count or lose gradients.
        """
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar root")
        if not self.requires_grad:
            raise TapeError("backward() on a tensor with no grad-requiring ancestry")
        seen: dict[int, Tensor] = {}
        stack = [self]
        while stack:
            t = stack.pop()
            if t._nid in seen:
                continue
            if t._spent:
                raise TapeError(f"backward() reaches a '{t._op}' node an earlier backward "
                                "consumed; rebuild the graph first")
            seen[t._nid] = t
            for p in t._parents:
                if p.requires_grad and p._nid not in seen:
                    stack.append(p)
        self.grad = np.ones_like(self.data)
        for nid in sorted(seen, reverse=True):
            # popped, so that nothing here keeps a consumed node alive
            node = seen.pop(nid)
            if node._bwd is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._bwd(node.grad)
            node.grad = node._bwd = None
            node._parents = ()
            node._spent = True

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, grad={self.requires_grad})"

    # operator sugar; python scalars become constant tensors
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Hand ``g`` to ``t``: the first gradient is kept as it is, later ones
    are summed into a new array. Closures call it only for a parent that
    requires a gradient, and never write an array once it is handed over,
    so a kept gradient may be shared (``add`` hands one ``g`` to both
    parents) or be a view."""
    t.grad = g if t.grad is None else t.grad + g


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
        return Tensor(data, True, parents, bwd, op)
    return Tensor(data, False, (), None, op)


# ---------------------------------------------------------------------------
# elementwise and linear ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bwd, "mul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine layer ``x @ w + b`` as one node: the bias is added in place
    into the fresh product, so no second array of the output's size is
    made. ``b`` must broadcast into the product's shape; values and
    gradients equal bitwise those of numpy's ``x @ w`` then ``+ b``."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2:
        raise DimensionError(f"linear needs 2-D operands, got {xd.shape} @ {wd.shape}")
    if xd.shape[1] != wd.shape[0]:
        raise DimensionError(f"linear inner dims disagree: {xd.shape} @ {wd.shape}")
    out_data = xd @ wd
    try:
        out_data += b.data
    except ValueError:
        raise DimensionError(
            f"linear bias {b.data.shape} does not broadcast into {out_data.shape}") from None

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g)
        if b.requires_grad:
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
    """``x`` where ``x > 0``, else ``LEAKY_ALPHA * x``. The backward slope is
    ``max(sign(x), LEAKY_ALPHA)``: 1 where ``x > 0`` and ``LEAKY_ALPHA`` at
    ±0 and below, bitwise the ``np.where(x > 0, 1, LEAKY_ALPHA)`` form on
    every non-NaN input but without its per-element branch on a
    random-sign mask. A NaN input gets a NaN gradient."""
    a = _wrap(a)
    out_data = LEAKY_ALPHA * a.data
    np.maximum(a.data, out_data, out=out_data)

    def bwd(g):
        slope = np.sign(a.data, out=np.empty_like(a.data))
        np.maximum(slope, LEAKY_ALPHA, out=slope)
        _accumulate(a, np.multiply(g, slope, out=slope))

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

def _axis_len(t: Tensor, axis: int, op: str) -> int:
    try:
        return t.data.shape[axis]
    except (IndexError, TypeError):
        raise DimensionError(f"{op} axis {axis!r} outside a {t.data.ndim}-D tensor") from None


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    """Join along ``axis``; every other axis must agree, and numpy's refusal
    of a mismatch or a bad axis becomes one ``DimensionError``."""
    parts = [_wrap(p) for p in parts]
    try:
        out_data = np.concatenate([p.data for p in parts], axis=axis)
    except (ValueError, TypeError) as e:
        shapes = [p.data.shape for p in parts]
        raise DimensionError(f"concat of {shapes} along axis {axis!r}: {e}") from None

    def bwd(g):
        idx = [slice(None)] * g.ndim
        at = 0
        for p in parts:
            n = p.data.shape[axis]
            if p.requires_grad:
                idx[axis] = slice(at, at + n)
                _accumulate(p, g[tuple(idx)])
            at += n

    return _make(out_data, tuple(parts), bwd, "concat")


def narrow(t: Tensor, start: int, stop: int, axis: int = 1) -> Tensor:
    """Contiguous slice along one axis."""
    t = _wrap(t)
    n = _axis_len(t, axis, "narrow")
    if not (0 <= start <= stop <= n):
        raise DimensionError(f"narrow [{start}:{stop}) outside axis of length {n}")
    idx = (slice(None),) * (axis % t.data.ndim) + (slice(start, stop),)
    try:
        out_data = t.data[idx].copy()
    except TypeError:
        raise DimensionError(f"narrow bounds {start!r}, {stop!r} are not integers") from None

    def bwd(g):
        if t.requires_grad:
            full = np.zeros_like(t.data)
            full[idx] = g
            _accumulate(t, full)

    return _make(out_data, (t,), bwd, "narrow")


def split(t: Tensor, sizes: list[int]) -> list[Tensor]:
    """Consecutive column blocks of the given widths, which must add up to
    the column count."""
    t = _wrap(t)
    n = _axis_len(t, 1, "split")
    if sum(sizes) != n:
        raise DimensionError(f"split sizes {sizes} do not sum to axis length {n}")
    outs, at = [], 0
    for s in sizes:
        outs.append(narrow(t, at, at + s))
        at += s
    return outs


def gather_cols(t: Tensor, idx) -> Tensor:
    """Column permutation/selection: out[:, j] = t[:, idx[j]]. ``idx`` is
    an intp array or converts to one from integers; a non-integer index,
    or one outside the columns of a 2-D ``t``, is a ``DimensionError``."""
    t = _wrap(t)
    if type(idx) is not np.ndarray or idx.dtype is not _INTP:
        idx = np.asarray(idx)
        if idx.dtype.kind not in "iu":
            raise DimensionError(f"gather_cols index must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp)
    try:
        out_data = t.data[:, idx]
    except IndexError:
        raise DimensionError(
            f"gather_cols index {idx} outside the columns of a tensor of shape {t.data.shape}"
        ) from None

    def bwd(g):
        if t.requires_grad:
            full = np.zeros_like(t.data)
            np.add.at(full, (slice(None), idx), g)
            _accumulate(t, full)

    return _make(out_data, (t,), bwd, "gather_cols")


def reshape(t: Tensor, shape) -> Tensor:
    t = _wrap(t)
    try:
        out_data = t.data.reshape(shape)
    except (ValueError, TypeError):
        raise DimensionError(f"cannot reshape a tensor of shape {t.data.shape} to {shape}") from None

    def bwd(g):
        _accumulate(t, g.reshape(t.data.shape))

    return _make(out_data, (t,), bwd, "reshape")


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------

def tsum(t: Tensor, axis: int | None = None) -> Tensor:
    """Sum of every entry, or along ``axis``."""
    t = _wrap(t)
    try:
        out_data = t.data.sum(axis=axis)
    except (ValueError, TypeError):  # numpy's AxisError is a ValueError
        raise DimensionError(f"tsum axis {axis!r} is not an axis of a {t.data.ndim}-D tensor") from None

    def bwd(g):
        ge = g if axis is None else np.expand_dims(g, axis)
        _accumulate(t, np.broadcast_to(ge, t.data.shape).copy())

    return _make(out_data, (t,), bwd, "sum")


def tmean(t: Tensor) -> Tensor:
    """Mean of every entry."""
    t = _wrap(t)
    return mul(tsum(t), 1.0 / t.data.size)


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
        if pred.requires_grad:
            _accumulate(pred, scaled)
        if target.requires_grad:
            _accumulate(target, -scaled)

    return _make(out_data, (pred, target), bwd, "mse")


# ---------------------------------------------------------------------------
# image ops (NHWC layout)
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    n, h, w, c = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    xp = np.ascontiguousarray(x)
    if pad:  # zero border, as np.pad's default, without its per-call overhead
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        xp[:, pad:pad + h, pad:pad + w, :] = x
    sn, sh, sw, sc = xp.strides
    # the read-only window view of np.lib.stride_tricks.as_strided, built
    # directly over the contiguous buffer without that function's overhead
    view = np.ndarray((n, ho, wo, k, k, c), xp.dtype, xp, 0,
                      (sn, sh * stride, sw * stride, sh, sw, sc))
    view.flags.writeable = False
    return view.reshape(n, ho, wo, k * k * c), ho, wo


def _col2im(gcols: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    """Scatter-add each output pixel's k*k taps back into the padded input.

    Tap (i, j) of output (oy, ox) lands on padded pixel (oy*s + i, ox*s + j).
    Writing i = a*s + r, that is row r of block oy + a of a buffer viewed
    as (blocks, s) per axis, so all taps with one (a, b) = (i // s, j // s)
    are one strided add of (ho, s, wo, s) blocks; taps past k in the last
    block (r >= k - a*s) are left out. Each pixel receives its terms in
    the order of a tap loop over i then j, so the sums are bitwise those
    of k*k single-tap adds.
    """
    n, h, w, c = x_shape
    _, ho, wo, _ = gcols.shape
    s = stride
    gc = gcols.reshape(n, ho, wo, k, k, c)
    na = -(-k // s)  # tap blocks per axis
    hb = max(ho + na - 1, -(-(h + 2 * pad) // s))
    wb = max(wo + na - 1, -(-(w + 2 * pad) // s))
    gx = np.zeros((n, hb * s, wb * s, c))
    blocks = gx.reshape(n, hb, s, wb, s, c)
    for a in range(na):
        ra = min(s, k - a * s)
        for b in range(na):
            rb = min(s, k - b * s)
            taps = gc[:, :, :, a * s:a * s + ra, b * s:b * s + rb, :]
            blocks[:, a:a + ho, :ra, b:b + wo, :rb, :] += taps.transpose(0, 1, 3, 2, 4, 5)
    return gx[:, pad:pad + h, pad:pad + w, :]


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
        if w.requires_grad:
            _accumulate(w, (flat.T @ gflat).reshape(w.data.shape))
        if b.requires_grad:
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
        if w.requires_grad:
            gw = (flat.T @ gflat).reshape(cin, k, k, cout).transpose(1, 2, 0, 3)[::-1, ::-1]
            _accumulate(w, gw)
        if b.requires_grad:
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
        """Inverse of ``state_arrays``: copy each moment, under the name
        ``state_arrays`` gives it, into this optimizer's own moment array,
        and set the step count to ``t``."""
        for k, a in self.state_arrays().items():
            a[...] = arrays[k]
        self.state["t"] = t
