"""Conditional affine coupling flow: exactly invertible by construction.

The working vector is the encoded pose x_hat of length 2dL+d; the forward
pass maps it to [y_hat (2dL dims) || z (d dims)]. Each of the `blocks`
stages is a fixed random permutation followed by an affine coupling: the
first half of the vector passes through unchanged and parameterizes an
elementwise affine map of the second half,

    v2 = u2 * exp(s_c(u1, c)) + t(u1, c),

which has the closed-form inverse u2 = (v2 - t) * exp(-s_c). Log-scales
are soft-clamped, s_c = CLAMP * tanh(s / CLAMP), because unbounded scales
blow up under bidirectional training. Subnet output layers start at zero
so the initial flow is the identity permutation composition.

The planar working vector has odd length 6L + 3, so it gets one constant
zero pad channel at index 0 to split into equal halves; the permutations
fix index 0, so the pad sits in the passive half of every coupling and
survives the stack exactly, making the inverse (which re-inserts the
zero) exact as well.

An optional condition vector c is embedded once by a small MLP and feeds
the first layer of every coupling subnet beside the passive half: that
layer's weight stacks passive rows over condition rows, and the
condition's product, plus the layer bias, is added to the passive
product. A condition of one row therefore serves a whole batch and is
embedded and multiplied once; a condition of n rows gives one per batch
row. The working vector never carries it, so invertibility is untouched.

The inverse takes an image latent of one row beside n rows of z in the
same way. The working vector is [pad || y_hat || z] and y_hat is at least
half - 1 wide, so the passive half of the first coupling the inverse runs
(the last block) is [pad || leading latent columns]: its subnets read one
row and their scale and shift broadcast over the n active rows. That
coupling mixes z into its active half, and the permutation after it
spreads those columns over both halves, so every later coupling runs on
n rows; the top coupling is the only one that gains.

Between couplings the inverse does not permute the whole vector and then
split it: it gathers the next coupling's passive and active halves
straight from [v1 || u2], each through its half of the inverse
permutation. Only the bottom coupling gathers the whole vector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import ndiff as nd
from .errors import ConditioningError, DimensionError
from .ndiff import Tensor

if TYPE_CHECKING:
    from .model import ModelConfig

CLAMP = 2.0  # soft bound of the coupling log-scales
# the scalars of the clamp and of the inverse's exp(-s), made once
_INV_CLAMP, _CLAMP, _NEG_ONE = Tensor(1.0 / CLAMP), Tensor(CLAMP), Tensor(-1.0)


def _he_normal(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(size=(fan_in, fan_out)) * np.sqrt(2.0 / fan_in)


def _init_mlp(rng: np.random.Generator, sizes: list[int], zero_last: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    layers = []
    for i in range(len(sizes) - 1):
        last = i == len(sizes) - 2
        if last and zero_last:
            w = np.zeros((sizes[i], sizes[i + 1]))
        else:
            w = _he_normal(rng, sizes[i], sizes[i + 1])
        layers.append((w, np.zeros(sizes[i + 1])))
    return layers


class FlowModel:
    """Stack of (permutation, affine coupling) pairs over the encoded pose,
    shaped by a ``ModelConfig``: ``blocks`` couplings, subnets of ``layers``
    hidden layers of width ``hidden``, log-scales clamped at ``CLAMP``,
    and on a conditional model a ``cond_width`` condition embedding.
    Initial weights and permutations are drawn from ``seed``."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.width = config.x_len + 1  # the pad channel
        self.half = self.width // 2
        rng = np.random.default_rng(config.seed)

        self.perms: list[np.ndarray] = []
        self.inv_perms: list[np.ndarray] = []
        for _ in range(config.blocks):
            p = np.concatenate([[0], 1 + rng.permutation(self.width - 1)])
            self.perms.append(p.astype(np.intp))
            self.inv_perms.append(np.argsort(p).astype(np.intp))

        self.params: dict[str, Tensor] = {}
        # each MLP's (weight, bias) per layer: the tensors of ``params``, so
        # a call formats no parameter names (loading a checkpoint and Adam
        # rebind their ``.data``, never the tensors)
        self._layers: dict[str, list[tuple[Tensor, Tensor]]] = {}
        sub_in = self.half + (config.cond_width if config.conditional else 0)
        sizes = [sub_in] + [config.hidden] * config.layers + [self.width - self.half]
        for k in range(config.blocks):
            for net in ("s", "t"):
                self._add_mlp(f"block{k}.{net}", _init_mlp(rng, sizes, zero_last=True))
        if config.conditional:
            csizes = [config.cond_dim, 2 * config.cond_width, config.cond_width]
            self._add_mlp("cond", _init_mlp(rng, csizes, zero_last=False))

    def _add_mlp(self, prefix: str, layers: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self._layers[prefix] = []
        for i, (w, b) in enumerate(layers):
            wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            self.params[f"{prefix}.w{i}"], self.params[f"{prefix}.b{i}"] = wt, bt
            self._layers[prefix].append((wt, bt))

    # ------------------------------------------------------------------
    def _mlp(self, prefix: str, h: Tensor, n_layers: int, start: int = 0) -> Tensor:
        """Layers ``start`` .. ``n_layers - 1`` of an MLP, with a leaky ReLU
        after each but the last; ``h`` is the input of layer ``start``."""
        layers = self._layers[prefix]
        for i in range(start, n_layers):
            h = nd.linear(h, *layers[i])
            if i < n_layers - 1:
                h = nd.leaky_relu(h)
        return h

    def embed_condition(self, c) -> Tensor:
        """Condition rows (n, cond_dim) -> their embedding (n, cond_width).
        Every condition passes through here, so this is where an
        unconditional model refuses one."""
        if not self.config.conditional:
            raise ConditioningError("model is unconditional but a condition was given")
        c = nd._wrap(c)
        if c.data.ndim != 2 or c.data.shape[1] != self.config.cond_dim:
            raise DimensionError(f"condition must be (n, {self.config.cond_dim}), got {c.data.shape}")
        return self._mlp("cond", c, 2)

    def _check_condition(self, n: int, c):
        """The embedded condition for a batch of ``n`` rows, or None."""
        if self.config.conditional and c is None:
            raise ConditioningError("conditional model requires a condition vector")
        if c is None:
            return None
        ce = self.embed_condition(c)
        if ce.data.shape[0] not in (1, n):
            raise DimensionError(
                f"condition has {ce.data.shape[0]} rows; need 1 or the batch size {n}")
        return ce

    def _subnet(self, prefix: str, passive: Tensor, ce: Tensor | None) -> Tensor:
        """One coupling subnet. Its first layer's weight stacks the passive
        rows over the condition rows; the condition's share of that layer
        is computed per condition row and added as the bias of the passive
        product, so one condition row serves a whole batch."""
        w0, b0 = self._layers[prefix][0]
        if ce is not None:
            b0 = nd.linear(ce, nd.narrow(w0, self.half, w0.data.shape[0], axis=0), b0)
            w0 = nd.narrow(w0, 0, self.half, axis=0)
        h = nd.leaky_relu(nd.linear(passive, w0, b0))
        return self._mlp(prefix, h, self.config.layers + 1, start=1)

    def _subnets(self, k: int, passive: Tensor, ce: Tensor | None) -> tuple[Tensor, Tensor]:
        s_raw = self._subnet(f"block{k}.s", passive, ce)
        t = self._subnet(f"block{k}.t", passive, ce)
        s = nd.mul(nd.tanh(nd.mul(s_raw, _INV_CLAMP)), _CLAMP)
        return s, t

    # ------------------------------------------------------------------
    def _forward_working(self, w: Tensor, ce: Tensor | None) -> tuple[Tensor, Tensor]:
        """Run the stack; returns (output working vector, per-sample log-det)."""
        logdet = Tensor(np.zeros(w.data.shape[0]))
        for k in range(self.config.blocks):
            w = nd.gather_cols(w, self.perms[k])
            u1, u2 = nd.split(w, [self.half, self.width - self.half])
            s, t = self._subnets(k, u1, ce)
            v2 = nd.mul(u2, nd.exp(s)) + t
            w = nd.concat([u1, v2])
            logdet = logdet + nd.tsum(s, axis=1)
        return w, logdet

    def _inverse_working(self, v1: Tensor, v2: Tensor, ce: Tensor | None) -> Tensor:
        """Run the stack backwards from the top coupling's passive half
        ``v1`` and active half ``v2``; sampling needs no log-det. ``v1``
        may have one row beside the n rows of ``v2``: that coupling's
        subnets then run once and broadcast."""
        n, half = v2.data.shape[0], self.half
        for k in reversed(range(self.config.blocks)):
            s, t = self._subnets(k, v1, ce)
            u2 = nd.mul(v2 - t, nd.exp(nd.mul(s, _NEG_ONE)))
            w = nd.concat([self._widen(v1, n), u2])
            # the permutations are read here, not cached: load_param_arrays
            # replaces them
            perm = self.inv_perms[k]
            if not k:
                return nd.gather_cols(w, perm)
            v1, v2 = nd.gather_cols(w, perm[:half]), nd.gather_cols(w, perm[half:])

    @staticmethod
    def _widen(t: Tensor, n: int) -> Tensor:
        """``t`` with n rows: a one-row ``t`` is broadcast by adding zeros,
        an op whose backward sums the rows' gradients."""
        if t.data.shape[0] == n:
            return t
        return nd.add(t, Tensor(np.zeros((n, 1))))

    def _pad(self, x: Tensor) -> Tensor:
        zeros = Tensor(np.zeros((x.data.shape[0], 1)))
        return nd.concat([zeros, x])

    def _unpad(self, w: Tensor) -> Tensor:
        return nd.narrow(w, 1, self.width)

    # ------------------------------------------------------------------
    def forward_log_det(self, x, c=None) -> tuple[Tensor, Tensor, Tensor]:
        """Encoded pose -> (image latent y_hat, residual latent z, per-sample
        log|det| of the forward map), all from one pass through the stack.
        A condition ``c`` has one row, shared by the whole batch, or one
        row per batch row."""
        x = nd._wrap(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.config.x_len:
            raise DimensionError(f"flow input must be (n, {self.config.x_len}), got {x.data.shape}")
        ce = self._check_condition(x.data.shape[0], c)
        out, logdet = self._forward_working(self._pad(x), ce)
        y, z = nd.split(self._unpad(out), [self.config.latent, self.config.dim])
        return y, z, logdet

    def forward(self, x, c=None) -> tuple[Tensor, Tensor]:
        """Encoded pose -> (image latent y_hat, residual latent z)."""
        y, z, _ = self.forward_log_det(x, c)
        return y, z

    def inverse(self, y, z, c=None) -> Tensor:
        """(image latent, residual latent) -> encoded pose, one row per row
        of ``z``; ``c`` as in ``forward_log_det``. The latent ``y`` has one
        row, shared by the whole batch, or one row per batch row. A shared
        latent with a shared (or no) condition runs the top coupling's
        subnets once; with a per-row condition it is widened to n rows."""
        y, z = nd._wrap(y), nd._wrap(z)
        if y.data.ndim != 2 or y.data.shape[1] != self.config.latent:
            raise DimensionError(f"latent must be (n, {self.config.latent}), got {y.data.shape}")
        if z.data.ndim != 2 or z.data.shape[1] != self.config.dim:
            raise DimensionError(f"z must be (n, {self.config.dim}), got {z.data.shape}")
        n = z.data.shape[0]
        if y.data.shape[0] not in (1, n):
            raise DimensionError(f"latent has {y.data.shape[0]} rows; need 1 or the batch size {n}")
        ce = self._check_condition(n, c)
        if ce is not None and ce.data.shape[0] > y.data.shape[0]:
            y = self._widen(y, n)
        # the working vector is [pad || y || z]; y covers the passive half
        head, tail = nd.split(y, [self.half - 1, self.config.latent - self.half + 1])
        v1 = nd.concat([Tensor(np.zeros((y.data.shape[0], 1))), head])
        v2 = nd.concat([self._widen(tail, n), z])
        return self._unpad(self._inverse_working(v1, v2, ce))
