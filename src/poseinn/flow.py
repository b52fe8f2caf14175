"""Conditional affine coupling flow: exactly invertible by construction.

The working vector is the encoded pose x_hat of length 2dL+d; the forward
pass maps it to [y_hat (2dL dims) || z (d dims)]. Each of the `blocks`
stages is a fixed random permutation followed by an affine coupling: the
first half of the vector passes through unchanged and parameterizes an
elementwise affine map of the second half,

    v2 = u2 * exp(s_c(u1, c)) + t(u1, c),

which has the closed-form inverse u2 = (v2 - t) * exp(-s_c). Log-scales
are soft-clamped, s_c = clamp * tanh(s / clamp), because unbounded scales
blow up under bidirectional training. Subnet output layers start at zero
so the initial flow is the identity permutation composition.

Odd working dimensions get one constant zero pad channel at index 0; the
permutations fix index 0, so the pad sits in the passive half of every
coupling and survives the stack exactly, making the inverse (which
re-inserts the zero) exact as well.

An optional condition vector c is embedded once by a small MLP and
appended to every coupling subnet input; the working vector never carries
it, so invertibility is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndiff as nd
from .errors import ConditioningError, DimensionError
from .ndiff import Tensor

LEAKY_ALPHA = 0.01


@dataclass(frozen=True)
class FlowConfig:
    """Shape and initialization of a flow model.

    dim is the pose dimension d (3 planar, 6 full); enc_L the number of
    encoding frequencies. cond_dim = 0 builds an unconditional model.
    zero_init=False gives fully random subnets (used by stress tests).
    """

    dim: int
    enc_L: int = 5
    blocks: int = 6
    hidden: int = 128
    layers: int = 2
    clamp: float = 2.0
    cond_dim: int = 0
    cond_width: int = 32
    zero_init: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.enc_L < 1 or self.blocks < 1 or self.layers < 1:
            raise DimensionError("flow config requires positive dim, enc_L, blocks, layers")

    @property
    def x_len(self) -> int:
        return 2 * self.dim * self.enc_L + self.dim

    @property
    def latent_len(self) -> int:
        """Length of the image-latent part y_hat."""
        return 2 * self.dim * self.enc_L


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
    """Stack of (permutation, affine coupling) pairs over the encoded pose."""

    def __init__(self, config: FlowConfig):
        self.config = config
        self.padded = config.x_len % 2 == 1
        self.width = config.x_len + (1 if self.padded else 0)
        self.half = self.width // 2
        rng = np.random.default_rng(config.seed)

        self.perms: list[np.ndarray] = []
        self.inv_perms: list[np.ndarray] = []
        for _ in range(config.blocks):
            if self.padded:
                p = np.concatenate([[0], 1 + rng.permutation(self.width - 1)])
            else:
                p = rng.permutation(self.width)
            self.perms.append(p.astype(np.intp))
            self.inv_perms.append(np.argsort(p).astype(np.intp))

        self.params: dict[str, Tensor] = {}
        sub_in = self.half + (config.cond_width if config.cond_dim else 0)
        sizes = [sub_in] + [config.hidden] * config.layers + [self.width - self.half]
        for k in range(config.blocks):
            for net in ("s", "t"):
                for i, (w, b) in enumerate(_init_mlp(rng, sizes, config.zero_init)):
                    self.params[f"block{k}.{net}.w{i}"] = Tensor(w, requires_grad=True)
                    self.params[f"block{k}.{net}.b{i}"] = Tensor(b, requires_grad=True)
        if config.cond_dim:
            csizes = [config.cond_dim, 2 * config.cond_width, config.cond_width]
            for i, (w, b) in enumerate(_init_mlp(rng, csizes, zero_last=False)):
                self.params[f"cond.w{i}"] = Tensor(w, requires_grad=True)
                self.params[f"cond.b{i}"] = Tensor(b, requires_grad=True)

    # ------------------------------------------------------------------
    def _mlp(self, prefix: str, x: Tensor, n_layers: int) -> Tensor:
        h = x
        for i in range(n_layers):
            h = nd.matmul(h, self.params[f"{prefix}.w{i}"]) + self.params[f"{prefix}.b{i}"]
            if i < n_layers - 1:
                h = nd.leaky_relu(h, LEAKY_ALPHA)
        return h

    def embed_condition(self, c) -> Tensor:
        if not self.config.cond_dim:
            raise ConditioningError("model is unconditional but a condition was given")
        c = nd._wrap(c)
        if c.data.ndim != 2 or c.data.shape[1] != self.config.cond_dim:
            raise DimensionError(f"condition must be (n, {self.config.cond_dim}), got {c.data.shape}")
        return self._mlp("cond", c, 2)

    def _check_condition(self, x: Tensor, c):
        if self.config.cond_dim and c is None:
            raise ConditioningError("conditional model requires a condition vector")
        if not self.config.cond_dim and c is not None:
            raise ConditioningError("model is unconditional but a condition was given")
        if c is None:
            return None
        ce = self.embed_condition(c)
        if ce.data.shape[0] != x.data.shape[0]:
            raise DimensionError("condition batch size does not match input batch size")
        return ce

    def _subnets(self, k: int, passive: Tensor, ce: Tensor | None) -> tuple[Tensor, Tensor]:
        inp = passive if ce is None else nd.concat([passive, ce])
        n_layers = self.config.layers + 1
        s_raw = self._mlp(f"block{k}.s", inp, n_layers)
        t = self._mlp(f"block{k}.t", inp, n_layers)
        cl = self.config.clamp
        s = nd.mul(nd.tanh(nd.mul(s_raw, 1.0 / cl)), cl)
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

    def _inverse_working(self, w: Tensor, ce: Tensor | None) -> Tensor:
        """Run the stack backwards; sampling needs no log-det."""
        for k in reversed(range(self.config.blocks)):
            v1, v2 = nd.split(w, [self.half, self.width - self.half])
            s, t = self._subnets(k, v1, ce)
            u2 = nd.mul(v2 - t, nd.exp(nd.mul(s, -1.0)))
            w = nd.gather_cols(nd.concat([v1, u2]), self.inv_perms[k])
        return w

    def _pad(self, x: Tensor) -> Tensor:
        if not self.padded:
            return x
        zeros = Tensor(np.zeros((x.data.shape[0], 1)))
        return nd.concat([zeros, x])

    def _unpad(self, w: Tensor) -> Tensor:
        if not self.padded:
            return w
        return nd.narrow(w, 1, self.width)

    # ------------------------------------------------------------------
    def forward_log_det(self, x, c=None) -> tuple[Tensor, Tensor, Tensor]:
        """Encoded pose -> (image latent y_hat, residual latent z, per-sample
        log|det| of the forward map), all from one pass through the stack."""
        x = nd._wrap(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.config.x_len:
            raise DimensionError(f"flow input must be (n, {self.config.x_len}), got {x.data.shape}")
        ce = self._check_condition(x, c)
        out, logdet = self._forward_working(self._pad(x), ce)
        y, z = nd.split(self._unpad(out), [self.config.latent_len, self.config.dim])
        return y, z, logdet

    def forward(self, x, c=None) -> tuple[Tensor, Tensor]:
        """Encoded pose -> (image latent y_hat, residual latent z)."""
        y, z, _ = self.forward_log_det(x, c)
        return y, z

    def inverse(self, y, z, c=None) -> Tensor:
        """(image latent, residual latent) -> encoded pose."""
        y, z = nd._wrap(y), nd._wrap(z)
        if y.data.ndim != 2 or y.data.shape[1] != self.config.latent_len:
            raise DimensionError(f"latent must be (n, {self.config.latent_len}), got {y.data.shape}")
        if z.data.ndim != 2 or z.data.shape[1] != self.config.dim:
            raise DimensionError(f"z must be (n, {self.config.dim}), got {z.data.shape}")
        if y.data.shape[0] != z.data.shape[0]:
            raise DimensionError("latent and z batch sizes differ")
        w = self._pad(nd.concat([y, z]))
        ce = self._check_condition(w, c)
        return self._unpad(self._inverse_working(w, ce))

    # ------------------------------------------------------------------
    def param_arrays(self) -> dict[str, np.ndarray]:
        """Parameters plus permutations, for checkpointing."""
        out = {k: t.data for k, t in self.params.items()}
        for i, p in enumerate(self.perms):
            out[f"perm{i}"] = p.astype(np.float64)
        return out

    def load_param_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        nd.load_params(self.params, arrays, "flow")
        for i in range(self.config.blocks):
            a = arrays.get(f"perm{i}")
            if a is None:
                raise DimensionError(f"missing flow permutation 'perm{i}'")
            p = a.astype(np.intp)
            self.perms[i] = p
            self.inv_perms[i] = np.argsort(p).astype(np.intp)
