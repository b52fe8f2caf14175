"""VAE image encoder/decoder.

The encoder is a 4-layer stride-2 conv stack (channels 16, 32, 64, then
the latent width) whose last grid (grid x grid cells of latent-width
features) is flattened, so the position of each object in the frame is
kept, and read by two linear heads for mu and log-variance. The
decoder mirrors it: a linear layer up to the coarsest grid, then four
transposed convolutions back to image resolution, squashed to [0, 1].

The latent width is 2dL, matching the flow's image-latent side. Images
travel as (N, H, W, 3) float arrays in [0, 1].

The posterior collapses: mu is narrow, sigma stays near 1 and the
decoder's reconstructions stay close to the mean image, so the decoder
serves as a regulariser, not as an image model. The collapse is the VAE
objective's own optimum (see trainer.py), already reached in warm-up,
before the flow trains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import ndiff as nd
from .errors import DimensionError, DomainError
from .ndiff import Tensor

if TYPE_CHECKING:
    from .model import ModelConfig

CONV_CHANNELS = (16, 32, 64)
KERNEL = 4


class Vae:
    """Encoder + decoder with a shared parameter dict for the optimizer,
    shaped by a ``ModelConfig``: images of side ``image_hw``, a latent of
    width ``latent``. Initial weights are drawn from ``seed + 1``."""

    def __init__(self, config: ModelConfig):
        self.config = config
        # spatial side after the four stride-2 layers
        self.grid = config.image_hw // 16
        rng = np.random.default_rng(config.seed + 1)
        self.params: dict[str, Tensor] = {}

        chans = [3, *CONV_CHANNELS, config.latent]
        for i in range(4):
            fan_in = KERNEL * KERNEL * chans[i]
            w = rng.normal(size=(KERNEL, KERNEL, chans[i], chans[i + 1])) * np.sqrt(2.0 / fan_in)
            self._add(f"enc.conv{i}.w", w)
            self._add(f"enc.conv{i}.b", np.zeros(chans[i + 1]))
        g = self.grid
        flat = g * g * config.latent
        for head in ("mu", "lv"):
            w = rng.normal(size=(flat, config.latent)) * np.sqrt(1.0 / flat)
            self._add(f"enc.{head}.w", w)
            self._add(f"enc.{head}.b", np.zeros(config.latent))

        self._add("dec.lin.w",
                  rng.normal(size=(config.latent, g * g * config.latent)) * np.sqrt(1.0 / config.latent))
        self._add("dec.lin.b", np.zeros(g * g * config.latent))
        dchans = [config.latent, 64, 32, 16, 3]
        for i in range(4):
            fan_in = KERNEL * KERNEL * dchans[i]
            w = rng.normal(size=(KERNEL, KERNEL, dchans[i], dchans[i + 1])) * np.sqrt(2.0 / fan_in)
            self._add(f"dec.conv{i}.w", w)
            self._add(f"dec.conv{i}.b", np.zeros(dchans[i + 1]))

    def _add(self, name: str, arr: np.ndarray) -> None:
        self.params[name] = Tensor(arr, requires_grad=True)

    def _check_images(self, y: Tensor) -> None:
        hw = self.config.image_hw
        if y.data.ndim != 4 or y.data.shape[1:] != (hw, hw, 3):
            raise DimensionError(f"images must be (n, {hw}, {hw}, 3), got {y.data.shape}")

    # ------------------------------------------------------------------
    def encode_stats(self, y) -> tuple[Tensor, Tensor]:
        """Images -> (mu, log sigma^2), each (n, latent)."""
        y = nd._wrap(y)
        self._check_images(y)
        h = y
        for i in range(4):
            h = nd.conv2d(h, self.params[f"enc.conv{i}.w"], self.params[f"enc.conv{i}.b"],
                          stride=2, pad=1)
            h = nd.leaky_relu(h)
        # the heads read every cell of the last grid, so where an object
        # sits in the frame reaches the latent
        flat = nd.reshape(h, (h.data.shape[0], -1))
        mu = nd.linear(flat, self.params["enc.mu.w"], self.params["enc.mu.b"])
        logvar = nd.linear(flat, self.params["enc.lv.w"], self.params["enc.lv.b"])
        return mu, logvar

    def encode(self, y, mode: str = "mean") -> Tensor:
        """Images -> the latent mean mu; ``mode`` must be 'mean'."""
        if mode != "mean":
            raise DomainError(f"unknown encode mode '{mode}'")
        return self.encode_stats(y)[0]

    def decode(self, latent) -> Tensor:
        """Latent (n, latent) -> images (n, hw, hw, 3) in [0, 1]."""
        latent = nd._wrap(latent)
        if latent.data.ndim != 2 or latent.data.shape[1] != self.config.latent:
            raise DimensionError(f"latent must be (n, {self.config.latent}), got {latent.data.shape}")
        g = self.grid
        h = nd.linear(latent, self.params["dec.lin.w"], self.params["dec.lin.b"])
        h = nd.leaky_relu(h)
        h = nd.reshape(h, (latent.data.shape[0], g, g, self.config.latent))
        for i in range(4):
            h = nd.conv_transpose2d(h, self.params[f"dec.conv{i}.w"], self.params[f"dec.conv{i}.b"],
                                    stride=2, pad=1)
            if i < 3:
                h = nd.leaky_relu(h)
        return nd.sigmoid(h)


def kl_divergence(mu: Tensor, logvar: Tensor) -> Tensor:
    """Mean over the batch of KL(N(mu, sigma^2) || N(0, 1)) summed over dims;
    mu and logvar are (n, k)."""
    mu, logvar = nd._wrap(mu), nd._wrap(logvar)
    if mu.data.shape != logvar.data.shape:
        raise DimensionError(f"kl shapes differ: {mu.data.shape} vs {logvar.data.shape}")
    per_dim = nd.mul(mu, mu) + nd.exp(logvar) - 1.0 - logvar
    per_sample = nd.tsum(nd.mul(per_dim, 0.5), axis=1)
    return nd.tmean(per_sample)
