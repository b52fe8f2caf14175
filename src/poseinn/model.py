"""Combined pose-regression model: coupling flow + image VAE + conditioning.

``ModelConfig`` is the one definition of the architecture: the flow and
the VAE are built from it. ``PoseRegressor`` glues the invertible flow over
encoded poses to the convolutional VAE over images, owns the pose
normalization bounds and the checkpoint parameter table, and encodes the
optional rounded-previous-state condition for sequential localization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndiff as nd
from .encoder import Vae
from .errors import (CheckpointError, ConditioningError, DimensionError, DomainError,
                     NonFiniteError)
from .flow import FlowModel
from .geometry import Aabb, Pose, positional_encode_batch, wrap_angle

# the conditioning grid: position cells in metres, heading cells in radians
COND_CELL_XY, COND_CELL_THETA = 0.5, np.pi / 6


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a full pose-regression model: the flow and the VAE.

    dim is the length of the planar pose vector (x, y, theta) and must be
    3; enc_L is the number of positional-encoding frequencies. The image
    latent width is fixed at 2 * dim * enc_L so the flow's two sides line
    up exactly. The flow has `blocks` couplings whose subnets have `layers`
    hidden layers of width `hidden`. Conditional models take a previous
    pose rounded to the ``COND_CELL_*`` grid, positionally encoded, as side
    input to every coupling block through a `cond_width` embedding.
    image_hw is the VAE's square image side. The flow draws its initial
    weights from `seed`, the VAE from `seed + 1`.
    """

    dim: int
    image_hw: int = 32
    enc_L: int = 5
    blocks: int = 6
    hidden: int = 128
    layers: int = 2
    conditional: bool = False
    cond_width: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.dim != 3:
            raise DimensionError(f"pose dim must be 3 (planar poses only), got {self.dim}")
        if self.enc_L < 1 or self.blocks < 1 or self.layers < 1 or self.hidden < 1:
            raise DimensionError("model config requires positive enc_L, blocks, layers, hidden")
        if self.conditional and self.cond_width < 1:
            raise DimensionError("a conditional model requires a positive cond_width")
        if self.image_hw < 16 or self.image_hw % 16 != 0:
            raise DimensionError(
                f"image side must be a positive multiple of 16 (4 halvings), got {self.image_hw}")

    @property
    def latent(self) -> int:
        """Width of the image latent: the VAE's output and the flow's y_hat."""
        return 2 * self.dim * self.enc_L

    @property
    def x_len(self) -> int:
        return 2 * self.dim * self.enc_L + self.dim

    @property
    def cond_dim(self) -> int:
        return self.x_len if self.conditional else 0


def round_to_grid(pose: Pose) -> Pose:
    """Snap a pose to the center of its conditioning grid cell.

    Cell membership uses floor, so e.g. x = 1.26 with 0.5 m cells lands in
    [1.0, 1.5) and is reported as its center 1.25.
    """
    def center(v: float, cell: float) -> float:
        return (np.floor(v / cell) + 0.5) * cell

    x = center(pose.position[0], COND_CELL_XY)
    y = center(pose.position[1], COND_CELL_XY)
    th = wrap_angle(center(wrap_angle(pose.euler[0]), COND_CELL_THETA))
    return Pose(np.array([x, y, 0.0]), np.array([th, 0.0, 0.0]))


class PoseRegressor:
    """Flow + VAE pair sharing one named-parameter dict for the optimizer."""

    def __init__(self, config: ModelConfig, bounds: Aabb):
        self.config = config
        self.bounds = bounds
        self.flow = FlowModel(config)
        self.vae = Vae(config)
        self.params: dict[str, nd.Tensor] = {}
        for k, t in self.flow.params.items():
            self.params[f"flow.{k}"] = t
        for k, t in self.vae.params.items():
            self.params[f"vae.{k}"] = t

    # ------------------------------------------------------------------
    # pose <-> flow coordinates
    # ------------------------------------------------------------------
    def normalize_vectors(self, vs: np.ndarray) -> np.ndarray:
        """Pose vectors (n, d) in meters/radians -> normalized [-1, 1]."""
        vs = np.asarray(vs, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.config.dim:
            raise DimensionError(f"expected (n, {self.config.dim}) pose vectors, got {vs.shape}")
        pos, ang = vs[:, :2], vs[:, 2:]
        lo, hi = self.bounds.lo[:2], self.bounds.hi[:2]
        if np.any(pos < lo - 1e-6) or np.any(pos > hi + 1e-6):
            raise DomainError("pose position outside the normalization bounds")
        center, half = self.bounds.center[:2], self.bounds.half[:2]
        pos_n = np.clip((pos - center) / half, -1.0, 1.0)
        return np.concatenate([pos_n, wrap_angle(ang) / np.pi], axis=1)

    def denormalize_vectors(self, vs: np.ndarray) -> np.ndarray:
        """Inverse of normalize_vectors; angles come back wrapped."""
        vs = np.asarray(vs, dtype=np.float64)
        pos = vs[:, :2] * self.bounds.half[:2] + self.bounds.center[:2]
        ang = wrap_angle(vs[:, 2:] * np.pi)
        return np.concatenate([pos, ang], axis=1)

    def encode_pose_batch(self, vs: np.ndarray) -> np.ndarray:
        """Pose vectors (n, d) -> flow inputs (n, 2dL + d)."""
        return positional_encode_batch(self.normalize_vectors(vs), self.config.enc_L)

    def decode_pose_vectors(self, x: np.ndarray) -> np.ndarray:
        """Flow outputs (n, 2dL + d) -> pose vectors via the raw tail."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.x_len:
            raise DimensionError(f"expected (n, {self.config.x_len}) flow vectors, got {x.shape}")
        return self.denormalize_vectors(x[:, self.config.latent:])

    # ------------------------------------------------------------------
    # conditioning
    # ------------------------------------------------------------------
    def condition_vector(self, prev: Pose) -> np.ndarray:
        """Previous-state estimate -> encoded condition row (cond_dim,).

        Clamps the estimate into bounds first so a slightly drifted track
        still produces a valid cell, then rounds to the grid and encodes.
        """
        if not self.config.conditional:
            raise ConditioningError("model is unconditional but a condition was given")
        pos = np.clip(prev.position, self.bounds.lo, self.bounds.hi)
        clamped = Pose(np.array([pos[0], pos[1], 0.0]),
                       np.array([prev.euler[0], 0.0, 0.0]))
        cell = round_to_grid(clamped)
        # cell centers sit strictly inside the bounds whenever the cell size
        # divides the box, but clamp again so odd geometry cannot escape
        v = self.normalize_vectors(np.clip(
            cell.as_vector()[None, :],
            np.append(self.bounds.lo[:2], -np.pi),
            np.append(self.bounds.hi[:2], np.pi)))
        return positional_encode_batch(v, self.config.enc_L)[0]

    def condition_batch(self, poses: list[Pose]) -> np.ndarray:
        return np.stack([self.condition_vector(p) for p in poses])

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def param_arrays(self) -> dict[str, np.ndarray]:
        """Checkpoint records: the flow parameters, the flow permutations
        ``flow.perm{i}`` as floats, then the VAE parameters."""
        out = {k: t.data for k, t in self.params.items() if k.startswith("flow.")}
        out.update({f"flow.perm{i}": p.astype(np.float64) for i, p in enumerate(self.flow.perms)})
        out.update({k: t.data for k, t in self.params.items() if k.startswith("vae.")})
        return out

    def load_param_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Inverse of ``param_arrays``. A missing record or a shape mismatch
        raises ``DimensionError``. A permutation record that is not a
        permutation of the flow's working indices, or that moves the pad
        channel, raises ``CheckpointError``.

        A non-finite weight raises ``NonFiniteError``: no op checks the
        values it computes, and an infinite weight inside a tanh-clamped
        coupling scale saturates to a finite output that no later check
        would catch.
        """
        width = self.flow.width
        perms = []
        for i in range(self.config.blocks):
            a = arrays.get(f"flow.perm{i}")
            if a is None:
                raise DimensionError(f"missing flow permutation 'perm{i}'")
            if a.shape != (width,) or not np.array_equal(np.sort(a), np.arange(width)):
                raise CheckpointError(f"flow permutation 'perm{i}' is not a permutation of "
                                      f"0..{width - 1}")
            if a[0] != 0:
                raise CheckpointError(f"flow permutation 'perm{i}' moves the pad channel 0")
            perms.append(a.astype(np.intp))
        for k, t in self.params.items():
            part, name = k.split(".", 1)
            a = arrays.get(k)
            if a is None:
                raise DimensionError(f"missing {part} parameter '{name}'")
            if a.shape != t.data.shape:
                raise DimensionError(
                    f"{part} parameter '{name}' has shape {a.shape}, expected {t.data.shape}")
            if not np.all(np.isfinite(a)):
                raise NonFiniteError(f"{part} parameter '{name}' is not finite")
            t.data = np.array(a)
        self.flow.perms = perms
        self.flow.inv_perms = [np.argsort(p).astype(np.intp) for p in perms]
