"""Bidirectional training loop for the pose-regression model.

Each step encodes the batch once. The VAE learns from a reparameterised
sample (reconstruction and KL). Every flow loss reads the latent mean mu,
the input that localize gives the flow:

- forward, one pass for y, z and the log-det: MSE of y against mu, and an
  MMD of (y, z) against (mu, N(0, I)), which trains the residual latent z
  to be standard normal and independent of the image latent;
- reverse, one inverse pass at a fresh z and at each pose's own forward z:
  an MMD compares the fresh-z samples with the batch of encoded poses as
  distributions, and the pose errors (position, heading, encoding)
  are taken mostly at the pose's own z, with a ``REV_RAND_SHARE`` share at
  the fresh z;
- optionally the flow negative log-likelihood of z.

The weighted sum gets one joint Adam update over every parameter. The VAE
latent collapses: mu is narrow, sigma stays near 1 and the reconstructions
stay near the mean image. KL is near 0 by the second warm-up epoch, before
any flow loss runs. The reconstruction is a per-pixel mean and the KL a sum
over latent dimensions, so at 32x32x3 a ``w_kl`` of 0.001 acts as a
Gaussian decoder variance of 3072 * 0.001 / 2 ~ 1.5, far above the
per-pixel variance about the mean image, and the collapsed posterior is the
VAE's own optimum. The module also owns the binary checkpoint format.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ndiff as nd
from .encoder import kl_divergence
from .errors import CheckpointError, DomainError, NonFiniteError, PoseInnError
from .geometry import Aabb, is_int
from .model import ModelConfig, PoseRegressor
from .ndiff import Tensor

# keeps acos off its infinite-slope endpoints; floors the rotation loss at
# acos(1 - 1e-7) ~ 4.5e-4 rad, far below any acceptance threshold
ACOS_GUARD = 1e-7

MAGIC = b"PINN"
# 3: the meta block's train config has no w_fwd, w_rev_pos, w_rev_rot,
# w_rev_enc or w_recon, and its model config no clamp or cond_cell_*
VERSION = 3


@dataclass(frozen=True)
class TrainConfig:
    """Schedule, KL and likelihood weights; defaults are the desk-scale protocol."""

    epochs: int = 30
    batch: int = 200
    lr_start: float = 5e-4
    lr_end: float = 5e-5
    w_kl: float = 1e-3
    w_nll: float = 0.0
    warmup_epochs: int = 3
    checkpoint_every: int = 10
    mix: str = "alternate"
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch", "warmup_epochs", "checkpoint_every", "seed"):
            if not is_int(getattr(self, name)):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1 or self.batch < 1:
            raise DomainError("epochs and batch size must be positive")
        if not (self.lr_start >= self.lr_end > 0):
            raise DomainError("need lr_start >= lr_end > 0")
        for name in ("w_kl", "w_nll"):
            # written so that nan fails too: w_nll = nan would train as 0
            if not 0.0 <= getattr(self, name) < np.inf:
                raise DomainError(f"loss weight {name} must be finite and >= 0, "
                                  f"got {getattr(self, name)}")
        if self.warmup_epochs < 0 or self.checkpoint_every < 0:
            raise DomainError("warmup_epochs and checkpoint_every must be >= 0")
        if self.mix != "alternate":
            raise DomainError(f"mix must be 'alternate', got '{self.mix}'")


@dataclass(frozen=True)
class LossEntry:
    """One row of the loss report. rev_pos is a squared error in m^2;
    rev_rot is a mean absolute heading difference in radians; nll is a log-density and
    may be negative; fwd_mmd and rev_mmd are squared MMDs. A loss that was
    not computed (the flow losses in warm-up, nll at w_nll = 0) reads 0."""

    epoch: int
    lr: float
    total: float
    fwd: float = 0.0
    rev_pos: float = 0.0
    rev_rot: float = 0.0
    rev_enc: float = 0.0
    recon: float = 0.0
    kl: float = 0.0
    nll: float = 0.0
    fwd_mmd: float = 0.0
    rev_mmd: float = 0.0


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Geometric interpolation lr_start -> lr_end over the epoch index."""
    if cfg.epochs == 1:
        return cfg.lr_start
    return cfg.lr_start * (cfg.lr_end / cfg.lr_start) ** (epoch / (cfg.epochs - 1))


# ---------------------------------------------------------------------------
# in-graph rotation loss
# ---------------------------------------------------------------------------

def _planar_rotation_loss(theta_pred: Tensor, theta_gt: np.ndarray) -> Tensor:
    """Mean |heading difference| via the rotation-trace identity
    tr(Rz(a) Rz(b)^T) = 2 cos(a - b) + 1, which stays smooth in the graph."""
    cosd = nd.add(nd.mul(nd.cos(theta_pred), np.cos(theta_gt)),
                  nd.mul(nd.sin(theta_pred), np.sin(theta_gt)))
    return nd.tmean(nd.acos(nd.clip(cosd, -1.0 + ACOS_GUARD, 1.0 - ACOS_GUARD)))


# ---------------------------------------------------------------------------
# distribution matching
# ---------------------------------------------------------------------------

# Gaussian kernel widths, as multiples of the row width: several widths keep
# a gradient both for near and for far pairs
MMD_WIDTHS = (0.1, 0.5, 2.0)
# share of the reverse pose errors taken at a fresh z; the rest is taken at
# each pose's own forward z. Picked from 0.3/0.4/0.45/0.5 by the summed
# median test error of the toy recipe on scene seeds 12, 13 and 20240413.
REV_RAND_SHARE = 0.4


def _sq_dists(a: Tensor, b: Tensor) -> Tensor:
    """(n, w), (m, w) -> (n, m) squared Euclidean distances between rows."""
    n, w = a.data.shape
    diff = nd.sub(nd.reshape(a, (n, 1, w)), nd.reshape(b, (1, b.data.shape[0], w)))
    return nd.tsum(nd.mul(diff, diff), axis=2)


def _kernel_mean(a: Tensor, b: Tensor) -> Tensor:
    d2 = _sq_dists(a, b)
    w = a.data.shape[1]
    k = None
    for h in MMD_WIDTHS:
        term = nd.exp(nd.mul(d2, -1.0 / (h * w)))
        k = term if k is None else nd.add(k, term)
    return nd.tmean(k)


def mmd(a, b) -> Tensor:
    """Squared maximum mean discrepancy between the row sets a and b (biased
    V-statistic, >= 0): zero when the two batches are the same sample."""
    a, b = nd._wrap(a), nd._wrap(b)
    return _kernel_mean(a, a) + _kernel_mean(b, b) - nd.mul(_kernel_mean(a, b), 2.0)


# ---------------------------------------------------------------------------
# one optimizer step
# ---------------------------------------------------------------------------

# weights of the loss terms that have no TrainConfig field (w_kl and w_nll
# have one); fwd_mmd is the forward (y, z) MMD, rev_mmd the reverse pose MMD
W_RECON, W_FWD, W_REV_POS, W_REV_ROT, W_REV_ENC = 1.0, 1.0, 1.0, 1.0, 0.1
W_FWD_MMD, W_REV_MMD = 1.0, 1.0


def _pose_losses(model: PoseRegressor, x_pred: Tensor,
                 xhat_np: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
    """Inverse-flow outputs vs encoded ground truth: (position squared error
    in m^2, mean absolute heading difference, encoding MSE)."""
    latent = model.config.latent
    tail_pred = nd.narrow(x_pred, latent, latent + 3)
    tail_gt = xhat_np[:, latent:]
    half = model.bounds.half[:2][None, :]
    pos = nd.mse(nd.mul(nd.narrow(tail_pred, 0, 2), half), Tensor(tail_gt[:, :2] * half))
    rot = _planar_rotation_loss(nd.mul(nd.narrow(tail_pred, 2, 3), np.pi),
                                tail_gt[:, 2:] * np.pi)
    enc = nd.mse(nd.narrow(x_pred, 0, latent), Tensor(xhat_np[:, :latent]))
    return pos, rot, enc


def train_step(model: PoseRegressor, pose_vecs: np.ndarray, images: np.ndarray,
               cfg: TrainConfig, rng: np.random.Generator, lr: float,
               opt: nd.Adam, cond_vecs: np.ndarray | None = None,
               warmup: bool = False, epoch: int = 0) -> LossEntry:
    """Build the joint loss on one batch, backprop, and step the optimizer.

    ``warmup`` restricts the graph to the VAE losses (reconstruction + KL);
    the flow parameters then receive no gradient and stay untouched. A loss
    term or total that is not finite raises ``NonFiniteError`` naming every
    term, before ``backward()``: the parameters, the optimizer moments and
    its step count stay untouched.
    """
    if len(pose_vecs) == 0:
        raise DomainError("training batch is empty")
    d = model.config.dim
    # no op checks its values, so numpy's warnings are silenced and the loss
    # terms are checked once, before backward() can reach a gradient
    with np.errstate(all="ignore"):
        y = Tensor(np.asarray(images, dtype=np.float64))
        mu, logvar = model.vae.encode_stats(y)
        eps = rng.standard_normal(size=mu.data.shape)
        yhat = mu + nd.mul(nd.exp(nd.mul(logvar, 0.5)), Tensor(eps))
        terms = {"recon": nd.mse(model.vae.decode(yhat), y), "kl": kl_divergence(mu, logvar)}

        if not warmup:
            n = len(pose_vecs)
            xhat_np = model.encode_pose_batch(pose_vecs)
            xhat = Tensor(xhat_np)
            c = Tensor(cond_vecs) if cond_vecs is not None else None
            # one pass gives y, z and the log-det; localize feeds the flow mu,
            # so every flow loss does too
            y_pred, z_fwd, logdet = model.flow.forward_log_det(xhat, c)
            terms["fwd"] = nd.mse(y_pred, mu)
            terms["fwd_mmd"] = mmd(nd.concat([y_pred, z_fwd]),
                                   nd.concat([mu, Tensor(rng.standard_normal(size=(n, d)))]))

            # one inverse pass over two stacked batches: each image latent at
            # a fresh z, then at the z its own pose maps to
            z_rand = Tensor(rng.standard_normal(size=(n, d)))
            c2 = None if c is None else nd.concat([c, c], axis=0)
            x_both = model.flow.inverse(nd.concat([mu, mu], axis=0),
                                        nd.concat([z_rand, z_fwd], axis=0), c2)
            x_rand = nd.narrow(x_both, 0, n, axis=0)
            x_pair = nd.narrow(x_both, n, 2 * n, axis=0)
            terms["rev_mmd"] = mmd(x_rand, xhat)

            share = REV_RAND_SHARE
            terms["rev_pos"], terms["rev_rot"], terms["rev_enc"] = (
                nd.add(nd.mul(p, 1.0 - share), nd.mul(r, share))
                for p, r in zip(_pose_losses(model, x_pair, xhat_np),
                                _pose_losses(model, x_rand, xhat_np)))

            if cfg.w_nll > 0:
                terms["nll"] = nd.tmean(
                    nd.mul(nd.tsum(nd.mul(z_fwd, z_fwd), axis=1), 0.5) - logdet)

        # the total sums the weighted terms in this order; another order
        # changes its last bits and every checkpoint after it
        weights = {"recon": W_RECON, "kl": cfg.w_kl, "fwd": W_FWD, "rev_pos": W_REV_POS,
                   "rev_rot": W_REV_ROT, "rev_enc": W_REV_ENC, "fwd_mmd": W_FWD_MMD,
                   "rev_mmd": W_REV_MMD, "nll": cfg.w_nll}
        names = [k for k in weights if k in terms]
        total = None
        for k in names:
            term = nd.mul(terms[k], weights[k])
            total = term if total is None else nd.add(total, term)
        parts = {k: terms[k].item() for k in names}
        loss = total.item()
        if not np.all(np.isfinite([*parts.values(), loss])):
            raise NonFiniteError("non-finite training loss: " + ", ".join(
                f"{k}={v:.6g}" for k, v in [*parts.items(), ("total", loss)]))

        opt.zero_grad()
        total.backward()
        opt.step(lr=lr)

    # fp rounding can leave a mathematically >= 0 component a hair below;
    # nll is a log-density and is reported as is
    return LossEntry(epoch=epoch, lr=lr, total=loss,
                     **{k: v if k == "nll" else max(0.0, v) for k, v in parts.items()})


# ---------------------------------------------------------------------------
# epoch loop
# ---------------------------------------------------------------------------

def _mean_entry(epoch: int, lr: float, steps: list[LossEntry]) -> LossEntry:
    n = len(steps)
    return LossEntry(epoch=epoch, lr=lr, **{
        f.name: sum(getattr(s, f.name) for s in steps) / n
        for f in fields(LossEntry) if f.name not in ("epoch", "lr")})


def train(model: PoseRegressor, poses: np.ndarray, images: np.ndarray,
          cfg: TrainConfig, synth_poses: np.ndarray | None = None,
          synth_images: np.ndarray | None = None, out_dir=None,
          start_epoch: int = 0, opt: nd.Adam | None = None,
          ) -> tuple[list[LossEntry], nd.Adam]:
    """Run the full schedule; returns per-epoch mean losses and the optimizer.

    With a synthetic split present, whole epochs alternate 1:1 between the
    original and the synthetic set (``mix`` = 'alternate', its one legal
    value). All per-epoch randomness is derived from (seed, epoch)
    counters, so resuming from a checkpoint at any epoch reproduces the
    uninterrupted run bitwise.
    """
    poses = np.asarray(poses, dtype=np.float64)
    images = np.asarray(images, dtype=np.float64)
    if len(poses) != len(images) or len(poses) == 0:
        raise DomainError("poses and images must be non-empty and equal length")
    pools = [(poses, images)]
    if synth_poses is not None:
        synth_poses = np.asarray(synth_poses, dtype=np.float64)
        synth_images = np.asarray(synth_images, dtype=np.float64)
        if len(synth_poses) != len(synth_images):
            raise DomainError("synthetic poses and images must be equal length")
        pools.append((synth_poses, synth_images))
    for pp, _ in pools:
        if cfg.batch > len(pp):
            raise DomainError(f"batch size {cfg.batch} exceeds a training pool of {len(pp)}")

    conds = [model.condition_batch(pp) if model.config.conditional else None
             for pp, _ in pools]

    if opt is None:
        opt = nd.Adam(model.params)
    entries: list[LossEntry] = []
    for epoch in range(start_epoch, cfg.epochs):
        pool_i = epoch % len(pools)
        pool_poses, pool_images = pools[pool_i]
        pool_cond = conds[pool_i]
        warmup = epoch < cfg.warmup_epochs
        lr = learning_rate(cfg, epoch)
        perm = np.random.default_rng([cfg.seed, 7, epoch]).permutation(len(pool_poses))
        steps = []
        try:
            for bi, lo in enumerate(range(0, len(perm), cfg.batch)):
                idx = perm[lo:lo + cfg.batch]
                rng = np.random.default_rng([cfg.seed, epoch, bi])
                steps.append(train_step(
                    model, pool_poses[idx], pool_images[idx], cfg, rng, lr, opt,
                    pool_cond[idx] if pool_cond is not None else None,
                    warmup=warmup, epoch=epoch))
        except NonFiniteError as e:
            raise NonFiniteError(f"epoch {epoch}: {e}") from e
        entries.append(_mean_entry(epoch, lr, steps))
        if out_dir is not None and cfg.checkpoint_every > 0 \
                and (epoch + 1) % cfg.checkpoint_every == 0 and epoch + 1 < cfg.epochs:
            save_checkpoint(f"{out_dir}/epoch_{epoch + 1:04d}.ckpt", model,
                            epoch=epoch + 1, train_cfg=cfg, opt=opt)
    if out_dir is not None:
        save_checkpoint(f"{out_dir}/model.ckpt", model, epoch=cfg.epochs,
                        train_cfg=cfg, opt=opt)
    return entries, opt


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CheckpointError("truncated checkpoint file")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


@dataclass
class Checkpoint:
    """Everything needed to resume: rebuilt model, schedule position,
    optimizer moment arrays, and the echoed training config."""

    model: PoseRegressor
    epoch: int
    adam_t: int
    opt_arrays: dict
    train: TrainConfig


def save_checkpoint(path, model: PoseRegressor, epoch: int, train_cfg: TrainConfig,
                    opt: nd.Adam) -> None:
    """Write magic, version, JSON meta block, then named float64 records:
    the model's, then every Adam moment. Each record goes straight to the
    open file; no copy of the whole file is built."""
    meta = {
        "model": asdict(model.config),
        "bounds_lo": [float(v) for v in model.bounds.lo],
        "bounds_hi": [float(v) for v in model.bounds.hi],
        "epoch": int(epoch),
        "adam_t": int(opt.state["t"]),
        "train": asdict(train_cfg),
    }
    arrays = model.param_arrays()
    arrays.update(opt.state_arrays())
    meta_b = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<IQ", VERSION, len(meta_b)) + meta_b
                + struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            name_b = name.encode("utf-8")
            a = np.ascontiguousarray(arr, dtype="<f8")
            f.write(struct.pack("<I", len(name_b)) + name_b
                    + struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape))
            f.write(a)


def _meta_value(meta, key: str, decode):
    """``decode(meta[key])``; a missing key, or a value that ``decode``
    refuses (a type or value error, or a package error such as a config
    class's own check), raises one ``CheckpointError`` line naming the key
    and keeping the reason."""
    try:
        return decode(meta[key])
    except KeyError:
        raise CheckpointError(f"checkpoint meta block has no key '{key}'") from None
    except (TypeError, ValueError, PoseInnError) as e:
        raise CheckpointError(f"checkpoint meta key '{key}' does not decode: {e}") from None


def load_checkpoint(path) -> Checkpoint:
    """Rebuild the model (architecture from the meta block, parameters and
    optimizer moments bitwise from the records, the train config from the
    meta block). The meta block fixes the record set: the rebuilt model's
    ``param_arrays`` (parameters and flow permutations) and a fresh
    optimizer's ``state_arrays`` (every Adam moment), the two tables
    ``save_checkpoint`` writes. A record name that appears twice is refused
    as it is read; then the first missing, unexpected or misshapen record
    in name order is one ``CheckpointError`` line naming it."""
    with open(path, "rb") as f:
        r = _Reader(f.read())
    if r.take(4) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (this build reads version {VERSION}; "
            "retrain the model)")
    try:
        meta = json.loads(r.take(r.u64()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint meta block: {e}") from e
    arrays = {}
    for _ in range(r.u32()):
        name = r.take(r.u32()).decode("utf-8")
        if name in arrays:
            raise CheckpointError(f"repeated checkpoint record '{name}'")
        rank = r.u32()
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank))
        n = math.prod(shape)  # Python ints: a huge shape cannot wrap around
        arrays[name] = np.frombuffer(r.take(8 * n), dtype="<f8").reshape(shape).copy()

    bounds = Aabb(*(_meta_value(meta, k, lambda v: np.array(v, dtype=np.float64))
                    for k in ("bounds_lo", "bounds_hi")))
    model = _meta_value(meta, "model", lambda v: PoseRegressor(ModelConfig(**v), bounds))
    epoch, adam_t = _meta_value(meta, "epoch", int), _meta_value(meta, "adam_t", int)
    if epoch < 0 or adam_t < 0:
        raise CheckpointError(f"checkpoint meta epoch {epoch} and adam_t {adam_t} must be >= 0")
    train_cfg = _meta_value(meta, "train", lambda v: TrainConfig(**v))

    # the records save_checkpoint writes for this model, from the same calls
    moments = nd.Adam(model.params).state_arrays()
    expected = {**model.param_arrays(), **moments}
    for k in sorted(arrays.keys() | expected.keys()):
        if k not in arrays or k not in expected:
            why = "unexpected" if k in arrays else "missing"
            raise CheckpointError(f"{why} checkpoint record '{k}'")
        if arrays[k].shape != expected[k].shape:
            raise CheckpointError(f"checkpoint record '{k}' has shape {arrays[k].shape}, "
                                  f"expected {expected[k].shape}")
    model.load_param_arrays(arrays)
    return Checkpoint(model=model, epoch=epoch, adam_t=adam_t,
                      opt_arrays={k: arrays[k] for k in moments}, train=train_cfg)


def restore_optimizer(ck: Checkpoint) -> nd.Adam:
    """Adam instance over the rebuilt model, moments restored bitwise."""
    opt = nd.Adam(ck.model.params)
    opt.load_state_arrays(ck.opt_arrays, ck.adam_t)
    return opt
