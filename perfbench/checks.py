"""Correctness checks on workload outputs.

Each check returns None when the output is correct and a one-line reason
when it is not, so the benchmark can count the failure against the
operation that produced it and still report every other result.
"""

from __future__ import annotations

import hashlib

import numpy as np

from poseinn import errors, sampler, trainer
from poseinn.geometry import Pose
from poseinn.localizer import PSD_SLACK

ROUND_TRIP_TOL = 1e-9  # flow invertibility tolerance of the acceptance tests


def posterior(post, n_samples: int, dim: int) -> str | None:
    """Finite (n, dim) samples with finite moments."""
    if post.samples.shape != (n_samples, dim):
        return f"posterior samples have shape {post.samples.shape}, expected ({n_samples}, {dim})"
    for field in ("samples", "mean", "variance", "position_cov"):
        if not np.all(np.isfinite(getattr(post, field))):
            return f"posterior {field} is not finite"
    return None


def bitwise_equal(a, b, what: str) -> str | None:
    """Same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
        return f"{what} differ between reruns"
    return None


def round_trip(flow_model, y: np.ndarray, z: np.ndarray, c: np.ndarray | None) -> str | None:
    """forward(inverse(y, z, c), c) returns (y, z) within ROUND_TRIP_TOL."""
    x = flow_model.inverse(y, z, c)
    y2, z2 = flow_model.forward(x, c)
    err = max(float(np.max(np.abs(y2.data - y))), float(np.max(np.abs(z2.data - z))))
    if not err <= ROUND_TRIP_TOL:
        return f"flow round trip error {err:.3e} exceeds {ROUND_TRIP_TOL:.0e}"
    return None


def psd(cov: np.ndarray) -> str | None:
    """Finite, symmetric and positive semidefinite within PSD_SLACK."""
    cov = np.asarray(cov)
    if not np.all(np.isfinite(cov)):
        return "EKF covariance is not finite"
    if not np.allclose(cov, cov.T, atol=1e-9):
        return "EKF covariance is not symmetric"
    low = float(np.linalg.eigvalsh((cov + cov.T) / 2).min())
    if low < -PSD_SLACK:
        return f"EKF covariance has eigenvalue {low:.3e}"
    return None


def loss_entries(entries, warmup_epochs: int) -> str | None:
    """Finite losses, and a last epoch below the first one after warm-up."""
    fields = ("total", "fwd", "rev_pos", "rev_rot", "rev_enc", "recon", "kl", "nll")
    for e in entries:
        if not all(np.isfinite(getattr(e, f)) for f in fields):
            return f"epoch {e.epoch} has a non-finite loss"
    first, last = entries[warmup_epochs].total, entries[-1].total
    if not last < first:
        return f"last-epoch loss {last!r} is not below the first post-warm-up loss {first!r}"
    return None


def checkpoint(path, model, opt) -> str | None:
    """The file loads back with parameters and Adam moments bitwise equal."""
    try:
        ck = trainer.load_checkpoint(path)
    except (errors.PoseInnError, UnicodeDecodeError, KeyError, TypeError, ValueError) as e:
        return f"checkpoint {path} does not load: {e}"
    want = model.param_arrays()
    got = ck.model.param_arrays()
    if want.keys() != got.keys():
        return f"checkpoint {path} holds other parameters"
    for k in want:
        if bitwise_equal(want[k], got[k], k):
            return f"checkpoint {path}: parameter {k} differs from the trained model"
    moments = opt.state_arrays()
    if moments.keys() != ck.opt_arrays.keys() or ck.adam_t != opt.state["t"]:
        return f"checkpoint {path}: optimizer state differs"
    for k in moments:
        if bitwise_equal(moments[k], ck.opt_arrays[k], k):
            return f"checkpoint {path}: optimizer moment {k} differs"
    return None


def stored_images(loaded: np.ndarray, rendered: np.ndarray) -> str | None:
    """A loaded float32 blob equals the rendered images cast to float32."""
    if loaded.shape != rendered.shape:
        return f"blob shape {loaded.shape} != rendered {rendered.shape}"
    if bitwise_equal(loaded, np.asarray(rendered, dtype=np.float32).astype(np.float64),
                     "stored images"):
        return "stored images are not the rendered images cast to float32"
    if np.any(loaded < 0.0) or np.any(loaded > 1.0):
        return "stored image values leave [0, 1]"
    return None


def synthetic_poses(synth_vecs: np.ndarray, training_vecs: np.ndarray, cloud: np.ndarray,
                    intr, cfg: sampler.SamplingConfig) -> str | None:
    """Every given synthetic pose re-passes filter_pose against ranges
    recomputed from the training split."""
    dim = training_vecs.shape[1]
    training = [Pose.from_vector(v, dim) for v in training_vecs]
    ranges = sampler.compute_ranges(training, intr, cloud, cfg.widen)
    positions = np.array([p.position for p in training])
    for i, v in enumerate(synth_vecs):
        res = sampler.filter_pose(Pose.from_vector(v, dim), positions, cloud, intr, ranges, cfg)
        if not res.accepted:
            return f"synthetic pose {i} fails filter_pose ({res.reason})"
    return None


def shared_share(images) -> float:
    """Share of the images (any iterable) whose bytes repeat an earlier one."""
    seen, n = set(), 0
    for im in images:
        seen.add(hashlib.sha1(np.ascontiguousarray(im).tobytes()).digest())
        n += 1
    return 1.0 - len(seen) / n
