"""Inference: pose posteriors from the flow, filtering, EKF fusion.

localize() encodes an image once, draws N residual latents, and inverts the
flow to get N pose samples; downstream consumers use the sample spread as an
uncertainty signal, either to drop unreliable frames (variance_filter) or to
weight an odometry fusion (ekf_predict, then ekf_update with the
posterior_measurement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ndiff as nd
from .errors import ConditioningError, DimensionError, DomainError, NonFiniteError
from .geometry import Pose, is_int, wrap_angle
from .model import PoseRegressor

# eigenvalues may dip this far below zero before a covariance counts as broken
PSD_SLACK = 1e-10
HEADING_BINS = 18


def circular_mean(angles: np.ndarray) -> float:
    return float(np.arctan2(np.mean(np.sin(angles)), np.mean(np.cos(angles))))


@dataclass(frozen=True)
class PosePosterior:
    """N decoded planar pose samples plus their moments.

    ``samples`` is (n, 3) in meters/radians; the heading column of
    ``variance`` is circular (mean squared wrapped deviation from the
    circular mean); ``position_cov`` covers (x, y) only. ``dim`` must be 3.
    """

    samples: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    position_cov: np.ndarray
    dim: int

    def __post_init__(self):
        if self.dim != 3:
            raise DimensionError(f"posterior dim must be 3 (planar poses only), got {self.dim}")

    def scalar_uncertainty(self) -> float:
        """Sum of position variances."""
        return float(np.sum(self.variance[:2]))


def summarize_samples(samples: np.ndarray, dim: int) -> PosePosterior:
    """Moments of decoded (x, y, theta) samples; the heading uses circular
    statistics. ``dim`` must be 3."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != 3 or len(samples) < 1:
        raise DimensionError(f"need (n, 3) samples, got {samples.shape}")
    mean = np.empty(3)
    mean[:2] = samples[:, :2].mean(axis=0)
    mean[2] = circular_mean(samples[:, 2])
    # columns whose samples all agree get the exact value and zero spread
    # (the float mean of n equal values need not equal them bitwise)
    same = np.all(samples == samples[0], axis=0)
    mean[same] = samples[0, same]
    dev = samples - mean
    dev[:, 2] = wrap_angle(dev[:, 2])
    dev[:, same] = 0.0
    variance = np.mean(dev * dev, axis=0)
    pos_dev = dev[:, :2]
    position_cov = pos_dev.T @ pos_dev / len(samples)
    return PosePosterior(samples=samples, mean=mean, variance=variance,
                         position_cov=position_cov, dim=dim)


def localize(model: PoseRegressor, image: np.ndarray, n_samples: int = 50,
             condition: Pose | None = None, *,
             rng: np.random.Generator) -> PosePosterior:
    """Image -> pose posterior from n_samples draws of the residual latent.

    The image is encoded once with the VAE mean; each sample inverts the flow
    at a fresh z ~ N(0, 1) drawn from ``rng``, a required keyword that the
    caller seeds (e.g. ``np.random.default_rng(seed)``). Conditional models
    require ``condition`` (the previous-state estimate), which
    ``condition_vector`` snaps to its grid cell and encodes; unconditional
    models reject one. The flow raises either mismatch as
    ``ConditioningError``. The flow gets the image latent and the condition as
    one row each that serves all n_samples draws: the condition is embedded,
    and multiplied into each subnet's first layer, once per call, and the
    top coupling, whose passive half holds only the pad and latent
    columns, runs its subnets once per call.
    No autodiff graph is built; non-finite flow outputs raise
    ``NonFiniteError``.
    """
    if not is_int(n_samples):
        raise DomainError(f"n_samples must be an integer, got {type(n_samples).__name__}")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    image = np.asarray(image, dtype=np.float64)
    hw = model.config.image_hw
    if image.shape != (hw, hw, 3):
        raise DimensionError(f"image must be ({hw}, {hw}, 3), got {image.shape}")

    z = rng.standard_normal((n_samples, model.config.dim))
    c = None
    if condition is not None:
        c = model.condition_vector(condition)[None]
    # no gradient is wanted, so the ops build no graph. No op checks its
    # values: a non-finite image latent or a NaN weight reaches the flow
    # output, which is checked once.
    with np.errstate(all="ignore"), nd.no_grad():
        yhat = model.vae.encode(image[None], mode="mean").data
        x = model.flow.inverse(yhat, z, c).data
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("flow inverse produced non-finite values")
    samples = model.decode_pose_vectors(x)
    return summarize_samples(samples, model.config.dim)


def variance_filter(posteriors: list[PosePosterior]) -> np.ndarray:
    """Boolean keep mask: posteriors whose scalar uncertainty is <= the
    median. Ties at the median are kept, so distinct values keep exactly
    ceil(n / 2) entries, and a lone posterior is kept. An empty list raises
    ``DomainError``.
    """
    if not posteriors:
        raise DomainError("variance filtering needs at least 1 posterior")
    u = np.array([p.scalar_uncertainty() for p in posteriors])
    return u <= np.median(u)


# ---------------------------------------------------------------------------
# heading multimodality
# ---------------------------------------------------------------------------

def heading_modes(headings: np.ndarray) -> list[tuple[float, float]]:
    """Local maxima of the circular heading histogram of HEADING_BINS bins.

    Returns (bin center, mass) pairs sorted by decreasing peak count, where
    mass is the fraction of samples in the peak bin and its two circular
    neighbors (a mode is the lobe around a peak, not one bin). Peaks within
    two bins of a stronger peak are suppressed so one lobe yields one mode.
    Every heading must be finite.
    """
    headings = np.asarray(headings, dtype=np.float64).reshape(-1)
    if len(headings) == 0:
        raise DomainError("heading_modes needs at least one sample")
    if not np.isfinite(headings).all():
        raise DomainError("heading_modes needs finite headings")
    headings = wrap_angle(headings)
    n_bins = HEADING_BINS
    counts, edges = np.histogram(headings, bins=n_bins, range=(-np.pi, np.pi))
    centers = (edges[:-1] + edges[1:]) / 2
    n = len(headings)
    peaks = [i for i in range(n_bins)
             if counts[i] > 0
             and counts[i] >= counts[(i - 1) % n_bins]
             and counts[i] >= counts[(i + 1) % n_bins]]
    peaks.sort(key=lambda i: (-counts[i], i))
    kept: list[int] = []
    for i in peaks:
        if all(min((i - j) % n_bins, (j - i) % n_bins) > 2 for j in kept):
            kept.append(i)
    out = []
    for i in kept:
        mass = (counts[(i - 1) % n_bins] + counts[i] + counts[(i + 1) % n_bins]) / n
        out.append((float(centers[i]), float(mass)))
    return out


# ---------------------------------------------------------------------------
# EKF odometry fusion
# ---------------------------------------------------------------------------

def _check_psd(cov: np.ndarray, what: str) -> np.ndarray:
    """A finite, symmetric, positive semidefinite (3, 3) covariance,
    symmetrized."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.shape != (3, 3):
        raise DimensionError(f"{what} must be (3, 3), got {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ConditioningError(f"{what} has non-finite entries")
    # np.allclose(cov, cov.T, atol=1e-9) on finite entries (numpy's default
    # rtol), written out: the 3x3 call costs more than the eigenvalues
    if not np.all(np.abs(cov - cov.T) <= 1e-9 + 1e-5 * np.abs(cov.T)):
        raise ConditioningError(f"{what} is not symmetric")
    if np.linalg.eigvalsh(cov).min() < -PSD_SLACK:
        raise ConditioningError(f"{what} is not positive semidefinite")
    return (cov + cov.T) / 2


@dataclass(frozen=True)
class EkfState:
    """Planar filter state: mean (x, y, theta) and 3x3 covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        if mean.shape != (3,):
            raise DimensionError(f"EKF mean must be (3,), got {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise DomainError(f"EKF mean must be finite, got {mean}")
        cov = _check_psd(self.cov, "EKF covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class OdometryStep:
    """Body-frame increment (forward, lateral, heading) with process noise
    variances for (x, y, theta)."""

    d_forward: float
    d_lateral: float
    d_theta: float
    noise: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        noise = np.asarray(self.noise, dtype=np.float64).reshape(-1)
        vals = (self.d_forward, self.d_lateral, self.d_theta)
        if not all(np.isfinite(v) for v in vals) or not np.all(np.isfinite(noise)):
            raise DomainError("odometry step must be finite")
        if noise.shape != (3,) or np.any(noise < 0):
            raise DomainError("process noise must be 3 non-negative variances")
        object.__setattr__(self, "noise", noise)


def ekf_predict(state: EkfState, odom: OdometryStep) -> EkfState:
    """Compose the body-frame increment onto the state (exact planar motion)
    and push the covariance through the analytic Jacobian."""
    x, y, th = state.mean
    c, s = np.cos(th), np.sin(th)
    mean = np.array([x + c * odom.d_forward - s * odom.d_lateral,
                     y + s * odom.d_forward + c * odom.d_lateral,
                     wrap_angle(th + odom.d_theta)])
    F = np.array([[1.0, 0.0, -s * odom.d_forward - c * odom.d_lateral],
                  [0.0, 1.0, c * odom.d_forward - s * odom.d_lateral],
                  [0.0, 0.0, 1.0]])
    cov = F @ state.cov @ F.T + np.diag(odom.noise)
    return EkfState(mean=mean, cov=cov)


def ekf_update(state: EkfState, meas_mean: np.ndarray, meas_cov: np.ndarray) -> EkfState:
    """Fuse a full-pose measurement; the heading innovation is wrapped so a
    measurement across the +-pi seam pulls the short way around. A singular
    innovation covariance state.cov + meas_cov raises ConditioningError."""
    meas_mean = np.asarray(meas_mean, dtype=np.float64).reshape(-1)
    if meas_mean.shape != (3,):
        raise DimensionError(f"measurement mean must be (3,), got {meas_mean.shape}")
    R = _check_psd(meas_cov, "measurement covariance")
    P = state.cov
    nu = meas_mean - state.mean
    nu[2] = wrap_angle(nu[2])
    try:
        K = np.linalg.solve((P + R).T, P.T).T
    except np.linalg.LinAlgError:
        raise ConditioningError("EKF innovation covariance is singular") from None
    mean = state.mean + K @ nu
    mean[2] = wrap_angle(mean[2])
    ikh = np.eye(3) - K
    cov = ikh @ P @ ikh.T + K @ R @ K.T  # Joseph form keeps PSD
    return EkfState(mean=mean, cov=cov)


def posterior_measurement(post: PosePosterior) -> tuple[np.ndarray, np.ndarray]:
    """Posterior -> (mean, full 3x3 covariance) measurement for the EKF.

    The covariance comes from the samples with wrapped heading deviations,
    so the position-heading cross terms are retained.
    """
    dev = post.samples - post.mean
    dev[:, 2] = wrap_angle(dev[:, 2])
    cov = dev.T @ dev / len(post.samples)
    return post.mean.copy(), cov

