"""Synthetic pose sampling against a surface point cloud.

Candidates get a uniform random floor position in the scene box and the
heading of a randomly picked training pose plus a uniform perturbation of
at most ``MAX_ROT_NOISE``. A candidate is kept only if

  rule 1: distance to the nearest training position is at most 0.5 m
          (configurable),
  rule 2: the number of cloud points in its view frustum lies inside the
          [min, max] range observed over the training poses,
  rule 3: the distance to its nearest in-view cloud point lies inside the
          training [min, max] range.

"In view" is frustum containment with positive depth and no occlusion
test; rule 3's minimum already rejects cameras pressed against geometry.
Rule 1 costs one distance per training pose and the frustum test one
rotation per cloud point, so rule 1 is checked before any frustum work: a
rule-1 reject carries only its training distance, and `None` for the two
frustum stats. Candidates use independently derived rngs, so the accepted
list does not depend on evaluation order, and every accepted pose re-passes
the filter when recomputed from scratch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SamplingError
from .geometry import Pose, wrap_angle
from .scenegen import CameraIntrinsics, Scene

log = logging.getLogger(__name__)

REASON_RULE1 = "rule1_delta_training"
REASON_RULE2 = "rule2_n_in_view"
REASON_RULE3 = "rule3_delta_in_view"
MAX_ROT_NOISE = np.deg2rad(3.6)  # largest heading perturbation of a candidate


@dataclass(frozen=True)
class SamplingConfig:
    target: int = 2000
    max_delta_training: float = 0.5
    widen: float = 1.0
    budget_factor: int = 100
    seed: int = 0

    def __post_init__(self):
        # nan must fail: it would turn rule 1 off, or spend the whole budget
        if self.target < 1 or not self.max_delta_training > 0:
            raise DomainError("sampling config thresholds must be positive")
        if not self.widen >= 1.0 or self.budget_factor < 1:
            raise DomainError("widen must be >= 1 and budget_factor >= 1")


@dataclass(frozen=True)
class ViewStats:
    n_in_view: int | None  # None on a rule-1 reject
    delta_in_view: float | None  # nan when n_in_view == 0, None on a rule-1 reject
    delta_training: float


@dataclass(frozen=True)
class AcceptanceRanges:
    n_lo: float
    n_hi: float
    d_lo: float
    d_hi: float


@dataclass(frozen=True)
class FilterResult:
    accepted: bool
    reason: str | None
    stats: ViewStats


def _frustum_mask(rel: np.ndarray, rot: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Frustum test of points given relative to the camera position."""
    cam = rel @ rot  # columns: forward, left, up
    depth, lat, vert = cam[:, 0], cam[:, 1], cam[:, 2]
    tan_h = np.tan(intr.hfov / 2.0)
    tan_v = tan_h * (intr.height / intr.width)
    return (depth > 0.0) & (np.abs(lat) <= depth * tan_h) & (np.abs(vert) <= depth * tan_v)


def _nearest(rel: np.ndarray) -> float:
    """Smallest row norm; sqrt is monotone and correctly rounded, so this is
    bitwise the min of np.linalg.norm(rel, axis=1)."""
    return float(np.sqrt(np.min(np.add.reduce(rel * rel, axis=1))))


def _frustum_stats(pose: Pose, intr: CameraIntrinsics, cloud: np.ndarray) -> tuple[int, float]:
    """(n_in_view, delta_in_view) from one pass over the cloud."""
    rel = np.asarray(cloud, dtype=np.float64) - pose.position
    mask = _frustum_mask(rel, pose.rotation(), intr)
    n = int(np.count_nonzero(mask))
    return n, (_nearest(rel[mask]) if n else float("nan"))


def compute_ranges(training_poses: list[Pose], intr: CameraIntrinsics,
                   cloud: np.ndarray, widen: float) -> AcceptanceRanges:
    """Training-set [min, max] of N_in_view and delta_in_view, widened
    multiplicatively (lo / widen, hi * widen)."""
    if not training_poses:
        raise SamplingError("cannot compute acceptance ranges from an empty training set")
    ns, ds = [], []
    for p in training_poses:
        n, d = _frustum_stats(p, intr, cloud)
        ns.append(n)
        if n > 0:
            ds.append(d)
    if not ds:
        raise SamplingError("no training pose sees any cloud point; check scene and cloud")

    # multiplicative widening so a degenerate [v, v] range (tiny or highly
    # symmetric training sets) can still open up; widen = 1 keeps exact min/max
    def widened(lo: float, hi: float) -> tuple[float, float]:
        return lo / widen, hi * widen

    n_lo, n_hi = widened(float(min(ns)), float(max(ns)))
    d_lo, d_hi = widened(float(min(ds)), float(max(ds)))
    return AcceptanceRanges(n_lo, n_hi, d_lo, d_hi)


def sample_orientation(training_poses: list[Pose], max_angle: float,
                       rng: np.random.Generator) -> float:
    """Heading of a randomly picked training pose plus a uniform
    perturbation in [-max_angle, max_angle], wrapped to [-pi, pi]."""
    if not training_poses:
        raise SamplingError("cannot sample an orientation from an empty training set")
    h = training_poses[int(rng.integers(0, len(training_poses)))].euler[0]
    if max_angle != 0.0:
        h = wrap_angle(h + rng.uniform(-max_angle, max_angle))
    return float(np.arctan2(np.sin(h), np.cos(h)))


def filter_pose(candidate: Pose, training_positions: np.ndarray, cloud: np.ndarray,
                intr: CameraIntrinsics, ranges: AcceptanceRanges,
                cfg: SamplingConfig) -> FilterResult:
    """Apply the three rules in order; the reason names the first failure.
    Rule 1 is decided before any frustum work, so a rule-1 reject's stats
    hold `None` for n_in_view and delta_in_view."""
    d_training = _nearest(training_positions - candidate.position)
    if d_training > cfg.max_delta_training:
        return FilterResult(False, REASON_RULE1, ViewStats(None, None, d_training))
    stats = ViewStats(*_frustum_stats(candidate, intr, cloud), d_training)
    if not ranges.n_lo <= stats.n_in_view <= ranges.n_hi:
        return FilterResult(False, REASON_RULE2, stats)
    if stats.n_in_view == 0 or not ranges.d_lo <= stats.delta_in_view <= ranges.d_hi:
        return FilterResult(False, REASON_RULE3, stats)
    return FilterResult(True, None, stats)


def sample_poses(scene: Scene, cloud: np.ndarray, training_poses: list[Pose],
                 intr: CameraIntrinsics, cfg: SamplingConfig) -> list[tuple[Pose, ViewStats]]:
    """Rejection-sample cfg.target accepted poses; raises with diagnostics
    if the attempt budget (budget_factor * target) runs out."""
    if not training_poses:
        raise SamplingError("cannot sample poses from an empty training set")
    if len(cloud) == 0:
        raise SamplingError("cannot sample poses against an empty cloud")
    positions = np.array([p.position for p in training_poses])
    ranges = compute_ranges(training_poses, intr, cloud, cfg.widen)

    accepted: list[tuple[Pose, ViewStats]] = []
    budget = cfg.budget_factor * cfg.target
    reasons = {REASON_RULE1: 0, REASON_RULE2: 0, REASON_RULE3: 0, "collision": 0}
    attempts = 0
    for i in range(budget):
        attempts += 1
        rng = np.random.default_rng([cfg.seed, i])
        pos = np.array([rng.uniform(scene.bounds.lo[0], scene.bounds.hi[0]),
                        rng.uniform(scene.bounds.lo[1], scene.bounds.hi[1]), 0.0])
        if scene.position_collides(pos):
            reasons["collision"] += 1
            continue
        heading = sample_orientation(training_poses, MAX_ROT_NOISE, rng)
        candidate = Pose(pos, np.array([heading, 0.0, 0.0]))
        result = filter_pose(candidate, positions, cloud, intr, ranges, cfg)
        if result.accepted:
            accepted.append((candidate, result.stats))
            if len(accepted) == cfg.target:
                log.info("sample_poses: %d attempts, %d accepted, %d collisions, "
                         "rejected by rule 1/2/3: %d/%d/%d", attempts, len(accepted),
                         reasons["collision"], reasons[REASON_RULE1], reasons[REASON_RULE2],
                         reasons[REASON_RULE3])
                return accepted
        else:
            reasons[result.reason] += 1
    rate = len(accepted) / attempts if attempts else 0.0
    raise SamplingError(
        f"accepted only {len(accepted)}/{cfg.target} poses in {attempts} attempts "
        f"(rate {rate:.4f}); rejections: {reasons}")
