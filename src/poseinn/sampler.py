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
Rule 1 costs one distance per training pose, far less than the frustum
stats, so it is checked before any frustum work: a rule-1 reject carries
only its training distance, and `None` for the two frustum stats.
Candidates use independently derived rngs, so the accepted list does not
depend on evaluation order, and every accepted pose re-passes the filter
when recomputed from scratch.

The frustum stats cull the cloud by grid cell. `index_cloud` sorts it
once per `sample_poses` call into GRID x GRID cells over its x/y extent,
each with the box its points span. Per candidate, each box is classified
against the frustum with a slack (CULL_MARGIN, relative to the size of
the coordinates) far above the rounding of the per-point test: a cell
wholly outside is skipped, a cell wholly inside adds its point count, and
only the points of the other cells are rotated and tested. The nearest
in-view distance reads the inside cells nearest box first and stops once
a box's lower bound reaches the best distance so far. A count and a
minimum do not depend on the order of their terms, and BLAS rotates a row
the same way whatever rows surround it (tests/test_sampler.py pins this
down to 1- and 2-row subsets), so both stats are bitwise those of one
test of the whole cloud.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SamplingError
from .geometry import Pose, is_int, squared_norms, wrap_angle
from .scenegen import CameraIntrinsics, Scene

log = logging.getLogger(__name__)

REASON_RULE1 = "rule1_delta_training"
REASON_RULE2 = "rule2_n_in_view"
REASON_RULE3 = "rule3_delta_in_view"
MAX_ROT_NOISE = np.deg2rad(3.6)  # largest heading perturbation of a candidate
GRID = 16  # cells per axis of the cloud index
CULL_MARGIN = 1e-9  # relative slack of a cell's inside/outside call


@dataclass(frozen=True)
class SamplingConfig:
    target: int = 2000
    max_delta_training: float = 0.5
    widen: float = 1.0
    budget_factor: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("target", "budget_factor", "seed"):
            if not is_int(getattr(self, name)):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
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


def _half_tans(intr: CameraIntrinsics) -> tuple[float, float]:
    """tan of the half field of view, horizontal and vertical."""
    tan_h = np.tan(intr.hfov / 2.0)
    return tan_h, tan_h * (intr.height / intr.width)


def _frustum_mask(rel: np.ndarray, rot: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Frustum test of points given relative to the camera position."""
    cam = rel @ rot  # columns: forward, left, up
    depth, lat, vert = cam[:, 0], cam[:, 1], cam[:, 2]
    tan_h, tan_v = _half_tans(intr)
    return (depth > 0.0) & (np.abs(lat) <= depth * tan_h) & (np.abs(vert) <= depth * tan_v)


def _nearest(rel: np.ndarray) -> float:
    """Smallest row norm; sqrt is monotone and correctly rounded, so this is
    bitwise the min of np.linalg.norm(rel, axis=1)."""
    return float(np.sqrt(np.min(squared_norms(rel))))


@dataclass(frozen=True)
class CloudIndex:
    """The cloud sorted by cell of a GRID x GRID grid over its x/y extent;
    cell k holds rows starts[k]:starts[k] + counts[k] of ``points`` and the
    box [lo[k], hi[k]] spanned by them. Only non-empty cells are kept."""
    points: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    scale: float  # largest |coordinate| in the cloud


def index_cloud(cloud: np.ndarray) -> CloudIndex:
    """Sort the cloud into grid cells; a non-finite coordinate is refused."""
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DimensionError(f"point cloud must be (N, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise DomainError("point cloud coordinates must be finite")
    if len(pts) == 0:
        none = np.zeros(0, dtype=np.intp)
        return CloudIndex(pts, none, none, pts, pts, 0.0)
    lo = pts[:, :2].min(axis=0)
    span = pts[:, :2].max(axis=0) - lo
    # any cell assignment is exact, since each box is taken from its own points
    per_m = np.divide(GRID, span, out=np.zeros(2), where=span > 0)
    ij = np.minimum(((pts[:, :2] - lo) * per_m).astype(np.intp), GRID - 1)
    cell = ij[:, 0] * GRID + ij[:, 1]
    points = pts[np.argsort(cell, kind="stable")]
    counts = np.bincount(cell, minlength=GRID * GRID)
    counts = counts[counts > 0]
    starts = np.cumsum(counts) - counts
    return CloudIndex(points, starts, counts, np.minimum.reduceat(points, starts),
                      np.maximum.reduceat(points, starts), float(np.abs(pts).max()))


def _frustum_stats(pose: Pose, intr: CameraIntrinsics, index: CloudIndex) -> tuple[int, float]:
    """(n_in_view, delta_in_view), bitwise as one _frustum_mask pass over the
    whole cloud would give them. Each cell's box is classified against the
    frustum: a cell wholly outside is skipped, one wholly inside counts all
    its points, and only the points of a cell the frustum boundary may cross
    go through _frustum_mask."""
    p, rot = pose.position, pose.rotation()
    tan_h, tan_v = _half_tans(intr)
    f, left, up = rot[:, 0], rot[:, 1], rot[:, 2]
    # a point r is in view iff r.f > 0 and the other four forms are <= 0;
    # each form is linear, so its extremes over a box come from the box's
    # corners, taken per axis by the sign of the form's weights
    forms = np.column_stack([f, left - tan_h * f, -left - tan_h * f,
                             up - tan_v * f, -up - tan_v * f])
    lo, hi = index.lo - p, index.hi - p
    pos, neg = np.maximum(forms, 0.0), np.minimum(forms, 0.0)
    low, high = lo @ pos + hi @ neg, hi @ pos + lo @ neg
    # the margin is far above the rounding of either side's arithmetic, so
    # a cell called inside or outside is so for every point's test too
    margin = CULL_MARGIN * (1.0 + tan_h + tan_v) * (index.scale + np.abs(p).max())
    inside = (low[:, 0] > margin) & (high[:, 1:] < -margin).all(axis=1)
    outside = (high[:, 0] < -margin) | (low[:, 1:] > margin).any(axis=1)

    cells = np.flatnonzero(~(inside | outside))
    counts = index.counts[cells]
    # row k of the gathered points is row offset[k] + k of the index
    offset = np.repeat(index.starts[cells] - (np.cumsum(counts) - counts), counts)
    rel = np.take(index.points, offset + np.arange(len(offset)), axis=0) - p
    mask = _frustum_mask(rel, rot, intr)
    n = int(np.count_nonzero(mask)) + int(index.counts[inside].sum())
    if n == 0:
        return 0, float("nan")
    # compress copies the in-view rows as rel[mask] does, in a fraction of the time
    seen = squared_norms(np.compress(mask, rel, axis=0))
    best = seen.min() if len(seen) else np.inf
    # fl(c - p) is monotone in c, so the box's gap to the camera squares and
    # sums to a lower bound of every member's squared norm: a cell whose
    # bound reaches the best so far cannot lower the minimum
    cells = np.flatnonzero(inside)
    bound = squared_norms(np.maximum(np.maximum(lo[cells], -hi[cells]), 0.0))
    for k in np.argsort(bound):
        if bound[k] >= best:
            break
        start, count = index.starts[cells[k]], index.counts[cells[k]]
        best = min(best, squared_norms(index.points[start:start + count] - p).min())
    return n, float(np.sqrt(best))


def _indexed(cloud: np.ndarray | CloudIndex) -> CloudIndex:
    return cloud if isinstance(cloud, CloudIndex) else index_cloud(cloud)


def compute_ranges(training_poses: list[Pose], intr: CameraIntrinsics,
                   cloud: np.ndarray | CloudIndex, widen: float) -> AcceptanceRanges:
    """Training-set [min, max] of N_in_view and delta_in_view, widened
    multiplicatively (lo / widen, hi * widen)."""
    if not training_poses:
        raise SamplingError("cannot compute acceptance ranges from an empty training set")
    index = _indexed(cloud)
    ns, ds = [], []
    for p in training_poses:
        n, d = _frustum_stats(p, intr, index)
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


def filter_pose(candidate: Pose, training_positions: np.ndarray,
                cloud: np.ndarray | CloudIndex, intr: CameraIntrinsics,
                ranges: AcceptanceRanges, cfg: SamplingConfig) -> FilterResult:
    """Apply the three rules in order; the reason names the first failure.
    Rule 1 is decided before any frustum work, so a rule-1 reject's stats
    hold `None` for n_in_view and delta_in_view."""
    if len(training_positions) == 0:
        raise SamplingError("cannot filter a candidate against an empty training set")
    index = _indexed(cloud)
    d_training = _nearest(training_positions - candidate.position)
    if d_training > cfg.max_delta_training:
        return FilterResult(False, REASON_RULE1, ViewStats(None, None, d_training))
    stats = ViewStats(*_frustum_stats(candidate, intr, index), d_training)
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
    index = index_cloud(cloud)
    if len(index.points) == 0:
        raise SamplingError("cannot sample poses against an empty cloud")
    positions = np.array([p.position for p in training_poses])
    ranges = compute_ranges(training_poses, intr, index, cfg.widen)

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
        result = filter_pose(candidate, positions, index, intr, ranges, cfg)
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
