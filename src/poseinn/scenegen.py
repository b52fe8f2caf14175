"""Procedural scenes and an analytic raycasting renderer.

The renderer stands in for a learned radiance field: one primary ray per
pixel, nearest hit against colored spheres and axis-aligned boxes, Lambert
shading from a fixed directional light plus mild depth attenuation, flat
background on miss. It is a pure function of (scene, intrinsics, pose),
so rendered datasets are exactly reproducible, and the same scene exports
an area-uniform surface point cloud standing in for a density threshold
cloud.

Camera frame: body x = forward (optical axis), y = left, z = up. A pixel
at normalized image coordinates (a, b), a to the right and b down, maps
to ray direction f - a*tan(hfov/2)*left - b*tan(hfov/2)*(H/W)*up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kvconfig as kv
from .errors import ConfigError, DimensionError, DomainError, GenerationError
from .geometry import Aabb, Pose

# vertical light: Lambert shading then depends only on the normal's z
# component, so rotating a scene about z rotates its images exactly and a
# 180-degree-symmetric scene stays truly ambiguous
LIGHT_DIR = np.array([0.0, 0.0, 1.0])
AMBIENT = 0.35
DEPTH_FALLOFF = 0.08
# a 4 m x 4 m x 2 m room, the box a scene gets when none is given
DEFAULT_BOUNDS = Aabb(np.array([-2.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0]))


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    albedo: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        object.__setattr__(self, "albedo", np.asarray(self.albedo, dtype=np.float64))
        if self.radius <= 0:
            raise DomainError(f"sphere radius must be positive, got {self.radius}")
        _check_albedo(self.albedo)

    def surface_area(self) -> float:
        return 4.0 * np.pi * self.radius ** 2

    def contains(self, p: np.ndarray) -> bool:
        return bool(np.sum((p - self.center) ** 2) < self.radius ** 2)


@dataclass(frozen=True)
class Box:
    center: np.ndarray
    half: np.ndarray
    albedo: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        object.__setattr__(self, "half", np.asarray(self.half, dtype=np.float64))
        object.__setattr__(self, "albedo", np.asarray(self.albedo, dtype=np.float64))
        if np.any(self.half <= 0):
            raise DomainError(f"box half-extents must be positive, got {self.half}")
        _check_albedo(self.albedo)

    def surface_area(self) -> float:
        hx, hy, hz = self.half
        return 8.0 * (hx * hy + hy * hz + hz * hx)

    def contains(self, p: np.ndarray) -> bool:
        return bool(np.all(np.abs(p - self.center) < self.half))


def _check_albedo(a: np.ndarray) -> None:
    if a.shape != (3,) or np.any(a < 0.0) or np.any(a > 1.0):
        raise DomainError(f"albedo must be 3 values in [0,1], got {a}")


@dataclass(frozen=True)
class Scene:
    bounds: Aabb
    primitives: tuple
    background: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        object.__setattr__(self, "background", np.asarray(self.background, dtype=np.float64))
        if not self.primitives:
            raise DomainError("scene needs at least one primitive")
        if not self.bounds.lo[2] <= 0.0 <= self.bounds.hi[2]:
            raise DomainError(f"scene box z range [{self.bounds.lo[2]}, {self.bounds.hi[2]}] "
                              "does not contain the camera height z = 0")
        _check_albedo(self.background)
        for prim in self.primitives:
            if isinstance(prim, Sphere):
                lo, hi = prim.center - prim.radius, prim.center + prim.radius
            else:
                lo, hi = prim.center - prim.half, prim.center + prim.half
            if np.any(lo < self.bounds.lo - 1e-9) or np.any(hi > self.bounds.hi + 1e-9):
                raise DomainError(f"primitive extends outside scene bounds: {prim}")

    def position_collides(self, p: np.ndarray) -> bool:
        return any(prim.contains(np.asarray(p, dtype=np.float64)) for prim in self.primitives)


@dataclass(frozen=True)
class CameraIntrinsics:
    width: int = 32
    height: int = 32
    hfov: float = np.deg2rad(90.0)

    def __post_init__(self):
        if self.width < 8 or self.height < 8:
            raise DimensionError(f"image dims must be >= 8, got {self.width}x{self.height}")
        if not 0.0 < self.hfov < np.pi:
            raise DomainError(f"horizontal fov must be in (0, pi), got {self.hfov}")


# ---------------------------------------------------------------------------
# scene construction
# ---------------------------------------------------------------------------

# distinct, saturated albedos; asymmetric layouts need distinguishable colors
_PALETTE = np.array([
    [0.85, 0.15, 0.10], [0.10, 0.60, 0.90], [0.95, 0.80, 0.10],
    [0.20, 0.75, 0.25], [0.80, 0.25, 0.85], [0.95, 0.50, 0.10],
    [0.15, 0.90, 0.75], [0.55, 0.35, 0.15],
])


def generate_scene(seed: int, bounds: Aabb | None = None, n_primitives: int = 5) -> Scene:
    """Random asymmetric scene: distinct colors, primitives near the walls
    so the center stays navigable."""
    if bounds is None:
        bounds = DEFAULT_BOUNDS
    if n_primitives < 1 or n_primitives > len(_PALETTE):
        raise DomainError(f"n_primitives must be in [1, {len(_PALETTE)}], got {n_primitives}")
    rng = np.random.default_rng(seed)
    prims = []
    half_xy = bounds.half[:2]
    for i in range(n_primitives):
        angle = 2.0 * np.pi * (i + rng.uniform(0.1, 0.9)) / n_primitives
        ring = rng.uniform(0.65, 0.85)
        cx = bounds.center[0] + ring * half_xy[0] * np.cos(angle)
        cy = bounds.center[1] + ring * half_xy[1] * np.sin(angle)
        color = _PALETTE[i]
        max_r = 0.45 * float(min(bounds.half))
        margin = np.minimum(np.abs([cx, cy] - bounds.lo[:2]), np.abs(bounds.hi[:2] - [cx, cy]))
        r = min(max_r, float(min(margin)) - 1e-3, float(bounds.half[2]) - 1e-3)
        r = max(r, 0.05)
        cz = bounds.center[2] + rng.uniform(-0.2, 0.2) * (bounds.half[2] - r)
        if rng.uniform() < 0.5:
            prims.append(Sphere(np.array([cx, cy, cz]), r * rng.uniform(0.6, 1.0), color))
        else:
            h = r * rng.uniform(0.5, 0.9)
            prims.append(Box(np.array([cx, cy, cz]), np.array([h, h * rng.uniform(0.7, 1.4), h]), color))
    return Scene(bounds, tuple(prims), np.array([0.04, 0.05, 0.08]), seed=seed)


def generate_symmetric_scene(seed: int, bounds: Aabb | None = None) -> Scene:
    """Scene invariant under a 180-degree rotation about the bounds center:
    every primitive has a mirrored twin with the same color, so opposite
    headings produce identical views and the pose posterior goes bimodal."""
    if bounds is None:
        bounds = DEFAULT_BOUNDS
    rng = np.random.default_rng(seed)
    c = bounds.center
    prims: list = []
    for i in range(2):
        angle = np.pi * (0.25 + 0.5 * i) + rng.uniform(-0.1, 0.1)
        ring = rng.uniform(0.6, 0.8)
        offset = np.array([ring * bounds.half[0] * np.cos(angle),
                           ring * bounds.half[1] * np.sin(angle), 0.0])
        r = 0.3 * float(min(bounds.half))
        color = _PALETTE[i]
        for sgn in (1.0, -1.0):
            center = c + sgn * offset
            if i == 0:
                prims.append(Sphere(center, r, color))
            else:
                prims.append(Box(center, np.array([r, 0.8 * r, r]), color))
    return Scene(bounds, tuple(prims), np.array([0.04, 0.05, 0.08]), seed=seed)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _ray_dirs(intr: CameraIntrinsics, rot: np.ndarray) -> np.ndarray:
    """(H, W, 3) unnormalized ray directions in world coordinates."""
    w, h = intr.width, intr.height
    a = (2.0 * (np.arange(w) + 0.5) / w - 1.0) * np.tan(intr.hfov / 2.0)
    b = (2.0 * (np.arange(h) + 0.5) / h - 1.0) * np.tan(intr.hfov / 2.0) * (h / w)
    fwd, left, up = rot[:, 0], rot[:, 1], rot[:, 2]
    dirs = (fwd[None, None, :]
            - a[None, :, None] * left[None, :]
            - b[:, None, None] * up[None, :])
    return dirs


def _intersect_sphere(origin, dirs_flat, sph: Sphere):
    oc = origin - sph.center
    b = dirs_flat @ oc
    c = oc @ oc - sph.radius ** 2
    disc = b * b - c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t0 = -b - sq
    t1 = -b + sq
    t = np.where(t0 > 1e-9, t0, t1)
    t = np.where(hit & (t > 1e-9), t, np.inf)
    return t


def _intersect_box(origin, dirs_flat, box: Box):
    lo = box.center - box.half
    hi = box.center + box.half
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs_flat
        t1 = (lo[None, :] - origin[None, :]) * inv
        t2 = (hi[None, :] - origin[None, :]) * inv
    # rays parallel to a slab: hit iff origin within that slab
    para = dirs_flat == 0.0
    inside = (origin >= lo) & (origin <= hi)
    t1 = np.where(para, np.where(inside[None, :], -np.inf, np.inf), t1)
    t2 = np.where(para, np.where(inside[None, :], np.inf, -np.inf), t2)
    tnear = np.max(np.minimum(t1, t2), axis=1)
    tfar = np.min(np.maximum(t1, t2), axis=1)
    hit = (tnear <= tfar) & (tfar > 1e-9)
    t = np.where(tnear > 1e-9, tnear, tfar)
    return np.where(hit & (t > 1e-9), t, np.inf)


def _normals(rel: np.ndarray, prim) -> np.ndarray:
    """Surface normals from hit points relative to the primitive center."""
    if isinstance(prim, Sphere):
        return rel / np.linalg.norm(rel, axis=1, keepdims=True)
    scaled = rel / prim.half
    axis = np.argmax(np.abs(scaled), axis=1)
    n = np.zeros_like(rel)
    n[np.arange(len(rel)), axis] = np.sign(scaled[np.arange(len(rel)), axis])
    return n


def render(scene: Scene, intr: CameraIntrinsics, pose: Pose) -> np.ndarray:
    """Raycast one image at the given pose; (H, W, 3) floats in [0, 1]."""
    origin = pose.position
    if not scene.bounds.contains(origin, tol=1e-9):
        raise DomainError(f"camera position {origin} outside scene bounds")
    dirs = _ray_dirs(intr, pose.rotation())
    flat = dirs.reshape(-1, 3)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    unit = flat / norms

    n_rays = unit.shape[0]
    best_t = np.full(n_rays, np.inf)
    best_prim = np.full(n_rays, -1, dtype=np.intp)
    for i, prim in enumerate(scene.primitives):
        t = (_intersect_sphere(origin, unit, prim) if isinstance(prim, Sphere)
             else _intersect_box(origin, unit, prim))
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_prim[closer] = i

    img = np.tile(scene.background, (n_rays, 1))
    for i, prim in enumerate(scene.primitives):
        mask = best_prim == i
        if not np.any(mask):
            continue
        # hit point relative to the primitive center; keeping the camera
        # offset separate makes rendering exactly rigid-translation invariant
        rel = (origin - prim.center)[None, :] + best_t[mask, None] * unit[mask]
        n = _normals(rel, prim)
        lambert = np.maximum(0.0, n @ LIGHT_DIR)
        shade = (AMBIENT + (1.0 - AMBIENT) * lambert) / (1.0 + DEPTH_FALLOFF * best_t[mask])
        img[mask] = prim.albedo[None, :] * shade[:, None]

    return img.reshape(intr.height, intr.width, 3)


def render_batch(scene: Scene, intr: CameraIntrinsics, poses: list[Pose]) -> np.ndarray:
    return np.stack([render(scene, intr, p) for p in poses])


# ---------------------------------------------------------------------------
# point cloud & trajectories
# ---------------------------------------------------------------------------

def export_point_cloud(scene: Scene, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 3) points sampled area-uniformly across primitive surfaces."""
    if n < 1:
        raise DomainError(f"point count must be >= 1, got {n}")
    areas = np.array([p.surface_area() for p in scene.primitives])
    counts = rng.multinomial(n, areas / areas.sum())
    chunks = []
    for prim, k in zip(scene.primitives, counts):
        if k == 0:
            continue
        if isinstance(prim, Sphere):
            v = rng.normal(size=(k, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            chunks.append(prim.center + prim.radius * v)
        else:
            chunks.append(_sample_box_surface(prim, k, rng))
    return np.concatenate(chunks, axis=0)


def _sample_box_surface(box: Box, k: int, rng: np.random.Generator) -> np.ndarray:
    hx, hy, hz = box.half
    face_areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy]) * 4.0
    face_idx = rng.choice(6, size=k, p=face_areas / face_areas.sum())
    u = rng.uniform(-1.0, 1.0, size=k)
    v = rng.uniform(-1.0, 1.0, size=k)
    pts = np.empty((k, 3))
    for f in range(6):
        m = face_idx == f
        axis, sign = divmod(f, 2)
        sign = 1.0 if sign == 0 else -1.0
        others = [i for i in range(3) if i != axis]
        pts[m, axis] = sign * box.half[axis]
        pts[m, others[0]] = u[m] * box.half[others[0]]
        pts[m, others[1]] = v[m] * box.half[others[1]]
    return pts + box.center


def generate_trajectory(scene: Scene, style: str, k: int, dim: int = 3,
                        loop_factor: float | None = None) -> list[Pose]:
    """k collision-free planar poses inside the scene; ``dim`` must be 3.

    loop: a circle around the bounds center with tangent headings; radius is
    loop_factor * half-extent when given, else the first collision-free
    radius from a fixed preference list. Distinct factors give disjoint
    train/test rings.
    grid: a lattice over the interior with headings facing the center.
    """
    if dim != 3:
        raise DimensionError(f"trajectory pose dim must be 3 (planar poses only), got {dim}")
    if k < 2:
        raise DomainError(f"trajectory needs k >= 2, got {k}")
    if style == "loop":
        return _loop_trajectory(scene, k, loop_factor)
    if style == "grid":
        return _grid_trajectory(scene, k)
    raise ConfigError(f"unknown trajectory style '{style}'")


def _make_pose(x: float, y: float, heading: float) -> Pose:
    return Pose(np.array([x, y, 0.0]), np.array([heading, 0.0, 0.0]))


def _loop_trajectory(scene: Scene, k: int, loop_factor: float | None = None) -> list[Pose]:
    c = scene.bounds.center
    if loop_factor is not None and not 0.0 < loop_factor < 1.0:
        raise DomainError(f"loop_factor must be in (0, 1), got {loop_factor}")
    factors = (loop_factor,) if loop_factor is not None \
        else (0.55, 0.45, 0.65, 0.35, 0.75, 0.25)
    for factor in factors:
        rx = factor * scene.bounds.half[0]
        ry = factor * scene.bounds.half[1]
        poses = []
        ok = True
        for i in range(k):
            phi = 2.0 * np.pi * i / k
            x = c[0] + rx * np.cos(phi)
            y = c[1] + ry * np.sin(phi)
            if scene.position_collides(np.array([x, y, 0.0])):
                ok = False
                break
            poses.append(_make_pose(x, y, phi + np.pi / 2.0))  # counterclockwise tangent
        if ok:
            return poses
    raise GenerationError(f"could not place a {k}-pose collision-free loop")


def _grid_trajectory(scene: Scene, k: int) -> list[Pose]:
    c = scene.bounds.center
    base = int(np.ceil(np.sqrt(k)))
    placed = 0
    for side in range(base, base + 4):  # densify if primitives eat lattice points
        xs = np.linspace(scene.bounds.lo[0], scene.bounds.hi[0], side + 2)[1:-1]
        ys = np.linspace(scene.bounds.lo[1], scene.bounds.hi[1], side + 2)[1:-1]
        poses = []
        for y in ys:
            for x in xs:
                if scene.position_collides(np.array([x, y, 0.0])):
                    continue
                poses.append(_make_pose(x, y, float(np.arctan2(c[1] - y, c[0] - x))))
                if len(poses) == k:
                    return poses
        placed = len(poses)
    raise GenerationError(f"grid produced only {placed} of {k} collision-free poses")


# ---------------------------------------------------------------------------
# scene file i/o
# ---------------------------------------------------------------------------

_SCENE_KEYS = {"type", "version", "seed", "bounds_lo", "bounds_hi", "background",
               "primitive_count"}


def save_scene(scene: Scene, path) -> None:
    pairs = {
        "type": "scene",
        "version": "1",
        "seed": str(scene.seed),
        "bounds_lo": kv.fmt_floats(scene.bounds.lo),
        "bounds_hi": kv.fmt_floats(scene.bounds.hi),
        "background": kv.fmt_floats(scene.background),
        "primitive_count": str(len(scene.primitives)),
    }
    for i, prim in enumerate(scene.primitives):
        if isinstance(prim, Sphere):
            pairs[f"prim{i}"] = ("sphere " + kv.fmt_floats(prim.center) + " "
                                 + repr(float(prim.radius)) + " " + kv.fmt_floats(prim.albedo))
        else:
            pairs[f"prim{i}"] = ("box " + kv.fmt_floats(prim.center) + " "
                                 + kv.fmt_floats(prim.half) + " " + kv.fmt_floats(prim.albedo))
    kv.write_kv(path, pairs)


def load_scene(path) -> Scene:
    pairs = kv.read_kv(path)
    count_s = pairs.get("primitive_count")
    if count_s is None:
        raise ConfigError(f"{path}: missing primitive_count")
    try:
        count = int(count_s)
    except ValueError:
        raise ConfigError(f"{path}: primitive_count must be an integer") from None
    kv.ensure_keys(pairs, _SCENE_KEYS | {f"prim{i}" for i in range(count)}, source=str(path))
    if kv.as_str(pairs, "type") != "scene":
        raise ConfigError(f"{path}: not a scene file")
    if kv.as_int(pairs, "version") != 1:
        raise ConfigError(f"{path}: unsupported scene version {pairs['version']}")
    bounds = Aabb(kv.as_floats(pairs, "bounds_lo", 3), kv.as_floats(pairs, "bounds_hi", 3))
    prims = []
    for i in range(count):
        toks = pairs[f"prim{i}"].split()
        kind = toks[0]
        try:
            vals = [float(t) for t in toks[1:]]
        except ValueError:
            raise ConfigError(f"{path}: prim{i} has non-numeric fields") from None
        if kind == "sphere" and len(vals) == 7:
            prims.append(Sphere(np.array(vals[0:3]), vals[3], np.array(vals[4:7])))
        elif kind == "box" and len(vals) == 9:
            prims.append(Box(np.array(vals[0:3]), np.array(vals[3:6]), np.array(vals[6:9])))
        else:
            raise ConfigError(f"{path}: prim{i} malformed: {pairs[f'prim{i}']!r}")
    return Scene(bounds, tuple(prims), kv.as_floats(pairs, "background", 3),
                 seed=kv.as_int(pairs, "seed"))
