"""Pose representation, rotation utilities, positional encoding.

Angle convention used everywhere: a pose carries Euler angles in the order
(theta_z, theta_x, theta_y) and the rotation matrix is the intrinsic Z-X-Y
composition R = Rz(theta_z) @ Rx(theta_x) @ Ry(theta_y). Any fixed,
round-trip-tested convention works for learning; this one is fixed here and
nowhere else. Angles are always wrapped to [-pi, pi).

Planar (SE(2)) poses are the 6-DoF type with z = theta_x = theta_y = 0 and
a 3-vector serialization [x, y, theta_z].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi


def wrap_angle(a):
    """Wrap angle(s) to [-pi, pi)."""
    return np.mod(np.asarray(a, dtype=np.float64) + np.pi, TWO_PI) - np.pi


def position_width(dim: int) -> int:
    """Leading position entries of a pose vector of dimension ``dim``:
    (x, y) for planar poses, (x, y, z) for full ones."""
    return 2 if dim == 3 else 3


@dataclass(frozen=True)
class Pose:
    """Camera pose: position in meters, Euler angles (theta_z, theta_x, theta_y).

    dim is 6 for full SE(3) or 3 for planar SE(2); planar poses must have
    z = theta_x = theta_y = 0 (tolerance 1e-9 at construction).
    """

    position: np.ndarray
    euler: np.ndarray
    dim: int = 6

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).reshape(-1)
        ang = wrap_angle(np.asarray(self.euler, dtype=np.float64).reshape(-1))
        if pos.shape != (3,) or ang.shape != (3,):
            raise DimensionError(f"pose needs 3 positions and 3 angles, got {pos.shape}, {ang.shape}")
        if self.dim not in (3, 6):
            raise DimensionError(f"pose dim must be 3 or 6, got {self.dim}")
        if self.dim == 3:
            if abs(pos[2]) > 1e-9 or abs(ang[1]) > 1e-9 or abs(ang[2]) > 1e-9:
                raise DomainError("planar pose requires z = theta_x = theta_y = 0")
            pos = np.array([pos[0], pos[1], 0.0])
            ang = np.array([ang[0], 0.0, 0.0])
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "euler", ang)

    def as_vector(self) -> np.ndarray:
        """[x, y, theta] for planar poses, [x, y, z, tz, tx, ty] for full."""
        if self.dim == 3:
            return np.array([self.position[0], self.position[1], self.euler[0]])
        return np.concatenate([self.position, self.euler])

    @classmethod
    def from_vector(cls, v, dim: int) -> "Pose":
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if v.shape != (dim,):
            raise DimensionError(f"pose vector length {v.shape} != dim {dim}")
        if dim == 3:
            return cls(np.array([v[0], v[1], 0.0]), np.array([v[2], 0.0, 0.0]), dim=3)
        return cls(v[:3], v[3:], dim=6)

    def rotation(self) -> np.ndarray:
        return euler_to_matrix(self.euler[0], self.euler[1], self.euler[2])


def euler_to_matrix(tz: float, tx: float, ty: float) -> np.ndarray:
    """Intrinsic Z-X-Y rotation: Rz(tz) @ Rx(tx) @ Ry(ty)."""
    ca, sa = np.cos(tz), np.sin(tz)
    cb, sb = np.cos(tx), np.sin(tx)
    cc, sc = np.cos(ty), np.sin(ty)
    return np.array([
        [ca * cc - sa * sb * sc, -sa * cb, ca * sc + sa * sb * cc],
        [sa * cc + ca * sb * sc, ca * cb, sa * sc - ca * sb * cc],
        [-cb * sc, sb, cb * cc],
    ])


def matrix_to_euler(r: np.ndarray) -> tuple[float, float, float]:
    """Inverse of euler_to_matrix; returns (theta_z, theta_x, theta_y).

    At gimbal lock (|cos theta_x| < 1e-7) the decomposition degenerates;
    the canonical branch theta_y = 0 is chosen and a warning is logged.
    Recomposition still reproduces the input matrix.
    """
    r = np.asarray(r, dtype=np.float64)
    _check_rotation(r)
    sx = np.clip(r[2, 1], -1.0, 1.0)
    tx = np.arcsin(sx)
    if np.sqrt(1.0 - sx * sx) < 1e-7:
        log.warning("gimbal lock in matrix_to_euler; using theta_y = 0 branch")
        return float(np.arctan2(r[1, 0], r[0, 0])), float(tx), 0.0
    ty = np.arctan2(-r[2, 0], r[2, 2])
    tz = np.arctan2(-r[0, 1], r[1, 1])
    return float(tz), float(tx), float(ty)


def _check_rotation(r: np.ndarray, tol: float = 1e-6) -> None:
    if r.shape != (3, 3):
        raise DimensionError(f"rotation matrix must be 3x3, got {r.shape}")
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol or abs(np.linalg.det(r) - 1.0) > tol:
        raise DomainError("matrix is not a rotation (orthogonality/det check failed)")


def geodesic_distance(m_pred: np.ndarray, m_gt: np.ndarray) -> float:
    """Rotation-angle distance acos((tr(m_pred @ m_gt^T) - 1) / 2), in [0, pi]."""
    m_pred = np.asarray(m_pred, dtype=np.float64)
    m_gt = np.asarray(m_gt, dtype=np.float64)
    _check_rotation(m_pred)
    _check_rotation(m_gt)
    if np.array_equal(m_pred, m_gt):
        # identical inputs: the true distance is 0, but the trace of M@M.T
        # computed in floats can land a hair below 3 and arccos would
        # report ~1e-8 instead
        return 0.0
    arg = (np.trace(m_pred @ m_gt.T) - 1.0) / 2.0
    return float(np.arccos(np.clip(arg, -1.0, 1.0)))


def random_rotation(max_angle: float, rng: np.random.Generator) -> np.ndarray:
    """Rotation drawn uniformly (Haar) from the geodesic ball of radius max_angle.

    Axis is uniform on the sphere; the angle is rejection-sampled from the
    Haar marginal density proportional to (1 - cos theta) truncated to
    [0, max_angle].
    """
    if not 0.0 <= max_angle <= np.pi:
        raise DomainError(f"max_angle must be in [0, pi], got {max_angle}")
    if max_angle == 0.0:
        return np.eye(3)
    envelope = 1.0 - np.cos(max_angle)
    while True:
        theta = rng.uniform(0.0, max_angle)
        if rng.uniform(0.0, envelope) <= 1.0 - np.cos(theta):
            break
    while True:
        axis = rng.normal(size=3)
        n = np.linalg.norm(axis)
        if n > 1e-12:
            axis /= n
            break
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box, the scene's navigable volume."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.hi, dtype=np.float64).reshape(-1)
        if lo.shape != (3,) or hi.shape != (3,):
            raise DimensionError("aabb bounds must be 3-vectors")
        if np.any(hi <= lo):
            raise DomainError(f"aabb has empty extent: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def half(self) -> np.ndarray:
        return (self.hi - self.lo) / 2.0

    def contains(self, point: np.ndarray, tol: float = 0.0) -> bool:
        p = np.asarray(point, dtype=np.float64)
        return bool(np.all(p >= self.lo - tol) and np.all(p <= self.hi + tol))


def positional_encode_batch(vs: np.ndarray, L: int) -> np.ndarray:
    """Multi-frequency encoding of each row of an (n, d) array of
    normalized pose vectors.

    Per scalar p the encoding is (sin(2^0 pi p), cos(2^0 pi p), ...,
    sin(2^{L-1} pi p), cos(2^{L-1} pi p)); the per-scalar blocks are
    concatenated and the raw vector is appended, giving rows of length
    2dL + d.
    """
    vs = np.asarray(vs, dtype=np.float64)
    if vs.ndim != 2:
        raise DimensionError(f"expected (n, d) array, got shape {vs.shape}")
    if L < 1:
        raise DomainError(f"encoding depth must be >= 1, got {L}")
    if np.any(np.abs(vs) > 1.0 + 1e-9):
        raise DomainError("positional encoding input not normalized to [-1, 1]")
    n, d = vs.shape
    freqs = (2.0 ** np.arange(L)) * np.pi         # (L,)
    phase = vs[:, :, None] * freqs[None, None, :]  # (n, d, L)
    enc = np.empty((n, d, 2 * L))
    enc[:, :, 0::2] = np.sin(phase)
    enc[:, :, 1::2] = np.cos(phase)
    return np.concatenate([enc.reshape(n, 2 * d * L), vs], axis=1)
