"""Planar pose representation, the rotation it renders with, positional
encoding.

A pose is planar: a position (x, y) on the floor and a heading theta about
the vertical axis, serialized as the 3-vector [x, y, theta]. It is stored
as a 3-D position with z = 0 and Euler angles (theta, 0, 0). The renderer
and the frustum test rotate with R = Rz(theta), the heading's rotation
about the vertical axis. Angles are always wrapped to [-pi, pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

TWO_PI = 2.0 * np.pi


def wrap_angle(a):
    """Wrap angle(s) to [-pi, pi). Idempotent: a wrapped angle wraps to
    itself."""
    r = np.mod(np.asarray(a, dtype=np.float64) + np.pi, TWO_PI)
    # np.mod rounds a tiny negative a + pi up to 2 pi, which would leave +pi
    r *= r < TWO_PI
    r -= np.pi
    return r


def is_int(v) -> bool:
    """Whether v is an integer, numpy's included; a bool is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def squared_norms(v: np.ndarray) -> np.ndarray:
    """Squared lengths of the 3-vectors along the last axis, summed as
    np.linalg.norm sums them, (x*x + y*y) + z*z, so their square roots are
    bitwise its norms; elementwise, without a reduction over rows of 3."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return (x * x + y * y) + z * z


@dataclass(frozen=True)
class Pose:
    """Planar camera pose: position in meters with z = 0, Euler angles
    (theta, 0, 0) in radians; every value must be finite, and z and the
    two tilt angles must be 0 (tolerance 1e-9 at construction, unwrapped).
    The heading is wrapped.

    ``dim`` is the serialized length, 3; any other value is refused.
    """

    position: np.ndarray
    euler: np.ndarray
    dim: int = 3

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).reshape(-1)
        ang = np.asarray(self.euler, dtype=np.float64).reshape(-1)
        if pos.shape != (3,) or ang.shape != (3,):
            raise DimensionError(f"pose needs 3 positions and 3 angles, got {pos.shape}, {ang.shape}")
        if self.dim != 3:
            raise DimensionError(f"pose dim must be 3 (planar poses only), got {self.dim}")
        if not (np.isfinite(pos).all() and np.isfinite(ang).all()):
            raise DomainError(f"pose position {pos} and angles {ang} must be finite")
        # only the heading is wrapped: a tilt of 2 pi is refused, not wrapped to 0
        if abs(pos[2]) > 1e-9 or abs(ang[1]) > 1e-9 or abs(ang[2]) > 1e-9:
            raise DomainError("planar pose requires z = theta_x = theta_y = 0")
        object.__setattr__(self, "position", np.array([pos[0], pos[1], 0.0]))
        object.__setattr__(self, "euler", np.array([wrap_angle(ang[0]), 0.0, 0.0]))

    def as_vector(self) -> np.ndarray:
        """[x, y, theta]."""
        return np.array([self.position[0], self.position[1], self.euler[0]])

    @classmethod
    def from_vector(cls, v, dim: int) -> "Pose":
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if v.shape != (dim,):
            raise DimensionError(f"pose vector length {v.shape} != dim {dim}")
        return cls(np.array([v[0], v[1], 0.0]), np.array([v[2], 0.0, 0.0]), dim=dim)

    def rotation(self) -> np.ndarray:
        """Rz(theta), the heading's rotation about the vertical axis."""
        c, s = np.cos(self.euler[0]), np.sin(self.euler[0])
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box, the scene's navigable volume; both corners must be
    finite and ``hi`` above ``lo`` on every axis."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.hi, dtype=np.float64).reshape(-1)
        if lo.shape != (3,) or hi.shape != (3,):
            raise DimensionError("aabb bounds must be 3-vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DomainError(f"aabb corners must be finite: lo={lo}, hi={hi}")
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
