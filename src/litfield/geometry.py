"""Camera models, pose math, unprojection and equirectangular mapping.

COORDINATE CONVENTIONS (used consistently across the package):

  Camera frame (right-handed):
    - X right, Y up, Z backward; the camera looks down -Z.
  World frame:
    - right-handed, Y up.
  Image frame:
    - u right (column), v down (row), origin at the top-left pixel.
  Equirectangular maps (width = 2 * height):
    - azimuth theta = atan2(x, -z), wrapped to [0, 2*pi); theta = 0 is -Z
      (camera-forward of an identity pose) and lands at the horizontal
      center of the map,
    - polar angle phi = acos(y) in [0, pi], measured from +Y; phi = 0 is
      the top row.
    - pole directions (phi exactly 0 or pi) map to column 0 by convention,
      since azimuth is undefined there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDepthError, PixelBoundsError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


@dataclass(frozen=True)
class Pose:
    """World-from-camera rigid transform.

    rotation: 3x3 orthonormal matrix, translation: camera origin in world
    coordinates (meters).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-6):
            raise ValueError("rotation is not orthonormal")
        if not math.isclose(float(np.linalg.det(r)), 1.0, abs_tol=1e-6):
            raise ValueError("rotation must have determinant +1")
        if not np.isfinite(t).all():
            raise ValueError("translation must be finite")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=np.float64)
        return Pose(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "Pose") -> "Pose":
        """self applied after other (matrix product self @ other)."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to (..., 3) points: points @ rotation.T + translation, bit
        for bit. The translation is added one coordinate at a time, in
        place, which is faster than broadcasting a (3,) row."""
        out = np.asarray(points) @ self.rotation.T
        for axis in range(3):
            out[..., axis] += self.translation[axis]
        return out


@dataclass(frozen=True)
class SphericalDir:
    """Direction on the unit sphere: azimuth theta in [0, 2*pi), polar
    angle phi in [0, pi] from +Y."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta < _TWO_PI):
            raise ValueError("theta out of [0, 2*pi)")
        if not (0.0 <= self.phi <= math.pi):
            raise ValueError("phi out of [0, pi]")

    @staticmethod
    def from_unit(d) -> "SphericalDir":
        x, y, z = float(d[0]), float(d[1]), float(d[2])
        theta = math.atan2(x, -z) % _TWO_PI
        phi = math.acos(min(1.0, max(-1.0, y)))
        return SphericalDir(theta, phi)

    def to_unit(self) -> np.ndarray:
        s = math.sin(self.phi)
        return np.array([s * math.sin(self.theta),
                         math.cos(self.phi),
                         -s * math.cos(self.theta)])


@dataclass
class ColorImage:
    """Row-major RGB image with linear channel values in [0, 1]: float64,
    or uint8 with byte k standing for k/255."""

    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) float64 or uint8

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.dtype != np.uint8:
            pixels = pixels.astype(np.float64, copy=False)
        self.pixels = pixels
        if pixels.shape != (self.height, self.width, 3):
            raise ValueError("pixel array shape does not match dimensions")
        # min and max propagate NaN, so these two reductions also reject
        # every non-finite value; every byte is in range
        if pixels.dtype != np.uint8 and not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
            raise ValueError("pixel values must be finite and lie in [0, 1]")

    def pixels_at(self, index: np.ndarray) -> np.ndarray:
        """The (n, 3) values of pixels, uint8 or float64, at the flat
        row-major indices index."""
        return self.pixels.reshape(-1, 3)[index]

    def colors_at(self, index: np.ndarray) -> np.ndarray:
        """The (n, 3) float64 colors of the pixels at the flat row-major
        indices index."""
        colors = self.pixels_at(index)
        return colors / 255.0 if colors.dtype == np.uint8 else colors


@dataclass
class DepthImage:
    """Per-pixel depth in meters with a 3-level confidence byte
    (0 = low, 1 = medium, 2 = high)."""

    width: int
    height: int
    depth: np.ndarray       # (height, width) float32 or float64, meters
    confidence: np.ndarray  # (height, width) uint8 in {0, 1, 2}

    def __post_init__(self):
        # A float32 depth stays float32: it promotes to float64 exactly
        # wherever it meets float64 arithmetic.
        depth = np.asarray(self.depth)
        self.depth = depth.astype(np.result_type(depth, np.float32), copy=False)
        self.confidence = np.asarray(self.confidence, dtype=np.uint8)
        if self.depth.shape != (self.height, self.width):
            raise ValueError("depth shape does not match dimensions")
        if self.confidence.shape != (self.height, self.width):
            raise ValueError("confidence shape does not match dimensions")
        # min propagates NaN and -inf fails >= 0; only +inf is left to the max
        if not (self.depth.min() >= 0 and np.isfinite(self.depth.max())):
            raise ValueError("depth values must be finite and >= 0")
        if self.confidence.max() > 2:
            raise ValueError("confidence values must be 0, 1 or 2")


@dataclass
class CameraFrame:
    """One posed observation: color, optional depth, intrinsics, pose."""

    color: ColorImage
    intrinsics: Intrinsics
    pose: Pose
    depth: DepthImage | None = None
    view_id: int = 0


class Observation(enum.Enum):
    NEAR_FIELD = "near"
    FAR_FIELD = "far"


def camera_ray(u, v, k: Intrinsics) -> np.ndarray:
    """Unnormalized camera-space ray through pixel (u, v): z component -1.

    Accepts scalars or arrays; output has shape (..., 3).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return np.stack([(u - k.cx) / k.fx,
                     -(v - k.cy) / k.fy,
                     -np.ones_like(u)], axis=-1)


def unproject(u: float, v: float, d: float, k: Intrinsics, pose: Pose) -> np.ndarray:
    """Lift pixel (u, v) at depth d (meters along the -Z camera axis) to a
    world-space point.

    Raises InvalidDepthError for d <= 0 and PixelBoundsError for pixels
    outside the image.
    """
    if d <= 0:
        raise InvalidDepthError(f"depth must be positive, got {d}")
    if not (0 <= u < k.width and 0 <= v < k.height):
        raise PixelBoundsError(f"pixel ({u}, {v}) outside {k.width}x{k.height} image")
    return pose.rotation @ (d * camera_ray(u, v, k)) + pose.translation


def project(point_world: np.ndarray, k: Intrinsics, pose: Pose):
    """Perspective projection of a world point; returns (u, v, depth) where
    depth is the distance along the viewing axis (positive in front)."""
    q = pose.rotation.T @ (np.asarray(point_world, dtype=np.float64) - pose.translation)
    depth = -q[2]
    if depth <= 0:
        return None, None, depth
    u = k.cx + k.fx * q[0] / depth
    v = k.cy - k.fy * q[1] / depth
    return u, v, depth


def classify_observation(pose: Pose, k: Intrinsics, rec_pos: np.ndarray) -> Observation:
    """Near-field iff the reconstruction position projects into the image
    rectangle (edges inclusive) with positive depth along the viewing axis."""
    u, v, depth = project(rec_pos, k, pose)
    if depth <= 0:
        return Observation.FAR_FIELD
    if 0.0 <= u <= k.width and 0.0 <= v <= k.height:
        return Observation.NEAR_FIELD
    return Observation.FAR_FIELD


def dir_to_equirect(direction, width: int, height: int) -> tuple[int, int]:
    """Map a unit direction to integer equirectangular pixel coordinates."""
    d = np.asarray(direction, dtype=np.float64)
    n = float(np.linalg.norm(d))
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"direction must be unit length, |d| = {n}")
    y = min(1.0, max(-1.0, float(d[1])))
    phi = math.acos(y)
    py = min(int(phi / math.pi * height), height - 1)
    if phi == 0.0 or phi == math.pi:
        return 0, py
    theta = math.atan2(float(d[0]), -float(d[2])) % _TWO_PI
    px = (int(theta / _TWO_PI * width) + width // 2) % width
    return px, py


def equirect_pixel_dirs(width: int, height: int) -> np.ndarray:
    """Unit direction through the center of every equirectangular pixel.

    Returns an array of shape (height, width, 3); the inverse of
    dir_to_equirect up to pixel quantization.
    """
    px = np.arange(width, dtype=np.float64) + 0.5
    py = np.arange(height, dtype=np.float64) + 0.5
    theta = px / width * _TWO_PI - math.pi
    phi = py / height * math.pi
    sin_phi = np.sin(phi)[:, None]
    out = np.empty((height, width, 3))
    out[:, :, 0] = sin_phi * np.sin(theta)[None, :]
    out[:, :, 1] = np.cos(phi)[:, None]
    out[:, :, 2] = -sin_phi * np.cos(theta)[None, :]
    return out
