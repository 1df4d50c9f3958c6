"""Pinhole cameras, viewing rays, and two-view triangulation.

Conventions: right-handed world frame, all distances in meters. A camera
pose is the world-from-camera transform, stored as a unit quaternion in
(w, x, y, z) order plus the camera center. The camera frame follows the
usual computer-vision convention: x right, y down, z forward along the
optical axis. Pixel coordinates are real-valued (no integer snapping),
origin at the top-left image corner, u right, v down.

Projection, viewing rays and the two-ray midpoint run on Python floats,
quaternion rotation works per component, and cross products are written
out component by component in the order np.cross evaluates them
(`a1*b2 - a2*b1`, ...). A camera keeps its validated centre and rotation
as float tuples beside the read-only arrays, so a projection reads them
without converting. No floating-point operation or its order differs from
the plain numpy formulas, so results are bit-identical to them. A dot
product stays one numpy dot, `a.dot(b)` (BLAS, whose fused multiply-adds
a Python `x*x + y*y + z*z` would not reproduce), and a norm is
`math.sqrt` of one: `np.linalg.norm` of a vector computes exactly
`math.sqrt(v.dot(v))`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_DEPTH = 1e-9
PARALLEL_TOL = 1e-8   # sine of the angle between rays
MIN_BASELINE = 1e-6
UNIT_TOL = 1e-9


class NonPositiveDepth(ValueError):
    """Point lies on or behind the camera's principal plane."""


class DegenerateRays(ValueError):
    """Viewing rays are parallel within tolerance; no unique midpoint."""


# ---------------------------------------------------------------------------
# quaternions (w, x, y, z)

def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    # np.linalg.norm(q, axis=-1, keepdims=True) without its Python overhead
    n = np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))
    if (n < 1e-12).any():
        raise ValueError("cannot normalize zero quaternion")
    return q / n


def _rotate(w, x, y, z, a, b, c):
    """v + w t + u x t with t = 2 (u x v), u = (x, y, z), v = (a, b, c).

    Works on floats or on equally shaped arrays, one per component."""
    t0 = 2.0 * (y * c - z * b)
    t1 = 2.0 * (z * a - x * c)
    t2 = 2.0 * (x * b - y * a)
    return (a + w * t0 + (y * t2 - z * t1),
            b + w * t1 + (z * t0 - x * t2),
            c + w * t2 + (x * t1 - y * t0))


def _floats(v):
    return v.tolist() if isinstance(v, np.ndarray) else [float(c) for c in v]


def quat_from_matrix(R):
    """Shepperd's method; returns the quaternion with non-negative w."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return quat_normalize(q)


def quat_slerp(q0, q1, t):
    """Spherical interpolation; broadcasts over leading axes of q0/q1/t."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    dot = np.add.reduce(q0 * q1, axis=-1, keepdims=True)
    q1 = np.where(dot < 0, -q1, q1)
    dot = np.abs(np.minimum(np.maximum(dot, -1.0), 1.0))   # np.clip, without its overhead
    theta = np.arccos(dot)
    sin_theta = np.sin(theta)
    near = sin_theta < 1e-9
    sin_theta = np.where(near, 1.0, sin_theta)   # a divisor where the lerp weights win
    s = 1.0 - t
    w0 = np.where(near, s, np.sin(s * theta) / sin_theta)
    w1 = np.where(near, t, np.sin(t * theta) / sin_theta)
    return quat_normalize(w0 * q0 + w1 * q1)


# ---------------------------------------------------------------------------
# cameras

@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def _freeze_vec(obj, name, value, dim):
    v = np.asarray(value, dtype=float).reshape(dim).copy()   # owns its data: a Ray may keep it
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    v.flags.writeable = False
    object.__setattr__(obj, name, v)
    return v


@dataclass(frozen=True, eq=False)
class Camera:
    """World-from-camera pose plus intrinsics."""

    intrinsics: CameraIntrinsics
    position: np.ndarray   # camera center, world frame
    rotation: np.ndarray   # unit quaternion (w, x, y, z), world-from-camera

    def __post_init__(self):
        c = _freeze_vec(self, "position", self.position, 3)
        q = _freeze_vec(self, "rotation", self.rotation, 4)
        if abs(np.linalg.norm(q) - 1.0) > UNIT_TOL:
            raise ValueError("camera rotation must be a unit quaternion")
        # the same values as floats, for `project` and `_pixel_direction`
        object.__setattr__(self, "_center", tuple(c.tolist()))
        object.__setattr__(self, "_quat", tuple(q.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Camera):
            return NotImplemented
        return (self.intrinsics == other.intrinsics
                and np.array_equal(self.position, other.position)
                and np.array_equal(self.rotation, other.rotation))


@dataclass(frozen=True)
class StereoRig:
    left: Camera
    right: Camera

    def __post_init__(self):
        baseline = np.linalg.norm(self.left.position - self.right.position)
        if baseline <= MIN_BASELINE:
            raise ValueError("stereo baseline is degenerate")

    def camera(self, view: str) -> Camera:
        if view == "left":
            return self.left
        if view == "right":
            return self.right
        raise KeyError(f"unknown view {view!r}")


def _is_frozen_vec3(v) -> bool:
    """Whether `v` is already what `_freeze_vec(..., 3)` makes: a read-only,
    finite float (3,) array owning its data, such as a camera's position."""
    return (type(v) is np.ndarray and v.base is None and v.dtype == float
            and v.shape == (3,) and not v.flags.writeable
            and all(map(math.isfinite, v.tolist())))


@dataclass(frozen=True, eq=False)
class Ray:
    """A half-line: a finite origin and a unit direction, both read-only.

    An origin that is already a read-only, finite float (3,) array owning
    its data (a camera centre) is kept as it is; any other is validated and
    frozen into a copy. The direction is always divided by its norm into a
    new array."""

    origin: np.ndarray
    direction: np.ndarray   # unit length

    def __post_init__(self):
        if not _is_frozen_vec3(self.origin):
            _freeze_vec(self, "origin", self.origin, 3)
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,):
            d = d.reshape(3)
        n = math.sqrt(d.dot(d))
        if n < 1e-12:
            raise ValueError("ray direction must be nonzero")
        d = d / n
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)


def look_at_camera(position, target, intrinsics, up=(0.0, 0.0, 1.0)) -> Camera:
    """Camera at `position` whose optical axis points at `target`."""
    position = np.asarray(position, dtype=float)
    forward = np.asarray(target, dtype=float) - position
    n = np.linalg.norm(forward)
    if n < 1e-9:
        raise ValueError("camera cannot look at its own center")
    z = forward / n
    x = np.cross(z, np.asarray(up, dtype=float))
    nx = np.linalg.norm(x)
    if nx < 1e-9:
        raise ValueError("view direction is parallel to the up vector")
    x = x / nx
    y = np.cross(z, x)
    R = np.column_stack([x, y, z])
    return Camera(intrinsics=intrinsics, position=position, rotation=quat_from_matrix(R))


# ---------------------------------------------------------------------------
# projection and rays

def project(camera: Camera, point) -> np.ndarray:
    """Pinhole projection of a world point; returns pixel (u, v).

    The result may fall outside the image bounds; callers decide whether
    that matters. Raises NonPositiveDepth for points on or behind the
    principal plane.
    """
    px, py, pz = _floats(point)
    cx, cy, cz = camera._center
    w, x, y, z = camera._quat
    # rotate by the conjugate quaternion: camera-from-world
    x, y, z = _rotate(w, -x, -y, -z, px - cx, py - cy, pz - cz)
    if z <= MIN_DEPTH:
        raise NonPositiveDepth(f"depth {z:.3e} m is not positive")
    k = camera.intrinsics
    return np.array([k.cx + k.fx * x / z, k.cy + k.fy * y / z])


def _pixel_direction(camera: Camera, pixel) -> np.ndarray:
    """World-frame direction, not normalised, of the viewing ray through a
    pixel. Its camera-frame z is 1, so its norm is never near zero."""
    u, v = _floats(pixel)
    k = camera.intrinsics
    return np.array(_rotate(*camera._quat, (u - k.cx) / k.fx,
                            (v - k.cy) / k.fy, 1.0))


def ray_through_pixel(camera: Camera, pixel) -> Ray:
    """World-frame viewing ray through a pixel, origin at the camera center.

    Equals `Ray(origin=camera.position, direction=_pixel_direction(...))`
    bit for bit, without its checks: the centre is already validated and
    frozen, and the direction, whose norm is at least 1, is divided by its
    norm as `Ray` divides it."""
    d = _pixel_direction(camera, pixel)
    d = d / math.sqrt(d.dot(d))
    d.flags.writeable = False
    ray = object.__new__(Ray)
    object.__setattr__(ray, "origin", camera.position)
    object.__setattr__(ray, "direction", d)
    return ray


def _midpoint(o1, d1, o2, d2):
    """`intersect_rays` of the rays from o1 along unit d1 and from o2 along unit d2."""
    x1, y1, z1 = d1.tolist()
    x2, y2, z2 = d2.tolist()
    cross = np.array([y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2])
    if math.sqrt(cross.dot(cross)) < PARALLEL_TOL:
        raise DegenerateRays("rays are parallel within tolerance")
    w0 = o1 - o2
    b12 = float(d1.dot(d2))
    d = float(d1.dot(w0))
    e = float(d2.dot(w0))
    denom = 1.0 - b12 * b12
    t1 = (b12 * e - d) / denom
    t2 = (e - b12 * d) / denom
    a1, b1, c1 = o1.tolist()
    a2, b2, c2 = o2.tolist()
    # p1 = o1 + t1 * d1 and p2 = o2 + t2 * d2, component by component
    u1, v1, w1 = a1 + t1 * x1, b1 + t1 * y1, c1 + t1 * z1
    u2, v2, w2 = a2 + t2 * x2, b2 + t2 * y2, c2 + t2 * z2
    gap = np.array([u1 - u2, v1 - v2, w1 - w2])
    return (np.array([0.5 * (u1 + u2), 0.5 * (v1 + v2), 0.5 * (w1 + w2)]),
            math.sqrt(gap.dot(gap)))


def intersect_rays(a: Ray, b: Ray):
    """Midpoint of the common-perpendicular segment between two rays.

    Returns (point, residual) where residual is the segment length (0 for
    exactly intersecting rays). Raises DegenerateRays when the directions
    are parallel within PARALLEL_TOL.
    """
    return _midpoint(a.origin, a.direction, b.origin, b.direction)


def triangulate(rig: StereoRig, left_pixel, right_pixel):
    """Triangulate a stereo pixel pair; returns (point, residual in meters).

    Equals `intersect_rays` of the two `ray_through_pixel` rays bit for bit,
    without building them: each direction is divided by its norm as `Ray`
    divides it, and the camera centres are already validated."""
    d1 = _pixel_direction(rig.left, left_pixel)
    d2 = _pixel_direction(rig.right, right_pixel)
    return _midpoint(rig.left.position, d1 / math.sqrt(d1.dot(d1)),
                     rig.right.position, d2 / math.sqrt(d2.dot(d2)))


def point_ray_distance(ray: Ray, point) -> float:
    """Distance from a point to the ray's line, clamped at the origin.

    When the foot of the perpendicular falls behind the ray origin the
    distance to the origin itself is returned.
    """
    v = np.asarray(point, dtype=float) - ray.origin
    t = float(v.dot(ray.direction))
    if t <= 0.0:
        return math.sqrt(v.dot(v))
    w = v - t * ray.direction
    return math.sqrt(w.dot(w))
