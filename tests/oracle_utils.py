"""Reference implementations used as test oracles.

The independent ones deliberately avoid the code paths they are checking:
ray intersection by zooming grid search, and arc-length placement by
per-axis interpolation against the cumulative arc table. (The coverage
hull area is checked against scipy's ConvexHull, in test_cli.py.)

The per-segment ones are built on the package's own kernels on purpose:
`warp_segment` and `retime_segment` are the segment-by-segment reference
for the one-pass `keywarp.warp.warp_trajectory`, and `quat_rotate` runs
`keywarp.geometry._rotate`, the kernel behind `project` and
`ray_through_pixel`, on whole arrays.

The plain spellings pin fast paths bit for bit: `ray_through_pixel`
against a `Ray` built through its own checks and `_midpoint` on floats
against its numpy formula. `query_draws_reference` spells out the
oracle's documented draws: blake2b of the whole key text.
`UnmemoizedProjections` is the oracle with every projection made afresh,
the reference for its memo of projections into one scene.
"""

import hashlib
import math
import struct

import numpy as np

from keywarp.geometry import (PARALLEL_TOL, NonPositiveDepth, Ray, _pixel_direction, _rotate,
                              look_at_camera, project)
from keywarp.sim import CorrespondenceOracle
from keywarp.warp import (_arc, _displace, _resample, _retime_brackets,
                          _retime_profile, _step_lengths, segment_alphas)


def brute_force_ray_midpoint(o1, d1, o2, d2, t_range=None, rounds=8, grid=121):
    """Minimize distance between points on two lines by zooming grid search.

    Returns (midpoint, min_distance). The initial range widens for
    near-parallel rays, whose closest points sit far out; resolution after
    the final round is far below 1e-6 for desk-scale geometry.
    """
    o1, d1 = np.asarray(o1, float), np.asarray(d1, float)
    o2, d2 = np.asarray(o2, float), np.asarray(d2, float)
    d1 = d1 / np.linalg.norm(d1)
    d2 = d2 / np.linalg.norm(d2)
    if t_range is None:
        sin_angle = max(np.linalg.norm(np.cross(d1, d2)), 1e-6)
        t_range = max(10.0, 5.0 * np.linalg.norm(o1 - o2) / sin_angle)
    c1, c2 = 0.0, 0.0
    half = t_range
    best = None
    for _ in range(rounds):
        t1 = np.linspace(c1 - half, c1 + half, grid)
        t2 = np.linspace(c2 - half, c2 + half, grid)
        p1 = o1 + t1[:, None, None] * d1     # (g, 1, 3)
        p2 = o2 + t2[None, :, None] * d2     # (1, g, 3)
        dist = np.linalg.norm(p1 - p2, axis=-1)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        c1, c2 = t1[i], t2[j]
        best = dist[i, j]
        half = 4.0 * (t1[1] - t1[0])
    point = 0.5 * (o1 + c1 * d1 + o2 + c2 * d2)
    return point, float(best)


def brute_force_point_ray_distance(origin, direction, point, t_max=50.0, n=2000001):
    """Min distance from `point` to the half-line {origin + t*dir, t >= 0}."""
    origin = np.asarray(origin, float)
    direction = np.asarray(direction, float)
    direction = direction / np.linalg.norm(direction)
    t = np.linspace(0.0, t_max, n)
    pts = origin + t[:, None] * direction
    return float(np.min(np.linalg.norm(pts - np.asarray(point, float), axis=1)))


def arc_position(points, s):
    """Point at arc length s along a polyline, via per-axis interpolation."""
    points = np.asarray(points, float)
    cum = np.concatenate([[0.0], np.cumsum(
        np.linalg.norm(np.diff(points, axis=0), axis=1))])
    return np.array([np.interp(s, cum, points[:, k]) for k in range(points.shape[1])])


def arc_length(points):
    points = np.asarray(points, float)
    return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))


def quat_rotate(q, v):
    """Rotate vector(s) v of shape (..., 3) by unit quaternion q."""
    q = np.asarray(q, dtype=float).tolist()
    v = np.asarray(v, dtype=float)
    return np.stack(_rotate(*q, v[..., 0], v[..., 1], v[..., 2]), axis=-1)


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def warp_segment(positions, seg_start, seg_end, disp_start, disp_end):
    """Displace a segment's action positions by the alpha-blended endpoint
    displacements. Orientations and gripper bits are untouched by warping
    and are carried through by the caller."""
    positions = np.asarray(positions, dtype=float)
    return _displace(positions, segment_alphas(positions, seg_start, seg_end),
                     np.asarray(disp_start, dtype=float), np.asarray(disp_end, dtype=float))


def retime_segment(source_positions, warped_positions, orientations):
    """Resample a warped segment so per-step speed matches the source.

    The new step count is round((warped_len / source_len) * steps), at least
    one step. Sample j of the output sits at arc length f(j / new_steps) *
    warped_len along the warped polyline, where f is the source's normalized
    time-to-arc profile. Positions interpolate linearly and orientations
    slerp between the bracketing warped samples; the endpoints are pinned
    exactly. Zero-length sources keep their timing unchanged.
    """
    src = np.asarray(source_positions, dtype=float)
    warped = np.asarray(warped_positions, dtype=float)
    quats = np.asarray(orientations, dtype=float)
    s_warp = _arc(_step_lengths(warped))
    profile = _retime_profile(_arc(_step_lengths(src)))
    if profile is None:
        return warped.copy(), quats.copy()
    pos, quat = _resample(s_warp, warped, quats, *_retime_brackets(profile, s_warp))
    return (np.vstack([warped[:1], pos, warped[-1:]]),
            np.vstack([quats[:1], quat, quats[-1:]]))


def random_camera(rng, intrinsics_cls, camera_cls):
    """Camera at a random pose looking roughly at the origin."""
    intr = intrinsics_cls(fx=float(rng.uniform(200, 800)),
                          fy=float(rng.uniform(200, 800)),
                          cx=float(rng.uniform(200, 440)),
                          cy=float(rng.uniform(140, 340)),
                          width=640, height=480)
    eye = rng.uniform(-2.0, 2.0, 3)
    while np.linalg.norm(eye) < 0.5:
        eye = rng.uniform(-2.0, 2.0, 3)
    target = rng.uniform(-0.2, 0.2, 3)
    return look_at_camera(eye, target, intr)


def ray_through_pixel_reference(camera, pixel):
    """`keywarp.geometry.ray_through_pixel` through `Ray`'s own checks."""
    return Ray(origin=camera.position, direction=_pixel_direction(camera, pixel))


def midpoint_reference(o1, d1, o2, d2):
    """`keywarp.geometry._midpoint` on numpy arrays, each dot one numpy dot."""
    cross = np.cross(d1, d2)
    if math.sqrt(cross.dot(cross)) < PARALLEL_TOL:
        return None   # parallel: DegenerateRays
    w0 = o1 - o2
    b12, d, e = float(d1.dot(d2)), float(d1.dot(w0)), float(d2.dot(w0))
    denom = 1.0 - b12 * b12
    p1 = o1 + (b12 * e - d) / denom * d1
    p2 = o2 + (e - b12 * d) / denom * d2
    gap = p1 - p2
    return 0.5 * (p1 + p2), math.sqrt(gap.dot(gap))


def query_draws_reference(seed, src_id, tgt_id, query_view, target_view, pixel):
    """The three uniforms `CorrespondenceOracle` documents for a query: the
    top 53 bits of each of the first three 8-byte words of the 32-byte
    blake2b digest of the whole key text, times 2**-53."""
    key = (f"{seed}|{src_id}|{tgt_id}|{query_view}|{target_view}"
           f"|{pixel[0]:.6f}|{pixel[1]:.6f}")
    digest = hashlib.blake2b(key.encode(), digest_size=32).digest()
    return [(w >> 11) * 2.0 ** -53 for w in struct.unpack(">3Q", digest[:24])]


class UnmemoizedProjections(CorrespondenceOracle):
    """The oracle, projecting the anchor plus offset afresh on every query."""

    def _projection(self, target, view, anchor, offset):
        anchor_pos = self._anchor_position(target, anchor)
        if anchor_pos is None:
            return None
        try:
            return project(target.rig.camera(view),
                           [a + o for a, o in zip(anchor_pos, offset)])
        except NonPositiveDepth:
            return None
