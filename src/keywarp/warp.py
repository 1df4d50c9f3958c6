"""Warp a source action sequence onto new waypoints.

Per segment between consecutive waypoints, every action position is
displaced by a blend of the endpoint displacements d_t = w_target - w_source.
The blend coefficient alpha is spatial, not temporal: the action's position
is projected onto the line through the segment endpoints, so alpha = 0 at
the segment start, 1 at the end, and is deliberately unclamped (that keeps
the displacement field affine and continuous across segment boundaries).
Orientations and gripper bits are copied from the source.

After warping, each segment is retimed so per-step speed matches the
source: the step count is rescaled by the ratio of warped to source arc
length and the new samples are placed along the warped polyline following
the source's normalized time-to-arc profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .demo import DemoSummary, Trajectory, trajectory_from_parts
from .geometry import quat_slerp

DEGENERATE_SEGMENT = 1e-6   # m, below this the alpha projection is ill-posed
DEGENERATE_ARC = 1e-9       # m, below this a segment has no length to retime
RESAMPLED = -1              # output sample interpolated, not copied


class LengthMismatch(ValueError):
    """Target waypoint count differs from the source demo's."""


@dataclass(frozen=True)
class WarpedPlan:
    trajectory: Trajectory
    segment_boundaries: np.ndarray    # plan indices of the waypoint frames
    source_demo_id: str
    target_waypoints: np.ndarray      # (T, 3)

    def __len__(self):
        return len(self.trajectory)


def spatial_alpha(position, seg_start, seg_end, temporal_fraction=0.0) -> float:
    """Projection coefficient of a position onto the segment line.

    Falls back to the supplied temporal fraction when the segment endpoints
    nearly coincide (the projection divides by the squared segment length).
    """
    v = np.asarray(seg_end, dtype=float) - np.asarray(seg_start, dtype=float)
    vv = float(v @ v)
    if vv < DEGENERATE_SEGMENT ** 2:
        return float(temporal_fraction)
    return float((np.asarray(position, dtype=float) - seg_start) @ v / vv)


def segment_alphas(positions, seg_start, seg_end) -> np.ndarray:
    """Vectorized spatial_alpha over an (n, 3) position block."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    v = np.asarray(seg_end, dtype=float) - np.asarray(seg_start, dtype=float)
    vv = float(v @ v)
    if vv < DEGENERATE_SEGMENT ** 2:
        return np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    return (positions - seg_start) @ v / vv


def _displace(positions, alphas, disp_start, disp_end):
    """positions + (1 - alpha) d_start + alpha d_end, row by row."""
    alphas = alphas[:, None]
    return positions + ((1.0 - alphas) * disp_start + alphas * disp_end)


def warp_segment(positions, seg_start, seg_end, disp_start, disp_end) -> np.ndarray:
    """Displace a segment's action positions by the alpha-blended endpoint
    displacements. Orientations and gripper bits are untouched by warping
    and are carried through by the caller."""
    positions = np.asarray(positions, dtype=float)
    return _displace(positions, segment_alphas(positions, seg_start, seg_end),
                     np.asarray(disp_start, dtype=float), np.asarray(disp_end, dtype=float))


def _step_lengths(positions):
    # np.linalg.norm(np.diff(positions, axis=0), axis=1), spelled out: the
    # same operations without the Python-level overhead of the wrappers
    d = positions[1:] - positions[:-1]
    return np.sqrt(np.add.reduce(d * d, axis=1))


def _arc(steps, out=None):
    """Cumulative arc length, starting at 0, of consecutive step lengths."""
    if out is None:
        out = np.empty(len(steps) + 1)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return out


def _retime_brackets(s_src, s_warp):
    """Target arc length of every retimed sample and the warped sample
    starting its bracket, or None when the segment keeps its timing."""
    n = s_src.shape[0]
    L, L_new = s_src[-1], s_warp[-1]
    if n < 2 or L < DEGENERATE_ARC:
        return None
    steps = n - 1
    new_steps = max(1, round(L_new / L * steps))
    u_src = np.arange(n) / steps
    u_new = np.arange(new_steps + 1) / new_steps
    s_target = np.interp(u_new, u_src, s_src / L) * L_new
    idx = np.minimum(np.maximum(s_warp.searchsorted(s_target, side="right") - 1, 0), n - 2)
    return idx, s_target


def _resample(arc, positions, quats, idx, s_target):
    """Positions lerped and orientations slerped at arc lengths s_target,
    each bracketed by samples idx and idx + 1 at arc lengths arc."""
    span = arc[idx + 1] - arc[idx]
    theta = np.where(span > DEGENERATE_ARC,
                     (s_target - arc[idx]) / np.maximum(span, DEGENERATE_ARC), 0.0)
    theta = np.clip(theta, 0.0, 1.0)
    out_pos = positions[idx] * (1.0 - theta)[:, None] + positions[idx + 1] * theta[:, None]
    return out_pos, quat_slerp(quats[idx], quats[idx + 1], theta)


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
    brackets = _retime_brackets(_arc(_step_lengths(src)), s_warp)
    if brackets is None:
        return warped.copy(), quats.copy()
    out_pos, out_quat = _resample(s_warp, warped, quats, *brackets)
    out_pos[0], out_pos[-1] = warped[0], warped[-1]
    out_quat[0], out_quat[-1] = quats[0], quats[-1]
    return out_pos, out_quat


def warp_trajectory(demo: DemoSummary, target_waypoints) -> WarpedPlan:
    """Warp the whole demo onto target waypoints and retime every segment.

    The head segment (trajectory start to the first waypoint) is anchored
    with zero displacement at the first action, since the start pose is
    shared across demos and rollouts, blending up to the first waypoint's
    displacement. The tail (last waypoint to the end) is displaced rigidly
    by the final waypoint's displacement. Waypoint samples are pinned to the
    target waypoints verbatim.

    All segments are warped and retimed in one pass over their stacked
    samples: per segment only the alphas and the retimed sample brackets
    are computed, so the result equals warp_segment then retime_segment on
    each segment, value for value.
    """
    w_new = np.asarray(target_waypoints, dtype=float)
    W = demo.waypoints
    if w_new.shape != W.shape:
        raise LengthMismatch(f"expected {W.shape[0]} target waypoints, got {w_new.shape}")
    disp = w_new - W

    traj = demo.actions
    P, Q, G = traj.positions, traj.orientations, traj.gripper
    idx = demo.waypoint_indices
    M, T = len(traj), len(idx)
    zero = np.zeros(3)

    # (start_frame, end_frame, seg_start, seg_end, disp_start, disp_end,
    #  pinned start point or None, pinned end point or None)
    segments = [(0, idx[0], P[0], W[0], zero, disp[0], None, w_new[0])]
    for t in range(T - 1):
        segments.append((idx[t], idx[t + 1], W[t], W[t + 1], disp[t], disp[t + 1],
                         w_new[t], w_new[t + 1]))
    if idx[-1] < M - 1:
        segments.append((idx[-1], M - 1, W[-1], P[M - 1], disp[-1], disp[-1],
                         w_new[-1], None))

    # Segments stacked row by row; neighbours both hold their shared frame.
    counts = [b - a + 1 for a, b, *_ in segments]
    rows = np.concatenate([np.arange(a, b + 1) for a, b, *_ in segments])
    warped = _displace(
        P[rows],
        np.concatenate([segment_alphas(P[a:b + 1], w0, w1) for a, b, w0, w1, *_ in segments]),
        np.repeat([seg[4] for seg in segments], counts, axis=0),
        np.repeat([seg[5] for seg in segments], counts, axis=0))
    firsts = list(accumulate(counts[:-1], initial=0))   # stacked row of each segment start
    for (*_, pin0, pin1), first, n in zip(segments, firsts, counts):
        if pin0 is not None:
            warped[first] = pin0
        if pin1 is not None:
            warped[first + n - 1] = pin1
    quats = Q[rows]
    src_steps, warp_steps = _step_lengths(P), _step_lengths(warped)
    arc = np.empty(len(rows))

    # stacked row copied into each output sample, RESAMPLED where it is lerped
    take, lo, s_target, grip = [], [], [], []
    boundaries = []
    waypoint_frames = set(idx.tolist())
    for k, ((a, b, *_), first, n) in enumerate(zip(segments, firsts, counts)):
        last = first + n - 1
        s_warp = _arc(warp_steps[first:last], out=arc[first:last + 1])
        brackets = _retime_brackets(_arc(src_steps[a:b]), s_warp)
        if brackets is None:
            src = list(range(first, last + 1))
        else:
            # endpoints are pinned to the warped endpoints, the rest resampled
            src = [first] + [RESAMPLED] * (len(brackets[0]) - 2) + [last]
            lo.append(brackets[0][1:-1] + first)
            s_target.append(brackets[1][1:-1])
        keep = 1 if k else 0   # drop the duplicated boundary sample
        take += src[keep:]
        grip += ([G[a]] * (len(src) - 1) + [G[b]])[keep:]
        if b in waypoint_frames:
            boundaries.append(len(take) - 1)

    take = np.array(take)
    out_pos, out_quat = warped[take], quats[take]
    if lo:
        lerp = take == RESAMPLED
        out_pos[lerp], out_quat[lerp] = _resample(arc, warped, quats, np.concatenate(lo),
                                                  np.concatenate(s_target))
    plan = trajectory_from_parts(out_pos, out_quat, grip, traj.control_rate)
    return WarpedPlan(trajectory=plan,
                      segment_boundaries=np.array(boundaries, dtype=int),
                      source_demo_id=demo.id, target_waypoints=w_new.copy())


def plan_to_dict(plan: WarpedPlan) -> dict:
    """Exportable form: the demo action schema plus warp provenance."""
    return {"actions": plan.trajectory.actions.tolist(),
            "control_rate_hz": plan.trajectory.control_rate,
            "segment_boundaries": plan.segment_boundaries.tolist(),
            "source_demo_id": plan.source_demo_id,
            "target_waypoints": plan.target_waypoints.tolist()}
