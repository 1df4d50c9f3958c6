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
the source's normalized time-to-arc profile. A segment whose warped arc
is more than MAX_STRETCH times its source's is refused: it would take that
many times the source's steps, along a path far outside any workspace.

Half of that depends on the source demo alone: the segments, their alphas,
the source arcs and the source side of every retime bracket. It is the
demo's `WarpBasis`, derived on its first warp (a play session derives every
basis before its first iteration) and kept with the demo, so a warp
computes only what the target waypoints change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demo import DemoSummary, Trajectory
from .geometry import quat_slerp

DEGENERATE_SEGMENT = 1e-6   # m, below this the alpha projection is ill-posed
DEGENERATE_ARC = 1e-9       # m, below this a segment has no length to retime
MAX_STRETCH = 100.0         # most times a retimed segment's arc may exceed its source's


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


def segment_alphas(positions, seg_start, seg_end) -> np.ndarray:
    """Projection coefficients of an (n, 3) position block onto the segment line.

    When the segment endpoints nearly coincide (the projection divides by the
    squared segment length) the alphas run evenly from 0 to 1 instead.
    """
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
    steps.cumsum(out=out[1:])
    return out


def _retime_profile(s_src):
    """The source side of a segment's retime brackets: its arc length and
    its arc at every sample over that length, or None when the segment
    keeps its timing."""
    L = float(s_src[-1])
    if s_src.shape[0] < 2 or L < DEGENERATE_ARC:
        return None
    return L, s_src / L


def _retime_brackets(profile, s_warp):
    """Target arc length of every interior retimed sample and the warped
    sample starting its bracket; the endpoints are pinned, not retimed."""
    L, s_norm = profile
    steps = s_norm.shape[0] - 1
    L_new = float(s_warp[-1])
    if L_new > MAX_STRETCH * L:   # no division: L_new / L may overflow
        raise ValueError(f"a warped segment's arc is more than {MAX_STRETCH:g} "
                         "times its source's")
    new_steps = max(1, round(L_new / L * steps))
    s_target = np.interp(np.arange(1, new_steps) / new_steps,
                         np.arange(steps + 1) / steps, s_norm) * L_new
    idx = np.minimum(np.maximum(s_warp.searchsorted(s_target, side="right") - 1, 0),
                     steps - 1)
    return idx, s_target


def _resample(arc, positions, quats, idx, s_target):
    """Positions lerped and orientations slerped at arc lengths s_target,
    each bracketed by samples idx and idx + 1 at arc lengths arc."""
    nxt = idx + 1
    start = arc[idx]
    span = arc[nxt] - start
    theta = np.where(span > DEGENERATE_ARC,
                     (s_target - start) / np.maximum(span, DEGENERATE_ARC), 0.0)
    theta = np.minimum(np.maximum(theta, 0.0), 1.0)   # np.clip, without its overhead
    t = theta[:, None]
    out_pos = positions[idx] * (1.0 - t) + positions[nxt] * t
    return out_pos, quat_slerp(quats[idx], quats[nxt], theta)


@dataclass(frozen=True, eq=False)
class WarpBasis:
    """The half of a warp that depends on the source demo alone.

    Its segments' samples are stacked row by row, neighbours both holding
    their shared frame."""

    segments: tuple        # (start frame, end frame, retime profile or None,
                           #  whether it ends at a waypoint) per segment
    alphas: np.ndarray     # (R,) each stacked row's alpha on its segment
    blend: np.ndarray      # (2, S) row of [0; d_1 .. d_T] at each segment's start, end
    pins: np.ndarray       # (2, P) stacked rows pinned to targets, and their waypoints
    gripper: np.ndarray    # (R,) bit a sample carries at each row: G[start],
                           # but G[end] at a segment's last row


def warp_basis(demo: DemoSummary) -> WarpBasis:
    """The demo's WarpBasis, derived on the first call and kept on the demo
    as `DemoSummary.warp_basis`, so each demo derives it once."""
    if demo.warp_basis is None:
        object.__setattr__(demo, "warp_basis", _derive_basis(demo))
    return demo.warp_basis


def _derive_basis(demo: DemoSummary) -> WarpBasis:
    """The demo's segments as `warp_trajectory` describes them: the head, one
    per pair of consecutive waypoints, and the tail unless the last waypoint
    is the last frame."""
    P, G, W = demo.actions.positions, demo.actions.gripper, demo.waypoints
    idx = demo.waypoint_indices.tolist()
    M, T = len(demo.actions), len(idx)
    # (start frame, end frame, segment line start, end, row of [0; d] blended
    #  from at start, at end, pinned start waypoint or None, end waypoint or None)
    segments = [(0, idx[0], P[0], W[0], 0, 1, None, 0)]
    segments += [(idx[t], idx[t + 1], W[t], W[t + 1], t + 1, t + 2, t, t + 1)
                 for t in range(T - 1)]
    if idx[-1] < M - 1:
        segments.append((idx[-1], M - 1, W[-1], P[M - 1], T, T, T - 1, None))
    src_steps = _step_lengths(P)
    pins, first = [], 0
    for a, b, *_, pin0, pin1 in segments:
        pins += [(row, t) for row, t in ((first, pin0), (first + b - a, pin1)) if t is not None]
        first += b - a + 1
    return WarpBasis(
        segments=tuple((a, b, _retime_profile(_arc(src_steps[a:b])), b in idx)
                       for a, b, *_ in segments),
        alphas=np.concatenate([segment_alphas(P[a:b + 1], w0, w1)
                               for a, b, w0, w1, *_ in segments]),
        blend=np.array([[seg[4] for seg in segments], [seg[5] for seg in segments]]),
        pins=np.array([[row for row, _ in pins], [t for _, t in pins]]),
        gripper=np.concatenate([G[[a] * (b - a) + [b]] for a, b, *_ in segments]
                               ).astype(np.int8))


def warp_trajectory(demo: DemoSummary, target_waypoints) -> WarpedPlan:
    """Warp the whole demo onto target waypoints and retime every segment.

    The head segment (trajectory start to the first waypoint) is anchored
    with zero displacement at the first action, since the start pose is
    shared across demos and rollouts, blending up to the first waypoint's
    displacement. The tail (last waypoint to the end) is displaced rigidly
    by the final waypoint's displacement. Waypoint samples are pinned to the
    target waypoints verbatim.

    What depends on the demo alone (its segments and their alphas, and the
    source side of every retime bracket) is the demo's `warp_basis`,
    derived once per demo. A call warps all segments in one pass over their
    stacked samples, retimes them one by one, and gathers the plan's
    actions from the stacked samples in one copy, which the plan's
    Trajectory keeps: its rows are unit quaternions and binary gripper bits
    copied or slerped from the demo's, so only their finiteness is checked.
    The result equals, value for value, the per-segment reference
    `warp_segment` then `retime_segment` in tests/oracle_utils.py.

    Raises LengthMismatch for a target count other than the demo's, and
    ValueError when the targets or the warped arc are not finite, or when a
    segment's warped arc is more than MAX_STRETCH times its source's.
    """
    w_new = np.asarray(target_waypoints, dtype=float)
    W = demo.waypoints
    if w_new.shape != W.shape:
        raise LengthMismatch(f"expected {W.shape[0]} target waypoints, got {w_new.shape}")
    basis = warp_basis(demo)
    disp = np.zeros((len(W) + 1, 3))   # row 0: the head's zero displacement
    disp[1:] = w_new - W
    counts = [b - a + 1 for a, b, *_ in basis.segments]
    actions = demo.actions.actions
    stacked = np.concatenate([actions[a:b + 1] for a, b, *_ in basis.segments])
    warped = _displace(stacked[:, :3], basis.alphas,
                       disp[basis.blend[0]].repeat(counts, axis=0),
                       disp[basis.blend[1]].repeat(counts, axis=0))
    warped[basis.pins[0]] = w_new[basis.pins[1]]
    warp_steps = _step_lengths(warped)
    # every target is pinned to a row, so a target that is not finite, like
    # an arc beyond the float range (targets near 1e308), makes the sum so
    if not math.isfinite(warp_steps.sum()):
        raise ValueError("target waypoints and the warped arc must be finite")
    arc = np.empty(len(warped))

    # stacked row of each output sample; a retimed one takes the row starting
    # its bracket, whose gripper bit it carries
    take, lerp_at, lo, s_target, boundaries = [], [], [], [], []
    first = n_out = 0
    for k, ((_, _, profile, at_waypoint), n) in enumerate(zip(basis.segments, counts)):
        last = first + n - 1
        skip = 1 if k else 0   # a later segment drops the sample the last one ends on
        if profile is None:
            piece = [np.arange(first + skip, last + 1)]
        else:
            idx, s = _retime_brackets(profile, _arc(warp_steps[first:last],
                                                    out=arc[first:last + 1]))
            idx += first
            start = n_out + 1 - skip
            lerp_at.append(np.arange(start, start + len(idx)))
            piece = [[first], idx, [last]][skip:]
            lo.append(idx)
            s_target.append(s)
        take += piece
        n_out += sum(map(len, piece))
        if at_waypoint:
            boundaries.append(n_out - 1)
        first = last + 1

    take = np.concatenate(take)
    plan = stacked[take]
    plan[:, :3] = warped[take]
    plan[:, 7] = basis.gripper[take]
    if lo:
        lerp_at = np.concatenate(lerp_at)
        plan[lerp_at, :3], plan[lerp_at, 3:7] = _resample(
            arc, warped, stacked[:, 3:7], np.concatenate(lo), np.concatenate(s_target))
    return WarpedPlan(trajectory=Trajectory._adopt(plan, demo.actions.control_rate),
                      segment_boundaries=np.array(boundaries, dtype=int),
                      source_demo_id=demo.id, target_waypoints=w_new.copy())


def plan_to_dict(plan: WarpedPlan) -> dict:
    """Exportable form: the demo action schema plus warp provenance."""
    return {"actions": plan.trajectory.actions.tolist(),
            "control_rate_hz": plan.trajectory.control_rate,
            "segment_boundaries": plan.segment_boundaries.tolist(),
            "source_demo_id": plan.source_demo_id,
            "target_waypoints": plan.target_waypoints.tolist()}
