"""Keypoint matching into a new observation, feasibility filters, demo scoring.

Each demo keypoint is matched independently in the left and right views of
the observation and the matched pair is triangulated into a target waypoint.
Two filters guard against bad matches: the triangulation residual (the two
viewing rays must nearly intersect) and a cross-view consistency check
(matching a keypoint into the *other* view of the same scene must put its
ray at the same distance from the waypoint in the demo and the observation).
Demos whose every waypoint survives both filters are ranked by the stacked
Euclidean distance between source and target waypoints; the closest one
becomes the warp source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from .demo import ConfigError, DemoSummary, SceneSnapshot
from .geometry import DegenerateRays, point_ray_distance, ray_through_pixel, triangulate


class AllInfeasible(ValueError):
    """No candidate demo produced a feasible match for the observation."""


class MatcherInterface(Protocol):
    """Semantic correspondence backend.

    Given a query pixel in `query_view` of the source snapshot, return the
    corresponding (2,) subpixel array in `target_view` of the target
    snapshot, or None when no match is found. A reply that is not a finite
    (2,) pixel (NaN, an infinity, another shape) counts as a failed match,
    the same as None. Implementations must be deterministic for a fixed
    seed and must support same-scene cross-view queries (source is target).
    """

    def match(self, source: SceneSnapshot, target: SceneSnapshot,
              query_pixel, query_view: str, target_view: str) -> Optional[np.ndarray]:
        ...


@dataclass(frozen=True)
class FilterConfig:
    residual_max: float = 0.10   # m, triangulation gate
    gap_max: float = 0.10        # m, cross-view consistency gate

    def __post_init__(self):
        for name in ("residual_max", "gap_max"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")


@dataclass
class MatchOutcome:
    demo_id: str
    target_waypoints: np.ndarray      # (T, 3); NaN rows where not triangulated
    triangulation_residuals: np.ndarray   # (T,)
    cross_view_gaps: np.ndarray       # (T,) worst |d_demo - d_obs| per waypoint
    feasible: bool
    score: float                      # ||W - W_target||_2 stacked, inf if infeasible


_OTHER_VIEW = {"left": "right", "right": "left"}


def match_pixel(matcher: MatcherInterface, source: SceneSnapshot, target: SceneSnapshot,
                query_pixel, query_view: str, target_view: str) -> Optional[np.ndarray]:
    """The matcher's reply to one query as a finite (2,) float pixel, or
    None for a failed match: None itself, or any reply that is not such a
    pixel (NaN, an infinity, another shape or type)."""
    reply = matcher.match(source, target, query_pixel, query_view, target_view)
    if reply is None:
        return None
    try:
        pixel = np.asarray(reply, dtype=float)
    except (TypeError, ValueError):
        return None
    if pixel.shape != (2,) or not all(map(math.isfinite, pixel.tolist())):
        return None
    return pixel


def cross_view_distance(matcher: MatcherInterface, snapshot: SceneSnapshot,
                        keypoint, view: str, waypoint) -> float:
    """One side of the consistency check: match a keypoint into the other
    view of the *same* scene and return the distance from the waypoint to the
    ray of that match. A failed match counts as an infinite distance."""
    other = _OTHER_VIEW[view]
    pixel = match_pixel(matcher, snapshot, snapshot, keypoint, view, other)
    if pixel is None:
        return math.inf
    ray = ray_through_pixel(snapshot.rig.camera(other), pixel)
    return point_ray_distance(ray, waypoint)


def demo_cross_view_distances(matcher: MatcherInterface, demo: DemoSummary) -> dict:
    """The demo half of the consistency check, {view: [T distances]}: each
    demo keypoint's cross-view distance from its own waypoint."""
    return {view: [cross_view_distance(matcher, demo.snapshot, demo.keypoints[view][t],
                                       view, demo.waypoints[t])
                   for t in range(demo.num_waypoints)]
            for view in ("left", "right")}


def match_demo(matcher: MatcherInterface, demo: DemoSummary, obs: SceneSnapshot,
               cfg: FilterConfig, demo_side_distances: dict) -> MatchOutcome:
    """Match every demo keypoint into the observation and run both filters.

    Failures never raise; they are encoded as an infeasible outcome with
    score +inf. The score is computed only for feasible outcomes. A residual
    or a gap passes its gate only when it is at most the gate's bound, so a
    NaN fails it; a gap is infinite when either side is not finite.

    `demo_side_distances` is the demo half of the cross-view check as
    {view: (T,) distances}. The demo never changes, so a library computes it
    once per demo, with `demo_cross_view_distances`.
    """
    T = demo.num_waypoints
    w_out = np.full((T, 3), np.nan)
    residuals = np.full(T, np.inf)
    gaps = np.full(T, np.inf)
    feasible = True

    left_keypoints, right_keypoints = demo.keypoints["left"], demo.keypoints["right"]
    for t in range(T):
        left = match_pixel(matcher, demo.snapshot, obs, left_keypoints[t], "left", "left")
        right = match_pixel(matcher, demo.snapshot, obs, right_keypoints[t], "right", "right")
        if left is None or right is None:
            feasible = False
            continue
        try:
            point, residual = triangulate(obs.rig, left, right)
        except DegenerateRays:
            feasible = False
            continue
        w_out[t] = point
        residuals[t] = residual

        worst_gap = 0.0
        for view, pixel in (("left", left), ("right", right)):
            d_demo = float(demo_side_distances[view][t])
            d_obs = cross_view_distance(matcher, obs, pixel, view, point)
            # a side that is not finite (a failed match) makes the gap infinite;
            # inf - inf would be NaN, which max drops
            gap = (abs(d_demo - d_obs) if math.isfinite(d_demo) and math.isfinite(d_obs)
                   else math.inf)
            worst_gap = max(worst_gap, gap)
        gaps[t] = worst_gap

        if not (residual <= cfg.residual_max and worst_gap <= cfg.gap_max):
            feasible = False

    diff = (demo.waypoints - w_out).ravel()   # the norm of the stacked waypoints
    score = math.sqrt(diff.dot(diff)) if feasible else math.inf
    return MatchOutcome(demo_id=demo.id, target_waypoints=w_out,
                        triangulation_residuals=residuals,
                        cross_view_gaps=gaps, feasible=feasible, score=score)


def select_source_demo(outcomes) -> MatchOutcome:
    """Feasible outcome with the lowest score; ties go to the lowest demo id."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes to select from")
    feasible = [o for o in outcomes if o.feasible]
    if not feasible:
        raise AllInfeasible("every candidate demo failed the match filters")
    return min(feasible, key=lambda o: (o.score, o.demo_id))
