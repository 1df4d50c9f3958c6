"""Property tests: the scalar geometry paths equal their numpy (np.cross)
formulas bit for bit, and rays, their intersections and point distances
equal their np.linalg.norm spellings; projection and triangulation invert
each other, and triangulation equals intersecting its two pixel rays;
execute_plan's toggle-frame stepping equals a plain per-step
loop; warp_trajectory's one-pass warp equals warping and retiming segment
by segment, and from a demo's kept basis equals the warp of a fresh copy;
the warp invariants hold: warping is affine in the endpoint displacements,
target waypoints are pinned exactly, and retiming gives the documented
step count with pinned endpoints, and every plan passes a Trajectory's
full validation; targets it cannot retime (not finite, or stretching a
segment more than MAX_STRETCH times) are refused. A scene's state id is
the same for Python float and np.float64 positions. A summary's encoding
equals json's indented output for any action values. The fast paths equal
their plain spellings in oracle_utils bit for bit: `ray_through_pixel` a
Ray built through its checks, and `_midpoint` on floats its numpy
formula; the oracle's draws are those of blake2b over the whole
documented key."""

import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from keywarp.demo import (ObjectState, SceneSnapshot, Trajectory, decode_summary,
                          encode_summary, summary_to_dict, trajectory_from_parts)
from keywarp.geometry import (PARALLEL_TOL, CameraIntrinsics, DegenerateRays,
                              NonPositiveDepth, Ray, StereoRig, _midpoint, intersect_rays,
                              look_at_camera, point_ray_distance, project,
                              ray_through_pixel, triangulate)
from keywarp.sim import (CorrespondenceOracle, OracleConfig, SimWorld, WorldParams,
                         _close_gripper, _open_gripper, default_layout, execute_plan,
                         generate_demo_library, spawn_world)
from keywarp.tasks import BOWL, builtin_tasks
from keywarp.warp import MAX_STRETCH, warp_trajectory
from oracle_utils import (arc_length, midpoint_reference, quat_rotate,
                          query_draws_reference, ray_through_pixel_reference,
                          retime_segment, warp_segment)

LAYOUT = default_layout()
INTR = CameraIntrinsics(fx=420.0, fy=400.0, cx=320.0, cy=240.0,
                        width=640, height=480)

coord = st.floats(-2.0, 2.0, allow_nan=False)
vec3 = st.tuples(coord, coord, coord).map(np.array)


@st.composite
def unit_quats(draw):
    q = np.array(draw(st.tuples(coord, coord, coord, coord)))
    n = np.linalg.norm(q)
    assume(n > 0.1)
    return q / n


def cross_reference(q, v):
    """The rotation as numpy writes it, with np.cross."""
    u, w = q[1:4], q[0]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


@given(unit_quats(), vec3)
def test_quat_rotate_vector_equals_cross_formula(q, v):
    assert np.array_equal(quat_rotate(q, v), cross_reference(q, v))


@given(unit_quats(), st.lists(vec3, min_size=1, max_size=6))
def test_quat_rotate_batch_equals_cross_formula_and_rows(q, rows):
    v = np.array(rows)
    batched = quat_rotate(q, v)
    assert np.array_equal(batched, cross_reference(q, v))
    for i in range(len(rows)):
        assert np.array_equal(batched[i], quat_rotate(q, v[i]))


def ring_camera(angle, radius, height, target):
    eye = target + np.array([radius * np.cos(angle), radius * np.sin(angle), height])
    return look_at_camera(eye, target, INTR)


angles = st.floats(0.0, 2 * np.pi)
radii = st.floats(0.5, 2.0)
heights = st.floats(0.2, 1.0)
offsets = st.tuples(*[st.floats(-0.2, 0.2)] * 3).map(np.array)


def project_reference(cam, point):
    """Projection through the numpy rotation by the conjugate quaternion."""
    p = cross_reference(cam.rotation * np.array([1.0, -1.0, -1.0, -1.0]),
                        np.asarray(point, dtype=float) - cam.position)
    k = cam.intrinsics
    return np.array([k.cx + k.fx * p[0] / p[2], k.cy + k.fy * p[1] / p[2]])


def ray_direction_reference(cam, pixel):
    k = cam.intrinsics
    d = cross_reference(cam.rotation, np.array([(pixel[0] - k.cx) / k.fx,
                                                (pixel[1] - k.cy) / k.fy, 1.0]))
    return d / np.linalg.norm(d)


@given(angles, radii, heights, offsets)
def test_project_then_ray_through_pixel_passes_through_point(angle, radius,
                                                             height, offset):
    target = np.array([0.4, 0.1, 0.1])
    cam = ring_camera(angle, radius, height, target)
    point = target + offset
    pixel = project(cam, point)
    assert np.array_equal(pixel, project_reference(cam, point))
    ray = ray_through_pixel(cam, pixel)
    assert np.array_equal(ray.origin, cam.position)
    assert np.array_equal(ray.direction, ray_direction_reference(cam, pixel))
    assert point_ray_distance(ray, point) < 1e-9


@given(angles, st.floats(np.pi / 6, 5 * np.pi / 6), radii, radii, heights, offsets)
def test_triangulate_inverts_projection(angle, spread, r_left, r_right,
                                        height, offset):
    target = np.array([0.4, 0.1, 0.1])
    rig = StereoRig(left=ring_camera(angle, r_left, height, target),
                    right=ring_camera(angle + spread, r_right, height, target))
    point = target + offset
    estimate, residual = triangulate(rig, project(rig.left, point),
                                     project(rig.right, point))
    assert np.linalg.norm(estimate - point) < 1e-9
    assert residual < 1e-9


@given(angles, radii, heights, st.floats(-100.0, 740.0), st.floats(-100.0, 580.0))
def test_ray_through_pixel_equals_a_ray_from_a_copy_of_the_centre(angle, radius, height,
                                                                  u, v):
    """The ray keeps the camera's own, already validated centre; a ray built
    from a copy validates and freezes the copy, to the same values."""
    cam = ring_camera(angle, radius, height, np.array([0.4, 0.1, 0.1]))
    k = cam.intrinsics
    d = cross_reference(cam.rotation, np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0]))
    ray = ray_through_pixel(cam, (u, v))
    copied = Ray(origin=cam.position.copy(), direction=d)
    assert ray.origin is cam.position
    assert copied.origin is not cam.position and not copied.origin.flags.writeable
    assert np.array_equal(ray.origin, copied.origin)
    assert ray.direction.tobytes() == copied.direction.tobytes()
    assert ray.direction.tobytes() == (d / np.linalg.norm(d)).tobytes()


def intersect_rays_reference(a, b):
    """`intersect_rays` spelled with np.cross and np.linalg.norm."""
    d1, d2 = a.direction, b.direction
    if np.linalg.norm(np.cross(d1, d2)) < PARALLEL_TOL:
        raise DegenerateRays("parallel")
    w0 = a.origin - b.origin
    b12, d, e = float(d1 @ d2), float(d1 @ w0), float(d2 @ w0)
    denom = 1.0 - b12 * b12
    p1 = a.origin + (b12 * e - d) / denom * d1
    p2 = b.origin + (e - b12 * d) / denom * d2
    return 0.5 * (p1 + p2), float(np.linalg.norm(p1 - p2))


direction = vec3.filter(lambda d: np.linalg.norm(d) > 1e-3)


@given(vec3, direction, vec3, direction, st.booleans())
def test_intersect_rays_equals_its_norm_spelling(o1, d1, o2, d2, parallel):
    if parallel:   # exactly or nearly parallel: the degenerate branch
        d2 = d1 * 0.5 + np.array([0.0, 0.0, 1e-12])
    a, b = Ray(o1, d1), Ray(o2, d2)
    try:
        expected = intersect_rays_reference(a, b)
    except DegenerateRays:
        with pytest.raises(DegenerateRays):
            intersect_rays(a, b)
        return
    point, residual = intersect_rays(a, b)
    assert point.tobytes() == expected[0].tobytes()
    assert residual == expected[1]


pixels = st.tuples(st.floats(-100.0, 740.0), st.floats(-100.0, 580.0))


@given(angles, st.floats(np.pi / 6, 5 * np.pi / 6), radii, radii, heights, pixels,
       pixels, st.booleans())
def test_triangulate_equals_intersect_rays_of_its_pixel_rays(angle, spread, r_left,
                                                             r_right, height, left_pixel,
                                                             right_pixel, parallel):
    """`triangulate` builds no Ray, and answers what the two rays would, bit
    for bit, DegenerateRays included."""
    target = np.array([0.4, 0.1, 0.1])
    rig = StereoRig(left=ring_camera(angle, r_left, height, target),
                    right=ring_camera(angle + spread, r_right, height, target))
    a = ray_through_pixel(rig.left, left_pixel)
    if parallel:   # the right ray along the left one: the degenerate branch
        try:
            right_pixel = project(rig.right, rig.right.position + a.direction)
        except NonPositiveDepth:
            assume(False)
    try:
        expected = intersect_rays(a, ray_through_pixel(rig.right, right_pixel))
    except DegenerateRays:
        with pytest.raises(DegenerateRays):
            triangulate(rig, left_pixel, right_pixel)
        return
    point, residual = triangulate(rig, left_pixel, right_pixel)
    assert point.tobytes() == expected[0].tobytes()
    assert residual == expected[1]


@given(angles, radii, heights, pixels)
def test_ray_through_pixel_equals_a_ray_built_through_its_checks(angle, radius, height,
                                                                 pixel):
    cam = ring_camera(angle, radius, height, np.array([0.4, 0.1, 0.1]))
    ray, expected = ray_through_pixel(cam, pixel), ray_through_pixel_reference(cam, pixel)
    assert type(ray) is Ray
    assert ray.origin is expected.origin is cam.position
    assert ray.direction.tobytes() == expected.direction.tobytes()
    assert ray.direction.dtype == float and ray.direction.shape == (3,)
    assert not ray.direction.flags.writeable


@given(vec3, direction, vec3, direction, st.booleans())
def test_midpoint_on_floats_equals_its_numpy_formula(o1, d1, o2, d2, parallel):
    d1 = d1 / np.sqrt(d1.dot(d1))
    d2 = d1 if parallel else d2 / np.sqrt(d2.dot(d2))
    expected = midpoint_reference(o1, d1, o2, d2)
    if expected is None:
        with pytest.raises(DegenerateRays):
            _midpoint(o1, d1, o2, d2)
        return
    point, gap = _midpoint(o1, d1, o2, d2)
    assert type(point) is np.ndarray and point.tobytes() == expected[0].tobytes()
    assert gap == expected[1]


@given(vec3, direction, st.floats(-2.0, 2.0), offsets)
def test_point_ray_distance_equals_its_norm_spelling(origin, d, along, offset):
    """Both branches: the foot of the perpendicular ahead of the origin, and
    behind it, where the distance is to the origin itself."""
    ray = Ray(origin, d)
    point = origin + along * ray.direction + offset
    v = point - ray.origin
    t = float(v @ ray.direction)
    expected = np.linalg.norm(v) if t <= 0.0 else np.linalg.norm(v - t * ray.direction)
    assert point_ray_distance(ray, point) == float(expected)


# ---------------------------------------------------------------------------
# execute_plan

def object_arrays(world):
    """The scene's (positions, upright flags), as execute_plan's mutable copy."""
    objects = world.scene.objects
    return ({k: np.array(o.position) for k, o in objects.items()},
            {k: o.upright for k, o in objects.items()})


def set_arrays(world, positions, upright):
    world.set_objects({k: ObjectState(tuple(p.tolist()), upright[k])
                       for k, p in positions.items()})


def execute_per_step(world, traj):
    """Reference: advance the world one action at a time, setting its scene
    after each."""
    P, Q, G = traj.positions, traj.orientations, traj.gripper
    lo = np.array(world.layout.workspace_min)
    hi = np.array(world.layout.workspace_max)
    executed = np.empty_like(P)
    events, oob = [], 0
    for i in range(len(traj)):
        p = np.clip(P[i], lo, hi)
        if not np.array_equal(p, P[i]):
            oob += 1
        executed[i] = p
        world.gripper_position = p.copy()
        world.gripper_orientation = Q[i].copy()
        positions, upright = object_arrays(world)
        if world.attached is not None:
            spec = world.layout.object_spec(world.attached)
            held = positions[world.attached] = p - np.asarray(spec.grasp_offset)
            for rider, off in world._rider_offsets.items():
                positions[rider] = held + off
        g = int(G[i])
        toggled = (g != int(G[i - 1])) if i > 0 else (g == 1 and not world.gripper_closed)
        if toggled:
            if g == 1:
                _close_gripper(world, positions, p, events, i)
            else:
                _open_gripper(world, positions, upright, events, i)
        world.gripper_closed = bool(g)
        set_arrays(world, positions, upright)
    return executed, events, oob


def grasp_point(world, obj):
    return (np.array(world.scene.objects[obj].position)
            + np.asarray(LAYOUT.object_spec(obj).grasp_offset))


# Each step aims at a random point (often outside the workspace) or near
# one of the objects' initial grasp points, so grasps, misses, carried
# riders, releases onto every support and clipping all occur.
steps = st.lists(st.tuples(st.sampled_from(["free", "bowl", "pineapple"]),
                           st.tuples(*[st.floats(-0.6, 1.2)] * 3),
                           st.tuples(*[st.floats(-0.01, 0.01)] * 3),
                           st.sampled_from([0, 1])),
                 min_size=2, max_size=40)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), steps, st.sampled_from(["open", "closed", "holding"]),
       st.booleans())
def test_execute_plan_equals_per_step_loop(seed, plan_steps, start, in_bowl):
    world = spawn_world(LAYOUT, seed, slots={"pineapple": BOWL} if in_bowl else None,
                        params=WorldParams(p_tip=0.5, settle_jitter=0.01))
    if start != "open":
        world.gripper_closed = True
    if start == "holding":   # the bowl already grasped, with any rider
        positions, upright = object_arrays(world)
        _close_gripper(world, positions, grasp_point(world, "bowl"), [], 0)
        set_arrays(world, positions, upright)
    positions = []
    for aim, free, jitter, _ in plan_steps:
        base = np.array(free) if aim == "free" else grasp_point(world, aim)
        positions.append(base + np.array(jitter))
    quats = np.tile(LAYOUT.home_orientation, (len(positions), 1))
    bits = [bit for *_, bit in plan_steps]
    traj = trajectory_from_parts(positions, quats, bits)

    reference = SimWorld.from_state_dict(LAYOUT, world.params,
                                         copy.deepcopy(world.state_dict()))
    ref_positions, ref_events, ref_oob = execute_per_step(reference, traj)
    trace = execute_plan(world, traj)
    assert np.array_equal(trace.positions, ref_positions)
    assert trace.events == ref_events
    assert trace.out_of_bounds == ref_oob
    assert world.state_dict() == reference.state_dict()
    fresh = SimWorld(LAYOUT, world.params, world.rng, world.scene.objects)
    assert world.symbolic == fresh.symbolic == reference.symbolic


# ---------------------------------------------------------------------------
# warp_trajectory

DEMOS = generate_demo_library(LAYOUT, builtin_tasks(), n=1, seed=5)[0]


def warp_per_segment(demo, w_new):
    """Reference: warp_segment then retime_segment on each segment in turn."""
    P, Q, G = demo.actions.positions, demo.actions.orientations, demo.actions.gripper
    W, idx, M = demo.waypoints, demo.waypoint_indices, len(demo.actions)
    disp = w_new - W
    segments = [(0, idx[0], P[0], W[0], np.zeros(3), disp[0], None, w_new[0])]
    for t in range(len(idx) - 1):
        segments.append((idx[t], idx[t + 1], W[t], W[t + 1], disp[t], disp[t + 1],
                         w_new[t], w_new[t + 1]))
    if idx[-1] < M - 1:
        segments.append((idx[-1], M - 1, W[-1], P[M - 1], disp[-1], disp[-1],
                         w_new[-1], None))
    out_pos, out_quat, out_grip, boundaries = [], [], [], []
    for a, b, w0, w1, d0, d1, pin0, pin1 in segments:
        warped = warp_segment(P[a:b + 1], w0, w1, d0, d1)
        if pin0 is not None:
            warped[0] = pin0
        if pin1 is not None:
            warped[-1] = pin1
        pos, quat = retime_segment(P[a:b + 1], warped, Q[a:b + 1])
        grip = np.full(len(pos), G[a])
        grip[-1] = G[b]
        start = 1 if out_pos else 0
        out_pos.append(pos[start:])
        out_quat.append(quat[start:])
        out_grip.append(grip[start:])
        if b in idx:
            boundaries.append(sum(len(p) for p in out_pos) - 1)
    return (np.vstack(out_pos), np.vstack(out_quat), np.concatenate(out_grip),
            boundaries)


def held_still(demo, still_segment, head_at_start):
    """The demo with one waypoint-to-waypoint segment not moving at all
    (its timing is kept), and optionally its first waypoint at frame 0."""
    actions = demo.actions.actions.copy()
    idx = demo.waypoint_indices.copy()
    if still_segment and len(idx) > 1:
        actions[idx[0]:idx[1] + 1, :3] = actions[idx[0], :3]
    if head_at_start:
        idx[0] = 0
    return dataclasses.replace(demo, actions=Trajectory(actions, demo.actions.control_rate),
                               waypoint_indices=idx, waypoints=actions[idx, :3])


def random_targets(demo, scale, seed, collapse):
    """The demo's waypoints moved by Gaussian noise of the given scale, or
    all moved onto one point."""
    rng = np.random.default_rng(seed)
    targets = demo.waypoints + rng.normal(0.0, scale, demo.waypoints.shape)
    if collapse:   # every warped waypoint-to-waypoint segment has zero length
        targets[:] = targets[0]
    return targets


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEMOS), st.sampled_from([0.0, 1e-7, 0.02, 0.3]),
       st.integers(0, 2**31), st.booleans(), st.booleans(), st.booleans())
def test_warp_trajectory_equals_per_segment_loop(demo, scale, seed, collapse, still,
                                                 head_at_start):
    demo = held_still(demo, still, head_at_start)
    targets = random_targets(demo, scale, seed, collapse)
    plan = warp_trajectory(demo, targets)
    positions, quats, grip, boundaries = warp_per_segment(demo, targets)
    assert np.array_equal(plan.trajectory.positions, positions)
    assert np.array_equal(plan.trajectory.orientations, quats)
    assert np.array_equal(plan.trajectory.gripper, grip)
    assert plan.segment_boundaries.tolist() == boundaries


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DEMOS), st.sampled_from([0.0, 1e-7, 0.02, 0.3]),
       st.integers(0, 2**31), st.booleans())
def test_warp_from_a_kept_basis_equals_the_warp_of_a_fresh_copy(demo, scale, seed, collapse):
    """A demo keeps its warp basis across every warp of this module, so by
    now it has been warped many times; warping never changes the basis, and
    a freshly decoded copy, which derives its own, warps to the same bytes."""
    for other in range(1, 4):
        warp_trajectory(demo, random_targets(demo, 0.05, seed + other, False))
    targets = random_targets(demo, scale, seed, collapse)
    fresh = decode_summary(encode_summary(demo))
    assert demo.warp_basis is not None and fresh.warp_basis is None
    plan, expected = warp_trajectory(demo, targets), warp_trajectory(fresh, targets)
    assert plan.trajectory.actions.tobytes() == expected.trajectory.actions.tobytes()
    assert plan.segment_boundaries.tolist() == expected.segment_boundaries.tolist()


# ---------------------------------------------------------------------------
# warp invariants

@given(st.lists(vec3, min_size=1, max_size=12).map(np.array), vec3, vec3,
       st.booleans(), vec3, vec3, vec3, vec3, st.floats(-2.0, 2.0))
def test_warp_segment_is_affine_in_endpoint_displacements(positions, start, end,
                                                          degenerate, d0, d1, e0, e1,
                                                          lam):
    if degenerate:   # the alphas fall back to evenly spaced ones
        end = start
    else:
        assume(np.linalg.norm(end - start) > 0.1)
    warp = lambda a, b: warp_segment(positions, start, end, a, b)   # noqa: E731
    assert np.array_equal(warp(np.zeros(3), np.zeros(3)), positions)
    mixed = warp(lam * d0 + (1 - lam) * e0, lam * d1 + (1 - lam) * e1)
    assert np.allclose(mixed, lam * warp(d0, d1) + (1 - lam) * warp(e0, e1),
                       rtol=0.0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEMOS), st.sampled_from([0.0, 1e-7, 0.02, 0.3]),
       st.integers(0, 2**31), st.booleans(), st.booleans(), st.booleans())
def test_warp_trajectory_pins_every_target_waypoint(demo, scale, seed, collapse, still,
                                                    head_at_start):
    demo = held_still(demo, still, head_at_start)
    targets = random_targets(demo, scale, seed, collapse)
    plan = warp_trajectory(demo, targets)
    rows = plan.segment_boundaries
    assert len(rows) == demo.num_waypoints
    assert np.array_equal(plan.trajectory.positions[rows], targets)
    assert np.array_equal(plan.trajectory.gripper[rows],
                          demo.actions.gripper[demo.waypoint_indices])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEMOS), st.sampled_from([0.0, 1e-7, 0.02, 0.3, 3.0]),
       st.integers(0, 2**31), st.booleans(), st.booleans(), st.booleans())
def test_every_warped_plan_passes_a_trajectorys_full_validation(demo, scale, seed, collapse,
                                                                still, head_at_start):
    """A plan's Trajectory checks only finiteness; the checks it skips (the
    shape, unit quaternions, binary gripper bits) hold all the same."""
    demo = held_still(demo, still, head_at_start)
    plan = warp_trajectory(demo, random_targets(demo, scale, seed, collapse))
    assert Trajectory(plan.trajectory.actions, plan.trajectory.control_rate) == plan.trajectory
    assert not plan.trajectory.actions.flags.writeable


@pytest.mark.parametrize("value, refusal", [
    (1e308, "finite"), (-1e308, "finite"), (np.nan, "finite"), (np.inf, "finite"),
    # finite, but refused before any sample is allocated: at 1e12 the plan
    # would hold about 1e14 of them
    (1e12, "times its source's"), (1e4, "times its source's")])
def test_warp_refuses_targets_it_cannot_retime(value, refusal):
    demo = DEMOS[0]
    targets = demo.waypoints.copy()
    targets[0, 0] = value
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=refusal):
        warp_trajectory(demo, targets)


@given(st.lists(vec3, min_size=2, max_size=15).map(np.array),
       st.floats(0.05, 4.0), st.floats(0.0, 0.05), st.integers(0, 2**31))
def test_retime_segment_step_count_and_pinned_endpoints(source, stretch, jitter, seed):
    rng = np.random.default_rng(seed)
    warped = (source[0] + stretch * (source - source[0])
              + rng.normal(0.0, jitter, source.shape))
    quats = rng.normal(size=(len(source), 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    length = arc_length(source)
    assume(length > 1e-6)
    assume(arc_length(warped) <= MAX_STRETCH * length)   # a longer one is refused
    scaled_steps = arc_length(warped) / length * (len(source) - 1)
    assume(abs(scaled_steps % 1.0 - 0.5) > 1e-6)   # no rounding tie
    positions, orientations = retime_segment(source, warped, quats)
    assert len(positions) == len(orientations) == max(1, round(scaled_steps)) + 1
    assert np.array_equal(positions[[0, -1]], warped[[0, -1]])
    assert np.array_equal(orientations[[0, -1]], quats[[0, -1]])


# ---------------------------------------------------------------------------
# the oracle's draws

query = st.tuples(st.sampled_from(["s1", "s2", "s3"]), st.sampled_from(["s1", "s2"]),
                    st.sampled_from(["left", "right"]), st.sampled_from(["left", "right"]),
                    pixels)


@given(st.integers(0, 2**63), query)
def test_query_draws_are_those_of_the_whole_documented_key(seed, query):
    oracle = CorrespondenceOracle(OracleConfig(seed=seed))
    assert oracle._query_draws(*query) == query_draws_reference(seed, *query)


def repr_state_id(objects, anchors):
    """The id as earlier versions hashed it, from each scalar's own repr."""
    parts = [f"{name}:{p[0]!r},{p[1]!r},{p[2]!r},{int(up)}"
             for name, (p, up) in sorted(objects.items())]
    parts += [f"@{name}:{p[0]!r},{p[1]!r},{p[2]!r}" for name, p in sorted(anchors.items())]
    return hashlib.blake2b("|".join(parts).encode(), digest_size=12).hexdigest()


names = st.sampled_from(["bowl", "pineapple", "cup", "table", "shelf"])
point = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3)


@given(st.dictionaries(names, st.tuples(point, st.booleans()), max_size=4),
       st.dictionaries(names, point, max_size=3))
def test_state_id_does_not_depend_on_the_scalar_type(objects, anchors):
    """Python floats and np.float64 give one id, and for np.float64 object
    positions it is the id numpy 2 gave when each scalar's repr was hashed."""
    ids = []
    for cast in (float, np.float64):
        scene = SceneSnapshot(
            rig=LAYOUT.rig, anchors={k: tuple(map(cast, p)) for k, p in anchors.items()},
            objects={k: ObjectState(tuple(map(cast, p)), up) for k, (p, up) in objects.items()})
        ids.append(scene.state_id)
    assert ids[0] == ids[1]
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        typed = {k: (tuple(map(np.float64, p)), up) for k, (p, up) in objects.items()}
        anchors = {k: tuple(map(float, p)) for k, p in anchors.items()}
        assert ids[0] == repr_state_id(typed, anchors)


# ---------------------------------------------------------------------------
# summary encoding

action_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**60, 2**60).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e22, 1.7976931348623157e308,
                     0.1, 3.0, -2.0, 123456789.0]))
unit_quat = st.sampled_from([(1.0, 0.0, 0.0, 0.0), (-0.0, 1.0, -0.0, 0.0),
                             (0.6, 0.8, 0.0, 0.0), (0.5, -0.5, 0.5, -0.5)])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DEMOS),
       st.lists(st.tuples(st.tuples(action_value, action_value, action_value),
                          unit_quat, st.sampled_from([0.0, 1.0])), min_size=2, max_size=6),
       st.one_of(st.floats(1e-300, 1e300), st.integers(1, 1000).map(float)))
def test_encode_summary_equals_the_json_reference(demo, rows, control_rate):
    """The rows written directly equal json's indented output byte for byte,
    whatever the float: signed zeros, subnormals, exponents and integral
    values. The encoder reads only the recorded fields, so the derived ones
    are left as they were."""
    actions = np.array([[*p, *q, g] for p, q, g in rows])
    summary = dataclasses.replace(demo, actions=Trajectory(actions, control_rate))
    reference = json.dumps(summary_to_dict(summary), sort_keys=True, indent=2).encode()
    assert encode_summary(summary) == reference
