"""Property tests: the scalar geometry paths equal their numpy (np.cross)
formulas bit for bit, projection and triangulation invert each other,
execute_plan's toggle-frame stepping equals a plain per-step loop, and
warp_trajectory's one-pass warp equals warping and retiming segment by
segment."""

import copy
import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from keywarp.demo import Trajectory, trajectory_from_parts
from keywarp.geometry import (CameraIntrinsics, StereoRig, look_at_camera,
                              point_ray_distance, project, quat_rotate,
                              ray_through_pixel, triangulate)
from keywarp.sim import (SimWorld, WorldParams, _close_gripper, _open_gripper,
                         default_layout, execute_plan, generate_demo_library,
                         spawn_world)
from keywarp.tasks import BOWL, builtin_tasks
from keywarp.warp import retime_segment, warp_segment, warp_trajectory

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


# ---------------------------------------------------------------------------
# execute_plan

def execute_per_step(world, plan, grasp_radius=None):
    """Reference: advance the world one action at a time."""
    traj = getattr(plan, "trajectory", plan)
    radius = world.params.grasp_radius if grasp_radius is None else grasp_radius
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
        if world.attached is not None:
            spec = world.layout.object_spec(world.attached)
            held = world.objects[world.attached]
            held.position = p - np.asarray(spec.grasp_offset)
            for rider, off in world._rider_offsets.items():
                world.objects[rider].position = held.position + off
        g = int(G[i])
        toggled = (g != int(G[i - 1])) if i > 0 else (g == 1 and not world.gripper_closed)
        if toggled:
            if g == 1:
                _close_gripper(world, p, radius, events, i)
            else:
                _open_gripper(world, events, i)
        world.gripper_closed = bool(g)
    return executed, events, oob


def grasp_point(world, obj):
    return (world.objects[obj].position
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
        _close_gripper(world, grasp_point(world, "bowl"), 0.03, [], 0)
    positions = []
    for aim, free, jitter, _ in plan_steps:
        base = np.array(free) if aim == "free" else grasp_point(world, aim)
        positions.append(base + np.array(jitter))
    quats = np.tile(LAYOUT.home_orientation, (len(positions), 1))
    bits = [bit for *_, bit in plan_steps]
    traj = trajectory_from_parts(positions, quats, bits)

    reference = SimWorld.from_state_dict(LAYOUT, copy.deepcopy(world.state_dict()))
    ref_positions, ref_events, ref_oob = execute_per_step(reference, traj)
    trace = execute_plan(world, traj)
    assert np.array_equal(trace.positions, ref_positions)
    assert trace.events == ref_events
    assert trace.out_of_bounds == ref_oob
    assert world.state_dict() == reference.state_dict()


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEMOS), st.sampled_from([0.0, 1e-7, 0.02, 0.3]),
       st.integers(0, 2**31), st.booleans(), st.booleans(), st.booleans())
def test_warp_trajectory_equals_per_segment_loop(demo, scale, seed, collapse, still,
                                                 head_at_start):
    demo = held_still(demo, still, head_at_start)
    rng = np.random.default_rng(seed)
    targets = demo.waypoints + rng.normal(0.0, scale, demo.waypoints.shape)
    if collapse:   # every warped waypoint-to-waypoint segment has zero length
        targets[:] = targets[0]
    plan = warp_trajectory(demo, targets)
    positions, quats, grip, boundaries = warp_per_segment(demo, targets)
    assert np.array_equal(plan.trajectory.positions, positions)
    assert np.array_equal(plan.trajectory.orientations, quats)
    assert np.array_equal(plan.trajectory.gripper, grip)
    assert plan.segment_boundaries.tolist() == boundaries
