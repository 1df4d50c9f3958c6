import numpy as np
import pytest

import keywarp.warp
from keywarp.demo import decode_summary, encode_summary, trajectory_from_parts
from keywarp.warp import LengthMismatch, segment_alphas, warp_trajectory
from oracle_utils import arc_length, arc_position, retime_segment, warp_segment

DOWN = np.array([0.0, 1.0, 0.0, 0.0])


# The spatial alpha of a position is its projection coefficient onto the
# segment line; segment_alphas computes it for a block of positions.

def test_spatial_alpha_midpoint():
    alphas = segment_alphas([[0.5, 0, 0], [0.25, 0, 0]], [0, 0, 0], [1, 0, 0])
    assert alphas == pytest.approx([0.5, 0.25])


def test_spatial_alpha_ignores_perpendicular_component():
    alphas = segment_alphas([[0.5, 1, 0], [0.5, 0, -3]], [0, 0, 0], [1, 0, 0])
    assert alphas == pytest.approx([0.5, 0.5])


def test_spatial_alpha_extrapolates_unclamped():
    alphas = segment_alphas([[2, 0, 0], [-1, 0, 0]], [0, 0, 0], [1, 0, 0])
    assert alphas == pytest.approx([2.0, -1.0])


def test_spatial_alpha_degenerate_segment_falls_back():
    alphas = segment_alphas(np.zeros((5, 3)), [1, 1, 1], [1, 1, 1])
    assert np.allclose(alphas, np.linspace(0, 1, 5))
    assert segment_alphas([[3, 1, 0]], [1, 1, 1], [1, 1, 1]).tolist() == [0.0]


def test_warp_segment_blends_displacements():
    positions = np.array([[0.5, 0.0, 0.0]])
    warped = warp_segment(positions, [0, 0, 0], [1, 0, 0],
                          [0, 0, 0], [0, 0.2, 0])
    assert np.allclose(warped, [[0.5, 0.1, 0.0]])


def test_warp_segment_constant_displacement_is_rigid():
    rng = np.random.default_rng(1)
    positions = rng.uniform(-1, 1, (7, 3))
    d = np.array([0.1, 0.0, 0.0])
    warped = warp_segment(positions, positions[0], positions[-1], d, d)
    assert np.allclose(warped, positions + d)


def test_warp_segment_endpoints_land_on_targets():
    positions = np.array([[0.0, 0.0, 0.0], [0.4, 0.1, 0.0], [1.0, 0.0, 0.0]])
    d0, d1 = np.array([0.02, 0.0, 0.0]), np.array([0.0, 0.05, 0.0])
    warped = warp_segment(positions, positions[0], positions[-1], d0, d1)
    assert np.allclose(warped[0], positions[0] + d0, atol=1e-12)
    assert np.allclose(warped[-1], positions[-1] + d1, atol=1e-12)


def test_displacement_affine_in_alpha():
    rng = np.random.default_rng(6)
    for _ in range(30):
        w0, w1 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        if np.linalg.norm(w1 - w0) < 0.1:
            continue
        d0, d1 = rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.2, 0.2, 3)
        alphas = np.sort(rng.uniform(-0.5, 1.5, 3))
        positions = w0 + alphas[:, None] * (w1 - w0)
        warped = warp_segment(positions, w0, w1, d0, d1)
        disp = warped - positions
        # affine: the middle displacement interpolates the outer two
        lam = (alphas[1] - alphas[0]) / (alphas[2] - alphas[0])
        expected = (1 - lam) * disp[0] + lam * disp[2]
        assert np.max(np.abs(disp[1] - expected)) < 1e-9


def test_boundary_continuity_between_segments():
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, (3, 3))
    d = rng.uniform(-0.2, 0.2, (3, 3))
    at_shared = np.array([w[1]])
    from_left = warp_segment(at_shared, w[0], w[1], d[0], d[1]) - w[1]
    from_right = warp_segment(at_shared, w[1], w[2], d[1], d[2]) - w[1]
    assert np.max(np.abs(from_left - from_right)) < 1e-12


def _uniform_segment(n_steps, length, direction=(1.0, 0.0, 0.0)):
    t = np.linspace(0.0, length, n_steps + 1)
    return t[:, None] * np.asarray(direction)


def test_retime_scales_step_count():
    src = _uniform_segment(10, 0.1)
    warped = _uniform_segment(10, 0.25)
    quats = np.tile(DOWN, (11, 1))
    pos, _ = retime_segment(src, warped, quats)
    assert pos.shape[0] == 26          # 25 steps
    steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    assert np.allclose(steps, 0.01, atol=1e-12)


def test_retime_identity_returns_source():
    rng = np.random.default_rng(8)
    src = np.cumsum(rng.uniform(0.005, 0.02, (15, 3)), axis=0)
    quats = np.tile(DOWN, (15, 1))
    pos, quat = retime_segment(src, src, quats)
    assert pos.shape == src.shape
    assert np.max(np.abs(pos - src)) < 1e-9
    assert np.allclose(quat, quats)


def test_retime_follows_source_time_profile():
    # source with f(0.5) = 0.3: slow first half
    T = 10
    u = np.arange(T + 1) / T
    profile = np.where(u <= 0.5, 0.6 * u, -0.3 + 1.3 * u)   # f(0.5) = 0.3
    L = 0.2
    src = np.stack([profile * L, np.zeros(T + 1), np.zeros(T + 1)], axis=1)
    warped = src * 2.0 + np.array([0.05, 0.0, 0.0])          # straight, L2 = 0.4
    quats = np.tile(DOWN, (T + 1, 1))
    pos, _ = retime_segment(src, warped, quats)
    L_new = arc_length(warped)
    assert pos.shape[0] == 2 * T + 1
    mid = pos[T]                                              # new timestep 0.5
    expected = arc_position(warped, 0.3 * L_new)
    assert np.max(np.abs(mid - expected)) < 1e-9


def test_retime_zero_length_source_copies_timing():
    src = np.zeros((4, 3))
    warped = np.tile([0.3, 0.2, 0.1], (4, 1))
    quats = np.tile(DOWN, (4, 1))
    pos, quat = retime_segment(src, warped, quats)
    assert np.array_equal(pos, warped)
    assert np.array_equal(quat, quats)


def test_retime_step_count_formula_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        src = np.cumsum(rng.uniform(0.004, 0.02, (n + 1, 3)) * [1, 0.3, 0.1],
                        axis=0)
        scale = rng.uniform(0.3, 3.0)
        warped = src * scale
        L, L_new = arc_length(src), arc_length(warped)
        pos, _ = retime_segment(src, warped, np.tile(DOWN, (n + 1, 1)))
        assert pos.shape[0] - 1 == max(1, round(L_new / L * n))


def _pick_place_demo(library, task_id=None):
    task_id = task_id or sorted(library.by_task)[0]
    return library.demos[library.by_task[task_id][0]]


def test_identity_warp_is_exact(library):
    demo = _pick_place_demo(library)
    plan = warp_trajectory(demo, demo.waypoints)
    assert len(plan.trajectory) == len(demo.actions)
    assert np.max(np.abs(plan.trajectory.positions - demo.actions.positions)) < 1e-9
    assert np.array_equal(plan.trajectory.gripper, demo.actions.gripper)
    assert np.array_equal(plan.segment_boundaries, demo.waypoint_indices)


def _independent_uniform_shift_plan(demo, delta):
    """Closed-form expected plan for a rigid waypoint shift: the head blends
    linearly in alpha from zero to delta, everything after is shifted by
    delta, then every segment is arc-length resampled independently."""
    P = demo.actions.positions
    idx = demo.waypoint_indices
    segments = []
    # head
    a, b = 0, idx[0]
    v = demo.waypoints[0] - P[0]
    aa = (P[a:b + 1] - P[0]) @ v / (v @ v)
    segments.append(P[a:b + 1] + aa[:, None] * delta)
    for t in range(len(idx) - 1):
        segments.append(P[idx[t]:idx[t + 1] + 1] + delta)
    if idx[-1] < len(P) - 1:
        segments.append(P[idx[-1]:] + delta)

    out = []
    for seg_src, seg_warp in zip(_slices(P, idx), segments):
        L, L_new = arc_length(seg_src), arc_length(seg_warp)
        steps = len(seg_src) - 1
        new_steps = max(1, round(L_new / L * steps))
        cum = np.concatenate([[0.0], np.cumsum(
            np.linalg.norm(np.diff(seg_src, axis=0), axis=1))])
        f = cum / L
        targets = np.interp(np.arange(new_steps + 1) / new_steps,
                            np.arange(steps + 1) / steps, f) * L_new
        pts = np.array([arc_position(seg_warp, s) for s in targets])
        out.append(pts if not out else pts[1:])
    return np.vstack(out)


def _slices(P, idx):
    yield P[0:idx[0] + 1]
    for t in range(len(idx) - 1):
        yield P[idx[t]:idx[t + 1] + 1]
    if idx[-1] < len(P) - 1:
        yield P[idx[-1]:]


def test_uniform_shift_matches_independent_transformer(library):
    demo = _pick_place_demo(library)
    delta = np.array([0.1, 0.0, 0.0])
    plan = warp_trajectory(demo, demo.waypoints + delta)
    expected = _independent_uniform_shift_plan(demo, delta)
    assert plan.trajectory.positions.shape == expected.shape
    assert np.max(np.abs(plan.trajectory.positions - expected)) < 1e-9
    # tail is rigidly shifted
    tail_start = plan.segment_boundaries[-1]
    src_tail = demo.actions.positions[demo.waypoint_indices[-1]:]
    assert np.allclose(plan.trajectory.positions[tail_start:], src_tail + delta,
                       atol=1e-9)


def test_waypoint_frames_pinned_to_targets(library):
    rng = np.random.default_rng(3)
    demo = _pick_place_demo(library)
    targets = demo.waypoints + rng.uniform(-0.05, 0.05, demo.waypoints.shape)
    plan = warp_trajectory(demo, targets)
    hit = plan.trajectory.positions[plan.segment_boundaries]
    assert np.array_equal(hit, targets)   # pinned verbatim


def test_gripper_toggles_only_at_boundaries(library):
    rng = np.random.default_rng(4)
    for demo_id in [ids[0] for ids in library.by_task.values()]:
        demo = library.demos[demo_id]
        targets = demo.waypoints + rng.uniform(-0.04, 0.04, demo.waypoints.shape)
        plan = warp_trajectory(demo, targets)
        g = plan.trajectory.gripper
        toggles = np.flatnonzero(g[1:] != g[:-1]) + 1
        assert toggles.tolist() == plan.segment_boundaries.tolist()
        assert np.array_equal(g[plan.segment_boundaries],
                              demo.actions.gripper[demo.waypoint_indices])


def test_warped_speed_stays_close_to_source(library):
    rng = np.random.default_rng(5)
    demo = _pick_place_demo(library)
    src_steps = np.linalg.norm(np.diff(demo.actions.positions, axis=0), axis=1)
    for _ in range(10):
        targets = demo.waypoints + rng.uniform(-0.08, 0.08, demo.waypoints.shape)
        plan = warp_trajectory(demo, targets)
        steps = np.linalg.norm(np.diff(plan.trajectory.positions, axis=0), axis=1)
        assert steps.max() <= src_steps.max() * 1.10


def test_single_waypoint_demo(library, layout):
    """One toggle: home-anchored head, rigidly shifted tail."""
    from keywarp.demo import SceneSnapshot, summarize_demo
    n = 9
    t = np.linspace(0, 1, n)
    positions = np.stack([0.3 + 0.3 * t, 0.1 * t, 0.3 - 0.2 * t], axis=1)
    quats = np.tile(DOWN, (n, 1))
    bits = np.zeros(n)
    bits[5:] = 1.0
    traj = trajectory_from_parts(positions, quats, bits)
    snap = SceneSnapshot(rig=layout.rig, objects={}, anchors={})
    demo = summarize_demo(traj, snap, "t", "single")
    assert demo.num_waypoints == 1
    delta = np.array([0.0, 0.05, 0.0])
    plan = warp_trajectory(demo, demo.waypoints + delta)
    # head starts at the home pose, unshifted
    assert np.allclose(plan.trajectory.positions[0], positions[0], atol=1e-12)
    b = plan.segment_boundaries[0]
    assert np.array_equal(plan.trajectory.positions[b], demo.waypoints[0] + delta)
    # tail rigid
    assert np.allclose(plan.trajectory.positions[b:],
                       positions[5:] + delta, atol=1e-9)


def test_length_mismatch_raises(library):
    demo = _pick_place_demo(library)
    with pytest.raises(LengthMismatch):
        warp_trajectory(demo, demo.waypoints[:1])


def test_warping_a_demo_twice_derives_its_basis_once(library, monkeypatch):
    demo = decode_summary(encode_summary(_pick_place_demo(library)))
    derived = []
    derive = keywarp.warp._derive_basis
    monkeypatch.setattr(keywarp.warp, "_derive_basis",
                        lambda d: derived.append(d) or derive(d))
    first = warp_trajectory(demo, demo.waypoints + 0.01)
    second = warp_trajectory(demo, demo.waypoints + 0.01)
    assert derived == [demo]
    assert first.trajectory == second.trajectory
