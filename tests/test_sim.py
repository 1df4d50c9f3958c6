import json

import numpy as np
import pytest
from scipy import stats

from conftest import make_oracle
from keywarp.correspondence import FilterConfig, match_demo
from keywarp.demo import save_demo_library
from keywarp.geometry import project
from keywarp.sim import (ConfigError, CorrespondenceOracle, DemoLibrary,
                         OracleConfig, SlotRegion, WorldParams, execute_plan,
                         generate_seed_demos, layout_from_dict, layout_to_dict,
                         randomize_world, snapshot, spawn_world,
                         symbolic_state)
from keywarp.tasks import BOWL, SHELF, TABLE, builtin_tasks, task_map
from keywarp.warp import warp_trajectory

TASKS = task_map(builtin_tasks())


def world_from_snapshot(layout, snap, params=None):
    """Rebuild a world whose objects sit exactly where a snapshot says."""
    world = spawn_world(layout, seed=0, params=params or WorldParams(
        p_tip=0.0, settle_jitter=0.0))
    for name, state in snap.content.objects.items():
        world.objects[name].position = np.array(state.position)
        world.objects[name].upright = state.upright
    return world


def test_spawn_is_deterministic(layout):
    a = spawn_world(layout, seed=42)
    b = spawn_world(layout, seed=42)
    for name in a.objects:
        assert np.array_equal(a.objects[name].position, b.objects[name].position)
    c = spawn_world(layout, seed=43)
    assert any(not np.array_equal(a.objects[n].position, c.objects[n].position)
               for n in a.objects)


def test_spawn_into_bowl(layout):
    world = spawn_world(layout, seed=1, slots={"pineapple": BOWL, "bowl": TABLE})
    bowl_spec = layout.object_spec("bowl")
    rel = world.objects["pineapple"].position - world.objects["bowl"].position
    assert abs(rel[0]) <= bowl_spec.footprint
    assert abs(rel[1]) <= bowl_spec.footprint
    assert rel[2] == pytest.approx(bowl_spec.interior_offset)
    assert symbolic_state(world).slot_of("pineapple") == BOWL


def test_spawn_overlap_exhaustion_raises(layout):
    import dataclasses
    tiny = dataclasses.replace(layout,
                               table=SlotRegion(0.40, 0.44, -0.02, 0.02, 0.0))
    with pytest.raises(ConfigError):
        spawn_world(tiny, seed=0, min_separation=0.5)


def test_spawn_positions_uniform_chi2(layout):
    """1000 spawns, 4x4 grid over the table region, chi-square p > 0.01."""
    xs, ys = [], []
    for seed in range(1000):
        world = spawn_world(layout, seed=seed,
                            slots={"pineapple": TABLE, "bowl": SHELF})
        x, y, _ = world.objects["pineapple"].position
        xs.append(x)
        ys.append(y)
    region = layout.table
    bx = np.clip(((np.array(xs) - region.x_min)
                  / (region.x_max - region.x_min) * 4).astype(int), 0, 3)
    by = np.clip(((np.array(ys) - region.y_min)
                  / (region.y_max - region.y_min) * 4).astype(int), 0, 3)
    counts = np.bincount(bx * 4 + by, minlength=16)
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


def test_snapshot_is_immutable_copy(layout):
    world = spawn_world(layout, seed=5)
    snap = snapshot(world)
    before = dict(snap.content.objects)
    world.objects["pineapple"].position = world.objects["pineapple"].position + 0.3
    after = snapshot(world)
    assert snap.content.objects == before
    assert snap.state_id != after.state_id


def test_identical_worlds_give_equal_snapshots(layout):
    a = snapshot(spawn_world(layout, seed=7))
    b = snapshot(spawn_world(layout, seed=7))
    assert a.state_id == b.state_id
    assert a.content == b.content


def test_snapshot_matches_like_the_stored_demo(layout):
    """A live snapshot of the same state as a demo matches with score ~0."""
    task = builtin_tasks()[0]
    demos, sidecars = generate_seed_demos(layout, task, n=1, seed=3)
    demo = demos[0]
    oracle = CorrespondenceOracle(OracleConfig())
    for block in ("initial", "final"):
        for a in sidecars[demo.id][block]["annotations"]:
            oracle.register_annotation(sidecars[demo.id][block]["state_id"],
                                       a["view"], a["pixel"], a["anchor"],
                                       a["offset"])
    world = world_from_snapshot(layout, demo.snapshot)
    outcome = match_demo(oracle, demo, snapshot(world))
    assert outcome.feasible
    assert outcome.score < 1e-9


def test_oracle_identity_match_is_exact(library, clean_oracle):
    demo = next(iter(library.demos.values()))
    for view in ("left", "right"):
        m = clean_oracle.match(demo.snapshot, demo.snapshot,
                               demo.keypoints[view][0], view, view)
        assert np.array_equal(m.pixel, demo.keypoints[view][0])
        assert m.confidence == pytest.approx(0.9)


def test_oracle_translated_object_matches_projection(library, clean_oracle, layout):
    demo = library.demos[library.by_task["pineapple_table_to_shelf"][0]]
    world = world_from_snapshot(layout, demo.snapshot)
    delta = np.array([0.1, 0.0, 0.0])
    world.objects["pineapple"].position = (
        world.objects["pineapple"].position + delta)
    target = snapshot(world)
    grasp_offset = np.asarray(layout.object_spec("pineapple").grasp_offset)
    expected_point = world.objects["pineapple"].position + grasp_offset
    for view in ("left", "right"):
        m = clean_oracle.match(demo.snapshot, target,
                               demo.keypoints[view][0], view, view)
        assert np.allclose(m.pixel, project(layout.rig.camera(view),
                                            expected_point), atol=1e-9)
    outcome = match_demo(clean_oracle, demo, target)
    assert np.max(np.abs(outcome.target_waypoints[0]
                         - (demo.waypoints[0] + delta))) < 1e-6


def test_oracle_no_match_when_object_removed(library, clean_oracle, layout):
    demo = library.demos[library.by_task["pineapple_table_to_shelf"][0]]
    content = demo.snapshot.content
    from keywarp.demo import SceneSnapshot, SemanticScene
    stripped = SceneSnapshot(rig=demo.snapshot.rig, content=SemanticScene(
        objects={k: v for k, v in content.objects.items() if k != "pineapple"},
        anchors=content.anchors))
    m = clean_oracle.match(demo.snapshot, stripped,
                           demo.keypoints["left"][0], "left", "left")
    assert m is None


def test_oracle_full_outlier_rate_rejects(library):
    """outlier_rate=1: every trial contaminated, >= 95% of demos rejected."""
    rejected = 0
    trials = 200
    demos = list(library.demos.values())
    for trial in range(trials):
        oracle = make_oracle(library, outlier_rate=1.0, seed=trial)
        demo = demos[trial % len(demos)]
        outcome = match_demo(oracle, demo, demo.snapshot, FilterConfig(),
                             library.demo_side_distances[demo.id])
        rejected += int(not outcome.feasible)
    assert rejected / trials >= 0.95


def test_oracle_outlier_confidence_flags(library):
    oracle = make_oracle(library, outlier_rate=1.0, seed=0)
    demo = next(iter(library.demos.values()))
    m = oracle.match(demo.snapshot, demo.snapshot,
                     demo.keypoints["left"][0], "left", "left")
    assert m.confidence == pytest.approx(0.1)
    k = demo.snapshot.rig.left.intrinsics
    assert 0 <= m.pixel[0] <= k.width and 0 <= m.pixel[1] <= k.height


def _anchor_scene(rig, **anchors):
    from keywarp.demo import SceneSnapshot, SemanticScene
    return SceneSnapshot(rig=rig, content=SemanticScene(objects={}, anchors=anchors))


def test_oracle_duplicate_pixel_resolves_to_first_registration(layout):
    scene = _anchor_scene(layout.rig, a=(0.3, 0.0, 0.0), b=(0.6, 0.2, 0.1))
    oracle = CorrespondenceOracle()
    for anchor in ("a", "b"):
        oracle.register_annotation(scene.state_id, "left", [10.0, 20.0],
                                   anchor, [0.0, 0.0, 0.0])
    m = oracle.match(scene, scene, np.array([10.0, 20.0]), "left", "right")
    assert np.array_equal(m.pixel, project(layout.rig.right, [0.3, 0.0, 0.0]))


def test_oracle_lookup_tolerance_is_1e6_px(layout):
    scene = _anchor_scene(layout.rig, a=(0.3, 0.0, 0.0))
    oracle = CorrespondenceOracle()
    oracle.register_annotation(scene.state_id, "left", [10.0, 20.0], "a",
                               [0.0, 0.0, 0.0])
    assert oracle.match(scene, scene, [10.0 + 5e-7, 20.0], "left", "right") is not None
    assert oracle.match(scene, scene, [10.0, 20.0 - 5e-7], "left", "right") is not None
    assert oracle.match(scene, scene, [10.0 + 2e-6, 20.0], "left", "right") is None


def _moved(layout, snap, delta):
    world = world_from_snapshot(layout, snap)
    for state in world.objects.values():
        state.position = state.position + delta
    return snapshot(world)


def test_oracle_memo_keeps_only_the_latest_observation(library, clean_oracle, layout):
    demo = library.demos[library.by_task["pineapple_table_to_bowl"][0]]
    n_annotations = sum(map(len, clean_oracle._annotations.values()))
    for i in range(50):
        target = _moved(layout, demo.snapshot, np.array([0.002 * (i + 1), 0.0, 0.0]))
        assert match_demo(clean_oracle, demo, target, FilterConfig(),
                          library.demo_side_distances[demo.id]).feasible
    assert list(clean_oracle._memo) == [target.state_id]
    assert sum(map(len, clean_oracle._annotations.values())) == n_annotations


def test_oracle_live_demo_side_queries_keep_the_observation_memo(
        library, clean_oracle, layout):
    """Cross-view queries into the (registered) demo scene sit between the
    observation's matches and its own cross-view queries; they must not
    evict the observation's memo."""
    demo = library.demos[library.by_task["pineapple_table_to_bowl"][0]]
    for i in range(3):
        target = _moved(layout, demo.snapshot, np.array([0.0, 0.01 * (i + 1), 0.0]))
        outcome = match_demo(clean_oracle, demo, target, demo_side_distances=None)
        assert outcome.feasible
        assert np.max(outcome.cross_view_gaps) < 1e-6
    assert set(clean_oracle._memo) == {demo.snapshot.state_id, target.state_id}


def test_oracle_deterministic_per_query(library):
    a = make_oracle(library, pixel_noise_sigma=2.0, outlier_rate=0.3, seed=5)
    b = make_oracle(library, pixel_noise_sigma=2.0, outlier_rate=0.3, seed=5)
    demo = next(iter(library.demos.values()))
    for view in ("left", "right"):
        for t in range(demo.num_waypoints):
            ma = a.match(demo.snapshot, demo.snapshot,
                         demo.keypoints[view][t], view, view)
            mb = b.match(demo.snapshot, demo.snapshot,
                         demo.keypoints[view][t], view, view)
            assert np.array_equal(ma.pixel, mb.pixel)
            assert ma.confidence == mb.confidence
            # repeated query on the same instance too
            mc = a.match(demo.snapshot, demo.snapshot,
                         demo.keypoints[view][t], view, view)
            assert np.array_equal(ma.pixel, mc.pixel)


def test_execute_grasps_and_places(layout, library, clean_oracle):
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    world = world_from_snapshot(layout, demo.snapshot)
    outcome = match_demo(clean_oracle, demo, snapshot(world))
    plan = warp_trajectory(demo, outcome.target_waypoints)
    trace = execute_plan(world, plan)
    assert trace.grasped
    assert symbolic_state(world).slot_of("pineapple") == SHELF
    assert trace.out_of_bounds == 0


def test_execute_far_close_does_not_attach(layout):
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=9, params=WorldParams(p_tip=0.0,
                                                           settle_jitter=0.0))
    pre = symbolic_state(world)
    # close the gripper 5 cm above the pineapple's grasp point
    gp = world.objects["pineapple"].position + np.asarray(
        layout.object_spec("pineapple").grasp_offset)
    far = gp + np.array([0.05, 0.0, 0.0])
    positions = np.array([layout.home, far, far, layout.home])
    quats = np.tile(layout.home_orientation, (4, 1))
    traj = trajectory_from_parts(positions, quats, np.array([0, 0, 1, 1], float))
    trace = execute_plan(world, traj, grasp_radius=0.03)
    assert not trace.grasped
    assert any(e["kind"] == "grasp_miss" for e in trace.events)
    assert symbolic_state(world) == pre


def test_forced_tip_on_high_drop(layout):
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=11,
                        params=WorldParams(p_tip=1.0, settle_jitter=0.0))
    gp = world.objects["pineapple"].position + np.asarray(
        layout.object_spec("pineapple").grasp_offset)
    high = gp + np.array([0.0, 0.0, 0.2])
    positions = np.array([layout.home, gp, gp, high, high, layout.home])
    quats = np.tile(layout.home_orientation, (6, 1))
    traj = trajectory_from_parts(positions, quats,
                                 np.array([0, 0, 1, 1, 0, 0], float))
    trace = execute_plan(world, traj)
    release = next(e for e in trace.events if e["kind"] == "release")
    assert release["tipped"]
    assert release["slot"] == TABLE
    assert not world.objects["pineapple"].upright
    assert world.objects["pineapple"].position[2] == pytest.approx(0.0)


def test_execution_conservation(layout):
    """Objects stay inside the workspace; the held object tracks the gripper."""
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=13, params=WorldParams(settle_jitter=0.0,
                                                            p_tip=0.0))
    gp = world.objects["pineapple"].position + np.asarray(
        layout.object_spec("pineapple").grasp_offset)
    wild = np.array([2.0, 2.0, 2.0])   # far outside the workspace
    positions = np.array([layout.home, gp, gp, wild, wild, layout.home])
    quats = np.tile(layout.home_orientation, (6, 1))
    traj = trajectory_from_parts(positions, quats,
                                 np.array([0, 0, 1, 1, 0, 0], float))
    trace = execute_plan(world, traj)
    assert trace.out_of_bounds > 0
    lo, hi = np.array(layout.workspace_min), np.array(layout.workspace_max)
    for obj in world.objects.values():
        assert np.all(obj.position >= lo - 1e-9)
        assert np.all(obj.position <= hi + 1e-9)
    # grasp event recorded the snap onto the gripper
    grasp = next(e for e in trace.events if e["kind"] == "grasp")
    assert grasp["object"] == "pineapple"


def test_attached_object_tracks_gripper(layout):
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=17, params=WorldParams(settle_jitter=0.0,
                                                            p_tip=0.0))
    spec = layout.object_spec("pineapple")
    gp = world.objects["pineapple"].position + np.asarray(spec.grasp_offset)
    mid = gp + np.array([0.1, 0.05, 0.1])
    positions = np.array([layout.home, gp, gp, mid])
    quats = np.tile(layout.home_orientation, (4, 1))
    traj = trajectory_from_parts(positions, quats, np.array([0, 0, 1, 1], float))
    execute_plan(world, traj)
    assert world.attached == "pineapple"
    assert np.allclose(world.objects["pineapple"].position,
                       world.gripper_position - np.asarray(spec.grasp_offset))


def test_bowl_carries_contents(layout):
    """Grasping the bowl moves the pineapple inside it; both settle together."""
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=19, slots={"pineapple": BOWL, "bowl": TABLE},
                        params=WorldParams(settle_jitter=0.0, p_tip=0.0))
    bowl_spec = layout.object_spec("bowl")
    gp = world.objects["bowl"].position + np.asarray(bowl_spec.grasp_offset)
    dest = np.array([layout.shelf.center[0], layout.shelf.center[1],
                     layout.shelf.z + bowl_spec.grasp_offset[2] + 0.005])
    lift = gp + np.array([0, 0, 0.15])
    above = dest + np.array([0, 0, 0.15])
    positions = np.array([layout.home, gp, gp, lift, above, dest, dest, above])
    quats = np.tile(layout.home_orientation, (8, 1))
    traj = trajectory_from_parts(positions, quats,
                                 np.array([0, 0, 1, 1, 1, 1, 0, 0], float))
    execute_plan(world, traj)
    state = symbolic_state(world)
    assert state.slot_of("bowl") == SHELF
    assert state.slot_of("pineapple") == BOWL


def test_settling_deterministic_per_seed(layout, library, clean_oracle):
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]

    def run(seed):
        world = spawn_world(layout, seed=seed,
                            params=WorldParams(settle_jitter=0.01, p_tip=0.5))
        for name, state in demo.snapshot.content.objects.items():
            world.objects[name].position = np.array(state.position)
        outcome = match_demo(clean_oracle, demo, snapshot(world))
        plan = warp_trajectory(demo, outcome.target_waypoints)
        trace = execute_plan(world, plan)
        return trace, {k: v.position.copy() for k, v in world.objects.items()}

    t1, w1 = run(23)
    t2, w2 = run(23)
    assert t1.events == t2.events
    for k in w1:
        assert np.array_equal(w1[k], w2[k])


def test_symbolic_state_examples(layout):
    world = spawn_world(layout, seed=29, slots={"pineapple": BOWL, "bowl": TABLE})
    s = symbolic_state(world)
    assert s.slot_of("pineapple") == BOWL
    assert s.slot_of("bowl") == TABLE
    world.objects["bowl"].upright = False
    s2 = symbolic_state(world)
    assert not s2.is_upright("bowl")
    # a tipped bowl no longer contains
    assert s2.slot_of("pineapple") == TABLE


def test_generated_demos_replay_successfully(layout):
    """Each scripted demo, executed verbatim in its own start world, succeeds."""
    for task in builtin_tasks():
        demos, _ = generate_seed_demos(layout, task, n=3, seed=31)
        for demo in demos:
            world = world_from_snapshot(layout, demo.snapshot)
            pre = symbolic_state(world)
            assert task.precondition(pre)
            trace = execute_plan(world, demo.actions)
            post = symbolic_state(world)
            assert trace.grasped
            assert post.slot_of(task.obj) == task.dest
            others = [o for o, _ in pre.slots if o != task.obj]
            assert all(post.slot_of(o) == pre.slot_of(o) for o in others)


def test_demo_library_files_and_sidecars(tmp_path, layout):
    demos, sidecars = generate_seed_demos(layout, builtin_tasks()[2], n=2, seed=1)
    save_demo_library(tmp_path / "lib", demos, sidecars)
    lib = DemoLibrary.load(tmp_path / "lib")
    assert sorted(lib.demos) == sorted(d.id for d in demos)
    for demo_id in lib.demos:
        side = lib.sidecars[demo_id]
        assert {"initial", "final"} <= set(side)
        assert len(side["initial"]["annotations"]) == 4   # 2 views x 2 keypoints
        assert len(side["final"]["annotations"]) == 2
        assert demo_id in lib.final_snapshots
        assert demo_id in lib.demo_side_distances


def test_unstageable_demo_task_raises(layout):
    from keywarp.sim import PreconditionUnsatisfiable
    from keywarp.tasks import TaskSpec
    impossible = TaskSpec(id="bowl_bowl_to_table", name="bowl out of itself",
                          obj="bowl", source=BOWL, dest=TABLE)
    with pytest.raises(PreconditionUnsatisfiable):
        generate_seed_demos(layout, impossible, n=1, seed=0)


def test_randomize_world_resets_cleanly(layout):
    world = spawn_world(layout, seed=37)
    world.objects["pineapple"].upright = False
    world.attached = "pineapple"
    randomize_world(world)
    assert world.attached is None
    assert all(o.upright for o in world.objects.values())
    assert np.array_equal(world.gripper_position, np.array(layout.home))


def test_layout_dict_roundtrip(layout):
    doc = layout_to_dict(layout)
    clone = layout_from_dict(json.loads(json.dumps(doc)))
    assert clone == layout
    bad = dict(doc)
    del bad["table"]
    with pytest.raises(ConfigError):
        layout_from_dict(bad)
