import builtins
import collections
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import drop_key, json_key_paths, make_oracle
from keywarp.correspondence import FilterConfig, match_demo
from keywarp.demo import ObjectState, SceneSnapshot, SchemaError, save_demo_library
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
    world.set_objects(snap.objects)
    return world


def set_object(world, name, **changes):
    """Replace the `changes` fields of one object's state in the world."""
    objects = world.scene.objects
    world.set_objects(dict(objects, **{name: dataclasses.replace(objects[name], **changes)}))


def position(world, name):
    return np.array(world.scene.objects[name].position)


def test_spawn_is_deterministic(layout):
    a = spawn_world(layout, seed=42)
    b = spawn_world(layout, seed=42)
    assert a.scene.objects == b.scene.objects
    c = spawn_world(layout, seed=43)
    assert a.scene.objects != c.scene.objects


def test_spawn_into_bowl(layout):
    world = spawn_world(layout, seed=1, slots={"pineapple": BOWL, "bowl": TABLE})
    bowl_spec = layout.object_spec("bowl")
    rel = position(world, "pineapple") - position(world, "bowl")
    assert abs(rel[0]) <= bowl_spec.footprint
    assert abs(rel[1]) <= bowl_spec.footprint
    assert rel[2] == pytest.approx(bowl_spec.interior_offset)
    assert symbolic_state(world).slot_of("pineapple") == BOWL


def test_spawn_overlap_exhaustion_raises(layout):
    import dataclasses
    tiny = dataclasses.replace(layout,
                               table=SlotRegion(0.40, 0.44, -0.02, 0.02, 0.0))
    with pytest.raises(ConfigError):
        spawn_world(tiny, seed=0)


def test_spawn_positions_uniform_chi2(layout):
    """1000 spawns, 4x4 grid over the table region, chi-square p > 0.01."""
    xs, ys = [], []
    for seed in range(1000):
        world = spawn_world(layout, seed=seed,
                            slots={"pineapple": TABLE, "bowl": SHELF})
        x, y, _ = world.scene.objects["pineapple"].position
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
    before = dict(snap.objects)
    set_object(world, "pineapple", position=tuple(position(world, "pineapple") + 0.3))
    after = snapshot(world)
    assert snap.objects == before
    assert snap.state_id != after.state_id


def test_identical_worlds_give_equal_snapshots(layout):
    a = snapshot(spawn_world(layout, seed=7))
    b = snapshot(spawn_world(layout, seed=7))
    assert a.state_id == b.state_id
    assert a == b


def test_state_id_is_pinned_and_does_not_depend_on_the_scalar_type(layout):
    """A live scene of the default layout keeps the id earlier versions
    stored for it, and the same scene with its positions as Python floats
    has that id too."""
    snap = snapshot(spawn_world(layout, 0))
    assert snap.state_id == "6b96a22a11f0397cd7a47e07"
    as_floats = SceneSnapshot(rig=snap.rig, anchors=snap.anchors, objects={
        k: ObjectState(tuple(map(float, o.position)), o.upright)
        for k, o in snap.objects.items()})
    assert as_floats.state_id == snap.state_id


def test_snapshot_matches_like_the_stored_demo(layout):
    """A live snapshot of the same state as a demo matches with score ~0."""
    task = builtin_tasks()[0]
    demos, sidecars = generate_seed_demos(layout, task, n=1, seed=3)
    demo = demos[0]
    library = DemoLibrary(demos, sidecars)
    oracle = CorrespondenceOracle(OracleConfig())
    library.register_with(oracle)
    world = world_from_snapshot(layout, demo.snapshot)
    outcome = match_demo(oracle, demo, snapshot(world), FilterConfig(),
                         library.demo_side_distances[demo.id])
    assert outcome.feasible
    assert outcome.score < 1e-9


def test_oracle_identity_match_is_exact(library, clean_oracle):
    demo = next(iter(library.demos.values()))
    for view in ("left", "right"):
        pixel = clean_oracle.match(demo.snapshot, demo.snapshot,
                                   demo.keypoints[view][0], view, view)
        assert pixel.shape == (2,)
        assert np.array_equal(pixel, demo.keypoints[view][0])


def test_oracle_translated_object_matches_projection(library, clean_oracle, layout):
    demo = library.demos[library.by_task["pineapple_table_to_shelf"][0]]
    world = world_from_snapshot(layout, demo.snapshot)
    delta = np.array([0.1, 0.0, 0.0])
    set_object(world, "pineapple", position=tuple(position(world, "pineapple") + delta))
    target = snapshot(world)
    grasp_offset = np.asarray(layout.object_spec("pineapple").grasp_offset)
    expected_point = position(world, "pineapple") + grasp_offset
    for view in ("left", "right"):
        pixel = clean_oracle.match(demo.snapshot, target,
                                   demo.keypoints[view][0], view, view)
        assert np.allclose(pixel, project(layout.rig.camera(view),
                                          expected_point), atol=1e-9)
    outcome = match_demo(clean_oracle, demo, target, FilterConfig(),
                         library.demo_side_distances[demo.id])
    assert np.max(np.abs(outcome.target_waypoints[0]
                         - (demo.waypoints[0] + delta))) < 1e-6


def test_oracle_no_match_when_object_removed(library, clean_oracle, layout):
    demo = library.demos[library.by_task["pineapple_table_to_shelf"][0]]
    scene = demo.snapshot
    stripped = SceneSnapshot(rig=scene.rig, anchors=scene.anchors, objects={
        k: v for k, v in scene.objects.items() if k != "pineapple"})
    assert clean_oracle.match(demo.snapshot, stripped,
                              demo.keypoints["left"][0], "left", "left") is None


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


def test_oracle_outlier_is_a_junk_in_image_pixel(library, clean_oracle):
    """An outlier replaces the true match by another pixel in the image."""
    oracle = make_oracle(library, outlier_rate=1.0, seed=0)
    demo = next(iter(library.demos.values()))
    query = (demo.snapshot, demo.snapshot, demo.keypoints["left"][0], "left", "left")
    pixel = oracle.match(*query)
    assert pixel.shape == (2,)
    assert not np.array_equal(pixel, clean_oracle.match(*query))
    k = demo.snapshot.rig.left.intrinsics
    assert 0 <= pixel[0] <= k.width and 0 <= pixel[1] <= k.height


def _anchor_scene(rig, **anchors):
    return SceneSnapshot(rig=rig, objects={}, anchors=anchors)


def test_oracle_duplicate_pixel_resolves_to_first_registration(layout):
    scene = _anchor_scene(layout.rig, a=(0.3, 0.0, 0.0), b=(0.6, 0.2, 0.1))
    oracle = CorrespondenceOracle()
    for anchor in ("a", "b"):
        oracle.register_annotation(scene.state_id, "left", [10.0, 20.0],
                                   anchor, [0.0, 0.0, 0.0])
    pixel = oracle.match(scene, scene, np.array([10.0, 20.0]), "left", "right")
    assert np.array_equal(pixel, project(layout.rig.right, [0.3, 0.0, 0.0]))


def test_oracle_lookup_is_exact(layout):
    scene = _anchor_scene(layout.rig, a=(0.3, 0.0, 0.0))
    oracle = CorrespondenceOracle()
    oracle.register_annotation(scene.state_id, "left", [10.0, 20.0], "a",
                               [0.0, 0.0, 0.0])
    assert oracle.match(scene, scene, [10.0, 20.0], "left", "right") is not None
    assert oracle.match(scene, scene, [10.0 + 5e-7, 20.0], "left", "right") is None
    assert oracle.match(scene, scene, [10.0, 20.0 - 5e-7], "left", "right") is None


def _moved(layout, snap, delta):
    world = spawn_world(layout, seed=0)
    world.set_objects({k: dataclasses.replace(o, position=tuple(np.add(o.position, delta)))
                       for k, o in snap.objects.items()})
    return snapshot(world)


def test_oracle_memo_keeps_only_the_latest_observation(library, clean_oracle, layout):
    demo = library.demos[library.by_task["pineapple_table_to_bowl"][0]]
    n_annotations = sum(map(len, clean_oracle._annotations.values()))
    for i in range(50):
        target = _moved(layout, demo.snapshot, np.array([0.002 * (i + 1), 0.0, 0.0]))
        assert match_demo(clean_oracle, demo, target, FilterConfig(),
                          library.demo_side_distances[demo.id]).feasible
    assert clean_oracle._memo_state == target.state_id
    assert sum(map(len, clean_oracle._annotations.values())) == n_annotations


def test_oracle_projection_memo_holds_one_scene_and_hands_out_read_only_pixels(
        library, clean_oracle, layout):
    """A repeated clean match into one scene is the memoized pixel itself;
    a match into another scene drops the memo, so the scene's next match is
    projected afresh, to the same value."""
    demo = next(iter(library.demos.values()))
    a, b = (snapshot(spawn_world(layout, seed=s)) for s in (1, 2))

    def match(scene):
        return clean_oracle.match(demo.snapshot, scene, demo.keypoints["left"][0],
                                  "left", "left")

    first = match(a)
    assert match(a) is first
    with pytest.raises(ValueError):
        first[0] = 0.0
    match(b)
    again = match(a)
    assert again is not first and np.array_equal(again, first)


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
            assert np.array_equal(ma, mb)
            # repeated query on the same instance too
            mc = a.match(demo.snapshot, demo.snapshot,
                         demo.keypoints[view][t], view, view)
            assert np.array_equal(ma, mc)


N_QUERIES = 20_000


def _replies(layout, **config):
    """An oracle's replies to N_QUERIES distinct left-view pixels, each
    annotated on one anchor, matched into the right view of the same scene,
    and the clean match they all share."""
    scene = _anchor_scene(layout.rig, a=(0.3, 0.0, 0.0))
    oracle = CorrespondenceOracle(OracleConfig(**config))
    pixels = [(float(i % 400), 0.5 * (i // 400)) for i in range(N_QUERIES)]
    for pixel in pixels:
        oracle.register_annotation(scene.state_id, "left", pixel, "a", (0.0, 0.0, 0.0))
    replies = np.array([oracle.match(scene, scene, p, "left", "right") for p in pixels])
    return replies, project(layout.rig.right, [0.3, 0.0, 0.0])


@pytest.mark.parametrize("rate", [0.05, 0.5, 1.0])
def test_oracle_outlier_share_is_the_outlier_rate(layout, rate):
    """Without noise a reply is an outlier exactly when it is not the clean
    match; outliers are in-image pixels, and at rate 1 every reply is one."""
    replies, clean = _replies(layout, outlier_rate=rate, seed=3)
    outlier = (replies != clean).any(axis=1)
    if rate == 1.0:
        assert outlier.all()
    assert abs(outlier.mean() - rate) <= 4 * math.sqrt(rate * (1 - rate) / N_QUERIES)
    k = layout.rig.right.intrinsics
    junk = replies[outlier]
    assert ((junk >= 0) & (junk < [k.width, k.height])).all()


def test_oracle_noise_is_gaussian_with_sigma(layout):
    sigma = 2.0
    replies, clean = _replies(layout, pixel_noise_sigma=sigma, seed=4)
    noise = replies - clean
    bound = 4 * sigma / math.sqrt(N_QUERIES)
    assert (abs(noise.mean(axis=0)) <= bound).all()
    assert (abs(noise.std(axis=0) - sigma) <= bound).all()
    for component in noise.T:
        assert stats.kstest(component, "norm", args=(0.0, sigma)).pvalue > 1e-4
    assert abs(np.corrcoef(noise.T)[0, 1]) <= 4 / math.sqrt(N_QUERIES)


def test_oracle_replies_are_a_function_of_the_seed(layout):
    config = dict(pixel_noise_sigma=2.0, outlier_rate=0.05)
    a, _ = _replies(layout, seed=7, **config)
    b, _ = _replies(layout, seed=7, **config)
    c, _ = _replies(layout, seed=8, **config)
    assert np.array_equal(a, b)
    assert (a != c).any(axis=1).all()


def test_oracle_corrupts_demos_sharing_a_grasp_annotation_independently(library, layout,
                                                                       clean_oracle):
    """Every demo of a task grasps at one (anchor, offset), so their clean
    matches into one observation coincide; the corruption is keyed on each
    demo's own query, so their corrupted matches do not."""
    oracle = make_oracle(library, pixel_noise_sigma=2.0, seed=0)
    obs = snapshot(spawn_world(layout, seed=3))
    for task, demo_ids in library.by_task.items():
        grasps = {(side["anchor"], tuple(side["offset"]))
                  for side in (library.sidecars[d]["initial"]["anchors"][0]
                               for d in demo_ids)}
        assert len(grasps) == 1
        queries = [(library.demos[d].snapshot, obs, library.demos[d].keypoints["left"][0],
                    "left", "left") for d in demo_ids]
        clean = {tuple(clean_oracle.match(*q).tolist()) for q in queries}
        noisy = {tuple(oracle.match(*q).tolist()) for q in queries}
        assert len(clean) == 1
        assert len(noisy) == len(demo_ids)


def test_execute_grasps_and_places(layout, library, clean_oracle):
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    world = world_from_snapshot(layout, demo.snapshot)
    outcome = match_demo(clean_oracle, demo, snapshot(world), FilterConfig(),
                         library.demo_side_distances[demo.id])
    plan = warp_trajectory(demo, outcome.target_waypoints)
    trace = execute_plan(world, plan.trajectory)
    assert any(e["kind"] == "grasp" for e in trace.events)
    assert symbolic_state(world).slot_of("pineapple") == SHELF
    assert trace.out_of_bounds == 0


def test_execute_far_close_does_not_attach(layout):
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=9, params=WorldParams(p_tip=0.0,
                                                           settle_jitter=0.0))
    pre = symbolic_state(world)
    # close the gripper 5 cm above the pineapple's grasp point
    gp = position(world, "pineapple") + np.asarray(
        layout.object_spec("pineapple").grasp_offset)
    far = gp + np.array([0.05, 0.0, 0.0])
    positions = np.array([layout.home, far, far, layout.home])
    quats = np.tile(layout.home_orientation, (4, 1))
    traj = trajectory_from_parts(positions, quats, np.array([0, 0, 1, 1], float))
    trace = execute_plan(world, traj)
    assert not any(e["kind"] == "grasp" for e in trace.events)
    assert any(e["kind"] == "grasp_miss" for e in trace.events)
    assert symbolic_state(world) == pre


def test_forced_tip_on_high_drop(layout):
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=11,
                        params=WorldParams(p_tip=1.0, settle_jitter=0.0))
    gp = position(world, "pineapple") + np.asarray(
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
    assert not world.scene.objects["pineapple"].upright
    assert world.scene.objects["pineapple"].position[2] == pytest.approx(0.0)


def test_execution_conservation(layout):
    """Objects stay inside the workspace; the held object tracks the gripper."""
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=13, params=WorldParams(settle_jitter=0.0,
                                                            p_tip=0.0))
    gp = position(world, "pineapple") + np.asarray(
        layout.object_spec("pineapple").grasp_offset)
    wild = np.array([2.0, 2.0, 2.0])   # far outside the workspace
    positions = np.array([layout.home, gp, gp, wild, wild, layout.home])
    quats = np.tile(layout.home_orientation, (6, 1))
    traj = trajectory_from_parts(positions, quats,
                                 np.array([0, 0, 1, 1, 0, 0], float))
    trace = execute_plan(world, traj)
    assert trace.out_of_bounds > 0
    lo, hi = np.array(layout.workspace_min), np.array(layout.workspace_max)
    for obj in world.scene.objects.values():
        assert np.all(np.array(obj.position) >= lo - 1e-9)
        assert np.all(np.array(obj.position) <= hi + 1e-9)
    # grasp event recorded the snap onto the gripper
    grasp = next(e for e in trace.events if e["kind"] == "grasp")
    assert grasp["object"] == "pineapple"


def test_attached_object_tracks_gripper(layout):
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=17, params=WorldParams(settle_jitter=0.0,
                                                            p_tip=0.0))
    spec = layout.object_spec("pineapple")
    gp = position(world, "pineapple") + np.asarray(spec.grasp_offset)
    mid = gp + np.array([0.1, 0.05, 0.1])
    positions = np.array([layout.home, gp, gp, mid])
    quats = np.tile(layout.home_orientation, (4, 1))
    traj = trajectory_from_parts(positions, quats, np.array([0, 0, 1, 1], float))
    execute_plan(world, traj)
    assert world.attached == "pineapple"
    assert np.allclose(position(world, "pineapple"),
                       world.gripper_position - np.asarray(spec.grasp_offset))


def test_bowl_carries_contents(layout):
    """Grasping the bowl moves the pineapple inside it; both settle together."""
    from keywarp.demo import trajectory_from_parts
    world = spawn_world(layout, seed=19, slots={"pineapple": BOWL, "bowl": TABLE},
                        params=WorldParams(settle_jitter=0.0, p_tip=0.0))
    bowl_spec = layout.object_spec("bowl")
    gp = position(world, "bowl") + np.asarray(bowl_spec.grasp_offset)
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
        world.set_objects(demo.snapshot.objects)
        outcome = match_demo(clean_oracle, demo, snapshot(world), FilterConfig(),
                             library.demo_side_distances[demo.id])
        plan = warp_trajectory(demo, outcome.target_waypoints)
        trace = execute_plan(world, plan.trajectory)
        return trace, world.scene.objects

    t1, w1 = run(23)
    t2, w2 = run(23)
    assert t1.events == t2.events
    assert w1 == w2


def test_symbolic_state_examples(layout):
    world = spawn_world(layout, seed=29, slots={"pineapple": BOWL, "bowl": TABLE})
    s = symbolic_state(world)
    assert s.slot_of("pineapple") == BOWL
    assert s.slot_of("bowl") == TABLE
    set_object(world, "bowl", upright=False)
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
            assert any(e["kind"] == "grasp" for e in trace.events)
            assert post.slot_of(task.obj) == task.dest
            others = [o for o, _ in pre.slots if o != task.obj]
            assert all(post.slot_of(o) == pre.slot_of(o) for o in others)


def test_demo_library_files_and_sidecars(tmp_path, layout):
    demos, sidecars = generate_seed_demos(layout, builtin_tasks()[2], n=2, seed=1)
    save_demo_library(tmp_path / "lib", demos, sidecars)
    lib = DemoLibrary.load(tmp_path / "lib")
    assert sorted(lib.demos) == sorted(d.id for d in demos)
    for demo_id, demo in lib.demos.items():
        side = lib.sidecars[demo_id]
        assert set(side) == {"initial", "final"}
        assert len(side["initial"]["anchors"]) == demo.num_waypoints == 2
        assert set(side["final"]) == {"scene", "anchor", "offset"}
        assert demo_id in lib.final_snapshots
        assert demo_id in lib.demo_side_distances


def test_every_library_key_is_read(tmp_path, layout):
    """Deleting any one key of the index, of a summary or of a sidecar makes
    loading and registering the library fail, so the format holds no key
    that nothing reads. Object and anchor names are data, not schema."""
    demos, sidecars = generate_seed_demos(layout, builtin_tasks()[0], n=1, seed=0)
    save_demo_library(tmp_path, demos, sidecars)
    unread = []
    for name in ("index.json", f"{demos[0].id}.json", f"{demos[0].id}.sidecar.json"):
        original = (tmp_path / name).read_text()
        doc = json.loads(original)
        for keys in json_key_paths(doc, names=("objects", "anchors")):
            broken = copy.deepcopy(doc)
            drop_key(broken, keys)
            (tmp_path / name).write_text(json.dumps(broken))
            try:
                DemoLibrary.load(tmp_path).register_with(CorrespondenceOracle())
                unread.append((name, keys))
            except (SchemaError, ConfigError):
                pass
        (tmp_path / name).write_text(original)
    assert unread == []


def test_library_digest_covers_every_file_it_reads(tmp_path, layout):
    """The digest is that of the library's bytes, wherever it lies: a copy
    has the same one, and a change to the index, a summary or a sidecar
    (here one trailing space, which leaves the JSON the same) changes it.
    Loading with another digest is a ConfigError naming the directory."""
    demos, sidecars = generate_seed_demos(layout, builtin_tasks()[0], n=2, seed=0)
    save_demo_library(tmp_path / "a", demos, sidecars)
    save_demo_library(tmp_path / "b", demos, sidecars)
    digest = DemoLibrary.load(tmp_path / "a").digest
    assert len(digest) == 64 and DemoLibrary.load(tmp_path / "b").digest == digest
    assert DemoLibrary.load(tmp_path / "a", digest).digest == digest
    entry = json.loads((tmp_path / "a" / "index.json").read_text())["demos"][1]
    seen = {digest}
    for name in ("index.json", entry["file"], entry["sidecar"]):
        path = tmp_path / "a" / name
        path.write_text(path.read_text() + " ")
        seen.add(DemoLibrary.load(tmp_path / "a").digest)
    assert len(seen) == 4
    with pytest.raises(ConfigError) as e:
        DemoLibrary.load(tmp_path / "a", digest)
    assert str(tmp_path / "a") in str(e.value)


def test_load_reads_each_file_once_and_hashes_the_bytes_parsed(tmp_path, layout,
                                                              monkeypatch):
    """A load opens each library file once, and its digest is the sha256 of
    those bytes: the index, then each entry's summary and its sidecar."""
    demos, sidecars = generate_seed_demos(layout, builtin_tasks()[0], n=2, seed=0)
    save_demo_library(tmp_path, demos, sidecars)
    entries = json.loads((tmp_path / "index.json").read_text())["demos"]
    names = ["index.json"] + [e[key] for e in entries for key in ("file", "sidecar")]
    expected = hashlib.sha256(b"".join((tmp_path / n).read_bytes() for n in names))
    reads, real_open = collections.Counter(), io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == tmp_path:
            reads[Path(file).name] += 1
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    library = DemoLibrary.load(tmp_path)
    assert reads == collections.Counter(names)
    assert library.digest == expected.hexdigest()


def test_unstageable_demo_task_raises(layout):
    from keywarp.sim import PreconditionUnsatisfiable
    from keywarp.tasks import TaskSpec
    impossible = TaskSpec(id="bowl_bowl_to_table", name="bowl out of itself",
                          obj="bowl", source=BOWL, dest=TABLE)
    with pytest.raises(PreconditionUnsatisfiable):
        generate_seed_demos(layout, impossible, n=1, seed=0)


def test_randomize_world_resets_cleanly(layout):
    world = spawn_world(layout, seed=37)
    set_object(world, "pineapple", upright=False)
    world.attached = "pineapple"
    randomize_world(world)
    assert world.attached is None
    assert all(o.upright for o in world.scene.objects.values())
    assert np.array_equal(world.gripper_position, np.array(layout.home))


def test_layout_dict_roundtrip(layout):
    doc = layout_to_dict(layout)
    clone = layout_from_dict(json.loads(json.dumps(doc)))
    assert clone == layout
    bad = dict(doc)
    del bad["table"]
    with pytest.raises(ConfigError):
        layout_from_dict(bad)
