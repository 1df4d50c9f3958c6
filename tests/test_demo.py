import json
from pathlib import Path

import numpy as np
import pytest

from keywarp.demo import (ConfigError, NoWaypoints, SceneSnapshot,
                          SchemaError, Trajectory,
                          decode_summary, encode_summary, extract_waypoints,
                          save_demo_library, summarize_demo,
                          trajectory_from_parts)
from keywarp.geometry import NonPositiveDepth, StereoRig, project
from keywarp.sim import DemoLibrary, generate_seed_demos
from keywarp.tasks import builtin_tasks

GOLDEN = Path(__file__).parent / "data" / "golden_summary.json"


def _traj_from_bits(bits, rng=None):
    n = len(bits)
    rng = rng or np.random.default_rng(0)
    positions = rng.uniform(-0.2, 0.2, (n, 3)) + [0.45, 0.0, 0.2]
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return trajectory_from_parts(positions, quats, np.array(bits, float))


def test_extract_waypoints_toggle_example():
    traj = _traj_from_bits([0, 0, 1, 1, 1, 0])
    idx, w = extract_waypoints(traj)
    assert idx.tolist() == [2, 5]
    assert np.array_equal(w, traj.positions[[2, 5]])


def test_extract_waypoints_requires_a_toggle():
    with pytest.raises(NoWaypoints):
        extract_waypoints(_traj_from_bits([0, 0, 0, 0]))


def test_waypoint_count_matches_brute_force_scan():
    rng = np.random.default_rng(9)
    for _ in range(50):
        bits = (rng.random(rng.integers(2, 40)) < 0.4).astype(int)
        traj = _traj_from_bits(bits.tolist(), rng)
        brute = sum(1 for i in range(1, len(bits)) if bits[i] != bits[i - 1])
        if brute == 0:
            with pytest.raises(NoWaypoints):
                extract_waypoints(traj)
        else:
            idx, _ = extract_waypoints(traj)
            assert len(idx) == brute


def test_scripted_demo_has_grasp_and_release_waypoints(layout):
    task = builtin_tasks()[0]
    demos, sidecars = generate_seed_demos(layout, task, n=2, seed=4)
    grasp_offset = np.asarray(layout.object_spec(task.obj).grasp_offset)
    for demo in demos:
        assert demo.num_waypoints == 2
        g = demo.actions.gripper
        # close then open
        assert g[demo.waypoint_indices[0]] == 1
        assert g[demo.waypoint_indices[1]] == 0
        # the grasp waypoint sits exactly on the staged object's grasp point
        obj_pos = np.array(demo.snapshot.objects[task.obj].position)
        assert np.allclose(demo.waypoints[0], obj_pos + grasp_offset, atol=1e-12)
        # the release waypoint matches its recorded destination anchor
        release = sidecars[demo.id]["initial"]["anchors"][1]
        assert release["anchor"] == task.dest
        anchor_pos = np.array(demo.snapshot.anchors[task.dest])
        assert np.allclose(demo.waypoints[1], anchor_pos + release["offset"],
                           atol=1e-12)


def test_summary_keypoints_are_projections(library):
    for demo in library.demos.values():
        for view in ("left", "right"):
            cam = demo.snapshot.rig.camera(view)
            expected = np.array([project(cam, w) for w in demo.waypoints])
            assert np.max(np.abs(expected - demo.keypoints[view])) < 1e-9


def test_summary_waypoints_equal_actions_at_indices(library):
    for demo in library.demos.values():
        assert np.array_equal(demo.waypoints,
                              demo.actions.positions[demo.waypoint_indices])


def test_waypoint_behind_camera_raises(layout):
    bits = [0, 0, 1, 1, 0]
    n = len(bits)
    positions = np.tile([0.45, 0.0, 0.1], (n, 1))
    positions[2] = [-0.2, -5.0, 0.5]   # behind both cameras
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    traj = trajectory_from_parts(positions, quats, np.array(bits, float))
    snap = SceneSnapshot(rig=layout.rig, objects={}, anchors={})
    with pytest.raises(NonPositiveDepth):
        summarize_demo(traj, snap, "task", "demo")


def test_roundtrip_is_field_exact(library):
    for demo in list(library.demos.values())[:5]:
        clone = decode_summary(encode_summary(demo))
        assert clone == demo
        assert np.array_equal(clone.actions.actions, demo.actions.actions)


def test_truncated_bytes_raise_schema_error(library):
    payload = encode_summary(next(iter(library.demos.values())))
    with pytest.raises(SchemaError):
        decode_summary(payload[: len(payload) // 2])


def _set_value(doc, value, *keys):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def _drop_actions(doc):
    del doc["actions"]


ACTION_DAMAGE = {   # case: (damage, the message decoding gives)
    "true": (lambda d: _set_value(d, True, "actions", 3, 2), "actions[3][2]: expected number"),
    "string": (lambda d: _set_value(d, "1.5", "actions", 3, 2),
               "actions[3][2]: expected number"),
    "null": (lambda d: _set_value(d, None, "actions", 3, 2), "actions[3][2]: expected number"),
    "too-large": (lambda d: _set_value(d, 10**400, "actions", 3, 2),
                  "actions[3][2]: number too large for a float"),
    "row-of-7": (lambda d: d["actions"][3].pop(), "actions[3]: expected 8 numbers, got 7"),
    "row-of-2": (lambda d: _set_value(d, [1.0, 2.0], "actions", 3),
                 "actions[3]: expected 8 numbers, got 2"),
    "row-object": (lambda d: _set_value(d, {"x": 1.0}, "actions", 3),
                   "actions[3]: expected array"),
    "actions-object": (lambda d: _set_value(d, {"0": d["actions"][0]}, "actions"),
                       "actions: expected array"),
    "one-row": (lambda d: _set_value(d, d["actions"][:1], "actions"),
                "actions: expected at least 2 actions"),
    "no-actions": (_drop_actions, "<root>: missing key 'actions'"),
}


@pytest.mark.parametrize("damage, message", ACTION_DAMAGE.values(), ids=ACTION_DAMAGE.keys())
def test_schema_error_names_the_field(library, damage, message):
    doc = json.loads(encode_summary(next(iter(library.demos.values()))))
    damage(doc)
    with pytest.raises(SchemaError) as e:
        decode_summary(json.dumps(doc).encode())
    assert str(e.value) == message


def test_integer_action_values_load_as_floats(library):
    """JSON integers are numbers: a gripper column of 0 and 1 loads."""
    demo = next(iter(library.demos.values()))
    doc = json.loads(encode_summary(demo))
    for row in doc["actions"]:
        row[7] = int(row[7])
    assert decode_summary(json.dumps(doc).encode()) == demo


def test_snapshot_variant_other_than_semantic_is_a_schema_error(library):
    doc = json.loads(encode_summary(next(iter(library.demos.values()))))
    doc["snapshot"]["variant"] = "images"
    with pytest.raises(SchemaError, match=r"snapshot\.variant: unknown variant 'images'"):
        decode_summary(json.dumps(doc).encode())


def test_schema_error_on_bad_rig(library):
    doc = json.loads(encode_summary(next(iter(library.demos.values()))))
    doc["rig"]["left"]["intrinsics"]["fx"] = "wide"
    with pytest.raises(SchemaError, match="rig.left.intrinsics.fx"):
        decode_summary(json.dumps(doc).encode())


def test_golden_file_decodes_and_reencodes():
    """Golden file generated once, in the earlier format that also stored the
    waypoint frames, waypoints, keypoints and snapshot state id, and audited
    against the documented schema. The waypoints and keypoints derived at
    load equal the stored ones bit for bit, and re-encoding gives the file
    without those four keys."""
    payload = GOLDEN.read_bytes()
    doc = json.loads(payload)
    derived = {"waypoint_indices", "waypoints", "keypoints"}
    assert set(doc) == {"id", "task_id", "control_rate_hz", "rig", "snapshot",
                        "actions"} | derived
    assert set(doc["rig"]) == {"left", "right"}
    assert set(doc["keypoints"]) == {"left", "right"}
    assert doc["snapshot"]["variant"] == "semantic"
    assert all(len(row) == 8 for row in doc["actions"])
    summary = decode_summary(payload)
    assert summary.num_waypoints == len(doc["waypoint_indices"]) == 2
    assert len(summary.actions) == len(doc["actions"]) == 120
    assert summary.waypoint_indices.tolist() == doc["waypoint_indices"]
    assert summary.waypoints.tolist() == doc["waypoints"]
    assert {v: summary.keypoints[v].tolist() for v in ("left", "right")} == doc["keypoints"]
    del doc["snapshot"]["payload"]["state_id"]   # an id an earlier scheme hashed
    recorded = {k: v for k, v in doc.items() if k not in derived}
    assert encode_summary(summary) == json.dumps(recorded, sort_keys=True, indent=2).encode()


def test_library_save_load_roundtrip(tmp_path, library):
    demos = sorted(library.demos.values(), key=lambda d: d.id)[:4]
    save_demo_library(tmp_path / "lib", demos, library.sidecars)
    loaded = DemoLibrary.load(tmp_path / "lib")
    assert [d.id for d in loaded.demos.values()] == [d.id for d in demos]
    assert all(a == b for a, b in zip(loaded.demos.values(), demos))
    assert loaded.sidecars == {d.id: library.sidecars[d.id] for d in demos}


def test_library_needs_one_sidecar_per_demo(library):
    demos = sorted(library.demos.values(), key=lambda d: d.id)[:2]
    sidecars = {d.id: library.sidecars[d.id] for d in demos}
    lone = sidecars.pop(demos[0].id)
    with pytest.raises(ConfigError, match=demos[0].id):
        DemoLibrary(demos, sidecars)
    with pytest.raises(ConfigError, match="extra"):
        DemoLibrary(demos[1:], dict(sidecars, extra=lone))


def test_each_final_snapshot_has_its_own_demos_rig(library):
    """Two demos seen by different rigs (here the second's cameras swapped)
    each get a final snapshot with their own rig."""
    first, second = sorted(library.demos.values(), key=lambda d: d.id)[:2]
    rig = second.snapshot.rig
    swapped = SceneSnapshot(rig=StereoRig(left=rig.right, right=rig.left),
                            objects=second.snapshot.objects,
                            anchors=second.snapshot.anchors)
    second = summarize_demo(second.actions, swapped, second.task_id, second.id)
    mixed = DemoLibrary([first, second], {d.id: library.sidecars[d.id]
                                          for d in (first, second)})
    assert first.snapshot.rig != second.snapshot.rig
    for demo in (first, second):
        assert mixed.final_snapshots[demo.id].rig == demo.snapshot.rig


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((1, 8)))          # too short
    bad = np.zeros((3, 8))
    bad[:, 3] = 1.0
    bad[1, 7] = 0.5                            # non-binary gripper
    with pytest.raises(ValueError):
        Trajectory(bad)
    good = np.zeros((3, 8))
    good[:, 3] = 1.0
    with pytest.raises(ValueError):
        Trajectory(good, control_rate=0.0)
