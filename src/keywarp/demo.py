"""Trajectories, waypoint extraction, and demonstration summaries.

A demonstration is summarized once into (initial scene snapshot, 3-D
waypoints at gripper-toggle frames, their pixel keypoints in both camera
views, full action sequence); afterwards the raw recording can be thrown
away. A summary's JSON file holds only what was recorded (ids, rig,
snapshot, actions); its waypoints, its keypoints and its snapshot's state
id are derived again at load.
With one oracle sidecar per demo and an index, summaries form a demo
library.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .geometry import Camera, CameraIntrinsics, StereoRig, UNIT_TOL, project

ACTION_DIM = 8   # x y z qw qx qy qz gripper
DEFAULT_CONTROL_RATE = 15.0


class NoWaypoints(ValueError):
    """Gripper never toggles; the demo cannot be summarized."""


class ConfigError(ValueError):
    """Inconsistent layout, session configuration or library file."""


class SchemaError(ConfigError):
    """Malformed serialized summary or sidecar; message carries the field path."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Action sequence as an (M, 8) array: position, wxyz quaternion, gripper bit."""

    actions: np.ndarray
    control_rate: float = DEFAULT_CONTROL_RATE

    def __post_init__(self):
        a = np.array(self.actions, dtype=float)
        if a.ndim != 2 or a.shape[1] != ACTION_DIM:
            raise ValueError(f"actions must be (M, {ACTION_DIM}), got {a.shape}")
        if a.shape[0] < 2:
            raise ValueError("a trajectory needs at least 2 actions")
        if not self.control_rate > 0:
            raise ValueError("control_rate must be positive")
        if not np.isfinite(a).all():
            raise ValueError("actions must be finite")
        q = a[:, 3:7]
        # np.linalg.norm(q, axis=1) without the Python overhead of the wrapper
        if (np.abs(np.sqrt(np.add.reduce(q * q, axis=1)) - 1.0) > UNIT_TOL).any():
            raise ValueError("orientations must be unit quaternions")
        g = a[:, 7]
        if not ((g == 0.0) | (g == 1.0)).all():
            raise ValueError("gripper column must be binary")
        a.flags.writeable = False
        object.__setattr__(self, "actions", a)

    @classmethod
    def _adopt(cls, actions: np.ndarray, control_rate: float) -> "Trajectory":
        """The Trajectory of `actions`, an (M, 8) float array with M >= 2, unit
        quaternions and binary gripper bits, and a positive `control_rate`,
        as a builder such as `warp_trajectory` guarantees them. The array is
        kept and frozen, not copied, and only its finiteness is checked."""
        if not np.isfinite(actions).all():
            raise ValueError("actions must be finite")
        actions.flags.writeable = False
        traj = object.__new__(cls)
        object.__setattr__(traj, "actions", actions)
        object.__setattr__(traj, "control_rate", control_rate)
        return traj

    def __len__(self):
        return self.actions.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.control_rate == other.control_rate
                and np.array_equal(self.actions, other.actions))

    @property
    def positions(self) -> np.ndarray:
        return self.actions[:, 0:3]

    @property
    def orientations(self) -> np.ndarray:
        return self.actions[:, 3:7]

    @property
    def gripper(self) -> np.ndarray:
        return self.actions[:, 7].astype(int)


def trajectory_from_parts(positions, orientations, gripper,
                          control_rate=DEFAULT_CONTROL_RATE) -> Trajectory:
    positions = np.asarray(positions, dtype=float)
    orientations = np.asarray(orientations, dtype=float)
    gripper = np.asarray(gripper, dtype=float).reshape(-1, 1)
    return Trajectory(np.hstack([positions, orientations, gripper]), control_rate)


# ---------------------------------------------------------------------------
# scene snapshots

@dataclass(frozen=True)
class ObjectState:
    position: tuple   # (x, y, z)
    upright: bool = True


def semantic_state_id(objects, anchors) -> str:
    """Hash of a scene's content, each coordinate written from `float(x)` as
    numpy 2 prints it (`np.float64(<repr>)` for objects, the bare repr for
    anchors), so the id depends on neither the scalar type nor numpy."""
    parts = []
    for name in sorted(objects):
        o = objects[name]
        x, y, z = (f"np.float64({float(c)!r})" for c in o.position)
        parts.append(f"{name}:{x},{y},{z},{int(o.upright)}")
    for name in sorted(anchors):
        x, y, z = map(float, anchors[name])
        parts.append(f"@{name}:{x!r},{y!r},{z!r}")
    return hashlib.blake2b("|".join(parts).encode(), digest_size=12).hexdigest()


@dataclass(frozen=True)
class SceneSnapshot:
    """A scene as the simulator knows it, seen by one stereo rig: object
    poses plus static anchor points. state_id is derived from the objects
    and anchors alone, so snapshots of identical scenes match equal."""

    rig: StereoRig
    objects: dict            # id -> ObjectState
    anchors: dict            # name -> (x, y, z) static reference point
    state_id: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "objects", dict(self.objects))
        object.__setattr__(self, "anchors",
                           {k: tuple(map(float, v)) for k, v in self.anchors.items()})
        object.__setattr__(self, "state_id",
                           semantic_state_id(self.objects, self.anchors))


# ---------------------------------------------------------------------------
# summaries

@dataclass(frozen=True, eq=False)
class DemoSummary:
    """A demo as recorded (id, task, initial snapshot, actions) and what
    `summarize_demo`, its one producer, derives from that: the waypoints at
    the gripper-toggle frames and their keypoints in both views. Equality
    compares only what was recorded."""

    id: str
    task_id: str
    snapshot: SceneSnapshot
    waypoint_indices: np.ndarray   # (T,) strictly increasing frame indices
    waypoints: np.ndarray          # (T, 3)
    keypoints: dict                # view -> (T, 2) pixel array
    actions: Trajectory
    # the source half of a warp, kept by `warp.warp_basis` on first use; it
    # is derived from the fields above, so equality ignores it
    warp_basis: object = field(default=None, init=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, DemoSummary):
            return NotImplemented
        return (self.id == other.id and self.task_id == other.task_id
                and self.snapshot == other.snapshot and self.actions == other.actions)

    @property
    def num_waypoints(self) -> int:
        return len(self.waypoint_indices)


def extract_waypoints(traj: Trajectory):
    """Frames where the gripper open/close bit toggles, with their positions.

    Returns (indices, waypoints). Raises NoWaypoints when the gripper never
    toggles; such demos are rejected rather than given synthetic waypoints.
    """
    g = traj.gripper
    idx = np.flatnonzero(g[1:] != g[:-1]) + 1
    if len(idx) == 0:
        raise NoWaypoints("gripper command never toggles")
    return idx, traj.positions[idx].copy()


def summarize_demo(traj: Trajectory, snapshot: SceneSnapshot, task_id: str,
                   demo_id: str) -> DemoSummary:
    """Build the compact demo record: waypoints plus their two-view keypoints."""
    idx, w = extract_waypoints(traj)
    keypoints = {view: np.array([project(snapshot.rig.camera(view), p) for p in w])
                 for view in ("left", "right")}
    for a in (idx, w, *keypoints.values()):
        a.flags.writeable = False
    return DemoSummary(id=demo_id, task_id=task_id, snapshot=snapshot,
                       waypoint_indices=idx, waypoints=w,
                       keypoints=keypoints, actions=traj)


# ---------------------------------------------------------------------------
# serialization

def _camera_to_dict(c: Camera):
    return {"intrinsics": asdict(c.intrinsics),
            "pose": {"position": c.position.tolist(),
                     "rotation": c.rotation.tolist()}}


def rig_to_dict(rig: StereoRig):
    return {"left": _camera_to_dict(rig.left), "right": _camera_to_dict(rig.right)}


def objects_to_dict(objects: dict) -> dict:
    """Object states (id -> ObjectState) as scenes and checkpoints write them."""
    return {k: {"position": list(v.position), "upright": v.upright}
            for k, v in objects.items()}


def scene_to_dict(scene: SceneSnapshot):
    """A scene's objects and anchors; its rig and its id are not written."""
    return {"variant": "semantic",
            "payload": {"objects": objects_to_dict(scene.objects),
                        "anchors": {k: list(v) for k, v in scene.anchors.items()}}}


def summary_to_dict(s: DemoSummary) -> dict:
    return {
        "id": s.id,
        "task_id": s.task_id,
        "control_rate_hz": s.actions.control_rate,
        "rig": rig_to_dict(s.snapshot.rig),
        "snapshot": scene_to_dict(s.snapshot),
        "actions": s.actions.actions.tolist(),
    }


def encode_summary(s: DemoSummary) -> bytes:
    """`json.dumps(summary_to_dict(s), sort_keys=True, indent=2)`, byte for
    byte. The `actions` rows, most of a file, are written directly as each
    float's repr, which is what json writes for a finite float (a
    Trajectory's actions are finite); "actions" is the first key in sorted
    order, so it opens the document."""
    doc = summary_to_dict(s)
    rows = doc.pop("actions")
    rest = json.dumps(doc, sort_keys=True, indent=2)
    actions = "\n    ],\n    [\n      ".join(",\n      ".join(map(repr, row)) for row in rows)
    return f'{{\n  "actions": [\n    [\n      {actions}\n    ]\n  ],\n{rest[2:]}'.encode()


def _all_numbers(values) -> bool:
    """Every value is a JSON number: an int or a float, not a bool."""
    return set(map(type, values)) <= {int, float}


class _Probe:
    """Walks a decoded JSON document, raising SchemaError with field paths."""

    def __init__(self, doc, path=""):
        self.doc = doc
        self.path = path

    def fail(self, msg):
        where = self.path or "<root>"
        raise SchemaError(f"{where}: {msg}")

    def child(self, key):
        doc = self.mapping()
        if key not in doc:
            self.fail(f"missing key {key!r}")
        return _Probe(doc[key], f"{self.path}.{key}" if self.path else key)

    def string(self):
        if not isinstance(self.doc, str):
            self.fail("expected string")
        return self.doc

    def number(self):
        if isinstance(self.doc, bool) or not isinstance(self.doc, (int, float)):
            self.fail("expected number")
        try:
            value = float(self.doc)
        except OverflowError:   # an integer literal beyond the float64 range
            self.fail("number too large for a float")
        if not math.isfinite(value):   # NaN, Infinity, or a literal like 1e400
            self.fail("number must be finite")
        return value

    def integer(self):
        if isinstance(self.doc, bool) or not isinstance(self.doc, int):
            self.fail("expected integer")
        return self.doc

    def boolean(self):
        if not isinstance(self.doc, bool):
            self.fail("expected boolean")
        return self.doc

    def array(self):
        if not isinstance(self.doc, list):
            self.fail("expected array")
        return [_Probe(v, f"{self.path}[{i}]") for i, v in enumerate(self.doc)]

    def vector(self, n):
        if type(self.doc) is list and len(self.doc) == n and _all_numbers(self.doc):
            try:
                values = list(map(float, self.doc))
                if all(map(math.isfinite, values)):
                    return values
            except OverflowError:
                pass   # named below
        items = self.array()
        if len(items) != n:
            self.fail(f"expected {n} numbers, got {len(items)}")
        return [p.number() for p in items]

    def mapping(self):
        if not isinstance(self.doc, dict):
            self.fail("expected object")
        return self.doc


def _intrinsics_from_probe(p: _Probe) -> CameraIntrinsics:
    return CameraIntrinsics(fx=p.child("fx").number(), fy=p.child("fy").number(),
                            cx=p.child("cx").number(), cy=p.child("cy").number(),
                            width=p.child("width").integer(),
                            height=p.child("height").integer())


def _camera_from_probe(p: _Probe) -> Camera:
    pose = p.child("pose")
    try:
        return Camera(intrinsics=_intrinsics_from_probe(p.child("intrinsics")),
                      position=pose.child("position").vector(3),
                      rotation=pose.child("rotation").vector(4))
    except ValueError as e:
        p.fail(str(e))


def rig_from_probe(p: _Probe) -> StereoRig:
    try:
        return StereoRig(left=_camera_from_probe(p.child("left")),
                         right=_camera_from_probe(p.child("right")))
    except ValueError as e:
        p.fail(str(e))


def objects_from_probe(p: _Probe) -> dict:
    """The object states `objects_to_dict` wrote."""
    return {name: ObjectState(position=tuple(p.child(name).child("position").vector(3)),
                              upright=p.child(name).child("upright").boolean())
            for name in p.mapping()}


def scene_from_probe(p: _Probe, rig: StereoRig) -> SceneSnapshot:
    """The scene `scene_to_dict` wrote, seen by `rig`; a `state_id` an
    earlier format stored in the payload is ignored."""
    variant = p.child("variant")
    if variant.string() != "semantic":
        variant.fail(f"unknown variant {variant.doc!r}")
    payload = p.child("payload")
    objects = objects_from_probe(payload.child("objects"))
    anchors = payload.child("anchors")
    return SceneSnapshot(rig=rig, objects=objects,
                         anchors={name: tuple(anchors.child(name).vector(3))
                                  for name in anchors.mapping()})


def parse_action_rows(p: _Probe) -> np.ndarray:
    """The (M, 8) float array of a document's action rows. Well-formed rows
    are checked and converted in bulk; per-value probes walk them only to
    name the first bad field."""
    rows = p.doc
    if (type(rows) is list and len(rows) >= 2 and set(map(type, rows)) == {list}
            and set(map(len, rows)) == {ACTION_DIM}
            and _all_numbers(chain.from_iterable(rows))):
        try:
            return np.array(rows, dtype=float)
        except OverflowError:
            pass   # named below
    rows = p.array()
    if len(rows) < 2:
        p.fail("expected at least 2 actions")
    return np.array([r.vector(ACTION_DIM) for r in rows])


def decode_summary(data: bytes) -> DemoSummary:
    """Inverse of encode_summary; raises SchemaError naming the bad field."""
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise SchemaError(f"<root>: invalid JSON ({e.msg})") from e
    return summary_from_probe(_Probe(doc))


def summary_from_probe(root: _Probe) -> DemoSummary:
    """The summary a probe's document records; its waypoints, keypoints and
    state id are derived, and copies an earlier format stored are ignored."""
    demo_id, task_id = root.child("id").string(), root.child("task_id").string()
    snapshot = scene_from_probe(root.child("snapshot"), rig_from_probe(root.child("rig")))
    control_rate = root.child("control_rate_hz").number()
    actions_probe = root.child("actions")
    rows = parse_action_rows(actions_probe)
    try:
        return summarize_demo(Trajectory(rows, control_rate), snapshot, task_id, demo_id)
    except ValueError as e:   # a bad trajectory, no toggle, or a waypoint behind a camera
        actions_probe.fail(str(e))


# ---------------------------------------------------------------------------
# demo library on disk: one JSON file per demo plus an index

INDEX_FILE = "index.json"


def save_demo_library(directory, summaries, sidecars):
    """Write each demo's summary and sidecar document, and the index."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in summaries:
        fname, side = f"{s.id}.json", f"{s.id}.sidecar.json"
        (directory / fname).write_bytes(encode_summary(s))
        (directory / side).write_text(json.dumps(sidecars[s.id], sort_keys=True, indent=2))
        entries.append({"id": s.id, "file": fname, "sidecar": side})
    index = {"demos": sorted(entries, key=lambda e: e["id"])}
    (directory / INDEX_FILE).write_text(json.dumps(index, sort_keys=True, indent=2))


def read_json(path, parse, error=ConfigError):
    """`parse` applied to a `_Probe` rooted at `path` over the file's JSON
    document: `read_json_with_bytes` without the bytes, failing the same ways."""
    return read_json_with_bytes(path, parse, error)[0]


def read_json_with_bytes(path, parse, error=ConfigError) -> tuple:
    """(`parse` applied to a `_Probe` rooted at `path` over the file's JSON
    document, the file's bytes). The file is read once, so the bytes returned
    are the bytes parsed. Every failure names the file and is an `error`:
    the default ConfigError (exit 2) for an input the user names, OSError
    (exit 4) for a session artifact. Failures are the file missing or
    unreadable, its text not JSON, and `parse` finding a field missing, of
    the wrong type, or a number too large for a float64."""
    try:
        data = Path(path).read_bytes()
        return parse(_Probe(json.loads(data), str(path))), data
    except FileNotFoundError as e:
        raise error(f"{path} is missing") from e
    except json.JSONDecodeError as e:
        raise error(f"{path} is not valid JSON: {e}") from e
    except (OSError, ValueError, KeyError, TypeError) as e:
        msg = str(e)   # a probe rooted at `path` already names the file
        raise error(msg if msg.startswith(str(path)) else f"{path}: {msg}") from e
