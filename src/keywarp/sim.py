"""Kinematic tabletop world: scene spawning, plan execution, ground truth.

The world has no contact dynamics; the gripper teleports along action
positions, grasping snaps the nearest object within a radius to the
gripper, and released objects settle straight down onto the highest
support under them (bowl interior, then shelf, then table). Dropping from
height can tip an object over with configurable probability, the minimal
stochastic stand-in for real placement failures.

The module also hosts the correspondence oracle used in place of a learned
matcher: demo keypoints are annotated at summarization time with the scene
anchor (object or fixed slot) plus a local offset, and a match is the
projection of that anchor-relative point into the requested view of the
target scene, optionally corrupted by pixel noise and outliers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .correspondence import Match, cross_view_distance
from .demo import (ObjectState, SceneSnapshot, SemanticScene, _Probe,
                   load_demo_index, save_demo_library, decode_summary,
                   rig_from_probe, rig_to_dict, snapshot_content_to_dict,
                   summarize_demo, trajectory_from_parts)
from .geometry import (CameraIntrinsics, NonPositiveDepth, StereoRig,
                       look_at_camera, project)
from .tasks import BOWL, SHELF, TABLE, SymbolicState, TaskSpec

ANNOTATION_PIXEL_TOL = 1e-6   # px, lookup tolerance for annotated keypoints


class ConfigError(ValueError):
    """Inconsistent layout or session configuration."""


class PreconditionUnsatisfiable(ValueError):
    """Requested demo task cannot be staged in the given layout."""


# ---------------------------------------------------------------------------
# layout

@dataclass(frozen=True)
class SlotRegion:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z: float   # support height

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigError("slot region has non-positive extent")

    @property
    def center(self):
        return np.array([0.5 * (self.x_min + self.x_max),
                         0.5 * (self.y_min + self.y_max), self.z])

    def contains_xy(self, x, y) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def sample_xy(self, rng, margin=0.0, scale=1.0):
        cx, cy = 0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max)
        hx = max(0.5 * (self.x_max - self.x_min) * scale - margin, 0.0)
        hy = max(0.5 * (self.y_max - self.y_min) * scale - margin, 0.0)
        return np.array([rng.uniform(cx - hx, cx + hx), rng.uniform(cy - hy, cy + hy)])


@dataclass(frozen=True)
class ObjectSpec:
    id: str
    grasp_offset: tuple             # gripper position relative to the object
    is_container: bool = False
    footprint: float = 0.0          # half-width of the containment capture region
    interior_offset: float = 0.0    # support height above a container's base


@dataclass(frozen=True)
class Layout:
    table: SlotRegion
    shelf: SlotRegion
    objects: tuple                   # ObjectSpec, containers first
    rig: StereoRig
    home: tuple
    home_orientation: tuple          # wxyz
    workspace_min: tuple
    workspace_max: tuple
    control_rate: float = 15.0
    demo_region_scale: float = 0.35  # demos are staged near slot centers
    release_margin: float = 0.05     # m, keep releases away from slot edges
    approach_height: float = 0.12
    release_clearance: float = 0.005
    max_speed: float = 0.35          # m/s for the scripted expert
    accel: float = 1.5               # m/s^2
    dwell_s: float = 0.2             # pause while the gripper actuates

    def object_spec(self, obj_id: str) -> ObjectSpec:
        for spec in self.objects:
            if spec.id == obj_id:
                return spec
        raise KeyError(f"no object {obj_id!r} in layout")

    def region(self, slot: str) -> SlotRegion:
        if slot == TABLE:
            return self.table
        if slot == SHELF:
            return self.shelf
        raise KeyError(f"no fixed region for slot {slot!r}")

    def anchors(self) -> dict:
        return {TABLE: tuple(self.table.center), SHELF: tuple(self.shelf.center)}


def _region_to_dict(r: SlotRegion):
    return {"x_min": r.x_min, "x_max": r.x_max, "y_min": r.y_min,
            "y_max": r.y_max, "z": r.z}


def layout_to_dict(layout: Layout) -> dict:
    return {
        "table": _region_to_dict(layout.table),
        "shelf": _region_to_dict(layout.shelf),
        "objects": [{"id": o.id, "grasp_offset": list(o.grasp_offset),
                     "is_container": o.is_container, "footprint": o.footprint,
                     "interior_offset": o.interior_offset} for o in layout.objects],
        "rig": rig_to_dict(layout.rig),
        "home": list(layout.home),
        "home_orientation": list(layout.home_orientation),
        "workspace_min": list(layout.workspace_min),
        "workspace_max": list(layout.workspace_max),
        "control_rate": layout.control_rate,
        "demo_region_scale": layout.demo_region_scale,
        "release_margin": layout.release_margin,
        "approach_height": layout.approach_height,
        "release_clearance": layout.release_clearance,
        "max_speed": layout.max_speed,
        "accel": layout.accel,
        "dwell_s": layout.dwell_s,
    }


def layout_from_dict(doc: dict) -> Layout:
    try:
        p = _Probe(doc)
        regions = {}
        for name in ("table", "shelf"):
            rp = p.child(name)
            try:
                regions[name] = SlotRegion(x_min=rp.child("x_min").number(),
                                           x_max=rp.child("x_max").number(),
                                           y_min=rp.child("y_min").number(),
                                           y_max=rp.child("y_max").number(),
                                           z=rp.child("z").number())
            except ConfigError as e:
                raise ConfigError(f"{name}: {e}") from e
        objects = []
        for op in p.child("objects").array():
            objects.append(ObjectSpec(id=op.child("id").string(),
                                      grasp_offset=tuple(op.child("grasp_offset").vector(3)),
                                      is_container=op.child("is_container").boolean(),
                                      footprint=op.child("footprint").number(),
                                      interior_offset=op.child("interior_offset").number()))
        kwargs = {}
        for key in ("control_rate", "demo_region_scale", "release_margin",
                    "approach_height", "release_clearance", "max_speed",
                    "accel", "dwell_s"):
            if key in doc:
                kwargs[key] = p.child(key).number()
        return Layout(table=regions["table"], shelf=regions["shelf"],
                      objects=tuple(objects), rig=rig_from_probe(p.child("rig")),
                      home=tuple(p.child("home").vector(3)),
                      home_orientation=tuple(p.child("home_orientation").vector(4)),
                      workspace_min=tuple(p.child("workspace_min").vector(3)),
                      workspace_max=tuple(p.child("workspace_max").vector(3)),
                      **kwargs)
    except (ValueError, KeyError) as e:
        raise ConfigError(f"bad layout: {e}") from e


def default_layout() -> Layout:
    """Table in front, raised shelf behind, pineapple and bowl, side cameras."""
    intr = CameraIntrinsics(fx=420.0, fy=420.0, cx=320.0, cy=240.0,
                            width=640, height=480)
    target = (0.45, 0.10, 0.10)
    rig = StereoRig(left=look_at_camera((-0.10, -0.60, 0.50), target, intr),
                    right=look_at_camera((1.00, -0.60, 0.50), target, intr))
    return Layout(
        table=SlotRegion(0.15, 0.75, -0.30, 0.30, 0.0),
        shelf=SlotRegion(0.18, 0.54, 0.40, 0.64, 0.18),
        objects=(
            ObjectSpec(id="bowl", grasp_offset=(0.055, 0.0, 0.045),
                       is_container=True, footprint=0.06, interior_offset=0.015),
            ObjectSpec(id="pineapple", grasp_offset=(0.0, 0.0, 0.035)),
        ),
        rig=rig,
        home=(0.45, 0.05, 0.40),
        home_orientation=(0.0, 1.0, 0.0, 0.0),   # gripper pointing down
        workspace_min=(0.02, -0.45, -0.005),
        workspace_max=(0.95, 0.75, 0.60),
    )


# ---------------------------------------------------------------------------
# world state

@dataclass
class WorldParams:
    grasp_radius: float = 0.03
    p_tip: float = 0.05
    tip_drop_height: float = 0.05
    settle_jitter: float = 0.0      # m, xy scatter when an object settles


@dataclass
class _ObjState:
    position: np.ndarray
    upright: bool = True


class SimWorld:
    """Single-owner mutable scene: objects, gripper, and the world RNG."""

    def __init__(self, layout: Layout, params: WorldParams, rng: np.random.Generator,
                 objects: dict):
        self.layout = layout
        self.params = params
        self.rng = rng
        self.objects = objects   # id -> _ObjState
        self.gripper_position = np.array(layout.home, dtype=float)
        self.gripper_orientation = np.array(layout.home_orientation, dtype=float)
        self.gripper_closed = False
        self.attached = None
        self._rider_offsets = {}

    def state_dict(self) -> dict:
        return {
            "objects": {k: {"position": v.position.tolist(), "upright": v.upright}
                        for k, v in self.objects.items()},
            "gripper": {"position": self.gripper_position.tolist(),
                        "orientation": self.gripper_orientation.tolist(),
                        "closed": self.gripper_closed,
                        "attached": self.attached,
                        "riders": {k: v.tolist() for k, v in self._rider_offsets.items()}},
            "rng_state": self.rng.bit_generator.state,
            "params": {"grasp_radius": self.params.grasp_radius,
                       "p_tip": self.params.p_tip,
                       "tip_drop_height": self.params.tip_drop_height,
                       "settle_jitter": self.params.settle_jitter},
        }

    @staticmethod
    def from_state_dict(layout: Layout, doc: dict) -> "SimWorld":
        params = WorldParams(**doc["params"])
        rng = np.random.default_rng(0)
        rng.bit_generator.state = doc["rng_state"]
        objects = {k: _ObjState(position=np.array(v["position"], dtype=float),
                                upright=v["upright"])
                   for k, v in doc["objects"].items()}
        world = SimWorld(layout, params, rng, objects)
        g = doc["gripper"]
        world.gripper_position = np.array(g["position"], dtype=float)
        world.gripper_orientation = np.array(g["orientation"], dtype=float)
        world.gripper_closed = g["closed"]
        world.attached = g["attached"]
        world._rider_offsets = {k: np.array(v, dtype=float)
                                for k, v in g["riders"].items()}
        return world


def _place_objects(layout: Layout, rng, slots, region_scale, min_separation) -> dict:
    slots = dict(slots or {})
    objects = {}
    ordered = sorted(layout.objects, key=lambda s: not s.is_container)
    for spec in ordered:
        slot = slots.get(spec.id, TABLE)
        if slot in (TABLE, SHELF):
            region = layout.region(slot)
            placed = None
            for _ in range(500):
                xy = region.sample_xy(rng, scale=region_scale)
                if all(np.linalg.norm(xy - o.position[:2]) >= min_separation
                       for o in objects.values()):
                    placed = np.array([xy[0], xy[1], region.z])
                    break
            if placed is None:
                raise ConfigError(f"cannot place {spec.id!r} in {slot!r} "
                                  "without overlap")
            objects[spec.id] = _ObjState(position=placed)
        elif slot == BOWL:
            container = layout.object_spec(BOWL)
            if BOWL not in objects:
                raise ConfigError(f"{spec.id!r} starts inside the bowl but the "
                                  "bowl is unplaced")
            base = objects[BOWL].position
            objects[spec.id] = _ObjState(position=base + np.array(
                [0.0, 0.0, container.interior_offset]))
        else:
            raise ConfigError(f"unknown slot {slot!r} for {spec.id!r}")
    return objects


def spawn_world(layout: Layout, seed, slots=None, params: WorldParams = None,
                region_scale: float = 1.0, min_separation: float = 0.12) -> SimWorld:
    """Place every object uniformly at random inside its slot region.

    `slots` maps object id to its starting slot (defaults to the table);
    containers are placed before their contents. Raises ConfigError when
    placements cannot satisfy the separation constraint.
    """
    rng = np.random.default_rng(seed)
    params = params or WorldParams()
    objects = _place_objects(layout, rng, slots, region_scale, min_separation)
    return SimWorld(layout, params, rng, objects)


def randomize_world(world: SimWorld, slots=None, min_separation: float = 0.12):
    """Reset hook: re-place all objects (upright) using the world's own RNG
    and return the gripper to home. Used when play needs an intervention."""
    world.objects = _place_objects(world.layout, world.rng, slots, 1.0,
                                   min_separation)
    world.gripper_position = np.array(world.layout.home, dtype=float)
    world.gripper_orientation = np.array(world.layout.home_orientation,
                                         dtype=float)
    world.gripper_closed = False
    world.attached = None
    world._rider_offsets = {}
    return world


def snapshot(world: SimWorld) -> SceneSnapshot:
    """Immutable semantic snapshot of the current scene."""
    content = SemanticScene(
        objects={k: ObjectState(position=tuple(v.position), upright=v.upright)
                 for k, v in world.objects.items()},
        anchors=world.layout.anchors())
    return SceneSnapshot(rig=world.layout.rig, content=content)


def _support_below(world: SimWorld, xy, exclude=None):
    """Highest support under an xy location: bowl interior > shelf > table."""
    for spec in world.layout.objects:
        if not spec.is_container or spec.id == exclude:
            continue
        state = world.objects.get(spec.id)
        if state is None or not state.upright:
            continue
        if (abs(xy[0] - state.position[0]) <= spec.footprint
                and abs(xy[1] - state.position[1]) <= spec.footprint):
            return spec.id, state.position[2] + spec.interior_offset
    shelf = world.layout.shelf
    if shelf.contains_xy(xy[0], xy[1]):
        return SHELF, shelf.z
    return TABLE, world.layout.table.z


def symbolic_state(world: SimWorld) -> SymbolicState:
    """Slot assignment by region containment, with upright flags."""
    slots, upright = {}, {}
    for obj_id, state in world.objects.items():
        pos = state.position
        slot = TABLE
        for spec in world.layout.objects:
            if not spec.is_container or spec.id == obj_id:
                continue
            cont = world.objects.get(spec.id)
            if cont is None or not cont.upright:
                continue
            if (abs(pos[0] - cont.position[0]) <= spec.footprint
                    and abs(pos[1] - cont.position[1]) <= spec.footprint
                    and abs(pos[2] - (cont.position[2] + spec.interior_offset)) < 0.04):
                slot = spec.id
                break
        else:
            shelf = world.layout.shelf
            if shelf.contains_xy(pos[0], pos[1]) and abs(pos[2] - shelf.z) < 0.04:
                slot = SHELF
        slots[obj_id] = slot
        upright[obj_id] = state.upright
    return SymbolicState.make(slots, upright)


# ---------------------------------------------------------------------------
# plan execution

@dataclass
class ExecutionTrace:
    positions: np.ndarray       # executed (clipped) gripper positions
    events: list = field(default_factory=list)
    out_of_bounds: int = 0

    @property
    def grasped(self) -> bool:
        return any(e["kind"] == "grasp" for e in self.events)


def execute_plan(world: SimWorld, plan, grasp_radius: float = None) -> ExecutionTrace:
    """Teleport the gripper along the plan, mutating the world.

    Grasping happens at close transitions (nearest object within
    grasp_radius of the gripper's grasp point, or a logged miss), releasing
    at open transitions; objects inside a grasped container ride along.
    Actions outside the workspace are clipped and counted. Between
    transitions nothing but the carried objects moves, so they are placed
    only at transition frames and at the last frame.
    """
    traj = getattr(plan, "trajectory", plan)
    radius = world.params.grasp_radius if grasp_radius is None else grasp_radius
    P, Q, G = traj.positions, traj.orientations, traj.gripper
    executed = np.clip(P, np.array(world.layout.workspace_min),
                       np.array(world.layout.workspace_max))
    oob = int(np.count_nonzero((executed != P).any(axis=1)))
    toggles = (np.flatnonzero(G[1:] != G[:-1]) + 1).tolist()
    if G[0] == 1 and not world.gripper_closed:
        toggles.insert(0, 0)
    last = len(traj) - 1
    events = []

    for i in toggles if toggles[-1:] == [last] else toggles + [last]:
        p = executed[i]
        if world.attached is not None:
            spec = world.layout.object_spec(world.attached)
            held = world.objects[world.attached]
            held.position = p - np.asarray(spec.grasp_offset)
            for rider, off in world._rider_offsets.items():
                world.objects[rider].position = held.position + off
        if i in toggles:
            if G[i] == 1:
                _close_gripper(world, p, radius, events, i)
            else:
                _open_gripper(world, events, i)
    world.gripper_position = executed[last].copy()
    world.gripper_orientation = Q[last].copy()
    world.gripper_closed = bool(G[last])
    return ExecutionTrace(positions=executed, events=events, out_of_bounds=oob)


def _close_gripper(world, at, radius, events, step):
    best, best_d = None, float("inf")
    for spec in world.layout.objects:
        state = world.objects.get(spec.id)
        if state is None:
            continue
        d = float(np.linalg.norm(at - (state.position + np.asarray(spec.grasp_offset))))
        if d < best_d:
            best, best_d = spec.id, d
    if best is None or best_d > radius:
        events.append({"kind": "grasp_miss", "step": step,
                       "nearest": best, "distance": best_d})
        return
    spec = world.layout.object_spec(best)
    state = world.objects[best]
    state.position = at - np.asarray(spec.grasp_offset)   # snap to the gripper
    world.attached = best
    world._rider_offsets = {}
    if spec.is_container:
        for other_id, other in world.objects.items():
            if other_id == best:
                continue
            rel = other.position - state.position
            if (abs(rel[0]) <= spec.footprint and abs(rel[1]) <= spec.footprint
                    and abs(rel[2] - spec.interior_offset) < 0.04):
                world._rider_offsets[other_id] = rel.copy()
    events.append({"kind": "grasp", "step": step, "object": best,
                   "distance": best_d, "riders": sorted(world._rider_offsets)})


def _open_gripper(world, events, step):
    if world.attached is None:
        events.append({"kind": "release_empty", "step": step})
        return
    obj_id = world.attached
    state = world.objects[obj_id]
    xy = state.position[:2].copy()
    if world.params.settle_jitter > 0:
        xy = xy + world.rng.normal(0.0, world.params.settle_jitter, 2)
    slot, support = _support_below(world, xy, exclude=obj_id)
    drop = state.position[2] - support
    tipped = False
    if drop > world.params.tip_drop_height and world.params.p_tip > 0:
        tipped = bool(world.rng.random() < world.params.p_tip)
    state.position = np.array([xy[0], xy[1], support])
    if tipped:
        state.upright = False
    for rider, off in world._rider_offsets.items():
        world.objects[rider].position = state.position + off
    world.attached = None
    world._rider_offsets = {}
    events.append({"kind": "release", "step": step, "object": obj_id,
                   "slot": slot, "drop": float(drop), "tipped": tipped})


# ---------------------------------------------------------------------------
# correspondence oracle

@dataclass(frozen=True)
class OracleConfig:
    pixel_noise_sigma: float = 0.0   # px
    outlier_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.pixel_noise_sigma < 0:
            raise ValueError("pixel_noise_sigma must be non-negative")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValueError("outlier_rate must be a probability")


class CorrespondenceOracle:
    """MatcherInterface backed by the simulator's semantic ground truth.

    A query pixel resolves through an (anchor, offset) annotation recorded
    at summarization time and keyed by (scene state id, view, pixel). The
    true match is the projection of anchor-position-in-target plus offset
    into the requested view, optionally corrupted: with probability
    outlier_rate the match is replaced by a uniform random in-image pixel
    (confidence 0.1), otherwise isotropic Gaussian pixel noise is added
    (confidence 0.9). Corruption is a pure function of (seed, query), so
    repeated queries are deterministic.

    Pixels returned by `match` are memoized with the anchor they came from
    so that follow-up cross-view queries on matched pixels resolve too;
    outlier pixels are memoized as unresolvable. Registered annotations are
    permanent, and so are memoized matches into a registered state. The
    rest of the memo is bounded: it holds the matches into one unregistered
    state (the current observation) and drops them when a match into
    another unregistered state is memoized.

    A query resolves to the annotation at exactly its pixel (registered
    ones before memoized ones, then the earliest); failing that, to the
    nearest one within ANNOTATION_PIXEL_TOL.
    """

    def __init__(self, config: OracleConfig = None):
        self.config = config or OracleConfig()
        self._annotations = {}   # (state_id, view) -> [(pixel, anchor|None, offset)]
        self._registered = set()   # state ids with registered annotations
        self._memo = {}          # state_id -> view -> {pixel: entry}
        self._memo_state = None  # the one unregistered state in the memo

    def register_annotation(self, state_id, view, pixel, anchor, offset):
        # map(float, ...) keeps the caller's float objects (a loaded
        # library's sidecars) instead of allocating copies
        pixel = tuple(map(float, pixel))
        offset = None if offset is None else tuple(map(float, offset))
        self._annotations.setdefault((state_id, view), []).append((pixel, anchor, offset))
        self._registered.add(state_id)
        if state_id == self._memo_state:
            self._memo_state = None   # its memo is now kept for good

    def _memoize(self, state_id, view, pixel, anchor, offset):
        if state_id not in self._registered and state_id != self._memo_state:
            self._memo.pop(self._memo_state, None)
            self._memo_state = state_id
        key = tuple(pixel.tolist())
        self._memo.setdefault(state_id, {}).setdefault(view, {}).setdefault(
            key, (key, anchor, offset))

    def _resolve(self, state_id, view, pixel):
        key = tuple(np.asarray(pixel, dtype=float).tolist())
        registered = self._annotations.get((state_id, view), ())
        for entry in registered:
            if entry[0] == key:
                return entry
        memo = self._memo.get(state_id, {}).get(view, {})
        if key in memo:
            return memo[key]
        pixel = np.asarray(pixel, dtype=float)
        best, best_d = None, float("inf")
        for entry in (*registered, *memo.values()):
            d = float(np.linalg.norm(entry[0] - pixel))
            if d < best_d:
                best, best_d = entry, d
        if best_d > ANNOTATION_PIXEL_TOL:
            return None
        return best

    @staticmethod
    def _anchor_position(content: SemanticScene, anchor):
        if anchor in content.objects:
            return content.objects[anchor].position
        if anchor in content.anchors:
            return content.anchors[anchor]
        return None   # anchor object removed from the scene

    def _query_rng(self, src_id, tgt_id, qv, tv, pixel):
        key = (f"{self.config.seed}|{src_id}|{tgt_id}|{qv}|{tv}"
               f"|{pixel[0]:.6f}|{pixel[1]:.6f}")
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        return np.random.default_rng(int.from_bytes(digest, "big"))

    def match(self, source: SceneSnapshot, target: SceneSnapshot,
              query_pixel, query_view: str, target_view: str):
        entry = self._resolve(source.state_id, query_view, query_pixel)
        if entry is None or entry[1] is None:
            return None
        _, anchor, offset = entry
        anchor_pos = self._anchor_position(target.content, anchor)
        if anchor_pos is None:
            return None
        camera = target.rig.camera(target_view)
        try:
            pixel = project(camera, [a + o for a, o in zip(anchor_pos, offset)])
        except NonPositiveDepth:
            return None

        cfg = self.config
        if cfg.outlier_rate > 0.0 or cfg.pixel_noise_sigma > 0.0:
            rng = self._query_rng(source.state_id, target.state_id,
                                  query_view, target_view, query_pixel)
            if cfg.outlier_rate > 0.0 and rng.random() < cfg.outlier_rate:
                k = camera.intrinsics
                junk = np.array([rng.uniform(0.0, k.width),
                                 rng.uniform(0.0, k.height)])
                self._memoize(target.state_id, target_view, junk, None, None)
                return Match(pixel=junk, confidence=0.1)
            if cfg.pixel_noise_sigma > 0.0:
                pixel = pixel + rng.normal(0.0, cfg.pixel_noise_sigma, 2)
        self._memoize(target.state_id, target_view, pixel, anchor, offset)
        return Match(pixel=pixel, confidence=0.9)


# ---------------------------------------------------------------------------
# scripted expert and demo library generation

def _trapezoid_leg(p0, p1, v_max, accel, rate):
    """Samples (excluding p0, including p1) along a straight leg with a
    trapezoidal speed profile."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = float(np.linalg.norm(p1 - p0))
    if d < 1e-12:
        return np.zeros((0, 3))
    direction = (p1 - p0) / d
    t_acc = v_max / accel
    d_acc = 0.5 * accel * t_acc ** 2
    if d < 2.0 * d_acc:
        t_acc = math.sqrt(d / accel)
        t_total = 2.0 * t_acc
    else:
        t_total = 2.0 * t_acc + (d - 2.0 * d_acc) / v_max
    v_peak = accel * t_acc

    def arc(t):
        t = min(t, t_total)
        if t <= t_acc:
            return 0.5 * accel * t * t
        if t <= t_total - t_acc:
            return 0.5 * accel * t_acc ** 2 + v_peak * (t - t_acc)
        tau = t_total - t
        return d - 0.5 * accel * tau * tau

    n = max(1, math.ceil(t_total * rate))
    s = np.array([arc(k / rate) for k in range(1, n + 1)])
    s[-1] = d   # land exactly on the leg end
    return p0 + s[:, None] * direction


def scripted_pick_place(layout: Layout, world: SimWorld, task: TaskSpec,
                        rng) -> tuple:
    """Expert trajectory for one pick-place task in the given world.

    Returns (trajectory, grasp_point, release_point, dest_anchor,
    dest_anchor_position). The release target is sampled over the full
    destination region (away from its edges) so independently scripted
    demos spread their placements.
    """
    spec = layout.object_spec(task.obj)
    grasp_offset = np.asarray(spec.grasp_offset)
    gp = world.objects[task.obj].position + grasp_offset

    if task.dest == BOWL:
        bowl_spec = layout.object_spec(BOWL)
        anchor = BOWL
        anchor_pos = world.objects[BOWL].position.copy()
        rp = anchor_pos + np.array([0.0, 0.0, bowl_spec.interior_offset
                                    + layout.release_clearance]) + grasp_offset
    else:
        region = layout.region(task.dest)
        anchor = task.dest
        anchor_pos = region.center
        others = [state.position[:2] for name, state in world.objects.items()
                  if name != task.obj]
        for _ in range(200):   # keep the drop spot clear of other objects
            xy = region.sample_xy(rng, margin=layout.release_margin)
            if all(np.linalg.norm(xy - o) >= 0.12 for o in others):
                break
        else:
            raise PreconditionUnsatisfiable(
                f"no clear release spot on {task.dest!r}")
        rp = np.array([xy[0], xy[1],
                       region.z + layout.release_clearance]) + grasp_offset

    above_gp = gp + np.array([0.0, 0.0, layout.approach_height])
    above_rp = rp + np.array([0.0, 0.0, layout.approach_height])
    home = np.array(layout.home, dtype=float)
    dwell = max(1, round(layout.dwell_s * layout.control_rate))

    points = [home]
    bits = [0]

    def leg(target, bit):
        for p in _trapezoid_leg(points[-1], target, layout.max_speed,
                                layout.accel, layout.control_rate):
            points.append(p)
            bits.append(bit)

    leg(above_gp, 0)
    leg(gp, 0)
    for _ in range(dwell):          # toggle closed while holding still
        points.append(gp.copy())
        bits.append(1)
    leg(above_gp, 1)
    leg(above_rp, 1)
    leg(rp, 1)
    for _ in range(dwell):          # toggle open while holding still
        points.append(rp.copy())
        bits.append(0)
    leg(above_rp, 0)
    leg(home, 0)

    positions = np.array(points)
    quats = np.tile(np.asarray(layout.home_orientation, dtype=float),
                    (len(points), 1))
    traj = trajectory_from_parts(positions, quats, np.array(bits, dtype=float),
                                 layout.control_rate)
    return traj, gp, rp, anchor, anchor_pos


def _demo_slots(task: TaskSpec, layout: Layout) -> dict:
    slots = {spec.id: TABLE for spec in layout.objects}
    slots[task.obj] = task.source
    return slots


def generate_seed_demos(layout: Layout, task: TaskSpec, n: int = 10,
                        seed: int = 0):
    """Scripted demonstrations for one task: spawn, script, execute, summarize.

    Returns (summaries, sidecars) where each sidecar carries the oracle
    annotations for the demo's initial frame, plus the post-execution scene
    and the final-keypoint annotation used for success verification.
    """
    summaries, sidecars = [], {}
    for i in range(n):
        demo_seed = (seed, task.id, i)
        demo_seed = int.from_bytes(hashlib.blake2b(
            repr(demo_seed).encode(), digest_size=6).digest(), "big")
        try:
            world = spawn_world(layout, demo_seed,
                                slots=_demo_slots(task, layout),
                                params=WorldParams(p_tip=0.0, settle_jitter=0.0),
                                region_scale=layout.demo_region_scale)
        except ConfigError as e:
            raise PreconditionUnsatisfiable(
                f"cannot stage task {task.id!r}: {e}") from e
        state = symbolic_state(world)
        if not task.precondition(state):
            raise PreconditionUnsatisfiable(
                f"cannot stage task {task.id!r} (state {state.to_dict()})")
        rng = np.random.default_rng(demo_seed + 1)
        traj, gp, rp, anchor, anchor_pos = scripted_pick_place(
            layout, world, task, rng)
        obs = snapshot(world)
        demo_id = f"{task.id}-{i:02d}"
        summary = summarize_demo(traj, obs, task.id, demo_id)

        execute_plan(world, traj)
        if symbolic_state(world).slot_of(task.obj) != task.dest:
            raise RuntimeError(f"scripted demo {demo_id!r} did not reach "
                               f"{task.dest!r}; layout is inconsistent")
        final_obs = snapshot(world)
        obj_final = world.objects[task.obj].position

        grasp_offset = np.asarray(layout.object_spec(task.obj).grasp_offset)
        initial_annots, final_annots = [], []
        for view in ("left", "right"):
            kp = summary.keypoints[view]
            initial_annots.append({"view": view, "pixel": kp[0].tolist(),
                                   "anchor": task.obj,
                                   "offset": grasp_offset.tolist()})
            initial_annots.append({"view": view, "pixel": kp[1].tolist(),
                                   "anchor": anchor,
                                   "offset": (rp - anchor_pos).tolist()})
            final_annots.append({"view": view, "pixel": kp[1].tolist(),
                                 "anchor": task.obj,
                                 "offset": (rp - obj_final).tolist()})

        # The demo half of the cross-view consistency check never changes
        # (the demo frames are fixed), so it is computed once here with a
        # clean matcher and stored with the demo.
        probe = CorrespondenceOracle(OracleConfig())
        for a in initial_annots:
            probe.register_annotation(obs.state_id, a["view"], a["pixel"],
                                      a["anchor"], a["offset"])
        demo_side = {view: [cross_view_distance(probe, obs,
                                                summary.keypoints[view][t],
                                                view, summary.waypoints[t])
                            for t in range(summary.num_waypoints)]
                     for view in ("left", "right")}

        sidecars[demo_id] = {
            "demo_id": demo_id,
            "task_id": task.id,
            "initial": {"state_id": obs.state_id, "annotations": initial_annots,
                        "cross_view_distances": demo_side},
            "final": {"state_id": final_obs.state_id,
                      "scene": snapshot_content_to_dict(final_obs.content),
                      "annotations": final_annots},
        }
        summaries.append(summary)
    return summaries, sidecars


def generate_demo_library(layout: Layout, tasks, n: int = 10, seed: int = 0):
    """Seed demos for every task; returns (summaries, sidecars)."""
    all_summaries, all_sidecars = [], {}
    for task in tasks:
        summaries, sidecars = generate_seed_demos(layout, task, n=n, seed=seed)
        all_summaries.extend(summaries)
        all_sidecars.update(sidecars)
    return all_summaries, all_sidecars


class DemoLibrary:
    """Demo summaries plus their oracle sidecars, loaded from a directory."""

    def __init__(self, demos, sidecars, rig: StereoRig):
        self.demos = {d.id: d for d in demos}
        self.sidecars = sidecars
        self.task_ids = sorted({d.task_id for d in demos})
        self.by_task = {t: sorted(d.id for d in demos if d.task_id == t)
                        for t in self.task_ids}
        self.demo_side_distances = {
            demo_id: {v: np.asarray(d, dtype=float) for v, d in
                      side["initial"]["cross_view_distances"].items()}
            for demo_id, side in sidecars.items()
            if "cross_view_distances" in side.get("initial", {})}
        self.final_snapshots = {}
        for demo_id, side in sidecars.items():
            scene = side["final"]["scene"]["payload"]
            content = SemanticScene(
                objects={k: ObjectState(position=tuple(v["position"]),
                                        upright=v["upright"])
                         for k, v in scene["objects"].items()},
                anchors={k: tuple(v) for k, v in scene["anchors"].items()},
                state_id=scene["state_id"])
            self.final_snapshots[demo_id] = SceneSnapshot(rig=rig, content=content)

    @staticmethod
    def load(directory) -> "DemoLibrary":
        directory = Path(directory)
        index = load_demo_index(directory)
        demos, sidecars = [], {}
        for entry in index["demos"]:
            demos.append(decode_summary((directory / entry["file"]).read_bytes()))
            if "sidecar" in entry:
                sidecars[entry["id"]] = json.loads(
                    (directory / entry["sidecar"]).read_text())
        if not demos:
            raise ConfigError(f"demo library at {directory} is empty")
        return DemoLibrary(demos, sidecars, demos[0].snapshot.rig)

    def save(self, directory):
        save_demo_library(directory, sorted(self.demos.values(), key=lambda d: d.id),
                          self.sidecars)

    def register_with(self, oracle: CorrespondenceOracle):
        for side in self.sidecars.values():
            for block in ("initial", "final"):
                state_id = side[block]["state_id"]
                for a in side[block]["annotations"]:
                    oracle.register_annotation(state_id, a["view"], a["pixel"],
                                               a["anchor"], a["offset"])
