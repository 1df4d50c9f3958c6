"""Kinematic tabletop world: scene spawning, plan execution, ground truth.

The world has no contact dynamics; the gripper teleports along action
positions, grasping snaps the nearest object within a radius to the
gripper, and released objects settle straight down onto the highest
support under them (bowl interior, then shelf, then table). Dropping from
height can tip an object over with configurable probability, the minimal
stochastic stand-in for real placement failures. The objects are one
frozen scene snapshot, replaced with its symbolic state wherever they move.

The module also hosts the correspondence oracle used in place of a learned
matcher: demo keypoints are annotated at summarization time with the scene
anchor (object or fixed slot) plus a local offset, and a match is the
projection of that anchor-relative point into the requested view of the
target scene, optionally corrupted by pixel noise and outliers.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .correspondence import demo_cross_view_distances
from .demo import (DEFAULT_CONTROL_RATE, INDEX_FILE, ConfigError, ObjectState,
                   SceneSnapshot, Trajectory, _Probe, objects_from_probe, objects_to_dict,
                   read_json_with_bytes, rig_from_probe, rig_to_dict,
                   scene_from_probe, scene_to_dict, summarize_demo,
                   summary_from_probe, trajectory_from_parts)
from .geometry import (UNIT_TOL, CameraIntrinsics, NonPositiveDepth, StereoRig,
                       look_at_camera, project)
from .tasks import BOWL, SHELF, TABLE, SymbolicState, TaskSpec, builtin_tasks


class PreconditionUnsatisfiable(ConfigError):
    """The given layout cannot hold its objects apart in their slots, or a
    demo of the requested task cannot be staged, scripted, executed or
    summarized in it."""


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
    footprint: float = 0.0          # half-width of the bowl's capture region
    interior_offset: float = 0.0    # support height above the bowl's base


@dataclass(frozen=True)
class Layout:
    table: SlotRegion
    shelf: SlotRegion
    objects: tuple                   # ObjectSpec; the bowl is the one container
    rig: StereoRig
    home: tuple
    home_orientation: tuple          # wxyz
    workspace_min: tuple
    workspace_max: tuple

    def __post_init__(self):
        ids = [spec.id for spec in self.objects]
        if (len(set(ids)) < len(ids) or {TABLE, SHELF} & set(ids)
                or not {task.obj for task in builtin_tasks()} <= set(ids)):
            raise ConfigError(f"object ids {ids} must differ, name no fixed slot "
                              "and include each object a built-in task moves")
        if any(spec.footprint < 0 or spec.interior_offset < 0 for spec in self.objects):
            raise ConfigError("an object has a negative footprint or interior_offset")
        if abs(np.linalg.norm(self.home_orientation) - 1.0) > UNIT_TOL:
            raise ConfigError("home_orientation must be a unit quaternion")
        if not all(lo < hi for lo, hi in zip(self.workspace_min, self.workspace_max)):
            raise ConfigError("workspace_min must be below workspace_max on every axis")

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
        return {TABLE: tuple(self.table.center.tolist()),
                SHELF: tuple(self.shelf.center.tolist())}


def layout_to_dict(layout: Layout) -> dict:
    return dict(asdict(layout), rig=rig_to_dict(layout.rig))


def _check_keys(p: _Probe, record, retired):
    """Fail on a key of `p` that is neither a field of `record` nor a key of
    `retired` holding its value there."""
    for key in sorted(p.mapping().keys() - {f.name for f in fields(record)}):
        if key not in retired:
            p.fail(f"unknown key {key!r}")
        value = retired[key]
        if (p.child(key).boolean() if isinstance(value, bool) else p.child(key).number()) != value:
            p.fail(f"retired key {key!r} must hold {value!r} or be left out")


def layout_from_dict(doc: dict) -> Layout:
    """The layout a `layout_to_dict` document holds. A key that is not a field
    of `Layout` or `ObjectSpec` fails, unless it is a retired key holding the
    value earlier versions wrote: a key of `EXPERT_TUNING`, and an object's
    `is_container`, true on the bowl and false elsewhere."""
    try:
        p = _Probe(doc)
        _check_keys(p, Layout, EXPERT_TUNING)
        regions = {}
        for name in ("table", "shelf"):
            rp = p.child(name)
            bounds = {f.name: rp.child(f.name).number() for f in fields(SlotRegion)}
            try:
                regions[name] = SlotRegion(**bounds)
            except ConfigError as e:
                rp.fail(str(e))
        objects = []
        for op in p.child("objects").array():
            objects.append(ObjectSpec(id=op.child("id").string(),
                                      grasp_offset=tuple(op.child("grasp_offset").vector(3)),
                                      footprint=op.child("footprint").number(),
                                      interior_offset=op.child("interior_offset").number()))
            _check_keys(op, ObjectSpec, {"is_container": objects[-1].id == BOWL})
        return Layout(table=regions["table"], shelf=regions["shelf"],
                      objects=tuple(objects), rig=rig_from_probe(p.child("rig")),
                      home=tuple(p.child("home").vector(3)),
                      home_orientation=tuple(p.child("home_orientation").vector(4)),
                      workspace_min=tuple(p.child("workspace_min").vector(3)),
                      workspace_max=tuple(p.child("workspace_max").vector(3)))
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
                       footprint=0.06, interior_offset=0.015),
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
    settle_jitter: float = 0.0      # m, xy scatter when an object settles


class SimWorld:
    """Single-owner world: the objects as one frozen `scene` with its
    `symbolic` state, the gripper, and the world RNG."""

    def __init__(self, layout: Layout, params: WorldParams, rng: np.random.Generator,
                 objects: dict):
        self.layout = layout
        self.params = params
        self.rng = rng
        self.set_objects(objects)
        self.home_gripper()

    def set_objects(self, objects: dict):
        """Replace the scene by one holding `objects` (id -> ObjectState) and
        derive its symbolic state: each object's slot by region containment,
        and its upright flag. The only writer of `scene` and `symbolic`."""
        self.scene = SceneSnapshot(rig=self.layout.rig, objects=objects,
                                   anchors=self.layout.anchors())
        objects, slots, shelf = self.scene.objects, {}, self.layout.shelf
        bowl, bowl_spec = objects[BOWL], self.layout.object_spec(BOWL)
        for obj_id, state in objects.items():
            pos = state.position
            if obj_id != BOWL and bowl.upright and _inside(bowl_spec, bowl.position, pos):
                slots[obj_id] = BOWL
            elif shelf.contains_xy(pos[0], pos[1]) and abs(pos[2] - shelf.z) < RESTING_TOLERANCE:
                slots[obj_id] = SHELF
            else:
                slots[obj_id] = TABLE
        self.symbolic = SymbolicState.make(slots, {k: o.upright for k, o in objects.items()})

    def home_gripper(self):
        """Open, empty-handed gripper at the layout's home pose."""
        self.gripper_position = np.array(self.layout.home, dtype=float)
        self.gripper_orientation = np.array(self.layout.home_orientation, dtype=float)
        self.gripper_closed = False
        self.attached = None
        self._rider_offsets = {}

    def state_dict(self) -> dict:
        return {
            "objects": objects_to_dict(self.scene.objects),
            "gripper": {"position": self.gripper_position.tolist(),
                        "orientation": self.gripper_orientation.tolist(),
                        "closed": self.gripper_closed,
                        "attached": self.attached,
                        "riders": {k: v.tolist() for k, v in self._rider_offsets.items()}},
            "rng_state": self.rng.bit_generator.state,
        }

    @staticmethod
    def from_state_dict(layout: Layout, params: WorldParams, doc: dict) -> "SimWorld":
        """Inverse of `state_dict`; SchemaError naming a missing or mistyped
        field, or objects other than the layout's."""
        p = _Probe(doc, "world")
        rng = np.random.default_rng(0)
        rng.bit_generator.state = p.child("rng_state").mapping()
        ids = {spec.id for spec in layout.objects}
        objects = objects_from_probe(p.child("objects"))
        if set(objects) != ids:
            p.child("objects").fail(f"{sorted(objects)} are not the layout's {sorted(ids)}")
        world = SimWorld(layout, params, rng, objects)
        g = p.child("gripper")
        world.gripper_position = np.array(g.child("position").vector(3))
        world.gripper_orientation = np.array(g.child("orientation").vector(4))
        world.gripper_closed = g.child("closed").boolean()
        attached = g.child("attached")
        world.attached = None if attached.doc is None else attached.string()
        riders = g.child("riders")
        world._rider_offsets = {k: np.array(riders.child(k).vector(3))
                                for k in riders.mapping()}
        if not {world.attached, *world._rider_offsets} <= ids | {None}:
            g.fail(f"attached or riders name an object outside the layout's {sorted(ids)}")
        return world


MIN_SEPARATION = 0.12   # m, least distance between two placed objects


def _place_objects(layout: Layout, rng, slots, region_scale) -> dict:
    """id -> upright ObjectState for every object of the layout."""
    slots = dict(slots or {})
    positions = {}
    ordered = sorted(layout.objects, key=lambda s: s.id != BOWL)
    for spec in ordered:
        slot = slots.get(spec.id, TABLE)
        if slot in (TABLE, SHELF):
            region = layout.region(slot)
            placed = None
            for _ in range(500):
                xy = region.sample_xy(rng, scale=region_scale)
                if all(np.linalg.norm(xy - p[:2]) >= MIN_SEPARATION
                       for p in positions.values()):
                    placed = np.array([xy[0], xy[1], region.z])
                    break
            if placed is None:
                raise PreconditionUnsatisfiable(f"cannot place {spec.id!r} in {slot!r} "
                                                "without overlap")
            positions[spec.id] = placed
        elif slot == BOWL:
            container = layout.object_spec(BOWL)
            if BOWL not in positions:
                raise ConfigError(f"{spec.id!r} starts inside the bowl but the "
                                  "bowl is unplaced")
            positions[spec.id] = positions[BOWL] + np.array(
                [0.0, 0.0, container.interior_offset])
        else:
            raise ConfigError(f"unknown slot {slot!r} for {spec.id!r}")
    return {k: ObjectState(position=tuple(p.tolist())) for k, p in positions.items()}


def spawn_world(layout: Layout, seed, slots=None, params: WorldParams = None,
                region_scale: float = 1.0) -> SimWorld:
    """Place every object uniformly at random inside its slot region.

    `slots` maps object id to its starting slot (defaults to the table);
    the bowl is placed before its contents. Raises PreconditionUnsatisfiable
    when placements cannot satisfy the separation constraint.
    """
    rng = np.random.default_rng(seed)
    params = params or WorldParams()
    objects = _place_objects(layout, rng, slots, region_scale)
    return SimWorld(layout, params, rng, objects)


def randomize_world(world: SimWorld):
    """Intervention reset: re-place every object upright on the table with the
    world's own RNG, and home the gripper."""
    world.set_objects(_place_objects(world.layout, world.rng, None, 1.0))
    world.home_gripper()


def snapshot(world: SimWorld) -> SceneSnapshot:
    """The world's current scene, frozen."""
    return world.scene


def _support_below(layout: Layout, positions, upright, xy, exclude):
    """Highest support under an xy location: bowl interior > shelf > table."""
    bowl, position = layout.object_spec(BOWL), positions[BOWL]
    if (exclude != BOWL and upright[BOWL] and abs(xy[0] - position[0]) <= bowl.footprint
            and abs(xy[1] - position[1]) <= bowl.footprint):
        return BOWL, position[2] + bowl.interior_offset
    if layout.shelf.contains_xy(xy[0], xy[1]):
        return SHELF, layout.shelf.z
    return TABLE, layout.table.z


RESTING_TOLERANCE = 0.04   # m, height band within which an object rests on a support
TIP_DROP_HEIGHT = 0.05     # m, a release from higher than this may tip the object


def _inside(spec: ObjectSpec, container, point) -> bool:
    """Whether `point` rests inside container `spec` standing at `container`."""
    return (abs(point[0] - container[0]) <= spec.footprint
            and abs(point[1] - container[1]) <= spec.footprint
            and abs(point[2] - (container[2] + spec.interior_offset)) < RESTING_TOLERANCE)


def symbolic_state(world: SimWorld) -> SymbolicState:
    """The symbolic state of the world's current scene."""
    return world.symbolic


# ---------------------------------------------------------------------------
# plan execution

@dataclass
class ExecutionTrace:
    positions: np.ndarray       # executed (clipped) gripper positions
    events: list
    out_of_bounds: int


def execute_plan(world: SimWorld, traj: Trajectory) -> ExecutionTrace:
    """Teleport the gripper along the trajectory, then set the world's scene
    to where the objects came to rest.

    Grasping happens at close transitions (nearest object within the world's
    grasp_radius of the gripper's grasp point, or a logged miss), releasing
    at open transitions; objects inside a grasped container ride along.
    Actions outside the workspace are clipped and counted. Between
    transitions nothing but the carried objects moves, so they are placed
    only at transition frames and at the last frame, in a copy of the
    scene's positions and upright flags.
    """
    P, Q, G = traj.positions, traj.orientations, traj.gripper
    # np.clip, without its overhead
    executed = np.minimum(np.maximum(P, world.layout.workspace_min), world.layout.workspace_max)
    oob = int(np.count_nonzero((executed != P).any(axis=1)))
    toggles = (np.flatnonzero(G[1:] != G[:-1]) + 1).tolist()
    if G[0] == 1 and not world.gripper_closed:
        toggles.insert(0, 0)
    last = len(traj) - 1
    events = []
    objects = world.scene.objects
    positions = {k: np.array(o.position) for k, o in objects.items()}
    upright = {k: o.upright for k, o in objects.items()}

    for i in toggles if toggles[-1:] == [last] else toggles + [last]:
        p = executed[i]
        if world.attached is not None:
            spec = world.layout.object_spec(world.attached)
            held = positions[world.attached] = p - np.asarray(spec.grasp_offset)
            for rider, off in world._rider_offsets.items():
                positions[rider] = held + off
        if i in toggles:
            if G[i] == 1:
                _close_gripper(world, positions, p, events, i)
            else:
                _open_gripper(world, positions, upright, events, i)
    world.gripper_position = executed[last].copy()
    world.gripper_orientation = Q[last].copy()
    world.gripper_closed = bool(G[last])
    world.set_objects({k: ObjectState(position=tuple(p.tolist()), upright=upright[k])
                       for k, p in positions.items()})
    return ExecutionTrace(positions=executed, events=events, out_of_bounds=oob)


def _close_gripper(world, positions, at, events, step):
    best, best_d = None, float("inf")
    for spec in world.layout.objects:
        v = at - (positions[spec.id] + np.asarray(spec.grasp_offset))
        d = math.sqrt(v.dot(v))   # np.linalg.norm(v), bit for bit
        if d < best_d:
            best, best_d = spec.id, d
    if best_d > world.params.grasp_radius:
        events.append({"kind": "grasp_miss", "step": step,
                       "nearest": best, "distance": best_d})
        return
    spec = world.layout.object_spec(best)
    held = positions[best] = at - np.asarray(spec.grasp_offset)   # snap to the gripper
    world.attached = best
    world._rider_offsets = {}
    if best == BOWL:
        for other_id, other in positions.items():
            if other_id != best and _inside(spec, held, other):
                world._rider_offsets[other_id] = other - held
    events.append({"kind": "grasp", "step": step, "object": best,
                   "distance": best_d, "riders": sorted(world._rider_offsets)})


def _open_gripper(world, positions, upright, events, step):
    if world.attached is None:
        events.append({"kind": "release_empty", "step": step})
        return
    obj_id = world.attached
    xy = positions[obj_id][:2].copy()
    if world.params.settle_jitter > 0:
        xy = xy + world.rng.normal(0.0, world.params.settle_jitter, 2)
    slot, support = _support_below(world.layout, positions, upright, xy, obj_id)
    drop = positions[obj_id][2] - support
    tipped = False
    if drop > TIP_DROP_HEIGHT and world.params.p_tip > 0:
        tipped = bool(world.rng.random() < world.params.p_tip)
    positions[obj_id] = np.array([xy[0], xy[1], support])
    if tipped:
        upright[obj_id] = False
    for rider, off in world._rider_offsets.items():
        positions[rider] = positions[obj_id] + off
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
        if not 0.0 <= self.pixel_noise_sigma < math.inf:
            raise ConfigError("pixel_noise_sigma must be non-negative and finite")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ConfigError("outlier_rate must be a probability")


_WORDS = struct.Struct(">3Q")   # a digest's first 24 bytes as three 64-bit words
_ULP53 = 2.0 ** -53              # a word's top 53 bits times this: a uniform in [0, 1)


class CorrespondenceOracle:
    """MatcherInterface backed by the simulator's semantic ground truth.

    A query pixel resolves through an (anchor, offset) annotation recorded
    at summarization time and keyed by (scene state id, view, pixel); a
    state id comes from the scene's objects and anchors alone. The
    true match is the projection of anchor-position-in-target plus offset
    into the requested view, optionally corrupted: with probability
    outlier_rate the match is replaced by a uniform random in-image pixel
    and otherwise isotropic Gaussian pixel noise is added. `match` returns
    the (2,) pixel array, or None.

    Corruption is a pure function of (seed, query), so repeated queries are
    deterministic. A query's draws come from one 32-byte blake2b digest of
    the seed, both state ids, both views and the query pixel written to 6
    decimals: three uniforms u0, u1, u2 in [0, 1), each the top 53 bits of
    one 8-byte word. The match is an outlier when u0 < outlier_rate, and
    its junk pixel is (u1 width, u2 height); otherwise the noise is the
    Box-Muller pair of u1 and u2, sigma sqrt(-2 ln(1 - u1)) times
    (cos, sin)(2 pi u2). The pixel, not the annotation's (anchor, offset),
    keys the draws: demos of one task share their grasp annotation, and
    keying on it would corrupt all their queries alike.

    Pixels returned by `match` are memoized with the anchor they came from
    so that follow-up cross-view queries on matched pixels resolve too;
    outlier pixels are memoized as unresolvable. Registered annotations are
    permanent. The memo holds the matches into one state (the current
    observation) and drops them when a match into another state is memoized.

    Beside it, the projections into one scene (one snapshot) are memoized by
    (target view, anchor, offset) and dropped when a projection into another
    scene is made: a cross-view query resolves to the anchor and offset of
    the direct match it follows, and the demos of one task share their
    grasp anchor, so each projects once. A memoized pixel is handed out
    read-only; a noisy or outlier reply is a fresh array.

    A query resolves only through the annotation at exactly its pixel,
    bit for bit: registered annotations before memoized matches, and the
    first registration of a pixel before later ones. Any other pixel has no
    match.
    """

    def __init__(self, config: OracleConfig = None):
        self.config = config or OracleConfig()
        self._annotations = {}   # (state_id, view, pixel) -> (anchor, offset)
        self._memo = {}          # (view, pixel) -> (anchor|None, offset)
        self._memo_state = None  # the state the memo's matches are into
        self._projections = {}   # (view, anchor, offset) -> read-only pixel|None
        self._projected_scene = None   # the snapshot they are projections into

    def register_annotation(self, state_id, view, pixel, anchor, offset):
        # map(float, ...) keeps the caller's float objects (a loaded
        # library's annotations) instead of allocating copies
        pixel = tuple(map(float, pixel))
        offset = tuple(map(float, offset))
        self._annotations.setdefault((state_id, view, pixel), (anchor, offset))

    def _memoize(self, state_id, view, pixel, anchor, offset):
        if state_id != self._memo_state:
            self._memo = {}
            self._memo_state = state_id
        self._memo.setdefault((view, tuple(pixel.tolist())), (anchor, offset))

    @staticmethod
    def _anchor_position(scene: SceneSnapshot, anchor):
        if anchor in scene.objects:
            return scene.objects[anchor].position
        if anchor in scene.anchors:
            return scene.anchors[anchor]
        return None   # anchor object removed from the scene

    def _projection(self, target: SceneSnapshot, view, anchor, offset):
        """The anchor plus offset projected into `view` of `target`, as a
        read-only pixel, or None when the anchor is gone or the point is not
        in front of the camera; memoized for one scene."""
        if target is not self._projected_scene:
            self._projections = {}
            self._projected_scene = target
        key = (view, anchor, offset)
        if key in self._projections:
            return self._projections[key]
        anchor_pos = self._anchor_position(target, anchor)
        pixel = None
        if anchor_pos is not None:
            try:
                pixel = project(target.rig.camera(view),
                                [a + o for a, o in zip(anchor_pos, offset)])
                pixel.flags.writeable = False
            except NonPositiveDepth:
                pass
        self._projections[key] = pixel
        return pixel

    def _query_draws(self, src_id, tgt_id, qv, tv, pixel):
        """The query's three uniforms in [0, 1), from its digest."""
        key = (f"{self.config.seed}|{src_id}|{tgt_id}|{qv}|{tv}"
               f"|{pixel[0]:.6f}|{pixel[1]:.6f}")
        words = _WORDS.unpack_from(hashlib.blake2b(key.encode(), digest_size=32).digest())
        return [(w >> 11) * _ULP53 for w in words]

    def match(self, source: SceneSnapshot, target: SceneSnapshot,
              query_pixel, query_view: str, target_view: str):
        key = tuple(query_pixel.tolist() if isinstance(query_pixel, np.ndarray)
                    else map(float, query_pixel))
        entry = self._annotations.get((source.state_id, query_view, key))
        if entry is None and source.state_id == self._memo_state:
            entry = self._memo.get((query_view, key))
        if entry is None or entry[0] is None:
            return None
        anchor, offset = entry
        pixel = self._projection(target, target_view, anchor, offset)
        if pixel is None:
            return None

        cfg = self.config
        if cfg.outlier_rate > 0.0 or cfg.pixel_noise_sigma > 0.0:
            u0, u1, u2 = self._query_draws(source.state_id, target.state_id,
                                           query_view, target_view, key)
            if u0 < cfg.outlier_rate:
                k = target.rig.camera(target_view).intrinsics
                junk = np.array([u1 * k.width, u2 * k.height])
                self._memoize(target.state_id, target_view, junk, None, None)
                return junk
            if cfg.pixel_noise_sigma > 0.0:
                r = cfg.pixel_noise_sigma * math.sqrt(-2.0 * math.log(1.0 - u1))
                theta = 2.0 * math.pi * u2
                u, v = pixel.tolist()
                pixel = np.array([u + r * math.cos(theta), v + r * math.sin(theta)])
        self._memoize(target.state_id, target_view, pixel, anchor, offset)
        return pixel


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


# The scripted expert's fixed tuning. Layouts that earlier versions wrote
# carry these keys with these values; `layout_from_dict` ignores them there.
EXPERT_TUNING = {
    "control_rate": DEFAULT_CONTROL_RATE,
    "demo_region_scale": 0.35,   # demos are staged near slot centers
    "release_margin": 0.05,      # m, keep releases away from slot edges
    "approach_height": 0.12,     # m
    "release_clearance": 0.005,  # m
    "max_speed": 0.35,           # m/s
    "accel": 1.5,                # m/s^2
    "dwell_s": 0.2,              # pause while the gripper actuates
}


def scripted_pick_place(world: SimWorld, task: TaskSpec, rng) -> tuple:
    """Expert trajectory for one pick-place task in the given world.

    Returns (trajectory, release_point, dest_anchor, dest_anchor_position).
    The release target is sampled over the full destination region (away
    from its edges) so independently scripted demos spread their placements.
    """
    layout = world.layout
    spec = layout.object_spec(task.obj)
    grasp_offset = np.asarray(spec.grasp_offset)
    gp = np.array(world.scene.objects[task.obj].position) + grasp_offset

    if task.dest == BOWL:
        bowl_spec = layout.object_spec(BOWL)
        anchor = BOWL
        anchor_pos = np.array(world.scene.objects[BOWL].position)
        rp = anchor_pos + np.array([0.0, 0.0, bowl_spec.interior_offset
                                    + EXPERT_TUNING["release_clearance"]]) + grasp_offset
    else:
        region = layout.region(task.dest)
        anchor = task.dest
        anchor_pos = region.center
        others = [state.position[:2] for name, state in world.scene.objects.items()
                  if name != task.obj]
        for _ in range(200):   # keep the drop spot clear of other objects
            xy = region.sample_xy(rng, margin=EXPERT_TUNING["release_margin"])
            if all(np.linalg.norm(xy - o) >= MIN_SEPARATION for o in others):
                break
        else:
            raise PreconditionUnsatisfiable(
                f"no clear release spot on {task.dest!r}")
        rp = np.array([xy[0], xy[1],
                       region.z + EXPERT_TUNING["release_clearance"]]) + grasp_offset

    above_gp = gp + np.array([0.0, 0.0, EXPERT_TUNING["approach_height"]])
    above_rp = rp + np.array([0.0, 0.0, EXPERT_TUNING["approach_height"]])
    home = np.array(layout.home, dtype=float)
    rate = EXPERT_TUNING["control_rate"]
    dwell = max(1, round(EXPERT_TUNING["dwell_s"] * rate))

    points = [home]
    bits = [0]

    def leg(target, bit):
        for p in _trapezoid_leg(points[-1], target, EXPERT_TUNING["max_speed"],
                                EXPERT_TUNING["accel"], rate):
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
    traj = trajectory_from_parts(positions, quats, np.array(bits, dtype=float), rate)
    return traj, rp, anchor, anchor_pos


def generate_seed_demos(layout: Layout, task: TaskSpec, n: int = 10,
                        seed: int = 0):
    """Scripted demonstrations for one task: spawn, script, execute, summarize.

    Returns (summaries, sidecars) where each sidecar anchors each waypoint
    on the object or slot it is placed relative to in the initial scene, and
    holds the post-execution scene with the last waypoint re-anchored on the
    object where it came to rest, for success verification.
    """
    summaries, sidecars = [], {}
    for i in range(n):
        demo_seed = (seed, task.id, i)
        demo_seed = int.from_bytes(hashlib.blake2b(
            repr(demo_seed).encode(), digest_size=6).digest(), "big")
        demo_id = f"{task.id}-{i:02d}"
        try:
            world = spawn_world(layout, demo_seed,
                                slots={task.obj: task.source},
                                params=WorldParams(p_tip=0.0, settle_jitter=0.0),
                                region_scale=EXPERT_TUNING["demo_region_scale"])
            state = symbolic_state(world)
            if not task.precondition(state):
                raise ConfigError(f"its start state is {state.to_dict()}")
            rng = np.random.default_rng(demo_seed + 1)
            traj, rp, anchor, anchor_pos = scripted_pick_place(world, task, rng)
            summary = summarize_demo(traj, snapshot(world), task.id, demo_id)
            execute_plan(world, traj)
            if symbolic_state(world).slot_of(task.obj) != task.dest:
                raise ConfigError(f"it did not reach {task.dest!r}")
        except (ConfigError, NonPositiveDepth) as e:
            raise PreconditionUnsatisfiable(f"scripted demo {demo_id!r}: {e}") from e
        sidecars[demo_id] = {
            "initial": {"anchors": [
                {"anchor": task.obj, "offset": list(layout.object_spec(task.obj).grasp_offset)},
                {"anchor": anchor, "offset": (rp - anchor_pos).tolist()}]},
            "final": {"scene": scene_to_dict(snapshot(world)),
                      "anchor": task.obj,
                      "offset": (rp - world.scene.objects[task.obj].position).tolist()},
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
    """Demo summaries, each with its oracle sidecar, loaded from a directory.
    Each demo's final snapshot is its sidecar's final scene seen by that
    demo's own rig."""

    def __init__(self, demos, sidecars, files=None, digest=None):
        """`files` maps a demo id to its sidecar's file, for errors to name;
        `digest` is the sha256 of the files `load` read, None in memory."""
        self.digest = digest
        self.demos = {d.id: d for d in demos}
        unpaired = sorted(set(self.demos) ^ set(sidecars))
        if unpaired:
            raise ConfigError(f"demos without a sidecar or sidecars without a demo: {unpaired}")
        self.sidecars = sidecars
        self.by_task = {t: sorted(d.id for d in demos if d.task_id == t)
                        for t in sorted({d.task_id for d in demos})}
        # annotations: (state_id, view, pixel, anchor, offset), for register_with.
        # A sidecar anchor stands for its waypoint's keypoint in both views.
        self.final_snapshots, self.annotations = {}, []
        for demo_id, side in sidecars.items():
            demo = self.demos[demo_id]
            where = f"sidecar[{demo_id}]"
            p = _Probe(side, f"{files[demo_id]}: {where}" if files else where)
            initial, final = p.child("initial"), p.child("final")
            anchors = initial.child("anchors").array()
            if len(anchors) != demo.num_waypoints:
                initial.child("anchors").fail(f"expected one anchor per waypoint "
                                              f"({demo.num_waypoints}), got {len(anchors)}")
            self.final_snapshots[demo_id] = scene_from_probe(final.child("scene"),
                                                             demo.snapshot.rig)
            marks = [(demo.snapshot, t, a) for t, a in enumerate(anchors)]
            for snap, t, a in marks + [(self.final_snapshots[demo_id], -1, final)]:
                anchor, offset = a.child("anchor").string(), a.child("offset").vector(3)
                self.annotations += [(snap.state_id, view, demo.keypoints[view][t].tolist(),
                                      anchor, offset) for view in ("left", "right")]
        # The demo half of the cross-view check never changes (the demo frames
        # are fixed), so it is computed once here, with a clean matcher.
        oracle = CorrespondenceOracle(OracleConfig())
        self.register_with(oracle)
        self.demo_side_distances = {demo_id: demo_cross_view_distances(oracle, demo)
                                    for demo_id, demo in self.demos.items()}

    @staticmethod
    def load(directory, digest=None) -> "DemoLibrary":
        """The library in `directory`, each file read once; its `digest` is the
        sha256 of the bytes parsed: of the index, then of each entry's summary
        and sidecar. ConfigError naming the file when the index, a summary or
        a sidecar is missing, not JSON or malformed, or a summary's id is not
        its entry's, and naming `directory` when `digest` is given and differs."""
        directory = Path(directory)
        entries, index_bytes = read_json_with_bytes(directory / INDEX_FILE, lambda p: [
            (e.child("id").string(), directory / e.child("file").string(),
             directory / e.child("sidecar").string()) for e in p.child("demos").array()])
        if not entries:
            raise ConfigError(f"demo library at {directory} is empty")
        sha = hashlib.sha256(index_bytes)
        demos, sidecars, files = [], {}, {}
        for demo_id, summary, sidecar in entries:
            demo, summary_bytes = read_json_with_bytes(summary, summary_from_probe)
            if demo.id != demo_id:
                raise ConfigError(f"{summary}: id {demo.id!r} is not the index's {demo_id!r}")
            sidecars[demo_id], sidecar_bytes = read_json_with_bytes(sidecar, _Probe.mapping)
            sha.update(summary_bytes + sidecar_bytes)
            demos.append(demo)
            files[demo_id] = sidecar
        if digest not in (None, sha.hexdigest()):
            raise ConfigError(f"demo library at {directory} changed since the session played it")
        return DemoLibrary(demos, sidecars, files, sha.hexdigest())

    def register_with(self, oracle: CorrespondenceOracle):
        for annotation in self.annotations:
            oracle.register_annotation(*annotation)
