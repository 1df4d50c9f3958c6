"""Autonomous functional play: target, plan, warp, execute, evaluate, repeat.

Each iteration samples a target task from the softmax over negated success
counts, asks the planner for a task sequence reaching it, and attempts only
the first step (receding horizon). The top-k demos for that task by UCB are
matched into the observation, the closest feasible one is warped and
executed, and success requires both the evaluator and (optionally) the
correspondence-based verification to agree. Only the executed demo's arm is
updated. Sessions are deterministic for a fixed seed, checkpoint at a fixed
cadence, and can resume to a bit-identical final state.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Protocol

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .bandit import ArmStats, sample_target_task, select_top_k, update_stats
from .correspondence import AllInfeasible, FilterConfig, MatcherInterface, match_demo, select_source_demo
from .demo import DemoSummary, SceneSnapshot
from .geometry import point_ray_distance, ray_through_pixel
from .sim import (ConfigError, CorrespondenceOracle, DemoLibrary, Layout,
                  OracleConfig, SimWorld, WorldParams, default_layout,
                  execute_plan, layout_from_dict, randomize_world, snapshot,
                  spawn_world, symbolic_state)
from .tasks import SymbolicState, TaskSpec, builtin_tasks, task_map
from .warp import warp_trajectory


class NoPlan(ValueError):
    """No executable task sequence reaches the target from this state."""


class PlannerInterface(Protocol):
    def plan(self, state: SymbolicState, target_task: str) -> list:
        """Ordered task ids ending in the target; the first one must be
        executable in `state`. Raises NoPlan otherwise."""
        ...


class EvaluatorInterface(Protocol):
    def evaluate(self, pre_obs: SceneSnapshot, pre_state: SymbolicState,
                 post_obs: SceneSnapshot, post_state: SymbolicState,
                 task: TaskSpec) -> bool:
        ...


# ---------------------------------------------------------------------------
# planning and evaluation

def rule_based_plan(state: SymbolicState, target, tasks) -> list:
    """Shortest task sequence ending in the target whose first step is
    executable now. Breadth-first search over symbolic states; ties break
    by task id order."""
    ordered = sorted(tasks, key=lambda t: t.id)
    target_id = target.id if isinstance(target, TaskSpec) else target
    if target_id not in {t.id for t in ordered}:
        raise KeyError(f"target task {target_id!r} not in the task library")
    frontier = deque([(state, [])])
    seen = {state}
    while frontier:
        current, path = frontier.popleft()
        for task in ordered:
            if not task.precondition(current):
                continue
            if task.id == target_id:
                return path + [task.id]
            nxt = task.apply(current)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, path + [task.id]))
    raise NoPlan(f"no executable sequence reaches {target_id!r}")


class RuleBasedPlanner:
    def __init__(self, tasks):
        self.tasks = list(tasks)

    def plan(self, state, target_task):
        return rule_based_plan(state, target_task, self.tasks)


class RuleBasedEvaluator:
    """Ground-truth check: the task's effect holds and no other object
    changed slots."""

    def evaluate(self, pre_obs, pre_state, post_obs, post_state, task):
        if post_state.slot_of(task.obj) != task.dest:
            return False
        for obj, slot in pre_state.slots:
            if obj != task.obj and post_state.slot_of(obj) != slot:
                return False
        return True


def _post_json(url, payload, timeout):
    req = urllib.request.Request(url, data=json.dumps(payload).encode(),
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


class RemotePlanner:
    """Client for the documented HTTP planning protocol.

    POST {"kind": "plan", "symbolic_state": ..., "target_task": ...} and
    expect {"plan": [task ids]}. Timeouts and transport errors surface as
    NoPlan so the session records an intervention instead of crashing.
    """

    def __init__(self, url, timeout=10.0):
        self.url = url
        self.timeout = timeout

    def plan(self, state, target_task):
        payload = {"kind": "plan", "symbolic_state": state.to_dict(),
                   "target_task": target_task}
        try:
            reply = _post_json(self.url, payload, self.timeout)
        except (urllib.error.URLError, TimeoutError, OSError, ValueError) as e:
            raise NoPlan(f"remote planner unavailable: {e}") from e
        plan = reply.get("plan")
        if not plan:
            raise NoPlan(str(reply.get("reason", "remote planner returned no plan")))
        return [str(t) for t in plan]


class RemoteEvaluator:
    """Client for the documented HTTP evaluation protocol.

    POST {"kind": "evaluate", "pre": ..., "post": ..., "target_task": ...}
    and expect {"success": bool, "reason": str}. Timeouts count as failure.
    """

    def __init__(self, url, timeout=10.0):
        self.url = url
        self.timeout = timeout

    def evaluate(self, pre_obs, pre_state, post_obs, post_state, task):
        payload = {"kind": "evaluate", "pre": pre_state.to_dict(),
                   "post": post_state.to_dict(), "target_task": task.id}
        try:
            reply = _post_json(self.url, payload, self.timeout)
        except (urllib.error.URLError, TimeoutError, OSError, ValueError):
            return False
        return bool(reply.get("success", False))


def verify_by_correspondence(matcher: MatcherInterface, demo: DemoSummary,
                             final_obs: SceneSnapshot, executed_gripper,
                             threshold: float = 0.10,
                             source_snapshot: SceneSnapshot = None):
    """Correspondence-based success double-check.

    The demo's final keypoint is matched from each view into the final
    observation; the executed gripper position must lie within `threshold`
    of both matched rays. `source_snapshot` is the demo's final-frame
    snapshot when available (there the keypoint sits on the manipulated
    object, so the match tracks where the object actually ended up); it
    falls back to the demo's initial frame.

    Returns (passed, per-view distances); a failed match fails the check.
    """
    src = source_snapshot if source_snapshot is not None else demo.snapshot
    t = demo.num_waypoints - 1
    distances = {}
    passed = True
    for view in ("left", "right"):
        m = matcher.match(src, final_obs, demo.keypoints[view][t], view, view)
        if m is None:
            distances[view] = None
            passed = False
            continue
        ray = ray_through_pixel(final_obs.rig.camera(view), m.pixel)
        d = point_ray_distance(ray, executed_gripper)
        distances[view] = float(d)
        if d > threshold:
            passed = False
    return passed, distances


# ---------------------------------------------------------------------------
# session configuration

@dataclass
class SessionConfig:
    demo_library: str = ""
    layout: Optional[dict] = None     # layout schema, None for the default
    iterations: int = 500
    seed: int = 0
    k: int = 3
    c: float = 1.0
    temperature: float = 1.0
    residual_max: float = 0.10
    gap_max: float = 0.10
    pixel_noise_sigma: float = 0.0
    outlier_rate: float = 0.0
    p_tip: float = 0.05
    settle_jitter: float = 0.008
    explore_sigma: float = 0.015
    grasp_radius: float = 0.03
    verification_enabled: bool = True
    verification_threshold: float = 0.10
    max_consecutive_failures: int = 25
    checkpoint_every: int = 50
    planner_url: Optional[str] = None
    evaluator_url: Optional[str] = None
    remote_timeout_s: float = 10.0
    out_dir: str = ""

    _FIELD_TYPES = {
        "demo_library": str, "layout": (dict, type(None)), "iterations": int,
        "seed": int, "k": int, "c": (int, float), "temperature": (int, float),
        "residual_max": (int, float), "gap_max": (int, float),
        "pixel_noise_sigma": (int, float), "outlier_rate": (int, float),
        "p_tip": (int, float), "settle_jitter": (int, float),
        "explore_sigma": (int, float), "grasp_radius": (int, float),
        "verification_enabled": bool, "verification_threshold": (int, float),
        "max_consecutive_failures": int, "checkpoint_every": int,
        "planner_url": (str, type(None)), "evaluator_url": (str, type(None)),
        "remote_timeout_s": (int, float), "out_dir": str,
    }

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError("iterations must be non-negative")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if not self.temperature > 0:
            raise ConfigError("temperature must be positive")
        for name in ("c", "pixel_noise_sigma", "settle_jitter", "explore_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ConfigError("outlier_rate must be a probability")
        if not 0.0 <= self.p_tip <= 1.0:
            raise ConfigError("p_tip must be a probability")
        for name in ("residual_max", "gap_max", "grasp_radius",
                     "verification_threshold", "remote_timeout_s"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.max_consecutive_failures < 1:
            raise ConfigError("max_consecutive_failures must be at least 1")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be at least 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "SessionConfig":
        if not isinstance(doc, dict):
            raise ConfigError("session config must be a JSON object")
        unknown = set(doc) - set(cls._FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            expected = cls._FIELD_TYPES[key]
            if isinstance(value, bool) and expected is not bool:
                raise ConfigError(f"config key {key!r} has the wrong type")
            if not isinstance(value, expected):
                raise ConfigError(f"config key {key!r} has the wrong type")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# the session

LOG_FILE = "session_log.jsonl"
STATE_FILE = "session_state.json"


def _checkpoint_path(out_dir: Path, iteration: int) -> Path:
    return out_dir / "checkpoints" / f"ckpt_{iteration:06d}.json"


class PlaySession:
    """One reset-free play session over a demo library in a simulated world."""

    def __init__(self, cfg: SessionConfig, layout: Layout, library: DemoLibrary,
                 tasks, matcher, planner, evaluator, world: SimWorld,
                 rng: np.random.Generator, out_dir):
        self.cfg = cfg
        self.layout = layout
        self.library = library
        self.tasks = task_map(tasks)
        self.task_ids = sorted(self.tasks)
        self.matcher = matcher
        self.planner = planner
        self.evaluator = evaluator
        self.world = world
        self.rng = rng
        self.out_dir = Path(out_dir)
        self.filters = FilterConfig(residual_max=cfg.residual_max,
                                    gap_max=cfg.gap_max)
        self.iteration = 0
        self.consecutive_failures = 0
        self.interventions = []
        self.arms = {t: {d: ArmStats() for d in library.by_task.get(t, [])}
                     for t in self.task_ids}
        self.episodes = {t: [] for t in self.task_ids}
        missing = [t for t in self.task_ids if not library.by_task.get(t)]
        if missing:
            raise ConfigError(f"tasks without demos: {missing}")
        (self.out_dir / "dataset" / "episodes").mkdir(parents=True, exist_ok=True)
        (self.out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)

    # -- construction ------------------------------------------------------

    @staticmethod
    def _components(cfg: SessionConfig):
        layout = layout_from_dict(cfg.layout) if cfg.layout else default_layout()
        try:
            library = DemoLibrary.load(cfg.demo_library)
        except FileNotFoundError as e:
            raise ConfigError(f"cannot load demo library: {e}") from e
        oracle = CorrespondenceOracle(OracleConfig(
            pixel_noise_sigma=cfg.pixel_noise_sigma,
            outlier_rate=cfg.outlier_rate, seed=cfg.seed))
        library.register_with(oracle)
        tasks = [t for t in builtin_tasks() if t.id in library.task_ids]
        if sorted(t.id for t in tasks) != library.task_ids:
            raise ConfigError("demo library contains tasks outside the library: "
                              f"{library.task_ids}")
        planner = (RemotePlanner(cfg.planner_url, cfg.remote_timeout_s)
                   if cfg.planner_url else RuleBasedPlanner(tasks))
        evaluator = (RemoteEvaluator(cfg.evaluator_url, cfg.remote_timeout_s)
                     if cfg.evaluator_url else RuleBasedEvaluator())
        return layout, library, oracle, tasks, planner, evaluator

    @classmethod
    def start(cls, cfg: SessionConfig) -> "PlaySession":
        layout, library, oracle, tasks, planner, evaluator = cls._components(cfg)
        params = WorldParams(grasp_radius=cfg.grasp_radius, p_tip=cfg.p_tip,
                             settle_jitter=cfg.settle_jitter)
        world = spawn_world(layout, seed=cfg.seed + 1, params=params)
        rng = np.random.default_rng(cfg.seed)
        session = cls(cfg, layout, library, tasks, oracle, planner, evaluator,
                      world, rng, cfg.out_dir)
        (session.out_dir / LOG_FILE).write_text("")   # fresh log
        return session

    @classmethod
    def resume(cls, checkpoint_path, out_dir=None) -> "PlaySession":
        doc = json.loads(Path(checkpoint_path).read_text())
        cfg = SessionConfig.from_dict(doc["config"])
        if out_dir is not None:
            cfg.out_dir = str(out_dir)
        layout, library, oracle, tasks, planner, evaluator = cls._components(cfg)
        world = SimWorld.from_state_dict(layout, doc["world"])
        rng = np.random.default_rng(0)
        rng.bit_generator.state = doc["rng_state"]
        session = cls(cfg, layout, library, tasks, oracle, planner, evaluator,
                      world, rng, cfg.out_dir)
        session.iteration = doc["iteration"]
        session.consecutive_failures = doc["consecutive_failures"]
        session.interventions = list(doc["interventions"])
        for task_id, demos in doc["arms"].items():
            session.arms[task_id] = {d: ArmStats(pulls=v[0], successes=v[1])
                                     for d, v in demos.items()}
        session.episodes = {t: list(v) for t, v in doc["episodes"].items()}
        session._trim_log()
        return session

    def _trim_log(self):
        """Drop log records past the restored iteration so a resumed session
        rewrites them identically."""
        path = self.out_dir / LOG_FILE
        if not path.exists():
            path.write_text("")
            return
        kept = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            if json.loads(line)["iteration"] <= self.iteration:
                kept.append(line)
        path.write_text("".join(l + "\n" for l in kept))

    # -- state -------------------------------------------------------------

    @property
    def success_counts(self) -> dict:
        return {t: len(self.episodes[t]) for t in self.task_ids}

    def state_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "consecutive_failures": self.consecutive_failures,
            "interventions": self.interventions,
            "arms": {t: {d: [a.pulls, a.successes] for d, a in demos.items()}
                     for t, demos in self.arms.items()},
            "episodes": self.episodes,
            "rng_state": self.rng.bit_generator.state,
            "world": self.world.state_dict(),
            "config": self.cfg.to_dict(),
        }

    def save_checkpoint(self) -> Path:
        path = _checkpoint_path(self.out_dir, self.iteration)
        path.write_text(json.dumps(self.state_dict(), sort_keys=True))
        return path

    # -- the loop ----------------------------------------------------------

    def run_iteration(self) -> dict:
        self.iteration += 1
        record = {
            "iteration": self.iteration,
            "target_task": None,
            "planned": None,
            "attempted_task": None,
            "candidates": [],
            "matches": [],
            "selected_demo": None,
            "feasible": False,
            "executed": False,
            "evaluator_success": None,
            "verification": None,
            "success": False,
            "target_waypoints": None,
            "events": [],
            "out_of_bounds": 0,
            "sim_duration_s": 0.0,
            "episode_file": None,
            "intervention": None,
            "pre_state": None,
            "post_state": None,
        }
        pre_state = symbolic_state(self.world)
        record["pre_state"] = pre_state.to_dict()
        obs = snapshot(self.world)
        record["target_task"] = sample_target_task(
            self.success_counts, self.cfg.temperature, self.rng)

        try:
            planned = self.planner.plan(pre_state, record["target_task"])
            record["planned"] = planned
            task_id = planned[0]
            task = self.tasks.get(task_id)
            if task is None:
                raise NoPlan(f"planner proposed unknown task {task_id!r}")
            # a (remote) planner's inexecutable step must not reach a demo's arm
            if not task.precondition(pre_state):
                raise NoPlan(f"planner proposed task {task_id!r}, whose "
                             "precondition does not hold")
        except NoPlan as e:
            record["plan_error"] = str(e)
            self._intervene("no_plan", record)
            self._append_log(record)
            return record
        record["attempted_task"] = task_id

        arms = self.arms[task_id]
        total = sum(a.pulls for a in arms.values())
        candidates = select_top_k(arms, total, self.cfg.k, self.cfg.c)
        record["candidates"] = candidates
        outcomes = [match_demo(self.matcher, self.library.demos[d], obs,
                               self.filters,
                               self.library.demo_side_distances.get(d))
                    for d in candidates]
        record["matches"] = [_match_summary(o) for o in outcomes]

        try:
            demo_id = select_source_demo(outcomes)
        except AllInfeasible:
            self._register_failure(record)
            self._append_log(record)
            return record
        record["selected_demo"] = demo_id
        record["feasible"] = True
        outcome = next(o for o in outcomes if o.demo_id == demo_id)
        demo = self.library.demos[demo_id]

        targets = outcome.target_waypoints.copy()
        jitter = self.rng.normal(0.0, self.cfg.explore_sigma, targets.shape)
        closes = demo.actions.gripper[demo.waypoint_indices] == 1
        jitter[closes] = 0.0          # never perturb a grasp
        targets = targets + jitter
        record["target_waypoints"] = targets.tolist()

        plan = warp_trajectory(demo, targets)
        trace = execute_plan(self.world, plan, self.cfg.grasp_radius)
        record["executed"] = True
        record["events"] = trace.events
        record["out_of_bounds"] = trace.out_of_bounds
        record["sim_duration_s"] = len(plan) / plan.trajectory.control_rate

        post_state = symbolic_state(self.world)
        record["post_state"] = post_state.to_dict()
        final_obs = snapshot(self.world)
        ok_eval = bool(self.evaluator.evaluate(obs, pre_state, final_obs,
                                               post_state, task))
        record["evaluator_success"] = ok_eval
        ok_verify = True
        if self.cfg.verification_enabled:
            boundary = int(plan.segment_boundaries[-1])
            ok_verify, dists = verify_by_correspondence(
                self.matcher, demo, final_obs, trace.positions[boundary],
                threshold=self.cfg.verification_threshold,
                source_snapshot=self.library.final_snapshots.get(demo_id))
            record["verification"] = {"passed": ok_verify, "distances": dists}
        success = ok_eval and ok_verify
        record["success"] = success

        update_stats(arms, demo_id, int(success))
        if success:
            record["episode_file"] = self._write_episode(record, plan)
            self.episodes[task_id].append({
                "iteration": self.iteration, "file": record["episode_file"],
                "source_demo_id": demo_id})
            self.consecutive_failures = 0
        else:
            self._register_failure(record)
        self._append_log(record)
        return record

    def _register_failure(self, record):
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.cfg.max_consecutive_failures:
            self._intervene("stall", record)

    def _intervene(self, reason, record):
        self.interventions.append({"iteration": self.iteration, "reason": reason})
        record["intervention"] = reason
        randomize_world(self.world)
        self.consecutive_failures = 0

    def _write_episode(self, record, plan) -> str:
        fname = f"ep_{record['iteration']:06d}.json"
        doc = {
            "actions": plan.trajectory.actions.tolist(),
            "control_rate_hz": plan.trajectory.control_rate,
            "task_id": record["attempted_task"],
            "iteration": record["iteration"],
            "source_demo_id": plan.source_demo_id,
        }
        path = self.out_dir / "dataset" / "episodes" / fname
        path.write_text(json.dumps(doc, sort_keys=True))
        return f"episodes/{fname}"

    def _append_log(self, record):
        with open(self.out_dir / LOG_FILE, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def run(self, until: int = None):
        """Run iterations up to `until` (defaults to the configured count),
        checkpointing on cadence."""
        until = self.cfg.iterations if until is None else until
        while self.iteration < until:
            self.run_iteration()
            if self.iteration % self.cfg.checkpoint_every == 0:
                self.save_checkpoint()
        return self

    def finalize(self):
        """Write the manifest, final state, and report files."""
        write_dataset_manifest(self.out_dir / "dataset", self.episodes)
        (self.out_dir / STATE_FILE).write_text(
            json.dumps(self.state_dict(), sort_keys=True))
        records = read_session_log(self.out_dir / LOG_FILE)
        write_report_files(self.out_dir, records, library=self.library,
                           interventions=self.interventions)
        return self


def _match_summary(outcome) -> dict:
    def _finite(x):
        return float(x) if np.isfinite(x) else None
    residuals = outcome.triangulation_residuals
    gaps = outcome.cross_view_gaps
    return {"demo_id": outcome.demo_id,
            "feasible": bool(outcome.feasible),
            "score": _finite(outcome.score),
            "worst_residual": _finite(np.max(residuals)) if len(residuals) else None,
            "worst_gap": _finite(np.max(gaps)) if len(gaps) else None}


def run_session(cfg: SessionConfig) -> PlaySession:
    """Fresh session: run all configured iterations and emit artifacts."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), sort_keys=True,
                                                indent=2))
    session = PlaySession.start(cfg)
    session.run()
    session.save_checkpoint()
    return session.finalize()


def resume_session(checkpoint_path, iterations: int = None) -> PlaySession:
    """Continue a checkpointed session to the configured iteration count."""
    session = PlaySession.resume(checkpoint_path)
    if iterations is not None:
        session.cfg.iterations = iterations
    session.run()
    session.save_checkpoint()
    return session.finalize()


# ---------------------------------------------------------------------------
# dataset export

def write_dataset_manifest(dataset_dir, episodes) -> dict:
    dataset_dir = Path(dataset_dir)
    dataset_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tasks": {t: len(eps) for t, eps in sorted(episodes.items())},
        "episodes": [dict(e, task_id=t) for t, eps in sorted(episodes.items())
                     for e in eps],
    }
    (dataset_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2))
    return manifest


def export_success_dataset(session_dir, out_dir) -> dict:
    """Copy the success-filtered episodes of a finished session into a
    standalone dataset directory with a fresh manifest."""
    session_dir = Path(session_dir)
    out_dir = Path(out_dir)
    state = json.loads((session_dir / STATE_FILE).read_text())
    episodes = state["episodes"]
    (out_dir / "episodes").mkdir(parents=True, exist_ok=True)
    for eps in episodes.values():
        for e in eps:
            src = session_dir / "dataset" / e["file"]
            (out_dir / e["file"]).write_bytes(src.read_bytes())
    return write_dataset_manifest(out_dir, episodes)


# ---------------------------------------------------------------------------
# reports

def read_session_log(path):
    path = Path(path)
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def convex_hull_area(points) -> float:
    """Area of the 2-D convex hull; 0 for fewer than 3 or collinear points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        return 0.0
    try:
        return float(ConvexHull(pts).volume)   # in 2-D, volume is the area
    except QhullError:
        return 0.0


def task_table(records) -> list:
    """Per-task (attempts, successes, success rate) rows, sorted by task."""
    stats = {}
    for r in records:
        task = r.get("attempted_task")
        if task is None:
            continue
        row = stats.setdefault(task, [0, 0])
        row[0] += 1
        row[1] += int(r["success"])
    return [(t, a, s, (s / a if a else 0.0)) for t, (a, s) in sorted(stats.items())]


def coverage_table(records, library: DemoLibrary) -> list:
    """Initial grasp-point coverage of successful episodes vs seed demos.

    Coverage is the convex-hull area of first-waypoint xy positions,
    computed per task (summing across tasks keeps spatially separate slots
    from inflating a single hull)."""
    rows = []
    for task_id in sorted(library.by_task):
        demo_pts = [library.demos[d].waypoints[0][:2].tolist()
                    for d in library.by_task[task_id]]
        play_pts = [r["target_waypoints"][0][:2] for r in records
                    if r["success"] and r.get("attempted_task") == task_id]
        rows.append((task_id, len(play_pts),
                     convex_hull_area(play_pts), convex_hull_area(demo_pts)))
    return rows


def arm_table(state_or_session) -> list:
    arms = (state_or_session.arms if hasattr(state_or_session, "arms")
            else state_or_session["arms"])
    rows = []
    for task_id in sorted(arms):
        demos = arms[task_id]
        for demo_id in sorted(demos):
            a = demos[demo_id]
            pulls, succ = (a.pulls, a.successes) if isinstance(a, ArmStats) else a
            rows.append((task_id, demo_id, pulls, succ))
    return rows


def write_report_files(out_dir, records, library: DemoLibrary = None,
                       interventions=None, session_state: dict = None):
    """CSV tables plus a plaintext summary. The summary header carries the
    only timestamp in any session artifact."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = task_table(records)
    with open(out_dir / "tasks.csv", "w") as fh:
        fh.write("task,attempts,successes,success_rate\n")
        for t, a, s, rate in tasks:
            fh.write(f"{t},{a},{s},{rate:.3f}\n")

    if session_state is not None or interventions is not None or records:
        arms_source = session_state if session_state is not None else None
        if arms_source is None:
            # rebuild pulls/successes from the log
            rebuilt = {}
            for r in records:
                demo = r.get("selected_demo")
                if demo is None or not r["executed"]:
                    continue
                row = rebuilt.setdefault(r["attempted_task"], {}).setdefault(
                    demo, [0, 0])
                row[0] += 1
                row[1] += int(r["success"])
            arms_source = {"arms": rebuilt}
        with open(out_dir / "arms.csv", "w") as fh:
            fh.write("task,demo,pulls,successes\n")
            for task_id, demo_id, pulls, succ in arm_table(arms_source):
                fh.write(f"{task_id},{demo_id},{pulls},{succ}\n")

    coverage = coverage_table(records, library) if library is not None else []
    if library is not None:
        with open(out_dir / "coverage.csv", "w") as fh:
            fh.write("task,successes,play_hull_area,demo_hull_area\n")
            total_play = total_demo = 0.0
            for task_id, n, play_area, demo_area in coverage:
                fh.write(f"{task_id},{n},{play_area:.6f},{demo_area:.6f}\n")
                total_play += play_area
                total_demo += demo_area
            fh.write(f"TOTAL,{sum(c[1] for c in coverage)},"
                     f"{total_play:.6f},{total_demo:.6f}\n")

    attempts = sum(a for _, a, _, _ in tasks)
    successes = sum(s for _, _, s, _ in tasks)
    sim_time = sum(r.get("sim_duration_s", 0.0) for r in records)
    lines = [f"generated_at: {time.strftime('%Y-%m-%dT%H:%M:%S')}",
             f"iterations: {len(records)}",
             f"attempts: {attempts}",
             f"successes: {successes}",
             f"cumulative_success_rate: "
             f"{(successes / attempts if attempts else 0.0):.3f}",
             f"interventions: {len(interventions or [])}",
             f"simulated_play_time_s: {sim_time:.1f}"]
    if sim_time > 0 and successes:
        lines.append(f"simulated_seconds_per_success: {sim_time / successes:.1f}")
    lines.append("")
    lines.append("task, attempts, successes, success_rate")
    for t, a, s, rate in tasks:
        lines.append(f"{t}, {a}, {s}, {rate:.3f}")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
