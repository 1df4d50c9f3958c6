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
import math
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Protocol, get_args, get_type_hints

import numpy as np

from .bandit import ArmStats, sample_target_task, select_top_k, update_stats
from .correspondence import (AllInfeasible, FilterConfig, MatcherInterface, match_demo,
                             match_pixel, select_source_demo)
from .demo import ConfigError, DemoSummary, SceneSnapshot, read_json
from .geometry import point_ray_distance, ray_through_pixel
from .sim import (CorrespondenceOracle, DemoLibrary, OracleConfig, SimWorld,
                  WorldParams, default_layout, execute_plan, layout_from_dict,
                  randomize_world, snapshot, spawn_world, symbolic_state)
from .tasks import SymbolicState, TaskSpec, builtin_tasks, task_map
from .warp import warp_basis, warp_trajectory


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

def rule_based_plan(state: SymbolicState, target_id: str, tasks) -> list:
    """Shortest task sequence ending in the target task whose first step is
    executable now. Breadth-first search over symbolic states; ties break
    by task id order."""
    ordered = sorted(tasks, key=lambda t: t.id)
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
        self._plans = {}   # (state, target) -> plan, a pure function of the two

    def plan(self, state, target_task):
        key = (state, target_task)
        if key not in self._plans:
            self._plans[key] = rule_based_plan(state, target_task, self.tasks)
        return list(self._plans[key])


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
    import urllib.request   # here, so that sessions without a remote never load http
    req = urllib.request.Request(url, data=json.dumps(payload).encode(),
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


class RemotePlanner:
    """Client for the documented HTTP planning protocol.

    POST {"kind": "plan", "symbolic_state": ..., "target_task": ...} and
    expect {"plan": [task ids]}. Any other reply, a timeout or a transport
    error is NoPlan: the session records an intervention, not a crash.
    """

    def __init__(self, url, timeout=10.0):
        self.url = url
        self.timeout = timeout

    def plan(self, state, target_task):
        payload = {"kind": "plan", "symbolic_state": state.to_dict(),
                   "target_task": target_task}
        try:
            reply = _post_json(self.url, payload, self.timeout)
        except (OSError, ValueError) as e:   # URLError and TimeoutError are OSErrors
            raise NoPlan(f"remote planner unavailable: {e}") from e
        doc = reply if isinstance(reply, dict) else {}
        plan = doc.get("plan")
        if not (isinstance(plan, list) and plan and all(isinstance(t, str) for t in plan)):
            raise NoPlan(str(doc.get("reason", f"remote planner returned no plan: {reply!r}")))
        return plan


class RemoteEvaluator:
    """Client for the documented HTTP evaluation protocol.

    POST {"kind": "evaluate", "pre": ..., "post": ..., "target_task": ...}
    and expect {"success": bool, "reason": str}. Any other reply than
    {"success": true, ...}, and a timeout, is a failure.
    """

    def __init__(self, url, timeout=10.0):
        self.url = url
        self.timeout = timeout

    def evaluate(self, pre_obs, pre_state, post_obs, post_state, task):
        payload = {"kind": "evaluate", "pre": pre_state.to_dict(),
                   "post": post_state.to_dict(), "target_task": task.id}
        try:
            reply = _post_json(self.url, payload, self.timeout)
        except (OSError, ValueError):
            return False
        return isinstance(reply, dict) and reply.get("success") is True


def verify_by_correspondence(matcher: MatcherInterface, demo: DemoSummary,
                             final_obs: SceneSnapshot, executed_gripper,
                             demo_final: SceneSnapshot,
                             threshold: float = 0.10):
    """Correspondence-based success double-check.

    The demo's final keypoint is matched from each view into the final
    observation; the executed gripper position must lie within `threshold`
    of both matched rays. `demo_final` is the demo's final-frame
    snapshot, where the keypoint sits on the manipulated object, so the
    match tracks where the object actually ended up.

    Returns (passed, per-view distances); a failed match, a reply that is
    not a finite (2,) pixel included, fails the check.
    """
    t = demo.num_waypoints - 1
    distances = {}
    passed = True
    for view in ("left", "right"):
        pixel = match_pixel(matcher, demo_final, final_obs, demo.keypoints[view][t], view, view)
        if pixel is None:
            distances[view] = None
            passed = False
            continue
        ray = ray_through_pixel(final_obs.rig.camera(view), pixel)
        d = point_ray_distance(ray, executed_gripper)
        distances[view] = float(d)
        if not d <= threshold:
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

    def __post_init__(self):
        for name, value in vars(self).items():   # the fields, before those derived below
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        for name in ("iterations", "seed", "c", "settle_jitter", "explore_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not 0.0 <= self.p_tip <= 1.0:
            raise ConfigError("p_tip must be a probability")
        for name in ("temperature", "grasp_radius", "verification_threshold",
                     "remote_timeout_s"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("k", "max_consecutive_failures", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        # the filter, oracle and layout configs check their own fields
        self.filters = FilterConfig(residual_max=self.residual_max, gap_max=self.gap_max)
        self.oracle = OracleConfig(pixel_noise_sigma=self.pixel_noise_sigma,
                                   outlier_rate=self.outlier_rate, seed=self.seed)
        self.world_layout = layout_from_dict(self.layout) if self.layout else default_layout()
        self.world_params = WorldParams(grasp_radius=self.grasp_radius, p_tip=self.p_tip,
                                        settle_jitter=self.settle_jitter)

    @classmethod
    def from_dict(cls, doc: dict) -> "SessionConfig":
        """Config from a JSON object; each value must have its field's type,
        where a float field also takes an int within the float64 range and no
        number field takes a bool."""
        if not isinstance(doc, dict):
            raise ConfigError("session config must be a JSON object")
        hints = get_type_hints(cls)
        types = {f.name: get_args(hints[f.name]) or (hints[f.name],) for f in fields(cls)}
        unknown = set(doc) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            allowed = types[key] + ((int,) if float in types[key] else ())
            if (isinstance(value, bool) and bool not in allowed) or not isinstance(value, allowed):
                raise ConfigError(f"config key {key!r} has the wrong type")
            if float in types[key]:
                try:
                    float(value)
                except OverflowError:   # an int beyond the float64 range
                    raise ConfigError(f"config key {key!r} is too large for a float") from None
        return cls(**doc)


# ---------------------------------------------------------------------------
# the session

LOG_FILE = "session_log.jsonl"
STATE_FILE = "session_state.json"
EPISODE_FILE = "episodes/ep_{:06d}.json"   # of an iteration, in an exported dataset


def _write_atomic(path: Path, text: str):
    """Write `text` through a temporary file in the same directory and
    `os.replace`, so a crash leaves the old file or the new one whole."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_checkpoint(path) -> tuple:
    """A checkpoint's or final state's (iteration, session config, world, RNG,
    library digest); OSError naming the file when it is missing or not JSON,
    lacks a key `PlaySession.state_dict` writes (nested and config keys too),
    or holds a value of the wrong type or out of range."""
    def parse(p):
        iteration = p.child("iteration").integer()
        for f in fields(SessionConfig):   # from_dict would default a missing key
            p.child("config").child(f.name)
        cfg = SessionConfig.from_dict(p.child("config").doc)
        rng = np.random.default_rng()
        rng.bit_generator.state = p.child("rng_state").mapping()
        world = SimWorld.from_state_dict(cfg.world_layout, cfg.world_params,
                                         p.child("world").doc)
        return iteration, cfg, world, rng, p.child("library_digest").string()
    return read_json(path, parse, error=OSError)


def _logged_records(session_dir, iteration, source) -> tuple:
    """The session log's path and its records 1..`iteration`; OSError naming
    the log when it is missing or does not hold each of them."""
    path = Path(session_dir) / LOG_FILE
    kept = read_session_log(path)[:iteration]
    if [r["iteration"] for r in kept] != list(range(1, iteration + 1)):
        raise OSError(f"{path} does not hold iterations 1..{iteration} of {source}")
    return path, kept


@contextmanager
def _record_of_library(path, record):
    """A failed lookup of `record` in the library as an OSError naming the log."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as e:
        raise OSError(f"{path} iteration {record['iteration']} is not a record of "
                      f"this library: {e!r}") from e


class PlaySession:
    """One reset-free play session over a demo library in a simulated world."""

    # -- construction ------------------------------------------------------

    def __init__(self, cfg: SessionConfig, library_digest=None):
        """The session at iteration 0: library loaded (with `library_digest` when
        given) and registered with the oracle, world spawned, directories made."""
        self.cfg = cfg
        self.library = DemoLibrary.load(cfg.demo_library, library_digest)
        for demo in self.library.demos.values():   # so that no iteration derives one
            warp_basis(demo)
        self.matcher = CorrespondenceOracle(cfg.oracle)
        self.library.register_with(self.matcher)
        tasks = [t for t in builtin_tasks() if t.id in self.library.by_task]
        outside = sorted(set(self.library.by_task) - {t.id for t in tasks})
        if outside:
            raise ConfigError(f"demo library at {cfg.demo_library} has tasks that are "
                              f"not built in: {outside}")
        self.tasks = task_map(tasks)
        self.planner: PlannerInterface = (
            RemotePlanner(cfg.planner_url, cfg.remote_timeout_s)
            if cfg.planner_url else RuleBasedPlanner(tasks))
        self.evaluator: EvaluatorInterface = (
            RemoteEvaluator(cfg.evaluator_url, cfg.remote_timeout_s)
            if cfg.evaluator_url else RuleBasedEvaluator())
        self.world = spawn_world(cfg.world_layout, seed=cfg.seed + 1, params=cfg.world_params)
        self.rng = np.random.default_rng(cfg.seed)
        self.out_dir = Path(cfg.out_dir)
        self.log_path = self.out_dir / LOG_FILE
        self.iteration = 0
        self.consecutive_failures = 0
        self.interventions = []
        self.arms = {t: {d: ArmStats() for d in demos}
                     for t, demos in self.library.by_task.items()}
        self.success_counts = dict.fromkeys(self.library.by_task, 0)
        (self.out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)

    @classmethod
    def start(cls, cfg: SessionConfig) -> "PlaySession":
        session = cls(cfg)
        session.log_path.write_text("")   # fresh log
        return session

    @classmethod
    def resume(cls, checkpoint_path, out_dir=None, iterations=None) -> "PlaySession":
        """The session at checkpoint N, to run to `iterations` when given, with
        its statistics rebuilt from log records 1..N and later records dropped.
        ConfigError, before any write, when `out_dir` is not the session's,
        `iterations` is out of range (negative, or below N), or the library
        changed; OSError naming the file when the checkpoint is incomplete,
        or the log lacks one of records 1..N or names a task or demo outside
        the library."""
        iteration, cfg, world, rng, digest = _read_checkpoint(checkpoint_path)
        if out_dir is not None and Path(out_dir).resolve() != Path(cfg.out_dir).resolve():
            raise ConfigError(f"--out {out_dir} is not the checkpointed session's "
                              f"directory {cfg.out_dir}")
        if iterations is not None and iterations < iteration:
            raise ConfigError(f"--iterations {iterations} is below the checkpoint's "
                              f"iteration {iteration}; a resumed session cannot run "
                              "fewer iterations than it has")
        cfg = cfg if iterations is None else replace(cfg, iterations=iterations)
        session = cls(cfg, digest)
        session.iteration, session.world, session.rng = iteration, world, rng
        path, kept = _logged_records(session.out_dir, iteration, checkpoint_path)
        for record in kept:
            with _record_of_library(path, record):
                session._account(record)
        _write_atomic(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in kept))
        return session

    # -- state -------------------------------------------------------------

    def state_dict(self) -> dict:
        """What the log cannot give; `resume` rebuilds the statistics from it."""
        return {
            "iteration": self.iteration,
            "rng_state": self.rng.bit_generator.state,
            "world": self.world.state_dict(),
            "config": asdict(self.cfg),
            "library_digest": self.library.digest,
        }

    def save_checkpoint(self) -> Path:
        path = self.out_dir / "checkpoints" / f"ckpt_{self.iteration:06d}.json"
        _write_atomic(path, json.dumps(self.state_dict(), sort_keys=True))
        return path

    # -- the loop ----------------------------------------------------------

    def run_iteration(self) -> dict:
        self.iteration += 1
        record = _new_record(self.iteration)
        pre_state, obs = symbolic_state(self.world), snapshot(self.world)
        record["pre_state"] = pre_state.to_dict()
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

        candidates = select_top_k(self.arms[task_id], self.cfg.k, self.cfg.c)
        record["candidates"] = candidates
        pairs = {}   # the candidates' matched pixel pairs in `obs`
        outcomes = [match_demo(self.matcher, self.library.demos[d], obs,
                               self.cfg.filters,
                               self.library.demo_side_distances[d], pairs)
                    for d in candidates]
        record["matches"] = [_match_summary(o) for o in outcomes]

        try:
            outcome = select_source_demo(outcomes)
        except AllInfeasible:
            self._register_failure(record)
            self._append_log(record)
            return record
        demo_id = outcome.demo_id
        record["selected_demo"] = demo_id
        record["feasible"] = True
        demo = self.library.demos[demo_id]

        targets = outcome.target_waypoints.copy()
        jitter = self.rng.normal(0.0, self.cfg.explore_sigma, targets.shape)
        closes = demo.actions.actions[demo.waypoint_indices, 7] == 1.0
        jitter[closes] = 0.0          # never perturb a grasp
        targets = targets + jitter
        record["target_waypoints"] = targets.tolist()

        plan = warp_trajectory(demo, targets)
        trace = execute_plan(self.world, plan.trajectory)
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
                self.library.final_snapshots[demo_id],
                threshold=self.cfg.verification_threshold)
            record["verification"] = {"passed": ok_verify, "distances": dists}
        success = ok_eval and ok_verify
        record["success"] = success

        if success:
            record["episode_file"] = EPISODE_FILE.format(self.iteration)
        else:
            self._register_failure(record)
        self._append_log(record)
        return record

    def _register_failure(self, record):
        """The failure that makes `max_consecutive_failures` in a row stalls."""
        if self.consecutive_failures + 1 >= self.cfg.max_consecutive_failures:
            self._intervene("stall", record)

    def _intervene(self, reason, record):
        record["intervention"] = reason
        randomize_world(self.world)

    def _append_log(self, record):
        """Append `record` to the log as one JSON line, then account for it.

        The line goes to a descriptor opened with O_APPEND, in one
        `os.write` unless the OS takes less (the loop writes the rest), and
        the descriptor is closed at once, so the session holds no open file.
        The file is created with the mode `open(..., "a")` gives it. As
        before, the record reaches the OS but is not fsynced: a crash may
        tear the last line, which `read_session_log` drops."""
        line = memoryview((json.dumps(record, sort_keys=True) + "\n").encode())
        fd = os.open(self.log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            while line:
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)
        self._account(record)

    def _account(self, record):
        """Fold a finished log record into `arms`, `success_counts`,
        `interventions` and `consecutive_failures`, their only writer, live
        and on resume. A success or an intervention ends a run of failures."""
        self.consecutive_failures = (0 if record["success"] or record["intervention"]
                                     else self.consecutive_failures + 1)
        task_id = record["attempted_task"]
        if record["executed"]:
            update_stats(self.arms[task_id], record["selected_demo"],
                         int(record["success"]))
        if record["success"]:
            self.success_counts[task_id] += 1
        if record["intervention"]:
            self.interventions.append({"iteration": record["iteration"],
                                       "reason": record["intervention"]})

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
        """Write the final state and the report files."""
        _write_atomic(self.out_dir / STATE_FILE,
                      json.dumps(self.state_dict(), sort_keys=True))
        records = read_session_log(self.log_path)
        write_report_files(self.out_dir, records, library=self.library)
        return self


def _new_record(iteration) -> dict:
    """An iteration's log record before it runs; every record has its keys."""
    return {"iteration": iteration, "target_task": None, "planned": None,
            "attempted_task": None, "candidates": [], "matches": [], "selected_demo": None,
            "feasible": False, "executed": False, "evaluator_success": None,
            "verification": None, "success": False, "target_waypoints": None, "events": [],
            "out_of_bounds": 0, "sim_duration_s": 0.0, "episode_file": None,
            "intervention": None, "pre_state": None, "post_state": None}


RECORD_KEYS = frozenset(_new_record(0))
# the exact JSON types of the record fields that accounting and reports read
RECORD_TYPES = {"iteration": (int,), "success": (bool,), "executed": (bool,),
                **dict.fromkeys(("attempted_task", "selected_demo", "intervention"),
                                (str, type(None)))}


def _match_summary(outcome) -> dict:
    def _finite(x):
        x = float(x)
        return x if math.isfinite(x) else None
    return {"demo_id": outcome.demo_id,
            "feasible": bool(outcome.feasible),
            "score": _finite(outcome.score),
            "worst_residual": _finite(outcome.triangulation_residuals.max()),
            "worst_gap": _finite(outcome.cross_view_gaps.max())}


def run_session(cfg: SessionConfig) -> PlaySession:
    """Fresh session: run all configured iterations and emit artifacts."""
    session = PlaySession.start(cfg)   # a bad library fails before anything is written
    (session.out_dir / "config.json").write_text(json.dumps(asdict(cfg), sort_keys=True, indent=2))
    session.run()
    session.save_checkpoint()
    return session.finalize()


def resume_session(checkpoint_path, iterations: int = None, out_dir=None) -> PlaySession:
    """Continue a checkpointed session to the configured iteration count."""
    session = PlaySession.resume(checkpoint_path, out_dir, iterations)
    session.run()
    session.save_checkpoint()
    return session.finalize()


# ---------------------------------------------------------------------------
# dataset export

def export_success_dataset(session_dir, out_dir) -> dict:
    """Re-warp each success of a finished session into a dataset: one
    `episodes/ep_NNNNNN.json` in the demo action schema plus its task id,
    iteration and source demo id, then `manifest.json` last. N, the config
    and the library digest come from the final state, the successes from log
    records 1..N; failures are those of `resume`, before anything is written."""
    state = Path(session_dir) / STATE_FILE
    iteration, cfg, _, _, digest = _read_checkpoint(state)
    library = DemoLibrary.load(cfg.demo_library, digest)
    log, records = _logged_records(session_dir, iteration, state)
    out_dir = Path(out_dir)
    (out_dir / "episodes").mkdir(parents=True, exist_ok=True)
    episodes = {t: [] for t in library.by_task}
    for r in (r for r in records if r["success"]):
        entry = {"iteration": r["iteration"], "source_demo_id": r["selected_demo"]}
        # a logged target the warp refuses as not finite is reported, not warned about
        with _record_of_library(log, r), np.errstate(over="ignore", invalid="ignore"):
            plan = warp_trajectory(library.demos[r["selected_demo"]], r["target_waypoints"])
            episodes[r["attempted_task"]].append(entry)
        doc = dict(entry, task_id=r["attempted_task"], actions=plan.trajectory.actions.tolist(),
                   control_rate_hz=plan.trajectory.control_rate)
        (out_dir / EPISODE_FILE.format(r["iteration"])).write_text(json.dumps(doc, sort_keys=True))
    manifest = {"tasks": {t: len(e) for t, e in episodes.items()},
                "episodes": [dict(e, task_id=t, file=EPISODE_FILE.format(e["iteration"]))
                             for t, es in episodes.items() for e in es]}
    _write_atomic(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2))
    return manifest


# ---------------------------------------------------------------------------
# reports

def read_session_log(path) -> list:
    """The records of a session log. An unparsable last line is a record torn
    by a crash mid-append and is dropped; any other line that is not a JSON
    object with every key of `RECORD_KEYS`, of the type `RECORD_TYPES` gives
    where it names one, is an OSError naming the file and the line."""
    lines = Path(path).read_text().splitlines()
    records = []
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            if n == len(lines):
                break
            raise OSError(f"{path} line {n} is not a log record: {e}") from e
        if not isinstance(record, dict):
            raise OSError(f"{path} line {n} is not a log record: not a JSON object")
        if not RECORD_KEYS <= record.keys():
            raise OSError(f"{path} line {n} is not a log record: missing keys "
                          f"{sorted(RECORD_KEYS - record.keys())}")
        mistyped = [k for k, types in RECORD_TYPES.items() if type(record[k]) not in types]
        if mistyped:
            raise OSError(f"{path} line {n} is not a log record: wrong type for {mistyped}")
        records.append(record)
    return records


def convex_hull_area(points) -> float:
    """Area of the 2-D convex hull; 0 for fewer than 3 distinct or for
    collinear points. Andrew's monotone chain, then the shoelace formula."""
    pts = sorted({(float(x), float(y)) for x, y in points})

    def chain(pts):   # one half of the hull, counterclockwise, last point dropped
        out = []
        for x, y in pts:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (y - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (x - out[-2][0])) <= 0:
                out.pop()
            out.append((x, y))
        return out[:-1]

    hull = chain(pts) + chain(reversed(pts))
    if len(hull) < 3:
        return 0.0
    return abs(sum(x0 * y1 - x1 * y0
                   for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]))) / 2.0


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


def arm_table(records) -> list:
    """Per-demo (task, demo, pulls, successes) rows of the executed
    iterations, sorted by task and demo."""
    arms = {}
    for r in records:
        if r["executed"]:
            row = arms.setdefault((r["attempted_task"], r["selected_demo"]), [0, 0])
            row[0] += 1
            row[1] += int(r["success"])
    return [(t, d, pulls, succ) for (t, d), (pulls, succ) in sorted(arms.items())]


def write_report_files(out_dir, records, library: DemoLibrary = None):
    """CSV tables plus a plaintext summary, all from the session log (the
    library adds the coverage table). The summary header carries the only
    timestamp in any session artifact."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = task_table(records)
    with open(out_dir / "tasks.csv", "w") as fh:
        fh.write("task,attempts,successes,success_rate\n")
        for t, a, s, rate in tasks:
            fh.write(f"{t},{a},{s},{rate:.3f}\n")

    with open(out_dir / "arms.csv", "w") as fh:
        fh.write("task,demo,pulls,successes\n")
        for task_id, demo_id, pulls, succ in arm_table(records):
            fh.write(f"{task_id},{demo_id},{pulls},{succ}\n")

    if library is not None:
        coverage = coverage_table(records, library)
        with open(out_dir / "coverage.csv", "w") as fh:
            fh.write("task,successes,play_hull_area,demo_hull_area\n")
            for task_id, n, play_area, demo_area in coverage:
                fh.write(f"{task_id},{n},{play_area:.6f},{demo_area:.6f}\n")
            n, play_area, demo_area = (sum(row[i] for row in coverage) for i in (1, 2, 3))
            fh.write(f"TOTAL,{n},{play_area:.6f},{demo_area:.6f}\n")

    attempts = sum(a for _, a, _, _ in tasks)
    successes = sum(s for _, _, s, _ in tasks)
    sim_time = sum(r.get("sim_duration_s", 0.0) for r in records)
    lines = [f"generated_at: {time.strftime('%Y-%m-%dT%H:%M:%S')}",
             f"iterations: {len(records)}",
             f"attempts: {attempts}",
             f"successes: {successes}",
             f"cumulative_success_rate: "
             f"{(successes / attempts if attempts else 0.0):.3f}",
             f"interventions: {sum(1 for r in records if r.get('intervention'))}",
             f"simulated_play_time_s: {sim_time:.1f}"]
    if sim_time > 0 and successes:
        lines.append(f"simulated_seconds_per_success: {sim_time / successes:.1f}")
    lines.append("")
    lines.append("task, attempts, successes, success_rate")
    for t, a, s, rate in tasks:
        lines.append(f"{t}, {a}, {s}, {rate:.3f}")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
