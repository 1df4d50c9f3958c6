import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from keywarp.demo import Trajectory, _Probe, parse_action_rows
from keywarp.play import (NoPlan, PlaySession, RemoteEvaluator, RemotePlanner,
                          RuleBasedEvaluator, RuleBasedPlanner, SessionConfig,
                          export_success_dataset, read_session_log,
                          resume_session, rule_based_plan, run_session,
                          verify_by_correspondence)
from keywarp.sim import ConfigError, execute_plan, snapshot, spawn_world
from keywarp.tasks import SymbolicState, builtin_tasks
from keywarp.warp import warp_trajectory


def session_config(library_dir, out_dir, **kwargs):
    base = dict(demo_library=str(library_dir), iterations=30, seed=0,
                p_tip=0.0, out_dir=str(out_dir))
    base.update(kwargs)
    return SessionConfig(**base)


# ---------------------------------------------------------------------------
# iteration behavior

def test_successful_iteration_updates_exactly_one_arm(library_dir, tmp_path):
    cfg = session_config(library_dir, tmp_path / "s", iterations=1)
    (tmp_path / "s").mkdir()
    session = PlaySession.start(cfg)
    record = session.run_iteration()
    assert record["success"]
    task = record["attempted_task"]
    assert sum(session.success_counts.values()) == 1
    assert session.success_counts[task] == 1
    pulled = [(t, d) for t, arms in session.arms.items()
              for d, a in arms.items() if a.pulls > 0]
    assert pulled == [(task, record["selected_demo"])]
    arm = session.arms[task][record["selected_demo"]]
    assert (arm.pulls, arm.successes) == (1, 1)
    assert record["episode_file"] is not None
    assert (session.out_dir / "dataset" / record["episode_file"]).exists()


def test_all_infeasible_leaves_bandit_untouched(library_dir, tmp_path):
    cfg = session_config(library_dir, tmp_path / "s", outlier_rate=1.0,
                         iterations=1)
    (tmp_path / "s").mkdir()
    session = PlaySession.start(cfg)
    record = session.run_iteration()
    assert not record["success"]
    assert not record["executed"]
    assert not record["feasible"]
    assert record["selected_demo"] is None
    assert all(a.pulls == 0 for arms in session.arms.values()
               for a in arms.values())
    assert sum(session.success_counts.values()) == 0
    assert session.consecutive_failures == 1


def test_no_plan_triggers_intervention(library_dir, tmp_path):
    class StuckPlanner:
        def plan(self, state, target):
            raise NoPlan("stuck for the test")

    cfg = session_config(library_dir, tmp_path / "s", iterations=1)
    (tmp_path / "s").mkdir()
    session = PlaySession.start(cfg)
    session.planner = StuckPlanner()
    before = {k: v.position.copy() for k, v in session.world.objects.items()}
    record = session.run_iteration()
    assert not record["success"]
    assert record["intervention"] == "no_plan"
    assert session.interventions == [{"iteration": 1, "reason": "no_plan"}]
    after = {k: v.position.copy() for k, v in session.world.objects.items()}
    assert any(not np.array_equal(before[k], after[k]) for k in before)


def test_inexecutable_first_step_is_no_plan_and_spares_the_arms(library_dir, tmp_path):
    class WrongStepPlanner:
        """Proposes a known task whose precondition fails in the state."""
        def plan(self, state, target):
            return [next(t.id for t in builtin_tasks()
                         if not t.precondition(state))]

    cfg = session_config(library_dir, tmp_path / "s", iterations=1)
    (tmp_path / "s").mkdir()
    session = PlaySession.start(cfg)
    session.planner = WrongStepPlanner()
    record = session.run_iteration()
    assert record["intervention"] == "no_plan"
    assert "precondition" in record["plan_error"]
    assert record["attempted_task"] is None
    assert not record["executed"]
    assert all(a.pulls == 0 for arms in session.arms.values()
               for a in arms.values())


def test_stall_intervention_after_consecutive_failures(library_dir, tmp_path):
    cfg = session_config(library_dir, tmp_path / "s", outlier_rate=1.0,
                         iterations=7, max_consecutive_failures=3)
    (tmp_path / "s").mkdir()
    session = PlaySession.start(cfg).run()
    reasons = [i["reason"] for i in session.interventions]
    assert reasons == ["stall", "stall"]
    assert [i["iteration"] for i in session.interventions] == [3, 6]


# ---------------------------------------------------------------------------
# correspondence-based verification

def test_verification_passes_on_exact_gripper(library, clean_oracle):
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    final_snap = library.final_snapshots[demo_id]
    release = demo.waypoints[-1]
    passed, dists = verify_by_correspondence(
        clean_oracle, demo, final_snap, release,
        source_snapshot=final_snap)
    assert passed
    assert all(d is not None and d < 1e-6 for d in dists.values())


def test_verification_fails_beyond_threshold(library, clean_oracle):
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    final_snap = library.final_snapshots[demo_id]
    far = demo.waypoints[-1] + np.array([0.0, 0.0, 0.15])
    passed, dists = verify_by_correspondence(
        clean_oracle, demo, final_snap, far, source_snapshot=final_snap)
    assert not passed
    assert any(d is not None and d > 0.10 for d in dists.values())


def test_verification_fails_on_no_match(library, clean_oracle):
    class Mute:
        def match(self, *args):
            return None

    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    passed, dists = verify_by_correspondence(
        Mute(), demo, library.final_snapshots[demo_id], demo.waypoints[-1])
    assert not passed
    assert all(d is None for d in dists.values())


def test_verification_detects_dropped_object(library, clean_oracle, layout):
    """Grasp misses, the arm continues open-loop: evaluator and
    verification both flag the failure."""
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    world = spawn_world(layout, seed=77, params=None)
    for name, state in demo.snapshot.content.objects.items():
        world.objects[name].position = np.array(state.position)
    # corrupt only the grasp waypoint so the close lands far from the object
    targets = demo.waypoints.copy()
    targets[0] += np.array([0.08, 0.0, 0.0])
    plan = warp_trajectory(demo, targets)
    trace = execute_plan(world, plan)
    assert not trace.grasped
    final_obs = snapshot(world)
    boundary = int(plan.segment_boundaries[-1])
    passed, dists = verify_by_correspondence(
        clean_oracle, demo, final_obs, trace.positions[boundary],
        source_snapshot=library.final_snapshots[demo_id])
    assert not passed


# ---------------------------------------------------------------------------
# sessions: determinism, resume, export

def test_session_determinism(library_dir, tmp_path):
    a = run_session(session_config(library_dir, tmp_path / "a", iterations=40,
                                   pixel_noise_sigma=1.0, outlier_rate=0.05))
    b = run_session(session_config(library_dir, tmp_path / "b", iterations=40,
                                   pixel_noise_sigma=1.0, outlier_rate=0.05))
    la = (tmp_path / "a" / "session_log.jsonl").read_bytes()
    lb = (tmp_path / "b" / "session_log.jsonl").read_bytes()
    assert la == lb


def test_checkpoint_resume_matches_uninterrupted(library_dir, tmp_path):
    full = run_session(session_config(library_dir, tmp_path / "full",
                                      iterations=60, checkpoint_every=20,
                                      pixel_noise_sigma=1.0))
    run_session(session_config(library_dir, tmp_path / "half", iterations=20,
                               checkpoint_every=20, pixel_noise_sigma=1.0))
    resumed = resume_session(tmp_path / "half" / "checkpoints" /
                             "ckpt_000020.json", iterations=60)
    log_full = (tmp_path / "full" / "session_log.jsonl").read_bytes()
    log_res = (tmp_path / "half" / "session_log.jsonl").read_bytes()
    assert log_full == log_res
    sf = json.loads((tmp_path / "full" / "session_state.json").read_text())
    sr = json.loads((tmp_path / "half" / "session_state.json").read_text())
    for doc in (sf, sr):
        doc["config"]["out_dir"] = ""
    assert sf == sr


def test_resume_discards_records_past_the_checkpoint(library_dir, tmp_path):
    """Kill-and-restart: the log already has records beyond the checkpoint;
    resuming rewrites them identically to an uninterrupted run."""
    full = run_session(session_config(library_dir, tmp_path / "full",
                                      iterations=36, checkpoint_every=12))
    run_session(session_config(library_dir, tmp_path / "killed", iterations=30,
                               checkpoint_every=12))
    resumed = resume_session(tmp_path / "killed" / "checkpoints" /
                             "ckpt_000024.json", iterations=36)
    assert resumed.iteration == 36
    assert (tmp_path / "full" / "session_log.jsonl").read_bytes() == \
        (tmp_path / "killed" / "session_log.jsonl").read_bytes()


def test_empty_session_produces_valid_artifacts(library_dir, tmp_path):
    session = run_session(session_config(library_dir, tmp_path / "s",
                                         iterations=0))
    assert session.iteration == 0
    out = tmp_path / "s"
    assert (out / "session_log.jsonl").read_text() == ""
    manifest = json.loads((out / "dataset" / "manifest.json").read_text())
    assert all(v == 0 for v in manifest["tasks"].values())
    report = (out / "report.txt").read_text()
    assert "iterations: 0" in report
    assert (out / "tasks.csv").read_text() == \
        "task,attempts,successes,success_rate\n"


def test_dataset_export_counts_and_schema(library_dir, tmp_path):
    session = run_session(session_config(library_dir, tmp_path / "s",
                                         iterations=25))
    manifest = json.loads(
        (tmp_path / "s" / "dataset" / "manifest.json").read_text())
    assert manifest["tasks"] == {t: len(e) for t, e in session.episodes.items()}
    exported = export_success_dataset(tmp_path / "s", tmp_path / "out")
    assert exported["tasks"] == manifest["tasks"]
    # every episode reparses through the demo action-schema parser
    for entry in exported["episodes"]:
        doc = json.loads((tmp_path / "out" / entry["file"]).read_text())
        assert {"actions", "control_rate_hz", "task_id", "iteration",
                "source_demo_id"} <= set(doc)
        actions = parse_action_rows(_Probe(doc["actions"], "actions"))
        traj = Trajectory(actions, control_rate=doc["control_rate_hz"])
        assert len(traj) >= 2


def test_session_requires_consistent_library(library_dir, tmp_path):
    with pytest.raises(ConfigError):
        run_session(session_config(tmp_path / "definitely-missing",
                                   tmp_path / "s"))


# ---------------------------------------------------------------------------
# remote planner / evaluator protocol

class _ProtocolHandler(BaseHTTPRequestHandler):
    delay = 0.0

    def do_POST(self):
        time.sleep(self.delay)
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        tasks = builtin_tasks()
        if payload["kind"] == "plan":
            state = SymbolicState.from_dict(payload["symbolic_state"])
            try:
                plan = rule_based_plan(state, payload["target_task"], tasks)
                reply = {"plan": plan}
            except NoPlan as e:
                reply = {"plan": [], "reason": str(e)}
        elif payload["kind"] == "evaluate":
            pre = SymbolicState.from_dict(payload["pre"])
            post = SymbolicState.from_dict(payload["post"])
            task = next(t for t in tasks if t.id == payload["target_task"])
            ok = RuleBasedEvaluator().evaluate(None, pre, None, post, task)
            reply = {"success": ok, "reason": "rule check"}
        else:
            reply = {"error": "unknown kind"}
        body = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def protocol_server():
    server = HTTPServer(("127.0.0.1", 0), _ProtocolHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ProtocolHandler.delay = 0.0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_remote_planner_matches_rule_based(protocol_server):
    state = SymbolicState.make({"pineapple": "bowl", "bowl": "shelf"},
                               {"pineapple": True, "bowl": True})
    remote = RemotePlanner(protocol_server, timeout=5.0)
    local = RuleBasedPlanner(builtin_tasks())
    target = "pineapple_table_to_shelf"
    assert remote.plan(state, target) == local.plan(state, target)


def test_remote_planner_no_plan_and_timeout(protocol_server):
    remote = RemotePlanner(protocol_server, timeout=5.0)
    tipped = SymbolicState.make({"pineapple": "table", "bowl": "table"},
                                {"pineapple": True, "bowl": False})
    with pytest.raises(NoPlan):
        remote.plan(tipped, "bowl_table_to_shelf")
    _ProtocolHandler.delay = 1.0
    slow = RemotePlanner(protocol_server, timeout=0.2)
    with pytest.raises(NoPlan):
        slow.plan(tipped, "pineapple_table_to_shelf")


def test_remote_planner_unreachable_is_no_plan():
    remote = RemotePlanner("http://127.0.0.1:1", timeout=0.3)
    state = SymbolicState.make({"pineapple": "table", "bowl": "table"},
                               {"pineapple": True, "bowl": True})
    with pytest.raises(NoPlan):
        remote.plan(state, "pineapple_table_to_shelf")


def test_remote_evaluator(protocol_server):
    remote = RemoteEvaluator(protocol_server, timeout=5.0)
    task = next(t for t in builtin_tasks() if t.id == "pineapple_table_to_shelf")
    pre = SymbolicState.make({"pineapple": "table", "bowl": "table"},
                             {"pineapple": True, "bowl": True})
    good = SymbolicState.make({"pineapple": "shelf", "bowl": "table"},
                              {"pineapple": True, "bowl": True})
    assert remote.evaluate(None, pre, None, good, task)
    assert not remote.evaluate(None, pre, None, pre, task)
    _ProtocolHandler.delay = 1.0
    slow = RemoteEvaluator(protocol_server, timeout=0.2)
    assert not slow.evaluate(None, pre, None, good, task)   # timeout -> failure


def test_session_with_remote_components(protocol_server, library_dir, tmp_path):
    cfg = session_config(library_dir, tmp_path / "s", iterations=5,
                         planner_url=protocol_server,
                         evaluator_url=protocol_server)
    session = run_session(cfg)
    records = read_session_log(tmp_path / "s" / "session_log.jsonl")
    assert len(records) == 5
    assert sum(r["success"] for r in records) >= 4
