import errno
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

import keywarp.geometry
import keywarp.warp
from conftest import NaNReplies
from keywarp.demo import Trajectory, _Probe, parse_action_rows
from keywarp.play import (NoPlan, PlaySession, RemoteEvaluator, RemotePlanner,
                          RuleBasedEvaluator, RuleBasedPlanner, SessionConfig,
                          _new_record, export_success_dataset, read_session_log,
                          resume_session, rule_based_plan, run_session,
                          verify_by_correspondence)
from keywarp.sim import ConfigError, execute_plan, snapshot, spawn_world, symbolic_state
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
    assert record["episode_file"] == "episodes/ep_000001.json"


def test_iteration_writes_only_its_log_line(library_dir, tmp_path):
    """Play writes no dataset: an iteration, a success too, appends its log
    record and writes nothing else; `export` derives the episodes."""
    cfg = session_config(library_dir, tmp_path / "s", iterations=1)
    session = PlaySession.start(cfg)
    before = {p: p.read_bytes() for p in sorted(session.out_dir.rglob("*")) if p.is_file()}
    record = session.run_iteration()
    assert record["success"]
    after = {p: p.read_bytes() for p in sorted(session.out_dir.rglob("*")) if p.is_file()}
    log = session.out_dir / "session_log.jsonl"
    assert after.pop(log) == before.pop(log) + (json.dumps(record, sort_keys=True) + "\n").encode()
    assert after == before
    assert sorted(p.name for p in session.out_dir.iterdir()) == ["checkpoints", "session_log.jsonl"]


def test_a_log_written_in_short_writes_holds_the_same_bytes(library_dir, tmp_path,
                                                           monkeypatch):
    """`_append_log` finishes a record the OS takes in pieces: with every
    `os.write` taking at most 7 bytes, a session writes the same log. A log
    it creates gets the mode `open(..., "a")` gives a new file."""
    whole = PlaySession.start(session_config(library_dir, tmp_path / "whole")).run()
    session = PlaySession.start(session_config(library_dir, tmp_path / "short"))
    real_write, calls = os.write, []

    def short_write(fd, data):
        calls.append(fd)
        return real_write(fd, bytes(data[:7]))

    with monkeypatch.context() as m:
        m.setattr(os, "write", short_write)
        session.run()
    log = whole.log_path.read_bytes()
    assert session.log_path.read_bytes() == log
    assert len(calls) == sum(-(-len(line) // 7) for line in log.splitlines(keepends=True))

    session.log_path.unlink()
    session._append_log(_new_record(31))
    with open(tmp_path / "appended", "a"):
        pass
    assert session.log_path.stat().st_mode == (tmp_path / "appended").stat().st_mode


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
    before = snapshot(session.world)
    record = session.run_iteration()
    assert not record["success"]
    assert record["intervention"] == "no_plan"
    assert session.interventions == [{"iteration": 1, "reason": "no_plan"}]
    assert snapshot(session.world).objects != before.objects


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
        demo_final=final_snap)
    assert passed
    assert all(d is not None and d < 1e-6 for d in dists.values())


def test_verification_fails_beyond_threshold(library, clean_oracle):
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    final_snap = library.final_snapshots[demo_id]
    far = demo.waypoints[-1] + np.array([0.0, 0.0, 0.15])
    passed, dists = verify_by_correspondence(
        clean_oracle, demo, final_snap, far, demo_final=final_snap)
    assert not passed
    assert any(d is not None and d > 0.10 for d in dists.values())


def test_verification_fails_on_no_match(library, clean_oracle):
    class Mute:
        def match(self, *args):
            return None

    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    final_snap = library.final_snapshots[demo_id]
    passed, dists = verify_by_correspondence(
        Mute(), demo, final_snap, demo.waypoints[-1], demo_final=final_snap)
    assert not passed
    assert all(d is None for d in dists.values())


def test_verification_fails_on_a_nan_pixel(library, clean_oracle):
    """A NaN pixel used to give a NaN distance, which `d > threshold` passed."""
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    final_snap = library.final_snapshots[demo_id]
    nan_matcher = NaNReplies(clean_oracle, lambda source, target, qv, tv: True)
    passed, dists = verify_by_correspondence(
        nan_matcher, demo, final_snap, demo.waypoints[-1], demo_final=final_snap)
    assert not passed
    assert all(d is None for d in dists.values())


def test_verification_detects_dropped_object(library, clean_oracle, layout):
    """Grasp misses, the arm continues open-loop: evaluator and
    verification both flag the failure."""
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    world = spawn_world(layout, seed=77, params=None)
    world.set_objects(demo.snapshot.objects)
    # corrupt only the grasp waypoint so the close lands far from the object
    targets = demo.waypoints.copy()
    targets[0] += np.array([0.08, 0.0, 0.0])
    plan = warp_trajectory(demo, targets)
    trace = execute_plan(world, plan.trajectory)
    assert not any(e["kind"] == "grasp" for e in trace.events)
    final_obs = snapshot(world)
    boundary = int(plan.segment_boundaries[-1])
    passed, dists = verify_by_correspondence(
        clean_oracle, demo, final_obs, trace.positions[boundary],
        demo_final=library.final_snapshots[demo_id])
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
    for artifact in ("session_log.jsonl", "arms.csv"):
        assert (tmp_path / "full" / artifact).read_bytes() == \
            (tmp_path / "half" / artifact).read_bytes(), artifact
    assert _exported(tmp_path / "full", tmp_path / "export-full") == \
        _exported(tmp_path / "half", tmp_path / "export-half")
    sf = json.loads((tmp_path / "full" / "session_state.json").read_text())
    sr = json.loads((tmp_path / "half" / "session_state.json").read_text())
    for doc in (sf, sr):
        doc["config"]["out_dir"] = ""
    assert sf == sr
    for stat in ("arms", "interventions", "success_counts"):
        assert getattr(full, stat) == getattr(resumed, stat), stat
    assert any(a.pulls for arms in resumed.arms.values() for a in arms.values())


def test_checkpoint_size_is_fixed(library_dir, tmp_path):
    """A checkpoint holds only what the log cannot give, so its size does
    not grow with the session."""
    run_session(session_config(library_dir, tmp_path / "s", iterations=60,
                               checkpoint_every=20, pixel_noise_sigma=1.0))
    ckpts = tmp_path / "s" / "checkpoints"
    doc = json.loads((ckpts / "ckpt_000060.json").read_text())
    assert set(doc) == {"iteration", "rng_state", "world", "config", "library_digest"}
    sizes = [(ckpts / f"ckpt_{i:06d}.json").stat().st_size for i in (20, 60)]
    assert abs(sizes[1] - sizes[0]) < 300, sizes


def test_failed_write_leaves_the_previous_file_whole(library_dir, tmp_path, monkeypatch):
    """A write that fails before it completes (here a full disk) leaves the
    previous checkpoint and final state byte-identical and no partial file."""
    session = run_session(session_config(library_dir, tmp_path / "s", iterations=10,
                                         checkpoint_every=10))
    before = {p: p.read_bytes() for p in sorted((tmp_path / "s").rglob("*")) if p.is_file()}

    def full_disk(path, text, *args, **kwargs):
        with open(path, "w") as fh:
            fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(Path, "write_text", full_disk)
    session.rng.random()                    # the next checkpoint differs
    with pytest.raises(OSError):
        session.save_checkpoint()
    with pytest.raises(OSError):
        session.finalize()
    after = {p: p.read_bytes() for p in sorted((tmp_path / "s").rglob("*")) if p.is_file()}
    assert after == before


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


def test_resume_drops_a_log_record_torn_mid_append(library_dir, tmp_path):
    """A crash while appending record 25 leaves half a line after the
    checkpoint of iteration 24; resuming from that checkpoint drops it and
    reaches the uninterrupted session's log and final state."""
    run_session(session_config(library_dir, tmp_path / "full", iterations=36,
                               checkpoint_every=12))
    run_session(session_config(library_dir, tmp_path / "torn", iterations=25,
                               checkpoint_every=12))
    log = tmp_path / "torn" / "session_log.jsonl"
    data = log.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    log.write_bytes(data[:last + (len(data) - last) // 2])
    resume_session(tmp_path / "torn" / "checkpoints" / "ckpt_000024.json",
                   iterations=36)
    assert (tmp_path / "full" / "session_log.jsonl").read_bytes() == log.read_bytes()
    states = [json.loads((tmp_path / d / "session_state.json").read_text())
              for d in ("full", "torn")]
    for doc in states:
        doc["config"]["out_dir"] = ""
    assert states[0] == states[1]


def test_empty_session_produces_valid_artifacts(library_dir, tmp_path):
    session = run_session(session_config(library_dir, tmp_path / "s",
                                         iterations=0))
    assert session.iteration == 0
    out = tmp_path / "s"
    assert (out / "session_log.jsonl").read_text() == ""
    manifest = export_success_dataset(out, tmp_path / "export")
    assert manifest["episodes"] == [] and all(v == 0 for v in manifest["tasks"].values())
    report = (out / "report.txt").read_text()
    assert "iterations: 0" in report
    assert (out / "tasks.csv").read_text() == \
        "task,attempts,successes,success_rate\n"


def _exported(session_dir, out_dir) -> dict:
    """The bytes of every file `export_success_dataset` writes, by relative path."""
    export_success_dataset(session_dir, out_dir)
    return {p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_dataset_export_counts_and_schema(library_dir, tmp_path):
    session = run_session(session_config(library_dir, tmp_path / "s",
                                         iterations=25))
    exported = export_success_dataset(tmp_path / "s", tmp_path / "out")
    assert exported["tasks"] == session.success_counts
    assert json.loads((tmp_path / "out" / "manifest.json").read_text()) == exported
    records = read_session_log(tmp_path / "s" / "session_log.jsonl")
    assert sorted(e["iteration"] for e in exported["episodes"]) == \
        [r["iteration"] for r in records if r["success"]]
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


@pytest.mark.parametrize("doc, ok", [
    ({"c": 1, "temperature": 2.5, "seed": 3}, True),          # int for float
    ({"layout": None, "planner_url": None}, True),            # None for Optional
    ({"verification_enabled": False, "planner_url": "http://x"}, True),
    ({"k": True}, False), ({"c": True}, False),               # bool is not a number
    ({"k": 3.0}, False), ({"seed": "0"}, False), ({"seed": None}, False),
    ({"verification_enabled": 1}, False), ({"layout": []}, False),
    ({"made_up_key": 1}, False),
])
def test_session_config_from_dict_checks_field_types(doc, ok):
    if ok:
        assert SessionConfig.from_dict(doc) == SessionConfig(**doc)
    else:
        with pytest.raises(ConfigError):
            SessionConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# remote planner / evaluator protocol

class _ProtocolHandler(BaseHTTPRequestHandler):
    delay = 0.0
    canned = None   # the JSON text of a fixed reply, or None for the rule-based one

    def do_POST(self):
        time.sleep(self.delay)
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.canned is not None:
            return self._send(self.canned.encode())
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
        self._send(json.dumps(reply).encode())

    def _send(self, body):
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
    _ProtocolHandler.delay, _ProtocolHandler.canned = 0.0, None
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


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


TASK = next(t for t in builtin_tasks() if t.id == "pineapple_table_to_shelf")
PRE = SymbolicState.make({"pineapple": "table", "bowl": "table"},
                         {"pineapple": True, "bowl": True})
POST = SymbolicState.make({"pineapple": "shelf", "bowl": "table"},
                          {"pineapple": True, "bowl": True})


@pytest.mark.parametrize("reply, success", [
    ({"success": True}, True), ({"success": True, "reason": "ok"}, True),
    ({"success": False}, False), ({"success": "no"}, False), ({"success": 1}, False),
    ({"success": [0]}, False), ({"success": None}, False), ({}, False),
    ([], False), ([{"success": True}], False), (True, False), ("yes", False),
    (None, False),
], ids=repr)
def test_remote_evaluator_counts_only_a_true_success(protocol_server, reply, success):
    """Only a JSON object whose "success" is true is a success; any other
    reply is a failure, never a crash."""
    _ProtocolHandler.canned = json.dumps(reply)
    assert RemoteEvaluator(protocol_server, timeout=5.0).evaluate(
        None, PRE, None, POST, TASK) is success


@pytest.mark.parametrize("reply", [
    {"plan": 5}, {"plan": True}, {"plan": "pineapple_table_to_shelf"}, {"plan": []},
    {"plan": None}, {"plan": [1]}, {"plan": ["pineapple_table_to_shelf", None]},
    {"plan": {"0": "pineapple_table_to_shelf"}}, {}, [], ["pineapple_table_to_shelf"],
    "pineapple_table_to_shelf", 5, None,
], ids=repr)
def test_remote_planner_refuses_a_reply_without_a_plan(protocol_server, reply):
    """A plan is a non-empty list of strings in a JSON object; any other
    reply is NoPlan, never a crash or a plan of single characters."""
    _ProtocolHandler.canned = json.dumps(reply)
    with pytest.raises(NoPlan):
        RemotePlanner(protocol_server, timeout=5.0).plan(PRE, TASK.id)


def test_session_counts_a_malformed_remote_verdict_as_a_failure(protocol_server,
                                                                library_dir, tmp_path):
    """An evaluator replying {"success": "no"} fails every iteration: no arm
    records a success and no task is counted as reached."""
    _ProtocolHandler.canned = json.dumps({"success": "no"})
    session = run_session(session_config(library_dir, tmp_path / "s", iterations=5,
                                         evaluator_url=protocol_server))
    assert sum(session.success_counts.values()) == 0
    assert all(a.successes == 0 for arms in session.arms.values() for a in arms.values())
    assert any(a.pulls for arms in session.arms.values() for a in arms.values())


# ---------------------------------------------------------------------------
# a matcher that replies NaN pixels

def test_session_with_nan_replies_runs_to_the_end(library_dir, tmp_path):
    """NaN pixels for the demo-to-scene left-view queries and for the
    cross-view queries used to reach the warp as a feasible match and raise
    there. Each is a failed match now: every outcome is infeasible."""
    session = PlaySession.start(session_config(library_dir, tmp_path / "s", iterations=30))
    session.matcher = NaNReplies(session.matcher)
    session.run()
    records = read_session_log(tmp_path / "s" / "session_log.jsonl")
    assert len(records) == 30
    matches = [m for r in records for m in r["matches"]]
    assert matches and all(not m["feasible"] and m["score"] is None for m in matches)
    assert not any(r["executed"] or r["success"] for r in records)


# ---------------------------------------------------------------------------
# work an iteration does not repeat

def _counting(monkeypatch, module, name):
    """Replace `module.name` by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_play_iterations_validate_no_vector_again(library_dir, tmp_path, monkeypatch):
    """A camera centre is validated when the camera is built; the rays an
    iteration casts from it do not validate it again."""
    session = PlaySession.start(session_config(library_dir, tmp_path / "s", iterations=5,
                                               pixel_noise_sigma=1.0, outlier_rate=0.05))
    calls = _counting(monkeypatch, keywarp.geometry, "_freeze_vec")
    session.run()
    records = read_session_log(tmp_path / "s" / "session_log.jsonl")
    assert any(r["executed"] for r in records) and any(r["verification"] for r in records)
    assert calls == []


def test_a_session_derives_each_warp_basis_once_before_playing(library_dir, tmp_path,
                                                               monkeypatch):
    calls = _counting(monkeypatch, keywarp.warp, "_derive_basis")
    session = PlaySession.start(session_config(library_dir, tmp_path / "s", iterations=10))
    assert sorted(demo.id for demo, in calls) == sorted(session.library.demos)
    del calls[:]
    session.run()
    records = read_session_log(tmp_path / "s" / "session_log.jsonl")
    assert sum(r["executed"] for r in records) > 1
    assert calls == []


def test_a_degraded_iteration_builds_no_generator(library_dir, tmp_path, monkeypatch):
    """The oracle draws a query's corruption from its digest, not from a
    numpy Generator built per query."""
    session = PlaySession.start(session_config(library_dir, tmp_path / "s", iterations=10,
                                               pixel_noise_sigma=2.0, outlier_rate=0.05))
    calls = _counting(monkeypatch, np.random, "default_rng")
    session.run()
    records = read_session_log(tmp_path / "s" / "session_log.jsonl")
    assert sum(r["executed"] for r in records) > 1
    assert calls == []


def test_the_scene_is_one_object_until_the_world_moves(library_dir, tmp_path):
    """An iteration that neither executes nor intervenes leaves the world's
    scene, and its symbolic state, the very objects it found."""
    session = PlaySession.start(session_config(library_dir, tmp_path / "s", iterations=30,
                                               outlier_rate=0.2,
                                               max_consecutive_failures=3))
    kept = 0
    while session.iteration < session.cfg.iterations:
        scene, state = snapshot(session.world), symbolic_state(session.world)
        record = session.run_iteration()
        if not (record["executed"] or record["intervention"]):
            assert snapshot(session.world) is scene
            assert symbolic_state(session.world) is state
            kept += 1
    assert kept and session.interventions
