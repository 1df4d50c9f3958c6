"""Smoke test of the benchmark itself, on very short runs.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SMALL = run.Sizes(demos_per_task=2, libraries=2, setup_repeats=1, prefix=12, replay=8)
SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())

PLAY_SPANS = {
    "play.run_iteration", "play.save_checkpoint", "play.finalize",
    "play.planner_plan", "bandit.sample_target_task", "bandit.select_top_k",
    "correspondence.match_demo", "warp.warp_trajectory",
    "play.verify_by_correspondence", "sim.oracle_match", "sim.execute_plan",
    "sim.snapshot", "sim.symbolic_state", "geometry.project",
    "geometry.ray_through_pixel", "geometry.triangulate",
    "geometry.point_ray_distance",
}
LIBRARY_SPANS = {
    "sim.scripted_pick_place", "demo.summarize_demo", "demo.save_demo_library",
    "sim.DemoLibrary.load", "sim.execute_plan", "sim.snapshot",
    "sim.symbolic_state", "geometry.project", "sim.oracle_match",
    "geometry.ray_through_pixel", "geometry.point_ray_distance",
}


def short(workload, seed, trace, tmp_path):
    return run.run_workload(workload, seed, 0.2, trace, work_root=tmp_path / "work",
                            out_dir=tmp_path / "out", sizes=SMALL)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, _ = short(workload, 1, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(workload, tmp_path):
    first = short(workload, 3, False, tmp_path)[1].digest
    again = short(workload, 3, False, tmp_path)[1].digest
    other = short(workload, 4, False, tmp_path)[1].digest
    assert first == again != other


def test_seed_changes_library_and_world(tmp_path):
    layout, tasks = run.sim.default_layout(), run.builtin_tasks()
    digests, worlds = [], []
    for seed in (0, 1):
        lib = tmp_path / f"lib{seed}"
        run.build_library(lib, layout, tasks, seed, SMALL.demos_per_task)
        digests.append(run.tree_digest(lib))
        cfg = run.session_config("play-noiseless", seed, lib, tmp_path / f"s{seed}")
        worlds.append(run.play.PlaySession.start(cfg).world.state_dict()["objects"])
    assert digests[0] != digests[1]
    assert worlds[0] != worlds[1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_spans_fire_where_expected(workload, tmp_path):
    result, r = short(workload, 2, True, tmp_path)
    assert result["correct"]   # includes: traced replay wrote the same bytes
    all_names = {s[0] for s in r.tracer.spans}
    in_ops = {s[0] for s in r.tracer.spans if isinstance(s[4], int)}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "demo-library":
        assert LIBRARY_SPANS <= in_ops
        assert not in_ops & (PLAY_SPANS - LIBRARY_SPANS)
        assert "correspondence.match_demo" not in all_names
        assert m["correspondence.matcher_queries_per_iter"] == 0
    else:
        assert PLAY_SPANS <= all_names
        # the short replay ends before the first checkpoint falls due
        assert PLAY_SPANS - {"play.finalize", "play.save_checkpoint"} <= in_ops
        assert LIBRARY_SPANS <= all_names   # the replay's library build
        shares = {k: v for k, v in m.items() if k.endswith(".iter_share")}
        assert max(shares, key=shares.get) == "correspondence.match_demo.iter_share"
    assert (tmp_path / "out" / f"spans-{workload}.jsonl.gz").is_file()


def _record(**changes):
    rec = {"iteration": 1, "executed": True,
           "attempted_task": "pineapple_table_to_shelf",
           "pre_state": {"slots": {"bowl": "table", "pineapple": "table"}},
           "post_state": {"slots": {"bowl": "table", "pineapple": "shelf"}},
           "verification": {"passed": True}, "evaluator_success": True,
           "success": True, "episode_file": "episodes/ep_000001.json"}
    rec.update(changes)
    return rec


def test_ground_truth_gate():
    tasks = {t.id: t for t in run.builtin_tasks()}
    moved_bowl = {"slots": {"bowl": "shelf", "pineapple": "shelf"}}
    assert run.ground_truth_failures([_record()], tasks) == []
    assert run.ground_truth_failures(
        [_record(verification={"passed": False}, success=False, episode_file=None)],
        tasks) == []
    assert run.ground_truth_failures([_record(success=False)], tasks) == [1]
    assert run.ground_truth_failures([_record(post_state=moved_bowl)], tasks) == [1]
    assert run.ground_truth_failures(
        [_record(executed=False, success=True)], tasks) == [1]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(run.BENCH_DIR / "run.py", tmp_path / "bench" / "run.py")
    shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "demo-library",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
