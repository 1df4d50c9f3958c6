import json
from pathlib import Path

import numpy as np
import pytest

from keywarp.cli import main
from keywarp.play import read_session_log, convex_hull_area
from oracle_utils import hull_area_monotone_chain


def _files(directory, pattern):
    return sorted(p.name for p in Path(directory).glob(pattern))


def test_gen_demos_counts_and_index(tmp_path):
    out = tmp_path / "demos"
    assert main(["gen-demos", "--out", str(out), "--n", "10", "--seed", "1"]) == 0
    index = json.loads((out / "index.json").read_text())
    assert len(index["tasks"]) == 6
    assert len(index["demos"]) == 60
    demo_files = [f for f in _files(out, "*.json")
                  if not f.endswith("sidecar.json") and f != "index.json"]
    assert len(demo_files) == 60


def test_gen_demos_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-demos", "--out", str(out), "--n", "2",
                     "--seed", "5"]) == 0
    for name in _files(a, "*.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_demos_invalid_layout_exits_2(tmp_path):
    bad = tmp_path / "layout.json"
    bad.write_text(json.dumps({"table": {"x_min": 1.0, "x_max": 0.0,
                                         "y_min": 0.0, "y_max": 1.0, "z": 0.0}}))
    assert main(["gen-demos", "--out", str(tmp_path / "x"),
                 "--layout", str(bad)]) == 2


def test_gen_demos_unknown_task_exits_2(tmp_path):
    assert main(["gen-demos", "--out", str(tmp_path / "x"),
                 "--tasks", "fly_to_the_moon"]) == 2


@pytest.fixture(scope="module")
def cli_library(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "demos"
    assert main(["gen-demos", "--out", str(out), "--n", "4", "--seed", "0"]) == 0
    return out


def test_warp_writes_plan_and_diagnostics(cli_library, tmp_path):
    out = tmp_path / "warp"
    code = main(["warp", "--demos", str(cli_library),
                 "--task", "pineapple_table_to_shelf",
                 "--world-seed", "3", "--out", str(out)])
    assert code == 0
    diag = json.loads((out / "warp_diagnostics.json").read_text())
    assert len(diag) == 4                      # one entry per demo of the task
    assert all("score" in d and "feasible" in d for d in diag)
    plan = json.loads((out / "warped_plan.json").read_text())
    assert {"actions", "control_rate_hz", "source_demo_id",
            "target_waypoints", "segment_boundaries"} <= set(plan)
    assert all(len(row) == 8 for row in plan["actions"])


def test_warp_forced_rejection_exits_3(cli_library, tmp_path):
    out = tmp_path / "warp"
    code = main(["warp", "--demos", str(cli_library),
                 "--task", "pineapple_table_to_shelf",
                 "--world-seed", "3", "--outlier-rate", "1.0",
                 "--out", str(out)])
    assert code == 3
    diag = json.loads((out / "warp_diagnostics.json").read_text())
    assert all(not d["feasible"] for d in diag)
    assert not (out / "warped_plan.json").exists()


def test_warp_unknown_task_exits_2(cli_library, tmp_path):
    assert main(["warp", "--demos", str(cli_library), "--task", "nope",
                 "--out", str(tmp_path / "w")]) == 2


def test_play_report_export_roundtrip(cli_library, tmp_path):
    out = tmp_path / "session"
    code = main(["play", "--demos", str(cli_library), "--out", str(out),
                 "--iterations", "20", "--seed", "2"])
    assert code == 0
    for artifact in ("session_log.jsonl", "session_state.json", "report.txt",
                     "tasks.csv", "arms.csv", "coverage.csv",
                     "dataset/manifest.json", "config.json"):
        assert (out / artifact).exists(), artifact
    records = read_session_log(out / "session_log.jsonl")
    assert len(records) == 20

    rep = tmp_path / "report"
    assert main(["report", "--log", str(out / "session_log.jsonl"),
                 "--out", str(rep), "--demos", str(cli_library)]) == 0
    assert (rep / "tasks.csv").read_text() == (out / "tasks.csv").read_text()
    assert (rep / "coverage.csv").read_text() == (out / "coverage.csv").read_text()

    exp = tmp_path / "dataset"
    assert main(["export", "--session", str(out), "--out", str(exp)]) == 0
    manifest = json.loads((exp / "manifest.json").read_text())
    state = json.loads((out / "session_state.json").read_text())
    assert manifest["tasks"] == {t: len(e) for t, e in state["episodes"].items()}


def test_play_resume_reproduces_report(cli_library, tmp_path):
    full = tmp_path / "full"
    main(["play", "--demos", str(cli_library), "--out", str(full),
          "--iterations", "24", "--seed", "9"])
    half = tmp_path / "half"
    cfg = {"demo_library": str(cli_library), "iterations": 12, "seed": 9,
           "checkpoint_every": 12, "out_dir": str(half)}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert main(["play", "--config", str(cfg_file), "--out", str(half)]) == 0
    assert main(["play", "--out", str(half), "--iterations", "24",
                 "--resume", str(half / "checkpoints" / "ckpt_000012.json")]) == 0
    strip = lambda p: "\n".join(
        l for l in (p / "report.txt").read_text().splitlines()
        if not l.startswith("generated_at:"))
    assert strip(full) == strip(half)
    assert (full / "session_log.jsonl").read_bytes() == \
        (half / "session_log.jsonl").read_bytes()


def test_play_zero_iterations_valid_report(cli_library, tmp_path):
    out = tmp_path / "s0"
    assert main(["play", "--demos", str(cli_library), "--out", str(out),
                 "--iterations", "0"]) == 0
    assert (out / "tasks.csv").read_text() == \
        "task,attempts,successes,success_rate\n"
    assert "iterations: 0" in (out / "report.txt").read_text()


def test_play_bad_config_exits_2(cli_library, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"demo_library": str(cli_library),
                                    "made_up_key": 1,
                                    "out_dir": str(tmp_path / "s")}))
    assert main(["play", "--config", str(cfg_file),
                 "--out", str(tmp_path / "s")]) == 2


def test_play_missing_library_exits_2(tmp_path):
    assert main(["play", "--out", str(tmp_path / "s"), "--iterations", "1"]) == 2


def test_report_row_format(tmp_path):
    log = tmp_path / "log.jsonl"
    rows = []
    for i in range(5):
        rows.append({"iteration": i + 1, "attempted_task": "A",
                     "success": i < 3, "executed": True, "selected_demo": "d0",
                     "target_waypoints": [[0.1 * i, 0.2, 0.0]],
                     "sim_duration_s": 4.0})
    log.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "rep"
    assert main(["report", "--log", str(log), "--out", str(out)]) == 0
    assert (out / "tasks.csv").read_text() == (
        "task,attempts,successes,success_rate\nA,5,3,0.600\n")


def test_report_empty_log_headers_only(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text("")
    out = tmp_path / "rep"
    assert main(["report", "--log", str(log), "--out", str(out)]) == 0
    assert (out / "tasks.csv").read_text() == \
        "task,attempts,successes,success_rate\n"


def test_report_missing_log_exits_4(tmp_path):
    assert main(["report", "--log", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "rep")]) == 4


def test_export_missing_session_exits_4(tmp_path):
    assert main(["export", "--session", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "d")]) == 4


def test_coverage_hull_matches_independent_implementation(cli_library, tmp_path):
    out = tmp_path / "session"
    main(["play", "--demos", str(cli_library), "--out", str(out),
          "--iterations", "30", "--seed", "4"])
    records = read_session_log(out / "session_log.jsonl")
    pts = [r["target_waypoints"][0][:2] for r in records if r["success"]]
    assert len(pts) >= 10
    assert convex_hull_area(pts) == pytest.approx(
        hull_area_monotone_chain(pts), abs=1e-9)
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.uniform(0, 1, (int(rng.integers(3, 40)), 2))
        assert convex_hull_area(pts) == pytest.approx(
            hull_area_monotone_chain(pts), abs=1e-9)


@pytest.mark.parametrize("flag", [["play", "--config"], ["gen-demos", "--layout"]])
def test_malformed_json_exits_2_naming_the_file(tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    assert main(flag + [str(bad), "--out", str(tmp_path / "o")]) == 2
    assert str(bad) in capsys.readouterr().err
