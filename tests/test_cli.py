import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from conftest import drop_key, json_key_paths
from keywarp.cli import main
from keywarp.play import RECORD_KEYS, convex_hull_area, export_success_dataset, read_session_log
from keywarp.sim import DemoLibrary
from keywarp.tasks import builtin_tasks
from keywarp.warp import warp_trajectory


def _files(directory, pattern):
    return sorted(p.name for p in Path(directory).glob(pattern))


def test_gen_demos_counts_and_index(tmp_path):
    out = tmp_path / "demos"
    assert main(["gen-demos", "--out", str(out), "--n", "10", "--seed", "1"]) == 0
    index = json.loads((out / "index.json").read_text())
    assert len(index["demos"]) == 60
    tasks = {json.loads((out / e["file"]).read_text())["task_id"] for e in index["demos"]}
    assert tasks == {t.id for t in builtin_tasks()}
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


EARLIER_LAYOUT = Path(__file__).parent / "data" / "layout_with_retired_keys.json"


def test_a_layout_file_with_retired_keys_gives_the_built_in_scenes_outputs(tmp_path):
    """`layout_to_dict(default_layout())` as an earlier version wrote it, with
    the scripted expert's tuning and each object's `is_container`, writes the
    built-in scene's library under `gen-demos --layout`, and its session log
    as a `play` config's `layout`."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"layout": json.loads(EARLIER_LAYOUT.read_text())}))
    runs = {"built_in": ([], []), "file": (["--layout", str(EARLIER_LAYOUT)],
                                           ["--config", str(config)])}
    for name, (gen_flags, play_flags) in runs.items():
        lib, session = tmp_path / name / "lib", tmp_path / name / "session"
        assert main(["gen-demos", "--out", str(lib), "--n", "1"] + gen_flags) == 0
        assert main(["play", "--demos", str(lib), "--out", str(session),
                     "--iterations", "30"] + play_flags) == 0
    for pattern in ("lib/*", "session/session_log.jsonl"):
        files = [sorted(tmp_path.glob(f"{name}/{pattern}")) for name in runs]
        assert len(files[0]) == len(files[1]) > 0
        assert [p.read_bytes() for p in files[0]] == [p.read_bytes() for p in files[1]]


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
                     "tasks.csv", "arms.csv", "coverage.csv", "config.json"):
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
    succeeded = Counter(r["attempted_task"] for r in records if r["success"])
    assert manifest["tasks"] == {t.id: succeeded[t.id] for t in builtin_tasks()}


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
        rows.append(dict(dict.fromkeys(RECORD_KEYS), iteration=i + 1, attempted_task="A",
                         success=i < 3, executed=True, selected_demo="d0",
                         target_waypoints=[[0.1 * i, 0.2, 0.0]], sim_duration_s=4.0))
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


def scipy_hull_area(points) -> float:
    """Qhull's area (in 2-D its `volume`); 0 where Qhull finds no 2-D hull."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        return 0.0
    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        return 0.0


def test_coverage_hull_matches_independent_implementation(cli_library, tmp_path):
    out = tmp_path / "session"
    main(["play", "--demos", str(cli_library), "--out", str(out),
          "--iterations", "30", "--seed", "4"])
    records = read_session_log(out / "session_log.jsonl")
    pts = [r["target_waypoints"][0][:2] for r in records if r["success"]]
    assert len(pts) >= 10
    assert convex_hull_area(pts) == pytest.approx(scipy_hull_area(pts), abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.uniform(0, 1, (int(rng.integers(3, 40)), 2))
        assert convex_hull_area(pts) == pytest.approx(scipy_hull_area(pts), abs=1e-12)


unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def hull_inputs(draw):
    """0-200 points: a unit-square cloud, a cloud over the table's slot
    region (where play's first waypoints fall), points on one line, or a
    few points repeated many times."""
    pts = draw(st.lists(st.tuples(unit, unit), max_size=200))
    kind = draw(st.sampled_from(["cloud", "slots", "line", "repeats"]))
    if kind == "slots":
        return [(0.45 + 0.3 * x, 0.3 * y) for x, y in pts]
    if kind == "line":
        c, line = draw(unit), draw(st.sampled_from(["diagonal", "row", "column"]))
        return [{"diagonal": (x, x), "row": (x, c), "column": (c, x)}[line] for x, _ in pts]
    if kind == "repeats":
        return pts[:draw(st.integers(1, 4))] * draw(st.integers(1, 50))
    return pts


@settings(max_examples=200, deadline=None)
@given(hull_inputs())
def test_coverage_hull_equals_scipy(points):
    ours, qhull = convex_hull_area(points), scipy_hull_area(points)
    assert abs(ours - qhull) <= 1e-12
    assert f"{ours:.6f}" == f"{qhull:.6f}"


@pytest.mark.parametrize("flag", [["play", "--config"], ["gen-demos", "--layout"]])
def test_malformed_json_exits_2_naming_the_file(tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    assert main(flag + [str(bad), "--out", str(tmp_path / "o")]) == 2
    assert str(bad) in capsys.readouterr().err


def _index_not_json(lib):
    (lib / "index.json").write_text("{not json")
    return str(lib / "index.json")


def _sidecar_without_final(lib):
    entry = json.loads((lib / "index.json").read_text())["demos"][0]
    side = json.loads((lib / entry["sidecar"]).read_text())
    del side["final"]
    (lib / entry["sidecar"]).write_text(json.dumps(side))
    return f"sidecar[{entry['id']}]: missing key 'final'"


def _index_id_differs_from_summary(lib):
    index = json.loads((lib / "index.json").read_text())
    entry = index["demos"][0]
    demo_id, entry["id"] = entry["id"], "renamed"
    (lib / "index.json").write_text(json.dumps(index))
    return f"{lib / entry['file']}: id {demo_id!r} is not the index's 'renamed'"


def _summary_whose_gripper_never_toggles(lib):
    entry = json.loads((lib / "index.json").read_text())["demos"][0]
    summary = json.loads((lib / entry["file"]).read_text())
    for row in summary["actions"]:
        row[7] = 0.0
    (lib / entry["file"]).write_text(json.dumps(summary))
    return f"{lib / entry['file']}.actions: gripper command never toggles"


@pytest.mark.parametrize("break_library", [_index_not_json, _sidecar_without_final,
                                           _index_id_differs_from_summary,
                                           _summary_whose_gripper_never_toggles],
                         ids=["index-not-json", "sidecar-without-final",
                              "index-id-differs-from-summary",
                              "summary-whose-gripper-never-toggles"])
@pytest.mark.parametrize("command", [["play", "--iterations", "1"],
                                     ["warp", "--task", "pineapple_table_to_shelf"]],
                         ids=["play", "warp"])
def test_malformed_library_file_exits_2_naming_it(cli_library, tmp_path, capsys,
                                                  command, break_library):
    lib = tmp_path / "lib"
    shutil.copytree(cli_library, lib)
    expected = break_library(lib)
    assert main(command + ["--demos", str(lib), "--out", str(tmp_path / "o")]) == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "o").exists()   # not even play's config.json


@pytest.mark.parametrize("args", [["warp", "--residual-max", "-1"],
                                  ["warp", "--gap-max", "0"],
                                  ["warp", "--sigma", "-1"],
                                  ["warp", "--outlier-rate", "2"],
                                  ["gen-demos", "--n", "0"]],
                         ids=["warp-residual-max", "warp-gap-max", "warp-sigma",
                              "warp-outlier-rate", "gen-demos-n"])
def test_out_of_range_flag_exits_2(cli_library, tmp_path, capsys, args):
    command, flag, value = args
    library = (["--demos", str(cli_library), "--task", "pineapple_table_to_shelf"]
               if command == "warp" else [])
    out = tmp_path / "o"
    assert main([command, flag, value, *library, "--out", str(out)]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def _index_without_demos(lib):
    index = json.loads((lib / "index.json").read_text())
    del index["demos"]
    (lib / "index.json").write_text(json.dumps(index))
    return f"{lib / 'index.json'}: missing key 'demos'"


def _sidecar_without_initial(lib):
    entry = json.loads((lib / "index.json").read_text())["demos"][0]
    side = json.loads((lib / entry["sidecar"]).read_text())
    del side["initial"]
    (lib / entry["sidecar"]).write_text(json.dumps(side))
    return f"sidecar[{entry['id']}]: missing key 'initial'"


def _index_without_sidecar(lib):
    index = json.loads((lib / "index.json").read_text())
    for entry in index["demos"]:
        del entry["sidecar"]
    (lib / "index.json").write_text(json.dumps(index))
    return f"{lib / 'index.json'}.demos[0]: missing key 'sidecar'"


def _sidecar_with_one_anchor_too_few(lib):
    entry = json.loads((lib / "index.json").read_text())["demos"][0]
    side = json.loads((lib / entry["sidecar"]).read_text())
    side["initial"]["anchors"].pop()
    (lib / entry["sidecar"]).write_text(json.dumps(side))
    return (f"{lib / entry['sidecar']}: sidecar[{entry['id']}].initial.anchors: "
            "expected one anchor per waypoint (2), got 1")


def _sidecar_file_deleted(lib):
    entry = json.loads((lib / "index.json").read_text())["demos"][0]
    (lib / entry["sidecar"]).unlink()
    return f"{lib / entry['sidecar']} is missing"


@pytest.mark.parametrize("break_library", [_index_without_demos, _sidecar_without_initial,
                                           _index_without_sidecar,
                                           _sidecar_with_one_anchor_too_few,
                                           _sidecar_file_deleted],
                         ids=["index-without-demos", "sidecar-without-initial",
                              "index-without-sidecar",
                              "sidecar-with-one-anchor-too-few",
                              "sidecar-file-deleted"])
@pytest.mark.parametrize("command", [["play", "--iterations", "1"],
                                     ["warp", "--task", "pineapple_table_to_shelf"]],
                         ids=["play", "warp"])
def test_library_file_missing_field_exits_2_naming_its_path(cli_library, tmp_path, capsys,
                                                             command, break_library):
    lib = tmp_path / "lib"
    shutil.copytree(cli_library, lib)
    expected = break_library(lib)
    assert main(command + ["--demos", str(lib), "--out", str(tmp_path / "o")]) == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "o").exists()   # not even play's config.json


def _put_back_dropped_copies(lib, state_id):
    """Rewrite a library in the format that stored copies: the index's task
    list and entry task ids, each sidecar's demo id, task id and block
    state ids, the state ids of each summary's snapshot and of each
    sidecar's final scene, here all set to `state_id`, and each summary's
    waypoint frames, waypoints and keypoints, here all wrong."""
    index = json.loads((lib / "index.json").read_text())
    for entry in index["demos"]:
        summary = json.loads((lib / entry["file"]).read_text())
        summary.update(waypoint_indices=[0], waypoints=[[0.0, 0.0, 0.0]],
                       keypoints={"left": [[0.0, 0.0]], "right": [[0.0, 0.0]]})
        summary["snapshot"]["payload"]["state_id"] = state_id
        (lib / entry["file"]).write_text(json.dumps(summary, sort_keys=True, indent=2))
        task_id = summary["task_id"]
        entry["task_id"] = task_id
        side = json.loads((lib / entry["sidecar"]).read_text())
        side.update(demo_id=entry["id"], task_id=task_id)
        for block in ("initial", "final"):
            side[block]["state_id"] = state_id
        side["final"]["scene"]["payload"]["state_id"] = state_id
        (lib / entry["sidecar"]).write_text(json.dumps(side, sort_keys=True, indent=2))
    index["tasks"] = sorted({e["task_id"] for e in index["demos"]})
    (lib / "index.json").write_text(json.dumps(index, sort_keys=True, indent=2))


def test_library_with_stored_copies_plays_the_same(cli_library, tmp_path):
    """A library written with the old copies, even ones that disagree with
    the summaries, gives the same degraded session: the copies are never
    read, so no noise draw is keyed on a stored state id."""
    old = tmp_path / "old"
    shutil.copytree(cli_library, old)
    _put_back_dropped_copies(old, "0" * 24)
    logs = []
    for lib in (cli_library, old):
        out = tmp_path / f"s-{lib.name}"
        assert main(["play", "--demos", str(lib), "--out", str(out), "--iterations", "30",
                     "--sigma", "2", "--outlier-rate", "0.05"]) == 0
        logs.append((out / "session_log.jsonl").read_bytes())
    assert logs[0] == logs[1]
    assert any(r["feasible"] for r in read_session_log(tmp_path / "s-old" / "session_log.jsonl"))


@pytest.mark.parametrize("name", ["index.json", "file", "sidecar"])
def test_report_with_a_library_file_missing_exits_2_naming_it(cli_library, cli_session,
                                                              tmp_path, capsys, name):
    lib = tmp_path / "lib"
    shutil.copytree(cli_library, lib)
    entry = json.loads((lib / "index.json").read_text())["demos"][0]
    missing = lib / entry.get(name, name)
    missing.unlink()
    assert main(["report", "--log", str(cli_session / "session_log.jsonl"),
                 "--demos", str(lib), "--out", str(tmp_path / "r")]) == 2
    assert f"{missing} is missing" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cli_session(cli_library, tmp_path_factory):
    """A finished 10-iteration session; its last checkpoint is ckpt_000010."""
    out = tmp_path_factory.mktemp("cli-session") / "s"
    assert main(["play", "--demos", str(cli_library), "--out", str(out),
                 "--iterations", "10"]) == 0
    return out


def _session_copy(cli_session, tmp_path, edit_checkpoint=lambda doc: None):
    """A copy of `cli_session` whose last checkpoint names the copy's
    directory and is edited in place by `edit_checkpoint`; returns the
    copy's directory and that checkpoint's path."""
    session = tmp_path / "s"
    shutil.copytree(cli_session, session)
    checkpoint = session / "checkpoints" / "ckpt_000010.json"
    doc = json.loads(checkpoint.read_text())
    doc["config"]["out_dir"] = str(session)
    edit_checkpoint(doc)
    checkpoint.write_text(json.dumps(doc))
    return session, checkpoint


def _tree_state(directory):
    return {p: (p.stat().st_mtime_ns, p.read_bytes())
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


def test_play_leaves_exactly_the_session_files(cli_session):
    """Play writes no dataset: `export` derives it from the log and the library."""
    assert sorted(p.name for p in cli_session.iterdir()) == sorted([
        "config.json", "session_log.jsonl", "session_state.json", "checkpoints",
        "report.txt", "tasks.csv", "arms.csv", "coverage.csv"])
    assert _files(cli_session / "checkpoints", "*") == ["ckpt_000010.json"]


def test_play_resume_with_negative_iterations_exits_2_and_keeps_the_checkpoint(
        cli_session, tmp_path, capsys):
    session, checkpoint = _session_copy(cli_session, tmp_path)
    before = _tree_state(session)
    assert main(["play", "--out", str(session), "--iterations", "-1",
                 "--resume", str(checkpoint)]) == 2
    assert "iterations" in capsys.readouterr().err
    assert _tree_state(session) == before
    assert main(["play", "--out", str(session), "--iterations", "12",
                 "--resume", str(checkpoint)]) == 0
    assert len(read_session_log(session / "session_log.jsonl")) == 12


def test_play_library_with_a_task_not_built_in_exits_2_naming_it(cli_library, tmp_path,
                                                                 capsys):
    lib = tmp_path / "lib"
    shutil.copytree(cli_library, lib)
    summary = lib / json.loads((lib / "index.json").read_text())["demos"][0]["file"]
    summary.write_text(json.dumps(dict(json.loads(summary.read_text()), task_id="juggle")))
    assert main(["play", "--demos", str(lib), "--iterations", "1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(lib) in err and "['juggle']" in err
    assert not any(t.id in err for t in builtin_tasks())
    assert not (tmp_path / "o").exists()


def test_regenerated_library_stops_resume_and_export(cli_library, tmp_path, capsys):
    """Resume and export both depend on the library a session played; after
    it is regenerated at the same path with another seed, both exit 2 naming
    it, and neither writes anything."""
    lib, session = tmp_path / "lib", tmp_path / "s"
    shutil.copytree(cli_library, lib)
    assert main(["play", "--demos", str(lib), "--out", str(session),
                 "--iterations", "10"]) == 0
    assert main(["gen-demos", "--out", str(lib), "--n", "4", "--seed", "1"]) == 0
    capsys.readouterr()
    before = _tree_state(session)
    assert main(["play", "--out", str(session), "--iterations", "12", "--resume",
                 str(session / "checkpoints" / "ckpt_000010.json")]) == 2
    assert str(lib) in capsys.readouterr().err
    assert main(["export", "--session", str(session), "--out", str(tmp_path / "d")]) == 2
    assert str(lib) in capsys.readouterr().err
    assert _tree_state(session) == before
    assert not (tmp_path / "d").exists()


def test_export_rewarps_the_logged_successes(cli_session, cli_library, tmp_path):
    """Each exported episode is the warp of its logged success's demo onto
    its logged target waypoints; the manifest lists them by task."""
    manifest = export_success_dataset(cli_session, tmp_path / "d")
    library = DemoLibrary.load(cli_library)
    records = {r["iteration"]: r for r in read_session_log(cli_session / "session_log.jsonl")}
    assert manifest["episodes"]
    assert [e["iteration"] for e in manifest["episodes"]] == [
        r["iteration"] for t in library.by_task for r in records.values()
        if r["success"] and r["attempted_task"] == t]
    for entry in manifest["episodes"]:
        record = records[entry["iteration"]]
        plan = warp_trajectory(library.demos[record["selected_demo"]],
                               record["target_waypoints"])
        doc = json.loads((tmp_path / "d" / entry["file"]).read_text())
        assert doc == {"actions": plan.trajectory.actions.tolist(),
                       "control_rate_hz": plan.trajectory.control_rate,
                       "task_id": entry["task_id"], "iteration": entry["iteration"],
                       "source_demo_id": entry["source_demo_id"]}
        assert (entry["file"], entry["task_id"]) == (record["episode_file"],
                                                     record["attempted_task"])


def test_play_resume_into_another_out_exits_2(cli_session, tmp_path, capsys):
    """A copied session resumed with --out naming the copy would write into
    the original's directory, the one its checkpoint names; refuse it."""
    copy = tmp_path / "copy"
    shutil.copytree(cli_session, copy)
    before = _tree_state(cli_session), _tree_state(copy)
    assert main(["play", "--out", str(copy), "--iterations", "12",
                 "--resume", str(copy / "checkpoints" / "ckpt_000010.json")]) == 2
    assert str(cli_session) in capsys.readouterr().err
    assert (_tree_state(cli_session), _tree_state(copy)) == before


@pytest.mark.parametrize("flag", [["--config", "cfg.json"], ["--demos", "lib"],
                                  ["--seed", "9"], ["--k", "1"], ["--sigma", "1"],
                                  ["--outlier-rate", "0.1"], ["--residual-max", "0.2"],
                                  ["--gap-max", "0.2"]],
                         ids=lambda f: f[0][2:])
def test_play_resume_rejects_session_flags(cli_session, capsys, flag):
    before = _tree_state(cli_session)
    assert main(["play", "--out", str(cli_session), *flag,
                 "--resume", str(cli_session / "checkpoints" / "ckpt_000010.json")]) == 2
    assert flag[0] in capsys.readouterr().err
    assert _tree_state(cli_session) == before


@pytest.mark.parametrize("keys", [["world"], ["rng_state"], ["world", "gripper"],
                                  ["world", "rng_state"],
                                  ["world", "gripper", "riders"],
                                  ["world", "objects", "pineapple", "upright"],
                                  ["world", "objects", "bowl", "position"],
                                  ["config", "seed"]],
                         ids=".".join)
def test_play_resume_checkpoint_without_a_key_exits_4(cli_session, tmp_path, capsys, keys):
    session, checkpoint = _session_copy(cli_session, tmp_path, lambda doc: drop_key(doc, keys))
    before = _tree_state(session)
    assert main(["play", "--out", str(session), "--resume", str(checkpoint)]) == 4
    err = capsys.readouterr().err
    assert str(checkpoint) in err and repr(keys[-1]) in err
    assert _tree_state(session) == before


def test_every_checkpoint_key_is_read(cli_session, tmp_path, capsys):
    """Deleting any one key of a checkpoint makes --resume exit 4 naming the
    file, so a checkpoint holds no key that nothing reads. Object and rider
    names are data, and the fields of an `rng_state` are numpy's."""
    doc = json.loads((cli_session / "checkpoints" / "ckpt_000010.json").read_text())
    unread = []
    for n, keys in enumerate(json_key_paths(doc, names=("objects", "riders"))):
        if "rng_state" in keys[:-1]:
            continue
        session, checkpoint = _session_copy(cli_session, tmp_path / str(n),
                                            lambda d: drop_key(d, keys))
        if (main(["play", "--out", str(session), "--resume", str(checkpoint)]) != 4
                or str(checkpoint) not in capsys.readouterr().err):
            unread.append(keys)
    assert unread == []


def test_checkpoint_with_world_params_resumes_with_the_config_ones(cli_library, cli_session,
                                                                  tmp_path):
    """A checkpoint that still stores its world parameters resumes with the
    ones its config gives, like an uninterrupted session, whatever it stores."""
    stored = {"grasp_radius": 0.03, "p_tip": 0.9, "tip_drop_height": 0.0,
              "settle_jitter": 0.008}
    session, checkpoint = _session_copy(cli_session, tmp_path,
                                        lambda doc: doc["world"].update(params=stored))
    assert main(["play", "--out", str(session), "--iterations", "40",
                 "--resume", str(checkpoint)]) == 0
    whole = tmp_path / "whole"
    assert main(["play", "--demos", str(cli_library), "--out", str(whole),
                 "--iterations", "40"]) == 0
    assert ((session / "session_log.jsonl").read_bytes()
            == (whole / "session_log.jsonl").read_bytes())


def test_checkpoint_with_a_stall_counter_resumes_with_the_logs_one(cli_library, tmp_path):
    """A checkpoint that still stores a stall counter resumes with the one its
    log gives, like an uninterrupted session. Every iteration fails here, so
    the 24 stored would stall the session at iteration 11, not 25."""
    runs = {}
    for name, iterations in (("whole", "40"), ("killed", "10")):
        runs[name] = tmp_path / name
        assert main(["play", "--demos", str(cli_library), "--out", str(runs[name]),
                     "--outlier-rate", "1", "--iterations", iterations]) == 0
    checkpoint = runs["killed"] / "checkpoints" / "ckpt_000010.json"
    checkpoint.write_text(json.dumps(dict(json.loads(checkpoint.read_text()),
                                          consecutive_failures=24)))
    assert main(["play", "--out", str(runs["killed"]), "--iterations", "40",
                 "--resume", str(checkpoint)]) == 0
    assert ((runs["killed"] / "session_log.jsonl").read_bytes()
            == (runs["whole"] / "session_log.jsonl").read_bytes())


@pytest.mark.parametrize("key, value", [("seed", "0"), ("k", 0)])
def test_play_resume_checkpoint_with_a_bad_config_value_exits_4(cli_session, tmp_path,
                                                               capsys, key, value):
    session, checkpoint = _session_copy(cli_session, tmp_path,
                                        lambda doc: doc["config"].update({key: value}))
    before = _tree_state(session)
    assert main(["play", "--out", str(session), "--resume", str(checkpoint)]) == 4
    err = capsys.readouterr().err
    assert str(checkpoint) in err and key in err
    assert _tree_state(session) == before


@pytest.mark.parametrize("value", ["10", True], ids=repr)
@pytest.mark.parametrize("key", ["iteration"])
def test_play_resume_checkpoint_with_a_non_integer_counter_exits_4(cli_session, tmp_path,
                                                                  capsys, key, value):
    session, checkpoint = _session_copy(cli_session, tmp_path,
                                        lambda doc: doc.update({key: value}))
    before = _tree_state(session)
    assert main(["play", "--out", str(session), "--iterations", "12",
                 "--resume", str(checkpoint)]) == 4
    err = capsys.readouterr().err
    assert f"{checkpoint}.{key}: expected integer" in err
    assert _tree_state(session) == before


def test_play_resume_unparsable_log_line_exits_4(cli_library, tmp_path, capsys):
    """Only the last log line can be torn by a crash; an unparsable line
    before it is corruption, reported with the log's path."""
    out = tmp_path / "s"
    assert main(["play", "--demos", str(cli_library), "--out", str(out),
                 "--iterations", "10"]) == 0
    log = out / "session_log.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:len(lines[2]) // 2] + "\n"
    log.write_text("".join(lines))
    assert main(["play", "--out", str(out), "--iterations", "12",
                 "--resume", str(out / "checkpoints" / "ckpt_000010.json")]) == 4
    assert str(log) in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["deleted", "short", "gap", "foreign demo"])
def test_play_resume_without_the_checkpoints_records_exits_4(cli_session, tmp_path,
                                                             capsys, damage):
    """The statistics of a resumed session come from log records 1..N of
    checkpoint N; a log that cannot give them all is an I/O error naming it."""
    session, checkpoint = _session_copy(cli_session, tmp_path)
    log = session / "session_log.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    if damage == "deleted":
        log.unlink()
    elif damage == "short":
        log.write_text("".join(lines[:9]))
    elif damage == "gap":
        log.write_text("".join(lines[:4] + lines[5:]))
    else:
        executed = next(i for i, l in enumerate(lines) if json.loads(l)["executed"])
        lines[executed] = json.dumps(dict(json.loads(lines[executed]),
                                          selected_demo="nope")) + "\n"
        log.write_text("".join(lines))
    before = _tree_state(session)
    assert main(["play", "--out", str(session), "--iterations", "12",
                 "--resume", str(checkpoint)]) == 4
    assert str(log) in capsys.readouterr().err
    assert _tree_state(session) == before


def test_report_drops_a_torn_last_line(cli_session, tmp_path, capsys):
    """A crash mid-append tears the last record; the report covers the
    complete records before it."""
    lines = (cli_session / "session_log.jsonl").read_text().splitlines(keepends=True)
    torn, whole = tmp_path / "torn.jsonl", tmp_path / "whole.jsonl"
    torn.write_text("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
    whole.write_text("".join(lines[:-1]))
    for log in (torn, whole):
        assert main(["report", "--log", str(log), "--out", str(tmp_path / log.stem)]) == 0
    assert "report for 9 iterations" in capsys.readouterr().out
    for table in ("tasks.csv", "arms.csv"):
        assert (tmp_path / "torn" / table).read_bytes() == \
            (tmp_path / "whole" / table).read_bytes()


def test_report_unparsable_line_before_the_last_exits_4(cli_session, tmp_path, capsys):
    lines = (cli_session / "session_log.jsonl").read_text().splitlines(keepends=True)
    log = tmp_path / "log.jsonl"
    log.write_text("".join(lines[:5] + ["not a record\n"] + lines[5:]))
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "rep")]) == 4
    assert f"{log} line 6" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_play_resume_truncated_checkpoint_exits_4(cli_library, tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["play", "--demos", str(cli_library), "--out", str(out),
                 "--iterations", "10"]) == 0
    checkpoint = out / "checkpoints" / "ckpt_000010.json"
    data = checkpoint.read_bytes()
    checkpoint.write_bytes(data[:len(data) // 2])
    assert main(["play", "--out", str(out), "--resume", str(checkpoint)]) == 4
    assert str(checkpoint) in capsys.readouterr().err
