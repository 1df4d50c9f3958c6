"""The role of a damaged file decides the exit code: 2 for an input the user
names (`--config`, `--layout`, a library's index, summaries and sidecars), 4
for a session artifact (checkpoint, session state, session log). Each
file is damaged three ways (missing, not JSON, a required key deleted) and
the message must name it; a config, a summary, a sidecar and a checkpoint
also get a number too large for a float, and a config, a layout and a
checkpoint a number that is not finite, and a config and a checkpoint a
negative seed. A config and a layout get each kind of bad object list and
rate, an unknown key, a retired key at another value and a bad orientation
or workspace, and a checkpoint a world whose objects, or whose gripper's
attached object or riders, are not its layout's. A layout that `gen-demos`
cannot stage a demo in (a table too small or behind the cameras) exits 2
too, and so does any perturbed layout that does not exit 0; a table too
small for both objects also exits 2 naming the file from `play --config`
and `warp --layout`. A session log whose success record holds a target the
warp cannot retime (1e308, NaN, 1e12) makes `export` exit 4 naming the
log. A non-finite flag and a negative seed flag exit 2 naming their field."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drop_key
from keywarp.cli import main
from keywarp.sim import EXPERT_TUNING, default_layout, layout_to_dict

INPUT, ARTIFACT = 2, 4


@pytest.fixture(scope="module")
def lib(tmp_path_factory):
    out = tmp_path_factory.mktemp("roles") / "lib"
    assert main(["gen-demos", "--out", str(out), "--n", "1", "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="module")
def session(lib, tmp_path_factory):
    out = tmp_path_factory.mktemp("roles") / "s"
    assert main(["play", "--demos", str(lib), "--out", str(out), "--iterations", "10"]) == 0
    return out


def _first_entry(lib):
    return json.loads((lib / "index.json").read_text())["demos"][0]


def _config(w, lib, s):
    path = w / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "layout": layout_to_dict(default_layout())}))
    return path, ["play", "--config", str(path), "--demos", str(lib), "--iterations", "1",
                  "--out", str(w / "o")], ["layout", "table"]


def _layout(w, lib, s):
    path = w / "layout.json"
    path.write_text(json.dumps(layout_to_dict(default_layout())))
    return path, ["gen-demos", "--layout", str(path), "--n", "1", "--out", str(w / "o")], ["home"]


def _warp_layout(w, lib, s):
    path = w / "layout.json"
    path.write_text(json.dumps(layout_to_dict(default_layout())))
    return path, ["warp", "--demos", str(lib), "--task", "pineapple_table_to_shelf",
                  "--layout", str(path), "--out", str(w / "o")], ["home"]


def _play_on_library(name, keys):
    def setup(w, lib, s):
        copy = w / "lib"
        shutil.copytree(lib, copy)
        path = copy / _first_entry(copy).get(name, name)
        return path, ["play", "--demos", str(copy), "--iterations", "1",
                      "--out", str(w / "o")], keys
    return setup


def _session_copy(w, s):
    """A copy of the session whose last checkpoint names the copy."""
    copy = w / "s"
    shutil.copytree(s, copy)
    checkpoint = copy / "checkpoints" / "ckpt_000010.json"
    doc = json.loads(checkpoint.read_text())
    doc["config"]["out_dir"] = str(copy)
    checkpoint.write_text(json.dumps(doc))
    return copy, checkpoint


def _resume(name, keys):
    def setup(w, lib, s):
        copy, checkpoint = _session_copy(w, s)
        path = checkpoint if name == "checkpoint" else copy / name
        return path, ["play", "--out", str(copy), "--iterations", "12",
                      "--resume", str(checkpoint)], keys
    return setup


def _report(w, lib, s):
    path = w / "session_log.jsonl"
    shutil.copyfile(s / "session_log.jsonl", path)
    return path, ["report", "--log", str(path), "--out", str(w / "o")], [0, "success"]


def _export(name, keys):
    def setup(w, lib, s):
        copy, _ = _session_copy(w, s)
        return copy / name, ["export", "--session", str(copy), "--out", str(w / "o")], keys
    return setup


FILES = {
    "config": (_config, INPUT),
    "layout": (_layout, INPUT),
    "warp-layout": (_warp_layout, INPUT),
    "index": (_play_on_library("index.json", ["demos"]), INPUT),
    "summary": (_play_on_library("file", ["rig"]), INPUT),
    "sidecar": (_play_on_library("sidecar", ["final"]), INPUT),
    "checkpoint": (_resume("checkpoint", ["world"]), ARTIFACT),
    "log-resume": (_resume("session_log.jsonl", [0, "success"]), ARTIFACT),
    "log-report": (_report, ARTIFACT),
    "state": (_export("session_state.json", ["library_digest"]), ARTIFACT),
    "log-export": (_export("session_log.jsonl", [0, "success"]), ARTIFACT),
}


def _missing(path, keys):
    path.unlink()


def _not_json(path, keys):
    path.write_text("not json\n" + path.read_text())


def _key_deleted(path, keys):
    """Delete the key at `keys`; a leading integer picks a line of a JSON-lines file."""
    if isinstance(keys[0], int):
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[keys[0]])
        drop_key(record, keys[1:])
        lines[keys[0]] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
    else:
        doc = json.loads(path.read_text())
        drop_key(doc, keys)
        path.write_text(json.dumps(doc))


def _checkpoint_layout_without_keys(path, keys):
    doc = json.loads(path.read_text())
    doc["config"]["layout"] = {"table": {}}
    path.write_text(json.dumps(doc))


def _value_of_the_wrong_type(path, keys):
    """Set the value at `keys` of a JSON-lines file to a string."""
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[keys[0]])
    record[keys[1]] = "yes"
    lines[keys[0]] = json.dumps(record) + "\n"
    path.write_text("".join(lines))


def _set_value(name, value, *keys):
    """Set the value at `keys` to `value`."""
    def damage(path, _):
        doc = target = json.loads(path.read_text())
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(doc))
    damage.__name__ = name
    return damage


def _number_too_large(*keys):
    """Set the value at `keys` to an integer beyond the float64 range."""
    return _set_value("number_too_large", 10**400, *keys)


def _non_finite(literal, *keys):
    """Set the value at `keys` to a JSON literal Python reads as NaN or inf."""
    def damage(path, _):
        doc = target = json.loads(path.read_text())
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = "<non-finite>"
        path.write_text(json.dumps(doc).replace('"<non-finite>"', literal))
    damage.__name__ = f"{literal}_{keys[-1]}"
    return damage


CASES = [(name, damage) for name in FILES
         for damage in (_missing, _not_json, _key_deleted)]
CASES.append(("checkpoint", _checkpoint_layout_without_keys))
CASES += [(name, _value_of_the_wrong_type) for name in ("log-resume", "log-report")]
CASES += [("config", _number_too_large("pixel_noise_sigma")),
          ("summary", _number_too_large("actions", 3, 2)),
          ("sidecar", _number_too_large("final", "offset", 1)),
          ("checkpoint", _number_too_large("world", "gripper", "position", 0))]
CASES += [("config", _non_finite("1e400", "pixel_noise_sigma")),
          ("config", _non_finite("1e400", "explore_sigma")),
          ("layout", _non_finite("NaN", "table", "z")),
          ("checkpoint", _non_finite("NaN", "config", "c")),
          ("checkpoint", _non_finite("Infinity", "world", "gripper", "position", 0))]
CASES += [("config", _set_value("negative_seed", -1, "seed")),
          ("checkpoint", _set_value("negative_seed", -1, "config", "seed"))]


def _dropped(name, *keys):
    """Delete the key at `keys`."""
    def damage(path, _):
        doc = json.loads(path.read_text())
        drop_key(doc, keys)
        path.write_text(json.dumps(doc))
    damage.__name__ = name
    return damage


def _layout_edit(name, edit):
    """Apply `edit` to the layout, which a config holds under "layout"."""
    def damage(path, _):
        doc = json.loads(path.read_text())
        edit(doc.get("layout", doc))
        path.write_text(json.dumps(doc))
    damage.__name__ = name
    return damage


def _extra_object(object_id):
    return lambda layout: layout["objects"].append(dict(layout["objects"][1], id=object_id))


CASES += [("checkpoint", _dropped("object_dropped", "world", "objects", "bowl")),
          ("checkpoint", _set_value("object_added", {"position": [0.3, 0.0, 0.0], "upright": True},
                                    "world", "objects", "mug")),
          ("checkpoint", _set_value("attached_absent", "mug", "world", "gripper", "attached")),
          ("checkpoint", _set_value("rider_absent", {"mug": [0.0, 0.0, 0.02]},
                                    "world", "gripper", "riders"))]
CASES += [(name, damage) for name in ("config", "layout") for damage in (
    _layout_edit("duplicate_object_id", _extra_object("pineapple")),
    _layout_edit("object_named_as_slot", _extra_object("shelf")),
    _layout_edit("task_object_missing", lambda layout: layout["objects"].pop(1)),
    _layout_edit("negative_footprint", lambda layout: layout["objects"][0].update(footprint=-0.06)),
    _layout_edit("negative_interior_offset",
                 lambda layout: layout["objects"][0].update(interior_offset=-0.015)),
    _layout_edit("zero_control_rate", lambda layout: layout.update(control_rate=0)),
    _layout_edit("zero_max_speed", lambda layout: layout.update(max_speed=0.0)),
    _layout_edit("negative_accel", lambda layout: layout.update(accel=-1.5)),
    _layout_edit("misspelt_key", lambda layout: layout.update(workspace_maxx=[1, 1, 1])),
    _layout_edit("misspelt_object_key", lambda layout: layout["objects"][0].update(foot=0.1)),
    _layout_edit("tuned_max_speed", lambda layout: layout.update(max_speed=0.5)),
    _layout_edit("bowl_not_a_container",
                 lambda layout: layout["objects"][0].update(is_container=False)),
    _layout_edit("pineapple_a_container",
                 lambda layout: layout["objects"][1].update(is_container=True)),
    _layout_edit("workspace_min_above_max",
                 lambda layout: layout.update(workspace_min=[0.02, 0.8, -0.005])),
    _layout_edit("non_unit_home_orientation",
                 lambda layout: layout.update(home_orientation=[0.0, 0.9, 0.0, 0.0])))]
# Layouts that parse but cannot stage a demo: `gen-demos` exits 2 naming them.
# One whose table cannot hold both objects cannot start a session or a
# one-shot warp either, and `play --config` and `warp --layout` name it too.
CASES += [(name, _layout_edit("table_too_small", lambda layout: layout["table"].update(
              x_min=0.40, x_max=0.45, y_min=0.0, y_max=0.05)))
          for name in ("layout", "config", "warp-layout")]
CASES += [("layout", _layout_edit("table_behind_cameras", lambda layout: (
              layout["table"].update(y_min=-1.5, y_max=-1.0),
              layout.update(workspace_min=[0.02, -1.6, -0.005]))))]


def _success_target(name, value):
    """Set the first target coordinate of the log's first success record to `value`."""
    def damage(path, _):
        lines = path.read_text().splitlines(keepends=True)
        n = next(i for i, line in enumerate(lines) if json.loads(line)["success"])
        record = json.loads(lines[n])
        record["target_waypoints"][0][0] = value
        lines[n] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
    damage.__name__ = name
    return damage


# A target the warp cannot retime: its arc overflows the float range, is NaN,
# or is finite but stretches a segment beyond MAX_STRETCH (1e12 would ask
# for about 1e14 samples).
CASES += [("log-export", _success_target("overflowing_target", 1e308)),
          ("log-export", _success_target("nan_target", float("nan"))),
          ("log-export", _success_target("huge_target", 1e12))]


def _exit_code(argv):
    """`main`'s exit code, or 1 where the process would end in a traceback."""
    try:
        return main(argv)
    except Exception:
        return 1


@pytest.mark.parametrize("name, damage", CASES,
                         ids=[f"{n}-{d.__name__.strip('_')}" for n, d in CASES])
def test_damaged_file_exits_with_its_roles_code_naming_it(lib, session, tmp_path, capsys,
                                                          name, damage):
    setup, code = FILES[name]
    path, argv, keys = setup(tmp_path, lib, session)
    damage(path, keys)
    got = _exit_code(argv)
    assert got != 1
    assert got == code
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["play", "--sigma", "nan"], "pixel_noise_sigma"),
    (["warp", "--task", "pineapple_table_to_shelf", "--sigma", "nan"], "pixel_noise_sigma"),
    (["warp", "--task", "pineapple_table_to_shelf", "--residual-max", "inf"], "residual_max"),
], ids=["play-sigma-nan", "warp-sigma-nan", "warp-residual-max-inf"])
def test_non_finite_flag_exits_2_naming_its_field(lib, tmp_path, capsys, argv, field):
    _assert_flag_exits_2_naming(lib, tmp_path, capsys, argv, field)


@pytest.mark.parametrize("argv, field", [
    (["play", "--seed", "-1"], "seed"),
    (["warp", "--task", "pineapple_table_to_shelf", "--world-seed", "-1"], "--world-seed"),
], ids=["play-seed", "warp-world-seed"])
def test_negative_seed_flag_exits_2_naming_its_field(lib, tmp_path, capsys, argv, field):
    _assert_flag_exits_2_naming(lib, tmp_path, capsys, argv, field)


def _assert_flag_exits_2_naming(lib, tmp_path, capsys, argv, field):
    out = tmp_path / "o"
    assert _exit_code(argv + ["--demos", str(lib), "--out", str(out)]) == INPUT
    assert field in capsys.readouterr().err
    assert not out.exists()


_shift = st.floats(-0.3, 0.3)


@st.composite
def perturbed_layouts(draw):
    """The built-in layout with its slot regions, workspace, home orientation,
    footprints and interior offsets moved, and with unknown keys and retired
    keys at other values added."""
    layout = layout_to_dict(default_layout())
    for bounds in (layout["table"], layout["shelf"]):
        for key in draw(st.sets(st.sampled_from(sorted(bounds)))):
            bounds[key] += draw(_shift)
    for key in draw(st.sets(st.sampled_from(["workspace_min", "workspace_max"]))):
        layout[key] = [c + draw(_shift) for c in layout[key]]
    if draw(st.booleans()):
        q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
        norm = np.linalg.norm(q)
        layout["home_orientation"] = (q / norm if draw(st.booleans()) and norm > 0.1
                                      else q).tolist()
    for spec in layout["objects"]:
        for key in draw(st.sets(st.sampled_from(["footprint", "interior_offset"]))):
            spec[key] = draw(st.floats(0.0, 0.2))
        if draw(st.booleans()):
            spec["is_container"] = draw(st.booleans())
    for key in draw(st.sets(st.sampled_from(sorted(EXPERT_TUNING) + ["speed"]), max_size=2)):
        layout[key] = draw(st.floats(-1.0, 30.0))
    return layout


@settings(max_examples=50, deadline=None)
@given(perturbed_layouts())
def test_gen_demos_on_a_perturbed_layout_exits_0_or_2_naming_it(layout):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layout.json"
        path.write_text(json.dumps(layout))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _exit_code(["gen-demos", "--n", "1", "--layout", str(path),
                               "--out", str(Path(tmp) / "o")])
        assert code in (0, 2)
        assert code == 0 or str(path) in err.getvalue()
