"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from conftest import make_oracle
from keywarp.bandit import sample_target_task, softmax_probabilities
from keywarp.correspondence import FilterConfig, match_demo
from keywarp.demo import Trajectory, _Probe, parse_action_rows, save_demo_library
from keywarp.geometry import (Camera, CameraIntrinsics, intersect_rays,
                              ray_through_pixel)
from keywarp.play import (SessionConfig, coverage_table, export_success_dataset,
                          read_session_log, resume_session, rule_based_plan,
                          run_session)
from keywarp.sim import DemoLibrary, default_layout, generate_demo_library
from keywarp.tasks import BOWL, SHELF, TABLE, SymbolicState, builtin_tasks, task_map
from keywarp.warp import warp_trajectory
from oracle_utils import (arc_length, brute_force_ray_midpoint, random_camera,
                          retime_segment, warp_segment)
from test_bandit import simulate_bandit
from test_correspondence import _PerturbLeftPrimary, _shifted_snapshot
from test_play import _exported

DOWN = np.array([0.0, 1.0, 0.0, 0.0])


def criterion(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared artifacts

@pytest.fixture(scope="module")
def acceptance_library(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "demos"
    summaries, sidecars = generate_demo_library(default_layout(),
                                                builtin_tasks(), n=10, seed=0)
    save_demo_library(path, summaries, sidecars)
    return path


@pytest.fixture(scope="module")
def acc_lib(acceptance_library):
    return DemoLibrary.load(acceptance_library)


def _run(library_dir, out_dir, **kwargs):
    base = dict(demo_library=str(library_dir), iterations=500, seed=0,
                out_dir=str(out_dir))
    base.update(kwargs)
    t0 = time.perf_counter()
    session = run_session(SessionConfig(**base))
    elapsed = time.perf_counter() - t0
    records = read_session_log(out_dir / "session_log.jsonl")
    return session, records, elapsed


@pytest.fixture(scope="module")
def noiseless(acceptance_library, tmp_path_factory):
    out = tmp_path_factory.mktemp("noiseless")
    return _run(acceptance_library, out, p_tip=0.0) + (out,)


@pytest.fixture(scope="module")
def degraded(acceptance_library, tmp_path_factory):
    out = tmp_path_factory.mktemp("degraded")
    return _run(acceptance_library, out, pixel_noise_sigma=2.0,
                outlier_rate=0.05, p_tip=0.05) + (out,)


# ---------------------------------------------------------------------------
# criteria

def test_geometry_oracle_equivalence():
    """Triangulation vs brute-force inter-ray minimization, 100 rigs, < 1 s."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cam_a = random_camera(rng, CameraIntrinsics, Camera)
        cam_b = random_camera(rng, CameraIntrinsics, Camera)
        ray_a = ray_through_pixel(cam_a, rng.uniform((100, 80), (540, 400)))
        ray_b = ray_through_pixel(cam_b, rng.uniform((100, 80), (540, 400)))
        if np.linalg.norm(np.cross(ray_a.direction, ray_b.direction)) < 0.05:
            continue
        point, residual = intersect_rays(ray_a, ray_b)
        ref_point, ref_dist = brute_force_ray_midpoint(
            ray_a.origin, ray_a.direction, ray_b.origin, ray_b.direction,
            rounds=7, grid=81)
        worst = max(worst, float(np.linalg.norm(point - ref_point)),
                    abs(residual - ref_dist))
    elapsed = time.perf_counter() - t0
    criterion("geometry-oracle-equivalence", worst < 1e-6 and elapsed < 1.0,
              f"worst deviation {worst:.2e} m in {elapsed:.2f} s")


def test_identity_warp_exactness(acc_lib):
    worst = 0.0
    bits_ok = True
    for demo in acc_lib.demos.values():
        plan = warp_trajectory(demo, demo.waypoints)
        same_len = len(plan.trajectory) == len(demo.actions)
        bits_ok &= same_len and np.array_equal(plan.trajectory.gripper,
                                               demo.actions.gripper)
        worst = max(worst, float(np.max(np.abs(
            plan.trajectory.positions - demo.actions.positions))))
    criterion("identity-warp-exactness", worst < 1e-9 and bits_ok,
              f"worst position error {worst:.2e} m over {len(acc_lib.demos)} demos")


def test_warp_affinity_and_continuity(acc_lib):
    rng = np.random.default_rng(1)
    worst_affine = 0.0
    for _ in range(100):
        w0, w1 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        if np.linalg.norm(w1 - w0) < 0.1:
            continue
        d0, d1 = rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.2, 0.2, 3)
        alphas = np.sort(rng.uniform(-0.5, 1.5, 3))
        pos = w0 + alphas[:, None] * (w1 - w0)
        disp = warp_segment(pos, w0, w1, d0, d1) - pos
        lam = (alphas[1] - alphas[0]) / (alphas[2] - alphas[0])
        worst_affine = max(worst_affine, float(np.max(np.abs(
            disp[1] - ((1 - lam) * disp[0] + lam * disp[2])))))

    continuity_exact = True
    for _ in range(50):
        w = rng.uniform(-1, 1, (3, 3))
        d = rng.uniform(-0.2, 0.2, (3, 3))
        shared = np.array([w[1]])
        left = warp_segment(shared, w[0], w[1], d[0], d[1])
        right = warp_segment(shared, w[1], w[2], d[1], d[2])
        continuity_exact &= bool(np.array_equal(left, right))

    pinned = True
    for demo in list(acc_lib.demos.values())[:10]:
        targets = demo.waypoints + rng.uniform(-0.05, 0.05,
                                               demo.waypoints.shape)
        plan = warp_trajectory(demo, targets)
        pinned &= bool(np.array_equal(
            plan.trajectory.positions[plan.segment_boundaries], targets))

    criterion("warp-affinity-and-continuity",
              worst_affine < 1e-9 and continuity_exact and pinned,
              f"affine dev {worst_affine:.2e} m, boundary exact "
              f"{continuity_exact}, waypoints pinned {pinned}")


def test_retiming_step_count_and_speed():
    rng = np.random.default_rng(2)
    count_ok = speed_ok = True
    for _ in range(50):
        n = int(rng.integers(5, 60))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        # smooth spacing: gentle speed modulation around a constant step
        steps = 0.012 * (1.0 + 0.2 * np.sin(np.linspace(0, np.pi, n)))
        src = np.concatenate([[np.zeros(3)],
                              np.cumsum(steps[:, None] * direction, axis=0)])
        scale = rng.uniform(0.4, 2.5)
        warped = src * scale
        pos, _ = retime_segment(src, warped, np.tile(DOWN, (n + 1, 1)))
        L, L_new = arc_length(src), arc_length(warped)
        count_ok &= (pos.shape[0] - 1) == max(1, round(L_new / L * n))
        out_steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        speed_ok &= out_steps.max() <= steps.max() * 1.10
    criterion("retiming-step-count-and-speed", count_ok and speed_ok,
              f"step-count formula {count_ok}, per-step speed within 10% {speed_ok}")


def test_feasibility_filters(acc_lib):
    # injected triangulation failures: residual forced above 0.10 m
    oracle = make_oracle(acc_lib)
    matcher = _PerturbLeftPrimary(oracle, dv=80.0)
    injected = rejected = 0
    for demo in acc_lib.demos.values():
        target = _shifted_snapshot(demo.snapshot, np.array([0.01, 0.0, 0.0]))
        outcome = match_demo(matcher, demo, target, FilterConfig(),
                             acc_lib.demo_side_distances[demo.id])
        assert np.max(outcome.triangulation_residuals) > 0.10
        injected += 1
        rejected += int(not outcome.feasible)
    residual_rate = rejected / injected

    # fully contaminated matcher
    demos = list(acc_lib.demos.values())
    contaminated_rejected = 0
    for trial in range(200):
        noisy = make_oracle(acc_lib, outlier_rate=1.0, seed=trial)
        demo = demos[trial % len(demos)]
        outcome = match_demo(noisy, demo, demo.snapshot, FilterConfig(),
                             acc_lib.demo_side_distances[demo.id])
        contaminated_rejected += int(not outcome.feasible)
    outlier_rate = contaminated_rejected / 200
    criterion("feasibility-filters",
              residual_rate == 1.0 and outlier_rate >= 0.95,
              f"residual-injection rejection {residual_rate:.3f}, "
              f"outlier_rate=1 rejection {outlier_rate:.3f}")


def test_softmax_sampling_frequencies():
    counts = {"a": 0, "b": 1, "c": 5}
    probs = softmax_probabilities([counts[t] for t in sorted(counts)])
    n = 100_000
    rng = np.random.default_rng(3)
    draws = [sample_target_task(counts, 1.0, rng) for _ in range(n)]
    ok = True
    details = []
    for task, p in zip(sorted(counts), probs):
        freq = draws.count(task) / n
        se = math.sqrt(p * (1 - p) / n)
        ok &= abs(freq - p) <= 3 * se
        details.append(f"{task}:{freq:.4f} (analytic {p:.4f})")
    criterion("softmax-sampling", ok, ", ".join(details))


def test_bandit_identifies_better_demos():
    p = [0.9] + [0.4] * 9
    selections, regret = simulate_bandit(p, 1000, 1.0, seed=0)
    share = selections[-100:].count(0) / 100
    _, uniform_regret = simulate_bandit(p, 1000, 1.0, seed=0, uniform=True)
    criterion("bandit-identifies-better-demos",
              share > 0.6 and regret < 0.5 * uniform_regret,
              f"best-arm share {share:.2f} in final 100, regret {regret:.1f} "
              f"vs uniform {uniform_regret:.1f}")


def test_planner_soundness_exhaustive():
    tasks = builtin_tasks()
    by_id = task_map(tasks)
    ok = True
    checked = 0
    for p_slot, b_slot in product((TABLE, SHELF, BOWL), (TABLE, SHELF)):
        start = SymbolicState.make({"pineapple": p_slot, "bowl": b_slot},
                                   {"pineapple": True, "bowl": True})
        for task in tasks:
            plan = rule_based_plan(start, task.id, tasks)
            current = start
            ok &= by_id[plan[0]].precondition(start)
            for step in plan:
                ok &= by_id[step].precondition(current)
                current = by_id[step].apply(current)
            ok &= current.slot_of(task.obj) == task.dest
            checked += 1
    criterion("planner-soundness", ok and checked == 36,
              f"{checked} state-target pairs planned and verified")


def test_noiseless_play_session(noiseless):
    session, records, elapsed, _ = noiseless
    successes = sum(r["success"] for r in records)
    rate = successes / len(records)
    # success soundness vs ground truth: recorded success iff the task's
    # effect holds in the post state with bystander slots untouched
    tasks = task_map(builtin_tasks())
    sound = True
    for r in records:
        if not r["executed"]:
            sound &= not r["success"]
            continue
        task = tasks[r["attempted_task"]]
        pre, post = r["pre_state"]["slots"], r["post_state"]["slots"]
        truth = post[task.obj] == task.dest and all(
            post[o] == s for o, s in pre.items() if o != task.obj)
        sound &= r["success"] == truth
        sound &= (not r["success"]) or (r["evaluator_success"]
                                        and r["verification"]["passed"])
    criterion("simulated-play-noiseless",
              len(records) == 500 and rate >= 0.90
              and len(session.interventions) == 0 and elapsed < 120.0
              and sound,
              f"success {rate:.3f}, interventions "
              f"{len(session.interventions)}, runtime {elapsed:.1f} s, "
              f"success/ground-truth agreement {sound}")


def test_degraded_play_session(degraded):
    session, records, elapsed, _ = degraded
    successes = sum(r["success"] for r in records)
    rate = successes / len(records)
    counts = session.success_counts
    factor = max(counts.values()) / max(1, min(counts.values()))
    criterion("simulated-play-degraded",
              len(records) == 500 and rate >= 0.50 and factor <= 3.0,
              f"success {rate:.3f}, per-task counts {sorted(counts.values())} "
              f"(factor {factor:.2f})")


def test_diversity_growth(noiseless, acc_lib):
    _, records, _, _ = noiseless
    rows = coverage_table(records, acc_lib)
    play_area = sum(r[2] for r in rows)
    demo_area = sum(r[3] for r in rows)
    criterion("diversity-growth",
              demo_area > 0 and play_area >= 2.0 * demo_area,
              f"play hull {play_area:.4f} m^2 vs seed hull {demo_area:.4f} m^2 "
              f"({play_area / demo_area:.1f}x)")


def test_determinism_and_resume(acceptance_library, noiseless, tmp_path_factory):
    _, _, _, noiseless_out = noiseless
    rerun_out = tmp_path_factory.mktemp("rerun")
    _run(acceptance_library, rerun_out, p_tip=0.0)
    log_a = (noiseless_out / "session_log.jsonl").read_bytes()
    log_b = (rerun_out / "session_log.jsonl").read_bytes()
    same_seed = log_a == log_b

    half_out = tmp_path_factory.mktemp("resume")
    _run(acceptance_library, half_out, p_tip=0.0, iterations=250,
         checkpoint_every=50)
    resume_session(half_out / "checkpoints" / "ckpt_000250.json",
                   iterations=500)
    log_c = (half_out / "session_log.jsonl").read_bytes()
    resumed_log = log_a == log_c
    state_a = json.loads((noiseless_out / "session_state.json").read_text())
    state_c = json.loads((half_out / "session_state.json").read_text())
    for doc in (state_a, state_c):
        doc["config"]["out_dir"] = ""
    resumed_state = state_a == state_c
    export_a = _exported(noiseless_out, tmp_path_factory.mktemp("export-a"))
    export_c = _exported(half_out, tmp_path_factory.mktemp("export-c"))
    resumed_export = export_a == export_c and len(export_a) > 1
    criterion("determinism-and-resume",
              same_seed and resumed_log and resumed_state and resumed_export,
              f"same-seed logs identical {same_seed}, resumed log identical "
              f"{resumed_log}, resumed final state identical {resumed_state}, "
              f"resumed export (manifest and {len(export_a) - 1} episodes) "
              f"identical {resumed_export}")


def test_dataset_export(noiseless, tmp_path_factory):
    session, records, _, out = noiseless
    exported = tmp_path_factory.mktemp("export")
    manifest = export_success_dataset(out, exported)
    counts_match = manifest["tasks"] == session.success_counts
    success_records = [r for r in records if r["success"]]
    counts_match &= sum(manifest["tasks"].values()) == len(success_records)
    counts_match &= json.loads((exported / "manifest.json").read_text()) == manifest
    parsed = 0
    for entry in manifest["episodes"]:
        doc = json.loads((exported / entry["file"]).read_text())
        actions = parse_action_rows(_Probe(doc["actions"], "actions"))
        Trajectory(actions, control_rate=doc["control_rate_hz"])
        parsed += 1
    criterion("dataset-export",
              counts_match and parsed == len(success_records),
              f"manifest counts match |G_t|, {parsed} episodes re-parsed")
