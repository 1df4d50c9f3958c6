"""Command-line entry points: gen-demos, warp, play, report, export.

Exit codes: 0 success, 2 configuration error, 3 no feasible demo match,
4 I/O error. All outputs land under --out; every subcommand is
deterministic for a fixed seed (the report's generated_at header is the
single timestamp anywhere).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .correspondence import AllInfeasible, FilterConfig, match_demo, select_source_demo
from .demo import SchemaError
from .play import (SessionConfig, export_success_dataset, read_session_log,
                   resume_session, run_session, write_report_files)
from .sim import (ConfigError, CorrespondenceOracle, DemoLibrary, OracleConfig,
                  default_layout, generate_demo_library, layout_from_dict,
                  snapshot, spawn_world)
from .demo import save_demo_library
from .tasks import builtin_tasks
from .warp import plan_to_dict, warp_trajectory


def _read_json(path):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e


def _load_layout(path):
    if path is None:
        return default_layout()
    return layout_from_dict(_read_json(path))


def cmd_gen_demos(args) -> int:
    layout = _load_layout(args.layout)
    tasks = builtin_tasks()
    if args.tasks:
        wanted = set(args.tasks.split(","))
        unknown = wanted - {t.id for t in tasks}
        if unknown:
            raise ConfigError(f"unknown tasks: {sorted(unknown)}")
        tasks = [t for t in tasks if t.id in wanted]
    summaries, sidecars = generate_demo_library(layout, tasks, n=args.n,
                                                seed=args.seed)
    save_demo_library(args.out, summaries, sidecars)
    print(f"wrote {len(summaries)} demos for {len(tasks)} tasks to {args.out}")
    return 0


def cmd_warp(args) -> int:
    library = DemoLibrary.load(args.demos)
    layout = _load_layout(args.layout)
    if args.task not in library.by_task:
        raise ConfigError(f"task {args.task!r} has no demos in the library")
    oracle = CorrespondenceOracle(OracleConfig(
        pixel_noise_sigma=args.sigma, outlier_rate=args.outlier_rate,
        seed=args.seed))
    library.register_with(oracle)
    world = spawn_world(layout, seed=args.world_seed,
                        slots=_start_slots_for(args.task))
    obs = snapshot(world)
    filters = FilterConfig(residual_max=args.residual_max, gap_max=args.gap_max)

    outcomes = [match_demo(oracle, library.demos[d], obs, filters,
                           library.demo_side_distances.get(d))
                for d in library.by_task[args.task]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    diagnostics = [{
        "demo_id": o.demo_id,
        "feasible": bool(o.feasible),
        "score": (float(o.score) if o.feasible else None),
        "residuals": [x if x != float("inf") else None
                      for x in o.triangulation_residuals.tolist()],
        "cross_view_gaps": [x if x != float("inf") else None
                            for x in o.cross_view_gaps.tolist()],
    } for o in outcomes]
    (out / "warp_diagnostics.json").write_text(
        json.dumps(diagnostics, sort_keys=True, indent=2))

    selected = select_source_demo(outcomes)   # AllInfeasible -> exit 3
    outcome = next(o for o in outcomes if o.demo_id == selected)
    plan = warp_trajectory(library.demos[selected], outcome.target_waypoints)
    (out / "warped_plan.json").write_text(
        json.dumps(plan_to_dict(plan), sort_keys=True, indent=2))
    print(f"selected {selected} (score {outcome.score:.4f}); "
          f"plan of {len(plan)} actions written to {out / 'warped_plan.json'}")
    return 0


def _start_slots_for(task_id: str):
    for task in builtin_tasks():
        if task.id == task_id:
            return {task.obj: task.source}
    return None


def cmd_play(args) -> int:
    doc = {}
    if args.config:
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise ConfigError("session config must be a JSON object")
    overrides = {
        "seed": args.seed, "iterations": args.iterations, "k": args.k,
        "pixel_noise_sigma": args.sigma, "outlier_rate": args.outlier_rate,
        "residual_max": args.residual_max, "gap_max": args.gap_max,
        "demo_library": args.demos,
    }
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    doc["out_dir"] = args.out

    if args.resume:
        session = resume_session(args.resume, iterations=doc.get("iterations"))
    else:
        cfg = SessionConfig.from_dict(doc)
        if not cfg.demo_library:
            raise ConfigError("a demo library is required (--demos or config)")
        session = run_session(cfg)
    counts = session.success_counts
    total = sum(counts.values())
    print(f"session complete: {session.iteration} iterations, {total} successes, "
          f"{len(session.interventions)} interventions; artifacts in {args.out}")
    return 0


def cmd_report(args) -> int:
    log_path = Path(args.log)
    if not log_path.exists():
        raise FileNotFoundError(f"no session log at {log_path}")
    records = read_session_log(log_path)
    library = DemoLibrary.load(args.demos) if args.demos else None
    interventions = [r for r in records if r.get("intervention")]
    write_report_files(args.out, records, library=library,
                       interventions=interventions)
    print(f"report for {len(records)} iterations written to {args.out}")
    return 0


def cmd_export(args) -> int:
    manifest = export_success_dataset(args.session, args.out)
    total = sum(manifest["tasks"].values())
    print(f"exported {total} episodes across {len(manifest['tasks'])} tasks "
          f"to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keywarp",
        description="Trajectory warping from keypoint correspondences and "
                    "autonomous play data generation in a tabletop simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-demos", help="generate a scripted demo library")
    p.add_argument("--out", required=True)
    p.add_argument("--layout", help="layout JSON (defaults to the built-in scene)")
    p.add_argument("--n", type=int, default=10, help="demos per task")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", help="comma-separated task ids (default: all)")
    p.set_defaults(func=cmd_gen_demos)

    p = sub.add_parser("warp", help="one-shot match + warp against a fresh world")
    p.add_argument("--demos", required=True, help="demo library directory")
    p.add_argument("--task", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layout")
    p.add_argument("--world-seed", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.0, help="pixel noise sigma")
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--residual-max", type=float, default=0.10)
    p.add_argument("--gap-max", type=float, default=0.10)
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("play", help="run an autonomous play session")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="session config JSON")
    p.add_argument("--demos", help="demo library (overrides config)")
    p.add_argument("--resume", help="checkpoint file to resume from")
    p.add_argument("--seed", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--outlier-rate", type=float)
    p.add_argument("--residual-max", type=float)
    p.add_argument("--gap-max", type=float)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("report", help="tables from a session log")
    p.add_argument("--log", required=True, help="session_log.jsonl path")
    p.add_argument("--out", required=True)
    p.add_argument("--demos", help="demo library for coverage baselines")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="export the success-filtered dataset")
    p.add_argument("--session", required=True, help="session output directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except AllInfeasible as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
