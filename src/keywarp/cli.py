"""Command-line entry points: gen-demos, warp, play, report, export.

Exit codes: 0 success; 2 a bad flag or a bad input file (--config,
--layout, a library's index, summaries and sidecars), or a library that
changed since the session played it; 3 no feasible demo match; 4 a bad
session artifact (a checkpoint, session_state.json, session_log.jsonl)
or a failed write. A file is bad when it is missing, not JSON, or lacks
a field or holds one of the wrong type or range, and the message names
it; a session log's unparsable last line is a record torn by a crash and
is dropped. A flag is bad when its value is out of range, or when play
--resume is given a session flag or a foreign --out: a resumed session
keeps its checkpointed config, and only --iterations applies. All
outputs land under --out; every subcommand is deterministic for a fixed
seed (the report's generated_at header is the single timestamp
anywhere).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .correspondence import AllInfeasible, FilterConfig, match_demo, select_source_demo
from .demo import ConfigError, read_json, save_demo_library
from .play import (SessionConfig, export_success_dataset, read_session_log,
                   resume_session, run_session, write_report_files)
from .sim import (CorrespondenceOracle, DemoLibrary, OracleConfig,
                  PreconditionUnsatisfiable, default_layout, generate_demo_library,
                  layout_from_dict, snapshot, spawn_world)
from .tasks import builtin_tasks, task_map
from .warp import plan_to_dict, warp_trajectory


def _load_layout(path):
    if path is None:
        return default_layout()
    return read_json(path, lambda p: layout_from_dict(p.doc))


@contextmanager
def _naming_layout(path):
    """A layout the block cannot use as a ConfigError naming the file it came
    from, `path`, or the built-in layout when that is None."""
    try:
        yield
    except PreconditionUnsatisfiable as e:
        raise ConfigError(f"{path or 'the built-in layout'}: {e}") from e


def cmd_gen_demos(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be at least 1")
    layout = _load_layout(args.layout)
    tasks = builtin_tasks()
    if args.tasks:
        wanted = set(args.tasks.split(","))
        unknown = wanted - {t.id for t in tasks}
        if unknown:
            raise ConfigError(f"unknown tasks: {sorted(unknown)}")
        tasks = [t for t in tasks if t.id in wanted]
    with _naming_layout(args.layout):
        summaries, sidecars = generate_demo_library(layout, tasks, n=args.n,
                                                    seed=args.seed)
    save_demo_library(args.out, summaries, sidecars)
    print(f"wrote {len(summaries)} demos for {len(tasks)} tasks to {args.out}")
    return 0


def cmd_warp(args) -> int:
    if args.world_seed < 0:
        raise ConfigError("--world-seed must be non-negative")
    library = DemoLibrary.load(args.demos)
    layout = _load_layout(args.layout)
    if args.task not in library.by_task:
        raise ConfigError(f"task {args.task!r} has no demos in the library")
    oracle = CorrespondenceOracle(OracleConfig(
        pixel_noise_sigma=args.sigma, outlier_rate=args.outlier_rate,
        seed=args.seed))
    library.register_with(oracle)
    task = task_map(builtin_tasks()).get(args.task)   # a builtin task starts at its source
    with _naming_layout(args.layout):
        world = spawn_world(layout, seed=args.world_seed,
                            slots={task.obj: task.source} if task else None)
    obs = snapshot(world)
    filters = FilterConfig(residual_max=args.residual_max, gap_max=args.gap_max)

    pairs = {}   # the candidates' matched pixel pairs in `obs`
    outcomes = [match_demo(oracle, library.demos[d], obs, filters,
                           library.demo_side_distances[d], pairs)
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

    outcome = select_source_demo(outcomes)   # AllInfeasible -> exit 3
    plan = warp_trajectory(library.demos[outcome.demo_id], outcome.target_waypoints)
    (out / "warped_plan.json").write_text(
        json.dumps(plan_to_dict(plan), sort_keys=True, indent=2))
    print(f"selected {outcome.demo_id} (score {outcome.score:.4f}); "
          f"plan of {len(plan)} actions written to {out / 'warped_plan.json'}")
    return 0


# play's session flags, each with the SessionConfig field it overrides (--config
# gives them all); --resume refuses them: a session keeps its checkpointed config
SESSION_FLAGS = {"config": None, "demos": "demo_library", "seed": "seed", "k": "k",
                 "sigma": "pixel_noise_sigma", "outlier_rate": "outlier_rate",
                 "residual_max": "residual_max", "gap_max": "gap_max"}


def cmd_play(args) -> int:
    given = [flag for flag in SESSION_FLAGS if getattr(args, flag) is not None]
    if args.resume:
        if given:
            flags = ", ".join(f"--{flag.replace('_', '-')}" for flag in given)
            raise ConfigError(f"{flags} cannot be given with --resume: "
                              "the session keeps its checkpointed config")
        session = resume_session(args.resume, iterations=args.iterations,
                                 out_dir=args.out)
    else:
        cfg = (read_json(args.config, lambda p: SessionConfig.from_dict(p.doc))
               if args.config else SessionConfig())
        overrides = {SESSION_FLAGS[flag]: getattr(args, flag) for flag in given
                     if flag != "config"}
        if args.iterations is not None:
            overrides["iterations"] = args.iterations
        cfg = replace(cfg, out_dir=args.out, **overrides)
        if not cfg.demo_library:
            raise ConfigError("a demo library is required (--demos or config)")
        with _naming_layout(args.config if cfg.layout else None):
            session = run_session(cfg)
    counts = session.success_counts
    total = sum(counts.values())
    print(f"session complete: {session.iteration} iterations, {total} successes, "
          f"{len(session.interventions)} interventions; artifacts in {args.out}")
    return 0


def cmd_report(args) -> int:
    records = read_session_log(args.log)
    library = DemoLibrary.load(args.demos) if args.demos else None
    write_report_files(args.out, records, library=library)
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
    except ConfigError as e:
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
