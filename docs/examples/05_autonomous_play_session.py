"""A complete autonomous play session, end to end.

Generates a demo library, runs a 150-iteration reset-free session with
mild sensing noise, and prints the resulting statistics and coverage
growth. It then exports the success-filtered dataset, re-warped from the
session log and the library, and prints its manifest. Everything lands in
./play_session_output/.
"""

from pathlib import Path

from keywarp.demo import save_demo_library
from keywarp.play import (SessionConfig, coverage_table, export_success_dataset,
                          read_session_log, run_session)
from keywarp.sim import DemoLibrary, default_layout, generate_demo_library
from keywarp.tasks import builtin_tasks

out = Path("play_session_output")
library_dir = out / "demos"

print("generating 10 scripted demos per task...")
summaries, sidecars = generate_demo_library(default_layout(), builtin_tasks(),
                                            n=10, seed=0)
save_demo_library(library_dir, summaries, sidecars)

cfg = SessionConfig(
    demo_library=str(library_dir),
    iterations=150,
    seed=0,
    pixel_noise_sigma=1.0,    # px
    outlier_rate=0.02,
    out_dir=str(out / "session"),
)
print(f"running {cfg.iterations} play iterations...")
session = run_session(cfg)

records = read_session_log(out / "session" / "session_log.jsonl")
successes = sum(r["success"] for r in records)
print(f"\n{successes}/{len(records)} successful attempts "
      f"({successes / len(records):.1%}), "
      f"{len(session.interventions)} interventions")
print("per-task successes:", session.success_counts)

library = DemoLibrary.load(library_dir)
rows = coverage_table(records, library)
play_area = sum(r[2] for r in rows)
demo_area = sum(r[3] for r in rows)
print(f"grasp-point coverage: play {play_area:.4f} m^2 vs "
      f"seed demos {demo_area:.4f} m^2 ({play_area / max(demo_area, 1e-9):.1f}x)")

manifest = export_success_dataset(out / "session", out / "dataset")
print(f"exported {len(manifest['episodes'])} episodes to {out / 'dataset'}; "
      f"manifest tasks: {manifest['tasks']}")
print(f"\nartifacts in {out / 'session'}: config.json, session_log.jsonl, "
      "session_state.json, checkpoints/, report.txt, tasks.csv, arms.csv, coverage.csv")
print((out / "session" / "report.txt").read_text())
