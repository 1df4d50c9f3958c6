"""The open-loop policy: match keypoints, pick a demo, warp its trajectory.

Spawns a fresh scene, matches every demo of one task into it, selects the
closest feasible demo, warps it onto the matched target waypoints, and
executes the plan in the simulator.
"""

import numpy as np

from keywarp import FilterConfig, match_demo, select_source_demo, warp_trajectory
from keywarp.sim import (CorrespondenceOracle, DemoLibrary, OracleConfig,
                         default_layout, execute_plan, generate_seed_demos,
                         snapshot, spawn_world, symbolic_state)
from keywarp.tasks import builtin_tasks

layout = default_layout()
task = builtin_tasks()[0]                       # pineapple: table -> shelf

demos, sidecars = generate_seed_demos(layout, task, n=5, seed=0)
oracle = CorrespondenceOracle(OracleConfig(pixel_noise_sigma=0.5, seed=0))
library = DemoLibrary(demos, sidecars)
library.register_with(oracle)

world = spawn_world(layout, seed=42, slots={task.obj: task.source})
obs = snapshot(world)
print("scene:", {k: np.round(v.position, 3).tolist()
                 for k, v in world.scene.objects.items()})

outcomes = [match_demo(oracle, d, obs, FilterConfig(), library.demo_side_distances[d.id])
            for d in demos]
print("\nper-demo match outcomes:")
for o in outcomes:
    score = f"{o.score:.4f}" if o.feasible else "inf"
    print(f"  {o.demo_id}: feasible={o.feasible} score={score} "
          f"max residual {np.max(o.triangulation_residuals):.4f} m")

outcome = select_source_demo(outcomes)
demo = library.demos[outcome.demo_id]
print(f"\nselected {outcome.demo_id}")

plan = warp_trajectory(demo, outcome.target_waypoints)
print(f"warped plan: {len(plan)} actions (source had {len(demo.actions)}); "
      f"waypoint frames at {plan.segment_boundaries.tolist()}")
shift = outcome.target_waypoints - demo.waypoints
print(f"waypoint displacements: {np.round(shift, 3).tolist()}")

pre = symbolic_state(world)
trace = execute_plan(world, plan.trajectory)
post = symbolic_state(world)
print(f"\nexecuted: {pre.slot_of(task.obj)} -> {post.slot_of(task.obj)} "
      f"(events: {[e['kind'] for e in trace.events]})")
