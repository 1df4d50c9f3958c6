"""Keypoint-anchored trajectory warping and autonomous play data generation.

The library has three layers: geometry and demo bookkeeping (cameras,
triangulation, trajectory summaries), the open-loop policy (correspondence
matching, feasibility filtering, trajectory warping with arc-length
retiming), and the autonomous play loop (softmax task targeting, UCB demo
selection, receding-horizon planning, success-filtered dataset export),
grounded end to end in a kinematic tabletop simulator.
"""

from .bandit import ArmStats, UnknownDemo, sample_target_task, select_top_k, softmax_probabilities, ucb_index, update_stats
from .correspondence import AllInfeasible, FilterConfig, MatchOutcome, MatcherInterface, cross_view_distance, demo_cross_view_distances, match_demo, match_pixel, select_source_demo
from .demo import (ConfigError, DemoSummary, NoWaypoints, ObjectState,
                   SceneSnapshot, SchemaError, Trajectory,
                   decode_summary, encode_summary, extract_waypoints,
                   save_demo_library, summarize_demo, trajectory_from_parts)
from .geometry import (Camera, CameraIntrinsics, DegenerateRays,
                       NonPositiveDepth, Ray, StereoRig, intersect_rays,
                       look_at_camera, point_ray_distance, project,
                       quat_slerp, ray_through_pixel, triangulate)
from .play import (EvaluatorInterface, NoPlan, PlannerInterface, PlaySession,
                   RemoteEvaluator, RemotePlanner, RuleBasedEvaluator,
                   RuleBasedPlanner, SessionConfig, convex_hull_area,
                   export_success_dataset, read_session_log, resume_session,
                   rule_based_plan, run_session, verify_by_correspondence,
                   write_report_files)
from .sim import (CorrespondenceOracle, DemoLibrary, Layout,
                  OracleConfig, PreconditionUnsatisfiable, SimWorld, SlotRegion,
                  WorldParams, default_layout, execute_plan,
                  generate_demo_library, generate_seed_demos, layout_from_dict,
                  layout_to_dict, randomize_world, scripted_pick_place,
                  snapshot, spawn_world, symbolic_state)
from .tasks import SymbolicState, TaskSpec, builtin_tasks, task_map
from .warp import (LengthMismatch, WarpedPlan, plan_to_dict, segment_alphas,
                   warp_trajectory)

__version__ = "0.1.0"
