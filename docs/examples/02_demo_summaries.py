"""Scripted demonstrations and their compact summaries.

Generates expert pick-place demos in the simulator, shows the summary
tuple (initial snapshot, waypoints at gripper toggles, two-view keypoints,
action sequence), and round-trips one demo through the JSON schema.
"""

import numpy as np

from keywarp import decode_summary, encode_summary, extract_waypoints
from keywarp.sim import default_layout, generate_seed_demos
from keywarp.tasks import builtin_tasks

layout = default_layout()
task = builtin_tasks()[0]
print(f"task: {task.name}")

demos, sidecars = generate_seed_demos(layout, task, n=3, seed=7)
for demo in demos:
    g = demo.actions.gripper
    print(f"\n{demo.id}: {len(demo.actions)} actions at "
          f"{demo.actions.control_rate:.0f} Hz")
    idx, waypoints = extract_waypoints(demo.actions)
    print(f"  gripper toggles at frames {idx.tolist()} "
          f"(close={g[idx[0]]}, open={g[idx[1]]})")
    for t, w in enumerate(waypoints):
        kl = demo.keypoints['left'][t]
        print(f"  waypoint {t}: {w.round(3)} -> left pixel {kl.round(1)}")

demo = demos[0]
payload = encode_summary(demo)
clone = decode_summary(payload)
print(f"\nserialized {demo.id} to {len(payload)} bytes; "
      f"roundtrip equal: {clone == demo}")

side = sidecars[demo.id]
print("oracle sidecar anchors, one per waypoint (initial frame):")
for t, a in enumerate(side["initial"]["anchors"]):
    print(f"  waypoint {t} (left px {demo.keypoints['left'][t].round(1).tolist()}) -> "
          f"anchor {a['anchor']!r} + offset {np.round(a['offset'], 3).tolist()}")
final = side["final"]
print(f"after the demo, waypoint {demo.num_waypoints - 1} -> anchor {final['anchor']!r} "
      f"+ offset {np.round(final['offset'], 3).tolist()}")
