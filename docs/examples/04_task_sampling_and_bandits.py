"""Task targeting and demo selection statistics.

Shows the softmax over negated success counts (rare tasks get priority)
and a UCB1 bandit separating a reliable demo from mediocre ones.
"""

import numpy as np

from keywarp.bandit import (ArmStats, sample_target_task, select_top_k,
                            softmax_probabilities, ucb_index, update_stats)

print("softmax task targeting:")
for counts in ([0, 0, 0], [3, 0, 1], [10, 0, 25]):
    probs = softmax_probabilities(counts)
    print(f"  success counts {counts} -> probabilities "
          f"{[round(p, 3) for p in probs]}")

rng = np.random.default_rng(0)
counts = {"pineapple_to_shelf": 4, "pineapple_to_bowl": 0, "bowl_to_shelf": 2}
draws = [sample_target_task(counts, 1.0, rng) for _ in range(5000)]
print("  5000 draws:", {t: draws.count(t) for t in sorted(counts)})

print("\nUCB1 demo selection (one good arm at p=0.8, four at p=0.3):")
p = [0.8, 0.3, 0.3, 0.3, 0.3]
arms = {f"demo-{i}": ArmStats() for i in range(len(p))}
ids = sorted(arms)
for round_i in range(300):
    choice = select_top_k(arms, 1, c=1.0)[0]
    reward = int(rng.random() < p[ids.index(choice)])
    update_stats(arms, choice, reward)

total = sum(a.pulls for a in arms.values())
for demo_id in ids:
    a = arms[demo_id]
    idx = ucb_index(a, total, 1.0)
    print(f"  {demo_id}: pulls {a.pulls:3d}, successes {a.successes:3d}, "
          f"ucb index {idx:.3f}")
print("  top-3 candidate pool:", select_top_k(arms, 3, c=1.0))
