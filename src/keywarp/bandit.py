"""Task targeting and source-demo selection statistics.

Target tasks are sampled from a softmax over negated per-task success
counts, so rarely-completed tasks are attempted more often. Within a task,
source demos are ranked by a UCB1 index over binary execution successes and
the top k become the candidate pool for matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class UnknownDemo(KeyError):
    """Reward update for a demo id that has no arm."""


@dataclass
class ArmStats:
    pulls: int = 0
    successes: int = 0

    def __post_init__(self):
        if not (0 <= self.successes <= self.pulls):
            raise ValueError("successes must lie in [0, pulls]")


def softmax_probabilities(counts, temperature=1.0):
    """P(i) proportional to exp(-counts[i] / temperature), max-stabilized."""
    logits = [-c / temperature for c in counts]
    m = max(logits)
    weights = [math.exp(x - m) for x in logits]
    total = sum(weights)
    return [w / total for w in weights]


def sample_target_task(counts, temperature, rng) -> str:
    """Draw a task id from the softmax over negated success counts.

    `counts` maps task id -> success count; iteration order is fixed by
    sorting the ids so a given generator state always yields the same task.
    """
    ids = sorted(counts)
    if not ids:
        raise ValueError("no tasks to sample from")
    probs = softmax_probabilities([counts[t] for t in ids], temperature)
    u = rng.random()
    acc = 0.0
    for task_id, p in zip(ids, probs):
        acc += p
        if u < acc:
            return task_id
    return ids[-1]


def ucb_index(arm: ArmStats, total_pulls: int, c: float) -> float:
    """UCB1 index; unpulled arms score +inf so each is tried once."""
    if arm.pulls == 0:
        return float("inf")
    mean = arm.successes / arm.pulls
    if c == 0.0 or total_pulls <= 1:
        return mean
    return mean + c * math.sqrt(2.0 * math.log(total_pulls) / arm.pulls)


def select_top_k(arms, k: int, c: float):
    """Ids of the k highest-index demos at the arms' total pulls (all of them
    if fewer than k).

    Ties, including ties among unpulled arms, break toward the lowest id.
    """
    total_pulls = sum(a.pulls for a in arms.values())
    ranked = sorted(arms, key=lambda d: (-ucb_index(arms[d], total_pulls, c), d))
    return ranked[:k]


def update_stats(arms, demo_id: str, reward: int):
    """Record a binary reward for the demo that was actually executed."""
    if demo_id not in arms:
        raise UnknownDemo(demo_id)
    if reward not in (0, 1):
        raise ValueError("reward must be 0 or 1")
    arm = arms[demo_id]
    arm.pulls += 1
    arm.successes += reward
