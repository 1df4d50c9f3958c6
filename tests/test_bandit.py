import math

import numpy as np
import pytest

from keywarp.bandit import (ArmStats, UnknownDemo, sample_target_task,
                            select_top_k, softmax_probabilities, ucb_index,
                            update_stats)
from keywarp.demo import ConfigError
from keywarp.play import SessionConfig


def test_softmax_uniform_for_equal_counts():
    assert softmax_probabilities([0, 0]) == pytest.approx([0.5, 0.5])


def test_softmax_direct_evaluation():
    p = softmax_probabilities([0, 1])
    assert p[0] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-4)
    assert p == pytest.approx([0.7311, 0.2689], abs=1e-4)


def test_softmax_translation_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        counts = rng.integers(0, 50, 5).tolist()
        shifted = [c + 17 for c in counts]
        assert softmax_probabilities(counts) == pytest.approx(
            softmax_probabilities(shifted), abs=1e-12)


def test_softmax_argmax_is_least_successful_task():
    rng = np.random.default_rng(1)
    for _ in range(20):
        counts = {f"t{i}": int(c) for i, c in enumerate(rng.integers(0, 30, 6))}
        probs = softmax_probabilities([counts[t] for t in sorted(counts)])
        best = sorted(counts)[int(np.argmax(probs))]
        assert counts[best] == min(counts.values())


def test_softmax_monte_carlo_extreme_counts():
    rng = np.random.default_rng(2)
    counts = {"a": 0, "b": 1000}
    draws = [sample_target_task(counts, 1.0, rng) for _ in range(10_000)]
    assert draws.count("a") / len(draws) >= 0.999


def test_sampling_matches_analytic_probabilities():
    rng = np.random.default_rng(3)
    counts = {"a": 0, "b": 2, "c": 4}
    n = 20_000
    draws = [sample_target_task(counts, 2.0, rng) for _ in range(n)]
    probs = softmax_probabilities([0, 2, 4], temperature=2.0)
    for task, p in zip(("a", "b", "c"), probs):
        s = math.sqrt(p * (1 - p) / n)
        assert abs(draws.count(task) / n - p) < 4 * s


def test_ucb_unpulled_is_infinite():
    assert ucb_index(ArmStats(), 10, 1.0) == float("inf")


def test_ucb_direct_formula():
    value = ucb_index(ArmStats(pulls=3, successes=2), 10, 1.0)
    assert value == pytest.approx(2 / 3 + math.sqrt(2 * math.log(10) / 3), abs=1e-9)
    assert value == pytest.approx(1.9056, abs=1e-3)


def test_ucb_with_zero_exploration_is_greedy():
    assert ucb_index(ArmStats(pulls=4, successes=1), 100, 0.0) == pytest.approx(0.25)


def test_ucb_monotone_in_pulls_and_total():
    prev = float("inf")
    for pulls in (1, 2, 5, 10, 50):
        v = ucb_index(ArmStats(pulls=pulls, successes=pulls // 2), 100, 1.0)
        assert v < prev or pulls == 1
        prev = v
    totals = [ucb_index(ArmStats(pulls=5, successes=2), t, 1.0)
              for t in (5, 10, 100, 1000)]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_top_k_all_unpulled_breaks_ties_by_id():
    arms = {f"d{i}": ArmStats() for i in range(10)}
    assert select_top_k(arms, 3, 1.0) == ["d0", "d1", "d2"]


def test_top_k_orders_by_index():
    arms = {"d0": ArmStats(pulls=3, successes=2),    # 1.974 at the total of 13 pulls
            "d1": ArmStats(pulls=8, successes=1),    # 0.926
            "d2": ArmStats(pulls=2, successes=2)}    # 2.602
    assert select_top_k(arms, 2, 1.0) == ["d2", "d0"]


def test_top_k_ranks_at_the_arms_summed_pulls():
    """The index is taken at the total of the arms' pulls, with ties broken
    toward the lowest id, on random arms."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        arms = {}
        for i in range(int(rng.integers(1, 8))):
            pulls = int(rng.integers(0, 6))
            arms[f"d{i}"] = ArmStats(pulls=pulls, successes=int(rng.integers(0, pulls + 1)))
        k, c = int(rng.integers(1, 5)), float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        total = sum(a.pulls for a in arms.values())
        expected = sorted(arms, key=lambda d: (-ucb_index(arms[d], total, c), d))[:k]
        assert select_top_k(arms, k, c) == expected


def test_update_stats_examples():
    arms = {"d": ArmStats()}
    update_stats(arms, "d", 1)
    assert (arms["d"].pulls, arms["d"].successes) == (1, 1)
    arms = {"d": ArmStats(pulls=5, successes=3)}
    update_stats(arms, "d", 0)
    assert (arms["d"].pulls, arms["d"].successes) == (6, 3)
    with pytest.raises(UnknownDemo):
        update_stats(arms, "nope", 1)
    with pytest.raises(ValueError):
        update_stats(arms, "d", 2)


def test_update_stats_invariant_under_random_rewards():
    rng = np.random.default_rng(4)
    arms = {f"d{i}": ArmStats() for i in range(4)}
    mirror = {k: [0, 0] for k in arms}
    for _ in range(500):
        demo = f"d{rng.integers(0, 4)}"
        reward = int(rng.random() < 0.3)
        update_stats(arms, demo, reward)
        mirror[demo][0] += 1
        mirror[demo][1] += reward
        assert 0 <= arms[demo].successes <= arms[demo].pulls
    for k in arms:
        assert [arms[k].pulls, arms[k].successes] == mirror[k]


def simulate_bandit(p, rounds, c, seed, uniform=False):
    """UCB1 (or uniform-random) bandit on Bernoulli arms; returns
    (selections, pseudo_regret)."""
    rng = np.random.default_rng(seed)
    arms = {f"d{i:02d}": ArmStats() for i in range(len(p))}
    ids = sorted(arms)
    regret = 0.0
    selections = []
    best = max(p)
    for _ in range(rounds):
        if uniform:
            choice = ids[rng.integers(0, len(ids))]
        else:
            choice = select_top_k(arms, 1, c)[0]
        i = ids.index(choice)
        update_stats(arms, choice, int(rng.random() < p[i]))
        regret += best - p[i]
        selections.append(i)
    return selections, regret


def test_ucb_finds_the_best_arm():
    p = [0.9] + [0.4] * 9
    selections, regret = simulate_bandit(p, 1000, 1.0, seed=0)
    final = selections[-100:]
    assert final.count(0) / 100 > 0.6
    _, uniform_regret = simulate_bandit(p, 1000, 1.0, seed=0, uniform=True)
    assert regret < 0.5 * uniform_regret


def test_bandit_config_validation():
    with pytest.raises(ConfigError):
        SessionConfig(k=0)
    with pytest.raises(ConfigError):
        SessionConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        SessionConfig(c=-0.1)
    with pytest.raises(ValueError):
        ArmStats(pulls=1, successes=2)
