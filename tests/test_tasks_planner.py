from collections import deque
from itertools import product

import pytest

from keywarp.play import NoPlan, RuleBasedEvaluator, RuleBasedPlanner, rule_based_plan
from keywarp.tasks import BOWL, SHELF, TABLE, SymbolicState, builtin_tasks, task_map

TASKS = builtin_tasks()
BY_ID = task_map(TASKS)


def state(pineapple, bowl, pineapple_up=True, bowl_up=True):
    return SymbolicState.make({"pineapple": pineapple, "bowl": bowl},
                              {"pineapple": pineapple_up, "bowl": bowl_up})


ALL_UPRIGHT_STATES = [state(p, b) for p, b in product((TABLE, SHELF, BOWL),
                                                      (TABLE, SHELF))]


def independent_bfs(start, target_id):
    """Second BFS implementation used as the oracle for plan optimality."""
    frontier = deque([(start, 0)])
    seen = {start}
    while frontier:
        s, depth = frontier.popleft()
        for t in TASKS:
            if not t.precondition(s):
                continue
            if t.id == target_id:
                return depth + 1
            nxt = t.apply(s)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
    return None


def test_symbolic_state_validation():
    with pytest.raises(ValueError):
        SymbolicState.make({"bowl": "bowl"}, {"bowl": True})
    with pytest.raises(ValueError):
        SymbolicState.make({"a": TABLE}, {"b": True})


def test_task_precondition_and_effect():
    t = BY_ID["pineapple_table_to_bowl"]
    s = state(TABLE, TABLE)
    assert t.precondition(s)
    assert t.apply(s).slot_of("pineapple") == BOWL
    assert not t.precondition(state(SHELF, TABLE))
    # a tipped bowl cannot receive
    assert not t.precondition(state(TABLE, TABLE, bowl_up=False))


def test_plan_two_steps_through_the_shelf():
    plan = rule_based_plan(state(TABLE, TABLE), "pineapple_shelf_to_table", TASKS)
    assert plan == ["pineapple_table_to_shelf", "pineapple_shelf_to_table"]


def test_plan_single_step_when_precondition_holds():
    plan = rule_based_plan(state(TABLE, TABLE), "pineapple_table_to_shelf", TASKS)
    assert plan == ["pineapple_table_to_shelf"]


def test_tipped_bowl_target_is_unplannable():
    with pytest.raises(NoPlan):
        rule_based_plan(state(TABLE, TABLE, bowl_up=False),
                        "bowl_table_to_shelf", TASKS)
    with pytest.raises(NoPlan):
        rule_based_plan(state(TABLE, TABLE, bowl_up=False),
                        "pineapple_table_to_bowl", TASKS)


def test_unknown_target_rejected():
    with pytest.raises(KeyError):
        rule_based_plan(state(TABLE, TABLE), "juggle", TASKS)


def test_planner_sound_and_optimal_over_all_states():
    """Exhaustive: 6 upright symbolic states x 6 targets."""
    assert len(ALL_UPRIGHT_STATES) == 6
    for start in ALL_UPRIGHT_STATES:
        for task in TASKS:
            plan = rule_based_plan(start, task.id, TASKS)
            assert plan[-1] == task.id
            # every step executable in sequence; target's effect reached
            current = start
            for step_id in plan:
                step = BY_ID[step_id]
                assert step.precondition(current)
                current = step.apply(current)
            assert current.slot_of(task.obj) == task.dest
            assert len(plan) == independent_bfs(start, task.id)


def test_reachable_states_closed_under_tasks_and_drops():
    reachable = set(ALL_UPRIGHT_STATES)
    frontier = deque(reachable)
    while frontier:
        s = frontier.popleft()
        successors = []
        for t in TASKS:
            if t.precondition(s):
                successors.append(t.apply(s))
                # modeled failure: the object drops to the table instead
                successors.append(s.with_slot(t.obj, TABLE))
        for nxt in successors:
            assert nxt in reachable   # closure within the 6-state space
            if nxt not in reachable:
                frontier.append(nxt)


def test_rule_based_planner_class():
    planner = RuleBasedPlanner(TASKS)
    assert planner.plan(state(BOWL, SHELF), "pineapple_table_to_shelf") == [
        "pineapple_bowl_to_table", "pineapple_table_to_shelf"]


def test_rule_based_planner_keeps_each_plan_and_hands_out_copies():
    """The planner keeps the plan of each (state, target) it planned; a
    caller that changes its plan changes no later one, and a failure is
    planned again."""
    planner = RuleBasedPlanner(TASKS)
    for start in ALL_UPRIGHT_STATES:
        for task in TASKS:
            first = planner.plan(start, task.id)
            first.append("changed by the caller")
            assert planner.plan(start, task.id) == rule_based_plan(start, task.id, TASKS)
    for _ in range(2):
        with pytest.raises(NoPlan):
            planner.plan(state(TABLE, TABLE, bowl_up=False), "bowl_table_to_shelf")


def test_evaluator_requires_effect_and_untouched_bystanders():
    ev = RuleBasedEvaluator()
    task = BY_ID["pineapple_table_to_shelf"]
    pre = state(TABLE, TABLE)
    assert ev.evaluate(None, pre, None, state(SHELF, TABLE), task)
    # effect missing
    assert not ev.evaluate(None, pre, None, state(TABLE, TABLE), task)
    # bystander disturbed
    assert not ev.evaluate(None, pre, None, state(SHELF, SHELF), task)
