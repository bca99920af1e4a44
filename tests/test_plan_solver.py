"""The bitmask solver against the ``frozenset`` solver it replaced
(``helpers.reference_solve``): the same plan, ``None`` or cap error on a
slice of the plan digest's sweep and on hand-built problems that no export
makes.  Also the order of the export's checks."""

import pytest

import plan_digest
from cpnet import (
    CPNetError,
    PlanningProblem,
    StripsOperator,
    export_planning_problem,
    solve_planning_problem,
)
from helpers import outcome, reference_solve


def answer(solve, problem, cap):
    """What ``solve`` returns at ``cap``, or the message of its error."""
    try:
        return solve(problem, cap)
    except CPNetError as exc:
        return str(exc)


def seen_states(problem):
    """The fewest seen states at which the reference solver stays within its
    cap: the state count of its whole search."""
    cap = 0
    while isinstance(answer(reference_solve, problem, cap), str):
        cap += 1
    return cap


def test_plans_equal_the_reference_on_the_digest_slice():
    kinds = set()
    for _, _, _, _, problem in plan_digest.problems(16, per_family=3, pairs=3):
        for cap in (plan_digest.CAP, 2**16):
            expected = answer(reference_solve, problem, cap)
            assert answer(solve_planning_problem, problem, cap) == expected
            kinds.add(type(expected))
    assert kinds == {list, type(None), str}  # solved, unsolvable and over the cap


def op(name, pre, add, delete):
    return StripsOperator(name, frozenset(pre), add, delete)


A, ABAR, B, BBAR = ("A", "a"), ("A", "abar"), ("B", "b"), ("B", "bbar")
C, CBAR = ("C", "c"), ("C", "cbar")
STEPS = (  # moves of chain2 (A -> B); none of them touches a third variable C
    op("flip-A-abar-to-a", {ABAR}, A, ABAR),
    op("flip-B-bbar-to-b-if-A-a", {A, BBAR}, B, BBAR),
    op("flip-B-b-to-bbar-if-A-abar", {ABAR, B}, BBAR, B),
)

HAND_BUILT = {
    # deletes a proposition it does not require: from A=abar it adds A=a and
    # keeps A=abar, so the next state binds A twice
    "delete-not-required": PlanningProblem(
        (), (op("set-A-a-if-B-bbar", {BBAR}, A, ("A", "other")), *STEPS),
        frozenset({ABAR, BBAR, C}), frozenset({A, B, C})),
    "empty-preconditions": PlanningProblem(
        (), (*STEPS, op("set-C-c", set(), C, CBAR), op("set-C-cbar", (), CBAR, C)),
        frozenset({ABAR, B, CBAR}), frozenset({A, B, C})),
    "init-binds-A-twice": PlanningProblem(
        (), STEPS, frozenset({A, ABAR, BBAR}), frozenset({B, ABAR})),
    "goal-nothing-adds": PlanningProblem(
        (), STEPS, frozenset({ABAR, B, CBAR}), frozenset({A, B, C})),
    "already-holds": PlanningProblem(
        (), STEPS, frozenset({A, B}), frozenset({A})),
    "loops-back": PlanningProblem(  # B goes down while A=abar, and could come back
        (), (*STEPS, op("flip-B-bbar-to-b-if-A-abar", {ABAR, BBAR}, B, BBAR)),
        frozenset({ABAR, B}), frozenset({A, BBAR})),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_problems_solve_as_the_reference_at_every_cap(name):
    problem = HAND_BUILT[name]
    states = seen_states(problem)
    for cap in (*range(states + 2), 2**16):  # cap=1, and the exact state count
        assert answer(solve_planning_problem, problem, cap) == answer(reference_solve, problem, cap)
    assert isinstance(answer(solve_planning_problem, problem, states), (list, type(None)))
    if states:
        assert answer(solve_planning_problem, problem, states - 1) == (
            f"state space exceeds cap {states - 1}")


def test_the_hand_built_problems_reach_each_outcome():
    plans = {name: reference_solve(problem) for name, problem in HAND_BUILT.items()}
    assert plans == {
        "delete-not-required": ["set-A-a-if-B-bbar", "flip-B-bbar-to-b-if-A-a"],
        "empty-preconditions": ["flip-A-abar-to-a", "set-C-c"],
        "init-binds-A-twice": ["flip-B-bbar-to-b-if-A-a"],  # A=a holds beside A=abar
        "goal-nothing-adds": None,
        "already-holds": [],
        "loops-back": ["flip-B-b-to-bbar-if-A-abar", "flip-A-abar-to-a"],
    }


def test_export_checks_equal_outcomes_before_the_direction(chain2):
    z = outcome(chain2, "A=a,B=b")
    with pytest.raises(CPNetError, match="x = y: the empty plan"):
        export_planning_problem(chain2, z, z, "sideways")
    with pytest.raises(CPNetError, match="allow_trivial must be a bool"):
        export_planning_problem(chain2, z, z, "sideways", allow_trivial="no")
    with pytest.raises(CPNetError, match="direction must be one of"):
        export_planning_problem(chain2, z, z, "sideways", allow_trivial=True)
