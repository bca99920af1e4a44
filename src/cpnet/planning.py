"""Compile dominance queries into STRIPS planning problems.

Every table row ``c: v1 > v2 > ... > vd`` becomes d-1 improving operators
(precondition c and vi, add vi-1, delete vi) or the worsening mirror.  With
the query's worse outcome as the initial state and the better one as the
goal, a plan is exactly a flipping sequence, and the replayer turns any plan
back into a witness the search layer can verify.

Propositions are flat (variable, value) pairs; value propositions of one
variable are mutually exclusive by construction, so operators need no
negative preconditions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .model import (
    IMPROVING,
    WORSENING,
    CPNet,
    CPNetError,
    Flip,
    FlipSequence,
    Outcome,
    _check_direction,
)

Proposition = tuple[str, str]  # (variable, value)


class PlanReplayError(CPNetError):
    """A submitted plan does not replay from init to goal."""


@dataclass(frozen=True)
class StripsOperator:
    name: str
    preconditions: frozenset[Proposition]
    add: Proposition
    delete: Proposition


@dataclass
class PlanningProblem:
    propositions: tuple[Proposition, ...]
    operators: tuple[StripsOperator, ...]
    init: frozenset[Proposition]
    goal: frozenset[Proposition]


def _operator_name(
    variable: str, from_value: str, to_value: str, context: tuple[Proposition, ...]
) -> str:
    """``flip-VAR-FROM-to-TO``, then ``-if`` and ``-PARENT-value`` per parent.

    ``validate`` admits no ``-`` in names and values, so the words sit at fixed
    places and the name is injective; it starts with a letter and is a valid
    PDDL symbol.
    """
    words = ["flip", variable, from_value, "to", to_value]
    if context:
        words.append("if")
        words.extend(word for binding in context for word in binding)
    return "-".join(words)


def to_strips(net: CPNet, direction: str) -> list[StripsOperator]:
    """One operator per single-step move of every row, sorted by name.

    A row over d values yields d-1 operators: improving ones step each value
    to the next more-preferred value, worsening ones mirror that.
    """
    net._require_valid()
    _check_direction(direction)
    operators: list[StripsOperator] = []
    for v in net.variables:
        for cond, ranking in net.tables[v.name].items():
            context = tuple(zip(v.parents, cond))
            for better, worse in zip(ranking, ranking[1:]):
                if direction == IMPROVING:
                    frm, to = worse, better
                else:
                    frm, to = better, worse
                operators.append(
                    StripsOperator(
                        name=_operator_name(v.name, frm, to, context),
                        preconditions=frozenset(context) | {(v.name, frm)},
                        add=(v.name, to),
                        delete=(v.name, frm),
                    )
                )
    operators.sort(key=lambda op: op.name)
    return operators


def export_planning_problem(
    net: CPNet,
    x: Outcome,
    y: Outcome,
    direction: str = IMPROVING,
    allow_trivial: bool = False,
) -> PlanningProblem:
    """Planning problem for the query "x > y": start at the worse outcome,
    reach the better one (mirrored for worsening operators).

    Exported problems encode reachability, while dominance is strict; for
    x = y the empty plan would "solve" a false query, so that case is refused
    unless ``allow_trivial`` is set.
    """
    net._require_valid()
    net.check_outcome(x)
    net.check_outcome(y)
    if x == y and not allow_trivial:
        raise CPNetError(
            "x = y: the empty plan would solve the problem but strict dominance "
            "is false; pass allow_trivial=True to export anyway"
        )
    propositions = tuple(
        (v.name, value) for v in net.variables for value in v.domain
    )
    if direction == WORSENING:
        init_outcome, goal_outcome = x, y
    else:
        init_outcome, goal_outcome = y, x
    init = frozenset(zip(net.names, init_outcome.values))
    goal = frozenset(zip(net.names, goal_outcome.values))
    return PlanningProblem(
        propositions=propositions,
        operators=tuple(to_strips(net, direction)),
        init=init,
        goal=goal,
    )


def render_planning_problem(
    problem: PlanningProblem,
    domain_name: str = "cpnet-flips",
    problem_name: str = "cpnet-query",
) -> str:
    """Byte-deterministic text: one domain document, then one problem document.

    Flat ``(holds VAR value)`` propositions; operators are ground actions
    sorted by name, and the names are PDDL symbols as they are.
    """

    def holds(prop: Proposition) -> str:
        return f"(holds {prop[0]} {prop[1]})"

    lines = [
        f"(define (domain {domain_name})",
        "  (:requirements :strips)",
        "  (:predicates (holds ?f ?v))",
    ]
    for op in problem.operators:
        pre = " ".join(holds(p) for p in sorted(op.preconditions))
        lines.append(f"  (:action {op.name}")
        lines.append(f"    :precondition (and {pre})")
        lines.append(f"    :effect (and {holds(op.add)} (not {holds(op.delete)})))")
    lines.append(")")
    lines.append("")

    objects = sorted({prop[0] for prop in problem.propositions}) + sorted(
        {prop[1] for prop in problem.propositions}
    )
    lines.append(f"(define (problem {problem_name})")
    lines.append(f"  (:domain {domain_name})")
    lines.append("  (:objects " + " ".join(dict.fromkeys(objects)) + ")")
    lines.append("  (:init " + " ".join(holds(p) for p in sorted(problem.init)) + ")")
    lines.append(
        "  (:goal (and " + " ".join(holds(p) for p in sorted(problem.goal)) + "))"
    )
    lines.append(")")
    return "\n".join(lines) + "\n"


def plan_to_flip_sequence(
    net: CPNet, problem: PlanningProblem, plan: Sequence[str]
) -> FlipSequence:
    """Replay operator names from the initial state and emit the equivalent
    flip sequence.

    Raises :class:`PlanReplayError` naming the operator and missing
    proposition when a precondition fails, or when the final state is not the
    goal.
    """
    net._require_valid()
    by_name = {op.name: op for op in problem.operators}
    state = dict(problem.init)  # variable -> value
    if len(state) != len(problem.init):
        raise PlanReplayError("init binds some variable twice")
    flips: list[Flip] = []
    direction = IMPROVING
    if problem.operators:
        # Operator orientation tells us which kind of witness this will be.
        sample = problem.operators[0]
        direction = _operator_direction(net, sample)
    for name in plan:
        op = by_name.get(name)
        if op is None:
            raise PlanReplayError(f"unknown operator {name!r}")
        for variable, value in sorted(op.preconditions):
            if state.get(variable) != value:
                raise PlanReplayError(
                    f"operator {name!r}: precondition ({variable}={value}) does not hold"
                )
        variable, to_value = op.add
        from_value = op.delete[1]
        state[variable] = to_value
        flips.append(Flip(variable, from_value, to_value, direction))
    goal = dict(problem.goal)
    if state != goal:
        raise PlanReplayError("goal not reached")
    start = Outcome(tuple(dict(problem.init)[name] for name in net.names))
    return FlipSequence(start, tuple(flips))


def _operator_direction(net: CPNet, op: StripsOperator) -> str:
    variable, to_value = op.add
    from_value = op.delete[1]
    v = net.variable(variable)
    context = dict(op.preconditions)
    key = tuple(context[p] for p in v.parents)
    ranking = net.tables[variable][key]
    return IMPROVING if ranking.index(to_value) < ranking.index(from_value) else WORSENING


def solve_planning_problem(problem: PlanningProblem, cap: int = 2**16) -> list[str] | None:
    """Breadth-first plan search over the operators; None when unsolvable.

    Kept deliberately independent of the flip machinery so equivalence can be
    checked route against route.
    """
    variables = sorted({prop[0] for prop in problem.propositions})

    def freeze(state: dict[str, str]) -> tuple[str, ...]:
        return tuple(state[v] for v in variables)

    init = dict(problem.init)
    goal = dict(problem.goal)
    start = freeze(init)
    target = freeze(goal)
    if start == target:
        return []
    seen = {start}
    queue: deque[tuple[tuple[str, ...], list[str]]] = deque([(start, [])])
    while queue:
        state_t, path = queue.popleft()
        if len(seen) > cap:
            raise CPNetError(f"state space exceeds cap {cap}")
        state = dict(zip(variables, state_t))
        for op in problem.operators:
            if any(state.get(v) != val for v, val in op.preconditions):
                continue
            nxt = dict(state)
            nxt[op.add[0]] = op.add[1]
            nxt_t = freeze(nxt)
            if nxt_t == target:
                return path + [op.name]
            if nxt_t not in seen:
                seen.add(nxt_t)
                queue.append((nxt_t, path + [op.name]))
    return None
