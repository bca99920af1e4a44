"""Compile dominance queries into STRIPS planning problems.

Every table row ``c: v1 > v2 > ... > vd`` becomes d-1 improving operators
(precondition c and vi, add vi-1, delete vi) or the worsening mirror.  With
the query's worse outcome as the initial state and the better one as the
goal, a plan is exactly a flipping sequence, and the replayer turns any plan
back into a witness the search layer can verify.

Propositions are flat (variable, value) pairs and a state is a set of them;
value propositions of one variable are mutually exclusive by construction,
so operators need no negative preconditions.  An operator applies when all
its preconditions hold, and then deletes its ``delete`` proposition and adds
its ``add`` one; a goal holds when each of its propositions holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .model import (
    IMPROVING,
    WORSENING,
    CPNet,
    CPNetError,
    Flip,
    FlipSequence,
    Outcome,
    _check_direction,
    _expect,
    _targets,
    _usable,
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
    """``init`` and ``goal`` are proposition sets; the renderer reads
    ``propositions``, every (variable, value) pair, for ``:objects``."""
    propositions: tuple[Proposition, ...]
    operators: tuple[StripsOperator, ...]
    init: frozenset[Proposition]
    goal: frozenset[Proposition]


def _expect_problem(problem: PlanningProblem) -> None:
    """``TypeError`` unless ``problem`` is a :class:`PlanningProblem` whose
    operators are all :class:`StripsOperator` objects and whose ``init`` and
    ``goal`` propositions are all tuples."""
    _expect(problem, PlanningProblem, "a planning problem")
    for op in problem.operators:
        _expect(op, StripsOperator, "a STRIPS operator")
    for prop in (*problem.init, *problem.goal):
        _expect(prop, tuple, "a proposition")


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
    _usable(net)
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
    unless ``allow_trivial`` is set; it must be a bool.
    """
    _usable(net, x, y)
    if not isinstance(allow_trivial, bool):
        raise CPNetError(f"allow_trivial must be a bool, not {allow_trivial!r}")
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


def render_planning_problem(problem: PlanningProblem) -> str:
    """Byte-deterministic text: one domain document, then one problem document.

    Flat ``(holds VAR value)`` propositions; operators are ground actions
    sorted by name, and the names are PDDL symbols as they are.  A proposition
    that is not a (variable, value) pair raises ``CPNetError``; one in
    ``init`` or ``goal`` that is not a tuple raises ``TypeError``.
    """
    _expect_problem(problem)

    def holds(prop: Proposition) -> str:
        variable, value = prop
        return f"(holds {variable} {value})"

    try:
        lines = [
            "(define (domain cpnet-flips)",
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

        objects = sorted({variable for variable, _ in problem.propositions}) + sorted(
            {value for _, value in problem.propositions}
        )
        lines.append("(define (problem cpnet-query)")
        lines.append("  (:domain cpnet-flips)")
        lines.append("  (:objects " + " ".join(dict.fromkeys(objects)) + ")")
        lines.append("  (:init " + " ".join(holds(p) for p in sorted(problem.init)) + ")")
        lines.append(
            "  (:goal (and " + " ".join(holds(p) for p in sorted(problem.goal)) + "))"
        )
        lines.append(")")
    except ValueError:  # a proposition that does not unpack into a pair
        raise CPNetError("a proposition is not a (variable, value) pair") from None
    return "\n".join(lines) + "\n"


def plan_to_flip_sequence(
    net: CPNet, problem: PlanningProblem, plan: Iterable[str]
) -> FlipSequence:
    """Replay ``plan``, an iterable of operator names, from the initial state
    and emit the equivalent flip sequence.

    Each flip is labelled with the direction the net gives its move at the
    replayed state.  Raises :class:`PlanReplayError` when the initial state is
    not an outcome of ``net``, naming the operator when a precondition fails
    or when the net does not sanction its move there, and when some goal
    proposition does not hold in the final state, when a step names no
    operator, or when an init, precondition or add proposition it reads is
    not a (variable, value) pair; a ``plan`` that is not iterable, or an
    ``init`` or ``goal`` proposition that is not a tuple, raises ``TypeError``.
    """
    _usable(net)
    _expect_problem(problem)
    by_name = {op.name: op for op in problem.operators}
    try:
        state = dict(problem.init)  # variable -> value
    except ValueError:  # a proposition that does not unpack into a pair
        raise PlanReplayError("init: a proposition is not a (variable, value) pair") from None
    if len(state) != len(problem.init):
        raise PlanReplayError("init binds some variable twice")
    try:
        start = net.outcome(state)
    except CPNetError as exc:
        raise PlanReplayError(f"init is not an outcome of this net: {exc}") from None
    values = list(start.values)
    flips: list[Flip] = []
    for name in plan:
        op = by_name.get(name) if isinstance(name, str) else None  # names are strings
        if op is None:
            raise PlanReplayError(f"unknown operator {name!r}")
        try:
            unmet = [(variable, value) for variable, value in sorted(op.preconditions)
                     if state.get(variable) != value]
            variable, to_value = op.add
        except ValueError:  # a proposition that does not unpack into a pair
            raise PlanReplayError(
                f"operator {name!r}: a proposition is not a (variable, value) pair"
            ) from None
        if unmet:
            variable, value = unmet[0]
            raise PlanReplayError(
                f"operator {name!r}: precondition ({variable}={value}) does not hold"
            )
        i = net._index.get(variable)
        if i is not None and to_value in _targets(net, values, i, IMPROVING):
            direction = IMPROVING
        elif i is not None and to_value in _targets(net, values, i, WORSENING):
            direction = WORSENING
        else:
            raise PlanReplayError(
                f"operator {name!r}: the net sanctions no flip of {variable} "
                f"to {to_value} here"
            )
        flips.append(Flip(variable, values[i], to_value, direction))
        state[variable] = values[i] = to_value
    if not problem.goal <= state.items():
        raise PlanReplayError("goal not reached")
    return FlipSequence(start, tuple(flips))


def solve_planning_problem(problem: PlanningProblem, cap: int = 2**16) -> list[str] | None:
    """Breadth-first plan search over proposition sets; None when unsolvable.

    States are the sets themselves, under the rules above; an operator that
    does not delete its own precondition is applied as STRIPS states it.
    Kept deliberately independent of the flip machinery so equivalence can be
    checked route against route.
    """
    _expect_problem(problem)
    start, goal = frozenset(problem.init), problem.goal
    if goal <= start:
        return []
    seen = {start}
    queue: deque[tuple[frozenset[Proposition], list[str]]] = deque([(start, [])])
    while queue:
        state, path = queue.popleft()
        if len(seen) > cap:
            raise CPNetError(f"state space exceeds cap {cap}")
        for op in problem.operators:
            if not op.preconditions <= state:
                continue
            nxt = state - {op.delete} | {op.add}
            if goal <= nxt:
                return path + [op.name]
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + [op.name]))
    return None
