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

from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Iterable

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

_NAME, _PRECONDITIONS = attrgetter("name"), attrgetter("preconditions")
_ADD, _DELETE = attrgetter("add"), attrgetter("delete")


class PlanReplayError(CPNetError):
    """A submitted plan does not replay from init to goal."""


@dataclass(frozen=True, init=False)
class StripsOperator:
    """Frozen, with the dataclass's eq, hash and repr.  Its ``__init__`` fills
    the instance dict directly: a frozen dataclass's own makes one
    ``object.__setattr__`` call per field, which ``_operators`` pays for every
    operator it builds."""

    name: str
    preconditions: frozenset[Proposition]
    add: Proposition
    delete: Proposition

    def __init__(self, name: str, preconditions: frozenset[Proposition],
                 add: Proposition, delete: Proposition) -> None:
        fields = self.__dict__
        fields["name"] = name
        fields["preconditions"] = preconditions
        fields["add"] = add
        fields["delete"] = delete


@dataclass
class PlanningProblem:
    """``init`` and ``goal`` are proposition sets; the renderer reads
    ``propositions``, every (variable, value) pair, for ``:objects``."""
    propositions: tuple[Proposition, ...]
    operators: tuple[StripsOperator, ...]
    init: frozenset[Proposition]
    goal: frozenset[Proposition]


def _expect_each(items: Callable[[], Iterable[object]], kind: type, what: str) -> None:
    """``TypeError`` unless each of ``items()`` is a ``kind``: one pass in C,
    and a second, to name the offender, only when the first fails."""
    if not all(map(isinstance, items(), repeat(kind))):
        for item in items():
            _expect(item, kind, what)


def _expect_problem(problem: PlanningProblem) -> None:
    """``TypeError`` unless ``problem`` is a :class:`PlanningProblem` whose
    operators are all :class:`StripsOperator` objects and whose ``init`` and
    ``goal`` propositions are all tuples."""
    _expect(problem, PlanningProblem, "a planning problem")
    _expect_each(lambda: problem.operators, StripsOperator, "a STRIPS operator")
    _expect_each(lambda: chain(problem.init, problem.goal), tuple, "a proposition")


def _operators(net: CPNet, direction: str) -> tuple[StripsOperator, ...]:
    """The operators of :func:`to_strips`, sorted by name, for a usable net
    and a checked direction.

    A name is ``flip-VAR-FROM-to-TO``, then ``-if`` and ``-PARENT-value`` per
    parent.  ``validate`` admits no ``-`` in names and values, so the words sit
    at fixed places and the name is injective; it starts with a letter and is
    a valid PDDL symbol.
    """
    improving = direction == IMPROVING
    operators: list[StripsOperator] = []
    for v in net.variables:
        name = v.name
        for cond, ranking in net.tables[name].items():
            context = tuple(zip(v.parents, cond))
            tail = "-if" + "".join([f"-{p}-{c}" for p, c in context]) if context else ""
            for better, worse in zip(ranking, ranking[1:]):
                frm, to = (worse, better) if improving else (better, worse)
                delete = (name, frm)
                operators.append(StripsOperator(
                    f"flip-{name}-{frm}-to-{to}{tail}",
                    frozenset((*context, delete)),
                    (name, to),
                    delete,
                ))
    operators.sort(key=_NAME)
    return tuple(operators)


def to_strips(net: CPNet, direction: str) -> list[StripsOperator]:
    """One operator per single-step move of every row, sorted by name.

    A row over d values yields d-1 operators: improving ones step each value
    to the next more-preferred value, worsening ones mirror that.
    """
    _usable(net)
    _check_direction(direction)
    return list(_operators(net, direction))


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
    _check_direction(direction)
    start, end = (x, y) if direction == WORSENING else (y, x)
    names = net.names
    return PlanningProblem(
        propositions=tuple([(v.name, value) for v in net.variables for value in v.domain]),
        operators=_operators(net, direction),
        init=frozenset(zip(names, start.values)),
        goal=frozenset(zip(names, end.values)),
    )


def render_planning_problem(problem: PlanningProblem) -> str:
    """Byte-deterministic text: one domain document, then one problem document.

    Flat ``(holds VAR value)`` propositions; operators are ground actions
    sorted by name, and the names are PDDL symbols as they are.  A proposition
    that is not a tuple raises ``TypeError``, and a tuple that is not a
    (variable, value) pair raises ``CPNetError``.
    """
    _expect_problem(problem)
    ops = problem.operators
    _expect_each(
        lambda: chain(*map(_PRECONDITIONS, ops), map(_ADD, ops), map(_DELETE, ops),
                      problem.propositions),
        tuple, "a proposition",
    )
    try:
        actions = []
        for op in ops:
            pre = " ".join([f"(holds {v} {w})" for v, w in sorted(op.preconditions)])
            (add, to), (delete, frm) = op.add, op.delete
            actions.append(
                f"  (:action {op.name}\n    :precondition (and {pre})\n"
                f"    :effect (and (holds {add} {to}) (not (holds {delete} {frm}))))"
            )
        variables = {variable for variable, _ in problem.propositions}
        values = {value for _, value in problem.propositions}
        init = " ".join([f"(holds {v} {w})" for v, w in sorted(problem.init)])
        goal = " ".join([f"(holds {v} {w})" for v, w in sorted(problem.goal)])
    except ValueError:  # a proposition that does not unpack into a pair
        raise CPNetError("a proposition is not a (variable, value) pair") from None
    objects = dict.fromkeys(sorted(variables) + sorted(values))
    return "\n".join([
        "(define (domain cpnet-flips)",
        "  (:requirements :strips)",
        "  (:predicates (holds ?f ?v))",
        *actions,
        ")",
        "",
        "(define (problem cpnet-query)",
        "  (:domain cpnet-flips)",
        f"  (:objects {' '.join(objects)})",
        f"  (:init {init})",
        f"  (:goal (and {goal}))",
        ")",
        "",
    ])


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
    operator, or when an init, precondition or add proposition it reads is a
    tuple but not a (variable, value) pair; a ``plan`` that is not iterable,
    or an ``init`` or ``goal`` proposition, or a precondition or add
    proposition of a replayed step, that is not a tuple raises ``TypeError``.
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
    holds = state.items().__contains__  # False for anything but a pair that holds
    flips: list[Flip] = []
    for name in plan:
        op = by_name.get(name) if isinstance(name, str) else None  # names are strings
        if op is None:
            raise PlanReplayError(f"unknown operator {name!r}")
        add = op.add
        if not (all(map(holds, op.preconditions)) and isinstance(add, tuple) and len(add) == 2):
            _expect_step(name, op, state)
        variable, to_value = add
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


def _expect_step(name: str, op: StripsOperator, state: dict[str, str]) -> None:
    """Raise the replay's error for step ``name``, whose preconditions do not
    all hold or whose ``add`` is not a pair: first for a precondition or the
    add that is not a (variable, value) pair, then for the first precondition,
    in sorted order, that does not hold."""
    preconditions = sorted(op.preconditions)
    for prop in (*preconditions, op.add):
        _expect(prop, tuple, "a proposition")
        if len(prop) != 2:
            raise PlanReplayError(
                f"operator {name!r}: a proposition is not a (variable, value) pair"
            )
    for variable, value in preconditions:
        if state.get(variable) != value:
            raise PlanReplayError(
                f"operator {name!r}: precondition ({variable}={value}) does not hold"
            )


def solve_planning_problem(problem: PlanningProblem, cap: int = 2**16) -> list[str] | None:
    """Breadth-first plan search over proposition sets; None when unsolvable.

    Each proposition the problem names gets one bit, in the order it is first
    read, and a state is the int mask of the propositions that hold.  So an
    operator applies when ``pre & ~state == 0``, its successor is
    ``state & ~delete | add``, and the goal holds when ``goal & ~state == 0``:
    the rules above, on sets written as bits.  An operator that does not
    delete its own precondition is applied as STRIPS states it.  Each seen
    state keeps the state and operator it was first reached by, and the plan
    is read back along them.  A proposition that is not a tuple raises
    ``TypeError`` when it is numbered; the operators are numbered only when
    the goal does not already hold at the start.  Kept deliberately independent of the flip machinery so
    equivalence can be checked route against route.
    """
    _expect_problem(problem)
    bits: dict[Proposition, int] = {}

    def mask(props: Iterable[Proposition]) -> int:
        m = 0
        for prop in props:
            bit = bits.get(prop)
            if bit is None:
                _expect(prop, tuple, "a proposition")
                bit = bits[prop] = 1 << len(bits)
            m |= bit
        return m

    start, goal = mask(problem.init), mask(problem.goal)
    if not goal & ~start:
        return []
    ops = [
        (mask(op.preconditions), ~mask((op.delete,)), mask((op.add,)), op.name)
        for op in problem.operators
    ]
    came_from: dict[int, tuple[int, str] | None] = {start: None}  # the seen states
    queue = [start]
    for state in queue:  # breadth-first: the loop reaches the states appended below
        if len(came_from) > cap:
            raise CPNetError(f"state space exceeds cap {cap}")
        absent = ~state
        for pre, keep, add, name in ops:
            if pre & absent:
                continue
            nxt = state & keep | add
            if not goal & ~nxt:
                plan = [name]
                step = came_from[state]
                while step is not None:
                    state, name = step
                    plan.append(name)
                    step = came_from[state]
                plan.reverse()
                return plan
            if nxt not in came_from:
                came_from[nxt] = (state, name)
                queue.append(nxt)
    return None
