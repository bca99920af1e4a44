"""Core model for conditional preference networks.

A net is a DAG over finite-domain variables.  Each variable carries a table
mapping every complete assignment of its parents to a strict total order over
its own domain.  Outcomes are total assignments; the legal-flip relation
(changing one variable to a strictly better or worse value given its current
parent context) induces the preference order that the search layer explores.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

IMPROVING = "improving"
WORSENING = "worsening"

DIRECTIONS = (IMPROVING, WORSENING)


class CPNetError(ValueError):
    """Raised for structurally unusable inputs (bad outcomes, invalid nets)."""


@dataclass(frozen=True)
class Variable:
    """One feature: a name, an ordered domain, and an ordered parent list.

    Declaration order of domain values is the canonical iteration order; it
    carries no preference meaning.
    """

    name: str
    domain: tuple[str, ...]
    parents: tuple[str, ...] = ()


@dataclass(frozen=True)
class Outcome:
    """A total assignment, stored as values aligned with the net's variables."""

    values: tuple[str, ...]


@dataclass(frozen=True)
class Flip:
    """A single sanctioned value change on one variable."""

    variable: str
    from_value: str
    to_value: str
    direction: str

    def reversed(self) -> "Flip":
        other = WORSENING if self.direction == IMPROVING else IMPROVING
        return Flip(self.variable, self.to_value, self.from_value, other)


@dataclass(frozen=True)
class FlipSequence:
    """A chain of flips from ``start``; the witness form of a dominance proof."""

    start: Outcome
    flips: tuple[Flip, ...]


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str]


# Tables are stored per owner as {parent-value-tuple: ranking-tuple}; the key
# is aligned with the owner's parent declaration order, the ranking lists the
# owner's domain most-preferred first.
TableRows = Mapping[tuple[str, ...], Sequence[str]]


class CPNet:
    """A conditional preference network.

    Instances are built unvalidated (the parser may produce broken candidates)
    and checked once via :func:`validate`.  ``variables`` is a tuple and
    ``tables`` a read-only mapping of read-only rows, so a net cannot change
    after validation and may be shared across concurrent queries.  The name
    index and topological order are cached here by validation, and the search
    engine compiles its integer core once, on the first query.
    """

    def __init__(self, variables: Iterable[Variable], tables: Mapping[str, TableRows]):
        try:
            self.variables: tuple[Variable, ...] = tuple(
                Variable(v.name, tuple(v.domain), tuple(v.parents)) for v in variables
            )
            self.tables: Mapping[str, Mapping[tuple[str, ...], tuple[str, ...]]] = (
                MappingProxyType({
                    owner: MappingProxyType(
                        {tuple(cond): tuple(ranking) for cond, ranking in rows.items()}
                    )
                    for owner, rows in tables.items()
                })
            )
        except (AttributeError, TypeError) as exc:  # not iterable, not a mapping
            raise CPNetError(f"malformed net input: {exc}") from None
        self._report: ValidationReport | None = None
        self._index: dict[str, int] = {}
        self._topo: tuple[str, ...] = ()
        self._parents_idx: list[tuple[int, ...]] = []
        # the integer search core, compiled by cpnet.search on the first query
        self._core: object | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable(self, name: str) -> Variable:
        return self.variables[self.index(name)]

    def index(self, name: str) -> int:
        self._require_valid()
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise CPNetError(f"unknown variable {name!r}") from None

    def outcome(self, assignment: Mapping[str, str]) -> Outcome:
        """Build a total outcome from a name -> value mapping."""
        self._require_valid()
        extra = set(assignment) - set(self._index)
        if extra:
            raise CPNetError(f"unknown variable {sorted(extra)[0]!r} in outcome")
        values = []
        for v in self.variables:
            if v.name not in assignment:
                raise CPNetError(f"missing binding for {v.name}")
            value = assignment[v.name]
            if value not in v.domain:
                raise CPNetError(f"unknown value {value!r} for variable {v.name}")
            values.append(value)
        return Outcome(tuple(values))

    def format_outcome(self, outcome: Outcome) -> str:
        return ",".join(f"{v.name}={x}" for v, x in zip(self.variables, outcome.values))

    def check_outcome(self, outcome: Outcome) -> None:
        if not isinstance(outcome.values, tuple):  # outcomes are hashed as keys
            raise CPNetError("outcome values must be a tuple")
        if len(outcome.values) != len(self.variables):
            raise CPNetError("outcome does not match this net's variable set")
        for v, x in zip(self.variables, outcome.values):
            if x not in v.domain:
                raise CPNetError(f"unknown value {x!r} for variable {v.name}")

    # -- validation ------------------------------------------------------

    def _require_valid(self) -> None:
        report = validate(self)
        if not report.ok:
            raise CPNetError("net failed validation: " + "; ".join(report.problems))

    def _build_caches(self, order: list[int]) -> None:
        self._index = {v.name: i for i, v in enumerate(self.variables)}
        self._topo = tuple(self.variables[i].name for i in order)
        self._parents_idx = [tuple(self._index[p] for p in v.parents) for v in self.variables]


def _kahn(variables: Sequence[Variable]) -> tuple[list[int], list[str] | None]:
    """One Kahn pass over the parent graph (undeclared parents ignored), ties
    broken by declaration order: variable indices in topological order, plus
    one cycle as a name path if the pass stalls.  Every unplaced variable then
    has an unplaced parent, so following parent links must revisit one."""
    index = {v.name: i for i, v in enumerate(variables)}
    parents = [[index[p] for p in v.parents if p in index] for v in variables]
    children: list[list[int]] = [[] for _ in variables]
    for i, ps in enumerate(parents):
        for p in ps:
            children[p].append(i)
    waiting = [len(ps) for ps in parents]
    ready = [i for i, w in enumerate(waiting) if not w]  # ascending, so a heap
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for c in children[i]:
            waiting[c] -= 1
            if not waiting[c]:
                heapq.heappush(ready, c)
    if len(order) == len(variables):
        return order, None
    placed = set(order)
    node = next(i for i in range(len(variables)) if i not in placed)
    path: dict[int, None] = {}  # insertion-ordered, with O(1) membership
    while node not in path:
        path[node] = None
        node = next(p for p in parents[node] if p not in placed)
    walk = list(path)
    return order, [variables[i].name for i in walk[walk.index(node):] + [node]]


# The DSL's names and outcome values: no '-', so words joined by '-' (STRIPS
# operator names) stay unambiguous on nets built through the API too.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VALUE = re.compile(r"[A-Za-z0-9_]+")


def _matches(pattern: re.Pattern[str], word: object) -> bool:
    return isinstance(word, str) and pattern.fullmatch(word) is not None


def validate(net: CPNet) -> ValidationReport:
    """Check every net invariant; diagnostics are the result, not failures.

    The report is cached on the net; a net that validated once is usable by
    every other operation in this package.
    """
    if net._report is not None:
        return net._report
    problems: list[str] = []
    if not net.variables:
        problems.append("no variables")

    for v in net.variables:
        if not _matches(_NAME, v.name):
            problems.append(f"variable name {v.name!r} is not an identifier")
        for value in v.domain:
            if not _matches(_VALUE, value):
                problems.append(f"value {value!r} of variable {v.name} is not a word")
        for p in v.parents:
            if not isinstance(p, str):
                problems.append(f"parent {p!r} of variable {v.name} is not a name")
    for owner, rows in net.tables.items():
        for ranking in rows.values():
            for value in ranking:
                if not isinstance(value, str):
                    problems.append(f"ranking value {value!r} for {owner} is not a word")
    words = [w for v in net.variables for w in (v.name, *v.domain, *v.parents)]
    words += [w for rows in net.tables.values() for ranking in rows.values() for w in ranking]
    if not all(isinstance(word, str) for word in words):
        net._report = ValidationReport(ok=False, problems=problems)  # the checks below hash words
        return net._report

    declared = {v.name for v in net.variables}
    seen_names: set[str] = set()
    for v in net.variables:
        if v.name in seen_names:
            problems.append(f"duplicate variable {v.name}")
        seen_names.add(v.name)
        if len(v.domain) < 2:
            problems.append(f"variable {v.name} needs at least 2 domain values")
        if len(set(v.domain)) != len(v.domain):
            problems.append(f"duplicate domain value in variable {v.name}")
        seen_parents: set[str] = set()
        for p in v.parents:
            if p == v.name:
                problems.append(f"variable {v.name} is its own parent")
            elif p not in declared:
                problems.append(f"unknown parent {p} of variable {v.name}")
            if p in seen_parents:
                problems.append(f"duplicate parent {p} of variable {v.name}")
            seen_parents.add(p)

    order, cycle = _kahn(net.variables)
    if cycle is not None:
        problems.append("cycle " + " -> ".join(cycle))

    by_name = {v.name: v for v in net.variables}
    for owner in net.tables:
        if owner not in by_name:
            problems.append(f"table for unknown variable {owner}")
    for v in net.variables:
        if v.name not in by_name or any(p not in by_name for p in v.parents):
            continue
        rows = net.tables.get(v.name)
        if rows is None:
            problems.append(f"missing CPT for {v.name}")
            continue
        parent_domains = [by_name[p].domain for p in v.parents]
        expected = set(itertools.product(*parent_domains)) if v.parents else {()}
        for cond in expected:
            if cond not in rows:
                ctx = ",".join(f"{p}={val}" for p, val in zip(v.parents, cond))
                problems.append(
                    f"missing CPT row for {v.name}" + (f" under {ctx}" if ctx else "")
                )
        for cond, ranking in rows.items():
            if cond not in expected:
                ctx = ",".join(str(c) for c in cond)
                problems.append(f"unexpected CPT row for {v.name} under {ctx}")
                continue
            if len(set(ranking)) != len(ranking):
                problems.append(f"duplicate value in a ranking of {v.name}")
            elif set(ranking) != set(v.domain):
                ctx = ",".join(f"{p}={val}" for p, val in zip(v.parents, cond))
                problems.append(
                    f"partial ranking for {v.name}"
                    + (f" under {ctx}" if ctx else "")
                    + " (every domain value must appear exactly once)"
                )

    report = ValidationReport(ok=not problems, problems=problems)
    if report.ok:
        net._build_caches(order)
    net._report = report  # published only once the caches are complete
    return report


def topological_order(net: CPNet) -> list[str]:
    """Parents-before-children order, deterministic via declaration-order ties."""
    net._require_valid()
    return list(net._topo)


def _targets(net: CPNet, values: tuple[str, ...], var_i: int, direction: str) -> tuple[str, ...]:
    """Sanctioned flip targets for one variable at a raw outcome tuple."""
    owner = net.variables[var_i].name
    ranking = net.tables[owner][tuple(values[p] for p in net._parents_idx[var_i])]
    r = ranking.index(values[var_i])
    return ranking[:r] if direction == IMPROVING else ranking[r + 1:]


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise CPNetError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def legal_flips(net: CPNet, outcome: Outcome, direction: str) -> list[Flip]:
    """All flips sanctioned at ``outcome``: every strictly better (or worse)
    value of each variable under its current parent context, not only the
    adjacent ones."""
    net._require_valid()
    _check_direction(direction)
    net.check_outcome(outcome)
    values = outcome.values
    flips: list[Flip] = []
    for i, v in enumerate(net.variables):
        for target in _targets(net, values, i, direction):
            flips.append(Flip(v.name, values[i], target, direction))
    return flips


def apply_flip(net: CPNet, outcome: Outcome, flip: Flip) -> Outcome:
    """Apply one flip, rejecting anything the net does not sanction."""
    net._require_valid()
    net.check_outcome(outcome)
    _check_direction(flip.direction)
    i = net.index(flip.variable)
    if outcome.values[i] != flip.from_value:
        raise CPNetError(
            f"flip does not apply: {flip.variable} is {outcome.values[i]!r}, "
            f"not {flip.from_value!r}"
        )
    if flip.from_value == flip.to_value:
        raise CPNetError(f"{flip.from_value!r} -> {flip.to_value!r} is not a flip")
    if flip.to_value not in _targets(net, outcome.values, i, flip.direction):
        raise CPNetError(
            f"flip {flip.variable}: {flip.from_value} -> {flip.to_value} is not "
            f"a sanctioned {flip.direction} flip here"
        )
    values = list(outcome.values)
    values[i] = flip.to_value
    return Outcome(tuple(values))


def _sweep(net: CPNet, pick_last: bool) -> Outcome:
    values: dict[str, str] = {}
    for name in net._topo:
        i = net._index[name]
        key = tuple(values[p] for p in net.variables[i].parents)
        ranking = net.tables[name][key]
        values[name] = ranking[-1] if pick_last else ranking[0]
    return Outcome(tuple(values[v.name] for v in net.variables))


def best_outcome(net: CPNet) -> Outcome:
    """The unique outcome with no improving flips: assign each variable its
    top-ranked value given the already-assigned parents, in topological order."""
    net._require_valid()
    return _sweep(net, pick_last=False)


def worst_outcome(net: CPNet) -> Outcome:
    """Dual of :func:`best_outcome`: bottom-ranked values, no worsening flips."""
    net._require_valid()
    return _sweep(net, pick_last=True)
