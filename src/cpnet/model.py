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
import math
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
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def _sequence(items: Iterable[str], what: str) -> tuple[str, ...]:
    """``items`` as a tuple; a string is refused, since it would split into
    its characters."""
    if isinstance(items, str):
        raise CPNetError(f"malformed net input: {what} {items!r} is a string, not a sequence")
    return tuple(items)


def _expect(value: object, kind: type, what: str) -> None:
    """Raise ``TypeError`` unless ``value`` is a ``kind``: a wrong Python type
    is a programming error, not input, so it is not a ``CPNetError``."""
    if not isinstance(value, kind):
        raise TypeError(f"expected {what} ({kind.__name__}), got {type(value).__name__}")


_FROZEN = ("variables", "tables")

# Tables are stored per owner as {parent-value-tuple: ranking-tuple}; the key
# is aligned with the owner's parent declaration order, the ranking lists the
# owner's domain most-preferred first.
TableRows = Mapping[tuple[str, ...], Sequence[str]]

_TUPLE = frozenset({tuple})  # _TUPLE.issuperset(map(type, xs)): each x is an exact tuple


def _variable(v: Variable) -> Variable:
    """``v`` itself when it is a :class:`Variable` of tuples, as the parser
    builds them, else a copy whose domain and parents are tuples."""
    if type(v) is Variable and type(v.domain) is tuple and type(v.parents) is tuple:
        return v
    return Variable(v.name, _sequence(v.domain, "domain"), _sequence(v.parents, "parent list"))


def _rows(rows: TableRows) -> dict[tuple[str, ...], tuple[str, ...]]:
    """A copy of one table, its conditions and rankings as tuples: one
    ``dict`` copy when they all are tuples already, as the parser builds them."""
    pairs = rows.items()  # first: a non-mapping fails on this, whichever copy follows
    if _TUPLE.issuperset(map(type, rows)) and _TUPLE.issuperset(map(type, rows.values())):
        return dict(rows)
    return {_sequence(cond, "condition"): _sequence(ranking, "ranking") for cond, ranking in pairs}


class CPNet:
    """A conditional preference network.

    Instances are built unvalidated (the parser may produce broken candidates)
    and checked once via :func:`validate`.  ``variables`` is a tuple and
    ``tables`` a read-only mapping of read-only rows, and neither attribute
    can be rebound or deleted, so a net cannot change after validation and
    may be shared across concurrent queries.  Validation caches the name
    index, parent positions and topological order (as positions) here, and
    the search engine compiles its integer core once, on the first query.
    """

    def __init__(self, variables: Iterable[Variable], tables: Mapping[str, TableRows]):
        try:
            self.variables: tuple[Variable, ...] = tuple(map(_variable, variables))
            self.tables: Mapping[str, Mapping[tuple[str, ...], tuple[str, ...]]] = (
                MappingProxyType({
                    owner: MappingProxyType(_rows(rows)) for owner, rows in tables.items()
                })
            )
        except (AttributeError, TypeError) as exc:  # not iterable, not a mapping
            raise CPNetError(f"malformed net input: {exc}") from None
        self._report: ValidationReport | None = None
        self._index: dict[str, int] = {}
        self._topo: tuple[int, ...] = ()
        self._parents_idx: list[tuple[int, ...]] = []
        # per variable, its value -> domain index map, built by _value_codes
        self._codes: list[dict[str, int]] | None = None
        # the integer search core, compiled by cpnet.search on the first query
        self._core: object | None = None

    # A guard, not properties: _targets reads both attributes on every step.
    # It asks hasattr, not __dict__, which would slow every attribute read.
    def __setattr__(self, name: str, value: object) -> None:
        if name in _FROZEN and hasattr(self, name):
            raise AttributeError(f"a net's {name} cannot be rebound")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if name in _FROZEN:
            raise AttributeError(f"a net's {name} cannot be deleted")
        object.__delattr__(self, name)

    # -- basic accessors -------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable(self, name: str) -> Variable:
        return self.variables[self.index(name)]

    def index(self, name: str) -> int:
        _usable(self)
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise CPNetError(f"unknown variable {name!r}") from None

    def outcome(self, assignment: Mapping[str, str]) -> Outcome:
        """Build a total outcome from a name -> value mapping."""
        _usable(self)
        extra = set(assignment).difference(self._index)
        if extra:
            raise CPNetError(f"unknown variable {sorted(extra)[0]!r} in outcome")
        values = []
        for v, code in zip(self.variables, _value_codes(self)):
            if v.name not in assignment:
                raise CPNetError(f"missing binding for {v.name}")
            value = assignment[v.name]
            _check_value(v, code, value)
            values.append(value)
        return Outcome(tuple(values))

    def format_outcome(self, outcome: Outcome) -> str:
        _usable(self, outcome)
        return _bindings(self.names, outcome.values)

    # -- validation ------------------------------------------------------

    def _build_caches(self, index: dict[str, int], parents: list[tuple[int, ...]],
                      order: list[int]) -> None:
        self._index = index
        self._parents_idx = parents
        self._topo = tuple(order)


def _kahn(parents: Sequence[Sequence[int]]) -> tuple[list[int], list[int] | None]:
    """One Kahn pass over the declared parents' positions, ties broken by
    declaration order: positions in topological order, plus one cycle as a
    position path if the pass stalls.  Every unplaced variable then has an
    unplaced parent, so following parent links must revisit one."""
    children: list[list[int]] = [[] for _ in parents]
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
    if len(order) == len(parents):
        return order, None
    placed = set(order)
    node = next(i for i in range(len(parents)) if i not in placed)
    path: dict[int, None] = {}  # insertion-ordered, with O(1) membership
    while node not in path:
        path[node] = None
        node = next(p for p in parents[node] if p not in placed)
    walk = list(path)
    return order, walk[walk.index(node):] + [node]


# The words of net, outcome and query text, which every reader matches; only
# validate also requires a variable name to be an identifier.  No '-', so words
# joined by '-' (STRIPS operator names) stay unambiguous on API-built nets too.
_WORD = re.compile(r"[A-Za-z0-9_]+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_MISSING_CAP = 100  # validate lists at most this many missing rows per variable


def _matches(pattern: re.Pattern[str], word: object) -> bool:
    return isinstance(word, str) and pattern.fullmatch(word) is not None


def _bindings(names: Iterable[str], values: Iterable[str]) -> str:
    """The text ``A=a,B=b`` of names bound to values, as every reader takes it."""
    return ",".join(f"{name}={value}" for name, value in zip(names, values))


def validate(net: CPNet) -> ValidationReport:
    """Check every net invariant; diagnostics are the result, not failures.

    The report is cached on the net; a net that validated once is usable by
    every other operation in this package.  Raises ``TypeError`` if ``net`` is
    not a :class:`CPNet`.
    """
    if not isinstance(net, CPNet):  # inline: this runs on every query
        raise TypeError(f"expected a net (CPNet), got {type(net).__name__}")
    if net._report is not None:
        return net._report
    problems: list[str] = []
    if not net.variables:
        problems.append("no variables")

    typed = True  # every word is a str: the checks below hash words
    for v in net.variables:
        if not _matches(_NAME, v.name):
            problems.append(f"variable name {v.name!r} is not an identifier")
            typed &= isinstance(v.name, str)
        for value in v.domain:
            if not _matches(_WORD, value):
                problems.append(f"value {value!r} of variable {v.name} is not a word")
                typed &= isinstance(value, str)
        for p in v.parents:
            if not isinstance(p, str):
                problems.append(f"parent {p!r} of variable {v.name} is not a name")
                typed = False
    for owner, rows in net.tables.items():
        for ranking in rows.values():
            for value in ranking:
                if not isinstance(value, str):
                    problems.append(f"ranking value {value!r} for {owner} is not a word")
                    typed = False
    if not typed:
        net._report = ValidationReport(problems)
        return net._report

    index = {v.name: i for i, v in enumerate(net.variables)}
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
            elif p not in index:
                problems.append(f"unknown parent {p} of variable {v.name}")
            if p in seen_parents:
                problems.append(f"duplicate parent {p} of variable {v.name}")
            seen_parents.add(p)

    parents = [tuple(index[p] for p in v.parents if p in index) for v in net.variables]
    order, cycle = _kahn(parents)
    if cycle is not None:
        problems.append("cycle " + " -> ".join(net.variables[i].name for i in cycle))

    for owner in net.tables:
        if owner not in index:
            problems.append(f"table for unknown variable {owner}")
    for v, ps in zip(net.variables, parents):
        if len(ps) < len(v.parents):  # an undeclared parent
            continue
        rows = net.tables.get(v.name)
        if rows is None:
            problems.append(f"missing CPT for {v.name}")
            continue
        domains = [dict.fromkeys(net.variables[q].domain) for q in ps]
        arity, values = len(domains), set(v.domain)
        size = len(values)
        missing = math.prod(map(len, domains)) - len(rows)
        later: list[str] = []  # each given row is checked in O(parents)
        for cond, ranking in rows.items():
            if len(cond) != arity or not all(map(dict.__contains__, domains, cond)):
                later.append(f"unexpected CPT row for {v.name} under " + ",".join(map(str, cond)))
                missing += 1
            elif len(ranking) != size or set(ranking) != values:  # not each value once
                if len(set(ranking)) != len(ranking):
                    later.append(f"duplicate value in a ranking of {v.name}")
                else:
                    ctx = _bindings(v.parents, cond)
                    later.append(
                        f"partial ranking for {v.name}"
                        + (f" under {ctx}" if ctx else "")
                        + " (every domain value must appear exactly once)"
                    )
        absent = (c for c in itertools.product(*domains) if c not in rows) if missing else ()
        for cond in itertools.islice(absent, min(missing, _MISSING_CAP)):
            ctx = _bindings(v.parents, cond)
            problems.append(f"missing CPT row for {v.name}" + (f" under {ctx}" if ctx else ""))
        if missing > _MISSING_CAP:
            problems.append(f"… and {missing - _MISSING_CAP} more missing CPT rows for {v.name}")
        problems += later  # row problems follow the missing rows

    report = ValidationReport(problems)
    if report.ok:
        net._build_caches(index, parents, order)
    net._report = report  # published only once the caches are complete
    return report


def _usable(net: CPNet, *outcomes: Outcome) -> None:
    """The entry check of every operation on a net: ``TypeError`` unless
    ``net`` is a :class:`CPNet` and each outcome an :class:`Outcome`, and
    ``CPNetError`` if the net fails validation or an outcome is not one of
    its outcomes (a tuple of one domain value per variable, as
    :func:`_check_value` finds them)."""
    problems = validate(net).problems
    if problems:
        raise CPNetError("net failed validation: " + "; ".join(problems))
    for outcome in outcomes:
        _expect(outcome, Outcome, "an outcome")
        values = outcome.values
        if not isinstance(values, tuple):  # outcomes are hashed as keys
            raise CPNetError("outcome values must be a tuple")
        if len(values) != len(net.variables):
            raise CPNetError("outcome does not match this net's variable set")
        codes = _value_codes(net)
        try:
            if all(map(dict.__contains__, codes, values)):
                continue
        except TypeError:  # an unhashable value, named below
            pass
        for v, code, x in zip(net.variables, codes, values):
            _check_value(v, code, x)


def _value_codes(net: CPNet) -> list[dict[str, int]]:
    """Per variable of a validated net, its value -> domain index map: the
    entry check tests membership in it and the search core encodes with it.
    Built on first use, not by ``validate``, so a net whose outcomes are
    never read does not pay for it; two threads that race on it store
    equal maps."""
    if net._codes is None:
        net._codes = [dict(zip(v.domain, range(len(v.domain)))) for v in net.variables]
    return net._codes


def _check_value(v: Variable, code: dict[str, int], x: object) -> None:
    """Raise ``CPNetError`` unless ``x`` is a key of ``code``, the value ->
    index map of ``v``'s domain (``_value_codes``), found by hash and then
    ``==``, as the search core's encoder finds it.  So a value that equals
    a domain value but hashes differently, or that cannot be hashed, is
    refused here."""
    try:
        if x in code:
            return
    except TypeError:  # unhashable
        pass
    hint = " (it equals a domain value but does not hash as it)" if x in v.domain else ""
    raise CPNetError(f"unknown value {x!r} for variable {v.name}{hint}")


def topological_order(net: CPNet) -> list[str]:
    """Parents-before-children order, deterministic via declaration-order ties."""
    _usable(net)
    return [net.variables[i].name for i in net._topo]


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
    _usable(net, outcome)
    _check_direction(direction)
    values = outcome.values
    flips: list[Flip] = []
    for i, v in enumerate(net.variables):
        for target in _targets(net, values, i, direction):
            flips.append(Flip(v.name, values[i], target, direction))
    return flips


def _flipped(net: CPNet, values: tuple[str, ...], flip: Flip) -> tuple[str, ...]:
    """The outcome ``values`` after ``flip``, the one check of a flip: raises
    ``TypeError`` unless ``flip`` is a :class:`Flip`, and ``CPNetError`` unless
    the net sanctions it at ``values`` in its own direction (the variable holds
    its from-value, and its row ranks the to-value strictly above or below)."""
    _expect(flip, Flip, "a flip")
    _check_direction(flip.direction)
    i = net.index(flip.variable)
    if values[i] != flip.from_value:
        raise CPNetError(
            f"flip does not apply: {flip.variable} is {values[i]!r}, not {flip.from_value!r}"
        )
    if flip.from_value == flip.to_value:
        raise CPNetError(f"{flip.from_value!r} -> {flip.to_value!r} is not a flip")
    if flip.to_value not in _targets(net, values, i, flip.direction):
        raise CPNetError(
            f"flip {flip.variable}: {flip.from_value} -> {flip.to_value} is not "
            f"a sanctioned {flip.direction} flip here"
        )
    return values[:i] + (flip.to_value,) + values[i + 1:]


def apply_flip(net: CPNet, outcome: Outcome, flip: Flip) -> Outcome:
    """Apply one flip, rejecting anything the net does not sanction (:func:`_flipped`)."""
    _usable(net, outcome)
    return Outcome(_flipped(net, outcome.values, flip))


def _sweep(net: CPNet, pick_last: bool) -> Outcome:
    values = [""] * len(net.variables)  # by declaration position
    for i in net._topo:
        ranking = net.tables[net.variables[i].name][tuple(values[p] for p in net._parents_idx[i])]
        values[i] = ranking[-1] if pick_last else ranking[0]
    return Outcome(tuple(values))


def best_outcome(net: CPNet) -> Outcome:
    """The unique outcome with no improving flips: assign each variable its
    top-ranked value given the already-assigned parents, in topological order."""
    _usable(net)
    return _sweep(net, pick_last=False)


def worst_outcome(net: CPNet) -> Outcome:
    """Dual of :func:`best_outcome`: bottom-ranked values, no worsening flips."""
    _usable(net)
    return _sweep(net, pick_last=True)
