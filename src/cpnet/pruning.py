"""Forward pruning: per-variable value graphs and fast query failure.

Sweeping variables parents-first, each variable gets a graph over its values
with one arc per adjacent pair of every table row whose condition is still
consistent with the surviving values of the parents.  A value survives when it
lies on some directed walk from the query's better-side value to the
worse-side value; an empty survivor set refutes the query outright, before any
search runs.  Arcs point from more preferred to less preferred, so walks trace
worsening trajectories.

The sweep itself runs on the compiled core of the search engine
(``_Core.prune``, survivor sets as value bitmasks), which ``dominates`` also
uses as a pre-check and the catalog pass runs on every pair; ``forward_prune``
turns its masks back into names, and ``value_graph`` shows one variable's
graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .model import CPNet, Outcome, _expect, _sequence, _usable
from .search import _compiled


@dataclass(frozen=True)
class ValueGraph:
    """Directed graph over one variable's values, induced by consistent rows."""

    variable: str
    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]


@dataclass
class PruneResult:
    pruned_domains: dict[str, tuple[str, ...]]
    failed_variable: str | None = None

    @property
    def feasible(self) -> bool:
        return self.failed_variable is None


def value_graph(
    net: CPNet,
    variable: str,
    pruned_so_far: Mapping[str, Iterable[str]] | None = None,
) -> ValueGraph:
    """Build the value graph for ``variable``.

    A row contributes its adjacent-pair arcs iff every parent binding lies in
    that parent's surviving set (``pruned_so_far``; full domains by default).
    Only successive values of a row are connected, never the long jumps.
    Arcs are sorted by the tail's domain position, then the head's.  A
    survivor set given as a string raises ``CPNetError``, rather than being
    read as its characters.
    """
    _usable(net)
    var = net.variable(variable)
    if pruned_so_far is not None:
        _expect(pruned_so_far, Mapping, "a mapping of surviving values")
    surviving = {
        name: frozenset(_sequence(values, f"survivor set of {name!r}"))
        for name, values in (pruned_so_far or {}).items()
    }
    arcs: set[tuple[str, str]] = set()
    for cond, ranking in net.tables[variable].items():
        if all(
            parent not in surviving or value in surviving[parent]
            for parent, value in zip(var.parents, cond)
        ):
            arcs.update(zip(ranking, ranking[1:]))
    order = {value: i for i, value in enumerate(var.domain)}
    ordered = sorted(arcs, key=lambda arc: (order[arc[0]], order[arc[1]]))
    return ValueGraph(variable, var.domain, tuple(ordered))


def forward_prune(net: CPNet, x: Outcome, y: Outcome) -> PruneResult:
    """Sweep the net in topological order, keeping for every variable only the
    values on some directed walk from x's value to y's value in its value
    graph.  An empty survivor set fails the query immediately at that
    variable; the surviving sets of processed parents feed each child's row
    consistency check.
    """
    core, (xs, ys) = _compiled(net, x, y)
    masks = core.prune(xs, ys)
    surviving = {
        core.names[p]: tuple(value for k, value in enumerate(core.domains[p]) if mask >> k & 1)
        for p, mask in enumerate(masks)
        if mask
    }
    if not masks[-1]:
        return PruneResult(surviving, failed_variable=core.names[len(masks) - 1])
    return PruneResult(surviving)
