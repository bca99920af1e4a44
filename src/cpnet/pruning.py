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
uses as a pre-check; ``forward_prune`` turns its masks back into names, and
``value_graph`` shows one variable's graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import CPNet, Outcome
from .search import _compiled

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ValueGraph:
    """Directed graph over one variable's values, induced by consistent rows."""

    variable: str
    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]


@dataclass
class PruneResult:
    status: str
    pruned_domains: dict[str, tuple[str, ...]]
    failed_variable: str | None = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def value_graph(
    net: CPNet,
    variable: str,
    x: Outcome,
    y: Outcome,
    pruned_so_far: Mapping[str, Iterable[str]] | None = None,
) -> ValueGraph:
    """Build the value graph for ``variable``.

    A row contributes its adjacent-pair arcs iff every parent binding lies in
    that parent's surviving set (``pruned_so_far``; full domains by default).
    Only successive values of a row are connected, never the long jumps.
    """
    net._require_valid()
    var = net.variable(variable)
    surviving = {
        name: frozenset(values)
        for name, values in (pruned_so_far or {}).items()
    }
    arcs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for cond, ranking in net.tables[variable].items():
        consistent = all(
            value in surviving.get(parent, frozenset(net.variable(parent).domain))
            for parent, value in zip(var.parents, cond)
        )
        if not consistent:
            continue
        for a, b in zip(ranking, ranking[1:]):
            if (a, b) not in seen:
                seen.add((a, b))
                arcs.append((a, b))
    order = {value: i for i, value in enumerate(var.domain)}
    arcs.sort(key=lambda arc: (order[arc[0]], order[arc[1]]))
    return ValueGraph(variable, var.domain, tuple(arcs))


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
    if masks and not masks[-1]:
        return PruneResult(INFEASIBLE, surviving, failed_variable=core.names[len(masks) - 1])
    return PruneResult(FEASIBLE, surviving)
