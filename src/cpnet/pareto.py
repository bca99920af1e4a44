"""Catalog application: non-dominated fronts and dominance-layered sorting.

Rows with identical outcomes collapse to one representative (equal outcomes
never dominate each other).  Both entry points read one pass over the unique
outcomes in descending rank (Laing, Thwaites & Gosling, JAIR 2019).  Every
improving flip raises the rank, so an outcome can only be dominated by one
visited before it, and two outcomes of equal rank are incomparable.  Each
outcome is tested against higher-ranked ones by one search per pair in one
direction ("does a dominate b?"); the first that dominates it is its winner
and places it one layer below the winner's.  The front tests layer 0 only,
since by transitivity every dominated outcome has a dominator there; the sort
tests every layer, deepest first, so the first winner is the deepest one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dsl import CatalogRow
from .model import CPNet, Outcome
from .search import BUDGET_EXHAUSTED, DOMINATES, SearchConfig, _compiled, dominates


@dataclass
class ParetoReport:
    nondominated: list[str]
    dominated: list[tuple[str, str]]  # (loser id, witness-winner id)
    undecided: list[tuple[str, str]]  # id pairs whose comparison ran out of budget
    comparisons_run: int


@dataclass
class _Pass:
    members: dict[Outcome, list[str]]  # unique outcome -> row ids, by first appearance
    tiers: list[list[Outcome]]  # unique outcomes by dominance layer
    winner: dict[Outcome, Outcome]  # dominated outcome -> a dominator
    cut: list[tuple[Outcome, Outcome]]  # (a, b) where "a dominates b" ran out of budget
    searches: int


def _layers(net: CPNet, rows: list[CatalogRow], cfg: SearchConfig, front_only: bool) -> _Pass:
    """The rank-ordered dominance pass over the rows' unique outcomes; ties
    in rank keep first appearance.  With ``front_only`` only layer 0 is
    scanned, giving at most two layers.  The pass reads verdicts only, so it
    builds no witnesses."""
    cfg = replace(cfg, want_witness=False)
    core, codes = _compiled(net, *(row.outcome for row in rows))
    found = _Pass({}, [], {}, [], 0)
    rank: dict[Outcome, int] = {}
    for row, vals in zip(rows, codes):
        if row.outcome not in rank:
            rank[row.outcome] = core.rank(vals)
            found.members[row.outcome] = []
        found.members[row.outcome].append(row.identifier)
    layer: dict[Outcome, int] = {}
    for b in sorted(rank, key=rank.__getitem__, reverse=True):
        layer[b] = 0
        scan = found.tiers[:1] if front_only else found.tiers
        for a in (a for tier in reversed(scan) for a in tier if rank[a] > rank[b]):
            kind = dominates(net, a, b, cfg).kind
            found.searches += 1
            if kind == DOMINATES:
                found.winner[b] = a
                layer[b] = layer[a] + 1
                break
            if kind == BUDGET_EXHAUSTED:
                found.cut.append((a, b))
        if layer[b] == len(found.tiers):
            found.tiers.append([])
        found.tiers[layer[b]].append(b)
    return found


def pareto_front(
    net: CPNet,
    rows: list[CatalogRow],
    cfg: SearchConfig | None = None,
) -> ParetoReport:
    """Split catalog rows into non-dominated and dominated (with a witness
    winner per loser); comparisons that exhaust the budget leave their id
    pairs undecided rather than guessing.
    """
    found = _layers(net, rows, cfg or SearchConfig(), front_only=True)
    winner, members = found.winner, found.members
    # A loser settled elsewhere no longer leaves a pair open.
    open_pairs = [(a, b) for a, b in found.cut if a not in winner and b not in winner]
    blocked = {o for pair in open_pairs for o in pair}

    nondominated: list[str] = []
    dominated: list[tuple[str, str]] = []
    for outcome, ids in members.items():
        if outcome in winner:
            winner_id = members[winner[outcome]][0]
            dominated.extend((loser, winner_id) for loser in ids)
        elif outcome not in blocked:
            nondominated.extend(ids)
    undecided = sorted(
        (min(i, j), max(i, j)) for a, b in open_pairs for i in members[a] for j in members[b]
    )
    return ParetoReport(nondominated, dominated, undecided, found.searches)


def sort_catalog(
    net: CPNet,
    rows: list[CatalogRow],
    cfg: SearchConfig | None = None,
) -> list[list[str]]:
    """Topological layering of the catalog's dominance DAG.

    Layer 0 holds the non-dominated rows; a row lands in the first layer above
    every row that dominates it.  Ties within a layer are ordered by id.
    Comparisons the budget cut off are treated as non-dominating.
    """
    found = _layers(net, rows, cfg or SearchConfig(), front_only=False)
    return [sorted(i for o in tier for i in found.members[o]) for tier in found.tiers]
