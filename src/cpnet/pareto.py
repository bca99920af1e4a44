"""Catalog application: non-dominated fronts and dominance-layered sorting.

Rows with identical outcomes collapse to one representative (equal outcomes
never dominate each other).  Both entry points read one pass over the unique
outcomes in descending rank (Laing, Thwaites & Gosling, JAIR 2019).  Every
improving flip raises the rank, so an outcome can only be dominated by one
visited before it, and two outcomes of equal rank are incomparable.  Each
outcome is tested against higher-ranked ones, one pair at a time in one
direction ("does a dominate b?"); the first that dominates it is its winner
and places it one layer below the winner's.  The front tests layer 0 only,
since by transitivity every dominated outcome has a dominator there; the sort
tests every layer, deepest first, so the first winner is the deepest one.

The pass owns its queries: it compiles the net and encodes and ranks each
outcome once, then tests a pair by the forward prune (``_Core.prune``) and,
only if that does not refute it, by the flip search (``_flip_search``).  It
runs the prune on every net, committed or not, since on catalogs most pairs
are negatives that the prune refutes faster than a walk dead-ends.

The pass numbers the unique outcomes by first appearance and keeps their
ranks, codes, layers and row ids in lists indexed by that number; tiers,
winners and cut pairs hold numbers too.  So each row's outcome is hashed
once, to find its number, and no outcome is hashed per pair tested.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .dsl import CatalogRow, _catalog_rows
from .model import CPNet, Outcome
from .search import BUDGET_EXHAUSTED, DOMINATES, SearchConfig, _compiled, _config, _flip_search


@dataclass
class ParetoReport:
    nondominated: list[str]
    dominated: list[tuple[str, str]]  # (loser id, witness-winner id)
    undecided: list[tuple[str, str]]  # id pairs whose comparison ran out of budget
    comparisons_run: int


@dataclass
class _Pass:
    """The pass over the unique outcomes, each named by its number: its
    position in order of first appearance."""

    members: list[list[str]]  # number -> row ids
    tiers: list[list[int]]  # numbers by dominance layer
    winner: dict[int, int]  # dominated number -> a dominator's
    cut: list[tuple[int, int]]  # (a, b) where "a dominates b" ran out of budget
    searches: int


def _layers(net: CPNet, rows: Iterable[CatalogRow], cfg: SearchConfig,
            front_only: bool) -> _Pass:
    """The rank-ordered dominance pass over the rows' unique outcomes; ties
    in rank keep first appearance.  With ``front_only`` only layer 0 is
    scanned, giving at most two layers.  A search's kind is read from the
    tuple of ``_flip_search``: the pass builds no verdict, stats or witness."""
    rows = _catalog_rows(rows)
    core, codes = _compiled(net, *(row.outcome for row in rows))
    found = _Pass([], [], {}, [], 0)
    number: dict[Outcome, int] = {}
    rank: list[int] = []
    code: list[list[int]] = []
    for row, vals in zip(rows, codes):
        k = number.setdefault(row.outcome, len(code))
        if k == len(code):
            rank.append(core.rank(vals))
            code.append(vals)
            found.members.append([])
        found.members[k].append(row.identifier)
    layer = [0] * len(code)
    for b in sorted(range(len(code)), key=rank.__getitem__, reverse=True):
        low, worse = rank[b], code[b]
        scan = found.tiers[:1] if front_only else found.tiers
        for a in (a for tier in reversed(scan) for a in tier if rank[a] > low):
            found.searches += 1
            better = code[a]
            if not core.prune(better, worse)[-1]:
                continue  # refuted, under any budget
            kind = _flip_search(core, better, worse, cfg)[0]
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
    rows: Iterable[CatalogRow],
    cfg: SearchConfig | None = None,
) -> ParetoReport:
    """Split catalog rows into non-dominated and dominated (with a witness
    winner per loser); comparisons that exhaust the budget leave their id
    pairs undecided rather than guessing.  A pair the forward prune refutes
    is decided without a search, so it is never undecided, under any
    budget.  ``comparisons_run`` counts the pairs tested, refuted or
    searched.  A row id that repeats an earlier row's raises ``CPNetError``.
    """
    found = _layers(net, rows, _config(cfg), front_only=True)
    winner, members = found.winner, found.members
    # A loser settled elsewhere no longer leaves a pair open; ``a`` is in
    # layer 0, so it never has a winner.
    open_pairs = [(a, b) for a, b in found.cut if b not in winner]
    blocked = {k for pair in open_pairs for k in pair}

    nondominated: list[str] = []
    dominated: list[tuple[str, str]] = []
    for k, ids in enumerate(members):
        if k in winner:
            winner_id = members[winner[k]][0]
            dominated.extend((loser, winner_id) for loser in ids)
        elif k not in blocked:
            nondominated.extend(ids)
    undecided = sorted(
        (min(i, j), max(i, j)) for a, b in open_pairs for i in members[a] for j in members[b]
    )
    return ParetoReport(nondominated, dominated, undecided, found.searches)


def sort_catalog(
    net: CPNet,
    rows: Iterable[CatalogRow],
    cfg: SearchConfig | None = None,
) -> list[list[str]]:
    """Topological layering of the catalog's dominance DAG.

    Layer 0 holds the non-dominated rows; a row lands in the first layer above
    every row that dominates it.  Ties within a layer are ordered by id.
    Comparisons the budget cut off are treated as non-dominating.  A row id
    that repeats an earlier row's raises ``CPNetError``.
    """
    found = _layers(net, rows, _config(cfg), front_only=False)
    return [sorted(i for k in tier for i in found.members[k]) for tier in found.tiers]
