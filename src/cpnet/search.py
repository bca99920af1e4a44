"""Dominance queries as search over improving/worsening flip trees.

The engine answers "does the net entail x > y?" by depth-first search for a
flipping sequence, either upward from y (improving), downward from x
(worsening), or both at once with a deterministic strict alternation that
concludes when the two frontiers meet.  The flipping sequence is the proof:
a walk and a DFS (``_dfs``, both sides in one loop, which splices a frontier
meeting) each return their moves, which ``_flip_search`` returns in one
tuple with the kind and counts; ``_verdict`` alone builds a searched verdict
from it.  A search expands at most ``budget`` nodes, each root included.

Completeness-preserving machinery:

* suffix fixing    - variables in a descendant-closed set that already match
                     the target are never flipped below the current node;
* suffix extension - a flip onto the target value of a variable whose
                     descendants are all fixed is committed, never revisited;
* rightmost        - candidate flips are tried latest-in-topological-order
                     first (a least-commitment order);
* least improving  - among targets of one variable, the smallest step first.

Before any search, two sound refutations may answer a negative query in
time linear in the net: the rank of Laing, Thwaites & Gosling (JAIR 2019),
which every improving flip raises, so ``rank(x) <= rank(y)`` refutes x > y;
and the forward pruning of Boutilier et al. (JAIR 2004), which refutes it
when some variable has no value on a worsening walk from x's value to y's.
``SearchStats.decided_by`` names the stage that answered.  ``dominates``
runs both, except on committed nets (below); the catalog pass
(``pareto._layers``) asks only pairs of higher rank first, and runs the
prune on every net, committed or not, before it calls ``_flip_search``.

The engine searches the net over its effective parents: a declared parent
that the child's table does not depend on (every two rows that differ only
in that parent hold the same ranking) is *degenerate*, sanctions no flip,
and is compiled away (``_Core``).  The dominance relation is the declared
net's, and the oracle below reads the declared tables; "parent", "child"
and "descendant" in this module mean effective ones.

On nets where every variable is binary and has at most one parent, the
rightmost choice (with both suffix rules active) is itself safe to commit:
search on chains and trees of binary variables then proceeds without
backtracking, and the brute-force oracle in this module is the reference
that the test suite checks this against.  Such a search is one linear walk
(``_committed_walk``), a flat loop that flips in place and keeps no frames
and no visited set: every flip strictly moves the rank, so no outcome
repeats, and a walk that dead-ends stops there, since no other branch exists
to unwind to.  ``dominates`` skips the pre-check there, so that a single
positive query costs only its walk, and bidirectional mode runs the
improving walk alone (complete on its own).

A validated net is frozen, and the first query compiles it into an integer
core (``_Core``) that is cached on the net and shared by concurrent queries,
which only read it but for the witness flips, the prune's reach entries and
the rank's score table it caches.  A searched outcome keeps its suffix
state as two bitmasks, the variables outside the fixed suffix and the
frontier of those, built by ``_suffix`` and updated after each flip by
``_refix``; the rightmost extension or candidate is found from the highest
set bit down.  ``fixed_suffix``, ``extend_suffix`` and
``order_flips`` read that same state; strings return only in witnesses,
whose flips the core builds once each and then shares (``_Core.path``).
Every query, view and catalog pass enters the core through ``_compiled``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

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
    _flipped,
    _targets,
    _usable,
    _value_codes,
)

BIDIRECTIONAL = "bidirectional"

DOMINATES = "dominates"
NOT_DOMINATED = "not_dominated"
BUDGET_EXHAUSTED = "budget_exhausted"


_SWITCHES = ("suffix_fixing", "suffix_extension", "rightmost", "least_improving",
             "visited_dedup", "want_witness")


@dataclass(frozen=True)
class SearchConfig:
    """Query-time knobs; the defaults enable everything the engine has."""

    direction: str = BIDIRECTIONAL
    suffix_fixing: bool = True
    suffix_extension: bool = True
    rightmost: bool = True
    least_improving: bool = True
    visited_dedup: bool = True
    budget: int | None = None
    want_witness: bool = True

    def __post_init__(self) -> None:
        if self.direction not in (IMPROVING, WORSENING, BIDIRECTIONAL):
            raise CPNetError(f"unknown direction {self.direction!r}")
        for name in _SWITCHES:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise CPNetError(f"{name} must be a bool, not {value!r}")
        if self.budget is not None:
            if isinstance(self.budget, bool) or not isinstance(self.budget, int):
                raise CPNetError(f"budget must be an int, not {self.budget!r}")
            if self.budget < 1:
                raise CPNetError("budget must be at least 1 when bounded")


def _config(cfg: SearchConfig | None) -> SearchConfig:
    """``cfg``, or the defaults for None; anything else is a ``TypeError``."""
    if cfg is None:
        return SearchConfig()
    _expect(cfg, SearchConfig, "a search config")
    return cfg


@dataclass
class SearchStats:
    expansions: int = 0
    backtracks: int = 0
    direction_decided: str = "none"
    decided_by: str = "none"  # equal, rank, prune, search or budget


@dataclass
class Verdict:
    """Result of a dominance query.

    ``not_dominated`` comes from equal outcomes, from the rank or prune
    pre-check (0 expansions), or from an exhaustive search;
    ``stats.decided_by`` says which.  Running out of budget yields
    ``budget_exhausted`` instead.
    """

    kind: str
    witness: FlipSequence | None = None
    stats: SearchStats = field(default_factory=SearchStats)


def fixed_suffix(net: CPNet, z: Outcome, x: Outcome) -> frozenset[str]:
    """The maximal descendant-closed set of variables (every child of a
    member is a member) on which ``z`` already matches ``x``: every variable
    that neither differs from ``x`` nor has a descendant that does.  A child
    is an effective one: a variable whose table depends on the member."""
    core, (zs, xs) = _compiled(net, z, x)
    unfixed, _ = _suffix(core, zs, xs)
    return frozenset(name for p, name in enumerate(core.names) if not unfixed >> p & 1)


def extend_suffix(net: CPNet, z: Outcome, x: Outcome, direction: str) -> Flip | None:
    """The move the engine commits at ``z`` searching toward ``x``, if any: a
    legal flip that sets a variable outside ``fixed_suffix(net, z, x)``, all
    of whose effective children are inside it, to its value in ``x``; the
    rightmost such flip."""
    _check_direction(direction)
    core, (zs, xs) = _compiled(net, z, x)
    table = core.up if direction == IMPROVING else core.down
    _, frontier = _suffix(core, zs, xs)
    p = _extension(table, core.rows(zs), zs, xs, frontier)
    if p is None:
        return None
    return core.path([(p, zs[p], xs[p])], direction)[0]


def order_flips(
    net: CPNet,
    z: Outcome,
    candidates: list[Flip],
    x: Outcome,
    cfg: SearchConfig,
) -> list[Flip]:
    """Deterministic candidate order: rightmost variable first (topological
    order when the heuristic is off), then least-improving target within a
    variable (most-improving when off).  Every candidate must be a flip the
    net sanctions at ``z``."""
    _expect(cfg, SearchConfig, "a search config")
    for flip in candidates:
        _expect(flip, Flip, "a flip")
        _check_direction(flip.direction)
    core, (zs, _) = _compiled(net, z, x)
    rows, every = core.rows(zs), (1 << len(zs)) - 1
    rank: dict[Flip, int] = {}
    for direction in {f.direction for f in candidates}:
        table = core.up if direction == IMPROVING else core.down
        moves = [(p, zs[p], value) for p, value in _ordered(table, rows, zs, every, cfg)]
        for k, flip in enumerate(core.path(moves, direction)):
            rank[flip] = k

    def position(flip: Flip) -> int:
        try:
            return rank[flip]
        except (KeyError, TypeError):  # TypeError: a field is unhashable
            raise CPNetError(f"not a sanctioned flip at this outcome: {flip}") from None

    return sorted(candidates, key=position)


# -- brute-force oracle ----------------------------------------------------


def _check_cap(net: CPNet, cap: int, *outcomes: Outcome) -> None:
    _usable(net, *outcomes)
    if math.prod(len(v.domain) for v in net.variables) > cap:
        raise CPNetError(f"outcome space exceeds oracle cap {cap}")


def all_outcomes(net: CPNet) -> list[Outcome]:
    """Every outcome of the net, in lexicographic declaration order."""
    _usable(net)
    return [Outcome(values) for values in itertools.product(*(v.domain for v in net.variables))]


def _improving_children(net: CPNet, values: tuple[str, ...]) -> list[tuple[str, ...]]:
    children = []
    for i in range(len(values)):
        for target in _targets(net, values, i, IMPROVING):
            child = list(values)
            child[i] = target
            children.append(tuple(child))
    return children


def _better_outcomes(start: tuple[str, ...], children: Callable) -> set[tuple[str, ...]]:
    """Breadth-first: every outcome other than ``start`` that one or more
    improving flips reach from it."""
    seen: set[tuple[str, ...]] = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for values in frontier:
            for child in children(values):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return seen - {start}


def oracle_dominates(net: CPNet, x: Outcome, y: Outcome, cap: int = 2**16) -> bool:
    """Reference answer: breadth-first reachability from ``y`` to ``x`` over
    the complete one-improving-flip graph.  Exhaustive, so only usable while
    the outcome space stays at or below ``cap``."""
    _check_cap(net, cap, x, y)
    return x != y and x.values in _better_outcomes(y.values, lambda v: _improving_children(net, v))


def oracle_closure(net: CPNet, cap: int = 2**16) -> dict[Outcome, frozenset[Outcome]]:
    """For every outcome, the set of strictly better outcomes it can reach.
    Convenience wrapper over the same graph the oracle walks."""
    _check_cap(net, cap)
    outcomes = all_outcomes(net)
    adjacency = {o.values: _improving_children(net, o.values) for o in outcomes}
    return {
        o: frozenset(Outcome(v) for v in _better_outcomes(o.values, adjacency.__getitem__))
        for o in outcomes
    }


# -- witness checking --------------------------------------------------------


def verify_witness(net: CPNet, x: Outcome, y: Outcome, seq: FlipSequence) -> bool:
    """True iff ``seq`` proves x > y: an improving chain from y to x, or the
    worsening mirror from x to y, every flip labelled with that direction and
    sanctioned where it is taken (``model._flipped``).  The empty sequence
    proves nothing, nor does one holding an item that is not a :class:`Flip`;
    a ``seq`` that is not a :class:`FlipSequence` raises ``TypeError``."""
    _usable(net, x, y)
    _expect(seq, FlipSequence, "a flip sequence")
    if not seq.flips:
        return False
    if seq.start == y and _replays(net, seq, IMPROVING, x):
        return True
    if seq.start == x and _replays(net, seq, WORSENING, y):
        return True
    return False


def _replays(net: CPNet, seq: FlipSequence, direction: str, goal: Outcome) -> bool:
    # every sanctioned flip moves the rank one way, so no outcome repeats
    values = seq.start.values
    for flip in seq.flips:
        if not isinstance(flip, Flip) or flip.direction != direction:
            return False
        try:
            values = _flipped(net, values, flip)
        except CPNetError:
            return False
    return values == goal.values


# -- the engine --------------------------------------------------------------


class _Core:
    """The integer form of a validated net, which is what the engine searches.

    A variable is its topological position ``p``, a value its index in the
    domain, a set of variables an int bitmask over positions.  ``parents[p]``
    holds the effective parents, the declared parents that the variable's
    table depends on, in declared order (``_effective``); every graph view of
    the core (``fanout``, ``anc``, the child and parent masks, the rank's
    weights, the prune's rows and ``committed``) reads that one list.
    ``up[p]`` and ``down[p]`` are flat tables indexed by ``row + value``,
    where ``row`` is the mixed-radix index of the effective parents' values
    (the first slowest) times the domain size, and each row is read from the
    declared table with every dropped parent at its first value; an entry
    holds the improving (worsening) flips ``(p, target)`` in least-improving
    order, so its first entry is the adjacent value of the row's ranking.
    ``rank`` and ``prune`` read the same tables; the catalog pass orders
    outcomes by rank.  It is compiled from the net's ``_topo`` and
    ``_parents_idx`` positions.  Dropping a degenerate parent compiles an
    equal net, not a cut: it changes no flip, so no switch turns it off.

    Queries write three caches on a shared core, and nothing else:
    ``_flips``, the witness flips ``path`` builds; ``_reach``, the reach
    table that ``prune`` alone fills, keyed by a position and its parents'
    survivor masks and bounded by ``_reach_cap``, the number of table rows;
    and ``_scores``, the rank's table, built whole by the first ``rank``
    call.  Two queries that race on a cache store equal values.
    """

    def __init__(self, net: CPNet):
        order = net._topo
        variables = [net.variables[i] for i in order]
        pos = {i: p for p, i in enumerate(order)}  # declaration -> topological position
        self.names = tuple(v.name for v in variables)
        self.domains = domains = tuple(v.domain for v in variables)
        # per position: its value -> index map and its declaration index
        codes = _value_codes(net)
        self.codes = tuple((codes[i], i) for i in order)
        sizes = [len(d) for d in domains]
        # parents[p]: the effective parents, in declared order; fanout[q]:
        # (child, weight of q's value in the child's row) pairs
        parents: list[tuple[int, ...]] = []
        fanout: list[list[tuple[int, int]]] = [[] for _ in variables]
        up, down, anc = [], [], []  # anc: ancestors-or-self masks
        for p, (v, (code, i)) in enumerate(zip(variables, self.codes)):
            table, declared = net.tables[v.name], net._parents_idx[i]
            if declared:
                declared = [pos[q] for q in declared]
                conds = itertools.product(*[domains[q] for q in declared])
                kept, rankings = _effective(declared, list(map(table.__getitem__, conds)), sizes)
            else:
                kept, rankings = (), table.values()
            parents.append(kept)
            weight, mask = sizes[p], 1 << p
            for q in reversed(kept):
                fanout[q].append((p, weight))
                weight *= sizes[q]
                mask |= anc[q]
            anc.append(mask)
            cells: dict[tuple[str, ...], tuple[list, list]] = {}  # ranking -> its row's cells
            better, worse = [], []
            for ranking in rankings:
                row = cells.get(ranking)
                if row is None:
                    # the row's flips, best first; each cell is a slice of them
                    flips = tuple([(p, code[value]) for value in ranking])
                    row = cells[ranking] = ([], [])
                    for value in v.domain:
                        r = ranking.index(value)
                        row[0].append(flips[r - 1::-1] if r else ())
                        row[1].append(flips[r + 1:])
                better += row[0]
                worse += row[1]
            up.append(tuple(better))
            down.append(tuple(worse))
        self.up = tuple(up)
        self.down = tuple(down)
        self.fanout = tuple(tuple(f) for f in fanout)
        self.child_mask = tuple(sum(1 << c for c, _ in f) for f in self.fanout)
        self.parents = tuple(parents)
        self.parent_mask = tuple(sum(1 << q for q in ps) for ps in parents)
        self.single_parent_binary = all(
            size == 2 and len(ps) <= 1 for size, ps in zip(sizes, parents))
        self.anc = tuple(anc)
        # mixed-radix weights that make an outcome one int key
        self.stride = tuple(itertools.accumulate(sizes[:-1], operator.mul, initial=1))
        # direction -> {(position, old, new): Flip}, filled by ``path``
        self._flips: dict[str, dict] = {IMPROVING: {}, WORSENING: {}}
        # (position, its parents' survivor masks) -> reach entry, filled by
        # ``prune`` up to one entry per table row
        self._reach: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._reach_cap = sum(map(len, self.down))

    def encode(self, values: tuple[str, ...]) -> list[int]:
        """The value indices of an outcome, in topological order.  Raises
        ``KeyError`` or ``TypeError`` exactly on the outcomes that
        ``model._usable`` refuses."""
        if not isinstance(values, tuple) or len(values) != len(self.codes):
            raise TypeError("not an outcome of this net")
        return [code[values[i]] for code, i in self.codes]

    def committed(self, cfg: SearchConfig) -> bool:
        """Whether a search under ``cfg`` commits to its first candidate.  On
        binary nets where no variable has two effective parents, the
        first-ordered move under the full rule set never needs reconsidering,
        so each node keeps a single child and chains and trees search
        backtrack-free."""
        return (self.single_parent_binary and cfg.rightmost
                and cfg.suffix_fixing and cfg.suffix_extension)

    def rows(self, vals: list[int]) -> list[int]:
        """Each variable's parent row, times its domain size, at ``vals``.
        A parent at value 0 adds nothing to its children's rows."""
        rows = [0] * len(vals)
        fanout = self.fanout
        for q, value in enumerate(vals):
            if value:
                for c, weight in fanout[q]:
                    rows[c] += value * weight
        return rows

    @functools.cached_property
    def _scores(self) -> tuple[tuple[int, ...], ...]:
        """Per position and table cell, the variable's share of the rank:
        ``A(p)`` times the number of values ranked below the cell's value,
        where ``A(p)`` is 1 plus ``A(c)(|D_c| - 1)`` summed over the children
        ``c``.  Built on the first ``rank`` call, so compiling a net never
        pays for it."""
        weight = [1] * len(self.down)
        for p in reversed(range(len(weight))):
            weight[p] += sum(weight[c] * (len(self.domains[c]) - 1) for c, _ in self.fanout[p])
        return tuple(tuple(a * len(worse) for worse in down)
                     for a, down in zip(weight, self.down))

    def rank(self, vals: list[int]) -> int:
        """The rank of Laing, Thwaites & Gosling (JAIR 2019): the sum over
        variables of ``A(p)`` times the number of values ranked below the
        current one.  Every improving flip raises it by at least 1, so x > y
        implies rank(x) > rank(y)."""
        cells = map(operator.add, self.rows(vals), vals)
        return sum(map(operator.getitem, self._scores, cells))

    def prune(self, better: list[int], worse: list[int]) -> list[int]:
        """The forward pruning of Boutilier et al. (JAIR 2004).  Parents
        first, each variable keeps the values on some walk from its value in
        ``better`` to its value in ``worse`` along the arcs of the rows whose
        parent values all survive; an arc joins a value to the one just below
        it in a row.  Returns the survivor bitmasks in topological order,
        ending at the first empty one, which refutes better > worse.

        The walks are read from the reach table ``_reach``.  Its key is a
        position and the survivor masks of its parents, which decide the
        rows that count; its entry holds, per value, the values reached
        below it and above it.  A missing entry is computed from ``down``
        and stored while the table holds fewer entries than the tables have
        rows, so a variable with many parents cannot fill memory.  Two
        queries that race on a key store equal entries.
        """
        masks: list[int] = []
        reach, survivors = self._reach, masks.__getitem__
        for p, parents in enumerate(self.parents):
            key = (p, *map(survivors, parents))
            entry = reach.get(key)
            if entry is None:
                entry = self._reach_entry(p, masks)
                if len(reach) < self._reach_cap:
                    reach[key] = entry
            keep = entry[better[p]] & entry[~worse[p]]
            masks.append(keep)
            if not keep:
                break
        return masks

    def _reach_entry(self, p: int, masks: list[int]) -> tuple[int, ...]:
        """Per value of ``p``, the values that the arcs of the rows whose
        parent values survive in ``masks`` reach below it, then in reverse
        order the values they reach above it: one flat tuple, in which
        ``entry[v]`` is the reach below ``v`` and ``entry[~v]`` the reach
        above it."""
        size = len(self.domains[p])
        rows, weight = [0], size
        for q in reversed(self.parents[p]):
            offsets = [v * weight for v in range(len(self.domains[q])) if masks[q] >> v & 1]
            rows = [row + offset for row in rows for offset in offsets]
            weight *= len(self.domains[q])
        below, above = _arcs(self.down[p], rows, size)
        return (*[_walk(below, v) for v in range(size)],
                *[_walk(above, v) for v in reversed(range(size))])

    def path(self, moves: list[tuple[int, int, int]], direction: str) -> tuple[Flip, ...]:
        """The flips of ``moves``, ``(position, old, new)`` triples; every
        ``Flip`` the engine returns is built here.  A ``Flip`` is immutable,
        so each one is built on its first use and then shared."""
        built = self._flips[direction]
        for move in moves:
            if move not in built:
                p, old, new = move
                domain = self.domains[p]
                built[move] = Flip(self.names[p], domain[old], domain[new], direction)
        return tuple(map(built.__getitem__, moves))


def _effective(parents: list[int], rankings: list,
               sizes: list[int]) -> tuple[tuple[int, ...], list]:
    """The parents that a variable's table depends on, in declared order, and
    its rankings over them.  ``rankings`` lists the table's rows in the
    product order of ``parents``: the first parent varies slowest.  A parent
    is dropped when every two rows that differ only in its value hold the
    same ranking; the rows kept are those with each dropped parent at its
    first value.  Rows are compared as slices at the parent's stride."""
    if len(parents) == 1:
        if rankings.count(rankings[0]) == len(rankings):
            return (), rankings[:1]
        return tuple(parents), rankings
    kept = []
    stride = len(rankings)
    for q in parents:
        size = sizes[q]
        # q's value steps every ``stride`` rows and wraps every ``block``
        block, stride = stride, stride // size
        if block == len(rankings):  # q varies slowest of the parents left
            same = rankings[:stride] * size == rankings
        elif stride == 1:  # q varies fastest: its value is the row index mod size
            same = all([rankings[v::size] == rankings[::size] for v in range(1, size)])
        else:
            same = all([rankings[b:b + stride] * size == rankings[b:b + block]
                        for b in range(0, len(rankings), block)])
        if same:
            rankings = [ranking for b in range(0, len(rankings), block)
                        for ranking in rankings[b:b + stride]]
        else:
            kept.append(q)
    return tuple(kept), rankings


def _arcs(down: tuple, rows, size: int) -> tuple[list[int], list[int]]:
    """Per value, the values just below it (``below``) and just above it
    (``above``) in the rankings of the given rows of a ``down`` table."""
    below, above = [0] * size, [0] * size
    for row in rows:
        for value in range(size):
            worse = down[row + value]
            if worse:
                target = worse[0][1]
                below[value] |= 1 << target
                above[target] |= 1 << value
    return below, above


def _walk(arcs: list[int], start: int) -> int:
    """The bitmask of values that ``arcs`` reach from ``start``, itself included."""
    seen = pending = 1 << start
    while pending:
        value = pending.bit_length() - 1
        pending ^= 1 << value
        new = arcs[value] & ~seen
        seen |= new
        pending |= new
    return seen


def _compiled(net: CPNet, *outcomes: Outcome) -> tuple[_Core, list[list[int]]]:
    """The one way into the engine: validate the net and return its core,
    compiled on first use, with the outcomes checked and encoded in one
    pass.  An outcome that does not encode is left to ``model._usable``,
    which refuses each such outcome and names the first problem in
    declaration order."""
    _usable(net)
    core = net._core
    if core is None:
        core = net._core = _Core(net)  # one assignment of a finished core
    try:
        return core, [core.encode(o.values) for o in outcomes]
    except (AttributeError, KeyError, TypeError):  # not an Outcome, a tuple or the right length
        _usable(net, *outcomes)
        raise


def _suffix(core: _Core, vals: list[int], goal: list[int]) -> tuple[int, int]:
    """The suffix bitmasks of ``vals`` toward ``goal``:

    * ``unfixed``  - variables outside the fixed suffix: those that differ
                     from the goal, and all their ancestors;
    * ``frontier`` - members of ``unfixed`` with no child in it (all differ).

    Differing positions are read high to low, children before parents: one
    not yet in ``unfixed`` has no differing descendant, so it joins the
    frontier and its ancestors join ``unfixed``; no frontier bit is cleared.
    """
    anc = core.anc
    unfixed = frontier = 0
    for p in range(len(vals) - 1, -1, -1):
        if vals[p] != goal[p] and not unfixed >> p & 1:
            frontier |= 1 << p
            unfixed |= anc[p]
    return unfixed, frontier


def _refix(core: _Core, vals: list[int], goal: list[int], p: int, unfixed: int,
           frontier: int) -> tuple[int, int]:
    """``_suffix`` after a flip of ``p`` to ``vals[p]``, updated from the
    masks before it: only ``p`` and its ancestors can change."""
    if vals[p] == goal[p]:
        # p now matches: it and then its ancestors leave ``unfixed``,
        # children first, until one differs or keeps an unfixed child.
        child_mask, parent_mask = core.child_mask, core.parent_mask
        pending = 1 << p
        while pending:
            q = pending.bit_length() - 1
            bit = 1 << q
            pending ^= bit
            if child_mask[q] & unfixed:
                continue
            if vals[q] != goal[q]:
                frontier |= bit
                continue
            unfixed &= ~bit
            frontier &= ~bit
            pending |= parent_mask[q]
    elif not unfixed >> p & 1:
        # A fixed variable matches its goal, so p just left it and had no
        # differing descendant: it joins ``unfixed`` with all its
        # ancestors, which leave the frontier.
        frontier = frontier & ~core.anc[p] | 1 << p
        unfixed |= core.anc[p]
    return unfixed, frontier


def _extension(table: tuple, rows: list[int], vals: list[int], goal: list[int],
               frontier: int) -> int | None:
    """The suffix extension at ``vals``: the highest ``frontier`` variable
    that ``table`` lets flip onto its goal value, or ``None`` if none can."""
    while frontier:
        p = frontier.bit_length() - 1
        if (p, goal[p]) in table[p][rows[p] + vals[p]]:
            return p
        frontier ^= 1 << p
    return None


def _ordered(table: tuple, rows: list[int], vals: list[int], live: int,
             cfg: SearchConfig) -> list[tuple[int, int]]:
    """Every legal flip of the variables in ``live``, as (position, value)
    pairs in the engine's order: rightmost (or leftmost) variable first, then
    least-improving (or most-improving) target."""
    flips: list[tuple[int, int]] = []
    while live:
        p = (live if cfg.rightmost else live & -live).bit_length() - 1
        live ^= 1 << p
        entry = table[p][rows[p] + vals[p]]
        flips += entry if cfg.least_improving else entry[::-1]
    return flips


def _dfs(core: _Core, sides: list, cfg: SearchConfig) -> tuple:
    """A search that may backtrack, over one or both ``sides`` in one loop; a
    committed search runs as one flat walk instead (``_committed_walk``).
    Returns the verdict kind, expansions, backtracks, the deciding side's
    index, and for ``dominates`` the witness moves ``(position, old, new)``
    and whether a frontier meeting spliced them into one improving chain.

    Each step checks the budget, then advances the active side by one
    expansion, so a search expands at most ``budget`` nodes, each root
    included; two sides alternate strictly, roots first.  A side is
    ``(table, vals, rows, goal, goal_key, visited, stack, other)``: ``vals``
    and ``rows`` hold the outcome of its top frame, ``other`` is the other
    side's ``visited`` (empty in one direction), and an empty stack means an
    unexpanded root.  The search stops when a child is the side's goal or in
    ``other``, or the side's space is exhausted.

    A frame is ``(key, children, move, unfixed, frontier)``: the outcome's
    key, an iterator over its candidate flips that resumes where it
    stopped, the move that made it, and its suffix masks (see ``_suffix``).
    An advance reads the key and masks from the top frame, so a switch of
    sides saves nothing, and popping a frame reverts its move.  Only the top
    frame can have an exhausted child, so a flag local to one advance counts
    backtracks.  Candidates are read over ``unfixed`` (all variables without
    suffix fixing): a variable that cannot move has an empty table entry.

    The stack is the path from the root, so the witness moves are the
    frames' moves, then the last one.  At a frontier meeting the met node is
    always on the other side's stack: every cut preserves completeness from
    any node, so a node whose subtree was exhausted cannot reach its side's
    goal, and the meeting shows that this one does.
    """
    stride, fanout = core.stride, core.fanout
    extend, fix, dedup, budget = (cfg.suffix_extension, cfg.suffix_fixing,
                                  cfg.visited_dedup, cfg.budget)
    every = (1 << len(stride)) - 1
    seen = [set() for _ in sides]
    others = seen[::-1] if len(sides) == 2 else [()]
    states = [(table, list(start), core.rows(start), goal,
               sum(map(operator.mul, goal, stride)), visited, [], other)
              for (_, table, start, goal), visited, other in zip(sides, seen, others)]
    bidirectional = len(states) == 2
    active = expansions = backtracks = 0
    while True:
        if budget is not None and expansions >= budget:
            return BUDGET_EXHAUSTED, expansions, backtracks, active, None, False
        table, vals, rows, goal, goal_key, visited, stack, other = states[active]
        if stack:
            failed = False  # a child of the top frame was exhausted
            while True:
                key, children, _, unfixed, frontier = stack[-1]
                for p, value in children:
                    old = vals[p]
                    child = key + (value - old) * stride[p]
                    hit = child == goal_key or child in other
                    if dedup and not hit and child in visited:
                        continue  # silent dedup skip, not a tried sibling
                    if failed:
                        backtracks += 1
                        failed = False
                    if hit:
                        moves = [frame[2] for frame in stack[1:]] + [(p, old, value)]
                        met = 0
                        if bidirectional:
                            # the other side's root is this side's goal; a later frame is a meeting
                            there = states[1 - active][6]
                            met = [frame[0] for frame in there].index(child)
                        if met:
                            # Improving path y -> meet plus the reverse of the
                            # worsening path x -> meet, as one improving chain from y.
                            rest = [frame[2] for frame in there[1:met + 1]]
                            up, down = (rest, moves) if active else (moves, rest)
                            moves = up + [(q, new, old) for q, old, new in reversed(down)]
                        return DOMINATES, expansions, backtracks, active, moves, bool(met)
                    visited.add(child)
                    break
                else:
                    _, _, move, _, _ = stack.pop()
                    if not stack:
                        return NOT_DOMINATED, expansions, backtracks, active, None, False
                    p, old, new = move
                    vals[p] = old
                    for c, weight in fanout[p]:
                        rows[c] += (old - new) * weight
                    failed = True
                    continue
                break
            vals[p] = value
            for c, weight in fanout[p]:
                rows[c] += (value - old) * weight
            unfixed, frontier = _refix(core, vals, goal, p, unfixed, frontier)
            key, move = child, (p, old, value)
        else:
            key, move = sum(map(operator.mul, vals, stride)), None
            visited.add(key)
            unfixed, frontier = _suffix(core, vals, goal)
        p = _extension(table, rows, vals, goal, frontier) if extend else None
        if p is not None:
            children = [(p, goal[p])]
        else:
            children = _ordered(table, rows, vals, unfixed if fix else every, cfg)
        stack.append((key, iter(children), move, unfixed, frontier))
        expansions += 1
        if bidirectional:
            active = 1 - active


def dominates(net: CPNet, x: Outcome, y: Outcome, cfg: SearchConfig | None = None) -> Verdict:
    """Decide whether the net entails x > y.

    Improving search walks from y toward x, worsening from x toward y, and
    bidirectional mode alternates one expansion per side in one loop,
    concluding as soon as either side finishes or the frontiers meet
    (meeting at z gives x > z > y, hence x > y; the witnesses are spliced at
    z).  A search expands at most ``cfg.budget`` nodes, each root included.
    On a committed net (``_Core.committed``) no pre-check runs; otherwise the
    rank and forward-prune pre-checks run first.
    """
    cfg = _config(cfg)
    core, (xs, ys) = _compiled(net, x, y)
    if xs != ys and not core.committed(cfg):
        if core.rank(xs) <= core.rank(ys):
            return Verdict(NOT_DOMINATED, stats=SearchStats(decided_by="rank"))
        if not core.prune(xs, ys)[-1]:
            return Verdict(NOT_DOMINATED, stats=SearchStats(decided_by="prune"))
    return _verdict(core, x, y, xs, ys, cfg)


def _search(net: CPNet, x: Outcome, y: Outcome, cfg: SearchConfig) -> Verdict:
    """``dominates`` without the pre-check, so every negative is searched
    exhaustively; the oracle sweep checks the search itself through this."""
    core, (xs, ys) = _compiled(net, x, y)
    return _verdict(core, x, y, xs, ys, cfg)


def _verdict(core: _Core, x: Outcome, y: Outcome, xs: list[int], ys: list[int],
             cfg: SearchConfig) -> Verdict:
    """The one place a searched verdict is built: ``equal`` outcomes, or the
    stats of ``_flip_search`` and at most one witness, from its moves."""
    if xs == ys:
        return Verdict(NOT_DOMINATED, stats=SearchStats(decided_by="equal"))
    kind, total, backtracks, direction, moves, met = _flip_search(core, xs, ys, cfg)
    cut = kind == BUDGET_EXHAUSTED
    stats = SearchStats(total, backtracks, "none" if cut else direction,
                        "budget" if cut else "search")
    witness = None
    if kind == DOMINATES and cfg.want_witness:
        if met:
            direction = IMPROVING
        witness = FlipSequence(y if direction == IMPROVING else x, core.path(moves, direction))
    return Verdict(kind, witness, stats)


def _flip_search(core: _Core, xs: list[int], ys: list[int], cfg: SearchConfig) -> tuple:
    """The flip search proper, between two distinct encoded outcomes.  A side
    is ``(direction, table, start, goal)``, improving first; a committed
    search walks the first side alone (``_committed_walk``), any other runs
    ``_dfs`` over the sides.  Returns ``_dfs``'s tuple with the deciding
    side's direction for its index; a walk never backtracks or meets."""
    sides = [(IMPROVING, core.up, ys, xs), (WORSENING, core.down, xs, ys)]
    sides = sides if cfg.direction == BIDIRECTIONAL else [sides[cfg.direction == WORSENING]]
    if core.committed(cfg):
        direction, table, start, goal = sides[0]
        kind, total, moves = _committed_walk(core, table, list(start), goal, cfg.budget)
        return kind, total, 0, direction, moves, False
    kind, total, backtracks, side, moves, met = _dfs(core, sides, cfg)
    return kind, total, backtracks, sides[side][0], moves, met


def _committed_walk(core: _Core, table: tuple, vals: list[int], goal: list[int],
                    budget: int | None) -> tuple[str, int, list[tuple[int, int, int]]]:
    """A committed search (``_Core.committed``) as one flat loop over local
    state: flip the first candidate of ``vals`` in place until no variable
    is unfixed (``vals`` is ``goal``), none can move, or ``budget`` runs out;
    return the verdict kind, the expansions and the moves ``(p, old, new)``.

    It needs no frames and no visited set, since every flip strictly moves
    the rank and no outcome repeats.  The net is binary, so a variable that
    can move moves to its other value, and a frontier variable, which
    differs from its goal, moves onto it: the extension is the highest bit
    of ``frontier & movable``.  ``movable`` is built once from the start
    rows and updated at the children of each flip; the flipped variable
    keeps its row and now holds that row's end value, so it cannot move.
    """
    rows = core.rows(vals)
    unfixed, frontier = _suffix(core, vals, goal)
    movable = sum(1 << p for p, entries in enumerate(table) if entries[rows[p] + vals[p]])
    fanout = core.fanout
    moves: list[tuple[int, int, int]] = []
    expansions = 1  # the start
    kind = NOT_DOMINATED
    while True:
        if budget is not None and expansions >= budget:
            kind = BUDGET_EXHAUSTED
            break
        live = frontier & movable or movable & unfixed
        if not live:
            break
        p = live.bit_length() - 1
        old = vals[p]
        vals[p] = new = 1 - old
        moves.append((p, old, new))
        for c, weight in fanout[p]:
            rows[c] += (new - old) * weight
            if table[c][rows[c] + vals[c]]:
                movable |= 1 << c
            else:
                movable &= ~(1 << c)
        movable &= ~(1 << p)
        unfixed, frontier = _refix(core, vals, goal, p, unfixed, frontier)
        if not unfixed:
            kind = DOMINATES
            break
        expansions += 1

    return kind, expansions, moves
