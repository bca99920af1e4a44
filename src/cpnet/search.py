"""Dominance queries as search over improving/worsening flip trees.

The engine answers "does the net entail x > y?" by depth-first search for a
flipping sequence, either upward from y (improving), downward from x
(worsening), or both at once with a deterministic strict alternation that
concludes when the two frontiers meet.  The flipping sequence is the proof,
and the DFS stack already holds it: a witness is the path of frames from the
start to the node that hit, and at a frontier meeting the other side's stack
down to the met node, reversed (see ``_Searcher``).

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
``SearchStats.decided_by`` names the stage that answered.

On nets where every variable is binary and has at most one parent, the
rightmost choice (with both suffix rules active) is itself safe to commit:
search on chains and trees of binary variables then proceeds without
backtracking, and the brute-force oracle in this module is the reference
that the test suite checks this against.  Such a search is one linear walk:
the pre-check is skipped, bidirectional mode runs the improving side alone
(complete on its own), and a walk that dead-ends stops there, since no other
branch exists to unwind to.

A validated net is frozen, and the first query compiles it into an integer
core (``_Core``) that is cached on the net and shared read-only by concurrent
queries.  A searched outcome keeps its fixed suffix and extension frontier as
bitmasks that a flip updates locally, so the rightmost extension or candidate
is the highest set bit.  ``fixed_suffix``, ``extend_suffix`` and
``order_flips`` read that same state; strings return only in witnesses.
Every query, view and catalog pass enters the core through ``_compiled``.
"""

from __future__ import annotations

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
    _targets,
)

BIDIRECTIONAL = "bidirectional"

DOMINATES = "dominates"
NOT_DOMINATED = "not_dominated"
BUDGET_EXHAUSTED = "budget_exhausted"


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
        if self.budget is not None and self.budget < 1:
            raise CPNetError("budget must be at least 1 when bounded")


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
    that neither differs from ``x`` nor has a descendant that does."""
    core, (zs, xs) = _compiled(net, z, x)
    unfixed = _Searcher(core, zs, xs, IMPROVING, SearchConfig()).unfixed
    return frozenset(name for p, name in enumerate(core.names) if not unfixed >> p & 1)


def extend_suffix(net: CPNet, z: Outcome, x: Outcome, direction: str) -> Flip | None:
    """The move the engine commits at ``z`` searching toward ``x``, if any: a
    legal flip that sets a variable outside ``fixed_suffix(net, z, x)``, all
    of whose children are inside it, to its value in ``x``; the rightmost
    such flip."""
    _check_direction(direction)
    core, (zs, xs) = _compiled(net, z, x)
    state = _Searcher(core, zs, xs, direction, SearchConfig())
    extension = state.frontier & state.reach
    if not extension:
        return None
    p = extension.bit_length() - 1
    return core.flip(p, zs[p], xs[p], direction)


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
    for flip in candidates:
        _check_direction(flip.direction)
    core, (zs, xs) = _compiled(net, z, x)
    rank: dict[Flip, int] = {}
    for direction in {f.direction for f in candidates}:
        state = _Searcher(core, zs, xs, direction, cfg)
        for k, (p, value) in enumerate(state.ordered(state.movable)):
            rank[core.flip(p, zs[p], value, direction)] = k

    def position(flip: Flip) -> int:
        try:
            return rank[flip]
        except (KeyError, TypeError):  # TypeError: a field is unhashable
            raise CPNetError(f"not a sanctioned flip at this outcome: {flip}") from None

    return sorted(candidates, key=position)


# -- brute-force oracle ----------------------------------------------------


def _check_cap(net: CPNet, cap: int) -> None:
    net._require_valid()
    if math.prod(len(v.domain) for v in net.variables) > cap:
        raise CPNetError(f"outcome space exceeds oracle cap {cap}")


def all_outcomes(net: CPNet) -> list[Outcome]:
    """Every outcome of the net, in lexicographic declaration order."""
    net._require_valid()
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
    _check_cap(net, cap)
    net.check_outcome(x)
    net.check_outcome(y)
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
    worsening mirror from x to y, every flip labelled with that direction.
    The empty sequence proves nothing."""
    net._require_valid()
    net.check_outcome(x)
    net.check_outcome(y)
    if not seq.flips:
        return False
    if seq.start == y and _replays(net, seq, IMPROVING, x):
        return True
    if seq.start == x and _replays(net, seq, WORSENING, y):
        return True
    return False


def _replays(net: CPNet, seq: FlipSequence, direction: str, goal: Outcome) -> bool:
    values = seq.start.values
    seen = {values}
    for flip in seq.flips:
        if flip.direction != direction:
            return False
        try:
            i = net.index(flip.variable)
        except CPNetError:
            return False
        if values[i] != flip.from_value:
            return False
        if flip.to_value not in _targets(net, values, i, direction):
            return False
        nxt = list(values)
        nxt[i] = flip.to_value
        values = tuple(nxt)
        if values in seen:
            return False
        seen.add(values)
    return values == goal.values


# -- the engine --------------------------------------------------------------


class _Core:
    """The integer form of a validated net, which is what the engine searches.

    A variable is its topological position ``p``, a value its index in the
    domain, a set of variables an int bitmask over positions.  ``up[p]`` and
    ``down[p]`` are flat tables indexed by ``row + value``, where ``row`` is
    the mixed-radix parent index times the domain size; an entry holds the
    improving (worsening) flips ``(p, target)`` in least-improving order, so
    its first entry is the adjacent value of the row's ranking.  ``rank`` and
    ``prune`` read the same tables; the catalog pass orders outcomes by rank.
    """

    def __init__(self, net: CPNet):
        order = [net._index[name] for name in net._topo]
        variables = [net.variables[i] for i in order]
        pos = {v.name: p for p, v in enumerate(variables)}
        parents = [[pos[name] for name in v.parents] for v in variables]
        self.names = tuple(v.name for v in variables)
        self.domains = tuple(v.domain for v in variables)
        # per position: its value -> index map and its declaration index
        self.codes = tuple(({value: k for k, value in enumerate(v.domain)}, i)
                           for v, i in zip(variables, order))
        self.single_parent_binary = all(
            len(v.domain) == 2 and len(v.parents) <= 1 for v in variables
        )
        # fanout[q]: (child, weight of q's value in the child's row) pairs;
        # fanin[p]: the same pairs seen from the child, (parent, weight)
        fanout: list[list[tuple[int, int]]] = [[] for _ in variables]
        fanin: list[list[tuple[int, int]]] = [[] for _ in variables]
        up, down, anc = [], [], []  # anc: ancestors-or-self masks
        arcs = []  # the prune's arcs with every row consistent
        for p, v in enumerate(variables):
            weight, mask = len(v.domain), 1 << p
            for q in reversed(parents[p]):
                fanout[q].append((p, weight))
                fanin[p].append((q, weight))
                weight *= len(self.domains[q])
                mask |= anc[q]
            anc.append(mask)
            better, worse = [], []
            flip_to = {value: (p, k) for k, value in enumerate(v.domain)}  # shared pairs
            for cond in itertools.product(*(self.domains[q] for q in parents[p])):
                ranking = net.tables[v.name][cond]
                for value in v.domain:
                    r = ranking.index(value)
                    better.append(tuple(flip_to[t] for t in reversed(ranking[:r])))
                    worse.append(tuple(flip_to[t] for t in ranking[r + 1:]))
            up.append(tuple(better))
            down.append(tuple(worse))
            size = len(v.domain)
            arcs.append(_arcs(down[p], range(0, len(worse), size), size))
        self.up = tuple(up)
        self.down = tuple(down)
        self.fanout = tuple(tuple(f) for f in fanout)
        self.fanin = tuple(tuple(f) for f in fanin)
        self.arcs = tuple(arcs)
        self.touched = tuple((q,) + tuple(c for c, _ in f) for q, f in enumerate(self.fanout))
        self.child_mask = tuple(sum(1 << c for c, _ in f) for f in self.fanout)
        self.parent_mask = tuple(sum(1 << q for q in ps) for ps in parents)
        self.anc = tuple(anc)
        # rank weights A(p) = 1 + sum of A(c)(|D_c| - 1) over the children c
        weight = [1] * len(variables)
        for p in reversed(range(len(variables))):
            weight[p] += sum(weight[c] * (len(self.domains[c]) - 1) for c, _ in fanout[p])
        self.rank_weight = tuple(weight)
        # mixed-radix weights that make an outcome one int key
        sizes = [len(d) for d in self.domains[:-1]]
        self.stride = tuple(itertools.accumulate(sizes, operator.mul, initial=1))

    def encode(self, values: tuple[str, ...]) -> list[int]:
        return [code[values[i]] for code, i in self.codes]

    def committed(self, cfg: SearchConfig) -> bool:
        """Whether a search under ``cfg`` commits to its first candidate.  On
        binary nets where no variable has two parents, the first-ordered move
        under the full rule set never needs reconsidering, so each node keeps
        a single child and chains and trees search backtrack-free."""
        return (self.single_parent_binary and cfg.rightmost
                and cfg.suffix_fixing and cfg.suffix_extension)

    def rows(self, vals: list[int]) -> list[int]:
        """Each variable's parent row, times its domain size, at ``vals``."""
        rows = [0] * len(vals)
        for q, value in enumerate(vals):
            for c, weight in self.fanout[q]:
                rows[c] += value * weight
        return rows

    def rank(self, vals: list[int]) -> int:
        """The rank of Laing, Thwaites & Gosling (JAIR 2019): the sum over
        variables of ``A(p)`` times the number of values ranked below the
        current one.  Every improving flip raises it by at least 1, so x > y
        implies rank(x) > rank(y)."""
        return sum(
            a * (len(domain) - 1 - len(up[row + value]))
            for a, domain, up, row, value in zip(
                self.rank_weight, self.domains, self.up, self.rows(vals), vals
            )
        )

    def prune(self, better: list[int], worse: list[int]) -> list[int]:
        """The forward pruning of Boutilier et al. (JAIR 2004).  Parents
        first, each variable keeps the values on some walk from its value in
        ``better`` to its value in ``worse`` along the arcs of the rows whose
        parent values all survive; an arc joins a value to the one just below
        it in a row.  Returns the survivor bitmasks in topological order,
        ending at the first empty one, which refutes better > worse."""
        masks: list[int] = []
        partial = 0  # variables that lost a value
        for p, fanin in enumerate(self.fanin):
            size = len(self.domains[p])
            if partial & self.parent_mask[p]:
                rows = [0]
                for q, weight in fanin:
                    values = [v * weight for v in range(len(self.domains[q])) if masks[q] >> v & 1]
                    rows = [row + offset for row in rows for offset in values]
                below, above = _arcs(self.down[p], rows, size)
            else:
                below, above = self.arcs[p]
            keep = _walk(below, better[p]) & _walk(above, worse[p])
            masks.append(keep)
            if not keep:
                break
            if keep != (1 << size) - 1:
                partial |= 1 << p
        return masks

    def flip(self, p: int, old: int, new: int, direction: str) -> Flip:
        domain = self.domains[p]
        return Flip(self.names[p], domain[old], domain[new], direction)


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
    """The one way into the engine: validate the net, check every outcome
    before anything hashes it, and return the net's core, compiled on first
    use, with the outcomes encoded."""
    net._require_valid()
    for o in outcomes:
        net.check_outcome(o)
    core = net._core
    if core is None:
        core = net._core = _Core(net)  # one assignment of a finished core
    return core, [core.encode(o.values) for o in outcomes]


class _Frame:
    __slots__ = ("key", "children", "failed", "move")

    def __init__(self, key: int, children: list[tuple[int, int]],
                 move: tuple[int, int, int] | None):
        self.key = key
        self.children = iter(children)  # (position, value); resumes where it stopped
        self.failed = False  # a tried child's subtree was exhausted
        self.move = move  # (position, old value, new value) that made this outcome


_FOUND = "found"
_EXHAUSTED = "exhausted"
_EXPANDED = "expanded"


class _Searcher:
    """One direction of the search: DFS from ``start`` toward ``goal``.

    It holds the outcome of its top frame (popping a frame undoes its flip)
    and keeps these bitmasks up to date flip by flip:

    * ``unfixed``  - variables outside the fixed suffix: those that differ
                     from the goal, and all their ancestors;
    * ``frontier`` - members of ``unfixed`` with no child in it (all differ);
    * ``movable``  - variables with at least one legal flip;
    * ``reach``    - variables whose goal value is a legal flip target.

    A flip of ``p`` moves the parent rows of its children only, so ``movable``
    and ``reach`` change at ``p`` and its children, ``unfixed`` and
    ``frontier`` at ``p`` and its ancestors.

    Each frame keeps the move that made it, so the stack is the path from the
    start and the witness is read off it (``path_to``): the frames' moves,
    then the move onto the hit.  At a frontier meeting the met node is always
    on the other side's stack: every cut preserves completeness from any
    node, so a node whose subtree was exhausted cannot reach its side's goal,
    and the meeting shows that this one does.
    """

    def __init__(self, core: _Core, start: list[int], goal: list[int], direction: str,
                 cfg: SearchConfig):
        self.core = core
        self.table = table = core.up if direction == IMPROVING else core.down
        self.vals = vals = list(start)
        self.goal = goal
        self.rows = rows = core.rows(vals)
        start_key = sum(map(operator.mul, vals, core.stride))
        self.goal_key = sum(map(operator.mul, goal, core.stride))
        movable = reach = unfixed = frontier = 0
        child_mask = core.child_mask
        for p in range(len(vals) - 1, -1, -1):
            bit = 1 << p
            value = vals[p]
            flips = table[p][rows[p] + value]
            if flips:
                movable |= bit
                if (p, goal[p]) in flips:
                    reach |= bit
            if child_mask[p] & unfixed:
                unfixed |= bit
            elif value != goal[p]:
                unfixed |= bit
                frontier |= bit
        self.movable, self.reach, self.unfixed, self.frontier = movable, reach, unfixed, frontier
        self.direction = direction
        self.cfg = cfg
        self.committed = core.committed(cfg)
        self.visited: set[int] = {start_key}
        self.stack: list[_Frame] = [_Frame(start_key, self.candidates(), None)]
        self.expansions = 1  # the root expansion above
        self.backtracks = 0
        self.hit: int | None = None
        self.hit_move: tuple[int, int, int] | None = None  # the move onto ``hit``

    def flip(self, p: int, value: int) -> None:
        core, vals, rows, table, goal = self.core, self.vals, self.rows, self.table, self.goal
        old = vals[p]
        vals[p] = value
        for c, weight in core.fanout[p]:
            rows[c] += (value - old) * weight
        movable, reach = self.movable, self.reach
        for q in core.touched[p]:
            bit = 1 << q
            flips = table[q][rows[q] + vals[q]]
            movable = movable | bit if flips else movable & ~bit
            reach = reach | bit if (q, goal[q]) in flips else reach & ~bit
        self.movable, self.reach = movable, reach
        if value == goal[p]:
            # p now matches: it and then its ancestors leave ``unfixed``,
            # children first, until one differs or keeps an unfixed child.
            child_mask, parent_mask = core.child_mask, core.parent_mask
            unfixed, frontier = self.unfixed, self.frontier
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
            self.unfixed, self.frontier = unfixed, frontier
        elif old == goal[p] and not self.unfixed >> p & 1:
            # p now differs and had no differing descendant: it joins
            # ``unfixed`` with all its ancestors, which leave the frontier.
            self.frontier = self.frontier & ~core.anc[p] | 1 << p
            self.unfixed |= core.anc[p]

    def ordered(self, live: int) -> list[tuple[int, int]]:
        """Every legal flip of the variables in ``live``, in the engine's
        order: rightmost (or leftmost) variable first, then least-improving
        (or most-improving) target."""
        table, rows, vals, cfg = self.table, self.rows, self.vals, self.cfg
        flips: list[tuple[int, int]] = []
        while live:
            p = (live if cfg.rightmost else live & -live).bit_length() - 1
            live ^= 1 << p
            entry = table[p][rows[p] + vals[p]]
            flips += entry if cfg.least_improving else entry[::-1]
        return flips

    def candidates(self) -> list[tuple[int, int]]:
        """The children of the current outcome, as (position, value) pairs."""
        cfg = self.cfg
        if cfg.suffix_extension:
            extension = self.frontier & self.reach
            if extension:
                p = extension.bit_length() - 1
                return [(p, self.goal[p])]
        live = self.movable & self.unfixed if cfg.suffix_fixing else self.movable
        if self.committed:
            # binary, so the rightmost movable variable has one flip
            if not live:
                return []
            p = live.bit_length() - 1
            return [self.table[p][self.rows[p] + self.vals[p]][0]]
        return self.ordered(live)

    def advance(self, other_visited: set[int] | None) -> str:
        """Run until one node gets expanded, the goal (or the other
        frontier) is hit, or this side's space is exhausted."""
        stack, vals, stride, visited = self.stack, self.vals, self.core.stride, self.visited
        while stack:
            frame = stack[-1]
            for p, value in frame.children:
                old = vals[p]
                child = frame.key + (value - old) * stride[p]
                is_new = child not in visited
                hit = child == self.goal_key or (
                    other_visited is not None and child in other_visited
                )
                if not is_new and self.cfg.visited_dedup and not hit:
                    continue  # silent dedup skip, not a tried sibling
                if frame.failed:
                    self.backtracks += 1
                    frame.failed = False
                if is_new:
                    visited.add(child)
                if hit:
                    self.hit, self.hit_move = child, (p, old, value)
                    return _FOUND
                self.flip(p, value)
                stack.append(_Frame(child, self.candidates(), (p, old, value)))
                self.expansions += 1
                return _EXPANDED
            if self.committed:
                # One child per frame, and no flip revisits an outcome, so a
                # committed path that dead-ends has no branch left to try.
                return _EXHAUSTED
            stack.pop()
            if stack:
                p, old, _ = frame.move
                self.flip(p, old)
                stack[-1].failed = True
        return _EXHAUSTED

    def path_to(self, key: int) -> list[Flip]:
        """The flips from the start to ``key``, read off the stack: ``key``
        is the hit, reached from the top frame, or the key of a frame."""
        moves = [frame.move for frame in self.stack[1:]]
        if key == self.hit:
            moves.append(self.hit_move)
        else:
            del moves[[frame.key for frame in self.stack].index(key):]
        return [self.core.flip(p, old, new, self.direction) for p, old, new in moves]


def dominates(net: CPNet, x: Outcome, y: Outcome, cfg: SearchConfig | None = None) -> Verdict:
    """Decide whether the net entails x > y.

    Improving search walks from y toward x, worsening from x toward y, and
    bidirectional mode alternates one expansion per side, concluding as soon
    as either side finishes or the frontiers meet (meeting at z gives
    x > z > y, hence x > y; the witnesses are spliced at z).  A committed
    search (``_Core.committed``) is one walk, so there bidirectional mode
    runs the improving side alone and no pre-check runs; otherwise the rank
    and forward-prune pre-checks run first.
    """
    cfg = cfg or SearchConfig()
    core, (xs, ys) = _compiled(net, x, y)
    if xs != ys and not core.committed(cfg):
        stats = SearchStats()
        if core.rank(xs) <= core.rank(ys):
            stats.decided_by = "rank"
        elif not core.prune(xs, ys)[-1]:
            stats.decided_by = "prune"
        if stats.decided_by != "none":
            return Verdict(NOT_DOMINATED, stats=stats)
    return _flip_search(core, x, y, xs, ys, cfg)


def _search(net: CPNet, x: Outcome, y: Outcome, cfg: SearchConfig) -> Verdict:
    """``dominates`` without the pre-check, so every negative is searched
    exhaustively; the oracle sweep checks the search itself through this."""
    core, (xs, ys) = _compiled(net, x, y)
    return _flip_search(core, x, y, xs, ys, cfg)


def _flip_search(
    core: _Core, x: Outcome, y: Outcome, xs: list[int], ys: list[int], cfg: SearchConfig
) -> Verdict:
    """The flip search proper, from the encoded outcomes."""
    if xs == ys:
        return Verdict(NOT_DOMINATED, stats=SearchStats(decided_by="equal"))

    direction = cfg.direction
    if direction == BIDIRECTIONAL and core.committed(cfg):
        direction = IMPROVING  # a committed walk is complete on its own
    searchers: list[_Searcher] = []
    if direction in (IMPROVING, BIDIRECTIONAL):
        searchers.append(_Searcher(core, ys, xs, IMPROVING, cfg))
    if direction in (WORSENING, BIDIRECTIONAL):
        searchers.append(_Searcher(core, xs, ys, WORSENING, cfg))
    bidirectional = len(searchers) == 2

    active = 0
    total = len(searchers)  # one root expansion each
    while True:
        side = searchers[active]
        if cfg.budget is not None and total >= cfg.budget:
            kind, decided = BUDGET_EXHAUSTED, "none"
            break
        outcome = side.advance(searchers[1 - active].visited if bidirectional else None)
        if outcome != _EXPANDED:
            kind = DOMINATES if outcome == _FOUND else NOT_DOMINATED
            decided = side.direction
            break
        total += 1
        if bidirectional:
            active = 1 - active

    stats = SearchStats(
        sum(s.expansions for s in searchers),
        sum(s.backtracks for s in searchers),
        decided,
        "budget" if kind == BUDGET_EXHAUSTED else "search",
    )
    witness = None
    if kind == DOMINATES and cfg.want_witness:
        meet = side.hit
        if not bidirectional or meet == side.goal_key:
            start = y if side.direction == IMPROVING else x
            witness = FlipSequence(start, tuple(side.path_to(meet)))
        else:
            # Frontier meeting: improving path y -> meet plus the reverse of
            # the worsening path x -> meet, emitted as one improving chain.
            up, down = searchers
            back = [f.reversed() for f in reversed(down.path_to(meet))]
            witness = FlipSequence(y, tuple(up.path_to(meet) + back))
    return Verdict(kind, witness, stats)
