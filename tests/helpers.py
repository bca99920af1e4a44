"""Shared test machinery: fixture loading, random net generators, oracles."""

from __future__ import annotations

import itertools
import random
import sys
from collections import deque
from pathlib import Path
from typing import Iterable, Mapping

from cpnet import (
    CPNet,
    CPNetError,
    Outcome,
    PlanningProblem,
    Variable,
    dsl,
    model,
)
from cpnet.model import validate

FIXTURES = Path(__file__).parent / "fixtures"

# A net whose values start with a digit: words in net text are [A-Za-z0-9_]+.
DIGITS = """var A: 0, 1
var B: 1x, 2x
parents B: A
cpt A: 1 > 0
cpt B | A=0: 1x > 2x
cpt B | A=1: 2x > 1x
"""


def load_net(name: str) -> CPNet:
    result = dsl.parse_cpnet((FIXTURES / f"{name}.cpnet").read_text())
    assert result.ok, [str(d) for d in result.diagnostics]
    report = validate(result.net)
    assert report.ok, report.problems
    return result.net


def outcome(net: CPNet, text: str) -> Outcome:
    """Shorthand: build an outcome from 'A=a,B=b' text."""
    return dsl.parse_outcome(net, text)


def o_values(net: CPNet, *values: str) -> Outcome:
    """Build an outcome positionally, in variable declaration order."""
    return Outcome(tuple(values))


def wide_text(n_parents: int) -> str:
    """Net text: binary roots P0, P1, ... and a child C of them all with one CPT
    row, under P0=a,P1=a,...; every other row of C is missing."""
    names = [f"P{k}" for k in range(n_parents)]
    return ("".join(f"var {p}: a, b\ncpt {p}: a > b\n" for p in names)
            + "var C: c, d\nparents C: " + ", ".join(names) + "\n"
            + "cpt C | " + ",".join(f"{p}=a" for p in names) + ": c > d\n")


def make_net(spec: list[tuple[str, list[str], list[str]]], rows: dict) -> CPNet:
    """Construct a net from (name, domain, parents) triples and a
    {name: {parent-values-tuple: ranking-tuple}} table map."""
    variables = [Variable(n, tuple(d), tuple(p)) for n, d, p in spec]
    net = CPNet(variables, rows)
    report = validate(net)
    assert report.ok, report.problems
    return net


# -- random generators -------------------------------------------------------


def _random_tables(
    rng: random.Random, variables: list[Variable]
) -> dict[str, dict[tuple[str, ...], tuple[str, ...]]]:
    domains = {v.name: v.domain for v in variables}
    tables: dict[str, dict[tuple[str, ...], tuple[str, ...]]] = {}
    for v in variables:
        rows: dict[tuple[str, ...], tuple[str, ...]] = {}
        parent_domains = [domains[p] for p in v.parents]
        for cond in itertools.product(*parent_domains) if v.parents else [()]:
            ranking = list(v.domain)
            rng.shuffle(ranking)
            rows[cond] = tuple(ranking)
        tables[v.name] = rows
    return tables


def _finish(rng: random.Random, variables: list[Variable]) -> CPNet:
    net = CPNet(variables, _random_tables(rng, variables))
    report = validate(net)
    assert report.ok, report.problems
    return net


def random_net(
    rng: random.Random,
    n_vars: int,
    domain_sizes: tuple[int, ...] = (2,),
    max_parents: int = 3,
) -> CPNet:
    """A random acyclic net: each variable picks parents among earlier ones."""
    variables: list[Variable] = []
    for i in range(n_vars):
        size = rng.choice(domain_sizes)
        domain = tuple(f"v{i}_{k}" for k in range(size))
        k = rng.randint(0, min(max_parents, i))
        parents = tuple(v.name for v in rng.sample(variables, k)) if k else ()
        variables.append(Variable(f"X{i}", domain, parents))
    return _finish(rng, variables)


def random_chain(rng: random.Random, n_vars: int) -> CPNet:
    """A binary chain X0 -> X1 -> ... -> Xn-1 with random rankings."""
    variables = [
        Variable(
            f"X{i}",
            (f"v{i}_0", f"v{i}_1"),
            (f"X{i-1}",) if i else (),
        )
        for i in range(n_vars)
    ]
    return _finish(rng, variables)


def random_tree(rng: random.Random, n_vars: int) -> CPNet:
    """A binary net where every variable has at most one (earlier) parent."""
    variables: list[Variable] = []
    for i in range(n_vars):
        parents: tuple[str, ...] = ()
        if i and rng.random() < 0.9:
            parents = (f"X{rng.randrange(i)}",)
        variables.append(Variable(f"X{i}", (f"v{i}_0", f"v{i}_1"), parents))
    return _finish(rng, variables)


def random_one_parent_tables(rng: random.Random, n_vars: int) -> CPNet:
    """A binary net in which each variable declares up to two earlier
    parents, but its table depends on at most one of them: the rows under
    one declared parent's first value share a random ranking and the rows
    under its second value the reverse, and a variable that depends on none
    has one ranking throughout."""
    variables, tables = [], {}
    for i in range(n_vars):
        k = rng.randint(0, min(2, i))
        parents = tuple(v.name for v in rng.sample(variables, k))
        kept = rng.randrange(k + 1)  # the position of the parent it depends on; k: none
        domain = (f"v{i}_0", f"v{i}_1")
        ranking = tuple(rng.sample(domain, 2))
        conds = itertools.product(*(variables[int(q[1:])].domain for q in parents))
        variables.append(Variable(f"X{i}", domain, parents))
        tables[f"X{i}"] = {
            cond: ranking if kept == k or cond[kept].endswith("_0") else ranking[::-1]
            for cond in conds
        }
    net = CPNet(variables, tables)
    report = validate(net)
    assert report.ok, report.problems
    return net


def random_star(rng: random.Random, n_parents: int) -> CPNet:
    """A binary net of ``n_parents`` roots and one child of them all."""
    roots = [Variable(f"X{i}", (f"v{i}_0", f"v{i}_1"), ()) for i in range(n_parents)]
    child = Variable(f"X{n_parents}", ("c0", "c1"), tuple(v.name for v in roots))
    return _finish(rng, [*roots, child])


def all_pairs(net: CPNet) -> list[tuple[Outcome, Outcome]]:
    outcomes = [
        Outcome(values)
        for values in itertools.product(*(v.domain for v in net.variables))
    ]
    return [(a, b) for a in outcomes for b in outcomes if a != b]


def brute_force_improving_flips(net: CPNet, z: Outcome) -> set[tuple[str, str, str]]:
    """Independent route: read each variable's row and list every strictly
    better value, without going through legal_flips."""
    found: set[tuple[str, str, str]] = set()
    for v in net.variables:
        cond = tuple(z.values[net.index(p)] for p in v.parents)
        ranking = net.tables[v.name][cond]
        current = z.values[net.index(v.name)]
        for candidate in ranking:
            if candidate == current:
                break
            found.add((v.name, current, candidate))
    return found


def effective_parents(net: CPNet) -> dict[str, tuple[str, ...]]:
    """Per variable, the declared parents that its table depends on, in
    declared order: a parent is kept when some two rows of the table that
    differ only in that parent's value hold different rankings.  Reads
    ``net.tables`` alone, never the compiled core."""
    domains = {v.name: v.domain for v in net.variables}
    kept = {}
    for v in net.variables:
        table = net.tables[v.name]
        kept[v.name] = tuple(
            q for j, q in enumerate(v.parents)
            if any(table[cond] != table[cond[:j] + (value,) + cond[j + 1:]]
                   for cond in table for value in domains[q])
        )
    return kept


def reference_tables(net: CPNet) -> tuple[tuple, tuple]:
    """``_Core.up`` and ``_Core.down`` by their definition, one cell at a
    time from ``ranking.index``, with no slicing of a row's flips: per
    topological position ``p``, per row of the effective parents in product
    order (``effective_parents``), read with each other declared parent at
    its first value, and per value in domain order, the strictly better
    (worse) values as flips ``(p, k)``, nearest first."""
    parents = effective_parents(net)
    up, down = [], []
    for p, i in enumerate(net._topo):
        v = net.variables[i]
        flip_to = {value: (p, k) for k, value in enumerate(v.domain)}
        first = {q: net.variable(q).domain[0] for q in v.parents}
        better, worse = [], []
        for cond in itertools.product(*(net.variable(q).domain for q in parents[v.name])):
            held = {**first, **dict(zip(parents[v.name], cond))}
            ranking = net.tables[v.name][tuple(held[q] for q in v.parents)]
            for value in v.domain:
                r = ranking.index(value)
                better.append(tuple(flip_to[t] for t in reversed(ranking[:r])))
                worse.append(tuple(flip_to[t] for t in ranking[r + 1:]))
        up.append(tuple(better))
        down.append(tuple(worse))
    return tuple(up), tuple(down)


def reference_solve(problem: PlanningProblem, cap: int = 2**16) -> list[str] | None:
    """The breadth-first solver over ``frozenset`` states that
    ``solve_planning_problem`` replaced, kept as its oracle: the same search,
    operator order, goal test and cap, on the sets themselves.  It has no
    entry check, so it takes only well-typed problems."""
    start, goal = frozenset(problem.init), problem.goal
    if goal <= start:
        return []
    seen = {start}
    queue: deque[tuple[frozenset, list[str]]] = deque([(start, [])])
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


def coverage_exit(counts: Mapping[str, int], labels: Iterable[str]) -> int:
    """A digest script's exit code: 0 when its sweep reached each of
    ``labels`` (a count above 0 in ``counts``), else 1, after naming on
    stderr the ones it missed."""
    missed = [label for label in labels if not counts.get(label)]
    if missed:
        print("sweep did not reach: " + ", ".join(missed), file=sys.stderr)
    return 1 if missed else 0


def pinned_exit(seed: int, found: Mapping[str, object],
                pinned: Mapping[int, Mapping[str, str]]) -> int:
    """A digest script's exit code for its pins: 1 when ``seed`` is in
    ``pinned`` and one of its pinned digests is not the one in ``found``,
    after naming each expected and actual value on stderr, else 0.  An
    unpinned seed is not compared."""
    moved = [(label, want) for label, want in pinned.get(seed, {}).items()
             if found[label] != want]
    for label, want in moved:
        print(f"seed {seed}: expected {label} sha256 {want}, got {found[label]}", file=sys.stderr)
    return 1 if moved else 0
