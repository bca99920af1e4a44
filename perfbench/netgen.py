"""Seeded input generators for the benchmark.

Everything here is independent of the package under test: nets are built as
plain specs and written as text in the canonical form that
``serialize_cpnet`` emits, so the program receives only generated text and
outcome tuples.  The same ``random.Random`` seed always yields the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass
class NetSpec:
    """A net as plain data: variables in declaration order, parents by index,
    and one ranking (most preferred first) per tuple of parent values."""

    names: list[str]
    domains: list[tuple[str, ...]]
    parents: list[tuple[int, ...]]
    rows: list[dict[tuple[str, ...], tuple[str, ...]]]

    def __len__(self) -> int:
        return len(self.names)

    def children(self) -> list[list[int]]:
        children: list[list[int]] = [[] for _ in self.names]
        for i, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(i)
        return children

    def ranking(self, values: tuple[str, ...], i: int) -> tuple[str, ...]:
        return self.rows[i][tuple(values[p] for p in self.parents[i])]

    def text(self) -> str:
        """Canonical net text: var lines, parents lines, then cpt rows in the
        cartesian order of the parent domains."""
        lines = [f"var {n}: " + ", ".join(d) for n, d in zip(self.names, self.domains)]
        for n, ps in zip(self.names, self.parents):
            if ps:
                lines.append(f"parents {n}: " + ", ".join(self.names[p] for p in ps))
        for i, n in enumerate(self.names):
            ps = self.parents[i]
            for cond in itertools.product(*(self.domains[p] for p in ps)):
                ctx = ",".join(f"{self.names[p]}={v}" for p, v in zip(ps, cond))
                head = f"cpt {n}" + (f" | {ctx}" if ctx else "")
                lines.append(head + ": " + " > ".join(self.rows[i][cond]))
        return "\n".join(lines) + "\n"


def _with_rows(rng: random.Random, names, domains, parents) -> NetSpec:
    rows = []
    for i, domain in enumerate(domains):
        table = {}
        for cond in itertools.product(*(domains[p] for p in parents[i])):
            ranking = list(domain)
            rng.shuffle(ranking)
            table[cond] = tuple(ranking)
        rows.append(table)
    return NetSpec(list(names), list(domains), list(parents), rows)


def _binary(n: int) -> list[tuple[str, ...]]:
    return [(f"v{i}_0", f"v{i}_1") for i in range(n)]


def chain(rng: random.Random, n: int) -> NetSpec:
    """Binary chain X0 -> X1 -> ... declared parents first."""
    parents = [(i - 1,) if i else () for i in range(n)]
    return _with_rows(rng, [f"X{i}" for i in range(n)], _binary(n), parents)


def tree(rng: random.Random, n: int) -> NetSpec:
    """Binary forest: each variable has at most one earlier parent."""
    parents = [(rng.randrange(i),) if i and rng.random() < 0.9 else () for i in range(n)]
    return _with_rows(rng, [f"X{i}" for i in range(n)], _binary(n), parents)


MAX_PARENTS = 2
DOMAIN_SIZES = (2, 3)


def dag(rng: random.Random, n: int, window: int | None = None) -> NetSpec:
    """Random DAG over parents drawn from earlier variables (only the
    previous ``window`` ones when set).  Domain sizes and parent counts come
    in equal shares, shuffled (each of ``DOMAIN_SIZES``; 0..``MAX_PARENTS``
    parents, fewer where too few earlier variables exist), so nets of one
    size differ in their wiring and rows, not in their make-up."""
    sizes = [DOMAIN_SIZES[i % len(DOMAIN_SIZES)] for i in range(n)]
    wanted = [i % (MAX_PARENTS + 1) for i in range(n)]
    rng.shuffle(sizes)
    rng.shuffle(wanted)
    domains = []
    parents: list[tuple[int, ...]] = []
    for i in range(n):
        domains.append(tuple(f"v{i}_{k}" for k in range(sizes[i])))
        lo = 0 if window is None else max(0, i - window)
        k = min(wanted[i], i - lo)
        parents.append(tuple(sorted(rng.sample(range(lo, i), k))))
    return _with_rows(rng, [f"X{i}" for i in range(n)], domains, parents)


def child_first_chain(rng: random.Random, n: int) -> NetSpec:
    """A binary chain whose declarations run from the last child to the root."""
    base = chain(rng, n)
    order = list(reversed(range(n)))
    where = {old: new for new, old in enumerate(order)}
    return NetSpec(
        [base.names[i] for i in order],
        [base.domains[i] for i in order],
        [tuple(where[p] for p in base.parents[i]) for i in order],
        [base.rows[i] for i in order],
    )


def collision_net() -> NetSpec:
    """Two variables whose worsening STRIPS operators share the name
    ``A_b_x_to_c`` (``A: b_x -> c`` and ``A_b: x -> c``)."""
    return NetSpec(
        ["A", "A_b"],
        [("b_x", "c"), ("x", "c")],
        [(), ()],
        [{(): ("b_x", "c")}, {(): ("x", "c")}],
    )


# -- outcomes ------------------------------------------------------------------


def random_outcome(rng: random.Random, spec: NetSpec) -> tuple[str, ...]:
    return tuple(rng.choice(d) for d in spec.domains)


def improving_walk(
    rng: random.Random, spec: NetSpec, start: tuple[str, ...], steps: int
) -> tuple[str, ...]:
    """Apply up to ``steps`` improving flips, each drawn uniformly from all
    flips to a strictly better value under the current parent context; stops
    early at the best outcome."""
    values = list(start)
    n = len(spec)
    children = spec.children()
    widest = max(len(d) for d in spec.domains) - 1

    def better(i: int) -> tuple[str, ...]:
        ranking = spec.ranking(values, i)
        return ranking[: ranking.index(values[i])]

    moves = [better(i) for i in range(n)]
    total = sum(len(m) for m in moves)
    for _ in range(steps):
        if not total:
            break
        # Rejection sampling: variable i is kept with probability
        # len(moves[i]) / widest, so every single flip is equally likely.
        while True:
            i = rng.randrange(n)
            if rng.random() * widest < len(moves[i]):
                break
        values[i] = rng.choice(moves[i])
        for j in [i, *children[i]]:
            total -= len(moves[j])
            moves[j] = better(j)
            total += len(moves[j])
    return tuple(values)


def walk_pair(
    rng: random.Random, spec: NetSpec, lo: int, hi: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(x, y) with x reached from a random y by lo..hi improving flips, so x
    dominates y by construction; redrawn until the walk moves at all."""
    while True:
        y = random_outcome(rng, spec)
        x = improving_walk(rng, spec, y, rng.randint(lo, hi))
        if x != y:
            return x, y


def catalog_rows(
    rng: random.Random, spec: NetSpec, n_rows: int
) -> list[tuple[str, tuple[str, ...]]]:
    """Catalog rows in a fixed mix, shuffled: half random outcomes, a third
    improving walks of 2..8 flips from an earlier row (chains the memo can
    shortcut through), the rest exact copies of earlier rows."""
    n_walks = n_rows // 3
    n_copies = n_rows - n_rows // 2 - n_walks
    kinds = ["walk"] * n_walks + ["copy"] * n_copies
    kinds += ["random"] * (n_rows - len(kinds))
    rng.shuffle(kinds)
    kinds.remove("random")
    kinds.insert(0, "random")
    rows: list[tuple[str, ...]] = []
    for kind in kinds:
        if kind == "random":
            rows.append(random_outcome(rng, spec))
        elif kind == "walk":
            rows.append(improving_walk(rng, spec, rng.choice(rows), rng.randint(2, 8)))
        else:
            rows.append(rng.choice(rows))
    return [(f"r{k:03d}", values) for k, values in enumerate(rows)]


def catalog_text(spec: NetSpec, rows: list[tuple[str, tuple[str, ...]]]) -> str:
    """Canonical catalog text, as ``serialize_catalog`` writes it."""
    lines = ["id," + ",".join(spec.names)]
    lines.extend(",".join([ident, *values]) for ident, values in rows)
    return "\n".join(lines) + "\n"
