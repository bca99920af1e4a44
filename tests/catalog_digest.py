"""Catalog digest: SHA-256s over the layers and reports of a seeded sweep of
catalog passes, to show that two versions of the pass agree.

    python tests/catalog_digest.py SEED

It builds 300 nets from ``SEED`` (100 binary chains and 100 binary trees of
3-7 variables, 100 random nets of 3-5 variables with domains 2-3 and up to 3
parents) and draws 5 catalogs per net, each of 10 rows over a pool of 6
outcomes, so that some rows repeat.  Each catalog is sorted with
``sort_catalog`` and split with ``pareto_front``, with no budget and with
budgets 1, 2, 3, 5 and 8.  It prints four digests, each of the ``repr`` of
the results in that order:

* ``sort``: every layering, at every budget;
* ``pareto``: the reports with no budget;
* ``budgeted pareto``: the reports under a budget, with the number of
  undecided id pairs they hold;
* ``reader``: the rows and diagnostic texts of ``parse_catalog`` on each
  catalog written by ``serialize_catalog`` (some ids renamed so that they
  are quoted, and at times a last row line that repeats the first id,
  which ``serialize_catalog`` refuses to write) and on ``MUTANTS`` copies of
  that text with a few seeded ``EDITS`` each: an inserted space, tab,
  no-break space, ideographic space, quote, doubled quote, comma, blank line
  or CRLF, or a deleted character.

It exits 1 if the budgeted reports hold no undecided pair (``REACH``), or
if the seed is in ``PINNED`` and one of its four digests is not the pinned
one.
The first two are the answers of the pass.  A budgeted report may change
where a pair that ran out of budget is settled by other means.  The reader's
edits are drawn from their own generator, so the first three digests do not
depend on them.  The script is stdlib-only and is not collected by pytest.
``tests/transcript.py`` records a slice of the same sweep: one net per
family and two catalogs per net.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import random
import sys
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parents[1] / "src"
BUDGETS = (None, 1, 2, 3, 5, 8)
MUTANTS = 4
REACH = ("undecided",)  # budget-cut pairs: the budgeted digest must hold some
# seed -> the digests the pass and the reader must print for it
PINNED = {
    1: {"sort": "59c3143f0233fb1a49d3e13109fd34c8b95ad9979d42dfd5f9974bf2971a6b26",
        "pareto": "d79b6ca531848c94dde83a74c350a4950a4117851737660e10db54d55a07d7f5",
        "budgeted": "545488eb3e00940e408a4ba38396bb69c9d1a92f5178d9d9dc5905fe07bf2796",
        "reader": "e82bad9d527178b32ef9b659e1de7cef885bd5c2487277eab1e2215f076e2919"},
}
EDITS = (" ", "\t", "\xa0", "\u3000", '"', '""', ",", "\n\n", "\r\n", "")  # "": a deletion


def passes(seed: int, per_family: int = 100, catalogs: int = 5) -> Iterator[tuple]:
    """The sweep in order, as ``(net, rows, budget, layers, report)``:
    ``per_family`` nets of each family, ``catalogs`` catalogs per net, and
    each catalog passed at every budget in ``BUDGETS``."""
    from helpers import random_chain, random_net, random_tree

    from cpnet import CatalogRow, Outcome, SearchConfig, pareto_front, sort_catalog

    rng = random.Random(seed)
    nets = ([random_chain(rng, rng.randint(3, 7)) for _ in range(per_family)]
            + [random_tree(rng, rng.randint(3, 7)) for _ in range(per_family)]
            + [random_net(rng, rng.randint(3, 5), (2, 3), 3) for _ in range(per_family)])
    for net in nets:
        outcomes = [*map(Outcome, itertools.product(*(v.domain for v in net.variables)))]
        for _ in range(catalogs):
            pool = rng.sample(outcomes, 6)
            rows = [CatalogRow(f"r{k}", rng.choice(pool)) for k in range(10)]
            for budget in BUDGETS:
                cfg = SearchConfig(budget=budget)
                yield net, rows, budget, sort_catalog(net, rows, cfg), pareto_front(net, rows, cfg)


def texts(rng: random.Random, net, rows) -> Iterator[str]:
    """The catalog text of ``rows``, some ids renamed so that they are
    quoted and, at times, the last row line rewritten to repeat the first id;
    then ``MUTANTS`` copies of that text with one to three edits each."""
    from cpnet import CatalogRow, serialize_catalog

    renamed = [CatalogRow(rng.choice((i, i + ",", f'"{i}"', f" {i}")), row.outcome)
               for row in rows for i in [row.identifier]]
    text = serialize_catalog(net, renamed)
    if rng.random() < 0.25:
        # serialize_catalog refuses a repeated id, so the line is written alone
        repeat = CatalogRow(renamed[0].identifier, renamed[-1].outcome)
        lines = text.splitlines(keepends=True)
        lines[-1] = serialize_catalog(net, [repeat]).splitlines(keepends=True)[-1]
        text = "".join(lines)
    yield text
    for _ in range(MUTANTS):
        edited = text
        for _ in range(rng.randint(1, 3)):
            k, edit = rng.randrange(len(edited) + 1), rng.choice(EDITS)
            if edit:
                edited = edited[:k] + edit + edited[k:]
            else:
                edited = edited[:k] + edited[k + 1:]
        yield edited


def digest(seed: int) -> dict[str, object]:
    """The four digests of the sweep, its catalog count and the undecided
    pairs of its budgeted reports."""
    from cpnet import parse_catalog

    sort, pareto, budgeted = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    reader, edits = hashlib.sha256(), random.Random(f"reader {seed}")
    count = undecided = 0
    for net, rows, budget, layers, report in passes(seed):
        sort.update(repr((budget, layers)).encode())
        if budget is None:
            count += 1
            pareto.update(repr(report).encode())
            for text in texts(edits, net, rows):
                read, diagnostics = parse_catalog(net, text)
                reader.update(repr((read, [str(d) for d in diagnostics])).encode())
        else:
            budgeted.update(repr((budget, report)).encode())
            undecided += len(report.undecided)
    return {"catalogs": count, "sort": sort.hexdigest(), "pareto": pareto.hexdigest(),
            "budgeted": budgeted.hexdigest(), "undecided": undecided,
            "reader": reader.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int, help="seed of the nets and catalogs")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))  # this checkout's engine
    from helpers import coverage_exit, pinned_exit

    found = digest(args.seed)
    print(f"seed {args.seed}: {found['catalogs']} catalogs at {len(BUDGETS)} budgets")
    print(f"  sort sha256 {found['sort']}")
    print(f"  pareto sha256 {found['pareto']}")
    print(f"  budgeted pareto sha256 {found['budgeted']}, "
          f"{found['undecided']} undecided pairs")
    print(f"  reader sha256 {found['reader']}")
    return coverage_exit(found, REACH) | pinned_exit(args.seed, found, PINNED)


if __name__ == "__main__":
    sys.exit(main())
