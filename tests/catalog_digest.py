"""Catalog digest: SHA-256s over the layers and reports of a seeded sweep of
catalog passes, to show that two versions of the pass agree.

    python tests/catalog_digest.py SEED

It builds 300 nets from ``SEED`` (100 binary chains and 100 binary trees of
3-7 variables, 100 random nets of 3-5 variables with domains 2-3 and up to 3
parents) and draws 5 catalogs per net, each of 10 rows over a pool of 6
outcomes, so that some rows repeat.  Each catalog is sorted with
``sort_catalog`` and split with ``pareto_front``, with no budget and with
budgets 1, 2, 3, 5 and 8.  It prints three digests, each of the ``repr`` of
the results in that order:

* ``sort``: every layering, at every budget;
* ``pareto``: the reports with no budget;
* ``budgeted pareto``: the reports under a budget, with the number of
  undecided id pairs they hold.

The first two are the answers of the pass.  A budgeted report may change
where a pair that ran out of budget is settled by other means.  The script
is stdlib-only and is not collected by pytest.  ``tests/transcript.py``
records a slice of the same sweep: one net per family and two catalogs per
net.
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


def digest(seed: int) -> dict[str, object]:
    """The three digests of the sweep, its catalog count and the undecided
    pairs of its budgeted reports."""
    sort, pareto, budgeted = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = undecided = 0
    for _, _, budget, layers, report in passes(seed):
        sort.update(repr((budget, layers)).encode())
        if budget is None:
            count += 1
            pareto.update(repr(report).encode())
        else:
            budgeted.update(repr((budget, report)).encode())
            undecided += len(report.undecided)
    return {"catalogs": count, "sort": sort.hexdigest(), "pareto": pareto.hexdigest(),
            "budgeted": budgeted.hexdigest(), "undecided": undecided}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int, help="seed of the nets and catalogs")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))  # this checkout's engine
    found = digest(args.seed)
    print(f"seed {args.seed}: {found['catalogs']} catalogs at {len(BUDGETS)} budgets")
    print(f"  sort sha256 {found['sort']}")
    print(f"  pareto sha256 {found['pareto']}")
    print(f"  budgeted pareto sha256 {found['budgeted']}, "
          f"{found['undecided']} undecided pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
