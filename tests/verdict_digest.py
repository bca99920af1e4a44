"""Verdict digest: one SHA-256 over the verdicts, stats and witnesses of a
seeded sweep of queries, to show that two versions of the engine agree.

    python tests/verdict_digest.py SEED

It builds 18 nets from ``SEED`` (6 binary chains and 6 binary trees of 3-7
variables, 6 random nets of 3-4 variables with domains 2-3 and up to 2
parents), draws 150 random outcome pairs per net, and asks each pair under
all 32 combinations of the five cuts, in 3 directions, with no budget and
with a budget of 3, through both ``dominates`` and ``_search``.  It prints
the digest of every ``repr((kind, stats, witness))`` in that order, the
number of queries, how many were decided by each stage, and how many nets
have a degenerate declared parent (one that the variable's table does not
depend on, which the engine compiles away) and how many have none.  It
exits 1 if a stage decided none or either kind of net is missing
(``REACH``), or if the seed is in ``PINNED`` and its digest is not the
pinned one.  A change that moves a verdict, stats or witness on purpose
re-records ``PINNED`` and says so.  The script is stdlib-only and is not collected by pytest.
``tests/transcript.py`` asks a slice of the same sweep: one net per family
and a few pairs per net, under every configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parents[1] / "src"
CUTS = ("suffix_fixing", "suffix_extension", "rightmost", "least_improving", "visited_dedup")
DIRECTIONS = ("improving", "worsening", "bidirectional")
STAGES = ("budget", "equal", "prune", "rank", "search")  # every decided_by stage
NETS = ("degenerate parent", "no degenerate parent")  # nets with and without one
REACH = STAGES + NETS
# seed -> the digest the engine must print for it
PINNED = {
    1: {"verdict": "89d1fee517175608fc5e8f13d11eeedd94dc4b5e1193ae183b44e1a1f85d0af1"},
    23: {"verdict": "4ece06ec37e990734bb01008de56b7de38fcb28339e28b6aab2ca2f508ab4629"},
}


def verdicts(seed: int, per_family: int = 6, pairs: int = 150) -> Iterator[tuple]:
    """The sweep in order, as ``(net, x, y, verdict)``: ``per_family`` nets of
    each family and ``pairs`` pairs per net, each pair asked as listed in the
    module docstring."""
    from helpers import random_chain, random_net, random_tree

    from cpnet import Outcome, SearchConfig, dominates
    from cpnet.search import _search

    rng = random.Random(seed)
    nets = ([random_chain(rng, rng.randint(3, 7)) for _ in range(per_family)]
            + [random_tree(rng, rng.randint(3, 7)) for _ in range(per_family)]
            + [random_net(rng, rng.randint(3, 4), (2, 3), 2) for _ in range(per_family)])
    configs = [
        SearchConfig(direction=direction, budget=budget, **dict(zip(CUTS, switches)))
        for switches in itertools.product((True, False), repeat=len(CUTS))
        for direction in DIRECTIONS
        for budget in (None, 3)
    ]
    for net in nets:
        for _ in range(pairs):
            x, y = (Outcome(tuple(rng.choice(v.domain) for v in net.variables))
                    for _ in range(2))
            for cfg in configs:
                for ask in (dominates, _search):
                    yield net, x, y, ask(net, x, y, cfg)


def record(verdict) -> str:
    """What the digest hashes of one verdict."""
    return repr((verdict.kind, verdict.stats, verdict.witness))


def degenerate(net) -> bool:
    """Whether some variable of ``net`` declares a parent that its table
    does not depend on."""
    from helpers import effective_parents

    kept = effective_parents(net)
    return any(len(kept[v.name]) < len(v.parents) for v in net.variables)


def digest(seed: int) -> tuple[str, int, Counter]:
    """The SHA-256 of the sweep, its query count, and its ``decided_by``
    counts together with its counts of ``NETS``."""
    sha = hashlib.sha256()
    counts: Counter = Counter()
    nets: dict[int, bool] = {}
    for net, _, _, verdict in verdicts(seed):
        sha.update(record(verdict).encode())
        counts[verdict.stats.decided_by] += 1
        if id(net) not in nets:
            nets[id(net)] = degenerate(net)
    queries = sum(counts.values())
    counts.update(NETS[not d] for d in nets.values())
    return sha.hexdigest(), queries, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int, help="seed of the nets and pairs")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))  # this checkout's engine
    from helpers import coverage_exit, pinned_exit

    hexdigest, queries, counts = digest(args.seed)
    print(f"seed {args.seed}: {queries} queries, sha256 {hexdigest}")
    for stage in STAGES:
        print(f"  decided_by {stage}: {counts[stage]}")
    for label in NETS:
        print(f"  nets with {label}: {counts[label]}")
    return coverage_exit(counts, REACH) | pinned_exit(args.seed, {"verdict": hexdigest}, PINNED)


if __name__ == "__main__":
    sys.exit(main())
