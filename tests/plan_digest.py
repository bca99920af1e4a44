"""Plan digest: one SHA-256 over the rendered problems, plans and replayed
witnesses of a seeded sweep of planning problems, to show that two versions
of the planning route agree.

    python tests/plan_digest.py SEED

It builds 60 nets from ``SEED`` (20 binary chains and 20 binary trees of 6-8
variables, 20 random nets of 4-6 variables with domains 2-3 and up to 2
parents) and draws 6 pairs per net: 3 walk pairs, where x is reached from a
random y by 1-4 improving flips, and 3 random pairs, which may be equal.
Each pair is exported as "x > y" in both directions, with
``allow_trivial=True``, so the sweep holds 720 problems.  For each problem
the digest takes, in order, the text of ``render_planning_problem``, what
``solve_planning_problem`` returns at a cap of ``CAP`` seen states (the
plan, ``None``, or the message of the cap's ``CPNetError``) and, for a plan,
the ``repr`` of the ``FlipSequence`` that ``plan_to_flip_sequence`` replays.
It prints the digest, then how many problems were solved, unsolvable and
over the cap, and exits 1 if any of the three counts is 0 (``REACH``), or
if the seed is in ``PINNED`` and its digest is not the pinned one.  The
script is stdlib-only and is not collected by pytest.
``tests/transcript.py`` records a slice of the same sweep: one net per family
and two pairs per net.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parents[1] / "src"
CAP = 50
REACH = ("solved", "unsolvable", "over cap")  # what the sweep must reach
# seed -> the digest the planning route must print for it
PINNED = {1: {"plan": "4104dbdcfb7a22b53ae2b86b67bf06174bbef57cfa3760408ea0423a4017ed5c"}}


def _walk(rng: random.Random, net, start, steps: int):
    """The outcome ``steps`` random improving flips above ``start``, or fewer
    where no flip improves."""
    from cpnet import IMPROVING, apply_flip, legal_flips

    for _ in range(steps):
        flips = legal_flips(net, start, IMPROVING)
        if not flips:
            break
        start = apply_flip(net, start, rng.choice(flips))
    return start


def problems(seed: int, per_family: int = 20, pairs: int = 3) -> Iterator[tuple]:
    """The sweep's problems in order, as ``(net, x, y, direction, problem)``:
    ``per_family`` nets of each family, ``pairs`` walk pairs and ``pairs``
    random pairs per net, each exported in both directions."""
    from helpers import random_chain, random_net, random_tree

    from cpnet import IMPROVING, WORSENING, Outcome, export_planning_problem

    rng = random.Random(seed)
    nets = ([random_chain(rng, rng.randint(6, 8)) for _ in range(per_family)]
            + [random_tree(rng, rng.randint(6, 8)) for _ in range(per_family)]
            + [random_net(rng, rng.randint(4, 6), (2, 3), 2) for _ in range(per_family)])
    for net in nets:
        draws = []
        for k in range(2 * pairs):
            y = Outcome(tuple(rng.choice(v.domain) for v in net.variables))
            x = (_walk(rng, net, y, rng.randint(1, 4)) if k < pairs
                 else Outcome(tuple(rng.choice(v.domain) for v in net.variables)))
            draws.append((x, y))
        for x, y in draws:
            for direction in (IMPROVING, WORSENING):
                yield net, x, y, direction, export_planning_problem(
                    net, x, y, direction, allow_trivial=True)


def trip(net, problem, cap: int = CAP) -> tuple[str, object, object]:
    """``(text, plan, witness)``: the rendered problem, the solver's plan,
    ``None`` or cap message, and the replayed witness of a plan, else None."""
    from cpnet import (
        CPNetError,
        plan_to_flip_sequence,
        render_planning_problem,
        solve_planning_problem,
    )

    text = render_planning_problem(problem)
    try:
        plan = solve_planning_problem(problem, cap)
    except CPNetError as exc:
        return text, str(exc), None
    witness = plan_to_flip_sequence(net, problem, plan) if plan is not None else None
    return text, plan, witness


def digest(seed: int) -> dict[str, object]:
    """The sweep's digest and its counts of solved, unsolvable and over-cap
    problems."""
    sha = hashlib.sha256()
    counts = {"solved": 0, "unsolvable": 0, "over cap": 0}
    for net, _, _, _, problem in problems(seed):
        text, plan, witness = trip(net, problem)
        sha.update(repr((text, plan, witness)).encode())
        counts["solved" if isinstance(plan, list) else
               "unsolvable" if plan is None else "over cap"] += 1
    return {"sha": sha.hexdigest(), **counts}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int, help="seed of the nets and pairs")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))  # this checkout's engine
    from helpers import coverage_exit, pinned_exit

    found = digest(args.seed)
    print(f"seed {args.seed}: plan sha256 {found['sha']}")
    print(f"  solved {found['solved']}, unsolvable {found['unsolvable']}, "
          f"over cap {found['over cap']}")
    return coverage_exit(found, REACH) | pinned_exit(args.seed, {"plan": found["sha"]}, PINNED)


if __name__ == "__main__":
    sys.exit(main())
