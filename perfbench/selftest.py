"""Self-test of the benchmark's own references on small nets.

On nets with at most 2**12 outcomes, against the package's brute-force
oracle: the rank certificate never refutes a pair the oracle says is
dominated, and the witness replayer accepts every engine witness and rejects
mutated copies of it.
"""

from __future__ import annotations

import random

import cpnet

import netgen
from refcheck import RankCertificate, replays

NETS = 12


def _mutations(witness):
    """Broken copies of a witness: the last flip dropped, and the last flip
    sent to a value it does not reach."""
    flips = witness.flips
    yield cpnet.FlipSequence(witness.start, flips[:-1])
    last = flips[-1]
    bad = cpnet.Flip(last.variable, last.from_value, last.from_value, last.direction)
    yield cpnet.FlipSequence(witness.start, flips[:-1] + (bad,))


def selftest(seed: int) -> int:
    rng = random.Random(seed)
    dominated = refuted = sampled = witnesses = 0
    problems: list[str] = []
    for k in range(NETS):
        while True:
            spec = netgen.dag(rng, rng.randint(4, 9))
            size = 1
            for domain in spec.domains:
                size *= len(domain)
            if size <= 2**12:
                break
        net = cpnet.parse_cpnet(spec.text()).net
        cpnet.validate(net)
        rank = RankCertificate(spec).rank
        closure = cpnet.oracle_closure(net)
        ranks = {tuple(o.values): rank(tuple(o.values)) for o in closure}
        outcomes = list(ranks)
        for y in outcomes:
            better = {tuple(o.values) for o in closure[cpnet.Outcome(y)]}
            dominated += len(better)
            if any(ranks[x] <= ranks[y] for x in better):
                problems.append(f"net {k}: rank certificate refutes a dominated pair")
            x = rng.choice(outcomes)
            if x != y and x not in better:
                sampled += 1
                refuted += ranks[x] <= ranks[y]
        for _ in range(200):
            x, y = rng.choice(outcomes), rng.choice(outcomes)
            verdict = cpnet.dominates(net, cpnet.Outcome(x), cpnet.Outcome(y))
            if verdict.kind != cpnet.DOMINATES:
                continue
            witnesses += 1
            if not replays(spec, x, y, verdict.witness):
                problems.append(f"net {k}: replayer rejects an engine witness")
            for broken in _mutations(verdict.witness):
                if replays(spec, x, y, broken):
                    problems.append(f"net {k}: replayer accepts a mutated witness")
    for problem in problems[:20]:
        print("SELFTEST FAILED:", problem)
    print(f"selftest: {NETS} nets; {dominated} dominated pairs, none refuted by rank: "
          f"{'yes' if not any('rank' in p for p in problems) else 'NO'}; rank refutes "
          f"{refuted} of {sampled} sampled non-dominated pairs; {witnesses} engine "
          f"witnesses replayed, 2 mutations each rejected; "
          f"{'ok' if not problems else f'{len(problems)} problems'}")
    return 0 if not problems else 1
