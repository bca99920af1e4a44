"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); a failing criterion fails its test.  Criteria that share
the randomized instance set build it once per session from fixed seeds, so
every run checks the same instances.
"""

import itertools
import random
import time

import pytest

from cpnet import (
    BUDGET_EXHAUSTED,
    DOMINATES,
    NOT_DOMINATED,
    CatalogRow,
    SearchConfig,
    best_outcome,
    dominates,
    export_planning_problem,
    forward_prune,
    oracle_closure,
    pareto_front,
    parse_cpnet,
    plan_to_flip_sequence,
    serialize_cpnet,
    solve_planning_problem,
    sort_catalog,
    validate,
    verify_witness,
    worst_outcome,
)
from cpnet.search import _search
from helpers import all_pairs, load_net, outcome, random_chain, random_net, random_tree
from test_dsl import FIXTURE_NAMES, MALFORMED

ALL_DIRECTIONS = ("improving", "worsening", "bidirectional")


def _passed(number: int, message: str) -> None:
    print(f"criterion {number} PASS: {message}")


# -- shared randomized instance set (criteria 2, 5, 6) -----------------------


def _instance_nets():
    rng = random.Random(20240)
    nets = []
    for size in [2] * 70 + [3] * 60 + [4] * 20 + [5] * 3:
        nets.append(random_net(rng, size))
    for size in [1] * 10 + [2] * 30 + [3] * 10:
        nets.append(random_net(rng, size, domain_sizes=(2, 3)))
    return nets


@pytest.fixture(scope="session")
def instance_set():
    nets = _instance_nets()
    assert len(nets) >= 200
    return [(net, oracle_closure(net), all_pairs(net)) for net in nets]


# -- criterion 1: example regression -----------------------------------------

CHAIN3_SPINE = [
    "A=a,B=b,C=c",
    "A=a,B=b,C=cbar",
    "A=a,B=bbar,C=cbar",
    "A=a,B=bbar,C=c",
    "A=abar,B=bbar,C=c",
    "A=abar,B=b,C=c",
    "A=abar,B=b,C=cbar",
]
CHAIN3_BRANCH = [
    "A=a,B=bbar,C=cbar",
    "A=abar,B=bbar,C=cbar",
    "A=abar,B=bbar,C=c",
]


def _closure_of_chains(net, *chains):
    """Independent expectation: transitive closure of the cited flip chains."""
    edges = {}
    for chain in chains:
        nodes = [outcome(net, text) for text in chain]
        for hi, lo in zip(nodes, nodes[1:]):
            edges.setdefault(hi, set()).add(lo)
    better = {}
    every = {outcome(net, t) for chain in chains for t in chain}
    for node in every:
        seen = set()
        frontier = [node]
        while frontier:
            cursor = frontier.pop()
            for nxt in edges.get(cursor, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        better[node] = seen
    return better


def test_criterion_1_example_regression():
    started = time.monotonic()

    for name in FIXTURE_NAMES:
        load_net(name)

    chain2 = load_net("chain2")
    order = [
        outcome(chain2, "A=a,B=b"),
        outcome(chain2, "A=a,B=bbar"),
        outcome(chain2, "A=abar,B=bbar"),
        outcome(chain2, "A=abar,B=b"),
    ]
    checked = 0
    for i, hi in enumerate(order):
        for j, lo in enumerate(order):
            if i == j:
                continue
            verdict = dominates(chain2, hi, lo)
            expected = DOMINATES if i < j else NOT_DOMINATED
            assert verdict.kind == expected, (hi, lo)
            checked += 1
    assert checked == 12

    indep3 = load_net("indep3")
    assert best_outcome(indep3) == outcome(indep3, "A=a,B=b,C=c")
    assert worst_outcome(indep3) == outcome(indep3, "A=abar,B=bbar,C=cbar")

    chain3 = load_net("chain3")
    expected_better = _closure_of_chains(chain3, CHAIN3_SPINE, CHAIN3_BRANCH)
    outcomes = list(expected_better)
    assert len(outcomes) == 8
    ordered_pairs = 0
    unordered = []
    for x in outcomes:
        for y in outcomes:
            if x == y:
                continue
            expected = y in expected_better[x]
            verdict = dominates(chain3, x, y)
            assert (verdict.kind == DOMINATES) == expected, (x, y)
            ordered_pairs += expected
            if not expected and x not in expected_better[y] and id(x) < id(y):
                pass
    for i, x in enumerate(outcomes):
        for y in outcomes[i + 1:]:
            if y not in expected_better[x] and x not in expected_better[y]:
                unordered.append({x, y})
    assert ordered_pairs == 27
    assert unordered == [
        {outcome(chain3, "A=a,B=bbar,C=c"), outcome(chain3, "A=abar,B=bbar,C=cbar")}
    ]

    # the non-branching worsening proof from the chain example
    verdict = dominates(
        chain3,
        outcome(chain3, "A=abar,B=bbar,C=c"),
        outcome(chain3, "A=abar,B=b,C=cbar"),
    )
    assert verdict.kind == DOMINATES

    polytree8 = load_net("polytree8")
    prune = forward_prune(
        polytree8,
        outcome(polytree8, "A=a,B=bbar,C=c,D=d,E=e,F=f,G=g,H=h"),
        outcome(polytree8, "A=abar,B=b,C=c,D=d,E=e,F=f,G=g,H=h"),
    )
    assert not prune.feasible
    assert prune.failed_variable == "B"

    ternary_root = load_net("ternary_root")
    assert (
        dominates(
            ternary_root,
            outcome(ternary_root, "A=a1,B=bbar"),
            outcome(ternary_root, "A=a3,B=b"),
        ).kind
        == DOMINATES
    )

    ternary_mid = load_net("ternary_mid")
    assert (
        dominates(
            ternary_mid,
            outcome(ternary_mid, "A=a,B=b3,C=cbar"),
            outcome(ternary_mid, "A=abar,B=b1,C=c"),
        ).kind
        == DOMINATES
    )

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"example regression took {elapsed:.2f}s"
    _passed(1, f"example regression in {elapsed:.2f}s")


# -- criterion 2: oracle equivalence ------------------------------------------


def _oracle_configs():
    """(query, config) pairs: every heuristic combination through the search
    alone, so negatives are searched exhaustively, then ``dominates`` with its
    pre-check under the default heuristics (committed on binary single-parent
    nets, so no pre-check there) and with rightmost off (never committed)."""
    for flags in itertools.product([False, True], repeat=5):
        suffix_fixing, suffix_extension, rightmost, least_improving, dedup = flags
        for direction in ALL_DIRECTIONS:
            yield _search, SearchConfig(
                direction=direction,
                suffix_fixing=suffix_fixing,
                suffix_extension=suffix_extension,
                rightmost=rightmost,
                least_improving=least_improving,
                visited_dedup=dedup,
                want_witness=False,
            )
    for rightmost in (True, False):
        for direction in ALL_DIRECTIONS:
            yield dominates, SearchConfig(direction=direction, rightmost=rightmost, want_witness=False)


def test_criterion_2_oracle_equivalence(instance_set):
    started = time.monotonic()
    configs = list(_oracle_configs())
    queries = 0
    for net, closure, pairs in instance_set:
        for query, cfg in configs:
            for x, y in pairs:
                verdict = query(net, x, y, cfg)
                assert verdict.kind in (DOMINATES, NOT_DOMINATED)
                assert (verdict.kind == DOMINATES) == (x in closure[y]), (
                    net.names,
                    x.values,
                    y.values,
                    query.__name__,
                    cfg,
                )
                queries += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s"
    _passed(
        2,
        f"{queries} queries over {len(instance_set)} nets x {len(configs)} configurations "
        f"(32 heuristic combinations x 3 directions without the pre-check, 2 x 3 with it) "
        f"matched the oracle in {elapsed:.1f}s",
    )


def test_witnesses_verify_under_every_cut():
    """Criterion 2 builds no witnesses.  On a slice of its nets and a seeded
    sample of their pairs, every positive of the search alone and of
    ``dominates``, under each heuristic combination and direction, carries a
    witness that replays."""
    rng = random.Random(2024)
    queries = []
    for net in _instance_nets()[9::16]:
        pairs = all_pairs(net)
        queries += [(net, x, y) for x, y in rng.sample(pairs, min(len(pairs), 16))]
    positives = 0
    for flags in itertools.product([False, True], repeat=5):
        for direction in ALL_DIRECTIONS:
            cfg = SearchConfig(direction, *flags)
            for query in (_search, dominates):
                for net, x, y in queries:
                    verdict = query(net, x, y, cfg)
                    if verdict.kind == DOMINATES:
                        positives += 1
                        assert verify_witness(net, x, y, verdict.witness), (
                            net.names, x.values, y.values, query.__name__, cfg,
                        )
    assert positives > 10000


# -- criterion 3: backtrack-free classes --------------------------------------


def test_criterion_3_backtrack_free_chains_and_trees():
    rng = random.Random(31415)
    sizes = [2] * 15 + [3] * 20 + [4] * 25 + [5] * 25 + [6] * 12 + [7] * 4 + [8]
    cfg = SearchConfig(direction="improving")
    queries = 0
    for family, generator in (("chain", random_chain), ("tree", random_tree)):
        count = 0
        for size in sizes:
            count += 1
            net = generator(rng, size)
            closure = oracle_closure(net)
            for x, y in all_pairs(net):
                verdict = dominates(net, x, y, cfg)
                assert verdict.stats.backtracks == 0, (family, x.values, y.values)
                assert (verdict.kind == DOMINATES) == (x in closure[y]), (
                    family,
                    x.values,
                    y.values,
                )
                queries += 1
        assert count >= 100
    _passed(3, f"{queries} chain/tree queries, all backtrack-free and oracle-exact")


# -- criterion 4: direction asymmetry -----------------------------------------


def test_criterion_4_direction_asymmetry():
    chain3 = load_net("chain3")
    raw = dict(
        suffix_fixing=False,
        suffix_extension=False,
        rightmost=False,
        least_improving=False,
        visited_dedup=True,
    )

    x1 = outcome(chain3, "A=abar,B=bbar,C=c")
    y1 = outcome(chain3, "A=abar,B=b,C=cbar")
    improving = dominates(chain3, x1, y1, SearchConfig(direction="improving", **raw))
    worsening = dominates(chain3, x1, y1, SearchConfig(direction="worsening", **raw))
    assert improving.kind == worsening.kind == DOMINATES
    assert worsening.stats.expansions < improving.stats.expansions

    x2 = outcome(chain3, "A=a,B=b,C=c")
    y2 = outcome(chain3, "A=abar,B=bbar,C=cbar")
    improving2 = dominates(chain3, x2, y2, SearchConfig(direction="improving", **raw))
    worsening2 = dominates(chain3, x2, y2, SearchConfig(direction="worsening", **raw))
    assert improving2.kind == worsening2.kind == DOMINATES
    assert improving2.stats.expansions < worsening2.stats.expansions

    _passed(
        4,
        f"worsening {worsening.stats.expansions} < improving "
        f"{improving.stats.expansions}, reversed {improving2.stats.expansions} "
        f"< {worsening2.stats.expansions}",
    )


# -- criterion 5: pruner soundness --------------------------------------------


def test_criterion_5_pruner_soundness(instance_set):
    true_queries = 0
    for net, closure, pairs in instance_set:
        for x, y in pairs:
            result = forward_prune(net, x, y)
            if x in closure[y]:
                true_queries += 1
                assert result.feasible, (net.names, x.values, y.values)

    polytree8 = load_net("polytree8")
    prune = forward_prune(
        polytree8,
        outcome(polytree8, "A=a,B=bbar,C=c,D=d,E=e,F=f,G=g,H=h"),
        outcome(polytree8, "A=abar,B=b,C=c,D=d,E=e,F=f,G=g,H=h"),
    )
    assert not prune.feasible
    assert prune.failed_variable == "B"

    ternary = load_net("polytree8_ternary")
    prune_ternary = forward_prune(
        ternary,
        outcome(ternary, "A=a,B=bbar,C=c,D=d,E=e,F=f,G=g,H=h"),
        outcome(ternary, "A=abar,B=b,C=c,D=d,E=e,F=f,G=g,H=h"),
    )
    assert prune_ternary.pruned_domains["A"] == ("a", "abar")
    assert not prune_ternary.feasible

    _passed(5, f"pruning kept all {true_queries} oracle-true queries feasible")


# -- criterion 6: planning equivalence ----------------------------------------


def test_criterion_6_planning_equivalence(instance_set):
    solvable = 0
    unsolvable = 0
    for net, closure, pairs in instance_set[: len(instance_set) // 2]:
        for x, y in pairs:
            problem = export_planning_problem(net, x, y, "improving")
            plan = solve_planning_problem(problem)
            if plan is None:
                unsolvable += 1
                assert x not in closure[y], (net.names, x.values, y.values)
            else:
                solvable += 1
                assert x in closure[y], (net.names, x.values, y.values)
                seq = plan_to_flip_sequence(net, problem, plan)
                assert verify_witness(net, x, y, seq)
    _passed(6, f"plan existence matched dominance ({solvable} solvable, {unsolvable} not)")


# -- criterion 7: heuristic necessity -----------------------------------------


def test_criterion_7_least_improving_matters():
    net = load_net("ternary_root")
    x = outcome(net, "A=a1,B=bbar")
    y = outcome(net, "A=a3,B=b")
    greedy = dominates(
        net, x, y, SearchConfig(direction="improving", least_improving=False)
    )
    assert greedy.kind == DOMINATES
    assert greedy.stats.backtracks >= 1
    careful = dominates(net, x, y, SearchConfig(direction="improving"))
    assert careful.kind == DOMINATES
    assert careful.stats.backtracks == 0
    _passed(
        7,
        f"greedy value order backtracked {greedy.stats.backtracks}x, "
        "least-improving never",
    )


# -- criterion 8: parser robustness -------------------------------------------


def test_criterion_8_parser():
    for name in FIXTURE_NAMES:
        net = load_net(name)
        text = serialize_cpnet(net)
        result = parse_cpnet(text)
        assert result.ok
        assert validate(result.net).ok
        assert result.net.tables == net.tables
        assert [ (v.name, v.domain, v.parents) for v in result.net.variables ] == [
            (v.name, v.domain, v.parents) for v in net.variables
        ]
        assert serialize_cpnet(result.net) == text

    assert len(MALFORMED) >= 20
    for text in MALFORMED:
        result = parse_cpnet(text)
        errors = [d for d in result.diagnostics if d.severity == "error"]
        assert errors, text
        assert all(d.line >= 1 and d.column >= 1 for d in errors)

    rng = random.Random(808)
    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        parse_cpnet(blob.decode("utf-8", errors="replace"))

    _passed(8, "round trips, 20+ positioned rejections, 10k-string fuzz clean")


# -- criterion 9: catalog application -----------------------------------------


def test_criterion_9_pareto_application():
    started = time.monotonic()

    chain2 = load_net("chain2")
    catalog2 = [
        CatalogRow("r1", outcome(chain2, "A=a,B=b")),
        CatalogRow("r2", outcome(chain2, "A=a,B=bbar")),
        CatalogRow("r3", outcome(chain2, "A=abar,B=bbar")),
        CatalogRow("r4", outcome(chain2, "A=abar,B=b")),
    ]
    report = pareto_front(chain2, catalog2)
    assert report.nondominated == ["r1"]
    assert len(report.dominated) == 3

    chain3 = load_net("chain3")
    catalog3 = [
        CatalogRow(f"t{i}", o)
        for i, o in enumerate(
            dict.fromkeys(o for o, _ in all_pairs(chain3))
        )
    ]
    layers = sort_catalog(chain3, catalog3)
    by_id = {row.identifier: row.outcome for row in catalog3}
    incomparable = {
        outcome(chain3, "A=a,B=bbar,C=c"),
        outcome(chain3, "A=abar,B=bbar,C=cbar"),
    }
    homes = [
        depth
        for depth, layer in enumerate(layers)
        for identifier in layer
        if by_id[identifier] in incomparable
    ]
    assert len(homes) == 2 and homes[0] == homes[1]

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"catalog runs took {elapsed:.2f}s"
    _passed(9, f"catalog front and layering in {elapsed:.2f}s")
