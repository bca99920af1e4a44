"""Search engine: dominance queries, heuristics, oracle, witnesses."""

import hashlib
import itertools
import random
import sys
import threading
from dataclasses import replace

import pytest

from cpnet import (
    BUDGET_EXHAUSTED,
    DOMINATES,
    NOT_DOMINATED,
    CatalogRow,
    CPNetError,
    Flip,
    FlipSequence,
    Outcome,
    SearchConfig,
    all_outcomes,
    apply_flip,
    dominates,
    export_planning_problem,
    extend_suffix,
    fixed_suffix,
    forward_prune,
    legal_flips,
    oracle_closure,
    oracle_dominates,
    order_flips,
    pareto_front,
    parse_cpnet,
    serialize_catalog,
    sort_catalog,
    topological_order,
    validate,
    verify_witness,
)
from cpnet import search
from cpnet.search import _compiled, _Core, _refix, _search, _suffix
from helpers import (
    all_pairs,
    effective_parents,
    outcome,
    random_chain,
    random_net,
    random_one_parent_tables,
    random_star,
    random_tree,
    reference_tables,
)

RAW = SearchConfig(
    direction="improving",
    suffix_fixing=False,
    suffix_extension=False,
    rightmost=False,
    least_improving=False,
    visited_dedup=True,
)


class TestDominatesExamples:
    def test_two_variable_positive(self, chain2):
        verdict = dominates(chain2, outcome(chain2, "A=a,B=bbar"), outcome(chain2, "A=abar,B=bbar"))
        assert verdict.kind == DOMINATES
        assert verdict.witness is not None
        assert verify_witness(
            chain2,
            outcome(chain2, "A=a,B=bbar"),
            outcome(chain2, "A=abar,B=bbar"),
            verdict.witness,
        )

    def test_incomparable_pair_both_ways(self, chain3):
        a = outcome(chain3, "A=a,B=bbar,C=c")
        b = outcome(chain3, "A=abar,B=bbar,C=cbar")
        for direction in ("improving", "worsening", "bidirectional"):
            cfg = SearchConfig(direction=direction)
            assert dominates(chain3, a, b, cfg).kind == NOT_DOMINATED
            assert dominates(chain3, b, a, cfg).kind == NOT_DOMINATED

    def test_worsening_witness_is_the_straight_line(self, chain3):
        x = outcome(chain3, "A=abar,B=bbar,C=c")
        y = outcome(chain3, "A=abar,B=b,C=cbar")
        verdict = dominates(chain3, x, y, SearchConfig(direction="worsening"))
        assert verdict.kind == DOMINATES
        seq = verdict.witness
        assert seq.start == x
        assert [(f.variable, f.from_value, f.to_value) for f in seq.flips] == [
            ("B", "bbar", "b"),
            ("C", "c", "cbar"),
        ]
        assert verify_witness(chain3, x, y, seq)

    def test_irreflexive(self, chain3):
        for z, _ in all_pairs(chain3)[:8]:
            assert dominates(chain3, z, z).kind == NOT_DOMINATED

    def test_rightmost_reaches_target_in_two_expansions(self, chain3):
        x = outcome(chain3, "A=abar,B=bbar,C=c")
        y = outcome(chain3, "A=abar,B=b,C=cbar")
        cfg = SearchConfig(direction="improving")
        verdict = dominates(chain3, x, y, cfg)
        assert verdict.kind == DOMINATES
        assert verdict.stats.expansions == 2
        assert verdict.stats.backtracks == 0

    def test_outcome_from_wrong_net_rejected(self, chain2, chain3):
        with pytest.raises(CPNetError):
            dominates(chain3, outcome(chain2, "A=a,B=b"), outcome(chain2, "A=a,B=bbar"))


class TestOracle:
    def test_two_variable_total_order(self, chain2):
        closure = oracle_closure(chain2)
        order = [
            outcome(chain2, "A=a,B=b"),
            outcome(chain2, "A=a,B=bbar"),
            outcome(chain2, "A=abar,B=bbar"),
            outcome(chain2, "A=abar,B=b"),
        ]
        expected_pairs = {
            (hi, lo) for i, hi in enumerate(order) for lo in order[i + 1:]
        }
        got_pairs = {(hi, lo) for lo, better in closure.items() for hi in better}
        assert got_pairs == expected_pairs
        assert len(got_pairs) == 6

    def test_chain_orders_all_but_one_pair(self, chain3):
        closure = oracle_closure(chain3)
        outcomes = list(closure)
        unordered = [
            frozenset((a, b))
            for i, a in enumerate(outcomes)
            for b in outcomes[i + 1:]
            if a not in closure[b] and b not in closure[a]
        ]
        assert unordered == [
            frozenset(
                (
                    outcome(chain3, "A=a,B=bbar,C=c"),
                    outcome(chain3, "A=abar,B=bbar,C=cbar"),
                )
            )
        ]

    def test_best_and_worst_extremes(self, indep3):
        best = outcome(indep3, "A=a,B=b,C=c")
        worst = outcome(indep3, "A=abar,B=bbar,C=cbar")
        others = [o for o, _ in all_pairs(indep3)]
        for other in set(others):
            if other != best:
                assert oracle_dominates(indep3, best, other)
            if other != worst:
                assert not oracle_dominates(indep3, worst, other)

    def test_cap(self, polytree8):
        with pytest.raises(CPNetError):
            oracle_dominates(
                polytree8,
                outcome(polytree8, "A=a,B=b,C=c,D=d,E=e,F=f,G=g,H=h"),
                outcome(polytree8, "A=abar,B=b,C=c,D=d,E=e,F=f,G=g,H=h"),
                cap=10,
            )


class TestSuffixRules:
    def test_fixed_suffix_on_polytree(self, polytree8):
        z = outcome(polytree8, "A=abar,B=b,C=cbar,D=dbar,E=ebar,F=f,G=g,H=h")
        x = outcome(polytree8, "A=a,B=b,C=c,D=d,E=ebar,F=fbar,G=g,H=h")
        assert fixed_suffix(polytree8, z, x) == frozenset({"E", "G", "H"})

    def test_full_match(self, chain3):
        z = outcome(chain3, "A=a,B=b,C=c")
        assert fixed_suffix(chain3, z, z) == frozenset({"A", "B", "C"})

    def test_matching_root_excluded_when_children_differ(self, chain3):
        z = outcome(chain3, "A=abar,B=b,C=cbar")
        x = outcome(chain3, "A=abar,B=bbar,C=c")
        assert fixed_suffix(chain3, z, x) == frozenset()

    def test_extension_commits_the_enabled_flip(self, polytree8):
        z = outcome(polytree8, "A=abar,B=b,C=cbar,D=dbar,E=ebar,F=f,G=g,H=h")
        x = outcome(polytree8, "A=a,B=b,C=c,D=d,E=ebar,F=fbar,G=g,H=h")
        flip = extend_suffix(polytree8, z, x, "improving")
        assert flip == Flip("F", "f", "fbar", "improving")

    def test_extension_stops_when_no_legal_move(self, polytree8):
        z = outcome(polytree8, "A=abar,B=b,C=cbar,D=dbar,E=ebar,F=fbar,G=g,H=h")
        x = outcome(polytree8, "A=a,B=b,C=c,D=d,E=ebar,F=fbar,G=g,H=h")
        assert fixed_suffix(polytree8, z, x) == frozenset({"E", "F", "G", "H"})
        assert extend_suffix(polytree8, z, x, "improving") is None

    def test_extension_trivial_when_equal(self, chain3):
        z = outcome(chain3, "A=a,B=b,C=c")
        assert extend_suffix(chain3, z, z, "improving") is None

    def test_views_match_their_definitions(self):
        # The definitions read the effective parents and legal_flips, not the core.
        rng = random.Random(57)
        for _ in range(25):
            net = random_net(rng, rng.randint(2, 4), (2, 3), 3)
            parents = effective_parents(net)
            children = {v.name: [c.name for c in net.variables if v.name in parents[c.name]]
                        for v in net.variables}
            position = {name: k for k, name in enumerate(topological_order(net))}
            outcomes = all_outcomes(net)
            for z in outcomes:
                for x in outcomes:
                    fixed = _largest_fixed_set(net, children, z, x)
                    assert fixed_suffix(net, z, x) == fixed
                    for direction in ("improving", "worsening"):
                        expected = None
                        flips = legal_flips(net, z, direction)
                        for flip in sorted(flips, key=lambda f: position[f.variable]):
                            if (
                                flip.variable not in fixed
                                and all(c in fixed for c in children[flip.variable])
                                and flip.to_value == x.values[net.index(flip.variable)]
                            ):
                                expected = flip
                        assert extend_suffix(net, z, x, direction) == expected


def _largest_fixed_set(net, children, z, x):
    """The largest descendant-closed set of variables on which z equals x."""
    fixed = {v.name for v, a, b in zip(net.variables, z.values, x.values) if a == b}
    while True:
        leaving = {name for name in fixed if any(c not in fixed for c in children[name])}
        if not leaving:
            return frozenset(fixed)
        fixed -= leaving


def test_refix_matches_the_suffix_recomputed():
    # Random legal flips, improving or worsening; after each one the
    # incremental update must equal the masks that _suffix rebuilds.
    rng = random.Random(67)
    flipped = left_goal = 0
    for _ in range(200):
        net = random_net(rng, rng.randint(2, 6), (2, 3), 3)
        core = _compiled(net)[0]
        vals, goal = ([rng.randrange(len(d)) for d in core.domains] for _ in range(2))
        unfixed, frontier = _suffix(core, vals, goal)
        for _ in range(100):
            table, rows = rng.choice((core.up, core.down)), core.rows(vals)
            flips = [flip for p, entries in enumerate(table) for flip in entries[rows[p] + vals[p]]]
            if not flips:
                continue  # the best or the worst outcome
            p, value = rng.choice(flips)
            vals[p] = value
            flipped += 1
            left_goal += not unfixed >> p & 1
            unfixed, frontier = _refix(core, vals, goal, p, unfixed, frontier)
            assert (unfixed, frontier) == _suffix(core, vals, goal)
    assert flipped > 15000 and left_goal > 3000


class TestOrderFlips:
    def test_rightmost_first(self, chain3):
        z = outcome(chain3, "A=abar,B=b,C=cbar")
        x = outcome(chain3, "A=abar,B=bbar,C=c")
        candidates = legal_flips(chain3, z, "improving")
        ordered = order_flips(chain3, z, candidates, x, SearchConfig())
        assert [f.variable for f in ordered] == ["C", "B", "A"]

    def test_least_improving_prefers_small_steps(self, ternary_root):
        z = outcome(ternary_root, "A=a3,B=b")
        x = outcome(ternary_root, "A=a1,B=bbar")
        candidates = legal_flips(ternary_root, z, "improving")
        ordered = order_flips(ternary_root, z, candidates, x, SearchConfig())
        assert [f.to_value for f in ordered] == ["a2", "a1"]
        greedy = order_flips(
            ternary_root, z, candidates, x, SearchConfig(least_improving=False)
        )
        assert [f.to_value for f in greedy] == ["a1", "a2"]

    def test_single_candidate_unchanged(self, chain3):
        z = outcome(chain3, "A=abar,B=bbar,C=cbar")
        x = outcome(chain3, "A=a,B=bbar,C=cbar")
        candidates = legal_flips(chain3, z, "improving")
        assert len(candidates) == 1
        assert order_flips(chain3, z, candidates, x, SearchConfig()) == candidates

    def test_unsanctioned_candidate_rejected(self, chain3):
        z = outcome(chain3, "A=abar,B=bbar,C=cbar")
        x = outcome(chain3, "A=a,B=bbar,C=cbar")
        stray = Flip("B", "bbar", "b", "improving")  # B's row under A=abar prefers bbar
        with pytest.raises(CPNetError):
            order_flips(chain3, z, [stray], x, SearchConfig())

    def test_unknown_direction_rejected(self, chain3):
        x = outcome(chain3, "A=a,B=b,C=c")
        y = outcome(chain3, "A=abar,B=b,C=c")
        sideways = Flip("A", "a", "abar", "sideways")
        message = "direction must be one of"
        with pytest.raises(CPNetError, match=message):
            order_flips(chain3, x, [sideways], y, SearchConfig())
        with pytest.raises(CPNetError, match=message):
            extend_suffix(chain3, x, y, "sideways")
        with pytest.raises(CPNetError, match=message):
            apply_flip(chain3, x, sideways)


class TestVerifyWitness:
    def test_worsening_chain_accepted(self, chain3):
        x = outcome(chain3, "A=abar,B=bbar,C=c")
        y = outcome(chain3, "A=abar,B=b,C=cbar")
        seq = FlipSequence(
            x,
            (
                Flip("B", "bbar", "b", "worsening"),
                Flip("C", "c", "cbar", "worsening"),
            ),
        )
        assert verify_witness(chain3, x, y, seq)

    def test_transposed_flips_rejected(self, chain3):
        x = outcome(chain3, "A=abar,B=bbar,C=c")
        y = outcome(chain3, "A=abar,B=b,C=cbar")
        seq = FlipSequence(
            x,
            (
                Flip("C", "c", "cbar", "worsening"),
                Flip("B", "bbar", "b", "worsening"),
            ),
        )
        assert not verify_witness(chain3, x, y, seq)

    def test_empty_sequence_rejected(self, chain3):
        z = outcome(chain3, "A=a,B=b,C=c")
        assert not verify_witness(chain3, z, z, FlipSequence(z, ()))

    @pytest.mark.parametrize(
        "flip",
        [Flip("Z", "z", "zbar", "improving"), Flip("A", "a", "abar", "improving")],
        ids=["unknown-variable", "wrong-from-value"],
    )
    def test_flip_that_does_not_replay_rejected(self, chain2, flip):
        x = outcome(chain2, "A=a,B=b")
        y = outcome(chain2, "A=abar,B=b")
        assert not verify_witness(chain2, x, y, FlipSequence(y, (flip,)))

    def test_flip_labels_must_match_the_replay(self, chain2):
        x = outcome(chain2, "A=a,B=bbar")
        y = outcome(chain2, "A=abar,B=bbar")
        seq = dominates(chain2, x, y).witness
        assert verify_witness(chain2, x, y, seq)
        for label in ("sideways", "worsening"):
            flips = tuple(replace(f, direction=label) for f in seq.flips)
            assert not verify_witness(chain2, x, y, FlipSequence(seq.start, flips))
        mirror = FlipSequence(x, tuple(f.reversed() for f in reversed(seq.flips)))
        assert verify_witness(chain2, x, y, mirror)
        flips = tuple(replace(f, direction="improving") for f in mirror.flips)
        assert not verify_witness(chain2, x, y, FlipSequence(x, flips))

    def test_value_outside_domain_is_an_input_error(self, chain2):
        x = outcome(chain2, "A=a,B=b")
        y = Outcome(("zz", "b"))
        seq = FlipSequence(y, (Flip("A", "zz", "a", "improving"),))
        with pytest.raises(CPNetError):
            verify_witness(chain2, x, y, seq)
        with pytest.raises(CPNetError):
            verify_witness(chain2, y, x, seq)


LISTED = Flip(["A"], "a", "abar", "worsening")  # an unhashable variable name


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda net, x, y: pareto_front(net, [CatalogRow("r1", x), CatalogRow("r2", y)]),
         CPNetError),
        (lambda net, x, y: sort_catalog(net, [CatalogRow("r1", x), CatalogRow("r2", y)]),
         CPNetError),
        (lambda net, x, y: apply_flip(net, x, LISTED), CPNetError),
        (lambda net, x, y: order_flips(net, x, [LISTED], x, SearchConfig()), CPNetError),
        (lambda net, x, y: verify_witness(net, x, x, FlipSequence(x, (LISTED,))), False),
    ],
    ids=["pareto_front", "sort_catalog", "apply_flip", "order_flips", "verify_witness"],
)
def test_unhashable_input_is_refused(chain2, call, refusal):
    x = outcome(chain2, "A=a,B=b")
    y = Outcome((["a"], "b"))  # used only where the call checks outcomes
    if refusal is False:
        assert call(chain2, x, y) is False
    else:
        with pytest.raises(refusal):
            call(chain2, x, y)


@pytest.mark.parametrize(
    "call",
    [
        lambda net, o: dominates(net, o, o),
        lambda net, o: pareto_front(net, [CatalogRow("r1", o)]),
        lambda net, o: sort_catalog(net, [CatalogRow("r1", o)]),
    ],
    ids=["dominates", "pareto_front", "sort_catalog"],
)
def test_list_valued_outcome_is_refused(chain2, call):
    with pytest.raises(CPNetError, match="tuple"):
        call(chain2, Outcome(["a", "b"]))


class OddHash(str):
    """A value equal to its text that does not hash as it.  Every lookup of a
    value goes by hash, so the outcome check refuses it too."""

    def __hash__(self):
        return 1


@pytest.mark.parametrize(
    "call",
    [
        lambda net, o: dominates(net, o, o),
        lambda net, o: forward_prune(net, o, o),
        lambda net, o: pareto_front(net, [CatalogRow("r1", o)]),
        lambda net, o: legal_flips(net, o, "improving"),
        lambda net, o: apply_flip(net, o, Flip("B", "b", "bbar", "worsening")),
        lambda net, o: oracle_dominates(net, o, o),
        lambda net, o: verify_witness(net, o, o, FlipSequence(o, ())),
        lambda net, o: export_planning_problem(net, o, o, allow_trivial=True),
        lambda net, o: serialize_catalog(net, [CatalogRow("r1", o)]),
        lambda net, o: net.format_outcome(o),
        lambda net, o: net.outcome(dict(zip(net.names, o.values))),
    ],
    ids=["dominates", "forward_prune", "pareto_front", "legal_flips", "apply_flip",
         "oracle_dominates", "verify_witness", "export_planning_problem",
         "serialize_catalog", "format_outcome", "outcome"],
)
def test_value_that_hashes_differently_is_refused(chain2, call):
    # one membership rule: every entry point refuses the value as the encoder does
    with pytest.raises(CPNetError, match="unknown value 'a' for variable A .*does not hash"):
        call(chain2, Outcome((OddHash("a"), "b")))


CHILD_FIRST = """
var B: b, bbar
var A: a, abar
parents B: A
cpt A: a > abar
cpt B | A=a: b > bbar
cpt B | A=abar: bbar > b
"""


@pytest.mark.parametrize(
    "values, message",
    [
        (["b", "a"], "outcome values must be a tuple"),
        (("b",), "outcome does not match this net's variable set"),
        (("b", "zz"), "unknown value 'zz' for variable A"),
        ((["b"], "a"), "unknown value ['b'] for variable B"),
        (("zz", "yy"), "unknown value 'zz' for variable B"),  # B is declared first
    ],
    ids=["list", "length", "unknown", "unhashable", "first-declared"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda net, bad, good: dominates(net, good, bad),
        lambda net, bad, good: forward_prune(net, bad, good),
        lambda net, bad, good: pareto_front(net, [CatalogRow("r1", good), CatalogRow("r2", bad)]),
    ],
    ids=["dominates", "forward_prune", "pareto_front"],
)
def test_bad_outcome_message(call, values, message):
    net = parse_cpnet(CHILD_FIRST).net  # declared child first: B before A
    with pytest.raises(CPNetError) as refused:
        call(net, Outcome(values), Outcome(("b", "a")))
    assert str(refused.value) == message


class TestRank:
    def test_improving_flips_raise_the_rank(self):
        rng = random.Random(93)
        for _ in range(30):
            net = random_net(rng, rng.randint(2, 6), (2, 3), 3)
            core, _ = _compiled(net)
            for z in all_outcomes(net):
                rank = core.rank(core.encode(z.values))
                for flip in legal_flips(net, z, "improving"):
                    better = apply_flip(net, z, flip)
                    assert core.rank(core.encode(better.values)) >= rank + 1

    def test_rank_and_rows_equal_their_definitions(self):
        def weight(net, name, memo):
            """A(v) = 1 + the sum of A(c)(|D_c| - 1) over the effective children c."""
            if name not in memo:
                memo[name] = 1 + sum(weight(net, c.name, memo) * (len(c.domain) - 1)
                                     for c in net.variables if name in parents[c.name])
            return memo[name]

        rng = random.Random(20)
        for _ in range(40):
            net = random_net(rng, rng.randint(2, 5), (2, 3, 4), 3)
            parents = effective_parents(net)
            core, _ = _compiled(net)
            memo: dict[str, int] = {}
            for z in all_outcomes(net):
                value = dict(zip(net.names, z.values))
                rows, rank = [], 0
                for name in core.names:
                    v = net.variable(name)
                    cond = tuple(value[q] for q in parents[name])
                    conds = list(itertools.product(*(net.variable(q).domain
                                                     for q in parents[name])))
                    rows.append(conds.index(cond) * len(v.domain))
                    ranking = net.tables[name][tuple(value[q] for q in v.parents)]
                    below = len(ranking) - 1 - ranking.index(value[name])
                    rank += weight(net, name, memo) * below
                vals = core.encode(z.values)
                assert core.rows(vals) == rows
                assert core.rank(vals) == rank

    def test_threads_racing_on_the_rank_table_read_equal_ranks(self):
        rng = random.Random(20)
        net = random_net(rng, 12, (2, 3, 4), 3)
        outcomes = [Outcome(tuple(rng.choice(v.domain) for v in net.variables))
                    for _ in range(50)]
        _, codes = _compiled(net, *outcomes)
        expected = [_Core(net).rank(vals) for vals in codes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                core = _Core(net)  # a fresh core: every thread may build the table
                ranks: list = [None] * 8

                def read(k, core=core, ranks=ranks):
                    ranks[k] = [core.rank(vals) for vals in codes]

                threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert ranks == [expected] * 8
        finally:
            sys.setswitchinterval(interval)


class TestHeuristicNecessity:
    def test_greedy_jump_backtracks(self, ternary_root):
        x = outcome(ternary_root, "A=a1,B=bbar")
        y = outcome(ternary_root, "A=a3,B=b")
        adversarial = SearchConfig(direction="improving", least_improving=False)
        verdict = dominates(ternary_root, x, y, adversarial)
        assert verdict.kind == DOMINATES
        assert verdict.stats.backtracks >= 1

    def test_least_improving_is_backtrack_free_here(self, ternary_root):
        x = outcome(ternary_root, "A=a1,B=bbar")
        y = outcome(ternary_root, "A=a3,B=b")
        verdict = dominates(ternary_root, x, y, SearchConfig(direction="improving"))
        assert verdict.kind == DOMINATES
        assert verdict.stats.backtracks == 0

    def test_ternary_chain_positive(self, ternary_mid):
        x = outcome(ternary_mid, "A=a,B=b3,C=cbar")
        y = outcome(ternary_mid, "A=abar,B=b1,C=c")
        for direction in ("improving", "worsening", "bidirectional"):
            verdict = dominates(ternary_mid, x, y, SearchConfig(direction=direction))
            assert verdict.kind == DOMINATES
            if verdict.witness is not None:
                assert verify_witness(ternary_mid, x, y, verdict.witness)


class TestDirectionAsymmetry:
    def test_branching_side_is_slower(self, chain3):
        x = outcome(chain3, "A=abar,B=bbar,C=c")
        y = outcome(chain3, "A=abar,B=b,C=cbar")
        improving = dominates(chain3, x, y, RAW)
        worsening = dominates(chain3, x, y, replace(RAW, direction="worsening"))
        assert improving.kind == worsening.kind == DOMINATES
        assert worsening.stats.expansions < improving.stats.expansions

    def test_asymmetry_reverses_on_the_mirror_query(self, chain3):
        x = outcome(chain3, "A=a,B=b,C=c")
        y = outcome(chain3, "A=abar,B=bbar,C=cbar")
        improving = dominates(chain3, x, y, RAW)
        worsening = dominates(chain3, x, y, replace(RAW, direction="worsening"))
        assert improving.kind == worsening.kind == DOMINATES
        assert improving.stats.expansions < worsening.stats.expansions


def _committed_nets():
    rng = random.Random(61)
    chains = [random_chain(rng, n) for n in (2, 4, 5)]
    return chains + [random_tree(rng, n) for n in (3, 5, 6)]


def _backtracking_nets():
    rng = random.Random(7)
    return [random_net(rng, 3, (2, 3), 2) for _ in range(12)]


class TestOneWalk:
    """On committed nets a search is one flat walk, outside ``_dfs``,
    and bidirectional mode runs the improving walk alone."""

    def test_bidirectional_is_the_improving_walk(self):
        improving = SearchConfig(direction="improving")
        for net in _committed_nets():
            for x, y in all_pairs(net):
                both, one = dominates(net, x, y), dominates(net, x, y, improving)
                assert both.kind == one.kind
                assert both.witness == one.witness
                assert both.stats == one.stats

    def test_committed_queries_construct_no_searcher(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("started a _dfs")

        monkeypatch.setattr(search, "_dfs", refuse)
        nets = _committed_nets()
        for net in nets:
            for x, y in all_pairs(net):
                for direction in ("improving", "worsening", "bidirectional"):
                    dominates(net, x, y, SearchConfig(direction=direction))
        x, y = all_pairs(nets[0])[0]
        with pytest.raises(AssertionError, match="_dfs"):
            _search(nets[0], x, y, SearchConfig(rightmost=False))

    def test_budget_cuts_the_walk_at_exactly_its_budget(self):
        """A search expands at most ``budget`` nodes, each root included, on
        committed nets and on nets that backtrack alike."""
        assert _cuts(_committed_nets(), rightmost=True) > 10000
        assert _cuts(_backtracking_nets(), rightmost=False) > 4000


def _cuts(nets, rightmost):
    """How many budgets cut a searched query of ``nets``, checking that each
    budget at or below its full expansions reports exactly that budget, and
    that one budget more gives the unbudgeted verdict."""
    cut = 0
    for net in nets:
        for x, y in all_pairs(net):
            for direction in ("improving", "worsening", "bidirectional"):
                cfg = SearchConfig(direction=direction, rightmost=rightmost)
                full = dominates(net, x, y, cfg)
                if full.stats.decided_by != "search":
                    continue
                for budget in range(1, full.stats.expansions + 2):
                    verdict = dominates(net, x, y, replace(cfg, budget=budget))
                    if budget <= full.stats.expansions:
                        assert verdict.kind == BUDGET_EXHAUSTED
                        assert verdict.stats.expansions == budget
                        assert verdict.stats.decided_by == "budget"
                        cut += 1
                    else:
                        assert verdict == full
    return cut


POLY3_TEXT = """
var A: a, abar
var B: b, bbar
var C: c, cbar
parents C: A, B
cpt A: a > abar
cpt B: b > bbar
cpt C | A=a,B=b: c > cbar
cpt C | A=a,B=bbar: cbar > c
cpt C | A=abar,B=b: cbar > c
cpt C | A=abar,B=bbar: c > cbar
"""


@pytest.fixture(scope="module")
def poly3():
    net = parse_cpnet(POLY3_TEXT).net
    assert validate(net).ok
    return net


class TestPolytreeBacktracking:
    def test_leftmost_order_backtracks_on_parent_choice(self, poly3):
        x = outcome(poly3, "A=a,B=bbar,C=c")
        y = outcome(poly3, "A=abar,B=bbar,C=cbar")
        cfg = SearchConfig(
            direction="improving",
            suffix_fixing=False,
            suffix_extension=False,
            rightmost=False,
        )
        verdict = dominates(poly3, x, y, cfg)
        assert verdict.kind == DOMINATES
        assert verdict.stats.backtracks >= 1

    def test_full_heuristics_avoid_it_here(self, poly3):
        x = outcome(poly3, "A=a,B=bbar,C=c")
        y = outcome(poly3, "A=abar,B=bbar,C=cbar")
        verdict = dominates(poly3, x, y, SearchConfig(direction="improving"))
        assert verdict.kind == DOMINATES
        assert verdict.stats.backtracks == 0


class TestBudget:
    def test_budget_reports_exhaustion_not_failure(self, chain3):
        x = outcome(chain3, "A=a,B=b,C=c")
        y = outcome(chain3, "A=abar,B=b,C=cbar")
        verdict = dominates(chain3, x, y, SearchConfig(direction="improving", budget=1))
        assert verdict.kind == BUDGET_EXHAUSTED

    def test_budget_never_fakes_a_negative(self, chain3):
        x = outcome(chain3, "A=a,B=b,C=c")
        y = outcome(chain3, "A=abar,B=b,C=cbar")
        assert oracle_dominates(chain3, x, y)
        for budget in range(1, 12):
            verdict = dominates(
                chain3, x, y, SearchConfig(direction="improving", budget=budget)
            )
            assert verdict.kind in (DOMINATES, BUDGET_EXHAUSTED)

    def test_zero_budget_rejected(self):
        with pytest.raises(CPNetError):
            SearchConfig(budget=0)

    @pytest.mark.parametrize("budget", ["3", 2.0, True])
    def test_non_int_budget_rejected(self, budget):
        with pytest.raises(CPNetError, match="budget must be an int"):
            SearchConfig(budget=budget)

    @pytest.mark.parametrize("value", ["no", None, 0, 1])
    @pytest.mark.parametrize(
        "name",
        ["suffix_fixing", "suffix_extension", "rightmost", "least_improving",
         "visited_dedup", "want_witness"],
    )
    def test_non_bool_switch_rejected(self, name, value):
        with pytest.raises(CPNetError) as caught:
            SearchConfig(**{name: value})
        assert str(caught.value) == f"{name} must be a bool, not {value!r}"

    def test_unknown_direction_rejected(self):
        with pytest.raises(CPNetError) as caught:
            SearchConfig(direction="sideways")
        assert str(caught.value) == "unknown direction 'sideways'"


class TestWitnessComposition:
    def test_concatenation_verifies(self, chain2):
        top = outcome(chain2, "A=a,B=b")
        mid = outcome(chain2, "A=abar,B=bbar")
        low = outcome(chain2, "A=abar,B=b")
        cfg = SearchConfig(direction="improving")
        w1 = dominates(chain2, top, mid, cfg).witness
        w2 = dominates(chain2, mid, low, cfg).witness
        combined = FlipSequence(w2.start, w2.flips + w1.flips)
        assert verify_witness(chain2, top, low, combined)


class TestOracleEquivalenceSmoke:
    """A fast cross-check; the acceptance suite runs the full sweep."""

    def test_random_nets_match_oracle(self):
        rng = random.Random(123)
        for _ in range(12):
            net = random_net(rng, rng.randint(1, 4))
            closure = oracle_closure(net)
            for x, y in all_pairs(net):
                expected = x in closure[y]
                for direction in ("improving", "worsening", "bidirectional"):
                    verdict = dominates(net, x, y, SearchConfig(direction=direction))
                    assert (verdict.kind == DOMINATES) == expected, (
                        net.names,
                        x,
                        y,
                        direction,
                    )
                    if verdict.kind == DOMINATES:
                        assert verify_witness(net, x, y, verdict.witness)

    def test_never_both_directions_dominate(self):
        rng = random.Random(321)
        for _ in range(10):
            net = random_net(rng, rng.randint(2, 4))
            for x, y in all_pairs(net)[:40]:
                forward = dominates(net, x, y).kind == DOMINATES
                backward = dominates(net, y, x).kind == DOMINATES
                assert not (forward and backward)


def test_compiled_tables_equal_their_definition():
    rng = random.Random(23)
    nets = [make(rng, rng.randint(1, 9)) for make in (random_chain, random_tree)
            for _ in range(30)]
    nets += [random_net(rng, rng.randint(1, 9), (2, 3), 2) for _ in range(60)]
    # a child declared before its parent: positions differ from declarations
    nets.append(parse_cpnet("var B: b, c, d\nvar A: a, e\nparents B: A\ncpt A: e > a\n"
                            "cpt B | A=a: c > d > b\ncpt B | A=e: b > c > d\n").net)
    for net in nets:
        assert validate(net).ok
        core = _Core(net)
        assert (core.up, core.down) == reference_tables(net)


ONE_DEGENERATE = """var A: a0, a1
var B: b0, b1, b2
var C: c0, c1
parents C: A, B
cpt A: a0 > a1
cpt B: b2 > b0 > b1
"""


class TestEffectiveParents:
    """``_Core`` compiles each variable over the declared parents its table
    depends on (``effective_parents``), in declared order."""

    @staticmethod
    def compiled_as_defined(net):
        parents = effective_parents(net)
        core = _compiled(net)[0]
        assert [tuple(core.names[q] for q in ps) for ps in core.parents] == [
            parents[name] for name in core.names]
        assert (core.up, core.down) == reference_tables(net)
        for z in all_outcomes(net):
            value = dict(zip(net.names, z.values))
            rows = []
            for name in core.names:
                row = 0  # mixed radix over the effective parents, the first slowest
                for q in parents[name]:
                    domain = net.variable(q).domain
                    row = row * len(domain) + domain.index(value[q])
                rows.append(row * len(net.variable(name).domain))
            assert core.rows(core.encode(z.values)) == rows
        return core

    @pytest.mark.parametrize("kept", ["A", "B"])
    def test_one_degenerate_parent_of_two_is_dropped(self, kept):
        # C's ranking follows the value of ``kept`` alone
        text = ONE_DEGENERATE + "".join(
            f"cpt C | A={a},B={b}: " + ("c1 > c0" if {"A": a, "B": b}[kept] in ("a1", "b1")
                                        else "c0 > c1") + "\n"
            for a in ("a0", "a1") for b in ("b0", "b1", "b2"))
        net = parse_cpnet(text).net
        assert effective_parents(net) == {"A": (), "B": (), "C": (kept,)}
        core = self.compiled_as_defined(net)
        assert core.parents == ((), (), ({"A": 0, "B": 1}[kept],))
        size = 3 if kept == "B" else 2
        assert len(core.up[2]) == len(core.down[2]) == size * 2

    def test_both_parents_kept_in_declared_order(self):
        # declared B before A, though A comes first in topological order
        rows = "".join(f"cpt C | B={b},A={a}: " + ("c0 > c1" if (i + j) % 2 else "c1 > c0") + "\n"
                       for i, b in enumerate(("b0", "b1", "b2"))
                       for j, a in enumerate(("a0", "a1")))
        net = parse_cpnet(ONE_DEGENERATE.replace("parents C: A, B", "parents C: B, A") + rows).net
        assert effective_parents(net) == {"A": (), "B": (), "C": ("B", "A")}
        core = self.compiled_as_defined(net)
        assert core.parents == ((), (), (1, 0))
        # the row of C is (B's index * |A| + A's index) * |C|
        assert core.fanout == (((2, 2),), ((2, 4),), ())
        vals = core.encode(outcome(net, "A=a1,B=b2,C=c0").values)
        assert core.rows(vals)[2] == (2 * 2 + 1) * 2

    def test_a_variable_whose_parents_are_all_degenerate_is_a_root(self):
        net = parse_cpnet("var A: a0, a1\nvar B: b0, b1\nvar C: c0, c1\nparents C: A, B\n"
                          "cpt A: a0 > a1\ncpt B: b1 > b0\n"
                          + "".join(f"cpt C | A={a},B={b}: c1 > c0\n"
                                    for a in ("a0", "a1") for b in ("b0", "b1"))).net
        assert effective_parents(net) == {"A": (), "B": (), "C": ()}
        core = self.compiled_as_defined(net)
        assert core.parents == ((), (), ()) and core.fanout == ((), (), ())
        assert core.up[2] == (((2, 1),), ()) and core.down[2] == ((), ((2, 0),))
        # binary with no effective parent of two: the committed class
        assert core.committed(SearchConfig())


def test_nets_that_depend_on_one_parent_search_committed():
    # criterion 3's check, on binary nets whose variables declare up to two
    # parents and depend on at most one: committed, backtrack-free, exact
    rng = random.Random(2718)
    cfg = SearchConfig()
    queries = two_parents = 0
    for size in [3] * 10 + [4] * 15 + [5] * 15 + [6] * 10 + [7] * 3:
        net = random_one_parent_tables(rng, size)
        assert _compiled(net)[0].committed(cfg)
        two_parents += sum(len(v.parents) == 2 for v in net.variables)
        closure = oracle_closure(net)
        for x, y in all_pairs(net):
            verdict = _search(net, x, y, cfg)
            assert verdict.stats.backtracks == 0, (net.names, x.values, y.values)
            assert (verdict.kind == DOMINATES) == (x in closure[y]), (x.values, y.values)
            queries += 1
    assert two_parents > 30 and queries > 50000


class TestReachTable:
    """``_Core.prune`` reads its walks from a table that queries fill."""

    def test_a_warm_table_prunes_as_a_fresh_core(self):
        rng = random.Random(19)
        for _ in range(200):
            net = random_net(rng, rng.randint(2, 6), (2, 3), 3)
            warm, fresh = _Core(net), _Core(net)
            fresh._reach_cap = 0  # keeps no entry, so reads none
            for _ in range(50):
                x, y = ([rng.randrange(len(d)) for d in warm.domains] for _ in range(2))
                assert warm.prune(x, y) == fresh.prune(x, y)
            assert warm._reach and not fresh._reach

    def test_the_table_keeps_at_most_one_entry_per_row(self):
        # the child's key can take 3**12 values against 8,216 table rows
        net = random_star(random.Random(20), 12)
        core, small, fresh = _Core(net), _Core(net), _Core(net)
        assert core._reach_cap == sum(len(t) for t in core.down) == 2 * 4096 + 2 * 12
        small._reach_cap = 40  # so that the bound is reached
        fresh._reach_cap = 0  # keeps nothing, so computes every entry afresh
        rng = random.Random(21)
        for _ in range(2000):
            x, y = [rng.randrange(2) for _ in core.domains], [rng.randrange(2) for _ in core.domains]
            for p, parents in enumerate(core.parents):
                if not parents:  # a root, kept alive: its survivors are 1, 2 or 3
                    best = 0 if core.down[p][0] else 1
                    x[p], y[p] = rng.choice([(best, best), (1 - best, 1 - best), (best, 1 - best)])
            want = fresh.prune(x, y)
            assert core.prune(x, y) == want
            assert small.prune(x, y) == want
            assert len(core._reach) <= core._reach_cap
            assert len(small._reach) <= 40
        assert len(small._reach) == 40 and not fresh._reach


class TestDecidedBy:
    def test_equal_outcomes(self, chain3):
        z = outcome(chain3, "A=a,B=b,C=c")
        verdict = dominates(chain3, z, z)
        assert (verdict.kind, verdict.stats.decided_by) == (NOT_DOMINATED, "equal")

    def test_rank_refutes_before_search(self, polytree8):
        x = outcome(polytree8, "A=a,B=bbar,C=c,D=d,E=e,F=f,G=g,H=h")
        y = outcome(polytree8, "A=abar,B=b,C=c,D=d,E=e,F=f,G=g,H=h")
        core, (xs, ys) = _compiled(polytree8, x, y)
        assert core.rank(xs) <= core.rank(ys)
        verdict = dominates(polytree8, x, y)
        assert (verdict.kind, verdict.stats.decided_by) == (NOT_DOMINATED, "rank")
        assert verdict.stats.expansions == 0
        searched = _search(polytree8, x, y, SearchConfig())
        assert (searched.kind, searched.stats.decided_by) == (NOT_DOMINATED, "search")
        assert searched.stats.expansions > 0

    def test_prune_refutes_what_rank_does_not(self, polytree8):
        x = outcome(polytree8, "A=a,B=b,C=c,D=d,E=ebar,F=f,G=g,H=h")
        y = outcome(polytree8, "A=a,B=b,C=c,D=d,E=e,F=f,G=gbar,H=h")
        core, (xs, ys) = _compiled(polytree8, x, y)
        assert core.rank(xs) > core.rank(ys)
        verdict = dominates(polytree8, x, y)
        assert (verdict.kind, verdict.stats.decided_by) == (NOT_DOMINATED, "prune")
        assert (verdict.stats.expansions, verdict.stats.direction_decided) == (0, "none")
        assert not oracle_dominates(polytree8, x, y)

    def test_committed_chain_negative_still_searches(self, chain3):
        x = outcome(chain3, "A=a,B=bbar,C=c")
        y = outcome(chain3, "A=abar,B=bbar,C=cbar")
        verdict = dominates(chain3, x, y)
        assert (verdict.kind, verdict.stats.decided_by) == (NOT_DOMINATED, "search")
        assert verdict.stats.expansions > 0
        # without rightmost the search is no longer committed, so rank answers
        uncommitted = dominates(chain3, x, y, SearchConfig(rightmost=False))
        assert uncommitted.stats.decided_by == "rank"

    def test_search_and_budget(self, chain3):
        x = outcome(chain3, "A=a,B=b,C=c")
        y = outcome(chain3, "A=abar,B=bbar,C=cbar")
        assert dominates(chain3, x, y).stats.decided_by == "search"
        verdict = dominates(chain3, x, y, SearchConfig(budget=1))
        assert (verdict.kind, verdict.stats.decided_by) == (BUDGET_EXHAUSTED, "budget")


# -- pinned behaviour ----------------------------------------------------------
#
# (kind, expansions, backtracks, direction_decided, witness) for a fixed set
# of queries; witness is (flip count, first 16 hex digits of a SHA-256 over
# the start values and every flip), or None.  Recorded from the string-based
# engine that the compiled integer core replaced, so the search itself, not
# only its verdicts, is held fixed; the exceptions are the four committed
# bidirectional queries (entries 7, 10, 22 and 28), which run the improving
# walk alone and so equal their ``direction="improving"`` twins, and the 16
# entries that moved when the core began to compile only the parents each
# table depends on (``_Core``): no positive changed its expansions, and
# entry 8 went from a budget cut to an exhaustive negative.
# They are replayed through ``_search``, which is that search path; through
# ``dominates``, whose pre-check runs first, only negatives may change, and
# only to an answer found before any search.

PINNED = [
    ('not_dominated', 5, 0, 'improving', None),
    ('budget_exhausted', 2000, 1006, 'none', None),
    ('not_dominated', 5, 0, 'worsening', None),
    ('dominates', 7, 0, 'improving', (7, 'f95cdcf3667323ff')),
    ('dominates', 19, 0, 'worsening', (9, '182b8d6a247f4912')),
    ('budget_exhausted', 2000, 684, 'none', None),
    ('not_dominated', 21, 4, 'improving', None),
    ('dominates', 6, 0, 'improving', (6, 'd5a16759b08df852')),
    ('not_dominated', 1447, 715, 'worsening', None),
    ('not_dominated', 9, 0, 'improving', None),
    ('dominates', 8, 0, 'improving', (8, '665bbfc73452f664')),
    ('not_dominated', 11, 1, 'worsening', None),
    ('dominates', 30, 8, 'improving', (11, '024e648851fa7f5d')),
    ('dominates', 10, 0, 'improving', (5, 'af4262a106fe2bdb')),
    ('not_dominated', 8, 0, 'worsening', None),
    ('dominates', 2, 0, 'improving', (2, 'a84325490a942f65')),
    ('dominates', 10, 0, 'improving', (5, '521b11cf2fc39f27')),
    ('not_dominated', 10, 0, 'worsening', None),
    ('not_dominated', 71, 27, 'improving', None),
    ('dominates', 4, 0, 'improving', (2, '3eafa432c27f4c3b')),
    ('not_dominated', 97, 38, 'worsening', None),
    ('not_dominated', 11, 0, 'improving', None),
    ('not_dominated', 14, 0, 'improving', None),
    ('dominates', 5, 0, 'worsening', (5, 'c8925a2bf8c346e3')),
    ('dominates', 9, 0, 'improving', (9, '4492aa13985c1173')),
    ('not_dominated', 57, 8, 'worsening', None),
    ('dominates', 3, 0, 'worsening', (3, '64e48255330dad5f')),
    ('dominates', 16, 3, 'improving', (7, '9631c76743b57bc3')),
    ('not_dominated', 10, 0, 'improving', None),
    ('dominates', 11, 0, 'worsening', (11, '4481e64b00c5a9ba')),
    ('dominates', 10, 0, 'improving', (10, '8c08191b0b30c6a2')),
    ('not_dominated', 19, 0, 'worsening', None),
    ('dominates', 9, 0, 'worsening', (9, '4a8bee3118e5e5f9')),
    ('budget_exhausted', 2000, 698, 'none', None),
    ('not_dominated', 289, 107, 'worsening', None),
    ('dominates', 6, 0, 'worsening', (6, 'e779a2df42e508e7')),
    ('dominates', 9, 0, 'improving', (9, '3ae89fed4d49947e')),
    ('not_dominated', 2, 0, 'improving', None),
    ('not_dominated', 5, 0, 'worsening', None),
    ('dominates', 5, 0, 'improving', (5, 'db07445686913464')),
    ('dominates', 4, 0, 'improving', (2, '58d23b6596d2be92')),
    ('dominates', 11, 0, 'worsening', (11, '777fd5563b3ebb9e')),
]


def _pinned_pair(rng, net):
    y = Outcome(tuple(rng.choice(v.domain) for v in net.variables))
    if rng.random() < 0.4:
        return Outcome(tuple(rng.choice(v.domain) for v in net.variables)), y
    x = y
    for _ in range(rng.randint(2, 12)):
        flips = legal_flips(net, x, "improving")
        if not flips:
            break
        x = apply_flip(net, x, rng.choice(flips))
    return x, y


def _pinned_queries():
    rng = random.Random(2024)
    nets = [
        random_chain(rng, 12),
        random_chain(rng, 30),
        random_tree(rng, 16),
        random_tree(rng, 26),
        random_net(rng, 12, domain_sizes=(2, 3), max_parents=2),
        random_net(rng, 14, domain_sizes=(2, 3), max_parents=3),
        random_net(rng, 20, domain_sizes=(2,), max_parents=2),
    ]
    configs = [
        SearchConfig(),
        SearchConfig(suffix_fixing=False),
        SearchConfig(suffix_extension=False),
        SearchConfig(rightmost=False),
        SearchConfig(least_improving=False),
        SearchConfig(visited_dedup=False),
    ]
    combos = [
        (cfg, direction)
        for cfg in configs
        for direction in ("improving", "worsening", "bidirectional")
    ]
    queries = []
    for k in range(len(PINNED)):
        net = nets[k % len(nets)]
        cfg, direction = combos[(k * 5) % len(combos)]
        x, y = _pinned_pair(rng, net)
        cfg = replace(cfg, direction=direction, budget=2000)
        queries.append((net, x, y, cfg))
    return queries


def _fingerprint(verdict):
    w = verdict.witness
    flips = None
    if w is not None:
        steps = [(f.variable, f.from_value, f.to_value, f.direction) for f in w.flips]
        digest = hashlib.sha256(repr((w.start.values, steps)).encode()).hexdigest()
        flips = (len(w.flips), digest[:16])
    s = verdict.stats
    return (verdict.kind, s.expansions, s.backtracks, s.direction_decided, flips)


def test_pinned_search_behaviour():
    queries = _pinned_queries()
    got = [_fingerprint(_search(net, x, y, cfg)) for net, x, y, cfg in queries]
    assert got == PINNED
    one_walk = [
        k for k, (net, x, y, cfg) in enumerate(queries)
        if cfg.direction == "bidirectional" and _compiled(net)[0].committed(cfg)
    ]
    assert one_walk == [7, 10, 22, 28]
    for k in one_walk:
        net, x, y, cfg = queries[k]
        improving = _search(net, x, y, replace(cfg, direction="improving"))
        assert _fingerprint(improving) == PINNED[k]
    refuted = 0
    for (net, x, y, cfg), pinned in zip(queries, PINNED):
        verdict = dominates(net, x, y, cfg)
        if pinned[0] == DOMINATES:
            assert _fingerprint(verdict) == pinned
            assert verdict.stats.decided_by == "search"
        elif _fingerprint(verdict) != pinned:
            assert (verdict.kind, verdict.stats.expansions) == (NOT_DOMINATED, 0)
            assert verdict.stats.decided_by in ("rank", "prune")
            refuted += 1
    assert refuted > 0
