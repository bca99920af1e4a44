"""Search engine: dominance queries, heuristics, oracle, witnesses."""

import hashlib
import random
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
    extend_suffix,
    fixed_suffix,
    legal_flips,
    oracle_closure,
    oracle_dominates,
    order_flips,
    pareto_front,
    parse_cpnet,
    sort_catalog,
    topological_order,
    validate,
    verify_witness,
)
from cpnet.search import _compiled, _search
from helpers import all_pairs, outcome, random_chain, random_net, random_tree

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
        # The definitions read Variable.parents and legal_flips, not the core.
        rng = random.Random(57)
        for _ in range(25):
            net = random_net(rng, rng.randint(2, 4), (2, 3), 3)
            children = {v.name: [c.name for c in net.variables if v.name in c.parents]
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
# only its verdicts, is held fixed.  They are replayed through ``_search``,
# which is that unchanged search path; through ``dominates``, whose pre-check
# runs first, only negatives may change, and only to an answer found before
# any search.

PINNED = [
    ("not_dominated", 7, 0, "improving", None),
    ("budget_exhausted", 2000, 817, "none", None),
    ("not_dominated", 5, 0, "worsening", None),
    ("dominates", 7, 0, "improving", (7, "f95cdcf3667323ff")),
    ("dominates", 19, 0, "worsening", (9, "182b8d6a247f4912")),
    ("budget_exhausted", 2000, 684, "none", None),
    ("not_dominated", 40, 11, "improving", None),
    ("dominates", 12, 0, "improving", (6, "de49cfc36f7e12f6")),
    ("budget_exhausted", 2000, 496, "none", None),
    ("not_dominated", 10, 1, "improving", None),
    ("dominates", 15, 0, "worsening", (8, "0fb3f50d4a082844")),
    ("not_dominated", 11, 1, "worsening", None),
    ("dominates", 30, 8, "improving", (11, "024e648851fa7f5d")),
    ("dominates", 10, 0, "improving", (5, "af4262a106fe2bdb")),
    ("not_dominated", 14, 0, "worsening", None),
    ("dominates", 2, 0, "improving", (2, "a84325490a942f65")),
    ("dominates", 10, 0, "improving", (5, "521b11cf2fc39f27")),
    ("not_dominated", 14, 0, "worsening", None),
    ("not_dominated", 71, 27, "improving", None),
    ("dominates", 4, 0, "improving", (2, "3eafa432c27f4c3b")),
    ("not_dominated", 193, 86, "worsening", None),
    ("not_dominated", 18, 0, "improving", None),
    ("not_dominated", 29, 0, "worsening", None),
    ("dominates", 5, 0, "worsening", (5, "c8925a2bf8c346e3")),
    ("dominates", 9, 0, "improving", (9, "e1461b532bb4c109")),
    ("not_dominated", 57, 8, "worsening", None),
    ("dominates", 3, 0, "worsening", (3, "64e48255330dad5f")),
    ("dominates", 16, 3, "improving", (7, "9631c76743b57bc3")),
    ("not_dominated", 15, 0, "worsening", None),
    ("dominates", 11, 0, "worsening", (11, "4481e64b00c5a9ba")),
    ("dominates", 10, 0, "improving", (10, "8c08191b0b30c6a2")),
    ("not_dominated", 21, 1, "worsening", None),
    ("dominates", 9, 0, "worsening", (9, "4a8bee3118e5e5f9")),
    ("budget_exhausted", 2000, 698, "none", None),
    ("not_dominated", 289, 107, "worsening", None),
    ("dominates", 6, 0, "worsening", (6, "e779a2df42e508e7")),
    ("dominates", 9, 0, "improving", (9, "bd4fc650368b097d")),
    ("not_dominated", 2, 0, "improving", None),
    ("not_dominated", 19, 7, "worsening", None),
    ("dominates", 5, 0, "improving", (5, "db07445686913464")),
    ("dominates", 4, 0, "improving", (2, "58d23b6596d2be92")),
    ("dominates", 11, 0, "worsening", (11, "777fd5563b3ebb9e")),
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
