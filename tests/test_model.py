"""Core model: validation, ordering, flips, best/worst outcomes."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnet import (
    CPNet,
    CPNetError,
    Flip,
    Variable,
    apply_flip,
    best_outcome,
    dominates,
    legal_flips,
    oracle_dominates,
    parse_cpnet,
    serialize_cpnet,
    topological_order,
    validate,
    worst_outcome,
)
from cpnet.planning import to_strips
from helpers import (
    FIXTURES,
    all_pairs,
    brute_force_improving_flips,
    load_net,
    outcome,
    random_net,
    wide_text,
)


class TestValidate:
    def test_valid_two_variable_net(self, chain2):
        assert validate(chain2).ok

    def test_missing_row_is_reported(self):
        net = CPNet(
            [Variable("A", ("a", "abar")), Variable("B", ("b", "bbar"), ("A",))],
            {
                "A": {(): ("a", "abar")},
                "B": {("a",): ("b", "bbar")},  # no row for A=abar
            },
        )
        report = validate(net)
        assert not report.ok
        assert any("missing CPT row for B" in p and "A=abar" in p for p in report.problems)

    def test_missing_rows_listed_in_product_order(self):
        values = tuple(f"a{k}" for k in range(6))
        net = CPNet(
            [Variable("A", values), Variable("B", ("b", "bbar"), ("A",))],
            {"A": {(): values}, "B": {("a0",): ("b", "bbar")}},
        )
        missing = [p for p in validate(net).problems if p.startswith("missing CPT row")]
        assert missing == [f"missing CPT row for B under A={value}" for value in values[1:]]

    @pytest.mark.parametrize("size", [101, 102])
    def test_missing_rows_are_listed_up_to_a_cap(self, size):
        values = tuple(f"a{k}" for k in range(size))
        net = CPNet(
            [Variable("A", values), Variable("B", ("b", "bbar"), ("A",))],
            {"A": {(): values}, "B": {("a0",): ("b", "bbar")}},
        )
        listed = [f"missing CPT row for B under A={value}" for value in values[1:101]]
        more = ["… and 1 more missing CPT rows for B"] if size == 102 else []
        assert validate(net).problems == listed + more

    def test_validation_is_bounded_by_the_text(self):
        # 2**24 - 1 rows are missing; the report lists the first 100 of them
        net = parse_cpnet(wide_text(24)).net
        start = time.perf_counter()
        problems = validate(net).problems
        assert time.perf_counter() - start < 0.5
        listed = [
            "missing CPT row for C under "
            + ",".join(f"P{i}={'ab'[k >> (23 - i) & 1]}" for i in range(24))
            for k in range(1, 101)
        ]
        assert problems == listed + ["… and 16777115 more missing CPT rows for C"]

    def test_cycle_is_reported(self):
        net = CPNet(
            [
                Variable("A", ("a", "abar"), ("B",)),
                Variable("B", ("b", "bbar"), ("A",)),
            ],
            {
                "A": {("b",): ("a", "abar"), ("bbar",): ("a", "abar")},
                "B": {("a",): ("b", "bbar"), ("abar",): ("b", "bbar")},
            },
        )
        report = validate(net)
        assert not report.ok
        cycle = next(p for p in report.problems if "cycle" in p)
        assert "A" in cycle and "B" in cycle

    def test_empty_net(self):
        report = validate(CPNet([], {}))
        assert not report.ok
        assert "no variables" in report.problems

    def test_partial_ranking_rejected(self):
        net = CPNet(
            [Variable("A", ("a", "abar", "aa"))],
            {"A": {(): ("a", "abar")}},
        )
        report = validate(net)
        assert not report.ok
        assert any("partial ranking" in p for p in report.problems)

    def test_duplicate_value_in_ranking_rejected(self):
        net = CPNet(
            [Variable("A", ("a", "abar"))],
            {"A": {(): ("a", "a")}},
        )
        report = validate(net)
        assert not report.ok
        assert any("duplicate value" in p for p in report.problems)

    @pytest.mark.parametrize(
        "domain, ranking, problem",
        [
            (("a", "b"), ("a", "b", "a"), "duplicate value in a ranking of A"),
            (("a", "b"), ("b", "a", "b", "a"), "duplicate value in a ranking of A"),
            (("a", "b", "c"), ("a", "b", "d"), "partial ranking for A under P=p "
                                               "(every domain value must appear exactly once)"),
            (("a", "b", "c"), ("c", "b", "a", "d"), "partial ranking for A under P=p "
                                                    "(every domain value must appear exactly once)"),
            (("a", "b", "a"), ("b", "a"), "duplicate domain value in variable A"),
        ],
        ids=["repeat-covers-domain", "doubled", "foreign-value", "extra-value", "domain-repeat"],
    )
    def test_each_row_ranks_each_value_once(self, domain, ranking, problem):
        net = CPNet(
            [Variable("P", ("p", "q")), Variable("A", domain, ("P",))],
            {"P": {(): ("p", "q")}, "A": {("p",): ranking, ("q",): tuple(dict.fromkeys(domain))}},
        )
        assert validate(net).problems == [problem]

    @pytest.mark.parametrize(
        "variables, tables, problem",
        [
            ([Variable("A", ("a", "abar")), Variable("A", ("a", "abar"))],
             {"A": {(): ("a", "abar")}}, "duplicate variable A"),
            ([Variable("A", ("a",))], {"A": {(): ("a",)}},
             "variable A needs at least 2 domain values"),
            ([Variable("A", ("a", "a"))], {"A": {(): ("a", "a")}},
             "duplicate domain value in variable A"),
            ([Variable("A", ("a", "abar"), ("Z",))], {"A": {("z",): ("a", "abar")}},
             "unknown parent Z of variable A"),
            ([Variable("A", ("a", "abar")), Variable("B", ("b", "bbar"), ("A", "A"))],
             {"A": {(): ("a", "abar")}, "B": {("a", "a"): ("b", "bbar")}},
             "duplicate parent A of variable B"),
            ([Variable("A", ("a", "abar"))],
             {"A": {(): ("a", "abar")}, "Z": {(): ("z", "zbar")}},
             "table for unknown variable Z"),
            ([Variable("A", ("a", "abar")), Variable("B", ("b", "bbar"))],
             {"A": {(): ("a", "abar")}}, "missing CPT for B"),
            ([Variable("A", ("a", "abar"))], {"A": {(): ("a", "abar"), ("x",): ("a", "abar")}},
             "unexpected CPT row for A under x"),
        ],
        ids=["duplicate-variable", "one-value", "duplicate-value", "unknown-parent",
             "duplicate-parent", "unknown-table", "missing-cpt", "unexpected-row"],
    )
    def test_structural_problem_reported(self, variables, tables, problem):
        report = validate(CPNet(variables, tables))
        assert not report.ok
        assert problem in report.problems

    def test_self_parent_rejected(self):
        net = CPNet(
            [Variable("A", ("a", "abar"), ("A",))],
            {"A": {("a",): ("a", "abar"), ("abar",): ("a", "abar")}},
        )
        assert not validate(net).ok

    def test_names_and_values_must_be_identifiers(self):
        # Joined by '-', these would name two different moves
        # flip-A-b-x-to-c, so such names never validate.
        net = CPNet(
            [Variable("A-b", ("x", "c")), Variable("A", ("b-x", "c"))],
            {"A-b": {(): ("c", "x")}, "A": {(): ("c", "b-x")}},
        )
        report = validate(net)
        assert not report.ok
        assert "variable name 'A-b' is not an identifier" in report.problems
        assert "value 'b-x' of variable A is not a word" in report.problems
        with pytest.raises(CPNetError):
            to_strips(net, "improving")
        for bad in ("", "1A", "A b", 7):
            net = CPNet([Variable(bad, ("a", "abar"))], {bad: {(): ("a", "abar")}})
            assert not validate(net).ok
        for bad in ("", "a b", "a.b", 7):
            net = CPNet([Variable("A", (bad, "abar"))], {"A": {(): (bad, "abar")}})
            assert not validate(net).ok
        unhashable = (  # a domain value, a ranking entry, a parent name
            CPNet([Variable("A", (["a"], "b"))], {"A": {(): ("b", "a")}}),
            CPNet([Variable("A", ("a", "b"))], {"A": {(): (["a"], "b")}}),
            CPNet([Variable("A", ("a", "b"), (["B"],))], {"A": {(): ("a", "b")}}),
        )
        for net in unhashable:
            report = validate(net)
            assert not report.ok
            assert any("['" in problem for problem in report.problems), report.problems
        digits = CPNet([Variable("A_1", ("0", "1"))], {"A_1": {(): ("1", "0")}})
        assert validate(digits).ok

    @pytest.mark.parametrize(
        "bad, ranking, message",
        [
            (Variable("B-c", ("b", "bbar")), ("b", "bbar"),
             "variable name 'B-c' is not an identifier"),
            (Variable("B", ("b-x", "bbar")), ("b-x", "bbar"),
             "value 'b-x' of variable B is not a word"),
        ],
    )
    def test_a_misshapen_str_word_keeps_the_structural_checks(self, bad, ranking, message):
        twice = Variable("A", ("a", "abar"))
        net = CPNet([twice, twice, bad], {"A": {(): ("a", "abar")}, bad.name: {(): ranking}})
        assert validate(net).problems == [message, "duplicate variable A"]

    @pytest.mark.parametrize(
        "bad, ranking, messages",
        [
            (Variable(7, ("b", "bbar")), ("b", "bbar"), ["variable name 7 is not an identifier"]),
            (Variable("B", (7, "bbar")), (7, "bbar"),
             ["value 7 of variable B is not a word", "ranking value 7 for B is not a word"]),
            (Variable("B", ("b", "bbar"), (7,)), ("b", "bbar"),
             ["parent 7 of variable B is not a name"]),
            (Variable("B", ("b", "bbar")), ("b", 7), ["ranking value 7 for B is not a word"]),
        ],
        ids=["name", "value", "parent", "ranking"],
    )
    def test_a_word_that_is_not_a_str_stops_the_structural_checks(self, bad, ranking, messages):
        twice = Variable("A", ("a", "abar"))
        net = CPNet([twice, twice, bad], {"A": {(): ("a", "abar")}, bad.name: {(): ranking}})
        assert validate(net).problems == messages

    def test_operations_refuse_invalid_net(self):
        net = CPNet([], {})
        with pytest.raises(CPNetError):
            topological_order(net)

    def test_long_child_first_chain_validates(self):
        n = 3000
        net = _long_chain(n, reversed(range(n)))
        assert validate(net).ok
        assert topological_order(net) == [f"X{i}" for i in range(n)]

    def test_long_cycle_is_reported(self):
        n = 3000
        net = _long_chain(n, range(n), closed=True)
        report = validate(net)
        assert not report.ok
        cycle = [p for p in report.problems if p.startswith("cycle ")]
        assert len(cycle) == 1
        names = cycle[0][len("cycle "):].split(" -> ")
        assert len(names) == n + 1 and names[0] == names[-1]
        assert set(names) == {f"X{i}" for i in range(n)}

    def test_report_published_only_after_caches_are_built(self, monkeypatch):
        net = _long_chain(3, range(3))

        def broken(self, index, parents, order):
            raise RuntimeError("cache build failed")

        monkeypatch.setattr(CPNet, "_build_caches", broken)
        with pytest.raises(RuntimeError):
            validate(net)
        assert net._report is None
        with pytest.raises(RuntimeError):
            validate(net)
        monkeypatch.undo()
        assert validate(net).ok

    @pytest.mark.parametrize(
        "variables, tables",
        [
            ([Variable("A", 5)], {"A": {(): ("a", "b")}}),
            ([Variable("A", ("a", "b"), 5)], {"A": {(): ("a", "b")}}),
            ([Variable("A", ("a", "b"))], {"A": {5: ("a", "b")}}),
            ([Variable("A", ("a", "b"))], {"A": {(): 5}}),
            ([Variable("A", ("a", "b"))], {"A": [((), ("a", "b"))]}),
            ([Variable("A", ("a", "b"))], [("A", {(): ("a", "b")})]),
            (["A"], {"A": {(): ("a", "b")}}),
            (5, {}),
        ],
        ids=["domain", "parents", "condition", "ranking", "rows", "tables", "variable",
             "variables"],
    )
    def test_malformed_constructor_input_raises_cpnet_error(self, variables, tables):
        with pytest.raises(CPNetError, match="malformed net input"):
            CPNet(variables, tables)

    @pytest.mark.parametrize(
        "variables, tables",
        [
            ([Variable("A", "ab")], {"A": {(): ("a", "b")}}),
            ([Variable("A", ("a", "b")), Variable("B", ("c", "d"), "A")],
             {"A": {(): ("a", "b")}, "B": {("a",): ("c", "d"), ("b",): ("d", "c")}}),
            ([Variable("A", ("a", "b")), Variable("B", ("c", "d"), ("A",))],
             {"A": {(): ("a", "b")}, "B": {"a": ("c", "d"), ("b",): ("d", "c")}}),
            ([Variable("A", ("a", "b"))], {"A": {(): "ba"}}),
        ],
        ids=["domain", "parents", "condition", "ranking"],
    )
    def test_string_is_not_a_sequence_of_words(self, variables, tables):
        with pytest.raises(CPNetError, match="is a string, not a sequence"):
            CPNet(variables, tables)

    @pytest.mark.parametrize("sequence", [tuple, list], ids=["tuples", "lists"])
    def test_constructor_copies_its_input(self, sequence):
        def inputs():
            variables = [Variable("A", sequence(("a", "abar"))),
                         Variable("B", sequence(("b", "bbar")), sequence(("A",)))]
            tables = {"A": {(): sequence(("a", "abar"))},
                      "B": {("a",): sequence(("b", "bbar")), ("abar",): sequence(("bbar", "b"))}}
            return variables, tables

        variables, tables = inputs()
        rows, ranking = tables["B"], tables["A"][()]
        net = CPNet(variables, tables)
        report = validate(net).problems
        text = serialize_cpnet(net)
        variables.append(Variable("C", ("c", "cbar")))
        tables["C"] = {(): ("c", "cbar")}
        tables["A"] = {(): ("abar", "a")}
        rows[("a",)] = ("bbar", "b")
        del rows[("abar",)]
        if sequence is list:
            ranking.reverse()
            variables[0].domain.append("a2")
            variables[1].parents.clear()
        fresh = CPNet(*inputs())
        assert net.variables == fresh.variables
        assert net.tables == fresh.tables
        assert validate(net).problems == validate(fresh).problems == report == []
        assert serialize_cpnet(net) == serialize_cpnet(fresh) == text
        # a net built and then validated only after its input changed is no different
        variables, tables = inputs()
        late = CPNet(variables, tables)
        tables["B"].clear()
        tables["A"][()] = ("abar", "a")
        assert validate(late).ok and serialize_cpnet(late) == text

    def test_parser_tuples_and_list_copies_build_equal_nets(self):
        for path in sorted(FIXTURES.glob("*.cpnet")):
            parsed = load_net(path.stem)
            listed = CPNet(
                [Variable(v.name, list(v.domain), list(v.parents)) for v in parsed.variables],
                {owner: {cond: list(ranking) for cond, ranking in rows.items()}
                 for owner, rows in parsed.tables.items()},
            )
            assert listed.variables == parsed.variables
            assert listed.tables == parsed.tables
            for net in (parsed, listed):
                assert all(type(v.domain) is tuple and type(v.parents) is tuple
                           for v in net.variables)
                assert all(type(cond) is tuple and type(ranking) is tuple
                           for rows in net.tables.values() for cond, ranking in rows.items())
            assert validate(listed).ok
            assert serialize_cpnet(listed) == serialize_cpnet(parsed)
            assert best_outcome(listed) == best_outcome(parsed)

    def test_validated_net_is_frozen(self, chain2):
        with pytest.raises(TypeError):
            chain2.variables[0] = Variable("Z", ("z", "zbar"))
        with pytest.raises(TypeError):
            chain2.tables["A"] = {(): ("abar", "a")}
        with pytest.raises(TypeError):
            chain2.tables["B"][("a",)] = ("bbar", "b")
        assert validate(chain2).ok
        # neither attribute can be rebound or deleted (a fresh net, so that a
        # failure leaves the shared fixture intact)
        net = load_net("chain2")
        x, y = outcome(net, "A=a,B=b"), outcome(net, "A=abar,B=b")
        verdict = dominates(net, x, y)
        text = serialize_cpnet(net)
        with pytest.raises(AttributeError):
            net.tables = {}
        with pytest.raises(AttributeError):
            net.variables = net.variables[::-1]
        with pytest.raises(AttributeError):
            del net.tables
        with pytest.raises(AttributeError):
            del net.variables
        assert validate(net).ok
        assert dominates(net, x, y) == verdict
        assert serialize_cpnet(net) == text
        assert best_outcome(net) == x


def _long_chain(n, declaration_order, closed=False):
    """A binary chain X0 -> ... -> Xn-1 (closed into a cycle when asked),
    declared in the given order of indices."""
    variables, tables = [], {}
    for i in declaration_order:
        parent = f"X{(i - 1) % n}" if i or closed else None
        variables.append(Variable(f"X{i}", ("t", "f"), (parent,) if parent else ()))
        rows = [("t",), ("f",)] if parent else [()]
        tables[f"X{i}"] = {row: ("t", "f") for row in rows}
    return CPNet(variables, tables)


class TestTopologicalOrder:
    def test_chain(self, chain3):
        assert topological_order(chain3) == ["A", "B", "C"]

    def test_declaration_order_breaks_ties(self, indep3):
        assert topological_order(indep3) == ["A", "B", "C"]

    def test_polytree_canonical_order(self, polytree8):
        order = topological_order(polytree8)
        assert order == ["A", "B", "C", "D", "E", "F", "G", "H"]
        pos = {name: i for i, name in enumerate(order)}
        for v in polytree8.variables:
            for parent in v.parents:
                assert pos[parent] < pos[v.name]


def _flip_set(flips):
    return {(f.variable, f.from_value, f.to_value) for f in flips}


class TestLegalFlips:
    def test_only_root_improves_at_bottom_of_chain(self, chain3):
        z = outcome(chain3, "A=abar,B=bbar,C=cbar")
        assert _flip_set(legal_flips(chain3, z, "improving")) == {("A", "abar", "a")}

    def test_three_way_branching(self, chain3):
        z = outcome(chain3, "A=abar,B=b,C=cbar")
        assert _flip_set(legal_flips(chain3, z, "improving")) == {
            ("A", "abar", "a"),
            ("B", "b", "bbar"),
            ("C", "cbar", "c"),
        }

    def test_non_adjacent_jump_is_legal(self, ternary_root):
        z = outcome(ternary_root, "A=a3,B=b")
        assert _flip_set(legal_flips(ternary_root, z, "improving")) == {
            ("A", "a3", "a2"),
            ("A", "a3", "a1"),
        }

    def test_matches_row_reading_on_random_nets(self):
        rng = random.Random(31)
        for _ in range(25):
            net = random_net(rng, rng.randint(1, 4), domain_sizes=(2, 3))
            for z, _ in all_pairs(net)[:20] or [(best_outcome(net), None)]:
                got = _flip_set(legal_flips(net, z, "improving"))
                assert got == brute_force_improving_flips(net, z)

    def test_direction_symmetry(self, chain3):
        for z, _ in all_pairs(chain3):
            for f in legal_flips(chain3, z, "improving"):
                z2 = apply_flip(chain3, z, f)
                back = f.reversed()
                assert _flip_set([back]) <= _flip_set(
                    legal_flips(chain3, z2, "worsening")
                )


class TestApplyFlip:
    def test_single_coordinate_substitution(self, chain3):
        z = outcome(chain3, "A=abar,B=bbar,C=cbar")
        f = Flip("A", "abar", "a", "improving")
        assert apply_flip(chain3, z, f) == outcome(chain3, "A=a,B=bbar,C=cbar")

    def test_second_application_rejected(self, chain2):
        z = outcome(chain2, "A=a,B=b")
        f = Flip("B", "b", "bbar", "worsening")
        z2 = apply_flip(chain2, z, f)
        assert z2 == outcome(chain2, "A=a,B=bbar")
        with pytest.raises(CPNetError):
            apply_flip(chain2, z2, f)

    @pytest.mark.parametrize(
        "flip, message",
        [
            (Flip("A", "a", "abar", "improving"),
             "flip A: a -> abar is not a sanctioned improving flip here"),
            (Flip("A", "a", "a", "improving"), "'a' -> 'a' is not a flip"),
        ],
    )
    def test_unsanctioned_flip_rejected(self, chain2, flip, message):
        z = outcome(chain2, "A=a,B=b")
        with pytest.raises(CPNetError) as caught:
            apply_flip(chain2, z, flip)
        assert str(caught.value) == message


class TestBestWorst:
    def test_independent_net(self, indep3):
        assert best_outcome(indep3) == outcome(indep3, "A=a,B=b,C=c")
        assert worst_outcome(indep3) == outcome(indep3, "A=abar,B=bbar,C=cbar")

    def test_conditional_worst_follows_parent_context(self, chain2):
        assert best_outcome(chain2) == outcome(chain2, "A=a,B=b")
        # With A=abar the B row flips, so the worst keeps B=b.
        assert worst_outcome(chain2) == outcome(chain2, "A=abar,B=b")

    def test_best_has_no_improving_flips(self):
        rng = random.Random(7)
        for _ in range(30):
            net = random_net(rng, rng.randint(1, 5))
            assert legal_flips(net, best_outcome(net), "improving") == []
            assert legal_flips(net, worst_outcome(net), "worsening") == []

    def test_best_dominates_everything_small_nets(self):
        rng = random.Random(8)
        for _ in range(8):
            net = random_net(rng, rng.randint(2, 4))
            best = best_outcome(net)
            for a, b in all_pairs(net):
                if b == best:
                    assert oracle_dominates(net, best, a)


class TestFlipMonotonicity:
    def test_every_improving_flip_improves_per_oracle(self):
        rng = random.Random(9)
        for _ in range(8):
            net = random_net(rng, rng.randint(2, 4))
            for z, _ in all_pairs(net)[:30]:
                for f in legal_flips(net, z, "improving"):
                    z2 = apply_flip(net, z, f)
                    assert oracle_dominates(net, z2, z)
                for f in legal_flips(net, z, "worsening"):
                    z2 = apply_flip(net, z, f)
                    assert oracle_dominates(net, z, z2)


@st.composite
def tiny_nets(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return random_net(random.Random(seed), n, domain_sizes=(2, 3))


@given(tiny_nets(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_flip_reversal_property(net, seed):
    rng = random.Random(seed)
    values = tuple(rng.choice(v.domain) for v in net.variables)
    from cpnet import Outcome

    z = Outcome(values)
    for f in legal_flips(net, z, "improving"):
        z2 = apply_flip(net, z, f)
        reverse = f.reversed()
        assert reverse in legal_flips(net, z2, "worsening")
        assert apply_flip(net, z2, reverse) == z
