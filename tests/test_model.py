"""Core model: validation, ordering, flips, best/worst outcomes."""

import random

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
    legal_flips,
    oracle_dominates,
    topological_order,
    validate,
    worst_outcome,
)
from cpnet.planning import to_strips
from helpers import (
    all_pairs,
    brute_force_improving_flips,
    load_net,
    outcome,
    random_net,
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

        def broken(self, order):
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

    def test_validated_net_is_frozen(self, chain2):
        with pytest.raises(TypeError):
            chain2.variables[0] = Variable("Z", ("z", "zbar"))
        with pytest.raises(TypeError):
            chain2.tables["A"] = {(): ("abar", "a")}
        with pytest.raises(TypeError):
            chain2.tables["B"][("a",)] = ("bbar", "b")
        assert validate(chain2).ok


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

    def test_unsanctioned_flip_rejected(self, chain2):
        z = outcome(chain2, "A=a,B=b")
        with pytest.raises(CPNetError):
            apply_flip(chain2, z, Flip("A", "a", "abar", "improving"))


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
@settings(max_examples=60, deadline=None)
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
