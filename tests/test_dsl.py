"""Parser and serializer: round trips, diagnostics, totality."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnet import (
    CPNetError,
    parse_catalog,
    parse_cpnet,
    parse_outcome,
    parse_query,
    serialize_catalog,
    serialize_cpnet,
    validate,
)
from helpers import load_net, outcome, random_net

CANONICAL_CHAIN2 = """var A: a, abar
var B: b, bbar
parents B: A
cpt A: a > abar
cpt B | A=a: b > bbar
cpt B | A=abar: bbar > b
"""

FIXTURE_NAMES = [
    "chain2",
    "indep3",
    "chain3",
    "polytree8",
    "polytree8_ternary",
    "ternary_root",
    "ternary_mid",
    "tree5",
]


class TestParse:
    def test_two_variable_net(self):
        result = parse_cpnet(CANONICAL_CHAIN2)
        assert result.ok
        net = result.net
        assert validate(net).ok
        assert net.names == ("A", "B")
        assert net.variable("B").parents == ("A",)
        assert net.tables["B"][("a",)] == ("b", "bbar")
        assert net.tables["B"][("abar",)] == ("bbar", "b")

    def test_unknown_condition_value_positioned(self):
        text = "var A: a, abar\nvar B: b, bbar\nparents B: A\ncpt B | A=z: b > bbar\n"
        result = parse_cpnet(text)
        assert not result.ok
        diag = next(d for d in result.diagnostics if "unknown value z" in d.message)
        assert diag.line == 4
        # the `z` token sits at column 11 of the cpt line
        assert diag.column == 11
        assert "variable A" in diag.message

    def test_empty_text_gives_empty_candidate(self):
        result = parse_cpnet("")
        assert result.ok  # no syntax errors
        report = validate(result.net)
        assert not report.ok
        assert "no variables" in report.problems

    def test_comments_and_whitespace_ignored(self):
        text = "# header\n  var   A :a,abar  # trailing\n\n\ncpt A: a>abar"
        result = parse_cpnet(text)
        assert result.ok
        assert validate(result.net).ok

    def test_statements_in_any_order(self):
        text = "cpt A: a > abar\ncpt B | A=a: b > bbar\ncpt B | A=abar: bbar > b\nparents B: A\nvar B: b, bbar\nvar A: a, abar\n"
        result = parse_cpnet(text)
        assert result.ok
        assert validate(result.net).ok
        # declaration order comes from the var statements
        assert result.net.names == ("B", "A")


MALFORMED = [
    "var\n",
    "var A\n",
    "var A:\n",
    "var A: a,\n",
    "var A: a, a\n",
    "var A: a, abar\nvar A: x, y\n",
    "parents B: A\n",
    "var A: a, abar\nparents A: Q\n",
    "var A: a, abar\nparents A:, \n",
    "cpt Q: a > b\n",
    "var A: a, abar\ncpt A | : a > abar\n",
    "var A: a, abar\ncpt A: a >\n",
    "var A: a, abar\ncpt A a > abar\n",
    "var A: a, abar\ncpt A: a > q\n",
    "var A: a, abar\nvar B: b, bbar\ncpt B | A=a: b > bbar\n",
    "var A: a, abar\nvar B: b, bbar\nparents B: A\ncpt B | B=b: b > bbar\n",
    "var A: a, abar\nvar B: b, bbar\nparents B: A\ncpt B | A=a, A=a: b > bbar\n",
    "var A: a, abar\ncpt A: a > abar\ncpt A: abar > a\n",
    "junk before anything\n",
    "var A: a, abar @ b\n",
    "var A: a, abar\nparents A: A\nparents A: A\n",
    "var A: 0bad: x\n",
]


class TestDiagnostics:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_input_yields_positioned_error(self, text):
        result = parse_cpnet(text)
        errors = [d for d in result.diagnostics if d.severity == "error"]
        assert errors, f"expected an error for {text!r}"
        for diag in errors:
            assert diag.line >= 1
            assert diag.column >= 1
            lines = text.splitlines()
            # end-of-input errors may point just past the final line
            assert diag.line <= max(len(lines), 1) + 1

    def test_parse_never_raises_on_binary_noise(self):
        rng = random.Random(5)
        for _ in range(500):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            parse_cpnet(blob.decode("latin-1"))

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_parse_total_on_arbitrary_text(self, text):
        parse_cpnet(text)


class TestSerialize:
    def test_canonical_form(self, chain2):
        assert serialize_cpnet(chain2) == CANONICAL_CHAIN2

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_round_trip(self, name):
        net = load_net(name)
        text = serialize_cpnet(net)
        result = parse_cpnet(text)
        assert result.ok
        reparsed = result.net
        assert validate(reparsed).ok
        assert reparsed.names == net.names
        assert [v.parents for v in reparsed.variables] == [v.parents for v in net.variables]
        assert reparsed.tables == net.tables

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_idempotent(self, name):
        net = load_net(name)
        text = serialize_cpnet(net)
        assert serialize_cpnet(parse_cpnet(text).net) == text

    def test_ternary_row_rendering(self, ternary_root):
        assert "cpt A: a1 > a2 > a3" in serialize_cpnet(ternary_root)

    def test_round_trip_on_random_nets(self):
        rng = random.Random(11)
        for _ in range(25):
            net = random_net(rng, rng.randint(1, 5), domain_sizes=(2, 3))
            reparsed = parse_cpnet(serialize_cpnet(net)).net
            assert validate(reparsed).ok
            assert reparsed.tables == net.tables


class TestOutcomeAndQuery:
    def test_parse_outcome(self, chain2):
        got = parse_outcome(chain2, "A=a,B=bbar")
        assert got.values == ("a", "bbar")

    def test_missing_binding(self, chain2):
        with pytest.raises(CPNetError, match="missing binding for B"):
            parse_outcome(chain2, "A=a")

    def test_unknown_value(self, chain2):
        with pytest.raises(CPNetError, match="unknown value"):
            parse_outcome(chain2, "A=a,B=zzz")

    def test_duplicate_binding(self, chain2):
        with pytest.raises(CPNetError, match="duplicate binding"):
            parse_outcome(chain2, "A=a,A=a,B=b")

    def test_parse_query(self, chain3):
        better, worse = parse_query(
            chain3, "A=a,B=bbar,C=c > A=abar,B=bbar,C=cbar"
        )
        assert better == outcome(chain3, "A=a,B=bbar,C=c")
        assert worse == outcome(chain3, "A=abar,B=bbar,C=cbar")

    def test_query_needs_single_separator(self, chain2):
        with pytest.raises(CPNetError):
            parse_query(chain2, "A=a,B=b")


class TestCatalog:
    def test_two_rows(self, chain2):
        rows, diagnostics = parse_catalog(chain2, "id,A,B\np1,a,b\np2,abar,b\n")
        assert not diagnostics
        assert [r.identifier for r in rows] == ["p1", "p2"]
        assert rows[1].outcome == outcome(chain2, "A=abar,B=b")

    def test_header_missing_variable(self, chain2):
        rows, diagnostics = parse_catalog(chain2, "id,A\np1,a\n")
        assert any("header missing variable B" in d.message for d in diagnostics)

    def test_unknown_value_positioned(self, chain2):
        rows, diagnostics = parse_catalog(chain2, "id,A,B\np1,q,b\n")
        diag = next(d for d in diagnostics if "unknown value" in d.message)
        assert diag.line == 2
        assert diag.column == 4  # the `q` cell
        assert rows == []

    def test_duplicate_id(self, chain2):
        _, diagnostics = parse_catalog(chain2, "id,A,B\np1,a,b\np1,abar,b\n")
        assert any("duplicate id" in d.message for d in diagnostics)

    def test_columns_any_order(self, chain2):
        rows, diagnostics = parse_catalog(chain2, "id,B,A\np1,bbar,a\n")
        assert not diagnostics
        assert rows[0].outcome == outcome(chain2, "A=a,B=bbar")

    def test_quoted_cells(self, chain2):
        rows, diagnostics = parse_catalog(chain2, 'id,A,B\n"p,1",a,b\n')
        assert not diagnostics
        assert rows[0].identifier == "p,1"

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ("name,A,B\np1,a,b\n", 1, 1, "header must start with 'id'"),
            ("id,A,B,C\np1,a,b,c\n", 1, 8, "unknown column 'C'"),
            ("id,A,B,A\np1,a,b,a\n", 1, 1, "duplicate header column"),
            ("id,A,B\np1,a\n", 2, 1, "expected 3 cells, got 2"),
            ("id,A,B\n,a,b\n", 2, 1, "empty id"),
            ("", 1, 1, "empty catalog (missing header)"),
            ('id,A,B\n"p1"x,a,b\n', 2, 5, "text after a closing quote"),
            ('id,"A"B,B\np1,a,b\n', 1, 7, "text after a closing quote"),
        ],
    )
    def test_positioned_diagnostics(self, chain2, text, line, column, message):
        rows, diagnostics = parse_catalog(chain2, text)
        assert rows == []
        assert [(d.line, d.column, d.message) for d in diagnostics] == [(line, column, message)]

    def test_text_after_closing_quote_skips_only_its_row(self, chain2):
        rows, diagnostics = parse_catalog(chain2, 'id,A,B\n"p1"x,a,b\n"p2" ,abar,b\n')
        assert [str(d) for d in diagnostics] == ["2:5: error: text after a closing quote"]
        assert [r.identifier for r in rows] == ["p2"]

    def test_doubled_quote_inside_quoted_cell(self, chain2):
        rows, diagnostics = parse_catalog(chain2, 'id,A,B\n"p""1",a,b\n')
        assert not diagnostics
        assert rows[0].identifier == 'p"1'

    def test_round_trip(self, chain3):
        text = "id,A,B,C\nx1,a,b,c\nx2,abar,bbar,cbar\n"
        rows, diagnostics = parse_catalog(chain3, text)
        assert not diagnostics
        again, diagnostics2 = parse_catalog(chain3, serialize_catalog(chain3, rows))
        assert not diagnostics2
        assert again == rows
