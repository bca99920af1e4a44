"""Parser and serializer: round trips, diagnostics, totality."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnet import (
    CatalogRow,
    CPNetError,
    Outcome,
    Variable,
    all_outcomes,
    dsl,
    parse_catalog,
    parse_cpnet,
    parse_outcome,
    parse_query,
    serialize_catalog,
    serialize_cpnet,
    validate,
)
from helpers import FIXTURES, load_net, make_net, outcome, random_net

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


HEAD = "var A: a, abar\nvar B: b, bbar\nparents B: A\n"
MISSING_A = "condition for B must bind every parent (missing A)"


class TestDiagnostics:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_input_yields_positioned_error(self, text):
        result = parse_cpnet(text)
        errors = result.diagnostics
        assert errors, f"expected an error for {text!r}"
        for diag in errors:
            assert diag.line >= 1
            assert diag.column >= 1
            lines = text.splitlines()
            # end-of-input errors may point just past the final line
            assert diag.line <= max(len(lines), 1) + 1

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("var A: a, abar\n@\n", [(2, 1, "unexpected character '@'")]),
            ("A: a\n", [(1, 1, "expected 'var', 'parents', or 'cpt'")]),
            ("var : a\n", [(1, 5, "expected a variable name")]),
            ("var A a, abar\n", [(1, 7, "expected ':'")]),
            ("var A: a,\n", [(2, 1, "expected a name")]),
            ("var A:", [(1, 7, "expected a name")]),
            (HEAD + "cpt B | : b > bbar\n", [(4, 9, "expected a condition variable")]),
            (HEAD + "cpt B | A a: b > bbar\n", [(4, 11, "expected '='")]),
            (HEAD + "cpt B | A=: b > bbar\n", [(4, 11, "expected a condition value")]),
            ("var A: a, abar\nvar A: x, y\n", [(2, 5, "duplicate declaration of variable A")]),
            ("var A: a, a\n", [(1, 11, "duplicate value a for variable A")]),
            (HEAD + "parents B: A\n", [(4, 9, "duplicate parents declaration for B")]),
            (
                "var A: a, abar\nvar B: b, bbar\nparents B: A, A\n",
                [(3, 15, "duplicate parent A of B")],
            ),
            (HEAD + "cpt B | A=a, A=a: b > bbar\n", [(4, 14, "duplicate condition on A")]),
            (
                "var A: a, abar\ncpt A: a > abar\ncpt A: abar > a\n",
                [(3, 5, "duplicate CPT row for A")],
            ),
            (
                HEAD + "cpt B | A=a: b > bbar\ncpt B | A=a: bbar > b\n",
                [(5, 5, "duplicate CPT row for B under A=a")],
            ),
            ("parents Q: \n", [(1, 9, "unknown variable Q")]),
            ("var A: a, abar\nparents A: Q\n", [(2, 12, "unknown variable Q")]),
            ("cpt Q: a > b\n", [(1, 5, "unknown variable Q")]),
            (
                HEAD + "cpt B | Q=a: b > bbar\n",
                [(4, 9, "unknown variable Q"), (4, 5, MISSING_A)],
            ),
            (
                HEAD + "cpt B | A=z: b > bbar\n",
                [(4, 11, "unknown value z for variable A"), (4, 5, MISSING_A)],
            ),
            ("var A: a, abar\ncpt A: a > q\n", [(2, 12, "unknown value q for variable A")]),
            (
                HEAD + "cpt B | B=b: b > bbar\n",
                [(4, 9, "B is not a parent of B"), (4, 5, MISSING_A)],
            ),
            (HEAD + "cpt B: b > bbar\n", [(4, 5, MISSING_A)]),
            # an empty parent list ends the statement; the comma starts junk
            ("var A: a, abar\nparents A:, \n", [(2, 11, "expected 'var', 'parents', or 'cpt'")]),
            # unexpected characters come first, whatever their line
            (
                "var A: a\tabar  # c\n\x0c@",
                [
                    (2, 2, "unexpected character '@'"),
                    (1, 10, "expected 'var', 'parents', or 'cpt'"),
                ],
            ),
        ],
    )
    def test_positioned_diagnostics(self, text, expected):
        result = parse_cpnet(text)
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == expected

    def test_parse_never_raises_on_binary_noise(self):
        rng = random.Random(5)
        for _ in range(500):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            parse_cpnet(blob.decode("latin-1"))

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_parse_total_on_arbitrary_text(self, text):
        parse_cpnet(text)


RANDOM100 = serialize_cpnet(random_net(random.Random(15), 100, (2, 3), 2))

# Text the line reader takes: one statement or nothing on each line.
CLEAN = {
    **{name: (FIXTURES / f"{name}.cpnet").read_text() for name in FIXTURE_NAMES},
    "crlf": CANONICAL_CHAIN2.replace("\n", "\r\n"),
    "tabs": "var\tA:\ta,\tabar\n\tcpt A:\ta\t>\tabar\t\n",
    "comments": "# a net\nvar A: a, abar  # the first\ncpt A: a > abar# best first\n",
    "blank-lines": "\n\nvar A: a, abar\n\n   \n\ncpt A: a > abar\n\n",
    "empty-parents": "var A: a, abar\nparents A:\ncpt A: a > abar\nparents B: # none\n"
                     "var B: b, bbar\ncpt B: b > bbar",
    "any-order": "cpt A: a > abar\ncpt B | A=a: b > bbar\ncpt B | A=abar: bbar > b\n"
                 "parents B: A\nvar B: b, bbar\nvar A: a, abar\n",
    "random100": RANDOM100,
}
NET_A = ((Variable("A", ("a", "abar")),), {"A": {(): ("a", "abar")}})


def _stored_words(net):
    """Every word a net stores, repeats included."""
    for v in net.variables:
        yield from (v.name, *v.domain, *v.parents)
    for owner, rows in net.tables.items():
        yield owner
        for cond, ranking in rows.items():
            yield from (*cond, *ranking)


@pytest.fixture
def tokenized(monkeypatch):
    """How many times parse_cpnet fell back to the tokenizer."""
    calls = []
    tokenize = dsl._tokenize
    monkeypatch.setattr(dsl, "_tokenize", lambda *args: calls.append(1) or tokenize(*args))
    return calls


class TestLineReader:
    @pytest.mark.parametrize("text", CLEAN.values(), ids=CLEAN.keys())
    def test_clean_text_never_reaches_the_tokenizer(self, monkeypatch, text):
        expected = dsl._parse_positioned(text)
        assert expected.ok

        def tokenize(*args):
            raise AssertionError("clean text reached the tokenizer")

        monkeypatch.setattr(dsl, "_tokenize", tokenize)
        result = parse_cpnet(text)
        assert result.ok
        assert result.net.variables == expected.net.variables
        assert result.net.tables == expected.net.tables

    @pytest.mark.parametrize(
        "text, diagnostics, net",
        [
            ("var A: a, abar cpt A: a > abar\n", [], NET_A),
            ("var A:\n a, abar\ncpt A: a >\n abar\n", [], NET_A),
            (
                "var A: a, abar\nvar var: x, y\ncpt A: a > abar\n",
                [(2, 5, "expected a variable name"), (2, 8, "expected a variable name")],
                NET_A,
            ),
            (
                "var A: a, cpt\ncpt A: a > cpt\n",
                [(1, 11, "expected a name"), (2, 1, "expected a variable name"),
                 (2, 12, "expected a name"), (3, 1, "expected a variable name")],
                ((), {}),
            ),
            (
                "var A: a, abar\nvar A: x, y\ncpt A: a > abar\n",
                [(2, 5, "duplicate declaration of variable A")],
                NET_A,
            ),
        ],
        ids=["two-statements-on-a-line", "split-statements", "keyword-as-name",
             "keyword-as-value", "duplicate-var"],
    )
    def test_other_text_is_tokenized(self, tokenized, text, diagnostics, net):
        result = parse_cpnet(text)
        assert tokenized == [1]
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == diagnostics
        assert (result.net.variables, result.net.tables) == net

    @pytest.mark.parametrize(
        "text, calls",
        [
            (RANDOM100, []),
            (RANDOM100.replace(": ", ":\n", 1), [1]),
            (RANDOM100 + "var X0: x, y\n", [1]),
        ],
        ids=["line-reader", "tokenizer", "tokenizer-with-diagnostics"],
    )
    def test_each_word_is_stored_once(self, tokenized, text, calls):
        net = parse_cpnet(text).net
        assert tokenized == calls
        first: dict[str, str] = {}
        for word in _stored_words(net):
            assert first.setdefault(word, word) is word


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
            # values "0", "1", ... and "0x", "1x", ...: words may start with a digit
            for built in (net, _relabelled(net, str), _relabelled(net, "{}x".format)):
                text = serialize_cpnet(built)
                result = parse_cpnet(text)
                assert result.ok, [str(d) for d in result.diagnostics]
                assert validate(result.net).ok
                assert result.net.tables == built.tables
                assert serialize_cpnet(result.net) == text


def _relabelled(net, label):
    """``net`` built again through the API, value k of each domain named ``label(k)``."""
    names = {v.name: {x: label(k) for k, x in enumerate(v.domain)} for v in net.variables}
    return make_net(
        [(v.name, list(names[v.name].values()), v.parents) for v in net.variables],
        {v.name: {tuple(names[p][x] for p, x in zip(v.parents, cond)):
                  tuple(names[v.name][x] for x in ranking)
                  for cond, ranking in net.tables[v.name].items()}
         for v in net.variables},
    )


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

    def test_header_diagnostics_in_order(self, chain2):
        _, diagnostics = parse_catalog(chain2, "id,A,C,A\np1,a,c,a\n")
        assert [(d.line, d.column, d.message) for d in diagnostics] == [
            (1, 6, "unknown column 'C'"),
            (1, 1, "header missing variable B"),
            (1, 1, "duplicate header column"),
        ]

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
            ('id,A,B\n  "p1"x,a,b\n', 2, 7, "text after a closing quote"),
            ('id,A,B\n"p1,a,b\n', 2, 1, "unterminated quote"),
            ('id,A,B\np1,a, "b\n', 2, 7, "unterminated quote"),
            ('id, "A,B\np1,a,b\n', 1, 5, "unterminated quote"),
            # a cell after a quoted id: one column rule for both kinds of line
            ('id,A,B\n"p,1",a,zz\n', 2, 9, "unknown value 'zz' for variable B"),
            ('id,A,B\n"p1" ,a,zz\n', 2, 9, "unknown value 'zz' for variable B"),
            ('id,A,B\n  "p1",zz,b\n', 2, 8, "unknown value 'zz' for variable A"),
            ("id,A,B\np1,a,zz\n", 2, 6, "unknown value 'zz' for variable B"),
        ],
    )
    def test_positioned_diagnostics(self, chain2, text, line, column, message):
        rows, diagnostics = parse_catalog(chain2, text)
        assert rows == []
        assert [(d.line, d.column, d.message) for d in diagnostics] == [(line, column, message)]

    @pytest.mark.parametrize(
        "bad, diagnostic",
        [
            ('"p1"x,a,b', "2:5: error: text after a closing quote"),
            ('"p1,a,b', "2:1: error: unterminated quote"),
        ],
    )
    def test_bad_quote_skips_only_its_row(self, chain2, bad, diagnostic):
        rows, diagnostics = parse_catalog(chain2, f'id,A,B\n{bad}\n"p2" ,abar,b\n')
        assert [str(d) for d in diagnostics] == [diagnostic]
        assert [r.identifier for r in rows] == ["p2"]

    def test_quote_after_leading_spaces_opens_a_quoted_cell(self, chain2):
        rows, diagnostics = parse_catalog(chain2, 'id,A,B\n "p1",a,  "b"\n')
        assert not diagnostics
        assert rows[0].identifier == "p1"
        assert rows[0].outcome == outcome(chain2, "A=a,B=b")

    def test_variable_named_id(self):
        net = parse_cpnet("var B: x, y\nvar id: a, b\ncpt B: x > y\ncpt id: a > b\n").net
        rows, diagnostics = parse_catalog(net, "id,id,B\np1,b,x\n")
        assert not diagnostics
        assert rows[0].identifier == "p1"
        assert rows[0].outcome == outcome(net, "B=x,id=b")

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

    @pytest.mark.parametrize(
        "identifier, cell",
        [(" p1", '" p1"'), ("p1 ", '"p1 "'), ("\xa0p1", '"\xa0p1"'), ('p"1', '"p""1"'),
         ("p,1", '"p,1"'), ("p 1", "p 1")],
    )
    def test_serialize_quotes_what_the_reader_would_change(self, chain2, identifier, cell):
        rows = [CatalogRow(identifier, outcome(chain2, "A=a,B=b"))]
        text = serialize_catalog(chain2, rows)
        assert text == f"id,A,B\n{cell},a,b\n"
        assert parse_catalog(chain2, text) == (rows, [])

    @pytest.mark.parametrize("identifier", ["", "a\nb", "a\rb", "a\r\nb", "a\x1cb", "a\u2028b", "\n"])
    def test_serialize_refuses_an_id_the_reader_cannot_read(self, chain2, identifier):
        rows = [CatalogRow("p1", outcome(chain2, "A=a,B=b")),
                CatalogRow(identifier, outcome(chain2, "A=abar,B=b"))]
        message = f"row 2: id {identifier!r} is empty or holds a line break"
        with pytest.raises(CPNetError) as caught:
            serialize_catalog(chain2, rows)
        assert str(caught.value) == message

    def test_serialize_refuses_a_repeated_id(self, chain2):
        # the reader would keep the first row and drop the second
        rows = [CatalogRow("p1", outcome(chain2, "A=a,B=bbar")),
                CatalogRow("r", outcome(chain2, "A=a,B=b")),
                CatalogRow("r", outcome(chain2, "A=abar,B=b"))]
        with pytest.raises(CPNetError) as caught:
            serialize_catalog(chain2, rows)
        assert str(caught.value) == "row 3: id 'r' repeats the id of row 2"

    @pytest.mark.parametrize(
        "values, message",
        [(("zz", "b"), "unknown value 'zz' for variable A"),
         (("a",), "outcome does not match this net's variable set")],
    )
    def test_serialize_refuses_a_row_that_is_not_an_outcome_of_the_net(
        self, chain2, values, message
    ):
        rows = [CatalogRow("p1", Outcome(values))]
        with pytest.raises(CPNetError, match=message):
            serialize_catalog(chain2, rows)

    @given(
        st.lists(
            st.tuples(
                st.text(st.sampled_from('ab,"" \t\xa0\u3000'), min_size=1, max_size=8),
                st.sampled_from(["A=a,B=b", "A=abar,B=b", "A=a,B=bbar", "A=abar,B=bbar"]),
            ),
            max_size=6,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_serialized_catalog_reads_back_unchanged(self, chain2, pairs):
        rows = [CatalogRow(identifier, outcome(chain2, text)) for identifier, text in pairs]
        assert parse_catalog(chain2, serialize_catalog(chain2, rows)) == (rows, [])

    def test_quote_free_catalogs_need_no_cell_regex(self, monkeypatch):
        rng = random.Random(20)
        texts = []
        for name in FIXTURE_NAMES:
            net = load_net(name)
            outcomes = all_outcomes(net)
            rows = [CatalogRow(f"r{k}", rng.choice(outcomes)) for k in range(8)]
            texts.append((net, serialize_catalog(net, rows)))
        chain2 = load_net("chain2")
        for text in ("id,A,B\np1,q,b\n", "id,A,B\n ,a,b\n", "id,A,B\np1,a,b\np1,abar,b\n",
                     "id,A,B,C\np1,a,b,c\n", "id,A,B,A\n", "id,A,B\np1,a\n", "name,A,B\n",
                     "id ,\tB, A\n\n p1\xa0,\u3000b,a\n\np2,a,q,\n\r\np3,abar,bbar\r\n"):
            texts.append((chain2, text))
        expected = [parse_catalog(net, text) for net, text in texts]
        assert any(diagnostics for _, diagnostics in expected)

        class NoRegex:
            def match(self, *args):
                raise AssertionError("the cell regex ran on a quote-free line")

        # the cells of a quote-free line are split without the regex; only the
        # column of a diagnostic placed on a cell (dsl._column) runs it
        placed = ("unknown column", "empty id", "duplicate id", "unknown value")
        monkeypatch.setattr(dsl, "_CELL_RE", NoRegex())
        for (net, text), (rows, diagnostics) in zip(texts, expected):
            if any(d.message.startswith(placed) for d in diagnostics):
                with pytest.raises(AssertionError, match="cell regex"):
                    parse_catalog(net, text)
            else:
                assert parse_catalog(net, text) == (rows, diagnostics)
        with pytest.raises(AssertionError, match="cell regex"):
            parse_catalog(chain2, 'id,A,B\n"p1",a,b\n')

    def test_quote_free_split_equals_the_cell_regex(self):
        def reference(line):
            cells, start = [], 0
            while True:
                cell = dsl._CELL_RE.match(line, start)
                cells.append((cell.group(1).strip(), start))
                if cell.end() == len(line):
                    return cells
                start = cell.end() + 1

        rng = random.Random(20)
        lines = ["", ",", ",,", "a,", ",a", " , ", "a,b,"]
        alphabet = "ab, \t\xa0\u2003\u3000\x1f"
        lines += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(16)))
                  for _ in range(3000)]
        for line in lines:
            diagnostics = []
            cells = dsl._split_csv_line(line, 1, diagnostics)
            assert cells == reference(line), repr(line)
            assert dsl._cell_texts(line, 1, diagnostics) == [text for text, _ in cells]
            assert [dsl._column(line, k) for k in range(len(cells))] == [
                column + 1 for _, column in cells
            ]
            assert not diagnostics
