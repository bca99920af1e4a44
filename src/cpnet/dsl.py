"""Textual input language for nets, outcomes, queries, and catalogs.

Net syntax (whitespace-insensitive, ``#`` starts a comment):

    net    := {stmt}
    stmt   := "var" WORD ":" WORD {"," WORD}
            | "parents" WORD ":" [WORD {"," WORD}]
            | "cpt" WORD ["|" cond] ":" WORD {">" WORD}
    cond   := WORD "=" WORD {"," WORD "=" WORD}
    WORD   := [A-Za-z0-9_]+   (model._WORD; validate asks names be identifiers)

Parsing is total: any input yields a candidate net plus positioned
diagnostics, never an exception.  Semantic problems that need the whole net
(cycles, missing rows) are left to :func:`cpnet.model.validate`.

Clean text is read line by line: one regex matches each whole line (blank, a
comment, or one statement with an optional comment) and another finds the
statement's words, so no token list is built.  Both readers hand their
statements to ``_assemble``, the one place that applies the net's rules; it
returns the net and its problems as ``(statement, word, message)``.  A line
that does not match, a keyword used as a name, or any problem sends the whole
text to the positioned reader, which alone places diagnostics: one regex over
each line yields ``(kind, text, line, column)`` tokens, one routine parses all
three statements, and after an error parsing resumes at the next keyword.  A
refused text is thus read twice.  Both readers share one string per distinct
word, so a parsed net's memory grows with its vocabulary, not with its text,
whose CPT rows repeat every name and value they mention.

The catalog reader also goes line by line: one pass over the non-blank lines, the
first being the header.  A line with no quote is split at its commas; any
other line by one regex matched at the start of each cell, whose start is the
cell's column.  A quote after leading whitespace opens a quoted cell, where
``""`` is one quote.  No cell, so no id, can hold a line break.  The reader
carries cells as plain strings and finds a cell's column only when a
diagnostic names it.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field

from .model import _WORD, CPNet, CPNetError, Outcome, Variable, _bindings, _expect, _usable

KEYWORDS = ("var", "parents", "cpt")

_RESUME = ("end", *KEYWORDS)  # where the parser picks up after an error

# Matched per line, so the search skips whitespace: a comment, a word, a
# punctuation mark, or any other visible character (an error).
_TOKEN_RE = re.compile(rf"#.*|({_WORD.pattern})|([:,|=>])|(\S)")

# One whole line of clean text: blank, or one statement, then an optional
# comment.  Group k holds the words of a statement with keyword KEYWORDS[k-1].
_LINE_RE = re.compile(
    r"\s*(?:(?:var\s+(N\s*:\s*N(?:\s*,\s*N)*)"
    r"|parents\s+(N\s*:(?:\s*N(?:\s*,\s*N)*)?)"
    r"|cpt\s+(N(?:\s*\|\s*N\s*=\s*N(?:\s*,\s*N\s*=\s*N)*)?\s*:\s*N(?:\s*>\s*N)*))\s*)?"
    r"(?:#.*)?".replace("N", _WORD.pattern)  # N stands for a word
)


@dataclass(frozen=True)
class SourceDiagnostic:
    """An error in the input text at a 1-based line and column; every
    diagnostic is an error, so any diagnostic means the text was rejected."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


@dataclass(frozen=True)
class CatalogRow:
    """One item of a product catalog: an identifier plus a total outcome."""

    identifier: str
    outcome: Outcome


@dataclass
class ParseResult:
    """Candidate net (always present, possibly broken) plus diagnostics."""

    net: CPNet
    diagnostics: list[SourceDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# A token is (kind, text, line, column).  The kind of a name is "name", of a
# keyword or a punctuation mark its own text, and of the sentinel "end".
_Tok = tuple[str, str, int, int]
# A statement is (keyword, words, n): the declared name, the condition's
# variables and values in turn (cpt only), then from index n the names after
# ':'.  Both readers build these, and only _assemble checks them.
_Stmt = tuple[str, list[str], int]


def _tokenize(text: str, diagnostics: list[SourceDiagnostic]) -> list[_Tok]:
    tokens: list[_Tok] = []
    words: dict[str, str] = {}
    lines = text.split("\n")
    for line_no, line in enumerate(lines, start=1):
        for match in _TOKEN_RE.finditer(line):
            group = match.lastindex
            if group is None:  # a comment
                continue
            word, column = match[group], match.start() + 1
            if group == 1:
                word = words.setdefault(word, word)
                kind = word if word in KEYWORDS else "name"
            elif group == 2:
                kind = word
            else:
                diagnostics.append(
                    SourceDiagnostic(line_no, column, f"unexpected character {word!r}")
                )
                continue
            tokens.append((kind, word, line_no, column))
    tokens.append(("end", "", len(lines), len(lines[-1]) + 1))
    return tokens


def _error(tok: _Tok, message: str, diagnostics: list[SourceDiagnostic]) -> None:
    diagnostics.append(SourceDiagnostic(tok[2], tok[3], message))


def _statement(
    tokens: list[_Tok], pos: int, diagnostics: list[SourceDiagnostic]
) -> tuple[list[_Tok] | None, int, int]:
    """Parse the statement whose keyword is at ``pos``: its tokens in the
    order of a statement's words (None after an error), the index of its
    first name after ':', and the position of the next unread token."""
    keyword, head = tokens[pos][0], tokens[pos + 1]
    if head[0] != "name":
        _error(head, "expected a variable name", diagnostics)
        return None, 0, pos + 1
    pos += 2
    words = [head]
    if keyword == "cpt" and tokens[pos][0] == "|":
        while True:
            variable = tokens[pos + 1]
            if variable[0] != "name":
                _error(variable, "expected a condition variable", diagnostics)
                return None, 0, pos + 1
            if tokens[pos + 2][0] != "=":
                _error(tokens[pos + 2], "expected '='", diagnostics)
                return None, 0, pos + 2
            value = tokens[pos + 3]
            if value[0] != "name":
                _error(value, "expected a condition value", diagnostics)
                return None, 0, pos + 3
            words += (variable, value)
            pos += 4
            if tokens[pos][0] != ",":
                break
    if tokens[pos][0] != ":":
        _error(tokens[pos], "expected ':'", diagnostics)
        return None, 0, pos
    n = len(words)
    if keyword != "parents" or tokens[pos + 1][0] == "name":
        separator = ">" if keyword == "cpt" else ","
        while True:
            item = tokens[pos + 1]
            if item[0] != "name":
                _error(item, "expected a name", diagnostics)
                return None, 0, pos + 1
            words.append(item)
            pos += 2
            if tokens[pos][0] != separator:
                break
    else:
        pos += 1
    return words, n, pos


def parse_cpnet(text: str) -> ParseResult:
    """Parse net text into a candidate :class:`CPNet` plus diagnostics.

    Every syntax-level problem (unknown variable or value, malformed
    condition, duplicate declaration) is reported with its position; the
    candidate is still assembled from whatever parsed, so callers can run
    :func:`cpnet.model.validate` for the net-level rules.
    """
    _expect(text, str, "net text")
    words: dict[str, str] = {}
    stmts: list[_Stmt] = []
    for line in text.split("\n"):
        match = _LINE_RE.fullmatch(line)
        if match is None:
            return _parse_positioned(text)
        if group := match.lastindex:
            span = match[group]
            found = _WORD.findall(span)
            stmts.append((KEYWORDS[group - 1], [*map(words.setdefault, found, found)],
                          1 + 2 * span.count("=")))
    if words.keys().isdisjoint(KEYWORDS):
        net, problems = _assemble(stmts)
        if not problems:
            return ParseResult(net)
    return _parse_positioned(text)


def _parse_positioned(text: str) -> ParseResult:
    """Tokenize the whole text and parse it with every diagnostic placed."""
    diagnostics: list[SourceDiagnostic] = []
    tokens = _tokenize(text, diagnostics)
    stmts: list[_Stmt] = []
    places: list[list[_Tok]] = []  # the tokens of each statement's words
    pos = 0
    while tokens[pos][0] != "end":
        keyword = tokens[pos][0]
        if keyword in KEYWORDS:
            toks, n, pos = _statement(tokens, pos, diagnostics)
            if toks is not None:
                stmts.append((keyword, [tok[1] for tok in toks], n))
                places.append(toks)
                continue
        else:
            _error(tokens[pos], "expected 'var', 'parents', or 'cpt'", diagnostics)
        while tokens[pos][0] not in _RESUME:  # recover at the next keyword
            pos += 1
    net, problems = _assemble(stmts)
    for stmt, word, message in problems:
        _error(places[stmt][word], message, diagnostics)
    return ParseResult(net, diagnostics)


def _assemble(stmts: list[_Stmt]) -> tuple[CPNet, list[tuple[int, int, str]]]:
    """The candidate net, and each problem as ``(stmt, word, message)``, where
    ``word`` indexes the words of statement ``stmt``."""
    problems: list[tuple[int, int, str]] = []
    report = problems.append
    domains: dict[str, tuple[str, ...]] = {}
    parents: dict[str, tuple[str, ...]] = {}
    order: list[str] = []

    for s, (keyword, words, _) in enumerate(stmts):
        if keyword == "var":
            name = words[0]
            if name in domains:
                report((s, 0, f"duplicate declaration of variable {name}"))
                continue
            seen: set[str] = set()
            for k, value in enumerate(words[1:], 1):
                if value in seen:
                    report((s, k, f"duplicate value {value} for variable {name}"))
                seen.add(value)
            domains[name] = tuple(words[1:])
            order.append(name)

    for s, (keyword, words, _) in enumerate(stmts):
        if keyword == "parents":
            name = words[0]
            if name not in domains:
                report((s, 0, f"unknown variable {name}"))
                continue
            if name in parents:
                report((s, 0, f"duplicate parents declaration for {name}"))
                continue
            plist: list[str] = []
            for k, parent in enumerate(words[1:], 1):
                if parent not in domains:
                    report((s, k, f"unknown variable {parent}"))
                elif parent in plist:
                    report((s, k, f"duplicate parent {parent} of {name}"))
                else:
                    plist.append(parent)
            parents[name] = tuple(plist)

    tables: dict[str, dict[tuple[str, ...], tuple[str, ...]]] = {n: {} for n in order}
    for s, (keyword, words, n) in enumerate(stmts):
        if keyword != "cpt":
            continue
        name = words[0]
        if name not in domains:
            report((s, 0, f"unknown variable {name}"))
            continue
        declared = parents.get(name, ())
        bound: dict[str, str] = {}
        bad = False
        for k in range(1, n, 2):
            cond_name, value = words[k], words[k + 1]
            if cond_name not in domains:
                report((s, k, f"unknown variable {cond_name}"))
            elif cond_name not in declared:
                report((s, k, f"{cond_name} is not a parent of {name}"))
            elif cond_name in bound:
                report((s, k, f"duplicate condition on {cond_name}"))
            elif value not in domains[cond_name]:
                report((s, k + 1, f"unknown value {value} for variable {cond_name}"))
            else:
                bound[cond_name] = value
                continue
            bad = True
        if len(bound) < len(declared):
            missing = ", ".join(p for p in declared if p not in bound)
            report((s, 0, f"condition for {name} must bind every parent (missing {missing})"))
            bad = True
        domain = domains[name]
        for k in range(n, len(words)):
            if words[k] not in domain:
                report((s, k, f"unknown value {words[k]} for variable {name}"))
                bad = True
        if bad:
            continue
        key = tuple(map(bound.__getitem__, declared))
        if key in tables[name]:
            ctx = _bindings(declared, key)
            report((s, 0, f"duplicate CPT row for {name}" + (f" under {ctx}" if ctx else "")))
            continue
        tables[name][key] = tuple(words[n:])

    variables = [Variable(n, domains[n], parents.get(n, ())) for n in order]
    return CPNet(variables, tables), problems


def serialize_cpnet(net: CPNet) -> str:
    """Canonical text for a validated net; a fixpoint of parse-then-serialize.

    Variables keep declaration order, ``parents`` lines appear only for
    variables that have parents, and rows follow the cartesian product of the
    parent domains in declaration order.
    """
    _usable(net)
    lines: list[str] = []
    for v in net.variables:
        lines.append(f"var {v.name}: " + ", ".join(v.domain))
    for v in net.variables:
        if v.parents:
            lines.append(f"parents {v.name}: " + ", ".join(v.parents))
    for v, ps in zip(net.variables, net._parents_idx):
        parent_domains = [net.variables[q].domain for q in ps]
        for cond in itertools.product(*parent_domains):
            ranking = net.tables[v.name][cond]
            ctx = _bindings(v.parents, cond)
            head = f"cpt {v.name}" + (f" | {ctx}" if ctx else "")
            lines.append(head + ": " + " > ".join(ranking))
    return "\n".join(lines) + "\n"


_BINDING_RE = re.compile(r"\s*(W)\s*=\s*(W)\s*".replace("W", _WORD.pattern))


def parse_outcome(net: CPNet, text: str) -> Outcome:
    """Parse ``A=a,B=b`` outcome text; every variable must be bound once."""
    _usable(net)
    _expect(text, str, "outcome text")
    assignment: dict[str, str] = {}
    if text.strip():
        for part in text.split(","):
            match = _BINDING_RE.fullmatch(part)
            if match is None:
                raise CPNetError(f"malformed binding {part.strip()!r} (expected NAME=value)")
            name, value = match.group(1), match.group(2)
            if name in assignment:
                raise CPNetError(f"duplicate binding for {name}")
            assignment[name] = value
    return net.outcome(assignment)


def parse_query(net: CPNet, text: str) -> tuple[Outcome, Outcome]:
    """Parse ``<outcome> > <outcome>`` into (better, worse)."""
    _expect(text, str, "query text")
    if text.count(">") != 1:
        raise CPNetError("query must be '<outcome> > <outcome>'")
    left, right = text.split(">")
    return parse_outcome(net, left), parse_outcome(net, right)


# Matched at each cell's start: a bare cell up to the next comma, else a quoted
# one, whose last group is None when the closing quote is missing.  The bare
# branch comes first because nearly every cell is bare.
_CELL_RE = re.compile(r'(?!\s*")([^,]*)|\s*"((?:[^"]|"")*)(")?\s*')


def _split_csv_line(
    line: str, line_no: int, diagnostics: list[SourceDiagnostic]
) -> list[tuple[str, int]] | None:
    """Split one comma-separated record into (cell text, 0-based column of
    the cell start), or return None after reporting a quote that is never
    closed or text that follows a closing quote."""
    cells: list[tuple[str, int]] = []
    start = 0
    match, end = _CELL_RE.match, len(line)
    while True:
        cell = match(line, start)
        bare, quoted, closed = cell.groups()
        stop = cell.end()
        if bare is not None:  # stops at a comma or the end
            cells.append((bare.strip(), start))
        elif closed is None:
            diagnostics.append(SourceDiagnostic(line_no, cell.start(2), "unterminated quote"))
            return None
        elif stop < end and line[stop] != ",":
            diagnostics.append(SourceDiagnostic(line_no, stop + 1, "text after a closing quote"))
            return None
        else:
            cells.append((quoted.replace('""', '"'), start))
        if stop == end:
            return cells
        start = stop + 1


def _cell_texts(
    line: str, line_no: int, diagnostics: list[SourceDiagnostic]
) -> list[str] | None:
    """The cell texts of ``_split_csv_line``, without their columns."""
    if '"' not in line:
        return list(map(str.strip, line.split(",")))
    cells = _split_csv_line(line, line_no, diagnostics)
    return None if cells is None else [text for text, _ in cells]


def _column(line: str, index: int) -> int:
    """The 1-based column of cell ``index`` of a line that splits."""
    return _split_csv_line(line, 0, [])[index][1] + 1


def parse_catalog(net: CPNet, text: str) -> tuple[list[CatalogRow], list[SourceDiagnostic]]:
    """Parse delimited catalog text: header ``id`` plus all variable names
    (any order), then one record per item.  Blank lines are skipped."""
    _usable(net)
    _expect(text, str, "catalog text")
    diagnostics: list[SourceDiagnostic] = []
    rows: list[CatalogRow] = []
    lines = ((n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip())
    first = next(lines, None)
    if first is None:
        diagnostics.append(SourceDiagnostic(1, 1, "empty catalog (missing header)"))
        return rows, diagnostics
    line_no, line = first
    header = _cell_texts(line, line_no, diagnostics)
    if header is None:
        return rows, diagnostics
    if header[0] != "id":
        diagnostics.append(SourceDiagnostic(line_no, 1, "header must start with 'id'"))
        return rows, diagnostics
    names, given = net.names, header[1:]
    index = {name: k for k, name in enumerate(given, start=1)}
    for k, name in enumerate(given, start=1):
        if name not in net._index:
            diagnostics.append(
                SourceDiagnostic(line_no, _column(line, k), f"unknown column {name!r}")
            )
    for name in names:
        if name not in index:
            diagnostics.append(SourceDiagnostic(line_no, 1, f"header missing variable {name}"))
    if len(index) != len(given):
        diagnostics.append(SourceDiagnostic(line_no, 1, "duplicate header column"))
    if diagnostics:
        return rows, diagnostics

    # the header names every variable once: look each domain up once, and
    # find the cell of each variable in declaration order
    domains = [net.variables[net._index[name]].domain for name in given]
    order = [index[name] for name in names]
    seen_ids: dict[str, int] = {}
    for line_no, line in lines:
        cells = _cell_texts(line, line_no, diagnostics)
        if cells is None:
            continue
        if len(cells) != len(header):
            diagnostics.append(
                SourceDiagnostic(line_no, 1, f"expected {len(header)} cells, got {len(cells)}")
            )
            continue
        identifier = cells[0]
        if not identifier:
            diagnostics.append(SourceDiagnostic(line_no, _column(line, 0), "empty id"))
            continue
        if identifier in seen_ids:
            diagnostics.append(
                SourceDiagnostic(
                    line_no,
                    _column(line, 0),
                    f"duplicate id {identifier!r} (first used on line {seen_ids[identifier]})",
                )
            )
            continue
        if not all(map(operator.contains, domains, cells[1:])):
            for k, (cell, column, domain) in enumerate(zip(cells[1:], given, domains), start=1):
                if cell not in domain:
                    diagnostics.append(
                        SourceDiagnostic(
                            line_no, _column(line, k),
                            f"unknown value {cell!r} for variable {column}",
                        )
                    )
            continue
        seen_ids[identifier] = line_no
        rows.append(CatalogRow(identifier, Outcome(tuple(map(cells.__getitem__, order)))))
    return rows, diagnostics


def serialize_catalog(net: CPNet, rows: list[CatalogRow]) -> str:
    """Deterministic catalog text (id column first, variables in declaration
    order) that :func:`parse_catalog` reads back to the same rows.

    An id holding a comma or a quote, or with surrounding whitespace, is
    quoted.  The reader is line-based, so an empty id or one holding a line
    break (anything ``str.splitlines`` splits on) raises ``CPNetError``; so
    do an id that repeats an earlier row's, which the reader would drop, and
    a row whose outcome is not one of the net's.
    """
    _usable(net)
    lines = ["id," + ",".join(net.names)]
    first: dict[str, int] = {}  # id -> the number of the row that used it first
    for number, row in enumerate(rows, start=1):
        _expect(row, CatalogRow, "a catalog row")
        _expect(row.identifier, str, "a catalog row id")
        _usable(net, row.outcome)
        text = row.identifier
        if text.splitlines() != [text]:
            raise CPNetError(f"row {number}: id {text!r} is empty or holds a line break")
        if first.setdefault(text, number) != number:
            raise CPNetError(f"row {number}: id {text!r} repeats the id of row {first[text]}")
        if "," in text or '"' in text or text != text.strip():
            text = '"' + text.replace('"', '""') + '"'
        lines.append(",".join([text, *row.outcome.values]))
    return "\n".join(lines) + "\n"
