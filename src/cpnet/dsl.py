"""Textual input language for nets, outcomes, queries, and catalogs.

Net syntax (whitespace-insensitive, ``#`` starts a comment):

    net    := {stmt}
    stmt   := "var" NAME ":" NAME {"," NAME}
            | "parents" NAME ":" [NAME {"," NAME}]
            | "cpt" NAME ["|" cond] ":" NAME {">" NAME}
    cond   := NAME "=" NAME {"," NAME "=" NAME}

Parsing is total: any input yields a candidate net plus positioned
diagnostics, never an exception.  Semantic problems that need the whole net
(cycles, missing rows) are left to :func:`cpnet.model.validate`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .model import CPNet, CPNetError, Outcome, Variable

KEYWORDS = ("var", "parents", "cpt")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[:,|=>])
  | (?P<junk>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class SourceDiagnostic:
    """A positioned message about the input text (1-based line and column)."""

    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


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
        return not any(d.severity == "error" for d in self.diagnostics)


@dataclass(frozen=True)
class _Token:
    kind: str  # name | punct | end
    text: str
    line: int
    column: int


def _tokenize(text: str, diagnostics: list[SourceDiagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        chunk = match.group()
        if kind == "name":
            tokens.append(_Token("name", chunk, line, col))
        elif kind == "punct":
            tokens.append(_Token("punct", chunk, line, col))
        elif kind == "junk":
            diagnostics.append(
                SourceDiagnostic(line, col, f"unexpected character {chunk!r}")
            )
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def at_keyword(self) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text in KEYWORDS

    def skip_to_keyword(self) -> None:
        while self.peek().kind != "end" and not self.at_keyword():
            self.take()


@dataclass
class _VarStmt:
    name: _Token
    values: list[_Token]


@dataclass
class _ParentsStmt:
    name: _Token
    parents: list[_Token]


@dataclass
class _CptStmt:
    name: _Token
    condition: list[tuple[_Token, _Token]]  # (variable token, value token)
    ranking: list[_Token]


def parse_cpnet(text: str) -> ParseResult:
    """Parse net text into a candidate :class:`CPNet` plus diagnostics.

    Every syntax-level problem (unknown variable or value, malformed
    condition, duplicate declaration) is reported with its position; the
    candidate is still assembled from whatever parsed, so callers can run
    :func:`cpnet.model.validate` for the net-level rules.
    """
    diagnostics: list[SourceDiagnostic] = []
    cursor = _Cursor(_tokenize(text, diagnostics))
    stmts: list[object] = []

    def error(tok: _Token, message: str) -> None:
        diagnostics.append(SourceDiagnostic(tok.line, tok.column, message))

    def expect_name(what: str) -> _Token | None:
        tok = cursor.peek()
        if tok.kind == "name" and not cursor.at_keyword():
            return cursor.take()
        error(tok, f"expected {what}")
        return None

    def expect_punct(symbol: str) -> bool:
        tok = cursor.peek()
        if tok.kind == "punct" and tok.text == symbol:
            cursor.take()
            return True
        error(tok, f"expected {symbol!r}")
        return False

    def parse_name_list(separator: str) -> list[_Token] | None:
        names: list[_Token] = []
        first = expect_name("a name")
        if first is None:
            return None
        names.append(first)
        while cursor.peek().kind == "punct" and cursor.peek().text == separator:
            cursor.take()
            nxt = expect_name("a name")
            if nxt is None:
                return None
            names.append(nxt)
        return names

    while cursor.peek().kind != "end":
        if not cursor.at_keyword():
            error(cursor.peek(), "expected 'var', 'parents', or 'cpt'")
            cursor.skip_to_keyword()
            continue
        keyword = cursor.take()
        if keyword.text == "var":
            name = expect_name("a variable name")
            if name is None or not expect_punct(":"):
                cursor.skip_to_keyword()
                continue
            values = parse_name_list(",")
            if values is None:
                cursor.skip_to_keyword()
                continue
            stmts.append(_VarStmt(name, values))
        elif keyword.text == "parents":
            name = expect_name("a variable name")
            if name is None or not expect_punct(":"):
                cursor.skip_to_keyword()
                continue
            parents: list[_Token] = []
            if cursor.peek().kind == "name" and not cursor.at_keyword():
                got = parse_name_list(",")
                if got is None:
                    cursor.skip_to_keyword()
                    continue
                parents = got
            stmts.append(_ParentsStmt(name, parents))
        else:  # cpt
            name = expect_name("a variable name")
            if name is None:
                cursor.skip_to_keyword()
                continue
            condition: list[tuple[_Token, _Token]] = []
            if cursor.peek().kind == "punct" and cursor.peek().text == "|":
                cursor.take()
                while True:
                    cond_var = expect_name("a condition variable")
                    if cond_var is None or not expect_punct("="):
                        condition = []
                        break
                    cond_val = expect_name("a condition value")
                    if cond_val is None:
                        condition = []
                        break
                    condition.append((cond_var, cond_val))
                    if cursor.peek().kind == "punct" and cursor.peek().text == ",":
                        cursor.take()
                        continue
                    break
                if not condition:
                    cursor.skip_to_keyword()
                    continue
            if not expect_punct(":"):
                cursor.skip_to_keyword()
                continue
            ranking = parse_name_list(">")
            if ranking is None:
                cursor.skip_to_keyword()
                continue
            stmts.append(_CptStmt(name, condition, ranking))

    return ParseResult(_assemble(stmts, diagnostics), diagnostics)


def _assemble(stmts: list[object], diagnostics: list[SourceDiagnostic]) -> CPNet:
    def error(tok: _Token, message: str) -> None:
        diagnostics.append(SourceDiagnostic(tok.line, tok.column, message))

    domains: dict[str, tuple[str, ...]] = {}
    parents: dict[str, tuple[str, ...]] = {}
    order: list[str] = []

    for stmt in stmts:
        if isinstance(stmt, _VarStmt):
            name = stmt.name.text
            if name in domains:
                error(stmt.name, f"duplicate declaration of variable {name}")
                continue
            values = tuple(t.text for t in stmt.values)
            seen: set[str] = set()
            for tok in stmt.values:
                if tok.text in seen:
                    error(tok, f"duplicate value {tok.text} for variable {name}")
                seen.add(tok.text)
            domains[name] = values
            order.append(name)

    for stmt in stmts:
        if isinstance(stmt, _ParentsStmt):
            name = stmt.name.text
            if name not in domains:
                error(stmt.name, f"unknown variable {name}")
                continue
            if name in parents:
                error(stmt.name, f"duplicate parents declaration for {name}")
                continue
            plist: list[str] = []
            for tok in stmt.parents:
                if tok.text not in domains:
                    error(tok, f"unknown variable {tok.text}")
                elif tok.text in plist:
                    error(tok, f"duplicate parent {tok.text} of {name}")
                else:
                    plist.append(tok.text)
            parents[name] = tuple(plist)

    tables: dict[str, dict[tuple[str, ...], tuple[str, ...]]] = {n: {} for n in order}
    for stmt in stmts:
        if not isinstance(stmt, _CptStmt):
            continue
        name = stmt.name.text
        if name not in domains:
            error(stmt.name, f"unknown variable {name}")
            continue
        declared = parents.get(name, ())
        bound: dict[str, str] = {}
        bad = False
        for var_tok, val_tok in stmt.condition:
            cond_name = var_tok.text
            if cond_name not in domains:
                error(var_tok, f"unknown variable {cond_name}")
                bad = True
                continue
            if cond_name not in declared:
                error(var_tok, f"{cond_name} is not a parent of {name}")
                bad = True
                continue
            if cond_name in bound:
                error(var_tok, f"duplicate condition on {cond_name}")
                bad = True
                continue
            if val_tok.text not in domains[cond_name]:
                error(val_tok, f"unknown value {val_tok.text} for variable {cond_name}")
                bad = True
                continue
            bound[cond_name] = val_tok.text
        missing = [p for p in declared if p not in bound]
        if missing:
            error(
                stmt.name,
                f"condition for {name} must bind every parent (missing {', '.join(missing)})",
            )
            bad = True
        ranking: list[str] = []
        for tok in stmt.ranking:
            if tok.text not in domains[name]:
                error(tok, f"unknown value {tok.text} for variable {name}")
                bad = True
            else:
                ranking.append(tok.text)
        if bad:
            continue
        key = tuple(bound[p] for p in declared)
        if key in tables[name]:
            ctx = ",".join(f"{p}={v}" for p, v in zip(declared, key))
            error(stmt.name, f"duplicate CPT row for {name}" + (f" under {ctx}" if ctx else ""))
            continue
        tables[name][key] = tuple(ranking)

    variables = [Variable(n, domains[n], parents.get(n, ())) for n in order]
    return CPNet(variables, tables)


def serialize_cpnet(net: CPNet) -> str:
    """Canonical text for a validated net; a fixpoint of parse-then-serialize.

    Variables keep declaration order, ``parents`` lines appear only for
    variables that have parents, and rows follow the cartesian product of the
    parent domains in declaration order.
    """
    net._require_valid()
    lines: list[str] = []
    for v in net.variables:
        lines.append(f"var {v.name}: " + ", ".join(v.domain))
    for v in net.variables:
        if v.parents:
            lines.append(f"parents {v.name}: " + ", ".join(v.parents))
    by_name = {v.name: v for v in net.variables}
    for v in net.variables:
        parent_domains = [by_name[p].domain for p in v.parents]
        for cond in itertools.product(*parent_domains) if v.parents else [()]:
            ranking = net.tables[v.name][cond]
            ctx = ",".join(f"{p}={val}" for p, val in zip(v.parents, cond))
            head = f"cpt {v.name}" + (f" | {ctx}" if ctx else "")
            lines.append(head + ": " + " > ".join(ranking))
    return "\n".join(lines) + "\n"


_BINDING_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([A-Za-z0-9_]+)\s*")


def parse_outcome(net: CPNet, text: str) -> Outcome:
    """Parse ``A=a,B=b`` outcome text; every variable must be bound once."""
    net._require_valid()
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
    if text.count(">") != 1:
        raise CPNetError("query must be '<outcome> > <outcome>'")
    left, right = text.split(">")
    return parse_outcome(net, left), parse_outcome(net, right)


def _split_csv_line(
    line: str, line_no: int, diagnostics: list[SourceDiagnostic]
) -> list[tuple[str, int]] | None:
    """Split one comma-separated record; cells may be double-quoted, and a
    quote after leading whitespace still opens a quoted cell.

    Returns (cell text, 0-based column offset of the cell start), or None
    after reporting text that follows a closing quote, or a quote that is
    never closed.
    """
    cells: list[tuple[str, int]] = []
    i = 0
    n = len(line)
    while True:
        start = i
        quote = i
        while quote < n and line[quote].isspace():
            quote += 1
        if quote < n and line[quote] == '"':
            buf = []
            i = quote + 1
            while True:
                if i >= n:
                    diagnostics.append(SourceDiagnostic(line_no, quote + 1, "unterminated quote"))
                    return None
                if line[i] == '"':
                    if i + 1 < n and line[i + 1] == '"':
                        buf.append('"')
                        i += 2
                        continue
                    i += 1
                    break
                buf.append(line[i])
                i += 1
            cells.append(("".join(buf), start))
            while i < n and line[i].isspace():
                i += 1
            if i < n and line[i] != ",":
                diagnostics.append(SourceDiagnostic(line_no, i + 1, "text after a closing quote"))
                return None
        else:
            end = line.find(",", i)
            if end == -1:
                end = n
            cells.append((line[i:end].strip(), start))
            i = end
        if i >= n:
            break
        i += 1  # skip comma
    return cells


def parse_catalog(net: CPNet, text: str) -> tuple[list[CatalogRow], list[SourceDiagnostic]]:
    """Parse delimited catalog text: header ``id`` plus all variable names
    (any order), then one record per item."""
    net._require_valid()
    diagnostics: list[SourceDiagnostic] = []
    rows: list[CatalogRow] = []
    lines = text.splitlines()
    body_start = None
    columns: list[str] = []
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        cells = _split_csv_line(raw, line_no, diagnostics)
        if cells is None:
            return rows, diagnostics
        columns = [c for c, _ in cells]
        if columns[0] != "id":
            diagnostics.append(SourceDiagnostic(line_no, 1, "header must start with 'id'"))
            return rows, diagnostics
        wanted = set(net.names)
        given = columns[1:]
        for name, offset in cells[1:]:
            if name not in wanted:
                diagnostics.append(
                    SourceDiagnostic(line_no, offset + 1, f"unknown column {name!r}")
                )
        for name in net.names:
            if name not in given:
                diagnostics.append(
                    SourceDiagnostic(line_no, 1, f"header missing variable {name}")
                )
        if len(set(given)) != len(given):
            diagnostics.append(SourceDiagnostic(line_no, 1, "duplicate header column"))
        body_start = line_no
        break
    if body_start is None:
        diagnostics.append(SourceDiagnostic(1, 1, "empty catalog (missing header)"))
        return rows, diagnostics
    if diagnostics:
        return rows, diagnostics

    seen_ids: dict[str, int] = {}
    for line_no in range(body_start + 1, len(lines) + 1):
        raw = lines[line_no - 1]
        if not raw.strip():
            continue
        cells = _split_csv_line(raw, line_no, diagnostics)
        if cells is None:
            continue
        if len(cells) != len(columns):
            diagnostics.append(
                SourceDiagnostic(
                    line_no, 1, f"expected {len(columns)} cells, got {len(cells)}"
                )
            )
            continue
        identifier, id_offset = cells[0]
        if not identifier:
            diagnostics.append(SourceDiagnostic(line_no, id_offset + 1, "empty id"))
            continue
        if identifier in seen_ids:
            diagnostics.append(
                SourceDiagnostic(
                    line_no,
                    id_offset + 1,
                    f"duplicate id {identifier!r} (first used on line {seen_ids[identifier]})",
                )
            )
            continue
        assignment: dict[str, str] = {}
        bad = False
        for (cell, offset), column in zip(cells[1:], columns[1:]):
            variable = net.variable(column)
            if cell not in variable.domain:
                diagnostics.append(
                    SourceDiagnostic(
                        line_no, offset + 1, f"unknown value {cell!r} for variable {column}"
                    )
                )
                bad = True
            else:
                assignment[column] = cell
        if bad:
            continue
        seen_ids[identifier] = line_no
        rows.append(CatalogRow(identifier, net.outcome(assignment)))
    return rows, diagnostics


def serialize_catalog(net: CPNet, rows: list[CatalogRow]) -> str:
    """Deterministic catalog text (id column first, variables in declaration order)."""
    net._require_valid()

    def cell(text: str) -> str:
        if any(c in text for c in ',"\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = ["id," + ",".join(net.names)]
    for row in rows:
        lines.append(",".join([cell(row.identifier), *row.outcome.values]))
    return "\n".join(lines) + "\n"
