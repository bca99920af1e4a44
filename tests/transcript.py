"""Transcript: what the CLI and a few library calls print over a seeded set of
queries, parses and verdicts, to show that the output does not depend on
``PYTHONHASHSEED``.

    python tests/transcript.py DIR

It writes its net, catalog and PDDL files under ``DIR`` (created if missing)
and names them relative to it, then prints, for each of the 8 fixtures:
``validate``, ``best``, ``best --worst``, ``pareto --json``, ``pareto --budget
1`` and ``sort --json`` over a seeded 12-row catalog, and 30 seeded pairs each
asked as ``dominates --witness --stats``, ``prune`` and ``export-strips`` (with
the written file), plus ``forward_prune`` on each pair and ``to_strips`` in both
directions.  Then ``validate`` on broken nets, one with more missing rows than
``validate`` lists, and the queries above on a net whose values start with a
digit.  Every call records its argv, exit code, stdout and stderr.

Last come four seeded slices of the digest scripts.  From the corpus of
``tests/parse_digest.py`` (a hundredth of each kind of derived text), each
text's diagnostic count and the SHA-256 of what that script hashes of its
parse.  From the sweep of ``tests/verdict_digest.py`` (one net per family,
3 pairs per net), each verdict's kind, stats and witness under every
combination of cuts and every direction, with and without a budget.  From
the sweep of ``tests/catalog_digest.py`` (one net per family, 2 catalogs per
net), each catalog's layers and Pareto report at every budget.  From the
sweep of ``tests/plan_digest.py`` (one net per family, 2 pairs of each kind
per net), each problem's rendered text as a SHA-256, its plan, ``None`` or
cap message, and the witness its plan replays to.

``tests/test_determinism.py`` runs it under two hash seeds and compares the
bytes.  The script is stdlib-only and is not collected by pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BROKEN = {
    "cycle": "var A: a, abar\nvar B: b, bbar\nparents A: B\nparents B: A\n"
             "cpt A | B=b: a > abar\ncpt A | B=bbar: a > abar\n"
             "cpt B | A=a: b > bbar\ncpt B | A=abar: b > bbar\n",
    "rows": "var A: a0, a1, a2, a3, a4, a5\nvar B: b, bbar\nparents B: A\n"
            "cpt A: a0 > a1 > a2 > a3 > a4 > a5\ncpt B | A=a0: b > bbar\n",
    "partial": "var A: a, abar, a2\ncpt A: a > abar\n",
    "name": "var 1A: a, b\ncpt 1A: a > b\n",
    "syntax": "var A: a, abar\ncpt A: a > zzz\nvar A: x, y\n",
}


def _cli(argv: list[str]) -> str:
    from cpnet.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"$ cpnet {' '.join(argv)}\n[{code}]\n{out.getvalue()}{err.getvalue()}"


def _queries(path: str, rng: random.Random) -> list[str]:
    """The calls listed in the module docstring on one valid net file."""
    from cpnet import CatalogRow, Outcome, dsl, forward_prune, to_strips

    net = dsl.parse_cpnet(Path(path).read_text(encoding="utf-8")).net
    outcomes = [*map(Outcome, itertools.product(*(v.domain for v in net.variables)))]
    catalog = path + ".csv"
    rows = [CatalogRow(f"r{k}", rng.choice(outcomes)) for k in range(12)]
    Path(catalog).write_text(dsl.serialize_catalog(net, rows), encoding="utf-8")
    lines = [_cli([command, path, *flags]) for command, flags in (
        ("validate", []), ("best", []), ("best", ["--worst"]),
        ("pareto", ["--catalog", catalog, "--json"]),
        ("pareto", ["--catalog", catalog, "--budget", "1"]),
        ("sort", ["--catalog", catalog, "--json"]),
    )]
    for k in range(30):
        x, y = rng.choice(outcomes), rng.choice(outcomes)
        query = ["--better", net.format_outcome(x), "--worse", net.format_outcome(y)]
        pddl = f"{path}.{k}.pddl"
        lines += [_cli(["dominates", path, *query, "--witness", "--stats"]),
                  _cli(["prune", path, *query]),
                  _cli(["export-strips", path, *query, "-o", pddl])]
        if os.path.exists(pddl):
            lines.append(Path(pddl).read_text(encoding="utf-8"))
        lines.append(repr(forward_prune(net, x, y)))
    for direction in ("improving", "worsening"):
        lines += [repr((op.name, sorted(op.preconditions), op.add, op.delete))
                  for op in to_strips(net, direction)]
    return lines


def _parses() -> list[str]:
    import parse_digest

    from cpnet import dsl

    lines = []
    for k, text in enumerate(parse_digest.corpus(16, share=0.01)):
        result = dsl.parse_cpnet(text)
        sha = hashlib.sha256(parse_digest.record(result)).hexdigest()
        lines.append(f"parse {k}: {len(result.diagnostics)} diagnostics, sha256 {sha}")
    return lines


def _verdicts() -> list[str]:
    import verdict_digest

    lines, pair = [], None
    for net, x, y, verdict in verdict_digest.verdicts(16, per_family=1, pairs=3):
        if (net, x, y) != pair:
            pair = net, x, y
            lines.append(f"verdicts {net.format_outcome(x)} > {net.format_outcome(y)}")
        lines.append(verdict_digest.record(verdict))
    return lines


def _catalogs() -> list[str]:
    import catalog_digest

    lines, catalog = [], None
    for net, rows, budget, layers, report in catalog_digest.passes(16, per_family=1, catalogs=2):
        if rows is not catalog:
            catalog = rows
            lines.append("catalog " + " ".join(
                f"{row.identifier}:{net.format_outcome(row.outcome)}" for row in rows))
        lines.append(repr((budget, layers, report)))
    return lines


def _plans() -> list[str]:
    import plan_digest

    lines = []
    for net, x, y, direction, problem in plan_digest.problems(16, per_family=1, pairs=2):
        text, plan, witness = plan_digest.trip(net, problem)
        sha = hashlib.sha256(text.encode()).hexdigest()
        lines.append(f"plan {net.format_outcome(x)} > {net.format_outcome(y)} {direction}: "
                     f"text sha256 {sha}, {plan!r}, {witness!r}")
    return lines


def transcript(rng: random.Random) -> str:
    from helpers import DIGITS, wide_text

    lines: list[str] = []
    for fixture in sorted((ROOT / "tests" / "fixtures").glob("*.cpnet")):
        Path(fixture.name).write_text(fixture.read_text(encoding="utf-8"), encoding="utf-8")
        lines += _queries(fixture.name, rng)
    for name, text in {**BROKEN, "wide": wide_text(9)}.items():  # 511 rows missing
        Path(f"{name}.cpnet").write_text(text, encoding="utf-8")
        lines.append(_cli(["validate", f"{name}.cpnet"]))
    Path("digits.cpnet").write_text(DIGITS, encoding="utf-8")
    lines += _queries("digits.cpnet", rng)
    lines += _parses() + _verdicts() + _catalogs() + _plans()
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    (directory,) = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's cpnet
    sys.path.insert(0, str(ROOT / "perfbench"))  # the net generator of the parse corpus
    os.makedirs(directory, exist_ok=True)
    os.chdir(directory)
    sys.stdout.buffer.write(transcript(random.Random(16)).encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
