"""Command-line front end.

Exit codes (stable contract):
    0  success / query dominates
    1  negative result (not dominated, invalid net, infeasible prune)
    2  usage or input error
    3  budget exhausted
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import dsl, model, pareto, planning, pruning, search

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not text
    except (OSError, UnicodeDecodeError) as exc:
        raise model.CPNetError(f"cannot read {path}: {exc}") from exc


def _require_parsed(path: str, diagnostics: list[dsl.SourceDiagnostic]) -> None:
    if diagnostics:
        raise model.CPNetError(f"{path} failed to parse:\n" + "\n".join(map(str, diagnostics)))


def _load_net(path: str) -> model.CPNet:
    result = dsl.parse_cpnet(_read_text(path))
    _require_parsed(path, result.diagnostics)
    report = model.validate(result.net)
    if not report.ok:
        raise model.CPNetError(f"{path} is not a valid net:\n" + "\n".join(report.problems))
    return result.net


def _load_query(args: argparse.Namespace) -> tuple[model.CPNet, model.Outcome, model.Outcome]:
    net = _load_net(args.net)
    return net, dsl.parse_outcome(net, args.better), dsl.parse_outcome(net, args.worse)


def _search_config(args: argparse.Namespace) -> search.SearchConfig:
    return search.SearchConfig(
        direction=args.direction,
        suffix_fixing=not args.no_suffix_fixing,
        suffix_extension=not args.no_suffix_extension,
        rightmost=not args.no_rightmost,
        least_improving=not args.no_least_improving,
        visited_dedup=not args.no_dedup,
        budget=args.budget,
        want_witness=args.witness,
    )


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--better", required=True, help="outcome text, e.g. A=a,B=b")
    parser.add_argument("--worse", required=True, help="outcome text, e.g. A=abar,B=b")


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--direction",
        choices=(model.IMPROVING, model.WORSENING, search.BIDIRECTIONAL),
        default=search.BIDIRECTIONAL,
    )
    parser.add_argument("--no-suffix-fixing", action="store_true")
    parser.add_argument("--no-suffix-extension", action="store_true")
    parser.add_argument("--no-rightmost", action="store_true")
    parser.add_argument("--no-least-improving", action="store_true")
    parser.add_argument("--no-dedup", action="store_true")
    parser.add_argument("--budget", type=int, default=None)


def _witness_lines(net: model.CPNet, seq: model.FlipSequence) -> list[str]:
    lines = []
    values = seq.start.values
    for flip in seq.flips:
        parents = net.variable(flip.variable).parents
        rule = model._bindings(parents, [values[net.index(p)] for p in parents]) or "true"
        lines.append(f"{flip.variable}: {flip.from_value} -> {flip.to_value}  [rule: {rule}]")
        values = model._flipped(net, values, flip)
    return lines


def _cmd_validate(args: argparse.Namespace) -> int:
    result = dsl.parse_cpnet(_read_text(args.net))
    if result.diagnostics:
        print(*result.diagnostics, sep="\n", file=sys.stderr)
        return EXIT_NEGATIVE
    report = model.validate(result.net)
    if report.ok:
        print("ok")
        return EXIT_OK
    for problem in report.problems:
        print(problem, file=sys.stderr)
    return EXIT_NEGATIVE


def _cmd_best(args: argparse.Namespace) -> int:
    net = _load_net(args.net)
    outcome = model.worst_outcome(net) if args.worst else model.best_outcome(net)
    print(net.format_outcome(outcome))
    return EXIT_OK


def _cmd_dominates(args: argparse.Namespace) -> int:
    net, better, worse = _load_query(args)
    verdict = search.dominates(net, better, worse, _search_config(args))
    if verdict.kind == search.DOMINATES:
        print("dominates")
        if verdict.witness is not None:
            for line in _witness_lines(net, verdict.witness):
                print(line)
        code = EXIT_OK
    elif verdict.kind == search.NOT_DOMINATED:
        print("not-dominated")
        code = EXIT_NEGATIVE
    else:
        print("budget-exhausted")
        code = EXIT_BUDGET
    if args.stats:
        print(
            f"expansions={verdict.stats.expansions} "
            f"backtracks={verdict.stats.backtracks} "
            f"direction={verdict.stats.direction_decided} "
            f"decided_by={verdict.stats.decided_by}"
        )
    return code


def _cmd_prune(args: argparse.Namespace) -> int:
    net, better, worse = _load_query(args)
    result = pruning.forward_prune(net, better, worse)
    for name, values in result.pruned_domains.items():
        print(f"{name}: " + ", ".join(values))
    if result.feasible:
        print("feasible")
        return EXIT_OK
    print(f"infeasible at {result.failed_variable}")
    return EXIT_NEGATIVE


def _cmd_export_strips(args: argparse.Namespace) -> int:
    net, better, worse = _load_query(args)
    problem = planning.export_planning_problem(net, better, worse, args.direction)
    text = planning.render_planning_problem(problem)
    try:
        Path(args.output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise model.CPNetError(f"cannot write {args.output}: {exc}") from exc
    print(f"wrote {args.output} ({len(problem.operators)} operators)")
    return EXIT_OK


def _load_catalog(net: model.CPNet, path: str) -> list[dsl.CatalogRow]:
    rows, diagnostics = dsl.parse_catalog(net, _read_text(path))
    _require_parsed(path, diagnostics)
    return rows


def _cmd_pareto(args: argparse.Namespace) -> int:
    net = _load_net(args.net)
    rows = _load_catalog(net, args.catalog)
    cfg = search.SearchConfig(budget=args.budget)
    report = pareto.pareto_front(net, rows, cfg)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2))
    else:
        print("nondominated: " + (", ".join(report.nondominated) or "(none)"))
        for loser, winner in report.dominated:
            print(f"dominated: {loser} (beaten by {winner})")
        for a, b in report.undecided:
            print(f"undecided: {a} vs {b}")
        print(f"comparisons run: {report.comparisons_run}")
    return EXIT_BUDGET if report.undecided else EXIT_OK


def _cmd_sort(args: argparse.Namespace) -> int:
    net = _load_net(args.net)
    rows = _load_catalog(net, args.catalog)
    layers = pareto.sort_catalog(net, rows)
    if args.json:
        print(json.dumps({"layers": layers}, indent=2))
    else:
        for depth, layer in enumerate(layers):
            print(f"layer {depth}: " + ", ".join(layer))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpnet",
        description="Reason about conditional ceteris-paribus preference networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a net file")
    p_validate.add_argument("net")
    p_validate.set_defaults(func=_cmd_validate)

    p_best = sub.add_parser("best", help="print the most preferred outcome")
    p_best.add_argument("net")
    p_best.add_argument("--worst", action="store_true", help="print the least preferred instead")
    p_best.set_defaults(func=_cmd_best)

    p_dom = sub.add_parser("dominates", help="answer a dominance query")
    p_dom.add_argument("net")
    _add_query_flags(p_dom)
    _add_search_flags(p_dom)
    p_dom.add_argument("--witness", action="store_true", help="print the flip sequence")
    p_dom.add_argument("--stats", action="store_true", help="print search statistics")
    p_dom.set_defaults(func=_cmd_dominates)

    p_prune = sub.add_parser("prune", help="forward-prune a query without searching")
    p_prune.add_argument("net")
    _add_query_flags(p_prune)
    p_prune.set_defaults(func=_cmd_prune)

    p_export = sub.add_parser("export-strips", help="write the planning encoding of a query")
    p_export.add_argument("net")
    _add_query_flags(p_export)
    p_export.add_argument(
        "--direction", choices=(model.IMPROVING, model.WORSENING), default=model.IMPROVING
    )
    p_export.add_argument("-o", "--output", required=True)
    p_export.set_defaults(func=_cmd_export_strips)

    p_pareto = sub.add_parser("pareto", help="non-dominated rows of a catalog")
    p_pareto.add_argument("net")
    p_pareto.add_argument("--catalog", required=True)
    p_pareto.add_argument("--budget", type=int, default=None)
    p_pareto.add_argument("--json", action="store_true")
    p_pareto.set_defaults(func=_cmd_pareto)

    p_sort = sub.add_parser("sort", help="layer a catalog by dominance")
    p_sort.add_argument("net")
    p_sort.add_argument("--catalog", required=True)
    p_sort.add_argument("--json", action="store_true")
    p_sort.set_defaults(func=_cmd_sort)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except model.CPNetError as exc:  # unusable input: a file, a net, an outcome
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
