"""Benchmark for cpnet: pure standard library, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload tree-proofs --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --selftest

Each run sets the workload up several times from ``--seed`` (reporting the
median set-up time), then repeats passes over the same requests until
``--seconds`` have gone by.  Every set-up and every request is followed by a
fixed reference task, and its time is given on the reference scale: its
own time over the reference task's, times ``REF_MS``.  A request's latency is
the median of that over the passes.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics (raw times).  Every request's answer is checked; the last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
# The reference task's time on the scale that gated times are given in: about
# its time on the 2-core x86-64 VM the benchmark was tuned on, in a quiet spell.
REF_MS = 0.5


def reference_task() -> int:
    """Fixed pure-Python work that does not touch cpnet: breadth-first search
    over the 256 states of 8 binary flags, with tuples, a set and lists, the
    kind of work the dominance search and the planner do.  It slows down with
    the host as they do (see README.md, Noise)."""
    n = 8
    start = (0,) * n
    seen = {start}
    frontier = [start]
    while frontier:
        following = []
        for state in frontier:
            for i in range(n):
                if not state[i]:
                    succ = state[:i] + (1,) + state[i + 1:]
                    if succ not in seen:
                        seen.add(succ)
                        following.append(succ)
        frontier = following
    return len(seen)


def _reference_s() -> float:
    start = perf_counter()
    reference_task()
    return perf_counter() - start


def _percentile_beyond(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` values above it, and
    its value."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    return 100.0 * (k + 1) / len(ordered), ordered[k]


@dataclass
class Pass:
    times: list[float]  # per request, in request order
    refs: list[float]  # the reference task's time right after each request
    checks: object
    failed: int  # requests that failed a check
    defects: int  # requests that hit a known defect
    first: int  # this pass's spans are tracer.spans[first:last]
    last: int


def run_pass(requests, tracer=None) -> Pass:
    from workloads import Checks

    checks = Checks(tracer)
    times: list[float] = []
    refs: list[float] = []
    failed = defects = 0
    first = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        for qid, request in enumerate(requests):
            if tracer:
                tracer.query = qid
                tracer.active = True
            start = perf_counter()
            try:
                result = request.run()
            except Exception as exc:  # judged by the request's check
                result = exc
            times.append(perf_counter() - start)
            if tracer:
                tracer.active = False
            refs.append(_reference_s())
            errors, known = len(checks.errors), len(checks.defects)
            request.check(result, checks)
            failed += len(checks.errors) > errors
            defects += len(checks.defects) > known
    finally:
        if tracer:
            tracer.active = False
            tracer.uninstall()
    return Pass(times, refs, checks, failed, defects, first,
                len(tracer.spans) if tracer else 0)


def per_layer(tracer, p: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans."""
    from tracer import END, INFO, NAME, PARENT, QUERY, START, self_times

    spans = tracer.spans
    own = self_times(spans, p.first, p.last)
    total: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    info_sum: dict[str, int] = defaultdict(int)
    search = defaultdict(float)
    proved: set = set()
    prunes = []
    for k, span in enumerate(spans[p.first:p.last]):
        name, info = span[NAME], span[INFO]
        total[name] += span[END] - span[START]
        selfs[name] += own[k]
        if isinstance(info, bool):
            prunes.append((span[QUERY], info))
        elif isinstance(info, int):
            info_sum[name] += info
        if name != "search.dominates" or info is None:
            continue
        kind, expansions, backtracks, flips = info
        search["expansions"] += expansions
        search["backtracks"] += backtracks
        search["flips"] += flips
        search["budget"] += kind == "budget_exhausted"
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        if parent is None and kind == "dominates":
            proved.add(span[QUERY])
        if parent in ("pareto.pareto_front", "pareto.sort_catalog"):
            search["pareto_s"] += span[END] - span[START]
            search[parent] += 1
            if parent == "pareto.sort_catalog":
                search["sort_budget"] += kind == "budget_exhausted"
    unproved = [feasible for query, feasible in prunes if query not in proved]
    refuted = sum(not feasible for _, feasible in prunes)
    dominates_s = total["search.dominates"]
    prune_s = total["pruning.forward_prune"]
    parse_s = total["dsl.parse_cpnet"]
    checks = p.checks
    return {
        "search.dominates_self_s": selfs["search.dominates"],
        "search.expansions": int(search["expansions"]),
        "search.us_per_expansion": 1e6 * dominates_s / search["expansions"] if search["expansions"] else 0.0,
        "search.backtracks": int(search["backtracks"]),
        "search.budget_exhausted": int(search["budget"]),
        "search.witness_flips": int(search["flips"]),
        "search.verify_s": total["search.verify_witness"],
        "pruning.prune_s": prune_s,
        "pruning.us_per_query": 1e6 * prune_s / len(prunes) if prunes else 0.0,
        "pruning.refuted": refuted,
        "pruning.refuted_share": sum(not f for f in unproved) / len(unproved) if unproved else 0.0,
        "pareto.front_searches": int(search["pareto.pareto_front"]),
        "pareto.sort_searches": int(search["pareto.sort_catalog"]),
        "pareto.search_s": search["pareto_s"],
        "pareto.self_s": selfs["pareto.pareto_front"] + selfs["pareto.sort_catalog"],
        "pareto.sort_budget_exhausted": int(search["sort_budget"]),
        "dsl.parse_s": parse_s,
        "dsl.parse_kb_per_s": info_sum["dsl.parse_cpnet"] / 1024 / parse_s if parse_s else 0.0,
        "dsl.parse_catalog_s": total["dsl.parse_catalog"],
        "dsl.serialize_s": total["dsl.serialize_cpnet"] + total["dsl.serialize_catalog"],
        "model.validate_s": total["model.validate"],
        "planning.export_s": total["planning.export_planning_problem"] + total["planning.to_strips"],
        "planning.render_s": total["planning.render_planning_problem"],
        "planning.operators": info_sum["planning.export_planning_problem"],
        "planning.solve_s": total["planning.solve_planning_problem"],
        "planning.replay_s": total["planning.plan_to_flip_sequence"],
        "planning.plan_steps": info_sum["planning.solve_planning_problem"],
        "cli.self_s": selfs["cli.main"],
        "checks.undecided_share": checks.undecided / checks.pairs if checks.pairs else 0.0,
        "checks.error_share": (p.failed + p.defects) / len(p.times),
        "checks.known_defects": p.defects,
    }


PER_LAYER_UNITS = {
    "search.dominates_self_s": "s", "search.expansions": "count",
    "search.us_per_expansion": "us", "search.backtracks": "count",
    "search.budget_exhausted": "count", "search.witness_flips": "count",
    "search.verify_s": "s", "pruning.prune_s": "s", "pruning.us_per_query": "us",
    "pruning.refuted": "count", "pruning.refuted_share": "ratio",
    "pareto.front_searches": "count", "pareto.sort_searches": "count",
    "pareto.search_s": "s", "pareto.self_s": "s", "pareto.sort_budget_exhausted": "count",
    "dsl.parse_s": "s", "dsl.parse_kb_per_s": "KB/s", "dsl.parse_catalog_s": "s",
    "dsl.serialize_s": "s", "model.validate_s": "s", "planning.export_s": "s",
    "planning.render_s": "s", "planning.operators": "count", "planning.solve_s": "s",
    "planning.replay_s": "s", "planning.plan_steps": "count", "cli.self_s": "s",
    "checks.undecided_share": "ratio", "checks.error_share": "ratio",
    "checks.known_defects": "count", "trace.overhead": "ratio",
}


def _scaled(p: Pass) -> list[float]:
    """The pass's request times on the reference scale, in seconds."""
    return [REF_MS / 1e3 * t / r for t, r in zip(p.times, p.refs)]


def _request_latencies(passes: list[Pass]) -> list[float]:
    """Each request's latency: the median over the passes of its time on the
    reference scale."""
    return [statistics.median(column) for column in zip(*map(_scaled, passes))]


def _named(workload: str, requests, latencies: list[float], passes: list[Pass]) -> dict:
    """Per-workload sums and shares, printed by name but not gated (see
    README.md)."""
    by_kind: dict[str, float] = defaultdict(float)
    for request, latency in zip(requests, latencies):
        by_kind[request.kind] += latency
    first = passes[0]
    named = {}
    if workload in ("tree-proofs", "dag-mixed"):
        # A request here is one query: the gated op_* latencies under the
        # names the query workloads are discussed by.
        named["query_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
        named["query_tail_ms"] = (1e3 * _percentile_beyond(latencies)[1], "ms")
        named["queries_per_s"] = (len(latencies) / sum(latencies), "1/s")
        named["undecided_share"] = (first.checks.undecided / first.checks.pairs, "ratio")
    elif workload == "catalog":
        # A catalog's latency, split in the median shares of its runs.
        for part in ("pareto", "sort"):
            named[f"{part}_s"] = (sum(
                latency * statistics.median(s[part] / sum(s.values()) for s in r.splits)
                for r, latency in zip(requests, latencies)), "s")
        named["undecided_share"] = (first.checks.undecided / first.checks.pairs, "ratio")
    else:
        named["cli_validate_s"] = (by_kind["cli-validate"], "s")
        named["cli_export_s"] = (by_kind["cli-export"], "s")
        named["cli_prune_s"] = (by_kind["cli-prune"], "s")
        named["plan_roundtrip_s"] = (by_kind["plan-trips"] + by_kind["plan-collision"], "s")
    named["host_ref_ms"] = (1e3 * statistics.median(r for p in passes for r in p.refs), "ms")
    attempted = sum(len(p.times) for p in passes)
    named["error_share"] = (sum(p.failed + p.defects for p in passes) / attempted, "ratio")
    return named


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = HERE / "_work" / f"{name}-{seed}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            requests = workload.setup(seed, workdir)
            elapsed = perf_counter() - start
            setup_times.append(REF_MS / 1e3 * elapsed / _reference_s())
        tracer = Tracer() if trace else None
        untraced: list[Pass] = []
        traced: list[Pass] = []
        deadline = perf_counter() + seconds
        while True:
            if tracer is not None and len(traced) < len(untraced):
                traced.append(run_pass(requests, tracer))
            else:
                untraced.append(run_pass(requests))
            if perf_counter() >= deadline and (tracer is None or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    passes = untraced + traced
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    for message in sorted({m for p in passes for m in p.checks.errors}):
        print(f"WRONG ANSWER [{name}]: {message}", file=sys.stderr)
    for message in sorted({m for p in passes for m in p.checks.defects}):
        print(f"known defect [{name}]: {message}", file=sys.stderr)
    latencies = _request_latencies(untraced)
    result = {
        "workload": name,
        "why": workload.why,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": len(untraced),
        "requests": len(requests),
    }
    if tracer is None:
        pct, tail = _percentile_beyond(latencies)
        result["metrics"] = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result["tail_percentile"] = pct
        result["named"] = _named(name, requests, latencies, untraced)
    else:
        layers = [per_layer(tracer, p) for p in traced]
        metrics = {}
        for key in layers[0]:
            value = statistics.median(layer[key] for layer in layers)
            unit = PER_LAYER_UNITS[key]
            metrics[key] = (round(value) if unit == "count" else value, unit)
        metrics["trace.overhead"] = (
            statistics.median(sum(_scaled(p)) for p in traced)
            / statistics.median(sum(_scaled(p)) for p in untraced),
            "ratio",
        )
        result["metrics"] = metrics
        tracer.dump(HERE / "_out" / f"spans-{name}.jsonl")
    return result


def _print_human(result: dict) -> None:
    name = result["workload"]
    print(f"# {name}: {result['why']}")
    print(f"#   {result['requests']} requests/pass, {result['passes']} untraced passes, "
          f"{result['attempted']} requests attempted, {result['failed']} failed")
    if "tail_percentile" in result:
        print(f"#   op_tail_ms is p{result['tail_percentile']:.1f} of {result['requests']} "
              f"request latencies (each the median of {result['passes']} passes, reference scale)")
    rows = list(result["metrics"].items()) + list(result.get("named", {}).items())
    for key, (value, unit) in rows:
        print(f"{name:12s} {key:28s} {value:14.6g} {unit}")


def _json_metrics(metrics: dict, prefix: str = "") -> dict:
    return {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own references against the oracle")
    args = parser.parse_args(argv)

    if not (SRC / "cpnet" / "__init__.py").is_file():
        print(f"cpnet sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True

    if args.selftest:
        from selftest import selftest

        return selftest(args.seed)

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    results = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        _print_human(result)
    if len(results) == 1:
        metrics = _json_metrics(results[0]["metrics"])
    else:
        metrics = {}
        for result in results:
            metrics.update(_json_metrics(result["metrics"], result["workload"] + "/"))
            metrics.update(_json_metrics(result.get("named", {}), result["workload"] + "/"))
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
