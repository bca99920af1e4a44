"""The four workloads: seeded set-up, the requests of one pass, and the
known-answer check of every request's result.

A pass is a closed loop with one caller: each request is one call (or one
short call sequence) into the public API, timed on its own, and checked after
its timer stops.  The program under test only ever sees the generated text,
files and outcome tuples.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import cpnet
from cpnet import cli

import netgen
from refcheck import RankCertificate, replays


@dataclass
class Request:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, "Checks"], None]
    splits: list[dict[str, float]] = field(default_factory=list)


class Checks:
    """Outcome of the known-answer checks over one pass.

    ``errors`` are wrong answers; ``defects`` are failures of the three known
    defects that the benchmark keeps exercising (they count in the error
    share but do not make the run incorrect).  ``tracer`` is set on traced
    passes; checks run untraced, apart from the probes they wrap in
    ``traced``.
    """

    def __init__(self, tracer=None) -> None:
        self.errors: list[str] = []
        self.defects: list[str] = []
        self.undecided = 0
        self.pairs = 0
        self.tracer = tracer

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok

    @contextlib.contextmanager
    def traced(self):
        """Trace the calls made inside, on traced passes only."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = True
        try:
            yield
        finally:
            self.tracer.active = False


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], list[Request]]


def _build(spec: netgen.NetSpec) -> cpnet.CPNet:
    parsed = cpnet.parse_cpnet(spec.text())
    if not parsed.ok or not cpnet.validate(parsed.net).ok:
        raise RuntimeError("generated net failed to parse or validate")
    return parsed.net


def _failed(result) -> str | None:
    return f"{type(result).__name__}: {result}" if isinstance(result, BaseException) else None


# -- dominance queries -----------------------------------------------------------


def _query(spec, net, cert, x, y, cfg, positive: bool) -> Request:
    """One dominance query.  Walk positives must never come back
    not_dominated; a DOMINATES verdict needs a witness that replays and must
    not contradict the rank certificate."""
    ox, oy = cpnet.Outcome(x), cpnet.Outcome(y)
    refuted = cert.refutes(x, y)
    if positive and refuted:
        raise RuntimeError("rank certificate refutes a walk positive")

    def check(verdict, checks: Checks) -> None:
        err = _failed(verdict)
        if not checks.expect(err is None, f"dominates raised {err}"):
            return
        kind = verdict.kind
        if kind == cpnet.DOMINATES:
            checks.expect(not refuted, "dominates on a rank-certified negative")
            checks.expect(replays(spec, x, y, verdict.witness), "witness fails replay")
            with checks.traced():
                verified = cpnet.verify_witness(net, ox, oy, verdict.witness)
            checks.expect(verified, "verify_witness rejects the engine's witness")
        elif kind == cpnet.NOT_DOMINATED:
            checks.expect(not positive, "walk positive reported not_dominated")
        else:
            checks.expect(kind == cpnet.BUDGET_EXHAUSTED and cfg.budget is not None,
                          f"unexpected verdict {kind!r}")
            checks.undecided += 1
        checks.pairs += 1
        if checks.tracer is not None:
            # Probe forward pruning on every query: it must never refute a
            # query the engine proved or that is positive by construction.
            with checks.traced():
                prune = cpnet.forward_prune(net, ox, oy)
            checks.expect(prune.feasible or not (positive or kind == cpnet.DOMINATES),
                          "forward_prune refutes a true dominance")

    return Request("walk" if positive else "random",
                   lambda: cpnet.dominates(net, ox, oy, cfg), check)


def _tree_proofs(seed: int, workdir: Path) -> list[Request]:
    rng = random.Random(seed)
    cfg = cpnet.SearchConfig()
    requests = []
    for k in range(16):
        spec = netgen.chain(rng, 100) if k % 2 == 0 else netgen.tree(rng, 100)
        net, cert = _build(spec), RankCertificate(spec)
        for _ in range(25):
            x, y = netgen.walk_pair(rng, spec, 25, 100)
            requests.append(_query(spec, net, cert, x, y, cfg, positive=True))
    return requests


DAG_BUDGET = 1000


def _dag_mixed(seed: int, workdir: Path) -> list[Request]:
    rng = random.Random(seed)
    cfg = cpnet.SearchConfig(budget=DAG_BUDGET)
    requests = []
    for _ in range(40):
        spec = netgen.dag(rng, 24)
        net, cert = _build(spec), RankCertificate(spec)
        for j in range(10):
            if j % 2 == 0:
                x, y = netgen.walk_pair(rng, spec, 3, 72)
            else:
                x, y = netgen.random_outcome(rng, spec), netgen.random_outcome(rng, spec)
            requests.append(_query(spec, net, cert, x, y, cfg, positive=j % 2 == 0))
    return requests


# -- catalogs --------------------------------------------------------------------

CATALOG_BUDGET = 200


def _rank_catalog(kind: str, spec, net, text: str, cfg) -> Request:
    """Parse a catalog, take its Pareto front, then layer it with sort."""
    cert = RankCertificate(spec)
    confirmed: dict[tuple, bool] = {}

    def run():
        t0 = perf_counter()
        rows, diagnostics = cpnet.parse_catalog(net, text)
        t1 = perf_counter()
        report = cpnet.pareto_front(net, rows, cfg)
        t2 = perf_counter()
        layers = cpnet.sort_catalog(net, rows, cfg)
        t3 = perf_counter()
        request.splits.append({"parse": t1 - t0, "pareto": t2 - t1, "sort": t3 - t2})
        return rows, diagnostics, report, layers

    def backed(winner, loser, checks: Checks) -> bool:
        """A named winner must come with a witness that replays."""
        key = (winner.values, loser.values)
        if key not in confirmed:
            verdict = cpnet.dominates(net, winner, loser)
            confirmed[key] = (
                not cert.refutes(*key) and replays(spec, *key, verdict.witness)
            )
        return confirmed[key]

    def check(result, checks: Checks) -> None:
        err = _failed(result)
        if not checks.expect(err is None, f"catalog request raised {err}"):
            return
        rows, diagnostics, report, layers = result
        if not checks.expect(not diagnostics, "catalog text failed to parse"):
            return
        checks.expect(cpnet.serialize_catalog(net, rows) == text,
                      "catalog serialize round trip is not bit-exact")
        by_id = {row.identifier: row.outcome for row in rows}
        unique = len(set(by_id.values()))
        checks.pairs += unique * (unique - 1) // 2
        checks.undecided += len(report.undecided)
        seen = report.nondominated + [loser for loser, _ in report.dominated]
        blocked = {i for pair in report.undecided for i in pair}
        missing = set(by_id) - set(seen) - blocked
        if missing and {by_id[i] for i in missing} <= {by_id[i] for i in blocked}:
            # Known defect: undecided pairs name one id per outcome, so the
            # other rows with that outcome are in no list of the report.
            checks.defects.append("pareto drops the duplicate rows of undecided outcomes")
            missing = set()
        checks.expect(len(seen) == len(set(seen)) and not missing
                      and not (set(seen) & blocked),
                      "pareto report does not partition the rows")
        for loser, winner in report.dominated:
            checks.expect(backed(by_id[winner], by_id[loser], checks),
                          f"pareto winner {winner} over {loser} has no valid witness")
        flat = [i for layer in layers for i in layer]
        checks.expect(sorted(flat) == sorted(by_id), "sort layers do not partition the rows")
        if not report.undecided:
            checks.expect(set(layers[0]) == set(report.nondominated),
                          "sort layer 0 differs from the pareto front")

    request = Request(kind, run, check)  # run() records its splits here
    return request


def _catalog(seed: int, workdir: Path) -> list[Request]:
    rng = random.Random(seed)
    cfg = cpnet.SearchConfig(budget=CATALOG_BUDGET)
    requests = []
    for k in range(128):
        kind = "catalog-forest" if k < 96 else "catalog-dag"
        spec = netgen.tree(rng, 30) if k < 96 else netgen.dag(rng, 14)
        net = _build(spec)
        text = netgen.catalog_text(spec, netgen.catalog_rows(rng, spec, 12))
        requests.append(_rank_catalog(kind, spec, net, text, cfg))
    return requests


# -- files and the command line ----------------------------------------------------


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _operator_count(spec: netgen.NetSpec) -> int:
    total = 0
    for i, domain in enumerate(spec.domains):
        rows = 1
        for p in spec.parents[i]:
            rows *= len(spec.domains[p])
        total += rows * (len(domain) - 1)
    return total


def _outcome_text(spec: netgen.NetSpec, values: tuple[str, ...]) -> str:
    return ",".join(f"{n}={v}" for n, v in zip(spec.names, values))


def _file_requests(rng, spec, path: Path, workdir: Path) -> list[Request]:
    """validate, export-strips and prune on one net file; the query is a walk
    positive, so prune must find it feasible."""
    x, y = netgen.walk_pair(rng, spec, 3, 30)
    better, worse = _outcome_text(spec, x), _outcome_text(spec, y)
    pddl = workdir / (path.stem + ".pddl")
    operators = _operator_count(spec)

    def check_validate(result, checks: Checks) -> None:
        err = _failed(result)
        if checks.expect(err is None, f"cli validate raised {err}"):
            checks.expect(result[:2] == (0, "ok\n"), f"cli validate {path.name}: {result}")

    def check_export(result, checks: Checks) -> None:
        err = _failed(result)
        if checks.expect(err is None, f"cli export-strips raised {err}"):
            checks.expect(
                result[0] == 0 and f"({operators} operators)" in result[1]
                and pddl.read_text().startswith("(define (domain"),
                f"cli export-strips {path.name}: {result[0]} {result[1][:80]!r}",
            )

    def check_prune(result, checks: Checks) -> None:
        err = _failed(result)
        if checks.expect(err is None, f"cli prune raised {err}"):
            checks.expect(result[0] == 0 and result[1].endswith("feasible\n"),
                          f"cli prune {path.name} refutes a walk positive")

    return [
        Request("cli-validate", lambda: _cli(["validate", str(path)]), check_validate),
        Request("cli-export", lambda: _cli(["export-strips", str(path), "--better", better,
                                            "--worse", worse, "-o", str(pddl)]), check_export),
        Request("cli-prune", lambda: _cli(["prune", str(path), "--better", better,
                                           "--worse", worse]), check_prune),
    ]


def _chain_request(path: Path) -> Request:
    """CLI validate on a child-first chain.  Known defect: the recursive cycle
    check raises RecursionError, which escapes ``main``."""

    def check(result, checks: Checks) -> None:
        if isinstance(result, RecursionError):
            checks.defects.append("validate on a child-first chain raises RecursionError")
            return
        err = _failed(result)
        if checks.expect(err is None, f"cli validate on the chain raised {err}"):
            checks.expect(result[:2] == (0, "ok\n"), f"cli validate chain: {result}")

    return Request("cli-validate-chain", lambda: _cli(["validate", str(path)]), check)


def _roundtrip_request(text: str) -> Request:
    """parse, validate and serialize a net; the text must come back bit-exact."""

    def run():
        parsed = cpnet.parse_cpnet(text)
        report = cpnet.validate(parsed.net)
        return parsed, report, cpnet.serialize_cpnet(parsed.net) if report.ok else None

    def check(result, checks: Checks) -> None:
        err = _failed(result)
        if checks.expect(err is None, f"net round trip raised {err}"):
            parsed, report, back = result
            checks.expect(parsed.ok and report.ok and back == text,
                          "net serialize round trip is not bit-exact")

    return Request("net-roundtrip", run, check)


def _plan_trip(spec, net, x, y, direction: str):
    problem = cpnet.export_planning_problem(net, cpnet.Outcome(x), cpnet.Outcome(y), direction)
    cpnet.render_planning_problem(problem)
    plan = cpnet.solve_planning_problem(problem)
    if plan is None:
        return None
    return cpnet.plan_to_flip_sequence(net, problem, plan)


def _plan_trips(trips) -> Request:
    """export -> render -> solve -> replay for walk positives on one small
    net; every plan must replay to a witness of the query."""

    def run():
        return [_plan_trip(*trip) for trip in trips]

    def check(result, checks: Checks) -> None:
        err = _failed(result)
        if not checks.expect(err is None, f"plan round trip raised {err}"):
            return
        for (spec, net, x, y, _), witness in zip(trips, result):
            checks.expect(witness is not None and replays(spec, x, y, witness),
                          "plan for a walk positive does not replay to a witness")

    return Request("plan-trips", run, check)


def _collision_request() -> Request:
    """Known defect: two worsening operators share one name, so the solver's
    plan is rejected by plan_to_flip_sequence."""
    spec = netgen.collision_net()
    net = _build(spec)
    x, y = ("b_x", "x"), ("c", "c")

    def check(result, checks: Checks) -> None:
        if isinstance(result, cpnet.PlanReplayError):
            checks.defects.append("colliding STRIPS operator names break plan replay")
            return
        err = _failed(result)
        if checks.expect(err is None, f"collision round trip raised {err}"):
            checks.expect(result is not None and replays(spec, x, y, result),
                          "collision plan does not replay to a witness")

    return Request("plan-collision", lambda: _plan_trip(spec, net, x, y, cpnet.WORSENING), check)


def _files(seed: int, workdir: Path) -> list[Request]:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    requests: list[Request] = []
    texts = []
    for k in range(8):
        spec = netgen.dag(rng, 500, window=20)
        texts.append(spec.text())
        path = workdir / f"net{k}.cpnet"
        path.write_text(texts[-1], encoding="utf-8")
        requests.extend(_file_requests(rng, spec, path, workdir))
    requests.append(_roundtrip_request(texts[0]))
    chain = workdir / "chain.cpnet"
    chain.write_text(netgen.child_first_chain(rng, 3000).text(), encoding="utf-8")
    requests.append(_chain_request(chain))
    for _ in range(40):
        spec = netgen.chain(rng, 10)
        net = _build(spec)
        trips = []
        for k in range(10):
            x, y = netgen.walk_pair(rng, spec, 3, 3)
            direction = cpnet.IMPROVING if k % 2 == 0 else cpnet.WORSENING
            trips.append((spec, net, x, y, direction))
        requests.append(_plan_trips(trips))
    requests.append(_collision_request())
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree-proofs", "binary chains and trees with walk-positive queries: search "
                 "commits without backtracking, so time is proof length times cost per "
                 "expansion", _tree_proofs),
        Workload("dag-mixed", "multi-parent nets, domain 2-3, half walk positives and half "
                 "random pairs: backtracking, dedup and the budget all run", _dag_mixed),
        Workload("catalog", "parse, pareto and sort over small catalogs with walk chains and "
                 "duplicates, a quarter on multi-parent nets that run out of budget: the only "
                 "layer that orchestrates many searches", _catalog),
        Workload("files", "CLI validate, export-strips and prune over generated net files, "
                 "plus batches of plan round trips: dsl, validate, planning and cli do the "
                 "work", _files),
    )
}
