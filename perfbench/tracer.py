"""Span tracing at the package's module boundaries, installed from outside.

``Tracer.install`` replaces every public function of the cpnet modules with a
wrapper, in every namespace that holds a reference to it: the defining
module, the package root, and names bound by ``from .search import
dominates`` inside other modules.  ``cli`` reaches the layers through module
attributes, so its calls are caught too.

A wrapper records a span only for a boundary call, one whose immediate caller
lives in another module.  The ``validate`` that ``CPNet._require_valid`` runs
inside every public function, and ``to_strips`` inside
``export_planning_problem``, are therefore not traced.  Spans carry name,
start, end, parent span and query id; they stay in memory and are written out
by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("dsl", "model", "search", "pruning", "pareto", "planning", "cli")

NAME, START, END, PARENT, QUERY, INFO = range(6)


def _info(name: str, args: tuple, result) -> object:
    """Exact counts read off a call's arguments or result."""
    if name == "search.dominates":
        witness = result.witness
        return [result.kind, result.stats.expansions, result.stats.backtracks,
                len(witness.flips) if witness is not None else 0]
    if name == "dsl.parse_cpnet":
        return len(args[0].encode()) if args else 0
    if name == "planning.export_planning_problem":
        return len(result.operators)
    if name == "planning.solve_planning_problem":
        return len(result) if result is not None else 0
    if name == "pruning.forward_prune":
        return result.feasible
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.query: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str, module_name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or sys._getframe(1).f_globals.get("__name__") == module_name:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, tracer.query, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[START] = start
                stack.pop()
            span[INFO] = _info(span_name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        import cpnet

        modules = [importlib.import_module(f"cpnet.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", module.__name__)
        for holder in [cpnet, *modules]:
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, wrappers[value])

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        """Write every span recorded so far as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, query, info in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "query": query, "info": info}) + "\n")


def self_times(spans: list[list], first: int, last: int) -> list[float]:
    """Duration minus the time covered by direct children, for spans[first:last]."""
    own = [s[END] - s[START] for s in spans[first:last]]
    for s in spans[first:last]:
        if s[PARENT] >= first:
            own[s[PARENT] - first] -= s[END] - s[START]
    return own
