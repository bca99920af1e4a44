"""Forward pruning: value graphs, sweep, soundness against the oracle."""

import itertools
import random

from cpnet import (
    NOT_DOMINATED,
    SearchConfig,
    Variable,
    forward_prune,
    oracle_closure,
    value_graph,
)
from cpnet.model import CPNet, Outcome, validate
from cpnet.search import _compiled, _search
from helpers import all_pairs, make_net, outcome, random_net


class TestValueGraph:
    def test_arcs_from_both_rows(self, chain2):
        x = outcome(chain2, "A=a,B=b")
        y = outcome(chain2, "A=abar,B=b")
        graph = value_graph(chain2, "B", x, y)
        assert set(graph.arcs) == {("b", "bbar"), ("bbar", "b")}

    def test_pruned_parent_drops_a_row(self, chain2):
        x = outcome(chain2, "A=a,B=b")
        y = outcome(chain2, "A=abar,B=b")
        graph = value_graph(chain2, "B", x, y, {"A": ("a",)})
        assert set(graph.arcs) == {("b", "bbar")}

    def test_only_successive_values_connected(self):
        net = make_net(
            [("V", ["v1", "v2", "v3"], [])],
            {"V": {(): ("v1", "v2", "v3")}},
        )
        graph = value_graph(
            net, "V", Outcome(("v1",)), Outcome(("v3",))
        )
        assert set(graph.arcs) == {("v1", "v2"), ("v2", "v3")}


class TestForwardPrune:
    def _query(self, net):
        x = outcome(
            net, "A=a,B=bbar,C=c,D=d,E=e,F=f,G=g,H=h"
        )
        y = outcome(
            net, "A=abar,B=b,C=c,D=d,E=e,F=f,G=g,H=h"
        )
        return x, y

    def test_fails_fast_at_second_variable(self, polytree8):
        x, y = self._query(polytree8)
        result = forward_prune(polytree8, x, y)
        assert not result.feasible
        assert result.failed_variable == "B"
        # nothing after B was processed
        assert set(result.pruned_domains) == {"A"}
        assert result.pruned_domains["A"] == ("a", "abar")

    def test_ternary_value_pruned_before_failure(self, polytree8_ternary):
        x = outcome(
            polytree8_ternary, "A=a,B=bbar,C=c,D=d,E=e,F=f,G=g,H=h"
        )
        y = outcome(
            polytree8_ternary, "A=abar,B=b,C=c,D=d,E=e,F=f,G=g,H=h"
        )
        result = forward_prune(polytree8_ternary, x, y)
        assert result.pruned_domains["A"] == ("a", "abar")  # third value gone
        assert not result.feasible
        assert result.failed_variable == "B"

    def test_equal_outcomes_feasible(self, chain3):
        z = outcome(chain3, "A=a,B=b,C=c")
        result = forward_prune(chain3, z, z)
        assert result.feasible
        for v in chain3.variables:
            assert z.values[chain3.index(v.name)] in result.pruned_domains[v.name]

    def test_incomparable_pair_is_not_caught_here(self, chain3):
        # Pruning is sound, not complete: this false query passes the sweep.
        x = outcome(chain3, "A=a,B=bbar,C=c")
        y = outcome(chain3, "A=abar,B=bbar,C=cbar")
        assert forward_prune(chain3, x, y).feasible


def _walks_through(graph, start, goal):
    """Values on some directed walk from ``start`` to ``goal`` in ``graph``."""

    def reach(node, arcs):
        seen, todo = {node}, [node]
        while todo:
            for nxt in arcs.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    forward, backward = {}, {}
    for a, b in graph.arcs:
        forward.setdefault(a, []).append(b)
        backward.setdefault(b, []).append(a)
    both = reach(start, forward) & reach(goal, backward)
    return tuple(v for v in graph.nodes if v in both)


class TestSweepMatchesValueGraphs:
    def test_compiled_sweep_equals_the_value_graph_sweep(self):
        rng = random.Random(81)
        for _ in range(60):
            net = random_net(
                rng, rng.randint(2, 5), domain_sizes=(2, 3, 4), max_parents=rng.randint(1, 3)
            )
            pairs = all_pairs(net)
            for x, y in rng.sample(pairs, min(40, len(pairs))):
                surviving, failed = {}, None
                for name in _compiled(net)[0].names:  # topological order
                    i = net.index(name)
                    graph = value_graph(net, name, x, y, surviving)
                    keep = _walks_through(graph, x.values[i], y.values[i])
                    if not keep:
                        failed = name
                        break
                    surviving[name] = keep
                result = forward_prune(net, x, y)
                assert (result.failed_variable, result.pruned_domains) == (failed, surviving)
                assert list(result.pruned_domains) == list(surviving)
                assert result.feasible == (failed is None)


def _iter_sequences(adjacency, start, goal):
    """All improving paths start -> goal (the flip DAG has no cycles)."""
    stack = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == goal:
            yield path
            continue
        for child in adjacency[node]:
            stack.append((child, path + [child]))


class TestSoundness:
    def test_never_kills_a_true_query(self):
        rng = random.Random(77)
        for _ in range(25):
            net = random_net(rng, rng.randint(1, 4), domain_sizes=(2, 3))
            closure = oracle_closure(net)
            for x, y in all_pairs(net):
                if x in closure[y]:
                    assert forward_prune(net, x, y).feasible, (net.names, x, y)

    def test_every_value_used_by_any_sequence_survives(self):
        rng = random.Random(78)
        for _ in range(12):
            net = random_net(rng, rng.randint(1, 3), domain_sizes=(2, 3))
            outcomes = [
                Outcome(values)
                for values in itertools.product(*(v.domain for v in net.variables))
            ]
            adjacency = {}
            for o in outcomes:
                children = []
                from cpnet import legal_flips, apply_flip

                for f in legal_flips(net, o, "improving"):
                    children.append(apply_flip(net, o, f))
                adjacency[o] = children
            for x, y in all_pairs(net)[:40]:
                result = forward_prune(net, x, y)
                used: dict[str, set[str]] = {v.name: set() for v in net.variables}
                found_any = False
                for path in itertools.islice(_iter_sequences(adjacency, y, x), 200):
                    found_any = True
                    for node in path:
                        for v, value in zip(net.variables, node.values):
                            used[v.name].add(value)
                if not found_any:
                    continue
                assert result.feasible
                for name, values in used.items():
                    assert values <= set(result.pruned_domains[name]), (name, x, y)

    def test_infeasible_implies_engine_negative(self):
        rng = random.Random(79)
        checked = 0
        for _ in range(20):
            net = random_net(rng, rng.randint(2, 4))
            for x, y in all_pairs(net):
                if not forward_prune(net, x, y).feasible:
                    checked += 1
                    verdict = _search(net, x, y, SearchConfig())
                    assert verdict.kind == NOT_DOMINATED
        assert checked > 50

    def test_result_is_direction_independent(self):
        # One PruneResult serves both search directions: the sweep only looks
        # at the query's endpoints, so improving/worsening searches that both
        # exist agree with its verdict.
        rng = random.Random(80)
        for _ in range(10):
            net = random_net(rng, rng.randint(2, 3))
            for x, y in all_pairs(net)[:20]:
                result = forward_prune(net, x, y)
                improving = _search(net, x, y, SearchConfig(direction="improving"))
                worsening = _search(net, x, y, SearchConfig(direction="worsening"))
                assert improving.kind == worsening.kind
                if not result.feasible:
                    assert improving.kind == NOT_DOMINATED
