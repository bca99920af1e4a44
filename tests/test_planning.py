"""STRIPS export: operators, rendering, plan replay, route equivalence."""

import itertools
import random
import re

import pytest

from cpnet import (
    DOMINATES,
    CPNetError,
    PlanReplayError,
    SearchConfig,
    dominates,
    export_planning_problem,
    oracle_closure,
    parse_cpnet,
    plan_to_flip_sequence,
    render_planning_problem,
    solve_planning_problem,
    to_strips,
    validate,
    verify_witness,
)
from helpers import all_pairs, outcome, random_net


class TestToStrips:
    def test_binary_row_yields_one_operator(self, chain2):
        ops = to_strips(chain2, "improving")
        by_name = {op.name: op for op in ops}
        op = by_name["flip-B-bbar-to-b-if-A-a"]
        assert op.preconditions == frozenset({("A", "a"), ("B", "bbar")})
        assert op.add == ("B", "b")
        assert op.delete == ("B", "bbar")

    def test_ternary_row_yields_two_operators(self, ternary_root):
        ops = [op for op in to_strips(ternary_root, "improving") if op.name.startswith("flip-A-")]
        assert {op.name for op in ops} == {"flip-A-a2-to-a1", "flip-A-a3-to-a2"}

    def test_operator_count_is_rows_times_steps(self, chain2):
        assert len(to_strips(chain2, "improving")) == 3
        assert len(to_strips(chain2, "worsening")) == 3

    def test_unknown_direction_rejected(self, chain2):
        with pytest.raises(CPNetError, match="direction must be one of"):
            to_strips(chain2, "sideways")

    def test_worsening_mirrors(self, chain2):
        ops = {op.name for op in to_strips(chain2, "worsening")}
        assert "flip-A-a-to-abar" in ops
        assert "flip-B-b-to-bbar-if-A-a" in ops

    def test_operator_bookkeeping(self, polytree8):
        for direction in ("improving", "worsening"):
            for op in to_strips(polytree8, direction):
                assert op.add != op.delete
                assert op.add[0] == op.delete[0]
                variable = polytree8.variable(op.add[0])
                bound = {name for name, _ in op.preconditions}
                assert bound == set(variable.parents) | {variable.name}


def _underscore_net(rng):
    """A random net whose variable names and values are built from ``_``."""
    words = ["a", "b", "a_b", "_a", "b_", "a__b", "_", "b_a_"]
    names = rng.sample(words, rng.randint(2, 4))
    lines, rows = [], []
    for i, name in enumerate(names):
        domain = rng.sample(words, rng.randint(2, 3))
        lines.append(f"var {name}: {', '.join(domain)}")
        parents = rng.sample(names[:i], min(i, rng.randint(0, 2)))
        if parents:
            lines.append(f"parents {name}: {', '.join(parents)}")
        rows.append((name, domain, parents))
    for name, domain, parents in rows:
        parent_domains = [next(r[1] for r in rows if r[0] == p) for p in parents]
        for cond in itertools.product(*parent_domains):
            ranking = " > ".join(rng.sample(domain, len(domain)))
            binding = ",".join(f"{p}={v}" for p, v in zip(parents, cond))
            lines.append(f"cpt {name}{' | ' + binding if binding else ''}: {ranking}")
    parsed = parse_cpnet("\n".join(lines) + "\n")
    assert parsed.ok and validate(parsed.net).ok
    return parsed.net


class TestOperatorNames:
    def test_names_decode_to_their_operator(self):
        rng = random.Random(57)
        for _ in range(60):
            net = _underscore_net(rng)
            for direction in ("improving", "worsening"):
                ops = to_strips(net, direction)
                assert len({op.name for op in ops}) == len(ops)
                for op in ops:
                    assert re.fullmatch(r"[A-Za-z][A-Za-z0-9_-]*", op.name)
                    words = op.name.split("-")
                    assert words[:5] == ["flip", op.delete[0], op.delete[1], "to", op.add[1]]
                    context = set(zip(words[6::2], words[7::2]))
                    assert words[5:6] == (["if"] if context else [])
                    assert context | {op.delete} == op.preconditions

    def test_names_that_once_collided_replay(self):
        net = parse_cpnet("var A: b_x, c\nvar A_b: x, c\ncpt A: b_x > c\ncpt A_b: x > c\n").net
        x, y = outcome(net, "A=b_x,A_b=x"), outcome(net, "A=c,A_b=c")
        problem = export_planning_problem(net, x, y, "worsening")
        assert {op.name for op in problem.operators} == {"flip-A-b_x-to-c", "flip-A_b-x-to-c"}
        seq = plan_to_flip_sequence(net, problem, solve_planning_problem(problem))
        assert verify_witness(net, x, y, seq)


class TestExport:
    def test_init_goal_and_solvability(self, chain2):
        x = outcome(chain2, "A=a,B=b")
        y = outcome(chain2, "A=abar,B=b")
        problem = export_planning_problem(chain2, x, y, "improving")
        assert problem.init == frozenset({("A", "abar"), ("B", "b")})
        assert problem.goal == frozenset({("A", "a"), ("B", "b")})
        assert len(problem.operators) == 3
        assert solve_planning_problem(problem) is not None

    def test_incomparable_pair_is_unsolvable(self, chain3):
        x = outcome(chain3, "A=a,B=bbar,C=c")
        y = outcome(chain3, "A=abar,B=bbar,C=cbar")
        problem = export_planning_problem(chain3, x, y, "improving")
        assert solve_planning_problem(problem) is None

    def test_equal_outcomes_refused_by_default(self, chain2):
        z = outcome(chain2, "A=a,B=b")
        with pytest.raises(CPNetError):
            export_planning_problem(chain2, z, z)
        problem = export_planning_problem(chain2, z, z, allow_trivial=True)
        assert problem.init == problem.goal
        assert solve_planning_problem(problem) == []

    def test_rendering_is_deterministic(self, chain3):
        x = outcome(chain3, "A=a,B=b,C=c")
        y = outcome(chain3, "A=abar,B=b,C=cbar")
        first = render_planning_problem(export_planning_problem(chain3, x, y))
        second = render_planning_problem(export_planning_problem(chain3, x, y))
        assert first == second
        assert "(define (domain" in first
        assert "(define (problem" in first
        assert "(holds A abar)" in first


class TestPlanReplay:
    def test_three_step_plan_becomes_a_witness(self, chain2):
        x = outcome(chain2, "A=a,B=b")
        y = outcome(chain2, "A=abar,B=b")
        # the long way round: drop B, raise A, raise B again
        problem = export_planning_problem(chain2, x, y, "improving")
        plan = ["flip-B-b-to-bbar-if-A-abar", "flip-A-abar-to-a", "flip-B-bbar-to-b-if-A-a"]
        seq = plan_to_flip_sequence(chain2, problem, plan)
        assert len(seq.flips) == 3
        assert verify_witness(chain2, x, y, seq)

    def test_failed_precondition_names_the_operator(self, chain2):
        x = outcome(chain2, "A=a,B=b")
        y = outcome(chain2, "A=abar,B=b")
        problem = export_planning_problem(chain2, x, y, "improving")
        with pytest.raises(PlanReplayError) as excinfo:
            plan_to_flip_sequence(chain2, problem, ["flip-B-bbar-to-b-if-A-a"])
        assert "flip-B-bbar-to-b-if-A-a" in str(excinfo.value)
        assert "A=a" in str(excinfo.value) or "B=bbar" in str(excinfo.value)

    def test_empty_plan_must_reach_goal(self, chain2):
        x = outcome(chain2, "A=a,B=b")
        y = outcome(chain2, "A=abar,B=b")
        problem = export_planning_problem(chain2, x, y, "improving")
        with pytest.raises(PlanReplayError, match="goal not reached"):
            plan_to_flip_sequence(chain2, problem, [])

    def test_unknown_operator_rejected(self, chain2):
        x = outcome(chain2, "A=a,B=b")
        y = outcome(chain2, "A=abar,B=b")
        problem = export_planning_problem(chain2, x, y, "improving")
        with pytest.raises(PlanReplayError, match="unknown operator"):
            plan_to_flip_sequence(chain2, problem, ["no_such_op"])


class TestRouteEquivalence:
    def test_plans_exist_exactly_when_dominance_holds(self):
        rng = random.Random(55)
        for _ in range(10):
            net = random_net(rng, rng.randint(1, 3), domain_sizes=(2, 3))
            closure = oracle_closure(net)
            for x, y in all_pairs(net)[:30]:
                problem = export_planning_problem(net, x, y, "improving")
                plan = solve_planning_problem(problem)
                assert (plan is not None) == (x in closure[y])
                if plan is not None:
                    seq = plan_to_flip_sequence(net, problem, plan)
                    if plan:
                        assert verify_witness(net, x, y, seq)

    def test_engine_witness_maps_to_a_plan(self):
        rng = random.Random(56)
        for _ in range(10):
            net = random_net(rng, rng.randint(2, 4))
            for x, y in all_pairs(net)[:20]:
                verdict = dominates(net, x, y, SearchConfig(direction="improving"))
                if verdict.kind != DOMINATES:
                    continue
                problem = export_planning_problem(net, x, y, "improving")
                ops_by_shape = {
                    (op.delete, op.add, op.preconditions): op.name
                    for op in problem.operators
                }
                state = dict(zip(net.names, y.values))
                plan = []
                for flip in verdict.witness.flips:
                    variable = net.variable(flip.variable)
                    context = frozenset(
                        (p, state[p]) for p in variable.parents
                    ) | {(flip.variable, flip.from_value)}
                    key = (
                        (flip.variable, flip.from_value),
                        (flip.variable, flip.to_value),
                        frozenset(context),
                    )
                    assert key in ops_by_shape, "witness flip has no operator"
                    plan.append(ops_by_shape[key])
                    state[flip.variable] = flip.to_value
                replayed = plan_to_flip_sequence(net, problem, plan)
                assert verify_witness(net, x, y, replayed)
