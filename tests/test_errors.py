"""The README's "Errors" rule on wrong Python types: a call whose argument is
not of its documented type raises ``TypeError``, never ``AttributeError``.
A few calls check such an argument as a value and raise ``CPNetError``; a
witness whose flips are not ``Flip`` objects proves nothing."""

from dataclasses import replace

import pytest

from cpnet import (
    IMPROVING,
    CatalogRow,
    CPNet,
    CPNetError,
    Flip,
    FlipSequence,
    Outcome,
    PlanningProblem,
    SearchConfig,
    all_outcomes,
    apply_flip,
    best_outcome,
    dominates,
    export_planning_problem,
    extend_suffix,
    fixed_suffix,
    forward_prune,
    legal_flips,
    oracle_closure,
    oracle_dominates,
    order_flips,
    pareto_front,
    parse_catalog,
    parse_cpnet,
    parse_outcome,
    parse_query,
    plan_to_flip_sequence,
    render_planning_problem,
    serialize_catalog,
    serialize_cpnet,
    solve_planning_problem,
    sort_catalog,
    to_strips,
    topological_order,
    validate,
    value_graph,
    verify_witness,
    worst_outcome,
)

X, Y = Outcome(("a", "b")), Outcome(("abar", "b"))  # x > y on chain2
FLIP = Flip("A", "abar", "a", IMPROVING)  # y -> x
SEQ, JUNK = FlipSequence(Y, (FLIP,)), FlipSequence(Y, ("junk",))
CFG = SearchConfig()
BAD_PROBLEM = PlanningProblem((), (5,), frozenset(), frozenset({("A", "a")}))  # 5 is no operator


def string_init(net):
    """chain2's exported x > y problem, its init written as strings."""
    return replace(export_planning_problem(net, X, Y), init=frozenset({"Aa", "Bb"}))


STEP = "flip-A-abar-to-a"  # the one step of chain2's exported x > y plan


def string_step(net, **fields):
    """chain2's exported x > y problem with ``fields`` of operator ``STEP``
    replaced, each a proposition written as a string."""
    problem = export_planning_problem(net, X, Y)
    return replace(problem, operators=tuple(
        replace(op, **fields) if op.name == STEP else op for op in problem.operators))


def string_propositions(net):
    """chain2's exported x > y problem with ``"Cc"`` among its propositions."""
    problem = export_planning_problem(net, X, Y)
    return replace(problem, propositions=(*problem.propositions, "Cc"))


PROBES = {
    # a net that is not a CPNet
    "validate": (TypeError, lambda net: validate(5)),
    "topological_order": (TypeError, lambda net: topological_order(5)),
    "best_outcome": (TypeError, lambda net: best_outcome(None)),
    "worst_outcome": (TypeError, lambda net: worst_outcome(5)),
    "serialize_cpnet": (TypeError, lambda net: serialize_cpnet(5)),
    "dominates-net": (TypeError, lambda net: dominates(5, X, Y)),
    "all_outcomes": (TypeError, lambda net: all_outcomes(5)),
    "to_strips": (TypeError, lambda net: to_strips(5, IMPROVING)),
    "legal_flips-net": (TypeError, lambda net: legal_flips(5, X, IMPROVING)),
    "oracle_closure": (TypeError, lambda net: oracle_closure(5)),
    # an outcome that is not an Outcome
    "dominates-outcome": (TypeError, lambda net: dominates(net, "x", Y)),
    "legal_flips-outcome": (TypeError, lambda net: legal_flips(net, "x", IMPROVING)),
    "apply_flip-outcome": (TypeError, lambda net: apply_flip(net, "y", FLIP)),
    "verify_witness-outcome": (TypeError, lambda net: verify_witness(net, "x", Y, SEQ)),
    "oracle_dominates": (TypeError, lambda net: oracle_dominates(net, X, "y")),
    "export_planning_problem": (TypeError, lambda net: export_planning_problem(net, X, "y")),
    "fixed_suffix": (TypeError, lambda net: fixed_suffix(net, "z", X)),
    "forward_prune": (TypeError, lambda net: forward_prune(net, X, 5)),
    # flips and candidates
    "apply_flip-flip": (TypeError, lambda net: apply_flip(net, Y, 5)),
    "order_flips-candidate": (TypeError, lambda net: order_flips(net, Y, [5], X, CFG)),
    "extend_suffix-direction": (CPNetError, lambda net: extend_suffix(net, X, Y, 5)),
    # witnesses
    "verify_witness-seq": (TypeError, lambda net: verify_witness(net, X, Y, 5)),
    "verify_witness-junk": (False, lambda net: verify_witness(net, X, Y, JUNK)),
    # text
    "parse_cpnet": (TypeError, lambda net: parse_cpnet(5)),
    "parse_outcome": (TypeError, lambda net: parse_outcome(net, 5)),
    "parse_query": (TypeError, lambda net: parse_query(net, 5)),
    "parse_catalog": (TypeError, lambda net: parse_catalog(net, 5)),
    # catalog rows
    "pareto_front": (TypeError, lambda net: pareto_front(net, [5])),
    "sort_catalog": (TypeError, lambda net: sort_catalog(net, [5])),
    "serialize_catalog": (TypeError, lambda net: serialize_catalog(net, [5])),
    # catalog row ids
    "pareto_front-id": (TypeError, lambda net: pareto_front(net, [CatalogRow(5, X)])),
    "sort_catalog-id": (TypeError, lambda net: sort_catalog(net, [CatalogRow(5, X)])),
    "serialize_catalog-id": (TypeError, lambda net: serialize_catalog(net, [CatalogRow(5, X)])),
    # configs
    "dominates-cfg": (TypeError, lambda net: dominates(net, X, Y, 5)),
    "order_flips-cfg": (TypeError, lambda net: order_flips(net, Y, [FLIP], X, 5)),
    "SearchConfig": (CPNetError, lambda net: SearchConfig(budget="3")),
    # survivors
    "value_graph-survivors": (TypeError, lambda net: value_graph(net, "B", 5)),
    "value_graph-variable": (CPNetError, lambda net: value_graph(net, 5)),
    # a string is not a survivor set, though it iterates as its characters
    "value_graph-string-survivors": (CPNetError, lambda net: value_graph(net, "B", {"A": "abar"})),
    # planning problems and plans
    "render_planning_problem": (TypeError, lambda net: render_planning_problem(5)),
    "solve_planning_problem": (TypeError, lambda net: solve_planning_problem(5)),
    "render_planning_problem-operator": (
        TypeError, lambda net: render_planning_problem(BAD_PROBLEM)),
    "solve_planning_problem-operator": (
        TypeError, lambda net: solve_planning_problem(BAD_PROBLEM)),
    "plan_to_flip_sequence-problem": (TypeError, lambda net: plan_to_flip_sequence(net, 5, [])),
    "plan_to_flip_sequence-plan": (
        TypeError, lambda net: plan_to_flip_sequence(net, export_planning_problem(net, X, Y), 5)),
    # a string in init is not a (variable, value) pair, though "Aa" unpacks as one
    "render_planning_problem-init": (
        TypeError, lambda net: render_planning_problem(string_init(net))),
    "solve_planning_problem-init": (
        TypeError, lambda net: solve_planning_problem(string_init(net))),
    "plan_to_flip_sequence-init": (
        TypeError, lambda net: plan_to_flip_sequence(net, string_init(net), [])),
    # nor is one in propositions or in an operator
    "render_planning_problem-propositions": (
        TypeError, lambda net: render_planning_problem(string_propositions(net))),
    "render_planning_problem-precondition": (
        TypeError, lambda net: render_planning_problem(
            string_step(net, preconditions=frozenset({"Aa"})))),
    "render_planning_problem-add": (
        TypeError, lambda net: render_planning_problem(string_step(net, add="Aa"))),
    "render_planning_problem-delete": (
        TypeError, lambda net: render_planning_problem(string_step(net, delete="Aa"))),
    "solve_planning_problem-precondition": (
        TypeError, lambda net: solve_planning_problem(
            string_step(net, preconditions=frozenset({"Aa"})))),
    "solve_planning_problem-add": (
        TypeError, lambda net: solve_planning_problem(string_step(net, add="Aa"))),
    "solve_planning_problem-delete": (
        TypeError, lambda net: solve_planning_problem(string_step(net, delete="Aa"))),
    "plan_to_flip_sequence-precondition": (
        TypeError, lambda net: plan_to_flip_sequence(
            net, string_step(net, preconditions=frozenset({"Aa"})), [STEP])),
    "plan_to_flip_sequence-add": (
        TypeError, lambda net: plan_to_flip_sequence(net, string_step(net, add="Aa"), [STEP])),
    # construction
    "CPNet": (CPNetError, lambda net: CPNet(5, {})),
}


@pytest.mark.parametrize("name", PROBES)
def test_a_wrong_type_raises_type_error(chain2, name):
    expected, call = PROBES[name]
    if expected is False:
        assert call(chain2) is False
    else:
        with pytest.raises(expected):
            call(chain2)
