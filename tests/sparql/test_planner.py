"""Unit tests for the cost-based BGP/closure planner.

Covers the join-order search (DP optimality vs. greedy, tie-breaking
toward the written order), the per-graph plan memo (hits, version
invalidation, explicit invalidation), index selection, and the
closure-direction planner's seed-safety contract: every node whose
closure is non-empty must appear in the planned seed set.
"""

import pytest

from repro.rdf import Graph, Literal, Namespace
from repro.sparql import ast, evaluator, planner
from repro.sparql.parser import parse_query

EX = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"


def patterns_of(body):
    """The TriplePattern list of a simple one-group WHERE clause."""
    parsed = parse_query(PREFIX + f"SELECT * WHERE {{ {body} }}")
    return [
        el for el in parsed.where.elements if isinstance(el, ast.TriplePattern)
    ]


def compiled_of(body, graph):
    return evaluator._compile_bgp(patterns_of(body), graph)


def skewed_graph() -> Graph:
    """p:rare has 2 triples, p:common has 60: order should flip them."""
    g = Graph()
    g.add((EX.a0, P.rare, EX.b0))
    g.add((EX.a1, P.rare, EX.b1))
    for i in range(60):
        g.add((EX[f"a{i}"], P.common, EX[f"c{i % 7}"]))
    return g


class TestOrderSearch:
    def test_single_pattern_is_trivially_planned(self):
        g = skewed_graph()
        compiled = compiled_of("?s p:rare ?o", g)
        plan = planner.order_bgp(compiled, g, frozenset())
        assert plan.method == "single"
        assert plan.order == (0,)
        assert plan.estimates == (2.0,)
        assert plan.indexes == ("POS",)

    def test_selective_pattern_goes_first(self):
        g = skewed_graph()
        compiled = compiled_of("?s p:common ?c . ?s p:rare ?o", g)
        plan = planner.order_bgp(compiled, g, frozenset())
        assert plan.order[0] == 1  # p:rare (2 rows) before p:common (60)

    def test_dp_never_costs_more_than_greedy(self):
        g = skewed_graph()
        bodies = [
            "?s p:common ?c . ?s p:rare ?o",
            "?s p:common ?c . ?c p:rare ?o . ?o p:common ?d",
            "?a p:rare ?b . ?b p:common ?c . ?c p:common ?d . ?d p:rare ?e",
        ]
        for body in bodies:
            compiled = compiled_of(body, g)
            dp = planner.order_bgp(compiled, g, frozenset(), force="dp")
            greedy = planner.order_bgp(compiled, g, frozenset(), force="greedy")
            assert dp.method == "dp" and greedy.method == "greedy"
            assert dp.cost <= greedy.cost
            assert sorted(dp.order) == sorted(greedy.order)

    def test_dp_and_greedy_agree_on_chain(self):
        g = skewed_graph()
        compiled = compiled_of("?s p:common ?c . ?s p:rare ?o", g)
        dp = planner.order_bgp(compiled, g, frozenset(), force="dp")
        greedy = planner.order_bgp(compiled, g, frozenset(), force="greedy")
        assert dp.order == greedy.order == (1, 0)

    def test_tie_prefers_written_order(self):
        g = Graph()
        for i in range(5):  # two predicates with identical statistics
            g.add((EX[f"a{i}"], P.e0, EX[f"b{i}"]))
            g.add((EX[f"a{i}"], P.e1, EX[f"c{i}"]))
        compiled = compiled_of("?s p:e0 ?x . ?s p:e1 ?y", g)
        for force in ("dp", "greedy"):
            plan = planner.order_bgp(compiled, g, frozenset(), force=force)
            assert plan.order == (0, 1)

    def test_bound_variables_shrink_estimates(self):
        g = skewed_graph()
        compiled = compiled_of("?s p:common ?c", g)
        free = planner.order_bgp(compiled, g, frozenset())
        s_var = compiled[0][0][1]
        bound = planner.order_bgp(compiled, g, frozenset([s_var]))
        assert bound.estimates[0] < free.estimates[0]
        assert bound.indexes == ("SPO",)

    def test_large_bgp_falls_back_to_greedy(self):
        g = skewed_graph()
        body = " . ".join(
            f"?v{i} p:common ?v{i + 1}" for i in range(planner.DP_MAX_PATTERNS + 1)
        )
        compiled = compiled_of(body, g)
        plan = planner.order_bgp(compiled, g, frozenset())
        assert plan.method == "greedy"
        assert sorted(plan.order) == list(range(len(compiled)))

    def test_unmatchable_pattern_estimates_zero(self):
        g = skewed_graph()
        compiled = compiled_of("?s p:missing ?o . ?s p:rare ?x", g)
        plan = planner.order_bgp(compiled, g, frozenset())
        # The absent-predicate pattern is free (0 rows) and goes first.
        assert plan.order[0] == 0
        assert plan.estimates[0] == 0.0


class TestPlanMemo:
    def test_repeat_call_returns_same_plan_object(self):
        g = skewed_graph()
        patterns = patterns_of("?s p:common ?c . ?s p:rare ?o")
        compiled = evaluator._compile_bgp(patterns, g)
        first = planner.plan_bgp(patterns, compiled, g, frozenset())
        second = planner.plan_bgp(patterns, compiled, g, frozenset())
        assert second is first

    def test_mutation_invalidates_memo(self):
        g = skewed_graph()
        patterns = patterns_of("?s p:common ?c . ?s p:rare ?o")
        compiled = evaluator._compile_bgp(patterns, g)
        first = planner.plan_bgp(patterns, compiled, g, frozenset())
        g.add((EX.zz, P.rare, EX.zz2))  # version bump
        compiled = evaluator._compile_bgp(patterns, g)
        second = planner.plan_bgp(patterns, compiled, g, frozenset())
        assert second is not first

    def test_invalidate_drops_attached_state(self):
        g = skewed_graph()
        patterns = patterns_of("?s p:rare ?o . ?s p:common ?c")
        compiled = evaluator._compile_bgp(patterns, g)
        planner.plan_bgp(patterns, compiled, g, frozenset())
        assert hasattr(g, planner._PLAN_ATTR)
        planner.invalidate(g)
        assert not hasattr(g, planner._PLAN_ATTR)

    def test_distinct_bound_sets_get_distinct_plans(self):
        g = skewed_graph()
        patterns = patterns_of("?s p:common ?c . ?s p:rare ?o")
        compiled = evaluator._compile_bgp(patterns, g)
        s_var = compiled[0][0][1]
        free = planner.plan_bgp(patterns, compiled, g, frozenset())
        bound = planner.plan_bgp(patterns, compiled, g, frozenset([s_var]))
        assert free is not bound


def closure_graph() -> Graph:
    """A fan-in: many e0 subjects, a single shared e0 object."""
    g = Graph()
    for i in range(8):
        g.add((EX[f"s{i}"], P.e0, EX.hub))
    g.add((EX.hub, P.val, Literal("x")))  # extra nodes outside the path
    return g


class TestClosurePlanning:
    def test_forward_seeds_are_exact_link_subjects(self):
        g = closure_graph()
        inner = ast.PathLink(P.e0)
        fwd = planner._endpoint_ids(inner, g, True)
        assert fwd == {g.term_id(EX[f"s{i}"]) for i in range(8)}
        rev = planner._endpoint_ids(inner, g, False)
        assert rev == {g.term_id(EX.hub)}

    def test_direction_picks_smaller_candidate_set(self):
        g = closure_graph()
        plan = planner.plan_closure(ast.PathLink(P.e0), g)
        assert plan.direction == "reverse"
        assert plan.seeds == (g.term_id(EX.hub),)
        assert plan.forward_count == 8 and plan.reverse_count == 1

    def test_tie_keeps_forward(self):
        g = Graph()
        g.add((EX.a, P.e0, EX.b))  # 1 subject, 1 object: a tie
        plan = planner.plan_closure(ast.PathLink(P.e0), g)
        assert plan.direction == "forward"

    def test_zero_capable_inner_path_forces_full_scan(self):
        g = closure_graph()
        inner = ast.PathMod(ast.PathLink(P.e0), "?")
        plan = planner.plan_closure(inner, g)
        assert plan.direction == "forward"
        assert plan.seeds is None

    def test_inverse_swaps_endpoint_sets(self):
        g = closure_graph()
        inner = ast.PathInverse(ast.PathLink(P.e0))
        fwd = planner._endpoint_ids(inner, g, True)
        assert fwd == {g.term_id(EX.hub)}

    def test_alternative_unions_endpoint_sets(self):
        g = closure_graph()
        g.add((EX.other, P.e1, EX.elsewhere))
        inner = ast.PathAlternative((ast.PathLink(P.e0), ast.PathLink(P.e1)))
        fwd = planner._endpoint_ids(inner, g, True)
        expected = {g.term_id(EX[f"s{i}"]) for i in range(8)}
        expected.add(g.term_id(EX.other))
        assert fwd == expected

    def test_seed_safety_superset_property(self):
        """Every node with a non-empty closure appears in the seed set."""
        g = Graph()
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (5, 5)]
        for s, o in edges:
            g.add((EX[f"n{s}"], P.e0, EX[f"n{o}"]))
        g.add((EX.isolated, P.val, Literal("v")))
        inner = ast.PathLink(P.e0)
        for forward in (True, False):
            seeds = planner._endpoint_ids(inner, g, forward)
            for node in g.node_ids():
                reach = list(
                    evaluator._closure_ids(inner, g, node, forward=forward)
                )
                if reach:
                    assert node in seeds, (g.id_term(node), forward)

    def test_closure_plan_is_memoized(self):
        g = closure_graph()
        inner = ast.PathLink(P.e0)
        assert planner.plan_closure(inner, g) is planner.plan_closure(inner, g)
        g.add((EX.more, P.e0, EX.hub))
        refreshed = planner.plan_closure(inner, g)
        assert refreshed.forward_count == 9
