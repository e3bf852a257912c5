"""The ID-space join core vs the definition-level reference evaluator.

The dictionary-encoded join must give the reference's solutions —
compared as row multisets — including the awkward boundaries: ground
query terms the graph has never seen (unmatchable), initial bindings
carrying foreign terms (dead variables), numeric-literal
canonicalization inside joins, property-path fixpoints, and
closure-cache invalidation on graph mutation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal, Namespace
from repro.rdf.term import Variable
from repro.sparql import prepare_query, query
from repro.sparql.evaluator import eval_group

from tests.sparql import reference_evaluator as reference

EX = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"


def _rows(graph, body):
    rs = query(graph, PREFIX + body)
    return [
        tuple((v, rs[i].text(v)) for v in rs.variables) for i in range(len(rs))
    ]


def _engine_and_reference(graph, body):
    """Engine rows and reference rows, each sorted (row multisets)."""
    return (
        sorted(_rows(graph, body), key=repr),
        sorted(reference.text_rows(graph, PREFIX + body), key=repr),
    )


def _canonical(solutions):
    return sorted(
        sorted((var.name, term.n3()) for var, term in solution.items())
        for solution in solutions
    )


@pytest.fixture
def graph():
    g = Graph()
    g.add((EX.a, P.e, EX.b))
    g.add((EX.b, P.e, EX.c))
    g.add((EX.c, P.e, EX.d))
    g.add((EX.a, P.val, Literal("100")))
    g.add((EX.b, P.val, Literal("1e2")))  # equal to a's value, other spelling
    g.add((EX.c, P.val, Literal("7")))
    g.add((EX.a, P.name, Literal("alpha")))
    return g


class TestSameResultsSameOrder:
    QUERIES = [
        "SELECT ?x ?y WHERE { ?x p:e ?y }",
        "SELECT ?x ?v WHERE { ?x p:e ?y . ?x p:val ?v }",
        "SELECT ?x ?z WHERE { ?x p:e ?y . ?y p:e ?z . ?x p:val ?v . "
        "FILTER (?v > 50) }",
        "SELECT ?x ?y WHERE { ?x p:e+ ?y }",
        "SELECT ?x ?y WHERE { ?x p:e* ?y . ?x p:val ?v }",
        "SELECT ?x ?n WHERE { ?x p:e ?y . OPTIONAL { ?x p:name ?n } }",
        "SELECT ?x WHERE { { ?x p:e n:b } UNION { ?x p:e n:d } }",
    ]

    @pytest.mark.parametrize("body", QUERIES)
    def test_identical_rows_and_order(self, graph, body):
        engine_rows, reference_rows = _engine_and_reference(graph, body)
        assert engine_rows == reference_rows


class TestUnmatchableGroundTerms:
    def test_absent_uri_matches_nothing(self, graph):
        id_rows, ref_rows = _engine_and_reference(
            graph, "SELECT ?x WHERE { ?x p:e n:never_seen }"
        )
        assert id_rows == ref_rows == []

    def test_absent_predicate_matches_nothing(self, graph):
        id_rows, ref_rows = _engine_and_reference(
            graph, "SELECT ?x ?y WHERE { ?x p:never ?y }"
        )
        assert id_rows == ref_rows == []

    def test_absent_term_in_multi_pattern_bgp(self, graph):
        # The unmatchable pattern must kill the whole BGP without
        # disturbing join reordering for the others.
        id_rows, ref_rows = _engine_and_reference(
            graph,
            "SELECT ?x ?y WHERE { ?x p:e ?y . ?y p:val n:not_a_value }",
        )
        assert id_rows == ref_rows == []

    def test_numeric_spelling_finds_canonical_value(self, graph):
        # "100.0" is absent as a spelling but equal to the stored "100".
        id_rows, ref_rows = _engine_and_reference(
            graph, 'SELECT ?x WHERE { ?x p:val "100.0" }'
        )
        assert id_rows == ref_rows
        assert {dict(r)["x"] for r in id_rows} == {str(EX.a), str(EX.b)}


class TestDeadVariableBindings:
    """Initial bindings carrying terms the graph never encoded."""

    def _solutions(self, graph, body, bindings):
        """Engine and reference solutions of the WHERE group under the
        initial *bindings*."""
        parsed = prepare_query(PREFIX + body)
        return (
            list(eval_group(parsed.where, graph, bindings)),
            reference.eval_group(parsed.where, graph, bindings),
        )

    def test_foreign_binding_blocks_patterns_using_it(self, graph):
        body = "SELECT ?x ?y WHERE { ?x p:e ?y }"
        foreign = {Variable("x"): EX.not_in_graph}
        id_sols, ref_sols = self._solutions(graph, body, foreign)
        assert id_sols == ref_sols == []

    def test_foreign_binding_passes_through_untouched_patterns(self, graph):
        body = "SELECT ?x ?y WHERE { ?x p:e ?y }"
        foreign = {Variable("unrelated"): EX.not_in_graph}
        id_sols, ref_sols = self._solutions(graph, body, foreign)
        assert _canonical(id_sols) == _canonical(ref_sols)
        assert all(
            sol[Variable("unrelated")] == EX.not_in_graph for sol in id_sols
        )
        assert len(id_sols) == 3


class TestClosureCacheInvalidation:
    def test_mutation_invalidates_path_closure(self, graph):
        body = "SELECT ?y WHERE { n:a p:e+ ?y }"
        before = _rows(graph, body)
        assert len(before) == 3
        graph.add((EX.d, P.e, EX.e))
        after = _rows(graph, body)
        assert len(after) == 4

    def test_removal_invalidates_path_closure(self, graph):
        body = "SELECT ?y WHERE { n:a p:e+ ?y }"
        assert len(_rows(graph, body)) == 3
        graph.remove((EX.b, P.e, EX.c))
        assert len(_rows(graph, body)) == 1


_edges = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1), st.integers(0, 5)),
    max_size=14,
)

_PROPERTY_QUERIES = [
    "SELECT ?a ?c WHERE { ?a p:e0 ?b . ?b p:e1 ?c }",
    "SELECT ?a ?d WHERE { ?a p:e0+ ?d }",
    "SELECT ?a ?d WHERE { ?a (p:e0|p:e1)* ?d . ?d p:val ?v }",
    "SELECT ?a ?x WHERE { ?a p:val ?v . "
    "OPTIONAL { { ?a p:e0 ?x } UNION { ?a p:e1 ?x } } FILTER (?v >= 0) }",
]


def _random_graph(edges) -> Graph:
    g = Graph()
    nodes = set()
    for s, p, o in edges:
        g.add((EX[f"n{s}"], P[f"e{p}"], EX[f"n{o}"]))
        nodes.update((s, o))
    for node in nodes:
        g.add((EX[f"n{node}"], P.val, Literal(str(node))))
    return g


@settings(max_examples=25, deadline=None)
@given(edges=_edges, query_index=st.integers(0, len(_PROPERTY_QUERIES) - 1))
def test_id_space_join_never_changes_results(edges, query_index):
    g = _random_graph(edges)
    engine_rows, reference_rows = _engine_and_reference(
        g, _PROPERTY_QUERIES[query_index]
    )
    assert engine_rows == reference_rows
