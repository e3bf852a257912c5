"""The cost-based planner must be invisible in results.

Differential suite over a hypothesis-generated graph corpus: planned
and unplanned evaluation (:func:`repro.sparql.planner.planning`) both
equal the definition-level reference evaluator — as row multisets
always, and as exact row sequences for ORDER BY queries (where the
order is part of the answer).
"""

from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal, Namespace
from repro.sparql import planner, query

from tests.sparql import reference_evaluator as reference

EX = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"

_QUERIES = [
    # multi-pattern BGP where planned order will differ from written
    "SELECT ?a ?c WHERE { ?a p:e0 ?b . ?b p:e1 ?c . ?a p:val ?v }",
    # both-free closure (exercises the direction/seeding planner)
    "SELECT ?a ?d WHERE { ?a p:e0+ ?d }",
    # closure joined against a BGP
    "SELECT ?a ?d WHERE { ?a p:e0+ ?d . ?d p:val ?v }",
    # both-bound closure membership (the contains fast path)
    "SELECT ?a ?b WHERE { ?a p:e1 ?b . ?a p:e0+ ?b }",
    # optional + union around a planned BGP
    "SELECT ?a ?x WHERE { ?a p:val ?v . "
    "OPTIONAL { { ?a p:e0 ?x } UNION { ?a p:e1 ?x } } }",
    # zero-capable closure (planner must fall back to the full scan)
    "SELECT ?a ?d WHERE { ?a p:e0* ?d . ?d p:val ?v }",
]

_ORDERED_QUERIES = [
    "SELECT ?a ?c WHERE { ?a p:e0 ?b . ?b p:e1 ?c . ?a p:val ?v } "
    "ORDER BY ?a ?c",
    "SELECT ?a ?d WHERE { ?a p:e0+ ?d } ORDER BY ?d ?a",
]

_edges = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1), st.integers(0, 5)),
    max_size=14,
)


def _graph(edges) -> Graph:
    g = Graph()
    seen = set()
    for s, p, o in edges:
        g.add((EX[f"n{s}"], P[f"e{p}"], EX[f"n{o}"]))
        seen.update((s, o))
    for node in seen:
        g.add((EX[f"n{node}"], P.val, Literal(str(node))))
    return g


def _ordered_rows(graph, body, planned=True):
    with planner.planning(planned):
        rs = query(graph, PREFIX + body)
    return [
        tuple((v, rs[i].text(v)) for v in rs.variables) for i in range(len(rs))
    ]


def _rows(graph, body, planned=True):
    return sorted(_ordered_rows(graph, body, planned), key=repr)


def _reference_rows(graph, body):
    return sorted(reference.text_rows(graph, PREFIX + body), key=repr)


@settings(max_examples=25, deadline=None)
@given(edges=_edges, query_index=st.integers(0, len(_QUERIES) - 1))
def test_planner_never_changes_result_sets(edges, query_index):
    g = _graph(edges)
    body = _QUERIES[query_index]
    planned = _rows(g, body, planned=True)
    unplanned = _rows(g, body, planned=False)
    assert planned == unplanned == _reference_rows(g, body)


@settings(max_examples=25, deadline=None)
@given(edges=_edges, query_index=st.integers(0, len(_ORDERED_QUERIES) - 1))
def test_planner_preserves_ordered_results_bit_identically(edges, query_index):
    g = _graph(edges)
    body = _ORDERED_QUERIES[query_index]
    planned = _ordered_rows(g, body, planned=True)
    unplanned = _ordered_rows(g, body, planned=False)
    assert planned == unplanned == reference.text_rows(g, PREFIX + body)


@settings(max_examples=15, deadline=None)
@given(edges=_edges)
def test_unplanned_matches_reference_on_every_query(edges):
    """Planning off must give the reference's rows for every corpus
    query on one graph, and so must planning on (order is checked via
    ORDER BY above)."""
    g = _graph(edges)
    for body in _QUERIES:
        expected = _reference_rows(g, body)
        assert _rows(g, body, planned=False) == expected
        assert _rows(g, body, planned=True) == expected
