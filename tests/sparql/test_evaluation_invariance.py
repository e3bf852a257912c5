"""Optimizations must be invisible: join planning and closure caching
may change cost, never results — checked against the definition-level
reference evaluator."""

from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal, Namespace
from repro.sparql import planner, query

from tests.sparql import reference_evaluator as reference

EX = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"

_QUERIES = [
    # multi-pattern BGP with a filter
    "SELECT ?a ?c WHERE { ?a p:e0 ?b . ?b p:e1 ?c . ?a p:val ?v . "
    "FILTER (?v > 2) }",
    # property path + type-ish constraint
    "SELECT ?a ?d WHERE { ?a p:e0+ ?d . ?d p:val ?v }",
    # optional + union
    "SELECT ?a ?x WHERE { ?a p:val ?v . "
    "OPTIONAL { { ?a p:e0 ?x } UNION { ?a p:e1 ?x } } }",
    # descendant-style two-path query (the Pattern B shape)
    "SELECT ?a ?l ?r WHERE { ?a p:e0/p:e0* ?l . ?a p:e1/p:e1* ?r . "
    "?l p:val ?lv . ?r p:val ?rv . FILTER (?lv != ?rv) }",
]

_edges = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1), st.integers(0, 5)),
    max_size=14,
)


def _graph(edges) -> Graph:
    g = Graph()
    seen_nodes = set()
    for s, p, o in edges:
        g.add((EX[f"n{s}"], P[f"e{p}"], EX[f"n{o}"]))
        seen_nodes.update((s, o))
    for node in seen_nodes:
        g.add((EX[f"n{node}"], P.val, Literal(str(node))))
    return g


def _rows(graph, body):
    rs = query(graph, PREFIX + body)
    return sorted(
        (
            tuple((v, rs[i].text(v)) for v in rs.variables)
            for i in range(len(rs))
        ),
        key=repr,
    )


def _reference_rows(graph, body):
    return sorted(reference.text_rows(graph, PREFIX + body), key=repr)


@settings(max_examples=25, deadline=None)
@given(edges=_edges, query_index=st.integers(0, len(_QUERIES) - 1))
def test_reordering_never_changes_results(edges, query_index):
    g = _graph(edges)
    body = _QUERIES[query_index]
    optimized = _rows(g, body)
    with planner.planning(False):
        naive = _rows(g, body)
    assert optimized == naive == _reference_rows(g, body)


@settings(max_examples=25, deadline=None)
@given(edges=_edges, query_index=st.integers(0, len(_QUERIES) - 1))
def test_closure_cache_never_changes_results(edges, query_index):
    """A run served from the closure memo equals the cold run that
    filled it."""
    g = _graph(edges)
    body = _QUERIES[query_index]
    cold = _rows(g, body)
    warm = _rows(g, body)
    assert cold == warm == _reference_rows(g, body)
