"""Hand-computed answers for the reference evaluator itself.

The differential suites trust ``reference_evaluator`` as an oracle, so
it must not be validated only by agreeing with the engine.  Every
expected answer below was worked out by hand on this 4-node graph::

    a --e--> b --e--> c --e--> d        a --f--> c
"""

import pytest

from repro.rdf import Graph, Namespace

from tests.sparql import reference_evaluator as reference

EX = Namespace("http://n/")
P = Namespace("http://p/")
PREFIX = "PREFIX n: <http://n/> PREFIX p: <http://p/>\n"


@pytest.fixture
def graph():
    g = Graph()
    g.add((EX.a, P.e, EX.b))
    g.add((EX.b, P.e, EX.c))
    g.add((EX.c, P.e, EX.d))
    g.add((EX.a, P.f, EX.c))
    return g


def _answer(graph, body):
    """The reference's rows as a sorted list of local-name tuples."""
    _, rows = reference.select(graph, PREFIX + body)
    return sorted(
        tuple(None if t is None else t.value.rsplit("/", 1)[-1] for t in row)
        for row in rows
    )


@pytest.mark.parametrize(
    "path, expected",
    [
        ("p:e/p:e", [("a", "c"), ("b", "d")]),
        ("p:e|p:f", [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]),
        ("^p:e", [("b", "a"), ("c", "b"), ("d", "c")]),
        (
            "p:e+",
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "d")],
        ),
        (
            "p:e*",
            [("a", "a"), ("a", "b"), ("a", "c"), ("a", "d"), ("b", "b"),
             ("b", "c"), ("b", "d"), ("c", "c"), ("c", "d"), ("d", "d")],
        ),
        (
            "p:e?",
            [("a", "a"), ("a", "b"), ("b", "b"), ("b", "c"), ("c", "c"),
             ("c", "d"), ("d", "d")],
        ),
    ],
)
def test_path_operators_both_ends_free(graph, path, expected):
    assert _answer(graph, f"SELECT ?x ?y WHERE {{ ?x {path} ?y }}") == expected


def test_closure_from_a_bound_subject(graph):
    assert _answer(graph, "SELECT ?y WHERE { n:a p:e+ ?y }") == [
        ("b",), ("c",), ("d",)
    ]
    assert _answer(graph, "SELECT ?y WHERE { n:d p:e* ?y }") == [("d",)]


def test_sequence_of_inverse_and_closure(graph):
    # n:c's predecessors by e, then everything reachable by f from them.
    assert _answer(graph, "SELECT ?y WHERE { n:c ^p:e/p:f ?y }") == []
    assert _answer(graph, "SELECT ?y WHERE { n:b ^p:e/p:f ?y }") == [("c",)]


def test_optional_keeps_unextended_solutions(graph):
    body = "SELECT ?x ?z WHERE { ?x p:e ?y . OPTIONAL { ?x p:f ?z } }"
    assert _answer(graph, body) == [("a", "c"), ("b", None), ("c", None)]


def test_optional_filter_is_the_left_join_condition(graph):
    # The filter reads ?y from the left side: only a's solution (y = b)
    # may take the optional extension.
    body = (
        "SELECT ?x ?y ?z WHERE { ?x p:e ?y . "
        "OPTIONAL { ?y p:e ?z FILTER (?y = n:b) } }"
    )
    assert _answer(graph, body) == [
        ("a", "b", "c"), ("b", "c", None), ("c", "d", None)
    ]


def test_union_of_branches(graph):
    body = "SELECT ?x WHERE { { ?x p:e n:c } UNION { ?x p:f n:c } }"
    assert _answer(graph, body) == [("a",), ("b",)]


def test_union_keeps_duplicates(graph):
    body = "SELECT ?x WHERE { { ?x p:e ?y } UNION { ?x p:f ?y } }"
    assert _answer(graph, body) == [("a",), ("a",), ("b",), ("c",)]


def test_order_by_descending(graph):
    _, rows = reference.select(
        graph, PREFIX + "SELECT ?x WHERE { ?x p:e ?y } ORDER BY DESC(?x)"
    )
    assert [row[0] for row in rows] == [EX.c, EX.b, EX.a]
