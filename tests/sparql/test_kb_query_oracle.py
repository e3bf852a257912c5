"""Every query shape the knowledge base generates, engine vs reference.

Runs the builtin Patterns A-D (``builtin_sparql``) and every entry of
the extended KB over the transformed ``small_workload`` plans through
the engine and through the definition-level reference evaluator, and
requires equal row multisets per plan.
"""

import pytest

from repro.core.transform import transform_plan
from repro.kb.builtin import builtin_sparql
from repro.kb.library import extended_knowledge_base
from repro.sparql import prepare_query, query

from tests.sparql import reference_evaluator as reference

_QUERIES = [(f"builtin-{letter}", builtin_sparql(letter)) for letter in "ABCD"]
_QUERIES += [(entry.name, entry.sparql) for entry in extended_knowledge_base().entries]


@pytest.fixture(scope="module")
def graphs(small_workload):
    return [transform_plan(plan).graph for plan in small_workload]


@pytest.mark.parametrize("name, sparql", _QUERIES, ids=[n for n, _ in _QUERIES])
def test_engine_equals_reference_on_every_plan(graphs, name, sparql):
    prepared = prepare_query(sparql)
    matched = 0
    for graph in graphs:
        rs = query(graph, prepared)
        engine = sorted(
            (tuple((v, rs[i].text(v)) for v in rs.variables) for i in range(len(rs))),
            key=repr,
        )
        expected = sorted(reference.text_rows(graph, prepared), key=repr)
        assert engine == expected, name
        matched += len(engine)
    if name.startswith("builtin-"):
        assert matched, f"{name} is planted in small_workload but never matched"
