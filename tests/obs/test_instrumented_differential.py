"""Instrumentation on vs off must be bit-identical on results.

Property-based differential suite: the same queries run bare and with a
probe installed (and, at the engine level, with an enabled tracer) and
every row, ordering and match signature must be unchanged.  The probe
and tracer are pure observers — if any hook ever filtered, reordered or
duplicated a solution this suite is the tripwire.

Reuses the random-graph strategy of
``tests/sparql/test_evaluator_idspace.py`` so the differential runs over
the same adversarial shapes (unmatchable ground terms, path fixpoints,
OPTIONAL/UNION under filters) that the ID-space join is tested with.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import MatchingEngine
from repro.core.transform import transform_plan
from repro.kb.builtin import make_pattern
from repro.obs.instrument import EvalProbe, probing
from repro.obs.profiler import CollectingProbe, explain
from repro.obs.tracing import Tracer
from repro.sparql import planner

from tests.conftest import build_figure1_plan
from tests.sparql import reference_evaluator as reference
from tests.sparql.test_evaluator_idspace import (
    PREFIX,
    _PROPERTY_QUERIES,
    _edges,
    _random_graph,
    _rows,
)


@settings(max_examples=25, deadline=None)
@given(
    edges=_edges,
    query_index=st.integers(0, len(_PROPERTY_QUERIES) - 1),
    planned=st.booleans(),
)
def test_probe_never_changes_rows(edges, query_index, planned):
    """CollectingProbe installed vs absent: identical rows, same order,
    with the planner on and off — and those rows are the reference's."""
    graph = _random_graph(edges)
    body = _PROPERTY_QUERIES[query_index]
    with planner.planning(planned):
        plain = _rows(graph, body)
        with probing(CollectingProbe()):
            probed = _rows(graph, body)
        # A second run inside the *same* probe (aggregation across
        # queries) must not perturb anything either.
        with probing(CollectingProbe()):
            again = _rows(graph, body)
    assert probed == plain
    assert again == plain
    assert sorted(plain, key=repr) == sorted(
        reference.text_rows(graph, PREFIX + body), key=repr
    )


@settings(max_examples=15, deadline=None)
@given(edges=_edges, query_index=st.integers(0, len(_PROPERTY_QUERIES) - 1))
def test_base_probe_is_inert(edges, query_index):
    """The no-op EvalProbe base class is also a safe observer."""
    graph = _random_graph(edges)
    body = _PROPERTY_QUERIES[query_index]
    plain = _rows(graph, body)
    with probing(EvalProbe()):
        probed = _rows(graph, body)
    assert probed == plain


def _signatures(matches):
    return [
        (m.plan_id, sorted(o.signature() for o in m.occurrences))
        for m in matches
    ]


@pytest.fixture(scope="module")
def workload(small_workload):
    # small_workload is the session fixture from tests/conftest.py.
    return [transform_plan(plan) for plan in small_workload]


class TestTracedEngineDifferential:
    @pytest.mark.parametrize("letter", list("ABCD"))
    def test_traced_matches_untraced(self, workload, letter):
        pattern = make_pattern(letter)
        plain_engine = MatchingEngine(workers=1, cache=False)
        traced_engine = MatchingEngine(
            workers=1, cache=False, tracer=Tracer(enabled=True)
        )
        try:
            plain = plain_engine.search(pattern, workload)
            traced = traced_engine.search(pattern, workload)
        finally:
            plain_engine.close()
            traced_engine.close()
        assert _signatures(traced) == _signatures(plain)
        assert traced_engine.tracer.spans(), "tracer recorded nothing"

    @pytest.mark.parametrize("workers", [1, 4])
    def test_traced_parallel_matches_serial(self, workload, workers):
        pattern = make_pattern("A")
        serial = MatchingEngine(workers=1, cache=False)
        parallel = MatchingEngine(
            workers=workers, cache=False, tracer=Tracer(enabled=True)
        )
        try:
            expected = serial.search(pattern, workload)
            got = parallel.search(pattern, workload)
        finally:
            serial.close()
            parallel.close()
        assert _signatures(got) == _signatures(expected)


class TestExplainDifferential:
    def test_explain_reports_search_results_unchanged(self):
        transformed = transform_plan(build_figure1_plan())
        pattern = make_pattern("A")
        engine = MatchingEngine(workers=1, cache=False)
        try:
            before = engine.search(pattern, [transformed])
            report = explain(pattern, transformed)
            after = engine.search(pattern, [transformed])
        finally:
            engine.close()
        assert _signatures(after) == _signatures(before)
        assert report.occurrences == sum(
            len(m.occurrences) for m in before
        )
