"""Ablations on the SPARQL engine design choices (DESIGN.md §4).

* **Join planning** — cost-based BGP join order vs. written pattern
  order (:func:`repro.sparql.planner.planning` off).  The recursive
  Pattern #2 depends on routing evaluation through the bound end of
  property paths.
* **Triple-store indexes** — SPO/POS/OSP index lookups vs. full scans
  for every triple pattern.
"""

import time

import pytest

from repro.core.matcher import search_plan
from repro.core.transform import transform_plan
from repro.experiments.workloads import controlled_config
from repro.rdf.graph import Graph
from repro.sparql import planner
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def pattern_b_plan():
    generator = WorkloadGenerator(seed=88, config=controlled_config())
    plan = generator.generate_plan_in_range("ablate", 180, 260, plant=["B"])
    return transform_plan(plan)


def _baseline_count(pattern_b_plan, queries):
    return search_plan(queries["#2"], pattern_b_plan).count


class TestJoinReordering:
    def test_with_reordering(self, benchmark, pattern_b_plan, queries):
        expected = _baseline_count(pattern_b_plan, queries)
        count = benchmark(
            lambda: search_plan(queries["#2"], pattern_b_plan).count
        )
        assert count == expected

    def test_without_reordering(self, benchmark, pattern_b_plan, queries):
        expected = _baseline_count(pattern_b_plan, queries)

        def written_order():
            with planner.planning(False):
                return search_plan(queries["#2"], pattern_b_plan).count

        count = benchmark(written_order)
        assert count == expected  # ordering changes cost, never results


class _ScanOnlyGraph(Graph):
    """A graph whose pattern lookups degrade to full scans.

    Models what BGP matching costs without the SPO/POS/OSP permutation
    indexes (the DB2 RDF Store's "optimized for graph pattern matching"
    property the paper leans on).  The evaluator and planner only use
    the ID-level API, so that is what is overridden; ``scans`` counts
    the lookups that reached the override.
    """

    scans = 0

    def triples_ids(self, subject=None, predicate=None, obj=None):
        type(self).scans += 1
        for s, p, o in super().triples_ids():
            if subject is not None and s != subject:
                continue
            if predicate is not None and p != predicate:
                continue
            if obj is not None and o != obj:
                continue
            yield (s, p, o)

    def estimate_ids(self, subject=None, predicate=None, obj=None):
        return len(self)  # no statistics without indexes


@pytest.fixture(scope="module")
def scan_only_plan(pattern_b_plan):
    degraded = _ScanOnlyGraph(pattern_b_plan.graph.identifier)
    for triple in Graph.triples(pattern_b_plan.graph):
        degraded.add(triple)
    clone = type(pattern_b_plan)(
        plan=pattern_b_plan.plan,
        graph=degraded,
        pop_resources=pattern_b_plan.pop_resources,
        object_resources=pattern_b_plan.object_resources,
        resource_to_node=pattern_b_plan.resource_to_node,
    )
    return clone


def _best_of(runs, fn):
    best = None
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


class TestIndexes:
    def test_indexed_lookup(self, benchmark, pattern_b_plan, queries):
        benchmark(lambda: search_plan(queries["#1"], pattern_b_plan).count)

    def test_scan_only_lookup(self, benchmark, scan_only_plan,
                              pattern_b_plan, queries):
        expected = search_plan(queries["#1"], pattern_b_plan).count
        _ScanOnlyGraph.scans = 0
        count = benchmark(
            lambda: search_plan(queries["#1"], scan_only_plan).count
        )
        assert count == expected
        assert _ScanOnlyGraph.scans > 0, "scan-only arm never scanned"

    def test_scan_only_is_slower(self, scan_only_plan, pattern_b_plan,
                                 queries):
        indexed = _best_of(
            3, lambda: search_plan(queries["#1"], pattern_b_plan)
        )
        scanned = _best_of(
            3, lambda: search_plan(queries["#1"], scan_only_plan)
        )
        assert scanned > indexed, (
            f"scan-only {scanned * 1e3:.2f} ms vs indexed "
            f"{indexed * 1e3:.2f} ms"
        )
