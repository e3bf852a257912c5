"""Transform-engine throughput (the preprocessing cost behind Figure 9).

Algorithm 1 runs once per explain file before any searching; these
benchmarks time parsing explain text and transforming plans to RDF for a
typical (~100-op) and a large (~500-op) plan, plus end-to-end file →
matches latency.
"""

import pytest

from repro.core import transform_plan
from repro.core.matcher import search_plan
from repro.experiments.workloads import controlled_config
from repro.qep import parse_plan, write_plan
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def plans():
    generator = WorkloadGenerator(seed=66, config=controlled_config())
    return {
        "typical": generator.generate_plan_in_range("typ", 90, 140, plant=["A"]),
        "large": generator.generate_plan_in_range("big", 480, 560, plant=["A"]),
    }


@pytest.fixture(scope="module")
def texts(plans):
    return {name: write_plan(plan) for name, plan in plans.items()}


@pytest.mark.parametrize("size", ["typical", "large"])
def test_parse_explain(benchmark, texts, size):
    plan = benchmark(parse_plan, texts[size])
    assert plan.op_count > 0


@pytest.mark.parametrize("size", ["typical", "large"])
def test_transform_to_rdf(benchmark, plans, size):
    transformed = benchmark(transform_plan, plans[size])
    assert len(transformed.graph) > plans[size].op_count


@pytest.mark.parametrize("size", ["typical", "large"])
def test_write_explain(benchmark, plans, size):
    text = benchmark(write_plan, plans[size])
    assert "Plan Details:" in text


def test_end_to_end_file_to_match(benchmark, texts, queries):
    """Explain text in, Pattern #1 occurrences out — the whole pipeline."""

    def pipeline():
        plan = parse_plan(texts["typical"])
        transformed = transform_plan(plan)
        return search_plan(queries["#1"], transformed).count

    count = benchmark(pipeline)
    assert count >= 1  # the planted Pattern A is found
