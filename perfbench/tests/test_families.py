"""The parameterised A-D oracle against the repository's reference
checkers and against the SPARQL engine."""

import random

import pytest

import families
import inputs
from repro.core import OptImatch
from repro.core.pattern import ProblemPattern
from repro.server.common import _matches_to_json
from repro.workload.reference import REFERENCE_CHECKERS

#: Reference-checker occurrence keys for each family's key aliases.
_REFERENCE_KEYS = {
    "A": {"TOP": "TOP", "SCAN": "inner", "BASE": "BASE"},
    "B": {"TOP": "TOP", "OUTERLOJ": "outerLOJ", "INNERLOJ": "innerLOJ"},
    "C": {"SCAN": "SCAN", "BASE": "BASE"},
    "D": {"TOP": "SORT", "INPUT": "input"},
}


@pytest.fixture(scope="module")
def seed_2016_plans():
    return {plan.plan_id: plan for plan, _ in inputs.stratified_inputs(2016, 100)}


@pytest.mark.parametrize("letter", "ABCD")
def test_builtin_parameters_agree_with_reference(seed_2016_plans, letter):
    query = families.BUILTIN[letter]
    names = _REFERENCE_KEYS[letter]
    reference = {}
    for plan_id, plan in seed_2016_plans.items():
        keys = sorted(
            families.occurrence_key(
                letter, {alias: occ[names[alias]] for alias in names}
            )
            for occ in REFERENCE_CHECKERS[letter](plan)
        )
        if keys:
            reference[plan_id] = keys
    assert families.expected_matches(query, seed_2016_plans) == reference
    if letter != "D":  # the controlled workload plants no spills
        assert reference


def test_random_queries_agree_with_the_engine():
    rng = random.Random(5)
    sizes = [rng.randint(30, 90) for _ in range(12)]
    pairs = inputs.paper_inputs(77, sizes)
    plans = {plan.plan_id: plan for plan, _ in pairs}
    tool = OptImatch(cache=False)
    for _, text in pairs:
        tool.load_explain_text(text)
    matched = 0
    for query in families.query_sequence(9, 24):
        pattern = ProblemPattern.from_json_object(query.pattern_json())
        reply = {"matches": _matches_to_json(tool.search(pattern))}
        expected = families.expected_matches(query, plans)
        assert families.served_matches(query, reply) == expected, query
        matched += bool(expected)
    assert matched >= 6  # the thresholds are not all vacuous


def test_query_sequence_is_seeded_and_distinct():
    first = families.query_sequence(3, 200)
    assert first == families.query_sequence(3, 200)
    assert first != families.query_sequence(4, 200)
    assert len(set(first)) == len(first)
    assert [q.family for q in first[:8]] == list("ABCDABCD")


def test_stratified_sizes_keep_the_paper_mix():
    sizes = inputs.stratified_sizes(random.Random(1), 100)
    counts = [
        sum(low <= s < high for s in sizes)
        for low, high, _ in inputs.PAPER_BUCKETS
    ]
    assert counts == [15, 22, 25, 18, 12, 8]
    assert sizes == inputs.stratified_sizes(random.Random(1), 100)
    assert len(inputs.stratified_sizes(random.Random(1), 25)) == 25


def test_bucket_counts_follow_the_paper_mix():
    assert inputs.bucket_counts(100) == [15, 22, 25, 18, 12, 8]
    assert inputs.bucket_counts(12) == [2, 3, 3, 2, 1, 1]
    assert [inputs.bucket_of(n) for n in (20, 49, 50, 249, 300, 549)] == [0, 0, 1, 4, 4, 5]


def test_even_order_keeps_the_mix_in_every_prefix():
    labels = [0] * 4 + [1] * 6 + [2] * 6 + [3] * 4 + [4] * 3 + [5] * 2
    for seed in range(20):
        order = inputs.even_order(random.Random(seed), labels)
        assert sorted(order) == list(range(len(labels)))
        for k in range(1, len(order) + 1):
            prefix = [labels[i] for i in order[:k]]
            for label in set(labels):
                share = labels.count(label) / len(labels)
                assert abs(prefix.count(label) - k * share) <= 2


def test_each_block_of_writes_replaces_the_paper_size_mix(seed_2016_plans):
    import workloads

    writes = workloads.replacement_sequence(2016, seed_2016_plans, 24, 12)
    for block in (writes[:12], writes[12:]):
        buckets = [
            inputs.bucket_of(seed_2016_plans[plan_id].op_count)
            for plan_id, _, _ in block
        ]
        assert [buckets.count(i) for i in range(len(inputs.PAPER_BUCKETS))] \
            == inputs.bucket_counts(12)
    for plan_id, text, plan in writes:
        assert plan.plan_id == plan_id
        assert f"Plan ID: {plan_id}\n" in text


def test_with_plan_id_renames_only_the_header():
    ((plan, text),) = inputs.paper_inputs(3, [30])
    renamed = inputs.with_plan_id(text, plan.plan_id, "other-7")
    assert "Plan ID: other-7\n" in renamed
    assert renamed.replace("other-7", plan.plan_id) == text
    with pytest.raises(ValueError):
        inputs.with_plan_id(text, "absent", "x")
