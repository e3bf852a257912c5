"""Seeded benchmark inputs: paper-shaped plans and their explain text.

Plans come from ``repro.experiments.workloads.experiment_workload`` (the
paper's operator mix and planted patterns).  Two draws are *stratified*
here instead of left to coin flips: plan sizes follow the paper's size
buckets (Section 3.2.2) exactly, and each planted pattern goes to
exactly its paper share of the plans (15% A, 12% B, 18% C).  The seed
still picks each plan's exact size, shape and tables, and which plans
carry which pattern.  Without this one 10-second run sees a handful of
500-operator plans, or of matches to render, more or less than the
next, and the run-to-run spread of every time metric would be set by
that draw rather than by the program.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence, Tuple

from repro.experiments.workloads import PAPER_PLANT_RATES, experiment_workload
from repro.qep.model import PlanGraph
from repro.qep.writer import write_plan
from repro.server.common import DEFAULT_MAX_BODY_BYTES

#: Largest explain text an input may have: the server's default request
#: body cap, less room for the longer plan ids ``with_plan_id`` writes.
MAX_TEXT_BYTES = DEFAULT_MAX_BODY_BYTES - 1024

#: Section 3.2.2 buckets as ``(low, high, share)``, operator counts in
#: ``[low, high)``; the weights are those of ``paper_size_for``.
PAPER_BUCKETS: Tuple[Tuple[int, int, float], ...] = (
    (20, 50, 0.15),
    (50, 100, 0.22),
    (100, 150, 0.25),
    (150, 200, 0.18),
    (200, 250, 0.12),
    (500, 550, 0.08),
)


def sub_seed(seed: int, label: str) -> int:
    """A seed for one input stream, derived from the run seed."""
    return random.Random(f"{seed}:{label}").getrandbits(31)


def bucket_counts(n: int) -> List[int]:
    """How many of *n* plans fall in each paper bucket (largest
    remainders, so the counts add up to *n*)."""
    shares = [share * n for _, _, share in PAPER_BUCKETS]
    counts = [int(s) for s in shares]
    by_remainder = sorted(
        range(len(shares)), key=lambda i: (counts[i] - shares[i], i)
    )
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def bucket_of(op_count: int) -> int:
    """The index of the paper bucket a plan of *op_count* operators is in."""
    index = 0
    for i, (low, _, _) in enumerate(PAPER_BUCKETS):
        if low <= op_count:
            index = i
    return index


def stratified_sizes(rng: random.Random, n: int) -> List[int]:
    """*n* plan sizes in the paper's bucket proportions, shuffled.

    Bucket counts use largest remainders; inside a bucket the sizes are
    evenly spread with a random offset in each stratum.
    """
    sizes = []
    for (low, high, _), count in zip(PAPER_BUCKETS, bucket_counts(n)):
        width = (high - low) / max(count, 1)
        sizes.extend(
            low + int((j + rng.random()) * width) for j in range(count)
        )
    rng.shuffle(sizes)
    return sizes


def even_order(rng: random.Random, labels: Sequence[int]) -> List[int]:
    """The indices of *labels* in a seeded order that spaces each label's
    items evenly, so every stretch of the order has close to the whole
    list's mix: two 500-operator plans of a 25-plan block come about
    twelve apart, never back to back."""
    groups: Dict[int, List[int]] = {}
    for index, label in enumerate(labels):
        groups.setdefault(label, []).append(index)
    keyed = []
    for members in groups.values():
        rng.shuffle(members)
        phase = rng.random()
        keyed.extend(
            ((j + phase) / len(members), rng.random(), index)
            for j, index in enumerate(members)
        )
    return [index for _, _, index in sorted(keyed)]


def _plant_schedule(seed: int, n: int) -> List[List[str]]:
    """Pattern letters per plan: each in exactly its paper share of *n*."""
    rng = random.Random(sub_seed(seed, "plants"))
    plants: List[List[str]] = [[] for _ in range(n)]
    for letter, rate in sorted(PAPER_PLANT_RATES.items()):
        for index in rng.sample(range(n), round(rate * n)):
            plants[index].append(letter)
    return plants


def _plan(seed: int, size: int, letters: Sequence[str], plan_id: str) -> PlanGraph:
    (plan,) = experiment_workload(
        1, seed=seed, plant_rates={letter: 1.0 for letter in letters},
        size_sampler=lambda _rng: size,
    )
    plan.plan_id = plan_id
    return plan


def paper_inputs(seed: int, sizes: Sequence[int]) -> List[Tuple[PlanGraph, str]]:
    """``(plan, explain text)`` per entry of *sizes*, ids ``qep-0000``
    onwards, with the paper's patterns planted in exactly their share.

    A few 500+ operator plans print to more than the server accepts in
    one request (``--max-body-bytes``, 4 MiB); such a plan would only be
    refused, so it is drawn again, same size and planted patterns, from
    a derived seed.
    """
    plants = _plant_schedule(seed, len(sizes))
    out = []
    for index, size in enumerate(sizes):
        for attempt in itertools.count():
            label = f"plan-{index}" if attempt == 0 else f"refit-{index}-{attempt}"
            plan = _plan(sub_seed(seed, label), size, plants[index], f"qep-{index:04d}")
            text = write_plan(plan)
            if len(text.encode("utf-8")) <= MAX_TEXT_BYTES:
                break
        out.append((plan, text))
    return out


def stratified_inputs(seed: int, n: int) -> List[Tuple[PlanGraph, str]]:
    return paper_inputs(seed, stratified_sizes(random.Random(seed), n))


def with_plan_id(text: str, old_id: str, new_id: str) -> str:
    """*text* with its ``Plan ID:`` header renamed (the body is unchanged)."""
    old_header = f"Plan ID: {old_id}\n"
    if old_header not in text:
        raise ValueError(f"no {old_header!r} header in explain text")
    return text.replace(old_header, f"Plan ID: {new_id}\n", 1)
