"""The benchmark's three workloads, their oracles and their metrics.

Every workload starts the real server (:mod:`procs`), drives it over
HTTP with at most two connections of ``OptImatchClient(retries=0)`` and
checks every reply against an oracle.  ``ingest`` then stops the server
gracefully (SIGTERM: drain, final checkpoint), restarts it on the same
data directory and times the recovery; ``search`` and ``monitor`` kill
it (their data directories are thrown away).

The traced variant (``trace=True``) runs the measured window twice on
one server started through ``traced_server.py``: first with the span
recorder disarmed, then armed.  The first window gives the untraced
reference for ``bench.trace_overhead_ratio``; the armed window (and,
on ``ingest``, the stop and the restart) give the per-layer metrics.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.client import ClientError
from repro.core import OptImatch
from repro.kb import extended_knowledge_base
from repro.kb.builtin import ENTRY_LETTERS
from repro.server.common import _report_to_json
from repro.workload.reference import ground_truth

import families
import inputs
import spans as spanlib
from procs import HERE, ServerProcess, dir_bytes

BASE_PLANS = 100
#: Plans per stratified ingest block; each connection cycles its block.
#: The ingest window lasts until each connection has sent one block,
#: and ``peak_rss_mb`` is read when both have been acknowledged.
INGEST_BLOCK = 25
#: Open-loop rate of the monitor's writer, well below ingest capacity.
REPLACE_PER_S = 1.0
#: Untimed searches per connection before the search window, one per
#: family: the first searches of a fresh server run 2-3 times slower.
SEARCH_WARMUP = 4
#: Empty-server start-ups timed per ingest run (median reported).
INGEST_SETUPS = 5
#: Tail percentile per workload: one that leaves at least ten samples
#: above it at the sample counts a run produces and that does not sit on
#: the edge between two groups of requests (README.md, End-to-end metrics).
TAIL_PERCENTILE = {"ingest": 85, "search": 55, "monitor": 80}

WORKLOADS = ("ingest", "search", "monitor")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("store_bytes_per_input_byte", "ratio"),
)

PER_LAYER = (
    ("server.dispatch.self_ms", "ms"),
    ("server.dispatch.wait_ms", "ms"),
    ("server.encode_json.ms", "ms"),
    ("server.response_bytes", "bytes"),
    ("server.front_ms", "ms"),
    ("qep.parse_plan.ms", "ms"),
    ("qep.write_plan.ms", "ms"),
    ("qep.write_plan.count", "count"),
    ("core.transform_plan.ms", "ms"),
    ("core.transform_plan.triples", "count"),
    ("rdf.encode_graph.ms", "ms"),
    ("rdf.encode_graph.bytes", "bytes"),
    ("rdf.encode_graph.count", "count"),
    ("rdf.graph_view.ms", "ms"),
    ("store.record.ms", "ms"),
    ("store.record.count", "count"),
    ("store.wal_bytes_per_record", "bytes"),
    ("store.sync.count", "count"),
    ("store.sync.wait_ms", "ms"),
    ("store.checkpoint.ms", "ms"),
    ("store.checkpoint.count", "count"),
    ("store.checkpoint.bytes", "bytes"),
    ("store.recover.ms", "ms"),
    ("core.recover.self_ms", "ms"),
    ("core.checkpoint.self_ms", "ms"),
    ("core.pattern_to_sparql.ms", "ms"),
    ("sparql.prepare_query.ms", "ms"),
    ("sparql.plan_bgp.ms", "ms"),
    ("sparql.plan_closure.ms", "ms"),
    ("core.search_plan.ms", "ms"),
    ("core.search_plan.count", "count"),
    ("core.engine.search.ms", "ms"),
    ("core.engine.match_hit_ratio", "ratio"),
    ("core.engine.prepared_hit_ratio", "ratio"),
    ("core.engine.plans_evaluated", "count"),
    ("kb.find_recommendations.ms", "ms"),
    ("kb.render_segments.ms", "ms"),
    ("kb.render_segments.count", "count"),
    ("kb.confidence_score.ms", "ms"),
    ("bench.generator_late_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_ops", "count"),
    ("bench.replace_p50_ms", "ms"),
)


class CheckFailed(Exception):
    """An oracle disagreed with the server."""


# ----------------------------------------------------------------------
# Requests and their bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Call:
    kind: str
    item: object
    start: float
    end: float
    due: Optional[float]
    reply: object = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def latency_ms(self) -> float:
        """From when the request was due (open loop) or sent (closed)."""
        origin = self.due if self.due is not None else self.start
        return 1000.0 * (self.end - origin)


class Ledger:
    """Every workload request of a run, for ``attempted`` / ``failed``."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls: List[Call] = []

    def call(self, kind: str, item, send: Callable[[], object],
             due: Optional[float] = None) -> Call:
        start = time.perf_counter()
        try:
            reply, error = send(), ""
        except (ClientError, OSError) as exc:
            reply, error = None, f"{type(exc).__name__}: {exc}"
        record = Call(kind, item, start, time.perf_counter(), due, reply, error)
        with self._lock:
            self.calls.append(record)
        return record

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if not c.ok)


def closed_loop(ledger, kind, items: Iterable, send, deadline,
                at_least: int = 0) -> List[Call]:
    """Send *items* one after another until *deadline*, and at least
    *at_least* of them."""
    calls = []
    for item in items:
        if len(calls) >= at_least and time.perf_counter() >= deadline:
            break
        calls.append(ledger.call(kind, item, lambda item=item: send(item)))
    return calls


def open_loop(ledger, kind, items: Iterable, send, start, rate, deadline,
              lateness: List[float]) -> List[Call]:
    """Send item *i* at ``start + i / rate`` on one connection; a request
    that cannot start on time is late, and its latency counts from when
    it was due."""
    calls = []
    for i, item in enumerate(items):
        due = start + i / rate
        if due >= deadline:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness.append(1000.0 * max(0.0, time.perf_counter() - due))
        calls.append(ledger.call(kind, item, lambda item=item: send(item), due=due))
    return calls


def in_parallel(*jobs: Callable[[], object], timeout: float = 170.0) -> list:
    """Run *jobs* on their own threads; return their results in order."""
    with ThreadPoolExecutor(len(jobs)) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [future.result(timeout) for future in futures]


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile`` default)."""
    ordered = sorted(values)
    if not ordered:
        raise CheckFailed("no successful requests to take a percentile of")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def window_stats(per_connection: List[List[Call]], window_start: float,
                 tail: float) -> Dict[str, float]:
    """Throughput summed over connections (each over its own busy
    span, so a run is not rounded to whole requests) and latencies."""
    rate = 0.0
    latencies = []
    for calls in per_connection:
        done = [c for c in calls if c.ok]
        if done:
            rate += len(done) / (calls[-1].end - window_start)
        latencies.extend(c.latency_ms for c in done)
    return {
        "ops_per_s": rate,
        "p50_ms": percentile(latencies, 50),
        "tail_ms": percentile(latencies, tail),
        "samples": len(latencies),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: str
    ledger: Ledger = field(default_factory=Ledger)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    servers: List[ServerProcess] = field(default_factory=list)

    def __post_init__(self):
        self.dir = os.path.join(
            self.root, ".perfbench", f"{self.workload}-{self.seed}-{os.getpid()}"
        )
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.trace_dir = os.path.join(self.dir, "spans")
        os.makedirs(self.trace_dir)
        self._servers_started = 0
        self._last_mark = time.perf_counter()

    def mark(self, phase: str) -> None:
        """Note the wall seconds spent since the previous mark."""
        now = time.perf_counter()
        self.notes.setdefault("phase_s", {})[phase] = round(now - self._last_mark, 2)
        self._last_mark = now

    def server(self, data_dir: str, extended: bool = False,
               armed: bool = False) -> ServerProcess:
        self._servers_started += 1
        log = os.path.join(self.dir, f"server-{self._servers_started}.log")
        proc = ServerProcess(
            self.root, os.path.join(self.dir, data_dir), log, extended=extended,
            trace_dir=self.trace_dir if self.trace else None, armed=armed,
        )
        self.servers.append(proc)
        return proc.start()

    def close(self) -> None:
        for proc in self.servers:
            proc.stop(graceful=False)
        shutil.rmtree(self.dir, ignore_errors=True)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            raise CheckFailed(message)

    # -- tracing -------------------------------------------------------
    def arm(self, proc: ServerProcess) -> None:
        marker = os.path.join(self.trace_dir, f"armed-{proc.proc.pid}")
        proc.send(signal.SIGUSR1)
        _wait_for(lambda: os.path.exists(marker), "the recorder to arm")

    def dump(self, proc: ServerProcess) -> None:
        before = set(os.listdir(self.trace_dir))
        proc.send(signal.SIGUSR2)
        prefix = f"spans-{proc.proc.pid}-"
        _wait_for(
            lambda: any(n.startswith(prefix) and n.endswith(".json")
                        for n in set(os.listdir(self.trace_dir)) - before),
            "the span dump",
        )

    def load_spans(self) -> List[dict]:
        dumps = []
        for name in sorted(os.listdir(self.trace_dir)):
            if name.startswith("spans-") and name.endswith(".json"):
                pid = int(name.split("-")[1])
                with open(os.path.join(self.trace_dir, name)) as handle:
                    spans = [spanlib.Span(*s) for s in json.load(handle)]
                dumps.append({"pid": pid, "spans": spans,
                              "phase": f"{self.workload} server {pid}"})
        return dumps


def _wait_for(condition: Callable[[], bool], what: str, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.005)


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    def ratio(section: str) -> float:
        hits = after[section]["hits"] - before[section]["hits"]
        misses = after[section]["misses"] - before[section]["misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "core.engine.match_hit_ratio": ratio("matchCache"),
        "core.engine.prepared_hit_ratio": ratio("preparedCache"),
        "core.engine.plans_evaluated": float(
            after["plansEvaluated"] - before["plansEvaluated"]
        ),
    }


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------
def upload_base(run: Run, proc: ServerProcess, texts: Dict[str, str],
                plans) -> None:
    """Setup: the base workload, one plan per ``POST /plans?ack=sync``."""
    client = proc.client()
    for plan_id, text in texts.items():
        call = run.ledger.call(
            "setup", plan_id, lambda text=text: client.upload_plan(text, ack="sync")
        )
        run.check(call.ok, f"setup upload of {plan_id} failed: {call.error}")
        check_upload(run, call, plan_id, plans[plan_id])


def check_upload(run: Run, call: Call, plan_id: str, plan) -> None:
    reply = call.reply
    run.check(
        reply["planId"] == plan_id
        and reply["operators"] == plan.op_count
        and reply["durability"]["synced"] is True,
        f"upload reply for {plan_id} is wrong: {reply}",
    )


def restart_and_recover(run: Run, data_dir: str, expected: Dict[str, object],
                        allowed_extra: Iterable[str] = ()) -> ServerProcess:
    """Start a server on *data_dir* and time it to ``/health`` ok plus a
    correct Pattern A search over the plans it recovered."""
    spawned = time.perf_counter()
    proc = run.server(data_dir, armed=run.trace)
    proc.wait_ready()
    client = proc.client()
    query = families.BUILTIN["A"]
    call = run.ledger.call("recovery_search", query,
                           lambda: client.search(query.pattern_json()))
    run.notes["recovery_s"] = call.end - spawned
    run.check(call.ok, f"post-recovery search failed: {call.error}")
    listed = run.ledger.call("recovery_plans", None, client.plans)
    run.check(listed.ok, f"post-recovery plan list failed: {listed.error}")
    recovered = set(listed.reply)
    extra = recovered - set(expected)
    run.check(
        set(expected) <= recovered and extra <= set(allowed_extra),
        f"recovered plans differ: missing {sorted(set(expected) - recovered)[:5]}, "
        f"unexpected {sorted(extra)[:5]}",
    )
    plans = {pid: expected[pid] for pid in recovered if pid in expected}
    run.check(
        families.served_matches(query, call.reply)
        == families.expected_matches(query, plans),
        "post-recovery Pattern A search disagrees with the reference",
    )
    return proc


def base_inputs(seed: int):
    pairs = inputs.stratified_inputs(inputs.sub_seed(seed, "base"), BASE_PLANS)
    by_id = {plan.plan_id: plan for plan, _ in pairs}
    texts = {plan.plan_id: text for plan, text in pairs}
    return by_id, texts


def inputs_ready() -> None:
    """Move the generated inputs out of the collector's way, so the
    load threads do not pause to scan them while timing requests."""
    gc.collect()
    gc.freeze()


def measure(run: Run, proc: ServerProcess, window: Callable[[], Dict]) -> Dict:
    """The measured window; traced runs measure it disarmed, then armed.

    Returns the stats of the (first) untraced window."""
    first = window()
    if not run.trace:
        return first
    client = proc.client()
    before = client.stats()
    run.arm(proc)
    opened = time.perf_counter()
    traced = window()
    run.notes["traced_window"] = (opened, time.perf_counter())
    after = client.stats()
    run.metrics.update(_stats_delta(before, after))
    run.metrics["bench.trace_overhead_ratio"] = traced["p50_ms"] / first["p50_ms"] - 1.0
    run.metrics["bench.traced_ops"] = float(traced["samples"])
    return first


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def ingest_sequence(seed: int, connection: int):
    """Connection *connection*'s unbounded plan sequence.

    A block of :data:`INGEST_BLOCK` stratified plans is generated once;
    pass *k* sends it again under fresh ids, in a fresh seeded order that
    spaces each size bucket evenly (:func:`inputs.even_order`), so every
    stretch of the sequence, not only whole passes, keeps the paper's
    size mix: where a window ends does not decide how many 500-operator
    plans it holds."""
    block_seed = inputs.sub_seed(seed, f"ingest{connection}")
    block = inputs.stratified_inputs(block_seed, INGEST_BLOCK)
    buckets = [inputs.bucket_of(plan.op_count) for plan, _ in block]
    rng = random.Random(block_seed)

    def generate():
        for cycle in itertools.count():
            for j in inputs.even_order(rng, buckets):
                plan, text = block[j]
                plan_id = f"ingest{connection}-{cycle:03d}-{j:02d}"
                yield plan_id, inputs.with_plan_id(text, plan.plan_id, plan_id), plan

    return generate()


def run_ingest(run: Run) -> None:
    sequences = [ingest_sequence(run.seed, c) for c in range(2)]
    inputs_ready()
    run.mark("inputs")
    setups = []
    proc = None
    for attempt in range(1 if run.trace else INGEST_SETUPS):
        if proc is not None:
            proc.stop(graceful=True)
        spawned = time.perf_counter()
        proc = run.server(f"data-{attempt}")
        setups.append(proc.wait_ready() - spawned)
    run.metrics["setup_s"] = statistics.median(setups)
    run.mark("setup")

    sent: Dict[str, object] = {}
    sent_bytes = 0
    # Peak memory after a fixed amount of work (each connection's first
    # block), so that it does not grow with the rate plans go in at.
    answered = [0, 0]
    first_blocks_rss: List[float] = []
    lock = threading.Lock()

    def window():
        clients = [proc.client(), proc.client()]

        def send(c):
            def post(item):
                nonlocal sent_bytes
                plan_id, text, plan = item
                sent[plan_id] = plan
                sent_bytes += len(text.encode("utf-8"))
                try:
                    return clients[c].upload_plan(text, ack="sync")
                finally:
                    with lock:
                        answered[c] += 1
                        if not first_blocks_rss and min(answered) >= INGEST_BLOCK:
                            first_blocks_rss.append(proc.peak_rss_mb())
            return post

        start = time.perf_counter()
        deadline = start + run.seconds
        per_conn = in_parallel(*[
            (lambda c=c: closed_loop(run.ledger, "ingest", sequences[c],
                                     send(c), deadline, at_least=INGEST_BLOCK))
            for c in range(2)
        ])
        stats = window_stats(per_conn, start, TAIL_PERCENTILE["ingest"])
        for calls in per_conn:
            for call in calls:
                if call.ok:
                    check_upload(run, call, call.item[0], call.item[2])
        return stats

    stats = measure(run, proc, window)
    run.mark("window")
    run.metrics.update({k: stats[k] for k in ("ops_per_s", "p50_ms", "tail_ms")})
    run.notes["samples"] = stats["samples"]
    run.metrics["peak_rss_mb"] = first_blocks_rss[0]
    run.notes["peak_rss_end_mb"] = proc.peak_rss_mb()
    acked = {c.item[0] for c in run.ledger.calls if c.kind == "ingest" and c.ok}
    run.check(proc.stop(graceful=True) == 0, "graceful stop failed")
    run.mark("stop")
    run.metrics["store_bytes_per_input_byte"] = dir_bytes(proc.data_dir) / sent_bytes
    expected = {pid: plan for pid, plan in sent.items() if pid in acked}
    recovered = restart_and_recover(
        run, os.path.basename(proc.data_dir), expected,
        allowed_extra=set(sent) - acked,
    )
    if run.trace:
        run.dump(recovered)
    run.mark("recovery")


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
def run_search(run: Run) -> None:
    plans, texts = base_inputs(run.seed)
    queries = [
        families.query_sequence(inputs.sub_seed(run.seed, f"search{c}"), 2000, 2 * c)
        for c in range(2)
    ]
    warm_ups = [
        families.query_sequence(inputs.sub_seed(run.seed, f"warm{c}"),
                                SEARCH_WARMUP, 2 * c)
        for c in range(2)
    ]
    positions = [0, 0]
    inputs_ready()
    run.mark("inputs")
    spawned = time.perf_counter()
    proc = run.server("data")
    proc.wait_ready()
    upload_base(run, proc, texts, plans)
    run.metrics["setup_s"] = time.perf_counter() - spawned
    run.mark("setup")
    sent_bytes = sum(len(t.encode("utf-8")) for t in texts.values())

    def searches(kind, sequences, deadline):
        """Each connection sends its own sequence until *deadline*."""
        clients = [proc.client(), proc.client()]
        return in_parallel(*[
            (lambda c=c: closed_loop(
                run.ledger, kind, sequences[c],
                lambda q: clients[c].search(q.pattern_json()), deadline,
            ))
            for c in range(2)
        ])

    searches("search_warm", warm_ups, math.inf)
    run.mark("warm")

    def window():
        start = time.perf_counter()
        per_conn = searches(
            "search", [queries[c][positions[c]:] for c in range(2)],
            start + run.seconds,
        )
        for c, calls in enumerate(per_conn):
            positions[c] += len(calls)
        return window_stats(per_conn, start, TAIL_PERCENTILE["search"])

    stats = measure(run, proc, window)
    run.mark("window")
    run.metrics.update({k: stats[k] for k in ("ops_per_s", "p50_ms", "tail_ms")})
    run.notes["samples"] = stats["samples"]
    run.metrics["peak_rss_mb"] = proc.peak_rss_mb()
    if run.trace:
        run.dump(proc)
    proc.stop(graceful=False)
    run.metrics["store_bytes_per_input_byte"] = dir_bytes(proc.data_dir) / sent_bytes

    for call in run.ledger.calls:
        if call.kind in ("search", "search_warm") and call.ok:
            query = call.item
            run.check(not call.reply["degraded"], f"degraded search {query.name}")
            run.check(
                families.served_matches(query, call.reply)
                == families.expected_matches(query, plans),
                f"search {query.name} disagrees with the reference",
            )
    run.mark("oracle")


# ----------------------------------------------------------------------
# monitor
# ----------------------------------------------------------------------
def replacement_sequence(seed: int, base: Dict, count: int, block: int):
    """*count* seeded new versions of base plans, each the size of the
    plan it replaces, so the workload's size stays put.

    Each *block* of writes (one window's worth) has the paper's size-
    bucket mix exactly (:func:`inputs.bucket_counts`), drawn from the
    base plans of each bucket and sent in a seeded order: every window
    re-matches the same number of 500-operator plans, so a seed that
    happens to replace more of them cannot slow its run.
    """
    rng = random.Random(inputs.sub_seed(seed, "replace-ids"))
    buckets: Dict[int, List[str]] = {}
    for plan_id in sorted(base):
        buckets.setdefault(inputs.bucket_of(base[plan_id].op_count), []).append(plan_id)
    ids: List[str] = []
    while len(ids) < count:
        picks = []
        for index, wanted in enumerate(inputs.bucket_counts(block)):
            picks.extend(rng.sample(buckets[index], wanted))
        rng.shuffle(picks)
        ids.extend(picks)
    ids = ids[:count]
    fresh = inputs.paper_inputs(
        inputs.sub_seed(seed, "replace"), [base[i].op_count for i in ids]
    )
    out = []
    for plan_id, (plan, text) in zip(ids, fresh):
        out.append((plan_id, inputs.with_plan_id(text, plan.plan_id, plan_id), plan))
        plan.plan_id = plan_id
    return out


def run_monitor(run: Run) -> None:
    plans, texts = base_inputs(run.seed)
    per_window = math.ceil(REPLACE_PER_S * run.seconds)
    writes = replacement_sequence(
        run.seed, plans, per_window * (2 if run.trace else 1), per_window
    )
    inputs_ready()
    run.mark("inputs")
    spawned = time.perf_counter()
    proc = run.server("data", extended=True)
    proc.wait_ready()
    upload_base(run, proc, texts, plans)
    run.metrics["setup_s"] = time.perf_counter() - spawned
    run.mark("setup")
    sent_bytes = sum(len(t.encode("utf-8")) for t in texts.values())

    client = proc.client()
    warm = run.ledger.call("kb_warm", None, client.run_kb)
    run.mark("warm")
    run.check(warm.ok, f"warm-up KB run failed: {warm.error}")
    run.notes["kb_cold_ms"] = 1000.0 * (warm.end - warm.start)
    final = {plan_id: (plans[plan_id], texts[plan_id]) for plan_id in plans}
    next_write = 0
    lateness: List[float] = []
    replace_ms: List[float] = []

    def window():
        nonlocal next_write
        reader, writer = proc.client(), proc.client()
        start = time.perf_counter()
        deadline = start + run.seconds
        own_writes = writes[next_write:]

        def replace(item):
            plan_id, text, plan = item
            return writer.upload_plan(text, replace=True, ack="sync")

        reads, written = in_parallel(
            lambda: closed_loop(run.ledger, "kb_run", itertools.repeat(None),
                                lambda _: reader.run_kb(), deadline),
            lambda: open_loop(run.ledger, "replace", own_writes, replace,
                              start, REPLACE_PER_S, deadline, lateness),
        )
        next_write += len(written)
        for call in written:
            if call.ok:
                plan_id, text, plan = call.item
                check_upload(run, call, plan_id, plan)
                final[plan_id] = (plan, text)
        for call in reads:
            if call.ok:
                run.check(not call.reply["degraded"], "degraded KB run")
        replace_ms.extend(c.latency_ms for c in written if c.ok)
        return window_stats([reads], start, TAIL_PERCENTILE["monitor"])

    stats = measure(run, proc, window)
    run.mark("window")
    run.metrics.update({k: stats[k] for k in ("ops_per_s", "p50_ms", "tail_ms")})
    run.notes["samples"] = stats["samples"]
    run.notes["replace_p50_ms"] = percentile(replace_ms, 50)
    run.notes["replace_samples"] = len(replace_ms)
    run.notes["generator_late_ms"] = statistics.mean(lateness) if lateness else 0.0
    written = [c for c in run.ledger.calls if c.kind == "replace"]
    run.check(all(c.ok for c in written), "a replace failed; the final state is unknown")

    last = run.ledger.call("kb_final", None, client.run_kb)
    run.check(last.ok, f"final KB run failed: {last.error}")
    run.metrics["peak_rss_mb"] = proc.peak_rss_mb()
    if run.trace:
        run.dump(proc)
    proc.stop(graceful=False)
    sent_bytes += sum(len(c.item[1].encode("utf-8")) for c in written)
    run.metrics["store_bytes_per_input_byte"] = dir_bytes(proc.data_dir) / sent_bytes
    check_kb_report(run, last.reply, final)
    run.mark("oracle")


def _kb_report_json(texts: List[str]) -> dict:
    """An uncached in-process KB run over *texts* (one worker's share)."""
    with OptImatch(cache=False) as tool:
        for text in texts:
            tool.load_explain_text(text)
        report = tool.run_knowledge_base(extended_knowledge_base(), isolate=True)
        return json.loads(json.dumps(_report_to_json(report)))


def kb_report_file(source: str, target: str) -> None:
    """Worker entry: explain texts from *source* JSON, report to *target*."""
    with open(source) as handle:
        texts = json.load(handle)
    with open(target, "w") as handle:
        json.dump(_kb_report_json(texts), handle)


def kb_oracle(run: Run, texts: List[str]) -> dict:
    """:func:`_kb_report_json` over all *texts*, split over two worker
    processes.  A KB report is per plan (results, confidences) plus
    per-entry plan counts, so the two halves concatenate and add up."""
    total = sum(len(t) for t in texts)
    running, cut = 0, len(texts)
    for index, text in enumerate(texts):
        running += len(text)
        if running >= total / 2:
            cut = index + 1
            break
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(run.root, "src") + os.pathsep + HERE
    workers = []
    for index, part in enumerate((texts[:cut], texts[cut:])):
        source = os.path.join(run.dir, f"oracle-{index}-in.json")
        target = os.path.join(run.dir, f"oracle-{index}-out.json")
        with open(source, "w") as handle:
            json.dump(part, handle)
        workers.append((subprocess.Popen(
            [sys.executable, "-c",
             "import sys, workloads; workloads.kb_report_file(*sys.argv[1:])",
             source, target],
            cwd=run.root, env=env,
        ), target))
    parts = []
    try:
        for worker, target in workers:
            if worker.wait(170) != 0:
                raise RuntimeError(f"KB oracle worker exited with {worker.returncode}")
            with open(target) as handle:
                parts.append(json.load(handle))
    finally:
        for worker, _ in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    first, second = parts
    hits = dict(first["hits"])
    for entry, count in second["hits"].items():
        hits[entry] = hits.get(entry, 0) + count
    merged = {
        "plans": first["plans"] + second["plans"],
        "hits": hits,
        "degraded": first["degraded"] or second["degraded"],
    }
    errors = first.get("errors", []) + second.get("errors", [])
    if errors:
        merged["errors"] = errors
    return merged


def check_kb_report(run: Run, reply: dict, final: Dict) -> None:
    """The served KB report must equal an uncached in-process run over
    the final plan set, and its builtin entries the reference checkers."""
    expected = kb_oracle(run, [text for _, text in final.values()])
    run.check(
        json.dumps(reply, sort_keys=True) == json.dumps(expected, sort_keys=True),
        "final KB run differs from an uncached in-process run",
    )
    truth = ground_truth(plan for plan, _ in final.values())
    for entry, letter in ENTRY_LETTERS.items():
        served = {
            p["planId"] for p in reply["plans"]
            if any(r["entry"] == entry for r in p["results"])
        }
        run.check(served == set(truth[letter]),
                  f"KB entry {entry} disagrees with the reference checkers")


RUNNERS = {"ingest": run_ingest, "search": run_search, "monitor": run_monitor}


# ----------------------------------------------------------------------
# Per-layer metrics from the spans
# ----------------------------------------------------------------------
def layer_metrics(run: Run, dumps: List[dict]) -> Dict[str, float]:
    every = [s for d in dumps for s in d["spans"]]
    totals = spanlib.rollup(every)
    opened, closed = run.notes["traced_window"]
    # Requests of the armed window, as the client and the server saw
    # them; the benchmark's own /health and /stats polls are left out.
    served = spanlib.rollup(
        every,
        keep=lambda s: opened <= s.start <= closed
        and s.label not in ("GET /health", "GET /stats"),
    )
    client_ms = [
        1000.0 * (c.end - c.start) for c in run.ledger.calls
        if opened <= c.start <= closed
    ]

    def agg(name: str) -> spanlib.Totals:
        return totals.get(name) or spanlib.Totals()

    dispatch = served.get("server.dispatch") or spanlib.Totals()
    front = (
        (sum(client_ms) - 1000.0 * dispatch.wall) / len(client_ms)
        if client_ms and dispatch.count else 0.0
    )
    out = {
        "server.dispatch.self_ms": dispatch.mean_ms("self"),
        "server.dispatch.wait_ms": dispatch.mean_wait_ms(),
        "server.encode_json.ms": agg("server.encode_json").mean_ms(),
        "server.response_bytes": dispatch.mean_value(),
        "server.front_ms": front,
        "qep.parse_plan.ms": agg("qep.parse_plan").mean_ms(),
        "qep.write_plan.ms": agg("qep.write_plan").mean_ms(),
        "qep.write_plan.count": float(agg("qep.write_plan").count),
        "core.transform_plan.ms": agg("core.transform_plan").mean_ms(),
        "core.transform_plan.triples": agg("core.transform_plan").mean_value(),
        "rdf.encode_graph.ms": agg("rdf.encode_graph").mean_ms(),
        "rdf.encode_graph.bytes": agg("rdf.encode_graph").mean_value(),
        "rdf.encode_graph.count": float(agg("rdf.encode_graph").count),
        "rdf.graph_view.ms": agg("rdf.graph_view").mean_ms(),
        "store.record.ms": agg("store.record").mean_ms(),
        "store.record.count": float(agg("store.record").count),
        "store.wal_bytes_per_record": agg("store.record").mean_value(),
        "store.sync.count": float(agg("store.sync").count),
        "store.sync.wait_ms": agg("store.sync").mean_wait_ms(),
        "store.checkpoint.ms": agg("store.checkpoint").mean_ms(),
        "store.checkpoint.count": float(agg("store.checkpoint").count),
        "store.checkpoint.bytes": agg("store.checkpoint").mean_value(),
        "store.recover.ms": agg("store.recover").mean_ms(),
        "core.recover.self_ms": agg("core.recover").mean_ms("self"),
        "core.checkpoint.self_ms": agg("core.checkpoint").mean_ms("self"),
        "core.pattern_to_sparql.ms": agg("core.pattern_to_sparql").mean_ms(),
        "sparql.prepare_query.ms": agg("sparql.prepare_query").mean_ms(),
        "sparql.plan_bgp.ms": agg("sparql.plan_bgp").mean_ms(),
        "sparql.plan_closure.ms": agg("sparql.plan_closure").mean_ms(),
        "core.search_plan.ms": agg("core.search_plan").mean_ms(),
        "core.search_plan.count": float(agg("core.search_plan").count),
        "core.engine.search.ms": agg("core.engine.search").mean_ms(),
        "kb.find_recommendations.ms": agg("kb.find_recommendations").mean_ms(),
        "kb.render_segments.ms": agg("kb.render_segments").mean_ms(),
        "kb.render_segments.count": float(agg("kb.render_segments").count),
        "kb.confidence_score.ms": agg("kb.confidence_score").mean_ms(),
        "bench.generator_late_ms": float(run.notes.get("generator_late_ms", 0.0)),
        "bench.replace_p50_ms": float(run.notes.get("replace_p50_ms", 0.0)),
    }
    run.notes["self_ms_by_layer"] = {
        layer: round(1000.0 * seconds, 1)
        for layer, seconds in sorted(spanlib.self_time_by_layer(totals).items())
    }
    return out


def execute(workload: str, seed: int, seconds: float, trace: bool, root: str):
    """Run one workload; returns ``(run, error)`` where *error* is the
    oracle failure message, if any."""
    run = Run(workload, seed, seconds, trace, root)
    error = None
    try:
        RUNNERS[workload](run)
        if trace:
            dumps = run.load_spans()
            run.metrics.update(layer_metrics(run, dumps))
            trace_path = os.path.join(root, ".perfbench", f"trace-{workload}.json")
            with open(trace_path, "w") as handle:
                json.dump(spanlib.chrome_trace(dumps), handle)
            run.notes["trace_file"] = os.path.relpath(trace_path, root)
    except CheckFailed as exc:
        error = str(exc)
    finally:
        run.close()
    return run, error
