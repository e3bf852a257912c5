"""Span recorder for the traced run, and the per-layer roll-up.

The recorder wraps the public entry points of each layer from outside
the program: :func:`install` replaces every module attribute that refers
to a target function (so ``repro.core.optimatch.transform_plan`` and
``repro.core.transform.transform_plan`` are both wrapped) and patches
target methods on their class.  Nothing under ``src/`` changes.

A span records its name, its parent (a thread-local stack, so spans of
one request nest and spans of concurrent requests do not), wall time
and ``time.thread_time()``.  Wall minus thread CPU is the time the call
spent waiting (locks, fsync, the interpreter lock).  Self time is wall
time minus the wall time of the span's direct children.  Spans stay in
memory; the server writes them out when told to, and the benchmark
merges the dumps into one Chrome trace and the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: int  # 0 = no parent
    name: str
    label: str
    thread: int
    start: float
    wall: float
    cpu: float
    value: Optional[float]


class SpanRecorder:
    """Collects :class:`Span` records while :attr:`armed` is set.

    Disarmed, a wrapper costs one attribute test per call, so the
    untraced window of a traced run measures the program without spans.
    """

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.spans: List[Span] = []
        self.armed = False
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._ids = itertools.count(1)
        self._local = threading.local()

    def take(self) -> List[Span]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(
        self,
        name: str,
        fn: Callable,
        value: Optional[Callable] = None,
        before: Optional[Callable] = None,
        label: Optional[Callable] = None,
    ) -> Callable:
        """*fn* wrapped in a span called *name*.

        ``before(args)`` runs just before the call; ``value(args,
        result, before_result)`` turns a successful call into the span's
        number (bytes, triples); ``label(args)`` tags the span (the
        dispatched route).
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.armed:
                return fn(*args, **kwargs)
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            context = before(args) if before is not None else None
            stack.append(span_id)
            measured = None
            cpu0 = recorder._cpu_clock()
            start = recorder._clock()
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    measured = value(args, result, context)
                return result
            finally:
                wall = recorder._clock() - start
                cpu = recorder._cpu_clock() - cpu0
                stack.pop()
                recorder.spans.append(Span(
                    span_id, parent, name,
                    label(args) if label is not None else "",
                    threading.get_ident(), start, wall, cpu, measured,
                ))

        return traced


# ----------------------------------------------------------------------
# Targets: the public entry point of every layer
# ----------------------------------------------------------------------
def _body_bytes(args, result, _):
    return len(result.body)


def _length(args, result, _):
    return len(result)


def _triples(args, result, _):
    return len(result.graph)


def _wal_bytes_before(args):
    writer = getattr(args[0], "_writer", None)
    return writer.bytes_appended if writer is not None else 0


def _wal_bytes_after(args, result, before):
    return _wal_bytes_before(args) - before


def _checkpoint_bytes(args, seq, _):
    return os.path.getsize(os.path.join(args[0].data_dir, f"ckpt-{seq}.bin"))


def _route(args):
    # dispatch(state, method, path, headers, body)
    return f"{args[1]} {args[2].split('?', 1)[0]}"


#: ``(module, attribute, span name, keyword arguments for wrap)``;
#: an attribute ``Class.method`` patches the method on the class.
TARGETS = (
    ("repro.server.common", "dispatch", "server.dispatch",
     {"value": _body_bytes, "label": _route}),
    ("repro.server.common", "encode_json", "server.encode_json",
     {"value": _length}),
    ("repro.qep.parser", "parse_plan", "qep.parse_plan", {}),
    ("repro.qep.writer", "write_plan", "qep.write_plan", {}),
    ("repro.core.transform", "transform_plan", "core.transform_plan",
     {"value": _triples}),
    ("repro.rdf.snapshot", "encode_graph", "rdf.encode_graph",
     {"value": _length}),
    ("repro.rdf.snapshot", "GraphView.__init__", "rdf.graph_view", {}),
    ("repro.store.durable", "DurableStore.record_add", "store.record",
     {"before": _wal_bytes_before, "value": _wal_bytes_after}),
    ("repro.store.durable", "DurableStore.record_replace", "store.record",
     {"before": _wal_bytes_before, "value": _wal_bytes_after}),
    ("repro.store.durable", "DurableStore.sync", "store.sync", {}),
    ("repro.store.durable", "DurableStore.checkpoint", "store.checkpoint",
     {"value": _checkpoint_bytes}),
    ("repro.store.durable", "DurableStore.recover", "store.recover", {}),
    ("repro.core.optimatch", "OptImatch.recover", "core.recover", {}),
    ("repro.core.optimatch", "OptImatch.checkpoint", "core.checkpoint", {}),
    ("repro.core.sparqlgen", "pattern_to_sparql", "core.pattern_to_sparql", {}),
    ("repro.sparql", "prepare_query", "sparql.prepare_query", {}),
    ("repro.sparql.planner", "plan_bgp", "sparql.plan_bgp", {}),
    ("repro.sparql.planner", "plan_closure", "sparql.plan_closure", {}),
    ("repro.core.matcher", "search_plan", "core.search_plan", {}),
    ("repro.core.engine", "MatchingEngine.search", "core.engine.search", {}),
    ("repro.core.engine", "MatchingEngine.search_isolated",
     "core.engine.search", {}),
    ("repro.kb.knowledge_base", "KnowledgeBase.find_recommendations",
     "kb.find_recommendations", {}),
    ("repro.kb.tagging", "render_segments", "kb.render_segments", {}),
    ("repro.kb.ranking", "confidence_score", "kb.confidence_score", {}),
)

#: Modules whose by-name imports of the targets must be patched too.
_IMPORTERS = (
    "repro.cli",
    "repro.server",
    "repro.server.threaded",
    "repro.server.aserver",
    "repro.server.stream",
    "repro.kb",
    "repro.kb.recommendation",
)


def install(recorder: SpanRecorder, targets=TARGETS) -> int:
    """Wrap every target wherever the program refers to it; returns the
    number of references replaced."""
    for name in _IMPORTERS + tuple(t[0] for t in targets):
        importlib.import_module(name)
    replaced = 0
    for module_name, attribute, span_name, options in targets:
        module = sys.modules[module_name]
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            setattr(cls, method,
                    recorder.wrap(span_name, getattr(cls, method), **options))
            replaced += 1
            continue
        original = getattr(module, attribute)
        wrapper = recorder.wrap(span_name, original, **options)
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, val in list(vars(other).items()):
                if val is original:
                    setattr(other, key, wrapper)
                    replaced += 1
    return replaced


# ----------------------------------------------------------------------
# Roll-up
# ----------------------------------------------------------------------
class Totals:
    """Aggregates of every span with one name (seconds, counts)."""

    __slots__ = ("count", "wall", "self", "cpu", "value")

    def __init__(self):
        self.count = 0
        self.wall = self.self = self.cpu = self.value = 0.0

    def mean_ms(self, field: str = "wall") -> float:
        return 1000.0 * getattr(self, field) / self.count if self.count else 0.0

    def mean_wait_ms(self) -> float:
        return 1000.0 * (self.wall - self.cpu) / self.count if self.count else 0.0

    def mean_value(self) -> float:
        return self.value / self.count if self.count else 0.0


def rollup(spans: Iterable[Span], keep: Optional[Callable] = None) -> Dict[str, Totals]:
    """Per span name: count, wall, self (wall minus direct children's
    wall), thread CPU and summed value.  *keep* filters which spans are
    counted; every span still subtracts from its parent's self time."""
    spans = list(spans)
    child_wall: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            child_wall[(span.thread, span.parent)] += span.wall
    out: Dict[str, Totals] = defaultdict(Totals)
    for span in spans:
        if keep is not None and not keep(span):
            continue
        totals = out[span.name]
        totals.count += 1
        totals.wall += span.wall
        totals.self += span.wall - child_wall.get((span.thread, span.id), 0.0)
        totals.cpu += span.cpu
        if span.value is not None:
            totals.value += span.value
    return out


def layer_of(name: str) -> str:
    """``core.engine.search`` -> ``core.engine``; ``qep.parse_plan`` ->
    ``qep``; the layer names of the benchmark's metric map."""
    head, _, rest = name.partition(".")
    if head == "core":
        sub = rest.split(".")[0]
        return {
            "engine": "core.engine",
            "transform_plan": "core.transform",
            "pattern_to_sparql": "core.sparqlgen",
            "search_plan": "core.matcher",
        }.get(sub, "core.optimatch")
    return head


def self_time_by_layer(totals: Dict[str, Totals]) -> Dict[str, float]:
    """Self seconds summed per layer."""
    out: Dict[str, float] = defaultdict(float)
    for name, agg in totals.items():
        out[layer_of(name)] += agg.self
    return dict(out)


def chrome_trace(dumps: Iterable[dict]) -> dict:
    """Chrome trace (``chrome://tracing`` / Perfetto) of every dump;
    each server process is one ``pid``, each thread one ``tid``."""
    dumps = list(dumps)
    starts = [s.start for d in dumps for s in d["spans"]]
    origin = min(starts) if starts else 0.0
    events = []
    for dump in dumps:
        for span in dump["spans"]:
            args = {"cpu_ms": round(1000.0 * span.cpu, 3)}
            if span.value is not None:
                args["value"] = span.value
            if span.label:
                args["label"] = span.label
            events.append({
                "name": span.name,
                "cat": layer_of(span.name),
                "ph": "X",
                "ts": round(1e6 * (span.start - origin), 1),
                "dur": round(1e6 * span.wall, 1),
                "pid": dump["pid"],
                "tid": span.thread,
                "args": args,
            })
        events.append({
            "name": "process_name", "ph": "M", "pid": dump["pid"],
            "args": {"name": dump["phase"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
