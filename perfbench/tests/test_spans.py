"""Self time, wait time and the per-layer roll-up of the span recorder."""

import json
import os
import subprocess
import sys

import spans
from spans import Span, SpanRecorder, rollup, self_time_by_layer

HERE = os.path.dirname(os.path.abspath(__file__))


def _span(id, parent, name, start, wall, cpu, thread=1, value=None):
    return Span(id, parent, name, "", thread, start, wall, cpu, value)


def test_rollup_of_a_synthetic_tree():
    # dispatch (10 s wall, 4 s CPU)
    #   transform (5 s wall, 3 s CPU)
    #     parse (1 s wall, 1 s CPU)
    #   record (2 s wall, 0.5 s CPU; 100 bytes)
    # and on another thread a second dispatch whose span ids collide
    # with nothing but whose parent id does: thread-local nesting.
    tree = [
        _span(3, 2, "qep.parse_plan", 1.0, 1.0, 1.0),
        _span(2, 1, "core.transform_plan", 1.0, 5.0, 3.0),
        _span(4, 1, "store.record", 6.0, 2.0, 0.5, value=100),
        _span(1, 0, "server.dispatch", 0.0, 10.0, 4.0),
        _span(9, 0, "server.dispatch", 0.0, 3.0, 3.0, thread=2),
        _span(8, 1, "qep.parse_plan", 0.5, 2.0, 2.0, thread=2),
    ]
    totals = rollup(tree)
    dispatch = totals["server.dispatch"]
    assert dispatch.count == 2
    assert dispatch.wall == 13.0
    # thread 1: 10 - (5 + 2); thread 2's dispatch (id 9) has no child,
    # and its parse names parent 1 *on thread 2*, which does not exist.
    assert dispatch.self == 3.0 + 3.0
    assert dispatch.mean_wait_ms() == 1000.0 * (13.0 - 7.0) / 2
    assert totals["core.transform_plan"].self == 4.0
    assert totals["qep.parse_plan"].count == 2
    assert totals["store.record"].mean_value() == 100
    assert totals["store.record"].mean_wait_ms() == 1500.0

    layers = self_time_by_layer(totals)
    assert layers == {
        "server": 6.0,
        "core.transform": 4.0,
        "qep": 3.0,
        "store": 2.0,
    }
    # Every second of wall time is some layer's self time exactly once:
    # the two roots plus the parse whose parent is not on its thread.
    assert sum(layers.values()) == 10.0 + 3.0 + 2.0

    kept = rollup(tree, keep=lambda s: s.thread == 1)
    assert kept["server.dispatch"].count == 1
    assert kept["server.dispatch"].self == 3.0


def test_recorder_nests_per_thread_and_measures_wait():
    ticks = iter(range(100))
    cpu_ticks = iter([0.0, 0.0, 0.5, 1.0])
    recorder = SpanRecorder(clock=lambda: float(next(ticks)),
                            cpu_clock=lambda: next(cpu_ticks))
    inner = recorder.wrap("inner", lambda x: x * 2, value=lambda a, r, c: r)
    outer = recorder.wrap("outer", lambda x: inner(x) + 1)
    assert outer(3) == 7  # disarmed: no spans, no clock reads
    assert recorder.spans == []
    recorder.armed = True
    assert outer(3) == 7
    inner_span, outer_span = recorder.take()
    assert (inner_span.name, outer_span.name) == ("inner", "outer")
    assert inner_span.parent == outer_span.id and outer_span.parent == 0
    assert inner_span.value == 6
    assert (outer_span.wall, outer_span.cpu) == (3.0, 1.0)
    assert (inner_span.wall, inner_span.cpu) == (1.0, 0.5)
    assert recorder.spans == []


def test_a_failing_call_still_records_its_span():
    recorder = SpanRecorder()
    recorder.armed = True

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("boom", boom, value=lambda a, r, c: 1)
    try:
        wrapped()
    except KeyError:
        pass
    (span,) = recorder.spans
    assert span.value is None and span.parent == 0


def test_install_wraps_every_by_name_import():
    # In a child interpreter: install() patches modules process-wide.
    code = (
        "import json, spans, repro.core.optimatch as o, repro.core.transform as t, "
        "repro.server.threaded as th, repro.server.aserver as a\n"
        "original = t.transform_plan\n"
        "recorder = spans.SpanRecorder()\n"
        "spans.install(recorder)\n"
        "print(json.dumps([o.transform_plan is not original,"
        " o.transform_plan is t.transform_plan,"
        " th.dispatch is a.dispatch,"
        " th.dispatch.__wrapped__.__name__]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"),
         os.path.dirname(HERE)]
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [True, True, True, "dispatch"]


def test_chrome_trace_has_one_event_per_span():
    tree = [_span(1, 0, "server.dispatch", 2.0, 0.5, 0.25, value=10)]
    trace = spans.chrome_trace([{"pid": 7, "phase": "p", "spans": tree}])
    (event, meta) = trace["traceEvents"]
    assert event["ph"] == "X" and event["ts"] == 0.0 and event["dur"] == 500000.0
    assert event["args"] == {"cpu_ms": 250.0, "value": 10}
    assert meta["args"]["name"] == "p"
