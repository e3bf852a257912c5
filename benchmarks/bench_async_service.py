"""Service throughput: streamed ingest vs per-request ingest.

Measures the service-tier claim behind streaming ingest (see
``docs/http-api.md`` and ``docs/operations.md``) and writes the
``async_service`` section of ``BENCH_matching.json``:

* **concurrent small-plan ingest** — N client connections pushing the
  same upsert workload, either one ``POST /plans?replace=1`` per plan
  (keep-alive) or one chunked NDJSON stream per connection
  (``POST /plans/stream``, coalesced ~32 KiB frames, micro-batch
  commits).  The streamed path must sustain at least
  ``INGEST_SPEEDUP_TARGET``x the per-request baseline (report-only
  under ``OPTIMATCH_PERF_SMOKE=1``, like every perf gate in this
  suite).
* **durable streamed ingest** — the same comparison with a journal
  (``fsync_mode="batch"``, ``?ack=sync``): the stream amortizes one
  fsync per micro-batch where the per-request path pays one per plan.
* **concurrent search throughput** — N threads issuing
  ``POST /search/sparql`` against a preloaded workload; reported for
  tracking, not gated.

The ingest pipeline is parse/transform-bound (one core saturates around
~1k size-3 plans/s on the reference box); the streamed path wins by
deleting per-request HTTP framing and per-plan fsyncs, not by adding
parallelism the GIL would deny anyway.
"""

import json
import os
import socket
import threading
import time
from http.client import HTTPConnection

from benchmarks.conftest import write_json_report, write_report
from repro.qep import write_plan
from repro.server import OptImatchServer
from repro.workload import generate_workload

REPORT_ONLY = os.environ.get("OPTIMATCH_PERF_SMOKE") == "1"

INGEST_SPEEDUP_TARGET = 2.0

CONNECTIONS = 8
PLANS_PER_CONNECTION = 120 if REPORT_ONLY else 400
DURABLE_PLANS_PER_CONNECTION = 40 if REPORT_ONLY else 120
SEARCH_REQUESTS_PER_THREAD = 10 if REPORT_ONLY else 40
FRAME_BYTES = 32 * 1024  # coalesce NDJSON lines into ~32 KiB chunk frames
STREAM_BATCH = 64

SPARQL = (
    "PREFIX predURI: <http://optimatch/predicate#>\n"
    'SELECT ?pop1 WHERE { ?pop1 predURI:hasPopType "NLJOIN" }'
)


def _plan_texts(n, size):
    plans = generate_workload(n, seed=2016, size_sampler=lambda rng: size)
    return [write_plan(plan) for plan in plans]


def _start(**kwargs):
    server = OptImatchServer(
        host="127.0.0.1", port=0, workers=4, stream_batch=STREAM_BATCH, **kwargs
    )
    server.start()
    _wait_ready(server.address[1])
    return server


def _wait_ready(port, timeout=10.0):
    """Durable servers answer 503 ``recovering`` until the journal
    replay finishes; wait for /health to report ``ok`` before timing."""
    deadline = time.perf_counter() + timeout
    while True:
        conn = HTTPConnection("127.0.0.1", port)
        try:
            conn.request("GET", "/health")
            payload = json.loads(conn.getresponse().read())
            if payload["status"] == "ok":
                return
        finally:
            conn.close()
        if time.perf_counter() > deadline:
            raise TimeoutError("server never became ready")
        time.sleep(0.02)


def _run_threads(n, target):
    errors = []

    def wrapped(cid):
        try:
            target(cid)
        except Exception as exc:  # pragma: no cover - fail the bench loudly
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(cid,)) for cid in range(n)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def _ingest_per_request(port, texts, count, ack=None):
    """Per-request baseline: one POST /plans per plan, keep-alive."""
    path = "/plans?replace=1" + (f"&ack={ack}" if ack else "")

    def worker(cid):
        conn = HTTPConnection("127.0.0.1", port)
        try:
            for i in range(count):
                body = texts[i % len(texts)].encode()
                conn.request(
                    "POST", path, body=body,
                    headers={"Content-Type": "text/plain"},
                )
                resp = conn.getresponse()
                data = resp.read()
                assert resp.status == 201, (resp.status, data[:200])
        finally:
            conn.close()

    elapsed = _run_threads(CONNECTIONS, worker)
    return CONNECTIONS * count / elapsed


def _ingest_stream(port, texts, count, ack=None):
    """Streamed ingest: chunked NDJSON, coalesced frames."""
    query = f"?replace=1&batch={STREAM_BATCH}" + (f"&ack={ack}" if ack else "")

    def worker(cid):
        sock = socket.create_connection(("127.0.0.1", port))
        try:
            sock.sendall(
                f"POST /plans/stream{query} HTTP/1.1\r\n"
                "Host: bench\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n\r\n".encode()
            )
            frame = bytearray()
            for i in range(count):
                record = {"plan": texts[i % len(texts)]}
                frame += json.dumps(record, separators=(",", ":")).encode()
                frame += b"\n"
                if len(frame) >= FRAME_BYTES:
                    sock.sendall(b"%x\r\n%s\r\n" % (len(frame), bytes(frame)))
                    frame.clear()
            if frame:
                sock.sendall(b"%x\r\n%s\r\n" % (len(frame), bytes(frame)))
            sock.sendall(b"0\r\n\r\n")
            reply = _drain_reply(sock)
            status = int(reply.split(b" ", 2)[1])
            assert status in (200, 201), reply[:200]
        finally:
            sock.close()

    elapsed = _run_threads(CONNECTIONS, worker)
    return CONNECTIONS * count / elapsed


def _drain_reply(sock):
    """Read until the server closes (streams answer with close)."""
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def _search_throughput(port):
    def worker(cid):
        conn = HTTPConnection("127.0.0.1", port)
        try:
            for _ in range(SEARCH_REQUESTS_PER_THREAD):
                conn.request(
                    "POST", "/search/sparql", body=SPARQL.encode(),
                    headers={"Content-Type": "application/sparql-query"},
                )
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200, resp.status
        finally:
            conn.close()

    elapsed = _run_threads(CONNECTIONS, worker)
    return CONNECTIONS * SEARCH_REQUESTS_PER_THREAD / elapsed


def _best_of(n, fn):
    return max(fn() for _ in range(n))


def test_async_service_report(tmp_path):
    texts = _plan_texts(16, size=3)
    lines = [
        f"Service throughput ({CONNECTIONS} connections, "
        f"host cpus={os.cpu_count()})",
    ]
    repeats = 1 if REPORT_ONLY else 2

    # --- In-memory concurrent ingest: per-request vs streamed -------------
    server = _start()
    try:
        port = server.address[1]
        _ingest_per_request(port, texts, 8)  # warm caches
        _ingest_stream(port, texts, 8)
        per_request_pps = _best_of(
            repeats,
            lambda: _ingest_per_request(port, texts, PLANS_PER_CONNECTION),
        )
        stream_pps = _best_of(
            repeats, lambda: _ingest_stream(port, texts, PLANS_PER_CONNECTION)
        )
    finally:
        server.stop()

    ingest_speedup = stream_pps / per_request_pps
    lines += [
        "  concurrent ingest (in-memory, upsert, size-3 plans):",
        f"    per-request:             {per_request_pps:8.1f} plans/s",
        f"    streamed:                {stream_pps:8.1f} plans/s",
        f"    speedup:                 {ingest_speedup:8.2f}x "
        f"(target >= {INGEST_SPEEDUP_TARGET:.1f}x"
        f"{', report-only' if REPORT_ONLY else ''})",
    ]

    # --- Durable ingest: per-plan fsync vs per-batch fsync ----------------
    # One fresh data dir per arm, so both start from an empty journal.
    durable = {}
    for arm, ingest in (("request", _ingest_per_request),
                        ("stream", _ingest_stream)):
        server = _start(data_dir=str(tmp_path / arm), fsync_mode="batch")
        try:
            durable[arm] = ingest(
                server.address[1], texts, DURABLE_PLANS_PER_CONNECTION,
                ack="sync",
            )
        finally:
            server.stop()

    durable_speedup = durable["stream"] / durable["request"]
    lines += [
        "  durable ingest (fsync_mode=batch, ack=sync):",
        f"    per-request:             {durable['request']:8.1f} plans/s",
        f"    streamed:                {durable['stream']:8.1f} plans/s",
        f"    speedup:                 {durable_speedup:8.2f}x",
    ]

    # --- Concurrent search throughput (tracking) --------------------------
    server = _start()
    try:
        port = server.address[1]
        client = HTTPConnection("127.0.0.1", port)
        for text in texts:
            client.request(
                "POST", "/plans", body=text.encode(),
                headers={"Content-Type": "text/plain"},
            )
            resp = client.getresponse()
            assert resp.status == 201, resp.read()[:200]
            resp.read()
        client.close()
        _search_throughput(port)  # warm
        search_rps = _best_of(repeats, lambda: _search_throughput(port))
    finally:
        server.stop()
    lines += [
        f"  concurrent /search/sparql ({len(texts)} plans loaded):",
        f"    throughput:              {search_rps:8.1f} req/s",
    ]

    text = "\n".join(lines) + "\n"
    print("\n" + text)
    write_report("async_service", text)
    write_json_report(
        "async_service",
        {
            "connections": CONNECTIONS,
            "plansPerConnection": PLANS_PER_CONNECTION,
            "ingest": {
                "perRequestPlansPerSec": round(per_request_pps, 1),
                "streamPlansPerSec": round(stream_pps, 1),
                "speedup": round(ingest_speedup, 3),
                "target": INGEST_SPEEDUP_TARGET,
                "thresholdApplies": not REPORT_ONLY,
            },
            "durableIngest": {
                "fsyncMode": "batch",
                "ack": "sync",
                "perRequestPlansPerSec": round(durable["request"], 1),
                "streamPlansPerSec": round(durable["stream"], 1),
                "speedup": round(durable_speedup, 3),
            },
            "concurrentSearch": {"reqPerSec": round(search_rps, 1)},
        },
    )

    if not REPORT_ONLY:
        assert ingest_speedup >= INGEST_SPEEDUP_TARGET, (
            f"streamed ingest {stream_pps:.0f} plans/s is only "
            f"{ingest_speedup:.2f}x the per-request baseline "
            f"{per_request_pps:.0f} plans/s "
            f"(target {INGEST_SPEEDUP_TARGET:.1f}x)"
        )
