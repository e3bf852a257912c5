"""Property tests for the NDJSON streaming-ingest protocol.

The wire chunks a stream arrives in are an accident of TCP, the
client's write pattern and (for chunked transfer encoding) its framing
choices — none of which may change what gets ingested.  Hypothesis
drives the reassembly machinery with byte streams split at arbitrary
boundaries and asserts chunking invariance at three layers:

* :class:`~repro.server.stream.LineSplitter` alone (pure function of
  the byte stream);
* :class:`~repro.server.stream.StreamSession` over a real engine
  (ingested plans identical for every chunking);
* a live server over a socket, with arbitrary *chunked
  transfer-encoding* frame boundaries (exercises the front's chunk
  decoder).

Plus the protocol edges: torn final line (400, committed prefix
stays), oversized line (413 the moment the cap is crossed), blank
lines (ignored), CRLF line endings.
"""

import http.client
import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.qep import write_plan
from repro.server import (
    LineSplitter,
    OptImatchServer,
    ServerState,
    StreamError,
    StreamSession,
)
from repro.workload import generate_workload

#: A small corpus of real explain texts (module-level: generating plans
#: inside hypothesis examples would dominate the runtime).
TEXTS = [
    write_plan(plan)
    for plan in generate_workload(6, seed=41, size_sampler=lambda rng: 6)
]


def chunkings(payload: bytes):
    """Strategy: split *payload* at arbitrary byte boundaries."""
    if not payload:
        return st.just([])
    return st.lists(
        st.integers(1, max(1, len(payload))), max_size=24
    ).map(lambda sizes: _split(payload, sizes))


def _split(payload: bytes, sizes):
    chunks, start = [], 0
    for size in sizes:
        if start >= len(payload):
            break
        chunks.append(payload[start : start + size])
        start += size
    if start < len(payload):
        chunks.append(payload[start:])
    return chunks


# ----------------------------------------------------------------------
# Layer 1: LineSplitter
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(
        st.binary(max_size=40).filter(lambda b: b"\n" not in b), max_size=8
    ),
    torn=st.binary(max_size=20).filter(lambda b: b"\n" not in b),
    data=st.data(),
)
def test_line_splitter_chunking_invariance(lines, torn, data):
    payload = b"".join(line + b"\n" for line in lines) + torn
    chunks = data.draw(chunkings(payload))
    splitter = LineSplitter(max_line_bytes=4096)
    seen = []
    for chunk in chunks:
        seen.extend(splitter.feed(chunk))
    assert seen == [line.rstrip(b"\r") for line in lines]
    assert splitter.finish() == torn.rstrip(b"\r")
    assert splitter.lines_seen == len(lines)


@settings(max_examples=100, deadline=None)
@given(overshoot=st.integers(1, 64), data=st.data())
def test_line_splitter_cap_fires_for_every_chunking(overshoot, data):
    """An over-limit line trips the 413 no matter how it arrives —
    including when it never sees its newline."""
    limit = 64
    payload = b"x" * (limit + overshoot)
    chunks = data.draw(chunkings(payload))
    splitter = LineSplitter(max_line_bytes=limit)
    with pytest.raises(StreamError) as excinfo:
        for chunk in chunks:
            splitter.feed(chunk)
        splitter.finish()  # pragma: no cover — feed must have raised
    assert excinfo.value.status == 413
    assert excinfo.value.code == "line_too_large"


def test_line_splitter_under_cap_never_fires():
    splitter = LineSplitter(max_line_bytes=8)
    assert splitter.feed(b"x" * 8 + b"\n" + b"y" * 8) == [b"x" * 8]
    assert splitter.finish() == b"y" * 8


# ----------------------------------------------------------------------
# Layer 2: StreamSession over a real engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def state():
    instance = ServerState(workers=1)
    yield instance
    instance.tool.close()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    count=st.integers(0, 6),
    batch=st.integers(1, 4),
    blanks=st.booleans(),
    crlf=st.booleans(),
    data=st.data(),
)
def test_session_ingest_is_chunking_invariant(
    state, count, batch, blanks, crlf, data
):
    eol = b"\r\n" if crlf else b"\n"
    records = [
        json.dumps({"plan": TEXTS[i], "id": f"p{i}"}).encode("utf-8")
        for i in range(count)
    ]
    payload = b""
    for record in records:
        if blanks:
            payload += eol
        payload += record + eol
    chunks = data.draw(chunkings(payload))

    with state.lock:
        state.tool.clear()
    session = StreamSession(state, {"batch": [str(batch)]})
    for chunk in chunks:
        session.feed(chunk)
    _, response = session.finish()
    assert response.status == 201
    summary = json.loads(response.body)
    assert summary["count"] == count
    # Micro-batching is an implementation knob, not a semantic one.
    assert summary["batches"] == (-(-count // batch) if count else 0)
    with state.lock:
        assert [t.plan_id for t in state.tool.workload] == [
            f"p{i}" for i in range(count)
        ]


def test_session_torn_line_keeps_committed_prefix(state):
    with state.lock:
        state.tool.clear()
    session = StreamSession(state, {"batch": ["1"]})
    line = json.dumps({"plan": TEXTS[0], "id": "kept"}).encode("utf-8")
    session.feed(line + b"\n" + b'"torn')
    with pytest.raises(StreamError) as excinfo:
        session.finish()
    assert excinfo.value.status == 400
    assert excinfo.value.code == "truncated_stream"
    assert excinfo.value.ingested == 1  # the client learns the high-water mark
    with state.lock:
        assert [t.plan_id for t in state.tool.workload] == ["kept"]


# ----------------------------------------------------------------------
# Layer 3: live server, arbitrary chunked-transfer frame boundaries
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_server():
    # A tight per-line cap keeps the 413 test payload tiny.
    instance = OptImatchServer(port=0, max_body_bytes=100_000).start()
    yield instance
    instance.stop()


def _stream_raw_chunks(address, chunks, query="") -> tuple:
    """POST /plans/stream with each element as one transfer chunk."""
    sock = socket.create_connection(address, timeout=30)
    try:
        sock.sendall(
            f"POST /plans/stream{query} HTTP/1.1\r\n"
            "Host: localhost\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "\r\n".encode("ascii")
        )
        try:
            for chunk in chunks:
                if chunk:
                    sock.sendall(b"%x\r\n%s\r\n" % (len(chunk), chunk))
            sock.sendall(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            # The server rejected mid-body (e.g. 413) and stopped
            # reading; its response is already on the wire.
            pass
        reader = sock.makefile("rb")
        status = int(reader.readline().split()[1])
        while reader.readline() not in (b"\r\n", b"\n", b""):
            pass
        body = reader.read()
        reader.close()
        return status, body
    finally:
        sock.close()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(count=st.integers(1, 5), data=st.data())
def test_wire_chunk_boundaries_do_not_change_ingest(small_server, count, data):
    payload = b"".join(
        json.dumps({"plan": TEXTS[i], "id": f"w{i}"}).encode("utf-8") + b"\n"
        for i in range(count)
    )
    chunks = data.draw(chunkings(payload))
    with small_server.state.lock:
        small_server.state.tool.clear()
    status, body = _stream_raw_chunks(small_server.address, chunks)
    assert status == 201
    assert json.loads(body)["count"] == count
    with small_server.state.lock:
        loaded = [t.plan_id for t in small_server.state.tool.workload]
    assert loaded == [f"w{i}" for i in range(count)]


def test_wire_oversized_line_413(small_server):
    with small_server.state.lock:
        small_server.state.tool.clear()
    line = json.dumps({"plan": TEXTS[0], "id": "ok"}).encode("utf-8") + b"\n"
    big = b'"' + b"x" * 200_000 + b'"\n'
    status, body = _stream_raw_chunks(
        small_server.address, [line, big], query="?batch=1"
    )
    assert status == 413
    payload = json.loads(body)
    assert payload["code"] == "line_too_large"
    assert payload["ingested"] == 1  # the committed prefix stays
    with small_server.state.lock:
        assert [
            t.plan_id for t in small_server.state.tool.workload
        ] == ["ok"]


def test_wire_torn_final_line_400(small_server):
    with small_server.state.lock:
        small_server.state.tool.clear()
    line = json.dumps({"plan": TEXTS[0], "id": "ok"}).encode("utf-8") + b"\n"
    status, body = _stream_raw_chunks(
        small_server.address, [line, b'"never-terminated'], query="?batch=1"
    )
    assert status == 400
    payload = json.loads(body)
    assert payload["code"] == "truncated_stream"
    assert payload["ingested"] == 1


def test_wire_bad_chunked_framing_400(small_server):
    sock = socket.create_connection(small_server.address, timeout=30)
    try:
        sock.sendall(
            b"POST /plans/stream HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
            b"ZZZ\r\n"  # not a hex chunk size
        )
        reader = sock.makefile("rb")
        status = int(reader.readline().split()[1])
        reader.close()
    finally:
        sock.close()
    assert status == 400
