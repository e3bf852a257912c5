"""HTTP server facade: routes, streaming ingest and protocol edges."""

import http.client
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kb.builtin import make_pattern
from repro.qep import write_plan
from repro.server import OptImatchServer
from repro.workload import generate_workload
from tests.conftest import build_figure1_plan

SPARQL = (
    "PREFIX predURI: <http://optimatch/predicate#>\n"
    'SELECT ?pop1 WHERE { ?pop1 predURI:hasPopType "NLJOIN" }'
)


@pytest.fixture(scope="module")
def server():
    instance = OptImatchServer(port=0).start()
    yield instance
    instance.stop()


@pytest.fixture()
def client(server):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    yield connection
    connection.close()


def _request(client, method, path, body=None):
    client.request(method, path, body=body)
    response = client.getresponse()
    payload = json.loads(response.read().decode("utf-8"))
    return response.status, payload


def _roundtrip(server, method, path, body=None, headers=None):
    """One request on a fresh connection → (status, lowercase headers,
    raw body bytes)."""
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        data = response.read()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            data,
        )
    finally:
        connection.close()


def _ndjson(records) -> bytes:
    return b"".join(json.dumps(r).encode("utf-8") + b"\n" for r in records)


@pytest.fixture(autouse=True)
def clean_workload(client):
    _request(client, "DELETE", "/plans")
    yield


class TestHealthAndPlans:
    def test_health(self, client):
        status, payload = _request(client, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["kbEntries"] >= 4

    def test_stats_endpoint(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        _request(
            client, "POST", "/search", make_pattern("A").to_json()
        )
        status, payload = _request(client, "GET", "/stats")
        assert status == 200
        assert payload["workers"] >= 1
        assert payload["searches"] >= 1
        assert "matchCache" in payload and "timings" in payload

    def test_upload_plan(self, client):
        text = write_plan(build_figure1_plan())
        status, payload = _request(client, "POST", "/plans", text)
        assert status == 201
        assert payload["planId"] == "fig1"
        assert payload["operators"] == 5
        assert payload["triples"] > 20

    def test_list_plans(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        status, payload = _request(client, "GET", "/plans")
        assert status == 200
        assert payload["plans"] == ["fig1"]

    def test_duplicate_upload_rejected(self, client):
        text = write_plan(build_figure1_plan())
        _request(client, "POST", "/plans", text)
        status, payload = _request(client, "POST", "/plans", text)
        assert status == 400
        assert "duplicate" in payload["error"]

    def test_malformed_plan_rejected(self, client):
        status, payload = _request(client, "POST", "/plans", "not a plan")
        assert status == 400

    def test_clear(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        status, _ = _request(client, "DELETE", "/plans")
        assert status == 200
        _, payload = _request(client, "GET", "/plans")
        assert payload["plans"] == []

    def test_unknown_path(self, client):
        status, _ = _request(client, "GET", "/nope")
        assert status == 404


class TestProtocol:
    def test_unknown_method_is_405(self, server):
        status, _, body = _roundtrip(server, "PUT", "/plans", body="")
        assert status == 405
        assert json.loads(body)["code"] == "method_not_allowed"

    def test_shed_while_draining(self, server):
        server.state.draining = True
        try:
            status, headers, body = _roundtrip(
                server, "POST", "/search/sparql", body=SPARQL
            )
        finally:
            server.state.draining = False
        assert status == 503
        assert json.loads(body)["code"] == "shed"
        assert headers["retry-after"] == str(server.state.retry_after_seconds)

    def test_pipelined_sequence_one_connection(self, server):
        """Keep-alive must not change response bytes: the same request
        sequence over one connection and over fresh connections."""
        sequence = (
            ("POST", "/plans", write_plan(build_figure1_plan())),
            ("GET", "/plans", None),
            ("POST", "/search/sparql", SPARQL),
            ("DELETE", "/plans", None),
        )
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        try:
            kept_alive = []
            for method, path, body in sequence:
                connection.request(method, path, body=body)
                kept_alive.append(connection.getresponse().read())
        finally:
            connection.close()
        fresh = [
            _roundtrip(server, method, path, body)[2]
            for method, path, body in sequence
        ]
        assert kept_alive == fresh


class TestSearch:
    def test_search_with_pattern_json(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        pattern_json = make_pattern("A").to_json()
        status, payload = _request(client, "POST", "/search", pattern_json)
        assert status == 200
        matches = payload["matches"]
        assert len(matches) == 1
        assert matches[0]["planId"] == "fig1"
        bindings = matches[0]["occurrences"][0]
        assert bindings["TOP"]["type"] == "NLJOIN"
        assert bindings["BASE"]["table"] == "TPCD.CUST_DIM"

    def test_search_with_raw_sparql(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        sparql = (
            "PREFIX predURI: <http://optimatch/predicate#>\n"
            'SELECT ?pop1 WHERE { ?pop1 predURI:hasPopType "NLJOIN" }'
        )
        status, payload = _request(client, "POST", "/search/sparql", sparql)
        assert status == 200
        assert len(payload["matches"]) == 1

    def test_bad_pattern_rejected(self, client):
        status, payload = _request(client, "POST", "/search", "{bad json")
        assert status == 400


class TestStream:
    def test_stream_ack_none(self, server, client):
        texts = [write_plan(p) for p in generate_workload(5, seed=22)]
        status, _, body = _roundtrip(
            server, "POST", "/plans/stream?batch=2", body=_ndjson(texts)
        )
        assert status == 201
        payload = json.loads(body)
        assert payload["count"] == 5 and payload["batches"] == 3
        _, listing = _request(client, "GET", "/plans")
        assert len(listing["plans"]) == 5

    def test_stream_ack_batch(self, server):
        texts = [write_plan(p) for p in generate_workload(4, seed=23)]
        records = [{"plan": t, "id": f"s{i}"} for i, t in enumerate(texts)]
        status, headers, body = _roundtrip(
            server,
            "POST",
            "/plans/stream?ack=batch&batch=2",
            body=_ndjson(records),
        )
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in body.splitlines() if line.strip()]
        assert lines[-1]["done"] is True
        assert [line["seq"] for line in lines[:-1]] == [1, 2]

    def test_stream_torn_final_line(self, server, client):
        ndjson = _ndjson([write_plan(build_figure1_plan())]) + b'"torn'
        status, _, body = _roundtrip(
            server, "POST", "/plans/stream?batch=1", body=ndjson
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["code"] == "truncated_stream"
        assert payload["ingested"] == 1
        _, listing = _request(client, "GET", "/plans")
        assert listing["plans"] == ["fig1"]  # the committed prefix stays

    def test_stream_bad_record(self, server):
        status, _, body = _roundtrip(
            server, "POST", "/plans/stream", body=b"[1, 2, 3]\n"
        )
        assert status == 400
        assert json.loads(body)["code"] == "bad_stream_record"

    def test_stream_bad_ack_parameter(self, server):
        status, _, body = _roundtrip(
            server, "POST", "/plans/stream?ack=quorum", body=b""
        )
        assert status == 400
        assert json.loads(body)["code"] == "bad_parameter"


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(1, 8),
    batch=st.integers(1, 5),
)
def test_upload_modes_agree(server, seed, count, batch):
    """Hypothesis: a generated workload uploaded one plan per request,
    as one JSON batch, or as an NDJSON stream leaves byte-identical plan
    listings and search results."""
    texts = [
        write_plan(p)
        for p in generate_workload(
            count, seed=seed, size_sampler=lambda rng: rng.randint(5, 15)
        )
    ]
    uploads = {
        "single": [("/plans", text, {}) for text in texts],
        "batch": [(
            "/plans",
            json.dumps({"plans": texts}),
            {"Content-Type": "application/json"},
        )],
        "stream": [(f"/plans/stream?batch={batch}", _ndjson(texts), {})],
    }
    observed = {}
    for mode, requests in uploads.items():
        _roundtrip(server, "DELETE", "/plans")
        for path, body, headers in requests:
            status, _, reply = _roundtrip(server, "POST", path, body, headers)
            assert status == 201, (mode, reply)
        _, _, listing = _roundtrip(server, "GET", "/plans")
        status, _, results = _roundtrip(
            server, "POST", "/search/sparql", body=SPARQL
        )
        assert status == 200
        assert len(json.loads(listing)["plans"]) == count
        observed[mode] = (listing, results)
    assert observed["batch"] == observed["single"]
    assert observed["stream"] == observed["single"]


class TestConcurrency:
    def test_parallel_uploads_and_searches(self, server, client):
        """The server must stay consistent under concurrent uploads and
        searches (the state lock does the serialization)."""
        import threading

        plans = generate_workload(
            8, seed=500, size_sampler=lambda rng: rng.randint(8, 20)
        )
        texts = [write_plan(plan) for plan in plans]
        errors = []

        def upload(text):
            connection = http.client.HTTPConnection(*server.address, timeout=20)
            try:
                connection.request("POST", "/plans", body=text)
                response = connection.getresponse()
                payload = response.read()
                if response.status != 201:
                    errors.append(payload)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=upload, args=(text,)) for text in texts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        _, payload = _request(client, "GET", "/plans")
        assert len(payload["plans"]) == 8


class TestKnowledgeBase:
    def test_list_entries(self, client):
        status, payload = _request(client, "GET", "/kb/entries")
        assert status == 200
        assert "pattern-a" in payload["entries"]

    def test_run_kb(self, client):
        _request(client, "POST", "/plans", write_plan(build_figure1_plan()))
        status, payload = _request(client, "POST", "/kb/run")
        assert status == 200
        assert payload["hits"].get("pattern-a") == 1
        plan_result = payload["plans"][0]
        texts = [
            text
            for result in plan_result["results"]
            for text in result["recommendations"]
        ]
        assert any("TPCD.CUST_DIM" in t for t in texts)

    def test_add_entry_roundtrip(self, client):
        from repro.kb import Recommendation
        from repro.kb.knowledge_base import KBEntry

        entry = KBEntry(
            name="uploaded-entry",
            pattern=make_pattern("D"),
            recommendations=[Recommendation(template="look at @SORT")],
        )
        status, payload = _request(
            client, "POST", "/kb/entries", json.dumps(entry.to_json_object())
        )
        assert status == 201
        _, listing = _request(client, "GET", "/kb/entries")
        assert "uploaded-entry" in listing["entries"]
