"""HTTP server governance: body validation, taxonomy, shedding, liveness."""

import http.client
import json
import threading
import time

import pytest

from repro.client import ClientError, OptImatchClient, ServerUnavailable
from repro.qep.writer import write_plan
from repro.server import OptImatchServer
from repro.testing import chaos
from repro.workload import generate_workload

from tests.robustness.conftest import PATHOLOGICAL_SPARQL, TRIVIAL_SPARQL


@pytest.fixture
def server():
    srv = OptImatchServer(port=0, workers=1)
    srv.start()
    yield srv
    srv.stop(drain_seconds=2.0)


def load_small_workload(srv, count=3):
    for plan in generate_workload(count, seed=5, size_sampler=lambda rng: 8):
        srv.state.tool.add_plan(plan)


def raw_request(srv, method, path, headers=None, body=None):
    """A request with full header control (urllib always fixes them up)."""
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest(method, path)
        for name, value in (headers or {}).items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), json.loads(
            response.read() or b"{}"
        )
    finally:
        conn.close()


def post(srv, path, body=b"", headers=None):
    base = {"Content-Length": str(len(body))}
    base.update(headers or {})
    return raw_request(srv, "POST", path, headers=base, body=body)


class TestBodyValidation:
    def test_missing_content_length_is_411(self, server):
        status, _, payload = raw_request(server, "POST", "/plans")
        assert status == 411
        assert payload["code"] == "length_required"
        assert isinstance(payload["error"], str)

    def test_garbage_content_length_is_400(self, server):
        status, _, payload = raw_request(
            server, "POST", "/plans", headers={"Content-Length": "banana"}
        )
        assert status == 400
        assert payload["code"] == "bad_content_length"

    def test_negative_content_length_is_400(self, server):
        status, _, payload = raw_request(
            server, "POST", "/plans", headers={"Content-Length": "-5"}
        )
        assert status == 400
        assert payload["code"] == "bad_content_length"

    def test_oversized_body_is_413(self, server):
        server.state.max_body_bytes = 64
        body = b"x" * 1000
        status, _, payload = post(server, "/plans", body)
        assert status == 413
        assert payload["code"] == "body_too_large"

    def test_client_sees_413_for_uploads_twice_the_cap(self, server):
        """The server answers 413 and stops reading while the client is
        still sending; the client must read that reply rather than fail
        on the broken pipe."""
        cap = server.state.max_body_bytes
        client = OptImatchClient(server.url, retries=0)
        plan = "x" * (2 * cap)
        batch = ["y" * (cap // 4)] * 9  # ~2.25x the cap as JSON
        for _ in range(5):
            for upload, arg in ((client.upload_plan, plan),
                                (client.upload_plans, batch)):
                with pytest.raises(ClientError) as info:
                    upload(arg)
                assert not isinstance(info.value, ServerUnavailable)
                assert info.value.status == 413
                assert info.value.code == "body_too_large"


class TestErrorTaxonomy:
    def test_unknown_route_is_404_with_code(self, server):
        status, _, payload = raw_request(server, "GET", "/nope")
        assert status == 404
        assert payload["code"] == "not_found"

    def test_parse_error_is_400(self, server):
        status, _, payload = post(server, "/plans", b"not an explain file")
        assert status == 400
        assert payload["code"] == "parse_error"

    def test_unexpected_exception_is_structured_500(self, server, capfd):
        """Satellite: the old handler let non-parse exceptions kill the
        connection; now they come back as a 500 with an error id."""
        explain = write_plan(
            generate_workload(1, seed=1, size_sampler=lambda rng: 6)[0]
        )
        with chaos.injected(
            "transform.transform_plan", exc=RuntimeError("internal boom")
        ):
            status, _, payload = post(
                server, "/plans", explain.encode("utf-8")
            )
        assert status == 500
        assert payload["code"] == "internal"
        assert payload["errorId"]
        assert payload["errorId"] in payload["error"]
        captured = capfd.readouterr()
        assert payload["errorId"] in captured.err
        assert "internal boom" in captured.err

    def test_bad_timeout_parameter_is_400(self, server):
        status, _, payload = post(
            server, "/search/sparql?timeout_ms=soon", TRIVIAL_SPARQL.encode()
        )
        assert status == 400
        assert payload["code"] == "bad_parameter"

    def test_strict_mode_maps_timeout_to_408(self, server):
        load_small_workload(server)
        for plan in generate_workload(
            2, seed=23, size_sampler=lambda rng: 200
        ):
            plan.plan_id = f"big-{plan.plan_id}"
            server.state.tool.add_plan(plan)
        status, _, payload = post(
            server,
            "/search/sparql?timeout_ms=100&strict=1",
            PATHOLOGICAL_SPARQL.encode("utf-8"),
        )
        assert status == 408
        assert payload["code"] == "deadline_exceeded"


class TestLiveness:
    def test_health_responsive_while_kb_run_in_flight(self, server):
        """Regression: reads used to queue behind evaluation under one
        big lock, so /health stalled for the whole KB run."""
        load_small_workload(server)
        chaos.inject("kb.entry", delay=1.5, times=1)
        done = {}

        def slow_run():
            done["result"] = post(server, "/kb/run", b"")

        thread = threading.Thread(target=slow_run)
        thread.start()
        time.sleep(0.2)  # let the KB run reach the stalled entry
        probes = []
        for _ in range(5):
            start = time.monotonic()
            status, _, payload = raw_request(server, "GET", "/health")
            probes.append(time.monotonic() - start)
            assert status == 200
            assert payload["status"] == "ok"
        thread.join(timeout=10)
        assert done["result"][0] == 200
        # were /health serialized behind the run, every probe would take
        # ~1.5s; non-blocking reads answer in milliseconds
        assert min(probes) < 0.1
        assert max(probes) < 1.0

    def test_stats_and_plans_responsive_while_search_in_flight(self, server):
        load_small_workload(server)
        chaos.inject("matcher.search_plan", delay=1.0, times=1)

        thread = threading.Thread(
            target=post, args=(server, "/search/sparql", TRIVIAL_SPARQL.encode())
        )
        thread.start()
        time.sleep(0.2)
        start = time.monotonic()
        status, _, _ = raw_request(server, "GET", "/stats")
        assert status == 200
        status, _, _ = raw_request(server, "GET", "/plans")
        assert status == 200
        assert time.monotonic() - start < 0.5
        thread.join(timeout=10)


class TestShedding:
    def test_excess_load_is_shed_with_503(self, server):
        load_small_workload(server)
        server.state.max_inflight = 1
        chaos.inject("kb.entry", delay=1.0, times=1)
        results = {}

        def first():
            results["first"] = post(server, "/kb/run", b"")

        thread = threading.Thread(target=first)
        thread.start()
        time.sleep(0.25)  # first request holds the only slot
        status, headers, payload = post(server, "/kb/run", b"")
        assert status == 503
        assert payload["code"] == "shed"
        assert int(headers.get("Retry-After", "0")) >= 1
        thread.join(timeout=10)
        assert results["first"][0] == 200  # the in-flight run finished

    def test_concurrent_sheds_under_burst(self, server):
        """Several simultaneous heavy requests: slot holders succeed,
        the rest get 503 — never a hang or a dropped connection."""
        load_small_workload(server)
        server.state.max_inflight = 2
        chaos.inject("kb.entry", delay=0.5, times=2)
        statuses = []
        lock = threading.Lock()

        def run():
            status, _, _ = post(server, "/kb/run", b"")
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=run) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert len(statuses) == 6
        assert set(statuses) <= {200, 503}
        assert statuses.count(200) >= 2


class TestGracefulShutdown:
    def test_stop_drains_inflight_requests(self):
        srv = OptImatchServer(port=0, workers=1)
        srv.start()
        load_small_workload(srv)
        chaos.inject("kb.entry", delay=0.6, times=1)
        results = {}

        def slow_run():
            results["slow"] = post(srv, "/kb/run", b"")

        thread = threading.Thread(target=slow_run)
        thread.start()
        time.sleep(0.2)
        srv.stop(drain_seconds=5.0)  # must wait for the in-flight run
        thread.join(timeout=10)
        assert results["slow"][0] == 200
