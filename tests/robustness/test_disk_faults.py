"""Storage/resource-exhaustion matrix: the server must degrade, not lie.

The recovery matrix drives an injected journal-device fault
(``ENOSPC`` / ``EIO`` at the WAL append site) through every fsync
policy and pins the whole failure contract:

* the faulted ingest answers ``503 read_only`` with Retry-After;
* the store latches — later ingest keeps failing, searches keep
  serving, ``/health`` reports ``read_only`` with a human ``reason``;
* the latch is classified: ``/health`` carries ``failureKind`` and
  ``optimatch_durability_errors_total{kind=...}`` increments;
* everything acked **before** the fault survives a restart on the same
  data dir, byte-for-byte at the plan-listing level.

The admission-guard half covers the *preventive* controls that should
fire before the device ever returns ENOSPC: the ``--min-free-bytes``
disk preflight (``503 low_disk``) and the ``--max-rss-bytes`` memory
watermark (``503 overloaded_memory``), both retryable sheds rather
than latches, both probed through the injectable ``_disk_usage`` /
``_rss_probe`` seams instead of actually exhausting the machine.
"""

import collections
import errno
import http.client
import json

import pytest

from repro.server import OptImatchServer
from repro.testing import chaos

from tests.robustness.conftest import TRIVIAL_SPARQL
from tests.robustness.test_server_durability import (
    plan_texts,
    request,
    wait_for_status,
)

FAULTS = {"enospc": errno.ENOSPC, "eio": errno.EIO}


def raw_request(srv, method, path):
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


@pytest.fixture()
def server_factory(tmp_path):
    """Factory for servers on a shared durable data dir."""
    started = []

    def factory(**kwargs):
        srv = OptImatchServer(
            port=0,
            workers=1,
            data_dir=str(tmp_path / "data"),
            **kwargs,
        )
        srv.start()
        started.append(srv)
        return srv

    yield factory
    for srv in started:
        try:
            srv.stop(drain_seconds=2.0)
        except Exception:  # noqa: BLE001 — best-effort teardown
            pass


# ----------------------------------------------------------------------
# The ENOSPC/EIO recovery matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fsync_mode", ["fsync", "batch", "async"])
@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_device_fault_latches_and_acked_data_survives(
    server_factory, fsync_mode, kind
):
    texts = plan_texts(count=3, seed=23)
    srv = server_factory(fsync_mode=fsync_mode)
    wait_for_status(srv, "ok")

    # Acked before the fault: these two plans are the durable promise.
    status, _, payload = request(
        srv, "POST", "/plans?ack=sync",
        json.dumps({"plans": texts[:2]}), "application/json",
    )
    assert status == 201
    assert payload["durability"]["synced"] is True
    acked = payload["planIds"]

    # The device fails on the next journal append.
    chaos.inject(
        "wal.append",
        exc=OSError(FAULTS[kind], f"injected {kind}"),
        times=1,
    )
    try:
        status, headers, payload = request(
            srv, "POST", "/plans?ack=sync", texts[2]
        )
    finally:
        chaos.clear()
    assert status == 503
    assert payload["code"] == "read_only"
    assert "Retry-After" in headers

    # Latched: ingest stays down, reads stay up, health explains why.
    status, _, payload = request(srv, "POST", "/plans", texts[2])
    assert status == 503
    assert payload["code"] == "read_only"
    status, _, health = request(srv, "GET", "/health")
    assert status == 200
    assert health["status"] == "read_only"
    assert kind in health["reason"]
    assert health["durability"]["failureKind"] == kind
    status, _, matches = request(
        srv, "POST", "/search/sparql", TRIVIAL_SPARQL
    )
    assert status == 200
    assert {m["planId"] for m in matches["matches"]} == set(acked)

    # The taxonomy is exported, not just logged.
    status, body = raw_request(srv, "GET", "/metrics")
    assert status == 200
    assert f'optimatch_durability_errors_total{{kind="{kind}"}} 1' in body

    # Restart on the same data dir: every acked plan recovered.
    srv.stop(drain_seconds=2.0)
    srv = server_factory(fsync_mode=fsync_mode)
    wait_for_status(srv, "ok")
    status, _, payload = request(srv, "GET", "/plans")
    assert status == 200
    assert set(acked) <= set(payload["plans"])


def test_fsync_fault_never_acks_unsynced_data(server_factory):
    """An fsync failure on ``?ack=sync`` must answer 503, not a lying
    201: the client retries and at-least-once delivery holds."""
    texts = plan_texts(count=2, seed=29)
    srv = server_factory(fsync_mode="fsync")
    wait_for_status(srv, "ok")
    status, _, _ = request(
        srv, "POST", "/plans?ack=sync", texts[0]
    )
    assert status == 201

    chaos.inject(
        "wal.fsync", exc=OSError(errno.ENOSPC, "injected enospc"), times=1
    )
    try:
        status, _, payload = request(
            srv, "POST", "/plans?ack=sync", texts[1]
        )
    finally:
        chaos.clear()
    assert status == 503
    assert payload["code"] == "read_only"
    _, _, health = request(srv, "GET", "/health")
    assert health["status"] == "read_only"
    assert health["durability"]["failureKind"] == "enospc"


# ----------------------------------------------------------------------
# Admission guards: shed *before* the device or the OOM killer decides
# ----------------------------------------------------------------------
Usage = collections.namedtuple("Usage", "total used free")


def test_disk_preflight_sheds_ingest_with_low_disk(server_factory):
    texts = plan_texts(count=2, seed=31)
    srv = server_factory(min_free_bytes=1024)
    wait_for_status(srv, "ok")
    status, _, _ = request(srv, "POST", "/plans?ack=sync", texts[0])
    assert status == 201

    real_probe = srv.state._disk_usage
    srv.state._disk_usage = lambda path: Usage(10_000, 9_500, 500)
    try:
        status, headers, payload = request(
            srv, "POST", "/plans?ack=sync", texts[1]
        )
        assert status == 503
        assert payload["code"] == "low_disk"
        assert headers["Retry-After"] == "1"
        # A preflight shed is retryable, not a latch: health stays ok
        # and reads keep working.
        _, _, health = request(srv, "GET", "/health")
        assert health["status"] == "ok"
        status, _, _ = request(
            srv, "POST", "/search/sparql", TRIVIAL_SPARQL
        )
        assert status == 200
        status, body = raw_request(srv, "GET", "/metrics")
        assert (
            'optimatch_resource_shed_total{reason="low_disk"} 1' in body
        )
    finally:
        srv.state._disk_usage = real_probe

    # Space freed: ingest resumes with no restart.
    status, _, _ = request(srv, "POST", "/plans?ack=sync", texts[1])
    assert status == 201


def test_memory_watermark_sheds_ingest_with_overloaded_memory(server_factory):
    texts = plan_texts(count=2, seed=37)
    # A watermark the test process can never actually reach (the server
    # shares this process, so a realistic threshold would depend on how
    # much of the suite ran before this test); the injected probe is
    # what pushes RSS "over".
    srv = server_factory(max_rss_bytes=1 << 40)
    wait_for_status(srv, "ok")

    real_probe = srv.state._rss_probe
    srv.state._rss_probe = lambda: 2 << 40
    try:
        status, headers, payload = request(
            srv, "POST", "/plans", texts[0]
        )
        assert status == 503
        assert payload["code"] == "overloaded_memory"
        assert headers["Retry-After"] == "1"
        _, _, health = request(srv, "GET", "/health")
        assert health["status"] == "ok"
        status, body = raw_request(srv, "GET", "/metrics")
        assert (
            'optimatch_resource_shed_total{reason="overloaded_memory"} 1'
            in body
        )
    finally:
        srv.state._rss_probe = real_probe

    status, _, _ = request(srv, "POST", "/plans", texts[0])
    assert status == 201


def test_rss_probe_reports_plausible_value():
    from repro.obs.process import current_rss_bytes

    rss = current_rss_bytes()
    # This test process certainly uses more than 1 MiB and (far) less
    # than 1 TiB; 0 would mean "unknown" which Linux must never report.
    assert 1024 * 1024 < rss < 1024**4
