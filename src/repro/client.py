"""HTTP client for the OptImatch server (stdlib-only, with retries).

The paper's GUI is one client of the server in Figure 4; this module is
the programmatic one.  :class:`OptImatchClient` wraps the JSON API of
:mod:`repro.server` and adds the retry discipline the server's load
shedding expects from well-behaved callers:

* ``503`` (shed) and connection-level failures are retried with
  exponential backoff and full jitter, honoring a ``Retry-After``
  header when the server sends one;
* every other non-2xx response raises :class:`ClientError` immediately
  (retrying a ``400`` or ``422`` would just repeat the mistake);
* per-request deadlines are forwarded via ``?timeout_ms=`` so the
  server clamps and enforces them (see docs/operations.md).

Usage::

    from repro.client import OptImatchClient
    client = OptImatchClient("http://127.0.0.1:8080", retries=4)
    client.upload_plan(explain_text)
    result = client.search_sparql(sparql, timeout_ms=2000)
    if result.get("degraded"):
        ...  # inspect result["errors"]
"""

from __future__ import annotations

import http.client
import json
import math
import random
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple
from urllib.parse import urlencode, urlsplit

from repro.obs.metrics import MetricsRegistry, default_registry


class ClientError(RuntimeError):
    """A non-retryable HTTP error response from the server.

    Carries the HTTP *status*, the machine-readable *code* from the
    server's error taxonomy, and the parsed response *payload*.
    """

    def __init__(self, status: int, message: str, code: str = "", payload=None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.code = code
        self.payload = payload if payload is not None else {}


class _StreamConnectError(ConnectionError):
    """Internal: the stream failed before any plan byte left the client
    (so replaying it cannot duplicate plans)."""


class ServerUnavailable(ClientError):
    """Retries exhausted: the server kept shedding or was unreachable."""

    def __init__(self, message: str, attempts: int, last: Optional[BaseException] = None):
        ClientError.__init__(self, 503, message, code="unavailable")
        self.attempts = attempts
        self.last = last


class OptImatchClient:
    """A small JSON/HTTP client with backoff for the OptImatch server.

    *retries* is the number of attempts **after** the first (so
    ``retries=3`` means up to 4 requests); *backoff_base* seconds
    doubles per attempt up to *backoff_cap*, with full jitter.
    *retry_budget_s* additionally caps the total wall-clock a logical
    request may spend retrying (measured on the injectable *clock* from
    the first attempt): no retry starts after the budget is spent and a
    backoff sleep is clamped to the remaining budget, so the retry loop
    composes with caller deadlines instead of overshooting them.  Pass
    ``rng=random.Random(0)`` (or any object with ``uniform``) for
    deterministic tests, and *sleep* to intercept waiting.
    """

    def __init__(
        self,
        base_url: str,
        retries: int = 3,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        retry_budget_s: Optional[float] = None,
        connect_timeout: float = 10.0,
        rng=None,
        sleep=time.sleep,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"unsupported URL scheme: {parts.scheme!r}")
        netloc = parts.netloc or parts.path  # allow "host:port" bare form
        self._host = netloc.rsplit(":", 1)[0]
        self._port = int(netloc.rsplit(":", 1)[1]) if ":" in netloc else 80
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        if retry_budget_s is not None and retry_budget_s <= 0:
            raise ValueError(
                f"retry_budget_s must be positive: {retry_budget_s}"
            )
        self.retry_budget_s = retry_budget_s
        self.connect_timeout = connect_timeout
        self._rng = rng or random
        self._sleep = sleep
        # The clock only feeds latency metrics, but tests that drive the
        # backoff with a fake ``sleep`` pair it with a fake clock so the
        # observed latencies stay deterministic too.
        self._clock = clock if clock is not None else time.perf_counter
        self.registry = registry or default_registry()
        self._m_requests = self.registry.counter(
            "optimatch_client_requests_total",
            "Client requests by terminal outcome "
            "(ok, error, unavailable).",
            ("method", "outcome"),
        )
        self._m_retries = self.registry.counter(
            "optimatch_client_retries_total",
            "Retry attempts, by what triggered them (shed or connection).",
            ("reason",),
        )
        self._m_latency = self.registry.histogram(
            "optimatch_client_request_seconds",
            "End-to-end request latency in seconds, including backoff "
            "sleeps and all retry attempts, by method.",
            ("method",),
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _send_once(
        self, method: str, path: str, body: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP round-trip; the seam tests stub to inject failures."""
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self.connect_timeout
        )
        try:
            try:
                conn.request(method, path, body=body, headers=headers)
            except (BrokenPipeError, ConnectionResetError):
                # The server may answer before reading the whole body
                # (413 for an over-cap upload) and stop reading; its
                # reply is already on the wire.  A true disconnect makes
                # getresponse() raise, so the retry rules are unchanged.
                pass
            response = conn.getresponse()
            data = response.read()
            return response.status, dict(response.getheaders()), data
        finally:
            conn.close()

    def _backoff_delay(self, attempt: int, retry_after: Optional[str]) -> float:
        if retry_after:
            try:
                value = float(retry_after)
            except ValueError:
                pass  # e.g. an HTTP-date; fall through to backoff
            else:
                # The header is server input: "inf"/"nan" parse as floats
                # but would stall the client forever, and even a finite
                # value must not exceed the caller's configured cap.
                if math.isfinite(value):
                    return min(max(0.0, value), self.backoff_cap)
        cap = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return self._rng.uniform(0, cap)

    def _retry_delay(
        self, started: float, attempt: int, retry_after: Optional[str]
    ) -> Optional[float]:
        """Backoff for the next retry, clamped to the retry budget.

        Returns ``None`` when the budget is already spent — the caller
        must stop retrying and surface :class:`ServerUnavailable`.
        """
        delay = self._backoff_delay(attempt, retry_after)
        if self.retry_budget_s is None:
            return delay
        remaining = self.retry_budget_s - (self._clock() - started)
        if remaining <= 0:
            return None
        return min(delay, remaining)

    def _budget_exhausted(
        self, method: str, path: str, tried: int, last: Optional[BaseException]
    ) -> "ServerUnavailable":
        return ServerUnavailable(
            f"{method} {path} failed after {tried} attempts "
            f"(retry budget of {self.retry_budget_s}s exhausted)",
            attempts=tried,
            last=last,
        )

    def _request(
        self,
        method: str,
        path: str,
        body: Any = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> dict:
        """Instrumented wrapper: one latency sample and one terminal
        outcome (ok / error / unavailable) per logical request, however
        many attempts it took."""
        started = self._clock()
        try:
            result = self._request_attempts(method, path, body, params)
        except ServerUnavailable:
            self._m_requests.labels(method, "unavailable").inc()
            raise
        except ClientError:
            self._m_requests.labels(method, "error").inc()
            raise
        else:
            self._m_requests.labels(method, "ok").inc()
            return result
        finally:
            self._m_latency.labels(method).observe(self._clock() - started)

    def _request_attempts(
        self,
        method: str,
        path: str,
        body: Any = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> dict:
        headers = {}
        if isinstance(body, dict):
            body = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        elif isinstance(body, str):
            body = body.encode("utf-8")
            headers["Content-Type"] = "text/plain; charset=utf-8"
        if body is not None:
            headers["Content-Length"] = str(len(body))
        if params:
            filtered = {k: v for k, v in params.items() if v is not None}
            if filtered:
                path = f"{path}?{urlencode(filtered)}"

        started = self._clock()
        attempts = self.retries + 1
        last_exc: Optional[BaseException] = None
        for attempt in range(attempts):
            try:
                status, resp_headers, data = self._send_once(
                    method, path, body, headers
                )
            except (ConnectionError, OSError, http.client.HTTPException) as exc:
                last_exc = exc
                if attempt + 1 < attempts:
                    delay = self._retry_delay(started, attempt, None)
                    if delay is None:
                        raise self._budget_exhausted(
                            method, path, attempt + 1, last_exc
                        )
                    self._m_retries.labels("connection").inc()
                    self._sleep(delay)
                continue
            if status == 503:
                last_exc = None
                if attempt + 1 < attempts:
                    # Same capped backoff for every transient 503, but
                    # the retry series distinguishes a shedding server
                    # from one that is recovering its journal or
                    # degraded to read-only.
                    payload = self._decode(data)
                    code = (
                        payload.get("code", "")
                        if isinstance(payload, dict)
                        else ""
                    )
                    reason = (
                        code if code in ("recovering", "read_only") else "shed"
                    )
                    retry_after = {
                        k.lower(): v for k, v in resp_headers.items()
                    }.get("retry-after")
                    delay = self._retry_delay(started, attempt, retry_after)
                    if delay is None:
                        raise self._budget_exhausted(
                            method, path, attempt + 1, None
                        )
                    self._m_retries.labels(reason).inc()
                    self._sleep(delay)
                continue
            payload = self._decode(data)
            if 200 <= status < 300:
                return payload
            message = (
                payload.get("error", data.decode("utf-8", "replace"))
                if isinstance(payload, dict)
                else str(payload)
            )
            code = payload.get("code", "") if isinstance(payload, dict) else ""
            raise ClientError(status, message, code=code, payload=payload)
        raise ServerUnavailable(
            f"{method} {path} failed after {attempts} attempts",
            attempts=attempts,
            last=last_exc,
        )

    @staticmethod
    def _decode(data: bytes):
        if not data:
            return {}
        try:
            return json.loads(data)
        except (ValueError, UnicodeDecodeError):
            return {"raw": data.decode("utf-8", "replace")}

    # ------------------------------------------------------------------
    # API surface (mirrors the routes in repro.server)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def plans(self) -> list:
        return self._request("GET", "/plans")["plans"]

    def upload_plan(
        self,
        explain_text: str,
        replace: bool = False,
        ack: Optional[str] = None,
    ) -> dict:
        """POST explain text (or a tree snippet); returns the load reply.

        *replace* upserts by plan id; *ack* = ``"sync"`` asks the server
        to fsync its journal before replying (durability ack)."""
        params: Dict[str, Any] = {}
        if replace:
            params["replace"] = 1
        if ack:
            params["ack"] = ack
        return self._request(
            "POST", "/plans", body=explain_text, params=params or None
        )

    def upload_plans(
        self, explain_texts, ack: Optional[str] = None
    ) -> dict:
        """Batch ingest: atomic in memory and across a server crash."""
        params = {"ack": ack} if ack else None
        return self._request(
            "POST",
            "/plans",
            body={"plans": list(explain_texts)},
            params=params,
        )

    def upload_plans_stream(
        self,
        plans: Iterable,
        ack: Optional[str] = None,
        batch: Optional[int] = None,
        replace: bool = False,
        on_ack=None,
    ) -> dict:
        """Stream plans over ``POST /plans/stream`` as chunked NDJSON.

        *plans* yields explain texts (``str``) or ``{"plan": ..., "id":
        ...}`` records; each becomes one NDJSON line, sent with chunked
        transfer encoding so arbitrarily long streams never buffer
        client-side.  *ack* selects the server's reply shape: ``None``
        (one summary at end of stream), ``"batch"`` (one NDJSON ack per
        committed micro-batch) or ``"sync"`` (acks that are also
        crash-durable).  *on_ack* is called with each parsed ack record.

        Returns the final summary dict (``count``/``batches``/
        ``durability``), with the collected ack records under ``acks``
        when an ack mode is set.

        Retry discipline: connection failures *before any plan is sent*
        and ``503`` replies reporting ``ingested == 0`` are retried with
        the usual backoff — but only when *plans* is a re-iterable
        sequence.  A failure after plans may have been committed is
        never retried (replaying a half-ingested stream would duplicate
        plans); the raised error carries the server's ``ingested`` count
        instead.
        """
        if ack not in (None, "none", "batch", "sync"):
            raise ValueError(f"invalid ack mode: {ack!r}")
        params: Dict[str, Any] = {}
        if ack and ack != "none":
            params["ack"] = ack
        if batch is not None:
            params["batch"] = batch
        if replace:
            params["replace"] = 1
        path = "/plans/stream"
        if params:
            path = f"{path}?{urlencode(params)}"
        reusable = isinstance(plans, (list, tuple))
        attempts = self.retries + 1 if reusable else 1

        started = self._clock()
        outcome = "error"
        try:
            last_exc: Optional[BaseException] = None
            for attempt in range(attempts):
                try:
                    status, resp_headers, data = self._stream_once(
                        path, plans
                    )
                except (ConnectionError, OSError, http.client.HTTPException) as exc:
                    last_exc = exc
                    retryable = (
                        isinstance(exc, _StreamConnectError)
                        and attempt + 1 < attempts
                    )
                    if not retryable:
                        if isinstance(exc, _StreamConnectError):
                            break  # attempts exhausted -> ServerUnavailable
                        raise  # mid-stream failure: never replay
                    delay = self._retry_delay(started, attempt, None)
                    if delay is None:
                        outcome = "unavailable"
                        raise self._budget_exhausted(
                            "POST", path, attempt + 1, last_exc
                        )
                    self._m_retries.labels("connection").inc()
                    self._sleep(delay)
                    continue
                if status == 503:
                    payload = self._decode(data)
                    ingested = (
                        payload.get("ingested", 0)
                        if isinstance(payload, dict)
                        else 0
                    )
                    code = (
                        payload.get("code", "")
                        if isinstance(payload, dict)
                        else ""
                    )
                    if ingested == 0 and attempt + 1 < attempts:
                        last_exc = None
                        reason = (
                            code
                            if code in ("recovering", "read_only")
                            else "shed"
                        )
                        retry_after = {
                            k.lower(): v for k, v in resp_headers.items()
                        }.get("retry-after")
                        delay = self._retry_delay(started, attempt, retry_after)
                        if delay is None:
                            outcome = "unavailable"
                            raise self._budget_exhausted(
                                "POST", path, attempt + 1, None
                            )
                        self._m_retries.labels(reason).inc()
                        self._sleep(delay)
                        continue
                    message = (
                        payload.get("error", "service unavailable")
                        if isinstance(payload, dict)
                        else "service unavailable"
                    )
                    raise ClientError(503, message, code=code, payload=payload)
                result = self._finish_stream(status, data, on_ack)
                outcome = "ok"
                return result
            outcome = "unavailable"
            raise ServerUnavailable(
                f"POST {path} failed after {attempts} attempts",
                attempts=attempts,
                last=last_exc,
            )
        finally:
            self._m_requests.labels("POST", outcome).inc()
            self._m_latency.labels("POST").observe(self._clock() - started)

    def _stream_once(
        self, path: str, plans: Iterable
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One streaming round-trip (connect, send NDJSON, read reply).

        Connection failures before the first plan byte raise
        :class:`_StreamConnectError` (safely retryable); anything later
        propagates as-is.  A send-side failure (server closed early,
        e.g. to shed) still attempts to read the server's reply, which
        is more useful than the raw ``BrokenPipeError``.
        """
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self.connect_timeout
        )
        try:
            try:
                conn.connect()
            except (ConnectionError, OSError) as exc:
                raise _StreamConnectError(exc) from exc
            conn.putrequest("POST", path)
            conn.putheader("Content-Type", "application/x-ndjson")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            send_error: Optional[BaseException] = None
            try:
                for plan in plans:
                    line = self._stream_record(plan)
                    conn.send(b"%x\r\n%s\r\n" % (len(line), line))
                conn.send(b"0\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError) as exc:
                send_error = exc
            try:
                response = conn.getresponse()
                data = response.read()
            except (ConnectionError, OSError, http.client.HTTPException):
                if send_error is not None:
                    raise send_error from None
                raise
            return response.status, dict(response.getheaders()), data
        finally:
            conn.close()

    @staticmethod
    def _stream_record(plan) -> bytes:
        if isinstance(plan, (str, dict)):
            return json.dumps(plan, separators=(",", ":")).encode(
                "utf-8"
            ) + b"\n"
        raise TypeError(
            f"stream records must be str or dict, got {type(plan).__name__}"
        )

    def _finish_stream(self, status: int, data: bytes, on_ack) -> dict:
        """Interpret the terminal reply of a plan stream."""
        if status == 201:  # ack=none summary
            payload = self._decode(data)
            if isinstance(payload, dict):
                return payload
            raise ClientError(status, f"unexpected summary: {payload!r}")
        if status == 200:  # NDJSON ack stream
            acks: List[dict] = []
            summary: Optional[dict] = None
            for raw in data.split(b"\n"):
                if not raw.strip():
                    continue
                try:
                    record = json.loads(raw)
                except ValueError:
                    raise ClientError(
                        status, f"bad ack line: {raw[:200]!r}"
                    )
                if not isinstance(record, dict):
                    raise ClientError(status, f"bad ack line: {record!r}")
                if record.get("done"):
                    summary = record
                elif "error" in record:
                    # The server aborted after acks went out; committed
                    # batches stay, and the record says how many.
                    raise ClientError(
                        record.get("status", 500)
                        if isinstance(record.get("status"), int)
                        else 500,
                        str(record.get("error")),
                        code=str(record.get("code", "")),
                        payload=record,
                    )
                else:
                    acks.append(record)
                    if on_ack is not None:
                        on_ack(record)
            if summary is None:
                raise ClientError(
                    status, "ack stream ended without a done record"
                )
            summary["acks"] = acks
            return summary
        payload = self._decode(data)
        message = (
            payload.get("error", data.decode("utf-8", "replace"))
            if isinstance(payload, dict)
            else str(payload)
        )
        code = payload.get("code", "") if isinstance(payload, dict) else ""
        raise ClientError(status, message, code=code, payload=payload)

    def clear_plans(self) -> dict:
        return self._request("DELETE", "/plans")

    def search(
        self,
        pattern_json: dict,
        timeout_ms: Optional[float] = None,
        strict: bool = False,
    ) -> dict:
        """Search with a Figure-5 pattern JSON object."""
        return self._request(
            "POST",
            "/search",
            body=pattern_json,
            params={
                "timeout_ms": timeout_ms,
                "strict": 1 if strict else None,
            },
        )

    def search_sparql(
        self,
        sparql: str,
        timeout_ms: Optional[float] = None,
        strict: bool = False,
    ) -> dict:
        """Search with raw SPARQL text; returns matches + degraded flag."""
        return self._request(
            "POST",
            "/search/sparql",
            body=sparql,
            params={
                "timeout_ms": timeout_ms,
                "strict": 1 if strict else None,
            },
        )

    def kb_entries(self) -> list:
        return self._request("GET", "/kb/entries")["entries"]

    def add_kb_entry(self, entry_json: dict) -> dict:
        return self._request("POST", "/kb/entries", body=entry_json)

    def run_kb(
        self, timeout_ms: Optional[float] = None, strict: bool = False
    ) -> dict:
        """Run the server's knowledge base over its loaded workload."""
        return self._request(
            "POST",
            "/kb/run",
            params={
                "timeout_ms": timeout_ms,
                "strict": 1 if strict else None,
            },
            body="",
        )
