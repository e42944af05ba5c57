"""``repro.serve`` — an asyncio HTTP/JSON front-end over the executor.

The service is deliberately framework-free: a small HTTP/1.1 server on
``asyncio.start_server`` (stdlib only), because the repository bakes in
no web framework and the protocol surface is six JSON routes.  The
event loop does admission and I/O; every query, update, and program
evaluation runs off-loop on a bounded worker pool via
``run_in_executor`` so a slow inference call can never stall ``GET
/healthz``.

Routes
------
===== ============================== ===========================================
GET   ``/healthz``                   liveness + admission pressure
GET   ``/metrics``                   Prometheus text: process + tenant counts
GET   ``/tenants``                   tenant listing
POST  ``/tenants/{name}``            create from ``{"source"|"path"|"store"}``
DELETE ``/tenants/{name}``           evict tenant, close its executor
GET   ``/tenants/{name}/stats``      executor stats + breaker board
POST  ``/tenants/{name}/query``      ``{"specs": [...]}`` → batch envelope
POST  ``/tenants/{name}/facts``      ``{"facts": "..."}`` → update envelope
===== ============================== ===========================================

Every body is a versioned JSON envelope (:mod:`repro.serve.envelopes`);
errors reuse the CLI's structured error envelope.  Shed requests get
429/503 with a ``Retry-After`` header.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import P3Error, UnknownLiteralError, UnknownTupleError
from ..telemetry import runtime as telemetry_runtime
from ..telemetry.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry, merge
from .admission import AdmissionController, AdmissionError
from .envelopes import (
    batch_envelope,
    error_envelope,
    health_envelope,
    tenant_envelope,
    tenants_envelope,
    update_envelope,
)
from .tenants import (
    TenantExistsError,
    TenantLimitError,
    TenantRegistry,
    UnknownTenantError,
)

__all__ = ["ProvenanceService", "ServiceHandle", "start_in_background"]

_JSON_CONTENT_TYPE = "application/json; charset=utf-8"
_MAX_HEADER_BYTES = 16384
_HEADER_READ_TIMEOUT = 30.0
#: The fields of a ``POST /tenants/{name}`` body.
_TENANT_FIELDS = frozenset({"source", "path", "store", "persist", "config"})

_STATUS_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _BadRequest(P3Error, ValueError):
    """Malformed request body or parameters (HTTP 400)."""


class UnknownRouteError(P3Error, KeyError):
    """No handler for this method/path pair (HTTP 404)."""

    def __init__(self, method: str, path: str) -> None:
        super().__init__("No route for %s %s" % (method, path))
        self.method = method
        self.path = path


def _status_for(error: BaseException) -> int:
    """Map a raised exception to an HTTP status.

    Order matters: the tenant errors subclass ``KeyError``/``ValueError``
    and must be matched before the generic 400 bucket.
    """
    if isinstance(error, AdmissionError):
        return error.status
    if isinstance(error, (UnknownTenantError, UnknownRouteError,
                          UnknownTupleError, UnknownLiteralError)):
        return 404
    if isinstance(error, (TenantExistsError, TenantLimitError)):
        return 409
    if isinstance(error, (ValueError, KeyError, TypeError, OSError)):
        return 400
    return 500


class ProvenanceService:
    """The long-lived multi-tenant provenance service."""

    def __init__(self, registry: Optional[TenantRegistry] = None,
                 admission: Optional[AdmissionController] = None,
                 max_body_bytes: int = 4 * 1024 * 1024,
                 degraded_abandoned_threshold: Optional[int] = 8) -> None:
        self.registry = registry if registry is not None else TenantRegistry()
        self.admission = (admission if admission is not None
                          else AdmissionController())
        self.max_body_bytes = max_body_bytes
        # Wedged deadline-runner threads (summed across tenants) at which
        # /healthz flips to "degraded": the process is leaking unkillable
        # threads and a load balancer should rotate it out.  None turns
        # the check off.
        self.degraded_abandoned_threshold = degraded_abandoned_threshold
        self._workers = ThreadPoolExecutor(
            max_workers=self.admission.max_concurrent,
            thread_name_prefix="p3-serve")
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_monotonic: Optional[float] = None
        self._connections: set = set()

    # -- lifecycle ---------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8080) -> None:
        """Bind and start accepting connections (non-blocking)."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        self._started_monotonic = time.monotonic()

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("service not started")
        await self._server.serve_forever()

    def begin_drain(self) -> None:
        """Close admission: new requests are shed with 503 + Retry-After.

        In-flight requests keep running; ``/healthz`` reports
        ``"draining"`` (still answered — health probes are not admitted
        work).  The listening socket stays open so clients get an orderly
        503, never a connection reset.  Idempotent.
        """
        self.admission.begin_drain()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for in-flight work to finish; True on a clean drain.

        Call :meth:`begin_drain` first.  Polls admission pressure until
        nothing is in flight or queued, or until ``timeout`` elapses —
        in which case the caller should force shutdown (:meth:`stop`
        cancels whatever is still queued on the worker pool; truly
        wedged inference threads cannot be cancelled, which is what
        ``P3Config(isolation="process")`` is for).
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while self.admission.inflight or self.admission.queued:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.05)
        return True

    async def stop(self) -> None:
        """Stop accepting connections and release the worker pool.

        The tenant registry is owned by the caller (it may outlive the
        HTTP front-end); close it separately.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel idle keep-alive readers; a handler leaves the set only
        # once its writer has closed, so one caught closing is awaited.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._workers.shutdown(wait=False, cancel_futures=True)

    # -- connection handling -----------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # service shutdown with the connection idle
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                if task is not None:
                    self._connections.discard(task)

    async def _handle_one_request(self, reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> bool:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=_HEADER_READ_TIMEOUT)
        except asyncio.TimeoutError:
            return False  # idle keep-alive connection; just drop it
        if not request_line:
            return False
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2))
        except ValueError:
            await self._write_response(
                writer, 400, error_envelope(_BadRequest(
                    "Malformed request line")), close=True)
            return False

        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                await self._write_response(
                    writer, 400, error_envelope(_BadRequest(
                        "Header block too large")), close=True)
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > self.max_body_bytes:
            status = 413 if length > self.max_body_bytes else 400
            await self._write_response(
                writer, status, error_envelope(_BadRequest(
                    "Invalid or oversized Content-Length")), close=True)
            return False
        body = await reader.readexactly(length) if length else b""

        path = target.split("?", 1)[0]
        status, document, extra, route = await self._dispatch(
            method.upper(), path, body)
        self._count_request(route, status)
        keep_alive = headers.get("connection", "").lower() != "close"
        await self._write_response(writer, status, document, extra_headers=extra,
                                   close=not keep_alive)
        return keep_alive

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              document: Any,
                              extra_headers: Optional[Dict[str, str]] = None,
                              close: bool = False) -> None:
        if isinstance(document, bytes):  # pre-rendered (metrics text)
            payload = document
            content_type = (extra_headers or {}).pop(
                "Content-Type", _JSON_CONTENT_TYPE)
        else:
            payload = json.dumps(document).encode("utf-8")
            content_type = _JSON_CONTENT_TYPE
        reason = _STATUS_REASONS.get(status, "Unknown")
        lines = [
            "HTTP/1.1 %d %s" % (status, reason),
            "Content-Type: %s" % content_type,
            "Content-Length: %d" % len(payload),
            "Connection: %s" % ("close" if close else "keep-alive"),
        ]
        for name, value in (extra_headers or {}).items():
            lines.append("%s: %s" % (name, value))
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    def _count_request(self, route: str, status: int) -> None:
        rt = telemetry_runtime()
        if rt.enabled:
            rt.metrics.counter(
                "p3_http_requests_total", "HTTP requests served.",
                ("route", "status")).labels(
                    route=route, status=str(status)).inc()

    # -- routing -----------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes
                        ) -> Tuple[int, Any, Optional[Dict[str, str]], str]:
        """Returns (status, document-or-bytes, extra headers, route label).

        The route label is the *pattern* (``/tenants/{name}/query``),
        not the raw path, so metric cardinality stays bounded.
        """
        parts = [part for part in path.split("/") if part]
        route = path
        try:
            if parts == ["healthz"] and method == "GET":
                document = self._health()
                # Readiness semantics: a draining service answers (no
                # connection reset) but tells the balancer to go away.
                status = 503 if document["status"] == "draining" else 200
                extra = ({"Retry-After": "1"} if status == 503 else None)
                return status, document, extra, "/healthz"
            if parts == ["metrics"] and method == "GET":
                body_bytes, content_type = self._metrics()
                return 200, body_bytes, {"Content-Type": content_type}, \
                    "/metrics"
            if parts == ["tenants"]:
                if method != "GET":
                    raise _BadRequest("Use POST /tenants/{name} to create")
                return 200, tenants_envelope(self.registry), None, "/tenants"
            if len(parts) == 2 and parts[0] == "tenants":
                route = "/tenants/{name}"
                name = parts[1]
                if method == "POST":
                    return await self._create_tenant(name, body)
                if method == "DELETE":
                    self.registry.remove(name)
                    return 200, {"version": 1, "kind": "tenant_removed",
                                 "tenant": name}, None, route
                raise _BadRequest("Unsupported method %s" % method)
            if len(parts) == 3 and parts[0] == "tenants":
                name, action = parts[1], parts[2]
                route = "/tenants/{name}/%s" % action
                if action == "stats" and method == "GET":
                    return 200, tenant_envelope(self.registry.get(name)), \
                        None, route
                if action == "query" and method == "POST":
                    return await self._query(name, body)
                if action == "facts" and method == "POST":
                    return await self._facts(name, body)
            raise UnknownRouteError(method, path)
        except AdmissionError as error:
            retry_after = max(1, math.ceil(error.retry_after))
            return (error.status, error_envelope(error),
                    {"Retry-After": str(retry_after)}, route)
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 — everything gets an envelope
            return _status_for(error), error_envelope(error), None, route

    # -- handlers ----------------------------------------------------

    def _health(self) -> dict:
        uptime = (time.monotonic() - self._started_monotonic
                  if self._started_monotonic is not None else 0.0)
        return health_envelope(
            self.registry, uptime, self.admission,
            abandoned_threshold=self.degraded_abandoned_threshold)

    def metrics_registries(self) -> List[MetricsRegistry]:
        """Admission's registry and each resident tenant's executor and
        planner registries."""
        registries = [self.admission.metrics]
        for tenant in self.registry.tenants():
            registries.extend(tenant.system.metrics_registries())
        return registries

    def _metrics(self) -> Tuple[bytes, str]:
        text = merge([telemetry_runtime().metrics,
                      *self.metrics_registries()]).to_prometheus()
        return text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE

    def _json_body(self, body: bytes) -> Dict[str, Any]:
        if not body:
            raise _BadRequest("Request body required")
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest("Request body is not valid JSON: %s"
                              % error) from error
        if not isinstance(document, dict):
            raise _BadRequest("Request body must be a JSON object")
        return document

    async def _create_tenant(self, name: str, body: bytes
                             ) -> Tuple[int, dict, None, str]:
        document = self._json_body(body)
        unknown = sorted(set(document) - _TENANT_FIELDS)
        if unknown:
            raise _BadRequest(
                "Unknown tenant field(s) %s; a tenant takes one of 'source', "
                "'path' and 'store', and optionally 'persist' and 'config'"
                % ", ".join(repr(key) for key in unknown))
        source = document.get("source")
        path = document.get("path")
        store = document.get("store")
        persist = document.get("persist", False)
        if not isinstance(persist, bool):
            raise _BadRequest("'persist' must be a boolean")
        overrides = document.get("config")
        if overrides is not None and not isinstance(overrides, dict):
            raise _BadRequest("'config' must be a JSON object")
        loop = asyncio.get_running_loop()
        async with self.admission.admit():
            tenant = await loop.run_in_executor(
                self._workers, lambda: self.registry.create(
                    name, source=source, path=path, store=store,
                    persist=persist, config_overrides=overrides))
        return 201, tenant_envelope(tenant), None, "/tenants/{name}"

    async def _query(self, name: str, body: bytes
                     ) -> Tuple[int, dict, None, str]:
        document = self._json_body(body)
        specs = document.get("specs")
        if not isinstance(specs, list) or not specs:
            raise _BadRequest("'specs' must be a non-empty list of query "
                              "specs (strings or objects)")
        tenant = self.registry.get(name)
        loop = asyncio.get_running_loop()
        async with self.admission.admit(tenant):
            batch = await loop.run_in_executor(
                self._workers, lambda: tenant.run_batch(specs))
        return (200, batch_envelope(name, tenant.system.epoch, batch), None,
                "/tenants/{name}/query")

    async def _facts(self, name: str, body: bytes
                     ) -> Tuple[int, dict, None, str]:
        document = self._json_body(body)
        facts = document.get("facts")
        if not isinstance(facts, str) or not facts.strip():
            raise _BadRequest("'facts' must be a non-empty program string")
        tenant = self.registry.get(name)
        loop = asyncio.get_running_loop()
        async with self.admission.admit(tenant):
            delta, epoch = await loop.run_in_executor(
                self._workers, lambda: tenant.add_facts(facts))
        return (200, update_envelope(name, epoch, delta), None,
                "/tenants/{name}/facts")


class ServiceHandle:
    """A service running on a private event-loop thread.

    Built by :func:`start_in_background` for tests and the chaos
    harness; ``stop()`` is idempotent and joins the thread.
    """

    def __init__(self, service: ProvenanceService, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread, port: int) -> None:
        self.service = service
        self.port = port
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def base_url(self) -> str:
        return "http://127.0.0.1:%d" % self.port

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True

        async def _shutdown() -> None:
            await self.service.stop()
            self._loop.stop()

        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(_shutdown()))
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_in_background(service: ProvenanceService, host: str = "127.0.0.1",
                        port: int = 0) -> ServiceHandle:
    """Run ``service`` on a dedicated thread; returns once it is bound."""
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    failure: Dict[str, BaseException] = {}

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(service.start(host, port))
        except BaseException as error:  # surfaced to the caller below
            failure["error"] = error
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="p3-serve-loop", daemon=True)
    thread.start()
    ready.wait(timeout=30.0)
    if "error" in failure:
        raise failure["error"]
    return ServiceHandle(service, loop, thread, service.port)
