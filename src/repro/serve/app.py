"""The HTTP serving layer: ``slif serve``.

A stdlib-only long-running daemon (``http.server.ThreadingHTTPServer``
+ ``json``) exposing the :mod:`repro.api` facade over JSON endpoints
plus a Prometheus scrape target:

========================  ==================================================
``GET  /v1/healthz``      liveness (200 ok / 503 while draining);
                          reports version, uptime and pid
``GET  /v1/stats``        cache, batching, in-flight, per-endpoint RED
                          and (when enabled) obs registry counters
``GET  /metrics``         Prometheus text exposition of the same data
``POST /v1/estimate``     :class:`~repro.api.EstimateRequest` body
``POST /v1/partition``    :class:`~repro.api.PartitionRequest` body
``POST /v1/simulate``     :class:`~repro.api.SimulateRequest` body
``POST /v1/explore``      :class:`~repro.api.ExploreRequest` body
``*    /v1/fleet/<op>``   fleet coordination (worker register/heartbeat/
                          pull/result, sweep submit/collect; GET or POST
                          for ``status``, POST for the rest)
``POST /v1/jobs``         submit a durable :class:`~repro.api.JobRequest`
                          (needs ``--state-dir``); idempotent, 202 on
                          first submission
``GET  /v1/jobs``         list every known job's status
``GET  /v1/jobs/{id}``    poll one job's :class:`~repro.api.JobStatus`
``GET  /v1/jobs/{id}/events``  chunked JSONL stream of progressive
                          front updates until the job ends
========================  ==================================================

Design:

* **Hot path.**  ``/v1/estimate`` resolves its spec once, in the LRU
  :class:`~repro.serve.cache.GraphCache` lookup (parse + annotate once
  per content hash), then evaluates through the
  :class:`~repro.serve.batching.MicroBatcher`: the first request for a
  (session key, mode, concurrent) computes at once, and identical
  requests arriving while it runs share its result.  Nothing waits for
  a batch to fill.
* **Heavy path.**  ``/v1/partition``, ``/v1/simulate`` and
  ``/v1/explore`` dispatch onto the fault-tolerant exploration engine
  under a bounded in-flight counter; when ``--max-inflight`` requests
  are already running the server answers ``429`` with a ``Retry-After``
  computed from the queue depth and the mean recent heavy-request
  latency instead of queueing unboundedly.
* **Durable jobs.**  With ``--state-dir``, heavy requests can be
  submitted as jobs (:mod:`repro.serve.jobs`): persisted before
  evaluation, journaled per chunk, recovered and resumed after a crash
  of the daemon.  Tenants (the ``X-Slif-Tenant`` header) get token
  bucket admission and weighted-fair scheduling.
* **Fleet.**  The server embeds a
  :class:`~repro.fleet.coordinator.FleetCoordinator`; ``slif work``
  daemons register and pull chunks through ``/v1/fleet/*`` and a
  ``slif explore --workers host:port`` sweep submits there.  The
  coordinator's ``slif_fleet_*`` counters join ``/metrics`` and a
  ``fleet`` section joins ``/v1/stats``.
* **Drain.**  SIGTERM (and SIGINT) stop accepting work — new requests
  get ``503`` — while in-flight requests finish, bounded by
  ``--drain-timeout``.  ``/v1/stats``, ``/metrics`` and
  ``/v1/fleet/status`` keep answering so the drain itself is
  observable.
* **Telemetry.**  Every request runs under its own trace id — taken
  from an ``X-Slif-Trace-Id`` request header when the client sent one,
  minted otherwise, always echoed back in the response header — inside
  a ``serve.request`` span, so worker-side spans of a ``/v1/explore``
  dispatch carry the originating request's trace id across process
  boundaries.  A per-endpoint RED registry (request and error counters,
  latency histograms) is always on; it feeds both the ``endpoints``
  section of ``/v1/stats`` and the ``slif_http_*`` families of
  ``/metrics``.  With ``quiet=False`` each request also emits one JSONL
  access-log line on stderr.

Responses are canonical JSON (sorted keys, compact separators), so a
body is byte-identical to ``canonical_json(api.<fn>(request).to_dict())``
computed in-process.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union

from repro import api, obs
from repro.api.types import RequestError, canonical_json
from repro.errors import SlifError
from repro.obs import OBS, Registry
from repro.obs.exposition import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    prometheus_labeled_text,
    prometheus_text,
)
from repro.serve.batching import MicroBatcher
from repro.serve.cache import GraphCache
from repro.serve.jobs import (
    EventStream,
    JobManager,
    TenantShaper,
    validate_tenant,
)
from repro.serve.store import JobStore


@dataclass
class ServerConfig:
    """Tuning knobs of one server instance (the ``slif serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8080
    jobs: int = 1                 # default --jobs for heavy requests
    cache_size: int = 32          # LRU sessions kept (0 = no caching)
    max_inflight: int = 4         # concurrent heavy requests before 429
    drain_timeout: float = 10.0   # seconds to wait for in-flight on drain
    quiet: bool = True            # suppress per-request access log lines
    fleet_heartbeat: float = 1.0  # worker heartbeat interval (timeout 4x)
    state_dir: Optional[str] = None   # durable-job storage (None = off)
    job_workers: Optional[int] = None  # job worker threads (None = max_inflight)
    tenant_rate: float = 0.0      # per-tenant tokens/second (0 = unlimited)
    tenant_burst: float = 8.0     # per-tenant token-bucket capacity
    tenant_weights: Dict[str, float] = field(default_factory=dict)


class _HTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for burst traffic.

    The stdlib default listen backlog of 5 drops connections when a
    client fleet connects at once; 128 rides out the burst.
    """

    daemon_threads = True
    request_queue_size = 128


class SlifServer:
    """The estimation service: routing, cache, batching, backpressure."""

    #: Heavy endpoints: bounded in-flight, 429 + Retry-After beyond it.
    HEAVY = ("partition", "simulate", "explore")

    #: Known endpoints for RED-metric labels (anything else is "other").
    ENDPOINTS = {
        "/v1/healthz": "healthz",
        "/v1/stats": "stats",
        "/metrics": "metrics",
        "/v1/estimate": "estimate",
        "/v1/partition": "partition",
        "/v1/simulate": "simulate",
        "/v1/explore": "explore",
        "/v1/jobs": "jobs",
    }

    def __init__(self, config: ServerConfig) -> None:
        from repro.fleet.coordinator import FleetConfig, FleetCoordinator

        self.config = config
        self.cache = GraphCache(config.cache_size)
        self.batcher = MicroBatcher()
        self.fleet = FleetCoordinator(
            FleetConfig(
                heartbeat_interval=config.fleet_heartbeat,
                heartbeat_timeout=4 * config.fleet_heartbeat,
            )
        )
        # per-endpoint RED metrics, named "<family>.<endpoint>"; always
        # on (independent of the global obs switch) and rendered by
        # both /v1/stats and /metrics
        self.red = Registry(enabled=True)
        self.draining = False
        self.started = time.time()
        self._heavy_slots = threading.BoundedSemaphore(config.max_inflight)
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._heavy_inflight = 0
        self.requests = 0
        self.responses: Dict[str, int] = {}
        # tenant shaping is always on (rate 0 just disables admission
        # limits); the durable-job manager only with --state-dir
        self.shaper = TenantShaper(
            rate=config.tenant_rate,
            burst=config.tenant_burst,
            weights=config.tenant_weights,
        )
        self.jobs: Optional[JobManager] = None
        if config.state_dir:
            self.jobs = JobManager(
                self, JobStore(config.state_dir), self.shaper
            )
            workers = (
                config.job_workers
                if config.job_workers is not None
                else config.max_inflight
            )
            self.jobs.start(workers)
        self.httpd = _HTTPServer((config.host, config.port), _Handler)
        self.httpd.app = self  # type: ignore[attr-defined]

    # -- lifecycle -----------------------------------------------------

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        return self.httpd.server_address[1]

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.1)

    def initiate_drain(self) -> None:
        """Stop accepting work; unblock :meth:`serve_forever`.

        The job manager stops dequeuing immediately — queued-but-
        unstarted jobs stay ``pending`` on disk (picked up by the next
        daemon on the same ``--state-dir``), so a drain completes
        within ``--drain-timeout`` no matter how deep the queue is.
        """
        self.draining = True
        if self.jobs is not None:
            self.jobs.drain()
        threading.Thread(target=self.httpd.shutdown, daemon=True).start()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until no request or job runs (or ``timeout`` elapses)."""
        deadline = None if timeout is None else time.time() + timeout
        while True:
            with self._state_lock:
                idle = self._inflight == 0
            if idle and self.jobs is not None:
                idle = self.jobs.running == 0
            if idle:
                return True
            if deadline is not None and time.time() >= deadline:
                return False
            time.sleep(0.02)

    def close(self) -> None:
        self.httpd.server_close()

    def shutdown(self) -> None:
        """Immediate stop (tests); production drains via signals."""
        self.initiate_drain()
        self.wait_drained(self.config.drain_timeout)
        self.close()

    # -- bookkeeping ---------------------------------------------------

    def _enter_request(self) -> None:
        with self._state_lock:
            self._inflight += 1
            self.requests += 1
        if OBS.enabled:
            OBS.inc("serve.requests")

    def _exit_request(self, status: int) -> None:
        with self._state_lock:
            self._inflight -= 1
            key = str(status)
            self.responses[key] = self.responses.get(key, 0) + 1
        if OBS.enabled:
            OBS.inc(f"serve.responses.{status}")

    def endpoint_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-endpoint RED summary: requests, errors, latency quantiles."""
        snapshot = self.red.snapshot()
        endpoints: Dict[str, Dict[str, Any]] = {}
        for name, value in snapshot["counters"].items():
            family, _, endpoint = name.partition(".")
            if family in ("requests", "errors") and endpoint:
                endpoints.setdefault(endpoint, {})[family] = value
        for name, summary in snapshot["histograms"].items():
            family, _, endpoint = name.partition(".")
            if family == "latency_seconds" and endpoint:
                endpoints.setdefault(endpoint, {})["latency_seconds"] = summary
        for entry in endpoints.values():
            entry.setdefault("requests", 0)
            entry.setdefault("errors", 0)
        return endpoints

    def stats(self) -> Dict[str, Any]:
        with self._state_lock:
            inflight = self._inflight
            heavy = self._heavy_inflight
            requests = self.requests
            responses = dict(self.responses)
        stats: Dict[str, Any] = {
            "uptime_seconds": time.time() - self.started,
            "draining": self.draining,
            "pid": os.getpid(),
            "requests": requests,
            "responses": responses,
            "inflight": inflight,
            "heavy_inflight": heavy,
            "max_inflight": self.config.max_inflight,
            "jobs": self.config.jobs,
            "cache": self.cache.stats(),
            "batch": self.batcher.stats(),
            "endpoints": self.endpoint_stats(),
            "fleet": self.fleet.stats(),
            "tenants": self.shaper.stats(),
        }
        if self.jobs is not None:
            stats["durable_jobs"] = self.jobs.stats()
        if OBS.enabled:
            stats["obs"] = obs.snapshot()
        return stats

    def metrics_text(self) -> str:
        """The ``/metrics`` Prometheus exposition document."""
        process = Registry(enabled=True)
        process.set_gauge("uptime_seconds", time.time() - self.started)
        with self._state_lock:
            process.set_gauge("inflight", self._inflight)
            process.set_gauge("heavy_inflight", self._heavy_inflight)
        process.set_gauge("draining", 1.0 if self.draining else 0.0)
        if self.jobs is not None:
            job_stats = self.jobs.stats()
            process.set_gauge("jobs_queued", job_stats["queued"])
            process.set_gauge("jobs_running", job_stats["running"])
            for state, count in job_stats["states"].items():
                process.set_gauge(f"jobs_state_{state}", count)
        parts = [
            prometheus_text(process, namespace="slif"),
            prometheus_labeled_text(
                self.red, "endpoint", namespace="slif_http"
            ),
            prometheus_text(self.fleet.registry, namespace="slif"),
            prometheus_labeled_text(
                self.shaper.registry, "tenant", namespace="slif_tenant"
            ),
        ]
        if OBS.enabled:
            parts.append(prometheus_text(obs.REGISTRY, namespace="slif"))
        return "".join(parts)

    # -- routing -------------------------------------------------------

    def handle_timed(
        self,
        method: str,
        path: str,
        body: bytes,
        trace_id: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Tuple[int, Union[Dict[str, Any], str], Dict[str, str], str]:
        """Route one request with full telemetry; the HTTP handler's core.

        Installs the request's trace id (the client's
        ``X-Slif-Trace-Id`` if given, a fresh one otherwise) as the
        handling thread's trace context — every span opened while
        handling, including worker-side spans of an explore dispatch,
        carries it — wraps routing in a ``serve.request`` span, records
        the per-endpoint RED metrics, and echoes the trace id in the
        returned headers.  Returns ``(status, payload, headers,
        trace_id)``; in-process tests drive this directly and observe
        exactly what the HTTP path observes.
        """
        tid = trace_id or obs.new_trace_id()
        if path.startswith("/v1/fleet/"):
            endpoint = "fleet"
        elif path.startswith("/v1/jobs"):
            endpoint = "jobs"
        else:
            endpoint = self.ENDPOINTS.get(path, "other")
        started = time.perf_counter()
        status = 500
        obs.set_trace_id(tid)
        try:
            with obs.span(
                "serve.request", method=method, path=path, endpoint=endpoint
            ) as sp:
                try:
                    status, payload, headers = self.handle_request(
                        method, path, body, tenant=tenant
                    )
                except SlifError as exc:
                    status, payload, headers = 400, {"error": str(exc)}, {}
                except Exception as exc:  # noqa: BLE001 - daemon must survive
                    status = 500
                    payload = {"error": f"internal error: {exc}"}
                    headers = {}
                sp.set_attribute("status", status)
        finally:
            obs.set_trace_id(None)
            duration = time.perf_counter() - started
            self.red.inc(f"requests.{endpoint}")
            if status >= 400:
                self.red.inc(f"errors.{endpoint}")
            self.red.observe(f"latency_seconds.{endpoint}", duration)
        headers = dict(headers)
        headers.setdefault("X-Slif-Trace-Id", tid)
        return status, payload, headers, tid

    def handle_request(
        self, method: str, path: str, body: bytes,
        tenant: Optional[str] = None,
    ) -> Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]:
        """Route one request; returns ``(status, payload, headers)``.

        Pure in-process logic (no sockets), so tests can drive it
        directly as well as over HTTP.  A ``str`` payload (only
        ``/metrics``) is sent verbatim; an :class:`EventStream` payload
        is streamed chunked; dict payloads are canonical JSON.
        ``tenant`` is the raw ``X-Slif-Tenant`` header value.
        """
        if self.draining:
            # reads stay answerable during the drain: stats, metrics,
            # fleet status, and job polling (so a client waiting on a
            # job sees it park as pending instead of a dropped socket)
            allowed = path in ("/v1/stats", "/metrics", "/v1/fleet/status")
            if method == "GET" and path.startswith("/v1/jobs"):
                allowed = not path.endswith("/events")
            if not allowed:
                return 503, {"error": "server is draining"}, {
                    "Retry-After": self._retry_after()
                }
        if path.startswith("/v1/fleet/"):
            return self._handle_fleet(method, path, body)
        if path == "/v1/jobs" or path.startswith("/v1/jobs/"):
            return self._handle_jobs(
                method, path, body, validate_tenant(tenant)
            )
        if method == "GET" and path == "/v1/healthz":
            return 200, {
                "status": "ok",
                "version": _version(),
                "uptime_seconds": time.time() - self.started,
                "pid": os.getpid(),
            }, {}
        if method == "GET" and path == "/v1/stats":
            return 200, self.stats(), {}
        if method == "GET" and path == "/metrics":
            return 200, self.metrics_text(), {
                "Content-Type": PROMETHEUS_CONTENT_TYPE
            }
        if method == "POST" and path.startswith("/v1/"):
            kind = path[len("/v1/"):]
            if kind == "estimate":
                return self._handle_estimate(body)
            if kind in self.HEAVY:
                return self._handle_heavy(
                    kind, body, validate_tenant(tenant)
                )
        if path.startswith("/v1/") or path == "/metrics":
            return 405, {
                "error": f"{method} not supported on {path}"
            }, {"Allow": "GET, POST"}
        return 404, {"error": f"unknown path {path!r}"}, {}

    def _handle_fleet(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Dispatch ``/v1/fleet/<op>`` onto the embedded coordinator.

        ``status`` answers GET as well (it is a read, and must stay
        curl-able during a drain); every other op is a POST carrying a
        JSON object.  Malformed messages surface as the coordinator's
        :class:`~repro.errors.FleetError` — a 400 like any other
        :class:`SlifError`.
        """
        op = path[len("/v1/fleet/"):]
        if op not in self.fleet.OPS:
            return 404, {"error": f"unknown fleet op {op!r}"}, {}
        if method != "POST" and not (method == "GET" and op == "status"):
            return 405, {
                "error": f"{method} not supported on {path}"
            }, {"Allow": "GET, POST" if op == "status" else "POST"}
        try:
            try:
                data = json.loads(body.decode("utf-8") or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise RequestError(f"request body is not valid JSON: {exc}")
            if not isinstance(data, dict):
                raise RequestError("fleet message must be a JSON object")
            return 200, self.fleet.handle(op, data), {}
        except SlifError as exc:
            return 400, {"error": str(exc)}, {}

    def _parse(self, body: bytes, cls):
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"request body is not valid JSON: {exc}")
        return cls.from_dict(payload)

    def _handle_estimate(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        try:
            request = self._parse(body, api.EstimateRequest)
            request.validate()
            session, _ = self.cache.get(request.spec)
            return 200, self.batcher.run_grouped(
                session.key,
                (request.mode, request.concurrent),
                lambda: api.estimate_many(
                    [request], session=session
                )[0].to_dict(),
            ), {}
        except SlifError as exc:
            return 400, {"error": str(exc)}, {}

    def _retry_after(self, floor: float = 0.0) -> str:
        """Compute the ``Retry-After`` value for 429/503 responses.

        Estimates how long until capacity frees up: the mean observed
        heavy-request latency (execution ``heavy_seconds`` plus the RED
        ``latency_seconds`` of the heavy endpoints) times the work
        queued ahead, divided by the slot count — clamped into
        ``[1, 30]`` seconds, so an idle fresh server still answers "1".
        ``floor`` raises the estimate (the token-bucket refill wait).
        """
        total = 0.0
        count = 0
        for name, hist in self.red.histograms.items():
            family, _, endpoint = name.partition(".")
            if family == "heavy_seconds" or (
                family == "latency_seconds" and endpoint in self.HEAVY
            ):
                total += hist.sum
                count += hist.count
        mean = total / count if count else 0.0
        with self._state_lock:
            depth = self._heavy_inflight
        if self.jobs is not None:
            depth += self.jobs.queue_depth()
        estimate = mean * max(1, depth) / max(1, self.config.max_inflight)
        seconds = math.ceil(max(estimate, floor, 1.0) - 1e-9)
        return str(min(30, seconds))

    def _handle_heavy(
        self, kind: str, body: bytes, tenant: str
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        allowed, wait = self.shaper.admit(tenant)
        if not allowed:
            return 429, {
                "error": (
                    f"tenant {tenant!r} is over its request rate "
                    f"({self.config.tenant_rate:g}/s); retry shortly"
                ),
            }, {"Retry-After": self._retry_after(floor=wait)}
        if not self._heavy_slots.acquire(blocking=False):
            if OBS.enabled:
                OBS.inc("serve.backpressure.rejected")
            return 429, {
                "error": (
                    f"{self.config.max_inflight} heavy requests already "
                    "in flight; retry shortly"
                ),
            }, {"Retry-After": self._retry_after()}
        with self._state_lock:
            self._heavy_inflight += 1
        started = time.perf_counter()
        try:
            request_cls = {
                "partition": api.PartitionRequest,
                "simulate": api.SimulateRequest,
                "explore": api.ExploreRequest,
            }[kind]
            request = self._parse(body, request_cls)
            if kind == "simulate":
                request.validate_fields()
            else:
                request.validate()
                if request.jobs is None:
                    request.jobs = self.config.jobs
            session, _ = self.cache.get(request.spec)
            fn = getattr(api, kind)
            result = fn(request, session=session).to_dict()
            self.red.observe(
                f"heavy_seconds.{kind}", time.perf_counter() - started
            )
            return 200, result, {}
        except SlifError as exc:
            return 400, {"error": str(exc)}, {}
        finally:
            with self._state_lock:
                self._heavy_inflight -= 1
            self._heavy_slots.release()

    def _handle_jobs(
        self, method: str, path: str, body: bytes, tenant: str
    ) -> Tuple[int, Union[Dict[str, Any], EventStream], Dict[str, str]]:
        """Route ``/v1/jobs`` — submit, list, poll, or stream events."""
        if self.jobs is None:
            return 400, {
                "error": (
                    "durable jobs are disabled: start the server with "
                    "--state-dir to enable them"
                ),
            }, {}
        rest = path[len("/v1/jobs"):]
        if not rest:
            if method == "POST":
                allowed, wait = self.shaper.admit(tenant)
                if not allowed:
                    return 429, {
                        "error": (
                            f"tenant {tenant!r} is over its request rate "
                            f"({self.config.tenant_rate:g}/s); retry "
                            "shortly"
                        ),
                    }, {"Retry-After": self._retry_after(floor=wait)}
                try:
                    job_request = self._parse(body, api.JobRequest)
                    record, created = self.jobs.submit(job_request, tenant)
                except SlifError as exc:
                    return 400, {"error": str(exc)}, {}
                return (202 if created else 200), record.status_dict(), {}
            if method == "GET":
                return 200, {"jobs": self.jobs.list_jobs()}, {}
            return 405, {
                "error": f"{method} not supported on {path}"
            }, {"Allow": "GET, POST"}
        parts = rest[1:].split("/")
        record = self.jobs.get(parts[0])
        if record is None:
            return 404, {"error": f"unknown job {parts[0]!r}"}, {}
        if method != "GET":
            return 405, {
                "error": f"{method} not supported on {path}"
            }, {"Allow": "GET"}
        if len(parts) == 1:
            return 200, record.status_dict(), {}
        if len(parts) == 2 and parts[1] == "events":
            stream = EventStream(self.jobs, record.id)
            return 200, stream, {"Content-Type": stream.content_type}
        return 404, {"error": f"unknown path {path!r}"}, {}


def _version() -> str:
    from repro import __version__

    return __version__


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :meth:`SlifServer.handle_request`."""

    server_version = "slif-serve"
    protocol_version = "HTTP/1.1"
    # Headers and body are separate writes; without these, Nagle plus
    # delayed ACK stalls every keep-alive response ~40 ms on Linux.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024  # coalesce status+headers+body into one packet

    @property
    def app(self) -> SlifServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_request(self, code: str = "-", size: str = "-") -> None:
        pass  # replaced by the structured access log in _respond

    def log_message(self, format: str, *args) -> None:
        if not self.app.config.quiet:
            sys.stderr.write(
                "slif serve: %s %s\n" % (self.address_string(), format % args)
            )

    def _access_log(
        self, method: str, status: int, duration: float, trace_id: str
    ) -> None:
        if self.app.config.quiet:
            return
        line = json.dumps(
            {
                "ts": time.time(),
                "client": self.address_string(),
                "method": method,
                "path": self.path,
                "status": status,
                "duration_ms": round(duration * 1e3, 3),
                "trace_id": trace_id,
            },
            sort_keys=True,
        )
        sys.stderr.write(line + "\n")

    def _respond(self, method: str) -> None:
        app = self.app
        app._enter_request()
        status = 500
        started = time.perf_counter()
        trace_id = ""
        try:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            status, payload, headers, trace_id = app.handle_timed(
                method,
                self.path,
                body,
                trace_id=self.headers.get("X-Slif-Trace-Id"),
                tenant=self.headers.get("X-Slif-Tenant"),
            )
            if isinstance(payload, EventStream):
                self._stream(status, payload, headers)
                return
            if isinstance(payload, str):
                encoded = payload.encode("utf-8")
                content_type = headers.pop(
                    "Content-Type", "text/plain; charset=utf-8"
                )
            else:
                encoded = canonical_json(payload).encode("utf-8")
                content_type = headers.pop(
                    "Content-Type", "application/json"
                )
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(encoded)))
            for key, value in headers.items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage
        finally:
            app._exit_request(status)
            self._access_log(
                method, status, time.perf_counter() - started, trace_id
            )

    def _stream(
        self, status: int, stream: EventStream, headers: Dict[str, str]
    ) -> None:
        """Write an :class:`EventStream` as a chunked HTTP/1.1 response.

        Each JSONL event goes out as its own chunk, flushed
        immediately, so clients see progressive front updates while the
        sweep is still running; the zero-length chunk ends the response
        when the job reaches a terminal state.
        """
        self.send_response(status)
        content_type = headers.pop("Content-Type", stream.content_type)
        self.send_header("Content-Type", content_type)
        self.send_header("Transfer-Encoding", "chunked")
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        for line in stream:
            data = line.encode("utf-8")
            self.wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
            self.wfile.flush()
        self.wfile.write(b"0\r\n\r\n")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._respond("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._respond("POST")


def run_server(config: ServerConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain and exit.

    Returns 0 after a clean SIGTERM drain, 130 for SIGINT — matching
    the CLI's exit-code contract.  Nothing in the daemon reads finished
    spans (``/v1/stats`` and ``/metrics`` read registries), so it keeps
    none while it runs: spans still time requests and carry trace ids,
    and the previous bound comes back on exit.
    """
    received = {"signum": signal.SIGTERM}
    previous: Dict[int, Any] = {}
    kept_spans = obs.TRACER.max_spans
    obs.TRACER.max_spans = 0
    try:
        server = SlifServer(config)

        def _on_signal(signum, frame) -> None:
            received["signum"] = signum
            server.initiate_drain()

        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _on_signal)
        # the bound address goes to *stdout* (and is flushed) so callers
        # that started us with --port 0 can read the ephemeral port back;
        # the human-facing banner stays on stderr with the other logs
        print(
            f"slif serve: listening on http://{server.host}:{server.port}",
            flush=True,
        )
        print(
            f"slif serve: listening on http://{server.host}:{server.port} "
            f"(jobs={config.jobs} cache-size={config.cache_size} "
            f"max-inflight={config.max_inflight})",
            file=sys.stderr,
        )
        if server.jobs is not None:
            print(
                f"slif serve: durable jobs in {config.state_dir} "
                f"(recovered {server.jobs.recovered} unfinished)",
                file=sys.stderr,
            )
        server.serve_forever()
        drained = server.wait_drained(config.drain_timeout)
        server.close()
    finally:
        obs.TRACER.max_spans = kept_spans
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    if drained:
        print("slif serve: drained cleanly, exiting", file=sys.stderr)
    else:
        print(
            f"slif serve: drain timed out after {config.drain_timeout:g}s",
            file=sys.stderr,
        )
    return 130 if received["signum"] == signal.SIGINT else 0
