"""The fleet worker: ``slif work`` — register, pull, evaluate, submit.

A :class:`FleetWorker` leases one chunk at a time from a coordinator,
evaluates it on a :class:`~repro.explore.worker.ChunkRunner`, and
submits the result.  The same loop serves a ``slif work`` daemon over
HTTP and each local worker process of ``--jobs N`` over a pipe (see
:mod:`repro.fleet.local`).  Runners are cached (LRU, by payload
fingerprint) so every chunk of one sweep after the first reuses the
worker's already-built graph and warm memoized estimators — the cache
the coordinator's consistent-hash routing is keeping hot.

Telemetry mirrors the in-process path chunk for chunk: when the sweep
asked for collection, the worker records an ``explore.chunk`` span
(chunk, attempt, candidates, pid, worker id) under the submitting command's
trace id and ships a :func:`repro.obs.capture` snapshot on the result,
which the sweep side absorbs — so ``--stats`` after a distributed run
reflects every box in the fleet.  In-process workers (threads in
tests) record into a private registry/tracer instead of resetting the
process-global one out from under the host.

Fault injection: the worker calls
:func:`repro.faults.maybe_inject` with the leased ``(chunk, attempt)``
before evaluating — which is how the ``worker-down`` fault kind kills
a whole daemon mid-sweep, and ``crash`` a local worker.  The
coordinator's heartbeat reaping (or, locally, the closed pipe) then
requeues the lease elsewhere.

``run_worker`` wraps the loop as the ``slif work`` process: a
heartbeat thread, SIGTERM/SIGINT handling (exit 0/130), and a tiny
status HTTP listener (``GET /healthz``, ``GET /stats``) whose actually
bound port is printed to stdout — ``--port 0`` stays observable for
CI orchestration.
"""

from __future__ import annotations

import collections
import json
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from repro import obs
from repro.errors import FleetError, SlifError, WorkerError
from repro.explore.worker import ChunkResult, ChunkRunner
from repro.fleet.protocol import (
    chunk_from_wire,
    payload_from_wire,
    result_to_wire,
)
from repro.obs import Registry, Tracer


@dataclass
class WorkerConfig:
    """The ``slif work`` flags."""

    coordinator: str              # host:port or URL of the slif serve fleet
    host: str = "127.0.0.1"       # status-listener bind address
    port: int = 0                 # status-listener port (0 = ephemeral)
    poll_seconds: float = 0.05    # idle wait between empty pulls
    cache_size: int = 4           # warm ChunkRunners kept (by payload)
    worker_id: Optional[str] = None
    quiet: bool = True


class FleetWorker:
    """One worker's pull-evaluate-submit loop against a transport."""

    #: How a result travels to the coordinator: the JSON-safe wire form.
    encode = staticmethod(result_to_wire)

    def __init__(
        self,
        transport,
        *,
        worker_id: Optional[str] = None,
        cache_size: int = 4,
        host: str = "",
        isolate_obs: bool = True,
    ) -> None:
        self.transport = transport
        self.worker_id = worker_id
        self.host = host or socket.gethostname()
        self.cache_size = max(1, cache_size)
        #: True for the daemon (own process: the global obs registry is
        #: ours to reset around each chunk); False
        #: for in-process workers, which must not clobber the host
        #: process's telemetry and use a private registry/tracer.
        self.isolate_obs = isolate_obs
        self.heartbeat_interval = 1.0
        self._runners: "collections.OrderedDict[str, ChunkRunner]" = (
            collections.OrderedDict()
        )
        self._stats_lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "chunks_done": 0,
            "candidates": 0,
            "errors": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "empty_pulls": 0,
        }

    def _bump(self, name: str, value: int = 1) -> None:
        with self._stats_lock:
            self.stats[name] = self.stats.get(name, 0) + value

    # -- membership ----------------------------------------------------

    def register(self) -> str:
        response = self.transport.call(
            "register",
            {
                "worker_id": self.worker_id,
                "pid": os.getpid(),
                "host": self.host,
            },
        )
        self.worker_id = response["worker_id"]
        self.heartbeat_interval = float(
            response.get("heartbeat_interval", 1.0)
        )
        return self.worker_id

    def heartbeat(self) -> None:
        self.transport.call("heartbeat", {"worker_id": self.worker_id})

    # -- the work loop -------------------------------------------------

    def run_one(self) -> bool:
        """Pull and process at most one chunk; False when none was ready.

        An unknown-worker rejection (the coordinator reaped us during a
        long chunk, or restarted) triggers one re-register + retry, so
        a worker survives coordinator-side amnesia transparently.
        """
        try:
            response = self.transport.call(
                "pull", {"worker_id": self.worker_id}
            )
        except FleetError:
            self.register()
            response = self.transport.call(
                "pull", {"worker_id": self.worker_id}
            )
        lease = response.get("lease")
        if not lease:
            self._bump("empty_pulls")
            return False
        self._process(lease)
        return True

    def _runner_for(self, sweep_id: str, fingerprint: str) -> ChunkRunner:
        runner = self._runners.get(fingerprint)
        if runner is not None:
            self._runners.move_to_end(fingerprint)
            self._bump("cache_hits")
            return runner
        self._bump("cache_misses")
        response = self.transport.call("payload", {"sweep_id": sweep_id})
        runner = ChunkRunner(payload_from_wire(response["payload"]))
        self._runners[response.get("fingerprint", fingerprint)] = runner
        while len(self._runners) > self.cache_size:
            self._runners.popitem(last=False)
        return runner

    def _process(self, lease: Dict[str, Any]) -> None:
        from repro.faults import maybe_inject

        chunk = chunk_from_wire(lease["chunk"])
        attempt = int(lease.get("attempt", 0))
        submission: Dict[str, Any] = {
            "worker_id": self.worker_id,
            "sweep_id": lease["sweep_id"],
            "chunk_index": chunk.index,
            "attempt": attempt,
        }
        try:
            # a worker-down (or crash) fault exits the process right
            # here — mid-lease, heartbeats stop, the coordinator reaps
            poison = maybe_inject(chunk.index, attempt)
            if poison is not None:
                raise SlifError(
                    f"injected fault poisoned chunk {chunk.index} "
                    f"(attempt {attempt})"
                )
            runner = self._runner_for(lease["sweep_id"], lease["fingerprint"])
            result = self._evaluate(runner, chunk, attempt, lease)
        except WorkerError as exc:
            self._bump("errors")
            submission["error"] = {"message": str(exc), "worker_error": True}
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            self._bump("errors")
            submission["error"] = {
                "message": f"{type(exc).__name__}: {exc}",
                "worker_error": False,
            }
        else:
            self._bump("chunks_done")
            self._bump("candidates", result.candidates)
            submission["result"] = self.encode(result)
        self.transport.call("result", submission)

    def _evaluate(
        self,
        runner: ChunkRunner,
        chunk,
        attempt: int,
        lease: Dict[str, Any],
    ) -> ChunkResult:
        """Run one chunk, capturing its telemetry when the sweep asked."""
        if not lease.get("collect"):
            return runner.run_chunk(chunk)
        attributes = dict(
            chunk=chunk.index,
            attempt=attempt,
            candidates=len(chunk),
            worker_pid=os.getpid(),
            worker=self.worker_id,
        )
        if self.isolate_obs:
            obs.reset()
            obs.enable()
            obs.set_trace_id(lease.get("trace_id"))
            try:
                with obs.span("explore.chunk", **attributes):
                    result = runner.run_chunk(chunk)
                result.worker_pid = os.getpid()
                result.obs = obs.capture()
                return result
            finally:
                obs.set_trace_id(None)
                obs.reset()
                obs.disable()
        # in-process worker: private collectors, host telemetry untouched
        registry = Registry(enabled=True)
        tracer = Tracer(registry=registry)
        tracer.set_trace_id(lease.get("trace_id"))
        with tracer.span("explore.chunk", **attributes):
            result = runner.run_chunk(chunk)
        registry.inc("explore.worker.chunks")
        registry.inc("explore.worker.candidates", result.candidates)
        result.worker_pid = os.getpid()
        result.obs = {
            "registry": registry.dump(),
            "spans": tracer.export_spans(),
            "dropped": tracer.dropped,
        }
        return result

    # -- the daemon loop -----------------------------------------------

    def run(
        self,
        stop: Optional[threading.Event] = None,
        poll_seconds: float = 0.05,
    ) -> None:
        """Register (if needed) and work until ``stop`` is set.

        Heartbeats run on their own thread at the coordinator-dictated
        interval; transport errors there are swallowed (the next pull
        re-registers).  Coordinator outages back the loop off rather
        than killing the daemon, so workers ride out restarts.
        """
        stop = stop or threading.Event()
        if self.worker_id is None:
            self.register()

        def beat() -> None:
            while not stop.wait(self.heartbeat_interval):
                try:
                    self.heartbeat()
                except FleetError:
                    pass

        heartbeats = threading.Thread(target=beat, daemon=True)
        heartbeats.start()
        backoff = poll_seconds
        while not stop.is_set():
            try:
                worked = self.run_one()
            except FleetError:
                stop.wait(min(backoff, 2.0))
                backoff = min(backoff * 2, 2.0)
                continue
            backoff = poll_seconds
            if not worked:
                stop.wait(poll_seconds)


# ----------------------------------------------------------------------
# the status listener and the `slif work` entry point


class _StatusHandler(BaseHTTPRequestHandler):
    """``GET /healthz`` and ``GET /stats`` on the worker's own port."""

    server_version = "slif-work"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        worker: FleetWorker = self.server.worker  # type: ignore[attr-defined]
        if self.path == "/healthz":
            payload: Dict[str, Any] = {
                "status": "ok",
                "worker_id": worker.worker_id,
                "pid": os.getpid(),
            }
        elif self.path == "/stats":
            with worker._stats_lock:
                payload = dict(worker.stats)
            payload["worker_id"] = worker.worker_id
            payload["runners_cached"] = len(worker._runners)
        else:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def run_worker(config: WorkerConfig) -> int:
    """The ``slif work`` daemon: returns 0 on SIGTERM, 130 on SIGINT.

    Prints the status listener's actually bound address to *stdout*
    (flushed) before entering the loop, so orchestration that started
    the daemon with ``--port 0`` can read the ephemeral port back.
    """
    from repro.fleet.client import HttpTransport
    from repro.fleet.protocol import FleetSpec

    spec = FleetSpec.coerce(config.coordinator)
    worker = FleetWorker(
        HttpTransport(spec.url),
        worker_id=config.worker_id,
        cache_size=config.cache_size,
        isolate_obs=True,
    )
    # register with patience: the coordinator may still be starting up
    last_error: Optional[Exception] = None
    for attempt in range(50):
        try:
            worker.register()
            break
        except FleetError as exc:
            last_error = exc
            time.sleep(0.2)
    else:
        print(f"slif work: cannot register: {last_error}", file=sys.stderr)
        return 2

    status_server = ThreadingHTTPServer(
        (config.host, config.port), _StatusHandler
    )
    status_server.daemon_threads = True
    status_server.worker = worker  # type: ignore[attr-defined]
    status_thread = threading.Thread(
        target=status_server.serve_forever,
        kwargs={"poll_interval": 0.1},
        daemon=True,
    )
    status_thread.start()
    host, port = status_server.server_address[:2]
    print(f"slif work: status on http://{host}:{port}", flush=True)
    print(
        f"slif work: registered as {worker.worker_id} with {spec.url} "
        f"(heartbeat {worker.heartbeat_interval:g}s)",
        file=sys.stderr,
    )

    stop = threading.Event()
    received = {"signum": signal.SIGTERM}

    def _on_signal(signum, frame) -> None:
        received["signum"] = signum
        stop.set()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
        signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
    }
    try:
        worker.run(stop, poll_seconds=config.poll_seconds)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        status_server.shutdown()
        status_server.server_close()
    print(
        f"slif work: {worker.worker_id} stopping "
        f"({worker.stats['chunks_done']} chunks done)",
        file=sys.stderr,
    )
    return 130 if received["signum"] == signal.SIGINT else 0
