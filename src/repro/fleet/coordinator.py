"""The fleet coordinator: registration, leasing, liveness, collection.

One :class:`FleetCoordinator` lives inside a ``slif serve`` daemon (or
directly in-process for tests) and owns the scheduling state of every
submitted sweep.  All operations go through :meth:`~FleetCoordinator.
handle` — a named-operation dispatcher shared by the HTTP surface
(``POST /v1/fleet/<op>``) and the in-process
:class:`~repro.fleet.client.LocalTransport` — so the protocol is
testable without sockets.

Scheduling model (pull-based):

* Workers :func:`register <FleetCoordinator>`, then heartbeat on the
  interval the coordinator dictates; a worker silent for
  ``heartbeat_timeout`` seconds is declared dead, removed from the
  consistent-hash ring, and every chunk it was leasing is requeued
  with the sweep's :class:`~repro.explore.engine.RetryPolicy` backoff
  — the seeded ``delay(chunk, attempt)``, so recovery pacing is
  deterministic.  :meth:`FleetCoordinator.drop_worker` does the same
  at once for a worker known to be gone (a local worker whose pipe
  closed, see :mod:`repro.fleet.local`).
* ``pull`` leases at most one ready chunk per call.  Routing prefers a
  chunk whose sweep's ``session_key`` hashes to the pulling worker
  (``fleet.route.affinity``) — keeping a spec's chunks on one warm
  runner cache — but hands out any ready chunk otherwise
  (``fleet.route.spill``): an idle worker is never left idle for the
  sake of affinity.
* Results are deduplicated by chunk index, first submission wins —
  a dead worker's chunk that both its requeue *and* a late original
  submission complete counts once, which is what keeps fleet fronts
  byte-identical to ``--jobs 1``.
* A deterministic candidate failure (:class:`~repro.errors.
  WorkerError`) is never requeued; chunks past the lowest failing
  index are pruned, matching the sequential engine's surfacing order.
  A chunk that exhausts its retry budget (errors, lease timeouts and
  lost workers all spend it) is reported to the collecting client,
  which evaluates it in-process.

Telemetry: an always-on private registry (independent of the global
obs switch, like the serve layer's RED metrics) records the
``fleet.*`` counter/gauge families that ``/v1/stats`` and ``/metrics``
expose as ``slif_fleet_*``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import FleetError
from repro.explore.engine import RetryPolicy
from repro.explore.plan import Chunk
from repro.fleet.hashring import HashRing
from repro.fleet.protocol import (
    chunk_from_wire,
    payload_fingerprint,
    policy_from_wire,
)
from repro.obs import Registry


@dataclass
class FleetConfig:
    """Coordinator tuning (the ``slif serve --fleet-heartbeat`` knob)."""

    heartbeat_interval: float = 1.0   # workers beat this often
    heartbeat_timeout: float = 4.0    # silent longer than this = dead
    vnodes: int = 64                  # virtual points per worker on the ring
    pull_retry_hint: float = 0.05     # suggested wait when no chunk is ready


@dataclass
class WorkerInfo:
    """One registered worker's liveness and lease bookkeeping."""

    worker_id: str
    pid: int = 0
    host: str = ""
    last_seen: float = 0.0
    leases: int = 0
    chunks_done: int = 0


# chunk lifecycle: pending -> leased -> done | error | exhausted | pruned
_TERMINAL = ("done", "error", "exhausted", "pruned")


@dataclass
class _ChunkState:
    chunk: Chunk
    status: str = "pending"
    attempt: int = 0
    ready_at: float = 0.0
    worker_id: Optional[str] = None
    leased_at: float = 0.0
    result: Optional[Dict[str, Any]] = None       # wire form, verbatim
    error: Optional[str] = None                   # the WorkerError's message


@dataclass
class _Sweep:
    sweep_id: str
    payload: Dict[str, Any]                       # wire form, verbatim
    fingerprint: str
    session_key: str
    policy: RetryPolicy
    collect: bool
    trace_id: Optional[str]
    chunks: Dict[int, _ChunkState]
    delivered: set = field(default_factory=set)   # chunk indexes collected
    reported_exhausted: set = field(default_factory=set)
    timeouts: int = 0
    workers_lost: int = 0
    retry_delays: List[float] = field(default_factory=list)   # one per requeue

    def min_error(self) -> float:
        errors = [
            i for i, s in self.chunks.items() if s.status == "error"
        ]
        return min(errors) if errors else math.inf

    def complete(self) -> bool:
        return all(s.status in _TERMINAL for s in self.chunks.values())


class FleetCoordinator:
    """Scheduling state and protocol handler for one fleet."""

    #: Operations :meth:`handle` dispatches (the ``/v1/fleet/*`` names).
    OPS = (
        "register",
        "heartbeat",
        "pull",
        "payload",
        "result",
        "sweep",
        "collect",
        "cancel",
        "status",
    )

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        fingerprint: Callable[[Dict[str, Any]], str] = payload_fingerprint,
        on_timeout: Callable[[str], None] = lambda worker_id: None,
    ) -> None:
        self.config = config or FleetConfig()
        self.clock = clock
        #: Runner-cache key of a submitted payload.  A coordinator
        #: private to one sweep passes a constant and skips the hash.
        self.fingerprint = fingerprint
        #: Told the id of each worker whose lease timed out.  A remote
        #: worker is left alone (its late result is deduplicated); the
        #: local fleet kills and replaces it.
        self.on_timeout = on_timeout
        self.registry = Registry(enabled=True)   # fleet.* -> slif_fleet_*
        self.ring = HashRing(vnodes=self.config.vnodes)
        self.workers: Dict[str, WorkerInfo] = {}
        self.sweeps: Dict[str, _Sweep] = {}
        self._lock = threading.RLock()
        self._worker_seq = 0
        self._sweep_seq = 0

    # -- dispatch ------------------------------------------------------

    def handle(self, op: str, data: Dict[str, Any]) -> Dict[str, Any]:
        """Run one named operation; the single protocol entry point."""
        if op not in self.OPS:
            raise FleetError(
                f"unknown fleet operation {op!r}; available: {self.OPS}"
            )
        if not isinstance(data, dict):
            raise FleetError(f"fleet {op} body must be a JSON object")
        with self._lock:
            self._reap(self.clock())
            try:
                return getattr(self, f"_op_{op}")(data)
            except KeyError as exc:
                raise FleetError(
                    f"fleet {op} request is missing field {exc}"
                ) from None

    # -- liveness ------------------------------------------------------

    def _reap(self, now: float) -> None:
        """Declare silent workers dead and requeue their leases."""
        dead = [
            info.worker_id
            for info in self.workers.values()
            if now - info.last_seen > self.config.heartbeat_timeout
        ]
        for worker_id in dead:
            self.drop_worker(worker_id)
        # per-chunk lease timeout: the policy's compute budget, enforced
        # coordinator-side since a hung worker still heartbeats
        for sweep in self.sweeps.values():
            timeout = sweep.policy.timeout
            if timeout is None:
                continue
            for state in sweep.chunks.values():
                if state.status == "leased" and now - state.leased_at > timeout:
                    sweep.timeouts += 1
                    self.on_timeout(state.worker_id)
                    self._release_lease(state)
                    self._requeue(sweep, state)
        self._set_gauges()

    def drop_worker(self, worker_id: str) -> bool:
        """Declare ``worker_id`` dead now; True if it was holding a lease."""
        with self._lock:
            del self.workers[worker_id]
            self.ring.remove(worker_id)
            self.registry.inc("fleet.workers.lost")
            held = False
            for sweep in self.sweeps.values():
                for state in sweep.chunks.values():
                    if state.status == "leased" and state.worker_id == worker_id:
                        sweep.workers_lost += 1
                        held = True
                        self._requeue(sweep, state)
            return held

    def _set_gauges(self) -> None:
        self.registry.set_gauge("fleet.workers.alive", len(self.workers))
        self.registry.set_gauge(
            "fleet.sweeps.active",
            sum(1 for s in self.sweeps.values() if not s.complete()),
        )

    def _release_lease(self, state: _ChunkState) -> None:
        if state.worker_id in self.workers:
            self.workers[state.worker_id].leases -= 1
        state.worker_id = None

    def _requeue(self, sweep: _Sweep, state: _ChunkState) -> None:
        """Put a failed/abandoned lease back in line, or exhaust it."""
        state.worker_id = None
        next_attempt = state.attempt + 1
        if next_attempt > sweep.policy.retries:
            state.status = "exhausted"
            self.registry.inc("fleet.chunks.exhausted")
            return
        delay = sweep.policy.delay(state.chunk.index, next_attempt)
        state.attempt = next_attempt
        state.status = "pending"
        state.ready_at = self.clock() + delay
        sweep.retry_delays.append(delay)
        self.registry.inc("fleet.chunks.requeued")

    def _prune_past_error(self, sweep: _Sweep) -> None:
        """Stop leasing chunks past the lowest failing index."""
        min_err = sweep.min_error()
        for state in sweep.chunks.values():
            if state.status == "pending" and state.chunk.index > min_err:
                state.status = "pruned"

    # -- worker-facing operations --------------------------------------

    def _op_register(self, data: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = data.get("worker_id")
        if not worker_id:
            self._worker_seq += 1
            worker_id = f"w{self._worker_seq:04d}-{data.get('pid', 0)}"
        info = WorkerInfo(
            worker_id=worker_id,
            pid=int(data.get("pid", 0)),
            host=str(data.get("host", "")),
            last_seen=self.clock(),
        )
        self.workers[worker_id] = info
        self.ring.add(worker_id)
        self.registry.inc("fleet.workers.registered")
        self._set_gauges()
        return {
            "worker_id": worker_id,
            "heartbeat_interval": self.config.heartbeat_interval,
            "heartbeat_timeout": self.config.heartbeat_timeout,
        }

    def _require_worker(self, data: Dict[str, Any]) -> WorkerInfo:
        worker_id = data["worker_id"]
        info = self.workers.get(worker_id)
        if info is None:
            raise FleetError(
                f"unknown worker {worker_id!r} (dead or never registered); "
                f"re-register and pull again"
            )
        info.last_seen = self.clock()
        return info

    def _op_heartbeat(self, data: Dict[str, Any]) -> Dict[str, Any]:
        self._require_worker(data)
        return {"ok": True}

    def _op_pull(self, data: Dict[str, Any]) -> Dict[str, Any]:
        info = self._require_worker(data)
        now = self.clock()
        affinity_pick = None
        spill_pick = None
        for sweep_id in sorted(self.sweeps):      # submission order (s0001..)
            sweep = self.sweeps[sweep_id]
            min_err = sweep.min_error()
            preferred = self.ring.lookup(sweep.session_key)
            for index in sorted(sweep.chunks):
                state = sweep.chunks[index]
                if (
                    state.status != "pending"
                    or state.ready_at > now
                    or index > min_err
                ):
                    continue
                if preferred == info.worker_id:
                    affinity_pick = (sweep, state)
                    break
                if spill_pick is None:
                    spill_pick = (sweep, state)
            if affinity_pick:
                break
        pick = affinity_pick or spill_pick
        if pick is None:
            return {"lease": None, "retry_in": self.config.pull_retry_hint}
        sweep, state = pick
        self.registry.inc(
            "fleet.route.affinity" if affinity_pick else "fleet.route.spill"
        )
        state.status = "leased"
        state.worker_id = info.worker_id
        state.leased_at = now
        info.leases += 1
        self.registry.inc("fleet.chunks.dispatched")
        from repro.fleet.protocol import chunk_to_wire

        return {
            "lease": {
                "sweep_id": sweep.sweep_id,
                "chunk": chunk_to_wire(state.chunk),
                "attempt": state.attempt,
                "fingerprint": sweep.fingerprint,
                "collect": sweep.collect,
                "trace_id": sweep.trace_id,
            }
        }

    def _op_payload(self, data: Dict[str, Any]) -> Dict[str, Any]:
        sweep = self.sweeps.get(data["sweep_id"])
        if sweep is None:
            raise FleetError(f"unknown sweep {data['sweep_id']!r}")
        return {"payload": sweep.payload, "fingerprint": sweep.fingerprint}

    def _op_result(self, data: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = data["worker_id"]
        if worker_id in self.workers:
            info = self.workers[worker_id]
            info.last_seen = self.clock()
        sweep = self.sweeps.get(data["sweep_id"])
        if sweep is None:
            # cancelled/collected sweep: nothing to do with the result
            return {"ok": False, "reason": "unknown-sweep"}
        state = sweep.chunks.get(int(data["chunk_index"]))
        if state is None:
            raise FleetError(
                f"sweep {sweep.sweep_id} has no chunk {data['chunk_index']}"
            )
        if state.status == "done":
            self.registry.inc("fleet.chunks.duplicates")
            return {"ok": True, "duplicate": True}
        if state.status in ("error", "pruned"):
            # a late submission for a chunk the sweep already wrote off;
            # accepting it could silently un-prune past a surfaced error
            self.registry.inc("fleet.chunks.duplicates")
            return {"ok": True, "duplicate": True}
        if state.worker_id == worker_id:
            self._release_lease(state)
            if worker_id in self.workers:
                self.workers[worker_id].chunks_done += 1
        error = data.get("error")
        if error is not None:
            if error.get("worker_error"):
                # deterministic candidate failure: retrying cannot help
                state.status = "error"
                state.error = str(error.get("message", "worker error"))
                self.registry.inc("fleet.chunks.errors")
                self._prune_past_error(sweep)
            else:
                self._requeue(sweep, state)
            self._set_gauges()
            return {"ok": True}
        state.status = "done"
        state.result = data["result"]
        self.registry.inc("fleet.chunks.completed")
        self._set_gauges()
        return {"ok": True}

    # -- sweep-client operations ---------------------------------------

    def _op_sweep(self, data: Dict[str, Any]) -> Dict[str, Any]:
        chunks = [chunk_from_wire(wire) for wire in data["chunks"]]
        if not chunks:
            raise FleetError("a sweep needs at least one chunk")
        self._sweep_seq += 1
        sweep_id = f"s{self._sweep_seq:04d}"
        payload = data["payload"]
        sweep = _Sweep(
            sweep_id=sweep_id,
            payload=payload,
            fingerprint=self.fingerprint(payload),
            session_key=str(data.get("session_key", "")),
            policy=policy_from_wire(data.get("policy")),
            collect=bool(data.get("collect", False)),
            trace_id=data.get("trace_id"),
            chunks={chunk.index: _ChunkState(chunk) for chunk in chunks},
        )
        self.sweeps[sweep_id] = sweep
        self.registry.inc("fleet.sweeps.submitted")
        self.registry.inc("fleet.chunks.submitted", len(chunks))
        self._set_gauges()
        return {"sweep_id": sweep_id, "fingerprint": sweep.fingerprint}

    def _op_collect(self, data: Dict[str, Any]) -> Dict[str, Any]:
        sweep = self.sweeps.get(data["sweep_id"])
        if sweep is None:
            raise FleetError(f"unknown sweep {data['sweep_id']!r}")
        results: List[Dict[str, Any]] = []
        exhausted: List[int] = []
        for index in sorted(sweep.chunks):
            state = sweep.chunks[index]
            if state.status == "done" and index not in sweep.delivered:
                sweep.delivered.add(index)
                results.append(state.result)
            elif (
                state.status == "exhausted"
                and index not in sweep.reported_exhausted
            ):
                sweep.reported_exhausted.add(index)
                exhausted.append(index)
        error = None
        min_err = sweep.min_error()
        if min_err is not math.inf:
            error = {
                "chunk_index": int(min_err),
                "message": sweep.chunks[int(min_err)].error,
            }
        return {
            "results": results,
            "exhausted": exhausted,
            "error": error,
            "complete": sweep.complete(),
            "workers_alive": len(self.workers),
            "stats": {
                "requeues": len(sweep.retry_delays),
                "retry_delays": sweep.retry_delays,
                "timeouts": sweep.timeouts,
                "workers_lost": sweep.workers_lost,
            },
        }

    def _op_cancel(self, data: Dict[str, Any]) -> Dict[str, Any]:
        sweep = self.sweeps.pop(data["sweep_id"], None)
        if sweep is None:
            return {"ok": False, "reason": "unknown-sweep"}
        for state in sweep.chunks.values():
            if state.status == "leased":
                self._release_lease(state)
        if sweep.complete():
            self.registry.inc("fleet.sweeps.completed")
        else:
            self.registry.inc("fleet.sweeps.cancelled")
        self._set_gauges()
        return {"ok": True}

    # -- observability -------------------------------------------------

    def _op_status(self, data: Dict[str, Any]) -> Dict[str, Any]:
        now = self.clock()
        return {
            "workers_alive": len(self.workers),
            "workers": [
                {
                    "worker_id": info.worker_id,
                    "pid": info.pid,
                    "host": info.host,
                    "last_seen_age": round(now - info.last_seen, 3),
                    "leases": info.leases,
                    "chunks_done": info.chunks_done,
                }
                for _, info in sorted(self.workers.items())
            ],
            "sweeps": [
                {
                    "sweep_id": sweep.sweep_id,
                    "session_key": sweep.session_key,
                    "chunks": len(sweep.chunks),
                    "by_status": self._by_status(sweep),
                    "complete": sweep.complete(),
                }
                for _, sweep in sorted(self.sweeps.items())
            ],
            "heartbeat_interval": self.config.heartbeat_interval,
            "heartbeat_timeout": self.config.heartbeat_timeout,
        }

    @staticmethod
    def _by_status(sweep: _Sweep) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for state in sweep.chunks.values():
            counts[state.status] = counts.get(state.status, 0) + 1
        return counts

    def stats(self) -> Dict[str, Any]:
        """The ``fleet`` section of ``/v1/stats``."""
        with self._lock:
            self._reap(self.clock())
            snapshot = self.registry.snapshot()
            return {
                "workers_alive": len(self.workers),
                "sweeps_active": sum(
                    1 for s in self.sweeps.values() if not s.complete()
                ),
                "counters": snapshot["counters"],
            }
