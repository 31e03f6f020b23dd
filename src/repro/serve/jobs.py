"""Durable async jobs and multi-tenant traffic shaping for ``slif serve``.

This module is the layer that makes every sweep *restartable instead of
connection-scoped*.  A ``POST /v1/jobs`` submission persists the
request to the :class:`~repro.serve.store.JobStore` before anything is
evaluated, a weighted-fair queue hands jobs to worker threads that
share the server's bounded heavy-slot semaphore, and each exploration
job journals its chunks to the job's own fsync'd ``journal.jsonl`` —
so a SIGKILL'd daemon restarted on the same ``--state-dir`` recovers
every incomplete job and resumes it, re-evaluating only the chunks the
journal does not hold.

Traffic shaping has two independent stages, both keyed on the
``X-Slif-Tenant`` header:

* **Admission** — a per-tenant token bucket
  (:class:`TenantShaper`): ``--tenant-rate R --tenant-burst B`` allows
  bursts of B heavy requests/submissions, refilling at R per second;
  beyond that the server answers 429 with a computed ``Retry-After``.
  Rate 0 (the default) disables admission limits entirely.
* **Scheduling** — a weighted-fair queue
  (:class:`WeightedFairQueue`): each tenant's jobs carry virtual
  finish tags spaced by ``1/weight``, so a tenant with
  ``--tenant-weight gold=4`` drains four jobs for every one of a
  weight-1 tenant, yet a lone tenant still gets the whole capacity.

Per-tenant counters live in a ``<family>.<tenant>``-named registry
rendered as ``slif_tenant_*`` families on ``/metrics`` and as the
``tenants`` section of ``/v1/stats``.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.api.types import JobRequest, RequestError, canonical_json
from repro.errors import SlifError
from repro.obs import OBS, Registry
from repro.serve.store import JobRecord, JobStore, job_id_for

#: The header naming the submitting tenant; absent means this tenant.
TENANT_HEADER = "X-Slif-Tenant"
DEFAULT_TENANT = "default"

_TENANT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def validate_tenant(raw: Optional[str]) -> str:
    """Normalize an ``X-Slif-Tenant`` header value; reject junk loudly."""
    if raw is None or not raw.strip():
        return DEFAULT_TENANT
    tenant = raw.strip()
    if len(tenant) > 64 or not set(tenant) <= _TENANT_OK:
        raise RequestError(
            f"invalid tenant {raw!r}: up to 64 characters from "
            f"[A-Za-z0-9._-]"
        )
    return tenant


class TokenBucket:
    """The classic token bucket: ``burst`` capacity, ``rate`` tokens/s."""

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = max(1.0, burst)
        self.tokens = self.burst
        self.stamp = time.monotonic()

    def _refill(self, now: float) -> None:
        self.tokens = min(
            self.burst, self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now

    def take(self) -> Tuple[bool, float]:
        """Consume one token; returns ``(allowed, seconds until a token)``."""
        now = time.monotonic()
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        if self.rate <= 0:  # pragma: no cover - guarded by the shaper
            return False, float("inf")
        return False, (1.0 - self.tokens) / self.rate


class TenantShaper:
    """Per-tenant admission control plus the tenant metrics registry."""

    def __init__(
        self,
        rate: float = 0.0,
        burst: float = 8.0,
        weights: Optional[Dict[str, float]] = None,
    ) -> None:
        self.rate = rate
        self.burst = burst
        self.weights = dict(weights or {})
        self.registry = Registry(enabled=True)
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def weight(self, tenant: str) -> float:
        return max(float(self.weights.get(tenant, 1.0)), 1e-6)

    def admit(self, tenant: str) -> Tuple[bool, float]:
        """Charge one heavy request/submission against the tenant's bucket.

        Returns ``(allowed, retry-after seconds)``; always allowed when
        ``rate`` is 0 (shaping off).
        """
        self.inc("requests", tenant)
        if OBS.enabled:
            OBS.inc("serve.tenant.requests")
        if self.rate <= 0:
            return True, 0.0
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst)
                self._buckets[tenant] = bucket
            allowed, wait = bucket.take()
        if not allowed:
            self.inc("throttled", tenant)
            if OBS.enabled:
                OBS.inc("serve.tenant.throttled")
        return allowed, wait

    def inc(self, family: str, tenant: str, amount: int = 1) -> None:
        self.registry.inc(f"{family}.{tenant}", amount)

    def stats(self) -> Dict[str, Any]:
        """Per-tenant summary for ``/v1/stats``."""
        snapshot = self.registry.snapshot()
        tenants: Dict[str, Dict[str, Any]] = {}
        for name, value in snapshot["counters"].items():
            family, _, tenant = name.partition(".")
            if tenant:
                tenants.setdefault(tenant, {})[family] = value
        with self._lock:
            for tenant, bucket in self._buckets.items():
                bucket._refill(time.monotonic())
                tenants.setdefault(tenant, {})["tokens"] = round(
                    bucket.tokens, 3
                )
        for tenant, entry in tenants.items():
            entry["weight"] = self.weight(tenant)
        return {
            "rate": self.rate,
            "burst": self.burst,
            "tenants": tenants,
        }


class WeightedFairQueue:
    """Weighted fair queuing over opaque items via virtual finish tags.

    Each pushed item gets ``finish = max(vtime, tenant's last finish)
    + 1/weight``; :meth:`pop` always hands out the smallest tag.  Heavy
    tenants therefore interleave ``weight``-proportionally under
    contention, while an uncontended tenant is never throttled — the
    virtual clock jumps forward with the queue head.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str, Any]] = []
        self._cond = threading.Condition()
        self._vtime = 0.0
        self._last_finish: Dict[str, float] = {}
        self._seq = 0
        self._closed = False

    def push(self, tenant: str, weight: float, item: Any) -> None:
        with self._cond:
            finish = (
                max(self._vtime, self._last_finish.get(tenant, 0.0))
                + 1.0 / max(weight, 1e-6)
            )
            self._last_finish[tenant] = finish
            heapq.heappush(self._heap, (finish, self._seq, tenant, item))
            self._seq += 1
            self._cond.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Any]:
        """The next item by virtual finish tag; ``None`` on close/timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._heap and not self._closed:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._cond.wait(remaining)
            if not self._heap:
                return None
            finish, _, _, item = heapq.heappop(self._heap)
            self._vtime = max(self._vtime, finish)
            return item

    def close(self) -> None:
        """Wake every popper; queued items stay (they are durable on disk)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def depth(self) -> int:
        with self._cond:
            return len(self._heap)


class EventStream:
    """A lazily-evaluated JSONL event feed for one job.

    The HTTP handler writes each yielded line as one chunk of a
    ``Transfer-Encoding: chunked`` response; in-process tests iterate
    it directly.  The stream ends when the job reaches a terminal
    state; long quiet stretches emit heartbeat lines so intermediaries
    do not reap the connection.
    """

    content_type = "application/x-ndjson"

    def __init__(
        self, manager: "JobManager", job_id: str,
        heartbeat: float = 15.0,
    ) -> None:
        self.manager = manager
        self.job_id = job_id
        self.heartbeat = heartbeat

    def __iter__(self):
        index = 0
        while True:
            events, terminal = self.manager.events_since(
                self.job_id, index, timeout=self.heartbeat
            )
            for event in events:
                yield canonical_json(event) + "\n"
            index += len(events)
            if terminal:
                return
            if not events:
                yield canonical_json({"event": "heartbeat"}) + "\n"


class JobManager:
    """Owns the durable job lifecycle: accept, schedule, run, recover.

    Wired into one :class:`~repro.serve.app.SlifServer`; worker threads
    take jobs off the weighted-fair queue and execute them while
    holding one of the server's heavy slots, so synchronous heavy
    requests and background jobs share the same ``--max-inflight``
    budget.
    """

    #: Terminal job states.
    TERMINAL = ("done", "failed")

    def __init__(self, server, store: JobStore, shaper: TenantShaper) -> None:
        self.server = server
        self.store = store
        self.shaper = shaper
        self.queue = WeightedFairQueue()
        self.records: Dict[str, JobRecord] = {}
        self.recovered = 0
        self.skipped_records = 0
        self.running = 0
        self.draining = False
        self._cond = threading.Condition()
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._threads: List[threading.Thread] = []
        self._recover()

    # -- lifecycle -----------------------------------------------------

    def start(self, workers: int) -> None:
        """Spawn the worker threads (call once, after construction)."""
        for i in range(max(0, workers)):
            thread = threading.Thread(
                target=self._worker, name=f"slif-job-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def drain(self) -> None:
        """Stop picking up queued jobs; they stay ``pending`` on disk.

        Running jobs are not interrupted — :meth:`wait_idle` bounds how
        long the caller waits for them, and anything still running at
        process exit is recovered from its journal on the next start.
        """
        self.draining = True
        self.queue.close()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is executing (or ``timeout`` elapses)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self.running > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    def _recover(self) -> None:
        """Reload the store; re-queue everything that never finished.

        A job found ``running`` was in flight when the previous daemon
        died — it goes back to ``pending`` (its journal already holds
        every chunk that completed) and is re-queued like any other.
        """
        records, self.skipped_records = self.store.load_all()
        for record in records:
            self.records[record.id] = record
            if record.state in self.TERMINAL:
                continue
            if record.state == "running":
                record.state = "pending"
                self.store.save(record)
            self.recovered += 1
            self._emit(record.id, self._state_event(record))
            self.queue.push(
                record.tenant, self.shaper.weight(record.tenant), record.id
            )
        if OBS.enabled and self.recovered:
            OBS.inc("serve.jobs.recovered", self.recovered)

    # -- submission / polling ------------------------------------------

    def submit(
        self, job_request: JobRequest, tenant: str
    ) -> Tuple[JobRecord, bool]:
        """Persist and enqueue one job; idempotent per (tenant, request).

        Returns ``(record, created)`` — ``created`` false means an
        identical submission already exists and its record is returned
        unchanged (whatever state it reached).
        """
        job_request.validate()
        inner = job_request.wrapped()
        request_dict = inner.to_dict()
        session_key = api.session_key(inner.spec)
        job_id = job_id_for(
            tenant, job_request.kind, session_key, request_dict
        )
        with self._cond:
            existing = self.records.get(job_id)
            if existing is not None:
                return existing, False
            record = JobRecord(
                id=job_id,
                kind=job_request.kind,
                tenant=tenant,
                request=request_dict,
                state="pending",
                created=time.time(),
            )
            self.records[job_id] = record
        self.store.save(record)
        self._emit(job_id, self._state_event(record))
        self.shaper.inc("jobs_submitted", tenant)
        if OBS.enabled:
            OBS.inc("serve.jobs.submitted")
        self.queue.push(tenant, self.shaper.weight(tenant), job_id)
        return record, True

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._cond:
            return self.records.get(job_id)

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._cond:
            records = sorted(
                self.records.values(), key=lambda r: (r.created, r.id)
            )
            return [r.status_dict() for r in records]

    def queue_depth(self) -> int:
        return self.queue.depth()

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            states: Dict[str, int] = {}
            for record in self.records.values():
                states[record.state] = states.get(record.state, 0) + 1
        return {
            "queued": self.queue.depth(),
            "running": self.running,
            "workers": len(self._threads),
            "recovered": self.recovered,
            "skipped_records": self.skipped_records,
            "states": states,
        }

    # -- events --------------------------------------------------------

    def _state_event(self, record: JobRecord) -> Dict[str, Any]:
        return {
            "event": "state",
            "job": record.id,
            "state": record.state,
            "chunks_done": record.chunks_done,
        }

    def _emit(self, job_id: str, event: Dict[str, Any]) -> None:
        with self._cond:
            self._events.setdefault(job_id, []).append(event)
            self._cond.notify_all()

    def events_since(
        self, job_id: str, index: int, timeout: float = 15.0
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events past ``index`` for one job, blocking up to ``timeout``.

        Returns ``(new events, job is terminal)``; an unknown job is
        reported terminal with no events.  For a job whose in-memory
        feed was lost to a restart, a state event is synthesized from
        the durable record.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                record = self.records.get(job_id)
                if record is None:
                    return [], True
                events = self._events.get(job_id)
                if events is None:
                    events = [self._state_event(record)]
                    if record.state in self.TERMINAL:
                        events.append(self._end_event(record))
                    self._events[job_id] = events
                terminal = record.state in self.TERMINAL
                fresh = list(events[index:])
                if fresh or terminal:
                    return fresh, terminal
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False
                self._cond.wait(remaining)

    def _end_event(self, record: JobRecord) -> Dict[str, Any]:
        event = {
            "event": "end",
            "job": record.id,
            "state": record.state,
            "chunks_done": record.chunks_done,
        }
        if record.error:
            event["error"] = record.error
        return event

    # -- execution -----------------------------------------------------

    def _worker(self) -> None:
        while not self.draining:
            job_id = self.queue.pop(timeout=0.5)
            if job_id is None:
                continue
            record = self.get(job_id)
            if record is None or record.state != "pending":
                continue
            # share the heavy-slot budget with synchronous requests;
            # keep polling so a drain is honoured while waiting
            acquired = False
            while not self.draining:
                if self.server._heavy_slots.acquire(timeout=0.1):
                    acquired = True
                    break
            if not acquired:
                return  # draining: the job stays pending on disk
            try:
                self._execute(record)
            finally:
                self.server._heavy_slots.release()

    def _execute(self, record: JobRecord) -> None:
        with self._cond:
            self.running += 1
        with self.server._state_lock:
            self.server._heavy_inflight += 1
        record.state = "running"
        self.store.save(record)
        self._emit(record.id, self._state_event(record))
        started = time.perf_counter()
        try:
            result = self._run(record)
            record.result = result.to_dict()
            record.state = "done"
            record.error = ""
            self.shaper.inc("jobs_completed", record.tenant)
            if OBS.enabled:
                OBS.inc("serve.jobs.completed")
        except SlifError as exc:
            record.state = "failed"
            record.error = str(exc)
            self.shaper.inc("jobs_failed", record.tenant)
            if OBS.enabled:
                OBS.inc("serve.jobs.failed")
        except Exception as exc:  # noqa: BLE001 - worker must survive
            record.state = "failed"
            record.error = f"internal error: {exc}"
            self.shaper.inc("jobs_failed", record.tenant)
        finally:
            duration = time.perf_counter() - started
            self.server.red.observe(
                f"heavy_seconds.{record.kind}", duration
            )
            with self.server._state_lock:
                self.server._heavy_inflight -= 1
        self.store.save(record)
        with self._cond:
            self.running -= 1
            self._events.setdefault(record.id, []).append(
                self._end_event(record)
            )
            self._cond.notify_all()

    def _run(self, record: JobRecord):
        """Dispatch one job onto the facade, journaled and resumable."""
        inner = self.server._heavy_request(record.kind, dict(record.request))
        session, _ = self.server.cache.get(inner.spec)
        journal = self.store.journal_path(record.id)
        if record.kind == "explore":
            return api.explore(
                inner,
                session=session,
                checkpoint=journal,
                resume=True,
                fleet=self._fleet_spec(session),
                on_result=self._progress_callback(record),
            )
        if record.kind == "partition":
            return api.partition(
                inner, session=session, checkpoint=journal, resume=True
            )
        return api.simulate(inner, session=session)

    def _progress_callback(self, record: JobRecord):
        """Per-chunk observer: progress events with the merged front so far."""
        from repro.explore.engine import merge_fronts

        results: List[Any] = []

        def on_result(chunk_result) -> None:
            results.append(chunk_result)
            record.chunks_done = len(results)
            front = merge_fronts(
                list(results),
                evaluated=sum(r.candidates for r in results),
            )
            self._emit(
                record.id,
                {
                    "event": "chunk",
                    "job": record.id,
                    "chunk_index": chunk_result.chunk_index,
                    "chunks_done": record.chunks_done,
                    "front": [
                        {
                            "hardware_size": p.hardware_size,
                            "system_time": p.system_time,
                            "label": p.label,
                        }
                        for p in front.points
                    ],
                },
            )

        return on_result

    def _fleet_spec(self, session):
        """Route the sweep to the embedded fleet when workers are alive.

        Uses the in-process transport against the server's own
        coordinator — a resumed job keeps its journal locally while the
        chunk evaluation fans across registered ``slif work`` daemons;
        with no live workers the sweep runs on the local pool instead.
        """
        from repro.fleet.client import embedded_fleet_spec

        try:
            alive = self.server.fleet.stats().get("workers_alive", 0)
        except Exception:  # noqa: BLE001 - fleet stats must never kill a job
            return None
        if not alive:
            return None
        return embedded_fleet_spec(self.server.fleet, session.key)
