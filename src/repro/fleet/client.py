"""The sweep side of the fleet: transports and the dispatch client.

:func:`run_fleet_chunks` is what :func:`repro.explore.engine.run_plan`
calls for every multi-worker sweep, remote (``--workers``) or local
(``--jobs N``, against the embedded coordinator of
:mod:`repro.fleet.local`): it submits the payload's wire form (none
when the transport's workers inherited the payload), the todo chunks
and the :class:`~repro.explore.engine.RetryPolicy` as one sweep, polls
the coordinator for completed results (feeding each into the engine's
``on_complete`` hook as it lands, so ``--checkpoint`` journaling works
unchanged), and finishes any chunk the fleet could not through
:func:`~repro.explore.engine.run_chunks`, the engine's in-process loop.
Deterministic candidate failures surface as the same lowest-index
:class:`~repro.errors.WorkerError` a ``--jobs 1`` run raises.

Transports carry ``(op, dict) -> dict`` calls: :class:`HttpTransport`
speaks ``POST /v1/fleet/<op>`` to a ``slif serve`` coordinator with a
small connection-retry budget; :class:`LocalTransport` calls a
:class:`~repro.fleet.coordinator.FleetCoordinator` in-process but
round-trips every message through JSON, so tests exercise exactly the
bytes the HTTP path would.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional

from repro.errors import FleetError, WorkerError
from repro.explore.engine import RecoveryStats, RetryPolicy, run_chunks
from repro.explore.plan import Chunk
from repro.explore.worker import ChunkResult, PlanPayload
from repro.fleet.protocol import (
    FleetSpec,
    chunk_to_wire,
    payload_to_wire,
    policy_to_wire,
    result_from_wire,
)


class HttpTransport:
    """``POST /v1/fleet/<op>`` against a ``slif serve`` coordinator."""

    #: Workers fetch the payload's wire form from the coordinator.
    inherits_payload = False

    def __init__(
        self, base_url: str, timeout: float = 30.0, retries: int = 3
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries

    def call(self, op: str, data: Dict[str, Any]) -> Dict[str, Any]:
        request = urllib.request.Request(
            f"{self.base_url}/v1/fleet/{op}",
            data=json.dumps(data).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        last: Optional[Exception] = None
        for attempt in range(self.retries):
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                # the coordinator answered: a protocol error, not an
                # unreachable fleet — no point retrying the same bytes
                try:
                    message = json.loads(exc.read().decode("utf-8")).get(
                        "error", ""
                    )
                except Exception:  # noqa: BLE001 - body is best-effort
                    message = ""
                raise FleetError(
                    f"fleet {op} failed with HTTP {exc.code}"
                    + (f": {message}" if message else "")
                ) from None
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                last = exc
                if attempt < self.retries - 1:
                    time.sleep(0.1 * (attempt + 1))
        raise FleetError(
            f"fleet coordinator at {self.base_url} is unreachable "
            f"after {self.retries} attempts: {last}"
        ) from None


class LocalTransport:
    """In-process transport with wire-fidelity JSON round-trips."""

    inherits_payload = False

    def __init__(self, coordinator) -> None:
        self.coordinator = coordinator

    def call(self, op: str, data: Dict[str, Any]) -> Dict[str, Any]:
        request = json.loads(json.dumps(data))
        response = self.coordinator.handle(op, request)
        return json.loads(json.dumps(response))


def embedded_fleet_spec(
    coordinator, session_key: str = ""
) -> FleetSpec:
    """A :class:`FleetSpec` targeting an in-process coordinator.

    The serving layer's durable jobs use this to resume a recovered
    sweep across the server's *own* embedded fleet: the journal stays
    local while chunk evaluation fans across registered ``slif work``
    daemons, and the session's content-hash key keeps routing sticky so
    the resumed chunks land on the same workers' warm caches.
    """
    return FleetSpec(
        session_key=session_key, transport=LocalTransport(coordinator)
    )


def _transport_for(fleet: FleetSpec):
    if fleet.transport is not None:
        return fleet.transport
    if not fleet.url:
        raise FleetError("FleetSpec has neither a transport nor a url")
    return HttpTransport(fleet.url)


def run_fleet_chunks(
    payload: PlanPayload,
    todo: List[Chunk],
    *,
    fleet: FleetSpec,
    policy: RetryPolicy,
    stats: RecoveryStats,
    on_complete: Callable[[ChunkResult], None],
    trace_id: Optional[str] = None,
) -> Dict[int, ChunkResult]:
    """Evaluate ``todo`` through a fleet; returns results by chunk index.

    Every todo chunk either completes — fleet-side, or in-process once
    the coordinator reports it exhausted or the fleet has had no live
    workers for ``fleet.idle_timeout`` seconds — or the sweep raises the
    lowest failing chunk's :class:`WorkerError`.  The retries, timeouts
    and lost workers the coordinator handled are added to ``stats``
    (and the ``explore.*`` obs counters) once.  With a ``trace_id`` the
    workers collect telemetry and group their spans under it; without
    one they collect nothing.
    """
    transport = _transport_for(fleet)
    sweep_id = transport.call(
        "sweep",
        {
            "payload": (
                None
                if transport.inherits_payload
                else payload_to_wire(payload)
            ),
            "chunks": [chunk_to_wire(chunk) for chunk in todo],
            "policy": policy_to_wire(policy),
            "session_key": fleet.session_key,
            "collect": trace_id is not None,
            "trace_id": trace_id,
        },
    )["sweep_id"]
    done: Dict[int, ChunkResult] = {}
    leftover: set = set()
    error: Optional[Dict[str, Any]] = None
    idle_since: Optional[float] = None
    sweep_stats: Dict[str, Any] = {}

    def finish(result: ChunkResult) -> None:
        if result.chunk_index not in done:   # first completion wins
            done[result.chunk_index] = result
            on_complete(result)

    try:
        while True:
            response = transport.call("collect", {"sweep_id": sweep_id})
            for result in response.get("results", ()):
                # a local worker's pipe carries the ChunkResult itself
                if not isinstance(result, ChunkResult):
                    result = result_from_wire(result)
                finish(result)
            sweep_stats = response.get("stats", sweep_stats)
            error = response.get("error") or error
            leftover.update(response.get("exhausted", ()))
            if response.get("complete"):
                break
            if response.get("workers_alive", 0) > 0:
                idle_since = None
            else:
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if now - idle_since >= fleet.idle_timeout:
                    leftover.update(chunk.index for chunk in todo)
                    break
            time.sleep(fleet.poll_seconds)
    finally:
        try:
            transport.call("cancel", {"sweep_id": sweep_id})
        except FleetError:  # pragma: no cover - cleanup is best-effort
            pass
        stats.add(
            retries=int(sweep_stats.get("requeues", 0)),
            timeouts=int(sweep_stats.get("timeouts", 0)),
            pool_respawns=int(sweep_stats.get("workers_lost", 0)),
            retry_delays=sweep_stats.get("retry_delays", ()),
        )
    # a sequential run never reaches past the lowest failing chunk
    min_err = error["chunk_index"] if error is not None else math.inf
    rest = [
        chunk
        for chunk in todo
        if chunk.index in leftover
        and chunk.index not in done
        and chunk.index < min_err
    ]
    stats.add(fallbacks=len(rest))
    run_chunks(payload, rest, finish, fallback=True)
    if error is not None:
        raise WorkerError(str(error.get("message", "fleet worker error")))
    return done
