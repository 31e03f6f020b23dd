"""repro.fleet — distributed exploration across coordinator and workers.

The step from "all cores on one box" to "all boxes": the deterministic
chunk sharding of :mod:`repro.explore` already makes results
independent of *where* a chunk runs, so distributing a sweep is pure
scheduling — no evaluation semantics change.  The moving parts:

:class:`~repro.fleet.coordinator.FleetCoordinator`
    Owns worker registration, heartbeat liveness, chunk leasing and
    result collection for submitted sweeps.  Hosted by ``slif serve``
    under ``POST /v1/fleet/*`` (and usable in-process via
    :class:`~repro.fleet.client.LocalTransport` in tests).
:class:`~repro.fleet.worker.FleetWorker` / ``slif work``
    A pull-based worker daemon: registers, heartbeats, leases one
    chunk at a time, evaluates it through the existing
    :class:`~repro.explore.worker.ChunkRunner` (runners are cached per
    payload fingerprint so a worker's graph stays hot across chunks of
    the same sweep) and submits the
    :class:`~repro.explore.worker.ChunkResult` back — including the
    PR 6 telemetry snapshot, so ``--stats`` on the submitting side
    reflects the whole fleet.
:func:`~repro.fleet.client.run_fleet_chunks` / ``slif explore --workers``
    The sweep-side client: ships the payload, chunks and
    :class:`~repro.explore.engine.RetryPolicy` to a coordinator, polls
    for results, and falls back to in-process evaluation for chunks
    the fleet could not finish — so a sweep completes (byte-identical
    to ``--jobs 1``) even when workers die mid-flight.

:func:`~repro.fleet.local.local_fleet` / ``--jobs N``
    The same coordinator, embedded and private to one sweep, with
    ``N`` local worker processes that talk to it over pipes: local and
    distributed sweeps share one scheduler.

Failure model: a worker that misses heartbeats (or, locally, whose
pipe closes) is declared dead and its leased chunks are requeued with
the policy's seeded backoff; results are deduplicated by chunk index
(first wins), so requeues and late duplicates cannot change the merged
front.  Routing prefers the worker that consistent hashing
(:class:`~repro.fleet.hashring.HashRing`) assigns to the sweep's
``session_key`` — keeping one spec's chunks on one worker's warm
runner cache — but spills to any idle worker rather than queueing.
"""

from __future__ import annotations

from repro.fleet.coordinator import FleetConfig, FleetCoordinator
from repro.fleet.hashring import HashRing
from repro.fleet.protocol import FleetSpec
from repro.fleet.client import HttpTransport, LocalTransport, run_fleet_chunks
from repro.fleet.worker import FleetWorker, WorkerConfig, run_worker

__all__ = [
    "FleetConfig",
    "FleetCoordinator",
    "FleetSpec",
    "FleetWorker",
    "HashRing",
    "HttpTransport",
    "LocalTransport",
    "WorkerConfig",
    "run_fleet_chunks",
    "run_worker",
]
