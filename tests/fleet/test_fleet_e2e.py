"""In-process fleet sweeps: byte-identity, telemetry, worker churn.

These run a real :class:`FleetCoordinator` and real
:class:`FleetWorker` loops (threads, ``LocalTransport``) under
``explore_pareto(fleet=...)`` — every protocol message JSON
round-trips, so the only thing the HTTP tests add is sockets.  Workers
use ``isolate_obs=False``: they are threads of this process and must
record into private registries rather than resetting the global one
out from under the test.
"""

import pytest

from repro import obs
from repro.api import build_system
from repro.core.serialize import partition_to_dict, slif_to_dict
from repro.estimate.size import all_component_sizes
from repro.explore.engine import RetryPolicy, merge_fronts
from repro.explore.plan import pareto_plan
from repro.explore.worker import ChunkRunner, PlanPayload
from repro.fleet import (
    FleetCoordinator,
    FleetSpec,
    FleetWorker,
    LocalTransport,
)
from repro.fleet.coordinator import FleetConfig
from repro.partition.pareto import explore_pareto

from _helpers import WorkerThreads


@pytest.fixture(scope="module")
def ether_system():
    return build_system("ether")


def front_signature(front):
    return (
        front.evaluated,
        [
            (p.system_time, p.hardware_size, p.mapping, p.label)
            for p in front.points
        ],
    )


def test_two_worker_fleet_matches_jobs_1(ether_system):
    kwargs = dict(constraint_steps=4, random_starts=2, seed=0)
    sequential = explore_pareto(
        ether_system.slif, ether_system.partition, jobs=1, **kwargs
    )
    coordinator = FleetCoordinator()
    with WorkerThreads(coordinator, count=2) as fleet:
        distributed = explore_pareto(
            ether_system.slif,
            ether_system.partition,
            fleet=FleetSpec(
                session_key="ether-e2e",
                transport=LocalTransport(coordinator),
                poll_seconds=0.005,
            ),
            **kwargs,
        )
    assert front_signature(distributed) == front_signature(sequential)
    assert distributed.render() == sequential.render()
    # both workers really participated
    chunks_each = [w.stats["chunks_done"] for w in fleet.workers]
    assert sum(chunks_each) == coordinator.registry.counter_value(
        "fleet.chunks.completed"
    )


def test_fleet_telemetry_is_merged_from_all_workers(ether_system):
    coordinator = FleetCoordinator()
    obs.reset()
    obs.enable()
    try:
        with WorkerThreads(coordinator, count=2) as fleet:
            explore_pareto(
                ether_system.slif,
                ether_system.partition,
                constraint_steps=8,
                random_starts=5,
                seed=0,
                fleet=FleetSpec(
                    session_key="ether-telemetry",
                    transport=LocalTransport(coordinator),
                    poll_seconds=0.005,
                ),
            )
        trace_id = obs.trace_id()
        spans = [
            s for s in obs.TRACER.spans() if s.name == "explore.chunk"
        ]
        counters = obs.snapshot()["counters"]
        worker_ids = {w.worker_id for w in fleet.workers}
    finally:
        obs.reset()
        obs.disable()
    # one absorbed span per chunk, each carrying the sweep's trace id
    # and the evaluating worker's identity
    assert len(spans) == 9
    assert all(s.trace_id == trace_id for s in spans)
    seen_workers = {s.attributes.get("worker") for s in spans}
    assert seen_workers <= worker_ids
    assert len(seen_workers) == 2, (
        "the default ether sweep has enough chunks that both workers "
        "must appear in the merged trace"
    )
    assert counters["explore.chunks"] == 9


def make_manual_sweep(ether_system):
    """Payload + chunks for driving the protocol without the client."""
    slif, start = ether_system.slif, ether_system.partition
    hardware = [n for n, p in slif.processors.items() if p.is_custom]
    software = [n for n in slif.processors if n not in hardware]
    sizes = all_component_sizes(slif, start)
    plan = pareto_plan(
        {n: sizes[n] for n in software}, constraint_steps=4,
        random_starts=2, seed=0,
    )
    payload = PlanPayload(
        task="pareto",
        slif_data=slif_to_dict(slif),
        partition_data=partition_to_dict(start),
        hardware=tuple(hardware),
    )
    return payload, list(plan.chunks())


def test_worker_death_mid_sweep_is_byte_identical(ether_system):
    """A worker that leases a chunk and vanishes must not change bytes.

    Driven deterministically with a fake clock and explicit ``run_one``
    calls: worker A takes a lease and goes silent; once A is reaped the
    requeued chunk lands on B, and the merged front equals the
    sequential one exactly.
    """
    from repro.fleet.protocol import (
        chunk_to_wire,
        payload_to_wire,
        policy_to_wire,
        result_from_wire,
    )

    clock = {"now": 0.0}
    coordinator = FleetCoordinator(
        FleetConfig(heartbeat_interval=0.5, heartbeat_timeout=2.0),
        clock=lambda: clock["now"],
    )
    transport = LocalTransport(coordinator)
    payload, chunks = make_manual_sweep(ether_system)
    a = FleetWorker(transport, cache_size=2, isolate_obs=False)
    b = FleetWorker(transport, cache_size=2, isolate_obs=False)
    a.register()
    b.register()
    sid = transport.call("sweep", {
        "payload": payload_to_wire(payload),
        "chunks": [chunk_to_wire(c) for c in chunks],
        "policy": policy_to_wire(RetryPolicy()),
        "session_key": "ether-death",
    })["sweep_id"]

    # A leases chunk 0 and dies mid-chunk (never submits, never beats)
    lease = transport.call("pull", {"worker_id": a.worker_id})["lease"]
    assert lease["chunk"]["index"] == 0

    # B alone works the sweep to completion, heartbeating as it goes
    for _ in range(10 * len(chunks)):
        clock["now"] += 0.5
        b.heartbeat()
        b.run_one()
        if transport.call(
            "collect", {"sweep_id": sid}
        ).get("complete"):
            break
    status = transport.call("status", {})
    assert status["workers_alive"] == 1   # A was reaped
    assert b.stats["chunks_done"] == len(chunks)

    # byte-identity: rebuild the fronts
    runner = ChunkRunner(payload)
    sequential = merge_fronts(
        [runner.run_chunk(c) for c in chunks], evaluated=sum(
            len(c) for c in chunks
        ),
    )
    # drain the coordinator's stored results directly (wire-faithful)
    sweep = coordinator.sweeps[sid]
    fleet_results = [
        result_from_wire(sweep.chunks[i].result) for i in sorted(sweep.chunks)
    ]
    fleet_front = merge_fronts(
        fleet_results, evaluated=sum(len(c) for c in chunks)
    )
    assert fleet_front.render() == sequential.render()
    assert coordinator.registry.counter_value("fleet.workers.lost") == 1
    assert coordinator.registry.counter_value("fleet.chunks.requeued") == 1


def test_session_key_affinity_warms_one_worker_cache(ether_system):
    """Repeated sweeps of one session key prefer one worker's cache."""
    coordinator = FleetCoordinator()
    transport = LocalTransport(coordinator)
    a = FleetWorker(transport, cache_size=2, isolate_obs=False)
    b = FleetWorker(transport, cache_size=2, isolate_obs=False)
    a.register()
    b.register()
    payload, chunks = make_manual_sweep(ether_system)
    # a key owned by A on the ring, so routing is deterministic
    key = next(
        f"affinity-{i}"
        for i in range(200)
        if coordinator.ring.lookup(f"affinity-{i}") == a.worker_id
    )
    from repro.fleet.protocol import chunk_to_wire, payload_to_wire

    for _ in range(2):   # two sweeps, same payload, same key
        transport.call("sweep", {
            "payload": payload_to_wire(payload),
            "chunks": [chunk_to_wire(c) for c in chunks],
            "policy": None,
            "session_key": key,
        })
        # A pulls first every round: affinity keeps the work (and the
        # warm runner) on A, so B never builds a runner at all
        while a.run_one():
            pass
    assert a.stats["chunks_done"] == 2 * len(chunks)
    assert a.stats["cache_misses"] == 1   # one runner built, ever
    assert a.stats["cache_hits"] == 2 * len(chunks) - 1
    assert b.stats["chunks_done"] == 0
    counters = coordinator.registry.snapshot()["counters"]
    assert counters["fleet.route.affinity"] == 2 * len(chunks)
    assert counters.get("fleet.route.spill", 0) == 0


def test_dead_fleet_falls_back_to_local_evaluation(ether_system):
    """Zero live workers: the client finishes the sweep in-process."""
    coordinator = FleetCoordinator()
    payload, chunks = make_manual_sweep(ether_system)
    from repro.errors import WorkerError
    from repro.explore.engine import RecoveryStats
    from repro.fleet.client import run_fleet_chunks

    stats = RecoveryStats()
    completed = []
    results = run_fleet_chunks(
        payload,
        chunks,
        fleet=FleetSpec(
            session_key="nobody-home",
            transport=LocalTransport(coordinator),
            poll_seconds=0.005,
            idle_timeout=0.05,
        ),
        policy=RetryPolicy(),
        stats=stats,
        on_complete=completed.append,
    )
    assert sorted(results) == [c.index for c in chunks]
    assert stats.fallbacks == len(chunks)
    assert len(completed) == len(chunks)
    runner = ChunkRunner(payload)
    sequential = merge_fronts(
        [runner.run_chunk(c) for c in chunks],
        evaluated=sum(len(c) for c in chunks),
    )
    fleet_front = merge_fronts(
        [results[i] for i in sorted(results)],
        evaluated=sum(len(c) for c in chunks),
    )
    assert fleet_front.render() == sequential.render()


def test_exhausted_chunk_finishes_in_process(ether_system, monkeypatch, fast_backoff):
    """A chunk that fails on every fleet attempt runs in-process instead."""
    from repro.explore.engine import RecoveryStats
    from repro.fleet.client import run_fleet_chunks

    monkeypatch.setenv("SLIF_FAULTS", "transient:2:99")   # every attempt
    coordinator = FleetCoordinator()
    payload, chunks = make_manual_sweep(ether_system)
    stats = RecoveryStats()
    with WorkerThreads(coordinator, count=2):
        results = run_fleet_chunks(
            payload,
            chunks,
            fleet=FleetSpec(
                session_key="exhausted",
                transport=LocalTransport(coordinator),
                poll_seconds=0.005,
            ),
            policy=RetryPolicy(retries=1),
            stats=stats,
            on_complete=lambda result: None,
        )
    assert sorted(results) == [c.index for c in chunks]
    assert stats.fallbacks == 1
    assert stats.retries == 1
    runner = ChunkRunner(payload)
    evaluated = sum(len(c) for c in chunks)
    sequential = merge_fronts(
        [runner.run_chunk(c) for c in chunks], evaluated=evaluated
    )
    fleet_front = merge_fronts(
        [results[i] for i in sorted(results)], evaluated=evaluated
    )
    assert fleet_front.render() == sequential.render()
