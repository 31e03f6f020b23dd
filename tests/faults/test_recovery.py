"""Every recovery path of the dispatch loop, exercised by injection.

The contract under test: with ``SLIF_FAULTS`` sabotaging a ``jobs > 1``
sweep — a worker crash, a hang past the timeout, a transient error, an
unpicklable result — the sweep still completes and its merged outcome
is identical to a fault-free ``jobs=1`` run.  Faults fire keyed on
``(chunk, attempt)``, so each test states exactly which recovery
machinery it expects to see in the obs counters.
"""

import pytest

from repro import obs
from repro.core.partition import single_bus_partition
from repro.core.serialize import partition_to_dict, slif_to_dict
from repro.explore import (
    CandidateSpec,
    PlanPayload,
    RetryPolicy,
    WorkPlan,
    merge_restarts,
    run_plan,
)

from _helpers import WorkerThreads, build_demo_graph, build_demo_partition


def restart_payload() -> PlanPayload:
    graph = build_demo_graph()
    partition = build_demo_partition(graph)
    return PlanPayload(
        task="restart",
        slif_data=slif_to_dict(graph),
        partition_data=partition_to_dict(partition),
    )


def restart_plan_of(chunks: int) -> WorkPlan:
    specs = [
        CandidateSpec(
            index=i,
            kind="random",
            label=f"restart.{i}",
            algorithm="none",
            seed=i,
        )
        for i in range(chunks)
    ]
    return WorkPlan(specs, chunk_size=1)


FAST = dict(seed=0)
pytestmark = pytest.mark.usefixtures("fast_backoff")


def merged(results):
    best, mapping, history, outcomes = merge_restarts(results)
    return (best, mapping, history, [o.cost for o in outcomes])


@pytest.fixture
def counters(monkeypatch):
    """Fresh obs collection per test; yields a snapshot getter."""
    monkeypatch.delenv("SLIF_FAULTS", raising=False)
    obs.reset()
    obs.enable()
    yield lambda: obs.snapshot()["counters"]
    obs.disable()
    obs.reset()


class TestRecoveryPaths:
    def test_crash_respawns_pool_and_requeues(self, counters, monkeypatch):
        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "crash:1")
        results = run_plan(
            payload, plan, jobs=2, policy=RetryPolicy(retries=2, **FAST)
        )
        assert merged(results) == baseline
        snap = counters()
        assert snap["explore.pool_respawns"] >= 1
        assert snap["explore.retries"] >= 1

    def test_crashed_workers_are_replaced(self, counters, monkeypatch):
        """Both workers die on their first chunk; replacements (not the
        in-process fallback) finish the sweep, and each death is seen
        when its pipe closes, long before a 4 s heartbeat timeout."""
        import time

        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "crash:0,crash:1")
        started = time.monotonic()
        results = run_plan(
            payload, plan, jobs=2, policy=RetryPolicy(retries=2, **FAST)
        )
        assert time.monotonic() - started < 3.0
        assert merged(results) == baseline
        snap = counters()
        assert snap["explore.pool_respawns"] == 2
        assert snap["explore.retries"] == 2
        assert "explore.fallbacks" not in snap

    def test_hang_times_out_and_retries(self, counters, monkeypatch):
        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "hang:2")
        monkeypatch.setenv("SLIF_FAULT_HANG_SECONDS", "30")
        results = run_plan(
            payload,
            plan,
            jobs=2,
            policy=RetryPolicy(timeout=1.0, retries=2, **FAST),
        )
        assert merged(results) == baseline
        snap = counters()
        assert snap["explore.timeouts"] >= 1
        assert snap["explore.retries"] >= 1

    @pytest.mark.parametrize(
        "faults, retries, expected",
        [
            ("hang:0,hang:1", 2, dict(timeouts=2, retries=2, fallbacks=0)),
            (
                "hang:0:99,hang:1:99",
                1,
                dict(timeouts=4, retries=2, fallbacks=2),
            ),
        ],
    )
    def test_hung_workers_are_killed_and_replaced(
        self, counters, monkeypatch, faults, retries, expected
    ):
        """More hangs than workers: each worker whose lease times out is
        killed and replaced, so the sweep ends after a few timeouts, not
        after the hang; chunks that time out on every attempt fall back
        in-process."""
        import time

        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", faults)
        monkeypatch.setenv("SLIF_FAULT_HANG_SECONDS", "30")
        started = time.monotonic()
        results = run_plan(
            payload,
            plan,
            jobs=2,
            policy=RetryPolicy(timeout=0.3, retries=retries, **FAST),
        )
        assert time.monotonic() - started < 10
        assert merged(results) == baseline
        snap = counters()
        for name, value in expected.items():
            assert snap.get(f"explore.{name}", 0) == value, name
        assert "explore.pool_respawns" not in snap

    def test_transient_error_is_retried(self, counters, monkeypatch):
        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "transient:0")
        results = run_plan(
            payload, plan, jobs=2, policy=RetryPolicy(retries=2, **FAST)
        )
        assert merged(results) == baseline
        assert counters()["explore.retries"] == 1

    def test_unpicklable_result_is_retried(self, counters, monkeypatch):
        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "pickle:3")
        results = run_plan(
            payload, plan, jobs=2, policy=RetryPolicy(retries=2, **FAST)
        )
        assert merged(results) == baseline
        assert counters()["explore.retries"] == 1

    def test_retry_delays_are_recorded_once(self, counters, monkeypatch):
        payload, plan = restart_payload(), restart_plan_of(4)
        monkeypatch.setenv("SLIF_FAULTS", "transient:0,transient:3")
        run_plan(payload, plan, jobs=2, policy=RetryPolicy(retries=2, **FAST))
        snap = obs.snapshot()
        assert snap["counters"]["explore.retries"] == 2
        assert snap["histograms"]["explore.retry_delay_seconds"]["count"] == 2

    def test_combined_faults_still_identical(self, counters, monkeypatch):
        """The acceptance scenario: crash + hang + transient at once."""
        payload, plan = restart_payload(), restart_plan_of(6)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "crash:4,hang:2,transient:0")
        monkeypatch.setenv("SLIF_FAULT_HANG_SECONDS", "30")
        results = run_plan(
            payload,
            plan,
            jobs=4,
            policy=RetryPolicy(timeout=1.0, retries=3, **FAST),
        )
        assert merged(results) == baseline
        assert counters()["explore.retries"] >= 2


class TestGracefulDegradation:
    def test_exhausted_chunk_falls_back_in_process(self, counters, monkeypatch):
        """A chunk the pool can never finish still completes the sweep."""
        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "transient:2:99")  # every attempt
        results = run_plan(
            payload, plan, jobs=2, policy=RetryPolicy(retries=1, **FAST)
        )
        assert merged(results) == baseline
        snap = counters()
        assert snap["explore.fallbacks"] == 1
        assert snap["explore.retries"] == 1

    def test_crash_exhausted_chunk_falls_back(self, counters, monkeypatch):
        """A chunk whose worker dies on every attempt finishes in-process."""
        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "crash:1:99")
        results = run_plan(
            payload, plan, jobs=2, policy=RetryPolicy(retries=1, **FAST)
        )
        assert merged(results) == baseline
        snap = counters()
        assert snap["explore.fallbacks"] == 1
        # the first death was replaced; the second exhausted the chunk
        assert snap["explore.pool_respawns"] == 2

    def test_hung_worker_is_terminated_despite_a_sigterm_handler(
        self, counters, monkeypatch
    ):
        """A parent's SIGTERM handler (``slif serve`` installs one) must
        not keep a hung local worker alive after the sweep ends."""
        import signal
        import time

        payload, plan = restart_payload(), restart_plan_of(4)
        monkeypatch.setenv("SLIF_FAULTS", "hang:1")
        monkeypatch.setenv("SLIF_FAULT_HANG_SECONDS", "20")
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            started = time.monotonic()
            run_plan(
                payload,
                plan,
                jobs=2,
                policy=RetryPolicy(timeout=0.3, retries=1, **FAST),
            )
            assert time.monotonic() - started < 10
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_jobs_1_builds_no_coordinator_and_starts_no_process(
        self, monkeypatch
    ):
        import multiprocessing

        from repro.fleet.coordinator import FleetCoordinator

        def refuse(*args, **kwargs):
            raise AssertionError("jobs=1 must stay in-process")

        monkeypatch.setattr(FleetCoordinator, "__init__", refuse)
        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        results = run_plan(restart_payload(), restart_plan_of(4), jobs=1)
        assert [r.chunk_index for r in results] == [0, 1, 2, 3]

    def test_local_fleet_is_freed_without_the_cyclic_collector(
        self, monkeypatch
    ):
        """A reference cycle through the local fleet would keep each
        sweep's payload alive until a full collection: higher peak RSS
        for back-to-back sweeps."""
        import gc
        import weakref

        from repro.fleet import local

        fleets = []
        build = local.LocalFleet.__init__

        def track(self, payload):
            build(self, payload)
            fleets.append(weakref.ref(self))

        monkeypatch.setattr(local.LocalFleet, "__init__", track)
        gc.disable()
        try:
            run_plan(restart_payload(), restart_plan_of(4), jobs=2)
            assert len(fleets) == 1 and fleets[0]() is None
        finally:
            gc.enable()

    def test_faults_never_fire_on_the_inprocess_path(self, counters, monkeypatch):
        """jobs=1 bypasses injection entirely — crash faults are safe."""
        payload, plan = restart_payload(), restart_plan_of(4)
        monkeypatch.setenv("SLIF_FAULTS", "crash:0:99,crash:1:99")
        baseline = merged(run_plan(payload, plan, jobs=1))
        assert baseline is not None
        assert "explore.pool_respawns" not in counters()


class TestFleetRecovery:
    """The same accounting when a remote coordinator runs the sweep."""

    def test_transient_error_is_retried(self, counters, monkeypatch):
        from repro.fleet import FleetCoordinator

        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "transient:0")
        with WorkerThreads(FleetCoordinator(), count=2) as workers:
            results = run_plan(
                payload, plan, policy=RetryPolicy(retries=2, **FAST),
                fleet=workers.spec,
            )
        assert merged(results) == baseline
        snap = obs.snapshot()
        assert snap["counters"]["explore.retries"] == 1
        assert snap["histograms"]["explore.retry_delay_seconds"]["count"] == 1

    def test_exhausted_chunk_falls_back_in_process(self, counters, monkeypatch):
        from repro.fleet import FleetCoordinator

        payload, plan = restart_payload(), restart_plan_of(4)
        baseline = merged(run_plan(payload, plan, jobs=1))
        monkeypatch.setenv("SLIF_FAULTS", "transient:2:99")
        with WorkerThreads(FleetCoordinator(), count=2) as workers:
            results = run_plan(
                payload, plan, policy=RetryPolicy(retries=1, **FAST),
                fleet=workers.spec,
            )
        assert merged(results) == baseline
        snap = counters()
        assert snap["explore.fallbacks"] == 1
        assert snap["explore.retries"] == 1
