"""RetryPolicy arithmetic, error taxonomy, and jobs=1/jobs=N parity."""

import pytest

from repro.core.partition import single_bus_partition
from repro.core.serialize import partition_to_dict, slif_to_dict
from repro.errors import PartitionError, SlifError, WorkerError
from repro.explore import (
    CandidateSpec,
    PlanPayload,
    RetryPolicy,
    WorkPlan,
    merge_restarts,
    run_plan,
)
from repro.explore import engine
from repro.explore.engine import RecoveryStats

from _helpers import build_demo_graph


class TestRetryPolicy:
    def test_default_schedule(self):
        """50 ms doubling up to 5 s, with jitter within ±25 %."""
        policy = RetryPolicy()
        for chunk in range(8):
            for attempt, base in ((1, 0.05), (2, 0.1), (3, 0.2), (10, 5.0)):
                assert 0.75 * base <= policy.delay(chunk, attempt) <= 1.25 * base

    def test_exponential_growth_without_jitter(self, monkeypatch):
        monkeypatch.setattr(engine, "BACKOFF", 0.5)
        monkeypatch.setattr(engine, "BACKOFF_FACTOR", 2.0)
        monkeypatch.setattr(engine, "JITTER", 0.0)
        policy = RetryPolicy()
        assert [policy.delay(0, n) for n in (1, 2, 3, 4)] == [
            0.5, 1.0, 2.0, 4.0,
        ]

    def test_delay_capped_at_max(self, monkeypatch):
        monkeypatch.setattr(engine, "BACKOFF", 1.0)
        monkeypatch.setattr(engine, "MAX_DELAY", 3.0)
        monkeypatch.setattr(engine, "JITTER", 0.0)
        policy = RetryPolicy()
        assert policy.delay(0, 10) == 3.0

    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        c = RetryPolicy(seed=8)
        for chunk in range(4):
            for attempt in (1, 2):
                assert a.delay(chunk, attempt) == b.delay(chunk, attempt)
        assert any(
            a.delay(chunk, 1) != c.delay(chunk, 1) for chunk in range(4)
        )

    def test_jitter_stays_within_fraction(self, monkeypatch):
        monkeypatch.setattr(engine, "BACKOFF", 1.0)
        monkeypatch.setattr(engine, "BACKOFF_FACTOR", 1.0)
        policy = RetryPolicy()
        for chunk in range(20):
            delay = policy.delay(chunk, 1)
            assert 0.75 <= delay <= 1.25

    def test_jitter_varies_by_chunk(self, monkeypatch):
        monkeypatch.setattr(engine, "BACKOFF", 1.0)
        monkeypatch.setattr(engine, "BACKOFF_FACTOR", 1.0)
        policy = RetryPolicy()
        delays = {policy.delay(chunk, 1) for chunk in range(8)}
        assert len(delays) > 1


class TestErrorTaxonomy:
    def test_merge_restarts_empty_raises_partition_error(self):
        # regression: this used to be a bare ValueError outside the
        # package taxonomy — callers catching SlifError missed it
        with pytest.raises(PartitionError):
            merge_restarts([])
        with pytest.raises(SlifError):
            merge_restarts([])


class TestRecoveryStats:
    def test_render_and_any(self):
        stats = RecoveryStats()
        assert not stats.any()
        stats.retries = 2
        stats.chunks_skipped = 3
        assert stats.any()
        text = stats.render()
        assert "retries=2" in text
        assert "chunks_skipped=3" in text


# ----------------------------------------------------------------------
# jobs=1 vs jobs=N error-surfacing parity


def broken_payload() -> PlanPayload:
    """A restart payload whose base partition is missing one object."""
    graph = build_demo_graph()
    mapping = {"Main": "CPU", "Sub": "CPU", "buf": "RAM"}  # 'flag' unmapped
    partition = single_bus_partition(graph, mapping, name="broken")
    return PlanPayload(
        task="restart",
        slif_data=slif_to_dict(graph),
        partition_data=partition_to_dict(partition),
    )


def greedy_specs(count: int):
    return [
        CandidateSpec(
            index=i, kind="start", label=f"greedy.{i}", algorithm="greedy"
        )
        for i in range(count)
    ]


class TestErrorParity:
    def test_same_worker_error_message_for_any_jobs(self, fast_backoff):
        """The failing candidate surfaces with identical label, candidate
        index and chunk index whether it ran in-process or in a pool."""
        plan = WorkPlan(greedy_specs(4), chunk_size=1)
        messages = {}
        for jobs in (1, 2, 4):
            with pytest.raises(WorkerError) as excinfo:
                run_plan(
                    broken_payload(),
                    plan,
                    jobs=jobs,
                    policy=RetryPolicy(),
                )
            messages[jobs] = str(excinfo.value)
        assert messages[1] == messages[2] == messages[4]
        assert "candidate 'greedy.0' (index 0, chunk 0)" in messages[1]

    def test_candidate_errors_are_not_retried(self, monkeypatch, fast_backoff):
        """Deterministic candidate failures must not burn the retry
        budget — the pool surfaces them directly."""
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            with pytest.raises(WorkerError):
                run_plan(
                    broken_payload(),
                    WorkPlan(greedy_specs(2), chunk_size=1),
                    jobs=2,
                    policy=RetryPolicy(retries=5),
                )
            snap = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert "explore.retries" not in snap
