"""Unit tests for the estimate batcher: zero-wait singleflight."""

import threading
import time

import pytest

from repro.serve.batching import MicroBatcher


class Gate:
    """A compute that blocks until released, counting its calls."""

    def __init__(self, value=None, error=None):
        self.value = value
        self.error = error
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(10), "gate never released"
        if self.error is not None:
            raise self.error
        return self.value


def submit(batcher, group, key, compute):
    """Run ``run_grouped`` on a new thread; returns (thread, outcome)."""
    outcome = {}

    def target():
        try:
            outcome["result"] = batcher.run_grouped(group, key, compute)
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    return thread, outcome


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def lead_and_follow(batcher, leader_gate, followers):
    """Start a leader on ``leader_gate``, then ``followers`` identical
    requests while it runs; release it once every follower has joined.
    Returns each caller's outcome (leader first) and the followers'
    own computes, which must never run."""
    leader, first = submit(batcher, "graph", ("avg", False), leader_gate)
    assert leader_gate.entered.wait(10)
    computes = [Gate() for _ in range(followers)]
    started = [
        submit(batcher, "graph", ("avg", False), compute)
        for compute in computes
    ]
    wait_until(lambda: batcher.coalesced == followers)
    leader_gate.release.set()
    for thread, _ in [(leader, first)] + started:
        thread.join(10)
    return [first] + [outcome for _, outcome in started], computes


class TestCoalescing:
    def test_identical_requests_evaluate_once(self):
        batcher = MicroBatcher()
        gate = Gate(value={"value": 42})
        outcomes, computes = lead_and_follow(batcher, gate, followers=7)
        assert gate.calls == 1  # one leader evaluated for everyone
        assert [c.calls for c in computes] == [0] * 7
        assert all("error" not in o for o in outcomes)
        # every caller holds the very object the leader computed
        assert all(o["result"] is outcomes[0]["result"] for o in outcomes)
        assert batcher.leaders == 1
        assert batcher.coalesced == 7
        assert batcher.stats()["pending"] == 0

    def test_different_keys_do_not_coalesce(self):
        batcher = MicroBatcher()
        gate = Gate(value="avg")
        thread, outcome = submit(batcher, "graph", ("avg", False), gate)
        assert gate.entered.wait(10)
        # while that flight runs, another key on the same graph and the
        # same key on another graph each compute at once on their own
        assert batcher.run_grouped(
            "graph", ("max", False), lambda: "max"
        ) == "max"
        assert batcher.run_grouped(
            "graph", ("avg", True), lambda: "avg-concurrent"
        ) == "avg-concurrent"
        assert batcher.run_grouped(
            "other-graph", ("avg", False), lambda: "other"
        ) == "other"
        assert batcher.stats()["pending"] == 1
        gate.release.set()
        thread.join(10)
        assert outcome == {"result": "avg"}
        assert gate.calls == 1
        assert batcher.stats() == {"leaders": 4, "coalesced": 0, "pending": 0}

    def test_sequential_requests_each_lead(self):
        batcher = MicroBatcher()
        assert batcher.run_grouped("graph", "k", lambda: 1) == 1
        assert batcher.run_grouped("graph", "k", lambda: 2) == 2
        assert batcher.stats() == {"leaders": 2, "coalesced": 0, "pending": 0}


class TestErrors:
    def test_leader_error_propagates_to_followers(self):
        batcher = MicroBatcher()
        error = RuntimeError("estimation blew up")
        gate = Gate(error=error)
        outcomes, computes = lead_and_follow(batcher, gate, followers=3)
        assert gate.calls == 1
        assert [c.calls for c in computes] == [0] * 3
        # every follower got the leader's exception, not a hang
        assert all(o == {"error": error} for o in outcomes)
        assert batcher.leaders == 1 and batcher.coalesced == 3
        assert batcher.stats()["pending"] == 0

    def test_group_cleared_after_error(self):
        batcher = MicroBatcher()

        def fail():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            batcher.run_grouped("graph", "k", fail)
        # the failed flight is gone: the next request computes afresh
        assert batcher.run_grouped("graph", "k", lambda: "recovered") == (
            "recovered"
        )
        assert batcher.stats() == {"leaders": 2, "coalesced": 0, "pending": 0}
