"""A session's sweeps share its graph, move index and kernel.

``api.explore`` evaluates on the session's own state: the move index is
built by the first sweep (never by ``api.load``), the kernel is the one
estimates compile, and neither is rebuilt or serialized by a later
sweep, in this process or in a ``--jobs`` worker forked with them.
That state is read-only during a sweep, so two threads may sweep one
session at once, and a forked worker never needs the session lock:
a ``jobs=2`` sweep completes while another thread holds it.  A sweep
without a session builds its index and kernel once, before it forks.
"""

import os
import sys
import threading

import pytest

import _golden
from repro import api
from repro.api.types import canonical_json

SPEC = _golden.spec_text("gen300")


@pytest.fixture()
def session():
    return api.load(SPEC)


def sweep(session, jobs=1):
    result = api.explore(api.ExploreRequest(spec=SPEC, jobs=jobs), session=session)
    return canonical_json(result.points), result.text


@pytest.fixture()
def calls(monkeypatch, tmp_path):
    """Record, in every process, each call of what a warm sweep must
    not redo; returns a reader of ``(pid, name)`` pairs."""
    import repro.core.serialize as serialize
    import repro.estimate.incremental as incremental
    import repro.estimate.kernel as kernel
    from repro.api.session import Session

    log = tmp_path / "calls.log"

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {name}\n")
            return fn(*args, **kwargs)

        return wrapper

    for module, attr in (
        (serialize, "slif_to_dict"),
        (serialize, "slif_from_dict"),
        (serialize, "partition_to_dict"),
        (serialize, "partition_from_dict"),
        (kernel, "compile_graph"),
    ):
        monkeypatch.setattr(module, attr, recording(attr, getattr(module, attr)))
    monkeypatch.setattr(
        incremental.MoveIndex,
        "__init__",
        recording("MoveIndex", incremental.MoveIndex.__init__),
    )
    for attr in ("kernel", "move_index"):
        monkeypatch.setattr(
            Session, attr, recording(f"Session.{attr}", getattr(Session, attr))
        )

    def read():
        if not log.exists():
            return []
        return [tuple(line.split()) for line in log.read_text().splitlines()]

    return read


def test_the_first_explore_builds_the_move_index_not_load(session):
    assert session._index is None
    api.estimate(api.EstimateRequest(spec=SPEC), session=session)
    assert session._index is None
    sweep(session)
    index = session.move_index()
    assert index is not None
    sweep(session, jobs=2)
    assert session.move_index() is index


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_warm_sweep_rebuilds_and_serializes_nothing(session, calls, jobs):
    reference = sweep(session)
    before = len(calls())
    assert sweep(session, jobs) == reference
    parent = str(os.getpid())
    made = calls()[before:]
    # the parent asks its session for the index and kernel, once each
    assert sorted(name for pid, name in made) == [
        "Session.kernel",
        "Session.move_index",
    ]
    assert all(pid == parent for pid, _ in made)


def test_a_direct_sweep_builds_its_state_once_in_the_parent(calls):
    """Without a session, ``explore_pareto`` and ``run_multistart``
    build the move index (and a sweep its kernel) before they fork."""
    from repro.api import build_system
    from repro.partition.greedy import greedy_multistart

    system = build_system(SPEC)
    system.explore(jobs=2)
    greedy_multistart(system.slif, system.partition, starts=7, jobs=2)
    parent = str(os.getpid())
    assert sorted(calls()) == [
        (parent, "MoveIndex"),
        (parent, "MoveIndex"),
        (parent, "compile_graph"),
    ]


def test_two_threads_sweep_one_warm_session(session):
    reference = sweep(session)
    fronts = []
    barrier = threading.Barrier(2)

    def run():
        barrier.wait()
        for _ in range(3):
            fronts.append(sweep(session))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # interleave the two sweeps finely
    try:
        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert len(fronts) == 6
    assert all(front == reference for front in fronts)


def test_forked_sweep_completes_while_another_thread_holds_the_lock(
    session, calls
):
    reference = sweep(session)
    held, release = threading.Event(), threading.Event()

    def hold():
        with session.lock:
            held.set()
            release.wait(timeout=120)

    holder = threading.Thread(target=hold)
    holder.start()
    fronts = []
    try:
        assert held.wait(timeout=10)
        worker = threading.Thread(target=lambda: fronts.append(sweep(session, 2)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "the jobs=2 sweep waited on the lock"
    finally:
        release.set()
        holder.join()
    assert fronts == [reference]
    parent = str(os.getpid())
    assert {pid for pid, _ in calls()} == {parent}
