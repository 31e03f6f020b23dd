"""A session's sweeps share its graph and kernel.

``api.explore`` evaluates on the session's own state: the kernel is
compiled by the first estimate or sweep (never by ``api.load``), its
compiled graph scores every descent's moves, and it is not rebuilt or
serialized by a later sweep, in this process or in a ``--jobs`` worker
forked with it.  That state is read-only during a sweep, so two
threads may sweep one session at once, and a forked worker never needs
the session lock: a ``jobs=2`` sweep completes while another thread
holds it.  A sweep without a session compiles its graph once, before it
forks.  ``api.partition`` reads the same compiled graph for every
algorithm, and its multi-start workers inherit it.
"""

import os
import sys
import threading

import pytest

import _golden
from repro import api
from repro.api.types import canonical_json
from repro.partition import ALGORITHMS

SPEC = _golden.spec_text("gen300")


@pytest.fixture()
def session():
    return api.load(SPEC)


@pytest.fixture(scope="module")
def warm_fuzzy():
    session = api.load("fuzzy")
    session.kernel()
    return session


def sweep(session, jobs=1):
    result = api.explore(api.ExploreRequest(spec=SPEC, jobs=jobs), session=session)
    return canonical_json(result.points), result.text


@pytest.fixture()
def calls(monkeypatch, tmp_path):
    """Record, in every process, each call of what a warm sweep must
    not redo; returns a reader of ``(pid, name)`` pairs."""
    import repro.core.serialize as serialize
    import repro.partition  # noqa: F401 - imports every search module
    from repro.api.session import Session
    from repro.estimate.compile import compile_graph

    log = tmp_path / "calls.log"

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {name}\n")
            return fn(*args, **kwargs)

        return wrapper

    for attr in (
        "slif_to_dict",
        "slif_from_dict",
        "partition_to_dict",
        "partition_from_dict",
    ):
        monkeypatch.setattr(serialize, attr, recording(attr, getattr(serialize, attr)))
    # in every module that binds it, so no compile goes unseen
    ours = [module for name, module in sys.modules.items() if name.startswith("repro.")]
    for module in ours:
        if vars(module).get("compile_graph") is compile_graph:
            monkeypatch.setattr(
                module, "compile_graph", recording("compile_graph", compile_graph)
            )
    monkeypatch.setattr(
        Session, "kernel", recording("Session.kernel", Session.kernel)
    )

    def read():
        if not log.exists():
            return []
        return [tuple(line.split()) for line in log.read_text().splitlines()]

    return read


def test_the_first_explore_compiles_the_kernel_not_load(session):
    assert session._kernel is None
    sweep(session)
    kernel = session.kernel()
    assert kernel is not None
    sweep(session, jobs=2)
    assert session.kernel() is kernel


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_warm_sweep_rebuilds_and_serializes_nothing(session, calls, jobs):
    reference = sweep(session)
    before = len(calls())
    assert sweep(session, jobs) == reference
    parent = str(os.getpid())
    made = calls()[before:]
    # the parent asks its session for the kernel, once
    assert [name for pid, name in made] == ["Session.kernel"]
    assert all(pid == parent for pid, _ in made)


def test_a_direct_sweep_builds_its_state_once_in_the_parent(calls):
    """Without a session, ``explore_pareto`` and ``run_multistart``
    each compile the graph once, before they fork."""
    from repro.api import build_system
    from repro.partition.greedy import greedy_multistart

    system = build_system(SPEC)
    system.explore(jobs=2)
    greedy_multistart(system.slif, system.partition, starts=7, jobs=2)
    parent = str(os.getpid())
    assert calls() == [(parent, "compile_graph"), (parent, "compile_graph")]


@pytest.mark.parametrize(
    "algorithm, jobs",
    [(algorithm, 1) for algorithm in sorted(ALGORITHMS)]
    + [("random", 2), ("greedy_multistart", 2)],
)
def test_a_warm_partition_compiles_nothing(warm_fuzzy, calls, algorithm, jobs):
    """Every search scores its moves on the session's compiled graph,
    in this process and in a worker forked with it."""
    api.partition(
        api.PartitionRequest(spec="fuzzy", algorithm=algorithm, jobs=jobs),
        session=warm_fuzzy,
    )
    assert "compile_graph" not in {name for _, name in calls()}


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
