"""Local worker processes: what ``--jobs N`` runs on.

:func:`local_fleet` starts a private
:class:`~repro.fleet.coordinator.FleetCoordinator` and ``jobs``
:class:`~repro.fleet.worker.FleetWorker` processes that talk to it over
pipes, and yields the :class:`~repro.fleet.protocol.FleetSpec` that
:func:`~repro.fleet.client.run_fleet_chunks` drives the sweep with.  So
a local sweep is scheduled exactly like a ``--workers`` one: the same
leases, timeouts, seeded requeues, first-wins dedupe and exhaustion
reports.

What differs is the edges.  The parent builds the payload's live
state (graph, base partition and kernel) before it forks,
so each worker's :class:`~repro.explore.worker.ChunkRunner` reads
that state as inherited, copy-on-write, and rebuilds nothing.  No
payload is sent: the sweep carries no wire form, the coordinator
skips the payload fingerprint, and results cross the pipe as pickled
:class:`~repro.explore.worker.ChunkResult` objects, not JSON wire
forms.  Liveness is the pipe: a worker that dies closes it, the
coordinator requeues its lease at once (no heartbeats, no heartbeat
timeout), and a worker that died holding a lease is replaced.  A
worker whose lease times out is killed, since a hung one would
otherwise hold its core and its pipe forever, and replaced too.  Each
replacement costs that lease one retry, so the retry budget bounds
how many there can be.  The parent stays single-threaded: worker
requests are answered inside the sweep client's ``collect`` calls,
which return as soon as a result lands.  Cancelling the sweep stops
the workers, so an in-process fallback never shares the cores with
them.  A worker whose parent dies (SIGKILL skips every cleanup) exits
within :data:`ORPHAN_CHECK_SECONDS`: its pipe cannot tell it, since
the worker holds copies of the parent's pipe ends, so it watches its
parent pid.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import wait
from typing import Any, Dict, Iterator

from repro.errors import FleetError
from repro.explore.worker import ChunkRunner, PlanPayload
from repro.fleet.coordinator import FleetConfig, FleetCoordinator
from repro.fleet.protocol import FleetSpec
from repro.fleet.worker import FleetWorker

#: How long an idle worker waits before pulling again, in seconds.
POLL_SECONDS = 0.005
#: The longest a ``collect`` call waits for worker traffic, in seconds.
TICK_SECONDS = 0.05
#: How often a worker checks that its parent is alive, in seconds.
ORPHAN_CHECK_SECONDS = 0.25


class PipeTransport:
    """A worker's end of its pipe: one request, one reply."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def call(self, op: str, data: Dict[str, Any]) -> Dict[str, Any]:
        self.conn.send((op, data))
        reply = self.conn.recv()
        if isinstance(reply, Exception):
            raise reply
        return reply


class PipeWorker(FleetWorker):
    """A local worker: one runner on the inherited payload; results sent
    as objects.

    The pipe pickles whatever crosses it, so a result needs no JSON wire
    form, and the only payload this worker ever serves is the one its
    process was forked with — it never fetches one.
    """

    encode = staticmethod(lambda result: result)

    def __init__(self, transport, worker_id: str, payload: PlanPayload):
        super().__init__(transport, worker_id=worker_id)
        self.runner = ChunkRunner(payload)

    def _runner_for(self, sweep_id: str, fingerprint: str) -> ChunkRunner:
        return self.runner


def _exit_with(parent: int) -> None:
    """End this process once ``parent`` is gone (it is then reparented)."""
    while os.getppid() == parent:
        time.sleep(ORPHAN_CHECK_SECONDS)
    os._exit(1)


def _work(conn, worker_id: str, payload: PlanPayload, parent: int) -> None:
    """A local worker process: pull, evaluate, submit, until terminated."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # Ctrl-C is the parent's
    # a hung chunk or a blocked recv must not outlive the parent either
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()
    worker = PipeWorker(PipeTransport(conn), worker_id, payload)
    while True:
        if not worker.run_one():
            time.sleep(POLL_SECONDS)


class LocalFleet:
    """The parent's side: the coordinator, the workers and their pipes.

    It is also the sweep client's transport.  Every call goes straight
    to the coordinator (no JSON round trip); a ``collect`` first answers
    worker requests until a result lands or :data:`TICK_SECONDS` pass.
    The payload is warmed here, so every worker, replacements included,
    is forked with its live state built.
    """

    #: Workers are forked holding the payload; the sweep sends none.
    inherits_payload = True

    def __init__(self, payload: PlanPayload) -> None:
        self.payload = payload.warm()
        # workers whose lease timed out.  The coordinator is handed this
        # set's add, not a method of self: that would make a cycle that
        # keeps every sweep's payload alive until the cyclic collector runs
        self.hung: set = set()
        # liveness is the pipe, and no PipeWorker reads a fingerprint
        self.coordinator = FleetCoordinator(
            FleetConfig(heartbeat_timeout=math.inf),
            fingerprint=lambda wire: "",
            on_timeout=self.hung.add,
        )
        self.workers: Dict[str, tuple] = {}   # worker id -> (conn, process)

    def spawn(self) -> None:
        reply = self.coordinator.handle("register", {"host": "local"})
        worker_id = reply["worker_id"]
        conn, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_work,
            args=(child, worker_id, self.payload, os.getpid()),
            daemon=True,
        )
        process.start()
        child.close()
        self.workers[worker_id] = (conn, process)

    def call(self, op: str, data: Dict[str, Any]) -> Dict[str, Any]:
        if op == "collect":
            self._serve()
        reply = self.coordinator.handle(op, data)
        if op == "cancel":   # the sweep is over: free the cores
            self.close()
        return reply

    def _serve(self) -> None:
        deadline = time.monotonic() + TICK_SECONDS
        while True:
            # a hung worker may never return: kill it; its closed pipe
            # then replaces it, below
            for worker_id in self.hung & self.workers.keys():
                self.workers[worker_id][1].kill()
            conns = {conn: wid for wid, (conn, _) in self.workers.items()}
            ready = wait(list(conns), deadline - time.monotonic())
            if not ready:
                return
            landed = False
            for conn in ready:
                try:
                    op, data = conn.recv()
                except (EOFError, OSError):   # the worker died
                    self._lost(conns[conn])
                    landed = True             # its lease was requeued
                    continue
                try:
                    reply = self.coordinator.handle(op, data)
                except FleetError as exc:
                    reply = exc
                # a worker that died after asking shows as EOF next round
                with contextlib.suppress(OSError):
                    conn.send(reply)
                landed = landed or op == "result"
            if landed:
                return

    def _lost(self, worker_id: str) -> None:
        """A worker's pipe closed: requeue its lease; maybe replace it."""
        conn, process = self.workers.pop(worker_id)
        conn.close()
        process.join()
        if self.coordinator.drop_worker(worker_id) or worker_id in self.hung:
            self.spawn()

    def close(self) -> None:
        # SIGKILL, not SIGTERM: a handler inherited from the parent
        # (slif serve drains on SIGTERM) must not keep a worker alive
        for _, process in self.workers.values():
            process.kill()
        for conn, process in self.workers.values():
            process.join()
            conn.close()
        self.workers = {}


@contextlib.contextmanager
def local_fleet(payload: PlanPayload, jobs: int) -> Iterator[FleetSpec]:
    """``jobs`` local workers for one sweep; terminated on exit."""
    fleet = LocalFleet(payload)
    try:
        for _ in range(jobs):
            fleet.spawn()
        yield FleetSpec(transport=fleet, poll_seconds=0.0, idle_timeout=0.0)
    finally:
        fleet.close()
