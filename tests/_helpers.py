"""Builders shared by test modules (importable, unlike conftest)."""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.core import Slif, SlifBuilder
from repro.core.partition import Partition, single_bus_partition


def build_demo_graph() -> Slif:
    """A small annotated system used across the unit tests.

    One process calling one procedure, one shared buffer, a flag, two
    ports; a CPU, an ASIC, a memory and one 16-wire bus.
    """
    return (
        SlifBuilder("demo")
        .process("Main", ict={"proc": 50.0, "asic": 8.0}, size={"proc": 120, "asic": 900, "mem": 0})
        .procedure(
            "Sub",
            ict={"proc": 20.0, "asic": 3.0},
            size={"proc": 60, "asic": 400, "mem": 0},
            parameter_bits=8,
        )
        .variable(
            "buf",
            bits=8,
            elements=64,
            ict={"proc": 0.2, "asic": 0.05, "mem": 0.2},
            size={"proc": 64, "asic": 768, "mem": 32},
        )
        .variable(
            "flag",
            bits=1,
            ict={"proc": 0.2, "asic": 0.05, "mem": 0.2},
            size={"proc": 1, "asic": 2, "mem": 1},
        )
        .port("in1", "in", 8)
        .port("out1", "out", 8)
        .call("Main", "Sub", freq=2)
        .read("Main", "in1", freq=1)
        .write("Main", "out1", freq=1)
        .read("Sub", "buf", freq=64)
        .write("Main", "flag", freq=3)
        .processor("CPU", "proc", size_constraint=500, io_constraint=64)
        .asic("HW", "asic", size_constraint=2000, io_constraint=100)
        .memory("RAM", "mem", size_constraint=256)
        .bus("sysbus", bitwidth=16, ts=0.1, td=1.0)
        .build()
    )


def build_demo_partition(slif: Slif, sub_on: str = "CPU") -> Partition:
    """All objects on the CPU except ``Sub`` (and buf on RAM)."""
    return single_bus_partition(
        slif,
        {"Main": "CPU", "Sub": sub_on, "buf": "RAM", "flag": "CPU"},
        name="demo",
    )


def same_length_variant(text: str) -> str:
    """A ``slif gen`` document of the same length with other estimates.

    The leading digits of its first behavior's two ``ict`` weights are
    changed.
    """
    for tag in ('"ict":{"asic":', '"proc":'):
        at = text.index(tag) + len(tag)
        digit = "2" if text[at] == "1" else "1"
        text = text[:at] + digit + text[at + 1:]
    return text


@contextmanager
def kernel_disabled():
    """Keep every estimate inside the block on the reference estimators.

    ``BatchKernel.evaluate`` and ``BatchKernel.reports`` abstain from
    every item there, as they do on a graph with a call cycle, so every
    caller falls back to the reference.  They are patched on the class,
    so a kernel compiled before the block abstains too: a warm
    ``Session``'s, and the one ``--jobs`` workers forked inside the
    block inherit.
    """
    from repro.estimate.kernel import BatchKernel

    evaluate, reports = BatchKernel.evaluate, BatchKernel.reports
    BatchKernel.evaluate = lambda self, candidates, hardware: [None] * len(candidates)
    BatchKernel.reports = lambda self, items: [None] * len(items)
    try:
        yield
    finally:
        BatchKernel.evaluate, BatchKernel.reports = evaluate, reports


@contextmanager
def floor_exit_disabled():
    """Run every greedy descent inside the block to its confirming pass.

    :meth:`~repro.partition.cost.PartitionCost.floor` returns ``None``
    there, as it does for a cost with a time term, so no descent ends at
    the floor; ``--jobs`` workers forked inside the block inherit that.
    """
    from repro.partition.cost import PartitionCost

    floor = PartitionCost.floor
    PartitionCost.floor = lambda self: None
    try:
        yield
    finally:
        PartitionCost.floor = floor


def greedy_outcome(slif, start, **kwargs):
    """What ``greedy_improve`` gives, as a comparable tuple.

    ``("value", repr(result), mapping, counters)`` with the
    ``partition.*`` and ``estimate.incremental.*`` counters it published
    (collection is reset and enabled around it), or ``("error", type
    name, message)`` for the :class:`~repro.errors.SlifError` it raised.
    """
    from repro import obs
    from repro.errors import SlifError
    from repro.partition.greedy import greedy_improve

    obs.reset()
    obs.enable()
    try:
        result = greedy_improve(slif, start, **kwargs)
    except SlifError as exc:
        return ("error", type(exc).__name__, str(exc))
    else:
        counters = {
            name: value
            for name, value in obs.snapshot()["counters"].items()
            if name.startswith(("partition.", "estimate.incremental."))
        }
        return ("value", repr(result), result.partition.object_mapping(), counters)
    finally:
        obs.disable()
        obs.reset()


class WorkerThreads:
    """``count`` in-process fleet workers pulling from ``coordinator``.

    Worker loops run as threads, inside the ``with`` block, over a JSON
    round-tripping :class:`~repro.fleet.client.LocalTransport`; they
    record telemetry into private registries (``isolate_obs=False``) so
    the host's stays intact.  ``spec`` is the
    :class:`~repro.fleet.protocol.FleetSpec` that sends a sweep to them.
    """

    def __init__(self, coordinator, count=2):
        from repro.fleet import FleetSpec, FleetWorker, LocalTransport

        self.stop = threading.Event()
        self.workers = []
        self.threads = []
        for _ in range(count):
            worker = FleetWorker(
                LocalTransport(coordinator), cache_size=2, isolate_obs=False
            )
            worker.register()
            thread = threading.Thread(
                target=worker.run,
                args=(self.stop,),
                kwargs={"poll_seconds": 0.005},
                daemon=True,
            )
            self.workers.append(worker)
            self.threads.append(thread)
        self.spec = FleetSpec(
            transport=LocalTransport(coordinator), poll_seconds=0.005
        )

    def __enter__(self):
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=10)
