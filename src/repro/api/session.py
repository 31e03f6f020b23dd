"""High-level system construction and reusable estimation sessions.

This module is the canonical home of :class:`DesignSystem` and
:func:`build_system` (also re-exported as ``repro.build_system``),
plus the pieces the facade and the serving layer add on top:

* :func:`session_key` — a stable content hash over the resolved source
  and architecture parameters; two calls that would build the same
  annotated graph get the same key.  This is what the server's graph
  cache and the estimate batcher key on.
* :class:`Session` — one built system plus its lazily compiled batch
  kernel and a lock, safe to share across threads and requests.
  Building a session is the expensive part (parse + annotate, ~100 ms);
  everything the facade does with one afterwards is O(graph).  Every
  facade estimate — ``api.estimate``, ``api.estimate_many`` and the
  report ``api.partition`` returns — is scored on that kernel, every
  ``api.explore`` sweeps the session's own graph and kernel, and
  greedy ``api.partition`` descents score their moves on the kernel's
  compiled graph; the session memoizes no reference estimator.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.channels import FreqMode
from repro.core.graph import Slif
from repro.core.partition import Partition, single_bus_partition
from repro.errors import SlifError


@dataclass
class DesignSystem:
    """A ready-to-explore system: annotated graph plus a partition."""

    slif: Slif
    partition: Partition

    def report(self, mode: FreqMode = FreqMode.AVG, concurrent: bool = False):
        """Full estimate of the current partition (Section 3 metrics)."""
        from repro.estimate.engine import Estimator

        return Estimator(self.slif, self.partition, mode, concurrent).report()

    def execution_time(self, behavior: str) -> float:
        """Eq. 1 for one behavior under the current partition."""
        from repro.estimate.exectime import execution_time

        return execution_time(self.slif, self.partition, behavior)

    def repartition(self, algorithm: str = "greedy", seed: int = 0, **kwargs):
        """Run a partitioning algorithm; updates and returns the partition.

        ``algorithm`` is one of ``greedy``, ``annealing``,
        ``group_migration``, ``clustering`` or ``random``.
        """
        from repro.partition import run_algorithm

        result = run_algorithm(
            algorithm, self.slif, self.partition, seed=seed, **kwargs
        )
        self.partition = result.partition
        return result

    def explore(
        self,
        constraint_steps: int = 8,
        random_starts: int = 5,
        seed: int = 0,
        jobs: int = 1,
        policy=None,
        checkpoint=None,
        resume: bool = False,
    ):
        """Sweep the time/area trade-off (Pareto front) from here.

        ``jobs`` fans candidate evaluation across worker processes (0 =
        all cores); the front is identical for any value given the same
        seed.  ``policy`` tunes the fault-tolerant dispatch loop
        (per-chunk timeout, retries, backoff); ``checkpoint`` journals
        completed chunks and ``resume`` replays such a journal so an
        interrupted sweep only re-evaluates what is missing.
        """
        from repro.partition.pareto import explore_pareto

        return explore_pareto(
            self.slif,
            self.partition,
            constraint_steps=constraint_steps,
            random_starts=random_starts,
            seed=seed,
            jobs=jobs,
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
        )

    def to_dot(self, annotate: bool = True) -> str:
        """DOT rendering of the access graph, clustered by component."""
        from repro.core.dot import to_dot

        return to_dot(self.slif, self.partition, annotate=annotate)


def session_key(
    spec: str,
    *,
    processor_name: str = "CPU",
    asic_name: str = "HW",
    bus_bitwidth: int = 16,
) -> str:
    """Content hash identifying the session :func:`load` would build.

    Stable across processes: two specs that resolve to the same
    canonical source and architecture parameters share a key, so a
    graph cache can serve both from one parsed+annotated session.  A
    spec named like a bundled benchmark but resolved by another front
    end (a file ``vol.vhd``) also hashes that front end's name: it
    lacks the benchmark's branch profile, so it builds another graph.  For
    structured formats (``slif-synth``) the hashed source is the
    canonical JSON encoding of the payload, so generated specs are
    content-addressed regardless of whitespace or key order.  Like
    :func:`load`, it takes an already resolved spec as well.
    """
    return _key_from_resolved(
        _resolve(spec),
        processor_name=processor_name,
        asic_name=asic_name,
        bus_bitwidth=bus_bitwidth,
    )


def _resolve(spec):
    """``spec`` through the front-end registry; a ResolvedSpec as is."""
    from repro.api.frontends import FRONTENDS, ResolvedSpec

    return spec if isinstance(spec, ResolvedSpec) else FRONTENDS.resolve(spec)


def _key_from_resolved(
    resolved,
    *,
    processor_name: str = "CPU",
    asic_name: str = "HW",
    bus_bitwidth: int = 16,
) -> str:
    from repro.specs import SPEC_NAMES

    parts = [resolved.source, resolved.name, processor_name, asic_name,
             str(bus_bitwidth)]
    if resolved.frontend != "benchmark" and resolved.name in SPEC_NAMES:
        # a file named like a bundled benchmark can hold its source, yet
        # builds another graph: it has no branch profile
        parts.append(resolved.frontend)
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()[:24]


def _build_from_resolved(
    resolved,
    *,
    processor_name: str = "CPU",
    asic_name: str = "HW",
    bus_bitwidth: int = 16,
) -> DesignSystem:
    """Parse, annotate, allocate and initial-partition one resolved spec."""
    from repro.api.frontends import FRONTENDS
    from repro.core.components import Bus, Processor
    from repro.obs import span
    from repro.synth.techlib import default_library

    with span("system.build", spec=resolved.name):
        library = default_library()
        slif = FRONTENDS.parse(resolved, library)

        proc_tech = library.processors["proc"].technology()
        asic_tech = library.asics["asic"].technology()
        slif.add_processor(Processor(processor_name, proc_tech))
        slif.add_processor(Processor(asic_name, asic_tech))
        slif.add_bus(Bus("sysbus", bitwidth=bus_bitwidth, ts=0.1, td=1.0))

        object_map = {obj: processor_name for obj in slif.bv_names()}
        partition = single_bus_partition(
            slif, object_map, name=f"{resolved.name}-initial"
        )
    return DesignSystem(slif=slif, partition=partition)


def build_system(
    spec: str,
    *,
    processor_name: str = "CPU",
    asic_name: str = "HW",
    bus_bitwidth: int = 16,
    seed: int = 0,
) -> DesignSystem:
    """Build a :class:`DesignSystem` for any registered spec form.

    ``spec`` is anything the front-end registry accepts: a bundled
    benchmark name (``ans``, ``ether``, ``fuzzy``, ``vol``), a full
    VHDL-subset source text, a ``slif-synth`` JSON document, or a path
    to a file holding either.  The architecture is the paper's
    evaluation target: one standard processor, one ASIC, and a single
    system bus; all behaviors start on the processor and are then free
    to be repartitioned.
    """
    from repro.api.frontends import FRONTENDS

    return _build_from_resolved(
        FRONTENDS.resolve(spec),
        processor_name=processor_name,
        asic_name=asic_name,
        bus_bitwidth=bus_bitwidth,
    )


@dataclass
class Session:
    """One built system, shareable across threads and requests.

    ``key`` is the :func:`session_key` content hash.  ``lock``
    serializes the one-time kernel compile (:meth:`kernel`) and the
    copy of the session partition a search starts from; once built, the
    kernel is returned without it.  Estimates and sweeps run outside
    it: the kernel and the reference estimators only read the graph and
    the partition, and every facade operation that moves objects
    (partitioning, exploration, simulation) does so on copies.

    ``answers`` is where the server memoizes its estimate responses:
    the canonical JSON body per ``(mode, concurrent)``, of which a
    session has at most six.  It lives and dies with the session.
    """

    system: DesignSystem
    key: str
    spec_name: str
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    answers: Dict[Tuple[str, bool], str] = field(
        default_factory=dict, init=False, repr=False
    )
    _kernel: object = field(default=None, repr=False)

    @property
    def slif(self) -> Slif:
        return self.system.slif

    @property
    def partition(self) -> Partition:
        return self.system.partition

    def kernel(self):
        """The session's :class:`~repro.estimate.kernel.BatchKernel`.

        Compiled lazily, once, under the session lock.  ``api.estimate``,
        ``api.estimate_many`` (which the serving layer calls),
        ``api.partition``'s report and ``api.explore``'s design points
        are all scored with it, and its compiled graph scores the moves
        of every descent they run.  On a graph with a call cycle it
        abstains from everything, and the reference estimators answer.
        """
        if self._kernel is None:
            from repro.estimate.kernel import BatchKernel

            with self.lock:
                if self._kernel is None:
                    self._kernel = BatchKernel.for_graph(self.slif)
        return self._kernel


def load(
    spec: str,
    *,
    processor_name: str = "CPU",
    asic_name: str = "HW",
    bus_bitwidth: int = 16,
) -> Session:
    """Parse, annotate and wrap one spec as a reusable :class:`Session`.

    The facade's entry point for everything: resolve the spec through
    the front-end registry (bundled name, VHDL text, ``slif-synth``
    JSON, or a path), build the annotated system once, and hand back a
    session whose kernel is compiled once, on first use.  ``spec`` may
    also be a :class:`~repro.api.frontends.ResolvedSpec` the registry
    already returned, which is not resolved again: the server's graph
    cache resolves before it knows whether it must build.

    >>> from repro import api
    >>> session = api.load("vol")
    >>> session.spec_name
    'vol'
    >>> len(session.key)
    24
    """
    from repro.obs import OBS, span

    # the span covers resolution and keying too, so a load's whole cost
    # is attributed to it
    with span("api.load") as sp:
        resolved = _resolve(spec)
        key = _key_from_resolved(
            resolved,
            processor_name=processor_name,
            asic_name=asic_name,
            bus_bitwidth=bus_bitwidth,
        )
        sp.set_attribute("spec", resolved.name)
        sp.set_attribute("session_key", key)
        system = _build_from_resolved(
            resolved,
            processor_name=processor_name,
            asic_name=asic_name,
            bus_bitwidth=bus_bitwidth,
        )
    if OBS.enabled:
        OBS.inc("api.session.builds")
        OBS.observe("api.session.build_seconds", sp.duration)
    return Session(system=system, key=key, spec_name=resolved.name)
