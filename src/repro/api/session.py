"""High-level system construction and reusable estimation sessions.

This module is the canonical home of :class:`DesignSystem` and
:func:`build_system` (also re-exported as ``repro.build_system``),
plus the pieces the facade and the serving layer add on top:

* :func:`resolve_spec` — one resolution rule for every entry point,
  delegated to the pluggable front-end registry
  (:data:`repro.api.frontends.FRONTENDS`): a spec argument is a bundled
  benchmark name, a ``slif-synth`` JSON document, VHDL-subset source
  text, or a filesystem path holding any of those.
* :func:`session_key` — a stable content hash over the resolved source
  and architecture parameters; two calls that would build the same
  annotated graph get the same key.  This is what the server's graph
  cache and the estimate batcher key on.
* :class:`Session` — one built system plus memoized estimators and a
  lock, safe to share across threads and requests.  Building a session
  is the expensive part (parse + annotate, ~100 ms); everything the
  facade does with one afterwards is O(graph).
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


def resolve_spec(spec: str) -> Tuple[str, str, Optional[object]]:
    """Resolve a spec argument to ``(source text, name, profile)``.

    Back-compat wrapper over the front-end registry
    (:data:`repro.api.frontends.FRONTENDS`), which owns the resolution
    order: bundled benchmark names win, then inline spec text
    (``slif-synth`` JSON, VHDL source), then a filesystem path holding
    either.  Anything else is a :class:`SlifError` naming the
    registered front ends.
    """
    from repro.api.frontends import FRONTENDS

    resolved = FRONTENDS.resolve(spec)
    return resolved.source, resolved.name, resolved.profile


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
    graph cache can serve both from one parsed+annotated session.  For
    structured formats (``slif-synth``) the hashed source is the
    canonical JSON encoding of the payload, so generated specs are
    content-addressed regardless of whitespace or key order.
    """
    from repro.api.frontends import FRONTENDS

    return _key_from_resolved(
        FRONTENDS.resolve(spec),
        processor_name=processor_name,
        asic_name=asic_name,
        bus_bitwidth=bus_bitwidth,
    )


def _key_from_resolved(
    resolved,
    *,
    processor_name: str = "CPU",
    asic_name: str = "HW",
    bus_bitwidth: int = 16,
) -> str:
    blob = "\x00".join(
        [resolved.source, resolved.name, processor_name, asic_name,
         str(bus_bitwidth)]
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


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
    serializes work that touches the session's memoized estimators
    (their memo tables are plain dicts); the facade takes it around
    every estimate.  Heavy operations (partitioning, exploration,
    simulation) read the graph without mutating it and evaluate
    candidate partitions on copies, so they run outside the lock.
    """

    system: DesignSystem
    key: str
    spec_name: str
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    _estimators: Dict[Tuple[str, bool], object] = field(
        default_factory=dict, repr=False
    )
    _kernel: object = field(default=None, repr=False)

    @property
    def slif(self) -> Slif:
        return self.system.slif

    @property
    def partition(self) -> Partition:
        return self.system.partition

    def estimator(self, mode: FreqMode = FreqMode.AVG, concurrent: bool = False):
        """Memoized :class:`~repro.estimate.engine.Estimator` per mode.

        The estimator's memoized execution-time evaluator is what makes
        a warm session's estimates hundreds of times cheaper than a
        cold build — reusing it across requests is the whole point of
        caching sessions.
        """
        from repro.estimate.engine import Estimator

        key = (mode.value, bool(concurrent))
        with self.lock:
            est = self._estimators.get(key)
            if est is None:
                est = Estimator(self.slif, self.partition, mode, concurrent)
                self._estimators[key] = est
            return est

    def kernel(self):
        """The session's :class:`~repro.estimate.kernel.BatchKernel`, or None.

        Compiled lazily, once, under the session lock; ``None`` when the
        kernel is unavailable (disabled via ``SLIF_KERNEL=off``, or the
        graph has a call cycle), in which case callers stay on the
        memoized estimators.  :func:`~repro.api.facade.estimate_many`,
        which the serving layer calls for every estimate, scores its
        requests with it in one flat-array sweep.
        """
        from repro.estimate.kernel import BatchKernel, KernelUnavailable

        with self.lock:
            if self._kernel is None:
                try:
                    self._kernel = BatchKernel.for_graph(self.slif)
                except KernelUnavailable:
                    self._kernel = False
            return self._kernel or None


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
    session whose estimators are memoized across calls.

    >>> from repro import api
    >>> session = api.load("vol")
    >>> session.spec_name
    'vol'
    >>> len(session.key)
    24
    """
    from repro.api.frontends import FRONTENDS
    from repro.obs import OBS, span

    resolved = FRONTENDS.resolve(spec)
    key = _key_from_resolved(
        resolved,
        processor_name=processor_name,
        asic_name=asic_name,
        bus_bitwidth=bus_bitwidth,
    )
    with span("api.load", spec=resolved.name, session_key=key) as sp:
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
