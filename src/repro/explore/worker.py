"""Chunk evaluation: the per-process side of parallel exploration.

A :class:`ChunkRunner` evaluates chunks on the live state its
:class:`PlanPayload` carries: the annotated graph, the base partition
and the graph's :class:`~repro.estimate.kernel.BatchKernel`, whose
compiled graph also scores every descent's moves.  A sweep only reads
them: each candidate's synthetic size budgets go to its descent as an
override map, never onto the graph.  So one runner serves ``--jobs 1``
on the caller's own state (a warm session's, for ``api.explore``), and
the local worker processes of ``--jobs N`` (see
:mod:`repro.fleet.local`) inherit that state copy-on-write when they
fork.  Only a ``slif work`` daemon (see :mod:`repro.fleet.worker`)
rebuilds it, once per payload, from the plain-dict form that crossed
the wire.  The memoized
:class:`~repro.estimate.exectime.ExecTimeEstimator` and
:class:`~repro.estimate.incremental.IncrementalEstimator` each descent
constructs live and die inside it.

Every candidate is evaluated as a pure function of ``(graph, spec)``;
see :mod:`repro.explore.plan` for why that makes results independent of
the worker count.

Candidate failures are re-raised as
:class:`~repro.errors.WorkerError` — a message-only
:class:`~repro.errors.PartitionError` subclass that survives the trip
between processes — carrying the original exception type, message and
the candidate context (label, index, chunk).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SlifError, WorkerError
from repro.explore.plan import CandidateSpec, Chunk


@dataclass(frozen=True)
class ObsContext:
    """Trace context shipped with every chunk dispatch.

    Carries the coordinator's trace id across the process boundary so
    worker-side spans group under the originating CLI command or HTTP
    request, and the ``collect`` flag so workers only pay for telemetry
    when the coordinator asked for it (``--stats`` / ``--trace-out``).
    """

    trace_id: Optional[str] = None
    collect: bool = False


@dataclass
class PlanPayload:
    """Everything a chunk runner needs to evaluate a plan.

    ``task`` selects the evaluation mode: ``"pareto"`` produces
    time/area design points, ``"restart"`` produces cost-function
    outcomes for multi-start partitioning.

    The graph comes in one of two forms.  A sweep started in this
    process passes the live ``slif`` and base ``partition`` (and, when
    it holds one, the graph's ``kernel``); nothing here mutates them.
    A payload that crossed the fleet wire carries the plain-dict
    ``slif_data``/``partition_data`` instead.  Each form is
    built from the other on first need, once: :meth:`plain` for the
    wire and checkpoint fingerprints, :meth:`warm` for evaluation.
    """

    task: str
    slif_data: Optional[Dict[str, Any]] = None
    partition_data: Optional[Dict[str, Any]] = None
    hardware: Tuple[str, ...] = ()
    weights: Optional[Any] = None            # CostWeights, picklable
    time_constraint: Optional[float] = None
    slif: Any = field(default=None, repr=False, compare=False)
    partition: Any = field(default=None, repr=False, compare=False)
    #: the graph's BatchKernel, None until built
    kernel: Any = field(default=None, repr=False, compare=False)

    def plain(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """The plain-dict graph and base partition."""
        if self.slif_data is None:
            from repro.core.serialize import partition_to_dict, slif_to_dict

            self.slif_data = slif_to_dict(self.slif)
            self.partition_data = partition_to_dict(self.partition)
        return self.slif_data, self.partition_data

    def warm(self) -> "PlanPayload":
        """Build the live state a runner reads; returns ``self``.

        The graph and base partition, and the batch kernel: a
        ``"pareto"`` task scores its design points on it, and every
        descent scores its moves on its compiled graph.
        """
        if self.slif is None:
            from repro.core.serialize import partition_from_dict, slif_from_dict

            self.slif = slif_from_dict(self.slif_data)
            self.partition = partition_from_dict(self.partition_data, self.slif)
        if self.kernel is None:
            from repro.estimate.kernel import BatchKernel

            self.kernel = BatchKernel.for_graph(self.slif)
        return self


@dataclass(frozen=True)
class RestartOutcome:
    """One multi-start candidate's result, without the heavy mapping."""

    index: int
    cost: float
    iterations: int
    evaluations: int
    label: str


@dataclass
class ChunkResult:
    """What one chunk evaluation sends back to the coordinator.

    For Pareto tasks ``front_points`` holds the chunk-local
    non-dominated set as ``(candidate index, DesignPoint)`` pairs — any
    point on the global front is necessarily non-dominated within its
    own chunk, so shipping only local fronts loses nothing.  For restart
    tasks ``outcomes`` lists every candidate's cost and
    ``best_mapping``/``best_history`` belong to the chunk's best
    candidate (ties break toward the lowest index, exactly like the
    sequential loops).
    """

    chunk_index: int
    candidates: int
    seconds: float
    front_points: List[Tuple[int, Any]] = field(default_factory=list)
    local_discards: int = 0
    outcomes: List[RestartOutcome] = field(default_factory=list)
    best_index: Optional[int] = None
    best_mapping: Optional[Dict[str, str]] = None
    best_history: Optional[List[float]] = None
    #: Pid of the evaluating process and its captured telemetry
    #: (:func:`repro.obs.capture` payload).  Neither is journalled: a
    #: chunk replayed from a checkpoint has ``obs=None`` and is never
    #: merged twice.
    worker_pid: Optional[int] = None
    obs: Optional[Dict[str, Any]] = None


def prune_local_front(pairs: List[Tuple[int, Any]]) -> List[Tuple[int, Any]]:
    """Keep the non-dominated subset, preserving candidate-index order.

    Replays :meth:`repro.partition.pareto.ParetoFront.add` semantics
    (duplicates rejected, dominated points dropped) over indexed pairs.
    """
    kept: List[Tuple[int, Any]] = []
    for index, point in pairs:
        dominated = any(
            existing.dominates(point)
            or (
                existing.system_time == point.system_time
                and existing.hardware_size == point.hardware_size
            )
            for _, existing in kept
        )
        if dominated:
            continue
        kept = [(i, p) for i, p in kept if not point.dominates(p)]
        kept.append((index, point))
    kept.sort(key=lambda pair: pair[0])
    return kept


class ChunkRunner:
    """Evaluates chunks of candidates on a payload's read-only state."""

    def __init__(self, payload: PlanPayload) -> None:
        self.payload = payload.warm()
        self.slif = payload.slif
        self.base = payload.partition
        self.candidates_evaluated = 0

    def _start_partition(self, spec: CandidateSpec):
        from repro.partition.random_part import random_partition

        if spec.kind == "random":
            return random_partition(self.slif, seed=spec.seed)
        return self.base

    def _run_descent(self, spec: CandidateSpec, start):
        from repro.partition.annealing import simulated_annealing
        from repro.partition.greedy import greedy_improve

        kwargs = dict(
            weights=self.payload.weights,
            time_constraint=self.payload.time_constraint,
            compiled=self.payload.kernel.cg,
            budgets=dict(spec.constraints),
        )
        kwargs.update(spec.params)
        if spec.algorithm == "greedy":
            return greedy_improve(self.slif, start, **kwargs)
        if spec.algorithm == "annealing":
            return simulated_annealing(
                self.slif, start, seed=spec.seed, **kwargs
            )
        raise WorkerError(f"unknown candidate algorithm {spec.algorithm!r}")

    # ------------------------------------------------------------------
    # the two evaluation modes

    def _pareto_partition(self, spec: CandidateSpec):
        """Produce (not score) one pareto candidate's partition.

        Scoring is deferred so :meth:`run_chunk` can hand the whole
        chunk's partitions to one :meth:`BatchKernel.evaluate` call
        instead of N memoized graph walks.  Only this production step
        needs the spec's synthetic size budgets (the descents read
        them); the time/area scoring itself does not.
        """
        if spec.algorithm == "none":
            return self.base
        return self._run_descent(spec, self._start_partition(spec)).partition

    def _restart_candidate(self, spec: CandidateSpec):
        from repro.partition.cost import PartitionCost

        if spec.algorithm == "none":
            partition = self._start_partition(spec)
            evaluator = PartitionCost(
                self.slif,
                partition,
                self.payload.weights,
                self.payload.time_constraint,
                self.payload.kernel.cg,
                dict(spec.constraints),
            )
            cost = evaluator.cost()
            evaluator.publish()
            return (
                RestartOutcome(spec.index, cost, 0, 1, spec.label),
                partition,
                [cost],
            )
        result = self._run_descent(spec, self._start_partition(spec))
        return (
            RestartOutcome(
                spec.index,
                result.cost,
                result.iterations,
                result.evaluations,
                spec.label,
            ),
            result.partition,
            result.history,
        )

    # ------------------------------------------------------------------

    def run_chunk(self, chunk: Chunk) -> ChunkResult:
        """Evaluate every candidate in ``chunk`` and summarize locally."""
        started = time.perf_counter()
        result = ChunkResult(
            chunk_index=chunk.index, candidates=len(chunk), seconds=0.0
        )
        if self.payload.task == "pareto":
            result.front_points, result.local_discards = self._run_pareto(chunk)
            result.seconds = time.perf_counter() - started
            return result
        best_key = None
        for spec in chunk.candidates:
            try:
                outcome, partition, history = self._restart_candidate(spec)
                result.outcomes.append(outcome)
                key = (outcome.cost, outcome.index)
                if best_key is None or key < best_key:
                    best_key = key
                    result.best_index = outcome.index
                    result.best_mapping = partition.object_mapping()
                    result.best_history = list(history)
            except WorkerError:
                raise
            except SlifError as exc:
                raise self._wrap(spec, chunk, exc) from None
            self.candidates_evaluated += 1
        result.seconds = time.perf_counter() - started
        return result

    def _run_pareto(self, chunk: Chunk) -> Tuple[List[Tuple[int, Any]], int]:
        """Produce the chunk's partitions, then score them in one batch.

        The descents still run per candidate (each under its spec's
        synthetic size budgets), but the time/area scoring goes through a
        single :meth:`~repro.estimate.kernel.BatchKernel.evaluate` array
        sweep.  Candidates the kernel abstains from (``None``; all of
        them on a graph with a call cycle) are re-scored on the
        reference ``evaluate_design_point`` — which
        either agrees bit-for-bit or raises the precise user-facing
        error, wrapped with the same candidate context as before.
        ``--jobs 1`` and ``--jobs N`` share this code path, which is
        what keeps fronts byte-identical across configurations.
        """
        from repro.partition.pareto import evaluate_design_point

        staged: List[Tuple[CandidateSpec, Any]] = []
        for spec in chunk.candidates:
            try:
                staged.append((spec, self._pareto_partition(spec)))
            except WorkerError:
                raise
            except SlifError as exc:
                raise self._wrap(spec, chunk, exc) from None
        hardware = list(self.payload.hardware)
        points = self.payload.kernel.evaluate(
            [(partition, spec.label) for spec, partition in staged], hardware
        )
        pairs: List[Tuple[int, Any]] = []
        for (spec, partition), point in zip(staged, points):
            if point is None:
                try:
                    point = evaluate_design_point(
                        self.slif, partition, hardware, spec.label
                    )
                except WorkerError:
                    raise
                except SlifError as exc:
                    raise self._wrap(spec, chunk, exc) from None
            pairs.append((spec.index, point))
            self.candidates_evaluated += 1
        front = prune_local_front(pairs)
        return front, len(pairs) - len(front)

    @staticmethod
    def _wrap(spec: CandidateSpec, chunk: Chunk, exc: Exception) -> WorkerError:
        return WorkerError(
            f"candidate {spec.label!r} (index {spec.index}, chunk "
            f"{chunk.index}) failed: {type(exc).__name__}: {exc}"
        )
