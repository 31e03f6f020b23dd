"""The exploration coordinator: fan chunks out, merge results back.

:func:`run_plan` executes a :class:`~repro.explore.plan.WorkPlan` in
one of two ways.  ``jobs=1`` runs :func:`run_chunks`, the in-process
loop: one :class:`~repro.explore.worker.ChunkRunner` shared by every
chunk, evaluating on the payload's live graph and kernel.
Anything else goes through
:func:`repro.fleet.client.run_fleet_chunks` against a fleet
coordinator: a remote one for ``fleet=`` (``--workers``), or for
``jobs>1`` an embedded one whose workers are ``jobs`` local
processes (:mod:`repro.fleet.local`), forked with that same state
built, each holding its own runner and memoized estimators.  Results
come back as
:class:`~repro.explore.worker.ChunkResult`\\ s and are merged in
candidate-index order, which replays the sequential insertion order
exactly — the reason ``--jobs N`` output is byte-identical to
``--jobs 1`` for the same seed.

The coordinator is the one scheduler.  Under a :class:`RetryPolicy` it
enforces a per-chunk timeout, retries failed chunks with seeded
exponential backoff and jitter, requeues the lease of a worker that
died (a local worker is replaced, as is one whose lease timed out),
and reports chunks that exhaust their retry budget; :func:`run_chunks`
then finishes those in-process.  Because every candidate is a pure
function of ``(graph, spec)`` and completed chunks are de-duplicated
by index, none of this machinery can change the merged answer: a
sweep either completes with ``jobs=1``-identical results or surfaces
the candidate's own :class:`~repro.errors.WorkerError`.  Chunk-level
checkpointing (see :mod:`repro.explore.checkpoint`) journals completed
chunks so an interrupted sweep resumes where it stopped.

Observability: :func:`run_plan` records per-worker chunk telemetry
into the existing :mod:`repro.obs` registry — ``explore.chunks`` /
``explore.candidates`` counters, an ``explore.chunk_seconds`` histogram
of per-chunk wall time, ``explore.merge.discards`` for candidates that
fell off the merged front, an ``explore.jobs`` gauge — plus the
recovery counters ``explore.retries``, ``explore.timeouts``,
``explore.fallbacks``, ``explore.pool_respawns`` and
``explore.checkpoint.chunks_skipped``, and an
``explore.retry_delay_seconds`` histogram of backoff delays.

When collection is on, every sweep carries an
:class:`~repro.explore.worker.ObsContext` (the trace id plus the
collect flag); workers record their own counters, histograms and an
``explore.chunk`` span under that trace id and return a telemetry
snapshot on the result, which :func:`run_plan` merges back (counters
sum, histogram buckets add, spans graft under the current span with a
``worker_pid`` attribute) — so ``--stats`` after ``--jobs 8`` reflects
work done in all nine processes.
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
from dataclasses import astuple, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import PartitionError
from repro import obs
from repro.obs import OBS, add_event
from repro.explore.plan import CandidateSpec, Chunk, WorkPlan
from repro.explore.worker import (
    ChunkResult,
    ObsContext,
    PlanPayload,
    RestartOutcome,
)


def resolve_jobs(jobs: Optional[int], chunks: int) -> int:
    """Normalize a ``--jobs`` value: 0/None means all cores; cap by chunks.

    >>> resolve_jobs(4, 2)
    2
    >>> resolve_jobs(1, 100)
    1
    """
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise PartitionError(f"jobs must be >= 0, got {jobs}")
    return max(1, min(jobs, chunks))


# ----------------------------------------------------------------------
# fault-tolerant dispatch


@dataclass(frozen=True)
class RetryPolicy:
    """How a multi-worker sweep survives slow, failing and dying workers.

    ``timeout`` is the per-chunk wall-clock budget in seconds (``None``
    disables timeouts).  A failed, timed-out or orphaned chunk (its
    worker died) is retried up to ``retries`` more times, waiting
    ``backoff * backoff_factor**(n-1)`` seconds (capped at
    ``max_delay``) before retry ``n``, with a deterministic ±``jitter``
    fraction derived from ``seed`` and the chunk coordinates — two runs
    with the same seed back off identically.  A chunk that exhausts its
    budget degrades to the in-process runner when ``fallback`` is true
    (the default), so the sweep still completes with identical results;
    with ``fallback`` false it raises
    :class:`~repro.errors.ChunkTimeoutError`,
    :class:`~repro.errors.PoolCrashError` or
    :class:`~repro.errors.PartitionError` instead.

    >>> policy = RetryPolicy(backoff=1.0, jitter=0.0)
    >>> [policy.delay(0, n) for n in (1, 2, 3)]
    [1.0, 2.0, 4.0]
    >>> RetryPolicy(seed=7).delay(3, 1) == RetryPolicy(seed=7).delay(3, 1)
    True
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25
    seed: int = 0
    fallback: bool = True

    def delay(self, chunk_index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of ``chunk_index``."""
        base = min(
            self.backoff * self.backoff_factor ** max(0, attempt - 1),
            self.max_delay,
        )
        if not self.jitter:
            return base
        rng = random.Random(f"{self.seed}:{chunk_index}:{attempt}")
        return base * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))


@dataclass
class RecoveryStats:
    """What the fault-tolerant loop had to do to finish a sweep."""

    retries: int = 0
    timeouts: int = 0
    fallbacks: int = 0
    pool_respawns: int = 0
    chunks_skipped: int = 0
    corrupt_journal_lines: int = 0
    journal_errors: int = 0

    def add(self, retry_delays: Iterable[float] = (), **counts: int) -> None:
        """Add recovery counts here and to the ``explore.*`` obs counters."""
        for name, value in counts.items():
            setattr(self, name, getattr(self, name) + value)
            if OBS.enabled and value:
                OBS.inc(f"explore.{name}", value)
        if OBS.enabled:
            for delay in retry_delays:
                OBS.observe("explore.retry_delay_seconds", delay)

    def any(self) -> bool:
        return any(astuple(self))

    def render(self) -> str:
        parts = [
            f"retries={self.retries}",
            f"timeouts={self.timeouts}",
            f"fallbacks={self.fallbacks}",
            f"pool_respawns={self.pool_respawns}",
        ]
        if self.chunks_skipped or self.corrupt_journal_lines:
            parts.append(f"chunks_skipped={self.chunks_skipped}")
        if self.corrupt_journal_lines:
            parts.append(f"corrupt_journal_lines={self.corrupt_journal_lines}")
        if self.journal_errors:
            parts.append(f"journal_errors={self.journal_errors}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# the public entry point


def run_chunks(
    payload: PlanPayload,
    chunks: List[Chunk],
    on_complete: Callable[[ChunkResult], None],
    fallback: bool = False,
) -> None:
    """Evaluate ``chunks`` in order on one in-process runner.

    The ``jobs=1`` path, and the fallback that finishes whatever a fleet
    left.  Fault injection never fires here, so a fallback completes
    unless a candidate itself is invalid, which raises the same
    :class:`~repro.errors.WorkerError` a ``jobs=1`` run would.
    """
    if not chunks:
        return
    from repro.explore.worker import ChunkRunner

    runner = ChunkRunner(payload)
    extra = {"fallback": True} if fallback else {}
    for chunk in chunks:
        # the span shape fleet workers emit, so traces look alike
        # whatever the dispatch path
        with obs.span(
            "explore.chunk",
            chunk=chunk.index,
            attempt=0,
            candidates=len(chunk),
            worker_pid=os.getpid(),
            **extra,
        ):
            result = runner.run_chunk(chunk)
        on_complete(result)


def run_plan(
    payload: PlanPayload,
    plan: WorkPlan,
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    fleet=None,
    on_result=None,
) -> List[ChunkResult]:
    """Evaluate every chunk of ``plan`` and return results in chunk order.

    ``jobs=1`` shares one in-process :class:`ChunkRunner` across all
    chunks; ``jobs>1`` forks that many local worker processes, which
    inherit the payload's live state, under an embedded fleet
    coordinator that applies ``policy`` (default :class:`RetryPolicy`).
    Either way the same chunks are evaluated with the same per-candidate
    code, so the merged result is independent of ``jobs`` — and of any
    retries, respawns or fallbacks along the way.

    ``checkpoint`` names a JSONL journal written as chunks complete;
    with ``resume`` true an existing journal (for the *same* payload and
    plan — fingerprints are checked) is loaded first and only the
    missing chunks are evaluated.  On :class:`KeyboardInterrupt` the
    local workers are terminated and the journal flushed before
    re-raising, so an interrupted sweep loses at most its in-flight
    chunks.

    ``fleet`` (a :class:`~repro.fleet.protocol.FleetSpec`) dispatches
    the todo chunks to that coordinator's workers instead of local
    ones; ``jobs`` is ignored in that case.  The merged result stays
    byte-identical — fleet results come back keyed by the same chunk
    indexes, requeues deduplicate first-wins, and anything the fleet
    cannot finish falls back to an in-process runner.

    ``on_result`` is an observer called with each completed
    :class:`ChunkResult` — journal-replayed chunks first (in index
    order), then fresh ones as they land.  The serving layer's durable
    jobs stream progressive front updates from it; it must not raise.
    """
    chunks = plan.chunks()
    workers = resolve_jobs(jobs, len(chunks))
    policy = policy if policy is not None else RetryPolicy()
    stats = RecoveryStats()
    if OBS.enabled:
        OBS.set_gauge("explore.jobs", workers)

    journal = None
    done: Dict[int, ChunkResult] = {}
    if checkpoint:
        from repro.explore.checkpoint import JournalWriter, plan_fingerprint

        fingerprint = plan_fingerprint(payload, plan)
        if resume:
            journal = JournalWriter.for_resume(
                checkpoint, fingerprint, payload.task
            )
            done = dict(journal.completed)
            stats.chunks_skipped = len(done)
            stats.corrupt_journal_lines = journal.corrupt_lines
            if OBS.enabled and done:
                OBS.inc("explore.checkpoint.chunks_skipped", len(done))
        else:
            journal = JournalWriter.fresh(checkpoint, fingerprint, payload.task)

    fresh: List[ChunkResult] = []

    def on_complete(result: ChunkResult) -> None:
        done[result.chunk_index] = result
        fresh.append(result)
        if journal is not None:
            journal.record(result)
        if on_result is not None:
            on_result(result)

    if on_result is not None:
        for index in sorted(done):
            on_result(done[index])

    todo = [chunk for chunk in chunks if chunk.index not in done]
    obs_ctx = (
        ObsContext(trace_id=obs.trace_id(), collect=True)
        if OBS.enabled
        else None
    )
    try:
        if todo and (fleet is not None or workers > 1):
            from repro.fleet.client import run_fleet_chunks
            from repro.fleet.local import local_fleet

            with (
                contextlib.nullcontext(fleet)
                if fleet is not None
                else local_fleet(payload, workers)
            ) as spec:
                run_fleet_chunks(
                    payload,
                    todo,
                    fleet=spec,
                    policy=policy,
                    stats=stats,
                    on_complete=on_complete,
                    obs_ctx=obs_ctx,
                )
        else:
            run_chunks(payload, todo, on_complete)
    finally:
        # KeyboardInterrupt included: local workers are already
        # terminated; flushing the journal here is what lets
        # ``--resume`` pick up every chunk that finished
        if journal is not None:
            stats.journal_errors = journal.append_errors
            if OBS.enabled and journal.append_errors:
                OBS.inc(
                    "explore.checkpoint.append_errors",
                    journal.append_errors,
                )
            journal.close()

    results = [done[chunk.index] for chunk in chunks]
    if OBS.enabled:
        anchor = obs.TRACER.current()
        # chunk-index order: gauge merges are last-write-wins, so a
        # deterministic order keeps --jobs N snapshots reproducible
        for result in sorted(fresh, key=lambda r: r.chunk_index):
            if result.obs is not None:
                obs.absorb(
                    result.obs,
                    parent_span_id=anchor.span_id if anchor else None,
                    attributes={"worker_pid": result.worker_pid},
                )
        for result in fresh:
            OBS.inc("explore.chunks")
            OBS.inc("explore.candidates", result.candidates)
            OBS.observe("explore.chunk_seconds", result.seconds)
        add_event(
            "explore.chunks_done",
            chunks=len(results),
            jobs=workers,
            candidates=sum(r.candidates for r in results),
        )
    if stats.any():
        print(f"-- explore recovery: {stats.render()}", file=sys.stderr)
    return results


# ----------------------------------------------------------------------
# merging


def merge_fronts(results: List[ChunkResult], evaluated: int):
    """Union chunk-local fronts into the global non-dominated set.

    Points are inserted in ascending candidate-index order — the exact
    order a sequential sweep would have used — so ties and pruning
    resolve identically no matter how the plan was sharded.  Returns the
    merged :class:`~repro.partition.pareto.ParetoFront` with
    ``evaluated`` set to the full candidate count (local pruning already
    discarded dominated points, but they were still evaluated).
    """
    from repro.partition.pareto import ParetoFront

    pairs: List[Tuple[int, object]] = []
    for result in results:
        pairs.extend(result.front_points)
    pairs.sort(key=lambda pair: pair[0])
    front = ParetoFront()
    for _, point in pairs:
        front.add(point)
    discards = len(pairs) - len(front.points)
    if OBS.enabled:
        OBS.inc("explore.merge.discards", discards)
        OBS.inc(
            "explore.local.discards",
            sum(r.local_discards for r in results),
        )
    front.evaluated = evaluated
    return front


def merge_restarts(results: List[ChunkResult]) -> Tuple[
    RestartOutcome, Dict[str, str], List[float], List[RestartOutcome]
]:
    """Pick the best multi-start outcome across chunks.

    Ties break toward the lowest candidate index, matching the strict
    ``<`` comparison of the sequential loops (first seen wins).  Returns
    ``(best outcome, its mapping, its history, all outcomes by index)``.
    """
    outcomes: List[RestartOutcome] = []
    best: Optional[RestartOutcome] = None
    best_mapping: Optional[Dict[str, str]] = None
    best_history: Optional[List[float]] = None
    for result in results:
        outcomes.extend(result.outcomes)
        if result.best_index is None:
            continue
        chunk_best = next(
            o for o in result.outcomes if o.index == result.best_index
        )
        if best is None or (chunk_best.cost, chunk_best.index) < (
            best.cost,
            best.index,
        ):
            best = chunk_best
            best_mapping = result.best_mapping
            best_history = result.best_history
    if best is None:
        raise PartitionError(
            "cannot merge an empty set of restart results: no chunk "
            "produced an outcome"
        )
    outcomes.sort(key=lambda o: o.index)
    if OBS.enabled:
        OBS.inc("explore.merge.discards", len(outcomes) - 1)
    return best, best_mapping or {}, best_history or [], outcomes


def improvement_history(outcomes: List[RestartOutcome]) -> List[float]:
    """The best-so-far cost trace over candidates in index order.

    Reconstructs exactly the ``history`` the sequential multi-start
    loops accumulate: the first candidate's cost, then every strictly
    better cost as it is encountered.
    """
    history: List[float] = []
    best = float("inf")
    for outcome in outcomes:
        if not history:
            best = outcome.cost
            history.append(best)
        elif outcome.cost < best:
            best = outcome.cost
            history.append(best)
    return history


# ----------------------------------------------------------------------
# the shared multi-start driver


def run_multistart(
    slif,
    partition,
    specs: List[CandidateSpec],
    *,
    algorithm: str,
    result_name: str,
    weights=None,
    time_constraint: Optional[float] = None,
    jobs: int = 1,
    chunk_size: int = 4,
    history_mode: str = "improvements",
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
):
    """Run a multi-start candidate list and fold it into one result.

    The engine behind ``random_restart(jobs=...)``,
    ``greedy_multistart`` and restart-based annealing: evaluate all
    candidate specs on the caller's graph and partition, read-only (in
    forked workers when ``jobs > 1``), and return a
    :class:`~repro.partition.result.PartitionResult` whose partition is
    a copy of ``partition`` carrying the best mapping.
    ``history_mode`` selects the ``history`` semantics:
    ``"improvements"`` replays the sequential best-so-far trace over
    candidate costs; ``"best_chain"`` keeps the winning candidate's own
    internal history (annealing chains).
    ``policy``/``checkpoint``/``resume`` pass straight to
    :func:`run_plan`.
    """
    from repro.explore.plan import restart_plan
    from repro.partition.result import PartitionResult

    payload = PlanPayload(
        task="restart",
        slif=slif,
        partition=partition,
        weights=weights,
        time_constraint=time_constraint,
    )
    plan = restart_plan(specs, chunk_size=chunk_size)
    results = run_plan(
        payload,
        plan,
        jobs=jobs,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
    )
    best, mapping, best_history, outcomes = merge_restarts(results)

    merged = partition.copy(name=result_name)
    for obj, comp in mapping.items():
        merged.assign(obj, comp)
    if history_mode == "best_chain":
        history = list(best_history)
    else:
        history = improvement_history(outcomes)
    return PartitionResult(
        partition=merged,
        cost=best.cost,
        algorithm=algorithm,
        iterations=sum(o.iterations for o in outcomes),
        evaluations=sum(o.evaluations for o in outcomes),
        history=history,
    )
