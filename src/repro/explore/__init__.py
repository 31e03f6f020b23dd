"""repro.explore — the parallel design-space exploration engine.

The paper's argument is that O(graph) estimation makes evaluating
*thousands* of candidate partitions feasible (Sections 3 and 5); this
package makes that workload scale across cores.  A
:class:`~repro.explore.plan.WorkPlan` shards candidate evaluations into
deterministic chunks, :func:`~repro.explore.engine.run_plan` runs them
through one in-process runner (``jobs=1``) or fans them across worker
processes (forked holding the sweep's graph, move index and kernel)
scheduled by an embedded :mod:`repro.fleet` coordinator, and the merge
step unions chunk-local Pareto fronts / multi-start outcomes in
candidate order — so the same seed produces byte-identical results at
any ``--jobs`` value.

Multi-worker sweeps are fault-tolerant: per-chunk timeouts, seeded
exponential-backoff retries, replacement of crashed workers, and
graceful in-process degradation are governed by
:class:`~repro.explore.engine.RetryPolicy`, while
:mod:`repro.explore.checkpoint` journals completed chunks to a JSONL
file so an interrupted sweep resumes (``--checkpoint`` / ``--resume``)
re-evaluating only what is missing.  :mod:`repro.faults` injects
deterministic worker crashes, hangs and transient errors so every one
of those recovery paths is exercised in tests and CI.

Users normally reach this machinery through
:func:`repro.partition.pareto.explore_pareto`,
:func:`repro.partition.random_part.random_restart`,
:func:`repro.partition.greedy.greedy_multistart` and
:func:`repro.partition.annealing.simulated_annealing` — each grew
``jobs`` (and where applicable ``restarts``/``starts``) keyword
arguments — or via ``slif explore --jobs N`` / ``slif partition
--jobs N`` on the command line.
"""

from repro.explore.checkpoint import (
    JournalWriter,
    chunk_result_from_dict,
    chunk_result_to_dict,
    load_journal,
    plan_fingerprint,
)
from repro.explore.engine import (
    RecoveryStats,
    RetryPolicy,
    improvement_history,
    merge_fronts,
    merge_restarts,
    resolve_jobs,
    run_multistart,
    run_plan,
)
from repro.explore.plan import (
    CHEAP_CHUNK,
    HEAVY_CHUNK,
    CandidateSpec,
    Chunk,
    WorkPlan,
    pareto_plan,
    restart_plan,
)
from repro.explore.worker import (
    ChunkResult,
    ChunkRunner,
    PlanPayload,
    RestartOutcome,
    prune_local_front,
)

__all__ = [
    "CHEAP_CHUNK",
    "HEAVY_CHUNK",
    "CandidateSpec",
    "Chunk",
    "ChunkResult",
    "ChunkRunner",
    "JournalWriter",
    "PlanPayload",
    "RecoveryStats",
    "RestartOutcome",
    "RetryPolicy",
    "WorkPlan",
    "chunk_result_from_dict",
    "chunk_result_to_dict",
    "improvement_history",
    "load_journal",
    "plan_fingerprint",
    "merge_fronts",
    "merge_restarts",
    "pareto_plan",
    "prune_local_front",
    "resolve_jobs",
    "restart_plan",
    "run_multistart",
    "run_plan",
]
