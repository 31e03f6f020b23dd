"""Chunk-level checkpointing: a JSONL journal of completed chunks.

A sweep that dies three hours in — Ctrl-C, OOM kill, machine reboot —
should not forfeit three hours of evaluated candidates.  The engine
therefore appends one JSON line per completed
:class:`~repro.explore.worker.ChunkResult` to a journal file, flushed
and fsync'd as each chunk lands, and on ``--resume`` replays the
journal to skip every chunk already done.  Because chunk identities and
boundaries are fixed by the :class:`~repro.explore.plan.WorkPlan`
(never by worker count or timing), replayed results merge with freshly
computed ones into the byte-identical front a single uninterrupted run
would have produced.

Journal format — line 1 is a header::

    {"kind": "slif-explore-journal", "version": 1,
     "fingerprint": "<sha256 prefix>", "task": "pareto"}

followed by one serialized chunk result per line.  The fingerprint
covers the payload (graph, base partition, weights, hardware) *and* the
full candidate plan, so resuming against a different spec, seed or
sweep shape is rejected instead of silently merging unrelated results.
A torn final line (the process died mid-write) is tolerated and simply
re-evaluated; fsync ordering guarantees every *earlier* line is whole.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import PartitionError
from repro.explore.plan import WorkPlan
from repro.explore.worker import ChunkResult, PlanPayload, RestartOutcome

JOURNAL_KIND = "slif-explore-journal"
JOURNAL_VERSION = 1


def plan_fingerprint(payload: PlanPayload, plan: WorkPlan) -> str:
    """A stable digest of everything that determines chunk results.

    Two runs share a fingerprint exactly when every chunk is guaranteed
    to produce the same :class:`ChunkResult` — same graph, same base
    partition, same candidate list and chunking.  ``jobs``, timeouts
    and fault plans are deliberately excluded: they change *how* chunks
    are scheduled, never what they compute.
    """
    slif_data, partition_data = payload.plain()
    blob = json.dumps(
        {
            "task": payload.task,
            "slif": slif_data,
            "partition": partition_data,
            "hardware": list(payload.hardware),
            "weights": repr(payload.weights),
            "time_constraint": payload.time_constraint,
            "chunk_size": plan.chunk_size,
            "candidates": [
                [
                    spec.index,
                    spec.kind,
                    spec.label,
                    spec.algorithm,
                    spec.seed,
                    [list(pair) for pair in spec.constraints],
                    spec.params,
                ]
                for spec in plan.candidates
            ],
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# (de)serialization of chunk results


def chunk_result_to_dict(result: ChunkResult) -> Dict[str, Any]:
    """Plain-JSON form of one completed chunk."""
    data: Dict[str, Any] = {
        "chunk_index": result.chunk_index,
        "candidates": result.candidates,
        "seconds": result.seconds,
        "local_discards": result.local_discards,
    }
    if result.front_points:
        data["front_points"] = [
            [
                index,
                {
                    "system_time": point.system_time,
                    "hardware_size": point.hardware_size,
                    "mapping": [list(pair) for pair in point.mapping],
                    "label": point.label,
                },
            ]
            for index, point in result.front_points
        ]
    if result.outcomes:
        data["outcomes"] = [
            [o.index, o.cost, o.iterations, o.evaluations, o.label]
            for o in result.outcomes
        ]
    if result.best_index is not None:
        data["best_index"] = result.best_index
        data["best_mapping"] = result.best_mapping
        data["best_history"] = result.best_history
    return data


def chunk_result_from_dict(data: Dict[str, Any]) -> ChunkResult:
    """Rebuild a :class:`ChunkResult` from its journal line."""
    from repro.partition.pareto import DesignPoint

    front_points: List[Tuple[int, Any]] = [
        (
            index,
            DesignPoint(
                system_time=point["system_time"],
                hardware_size=point["hardware_size"],
                mapping=tuple(tuple(pair) for pair in point["mapping"]),
                label=point.get("label", ""),
            ),
        )
        for index, point in data.get("front_points", [])
    ]
    outcomes = [
        RestartOutcome(
            index=index,
            cost=cost,
            iterations=iterations,
            evaluations=evaluations,
            label=label,
        )
        for index, cost, iterations, evaluations, label in data.get(
            "outcomes", []
        )
    ]
    return ChunkResult(
        chunk_index=data["chunk_index"],
        candidates=data["candidates"],
        seconds=data.get("seconds", 0.0),
        front_points=front_points,
        local_discards=data.get("local_discards", 0),
        outcomes=outcomes,
        best_index=data.get("best_index"),
        best_mapping=data.get("best_mapping"),
        best_history=data.get("best_history"),
    )


# ----------------------------------------------------------------------
# reading


def load_journal(
    path: str, fingerprint: str
) -> Tuple[Dict[int, ChunkResult], int]:
    """Read a journal, validating its fingerprint.

    Returns ``(completed chunks by index, torn/corrupt line count)``.
    A journal written for a different payload/plan raises
    :class:`PartitionError` — resuming it would merge results from a
    different sweep.  Undecodable or truncated lines are skipped (their
    chunks are simply re-evaluated); a duplicate chunk index keeps the
    first occurrence, matching the engine's first-result-wins dedup.
    """
    completed: Dict[int, ChunkResult] = {}
    corrupt = 0
    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            raise PartitionError(
                f"checkpoint {path!r} has no readable journal header"
            ) from None
        if not isinstance(header, dict) or header.get("kind") != JOURNAL_KIND:
            raise PartitionError(
                f"checkpoint {path!r} is not a SLIF exploration journal"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise PartitionError(
                f"checkpoint {path!r} has journal version "
                f"{header.get('version')!r}; this build reads version "
                f"{JOURNAL_VERSION}"
            )
        if header.get("fingerprint") != fingerprint:
            raise PartitionError(
                f"checkpoint {path!r} was written for a different sweep "
                f"(journal fingerprint {header.get('fingerprint')!r}, this "
                f"plan {fingerprint!r}); refusing to merge unrelated results"
            )
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                result = chunk_result_from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                corrupt += 1
                continue
            completed.setdefault(result.chunk_index, result)
    return completed, corrupt


# ----------------------------------------------------------------------
# writing


class JournalWriter:
    """Appends chunk results to a journal, durably, as they complete.

    Open with :meth:`fresh` (truncate and start over) or
    :meth:`for_resume` (load what a previous run finished, then append
    to the same file).  Each :meth:`record` writes one line, flushes,
    and fsyncs — at chunk granularity the fsync cost is noise next to
    the candidate evaluations it protects.

    Append failures (a full disk, a yanked volume, an injected
    ``journal-io`` fault) are absorbed rather than raised: the sweep's
    correctness never depended on the journal, only its durability
    does, so :meth:`record` counts the error in :attr:`append_errors`
    and carries on.  The un-journaled chunk is simply re-evaluated by
    the next resume.  Only the data lines are tolerant this way — a
    header that cannot be written is a hard error, because a resume
    could not even identify the file.
    """

    def __init__(self, path: str, fingerprint: str, task: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.task = task
        self.completed: Dict[int, ChunkResult] = {}
        self.corrupt_lines = 0
        self.append_errors = 0
        self._appends = 0
        self._handle = None

    @classmethod
    def fresh(
        cls, path: str, fingerprint: str, task: str
    ) -> "JournalWriter":
        writer = cls(path, fingerprint, task)
        writer._handle = open(path, "w", encoding="utf-8")
        writer._write_line(
            {
                "kind": JOURNAL_KIND,
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
                "task": task,
            }
        )
        return writer

    @classmethod
    def for_resume(
        cls, path: str, fingerprint: str, task: str
    ) -> "JournalWriter":
        """Load ``path`` if it exists (else start fresh) and append."""
        if not os.path.exists(path):
            return cls.fresh(path, fingerprint, task)
        writer = cls(path, fingerprint, task)
        writer.completed, writer.corrupt_lines = load_journal(
            path, fingerprint
        )
        writer._handle = open(path, "a", encoding="utf-8")
        return writer

    def _write_line(self, data: Dict[str, Any]) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(data, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, result: ChunkResult) -> None:
        """Durably journal one completed chunk (best-effort on I/O errors)."""
        from repro.faults.inject import maybe_inject_journal

        if self._handle is None or result.chunk_index in self.completed:
            return
        append_index = self._appends
        self._appends += 1
        try:
            maybe_inject_journal(append_index)
            self._write_line(chunk_result_to_dict(result))
        except OSError:
            self.append_errors += 1
            # terminate any torn partial line so the next append starts
            # clean; if even this fails, load_journal skips the debris
            try:
                self._handle.write("\n")
                self._handle.flush()
            except OSError:
                pass
            return
        self.completed[result.chunk_index] = result

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):  # pragma: no cover - already closed
                pass
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
