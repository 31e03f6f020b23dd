"""Deterministic, seeded fault injection for the exploration runtime.

A fault plan is a comma/semicolon-separated list of ``kind:chunk`` or
``kind:chunk:times`` tokens — e.g. ``crash:2``, ``hang:0:2,transient:3``
— normally supplied through the ``SLIF_FAULTS`` environment variable.
``kind`` picks the failure mode, ``chunk`` the chunk index it fires on,
and ``times`` how many *attempts* of that chunk are sabotaged (default
1: the first attempt fails, the retry succeeds).  Because firing is
keyed on ``(chunk index, attempt)`` — both fixed by the work plan and
the dispatch loop, never by timing — a fault plan is exactly as
deterministic as the sweep it perturbs.

Supported kinds (see :data:`FAULT_KINDS`):

``crash``
    ``os._exit(CRASH_EXIT_CODE)`` — the worker process dies mid-chunk,
    exercising death detection (its pipe closes), replacement and
    re-queueing.
``hang``
    Sleep for ``SLIF_FAULT_HANG_SECONDS`` (default 3600) — the chunk
    never returns, exercising the per-chunk timeout path.
``transient``
    Raise :class:`~repro.errors.FaultInjectedError` — a retryable
    failure, exercising backoff and retry accounting.
``pickle``
    Return an unpicklable result — the worker itself is healthy but the
    result cannot cross the process boundary, exercising the
    result-transport failure path.
``worker-down``
    ``os._exit(CRASH_EXIT_CODE)``, like ``crash`` — but named for the
    fleet: set in a ``slif work`` daemon's environment it kills the
    *whole daemon* mid-lease, exercising heartbeat-timeout reaping and
    cross-worker requeue rather than pipe-close detection.  In a local
    ``--jobs N`` worker it behaves exactly like ``crash``.
``journal-io``
    Raise :class:`OSError` from the checkpoint journal's append path —
    the *coordinator-side* durability fault.  Unlike every other kind,
    its first number is an **append index**, not a chunk index: the
    Nth data line written to the journal fails (``times`` extends the
    failure to the following appends too).  The journal writer absorbs
    the error and keeps the sweep running — the chunk simply is not
    durable, so a later resume re-evaluates it.

Worker faults only ever fire inside workers — the local worker
processes of ``--jobs N`` and fleet worker daemons, both running
:class:`~repro.fleet.worker.FleetWorker` (the engine's in-process
``jobs=1`` path and
the graceful-degradation fallback call the chunk runner directly,
bypassing injection) — a ``crash`` or ``worker-down`` fault can
therefore never take down the coordinating process.  ``journal-io`` is
the deliberate exception: it fires wherever the journal is written
(the coordinator, or a ``slif serve`` job worker thread) and is
ignored by the worker-side hook.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultInjectedError, SlifError

#: Environment variable holding the fault plan.
FAULTS_ENV = "SLIF_FAULTS"
#: Environment variable overriding how long a ``hang`` fault sleeps.
HANG_SECONDS_ENV = "SLIF_FAULT_HANG_SECONDS"
#: Exit status used by the ``crash`` fault (distinctive in worker logs).
CRASH_EXIT_CODE = 87

FAULT_KINDS = (
    "crash", "hang", "transient", "pickle", "worker-down", "journal-io"
)


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: fire ``kind`` on ``chunk`` for ``times`` attempts."""

    kind: str
    chunk: int
    times: int = 1


class FaultPlan:
    """An immutable set of :class:`FaultSpec`\\ s indexed by chunk."""

    def __init__(self, specs: List[FaultSpec]) -> None:
        self.specs = tuple(specs)
        self._by_chunk: Dict[int, List[FaultSpec]] = {}
        for spec in specs:
            self._by_chunk.setdefault(spec.chunk, []).append(spec)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def fault_for(self, chunk_index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault that fires on this ``(chunk, attempt)``, if any.

        ``attempt`` is 0-based; a spec with ``times=t`` fires on
        attempts ``0 .. t-1`` of its chunk.  The first matching spec in
        plan order wins, so the plan author controls precedence.
        ``journal-io`` specs never match here — their number is an
        append index, served by :meth:`journal_fault_for` instead.
        """
        for spec in self._by_chunk.get(chunk_index, ()):
            if spec.kind == "journal-io":
                continue
            if attempt < spec.times:
                return spec
        return None

    def journal_fault_for(self, append_index: int) -> Optional[FaultSpec]:
        """The ``journal-io`` fault covering this append, if any.

        A ``journal-io:N:t`` spec fails appends ``N .. N+t-1`` (appends
        are not retried, so ``times`` extends the failure window rather
        than sabotaging attempts).
        """
        for spec in self.specs:
            if spec.kind != "journal-io":
                continue
            if spec.chunk <= append_index < spec.chunk + spec.times:
                return spec
        return None


EMPTY_PLAN = FaultPlan([])


def parse_faults(text: Optional[str]) -> FaultPlan:
    """Parse a ``SLIF_FAULTS`` value into a :class:`FaultPlan`.

    >>> plan = parse_faults("crash:2, hang:0:2; transient:3")
    >>> [(s.kind, s.chunk, s.times) for s in plan.specs]
    [('crash', 2, 1), ('hang', 0, 2), ('transient', 3, 1)]
    >>> parse_faults(None).specs
    ()
    >>> plan = parse_faults("journal-io:1:2")
    >>> plan.fault_for(1, 0) is None   # not a worker fault
    True
    >>> [plan.journal_fault_for(i) is not None for i in (0, 1, 2, 3)]
    [False, True, True, False]
    """
    if not text or not text.strip():
        return EMPTY_PLAN
    specs: List[FaultSpec] = []
    for token in text.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) not in (2, 3):
            raise SlifError(
                f"malformed fault token {token!r}: expected kind:chunk or "
                f"kind:chunk:times"
            )
        kind = parts[0].strip().lower()
        if kind not in FAULT_KINDS:
            raise SlifError(
                f"unknown fault kind {kind!r}; available: {FAULT_KINDS}"
            )
        try:
            chunk = int(parts[1])
            times = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise SlifError(
                f"malformed fault token {token!r}: chunk and times must be "
                f"integers"
            ) from None
        if chunk < 0 or times < 1:
            raise SlifError(
                f"malformed fault token {token!r}: chunk must be >= 0 and "
                f"times >= 1"
            )
        specs.append(FaultSpec(kind=kind, chunk=chunk, times=times))
    return FaultPlan(specs)


_PLAN_CACHE: Tuple[Optional[str], FaultPlan] = (None, EMPTY_PLAN)


def plan_from_env() -> FaultPlan:
    """The fault plan configured via ``SLIF_FAULTS`` (cached per value).

    Worker processes inherit the coordinator's environment under both
    the ``fork`` and ``spawn`` start methods, so exporting the variable
    before a sweep reaches every worker.
    """
    global _PLAN_CACHE
    text = os.environ.get(FAULTS_ENV)
    cached_text, cached_plan = _PLAN_CACHE
    if text == cached_text:
        return cached_plan
    plan = parse_faults(text)
    _PLAN_CACHE = (text, plan)
    return plan


def hang_seconds() -> float:
    """How long a ``hang`` fault sleeps (test hooks shrink this)."""
    try:
        return float(os.environ.get(HANG_SECONDS_ENV, "3600"))
    except ValueError:
        return 3600.0


class Unpicklable:
    """A result that raises when multiprocessing tries to serialize it."""

    def __reduce__(self):
        raise TypeError("injected pickle fault: this result cannot be pickled")


def fire(spec: FaultSpec, chunk_index: int, attempt: int):
    """Execute one fault.  Returns a poison result for ``pickle`` faults.

    ``crash`` does not return; ``hang`` returns after sleeping (by which
    time the coordinator has moved on); ``transient`` raises.
    """
    context = (
        f"injected {spec.kind} fault on chunk {chunk_index} "
        f"(attempt {attempt}, fires {spec.times}x)"
    )
    if spec.kind in ("crash", "worker-down"):
        os._exit(CRASH_EXIT_CODE)
    if spec.kind == "hang":
        time.sleep(hang_seconds())
        return None
    if spec.kind == "transient":
        raise FaultInjectedError(context)
    if spec.kind == "pickle":
        return Unpicklable()
    raise SlifError(f"unhandled fault kind {spec.kind!r}")  # pragma: no cover


def maybe_inject(chunk_index: int, attempt: int):
    """Worker-side hook: fire the configured fault for this attempt, if any.

    Returns ``None`` when no fault matches (the overwhelmingly common
    case: one env read and a dict probe), otherwise whatever
    :func:`fire` produces for a non-raising fault kind.
    """
    plan = plan_from_env()
    if not plan:
        return None
    spec = plan.fault_for(chunk_index, attempt)
    if spec is None:
        return None
    return fire(spec, chunk_index, attempt)


def maybe_inject_journal(append_index: int) -> None:
    """Journal-side hook: raise :class:`OSError` if a fault covers this append.

    Called by :class:`~repro.explore.checkpoint.JournalWriter` before
    each data-line append; the writer treats the error like any real
    I/O failure (counts it and carries on without durability for that
    chunk).
    """
    plan = plan_from_env()
    if not plan:
        return
    spec = plan.journal_fault_for(append_index)
    if spec is not None:
        raise OSError(
            f"injected journal-io fault on append {append_index} "
            f"(fails appends {spec.chunk}..{spec.chunk + spec.times - 1})"
        )
