"""Exception hierarchy for the repro package.

Every error raised deliberately by this package derives from
:class:`SlifError`, so callers embedding the library can catch one base
class.  Subclasses separate the major failure domains: naming/registry
problems in the IR, malformed partitions, estimation failures (including
recursion in the access graph), and front-end parse errors.
"""

from __future__ import annotations


class SlifError(Exception):
    """Base class for all errors raised by the repro package."""


class SlifNameError(SlifError):
    """An object name was duplicated, unknown, or referenced the wrong kind.

    Raised by the :class:`~repro.core.graph.Slif` registries when a node,
    channel or component is added twice, looked up but absent, or used in
    a position its kind does not permit (e.g. a variable as a channel
    source).
    """


class PartitionError(SlifError):
    """A partition violated the proper-partition rules of SLIF Section 2.2.

    Examples: a behavior mapped to a memory, a functional object mapped to
    two components, an estimate requested for an object that has not been
    mapped at all.
    """


class WorkerError(PartitionError):
    """An exploration candidate failed inside a worker process.

    Raised by :mod:`repro.explore` in place of the original exception so
    the failure survives the trip back through ``multiprocessing``'s
    pickling: the message embeds the original error type and text plus
    the candidate context (label, candidate index, chunk index).  The
    message-only constructor is what keeps the exception pickle-safe —
    exceptions with richer ``__init__`` signatures cannot be rebuilt
    from their ``args`` on the parent side.
    """


class FleetError(SlifError):
    """A distributed-fleet operation failed.

    Raised by :mod:`repro.fleet` for protocol-level problems: a worker
    or sweep id the coordinator does not know, a malformed fleet
    request, or a coordinator that stays unreachable after the HTTP
    transport's retry budget.  Chunk-evaluation failures are *not*
    reported this way — they travel as transient errors (retried and
    requeued by the coordinator) or as :class:`WorkerError` (determin-
    istic candidate failures, surfaced identically to a local run).
    """


class FaultInjectedError(SlifError):
    """A deliberately injected transient fault (``SLIF_FAULTS``).

    Raised by :mod:`repro.faults` inside a worker to exercise the
    retry path; the engine treats it (like any non-:class:`WorkerError`
    failure) as transient and retries the chunk.  Never raised unless
    fault injection was explicitly enabled.
    """


class EstimationError(SlifError):
    """A design-metric estimate could not be computed.

    Typically a missing annotation: no ``ict`` weight for the component
    technology an object was mapped to, a channel mapped to no bus, or a
    bus with a zero bitwidth.
    """


class RecursionCycleError(EstimationError):
    """The execution-time recursion hit a cycle in the access graph.

    The paper notes that a cycle in the SLIF access graph represents
    recursion; the simple execution-time equation (Eq. 1) does not
    terminate on recursive specifications, so we detect the cycle and
    report the offending path instead of looping forever.
    """

    def __init__(self, cycle: list) -> None:
        path = " -> ".join(str(n) for n in cycle)
        super().__init__(f"recursive access cycle in SLIF graph: {path}")
        self.cycle = list(cycle)


class SimulationError(SlifError):
    """A discrete-event simulation could not run (or was aborted).

    Raised by :mod:`repro.sim` when a simulation exceeds its event or
    access budget (a runaway workload), or when the access graph or
    partition cannot be compiled into an executable model (missing
    annotations surface as :class:`EstimationError`, exactly as they
    would from the estimators).
    """


class ParseError(SlifError):
    """The VHDL-subset front end rejected its input.

    Carries the source position so tools can point at the offending text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class TransformError(SlifError):
    """A specification transformation was not applicable.

    Raised, for example, when asked to inline a process (only procedures
    can be inlined) or to merge behaviors that do not both exist.
    """


class AllocationError(SlifError):
    """No feasible component allocation could be produced."""
