"""repro.faults — deterministic fault injection for recovery testing.

Every recovery path in the fault-tolerant exploration runtime (chunk
timeout, retry with backoff, worker replacement after a crash,
graceful in-process fallback) is exercised by *injecting* the failures
it guards against, rather than trusted on faith.  Set ``SLIF_FAULTS``
to a plan like ``crash:2,hang:0,transient:3`` and the named chunks will
crash their worker, hang past the timeout, or raise a retryable
:class:`~repro.errors.FaultInjectedError` on their first attempt —
deterministically, because firing is keyed on the plan's fixed
``(chunk index, attempt)`` coordinates.  See
:mod:`repro.faults.inject` for the grammar and the full kind list.
"""

from repro.faults.inject import (
    CRASH_EXIT_CODE,
    EMPTY_PLAN,
    FAULT_KINDS,
    FAULTS_ENV,
    HANG_SECONDS_ENV,
    FaultPlan,
    FaultSpec,
    Unpicklable,
    fire,
    hang_seconds,
    maybe_inject,
    parse_faults,
    plan_from_env,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "EMPTY_PLAN",
    "FAULT_KINDS",
    "FAULTS_ENV",
    "HANG_SECONDS_ENV",
    "FaultPlan",
    "FaultSpec",
    "Unpicklable",
    "fire",
    "hang_seconds",
    "maybe_inject",
    "parse_faults",
    "plan_from_env",
]
