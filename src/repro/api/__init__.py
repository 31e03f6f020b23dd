"""repro.api — the one public facade over the SLIF toolkit.

Historically the entry points were scattered: the CLI imported a
separate system module, scripts imported ``repro.estimate.engine`` or
``repro.partition.pareto`` directly, and there was no stable contract
a network service could expose.  This package is the redesign: typed
request/response dataclasses (:mod:`repro.api.types`) plus five
top-level functions —

``api.load(spec)``
    Parse + annotate once, get a reusable :class:`Session` (the unit
    the serving layer caches).
``api.estimate(request)``
    The full Section 3 metric report.
``api.partition(request)``
    One partitioning-algorithm run plus its estimate.
``api.simulate(request)``
    Discrete-event simulation, optionally with estimator validation.
``api.explore(request)``
    The time/area Pareto sweep on the fault-tolerant engine.

CLI, HTTP server and library users all call these same five functions,
so a result is identical however it was requested::

    from repro import api

    result = api.estimate("fuzzy")
    result.system_time
    result.to_dict()                 # JSON-ready plain data

``DesignSystem`` and ``build_system`` live here too, and are
re-exported at the package top level (``from repro import
build_system``).
"""

from repro.api.frontends import (
    FRONTENDS,
    FrontEnd,
    FrontEndRegistry,
    ResolvedSpec,
)
from repro.api.facade import (
    estimate,
    estimate_many,
    explore,
    partition,
    poll,
    simulate,
    submit,
)
from repro.api.session import (
    DesignSystem,
    Session,
    build_system,
    load,
    resolve_spec,
    session_key,
)
from repro.api.types import (
    FREQ_MODES,
    SCHEMA_VERSION,
    EstimateRequest,
    EstimateResult,
    ExploreRequest,
    ExploreResult,
    JobRequest,
    JobStatus,
    PartitionRequest,
    PartitionResult,
    RequestError,
    SimulateRequest,
    SimulateResult,
    canonical_json,
)

__all__ = [
    "DesignSystem",
    "EstimateRequest",
    "EstimateResult",
    "ExploreRequest",
    "ExploreResult",
    "FREQ_MODES",
    "FRONTENDS",
    "FrontEnd",
    "FrontEndRegistry",
    "JobRequest",
    "JobStatus",
    "PartitionRequest",
    "PartitionResult",
    "RequestError",
    "ResolvedSpec",
    "SCHEMA_VERSION",
    "Session",
    "SimulateRequest",
    "SimulateResult",
    "build_system",
    "canonical_json",
    "estimate",
    "estimate_many",
    "explore",
    "load",
    "partition",
    "poll",
    "resolve_spec",
    "session_key",
    "simulate",
    "submit",
]
