"""Typed request/response contract of the :mod:`repro.api` facade.

Every entry point of the facade (and hence every endpoint of the
serving layer) speaks in the dataclasses defined here: a ``*Request``
carries what the caller wants evaluated, a ``*Result`` carries plain
data — no live graph objects — so it can cross a process or network
boundary unchanged.  Each class has a ``schema_version`` field (bumped
when the wire shape changes, so old clients fail loudly instead of
silently misreading responses) and inherits the one codec of
:class:`Wire`:

* ``to_dict()`` returning JSON-ready plain data,
* ``from_dict()`` rejecting unknown keys and unsupported versions with
  :class:`RequestError`, and
* ``check_types()``, the field-type rule every request's validation
  runs, at every door: a field holds a JSON value of its declared type
  (a finite one, for a number) or the request is a :class:`RequestError`.

:func:`canonical_json` is the one JSON encoding used on the wire:
sorted keys and compact separators, so a response is byte-identical
however it was produced (direct library call, CLI, or HTTP server).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Type, TypeVar,
    get_args, get_origin, get_type_hints,
)

from repro.errors import SlifError

#: Version of the request/response wire shape defined in this module.
SCHEMA_VERSION = 1

#: Access-frequency modes accepted by the ``mode`` request fields.
FREQ_MODES = ("avg", "min", "max")


class RequestError(SlifError):
    """A malformed facade request (bad field, unknown key, bad version).

    The serving layer maps this (like any :class:`SlifError`) to HTTP
    400; the CLI maps it to exit code 2.
    """


def canonical_json(payload: Dict[str, Any]) -> str:
    """The one wire encoding: sorted keys, compact separators.

    Every payload is decoded JSON or a ``to_dict()`` tree, neither of
    which can hold a cycle, so the encoder skips its circular-reference
    bookkeeping; the bytes are those of the default check.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), check_circular=False
    )


def base_url(address: Any) -> Optional[str]:
    """A ``host:port`` or URL as a base URL with no trailing slash, or
    ``None`` when ``address`` is no such string.

    The one address rule of the durable-job client and the fleet
    client (:class:`~repro.fleet.protocol.FleetSpec`); each raises its
    own error on ``None``.

    >>> base_url(" 127.0.0.1:8123/ "), base_url("https://h"), base_url("")
    ('http://127.0.0.1:8123', 'https://h', None)
    """
    url = address.strip().rstrip("/") if isinstance(address, str) else ""
    if not url:
        return None
    return url if url.startswith(("http://", "https://")) else f"http://{url}"


#: The field-type rule's name for the JSON types of other fields.
_JSON_NAMES = {
    bool: "true or false",
    str: "a string",
    dict: "a JSON object",
    list: "a JSON array",
}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_type(hint) -> Tuple[Callable[[Any], bool], str]:
    """The values a field declared as ``hint`` takes, and their name.

    An ``int`` takes integers and a ``float`` any finite number (a JSON
    decoder may read a bare ``NaN`` or ``Infinity``), but neither takes
    a boolean; a ``bool`` takes only ``True`` and ``False``;
    ``Optional`` adds ``None``; any other type takes its instances.
    """
    args = get_args(hint)
    if type(None) in args:
        allows, name = _json_type(next(a for a in args if a is not type(None)))
        return (lambda v: v is None or allows(v)), f"{name} or null"
    base = get_origin(hint) or hint
    if base is int:
        return (lambda v: _is_number(v) and isinstance(v, int)), "an integer"
    if base is float:
        return (lambda v: _is_number(v) and math.isfinite(v)), "a finite number"
    return (lambda v: isinstance(v, base)), _JSON_NAMES.get(base, base.__name__)


@lru_cache(maxsize=None)
def _schema(cls) -> Tuple[FrozenSet[str], Tuple[Tuple[str, Any, str], ...]]:
    """``cls``'s field names and each field's type rule, resolved once."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    return frozenset(names), tuple((n, *_json_type(hints[n])) for n in names)


_W = TypeVar("_W", bound="Wire")


class Wire:
    """Base of the wire dataclasses: the one codec and field-type rule."""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls: Type[_W], data: Any) -> _W:
        """Build the class from plain data, rejecting junk loudly."""
        if not isinstance(data, dict):
            raise RequestError(
                f"{cls.__name__} payload must be a JSON object, "
                f"got {type(data).__name__}"
            )
        known = _schema(cls)[0]
        unknown = sorted(set(data) - known)
        if unknown:
            raise RequestError(
                f"{cls.__name__} does not accept field(s) {unknown}; "
                f"known fields: {sorted(known)}"
            )
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise RequestError(
                f"{cls.__name__} schema_version {version!r} is not supported "
                f"(this build speaks version {SCHEMA_VERSION})"
            )
        return cls(**data)

    def check_types(self) -> None:
        """Raise :class:`RequestError` naming the first field whose value
        is not of the JSON type its declaration allows."""
        for name, allows, expected in _schema(type(self))[1]:
            value = getattr(self, name)
            if not allows(value):
                raise RequestError(
                    f"{type(self).__name__}.{name} must be {expected}, "
                    f"got {value!r}"
                )


class SpecRequest(Wire):
    """Base of the four requests about one spec."""

    def check_fields(self) -> None:
        """Require a non-empty ``spec``, then apply the field-type rule."""
        if not isinstance(self.spec, str) or not self.spec:
            raise RequestError(
                f"{type(self).__name__}.spec must be a non-empty string"
            )
        self.check_types()


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass
class EstimateRequest(SpecRequest):
    """Ask for the full Section 3 metric report of a spec's partition.

    ``spec`` is a bundled benchmark name (``ans``/``ether``/``fuzzy``/
    ``vol``), a filesystem path, or VHDL-subset source text.
    """

    spec: str = ""
    mode: str = "avg"
    concurrent: bool = False
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> None:
        self.check_fields()
        if self.mode not in FREQ_MODES:
            raise RequestError(
                f"EstimateRequest.mode must be one of {FREQ_MODES}, "
                f"got {self.mode!r}"
            )


def _check_retry_fields(request) -> None:
    """The range rule of an engine request's retry fields: ``retries``
    at least 0, and ``timeout`` null or positive."""
    name = type(request).__name__
    if request.retries < 0:
        raise RequestError(f"{name}.retries must be >= 0, got {request.retries!r}")
    if request.timeout is not None and request.timeout <= 0:
        raise RequestError(
            f"{name}.timeout must be positive or null, got {request.timeout!r}"
        )


@dataclass
class PartitionRequest(SpecRequest):
    """Ask for one partitioning-algorithm run plus its estimate.

    ``jobs=None`` means "the caller's default" (1 for direct library
    use; the server substitutes its ``--jobs`` setting when the
    algorithm runs on the engine).  ``jobs``, ``timeout`` and
    ``retries`` act only on the algorithms of
    :data:`~repro.partition.ENGINE_ALGORITHMS`; any other algorithm
    refuses them unless they keep their defaults (``jobs`` null or 1).
    """

    spec: str = ""
    algorithm: str = "greedy"
    seed: int = 0
    jobs: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 2
    schema_version: int = SCHEMA_VERSION

    def ignored_fields(self) -> List[str]:
        """The engine fields this request gives that its algorithm would
        ignore, in field order: unless the algorithm is one of
        :data:`~repro.partition.ENGINE_ALGORITHMS`, ``jobs`` other than
        null or 1, a ``timeout``, and ``retries`` other than its default."""
        from repro.partition import ENGINE_ALGORITHMS

        if self.algorithm in ENGINE_ALGORITHMS:
            return []
        given = {
            "jobs": self.jobs not in (None, 1),
            "timeout": self.timeout is not None,
            "retries": self.retries != PartitionRequest.retries,
        }
        return [name for name, value in given.items() if value]

    def validate(self) -> None:
        from repro.partition import ALGORITHMS, ENGINE_ALGORITHMS

        self.check_fields()
        if self.algorithm not in ALGORITHMS:
            raise RequestError(
                f"PartitionRequest.algorithm must be one of "
                f"{sorted(ALGORITHMS)}, got {self.algorithm!r}"
            )
        _check_retry_fields(self)
        ignored = self.ignored_fields()
        if ignored:
            raise RequestError(
                f"PartitionRequest.algorithm {self.algorithm!r} runs one search "
                f"in process and would ignore {', '.join(ignored)}: they apply "
                f"only to {' and '.join(ENGINE_ALGORITHMS)}"
            )


@dataclass
class SimulateRequest(SpecRequest):
    """Ask for a discrete-event simulation (optionally with validation).

    With ``validate=True`` the estimators run too and the result carries
    the per-metric relative-error report instead of the plain run.
    """

    spec: str = ""
    seed: int = 0
    iterations: int = 10
    mode: str = "avg"
    concurrent: bool = True
    time_limit: Optional[float] = None
    validate: bool = False
    schema_version: int = SCHEMA_VERSION

    def validate_fields(self) -> None:
        self.check_fields()
        if self.mode not in FREQ_MODES:
            raise RequestError(
                f"SimulateRequest.mode must be one of {FREQ_MODES}, "
                f"got {self.mode!r}"
            )
        if self.iterations < 1:
            raise RequestError("SimulateRequest.iterations must be >= 1")


@dataclass
class ExploreRequest(SpecRequest):
    """Ask for the time/area Pareto sweep of a spec."""

    spec: str = ""
    constraint_steps: int = 8
    random_starts: int = 5
    seed: int = 0
    jobs: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 2
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> None:
        self.check_fields()
        if self.constraint_steps < 0 or self.random_starts < 0:
            raise RequestError(
                "ExploreRequest.constraint_steps and random_starts must be >= 0"
            )
        _check_retry_fields(self)


#: The request dataclass of each request kind.
REQUESTS = {
    "estimate": EstimateRequest,
    "partition": PartitionRequest,
    "simulate": SimulateRequest,
    "explore": ExploreRequest,
}

#: Heavy request kinds a durable job can wrap.
JOB_KINDS = ("partition", "simulate", "explore")

#: Lifecycle states of a durable job.
JOB_STATES = ("pending", "running", "done", "failed")


@dataclass
class JobRequest(Wire):
    """Ask the serving layer to run a heavy request as a durable job.

    ``kind`` picks the wrapped request type (one of :data:`JOB_KINDS`);
    ``request`` is that request's plain-dict form, validated on
    submission exactly as the synchronous endpoint would validate it.
    The tenant is *not* part of the body — it travels in the
    ``X-Slif-Tenant`` header, because admission control must read it
    before parsing anything.
    """

    kind: str = "explore"
    request: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> "JobRequest":
        if self.kind not in JOB_KINDS:
            raise RequestError(
                f"JobRequest.kind must be one of {JOB_KINDS}, "
                f"got {self.kind!r}"
            )
        if not isinstance(self.request, dict):
            raise RequestError(
                "JobRequest.request must be a JSON object (the wrapped "
                f"{self.kind} request), got {type(self.request).__name__}"
            )
        self.check_types()
        return self

    def wrapped(self):
        """Parse and validate the wrapped request dataclass."""
        inner = REQUESTS[self.kind].from_dict(self.request)
        if self.kind == "simulate":
            inner.validate_fields()
        else:
            inner.validate()
        return inner


@dataclass
class JobStatus(Wire):
    """Plain-data snapshot of one durable job, as polled over the wire.

    ``state`` walks ``pending → running → done|failed``; ``result`` is
    the wrapped request's result dict once ``done`` (byte-identical to
    what the synchronous endpoint would have returned), ``error`` the
    failure message once ``failed``.  ``chunks_done`` counts journaled
    exploration chunks — after a daemon restart it resumes from the
    journal's count, not from zero.
    """

    id: str = ""
    kind: str = "explore"
    tenant: str = "default"
    state: str = "pending"
    created: float = 0.0
    updated: float = 0.0
    chunks_done: int = 0
    error: str = ""
    result: Optional[Dict[str, Any]] = None
    schema_version: int = SCHEMA_VERSION


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class EstimateResult(Wire):
    """Plain-data form of one :class:`~repro.estimate.engine.EstimateReport`.

    ``graph_key`` is the content hash of the session the estimate came
    from — the key the serving layer's graph cache uses, surfaced so
    clients can correlate responses with cache behaviour.
    """

    partition_name: str = ""
    system_time: float = 0.0
    feasible: bool = True
    component_sizes: Dict[str, float] = field(default_factory=dict)
    component_ios: Dict[str, int] = field(default_factory=dict)
    process_times: Dict[str, float] = field(default_factory=dict)
    bus_loads: Dict[str, Dict[str, float]] = field(default_factory=dict)
    violations: List[Dict[str, Any]] = field(default_factory=list)
    graph_key: str = ""
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_report(cls, report, graph_key: str = "") -> "EstimateResult":
        """Flatten a live :class:`EstimateReport` into plain data."""
        return cls(
            partition_name=report.partition_name,
            system_time=report.system_time,
            feasible=report.feasible,
            component_sizes=dict(report.component_sizes),
            component_ios=dict(report.component_ios),
            process_times=dict(report.process_times),
            bus_loads={
                name: {"demand": load.demand, "capacity": load.capacity}
                for name, load in report.bus_loads.items()
            },
            violations=[
                {
                    "component": v.component,
                    "metric": v.metric,
                    "used": v.used,
                    "limit": v.limit,
                }
                for v in report.violations
            ],
            graph_key=graph_key,
        )

    def to_report(self):
        """Rebuild the live report (for rendering with the one true code)."""
        from repro.estimate.bitrate import BusLoad
        from repro.estimate.engine import EstimateReport, Violation

        return EstimateReport(
            partition_name=self.partition_name,
            component_sizes=dict(self.component_sizes),
            component_ios=dict(self.component_ios),
            process_times=dict(self.process_times),
            system_time=self.system_time,
            bus_loads={
                name: BusLoad(
                    bus=name, demand=data["demand"], capacity=data["capacity"]
                )
                for name, data in self.bus_loads.items()
            },
            violations=[
                Violation(v["component"], v["metric"], v["used"], v["limit"])
                for v in self.violations
            ],
        )

    def render(self) -> str:
        """The human-readable report, identical to the CLI's output."""
        return self.to_report().render()


@dataclass
class PartitionResult(Wire):
    """Plain-data outcome of one partitioning run.

    Not to be confused with the in-memory
    :class:`repro.partition.result.PartitionResult`, which carries a
    live :class:`~repro.core.partition.Partition`; this one carries the
    mapping as plain dicts plus the post-run estimate.
    """

    algorithm: str = ""
    cost: float = 0.0
    iterations: int = 0
    evaluations: int = 0
    seed: int = 0
    partition_name: str = ""
    mapping: Dict[str, str] = field(default_factory=dict)
    channel_mapping: Dict[str, str] = field(default_factory=dict)
    estimate: Optional[EstimateResult] = None
    schema_version: int = SCHEMA_VERSION

    def summary(self) -> str:
        """One-line outcome, format-identical to the in-memory result."""
        return (
            f"{self.algorithm}: cost={self.cost:g} after "
            f"{self.iterations} iterations / {self.evaluations} evaluations"
        )

    @classmethod
    def from_dict(cls, data: Any) -> "PartitionResult":
        if isinstance(data, dict) and isinstance(data.get("estimate"), dict):
            data = dict(data)
            data["estimate"] = EstimateResult.from_dict(data["estimate"])
        return super().from_dict(data)


@dataclass
class SimulateResult(Wire):
    """Plain-data outcome of one simulation (or validation) run.

    ``text`` is the rendered human report — the simulation summary, or
    the estimator-vs-simulation fidelity table when the request asked
    for validation (in which case ``validation`` also carries the
    per-metric rows as data).
    """

    spec: str = ""
    seed: int = 0
    iterations: int = 0
    mode: str = "avg"
    concurrent: bool = True
    events: int = 0
    end_time: float = 0.0
    per_iteration_time: float = 0.0
    truncated: bool = False
    process_times: Dict[str, float] = field(default_factory=dict)
    text: str = ""
    validation: Optional[Dict[str, Any]] = None
    schema_version: int = SCHEMA_VERSION


@dataclass
class ExploreResult(Wire):
    """Plain-data Pareto front from one exploration sweep."""

    spec: str = ""
    seed: int = 0
    jobs: int = 1
    evaluated: int = 0
    points: List[Dict[str, Any]] = field(default_factory=list)
    text: str = ""
    schema_version: int = SCHEMA_VERSION
