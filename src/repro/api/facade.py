"""The five facade functions: load, estimate, partition, simulate, explore.

One stable entry point per workflow, shared by the CLI, the HTTP
serving layer and library users — all three speak the typed
request/response contract of :mod:`repro.api.types`, so a response is
identical however it was produced.

Each function accepts its ``*Request`` dataclass, an equivalent plain
dict (as decoded from JSON), or a bare spec string for the common
"defaults are fine" case::

    from repro import api

    api.estimate("fuzzy").system_time
    api.partition(api.PartitionRequest(spec="vol", algorithm="greedy"))
    api.explore({"spec": "ether", "constraint_steps": 4})

Passing ``session=`` (from :func:`~repro.api.session.load`) reuses an
already-built graph and its compiled batch kernel — this is what the
server's LRU cache does for every request; without it each call builds
a fresh session.  Facade calls never mutate a session: partitioning
and exploration evaluate candidate mappings on copies, so one session
can serve concurrent requests.

Estimates take one path.  ``estimate`` (a one-item batch),
``estimate_many`` and the report ``partition`` returns all score their
``(partition, mode, concurrent)`` items with one
:meth:`~repro.estimate.kernel.BatchKernel.reports` call on the
session's kernel; only the items the kernel abstains from (a call
cycle, a missing weight, an incomplete partition) run on the reference
:class:`~repro.estimate.engine.Estimator`, which returns the same
report or raises the precise error.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.api.session import Session, load
from repro.api.types import (
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
from repro.core.channels import FreqMode
from repro.obs import span


def _coerce(request, cls):
    """Accept a request dataclass, a plain dict, or a bare spec string."""
    if isinstance(request, cls):
        return request
    if isinstance(request, str):
        return cls(spec=request)
    if isinstance(request, dict):
        return cls.from_dict(request)
    raise RequestError(
        f"expected {cls.__name__}, dict or spec string, "
        f"got {type(request).__name__}"
    )


def _session_for(request, session: Optional[Session]) -> Session:
    return session if session is not None else load(request.spec)


def _reports(sess: Session, items: list) -> list:
    """Score ``(partition, mode, concurrent)`` items on ``sess``'s kernel.

    The one estimate path of the facade: every item goes through one
    :meth:`~repro.estimate.kernel.BatchKernel.reports` call, and only
    the items the kernel abstains from (all of them when the graph has
    a call cycle) run on a fresh reference
    :class:`~repro.estimate.engine.Estimator`, which then returns the
    identical report or raises the precise error, in item order.
    """
    from repro.estimate.engine import Estimator

    reports = sess.kernel().reports(items)
    for i, report in enumerate(reports):
        if report is None:
            reports[i] = Estimator(sess.slif, *items[i]).report()
    return reports


def estimate(
    request: Union[EstimateRequest, dict, str],
    *,
    session: Optional[Session] = None,
) -> EstimateResult:
    """Full Section 3 metric report for a spec's current partition.

    A one-item batch on the session's kernel (see :func:`estimate_many`).

    >>> from repro import api
    >>> result = api.estimate("vol")
    >>> round(result.system_time, 3)
    38.402
    >>> result.feasible
    True
    >>> result == api.EstimateResult.from_dict(result.to_dict())
    True
    """
    req = _coerce(request, EstimateRequest)
    req.validate()
    sess = _session_for(req, session)
    with span("api.estimate", spec=sess.spec_name, mode=req.mode):
        [report] = _reports(
            sess, [(sess.partition, FreqMode(req.mode), req.concurrent)]
        )
    return EstimateResult.from_report(report, graph_key=sess.key)


def estimate_many(
    requests,
    *,
    session: Optional[Session] = None,
) -> list:
    """Batch of :func:`estimate` calls, scored in one kernel call per graph.

    ``requests`` is a sequence of anything :func:`estimate` accepts.
    Requests sharing one graph (same ``session``, or specs resolving to
    the same build) are scored together by a single
    :meth:`~repro.estimate.kernel.BatchKernel.reports` call, which
    shares the mode-independent half of the report between them; the
    server calls it with one request on its cached session.  Any
    request the kernel abstains from (every request on a graph with a
    call cycle) runs on the reference estimator instead, so results
    are always exactly what N individual calls would have produced, in
    order, and a failing request raises what :func:`estimate` raises
    for it.

    >>> from repro import api
    >>> single = api.estimate("vol")
    >>> many = api.estimate_many(["vol", {"spec": "vol", "mode": "max"}])
    >>> many[0] == single
    True
    >>> many[1].system_time >= many[0].system_time   # max-mode frequencies
    True
    """
    reqs = [_coerce(r, EstimateRequest) for r in requests]
    for req in reqs:
        req.validate()
    results: list = [None] * len(reqs)
    loaded: dict = {}
    groups: dict = {}
    for i, req in enumerate(reqs):
        if session is not None:
            sess = session
        else:
            sess = loaded.get(req.spec)
            if sess is None:
                sess = load(req.spec)
                loaded[req.spec] = sess
        groups.setdefault(id(sess), (sess, []))[1].append(i)
    with span("api.estimate_many", requests=len(reqs), graphs=len(groups)):
        for sess, indices in groups.values():
            reports = _reports(
                sess,
                [
                    (sess.partition, FreqMode(reqs[i].mode), reqs[i].concurrent)
                    for i in indices
                ],
            )
            for i, report in zip(indices, reports):
                results[i] = EstimateResult.from_report(report, graph_key=sess.key)
    return results


def partition(
    request: Union[PartitionRequest, dict, str],
    *,
    session: Optional[Session] = None,
    policy=None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> PartitionResult:
    """Run one partitioning algorithm and estimate its outcome.

    The run starts from a copy of the session's partition; the session
    itself is never mutated, so cached sessions can serve concurrent
    partitioning requests.  Greedy and annealing score their moves on
    the session kernel's compiled graph, and the outcome's report is
    scored on the kernel like any estimate.  ``policy``/``checkpoint``/
    ``resume`` pass through to the fault-tolerant exploration engine
    for the multi-start algorithms.
    """
    from repro.partition import run_algorithm

    req = _coerce(request, PartitionRequest)
    req.validate()
    sess = _session_for(req, session)
    jobs = 1 if req.jobs is None else req.jobs
    if policy is None and (req.timeout is not None or req.retries != 2):
        from repro.explore.engine import RetryPolicy

        policy = RetryPolicy(
            timeout=req.timeout, retries=req.retries, seed=req.seed
        )
    with sess.lock:
        start = sess.partition.copy()
    with span(
        "api.partition", spec=sess.spec_name, algorithm=req.algorithm
    ):
        result = run_algorithm(
            req.algorithm,
            sess.slif,
            start,
            seed=req.seed,
            jobs=jobs,
            compiled=sess.kernel().cg,
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
        )
        [report] = _reports(sess, [(result.partition, FreqMode.AVG, False)])
    return PartitionResult(
        algorithm=req.algorithm,
        cost=result.cost,
        iterations=result.iterations,
        evaluations=result.evaluations,
        seed=req.seed,
        partition_name=result.partition.name,
        mapping=result.partition.object_mapping(),
        channel_mapping=result.partition.channel_mapping(),
        estimate=EstimateResult.from_report(report, graph_key=sess.key),
    )


def simulate(
    request: Union[SimulateRequest, dict, str],
    *,
    session: Optional[Session] = None,
) -> SimulateResult:
    """Discrete-event simulation; with ``validate=True``, fidelity too."""
    from repro.sim import SimConfig
    from repro.sim import simulate as sim_run
    from repro.sim import validate as sim_validate

    req = _coerce(request, SimulateRequest)
    req.validate_fields()
    sess = _session_for(req, session)
    config = SimConfig(
        seed=req.seed,
        iterations=req.iterations,
        mode=FreqMode(req.mode),
        concurrent=req.concurrent,
        time_limit=req.time_limit,
    )
    if req.validate:
        with span("api.simulate", spec=sess.spec_name, validate=True):
            report = sim_validate(sess.slif, sess.partition, config=config)
        return SimulateResult(
            spec=sess.spec_name,
            seed=req.seed,
            iterations=req.iterations,
            mode=req.mode,
            concurrent=req.concurrent,
            events=report.sim_events,
            text=report.render(),
            validation={
                "est_seconds": report.est_seconds,
                "sim_seconds": report.sim_seconds,
                "speedup": report.speedup,
                "not_exercised": list(report.not_exercised),
                "rows": [
                    {
                        "metric": row.metric,
                        "name": row.name,
                        "estimated": row.estimated,
                        "simulated": row.simulated,
                        "rel_error": row.rel_error,
                    }
                    for row in report.rows
                ],
            },
        )
    with span("api.simulate", spec=sess.spec_name, validate=False):
        result = sim_run(sess.slif, sess.partition, config=config)
    return SimulateResult(
        spec=sess.spec_name,
        seed=req.seed,
        iterations=req.iterations,
        mode=req.mode,
        concurrent=req.concurrent,
        events=result.events,
        end_time=result.end_time,
        per_iteration_time=result.per_iteration_time,
        truncated=result.truncated,
        process_times=dict(result.process_times),
        text=result.render(),
    )


def explore(
    request: Union[ExploreRequest, dict, str],
    *,
    session: Optional[Session] = None,
    policy=None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    fleet=None,
    on_result=None,
) -> ExploreResult:
    """Sweep the time/area trade-off; returns the Pareto front as data.

    Dispatches onto the fault-tolerant :mod:`repro.explore` engine,
    which sweeps the session's own graph and kernel read-only:
    in-process at ``jobs=1``, and in worker processes that inherit them
    when forked at ``jobs>1``.  The front is byte-identical for any
    ``jobs`` value given the same seed.
    ``fleet`` (a coordinator ``host:port``/URL or a ready
    :class:`~repro.fleet.protocol.FleetSpec`) distributes the sweep
    across a worker fleet instead; the session's content-hash key
    becomes the consistent-hash routing key so repeated sweeps of one
    spec land on the same worker's warm caches.  ``on_result`` observes
    each completed chunk (journal-replayed ones first when resuming) —
    the durable-jobs layer streams progressive front updates from it.
    """
    from repro.partition.pareto import explore_pareto

    req = _coerce(request, ExploreRequest)
    req.validate()
    sess = _session_for(req, session)
    jobs = 1 if req.jobs is None else req.jobs
    if policy is None and (req.timeout is not None or req.retries != 2):
        from repro.explore.engine import RetryPolicy

        policy = RetryPolicy(
            timeout=req.timeout, retries=req.retries, seed=req.seed
        )
    if fleet is not None:
        from repro.fleet.protocol import FleetSpec

        fleet = FleetSpec.coerce(fleet, session_key=sess.key)
    with span("api.explore", spec=sess.spec_name, jobs=jobs):
        front = explore_pareto(
            sess.slif,
            sess.partition,
            kernel=sess.kernel(),
            constraint_steps=req.constraint_steps,
            random_starts=req.random_starts,
            seed=req.seed,
            jobs=jobs,
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
            fleet=fleet,
            on_result=on_result,
        )
    return ExploreResult(
        spec=sess.spec_name,
        seed=req.seed,
        jobs=jobs,
        evaluated=front.evaluated,
        points=[
            {
                "hardware_size": p.hardware_size,
                "system_time": p.system_time,
                "label": p.label,
                "mapping": dict(p.mapping),
            }
            for p in front.points
        ],
        text=front.render(),
    )


# ---------------------------------------------------------------------------
# durable-job client helpers (the `slif jobs` CLI speaks through these)
# ---------------------------------------------------------------------------


def _server_url(server: str) -> str:
    """Normalize a ``host:port`` or URL into a base URL, no trailing slash."""
    server = server.strip().rstrip("/")
    if not server:
        raise RequestError("server address must be a host:port or URL")
    if not server.startswith(("http://", "https://")):
        server = f"http://{server}"
    return server


def _job_call(
    url: str,
    data: Optional[bytes] = None,
    headers: Optional[dict] = None,
    timeout: float = 30.0,
) -> dict:
    import json as _json
    import urllib.error
    import urllib.request

    from repro.errors import SlifError

    request = urllib.request.Request(
        url, data=data, headers=dict(headers or {}),
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        try:
            detail = _json.loads(detail).get("error", detail)
        except ValueError:
            pass
        raise SlifError(f"server answered {exc.code}: {detail}") from None
    except urllib.error.URLError as exc:
        raise SlifError(f"cannot reach {url}: {exc.reason}") from None
    return _json.loads(body.decode("utf-8"))


def submit(
    server: str,
    request: Union[JobRequest, dict],
    *,
    tenant: Optional[str] = None,
    timeout: float = 30.0,
) -> JobStatus:
    """Submit a durable job to a running ``slif serve --state-dir`` daemon.

    ``request`` is a :class:`JobRequest` (or its dict form) wrapping any
    heavy request.  Submission is idempotent: the job id is derived from
    the tenant, the wrapped request's canonical JSON and the spec's
    content hash, so resubmitting returns the existing job's status
    instead of starting a second sweep.
    """
    if isinstance(request, JobRequest):
        req = request
    elif isinstance(request, dict):
        req = JobRequest.from_dict(request)
    else:
        raise RequestError(
            f"expected JobRequest or dict, got {type(request).__name__}"
        )
    req.validate()
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Slif-Tenant"] = tenant
    payload = _job_call(
        f"{_server_url(server)}/v1/jobs",
        data=canonical_json(req.to_dict()).encode("utf-8"),
        headers=headers,
        timeout=timeout,
    )
    return JobStatus.from_dict(payload)


def poll(
    server: str,
    job_id: str,
    *,
    timeout: float = 30.0,
) -> JobStatus:
    """Fetch the current :class:`JobStatus` of one durable job."""
    if not job_id:
        raise RequestError("job id must be a non-empty string")
    payload = _job_call(
        f"{_server_url(server)}/v1/jobs/{job_id}", timeout=timeout
    )
    return JobStatus.from_dict(payload)
