"""Command-line interface: the ``slif`` tool.

Subcommands mirror the system-design workflow:

``slif build <spec> [-o out.json]``
    Parse a VHDL file (or bundled benchmark name), run the annotators,
    and persist the SLIF graph as JSON.
``slif estimate <spec>``
    Build, allocate the default processor+ASIC architecture, and print
    the full estimate report for the initial all-software partition.
``slif partition <spec> --algorithm greedy``
    Same, then run a partitioning algorithm and print the improved
    partition and its estimates.
``slif stats <spec>``
    Print the Figure 4 style structural counts, and the SLIF/ADD/CDFG
    format comparison.
``slif check <spec>``
    Run graph validation and print all findings.
``slif dot <spec>``
    Emit a Graphviz rendering of the access graph.
``slif explore <spec>``
    Sweep the hardware/software trade-off and print the Pareto front.
``slif simulate <spec> [--seed N] [--validate]``
    Execute the annotated graph in the discrete-event simulator; with
    ``--validate``, also run the estimators and report the per-metric
    relative error against the simulated ground truth.
``slif serve [--port N]``
    Run the long-running HTTP estimation service (``repro.serve``):
    JSON endpoints for estimate/partition/simulate/explore backed by
    an LRU graph cache and shared evaluation of identical concurrent
    estimates, plus a Prometheus ``/metrics`` scrape target — and the
    fleet coordinator (``/v1/fleet/*``) that ``slif work`` daemons
    register with.
``slif work --coordinator host:port``
    Run a fleet worker daemon: pulls exploration chunks from a
    ``slif serve`` coordinator, evaluates them on a warm cached
    runner, and ships results (telemetry included) back.  A sweep
    started with ``slif explore <spec> --workers host:port`` fans
    across every registered worker and still prints a front
    byte-identical to ``--jobs 1``.
``slif jobs submit|status|wait <server> ...``
    Drive the server's durable async-job API (``slif serve
    --state-dir``): ``submit`` posts a heavy request as a
    crash-surviving job and prints its id, ``status`` polls one job's
    JSON status, ``wait`` blocks until the job ends and prints the
    result text — byte-identical to running the same request locally.
``slif obs waterfall|slow|diff <trace.jsonl>``
    Analyze ``--trace-out`` exports offline: per-trace span
    waterfalls, the top-N slowest spans, and run-to-run metric diffs.

``breakdown``, ``transform`` and the flag-by-flag reference for every
subcommand live in ``docs/cli.md``.

The workflow subcommands (``estimate``/``partition``/``explore``/
``simulate``) are thin wrappers over the :mod:`repro.api` facade — the
same typed request/response contract the server speaks — so a CLI run,
a library call and an HTTP response always agree.

Exit codes are normalized (table in ``docs/cli.md``): 0 success, 2 for
any expected failure (bad input, validation, estimation or partition
errors), 3 when the fault-tolerant runtime exhausted its recovery
budget (chunk timeouts, worker crashes, injected faults), 130 on SIGINT.

Parallelism: ``explore``, and ``partition`` with the ``random`` or
``greedy_multistart`` algorithm, accept ``--jobs N`` to fan candidate
evaluation across worker processes (0 = all cores) via
``repro.explore``; output is byte-identical to ``--jobs 1`` for the
same seed.  Multi-worker sweeps are fault-tolerant: ``--timeout`` /
``--retries`` tune the per-chunk recovery loop, ``--checkpoint PATH``
journals completed chunks as JSONL, and ``--resume PATH`` replays such
a journal so an interrupted sweep only re-evaluates missing chunks.
Deterministic fault injection for the recovery paths is enabled via
the ``SLIF_FAULTS`` environment variable (see ``repro.faults``).

Observability: instrumentation (``repro.obs``) is enabled for the
duration of every command, so all subcommands report phase timing from
the same span data.  ``--stats`` (on ``build``/``estimate``/
``partition``/``explore``/``simulate``) prints the full instrumentation
summary to stderr; ``--trace-out FILE`` writes the span/metric JSONL
export (readable back with ``slif obs``).  With ``--jobs N`` the
summary and export include telemetry merged back from every worker
process — worker-side ``explore.chunk`` spans carry the command's
trace id and a ``worker_pid`` attribute.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional

from repro import __version__, obs
from repro.errors import SlifError


#: front ends whose specs are VHDL source (the paper's §5 front end)
VHDL_FRONTENDS = ("benchmark", "vhdl")


def _resolve(spec: str, vhdl_option: str = ""):
    """Resolve a CLI spec argument through the front-end registry.

    A non-empty ``vhdl_option`` names an option that only VHDL specs
    support; any other front end's spec is then a :class:`SlifError`.
    """
    from repro.api.frontends import FRONTENDS

    resolved = FRONTENDS.resolve(spec)
    if vhdl_option and resolved.frontend not in VHDL_FRONTENDS:
        raise SlifError(
            f"{vhdl_option} needs a VHDL spec (a bundled benchmark, VHDL "
            f"source or a .vhd file); {spec!r} is a {resolved.frontend} spec"
        )
    return resolved


def _build_graph(
    spec: str,
    annotate: bool = True,
    granularity: str = "behavior",
    profile_path: Optional[str] = None,
):
    """The functional graph of a spec, without components.

    VHDL specs honour ``granularity``, ``profile_path`` and
    ``annotate``; any other front end's spec builds through
    :meth:`~repro.api.frontends.FrontEndRegistry.parse`.
    """
    from repro.api.frontends import FRONTENDS
    from repro.synth.annotate import annotate_slif
    from repro.synth.techlib import default_library
    from repro.vhdl.granularity import Granularity
    from repro.vhdl.profiler import BranchProfile
    from repro.vhdl.slif_builder import build_slif_from_source

    if profile_path:
        vhdl_option = "--profile"
    elif granularity != "behavior":
        vhdl_option = f"--granularity {granularity}"
    else:
        vhdl_option = ""
    resolved = _resolve(spec, vhdl_option)
    if resolved.frontend not in VHDL_FRONTENDS:
        return FRONTENDS.parse(resolved, default_library())
    profile = resolved.profile
    if profile_path:
        profile = BranchProfile.parse(Path(profile_path).read_text())
    slif = build_slif_from_source(
        resolved.source,
        name=resolved.name,
        profile=profile,
        granularity=Granularity(granularity),
    )
    if annotate:
        annotate_slif(slif)
    return slif


def _build_system(spec: str):
    from repro import api

    return api.load(spec).system


def cmd_build(args: argparse.Namespace) -> int:
    from repro.core.serialize import slif_to_json
    from repro.core.textfmt import dumps as slif_dumps

    with obs.span("cli.build", spec=args.spec) as sp:
        slif = _build_graph(
            args.spec,
            granularity=args.granularity,
            profile_path=getattr(args, "profile", None),
        )
    text = slif_dumps(slif) if args.format == "text" else slif_to_json(slif)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    print(
        f"-- built {slif.name}: {slif.num_bv} objects, "
        f"{slif.num_channels} channels in {sp.duration:.3f}s",
        file=sys.stderr,
    )
    return 0


def _request(kind: str, args: argparse.Namespace):
    """The ``kind`` request (see :data:`repro.api.types.REQUESTS`) that
    a subcommand's flags ask for.

    The one flag-to-request mapping of ``slif estimate``, ``partition``,
    ``explore``, ``simulate`` and ``jobs submit``: each request field
    takes the flag stored under its name, and a field whose flag the
    subcommand lacks keeps the request's default.
    """
    from repro.api.types import REQUESTS

    cls = REQUESTS[kind]
    flags = vars(args)
    return cls(**{name: flags[name] for name in cls.__dataclass_fields__
                  if name in flags})


def cmd_estimate(args: argparse.Namespace) -> int:
    from repro import api

    session = api.load(args.spec)
    with obs.span("cli.estimate", spec=args.spec) as sp:
        result = api.estimate(_request("estimate", args), session=session)
    print(result.render())
    print(f"-- estimated in {sp.duration * 1000:.2f} ms", file=sys.stderr)
    return 0


def _reject_engine_flags(args: argparse.Namespace, request) -> None:
    """Refuse engine flags an in-process search would silently ignore,
    naming each flag given: the fields the partition ``request`` would
    ignore, then ``--checkpoint`` and ``--resume``."""
    from repro.partition import ENGINE_ALGORITHMS

    if args.algorithm in ENGINE_ALGORITHMS:
        return
    given = [f"--{name}" for name in request.ignored_fields()] + [
        flag
        for flag, path in (("--checkpoint", args.checkpoint), ("--resume", args.resume))
        if path is not None
    ]
    if given:
        raise SlifError(
            f"--algorithm {args.algorithm} runs one search in process and "
            f"would ignore {', '.join(given)}: --jobs and the fault-tolerance "
            f"flags apply only to {' and '.join(ENGINE_ALGORITHMS)}, whose "
            "starts run on the exploration engine"
        )


def cmd_partition(args: argparse.Namespace) -> int:
    from repro import api

    request = _request("partition", args)
    _reject_engine_flags(args, request)
    session = api.load(args.spec)
    with obs.span(
        "cli.partition", spec=args.spec, algorithm=args.algorithm, seed=args.seed
    ) as sp:
        result = api.partition(request, session=session, **_exec_options(args))
    print(result.summary())
    print(result.estimate.render())
    print(
        f"-- partition {args.algorithm} seed={args.seed}: "
        f"{result.iterations} iterations, {result.evaluations} cost "
        f"evaluations in {sp.duration:.3f}s",
        file=sys.stderr,
    )
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from repro import api

    session = api.load(args.spec)
    with obs.span("cli.explore", spec=args.spec, seed=args.seed) as sp:
        result = api.explore(
            _request("explore", args),
            session=session,
            fleet=args.workers,
            **_exec_options(args),
        )
    print(result.text)
    mode = f"fleet={args.workers}" if args.workers else f"jobs={args.jobs}"
    print(
        f"-- explore seed={args.seed} {mode}: "
        f"{result.evaluated} designs evaluated, "
        f"{len(result.points)} on the front in {sp.duration:.3f}s",
        file=sys.stderr,
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro import api

    session = api.load(args.spec)
    with obs.span("cli.simulate", spec=args.spec, seed=args.seed) as sp:
        result = api.simulate(_request("simulate", args), session=session)
    print(result.text)
    if args.validate:
        fidelity = result.validation
        print(
            f"-- validated in {sp.duration:.3f}s: estimate "
            f"{fidelity['est_seconds'] * 1000:.2f} ms vs simulation "
            f"{fidelity['sim_seconds'] * 1000:.2f} ms "
            f"({fidelity['speedup']:.0f}x)",
            file=sys.stderr,
        )
        return 0
    print(
        f"-- simulated {result.events} events in {sp.duration:.3f}s",
        file=sys.stderr,
    )
    return 0


def _parse_tenant_weights(items) -> dict:
    """``NAME=WEIGHT`` pairs from repeated ``--tenant-weight`` flags."""
    weights = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        try:
            weight = float(value)
        except ValueError:
            weight = 0.0
        if not sep or not name or weight <= 0:
            raise SlifError(
                f"--tenant-weight wants NAME=WEIGHT with a positive "
                f"weight, got {item!r}"
            )
        weights[name] = weight
    return weights


def cmd_gen(args: argparse.Namespace) -> int:
    from repro.synth.gen import GenConfig, generate_text

    config = GenConfig(
        behaviors=args.behaviors,
        seed=args.seed,
        fanout=args.fanout,
        concurrency=args.concurrency,
        depth=args.depth,
        variables=args.variables,
        ports=args.ports,
        name=args.name,
    )
    with obs.span(
        "cli.gen", behaviors=args.behaviors, seed=args.seed
    ) as sp:
        text = generate_text(config)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    print(
        f"-- generated {config.spec_name}: {args.behaviors} behaviors, "
        f"{len(text)} bytes in {sp.duration:.3f}s",
        file=sys.stderr,
    )
    return 0


def _parse_mix(items) -> Optional[dict]:
    """``--mix estimate=0.8 --mix partition=0.2`` into a weight dict."""
    if not items:
        return None
    mix = {}
    for item in items:
        name, sep, value = item.partition("=")
        try:
            weight = float(value)
        except ValueError:
            sep = ""
        if not sep:
            raise SlifError(
                f"--mix entries must look like endpoint=weight, got {item!r}"
            )
        mix[name] = weight
    return mix


def cmd_replay(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.synth.replay import DEFAULT_MIX, ReplayConfig, run_replay

    config = ReplayConfig(
        server=args.server,
        duration=args.duration,
        seed=args.seed,
        workers=args.workers,
        rate=args.rate,
        mix=_parse_mix(args.mix) or dict(DEFAULT_MIX),
        tenants=args.tenants,
        specs=tuple(args.spec) if args.spec else ReplayConfig().specs,
        timeout=args.timeout,
    )
    with obs.span("cli.replay", server=args.server, seed=args.seed) as sp:
        report = run_replay(config)
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    print(
        f"-- replayed {report.requests} requests in {sp.duration:.1f}s "
        f"({report.throughput:.1f} req/s)",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServerConfig, run_server

    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_size=args.cache_size,
        max_inflight=args.max_inflight,
        drain_timeout=args.drain_timeout,
        quiet=not args.verbose,
        fleet_heartbeat=args.fleet_heartbeat,
        state_dir=args.state_dir,
        job_workers=args.job_workers,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        tenant_weights=_parse_tenant_weights(args.tenant_weight),
    )
    return run_server(config)


def cmd_jobs_submit(args: argparse.Namespace) -> int:
    from repro import api

    request = _request(args.kind, args).to_dict()
    status = api.submit(
        args.server, {"kind": args.kind, "request": request}, tenant=args.tenant
    )
    # the id alone on stdout so scripts can capture it; detail on stderr
    print(status.id)
    print(
        f"-- job {status.id} ({status.kind}) is {status.state}",
        file=sys.stderr,
    )
    return 0


def cmd_jobs_status(args: argparse.Namespace) -> int:
    from repro import api
    from repro.api.types import canonical_json

    status = api.poll(args.server, args.job_id)
    print(canonical_json(status.to_dict()))
    return 0


def cmd_jobs_wait(args: argparse.Namespace) -> int:
    from repro import api

    deadline = (
        None if args.timeout is None else time.monotonic() + args.timeout
    )
    last_state = None
    while True:
        status = api.poll(args.server, args.job_id)
        if status.state != last_state:
            print(
                f"-- job {status.id} is {status.state} "
                f"(chunks done: {status.chunks_done})",
                file=sys.stderr,
            )
            last_state = status.state
        if status.state == "done":
            text = (status.result or {}).get("text", "")
            if text:
                print(text)
            return 0
        if status.state == "failed":
            print(f"slif jobs: job failed: {status.error}", file=sys.stderr)
            return EXIT_ERROR
        if deadline is not None and time.monotonic() >= deadline:
            print(
                f"slif jobs: timed out after {args.timeout:g}s waiting "
                f"for {args.job_id} (still {status.state})",
                file=sys.stderr,
            )
            return EXIT_ERROR
        time.sleep(args.poll)


def cmd_work(args: argparse.Namespace) -> int:
    from repro.fleet import WorkerConfig, run_worker

    config = WorkerConfig(
        coordinator=args.coordinator,
        host=args.host,
        port=args.port,
        poll_seconds=args.poll,
        cache_size=args.cache_size,
        worker_id=args.worker_id,
        quiet=not args.verbose,
    )
    return run_worker(config)


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.cdfg.stats import compare_formats_from_source, render_comparison
    from repro.vhdl.lexer import count_source_lines

    # line counts and the CDFG comparison are over VHDL source
    resolved = _resolve(args.spec, "slif stats")
    slif = _build_graph(
        args.spec, annotate=False, granularity=args.granularity
    )
    print(f"{resolved.name}: {count_source_lines(resolved.source)} lines")
    for key, value in slif.stats().items():
        print(f"  {key}: {value}")
    print()
    print(render_comparison(
        compare_formats_from_source(resolved.source, resolved.name)
    ))
    return 0


def cmd_breakdown(args: argparse.Namespace) -> int:
    from repro.estimate.breakdown import system_breakdowns, time_breakdown

    system = _build_system(args.spec)
    if args.behavior:
        print(
            time_breakdown(system.slif, system.partition, args.behavior).render()
        )
        return 0
    for breakdown in system_breakdowns(system.slif, system.partition).values():
        print(breakdown.render())
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    from repro.transform.inline import inline_all_single_callers

    slif = _build_graph(args.spec)
    before = slif.stats()
    count = inline_all_single_callers(slif)
    after = slif.stats()
    print(f"inlined {count} single-caller procedures")
    print(
        f"objects: {before['bv']} -> {after['bv']}   "
        f"channels: {before['channels']} -> {after['channels']}"
    )
    if args.output:
        from repro.core.serialize import slif_to_json

        Path(args.output).write_text(slif_to_json(slif))
        print(f"wrote {args.output}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.core.validate import validate_slif

    slif = _build_graph(args.spec)
    issues = validate_slif(slif)
    if not issues:
        print(f"{slif.name}: no issues")
        return 0
    for issue in issues:
        print(issue)
    errors = [i for i in issues if i.severity.value == "error"]
    return 1 if errors else 0


def cmd_dot(args: argparse.Namespace) -> int:
    from repro.core.dot import to_dot

    slif = _build_graph(args.spec, annotate=False, granularity=args.granularity)
    text = to_dot(slif, annotate=not args.plain)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _read_trace(path: str) -> list:
    from repro.obs.export import read_jsonl

    if not Path(path).exists():
        raise SlifError(f"trace file {path!r} does not exist")
    try:
        return read_jsonl(path)
    except ValueError as exc:
        raise SlifError(f"{path!r} is not a JSONL trace export: {exc}")


def cmd_obs_waterfall(args: argparse.Namespace) -> int:
    from repro.obs.analyze import render_waterfall

    print(
        render_waterfall(
            _read_trace(args.trace),
            trace_id=args.trace_id,
            width=args.width,
        )
    )
    return 0


def cmd_obs_slow(args: argparse.Namespace) -> int:
    from repro.obs.analyze import render_slowest

    print(render_slowest(_read_trace(args.trace), top=args.top))
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.analyze import render_diff

    print(
        render_diff(
            _read_trace(args.trace_a),
            _read_trace(args.trace_b),
            label_a=args.trace_a,
            label_b=args.trace_b,
        )
    )
    return 0


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    """Worker-count flag shared by the exploration-capable subcommands."""
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for candidate evaluation (0 = all cores); "
        "results are identical for any value given the same seed",
    )


def _add_fault_tolerance_args(p: argparse.ArgumentParser) -> None:
    """Recovery flags shared by the exploration-capable subcommands."""
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-chunk timeout in seconds for --jobs > 1 (default: none); "
        "timed-out chunks are retried, then run in-process",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget per chunk for failures and timeouts (default 2); "
        "exhausted chunks degrade to the in-process runner",
    )
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="journal completed chunks to PATH (JSONL) as they finish, so "
        "an interrupted run can be resumed with --resume PATH",
    )
    p.add_argument(
        "--resume",
        metavar="PATH",
        help="resume from the journal at PATH: skip chunks it already "
        "holds and keep appending to it (implies --checkpoint PATH)",
    )


def _exec_options(args: argparse.Namespace) -> dict:
    """The ``checkpoint``/``resume`` keywords ``--checkpoint`` and
    ``--resume`` ask for; ``--timeout`` and ``--retries`` are request
    fields."""
    if args.resume and args.checkpoint and args.resume != args.checkpoint:
        raise SlifError(
            "--resume and --checkpoint name different files; --resume "
            "already appends to the journal it reads"
        )
    return dict(
        checkpoint=args.resume or args.checkpoint, resume=bool(args.resume)
    )


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """Observability flags shared by build/estimate/partition/explore."""
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the instrumentation summary (counters, spans) to stderr",
    )
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the span/metric trace as JSONL to FILE",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slif",
        description="SLIF: specification-level intermediate format tools",
    )
    parser.add_argument(
        "--version", action="version", version=f"slif {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    granularity_kwargs = dict(
        choices=["behavior", "basic_block"],
        default="behavior",
        help="behavior-level (default) or basic-block-level nodes",
    )

    p = sub.add_parser("build", help="build a SLIF graph and emit JSON")
    p.add_argument("spec", help="VHDL file or bundled benchmark name")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.add_argument(
        "--format",
        choices=["json", "text"],
        default="json",
        help="machine JSON (default) or the human-readable .slif text form",
    )
    p.add_argument(
        "--profile",
        help="branch-probability file (overrides any bundled profile)",
    )
    p.add_argument("--granularity", **granularity_kwargs)
    _add_obs_args(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("estimate", help="estimate all design metrics")
    p.add_argument("spec")
    _add_obs_args(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "partition",
        help="run a partitioning algorithm",
        description="Run a partitioning algorithm.  --jobs and the fault-"
        "tolerance flags apply to random and greedy_multistart, whose starts "
        "run on the exploration engine; the other algorithms run one search "
        "in process, keep no journal and refuse them.",
    )
    p.add_argument("spec")
    p.add_argument(
        "--algorithm",
        default="greedy",
        choices=[
            "greedy",
            "greedy_multistart",
            "group_migration",
            "annealing",
            "clustering",
            "random",
        ],
    )
    p.add_argument("--seed", type=int, default=0)
    _add_jobs_arg(p)
    _add_fault_tolerance_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser(
        "explore", help="sweep the time/area trade-off (Pareto front)"
    )
    p.add_argument("spec")
    p.add_argument(
        "--steps",
        dest="constraint_steps",
        metavar="STEPS",
        type=int,
        default=8,
        help="CPU-constraint sweep steps",
    )
    p.add_argument(
        "--random-starts", type=int, default=5, help="random starts per step"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        metavar="COORD",
        default=None,
        help="distribute the sweep across a fleet: the coordinator's "
        "host:port (a running `slif serve`); overrides --jobs",
    )
    _add_jobs_arg(p)
    _add_fault_tolerance_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "simulate",
        help="discrete-event simulation (ground truth for the estimators)",
    )
    p.add_argument("spec")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the Bernoulli rounding of fractional access counts",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=10,
        help="system iterations to run back-to-back (averages out seed noise)",
    )
    p.add_argument("--mode", choices=["avg", "min", "max"], default="avg")
    p.add_argument(
        "--sequential",
        dest="concurrent",
        action="store_false",
        help="ignore concurrency tags (the paper's sequential Eq. 1 model)",
    )
    p.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="truncate the run at this simulated time",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="run the estimators too and report per-metric relative error",
    )
    _add_obs_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "gen",
        help="generate a seeded synthetic spec (slif-synth JSON)",
        description=(
            "Emit a synthetic SLIF access graph as a slif-synth JSON "
            "document. Fully deterministic: the same seed and knobs "
            "produce byte-identical output on any platform. The output "
            "is accepted anywhere a spec is (estimate, partition, "
            "simulate, explore, serve)."
        ),
    )
    p.add_argument(
        "--behaviors",
        type=int,
        default=100,
        help="total behavior count, 2..100000 (default 100)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="determinism root (default 0)"
    )
    p.add_argument(
        "--fanout",
        type=float,
        default=2.0,
        help="mean outgoing calls per non-leaf behavior (default 2.0)",
    )
    p.add_argument(
        "--concurrency",
        type=float,
        default=0.3,
        help="fraction of multi-channel behaviors given fork tags "
        "(default 0.3)",
    )
    p.add_argument(
        "--depth",
        type=int,
        default=4,
        help="call-hierarchy depth in behavior levels (default 4)",
    )
    p.add_argument(
        "--variables",
        type=int,
        default=None,
        help="shared-variable count (default: behaviors/4)",
    )
    p.add_argument(
        "--ports",
        type=int,
        default=None,
        help="external-port count (default: derived from behaviors)",
    )
    p.add_argument("--name", help="spec name (default synth-<seed>-<behaviors>)")
    p.add_argument("-o", "--output", help="write the spec here instead of stdout")
    _add_obs_args(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "replay",
        help="replay a seeded request mix against a running slif serve",
        description=(
            "Drive a live server with a seeded traffic mix and report "
            "throughput, p50/p95/p99 latency (merged log-scale "
            "histograms), and error/429 rates. Closed-loop by default; "
            "--rate switches to a fixed-rate open-loop arrival process."
        ),
    )
    p.add_argument(
        "--server",
        default="127.0.0.1:8080",
        help="target host:port (default 127.0.0.1:8080)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="replay length in seconds (default 10)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="request-mix seed (default 0)"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="concurrent client connections (default 4)",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in req/s (default: closed loop)",
    )
    p.add_argument(
        "--mix",
        action="append",
        metavar="ENDPOINT=WEIGHT",
        help="endpoint weight, repeatable (default estimate=0.85 "
        "partition=0.07 simulate=0.04 explore=0.04)",
    )
    p.add_argument(
        "--tenants",
        type=int,
        default=4,
        help="distinct X-Slif-Tenant values to spread across (default 4)",
    )
    p.add_argument(
        "--spec",
        action="append",
        help="spec to request, repeatable (default: the bundled benchmarks)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request timeout in seconds (default 30)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    _add_obs_args(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "serve", help="run the long-running HTTP estimation service"
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (default 8080; 0 picks an ephemeral port)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="default worker processes for heavy requests that do not "
        "set their own jobs field (0 = all cores)",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=32,
        metavar="N",
        help="parsed+annotated sessions kept in the LRU graph cache "
        "(0 disables caching: every request parses from scratch)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="concurrent heavy requests (partition/simulate/explore) "
        "before the server answers 429 with Retry-After",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds to wait for in-flight requests after SIGTERM",
    )
    p.add_argument(
        "--fleet-heartbeat",
        type=float,
        default=1.0,
        metavar="S",
        help="fleet worker heartbeat interval in seconds; a worker "
        "silent for 4x this is declared dead and its chunks requeued",
    )
    p.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="enable the durable async-job API, persisting jobs and "
        "their chunk journals under DIR; a restarted server on the "
        "same DIR recovers and resumes every unfinished job",
    )
    p.add_argument(
        "--job-workers",
        type=int,
        default=None,
        metavar="N",
        help="background job worker threads (default: --max-inflight); "
        "workers share the heavy-request slots with synchronous traffic",
    )
    p.add_argument(
        "--tenant-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="per-tenant token-bucket refill rate in heavy requests "
        "per second (0 = unlimited, the default)",
    )
    p.add_argument(
        "--tenant-burst",
        type=float,
        default=8.0,
        metavar="B",
        help="per-tenant token-bucket capacity (burst size)",
    )
    p.add_argument(
        "--tenant-weight",
        action="append",
        metavar="NAME=W",
        help="weighted-fair scheduling weight for a tenant's jobs "
        "(repeatable; unlisted tenants weigh 1)",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="log one line per request to stderr",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "jobs",
        help="submit and track durable jobs on a slif serve --state-dir",
    )
    jobs_sub = p.add_subparsers(dest="jobs_command", required=True)

    q = jobs_sub.add_parser(
        "submit", help="submit a heavy request as a durable job"
    )
    q.add_argument(
        "server", help="the server's host:port or URL (slif serve)"
    )
    q.add_argument("spec")
    q.add_argument(
        "--kind",
        choices=["explore", "partition", "simulate"],
        default="explore",
        help="which heavy request the job wraps (default explore)",
    )
    q.add_argument(
        "--tenant",
        default=None,
        help="tenant name sent as X-Slif-Tenant (default: the "
        "server-side default tenant)",
    )
    q.add_argument(
        "--steps",
        dest="constraint_steps",
        metavar="STEPS",
        type=int,
        default=8,
        help="explore: constraint steps",
    )
    q.add_argument(
        "--random-starts",
        type=int,
        default=5,
        help="explore: random starts per step",
    )
    q.add_argument("--seed", type=int, default=0)
    q.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes on the server (default: its --jobs)",
    )
    q.add_argument(
        "--algorithm", default="greedy", help="partition: the algorithm"
    )
    q.add_argument(
        "--iterations", type=int, default=10, help="simulate: iterations"
    )
    q.add_argument(
        "--mode",
        choices=["avg", "min", "max"],
        default="avg",
        help="simulate: frequency mode",
    )
    q.set_defaults(func=cmd_jobs_submit)

    q = jobs_sub.add_parser("status", help="print one job's JSON status")
    q.add_argument("server")
    q.add_argument("job_id")
    q.set_defaults(func=cmd_jobs_status)

    q = jobs_sub.add_parser(
        "wait",
        help="poll until a job ends; print its result text on success",
    )
    q.add_argument("server")
    q.add_argument("job_id")
    q.add_argument(
        "--poll",
        type=float,
        default=0.3,
        metavar="S",
        help="seconds between polls",
    )
    q.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="give up (exit 2) after this many seconds",
    )
    q.set_defaults(func=cmd_jobs_wait)

    p = sub.add_parser(
        "work",
        help="run a fleet worker daemon against a slif serve coordinator",
    )
    p.add_argument(
        "--coordinator",
        required=True,
        metavar="COORD",
        help="the coordinator's host:port or URL (a running `slif serve`)",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address of the worker's status listener",
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="status-listener TCP port (default 0: pick an ephemeral "
        "port and print it to stdout)",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=0.05,
        metavar="S",
        help="idle wait between empty work pulls",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=4,
        metavar="N",
        help="warm chunk runners kept, one per distinct sweep payload",
    )
    p.add_argument(
        "--worker-id",
        default=None,
        help="stable worker name (default: coordinator-assigned)",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="log worker activity to stderr",
    )
    p.set_defaults(func=cmd_work)

    p = sub.add_parser("stats", help="structural counts + format comparison")
    p.add_argument("spec")
    p.add_argument("--granularity", **granularity_kwargs)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "breakdown", help="show where a behavior's execution time goes"
    )
    p.add_argument("spec")
    p.add_argument("behavior", nargs="?", help="one behavior (default: every process)")
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser(
        "transform", help="coarsen the graph by inlining single-caller procedures"
    )
    p.add_argument("spec")
    p.add_argument("-o", "--output", help="write the transformed graph as JSON")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("check", help="validate a built graph")
    p.add_argument("spec")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dot", help="emit Graphviz DOT")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.add_argument("--plain", action="store_true", help="omit edge labels")
    p.add_argument("--granularity", **granularity_kwargs)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser(
        "obs", help="analyze --trace-out JSONL exports offline"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "waterfall", help="per-trace span trees with timeline bars"
    )
    q.add_argument("trace", help="a --trace-out JSONL file")
    q.add_argument(
        "--trace-id",
        metavar="ID",
        help="show only this trace (a unique prefix is enough)",
    )
    q.add_argument(
        "--width",
        type=int,
        default=32,
        metavar="N",
        help="timeline bar width in characters (default 32)",
    )
    q.set_defaults(func=cmd_obs_waterfall)

    q = obs_sub.add_parser("slow", help="the top-N slowest spans")
    q.add_argument("trace", help="a --trace-out JSONL file")
    q.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="how many spans to show (default 10)",
    )
    q.set_defaults(func=cmd_obs_slow)

    q = obs_sub.add_parser(
        "diff", help="counter/histogram deltas between two exports"
    )
    q.add_argument("trace_a", help="the baseline --trace-out JSONL file")
    q.add_argument("trace_b", help="the comparison --trace-out JSONL file")
    q.set_defaults(func=cmd_obs_diff)

    return parser


def _emit_obs(args: argparse.Namespace) -> None:
    """Honour --stats / --trace-out for the subcommands that carry them."""
    if getattr(args, "stats", False):
        print(obs.render_summary(), file=sys.stderr)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        try:
            lines = obs.write_jsonl(trace_out)
        except OSError as exc:
            raise SlifError(f"cannot write trace to {trace_out}: {exc}") from exc
        print(f"-- wrote {lines} trace lines to {trace_out}", file=sys.stderr)


#: Exit-code contract (documented in ``docs/cli.md``): expected
#: failures — bad input, validation, estimation, partition errors —
#: exit 2; SIGINT exits 130.  Unexpected exceptions stay loud
#: (traceback, exit 1): those are bugs, not user errors.
EXIT_ERROR = 2
EXIT_INTERRUPTED = 130


def main(argv: Optional[list] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    # One command = one instrumentation session: collection is on for
    # every subcommand (that is where the consistent stderr timing lines
    # come from); --stats / --trace-out only control what gets surfaced.
    obs.reset()
    obs.enable()
    try:
        code = args.func(args)
        _emit_obs(args)
        return code
    except SlifError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the stdout consumer (e.g. `slif obs ... | head`) went away;
        # silence the interpreter's shutdown flush and exit cleanly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        # e.g. an unreadable spec file or unwritable output path: an
        # expected failure, not a bug — no raw traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        # run_plan has already terminated its local workers and flushed
        # any checkpoint journal by the time the interrupt reaches here
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        obs.disable()


if __name__ == "__main__":
    sys.exit(main())
