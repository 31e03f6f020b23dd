"""The benchmark's five workloads, each driving the public surface.

Every input comes from the seed through :mod:`repro.synth.gen` (plus,
for ``serve-estimate-bundled``, the four bundled specs); the program
only ever sees the generated text or a file holding it.  The in-process
workloads run :mod:`repro.obs` the way ``slif`` does: reset and enabled
around every command, disabled after it.

``explore-gen1k-jobs1`` / ``explore-gen1k-jobs2``
    Repeated default ``api.explore`` sweeps (8 constraint steps, 5
    random starts, 49 candidates) of one warm session of a
    1,000-behavior spec.  Partition search and explore dispatch do
    nearly all the work; the front ends and serving sit idle.  Two
    workloads rather than one alternating, so each ``jobs`` value gets
    its own median and its own regression bound.
``open-gen10k``
    A cold ``api.load`` plus ``api.estimate`` of a 10,000-behavior
    spec (3 MB of text), then ``api.estimate_many`` over the six
    (mode, concurrent) pairs (the first call compiles the kernel) and
    one greedy ``api.partition``: parse, annotate, compile, the cold
    reference report and one long descent.
``serve-estimate-bundled`` / ``serve-estimate-gen1k``
    A ``slif serve --port 0`` subprocess with default flags, driven
    closed-loop by two connections from this process (CLI and IDE
    callers wait for each reply), estimate requests only, with the
    seeded mode/concurrent mix ``slif replay`` uses.  On the bundled
    specs HTTP framing and the batch window dominate; on a gen-1k spec
    sent by file path, per-request spec resolution does.

Every output is checked: fronts against a ``jobs=1`` reference, open
results against the first iteration, served payloads against
``api.estimate`` computed in this process.  A wrong output counts as a
failed operation.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import layers
from tracer import END, NAME, OP, PARENT, START, Recorder, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: the six (mode, concurrent) pairs estimate_many covers
PAIRS = [(m, c) for m in ("avg", "min", "max") for c in (False, True)]
#: ``slif replay``'s estimate mix: 3/5 avg, 1/5 min, 1/5 max; 1/4 concurrent
REPLAY_MODES = ("avg", "avg", "avg", "min", "max")
REPLAY_CONCURRENT = 0.25
BUNDLED = ("ans", "ether", "fuzzy", "vol")
CONNECTIONS = 2
#: served traffic runs in slices of this many seconds, with a quiet
#: calibration burst between slices
SLICE = 1.0

clock = time.perf_counter

# -- machine speed ------------------------------------------------------
#
# The benchmark runs on shared virtual machines whose speed drifts by up
# to 2x over seconds to minutes (a busy neighbour on the same core).
# Raw wall times of the same code then spread across runs by more than
# any useful regression bound.  So while a workload runs, a timer signal
# times a fixed pure-Python loop every PERIOD seconds, and every
# end-to-end time is scaled by CAL_REF / the median loop time measured
# during it: "seconds at the speed where the loop takes CAL_REF".  The
# raw wall times are printed beside them.  Work done in other processes
# (pool workers, the server) would slow a sampler running alongside it,
# so there the work pauses for a quiet calibration burst instead: after
# every operation, or every SLICE seconds of served traffic.

#: calibration loop time at the reference speed
CAL_REF = 0.25e-3
#: seconds between calibration samples
PERIOD = 0.05
#: a stretch shorter than this many samples is widened backwards
MIN_SAMPLES = 10
#: length of one quiet calibration burst
CAL_BURST = 0.15


def _calibration_loop() -> int:
    # dict updates, tuple keys, float arithmetic and a sort: the kind of
    # interpreter work the estimators and the search loop do
    table: Dict[tuple, float] = {}
    items = []
    for i in range(600):
        key = ("k", i % 257)
        table[key] = table.get(key, 0.0) + i * 0.5
        items.append((i * 7919) % 1009)
    items.sort()
    return len(table) + items[0]


class Speed:
    """Samples machine speed from SIGALRM while a workload runs.

    The handler runs in the main thread between bytecodes, so samples
    land inside the timed operations themselves; each takes about 1% of
    the time.
    """

    def __init__(self) -> None:
        #: (start, seconds) of every calibration loop run
        self.samples: List[Tuple[float, float]] = []
        self.factors: List[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = clock()
        _calibration_loop()
        self.samples.append((t0, clock() - t0))

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling (callers time :meth:`burst` themselves)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def burst(self) -> float:
        """Median loop time over :data:`CAL_BURST` seconds of nothing else."""
        times = []
        end = clock() + CAL_BURST
        while True:
            t0 = clock()
            _calibration_loop()
            t1 = clock()
            times.append(t1 - t0)
            if t1 >= end:
                return statistics.median(times)

    def between(self, before: float) -> Tuple[float, float]:
        """Burst again: ``(factor since the burst before, this burst)``."""
        after = self.burst()
        factor = CAL_REF / ((before + after) / 2)
        self.factors.append(factor)
        return factor, after

    def factor(self, start: float, end: float) -> float:
        """CAL_REF / median loop time over ``[start, end]``.

        Fewer than :data:`MIN_SAMPLES` inside the stretch widen it to
        the last ones taken before its end.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            before = [d for t, d in self.samples if t <= end]
            inside = before[-MIN_SAMPLES:] or [d for _, d in self.samples]
        if not inside:
            return 1.0
        factor = CAL_REF / statistics.median(inside)
        self.factors.append(factor)
        return factor


@dataclass
class Result:
    """What one run measured; end-to-end times are speed-normalized."""

    latencies: List[float] = field(default_factory=list)
    wall: List[float] = field(default_factory=list)
    #: normalized seconds the timed operations took
    elapsed: float = 0.0
    setups: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layer: Dict[str, float] = field(default_factory=dict)
    #: extra report rows: name -> (value, unit)
    notes: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def record(self, seconds: float, problem: Optional[str],
               timed: bool = True, scale: float = 1.0) -> None:
        """Count one operation; ``timed`` ones feed the end-to-end numbers."""
        self.attempted += 1
        if timed:
            self.latencies.append(seconds * scale)
            self.wall.append(seconds)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "latency_p50_ms": statistics.median(self.latencies) * 1e3,
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def wall_notes(self, speed: Speed) -> None:
        # a closed loop's throughput is its connections over its mean
        # latency; reported, not gated (it spreads about twice as wide)
        self.notes["throughput_per_s"] = (len(self.latencies) / self.elapsed, "1/s")
        self.notes["wall.latency_p50_ms"] = (statistics.median(self.wall) * 1e3, "ms")
        self.notes["speed.factor_p50"] = (statistics.median(speed.factors), "ratio")
        self.notes["wall.samples"] = (len(self.wall), "count")
        row = tail(self.wall)
        if row is not None:
            self.notes[f"wall.latency_p{row[0]}_ms"] = (row[1] * 1e3, "ms")


def timed_setups(result: Result, speed: Speed, setup: Callable[[], object],
                 elsewhere: bool = False):
    """Run ``setup`` :data:`SETUP_REPEATS` times; returns its last value.

    ``elsewhere`` as for :func:`_closed_loop`.
    """
    value = None
    with speed.paused() if elsewhere else contextlib.nullcontext():
        burst = speed.burst() if elsewhere else None
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            value = setup()
            t1 = clock()
            if elsewhere:
                scale, burst = speed.between(burst)
            else:
                scale = speed.factor(t0, t1)
            result.setups.append((t1 - t0) * scale)
    return value


def tail(samples: List[float]) -> Optional[Tuple[int, float]]:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99, 95, 90):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, ordered[int(len(ordered) * pct / 100)]
    return None


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# in-process workloads


@contextlib.contextmanager
def command(obs_on: bool = True):
    """One ``slif``-style command: obs reset and enabled, then disabled."""
    from repro import obs

    obs.reset()
    if obs_on:
        obs.enable()
    try:
        yield
    finally:
        obs.disable()


def _closed_loop(
    seconds: float,
    op: Callable[[bool], object],
    check: Callable[[object], Optional[str]],
    result: Result,
    trace: bool,
    speed: Speed,
    elsewhere: bool = False,
) -> None:
    """Run ``op`` back to back for ``seconds`` and check every output.

    ``elsewhere`` says the work runs in other processes, so speed comes
    from quiet bursts between operations rather than samples inside.

    With ``trace``, three kinds of operation take turns for twice as
    long: plain (obs on, as users run it), traced (the layer wrappers
    installed) and obs off.  Their medians give ``trace.overhead_ratio``
    and ``obs.overhead_ratio``; the traced ones give the per-layer
    numbers.
    """
    kinds = ("plain", "traced", "obs_off") if trace else ("plain",)
    samples: Dict[str, List[float]] = {kind: [] for kind in kinds}
    rec = Recorder()
    ops: List[str] = []
    budget = 2 * seconds if trace else seconds
    started = clock()
    turn = 0
    with speed.paused() if elsewhere else contextlib.nullcontext():
        burst = speed.burst() if elsewhere else None
        while True:
            kind = kinds[turn % len(kinds)]
            turn += 1
            root = None
            if kind == "traced":
                layers.install(rec)
                ops.append(f"op{turn}")
                root = rec.open("op", op=ops[-1])
            t0 = clock()
            try:
                value = op(kind != "obs_off")
                problem = None
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                value, problem = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if root is not None:
                rec.close(root)
                rec.uninstall()
            if problem is None:
                problem = check(value)
            if elsewhere:
                scale, burst = speed.between(burst)
            else:
                scale = speed.factor(t0, t1)
            samples[kind].append((t1 - t0) * scale)
            result.record(t1 - t0, problem, timed=kind == "plain", scale=scale)
            if turn % len(kinds) == 0 and clock() - started >= budget:
                break
    result.elapsed = sum(samples["plain"])
    result.wall_notes(speed)
    if not trace:
        return
    spans = rec.spans
    idx = layers.SpanIndex(spans, ops)
    result.layer = layers.layer_metrics(idx, rec.totals, len(ops))
    plain = statistics.median(samples["plain"])
    result.layer["trace.overhead_ratio"] = statistics.median(samples["traced"]) / plain
    result.layer["obs.overhead_ratio"] = plain / statistics.median(samples["obs_off"])
    result.layer["trace.coverage"] = layers.coverage(spans, "op")
    _write_spans(rec)


def _write_spans(rec: Recorder) -> None:
    OUT.mkdir(exist_ok=True)
    rec.write(str(OUT / f"spans-{os.getpid()}.jsonl"))


def explore(seed: int, seconds: float, trace: bool, speed: Speed,
            jobs: int) -> Result:
    from repro import api
    from repro.api.types import canonical_json
    from repro.synth.gen import GenConfig, generate_text

    text = generate_text(GenConfig(behaviors=1000, seed=seed))
    result = Result()

    def setup():
        session = api.load(text)
        session.kernel()
        return session

    session = timed_setups(result, speed, setup)

    def sweep(jobs_: int, obs_on: bool = True):
        with command(obs_on):
            return api.explore(
                api.ExploreRequest(spec=text, seed=seed, jobs=jobs_),
                session=session,
            )

    def front(res) -> Tuple[str, str]:
        return canonical_json(res.points), res.text

    reference = expected_front(front(sweep(1)))

    def check(res) -> Optional[str]:
        if front(res) != reference:
            return f"jobs={jobs} front differs from the jobs=1 reference"
        return None

    _closed_loop(seconds, lambda obs_on: sweep(jobs, obs_on), check,
                 result, trace, speed, elsewhere=jobs > 1)
    result.peak_rss_mb = _self_rss_mb()
    return result


def expected_front(front):
    """The reference front outputs are checked against (a test seam)."""
    return front


def open_gen10k(seed: int, seconds: float, trace: bool, speed: Speed) -> Result:
    from repro import api
    from repro.api.types import canonical_json
    from repro.synth.gen import GenConfig, generate_text

    text = generate_text(GenConfig(behaviors=10000, seed=seed))
    first = api.EstimateRequest(spec=text)
    many = [api.EstimateRequest(spec=text, mode=m, concurrent=c) for m, c in PAIRS]
    part = api.PartitionRequest(spec=text, algorithm="greedy", seed=seed)
    result = Result()

    def setup():
        with command():
            api.estimate(first, session=api.load(text))

    timed_setups(result, speed, setup)
    stages: Dict[str, List[float]] = {
        "open_s": [], "estimate_many_s": [], "partition_s": []
    }

    def iteration(obs_on: bool = True):
        t0 = clock()
        with command(obs_on):
            session = api.load(text)
            estimate = api.estimate(first, session=session)
        t1 = clock()
        with command(obs_on):
            estimates = api.estimate_many(many, session=session)
        t2 = clock()
        with command(obs_on):
            partition = api.partition(part, session=session)
        t3 = clock()
        stages["open_s"].append(t1 - t0)
        stages["estimate_many_s"].append(t2 - t1)
        stages["partition_s"].append(t3 - t2)
        return session.key, estimate, estimates, partition

    def encoded(outputs):
        key, estimate, estimates, partition = outputs
        return (
            key,
            canonical_json(estimate.to_dict()),
            [canonical_json(e.to_dict()) for e in estimates],
            canonical_json(partition.to_dict()),
        )

    reference = encoded(iteration())

    def check(outputs) -> Optional[str]:
        outputs = encoded(outputs)
        if outputs[2][0] != outputs[1]:
            return "estimate_many (avg, sequential) differs from api.estimate"
        for name, got, want in zip(
            ("session key", "estimate", "estimate_many", "partition"),
            outputs, reference,
        ):
            if got != want:
                return f"{name} differs from the first iteration"
        return None

    _closed_loop(seconds, iteration, check, result, trace, speed)
    for name, values in stages.items():
        result.notes[name] = (statistics.median(values[1:]), "s")
    result.peak_rss_mb = _self_rss_mb()
    return result


# ----------------------------------------------------------------------
# served workloads


class Server:
    """One ``slif serve --port 0`` subprocess, stopped on exit."""

    def __init__(self, argv: List[str], log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.host, self.port = self._address(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _address(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("slif serve did not report its address")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"slif serve exited with code {self.proc.wait()}"
                )
            line += chunk
        url = line.decode().strip().rsplit(" ", 1)[-1]
        host, _, port = url[len("http://"):].rpartition(":")
        return host, int(port)

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def call(self, method: str, path: str, body: Optional[bytes] = None,
             headers: Optional[dict] = None) -> Tuple[int, bytes]:
        conn = self.connection()
        try:
            conn.request(method, path, body, headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.call("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _estimate_body(spec: str, mode: str, concurrent: bool) -> bytes:
    return json.dumps(
        {"spec": spec, "mode": mode, "concurrent": concurrent}
    ).encode()


def expected_payloads(specs: List[str]) -> Dict[tuple, bytes]:
    """``api.estimate(...).to_dict()`` per (spec, mode, concurrent), encoded."""
    from repro import api
    from repro.api.types import canonical_json

    expected = {}
    for spec in specs:
        session = api.load(spec)
        for mode, concurrent in PAIRS:
            req = api.EstimateRequest(spec=spec, mode=mode, concurrent=concurrent)
            expected[(spec, mode, concurrent)] = canonical_json(
                api.estimate(req, session=session).to_dict()
            ).encode()
    return expected


def _start(argv: List[str], specs: List[str], expected, tag: str) -> Server:
    """Spawn a server, wait for health, warm every spec once."""
    server = Server(argv, OUT / f"serve-{os.getpid()}.log")
    try:
        status, _ = server.call("GET", "/v1/healthz")
        if status != 200:
            raise RuntimeError(f"/v1/healthz answered {status}")
        for spec in specs:
            status, body = server.call(
                "POST", "/v1/estimate", _estimate_body(spec, "avg", False),
                {"Content-Type": "application/json",
                 "X-Slif-Trace-Id": f"warm-{tag}"},
            )
            if status != 200 or body != expected[(spec, "avg", False)]:
                raise RuntimeError(f"warm-up estimate of {spec!r} failed ({status})")
    except BaseException:
        server.stop()
        raise
    return server


@dataclass
class Phase:
    """One served phase: ``(trace id, start, latency, problem, scale)`` rows."""

    rows: List[tuple]
    normalized_seconds: float

    def p50(self) -> float:
        return statistics.median(r[2] * r[4] for r in self.rows)


def _drive(server: Server, specs: List[str], expected, seed: int,
           seconds: float, prefix: str, speed: Speed) -> Phase:
    """Closed loop over :data:`CONNECTIONS` connections for ``seconds``.

    Traffic runs in :data:`SLICE`-second slices; a quiet calibration
    burst between slices sets the speed factor of the slice before it.
    """
    rngs = [random.Random(f"{seed}:{i}") for i in range(CONNECTIONS)]
    conns = [server.connection() for _ in range(CONNECTIONS)]
    sent = [0] * CONNECTIONS
    rows: List[tuple] = []

    def client(index: int, deadline: float, out: List[tuple]) -> None:
        rng = rngs[index]
        while clock() < deadline:
            spec = rng.choice(specs)
            mode = rng.choice(REPLAY_MODES)
            concurrent = rng.random() < REPLAY_CONCURRENT
            tid = f"{prefix}{index}-{sent[index]}"
            sent[index] += 1
            body = _estimate_body(spec, mode, concurrent)
            t0 = clock()
            try:
                conns[index].request("POST", "/v1/estimate", body, {
                    "Content-Type": "application/json",
                    "X-Slif-Trace-Id": tid,
                })
                response = conns[index].getresponse()
                payload = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                conns[index].close()
                conns[index] = server.connection()
                status, payload = None, repr(exc).encode()
            dt = clock() - t0
            if status != 200:
                problem = f"HTTP {status}: {payload[:200]!r}"
            elif payload != expected[(spec, mode, concurrent)]:
                problem = (f"payload for {(spec, mode, concurrent)} "
                           "differs from api.estimate")
            else:
                problem = None
            out.append((tid, t0, dt, problem))

    driven = normalized = 0.0
    try:
        with speed.paused():
            burst = speed.burst()
            while driven < seconds:
                outs: List[List[tuple]] = [[] for _ in range(CONNECTIONS)]
                started = clock()
                deadline = started + min(SLICE, seconds - driven)
                threads = [
                    threading.Thread(target=client, args=(i, deadline, outs[i]),
                                     name=f"perfbench-client-{i}")
                    for i in range(CONNECTIONS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                took = clock() - started
                scale, burst = speed.between(burst)
                driven += took
                normalized += took * scale
                rows.extend(row + (scale,) for out in outs for row in out)
    finally:
        for conn in conns:
            conn.close()
    return Phase(rows, normalized)


def _launcher(spans: Optional[Path], obs_on: bool) -> List[str]:
    argv = [str(HERE / "serve_launcher.py"), "--obs", "on" if obs_on else "off"]
    if spans is not None:
        argv += ["--spans", str(spans)]
    return argv + ["--", "serve", "--port", "0"]


PLAIN = ["-m", "repro.cli", "serve", "--port", "0"]


def serve(seed: int, seconds: float, trace: bool, speed: Speed,
          spec_kind: str) -> Result:
    from repro.synth.gen import GenConfig, generate_text

    OUT.mkdir(exist_ok=True)
    if spec_kind == "bundled":
        specs = list(BUNDLED)
    else:
        path = OUT / f"gen1k-{seed}-{os.getpid()}.json"
        path.write_text(generate_text(GenConfig(behaviors=1000, seed=seed)))
        specs = [str(path)]
    result = Result()
    try:
        expected = expected_served(expected_payloads(specs))
        servers: List[Server] = []
        try:
            timed_setups(result, speed, lambda: servers.append(
                _start(PLAIN, specs, expected, f"setup{len(servers)}")
            ), elsewhere=True)
        except BaseException:
            for server in servers:
                server.stop()
            raise
        for server in servers[:-1]:
            server.stop()
        server = servers[-1]
        try:
            before = server.stats()
            phase = _drive(server, specs, expected, seed, seconds, "m", speed)
            stats = _stats_deltas(before, server.stats())
            result.peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        if trace:
            _traced_serve(result, phase, seed, seconds, specs, expected, speed)
            result.layer.update(stats)
    finally:
        if spec_kind != "bundled":
            path.unlink()
    for _, _, dt, problem, scale in phase.rows:
        result.record(dt, problem, scale=scale)
    result.elapsed = phase.normalized_seconds
    result.wall_notes(speed)
    if not trace:
        for name, value in stats.items():
            unit = ("ms" if name.endswith("_ms")
                    else "ratio" if "ratio" in name else "count")
            result.notes[name] = (value, unit)
    return result


def expected_served(expected):
    """The served payloads requests are checked against (a test seam)."""
    return expected


def _stats_deltas(before: dict, after: dict) -> Dict[str, float]:
    """What the server's own /v1/stats counters say about one phase."""

    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    leaders, coalesced = delta("batch", "leaders"), delta("batch", "coalesced")
    red_after = after["endpoints"]["estimate"]["latency_seconds"]
    red_before = before["endpoints"]["estimate"]["latency_seconds"]
    count = red_after["count"] - red_before["count"]
    return {
        "serve.cache_hits": hits,
        "serve.cache_misses": misses,
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.batch_leaders": leaders,
        "serve.batch_coalesced": coalesced,
        "serve.batch_size": (leaders + coalesced) / leaders if leaders else 0.0,
        "serve.red_estimate_ms": (
            (red_after["sum"] - red_before["sum"]) / count * 1e3 if count else 0.0
        ),
    }


def _traced_serve(result: Result, plain: Phase, seed, seconds, specs,
                  expected, speed: Speed) -> None:
    """Traced phase, then an obs-off phase, each half as long as the
    plain one and on a fresh server."""
    spans_path = OUT / f"serve-spans-{os.getpid()}.jsonl"
    server = _start(_launcher(spans_path, True), specs, expected, "traced")
    try:
        traced = _drive(server, specs, expected, seed, seconds / 2, "t", speed)
    finally:
        server.stop()
    server = _start(_launcher(None, False), specs, expected, "obsoff")
    try:
        obs_off = _drive(server, specs, expected, seed, seconds / 2, "o", speed)
    finally:
        server.stop()
    for _, _, dt, problem, _ in traced.rows + obs_off.rows:
        result.record(dt, problem, timed=False)

    spans, totals = read_spans(str(spans_path))
    latency = {row[0]: row[2] for row in traced.rows}
    handles = {
        s[OP]: s for s in spans
        if s[NAME] == "serve.handle" and s[OP] in latency and s[END] is not None
    }
    n = len(handles)
    metrics = layers.layer_metrics(layers.SpanIndex(spans, handles), totals, n)
    metrics["serve.framing_ms"] = sum(
        latency[op] - (s[END] - s[START]) for op, s in handles.items()
    ) / n * 1e3
    first = min(s[START] for s in handles.values())
    last = max(s[END] for s in handles.values())
    encode = sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "serve.encode" and s[PARENT] is None and s[END] is not None
        and first <= s[START] <= last
    )
    metrics["serve.encode_ms"] = encode / n * 1e3
    metrics["trace.coverage"] = layers.coverage(spans, "serve.handle", handles)
    metrics["trace.overhead_ratio"] = traced.p50() / plain.p50()
    metrics["obs.overhead_ratio"] = plain.p50() / obs_off.p50()
    result.layer = metrics


# ----------------------------------------------------------------------

WORKLOADS: Dict[str, Callable[..., Result]] = {
    "explore-gen1k-jobs1": lambda *a: explore(*a, jobs=1),
    "explore-gen1k-jobs2": lambda *a: explore(*a, jobs=2),
    "open-gen10k": open_gen10k,
    "serve-estimate-bundled": lambda *a: serve(*a, spec_kind="bundled"),
    "serve-estimate-gen1k": lambda *a: serve(*a, spec_kind="gen1k"),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Run one workload with machine-speed sampling on."""
    with Speed() as speed:
        return WORKLOADS[name](seed, seconds, trace, speed)
