"""Replay-harness baseline: the serving layer under its standing load.

Every earlier serving benchmark hand-rolled its own request loop; this
one drives the actual ``slif replay`` harness against an in-process
server, so the numbers recorded here are produced by the same code
path operators run from the CLI.  Two baselines:

* closed-loop capacity on the bundled-benchmark mix — the sustained
  req/s at fixed concurrency, with tail latency from the merged
  log-scale histograms;
* synthetic-spec scale — ``slif gen`` output at 10k behaviors flowing
  through the front-end registry into a served estimate, recording
  generate / first-build / warm-request wall times.
"""

import http.client
import json
import threading
import time

from conftest import report
from repro.serve.app import ServerConfig, SlifServer
from repro.synth.gen import GenConfig, generate_text
from repro.synth.replay import ReplayConfig, run_replay

DURATION = 4.0
WORKERS = 4
GEN_BEHAVIORS = 10_000


def start_server():
    server = SlifServer(ServerConfig(port=0, cache_size=32))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def test_replay_closed_loop_baseline(benchmark):
    """Closed-loop replay of the default mix: the capacity baseline."""
    server, thread = start_server()
    try:
        result = run_replay(
            ReplayConfig(
                server=f"{server.host}:{server.port}",
                duration=DURATION,
                seed=0,
                workers=WORKERS,
            )
        )
    finally:
        server.shutdown()
        thread.join(timeout=10)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["throughput_rps"] = result.throughput
    benchmark.extra_info["requests"] = result.requests
    benchmark.extra_info["p50_ms"] = result.latency.get("p50", 0) * 1e3
    benchmark.extra_info["p95_ms"] = result.latency.get("p95", 0) * 1e3
    benchmark.extra_info["p99_ms"] = result.latency.get("p99", 0) * 1e3
    benchmark.extra_info["throttled"] = result.throttled
    report(
        [
            f"replay closed-loop / default mix, {WORKERS} workers: "
            f"{result.throughput:.0f} req/s over {result.duration:.1f}s "
            f"({result.requests} requests, {result.throttled} throttled)",
            "latency p50 {p50:.1f} ms  p95 {p95:.1f} ms  p99 {p99:.1f} ms"
            .format(
                p50=result.latency["p50"] * 1e3,
                p95=result.latency["p95"] * 1e3,
                p99=result.latency["p99"] * 1e3,
            ),
        ]
    )
    assert result.requests > 0 and result.throughput > 0
    # 429s are backpressure working as designed; anything else is not
    assert result.errors == 0, result.statuses


def test_replay_generated_spec_scale(benchmark):
    """A 10k-behavior generated spec served through the registry."""
    t0 = time.perf_counter()
    text = generate_text(GenConfig(behaviors=GEN_BEHAVIORS, seed=1))
    gen_seconds = time.perf_counter() - t0

    server, thread = start_server()
    try:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=300)
        try:
            body = json.dumps({"spec": text})

            def estimate_once():
                conn.request(
                    "POST", "/v1/estimate", body,
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = response.read()
                assert response.status == 200, payload[:200]

            t0 = time.perf_counter()
            estimate_once()  # cold: build + annotate + estimate
            cold_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            estimate_once()  # warm: cached session
            warm_seconds = time.perf_counter() - t0
        finally:
            conn.close()
    finally:
        server.shutdown()
        thread.join(timeout=10)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["gen_seconds"] = gen_seconds
    benchmark.extra_info["cold_seconds"] = cold_seconds
    benchmark.extra_info["warm_seconds"] = warm_seconds
    report(
        [
            f"generated spec scale / {GEN_BEHAVIORS} behaviors "
            f"({len(text)} bytes): gen {gen_seconds:.2f}s, served cold "
            f"estimate {cold_seconds:.2f}s, warm {warm_seconds * 1e3:.1f} ms",
        ]
    )
    assert warm_seconds < cold_seconds
