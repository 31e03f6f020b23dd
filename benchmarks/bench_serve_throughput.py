"""Serving-layer throughput: the graph cache is the product.

The paper's pitch for specification-level estimation is that one
preprocessed access graph answers many what-if questions in O(graph)
time.  The ``slif serve`` daemon turns that into a service contract:
the first request for a spec pays the parse+annotate build (~100 ms),
and every later request finds the cached session by a hash of its spec
argument.  A session has only six estimate answers (three frequency
modes, with and without concurrency); the first request for each pays
the estimator pass, and every repeat is answered with the memoized
response body.  This bench measures end-to-end HTTP throughput against
a warm-cache server vs a cold server (``cache_size=0`` — every request
rebuilds, the behaviour a client would get from a naive stateless
wrapper) and asserts the cache buys at least the acceptance
criterion's 10x.

The requests are sequential and repeat one answer, so after the first
the warm server answers every one from memory, and the measurement
isolates the cache effect.

A second bench sends a burst of concurrent estimate requests, one per
(frequency mode, concurrent) combination, and checks that each client
gets exactly its own combination's answer.  Distinct combinations
never share an evaluation: each is answered from the memo (the primed
``avg`` one) or computes with one kernel-backed ``estimate_many`` call
on the cached session.
"""

import http.client
import json
import threading
import time

from conftest import report
from repro.serve.app import ServerConfig, SlifServer

SPEC = "fuzzy"
WARM_REQUESTS = 40
COLD_REQUESTS = 8
#: Acceptance criterion: warm-cache throughput >= 10x cold.
MIN_SPEEDUP = 10.0

BODY = b'{"spec": "%s"}' % SPEC.encode()


def start_server(cache_size):
    server = SlifServer(ServerConfig(port=0, cache_size=cache_size))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def one_request(conn):
    conn.request(
        "POST", "/v1/estimate", body=BODY,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    payload = response.read()
    assert response.status == 200, payload[:200]
    return payload


def timed_requests(server, count):
    """Time ``count`` sequential requests over one keep-alive connection."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        started = time.perf_counter()
        first = one_request(conn)
        for _ in range(count - 1):
            assert one_request(conn) == first  # determinism while we measure
        return time.perf_counter() - started
    finally:
        conn.close()


def test_warm_cache_at_least_10x_cold_throughput(benchmark):
    warm_server, warm_thread = start_server(cache_size=32)
    cold_server, cold_thread = start_server(cache_size=0)
    try:
        prime = http.client.HTTPConnection(
            warm_server.host, warm_server.port, timeout=60
        )
        try:
            one_request(prime)  # prime the cache outside the timed window
        finally:
            prime.close()
        warm_seconds = timed_requests(warm_server, WARM_REQUESTS)
        cold_seconds = timed_requests(cold_server, COLD_REQUESTS)
    finally:
        warm_server.shutdown()
        cold_server.shutdown()
        warm_thread.join(timeout=10)
        cold_thread.join(timeout=10)

    warm_rps = WARM_REQUESTS / warm_seconds
    cold_rps = COLD_REQUESTS / cold_seconds
    speedup = warm_rps / cold_rps if cold_rps > 0 else float("inf")

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["warm_rps"] = warm_rps
    benchmark.extra_info["cold_rps"] = cold_rps
    benchmark.extra_info["speedup"] = speedup
    report(
        [
            f"serve throughput / {SPEC}: warm cache {warm_rps:.0f} req/s "
            f"({WARM_REQUESTS} requests in {warm_seconds:.3f}s) vs "
            f"cold rebuild {cold_rps:.1f} req/s "
            f"({COLD_REQUESTS} requests in {cold_seconds:.3f}s)",
            f"graph cache speedup: {speedup:.1f}x "
            f"(acceptance: >= {MIN_SPEEDUP:g}x)",
        ]
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm cache should serve >= {MIN_SPEEDUP:g}x the cold throughput, "
        f"got {speedup:.1f}x ({warm_rps:.0f} vs {cold_rps:.1f} req/s)"
    )


def test_grouped_batching_one_kernel_sweep(benchmark):
    """A burst of mixed-mode requests, each answered for its own mode.

    Six concurrent clients ask for the same spec under every
    (mode, concurrent) combination.  Each distinct combination is its
    own flight in the server's batcher: it computes at once with one
    ``estimate_many`` kernel call and never waits for the others,
    unless its answer is already memoized (the priming request's).  The
    bench reports the burst latency and the leader, coalesced and
    answer-hit counters from ``/v1/stats``, and checks each client got
    exactly its own mode's answer.
    """
    server = SlifServer(ServerConfig(port=0, cache_size=32))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    combos = [
        (mode, concurrent)
        for mode in ("avg", "max", "min")
        for concurrent in (False, True)
    ]
    try:
        prime = http.client.HTTPConnection(
            server.host, server.port, timeout=60
        )
        try:
            one_request(prime)  # build + cache the graph, count a leader
            prime.request("GET", "/v1/stats")
            before = json.loads(prime.getresponse().read())
        finally:
            prime.close()

        results = {}

        def client(mode, concurrent):
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=60
            )
            try:
                body = json.dumps(
                    {"spec": SPEC, "mode": mode, "concurrent": concurrent}
                ).encode()
                conn.request(
                    "POST", "/v1/estimate", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = response.read()
                assert response.status == 200, payload[:200]
                results[(mode, concurrent)] = json.loads(payload)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, args=combo) for combo in combos
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        burst_seconds = time.perf_counter() - started

        stats = http.client.HTTPConnection(
            server.host, server.port, timeout=60
        )
        try:
            stats.request("GET", "/v1/stats")
            after = json.loads(stats.getresponse().read())
        finally:
            stats.close()
    finally:
        server.shutdown()
        thread.join(timeout=10)

    # Each client must get exactly what a direct library call for its
    # own (mode, concurrent) combination produces — batching and
    # coalescing may share work but never answers across keys.
    from repro import api

    assert len(results) == len(combos)
    for (mode, concurrent), payload in results.items():
        expected = api.estimate(
            {"spec": SPEC, "mode": mode, "concurrent": concurrent}
        ).to_dict()
        assert payload == expected, (mode, concurrent)
    leaders = after["batch"]["leaders"] - before["batch"]["leaders"]
    coalesced = after["batch"]["coalesced"] - before["batch"]["coalesced"]
    hits = after["answers"]["hits"] - before["answers"]["hits"]
    # every request led its own evaluation, shared one, or was answered
    # from the memo
    assert leaders + coalesced + hits == len(combos)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["burst_seconds"] = burst_seconds
    benchmark.extra_info["leaders"] = leaders
    benchmark.extra_info["coalesced"] = coalesced
    benchmark.extra_info["answer_hits"] = hits
    report(
        [
            f"grouped batching / {SPEC}: {len(combos)} concurrent "
            f"mixed-mode requests in {burst_seconds * 1e3:.1f} ms, "
            f"{leaders} evaluation(s) + {coalesced} coalesced "
            f"+ {hits} from memory",
        ]
    )
