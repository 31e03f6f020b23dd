"""End-to-end tests for the ``slif serve`` HTTP layer.

A real :class:`~repro.serve.app.SlifServer` is bound to an ephemeral
port and driven over sockets; responses must be byte-identical to
calling the :mod:`repro.api` facade directly in-process.
"""

import http.client
import json
import os
import random
import sys
import threading
import time

import pytest

from repro import api
from repro.api.types import canonical_json
from repro.serve.app import ServerConfig, SlifServer
from repro.synth.gen import GenConfig, generate_text

from _helpers import same_length_variant

#: every (mode, concurrent) pair, the six answers one session can give
PAIRS = [(m, c) for m in ("avg", "min", "max") for c in (False, True)]


def http_request(server, method, path, body=None, attempts=3):
    """One HTTP round-trip; returns ``(status, headers, raw_body)``.

    Retries transient connection resets (burst connects can outrun the
    accept loop) — never retries a request the server answered.
    """
    payload = None
    headers = {}
    if body is not None:
        payload = (
            body if isinstance(body, bytes)
            else canonical_json(body).encode("utf-8")
        )
        headers["Content-Type"] = "application/json"
    for attempt in range(attempts):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return (
                response.status, dict(response.getheaders()), response.read()
            )
        except (ConnectionResetError, ConnectionRefusedError):
            if attempt == attempts - 1:
                raise
            time.sleep(0.05 * (attempt + 1))
        finally:
            conn.close()


def start_server(config):
    server = SlifServer(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture(scope="module")
def server():
    srv, thread = start_server(
        ServerConfig(port=0, cache_size=8, max_inflight=4)
    )
    yield srv
    srv.shutdown()
    thread.join(timeout=10)


class TestBasics:
    def test_healthz(self, server):
        status, headers, body = http_request(server, "GET", "/v1/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_stats_shape(self, server):
        status, _, body = http_request(server, "GET", "/v1/stats")
        assert status == 200
        stats = json.loads(body)
        for key in ("cache", "batch", "inflight", "max_inflight", "requests"):
            assert key in stats
        assert stats["max_inflight"] == 4

    def test_unknown_path_404(self, server):
        status, _, body = http_request(server, "GET", "/nope")
        assert status == 404
        assert "unknown path" in json.loads(body)["error"]

    def test_wrong_method_405(self, server):
        status, headers, _ = http_request(server, "GET", "/v1/estimate")
        assert status == 405
        assert "POST" in headers["Allow"]

    def test_invalid_json_400(self, server):
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_unknown_field_400(self, server):
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "vol", "bogus": 1}
        )
        assert status == 400
        assert "does not accept" in json.loads(body)["error"]

    def test_unknown_spec_400(self, server):
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "not-a-benchmark"}
        )
        assert status == 400
        assert "neither a bundled benchmark" in json.loads(body)["error"]


class TestEstimate:
    def test_response_is_byte_identical_to_facade(self, server):
        expected = canonical_json(api.estimate("vol").to_dict()).encode("utf-8")
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "vol"}
        )
        assert status == 200
        assert body == expected

    def test_cache_hit_counters_grow(self, server):
        before = json.loads(
            http_request(server, "GET", "/v1/stats")[2]
        )["cache"]
        for _ in range(3):
            status, _, _ = http_request(
                server, "POST", "/v1/estimate", body={"spec": "fuzzy"}
            )
            assert status == 200
        after = json.loads(
            http_request(server, "GET", "/v1/stats")[2]
        )["cache"]
        # first fuzzy request was at most a miss; the rest must hit
        assert after["hits"] >= before["hits"] + 2
        assert after["misses"] <= before["misses"] + 1

    def test_mode_flag_respected(self, server):
        _, _, avg_body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "vol", "mode": "avg"}
        )
        _, _, max_body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "vol", "mode": "max"}
        )
        avg = json.loads(avg_body)
        max_ = json.loads(max_body)
        assert max_["system_time"] >= avg["system_time"]
        expected = canonical_json(
            api.estimate({"spec": "vol", "mode": "max"}).to_dict()
        ).encode("utf-8")
        assert max_body == expected


class TestHeavyEndpoints:
    def test_partition_matches_facade(self, server):
        request = api.PartitionRequest(spec="vol", algorithm="greedy", seed=0)
        expected = canonical_json(api.partition(request).to_dict()).encode()
        status, _, body = http_request(
            server, "POST", "/v1/partition",
            body={"spec": "vol", "algorithm": "greedy", "seed": 0, "jobs": 1},
        )
        assert status == 200
        assert body == expected

    def test_simulate_matches_facade(self, server):
        request = api.SimulateRequest(spec="vol", seed=0, iterations=2)
        expected = canonical_json(api.simulate(request).to_dict()).encode()
        status, _, body = http_request(
            server, "POST", "/v1/simulate",
            body={"spec": "vol", "seed": 0, "iterations": 2},
        )
        assert status == 200
        assert body == expected

    def test_explore_matches_facade(self, server):
        request = api.ExploreRequest(
            spec="vol", constraint_steps=2, random_starts=1, seed=0, jobs=1
        )
        expected = canonical_json(api.explore(request).to_dict()).encode()
        status, _, body = http_request(
            server, "POST", "/v1/explore",
            body={
                "spec": "vol", "constraint_steps": 2, "random_starts": 1,
                "seed": 0, "jobs": 1,
            },
        )
        assert status == 200
        assert body == expected


class TestBackpressure:
    def test_max_inflight_returns_429(self, monkeypatch):
        srv, thread = start_server(
            ServerConfig(port=0, cache_size=4, max_inflight=1)
        )
        started = threading.Event()
        release = threading.Event()

        class _StubResult:
            def to_dict(self):
                return {"stub": True}

        def blocking_explore(request, session=None, **kwargs):
            started.set()
            assert release.wait(30), "test never released the stub"
            return _StubResult()

        monkeypatch.setattr(api, "explore", blocking_explore)
        try:
            outcome = {}

            def first():
                outcome["first"] = http_request(
                    srv, "POST", "/v1/explore", body={"spec": "vol"}
                )

            blocker = threading.Thread(target=first)
            blocker.start()
            assert started.wait(30), "first heavy request never started"
            # the only slot is taken: next heavy request is rejected
            status, headers, body = http_request(
                srv, "POST", "/v1/explore", body={"spec": "vol"}
            )
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert "in flight" in json.loads(body)["error"]
            # but the hot path is unaffected by heavy backpressure
            est_status, _, _ = http_request(
                srv, "POST", "/v1/estimate", body={"spec": "vol"}
            )
            assert est_status == 200
            release.set()
            blocker.join(timeout=30)
            assert outcome["first"][0] == 200
            assert json.loads(outcome["first"][2]) == {"stub": True}
        finally:
            release.set()
            srv.shutdown()
            thread.join(timeout=10)


class TestDrain:
    def test_draining_rejects_new_work_but_keeps_stats(self):
        srv = SlifServer(ServerConfig(port=0))
        try:
            srv.draining = True
            status, payload, headers = srv.handle_request(
                "GET", "/v1/healthz", b""
            )
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert "draining" in payload["error"]
            status, _, _ = srv.handle_request(
                "POST", "/v1/estimate", b'{"spec": "vol"}'
            )
            assert status == 503
            status, stats, _ = srv.handle_request("GET", "/v1/stats", b"")
            assert status == 200
            assert stats["draining"] is True
        finally:
            srv.close()

    def test_shutdown_drains_inflight(self):
        srv, thread = start_server(ServerConfig(port=0))
        assert http_request(srv, "GET", "/v1/healthz")[0] == 200
        srv.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert srv.wait_drained(timeout=1)


class TestConcurrentStress:
    """Acceptance criterion: N threads x M requests, byte-identical."""

    THREADS = 16
    REQUESTS_PER_THREAD = 4

    def test_16_threads_byte_identical_responses(self, server):
        cases = [
            {"spec": "vol"},
            {"spec": "fuzzy"},
            {"spec": "vol", "mode": "max"},
            {"spec": "ans", "concurrent": True},
        ]
        expected = {
            canonical_json(case): canonical_json(
                api.estimate(api.EstimateRequest.from_dict(dict(case))).to_dict()
            ).encode("utf-8")
            for case in cases
        }
        failures = []
        barrier = threading.Barrier(self.THREADS)

        def worker(worker_id):
            barrier.wait()
            for i in range(self.REQUESTS_PER_THREAD):
                case = cases[(worker_id + i) % len(cases)]
                try:
                    status, _, body = http_request(
                        server, "POST", "/v1/estimate", body=case
                    )
                except Exception as exc:  # noqa: BLE001 - recorded for asserts
                    failures.append((worker_id, i, "exception", repr(exc)))
                    continue
                if status != 200 or body != expected[canonical_json(case)]:
                    failures.append((worker_id, i, status, body[:200]))

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        stats = json.loads(http_request(server, "GET", "/v1/stats")[2])
        # the stress shared sessions: far fewer builds than requests
        assert stats["cache"]["misses"] <= len(cases) + 4
        assert stats["cache"]["hits"] + stats["batch"]["coalesced"] > 0


def gen_file(path, seed):
    """Write a small ``slif gen`` spec to ``path``; returns the path."""
    path.write_text(generate_text(GenConfig(behaviors=30, seed=seed)))
    return str(path)


def direct(spec, mode="avg", concurrent=False):
    """The body ``/v1/estimate`` must send: in-process ``api.estimate``."""
    request = {"spec": spec, "mode": mode, "concurrent": concurrent}
    return canonical_json(api.estimate(request).to_dict()).encode("utf-8")


def estimate_body(spec, mode, concurrent):
    return json.dumps(
        {"spec": spec, "mode": mode, "concurrent": concurrent}
    ).encode()


@pytest.fixture()
def computes(monkeypatch):
    """Count the server's ``api.estimate_many`` calls."""
    calls = []
    original = api.estimate_many

    def counting(requests, **kwargs):
        calls.append(len(requests))
        return original(requests, **kwargs)

    monkeypatch.setattr(api, "estimate_many", counting)
    return calls


class TestAnswerMemo:
    """Repeated estimates are answered from memory, never stale."""

    def test_rewritten_file_is_answered_for_its_new_content(
        self, server, tmp_path
    ):
        path = tmp_path / "gen.json"
        for seed in (7, 8):
            spec = gen_file(path, seed)
            expected = direct(spec)
            for _ in range(2):  # computed, then from memory
                status, headers, body = http_request(
                    server, "POST", "/v1/estimate", body={"spec": spec}
                )
                assert status == 200
                assert headers["Content-Type"] == "application/json"
                assert body == expected

    def test_same_stem_and_length_files_get_their_own_answers(
        self, server, tmp_path
    ):
        text = generate_text(GenConfig(behaviors=30, seed=12))
        specs = []
        for folder, content in (("a", text), ("b", same_length_variant(text))):
            (tmp_path / folder).mkdir()
            path = tmp_path / folder / "spec.json"
            path.write_text(content)
            specs.append(str(path))
        expected = [direct(spec) for spec in specs]
        assert expected[0] != expected[1]
        for _ in range(2):  # computed, then from memory
            for spec, answer in zip(specs, expected):
                status, _, body = http_request(
                    server, "POST", "/v1/estimate", body={"spec": spec}
                )
                assert status == 200 and body == answer

    def test_each_answer_is_computed_once_per_session(
        self, tmp_path, computes
    ):
        spec = gen_file(tmp_path / "gen.json", 9)
        srv = SlifServer(ServerConfig(port=0))
        try:
            for _ in range(3):
                for mode, concurrent in PAIRS:
                    status, body, headers = srv.handle_request(
                        "POST", "/v1/estimate",
                        estimate_body(spec, mode, concurrent),
                    )
                    assert status == 200
                    assert headers == {"Content-Type": "application/json"}
                    assert body.encode() == direct(spec, mode, concurrent)
            _, stats, _ = srv.handle_request("GET", "/v1/stats", b"")
        finally:
            srv.close()
        assert computes == [1] * len(PAIRS)
        assert stats["answers"] == {"hits": 2 * len(PAIRS)}
        assert stats["batch"]["leaders"] == len(PAIRS)

    @pytest.mark.parametrize("file_first", [False, True])
    def test_a_file_named_like_a_benchmark_gets_its_own_answer(
        self, tmp_path, file_first
    ):
        from repro.specs import spec_source

        path = tmp_path / "vol.vhd"
        path.write_text(spec_source("vol"))
        specs = [str(path), "vol"] if file_first else ["vol", str(path)]
        expected = [direct(spec) for spec in specs]
        assert expected[0] != expected[1]
        srv = SlifServer(ServerConfig(port=0))
        try:
            for spec, answer in zip(specs, expected):
                status, body, _ = srv.handle_request(
                    "POST", "/v1/estimate", estimate_body(spec, "avg", False)
                )
                assert status == 200 and body.encode() == answer
        finally:
            srv.close()

    def test_a_late_miss_finds_the_answer_inside_the_flight(
        self, tmp_path, computes
    ):
        spec = gen_file(tmp_path / "gen.json", 11)
        body = estimate_body(spec, "max", True)
        srv = SlifServer(ServerConfig(port=0))
        try:
            assert srv.handle_request("POST", "/v1/estimate", body)[0] == 200
            session, _ = srv.cache.get(spec)

            class WrittenJustAfterLookup(dict):
                """The first lookup misses, as if it ran just before the
                flight that computed this answer wrote it."""

                missed = False

                def get(self, key, default=None):
                    if not self.missed:
                        self.missed = True
                        return default
                    return super().get(key, default)

            session.answers = WrittenJustAfterLookup(session.answers)
            status, answer, _ = srv.handle_request("POST", "/v1/estimate", body)
        finally:
            srv.close()
        assert status == 200 and session.answers.missed
        assert answer.encode() == direct(spec, "max", True)
        assert computes == [1]

    def test_cache_size_one_keeps_answers_and_aliases_bounded(
        self, tmp_path, computes
    ):
        path = tmp_path / "gen.json"
        srv = SlifServer(ServerConfig(port=0, cache_size=1))
        try:
            for seed in range(4):
                spec = gen_file(path, seed)
                for mode, concurrent in PAIRS + PAIRS:
                    status, _, _ = srv.handle_request(
                        "POST", "/v1/estimate",
                        estimate_body(spec, mode, concurrent),
                    )
                    assert status == 200
                session, hit = srv.cache.get(spec)
                assert hit
                assert sorted(session.answers) == sorted(PAIRS)
                # the evicted sessions' aliases went with them
                assert len(srv.cache._aliases) == 1
            assert srv.cache.stats()["evictions"] == 3
        finally:
            srv.close()
        assert len(computes) == 4 * len(PAIRS)

    def test_cold_cache_still_rebuilds_every_request(
        self, tmp_path, computes
    ):
        spec = gen_file(tmp_path / "gen.json", 10)
        srv = SlifServer(ServerConfig(port=0, cache_size=0))
        try:
            for _ in range(3):
                status, body, _ = srv.handle_request(
                    "POST", "/v1/estimate", estimate_body(spec, "avg", False)
                )
                assert status == 200 and body.encode() == direct(spec)
            stats = srv.stats()
        finally:
            srv.close()
        assert stats["cache"]["misses"] == 3
        assert stats["answers"] == {"hits": 0}
        assert len(computes) == 3

    def test_undecodable_spec_file_is_400(self, server, tmp_path):
        path = tmp_path / "blob.json"
        path.write_bytes(b'{"format": "slif-synth", "name": "\xff\xfe"}')
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body={"spec": str(path)}
        )
        assert status == 400
        assert str(path) in json.loads(body)["error"]


class TestAnswerMemoStress:
    """More threads than cores race two cold specs' six answers each."""

    #: fresh servers raced in turn: each cold start is a new chance for
    #: a request to miss the memo just before a flight writes it
    SERVERS = 8
    ROUNDS = 2

    def race(self, specs, cases, expected, computes):
        n_threads = 2 * (os.cpu_count() or 1) + 2
        barrier = threading.Barrier(n_threads)
        failures = []
        srv = SlifServer(ServerConfig(port=0))

        def worker(index):
            order = cases * self.ROUNDS
            random.Random(index).shuffle(order)
            barrier.wait(timeout=60)
            for case in order:
                status, body, _ = srv.handle_request(
                    "POST", "/v1/estimate", estimate_body(*case)
                )
                if status != 200 or body.encode() != expected[case]:
                    failures.append((index, case, status))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        del computes[:]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            srv.close()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(computes) == len(cases)
        stats = srv.stats()
        assert stats["cache"]["misses"] == len(specs)
        # every request was a memo hit, a flight leader or a follower
        answered = (stats["answers"]["hits"] + stats["batch"]["leaders"]
                    + stats["batch"]["coalesced"])
        assert answered == n_threads * len(cases) * self.ROUNDS

    def test_every_answer_computed_once_and_byte_identical(
        self, tmp_path, computes
    ):
        specs = [gen_file(tmp_path / f"gen{i}.json", 20 + i) for i in (0, 1)]
        cases = [(spec, m, c) for spec in specs for m, c in PAIRS]
        expected = {case: direct(*case) for case in cases}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.SERVERS):
                self.race(specs, cases, expected, computes)
        finally:
            sys.setswitchinterval(interval)
