"""Telemetry tests for the serving layer.

Trace-id propagation over HTTP, the per-endpoint RED registry, the
``/metrics`` Prometheus exposition, and span recording under the
``ThreadingHTTPServer``'s per-request threads.
"""

import http.client
import json
import threading
import time

import pytest

from repro import obs
from repro.serve.app import ServerConfig, SlifServer


def http_request(server, method, path, body=None, headers=None, attempts=3):
    """One HTTP round-trip; returns ``(status, headers, raw_body)``."""
    payload = None
    send_headers = dict(headers or {})
    if body is not None:
        payload = (
            body
            if isinstance(body, bytes)
            else json.dumps(body).encode("utf-8")
        )
        send_headers["Content-Type"] = "application/json"
    for attempt in range(attempts):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request(method, path, body=payload, headers=send_headers)
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


@pytest.fixture()
def server():
    srv = SlifServer(
        ServerConfig(port=0, cache_size=8, max_inflight=4)
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=10)


@pytest.fixture()
def collected():
    """Span/metric collection on for the test, reset around it."""
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.disable()


class TestTraceHeaders:
    def test_client_trace_id_is_echoed(self, server):
        status, headers, _ = http_request(
            server,
            "GET",
            "/v1/healthz",
            headers={"X-Slif-Trace-Id": "feedface01"},
        )
        assert status == 200
        assert headers["X-Slif-Trace-Id"] == "feedface01"

    def test_trace_id_is_minted_when_absent(self, server):
        _, first, _ = http_request(server, "GET", "/v1/healthz")
        _, second, _ = http_request(server, "GET", "/v1/healthz")
        assert first["X-Slif-Trace-Id"]
        assert first["X-Slif-Trace-Id"] != second["X-Slif-Trace-Id"]

    def test_spans_carry_the_request_trace_id(self, server, collected):
        http_request(
            server,
            "POST",
            "/v1/estimate",
            body={"spec": "fuzzy"},
            headers={"X-Slif-Trace-Id": "trace-est"},
        )
        spans = [
            s for s in obs.TRACER.spans() if s.name == "serve.request"
        ]
        assert spans
        assert all(s.trace_id == "trace-est" for s in spans)


class TestHealthzAndStats:
    def test_healthz_reports_version_uptime_pid(self, server):
        _, _, body = http_request(server, "GET", "/v1/healthz")
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["version"]
        assert payload["uptime_seconds"] >= 0
        assert isinstance(payload["pid"], int)

    def test_stats_has_endpoint_red_section(self, server):
        http_request(server, "POST", "/v1/estimate", body={"spec": "fuzzy"})
        _, _, body = http_request(server, "GET", "/v1/stats")
        stats = json.loads(body)
        endpoint = stats["endpoints"]["estimate"]
        assert endpoint["requests"] == 1
        assert endpoint["errors"] == 0
        assert endpoint["latency_seconds"]["count"] == 1
        assert "p99" in endpoint["latency_seconds"]

    def test_stats_counts_errors(self, server):
        http_request(server, "POST", "/v1/estimate", body=b"{not json")
        _, _, body = http_request(server, "GET", "/v1/stats")
        stats = json.loads(body)
        assert stats["endpoints"]["estimate"]["errors"] == 1

    def test_stats_includes_obs_snapshot_when_enabled(
        self, server, collected
    ):
        _, _, body = http_request(server, "GET", "/v1/stats")
        assert "obs" in json.loads(body)

    def test_stats_omits_obs_snapshot_when_disabled(self, server):
        _, _, body = http_request(server, "GET", "/v1/stats")
        assert "obs" not in json.loads(body)


class TestMetricsEndpoint:
    def test_exposition_is_well_formed(self, server):
        http_request(server, "POST", "/v1/estimate", body={"spec": "fuzzy"})
        status, headers, body = http_request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        lines = [l for l in text.splitlines() if l]
        assert lines, "exposition must not be empty"
        for line in lines:
            if line.startswith("#"):
                assert line.startswith("# TYPE "), line
            else:
                name, _, value = line.rpartition(" ")
                assert name, line
                float(value)   # every sample value parses as a number
        assert 'slif_http_requests_total{endpoint="estimate"} 1' in text
        assert 'slif_http_latency_seconds_count{endpoint="estimate"} 1' in text
        assert 'le="+Inf"' in text

    def test_metrics_totals_match_stats(self, server):
        http_request(server, "POST", "/v1/estimate", body={"spec": "fuzzy"})
        http_request(server, "POST", "/v1/estimate", body={"spec": "fuzzy"})
        _, _, stats_body = http_request(server, "GET", "/v1/stats")
        _, _, metrics_body = http_request(server, "GET", "/metrics")
        stats = json.loads(stats_body)
        expected = stats["endpoints"]["estimate"]["requests"]
        assert (
            f'slif_http_requests_total{{endpoint="estimate"}} {expected}'
            in metrics_body.decode("utf-8")
        )

    def test_metrics_answer_while_draining(self, server):
        server.draining = True
        try:
            status, _, _ = http_request(server, "GET", "/metrics")
            assert status == 200
            status, _, _ = http_request(server, "GET", "/v1/healthz")
            assert status == 503
        finally:
            server.draining = False

    def test_post_metrics_is_405(self, server):
        status, _, _ = http_request(server, "POST", "/metrics", body={})
        assert status == 405


class TestConcurrentSpans:
    N_THREADS = 8
    M_REQUESTS = 5

    def test_no_dropped_or_duplicated_spans(self, server, collected):
        """N threads x M requests: every request records exactly one
        root ``serve.request`` span with its own trace id."""
        errors = []

        def client(tag):
            try:
                for i in range(self.M_REQUESTS):
                    status, _, _ = http_request(
                        server,
                        "GET",
                        "/v1/healthz",
                        headers={"X-Slif-Trace-Id": f"t{tag}-{i}"},
                    )
                    assert status == 200
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(t,))
            for t in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = [
            s for s in obs.TRACER.spans() if s.name == "serve.request"
        ]
        total = self.N_THREADS * self.M_REQUESTS
        assert len(spans) == total                      # none dropped
        trace_ids = [s.trace_id for s in spans]
        assert len(set(trace_ids)) == total             # none duplicated
        assert set(trace_ids) == {
            f"t{t}-{i}"
            for t in range(self.N_THREADS)
            for i in range(self.M_REQUESTS)
        }
        # every request span is a root in its own handler thread
        assert all(s.parent_id is None for s in spans)
        assert obs.TRACER.dropped == 0


class TestDaemonSpans:
    def test_daemon_keeps_no_finished_spans(self, monkeypatch, capsys):
        """``slif serve`` runs with obs on for its whole life; nothing
        reads its finished spans, so it must not keep them.  Counters
        and span timing still work, and the bound comes back on exit."""
        from repro.cli import main

        answered = []

        def serve_a_few(self):
            for i in range(3):
                self._enter_request()
                status, _, _, tid = self.handle_timed(
                    "POST", "/v1/estimate", b'{"spec": "vol"}',
                    trace_id=f"daemon-{i}",
                )
                self._exit_request(status)
                answered.append((status, tid))

        monkeypatch.setattr(SlifServer, "serve_forever", serve_a_few)
        kept = obs.TRACER.max_spans
        try:
            assert main(["serve", "--port", "0"]) == 0
            retained = [s.name for s in obs.TRACER.spans()]
            counters = obs.snapshot()["counters"]
            dropped = obs.TRACER.dropped
        finally:
            obs.reset()
        assert answered == [(200, f"daemon-{i}") for i in range(3)]
        assert retained == []
        assert dropped >= 6  # serve.request + api.estimate_many, each
        assert counters["serve.requests"] == 3
        assert obs.TRACER.max_spans == kept
        assert "listening on" in capsys.readouterr().out
