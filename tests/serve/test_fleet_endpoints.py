"""The ``/v1/fleet/*`` surface of ``slif serve``.

Routing, method rules, drain behavior and the ``slif_fleet_*`` metric
families — driven through :meth:`SlifServer.handle_request` (the same
pure core the HTTP handler calls), with one real-socket round trip to
pin content negotiation.
"""

import json

import pytest

from repro.serve.app import ServerConfig, SlifServer


@pytest.fixture()
def server():
    srv = SlifServer(ServerConfig(port=0, cache_size=4))
    yield srv
    srv.close()


def post(server, op, data):
    return server.handle_request(
        "POST", f"/v1/fleet/{op}", json.dumps(data).encode("utf-8")
    )


class TestRouting:
    def test_register_heartbeat_status(self, server):
        status, payload, _ = post(server, "register", {"pid": 1, "host": "t"})
        assert status == 200
        worker_id = payload["worker_id"]
        status, payload, _ = post(server, "heartbeat", {"worker_id": worker_id})
        assert (status, payload) == (200, {"ok": True})
        # status answers GET as well as POST
        status, payload, _ = server.handle_request("GET", "/v1/fleet/status", b"")
        assert status == 200
        assert payload["workers_alive"] == 1

    def test_unknown_op_404(self, server):
        status, payload, _ = post(server, "explode", {})
        assert status == 404
        assert "unknown fleet op" in payload["error"]

    def test_non_status_op_rejects_get(self, server):
        status, payload, headers = server.handle_request(
            "GET", "/v1/fleet/pull", b""
        )
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_malformed_body_400(self, server):
        status, payload, _ = server.handle_request(
            "POST", "/v1/fleet/register", b"not json"
        )
        assert status == 400
        status, payload, _ = server.handle_request(
            "POST", "/v1/fleet/register", b"[1, 2]"
        )
        assert status == 400

    def test_protocol_error_400(self, server):
        status, payload, _ = post(server, "pull", {"worker_id": "ghost"})
        assert status == 400
        assert "unknown worker" in payload["error"]


class TestDrain:
    def test_fleet_status_survives_drain(self, server):
        server.draining = True
        status, _, _ = server.handle_request("GET", "/v1/fleet/status", b"")
        assert status == 200
        # but work-carrying fleet ops are refused like everything else
        status, _, _ = post(server, "register", {"pid": 1, "host": "t"})
        assert status == 503


class TestObservability:
    def test_stats_has_fleet_section(self, server):
        post(server, "register", {"pid": 1, "host": "t"})
        stats = server.stats()
        assert stats["fleet"]["workers_alive"] == 1
        assert stats["fleet"]["counters"]["fleet.workers.registered"] == 1

    def test_metrics_exposes_fleet_families(self, server):
        post(server, "register", {"pid": 1, "host": "t"})
        text = server.metrics_text()
        assert "# TYPE slif_fleet_workers_registered_total counter" in text
        assert "slif_fleet_workers_registered_total 1" in text
        assert "slif_fleet_workers_alive 1" in text

    def test_fleet_requests_use_the_fleet_red_label(self, server):
        server.handle_timed("GET", "/v1/fleet/status", b"")
        counters = server.red.snapshot()["counters"]
        assert counters["requests.fleet"] == 1
