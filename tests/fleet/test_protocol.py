"""Wire-format round trips: what crosses the fleet HTTP boundary."""

import json

import pytest

from repro.errors import FleetError
from repro.explore.engine import RetryPolicy
from repro.explore.plan import CandidateSpec, Chunk
from repro.explore.worker import ChunkResult, PlanPayload
from repro.fleet.protocol import (
    FleetSpec,
    chunk_from_wire,
    chunk_to_wire,
    payload_fingerprint,
    payload_from_wire,
    payload_to_wire,
    policy_from_wire,
    policy_to_wire,
    result_from_wire,
    result_to_wire,
)


def make_payload(**overrides):
    fields = dict(
        task="pareto",
        slif_data={"name": "demo", "nodes": [1, 2]},
        partition_data={"mapping": {"a": "CPU"}},
        hardware=("ASIC",),
        weights=None,
        time_constraint=1.5,
    )
    fields.update(overrides)
    return PlanPayload(**fields)


def make_chunk(index=3):
    return Chunk(
        index=index,
        candidates=(
            CandidateSpec(
                index=7,
                kind="greedy",
                label="greedy t=0.5",
                algorithm="greedy",
                seed=None,
                constraints=(("CPU", 0.5),),
                params={"threshold": 0.5},
            ),
            CandidateSpec(
                index=8,
                kind="random",
                label="random 1",
                algorithm="random",
                seed=42,
                constraints=(),
                params={},
            ),
        ),
    )


class TestPayload:
    def test_round_trip(self):
        payload = make_payload()
        wire = json.loads(json.dumps(payload_to_wire(payload)))
        back = payload_from_wire(wire)
        assert back.task == payload.task
        assert back.slif_data == payload.slif_data
        assert back.partition_data == payload.partition_data
        assert back.hardware == payload.hardware
        assert back.weights is None
        assert back.time_constraint == payload.time_constraint

    def test_weights_round_trip(self):
        from repro.partition.cost import CostWeights

        payload = make_payload(weights=CostWeights())
        back = payload_from_wire(payload_to_wire(payload))
        assert back.weights == CostWeights()

    def test_fingerprint_is_stable_and_discriminating(self):
        a = payload_fingerprint(payload_to_wire(make_payload()))
        b = payload_fingerprint(payload_to_wire(make_payload()))
        c = payload_fingerprint(
            payload_to_wire(make_payload(time_constraint=2.0))
        )
        assert a == b
        assert a != c
        # survives a JSON round trip: the coordinator and the worker
        # compute identical keys from what they each hold
        wire = json.loads(json.dumps(payload_to_wire(make_payload())))
        assert payload_fingerprint(wire) == a


class TestChunk:
    def test_round_trip(self):
        chunk = make_chunk()
        back = chunk_from_wire(json.loads(json.dumps(chunk_to_wire(chunk))))
        assert back == chunk

    def test_constraint_pairs_come_back_as_tuples(self):
        back = chunk_from_wire(chunk_to_wire(make_chunk()))
        assert back.candidates[0].constraints == (("CPU", 0.5),)
        assert isinstance(back.candidates[0].constraints[0], tuple)


class TestResult:
    def test_round_trip_with_telemetry(self):
        result = ChunkResult(
            chunk_index=2,
            candidates=5,
            seconds=0.25,
            front_points=[],
            local_discards=3,
            outcomes=[],
            best_index=None,
            best_mapping=None,
            best_history=None,
            worker_pid=4242,
            obs={"registry": {"counters": {}}, "spans": [], "dropped": 0},
        )
        wire = json.loads(json.dumps(result_to_wire(result)))
        back = result_from_wire(wire)
        assert back.chunk_index == 2
        assert back.candidates == 5
        assert back.worker_pid == 4242
        assert back.obs == result.obs

    def test_omits_absent_telemetry(self):
        result = ChunkResult(
            chunk_index=0,
            candidates=1,
            seconds=0.0,
            front_points=[],
            local_discards=0,
            outcomes=[],
            best_index=None,
            best_mapping=None,
            best_history=None,
        )
        wire = result_to_wire(result)
        assert "worker_pid" not in wire
        assert "obs" not in wire
        back = result_from_wire(wire)
        assert back.worker_pid is None
        assert back.obs is None


class TestPolicy:
    def test_round_trip(self):
        policy = RetryPolicy(timeout=2.5, retries=4, seed=7)
        back = policy_from_wire(json.loads(json.dumps(policy_to_wire(policy))))
        assert back == policy
        # seeded backoff schedule survives the wire: coordinator-side
        # requeue pacing matches what the client would have used
        assert back.delay(3, 1) == policy.delay(3, 1)

    def test_missing_policy_defaults(self):
        assert policy_from_wire(None) == RetryPolicy()
        assert policy_from_wire({}) == RetryPolicy()

    def test_malformed_policy_raises(self):
        with pytest.raises(FleetError):
            policy_from_wire({"no_such_field": 1})

    def test_wire_form_is_the_request_fields(self):
        policy = RetryPolicy(timeout=1.5, retries=3, seed=4)
        assert policy_to_wire(policy) == {"timeout": 1.5, "retries": 3, "seed": 4}

    def test_old_seven_field_form_is_malformed(self):
        old = {"timeout": None, "retries": 2, "backoff": 0.05,
               "backoff_factor": 2.0, "max_delay": 5.0, "jitter": 0.25,
               "seed": 0}
        with pytest.raises(FleetError, match="malformed retry policy"):
            policy_from_wire(old)


class TestFleetSpec:
    def test_coerce_host_port(self):
        spec = FleetSpec.coerce("127.0.0.1:8123", session_key="k")
        assert spec.url == "http://127.0.0.1:8123"
        assert spec.session_key == "k"

    def test_coerce_full_url(self):
        assert FleetSpec.coerce("https://fleet/").url == "https://fleet"

    def test_coerce_passes_spec_through(self):
        spec = FleetSpec(url="http://x")
        assert FleetSpec.coerce(spec, session_key="k") is spec
        assert spec.session_key == "k"

    def test_coerce_keeps_existing_session_key(self):
        spec = FleetSpec(url="http://x", session_key="original")
        FleetSpec.coerce(spec, session_key="other")
        assert spec.session_key == "original"

    @pytest.mark.parametrize("bad", [None, "", "   ", "/", 8123])
    def test_coerce_rejects_garbage(self, bad):
        with pytest.raises(FleetError):
            FleetSpec.coerce(bad)

    def test_job_client_shares_the_address_rule(self):
        from repro.api import facade
        from repro.api.types import RequestError

        address = " 127.0.0.1:8123/ "
        assert facade._server_url(address) == FleetSpec.coerce(address).url
        assert facade._server_url(address) == "http://127.0.0.1:8123"
        for bad in ("", " / ", None):
            with pytest.raises(RequestError, match="host:port or URL"):
                facade._server_url(bad)
