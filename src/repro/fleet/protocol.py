"""The fleet wire protocol: plain-JSON forms of the exploration types.

Everything crossing the coordinator/worker HTTP boundary is encoded
here, in one place, so the contract is testable without sockets: the
:class:`~repro.explore.worker.PlanPayload` (graph + base partition +
weights), the plan's :class:`~repro.explore.plan.Chunk`\\ s, completed
:class:`~repro.explore.worker.ChunkResult`\\ s (reusing the checkpoint
serializers — the same encoding the ``--resume`` journal trusts — plus
the PR 6 telemetry snapshot and worker pid, which the journal
deliberately omits), and the :class:`~repro.explore.engine.RetryPolicy`
governing requeues.

:func:`payload_fingerprint` is the worker-side cache key: two sweeps
share a fingerprint exactly when a :class:`ChunkRunner` built for one
evaluates the other identically, so a worker keeps one warm runner per
distinct payload rather than per sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.api.types import base_url
from repro.errors import FleetError
from repro.explore.engine import RetryPolicy
from repro.explore.plan import CandidateSpec, Chunk
from repro.explore.worker import ChunkResult, PlanPayload


# ----------------------------------------------------------------------
# payload


def payload_to_wire(payload: PlanPayload) -> Dict[str, Any]:
    """Plain-JSON form of a :class:`PlanPayload` (what ``slif work``
    daemons rebuild their runners from)."""
    slif_data, partition_data = payload.plain()
    return {
        "task": payload.task,
        "slif": slif_data,
        "partition": partition_data,
        "hardware": list(payload.hardware),
        "weights": None if payload.weights is None else asdict(payload.weights),
        "time_constraint": payload.time_constraint,
    }


def payload_from_wire(data: Dict[str, Any]) -> PlanPayload:
    weights = data.get("weights")
    if weights is not None:
        from repro.partition.cost import CostWeights

        weights = CostWeights(**weights)
    return PlanPayload(
        task=data["task"],
        slif_data=data["slif"],
        partition_data=data["partition"],
        hardware=tuple(data.get("hardware", ())),
        weights=weights,
        time_constraint=data.get("time_constraint"),
    )


def payload_fingerprint(wire: Dict[str, Any]) -> str:
    """Digest of a payload wire form (the worker's runner-cache key)."""
    blob = json.dumps(wire, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# chunks


def chunk_to_wire(chunk: Chunk) -> Dict[str, Any]:
    return {
        "index": chunk.index,
        "candidates": [
            {
                "index": spec.index,
                "kind": spec.kind,
                "label": spec.label,
                "algorithm": spec.algorithm,
                "seed": spec.seed,
                "constraints": [list(pair) for pair in spec.constraints],
                "params": spec.params,
            }
            for spec in chunk.candidates
        ],
    }


def chunk_from_wire(data: Dict[str, Any]) -> Chunk:
    return Chunk(
        index=data["index"],
        candidates=tuple(
            CandidateSpec(
                index=spec["index"],
                kind=spec["kind"],
                label=spec["label"],
                algorithm=spec.get("algorithm", "greedy"),
                seed=spec.get("seed"),
                constraints=tuple(
                    (name, value)
                    for name, value in spec.get("constraints", ())
                ),
                params=spec.get("params", {}),
            )
            for spec in data["candidates"]
        ),
    )


# ----------------------------------------------------------------------
# results


def result_to_wire(result: ChunkResult) -> Dict[str, Any]:
    """Checkpoint encoding plus the fields the journal omits.

    The journal never stores ``worker_pid``/``obs`` because a replayed
    chunk must not re-merge telemetry; over the fleet wire both travel —
    the submitting side absorbs each snapshot exactly once, when the
    result first arrives (duplicates are dropped by chunk index before
    absorption, preserving that invariant).
    """
    from repro.explore.checkpoint import chunk_result_to_dict

    data = chunk_result_to_dict(result)
    if result.worker_pid is not None:
        data["worker_pid"] = result.worker_pid
    if result.obs is not None:
        data["obs"] = result.obs
    return data


def result_from_wire(data: Dict[str, Any]) -> ChunkResult:
    from repro.explore.checkpoint import chunk_result_from_dict

    result = chunk_result_from_dict(data)
    result.worker_pid = data.get("worker_pid")
    result.obs = data.get("obs")
    return result


# ----------------------------------------------------------------------
# retry policy


def policy_to_wire(policy: RetryPolicy) -> Dict[str, Any]:
    return asdict(policy)


def policy_from_wire(data: Optional[Dict[str, Any]]) -> RetryPolicy:
    """Decode ``{timeout, retries, seed}``; any other key is malformed."""
    if not data:
        return RetryPolicy()
    try:
        return RetryPolicy(**data)
    except TypeError as exc:
        raise FleetError(f"malformed retry policy on the wire: {exc}") from None


# ----------------------------------------------------------------------
# the client-side handle


@dataclass
class FleetSpec:
    """How a sweep reaches its fleet: address, routing key, pacing.

    ``session_key`` is the consistent-hash routing key (the
    :func:`repro.api.session.session_key` content hash of the spec), so
    repeated sweeps of one spec land on the same worker's warm caches.
    ``transport`` injects a ready transport (tests use
    :class:`~repro.fleet.client.LocalTransport`); when ``None`` an HTTP
    transport is built from ``url``.  ``idle_timeout`` bounds how long
    the client waits on a fleet with zero live workers before taking
    the remaining chunks in-process.
    """

    url: str = ""
    session_key: str = ""
    poll_seconds: float = 0.05
    idle_timeout: float = 10.0
    transport: Optional[Any] = None

    @classmethod
    def coerce(
        cls, value: Any, session_key: str = ""
    ) -> "FleetSpec":
        """Accept a FleetSpec, a ``host:port`` string, or a full URL.

        >>> FleetSpec.coerce("127.0.0.1:8123").url
        'http://127.0.0.1:8123'
        >>> FleetSpec.coerce("https://fleet.example").url
        'https://fleet.example'
        >>> FleetSpec.coerce(FleetSpec(url="x"), session_key="k").session_key
        'k'
        """
        if isinstance(value, cls):
            if session_key and not value.session_key:
                value.session_key = session_key
            return value
        url = base_url(value)
        if url is not None:
            return cls(url=url, session_key=session_key)
        raise FleetError(
            f"cannot interpret {value!r} as a fleet coordinator; expected "
            f"a FleetSpec or a 'host:port' / URL string"
        )
