"""The field-type rule, at the HTTP door and at the library door.

Every case below holds one request field of the wrong JSON type.  Each
once got a wrong answer (a string read as a truthy flag), an HTTP 500
and a bare ``TypeError`` from the library, or was accepted unchecked.
Now every one is a :class:`~repro.api.types.RequestError` naming the
class, the field and the value: HTTP 400 from ``slif serve``, the error
itself from ``repro.api``, and a refused job submission that stores
nothing.
"""

import json
import os

import pytest

from repro import api
from repro.api import RequestError
from repro.serve.app import ServerConfig, SlifServer

#: ``(kind, request, field)``: ``field`` of ``request`` has a wrong JSON type
CASES = [
    ("estimate", {"spec": "ether", "concurrent": "no"}, "concurrent"),
    ("simulate", {"spec": "vol", "validate": "false"}, "validate"),
    ("partition", {"spec": "vol", "algorithm": "random", "seed": "3"}, "seed"),
    ("explore", {"spec": "vol", "constraint_steps": "2"}, "constraint_steps"),
    ("explore", {"spec": "vol", "constraint_steps": 1.5}, "constraint_steps"),
    ("explore", {"spec": "vol", "jobs": "2"}, "jobs"),
    ("simulate", {"spec": "vol", "iterations": "3"}, "iterations"),
    ("partition", {"spec": "vol", "jobs": "2"}, "jobs"),
    ("explore", {"spec": "vol", "jobs": 1, "timeout": "x"}, "timeout"),
    ("partition", {"spec": "vol", "seed": 1.5}, "seed"),
    ("explore", {"spec": "vol", "constraint_steps": True}, "constraint_steps"),
]
IDS = [f"{kind}-{field}={request[field]!r}" for kind, request, field in CASES]
JOB_CASES = [case for case in CASES if case[0] != "estimate"]
JOB_IDS = [i for i, case in zip(IDS, CASES) if case[0] != "estimate"]


def expected(kind, request, field):
    """The start of the message every door must answer with, and the
    value's ``repr``, which the message must name."""
    cls = f"{kind.capitalize()}Request"
    return f"{cls}.{field} must be", repr(request[field])


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("state")
    srv = SlifServer(
        ServerConfig(port=0, state_dir=str(state_dir), job_workers=0)
    )
    yield srv
    srv.close()


@pytest.mark.parametrize("kind,request_data,field", CASES, ids=IDS)
def test_http_door_answers_400(server, kind, request_data, field):
    status, payload, _, _ = server.handle_timed(
        "POST", f"/v1/{kind}", json.dumps(request_data).encode()
    )
    assert status == 400, payload
    message, value = expected(kind, request_data, field)
    assert payload["error"].startswith(message) and value in payload["error"]


@pytest.mark.parametrize("kind,request_data,field", CASES, ids=IDS)
def test_library_door_raises_request_error(kind, request_data, field):
    message, value = expected(kind, request_data, field)
    with pytest.raises(RequestError) as excinfo:
        getattr(api, kind)(dict(request_data))
    assert str(excinfo.value).startswith(message)
    assert value in str(excinfo.value)


@pytest.mark.parametrize("kind,request_data,field", JOB_CASES, ids=JOB_IDS)
def test_job_submission_is_refused_before_anything_is_stored(
    server, kind, request_data, field
):
    body = json.dumps({"kind": kind, "request": request_data}).encode()
    status, payload, _, _ = server.handle_timed("POST", "/v1/jobs", body)
    assert status == 400, payload
    message, _ = expected(kind, request_data, field)
    assert payload["error"].startswith(message)
    assert server.jobs.list_jobs() == []
    assert os.listdir(server.jobs.store.jobs_dir) == []
    with pytest.raises(RequestError, match=message):
        # refused before any connection is attempted
        api.submit("127.0.0.1:9", {"kind": kind, "request": request_data})


def test_messages_name_class_field_and_value():
    with pytest.raises(RequestError) as excinfo:
        api.EstimateRequest(spec="ether", concurrent="no").validate()
    assert str(excinfo.value) == (
        "EstimateRequest.concurrent must be true or false, got 'no'"
    )
    with pytest.raises(RequestError) as excinfo:
        api.PartitionRequest(spec="vol", jobs="2").validate()
    assert str(excinfo.value) == (
        "PartitionRequest.jobs must be an integer or null, got '2'"
    )


def test_existing_messages_are_kept():
    for spec in ("", 5, None):
        with pytest.raises(RequestError) as excinfo:
            api.EstimateRequest(spec=spec).validate()
        assert str(excinfo.value) == (
            "EstimateRequest.spec must be a non-empty string"
        )
    with pytest.raises(RequestError, match="must be one of"):
        api.PartitionRequest(spec="vol", algorithm="quantum").validate()
    with pytest.raises(RequestError, match="iterations must be >= 1"):
        api.SimulateRequest(spec="vol", iterations=0).validate_fields()


def test_well_typed_values_pass():
    """Integers are numbers, ``None`` fills an ``Optional`` field."""
    api.PartitionRequest(
        spec="vol", algorithm="random", timeout=2, jobs=None
    ).validate()
    api.SimulateRequest(spec="vol", time_limit=3, concurrent=False).validate_fields()
    api.ExploreRequest(spec="vol", timeout=0.5, jobs=2).validate()
    api.JobRequest(kind="explore", request={"spec": "vol"}).validate()


def test_a_boolean_schema_version_is_refused():
    """``True == 1`` passes the version check; the type rule does not."""
    request = api.EstimateRequest.from_dict(
        {"spec": "vol", "schema_version": True}
    )
    with pytest.raises(RequestError, match="schema_version must be an integer"):
        request.validate()
