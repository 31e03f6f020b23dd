"""The doors agree: one request, however it is asked for.

The same flags build one explore request and one partition request at
each of the four doors: the CLI subcommand, ``slif jobs submit`` (as
the server parses the job it receives), an HTTP body and a library
dict.  All four are equal by ``to_dict()``, map to one durable job id,
and run under one retry policy, its jitter seeded with the request's
seed.
"""

import json

import pytest

from repro import api
from repro.api import facade
from repro.cli import main
from repro.serve.app import ServerConfig, SlifServer
from repro.serve.store import job_id_for

SPEC = "vol"
#: per kind: the flags both its subcommand and ``jobs submit`` take,
#: and the request dict they spell
FLAGS = {
    "explore": (
        ["--steps", "1", "--random-starts", "1", "--seed", "3", "--jobs", "1"],
        {"spec": SPEC, "constraint_steps": 1, "random_starts": 1, "seed": 3,
         "jobs": 1},
    ),
    "partition": (
        ["--algorithm", "random", "--seed", "3", "--jobs", "1"],
        {"spec": SPEC, "algorithm": "random", "seed": 3, "jobs": 1},
    ),
}


@pytest.fixture
def server(tmp_path):
    srv = SlifServer(
        ServerConfig(port=0, state_dir=str(tmp_path / "state"), job_workers=0)
    )
    yield srv
    srv.close()


@pytest.fixture
def policies(monkeypatch):
    """Every ``(request, policy)`` the facade's request rule builds."""
    seen = []
    rule = facade._request_policy

    def spy(req):
        policy = rule(req)
        seen.append((req, policy))
        return policy

    monkeypatch.setattr(facade, "_request_policy", spy)
    return seen


@pytest.mark.parametrize("kind", sorted(FLAGS))
def test_four_doors_build_one_request(kind, server, policies, monkeypatch, capsys):
    flags, body = FLAGS[kind]

    # the CLI subcommand
    assert main([kind, SPEC, *flags]) == 0
    # an HTTP body
    status, _, _, _ = server.handle_timed(
        "POST", f"/v1/{kind}", json.dumps(body).encode()
    )
    assert status == 200
    # a library dict
    getattr(api, kind)(dict(body))
    requests = [req for req, _ in policies]

    # slif jobs submit, as the server parses the job it receives
    def post(url, data=None, headers=None, timeout=30.0):
        status, payload, _, _ = server.handle_timed("POST", "/v1/jobs", data)
        assert status == 202, payload
        return payload

    monkeypatch.setattr(facade, "_job_call", post)
    capsys.readouterr()
    assert main(["jobs", "submit", "127.0.0.1:1", SPEC, "--kind", kind,
                 *flags]) == 0
    job_id = capsys.readouterr().out.strip()
    submitted = api.JobRequest(
        kind=kind, request=server.jobs.get(job_id).request
    ).wrapped()
    requests.append(submitted)

    assert len(requests) == 4
    assert all(r.to_dict() == requests[0].to_dict() for r in requests)
    key = api.session_key(SPEC)
    assert {job_id_for("default", kind, key, r.to_dict()) for r in requests} == {
        job_id
    }
    built = [policy for _, policy in policies] + [
        facade._request_policy(submitted)
    ]
    assert all(policy == built[0] for policy in built)
    assert built[0].seed == 3


def test_the_request_is_the_only_retry_knob():
    """No door takes a policy of its own, and a policy holds only what
    a request carries."""
    import inspect
    from dataclasses import fields

    from repro.explore.engine import RetryPolicy

    assert [f.name for f in fields(RetryPolicy)] == ["timeout", "retries", "seed"]
    for fn in (api.partition, api.explore):
        assert "policy" not in inspect.signature(fn).parameters
    assert "seed" not in inspect.signature(api.build_system).parameters


# ---------------------------------------------------------------------------
# fields no door lets through: engine fields on a search that runs in
# process, and retry fields out of range or not finite

#: a greedy partition, which searches once in process, with an engine
#: field it would ignore
IGNORED_ENGINE_FIELDS = [
    '{"spec": "vol", "jobs": 4}',
    '{"spec": "vol", "timeout": 5}',
    '{"spec": "vol", "retries": 3}',
    '{"spec": "vol", "jobs": 3, "timeout": NaN}',
]

#: ``(kind, body)`` with a retry or time field out of range or not
#: finite; the server's JSON decoder reads a bare NaN or Infinity
OUT_OF_RANGE = [
    ("explore", '{"spec": "vol", "constraint_steps": 1, "random_starts": 1, '
                '"retries": -1}'),
    ("explore", '{"spec": "vol", "timeout": NaN}'),
    ("explore", '{"spec": "vol", "timeout": 0}'),
    ("explore", '{"spec": "vol", "timeout": Infinity}'),
    ("explore", '{"spec": "vol", "timeout": -Infinity}'),
    ("partition", '{"spec": "vol", "algorithm": "random", "retries": -1}'),
    ("partition", '{"spec": "vol", "algorithm": "random", "timeout": 0}'),
    ("partition", '{"spec": "vol", "algorithm": "random", "timeout": Infinity}'),
    ("simulate", '{"spec": "vol", "iterations": 1, "time_limit": NaN}'),
]

REFUSED = [("partition", body) for body in IGNORED_ENGINE_FIELDS] + OUT_OF_RANGE


@pytest.mark.parametrize("kind, body", REFUSED)
def test_every_door_refuses_the_request(kind, body, server):
    status, payload, _, _ = server.handle_timed(
        "POST", f"/v1/{kind}", body.encode()
    )
    assert status == 400, payload
    with pytest.raises(api.RequestError) as refused:
        getattr(api, kind)(json.loads(body))
    assert str(refused.value) == payload["error"]
    # a job wrapping it is refused before it is stored
    job = '{"kind": "%s", "request": %s}' % (kind, body)
    status, payload, _, _ = server.handle_timed("POST", "/v1/jobs", job.encode())
    assert status == 400, payload
    assert str(refused.value) == payload["error"]
    assert server.jobs.list_jobs() == []


@pytest.mark.parametrize("algorithm", ["greedy", "annealing"])
def test_jobs_submit_refuses_engine_fields_of_an_in_process_search(
    algorithm, capsys
):
    # refused before any connection is attempted
    argv = ["jobs", "submit", "127.0.0.1:9", SPEC, "--kind", "partition",
            "--algorithm", algorithm, "--jobs", "4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: PartitionRequest.algorithm {algorithm!r} runs one search in "
        "process and would ignore jobs"
    )


def test_engine_algorithms_take_engine_fields(server):
    body = {"spec": SPEC, "algorithm": "random", "seed": 2, "jobs": 1,
            "timeout": 30, "retries": 0}
    status, payload, _, _ = server.handle_timed(
        "POST", "/v1/partition", json.dumps(body).encode()
    )
    assert status == 200, payload
    assert payload == api.partition(dict(body)).to_dict()


def test_a_server_jobs_default_leaves_an_in_process_search_alone(tmp_path):
    """``slif serve --jobs 2`` gives its default only to requests that
    run on the engine, so a greedy partition is answered as the library
    answers it."""
    srv = SlifServer(ServerConfig(port=0, jobs=2, job_workers=0))
    try:
        status, payload, _, _ = srv.handle_timed(
            "POST", "/v1/partition", b'{"spec": "vol"}'
        )
    finally:
        srv.close()
    assert status == 200, payload
    assert payload == api.partition({"spec": SPEC}).to_dict()
