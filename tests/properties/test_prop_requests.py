"""Property: a request with one field of the wrong JSON type is refused.

One field of a valid small request on ``fuzzy`` is replaced with a value
of another JSON type: a string, a list, an object, ``null`` for a field
that is not ``Optional``, a boolean for a number, a non-integral float
for an integer, ``NaN`` or an infinity for a number (the server's JSON
decoder reads the bare tokens), a number for a boolean or a string.
Every door must refuse it before anything runs: ``slif serve`` with
HTTP 400 (never a 500) and ``repro.api`` with
:class:`~repro.api.types.RequestError`.

A value of the right type is never drawn: a drawn ``jobs`` or
``constraint_steps`` could start thousands of processes or a sweep
that never ends.
"""

import json
from dataclasses import fields
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import RequestError
from repro.serve.app import ServerConfig, SlifServer

#: a valid small request of each kind the facade answers
VALID = {
    "estimate": {"spec": "fuzzy"},
    "partition": {"spec": "fuzzy"},
    "simulate": {"spec": "fuzzy", "iterations": 1},
    "explore": {"spec": "fuzzy", "constraint_steps": 0, "random_starts": 1},
}
CLASSES = {
    "estimate": api.EstimateRequest,
    "partition": api.PartitionRequest,
    "simulate": api.SimulateRequest,
    "explore": api.ExploreRequest,
    "job": api.JobRequest,
}
JOB = {"kind": "explore", "request": VALID["explore"]}

strings = st.text(max_size=6)
lists = st.lists(st.integers(-3, 3), max_size=3)
objects = st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2)
integers = st.integers(-10**6, 10**6)
fractions = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False
).filter(lambda x: not x.is_integer())
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def wrong_values(hint):
    """Values of JSON types a field declared as ``hint`` does not take."""
    args = get_args(hint)
    optional = type(None) in args
    if optional:
        hint = next(a for a in args if a is not type(None))
    base = getattr(hint, "__origin__", hint)
    choices = [s for t, s in ((str, strings), (list, lists), (dict, objects))
               if t is not base]
    if not optional:
        choices.append(st.none())
    if base in (int, float, str, dict):
        choices.append(st.booleans())
    if base in (bool, str, dict):
        choices += [integers, fractions]
    if base is int:
        choices.append(fractions)
    if base in (int, float):
        choices.append(non_finite)
    return st.one_of(choices)


def field_names(kind):
    return [f.name for f in fields(CLASSES[kind])]


@st.composite
def mistyped_requests(draw):
    """``(door, body, field)``: ``body`` holds one wrongly typed
    ``field``; ``door`` is a request kind, ``job`` for a job's own
    field, or ``job:<kind>`` for a field of the request a job wraps."""
    door = draw(st.sampled_from(sorted(CLASSES) + ["job:partition",
                                                  "job:simulate",
                                                  "job:explore"]))
    kind = door.partition(":")[2] or door
    field = draw(st.sampled_from(field_names(kind)))
    value = draw(wrong_values(get_type_hints(CLASSES[kind])[field]))
    base = JOB if kind == "job" else VALID[kind]
    body = dict(base, **{field: value})
    if door.startswith("job:"):
        body = {"kind": kind, "request": body}
    return door, body, field


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("state")
    srv = SlifServer(
        ServerConfig(port=0, state_dir=str(state_dir), job_workers=0)
    )
    yield srv
    srv.close()


@given(mistyped_requests())
@settings(max_examples=150, deadline=None)
def test_every_door_refuses_a_mistyped_field(server, case):
    door, body, field = case
    path = "/v1/jobs" if door.startswith("job") else f"/v1/{door}"
    status, payload, _, _ = server.handle_timed(
        "POST", path, json.dumps(body).encode()
    )
    assert status == 400, (body, payload)
    assert field in payload["error"]
    with pytest.raises(RequestError, match=field):
        if door.startswith("job"):
            # refused before any connection is attempted
            api.submit("127.0.0.1:9", body)
        else:
            getattr(api, door)(body)
    assert server.jobs.list_jobs() == []
