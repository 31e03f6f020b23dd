"""Warm and served explore sweeps on a gen-10k spec against a fresh one.

``api.explore`` sweeps the session's own graph and batch kernel, whose
compiled graph also scores every descent's moves, read-only:
in-process at ``jobs=1``, and in worker processes forked with them at
``jobs=2``.  ``tests/properties/test_prop_explore.py``
checks that against a fresh sweep on small generated specs; this runs
the default sweep (8 constraint steps, 5 random starts, 49 candidates)
once at the scale of the ``open-gen10k`` workload, a ``slif gen`` spec
with 10,000 behaviors.

Each of these fronts must be byte-equal, points and rendered text, to
``explore_pareto`` on a freshly built ``DesignSystem`` of the spec:

- two sweeps of one session at ``jobs=1`` and one at ``jobs=2``;
- a sweep of the session at ``jobs=1`` with the batch kernel abstaining
  (``_helpers.kernel_disabled()``), so every design point is scored by
  the reference Eq. 1 recursion instead of the kernel's channel-table
  sweep;
- two ``POST /v1/explore`` requests, naming the spec by path, to an
  in-process ``slif serve`` (the first loads the session, the second
  finds it warm in the server's graph cache).

Afterwards the session's size budgets and partition are unchanged.  The
per-sweep times are printed; none is asserted.  Run with::

    PYTHONPATH=src python -m pytest -q --benchmark-only -s \\
        benchmarks/bench_explore_equivalence.py
"""

import http.client
import json
import threading
import time

from _helpers import kernel_disabled
from conftest import report
from repro import api
from repro.api import build_system
from repro.api.types import canonical_json
from repro.serve.app import ServerConfig, SlifServer
from repro.synth.gen import GenConfig, generate_text

SEED = 1


def timed(run):
    started = time.perf_counter()
    value = run()
    return value, time.perf_counter() - started


def front(points, text):
    return canonical_json(points), text


def budgets(slif):
    return {
        name: slif.get_component(name).size_constraint
        for name in list(slif.processors) + list(slif.memories)
    }


def fresh_front(spec):
    system = build_system(spec)
    result = system.explore()
    points = [
        {
            "hardware_size": p.hardware_size,
            "system_time": p.system_time,
            "label": p.label,
            "mapping": dict(p.mapping),
        }
        for p in result.points
    ]
    return front(points, result.render())


def post_explore(server, body):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=600)
    try:
        conn.request(
            "POST", "/v1/explore", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = response.read()
    finally:
        conn.close()
    assert response.status == 200, payload[:200]
    data = json.loads(payload)
    return front(data["points"], data["text"])


def test_warm_and_served_sweeps_match_a_fresh_one(benchmark, tmp_path):
    spec = generate_text(GenConfig(behaviors=10_000, seed=SEED))
    path = tmp_path / "gen10k.json"
    path.write_text(spec)
    expected, fresh_s = timed(lambda: fresh_front(spec))

    session = api.load(spec)
    session.kernel()
    before = budgets(session.slif), session.partition.object_mapping()

    def sweep(jobs):
        result = api.explore(
            api.ExploreRequest(spec=spec, jobs=jobs), session=session
        )
        return front(result.points, result.text)

    times = {}
    for name, jobs in (("jobs1 first", 1), ("jobs1 warm", 1)):
        got, times[name] = timed(lambda: sweep(jobs))
        assert got == expected, name
    got, times["jobs2"] = benchmark.pedantic(
        lambda: timed(lambda: sweep(2)), rounds=1, iterations=1
    )
    assert got == expected, "jobs2"
    with kernel_disabled():
        got, times["jobs1 kernel off"] = timed(lambda: sweep(1))
    assert got == expected, "jobs1 kernel off"
    assert (budgets(session.slif), session.partition.object_mapping()) == before

    server = SlifServer(ServerConfig(port=0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    body = json.dumps({"spec": str(path), "jobs": 1}).encode("utf-8")
    try:
        for name in ("served first", "served warm"):
            got, times[name] = timed(lambda: post_explore(server, body))
            assert got == expected, name
    finally:
        server.shutdown()
        thread.join(timeout=10)

    report(
        [
            f"explore / gen-10k, default sweep: fresh DesignSystem "
            f"{fresh_s:.2f} s; "
            + ", ".join(f"{name} {seconds:.2f} s" for name, seconds in times.items())
            + "; all byte-equal",
        ]
    )
