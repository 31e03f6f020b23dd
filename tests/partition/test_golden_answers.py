"""Search answers stay byte-identical to the checked-in golden file.

Jobs-parity tests only show that every configuration agrees with every
other one; a change that moved all of their answers the same way would
pass them.  These tests pin the answers themselves: partition results
(cost, iterations, evaluations, history, mapping and the API payload)
for five algorithms, and the default explore front at ``jobs=1``,
``jobs=2``, without the batch kernel and on a two-worker fleet (the
``--workers`` wire path, in-process), on the four bundled specs and two
generated ones; on the bundled specs also the partition results under
binding size and pin budgets, and searches under a time constraint
with those budgets, each run both on the session's compiled graph and
on one of its own.  The partition results and the front are
also pinned with the batch kernel abstaining from everything, so the
reference estimators that score what the kernel abstains from give the
same bytes.  ``tests/_golden.py`` says how to regenerate the file.
"""

import json

import pytest

import _golden
from _helpers import WorkerThreads, kernel_disabled

SPECS = _golden.BUNDLED + tuple(_golden.GENERATED)


@pytest.fixture(scope="module")
def golden():
    with open(_golden.GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sessions():
    from repro import api

    return {name: api.load(_golden.spec_text(name)) for name in SPECS}


def assert_kernel_abstains(session):
    """Inside ``kernel_disabled()``: the session's kernel scores nothing."""
    from repro.core.channels import FreqMode

    kernel = session.kernel()
    partition = session.partition
    assert kernel.reports([(partition, FreqMode.AVG, False)]) == [None]
    assert kernel.evaluate([(partition, "start")], []) == [None]


@pytest.mark.parametrize("spec", SPECS)
def test_partition_answers(spec, sessions, golden):
    session = sessions[spec]
    for algorithm in _golden.ALGORITHMS:
        got = _golden.partition_answer(session, algorithm)
        assert got == golden[spec]["partition"][algorithm], algorithm


@pytest.mark.parametrize("spec", SPECS)
def test_partition_answers_kernel_off(spec, sessions, golden):
    session = sessions[spec]
    with kernel_disabled():
        assert_kernel_abstains(session)
        for algorithm in _golden.ALGORITHMS:
            got = _golden.partition_answer(session, algorithm)
            assert got == golden[spec]["partition"][algorithm], algorithm


@pytest.mark.parametrize("spec", _golden.BUNDLED)
def test_constrained_partition_answers(spec, sessions, golden):
    with _golden.constrained(sessions[spec]):
        for algorithm in _golden.ALGORITHMS:
            got = _golden.partition_answer(sessions[spec], algorithm)
            assert got == golden[spec]["partition_constrained"][algorithm], algorithm


@pytest.mark.parametrize("spec", _golden.BUNDLED)
def test_constrained_partition_answers_kernel_off(spec, sessions, golden):
    session = sessions[spec]
    with kernel_disabled(), _golden.constrained(session):
        assert_kernel_abstains(session)
        for algorithm in _golden.ALGORITHMS:
            got = _golden.partition_answer(session, algorithm)
            assert got == golden[spec]["partition_constrained"][algorithm], algorithm


@pytest.mark.parametrize("spec", sorted(_golden.TIMED))
def test_timed_partition_answers(spec, sessions, golden):
    session = sessions[spec]
    want = golden["partition_timed"][spec]
    shared = _golden.taking_compiled(_golden.TIMED[spec])
    with _golden.constrained(session):
        assert _golden.timed_answers(session, _golden.TIMED[spec]) == want
        assert _golden.timed_answers(session, shared, session.kernel().cg) == {
            algorithm: want[algorithm] for algorithm in shared
        }


@pytest.mark.parametrize("config", ["jobs1", "jobs2", "kernel-off", "fleet"])
@pytest.mark.parametrize("spec", SPECS)
def test_explore_front(spec, config, sessions, golden):
    if config == "fleet":
        from repro.fleet import FleetCoordinator

        with WorkerThreads(FleetCoordinator(), count=2) as workers:
            answer = _golden.explore_answer(sessions[spec], fleet=workers.spec)
    elif config == "kernel-off":
        with kernel_disabled():
            assert_kernel_abstains(sessions[spec])
            answer = _golden.explore_answer(sessions[spec])
    else:
        jobs = 2 if config == "jobs2" else 1
        answer = _golden.explore_answer(sessions[spec], jobs)
    assert answer == golden[spec]["explore"]
