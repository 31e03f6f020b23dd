"""Search answers stay byte-identical to the checked-in golden file.

Jobs-parity tests only show that every configuration agrees with every
other one; a change that moved all of their answers the same way would
pass them.  These tests pin the answers themselves: partition results
(cost, iterations, evaluations, history, mapping and the API payload)
for five algorithms (six on the bundled specs, with clustering), the
clustering answer on a 150-behavior generated spec, and
the default explore front at ``jobs=1``,
``jobs=2``, without the batch kernel and on a two-worker fleet (the
``--workers`` wire path, in-process), on the four bundled specs and two
generated ones, and on the gen-1k spec perfbench's explore workloads
sweep the front and each of the sweep's greedy descents; on the bundled
specs also the partition results under
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
EXPLORED = SPECS + tuple(_golden.EXPLORE_ONLY)


@pytest.fixture(scope="module")
def golden():
    with open(_golden.GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sessions():
    from repro import api

    return {name: api.load(_golden.spec_text(name)) for name in EXPLORED}


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
    for algorithm in _golden.algorithms(spec):
        got = _golden.partition_answer(session, algorithm)
        assert got == golden[spec]["partition"][algorithm], algorithm


@pytest.mark.parametrize("spec", SPECS)
def test_partition_answers_kernel_off(spec, sessions, golden):
    session = sessions[spec]
    with kernel_disabled():
        assert_kernel_abstains(session)
        for algorithm in _golden.algorithms(spec):
            got = _golden.partition_answer(session, algorithm)
            assert got == golden[spec]["partition"][algorithm], algorithm


@pytest.mark.parametrize("spec", sorted(_golden.CLUSTERED))
def test_clustering_answers(spec, golden):
    from repro import api

    session = api.load(_golden.spec_text(spec))
    got = _golden.partition_answer(session, "clustering")
    assert got == golden[spec]["partition"]["clustering"]


@pytest.mark.parametrize("spec", _golden.BUNDLED)
def test_constrained_partition_answers(spec, sessions, golden):
    with _golden.constrained(sessions[spec]):
        for algorithm in _golden.BUNDLED_ALGORITHMS:
            got = _golden.partition_answer(sessions[spec], algorithm)
            assert got == golden[spec]["partition_constrained"][algorithm], algorithm


@pytest.mark.parametrize("spec", _golden.BUNDLED)
def test_constrained_partition_answers_kernel_off(spec, sessions, golden):
    session = sessions[spec]
    with kernel_disabled(), _golden.constrained(session):
        assert_kernel_abstains(session)
        for algorithm in _golden.BUNDLED_ALGORITHMS:
            got = _golden.partition_answer(session, algorithm)
            assert got == golden[spec]["partition_constrained"][algorithm], algorithm


@pytest.mark.parametrize("spec", sorted(_golden.TIMED))
def test_timed_partition_answers(spec, sessions, golden):
    session = sessions[spec]
    algorithms = _golden.TIMED[spec]
    want = golden["partition_timed"][spec]
    with _golden.constrained(session):
        assert _golden.timed_answers(session, algorithms) == want
        assert _golden.timed_answers(session, algorithms, session.kernel().cg) == want


@pytest.mark.parametrize("config", ["jobs1", "jobs2", "kernel-off", "fleet"])
@pytest.mark.parametrize("spec", EXPLORED)
def test_explore_front(spec, config, sessions, golden):
    seed = _golden.explore_seed(spec)
    if config == "fleet":
        from repro.fleet import FleetCoordinator

        with WorkerThreads(FleetCoordinator(), count=2) as workers:
            answer = _golden.explore_answer(
                sessions[spec], fleet=workers.spec, seed=seed
            )
    elif config == "kernel-off":
        with kernel_disabled():
            assert_kernel_abstains(sessions[spec])
            answer = _golden.explore_answer(sessions[spec], seed=seed)
    else:
        jobs = 2 if config == "jobs2" else 1
        answer = _golden.explore_answer(sessions[spec], jobs, seed=seed)
    assert answer == golden[spec]["explore"]


@pytest.mark.parametrize("spec", sorted(_golden.EXPLORE_ONLY))
def test_explore_descents(spec, sessions, golden):
    """Each descent of the sweep, not only the front it leaves."""
    got = _golden.descent_answers(sessions[spec], _golden.explore_seed(spec))
    want = golden[spec]["descents"]
    assert len(got) == len(want)
    for index, (answer, pinned) in enumerate(zip(got, want)):
        assert answer == pinned, f"descent {index + 1} of the plan"
