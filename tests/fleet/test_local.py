"""Local ``--jobs`` workers end with the process that started them.

A worker's pipe cannot tell it that its parent died: the worker holds
copies of the parent's pipe ends, so its ``recv`` never sees EOF.  This
SIGKILLs a ``--jobs 2`` sweep, which skips every cleanup, while one
worker sits in a hung chunk and the other waits for work, and requires
both workers to be gone within seconds.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)


def _stat_fields(pid):
    """The /proc stat fields after the command name: state, ppid, ..."""
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def children(pid):
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(entry)[1]) == pid:
                found.append(int(entry))
        except OSError:
            continue   # exited while we looked
    return found


def alive(pid):
    """Still running; a zombie left for its new parent to reap is gone."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


def test_workers_exit_when_the_sweep_is_killed():
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        SLIF_FAULTS="hang:0",
        SLIF_FAULT_HANG_SECONDS="60",
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "explore", "fuzzy", "--jobs", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2:
            assert proc.poll() is None, "the sweep ended before it was killed"
            assert time.monotonic() < deadline, "no two workers started"
            time.sleep(0.02)
            workers = children(proc.pid)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    deadline = time.monotonic() + 5
    while any(map(alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if alive(pid)]
    for pid in left:   # do not leak them past the failure
        os.kill(pid, signal.SIGKILL)
    assert not left, f"workers {left} outlived their parent"
