"""Durable on-disk state for the server's async jobs.

One directory per job under ``<state_dir>/jobs/<job_id>/``:

``job.json``
    The :class:`JobRecord` — tenant, kind, the wrapped request dict,
    lifecycle state, timestamps, and (once done) the result dict.
    Written atomically: serialize to a temp file in the same
    directory, flush + fsync, ``os.replace`` over the final name, then
    fsync the directory — a SIGKILL at any instant leaves either the
    old record or the new one, never a torn file.
``journal.jsonl``
    The exploration chunk journal, in exactly the format
    :mod:`repro.explore.checkpoint` reads and writes (header
    fingerprint + one fsync'd line per completed chunk).  A restarted
    daemon hands this path back to the engine with ``resume=True`` and
    only the missing chunks are re-evaluated — the recovered front is
    byte-identical to an uninterrupted run.

Job ids are content-derived: ``sha256(tenant, kind, session content
hash, canonical request JSON)[:16]``.  Two submissions of the same
request by the same tenant are the *same job* (idempotent POST, and a
crash between accept and first poll cannot orphan work), while the
same request from two tenants stays two jobs so per-tenant accounting
and quotas hold.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.types import JOB_KINDS, JOB_STATES, JobStatus, canonical_json

#: File names inside one job directory.
RECORD_FILE = "job.json"
JOURNAL_FILE = "journal.jsonl"


def job_id_for(
    tenant: str, kind: str, session_key: str, request: Dict[str, Any]
) -> str:
    """Content-derived job id; stable across processes and restarts."""
    blob = "\x00".join(
        [tenant, kind, session_key, canonical_json(request)]
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class JobRecord:
    """Everything the store persists about one job."""

    id: str = ""
    kind: str = "explore"
    tenant: str = "default"
    request: Dict[str, Any] = field(default_factory=dict)
    state: str = "pending"
    created: float = 0.0
    updated: float = 0.0
    chunks_done: int = 0
    error: str = ""
    result: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in data.items() if k in known})

    def status_dict(self) -> Dict[str, Any]:
        """The wire-facing :class:`~repro.api.types.JobStatus` dict."""
        shared = JobStatus.__dataclass_fields__.keys() & vars(self).keys()
        status = JobStatus(**{name: getattr(self, name) for name in shared})
        return status.to_dict()


class JobStore:
    """Filesystem-backed job persistence with crash-safe writes."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        self.jobs_dir = os.path.join(state_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)

    # -- paths ---------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def record_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), RECORD_FILE)

    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), JOURNAL_FILE)

    # -- writes --------------------------------------------------------

    def save(self, record: JobRecord) -> None:
        """Atomically persist one record (tmp + fsync + rename + fsync)."""
        job_dir = self.job_dir(record.id)
        os.makedirs(job_dir, exist_ok=True)
        record.updated = time.time()
        data = json.dumps(record.to_dict(), sort_keys=True, indent=1)
        fd, tmp_path = tempfile.mkstemp(
            prefix=".job-", suffix=".tmp", dir=job_dir
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, os.path.join(job_dir, RECORD_FILE))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        dir_fd = os.open(job_dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    # -- reads ---------------------------------------------------------

    def load(self, job_id: str) -> Optional[JobRecord]:
        """One record by id, or ``None`` if absent/unreadable."""
        try:
            with open(self.record_path(job_id), "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        record = JobRecord.from_dict(data)
        if record.id != job_id or record.kind not in JOB_KINDS:
            return None
        if record.state not in JOB_STATES:
            return None
        return record

    def load_all(self) -> Tuple[List[JobRecord], int]:
        """Every readable record, sorted by creation time, plus a skip count.

        A job directory whose ``job.json`` is missing or unreadable
        (e.g. the daemon was killed before the very first save) is
        skipped and counted — never a startup failure.
        """
        records: List[JobRecord] = []
        skipped = 0
        try:
            names = sorted(os.listdir(self.jobs_dir))
        except OSError:
            return [], 0
        for name in names:
            if not os.path.isdir(self.job_dir(name)):
                continue
            record = self.load(name)
            if record is None:
                skipped += 1
                continue
            records.append(record)
        records.sort(key=lambda r: (r.created, r.id))
        return records, skipped
