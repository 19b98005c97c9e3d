"""Client side of the service: everything that is *not* the server.

Submission, status, cancel, and watch all work through the service
directory — atomic spool files in, read-only WAL/board replay out — so
they need no live connection: ``submit`` against a stopped server
spools durably (the next ``serve`` picks it up), and ``status`` can
post-mortem a SIGKILL'd service.
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path

from repro.resilience.checkpoint import read_json_object, rewrite_file
from repro.resilience.errors import AdmissionRejectedError, UnknownJobError
from repro.service.jobstore import TERMINAL_STATES, JobSpec, replay_jobs
from repro.service.server import ServiceDirs


def new_job_id() -> str:
    """A collision-resistant job id (no meaning, just identity)."""
    return f"job-{uuid.uuid4().hex[:12]}"


def submit_job(service_dir: str | Path, spec: JobSpec) -> str:
    """Durably spool one submission; returns the job id.

    The spec is written to a temp name and renamed into the spool, so
    the server can never pick up a half-written submission, and a
    submission that lands while the server is down simply waits for the
    next start.
    """
    dirs = ServiceDirs.at(service_dir).ensure()
    rewrite_file(dirs.submission(spec.job_id), json.dumps(spec.to_json(), indent=2) + "\n")
    return spec.job_id


def wait_for_admission(service_dir: str | Path, job_id: str,
                       timeout_s: float = 10.0) -> str:
    """Block until the server admits or rejects a spooled submission.

    Returns the job's state once it exists in the WAL.  A rejection
    receipt raises the same typed
    :class:`~repro.resilience.errors.AdmissionRejectedError` the server
    recorded, so CLI and in-process submitters see identical
    backpressure.  Times out (``TimeoutError``) when no server picks
    the submission up — the submission stays spooled.
    """
    dirs = ServiceDirs.at(service_dir)
    deadline = time.monotonic() + timeout_s
    while True:
        receipt = _rejection_receipt(dirs, job_id)
        if receipt is not None:
            raise AdmissionRejectedError(
                job_id,
                int(receipt.get("pending", -1)),
                int(receipt.get("max_queued", -1)),
            )
        jobs = replay_jobs(dirs.wal)
        if job_id in jobs:
            return jobs[job_id].state
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"no server picked up job {job_id} within {timeout_s:g}s "
                f"(still spooled in {dirs.spool})"
            )
        time.sleep(0.05)


def _rejection_receipt(dirs: ServiceDirs, job_id: str) -> dict | None:
    """The server's rejection receipt for a job: ``None`` when there is
    none, ``{}`` when it exists but does not read back."""
    path = dirs.rejection(job_id)
    if not path.exists():
        return None
    return read_json_object(path) or {}


def job_status(service_dir: str | Path, job_id: str) -> dict:
    """One job's status digest from a read-only WAL replay."""
    JobSpec.check_id(job_id)
    dirs = ServiceDirs.at(service_dir)
    jobs = replay_jobs(dirs.wal)
    if job_id not in jobs:
        if dirs.submission(job_id).exists():
            return {"job_id": job_id, "state": "SPOOLED",
                    "detail": "waiting for a server to pick it up"}
        receipt = _rejection_receipt(dirs, job_id)
        if receipt is not None:
            return {"job_id": job_id, "state": "REJECTED",
                    "detail": receipt.get("detail", "admission rejected")}
        raise UnknownJobError(job_id)
    return jobs[job_id].status_dict()


def service_status(service_dir: str | Path) -> dict:
    """Whole-service digest: per-state counts plus every job's status."""
    dirs = ServiceDirs.at(service_dir)
    jobs = replay_jobs(dirs.wal)
    spooled = sorted(p.name[: -len(".submit.json")]
                     for p in dirs.spool.glob("*.submit.json")) \
        if dirs.spool.exists() else []
    counts: dict[str, int] = {}
    for job in jobs.values():
        counts[job.state] = counts.get(job.state, 0) + 1
    return {
        "service_dir": str(dirs.root),
        "jobs": {job_id: jobs[job_id].status_dict() for job_id in sorted(jobs)},
        "counts": counts,
        "spooled": spooled,
        "board": read_board(service_dir),
    }


def read_board(service_dir: str | Path) -> dict | None:
    """The server's last heartbeat board, or None when never written."""
    return read_json_object(ServiceDirs.at(service_dir).board)


def request_cancel(service_dir: str | Path, job_id: str) -> None:
    """Spool a cancel marker for the server to apply on its next tick."""
    JobSpec.check_id(job_id)
    rewrite_file(ServiceDirs.at(service_dir).ensure().cancel_marker(job_id), "")


def wait_terminal(service_dir: str | Path, job_id: str,
                  timeout_s: float = 300.0, poll_s: float = 0.1) -> dict:
    """Block until the job reaches a terminal state; returns its digest."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            status = job_status(service_dir, job_id)
        except UnknownJobError:
            status = None
        if status and status["state"] in TERMINAL_STATES:
            return status
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"job {job_id} not terminal after {timeout_s:g}s "
                f"(last seen: {status['state'] if status else 'unknown'})"
            )
        time.sleep(poll_s)


def watch_job(service_dir: str | Path, job_id: str, poll_s: float = 0.25,
              timeout_s: float | None = None):
    """Yield board/WAL progress snapshots until the job is terminal.

    Each snapshot is a status digest (plus ``beats``/``progress`` when
    the board has them); consumers print deltas.  Yields at least one
    snapshot; stops after the terminal one.
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        board = read_board(service_dir)
        snapshot = None
        if board and job_id in board.get("jobs", {}):
            snapshot = board["jobs"][job_id]
        else:
            try:
                snapshot = job_status(service_dir, job_id)
            except UnknownJobError:
                snapshot = {"job_id": job_id, "state": "UNKNOWN"}
        yield snapshot
        if snapshot.get("state") in TERMINAL_STATES:
            return
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(f"watch of job {job_id} timed out")
        time.sleep(poll_s)
