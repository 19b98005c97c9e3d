"""Write-ahead job log: the service's single source of durable truth.

``repro serve`` keeps many users' dumps in flight for hours; the one
thing it must never do is *lose* or *corrupt* a job when the server
itself dies.  So every job transition is appended — fsynced, CRC32'd,
one JSON line — to ``jobs.wal`` before its side effects are considered
to have happened.  The WAL is read and written by the shard checkpoint
journal's own code (:mod:`repro.resilience.checkpoint`), so it fails
on damage exactly as the journal does:

* a torn trailing line is expected crash damage: truncated on the next
  writable open, skipped by read-only replayers;
* a line that is not a JSON object or fails its CRC32 — and a CRC-valid
  record whose fields have the wrong type, or that describes an
  impossible transition — raises
  :class:`~repro.resilience.errors.JobStoreCorruptError` naming the
  line, instead of silently replaying a wrong state;
* rotation rewrites the log atomically (temp file, fsync, rename), so a
  crash mid-rotation leaves the old log intact.

Replaying the log folds the per-job event stream into the explicit
state machine below; a SIGKILL'd server reloads the WAL and finds every
job exactly where it left it — ``RUNNING`` jobs still hold their shard
checkpoint journals, so resuming them reproduces the uninterrupted
run's report byte-for-byte (canonical form).
"""

from __future__ import annotations

import copy
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.resilience.checkpoint import (
    append_record,
    read_records,
    record_line,
    rewrite_file,
)
from repro.resilience.errors import InvalidJobIdError, JobStoreCorruptError, UnknownJobError

#: WAL schema version; bump on incompatible format changes.
JOBSTORE_VERSION = 1
#: First record of every WAL, and of every rotated one.
_HEADER = {"type": "header", "version": JOBSTORE_VERSION, "service": "repro.service"}

# ----------------------------------------------------------------- job states

QUEUED = "QUEUED"          #: accepted into the bounded admission queue
ADMITTED = "ADMITTED"      #: passed admission control, waiting for a worker
RUNNING = "RUNNING"        #: a worker is executing the attack pipeline
RETRYING = "RETRYING"      #: supervisor will re-admit after backoff
DONE = "DONE"              #: terminal — report written
FAILED = "FAILED"          #: terminal — quarantined after exhausted retries
CANCELLED = "CANCELLED"    #: terminal — operator cancel honoured
EXPIRED = "EXPIRED"        #: terminal — per-job deadline hit; partial
                           #: report written, checkpoint kept (resumable)

ALL_STATES = (QUEUED, ADMITTED, RUNNING, RETRYING, DONE, FAILED, CANCELLED, EXPIRED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, EXPIRED})
LIVE_STATES = frozenset(ALL_STATES) - TERMINAL_STATES

#: The explicit state machine.  ``RUNNING → RETRYING`` covers worker
#: failure, graceful drain, *and* crash recovery (a reloaded ``RUNNING``
#: job re-enters the queue through ``RETRYING`` so its attempt history
#: stays visible); ``RUNNING → RUNNING`` is deliberately absent — a
#: duplicate start without an intervening verdict is log corruption.
VALID_TRANSITIONS: dict[str | None, frozenset[str]] = {
    None: frozenset({QUEUED}),
    QUEUED: frozenset({ADMITTED, CANCELLED, FAILED}),
    ADMITTED: frozenset({RUNNING, CANCELLED, FAILED}),
    RUNNING: frozenset({DONE, FAILED, CANCELLED, EXPIRED, RETRYING}),
    RETRYING: frozenset({ADMITTED, CANCELLED, FAILED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
    EXPIRED: frozenset(),
}


@dataclass(frozen=True)
class JobSpec:
    """What a submitted job asks the attack pipeline to do.

    Immutable by design: the spec is written once at submit time and
    replayed verbatim on recovery, so a resumed job runs exactly what
    the submitter asked for.  ``faults`` is the chaos-testing hook — a
    serialized :class:`~repro.resilience.faults.FaultPlan` injected
    into the scan (never set by real submitters).
    """

    job_id: str
    dump: str
    key_bits: int = 256
    scan_workers: int = 1
    n_shards: int | None = None
    deadline_s: float | None = None
    priority: int = 1
    submitter: str = "anonymous"
    checkpoint: str | None = None
    faults: list | None = None

    def __post_init__(self) -> None:
        self.check_id(self.job_id)

    @staticmethod
    def check_id(job_id: str) -> None:
        """Refuse an id that cannot name the job's spool files and
        directory: empty, ``..``, holding a NUL, or a path of parts."""
        if job_id in ("", "..") or "\0" in job_id or Path(job_id).name != job_id:
            raise InvalidJobIdError(job_id)

    def to_json(self) -> dict:
        return {
            "job_id": self.job_id,
            "dump": self.dump,
            "key_bits": self.key_bits,
            "scan_workers": self.scan_workers,
            "n_shards": self.n_shards,
            "deadline_s": self.deadline_s,
            "priority": self.priority,
            "submitter": self.submitter,
            "checkpoint": self.checkpoint,
            "faults": self.faults,
        }

    @classmethod
    def from_json(cls, record: dict) -> "JobSpec":
        # Keys the spec no longer has (older builds persisted an
        # ``executor``) are ignored, so their WALs still replay.
        try:
            return cls(
                job_id=str(record["job_id"]),
                dump=str(record["dump"]),
                key_bits=int(record.get("key_bits", 256)),
                scan_workers=int(record.get("scan_workers", 1)),
                n_shards=(None if record.get("n_shards") is None
                          else int(record["n_shards"])),
                deadline_s=(None if record.get("deadline_s") is None
                            else float(record["deadline_s"])),
                priority=int(record.get("priority", 1)),
                submitter=str(record.get("submitter", "anonymous")),
                checkpoint=(None if record.get("checkpoint") is None
                            else str(record["checkpoint"])),
                faults=record.get("faults"),
            )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise JobStoreCorruptError(f"malformed job spec: {exc}") from exc


@dataclass
class Job:
    """One job's folded state: the spec plus everything that happened."""

    spec: JobSpec
    state: str = QUEUED
    #: How many times a worker entered ``RUNNING`` for this job.
    attempts: int = 0
    #: How many of those attempts ended in failure (drives quarantine;
    #: drain interrupts and crash recovery do not count against it).
    failures: int = 0
    submitted_at: float = 0.0
    admitted_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    #: Supervisor backoff gate: RETRYING jobs re-admit after this time.
    not_before: float = 0.0
    error: str | None = None
    report_path: str | None = None
    checkpoint_path: str | None = None
    #: Why the job most recently left RUNNING without a verdict
    #: ("drain", "server restart", an error string) — diagnostics only.
    retry_cause: str | None = None
    #: How many terminal events the log holds for this job; anything
    #: over one is a duplicated side effect and flagged as corruption.
    terminal_events: int = 0

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def admission_latency_s(self) -> float | None:
        """Submit-to-admission wait — the queue's health metric."""
        if self.admitted_at is None:
            return None
        return max(0.0, self.admitted_at - self.submitted_at)

    def status_dict(self) -> dict:
        """JSON-ready digest for ``repro status`` and the board."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "dump": self.spec.dump,
            "submitter": self.spec.submitter,
            "priority": self.spec.priority,
            "attempts": self.attempts,
            "failures": self.failures,
            "submitted_at": self.submitted_at,
            "admitted_at": self.admitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "admission_latency_s": self.admission_latency_s,
            "deadline_s": self.spec.deadline_s,
            "error": self.error,
            "report": self.report_path,
            "checkpoint": self.checkpoint_path,
            "retry_cause": self.retry_cause,
        }


def _field(record: dict, key: str, kind, default=None):
    """``record[key]`` converted by ``kind``; ``default`` when absent or null."""
    value = record.get(key)
    return default if value is None else kind(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _fold_event(jobs: dict[str, Job], record: dict) -> None:
    """Apply one WAL record to the folded job map, validating the move.

    Damage raises ``ValueError`` or ``TypeError``; every field is
    converted before the job changes, so a bad record changes nothing.
    """
    event = record.get("event")
    job_id = record.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise JobStoreCorruptError("the record names no job_id")
    if event == "snapshot":
        # A rotation snapshot replaces the job's folded state wholesale.
        jobs[job_id] = _job_from_snapshot(record, job_id)
        return
    if event not in ALL_STATES:
        raise JobStoreCorruptError(f"unknown event {event!r}")
    current = jobs.get(job_id)
    allowed = VALID_TRANSITIONS[None if current is None else current.state]
    if event not in allowed:
        held = "no prior state" if current is None else current.state
        raise JobStoreCorruptError(
            f"impossible transition {held} → {event} for job {job_id}"
        )
    t = _field(record, "t", float, 0.0)
    if current is None:
        jobs[job_id] = Job(spec=_spec_of(record.get("spec"), job_id),
                           state=QUEUED, submitted_at=t)
        return
    checkpoint = _field(record, "checkpoint", _text, current.checkpoint_path)
    error = _field(record, "error", _text, current.error)
    report = _field(record, "report", _text, current.report_path)
    cause = _field(record, "cause", _text)
    not_before = _field(record, "not_before", float, t)
    current.state = event
    if event == ADMITTED:
        # First admission pins the latency metric; re-admissions after
        # RETRYING keep the original (it measures the *queue*, not the
        # retry ladder).
        if current.admitted_at is None:
            current.admitted_at = t
        return
    current.checkpoint_path = checkpoint
    if event == RUNNING:
        current.attempts += 1
        current.started_at = t
    elif event == RETRYING:
        current.retry_cause = cause
        current.not_before = not_before
        if record.get("failure"):
            current.failures += 1
        current.error = error
    else:  # terminal
        current.finished_at = t
        current.terminal_events += 1
        current.error = error
        current.report_path = report


def _spec_of(record: dict, job_id: str) -> JobSpec:
    spec = JobSpec.from_json(record)
    if spec.job_id != job_id:
        raise JobStoreCorruptError(f"the spec of job {job_id} names job {spec.job_id}")
    return spec


def _job_from_snapshot(record: dict, job_id: str) -> Job:
    job = Job(
        spec=_spec_of(record.get("spec"), job_id),
        state=_text(record.get("state")),
        attempts=_field(record, "attempts", int, 0),
        failures=_field(record, "failures", int, 0),
        submitted_at=_field(record, "submitted_at", float, 0.0),
        admitted_at=_field(record, "admitted_at", float),
        started_at=_field(record, "started_at", float),
        finished_at=_field(record, "finished_at", float),
        not_before=_field(record, "not_before", float, 0.0),
        error=_field(record, "error", _text),
        report_path=_field(record, "report", _text),
        checkpoint_path=_field(record, "checkpoint", _text),
        retry_cause=_field(record, "retry_cause", _text),
        terminal_events=_field(record, "terminal_events", int, 0),
    )
    if job.state not in ALL_STATES:
        raise JobStoreCorruptError(f"snapshot holds unknown state {job.state!r}")
    return job


def _snapshot_record(job: Job) -> dict:
    return {
        "type": "job",
        "event": "snapshot",
        "job_id": job.job_id,
        "spec": job.spec.to_json(),
        "state": job.state,
        "attempts": job.attempts,
        "failures": job.failures,
        "submitted_at": job.submitted_at,
        "admitted_at": job.admitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "not_before": job.not_before,
        "error": job.error,
        "report": job.report_path,
        "checkpoint": job.checkpoint_path,
        "retry_cause": job.retry_cause,
        "terminal_events": job.terminal_events,
    }


def _fold_records(records: list[dict], path: Path) -> dict[str, Job]:
    if not records:
        raise JobStoreCorruptError(f"{path}: job log header is torn")
    header = records[0]
    if header.get("type") != "header":
        raise JobStoreCorruptError(f"{path}: job log does not start with a header")
    if header.get("version") != JOBSTORE_VERSION:
        raise JobStoreCorruptError(
            f"{path}: job log version {header.get('version')!r} not supported "
            f"(want {JOBSTORE_VERSION})"
        )
    jobs: dict[str, Job] = {}
    for number, record in enumerate(records[1:], start=2):
        try:
            if record.get("type") != "job":
                raise JobStoreCorruptError(
                    f"unexpected record type {record.get('type')!r}")
            _fold_event(jobs, record)
        except (OverflowError, TypeError, ValueError) as exc:
            raise JobStoreCorruptError(f"{path}: line {number}: {exc}") from exc
    return jobs


def replay_jobs(path: str | Path) -> dict[str, Job]:
    """Read-only replay of a WAL — what ``repro status`` uses.

    Never modifies the file (the server may be appending to it); a torn
    tail is skipped, interior damage raises
    :class:`~repro.resilience.errors.JobStoreCorruptError`.  A missing
    or empty log is an empty service, not an error.
    """
    path = Path(path)
    if not path.exists() or path.stat().st_size == 0:
        return {}
    return _fold_records(read_records(path, JobStoreCorruptError)[0], path)


class JobStore:
    """Single-writer append-only WAL with atomic rotation.

    Exactly one process — the server — holds a writable store; readers
    use :func:`replay_jobs`.  Every append is flushed and fsynced before
    :meth:`append_event` returns, so a transition the scheduler acted on
    is already durable when the next SIGKILL lands.

    The log grows one line per transition; :meth:`rotate` compacts it to
    one snapshot per job and replaces the log atomically, so a crash
    mid-rotation loses nothing.
    Rotation fires automatically once the event count since the last
    compaction passes ``rotate_after`` records.
    """

    def __init__(self, path: str | Path, rotate_after: int = 512) -> None:
        self.path = Path(path)
        self.rotate_after = rotate_after
        self.jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._events_since_rotate = 0

    # -------------------------------------------------------------- creation

    @classmethod
    def open(cls, path: str | Path, rotate_after: int = 512) -> "JobStore":
        """Create or recover the WAL, truncating a torn tail in place."""
        store = cls(path, rotate_after=rotate_after)
        if store.path.exists() and store.path.stat().st_size > 0:
            records, good_bytes = read_records(store.path, JobStoreCorruptError)
            store.jobs = _fold_records(records, store.path)
            if good_bytes < store.path.stat().st_size:
                os.truncate(store.path, good_bytes)
            store._events_since_rotate = max(0, len(records) - 1)
        else:
            store.path.parent.mkdir(parents=True, exist_ok=True)
            rewrite_file(store.path, record_line(_HEADER) + "\n")
        return store

    # ------------------------------------------------------------- appending

    def append_event(self, job_id: str, event: str, *,
                     spec: JobSpec | None = None, t: float | None = None,
                     **fields) -> Job:
        """Validate, durably append, and fold one transition.

        The record is first folded into a copy of the job, so one that
        replay would refuse (an impossible transition, a first record
        without its spec, a field of the wrong type) raises
        ``ValueError`` before it touches the disk.  The real fold
        happens *after* the fsync succeeds, so the scheduler never acts
        on a transition that is not yet durable.
        """
        with self._lock:
            record: dict = {"type": "job", "job_id": job_id, "event": event,
                            "t": time.time() if t is None else t}
            if spec is not None:
                record["spec"] = spec.to_json()
            record.update({k: v for k, v in fields.items() if v is not None})
            current = self.jobs.get(job_id)
            _fold_event({} if current is None else {job_id: copy.copy(current)}, record)
            append_record(self.path, record)
            _fold_event(self.jobs, record)
            self._events_since_rotate += 1
            job = self.jobs[job_id]
        if self._events_since_rotate > self.rotate_after:
            self.rotate()
        return job

    # -------------------------------------------------------------- rotation

    def rotate(self) -> None:
        """Compact the log to one snapshot per job, atomically.

        :func:`~repro.resilience.checkpoint.rewrite_file` fsyncs the
        replacement before it swings the name over, so any crash leaves
        either the old log or the new one — never a half-written hybrid.
        """
        with self._lock:
            records = [_HEADER] + [_snapshot_record(self.jobs[job_id])
                                   for job_id in sorted(self.jobs)]
            rewrite_file(self.path, "".join(record_line(r) + "\n" for r in records))
            self._events_since_rotate = 0

    # --------------------------------------------------------------- queries

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self.jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    def live_jobs(self) -> list[Job]:
        """Jobs not yet in a terminal state, oldest submission first."""
        with self._lock:
            live = [j for j in self.jobs.values() if not j.terminal]
        return sorted(live, key=lambda j: (j.submitted_at, j.job_id))

    def pending_count(self) -> int:
        """Jobs occupying the bounded admission queue (not running)."""
        with self._lock:
            return sum(1 for j in self.jobs.values()
                       if j.state in (QUEUED, ADMITTED, RETRYING))
