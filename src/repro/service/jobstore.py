"""Write-ahead job log: the service's single source of durable truth.

``repro serve`` keeps many users' dumps in flight for hours; the one
thing it must never do is *lose* or *corrupt* a job when the server
itself dies.  So every job transition is appended — fsynced, CRC32'd,
one JSON line — to ``jobs.wal`` before its side effects are considered
to have happened, following the same crash-safety conventions as the
shard checkpoint journal (:mod:`repro.resilience.checkpoint`):

* a torn trailing line is expected crash damage: dropped and truncated
  on the next writable open, skipped by read-only replayers;
* every record carries a CRC32 of its canonical JSON form, so content
  rot is rejected (:class:`~repro.resilience.errors.JobStoreCorruptError`)
  instead of silently replaying a wrong state;
* interior garbage means the log cannot be trusted and raises, naming
  the offending line;
* the log is rewritten *atomically* (tmp + fsync + ``os.replace``)
  when it rotates, so a crash mid-rotation leaves the old log intact.

Replaying the log folds the per-job event stream into the explicit
state machine below; a SIGKILL'd server reloads the WAL and finds every
job exactly where it left it — ``RUNNING`` jobs still hold their shard
checkpoint journals, so resuming them reproduces the uninterrupted
run's report byte-for-byte (canonical form).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.resilience.checkpoint import line_crc
from repro.resilience.errors import JobStoreCorruptError, UnknownJobError

#: WAL schema version; bump on incompatible format changes.
JOBSTORE_VERSION = 1

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
        except (KeyError, TypeError, ValueError) as exc:
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


def _fold_event(jobs: dict[str, Job], record: dict, path: Path, line: int) -> None:
    """Apply one WAL record to the folded job map, validating the move."""
    event = record.get("event")
    job_id = record.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise JobStoreCorruptError(f"{path}: record on line {line} names no job_id")
    if event == "snapshot":
        # A rotation snapshot replaces the job's folded state wholesale.
        jobs[job_id] = _job_from_snapshot(record, path, line)
        return
    if event not in ALL_STATES:
        raise JobStoreCorruptError(
            f"{path}: unknown event {event!r} on line {line}"
        )
    current = jobs.get(job_id)
    allowed = VALID_TRANSITIONS[None if current is None else current.state]
    if event not in allowed:
        held = "no prior state" if current is None else current.state
        raise JobStoreCorruptError(
            f"{path}: impossible transition {held} → {event} for job "
            f"{job_id} on line {line}"
        )
    t = float(record.get("t", 0.0))
    if current is None:
        spec = JobSpec.from_json(record.get("spec") or {})
        current = Job(spec=spec, state=QUEUED, submitted_at=t)
        jobs[job_id] = current
        return
    current.state = event
    if event == ADMITTED:
        # First admission pins the latency metric; re-admissions after
        # RETRYING keep the original (it measures the *queue*, not the
        # retry ladder).
        if current.admitted_at is None:
            current.admitted_at = t
    elif event == RUNNING:
        current.attempts += 1
        current.started_at = t
        current.checkpoint_path = record.get("checkpoint", current.checkpoint_path)
    elif event == RETRYING:
        current.retry_cause = record.get("cause")
        current.not_before = float(record.get("not_before", t))
        if record.get("failure"):
            current.failures += 1
        current.error = record.get("error", current.error)
        current.checkpoint_path = record.get("checkpoint", current.checkpoint_path)
    if event in TERMINAL_STATES:
        current.finished_at = t
        current.terminal_events += 1
        current.error = record.get("error", current.error)
        current.report_path = record.get("report", current.report_path)
        current.checkpoint_path = record.get("checkpoint", current.checkpoint_path)


def _job_from_snapshot(record: dict, path: Path, line: int) -> Job:
    try:
        spec = JobSpec.from_json(record["spec"])
        job = Job(
            spec=spec,
            state=str(record["state"]),
            attempts=int(record.get("attempts", 0)),
            failures=int(record.get("failures", 0)),
            submitted_at=float(record.get("submitted_at", 0.0)),
            admitted_at=record.get("admitted_at"),
            started_at=record.get("started_at"),
            finished_at=record.get("finished_at"),
            not_before=float(record.get("not_before", 0.0)),
            error=record.get("error"),
            report_path=record.get("report"),
            checkpoint_path=record.get("checkpoint"),
            retry_cause=record.get("retry_cause"),
            terminal_events=int(record.get("terminal_events", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise JobStoreCorruptError(
            f"{path}: malformed snapshot on line {line}: {exc}"
        ) from exc
    if job.state not in ALL_STATES:
        raise JobStoreCorruptError(
            f"{path}: snapshot on line {line} holds unknown state {job.state!r}"
        )
    return job


def _snapshot_record(job: Job) -> dict:
    record = {
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
    record["crc"] = line_crc(record)
    return record


def _parse_lines(raw: bytes, path: Path) -> tuple[list[dict], int]:
    """Split a WAL into records, tolerating only a torn trailing line.

    Returns ``(records, good_bytes)`` where ``good_bytes`` is how much
    of the file parses cleanly — less than ``len(raw)`` exactly when a
    torn tail should be truncated by a writable opener.
    """
    lines = raw.split(b"\n")
    torn_tail = lines[-1] != b""
    body = lines[:-1]
    good_bytes = len(raw) - (len(lines[-1]) if torn_tail else 0)
    records: list[dict] = []
    for index, line in enumerate(body, start=1):
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            if index == len(body) and not torn_tail:
                # Torn final line that happened to contain a newline.
                good_bytes -= len(line) + 1
                break
            raise JobStoreCorruptError(
                f"{path}: unreadable record on line {index}: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise JobStoreCorruptError(
                f"{path}: record on line {index} is not a JSON object"
            )
        stored = record.get("crc")
        if stored is not None and stored != line_crc(record):
            raise JobStoreCorruptError(
                f"{path}: CRC mismatch on line {index} — the record was "
                "altered after it was written and cannot be replayed"
            )
        records.append(record)
    return records, good_bytes


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
    for index, record in enumerate(records[1:], start=2):
        if record.get("type") != "job":
            raise JobStoreCorruptError(
                f"{path}: unexpected record type {record.get('type')!r} "
                f"on line {index}"
            )
        _fold_event(jobs, record, path, index)
    return jobs


def replay_jobs(path: str | Path) -> dict[str, Job]:
    """Read-only replay of a WAL — what ``repro status`` uses.

    Never modifies the file (the server may be appending to it); a torn
    tail is skipped, interior damage raises
    :class:`~repro.resilience.errors.JobStoreCorruptError`.  A missing
    or empty log is an empty service, not an error.
    """
    path = Path(path)
    if not path.exists():
        return {}
    raw = path.read_bytes()
    if not raw:
        return {}
    records, _ = _parse_lines(raw, path)
    return _fold_records(records, path)


class JobStore:
    """Single-writer append-only WAL with atomic rotation.

    Exactly one process — the server — holds a writable store; readers
    use :func:`replay_jobs`.  Every append is flushed and fsynced before
    :meth:`append_event` returns, so a transition the scheduler acted on
    is already durable when the next SIGKILL lands.

    The log grows one line per transition; :meth:`rotate` compacts it to
    one snapshot per job, written to a temp file, fsynced, and
    ``os.replace``'d over the log so a crash mid-rotation loses nothing.
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
        """Create or recover the WAL, repairing a torn tail in place."""
        store = cls(path, rotate_after=rotate_after)
        if store.path.exists() and store.path.stat().st_size > 0:
            raw = store.path.read_bytes()
            records, good_bytes = _parse_lines(raw, store.path)
            store.jobs = _fold_records(records, store.path)
            if good_bytes < len(raw):
                with open(store.path, "r+b") as handle:
                    handle.truncate(good_bytes)
            store._events_since_rotate = max(0, len(records) - 1)
        else:
            store._write_header()
        return store

    def _write_header(self) -> None:
        record = {"type": "header", "version": JOBSTORE_VERSION,
                  "service": "repro.service"}
        record["crc"] = line_crc(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------- appending

    def append_event(self, job_id: str, event: str, *,
                     spec: JobSpec | None = None, t: float | None = None,
                     **fields) -> Job:
        """Validate, durably append, and fold one transition.

        The in-memory fold happens *after* the fsync succeeds, so the
        scheduler never acts on a transition that is not yet durable.
        """
        with self._lock:
            record: dict = {"type": "job", "job_id": job_id, "event": event,
                            "t": time.time() if t is None else t}
            if spec is not None:
                record["spec"] = spec.to_json()
            record.update({k: v for k, v in fields.items() if v is not None})
            # Validate against the folded state before touching the disk.
            current = self.jobs.get(job_id)
            if event != "snapshot":
                if event not in ALL_STATES:
                    raise ValueError(f"unknown job event {event!r}")
                allowed = VALID_TRANSITIONS[None if current is None else current.state]
                if event not in allowed:
                    held = "no prior state" if current is None else current.state
                    raise JobStoreCorruptError(
                        f"refusing impossible transition {held} → {event} "
                        f"for job {job_id}"
                    )
                if current is None and spec is None:
                    raise ValueError("a job's first record must carry its spec")
            record["crc"] = line_crc(record)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            _fold_event(self.jobs, record, self.path, -1)
            self._events_since_rotate += 1
            job = self.jobs[job_id]
        if self._events_since_rotate > self.rotate_after:
            self.rotate()
        return job

    # -------------------------------------------------------------- rotation

    def rotate(self) -> None:
        """Compact the log to one snapshot per job, atomically.

        The replacement is complete and fsynced before ``os.replace``
        swings the name over, so any crash leaves either the old log or
        the new one — never a half-written hybrid.
        """
        with self._lock:
            header = {"type": "header", "version": JOBSTORE_VERSION,
                      "service": "repro.service"}
            header["crc"] = line_crc(header)
            lines = [json.dumps(header)]
            for job_id in sorted(self.jobs):
                lines.append(json.dumps(_snapshot_record(self.jobs[job_id])))
            tmp = self.path.with_name(self.path.name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
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
