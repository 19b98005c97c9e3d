"""The ``repro serve`` engine: one directory is the whole service.

A service directory is self-describing and crash-safe::

    <service-dir>/
      jobs.wal          write-ahead job log (single writer: the server)
      spool/            submissions, cancels, and rejection receipts
      jobs/<job-id>/    per-job shard checkpoint journal + report.json
      board.json        heartbeat board, atomically rewritten each tick

Clients never talk to the server process directly: ``submit`` drops a
spec into the spool (atomic rename, so a half-written submission is
never picked up), ``status`` replays the WAL read-only, ``watch`` polls
the board.  That makes the whole control plane as durable as the
filesystem — a submission spooled while the server is down is admitted
on the next start, and a SIGKILL at any instant loses nothing.

Admission control happens at spool pickup (and synchronously for
in-process submitters): past ``max_queued`` waiting jobs the server
writes a ``<job-id>.rejected.json`` receipt carrying the typed
:class:`~repro.resilience.errors.AdmissionRejectedError` message
instead of queuing the job — backpressure the submitter can see.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.resilience.checkpoint import count_shard_records, read_json_object, rewrite_file
from repro.resilience.deadline import Deadline
from repro.resilience.errors import AdmissionRejectedError, ReproError
from repro.resilience.retry import RetryPolicy
from repro.resilience.shutdown import (
    EXIT_INTERRUPTED,
    GracefulShutdown,
)
from repro.service.jobstore import Job, JobSpec, JobStore
from repro.service.scheduler import (
    VERDICT_CANCELLED,
    VERDICT_DONE,
    VERDICT_EXPIRED,
    VERDICT_FAILED,
    VERDICT_INTERRUPTED,
    JobOutcome,
    Scheduler,
    SchedulerConfig,
)

#: Board schema version (the board is advisory; readers tolerate drift).
BOARD_VERSION = 1


@dataclass(frozen=True)
class ServiceDirs:
    """Path layout helpers for one service directory."""

    root: Path

    @classmethod
    def at(cls, root: str | Path) -> "ServiceDirs":
        return cls(root=Path(root))

    @property
    def wal(self) -> Path:
        return self.root / "jobs.wal"

    @property
    def spool(self) -> Path:
        return self.root / "spool"

    @property
    def board(self) -> Path:
        return self.root / "board.json"

    def job_dir(self, job_id: str) -> Path:
        return self.root / "jobs" / job_id

    def submission(self, job_id: str) -> Path:
        return self.spool / f"{job_id}.submit.json"

    def cancel_marker(self, job_id: str) -> Path:
        return self.spool / f"{job_id}.cancel"

    def rejection(self, job_id: str) -> Path:
        return self.spool / f"{job_id}.rejected.json"

    def ensure(self) -> "ServiceDirs":
        self.spool.mkdir(parents=True, exist_ok=True)
        (self.root / "jobs").mkdir(parents=True, exist_ok=True)
        return self


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write JSON so readers never see a torn file (:func:`rewrite_file`)."""
    rewrite_file(path, json.dumps(payload, indent=2) + "\n")


# ------------------------------------------------------------- job execution


def execute_attack_job(job: Job, dirs: ServiceDirs, stop: GracefulShutdown,
                       on_beat=None) -> JobOutcome:
    """Run one attempt of a job through the resilient attack pipeline.

    This is the seam between the service and the attack runtime: the
    job's shard scan checkpoints to the job directory, honours the
    per-job :class:`~repro.resilience.deadline.Deadline`, and drains on
    the attempt's stop flag.  The report lands atomically (tmp +
    rename), so a crash mid-write can only ever be replayed — never
    observed as a torn report — and a resumed attempt rewrites the
    identical canonical bytes.
    """
    from repro.attack import AttackConfig, Ddr4ColdBootAttack
    from repro.attack.report import report_to_dict
    from repro.dram.image import MemoryImage
    from repro.resilience.faults import FaultPlan, FaultSpec

    spec = job.spec
    job_dir = dirs.job_dir(spec.job_id)
    job_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = Path(spec.checkpoint) if spec.checkpoint else job_dir / "checkpoint.jsonl"
    report_path = job_dir / "report.json"
    beat = on_beat or (lambda: None)

    fault_plan = None
    if spec.faults:
        fault_plan = FaultPlan(
            faults=tuple((int(offset), FaultSpec(**fault_spec))
                         for offset, fault_spec in spec.faults),
            seed=1,
        )

    try:
        dump = MemoryImage.load_tolerant(spec.dump)
        attack = Ddr4ColdBootAttack(AttackConfig(key_bits=spec.key_bits))
        beat()
        report = attack.run_sharded(
            dump,
            workers=spec.scan_workers,
            n_shards=spec.n_shards,
            checkpoint=checkpoint,
            resume=True,
            deadline=Deadline.after(spec.deadline_s) if spec.deadline_s else None,
            stop=stop,
            fault_plan=fault_plan,
            on_event=lambda message: beat(),
        )
    except ReproError as exc:
        return JobOutcome(verdict=VERDICT_FAILED, error=f"{type(exc).__name__}: {exc}",
                          checkpoint_path=str(checkpoint))
    beat()

    payload = report_to_dict(report, include_keys=True)
    payload["service"] = {
        "job_id": spec.job_id,
        # The RUNNING fold already counted this attempt into the shared
        # Job instance before the executor was called.
        "attempts": max(1, job.attempts),
        "admission_latency_s": job.admission_latency_s,
        "terminal_state": None,  # patched below once the verdict is known
        "submitter": spec.submitter,
        "priority": spec.priority,
    }

    if report.interrupted:
        # The attempt's stop flag fired: a cancel lands CANCELLED, a
        # server drain lands RETRYING (resumable) — either way the
        # journal already holds every completed shard.
        if stop.cause == "cancel":
            payload["service"]["terminal_state"] = "CANCELLED"
            atomic_write_json(report_path, payload)
            return JobOutcome(verdict=VERDICT_CANCELLED,
                              report_path=str(report_path),
                              checkpoint_path=str(checkpoint))
        return JobOutcome(verdict=VERDICT_INTERRUPTED,
                          checkpoint_path=str(checkpoint))
    if report.deadline_expired:
        payload["service"]["terminal_state"] = "EXPIRED"
        atomic_write_json(report_path, payload)
        return JobOutcome(verdict=VERDICT_EXPIRED, report_path=str(report_path),
                          checkpoint_path=str(checkpoint),
                          error=f"deadline of {spec.deadline_s:g}s expired "
                                f"({len(report.unscanned_shards)} shards left, "
                                "resumable)")
    if report.quarantined_shards:
        return JobOutcome(verdict=VERDICT_FAILED,
                          checkpoint_path=str(checkpoint),
                          error=f"{len(report.quarantined_shards)} shards "
                                "quarantined after exhausted retries")
    payload["service"]["terminal_state"] = "DONE"
    atomic_write_json(report_path, payload)
    return JobOutcome(verdict=VERDICT_DONE, report_path=str(report_path),
                      checkpoint_path=str(checkpoint))


# ------------------------------------------------------------------- engine


class JobEngine:
    """The long-running server: spool pickup, scheduling, the board.

    Instantiable in-process (tests, embedding) or via ``repro serve``.
    ``poll_interval_s`` bounds how stale the board and spool pickup can
    be; the scheduler itself reacts to in-process submissions
    immediately.
    """

    def __init__(
        self,
        service_dir: str | Path,
        workers: int = 2,
        max_queued: int = 16,
        retry_policy: RetryPolicy | None = None,
        poll_interval_s: float = 0.2,
        on_event=None,
    ) -> None:
        self.dirs = ServiceDirs.at(service_dir).ensure()
        self.poll_interval_s = poll_interval_s
        self.on_event = on_event or (lambda message: None)
        self.store = JobStore.open(self.dirs.wal)
        config = SchedulerConfig(
            workers=workers,
            max_queued=max_queued,
            retry_policy=retry_policy or RetryPolicy(max_attempts=3,
                                                     base_delay_s=0.2,
                                                     max_delay_s=5.0),
        )
        self._beats: dict[str, int] = {}
        #: Board progress of terminal jobs, whose journals no longer change.
        self._final_progress: dict[str, dict | None] = {}
        self.scheduler = Scheduler(self.store, self._execute, config,
                                   on_event=self.on_event)

    # ------------------------------------------------------------- executor

    def _execute(self, job: Job, stop: GracefulShutdown) -> JobOutcome:
        def beat() -> None:
            self._beats[job.job_id] = self._beats.get(job.job_id, 0) + 1

        return execute_attack_job(job, self.dirs, stop, on_beat=beat)

    # ---------------------------------------------------------- spool & board

    def poll_spool(self) -> int:
        """Admit (or reject) spooled submissions; apply spooled cancels.

        A submission file is deleted only *after* its QUEUED record is
        durable in the WAL (or its rejection receipt is written), so a
        crash between the two replays the pickup instead of losing the
        job; the duplicate-submit guard makes the replay idempotent.
        """
        picked = 0
        for path in sorted(self.dirs.spool.glob("*.submit.json")):
            try:
                spec = JobSpec.from_json(read_json_object(path) or {})
            except ReproError as exc:
                self.on_event(f"dropping unreadable submission {path.name}: {exc}")
                path.unlink(missing_ok=True)
                continue
            if spec.job_id in self.store.jobs:
                path.unlink(missing_ok=True)  # crash-replayed pickup
                continue
            try:
                self.scheduler.submit(spec)
                picked += 1
            except AdmissionRejectedError as exc:
                atomic_write_json(self.dirs.rejection(spec.job_id), {
                    "job_id": spec.job_id,
                    "error": "AdmissionRejectedError",
                    "detail": str(exc),
                    "pending": exc.pending,
                    "max_queued": exc.max_queued,
                })
                self.on_event(str(exc))
            path.unlink(missing_ok=True)
        for path in sorted(self.dirs.spool.glob("*.cancel")):
            job_id = path.name[: -len(".cancel")]
            try:
                state = self.scheduler.cancel(job_id)
                self.on_event(f"cancel {job_id}: now {state}")
            except ReproError as exc:
                self.on_event(f"cancel {job_id} failed: {exc}")
            path.unlink(missing_ok=True)
        if picked:
            self.scheduler.kick()
        return picked

    def write_board(self, draining: bool = False) -> None:
        """Publish the heartbeat board (atomic, advisory)."""
        jobs = {}
        for job_id, job in sorted(self.store.jobs.items()):
            digest = job.status_dict()
            digest["beats"] = self._beats.get(job_id, 0)
            digest["progress"] = self._journal_progress(job)
            jobs[job_id] = digest
        atomic_write_json(self.dirs.board, {
            "version": BOARD_VERSION,
            "pid": os.getpid(),
            "updated_at": time.time(),
            "draining": draining,
            "workers": self.scheduler.config.workers,
            "max_queued": self.scheduler.config.max_queued,
            "pending": self.store.pending_count(),
            "running": self.scheduler.running_ids(),
            "jobs": jobs,
        })

    def _journal_progress(self, job: Job) -> dict | None:
        """Completed-shard count straight from the job's checkpoint; a
        terminal job's is read once and remembered."""
        if job.job_id in self._final_progress:
            return self._final_progress[job.job_id]
        journal = Path(job.checkpoint_path
                       or self.dirs.job_dir(job.job_id) / "checkpoint.jsonl")
        progress = None
        if journal.exists():
            progress = {"journaled_shards": count_shard_records(journal)}
        if job.terminal:
            self._final_progress[job.job_id] = progress
        return progress

    # ----------------------------------------------------------------- loop

    def serve_forever(self, stop: GracefulShutdown | None = None,
                      idle_exit_s: float | None = None) -> int:
        """Run until drained by signal (or idle past ``idle_exit_s``).

        Exit status follows the CLI convention: 0 for a clean idle
        exit, :data:`~repro.resilience.shutdown.EXIT_INTERRUPTED` (3)
        when a signal drained the server with jobs still live — the
        queue is durable, so a restart resumes them.
        """
        stop = stop or GracefulShutdown()
        self.scheduler.start()
        self.on_event(
            f"serving {self.dirs.root} (pid {os.getpid()}, "
            f"{self.scheduler.config.workers} workers, "
            f"queue bound {self.scheduler.config.max_queued})")
        idle_since: float | None = None
        while not stop.requested:
            self.poll_spool()
            self.write_board()
            if idle_exit_s is not None:
                if self.scheduler.idle() and not list(
                        self.dirs.spool.glob("*.submit.json")):
                    if idle_since is None:
                        idle_since = time.monotonic()
                    elif time.monotonic() - idle_since >= idle_exit_s:
                        self.on_event("idle — exiting")
                        break
                else:
                    idle_since = None
            stop.stop_requested.wait(self.poll_interval_s)
        if stop.requested:
            self.on_event(f"drain requested ({stop.cause}); "
                          "closing admission, draining running jobs")
            clean = self.scheduler.drain(stop)
            self.write_board(draining=True)
            live = self.store.live_jobs()
            self.on_event(
                f"drained ({'clean' if clean else 'forced'}); "
                f"{len(live)} job(s) still live and durable")
            return EXIT_INTERRUPTED if live else 0
        self.scheduler.drain(GracefulShutdown())
        self.write_board()
        return 0
