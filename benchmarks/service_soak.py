"""Service soak: SIGKILL the job server mid-fleet, lose nothing.

The ``repro serve`` tentpole claims the job engine is *crash-only* at
the whole-service level: whatever instant a SIGKILL (or SIGTERM drain,
deadline expiry, overload, scripted fault storm, or cancel) lands, the
service either

* **completes** every admitted job with a report canonically
  byte-identical to an undisturbed run's, or
* **holds** it durably — spooled, queued, or resumable from its shard
  journal — so the next ``serve`` finishes it without redoing or
  duplicating work.

``python -m benchmarks.service_soak`` soaks that claim with *real*
server processes (threads cannot be SIGKILL'd): each iteration rotates
through eight scenarios, drives the actual CLI engine over a scratch
service directory, kills it at journal-watcher-chosen instants, restarts
it, and checks three invariants everywhere they apply — zero lost jobs
(every accepted job reaches a terminal state), zero duplicated side
effects (exactly one terminal WAL record per job), and byte-identical
resumed reports (:func:`repro.attack.report.canonical_report_bytes`).
The result is ``ROBUST_service.json`` (schema ``robust-service/v1``),
validated before it is written; the record carries the soak's seed and
the exact one-line command that reproduces it.  ``--smoke`` runs one
rotation for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.attack.report import canonical_report_bytes, load_report_json
from repro.attack.sweep import synthetic_dump
from repro.resilience.checkpoint import count_shard_records
from repro.resilience.errors import AdmissionRejectedError
from repro.resilience.faults import PERMANENT
from repro.resilience.shutdown import EXIT_INTERRUPTED
from repro.service import (
    JobSpec,
    replay_jobs,
    request_cancel,
    submit_job,
    wait_for_admission,
)
from repro.service.jobstore import TERMINAL_STATES

#: Schema tag for downstream consumers of the JSON artifact.
SERVICE_SCHEMA = "robust-service/v1"

#: One rotation exercises every failure mode once; the default soak runs
#: three rotations (24 iterations) so each mode fires at several
#: different kill instants.
SCENARIOS = (
    "kill-mid-job",
    "kill-mid-fleet",
    "kill-before-pickup",
    "overload-reject",
    "deadline-expiry",
    "retry-quarantine",
    "cancel-mid-job",
    "drain-sigterm",
)

DEFAULT_ROTATIONS = 3
N_SHARDS = 8
SCAN_WORKERS = 2

_ITERATION_FIELDS = {
    "iteration": int,
    "scenario": str,
    "jobs_submitted": int,
    "jobs_rejected": int,
    "server_starts": int,
    "kills": int,
    "terminal_states": dict,
    "identity_checks": int,
    "byte_identical": bool,
    "duplicate_side_effects": int,
    "lost_jobs": list,
    "seconds": float,
    "violations": list,
}

_ACCEPTANCE_BOOLS = (
    "zero_violations",
    "zero_lost_jobs",
    "zero_duplicate_side_effects",
    "all_resumed_byte_identical",
    "kill_exercised",
    "drain_exercised",
    "deadline_exercised",
    "rejection_exercised",
    "quarantine_exercised",
    "cancel_exercised",
)

_REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------- utilities


def _serve_argv(service_dir: Path, *, workers: int = 1, max_queued: int = 16,
                max_attempts: int = 3, idle_exit: float = 4.0) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve", str(service_dir),
        "--workers", str(workers),
        "--max-queued", str(max_queued),
        "--max-attempts", str(max_attempts),
        "--retry-base-delay", "0.05",
        "--retry-max-delay", "0.2",
        "--poll-interval", "0.05",
        "--idle-exit", str(idle_exit),
    ]


def _start_server(service_dir: Path, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=_REPO_SRC)
    return subprocess.Popen(_serve_argv(service_dir, **kwargs), env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _await(predicate, timeout_s: float, interval_s: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _await_terminal(service_dir: Path, job_ids: list[str],
                    timeout_s: float = 120.0) -> dict[str, str]:
    """Wait for every job to reach a terminal state; returns states."""

    def all_terminal() -> bool:
        jobs = replay_jobs(service_dir / "jobs.wal")
        return all(job_id in jobs and jobs[job_id].terminal
                   for job_id in job_ids)

    _await(all_terminal, timeout_s, interval_s=0.05)
    jobs = replay_jobs(service_dir / "jobs.wal")
    return {job_id: (jobs[job_id].state if job_id in jobs else "LOST")
            for job_id in job_ids}


def _spec(job_id: str, dump_path: str, **overrides) -> JobSpec:
    defaults = dict(job_id=job_id, dump=dump_path,
                    scan_workers=SCAN_WORKERS, n_shards=N_SHARDS)
    defaults.update(overrides)
    return JobSpec(**defaults)


class _Iteration:
    """Accumulates one scenario run's bookkeeping and verdicts."""

    def __init__(self, index: int, scenario: str, root: Path,
                 dump_path: str, baseline: bytes) -> None:
        self.index = index
        self.scenario = scenario
        self.service_dir = root / f"iter{index:03d}"
        self.dump_path = dump_path
        self.baseline = baseline
        self.submitted: list[str] = []
        self.rejected: list[str] = []
        self.server_starts = 0
        self.kills = 0
        self.identity_checks = 0
        self.identity_failures = 0
        self.violations: list[str] = []
        self._start = time.perf_counter()
        self._servers: list[subprocess.Popen] = []

    # -- server fleet ------------------------------------------------------

    def serve(self, **kwargs) -> subprocess.Popen:
        server = _start_server(self.service_dir, **kwargs)
        self._servers.append(server)
        self.server_starts += 1
        return server

    def sigkill(self, server: subprocess.Popen) -> None:
        os.kill(server.pid, signal.SIGKILL)
        server.wait()
        self.kills += 1

    def reap(self) -> None:
        for server in self._servers:
            if server.poll() is None:
                server.kill()
                server.wait()

    # -- jobs --------------------------------------------------------------

    def submit(self, job_id: str, **overrides) -> str:
        submit_job(self.service_dir, _spec(job_id, self.dump_path, **overrides))
        self.submitted.append(job_id)
        return job_id

    def journal(self, job_id: str) -> Path:
        return self.service_dir / "jobs" / job_id / "checkpoint.jsonl"

    def await_shards(self, job_id: str, n: int = 1,
                     timeout_s: float = 60.0) -> None:
        if not _await(lambda: count_shard_records(self.journal(job_id)) >= n,
                      timeout_s):
            self.violations.append(
                f"{job_id}: never journaled {n} shard(s) "
                f"(saw {count_shard_records(self.journal(job_id))})")

    def check_identity(self, job_id: str) -> None:
        """A DONE job's report must match the undisturbed baseline."""
        self.identity_checks += 1
        report_path = self.service_dir / "jobs" / job_id / "report.json"
        try:
            report = load_report_json(report_path)
        except (OSError, ValueError) as exc:
            self.identity_failures += 1
            self.violations.append(f"{job_id}: unreadable report: {exc}")
            return
        if canonical_report_bytes(report) != self.baseline:
            self.identity_failures += 1
            self.violations.append(
                f"{job_id}: resumed report diverged from the baseline")

    def expect(self, states: dict[str, str], want: dict[str, str]) -> None:
        for job_id, expected in want.items():
            if states.get(job_id) != expected:
                self.violations.append(
                    f"{job_id}: expected {expected}, got {states.get(job_id)}")

    # -- record ------------------------------------------------------------

    def record(self) -> dict:
        jobs = replay_jobs(self.service_dir / "jobs.wal")
        lost = [job_id for job_id in self.submitted
                if job_id not in jobs or jobs[job_id].state not in TERMINAL_STATES]
        duplicates = sum(max(0, job.terminal_events - 1)
                         for job in jobs.values())
        if duplicates:
            self.violations.append(
                f"{duplicates} duplicated terminal side effect(s) in the WAL")
        terminal_states: dict[str, int] = {}
        for job in jobs.values():
            terminal_states[job.state] = terminal_states.get(job.state, 0) + 1
        return {
            "iteration": self.index,
            "scenario": self.scenario,
            "jobs_submitted": len(self.submitted),
            "jobs_rejected": len(self.rejected),
            "server_starts": self.server_starts,
            "kills": self.kills,
            "terminal_states": terminal_states,
            "identity_checks": self.identity_checks,
            "byte_identical": self.identity_failures == 0,
            "duplicate_side_effects": duplicates,
            "lost_jobs": lost,
            "seconds": time.perf_counter() - self._start,
            "violations": self.violations,
        }


# ----------------------------------------------------------------- scenarios


def _run_kill_mid_job(it: _Iteration) -> None:
    """SIGKILL with one job mid-scan; the restart must resume it."""
    server = it.serve()
    it.submit("job-0")
    it.await_shards("job-0", 1)
    it.sigkill(server)
    it.serve()
    states = _await_terminal(it.service_dir, it.submitted)
    it.expect(states, {"job-0": "DONE"})
    it.check_identity("job-0")


def _run_kill_mid_fleet(it: _Iteration) -> None:
    """SIGKILL with a whole fleet in flight: one running, others queued."""
    server = it.serve(workers=1)
    for index in range(3):
        it.submit(f"job-{index}")
    it.await_shards("job-0", 1)
    it.sigkill(server)
    it.serve(workers=2)
    states = _await_terminal(it.service_dir, it.submitted, timeout_s=180)
    it.expect(states, {job_id: "DONE" for job_id in it.submitted})
    for job_id in it.submitted:
        it.check_identity(job_id)


def _run_kill_before_pickup(it: _Iteration) -> None:
    """A submission spooled with no server alive survives to admission."""
    it.submit("job-0")  # no server running: stays in the spool
    if not (it.service_dir / "spool" / "job-0.submit.json").exists():
        it.violations.append("submission did not land in the spool")
    it.serve()
    states = _await_terminal(it.service_dir, it.submitted)
    it.expect(states, {"job-0": "DONE"})
    it.check_identity("job-0")


def _run_overload_reject(it: _Iteration) -> None:
    """Past the queue bound the server rejects with a typed receipt."""
    server = it.serve(workers=1, max_queued=1)
    # A slow job to hold the single worker...
    it.submit("job-busy", n_shards=32, scan_workers=1)
    it.await_shards("job-busy", 1)
    # ...one fills the queue, the next must bounce.
    it.submit("job-queued")
    try:
        wait_for_admission(it.service_dir, "job-queued", timeout_s=20)
    except (AdmissionRejectedError, TimeoutError) as exc:
        it.violations.append(f"job-queued should have been admitted: {exc!r}")
    it.submit("job-over")
    try:
        wait_for_admission(it.service_dir, "job-over", timeout_s=20)
        it.violations.append("job-over was admitted past the queue bound")
    except AdmissionRejectedError:
        it.rejected.append("job-over")
        it.submitted.remove("job-over")  # rejection is not a lost job
    except TimeoutError:
        it.violations.append("job-over got neither admission nor rejection")
    states = _await_terminal(it.service_dir, it.submitted, timeout_s=180)
    it.expect(states, {"job-busy": "DONE", "job-queued": "DONE"})
    it.check_identity("job-queued")
    server.wait(timeout=60)


def _run_deadline_expiry(it: _Iteration) -> None:
    """A per-job deadline lands EXPIRED with a resumable partial report;
    resubmitting against the same journal finishes byte-identically."""
    it.serve()
    it.submit("job-dead", deadline_s=0.05, scan_workers=1, n_shards=N_SHARDS)
    states = _await_terminal(it.service_dir, ["job-dead"])
    it.expect(states, {"job-dead": "EXPIRED"})
    report_path = it.service_dir / "jobs" / "job-dead" / "report.json"
    if report_path.exists():
        partial = load_report_json(report_path)
        if not partial["resilience"]["unscanned_shards"]:
            it.violations.append("expired job left no unscanned shards")
        if partial["service"]["terminal_state"] != "EXPIRED":
            it.violations.append("partial report not marked EXPIRED")
    else:
        it.violations.append("expired job wrote no partial report")
    # Resume: a fresh job over the same journal completes the scan.
    it.submit("job-resume", checkpoint=str(it.journal("job-dead")),
              scan_workers=SCAN_WORKERS, n_shards=N_SHARDS)
    states = _await_terminal(it.service_dir, ["job-resume"])
    it.expect(states, {"job-resume": "DONE"})
    it.check_identity("job-resume")


def _run_retry_quarantine(it: _Iteration) -> None:
    """A permanently faulting job exhausts its retries and lands FAILED."""
    it.serve(max_attempts=2)
    # Crash every shard forever: the scan quarantines, the supervisor
    # retries the whole job, then gives up.  Offsets mirror
    # shard_image's ceil-by-blocks split.
    total_blocks = os.path.getsize(it.dump_path) // 64
    per_shard = -(-total_blocks // N_SHARDS) * 64
    faults = [[index * per_shard, {"kind": "crash", "first_attempts": PERMANENT}]
              for index in range(N_SHARDS)]
    it.submit("job-doomed", faults=faults)
    states = _await_terminal(it.service_dir, ["job-doomed"], timeout_s=180)
    it.expect(states, {"job-doomed": "FAILED"})
    jobs = replay_jobs(it.service_dir / "jobs.wal")
    doomed = jobs.get("job-doomed")
    if doomed is not None and doomed.attempts != 2:
        it.violations.append(
            f"job-doomed ran {doomed.attempts} attempts, want 2")
    # A healthy job on the same (restarted) service still completes.
    it.submit("job-fine")
    states = _await_terminal(it.service_dir, ["job-fine"])
    it.expect(states, {"job-fine": "DONE"})
    it.check_identity("job-fine")


def _run_cancel_mid_job(it: _Iteration) -> None:
    """Cancel trips the running scan's stop flag; the journal survives."""
    it.serve()
    it.submit("job-cancel", scan_workers=1, n_shards=64)
    it.await_shards("job-cancel", 1)
    request_cancel(it.service_dir, "job-cancel")
    states = _await_terminal(it.service_dir, ["job-cancel"])
    it.expect(states, {"job-cancel": "CANCELLED"})
    if not it.journal("job-cancel").exists():
        it.violations.append("cancel destroyed the shard journal")


def _run_drain_sigterm(it: _Iteration) -> None:
    """SIGTERM drains gracefully: exit 3, job RETRYING, restart resumes."""
    server = it.serve(idle_exit=60)
    it.submit("job-drain")
    it.await_shards("job-drain", 1)
    server.send_signal(signal.SIGTERM)
    code = server.wait(timeout=60)
    if code != EXIT_INTERRUPTED:
        it.violations.append(
            f"drained server exited {code}, want {EXIT_INTERRUPTED}")
    jobs = replay_jobs(it.service_dir / "jobs.wal")
    drained = jobs.get("job-drain")
    if drained is None or drained.state not in ("RETRYING", "RUNNING"):
        it.violations.append(
            "drained job not held resumable "
            f"(state: {drained.state if drained else 'missing'})")
    it.serve()
    states = _await_terminal(it.service_dir, ["job-drain"])
    it.expect(states, {"job-drain": "DONE"})
    it.check_identity("job-drain")


_SCENARIO_RUNNERS = {
    "kill-mid-job": _run_kill_mid_job,
    "kill-mid-fleet": _run_kill_mid_fleet,
    "kill-before-pickup": _run_kill_before_pickup,
    "overload-reject": _run_overload_reject,
    "deadline-expiry": _run_deadline_expiry,
    "retry-quarantine": _run_retry_quarantine,
    "cancel-mid-job": _run_cancel_mid_job,
    "drain-sigterm": _run_drain_sigterm,
}


# ----------------------------------------------------------------- the soak


def _baseline(root: Path, dump_path: str) -> bytes:
    """Canonical bytes of the job run on an undisturbed service."""
    service_dir = root / "baseline"
    server = _start_server(service_dir)
    try:
        submit_job(service_dir, _spec("job-baseline", dump_path))
        states = _await_terminal(service_dir, ["job-baseline"])
        if states.get("job-baseline") != "DONE":
            raise RuntimeError(f"baseline job did not complete: {states}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    report = load_report_json(service_dir / "jobs" / "job-baseline" / "report.json")
    if not report["recovered_keys"]:
        raise RuntimeError("baseline job recovered no keys")
    return canonical_report_bytes(report)


def _acceptance(iterations: list[dict]) -> dict:
    """The claims ``ROBUST_service.json`` exists to certify."""

    def ran(scenario: str) -> list[dict]:
        return [it for it in iterations if it["scenario"] == scenario]

    return {
        "iterations_run": len(iterations),
        "zero_violations": all(not it["violations"] for it in iterations),
        "zero_lost_jobs": all(not it["lost_jobs"] for it in iterations),
        "zero_duplicate_side_effects": all(
            it["duplicate_side_effects"] == 0 for it in iterations),
        "all_resumed_byte_identical": all(
            it["byte_identical"] for it in iterations),
        # Each failure mode must actually have fired — a soak that never
        # SIGKILLs a server proves nothing about crash recovery.
        "kill_exercised": any(it["kills"] > 0 for it in iterations),
        "drain_exercised": any(
            it["terminal_states"].get("DONE") for it in ran("drain-sigterm")),
        "deadline_exercised": any(
            it["terminal_states"].get("EXPIRED") for it in ran("deadline-expiry")),
        "rejection_exercised": any(
            it["jobs_rejected"] > 0 for it in iterations),
        "quarantine_exercised": any(
            it["terminal_states"].get("FAILED") for it in ran("retry-quarantine")),
        "cancel_exercised": any(
            it["terminal_states"].get("CANCELLED") for it in ran("cancel-mid-job")),
    }


def service_soak(rotations: int = DEFAULT_ROTATIONS, seed: int = 5,
                 on_progress=None) -> dict:
    """Full soak: scenario rotations plus the acceptance digest."""
    results: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="service-soak-") as tmp_name:
        root = Path(tmp_name)
        dump, master, _ = synthetic_dump(bit_error_rate=0.0, seed=seed)
        dump_path = str(root / "dump.bin")
        dump.save(dump_path)
        baseline = _baseline(root, dump_path)

        for index in range(rotations * len(SCENARIOS)):
            scenario = SCENARIOS[index % len(SCENARIOS)]
            it = _Iteration(index, scenario, root, dump_path, baseline)
            try:
                _SCENARIO_RUNNERS[scenario](it)
            except Exception as exc:  # crash-only: nothing may escape
                it.violations.append(f"exception escaped the harness: {exc!r}")
            finally:
                it.reap()
            entry = it.record()
            results.append(entry)
            if on_progress is not None:
                on_progress(entry)

    record = {
        "schema": SERVICE_SCHEMA,
        "seed": seed,
        "n_shards": N_SHARDS,
        "scan_workers": SCAN_WORKERS,
        "rotations": rotations,
        "repro_command": (
            f"PYTHONPATH=src python -m benchmarks.service_soak "
            f"--seed {seed} --rotations {rotations}"),
        "iterations": results,
        "acceptance": _acceptance(results),
    }
    errors = validate_service_record(record)
    if errors:
        raise ValueError(
            "service soak produced an invalid record: " + "; ".join(errors))
    return record


def validate_service_record(record: dict) -> list[str]:
    """Schema check for a ``robust-service/v1`` record; returns problems."""
    errors: list[str] = []
    if record.get("schema") != SERVICE_SCHEMA:
        errors.append(f"schema is {record.get('schema')!r}, want {SERVICE_SCHEMA!r}")
    for field in ("seed", "n_shards", "scan_workers", "rotations"):
        if not isinstance(record.get(field), int):
            errors.append(f"{field} must be an int")
    if not isinstance(record.get("repro_command"), str):
        errors.append("repro_command must be a string")
    iterations = record.get("iterations")
    if not isinstance(iterations, list) or not iterations:
        return errors + ["iterations must be a non-empty list"]
    for index, entry in enumerate(iterations):
        for field, kind in _ITERATION_FIELDS.items():
            value = entry.get(field)
            ok = isinstance(value, kind) or (kind is float and isinstance(value, int))
            if kind is int and isinstance(value, bool):
                ok = False
            if not ok:
                errors.append(f"iterations[{index}].{field} must be {kind.__name__}")
        if entry.get("scenario") not in SCENARIOS:
            errors.append(f"iterations[{index}].scenario is not a known scenario")
        for violation in entry.get("violations", ()):
            if not isinstance(violation, str):
                errors.append(f"iterations[{index}] has a non-string violation")
    acceptance = record.get("acceptance")
    if not isinstance(acceptance, dict):
        errors.append("acceptance must be a dict")
    else:
        if not isinstance(acceptance.get("iterations_run"), int):
            errors.append("acceptance.iterations_run must be an int")
        for field in _ACCEPTANCE_BOOLS:
            if not isinstance(acceptance.get(field), bool):
                errors.append(f"acceptance.{field} must be a bool")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="ROBUST_service.json")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--rotations", type=int, default=None)
    parser.add_argument("--smoke", "--quick", action="store_true",
                        dest="smoke", help="one scenario rotation for CI")
    args = parser.parse_args(argv)
    rotations = args.rotations or (1 if args.smoke else DEFAULT_ROTATIONS)

    def progress(entry: dict) -> None:
        status = "ok" if not entry["violations"] else "VIOLATION"
        states = ",".join(f"{state}:{count}" for state, count
                          in sorted(entry["terminal_states"].items()))
        print(
            f"[{entry['iteration'] + 1:3d}] {entry['scenario']:<18} "
            f"kills={entry['kills']} servers={entry['server_starts']} "
            f"{states:<24} {entry['seconds']:5.1f}s {status}",
            flush=True,
        )

    record = service_soak(rotations=rotations, seed=args.seed,
                          on_progress=progress)
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n",
                                 encoding="utf-8")
    acceptance = record["acceptance"]
    print(f"wrote {args.output}: {acceptance}")
    ok = all(acceptance[field] for field in _ACCEPTANCE_BOOLS)
    if not ok:
        print(f"soak FAILED — reproduce with: {record['repro_command']}",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
