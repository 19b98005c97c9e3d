"""Tests for the write-ahead job log and its state machine."""

import json

import pytest

from repro.resilience.errors import InvalidJobIdError, JobStoreCorruptError, UnknownJobError
from repro.service.jobstore import (
    ADMITTED,
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RETRYING,
    RUNNING,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    JobSpec,
    JobStore,
    replay_jobs,
)


def spec(job_id="job-1", **overrides):
    return JobSpec(job_id=job_id, dump="dump.bin", **overrides)


class TestAppendAndReplay:
    def test_fresh_store_writes_a_crc_header(self, tmp_path):
        store = JobStore.open(tmp_path / "jobs.wal")
        header = json.loads((tmp_path / "jobs.wal").read_text().splitlines()[0])
        assert header["type"] == "header"
        assert "crc" in header
        assert store.jobs == {}

    def test_lifecycle_folds_to_done(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec())
        store.append_event("job-1", ADMITTED)
        store.append_event("job-1", RUNNING)
        store.append_event("job-1", DONE, report="r.json")
        job = replay_jobs(wal)["job-1"]
        assert job.state == DONE
        assert job.attempts == 1
        assert job.report_path == "r.json"
        assert job.terminal_events == 1

    def test_spec_with_a_persisted_executor_still_replays(self, tmp_path, monkeypatch):
        """Older builds wrote an ``executor`` into every spec record; the
        key is ignored and the job replays to the same spec."""
        wal = tmp_path / "jobs.wal"
        to_json = JobSpec.to_json
        monkeypatch.setattr(
            JobSpec, "to_json", lambda self: {**to_json(self), "executor": "process"}
        )
        JobStore.open(wal).append_event("job-1", QUEUED, spec=spec(scan_workers=2))
        monkeypatch.undo()
        assert '"executor"' in wal.read_text()
        job = replay_jobs(wal)["job-1"]
        assert job.spec == spec(scan_workers=2)
        assert job.state == QUEUED
        assert JobStore.open(wal).get("job-1").spec == spec(scan_workers=2)

    def test_replay_of_missing_log_is_empty_service(self, tmp_path):
        assert replay_jobs(tmp_path / "absent.wal") == {}

    def test_first_record_must_carry_spec(self, tmp_path):
        store = JobStore.open(tmp_path / "jobs.wal")
        with pytest.raises(ValueError, match="spec"):
            store.append_event("job-1", QUEUED)

    def test_unknown_job_raises_typed(self, tmp_path):
        store = JobStore.open(tmp_path / "jobs.wal")
        with pytest.raises(UnknownJobError, match="job-x"):
            store.get("job-x")


class TestJobIds:
    @pytest.mark.parametrize("job_id", ["", "..", "a/b", "/abs", "a\u0000b"])
    def test_an_id_that_cannot_name_a_file_is_refused(self, job_id):
        with pytest.raises(InvalidJobIdError):
            spec(job_id)

    def test_a_spooled_record_with_such_an_id_reads_as_malformed(self):
        with pytest.raises(JobStoreCorruptError, match="cannot name a file"):
            JobSpec.from_json({"job_id": "a/b", "dump": "dump.bin"})

    @pytest.mark.parametrize("job_id", ["job-1", ".hidden", "a..b", "job 2"])
    def test_plain_names_pass(self, job_id):
        assert spec(job_id).job_id == job_id


class TestTransitionValidation:
    def test_every_terminal_state_is_a_dead_end(self):
        for state in TERMINAL_STATES:
            assert VALID_TRANSITIONS[state] == frozenset()

    def test_impossible_transition_is_refused_before_write(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec())
        lines_before = wal.read_text().count("\n")
        with pytest.raises(JobStoreCorruptError, match="QUEUED → RUNNING"):
            store.append_event("job-1", RUNNING)
        assert wal.read_text().count("\n") == lines_before  # nothing appended

    def test_a_field_replay_would_refuse_is_never_written(self, tmp_path):
        """A wrong-typed field is refused before the append, not folded
        after it: the log stays readable."""
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec())
        store.append_event("job-1", ADMITTED)
        store.append_event("job-1", RUNNING)
        lines_before = wal.read_text().count("\n")
        with pytest.raises(ValueError):
            store.append_event("job-1", RETRYING, not_before="soon")
        assert wal.read_text().count("\n") == lines_before
        assert JobStore.open(wal).jobs["job-1"].state == RUNNING

    def test_terminal_jobs_accept_no_further_events(self, tmp_path):
        store = JobStore.open(tmp_path / "jobs.wal")
        store.append_event("job-1", QUEUED, spec=spec())
        store.append_event("job-1", CANCELLED)
        with pytest.raises(JobStoreCorruptError, match="CANCELLED"):
            store.append_event("job-1", ADMITTED)

    def test_retry_loop_counts_attempts_and_failures(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec())
        for cause in ("boom-1", "boom-2"):
            store.append_event("job-1", ADMITTED)
            store.append_event("job-1", RUNNING)
            store.append_event("job-1", RETRYING, cause=cause, failure=True,
                               error=cause, not_before=0.0)
        store.append_event("job-1", ADMITTED)
        store.append_event("job-1", RUNNING)
        store.append_event("job-1", FAILED, error="boom-3")
        job = replay_jobs(wal)["job-1"]
        assert job.attempts == 3
        assert job.failures == 2
        assert job.error == "boom-3"


class TestCrashSafety:
    def test_torn_tail_is_skipped_by_readers(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec())
        store.append_event("job-1", ADMITTED)
        raw = wal.read_bytes()
        wal.write_bytes(raw[:-9])  # SIGKILL mid-append
        job = replay_jobs(wal)["job-1"]
        assert job.state == QUEUED  # the torn ADMITTED never happened

    def test_writable_open_truncates_the_torn_tail(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec())
        raw = wal.read_bytes()
        wal.write_bytes(raw + b'{"type": "job", "jo')
        reopened = JobStore.open(wal)
        assert wal.read_bytes() == raw
        assert reopened.jobs["job-1"].state == QUEUED
        # And the repaired log accepts appends again.
        reopened.append_event("job-1", ADMITTED)
        assert replay_jobs(wal)["job-1"].state == ADMITTED

    def test_interior_corruption_names_the_line(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec())
        store.append_event("job-1", ADMITTED)
        lines = wal.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"event"', '"evXnt"')
        wal.write_text("".join(lines))
        with pytest.raises(JobStoreCorruptError, match="line 2"):
            replay_jobs(wal)

    @pytest.mark.parametrize("field", ["t", "not_before"])
    def test_crc_valid_record_with_a_non_numeric_time_names_the_line(
            self, tmp_path, field):
        """Both the server's open and ``repro status``'s replay report a
        CRC-valid record of the wrong shape as corruption of its line."""
        from repro.resilience.checkpoint import line_crc

        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec())
        store.append_event("job-1", ADMITTED)
        store.append_event("job-1", RUNNING)
        record = {"type": "job", "job_id": "job-1", "event": RETRYING,
                  "t": 5.0, "not_before": 6.0, field: "abc"}
        record["crc"] = line_crc(record)
        with open(wal, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(JobStoreCorruptError, match="line 5"):
            replay_jobs(wal)
        with pytest.raises(JobStoreCorruptError, match="line 5"):
            JobStore.open(wal)

    def test_crc_catches_silent_bit_flips(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec(priority=1))
        store.append_event("job-1", ADMITTED)
        # Flip the priority without touching the record structure.
        text = wal.read_text().replace('"priority": 1', '"priority": 9')
        wal.write_text(text)
        with pytest.raises(JobStoreCorruptError, match="CRC mismatch"):
            replay_jobs(wal)


class TestRotation:
    def test_rotation_compacts_to_one_snapshot_per_job(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        for index in range(5):
            job_id = f"job-{index}"
            store.append_event(job_id, QUEUED, spec=spec(job_id))
            store.append_event(job_id, ADMITTED)
            store.append_event(job_id, RUNNING)
            store.append_event(job_id, DONE, report=f"{job_id}.json")
        before = replay_jobs(wal)
        store.rotate()
        assert len(wal.read_text().splitlines()) == 6  # header + 5 snapshots
        after = replay_jobs(wal)
        assert set(after) == set(before)
        for job_id in before:
            assert after[job_id].state == before[job_id].state
            assert after[job_id].attempts == before[job_id].attempts
            assert after[job_id].terminal_events == before[job_id].terminal_events

    def test_auto_rotation_fires_past_the_threshold(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal, rotate_after=8)
        for index in range(6):
            job_id = f"job-{index}"
            store.append_event(job_id, QUEUED, spec=spec(job_id))
            store.append_event(job_id, ADMITTED)
        assert len(wal.read_text().splitlines()) < 6 * 2 + 1

    def test_appends_continue_after_rotation(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = JobStore.open(wal)
        store.append_event("job-1", QUEUED, spec=spec())
        store.rotate()
        store.append_event("job-1", ADMITTED)
        store.append_event("job-1", RUNNING)
        assert replay_jobs(wal)["job-1"].attempts == 1


class TestPendingCount:
    def test_counts_only_queue_occupants(self, tmp_path):
        store = JobStore.open(tmp_path / "jobs.wal")
        store.append_event("q", QUEUED, spec=spec("q"))
        store.append_event("a", QUEUED, spec=spec("a"))
        store.append_event("a", ADMITTED)
        store.append_event("r", QUEUED, spec=spec("r"))
        store.append_event("r", ADMITTED)
        store.append_event("r", RUNNING)
        store.append_event("d", QUEUED, spec=spec("d"))
        store.append_event("d", CANCELLED)
        assert store.pending_count() == 2  # q + a; running/terminal excluded
