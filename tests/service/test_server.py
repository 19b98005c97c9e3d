"""Tests for the job engine's heartbeat board."""

import json

from repro.service import server
from repro.service.jobstore import ADMITTED, DONE, RUNNING, JobSpec
from repro.service.server import JobEngine


def test_a_terminal_jobs_journal_is_read_once(tmp_path, monkeypatch):
    engine = JobEngine(tmp_path / "svc", workers=1)
    engine.scheduler.submit(JobSpec(job_id="job-b", dump="dump.bin"))
    journal = engine.dirs.job_dir("job-b") / "checkpoint.jsonl"
    journal.parent.mkdir(parents=True)
    journal.write_text('{"type": "shard"}\n')
    reads = []
    count = server.count_shard_records
    monkeypatch.setattr(server, "count_shard_records",
                        lambda path: reads.append(path) or count(path))
    engine.write_board()
    engine.write_board()
    assert len(reads) == 2  # a live job's journal is read every tick
    store = engine.store
    assert store.get("job-b").state == ADMITTED  # the scheduler is not started
    store.append_event("job-b", RUNNING)
    journal.write_text('{"type": "shard"}\n{"type": "shard"}\n')
    store.append_event("job-b", DONE, report="r.json")
    for _ in range(5):
        engine.write_board()
    assert len(reads) == 3
    board = json.loads(engine.dirs.board.read_text())
    assert board["jobs"]["job-b"]["progress"] == {"journaled_shards": 2}
    assert board["jobs"]["job-b"]["state"] == DONE
