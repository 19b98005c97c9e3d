"""End-to-end service tests through real ``repro serve`` processes.

The crash-safety bar cannot be tested in-process — a thread cannot be
SIGKILL'd — so these tests spawn the real CLI server, kill it -9 at a
journal-watcher-chosen instant, restart it, and require the resumed
report to be canonically byte-identical to an uninterrupted run's.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.attack.report import canonical_report_bytes, load_report_json
from repro.cli import main
from repro.crypto.aes import expand_key
from repro.dram.image import MemoryImage
from repro.resilience.checkpoint import count_shard_records
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.service import JobSpec, replay_jobs, submit_job, wait_terminal
from repro.util.rng import SplitMix64

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def dump_file(tmp_path_factory):
    """A 768 KiB scrambled dump with one planted schedule (~2 s scan)."""
    scrambler = Ddr4Scrambler(boot_seed=77)
    n_blocks = 3 * 4096
    rng = SplitMix64(1)
    plain = bytearray(rng.next_bytes(n_blocks * 64))
    for block in range(0, n_blocks, 3):
        plain[block * 64:(block + 1) * 64] = bytes(64)
    master = rng.next_bytes(32)
    plain[500 * 64 + 9: 500 * 64 + 9 + 240] = expand_key(master)
    path = tmp_path_factory.mktemp("dumps") / "dump.bin"
    MemoryImage(scrambler.scramble_range(0, bytes(plain))).save(path)
    return str(path), master


def start_server(service_dir, idle_exit="3"):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(service_dir),
         "--workers", "1", "--poll-interval", "0.05", "--idle-exit", idle_exit],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class TestServeRoundTrip:
    def test_submit_status_watch_through_cli(self, dump_file, tmp_path, capsys):
        dump, master = dump_file
        svc = tmp_path / "svc"
        server = start_server(svc)
        try:
            assert main(["submit", str(svc), dump, "--job-id", "job-cli",
                         "--scan-workers", "2", "--shards", "4"]) == 0
            assert main(["status", str(svc), "job-cli", "--wait",
                         "--timeout", "120"]) == 0
            out = capsys.readouterr().out
            assert '"state": "DONE"' in out
            assert main(["watch", str(svc), "job-cli", "--timeout", "10"]) == 0
            assert "DONE" in capsys.readouterr().out
        finally:
            server.kill()
            server.wait()
        report = load_report_json(svc / "jobs" / "job-cli" / "report.json")
        assert report["service"]["job_id"] == "job-cli"
        assert report["service"]["terminal_state"] == "DONE"
        assert master.hex() in {r["master_key"]
                                for r in report["recovered_keys"]}

    def test_cancel_through_cli(self, dump_file, tmp_path, capsys):
        dump, _ = dump_file
        svc = tmp_path / "svc"
        server = start_server(svc, idle_exit="3")
        try:
            submit_job(svc, JobSpec(job_id="job-cancel", dump=dump,
                                    scan_workers=1, n_shards=64))
            journal = svc / "jobs" / "job-cancel" / "checkpoint.jsonl"
            deadline = time.monotonic() + 60
            while count_shard_records(journal) < 1:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)
            assert main(["cancel", str(svc), "job-cancel"]) == 0
            status = wait_terminal(svc, "job-cancel", timeout_s=60)
            assert status["state"] == "CANCELLED"
        finally:
            server.kill()
            server.wait()


class TestKillResume:
    def test_sigkill_then_restart_resumes_byte_identically(
            self, dump_file, tmp_path):
        dump, master = dump_file

        # Reference: the same job on an undisturbed server.
        ref_svc = tmp_path / "svc-ref"
        server = start_server(ref_svc)
        submit_job(ref_svc, JobSpec(job_id="job-ref", dump=dump,
                                    scan_workers=2, n_shards=8))
        assert wait_terminal(ref_svc, "job-ref",
                             timeout_s=120)["state"] == "DONE"
        server.wait(timeout=30)  # idle exit
        reference = canonical_report_bytes(
            load_report_json(ref_svc / "jobs" / "job-ref" / "report.json"))

        # Victim: SIGKILL once the first shard is journaled.
        svc = tmp_path / "svc-kill"
        server = start_server(svc)
        submit_job(svc, JobSpec(job_id="job-kill", dump=dump,
                                scan_workers=2, n_shards=8))
        journal = svc / "jobs" / "job-kill" / "checkpoint.jsonl"
        deadline = time.monotonic() + 60
        while count_shard_records(journal) < 1:
            assert time.monotonic() < deadline, "no shard journaled before kill"
            time.sleep(0.02)
        os.kill(server.pid, signal.SIGKILL)
        server.wait()

        # The WAL still says RUNNING — the kill left no terminal record.
        stranded = replay_jobs(svc / "jobs.wal")["job-kill"]
        assert stranded.state == "RUNNING"
        resumed_from = count_shard_records(journal)
        assert resumed_from >= 1

        # Restart: recovery folds RUNNING → RETRYING and the rerun is a
        # journal resume, not a redo.
        server = start_server(svc)
        try:
            status = wait_terminal(svc, "job-kill", timeout_s=120)
        finally:
            server.kill()
            server.wait()
        assert status["state"] == "DONE"
        assert status["attempts"] == 2
        assert status["failures"] == 0  # a crash is not the job's fault

        report = load_report_json(svc / "jobs" / "job-kill" / "report.json")
        assert report["resilience"]["resumed_shards"] >= resumed_from
        assert canonical_report_bytes(report) == reference
        assert master.hex() in {r["master_key"]
                                for r in report["recovered_keys"]}

        # Zero duplicated side effects: exactly one terminal WAL record.
        assert replay_jobs(svc / "jobs.wal")["job-kill"].terminal_events == 1
