"""Acceptance: the attack survives injected faults and killed runs.

These are the issue's two acceptance criteria, run against the real
pipeline on a synthetic scrambled dump with a planted XTS key table:

* a sharded scan sabotaged by seeded crashes / corruption recovers the
  same keys as a clean serial run, with unrecoverable shards
  quarantined and reported rather than silently dropped;
* a scan killed mid-run (SIGKILL — simulated power loss) resumes from
  its checkpoint journal and does not re-search completed shards, and
  leaves no process or shared-memory segment behind.

The dump scan costs tens of seconds, so everything shares one
module-scoped dump + clean baseline, and each test adds at most one
more scan.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.attack.parallel import resilient_recover_keys, shard_image
from repro.attack.sweep import synthetic_dump
from repro.crypto.aes import schedule_bytes
from repro.resilience.checkpoint import count_shard_records, read_records
from repro.resilience.executor import STATUS_FROM_CHECKPOINT, STATUS_OK
from repro.resilience.faults import PERMANENT, FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy

N_SHARDS = 4
SEED = 5


@pytest.fixture(scope="module")
def dump_and_master():
    dump, master, _ = synthetic_dump(bit_error_rate=0.0, seed=SEED)
    return dump, master


@pytest.fixture(scope="module")
def clean_baseline(dump_and_master):
    """Keys from an unsabotaged serial scan — the ground truth."""
    dump, _ = dump_and_master
    return resilient_recover_keys(
        dump, key_bits=256, workers=1, n_shards=N_SHARDS
    ).recovered


def test_clean_baseline_finds_the_planted_table(dump_and_master, clean_baseline):
    _, master = dump_and_master
    masters = {r.master_key for r in clean_baseline}
    assert master[:32] in masters and master[32:] in masters


def test_faulted_scan_matches_clean_run(dump_and_master, clean_baseline):
    """Crashes retry, corruption stays silent, a dead shard quarantines.

    One scan, three seeded faults: a transient crash on the shard that
    holds the key table (must be retried and still yield the keys), bit
    corruption on an empty shard (must not invent keys), and a permanent
    crash on another empty shard (must be quarantined and reported).
    """
    dump, _ = dump_and_master
    shards = shard_image(dump, N_SHARDS, overlap_bytes=schedule_bytes(256) + 64)
    assert len(shards) == N_SHARDS
    plan = FaultPlan(
        faults=(
            (shards[0].base_offset, FaultSpec(kind="crash", first_attempts=1)),
            (shards[1].base_offset, FaultSpec(kind="corrupt", corrupt_bits=64)),
            (shards[3].base_offset, FaultSpec(kind="crash", first_attempts=PERMANENT)),
        ),
        seed=SEED,
    )
    scan = resilient_recover_keys(
        dump,
        key_bits=256,
        workers=2,
        n_shards=N_SHARDS,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001, seed=SEED),
        fault_plan=plan,
    )
    # The permanently-crashing shard is quarantined and *reported*.
    assert scan.quarantined_offsets == [shards[3].base_offset]
    assert not scan.complete
    # Everything else converged to the clean run's answer.
    assert {r.master_key for r in scan.recovered} == {
        r.master_key for r in clean_baseline
    }
    # The crashed shard needed its retry.
    assert scan.ledger.outcomes[shards[0].base_offset].attempts == 2


KILLED_SCAN_SCRIPT = """
import sys
from repro.attack.parallel import resilient_recover_keys, shard_image
from repro.attack.sweep import synthetic_dump
from repro.crypto.aes import schedule_bytes
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.util.blocks import BLOCK_SIZE

dump, _, _ = synthetic_dump(bit_error_rate=0.0, seed={seed})
# The fused scan clears this dump in well under a second — too fast for
# the parent to catch a partially-written journal.  Hang every shard for
# a beat (far below the 900s shard timeout) so the kill lands mid-run;
# hang faults need killable workers, so run on a 2-process pool (the
# executor auto-picks "process" for plans with process-level faults).
shards = shard_image(dump, {n_shards}, overlap_bytes=schedule_bytes(256) + BLOCK_SIZE)
plan = FaultPlan(
    faults=tuple(
        (shard.base_offset, FaultSpec(kind="hang", hang_seconds=0.75))
        for shard in shards
    ),
    seed={seed},
)
print("scanning", flush=True)
resilient_recover_keys(
    dump, key_bits=256, workers=2, n_shards={n_shards}, checkpoint=sys.argv[1],
    fault_plan=plan,
)
print("finished", flush=True)  # the test SIGKILLs us long before this
"""


def _live_parent(pid: int) -> int | None:
    """The parent pid of a live (not zombie) process, else None."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; the fields
    # after its closing parenthesis start with the state.
    state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
    return None if state in "ZX" else int(ppid)


def _descendants(pid: int) -> set[int]:
    """Every live process below ``pid`` in the process tree."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and (parent := _live_parent(int(entry.name))) is not None:
            parents[int(entry.name)] = parent
    found: set[int] = set()
    frontier = {pid}
    while frontier:
        frontier = {child for child, parent in parents.items() if parent in frontier} - found
        found |= frontier
    return found


def _is_resource_tracker(pid: int) -> bool:
    try:
        return b"resource_tracker" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def _shm_segments(pid: int) -> set[Path]:
    """The ``/dev/shm`` segments ``pid`` has mapped."""
    segments = set()
    for line in Path(f"/proc/{pid}/maps").read_text().splitlines():
        path = line.split(maxsplit=5)[5:]
        if path and path[0].startswith("/dev/shm/"):
            segments.add(Path(path[0]))
    return segments


def test_killed_scan_resumes_from_checkpoint(tmp_path, dump_and_master, clean_baseline):
    """SIGKILL a scan mid-run; the resumed run skips the finished shards.

    The kill takes the scan's pool workers too, as power loss would.
    Its resource tracker is left to notice that its last writer is
    gone, unlink the scan's shared-memory segments and exit, so nothing
    the scan started outlives the test.
    """
    dump, master = dump_and_master
    checkpoint = tmp_path / "scan.checkpoint.jsonl"
    script = tmp_path / "killed_scan.py"
    script.write_text(KILLED_SCAN_SCRIPT.format(seed=SEED, n_shards=N_SHARDS))

    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.Popen(
        [sys.executable, str(script), str(checkpoint)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Simulated power loss: wait until some shards are journaled
        # (but not all), then kill -9 — no cleanup code may run.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if child.poll() is not None:
                pytest.fail("scan finished before it could be killed")
            if 1 <= count_shard_records(checkpoint) < N_SHARDS:
                break
            time.sleep(0.2)
        else:
            pytest.fail("no shard was journaled within the deadline")
        # Freeze the scan so its process tree and mappings hold still.
        child.send_signal(signal.SIGSTOP)
        started = _descendants(child.pid)
        segments = _shm_segments(child.pid)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        for pid in started:
            if not _is_resource_tracker(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
    finally:
        if child.poll() is None:
            child.kill()

    assert segments, "the scan published no shared-memory segment"
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        alive = {pid for pid in started if _live_parent(pid) is not None}
        left = {segment for segment in segments if segment.exists()}
        if not alive and not left:
            break
        time.sleep(0.1)
    assert not alive, f"processes the scan started outlived it: {sorted(alive)}"
    assert not left, f"shared-memory segments outlived the scan: {sorted(map(str, left))}"

    survivors = [record["offset"] for record in read_records(checkpoint)[0]
                 if record.get("type") == "shard"]
    assert 1 <= len(survivors) < N_SHARDS

    scan = resilient_recover_keys(
        dump, key_bits=256, workers=1, n_shards=N_SHARDS, checkpoint=checkpoint
    )
    # Journaled shards were loaded, not re-searched; the rest ran fresh.
    statuses = {
        offset: outcome.status for offset, outcome in scan.ledger.outcomes.items()
    }
    assert all(statuses[offset] == STATUS_FROM_CHECKPOINT for offset in survivors)
    fresh = [offset for offset, status in statuses.items() if status == STATUS_OK]
    assert sorted(fresh) == sorted(set(statuses) - set(survivors))
    assert scan.resumed_shards == len(survivors)
    # And the resumed scan still finds the planted key table.
    masters = {r.master_key for r in scan.recovered}
    assert master[:32] in masters and master[32:] in masters
    assert masters == {r.master_key for r in clean_baseline}
