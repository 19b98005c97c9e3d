"""Byte-identical results across the scan executors.

The sharded scan can run serial (one worker, in-process), on a thread
pool (the fused kernels release the GIL; dump, keys, and fingerprint
cache are shared by reference), or on a process pool (isolated,
killable workers that inherit the run's state by fork and fill their
own fingerprint caches).  The pool follows from the run — a stall
watchdog selects processes — and all three must produce *identical*
recoveries, and agree through the quarantine and checkpoint-resume
paths, which is where an executor could plausibly diverge (different
retry accounting, a worker reading another run's state).
"""

import sys
import threading

import pytest

from repro.attack.parallel import resilient_recover_keys, shard_image
from repro.attack.sweep import synthetic_dump
from repro.crypto.aes import schedule_bytes
from repro.resilience.executor import STATUS_FROM_CHECKPOINT, STATUS_OK
from repro.resilience.faults import PERMANENT, FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.resilience.watchdog import WatchdogConfig

N_SHARDS = 4
SEED = 11

#: What selects each pool: a stall watchdog needs killable workers, so
#: it runs the shards on processes; nothing runs them on threads.
POOL_OPTIONS = {"thread": {}, "process": {"watchdog": WatchdogConfig()}}


@pytest.fixture(scope="module")
def dump():
    image, master, _ = synthetic_dump(bit_error_rate=0.002, seed=SEED)
    return image, master


@pytest.fixture(scope="module")
def serial_scan(dump):
    image, _ = dump
    return resilient_recover_keys(image, key_bits=256, workers=1, n_shards=N_SHARDS)


def _policy():
    return RetryPolicy(max_attempts=2, base_delay_s=0.001, seed=SEED)


def test_serial_baseline_finds_planted_pair(dump, serial_scan):
    _, master = dump
    masters = {r.master_key for r in serial_scan.recovered}
    assert master[:32] in masters and master[32:] in masters
    assert serial_scan.executor == "serial"


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_pool_executors_match_serial_byte_for_byte(dump, serial_scan, executor):
    image, _ = dump
    scan = resilient_recover_keys(
        image, key_bits=256, workers=2, n_shards=N_SHARDS, **POOL_OPTIONS[executor]
    )
    assert scan.executor == executor
    assert scan.recovered == serial_scan.recovered


def test_concurrent_thread_scans_keep_their_own_state():
    """Two thread-pool scans running at once in one process (as the job
    service runs them) each recover exactly their own dump's keys, with
    no shard failed or retried — neither sees the other's dump, keys or
    fingerprint cache, and neither tears the other's state down."""
    # The planted tables sit in the first and the last shard, so a shard
    # task reading the other scan's state shows as a missing or foreign key.
    dumps = [
        synthetic_dump(bit_error_rate=0.002, table_block=block, seed=seed)
        for seed, block in ((5, 700), (6, 10000))
    ]
    scans: list = [None] * len(dumps)
    start = threading.Barrier(len(dumps))

    def scan(index: int) -> None:
        start.wait(timeout=60)
        scans[index] = resilient_recover_keys(
            dumps[index][0], key_bits=256, workers=2, n_shards=N_SHARDS
        )

    threads = [threading.Thread(target=scan, args=(i,)) for i in range(len(dumps))]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(previous)
    for thread, (_, master, _), scan in zip(threads, dumps, scans):
        assert not thread.is_alive()
        assert scan.executor == "thread"
        assert {r.master_key for r in scan.recovered} == {master[:32], master[32:]}
        assert scan.complete
        assert [o.attempts for o in scan.ledger.outcomes.values()] == [1] * N_SHARDS


def test_concurrent_process_scans_keep_their_own_state():
    """A process-pool scan that degraded to serial keeps its state while
    a second process-pool scan starts and ends beside it (the job
    service runs two jobs with kill or hang faults this way): both
    finish complete, each with its own planted keys.  Scan A's serial
    phase runs in the orchestrator; B starts once A reports degrading
    and ends well before A's serial shards do."""
    dump_a, master_a, _ = synthetic_dump(0.0, n_blocks=4 * 12288, seed=5)
    dump_b, master_b, _ = synthetic_dump(0.0, seed=6)
    shards = shard_image(dump_a, 8, overlap_bytes=schedule_bytes(256) + 64)
    plan = FaultPlan(
        faults=((shards[0].base_offset, FaultSpec(kind="kill", first_attempts=1)),),
        seed=5,
    )
    degraded = threading.Event()
    scans: dict = {}

    def on_event(message: str) -> None:
        if "degrading" in message:
            degraded.set()

    def scan_a() -> None:
        scans["a"] = resilient_recover_keys(
            dump_a, key_bits=256, workers=2, n_shards=8,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.001, max_pool_rebuilds=0, seed=5
            ),
            fault_plan=plan, on_event=on_event,
        )

    thread = threading.Thread(target=scan_a)
    thread.start()
    try:
        assert degraded.wait(timeout=120)
        scans["b"] = resilient_recover_keys(
            dump_b, key_bits=256, workers=2, n_shards=2, watchdog=WatchdogConfig()
        )
    finally:
        thread.join(timeout=300)
    assert not thread.is_alive()
    assert scans["a"].ledger.degraded_to_serial
    assert scans["b"].executor == "process"
    for name, master in (("a", master_a), ("b", master_b)):
        assert scans[name].complete, scans[name].ledger.summary()
        assert {r.master_key for r in scans[name].recovered} == {master[:32], master[32:]}


def test_auto_prefers_threads_without_isolation_needs(dump):
    image, _ = dump
    scan = resilient_recover_keys(image, key_bits=256, workers=2, n_shards=N_SHARDS)
    assert scan.executor == "thread"


def test_auto_keeps_process_faults_on_the_process_pool(dump):
    image, _ = dump
    shards = shard_image(image, N_SHARDS, overlap_bytes=schedule_bytes(256) + 64)
    plan = FaultPlan(
        faults=((shards[1].base_offset, FaultSpec(kind="hang", hang_seconds=0.01)),),
        seed=SEED,
    )
    scan = resilient_recover_keys(
        image, key_bits=256, workers=2, n_shards=N_SHARDS,
        retry_policy=_policy(), fault_plan=plan,
    )
    assert scan.executor == "process"


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_quarantine_identical_across_executors(dump, serial_scan, executor):
    """A permanently-crashing shard quarantines identically either way."""
    image, _ = dump
    shards = shard_image(image, N_SHARDS, overlap_bytes=schedule_bytes(256) + 64)
    doomed = shards[3].base_offset  # planted table lives in shard 0
    plan = FaultPlan(
        faults=((doomed, FaultSpec(kind="crash", first_attempts=PERMANENT)),),
        seed=SEED,
    )
    scan = resilient_recover_keys(
        image, key_bits=256, workers=2, n_shards=N_SHARDS,
        retry_policy=_policy(), fault_plan=plan, **POOL_OPTIONS[executor],
    )
    assert scan.executor == executor
    assert scan.quarantined_offsets == [doomed]
    assert not scan.complete
    assert scan.recovered == serial_scan.recovered


def test_resume_crosses_executors(tmp_path, dump, serial_scan):
    """A journal written by a thread run resumes on a process run.

    Run 1 (threads) quarantines one shard, journaling the other three.
    Run 2 (processes) must load those three from the checkpoint, scan
    only the survivor, and converge to the serial baseline.
    """
    image, _ = dump
    checkpoint = tmp_path / "scan.checkpoint.jsonl"
    shards = shard_image(image, N_SHARDS, overlap_bytes=schedule_bytes(256) + 64)
    doomed = shards[2].base_offset
    plan = FaultPlan(
        faults=((doomed, FaultSpec(kind="crash", first_attempts=PERMANENT)),),
        seed=SEED,
    )
    first = resilient_recover_keys(
        image, key_bits=256, workers=2, n_shards=N_SHARDS,
        retry_policy=_policy(), fault_plan=plan,
        checkpoint=checkpoint,
    )
    assert first.executor == "thread"
    assert first.quarantined_offsets == [doomed]

    second = resilient_recover_keys(
        image, key_bits=256, workers=2, n_shards=N_SHARDS,
        retry_policy=_policy(), checkpoint=checkpoint, **POOL_OPTIONS["process"],
    )
    assert second.executor == "process"
    assert second.resumed_shards == N_SHARDS - 1
    statuses = {o: out.status for o, out in second.ledger.outcomes.items()}
    assert statuses.pop(doomed) == STATUS_OK
    assert set(statuses.values()) == {STATUS_FROM_CHECKPOINT}
    assert second.complete
    assert second.recovered == serial_scan.recovered
