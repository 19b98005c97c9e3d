"""Zero-copy shard dispatch: tiny payloads, nothing published, pool rebuilds.

The sharded scan registers one run state (dump, key matrix, heartbeat
board) and ships each shard as ``(offset, length)``; process workers are
forked and read the run state they inherited.  These tests pin the
load-bearing properties:

* a shard task's pickled payload stays under 1 KiB no matter how large
  the dump grows;
* a process-pool scan publishes nothing: no segment appears under
  ``/dev/shm`` while it runs;
* a SIGKILLed worker breaks the pool, and the rebuilt pool's fresh
  processes inherit the run and still converge.
"""

import os
import pickle

import pytest

from repro.attack.parallel import resilient_recover_keys, shard_image
from repro.attack.sweep import synthetic_dump
from repro.crypto.aes import schedule_bytes
from repro.resilience.executor import ResilientShardRunner
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.resilience.watchdog import WatchdogConfig


@pytest.mark.parametrize("n_blocks", [2048, 16384])
def test_shard_payload_under_1kib_regardless_of_dump_size(monkeypatch, n_blocks):
    captured = {}
    original_run = ResilientShardRunner.run

    def spy(self, jobs, **kwargs):
        captured.update(jobs)
        return original_run(self, jobs, **kwargs)

    monkeypatch.setattr(ResilientShardRunner, "run", spy)
    dump, _, _ = synthetic_dump(0.0, n_blocks=n_blocks, seed=3)
    resilient_recover_keys(dump, key_bits=256, workers=1, n_shards=4)
    assert captured
    for offset, payload in captured.items():
        wire_size = len(pickle.dumps((payload, offset), protocol=pickle.HIGHEST_PROTOCOL))
        assert wire_size < 1024


def test_process_scan_creates_nothing_under_dev_shm(monkeypatch):
    """A 2-worker watchdog scan runs on forked processes that inherit the
    dump, the keys and the heartbeat board: nothing appears in
    ``/dev/shm`` when the run starts or before it returns."""
    before = set(os.listdir("/dev/shm"))
    seen: list[set[str]] = []
    original_run = ResilientShardRunner.run

    def spy(self, jobs, **kwargs):
        seen.append(set(os.listdir("/dev/shm")))
        try:
            return original_run(self, jobs, **kwargs)
        finally:
            seen.append(set(os.listdir("/dev/shm")))

    monkeypatch.setattr(ResilientShardRunner, "run", spy)
    dump, master, _ = synthetic_dump(0.0, seed=5)
    scan = resilient_recover_keys(
        dump, key_bits=256, workers=2, n_shards=2, watchdog=WatchdogConfig()
    )
    assert scan.executor == "process"
    assert len(seen) == 2
    assert [listing - before for listing in seen] == [set(), set()]
    masters = {r.master_key for r in scan.recovered}
    assert master[:32] in masters and master[32:] in masters


def test_rebuilt_pool_workers_inherit_the_run():
    """A killed worker breaks the pool; the rebuilt pool still converges.

    The kill lands on the first attempt of shard 0, so the scan must
    survive one BrokenProcessPool, fork fresh workers (which inherit the
    run's dump and key matrix as the first pool's did), retry the shard,
    and recover the planted XTS pair.
    """
    dump, master, _ = synthetic_dump(0.0, seed=5)
    shards = shard_image(dump, n_shards=4, overlap_bytes=schedule_bytes(256) + 64)
    plan = FaultPlan(
        faults=((shards[0].base_offset, FaultSpec(kind="kill", first_attempts=1)),),
        seed=5,
    )
    scan = resilient_recover_keys(
        dump,
        key_bits=256,
        workers=2,
        n_shards=4,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001, seed=5),
        fault_plan=plan,
    )
    assert scan.ledger.pool_rebuilds >= 1
    assert scan.ledger.outcomes[shards[0].base_offset].attempts >= 2
    assert scan.complete
    masters = {r.master_key for r in scan.recovered}
    assert master[:32] in masters and master[32:] in masters
