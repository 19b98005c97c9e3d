"""Tests for the end-to-end attack pipeline plumbing."""

import pytest

from repro.attack.keymine import mine_scrambler_keys
from repro.attack.pipeline import (
    AttackConfig,
    AttackReport,
    Ddr4ColdBootAttack,
    pair_xts_keys,
)
from repro.attack.sweep import synthetic_dump
from repro.crypto.aes import expand_key
from repro.dram.image import MemoryImage
from repro.resilience.deadline import Deadline
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.util.rng import SplitMix64


def scrambled_dump_with_volume(
    boot_seed: int = 100, n_blocks: int = 3 * 4096, table_block: int = 700, zero_every: int = 3
) -> tuple[MemoryImage, bytes]:
    """A synthetic dump: zeros + noise + a two-schedule XTS key table.

    Key indices cycle every 4096 blocks and gcd(3, 4096) = 1, so with
    three full index periods and a zero block every third block, every
    key index is exposed exactly once — including the table blocks'.
    """
    rng = SplitMix64(boot_seed)
    plain = bytearray(rng.next_bytes(n_blocks * 64))
    for b in range(0, n_blocks, zero_every):
        plain[b * 64 : (b + 1) * 64] = bytes(64)
    master = rng.next_bytes(64)
    table = expand_key(master[:32]) + expand_key(master[32:])
    offset = table_block * 64 + 11
    plain[offset : offset + len(table)] = table
    scrambler = Ddr4Scrambler(boot_seed=boot_seed)
    return MemoryImage(scrambler.scramble_range(0, bytes(plain))), master


class TestPipeline:
    def test_recovers_both_schedules(self):
        dump, master = scrambled_dump_with_volume()
        report = Ddr4ColdBootAttack().run(dump)
        assert len(report.recovered_keys) >= 2
        recovered = {r.master_key for r in report.recovered_keys}
        assert master[:32] in recovered and master[32:] in recovered

    def test_xts_join(self):
        dump, master = scrambled_dump_with_volume(boot_seed=555)
        assert Ddr4ColdBootAttack().recover_xts_master_key(dump) == master

    def test_report_bookkeeping(self):
        dump, _ = scrambled_dump_with_volume(boot_seed=7)
        report = Ddr4ColdBootAttack().run(dump)
        assert report.dump_bytes == len(dump)
        assert report.mine_seconds > 0 and report.search_seconds > 0
        assert report.scan_rate_mb_per_hour > 0
        assert "recovered" in report.summary()

    def test_empty_dump(self):
        report = Ddr4ColdBootAttack().run(MemoryImage(SplitMix64(1).next_bytes(64 * 64)))
        assert report.recovered_keys == []
        assert report.master_keys == []

    def test_xts_returns_none_without_volume(self):
        scrambler = Ddr4Scrambler(boot_seed=9)
        plain = bytearray(SplitMix64(2).next_bytes(512 * 64))
        for b in range(0, 512, 3):
            plain[b * 64 : (b + 1) * 64] = bytes(64)
        dump = MemoryImage(scrambler.scramble_range(0, bytes(plain)))
        assert Ddr4ColdBootAttack().recover_xts_master_key(dump) is None

    def test_fresh_report_defaults(self):
        report = AttackReport()
        assert report.scan_rate_mb_per_hour == float("inf")


@pytest.fixture(scope="module")
def decayed_xts():
    """BER 0.008, seed 1: the open scan finds the tweak schedule, and
    only the pinned rescue its primary."""
    dump, master, _ = synthetic_dump(0.008, seed=1)
    attack = Ddr4ColdBootAttack()
    return dump, master, attack.run(dump), attack.run_sharded(dump, workers=2, n_shards=2)


class PollCountDeadline(Deadline):
    """Expires once ``expired`` has been polled ``checks`` times."""

    def __init__(self, checks: int) -> None:
        object.__setattr__(self, "expires_at", float("inf"))
        object.__setattr__(self, "total_seconds", 3600.0)
        object.__setattr__(self, "polls", 0)
        object.__setattr__(self, "checks", checks)

    @property
    def expired(self) -> bool:
        object.__setattr__(self, "polls", self.polls + 1)
        return self.polls > self.checks


class TestOneFixedBudgetPath:
    def test_run_is_the_sharded_run(self, decayed_xts):
        _, master, single, sharded = decayed_xts
        assert single.recovered_keys == sharded.recovered_keys
        assert single.master_keys == [master[:32], master[32:]]
        assert (single.n_shards, single.executor) == (1, "serial")

    def test_xts_key_is_the_pair_of_either_report(self, decayed_xts):
        dump, master, single, sharded = decayed_xts
        assert Ddr4ColdBootAttack().recover_xts_master_key(dump) == master
        assert pair_xts_keys(single.recovered_keys, 256) == master
        assert pair_xts_keys(sharded.recovered_keys, 256) == master

    def test_scan_limit_reaches_the_miner(self, decayed_xts):
        dump = decayed_xts[0]
        limit = 64 * 1024
        report = Ddr4ColdBootAttack(AttackConfig(key_scan_limit_bytes=limit)).run_sharded(dump)
        assert report.candidate_keys == mine_scrambler_keys(dump, scan_limit_bytes=limit)

    def test_a_cut_scan_leaves_the_rescue_to_its_resume(self, decayed_xts, tmp_path):
        dump, master, _, _ = decayed_xts
        attack = Ddr4ColdBootAttack()
        journal = tmp_path / "scan.jsonl"
        # The deadline lets the first of four shards run: the scan finds
        # the tweak schedule there, and only the rescue its primary.
        cut = attack.run_sharded(dump, n_shards=4, checkpoint=journal, deadline=PollCountDeadline(2))
        assert len(cut.unscanned_shards) == 3 and cut.resumable
        assert cut.master_keys == [master[32:]]
        resumed = attack.run_sharded(dump, n_shards=4, checkpoint=journal)
        assert resumed.recovered_keys == attack.run_sharded(dump, n_shards=4).recovered_keys
        assert resumed.master_keys == [master[:32], master[32:]]
