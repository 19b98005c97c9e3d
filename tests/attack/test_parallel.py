"""Tests for the sharded/parallel scan."""

import pytest

from repro.attack.aes_search import RecoveredAesKey, ScheduleHit
from repro.attack.parallel import (
    Shard,
    merge_recovered,
    resilient_recover_keys,
    shard_image,
)
from repro.attack.sweep import synthetic_dump
from repro.crypto.aes import schedule_bytes
from repro.dram.image import MemoryImage
from repro.resilience.errors import ShardLayoutError


def recovered_at(block_index: int, offset: int = 0, votes: int = 1) -> RecoveredAesKey:
    hit = ScheduleHit(
        block_index=block_index,
        key_index=0,
        offset=offset,
        round_index=0,
        mismatch_bits=0,
        key_bits=256,
    )
    return RecoveredAesKey(
        master_key=bytes(32),
        key_bits=256,
        votes=votes,
        first_block_index=block_index,
        match_fraction=1.0,
        region_agreement=1.0,
        hits=(hit,),
    )


class TestSharding:
    def test_shards_cover_everything(self):
        dump = MemoryImage(bytes(100 * 64))
        shards = shard_image(dump, n_shards=4, overlap_bytes=240)
        covered = set()
        for shard in shards:
            start = shard.base_offset // 64
            covered.update(range(start, start + shard.image.n_blocks))
        assert covered == set(range(100))

    def test_overlap_extends_shards(self):
        dump = MemoryImage(bytes(100 * 64))
        shards = shard_image(dump, n_shards=4, overlap_bytes=240)
        # Interior shards carry ceil(240/64)=4 extra blocks.
        assert shards[0].image.n_blocks == 25 + 4

    def test_more_shards_than_blocks(self):
        dump = MemoryImage(bytes(3 * 64))
        shards = shard_image(dump, n_shards=10, overlap_bytes=0)
        assert len(shards) == 3

    def test_empty_dump(self):
        assert shard_image(MemoryImage(b""), 4, 0) == []

    def test_validation(self):
        dump = MemoryImage(bytes(64))
        with pytest.raises(ValueError):
            shard_image(dump, 0, 0)
        with pytest.raises(ValueError):
            shard_image(dump, 1, -1)
        with pytest.raises(ValueError):
            Shard(base_offset=32, image=dump)

    def test_layout_errors_are_typed(self):
        # The old bare ValueErrors are now ShardLayoutError (still a
        # ValueError for legacy handlers).
        dump = MemoryImage(bytes(64))
        with pytest.raises(ShardLayoutError):
            shard_image(dump, 0, 0)
        with pytest.raises(ShardLayoutError):
            Shard(base_offset=32, image=dump)

    def test_overlap_longer_than_a_shard(self):
        # Overlap (10 blocks) exceeds the nominal shard size (3 blocks);
        # shards must clamp at the dump end and still cover everything.
        dump = MemoryImage(bytes(12 * 64))
        shards = shard_image(dump, n_shards=4, overlap_bytes=10 * 64)
        covered = set()
        for shard in shards:
            assert shard.base_offset + len(shard.image.data) <= len(dump)
            start = shard.base_offset // 64
            covered.update(range(start, start + shard.image.n_blocks))
        assert covered == set(range(12))

    def test_single_block_dump(self):
        dump = MemoryImage(bytes(64))
        shards = shard_image(dump, n_shards=4, overlap_bytes=240)
        assert len(shards) == 1
        assert shards[0].base_offset == 0
        assert shards[0].image.n_blocks == 1

    def test_every_schedule_window_lies_inside_some_shard(self):
        # The guarantee the overlap exists for: any schedule-length
        # window of the dump is wholly contained in at least one shard.
        window = schedule_bytes(256) + 64
        dump = MemoryImage(bytes(97 * 64))
        for n_shards in (1, 2, 3, 5, 8, 97, 200):
            shards = shard_image(dump, n_shards=n_shards, overlap_bytes=window)
            for start in range(0, len(dump) - window + 1, 64):
                assert any(
                    shard.base_offset <= start
                    and start + window <= shard.base_offset + len(shard.image.data)
                    for shard in shards
                ), f"window at {start} not covered with n_shards={n_shards}"


class TestEndToEnd:
    def test_sharded_search_matches_monolithic(self):
        dump, master, _ = synthetic_dump(bit_error_rate=0.0, n_blocks=3 * 4096, seed=51)
        recovered = resilient_recover_keys(dump, key_bits=256, workers=1, n_shards=4).recovered
        masters = {r.master_key for r in recovered}
        assert master[:32] in masters and master[32:] in masters

    def test_table_straddling_a_shard_boundary(self):
        """The overlap guarantees boundary-straddling tables survive."""
        # 3*4096 blocks, 4 shards -> boundary at block 3072; plant there.
        dump, master, _ = synthetic_dump(
            bit_error_rate=0.0, n_blocks=3 * 4096, table_block=3070, seed=52
        )
        recovered = resilient_recover_keys(dump, key_bits=256, workers=1, n_shards=4).recovered
        masters = {r.master_key for r in recovered}
        assert master[:32] in masters and master[32:] in masters

    def test_two_process_workers(self):
        # Three index periods so every table block's key gets exposed
        # (period 4096 and zero stride 3 are coprime).
        dump, master, _ = synthetic_dump(bit_error_rate=0.0, n_blocks=3 * 4096, seed=53)
        recovered = resilient_recover_keys(dump, key_bits=256, workers=2).recovered
        assert master[:32] in {r.master_key for r in recovered}

    def test_merge_deduplicates_overlap(self):
        dump, master, _ = synthetic_dump(bit_error_rate=0.0, n_blocks=3 * 4096, seed=54)
        recovered = resilient_recover_keys(dump, key_bits=256, workers=1, n_shards=6).recovered
        bases = [r.hits[0].table_base for r in recovered]
        assert len(bases) == len(set(bases))

    def test_empty_candidates_short_circuit(self):
        from repro.util.rng import SplitMix64

        dump = MemoryImage(SplitMix64(1).next_bytes(256 * 64))
        assert resilient_recover_keys(dump).recovered == []


class TestMerge:
    def test_results_without_hits_are_dropped(self):
        # Regression: a hit-less result used to be assigned
        # local_base=0, colliding with (and displacing) a genuine
        # schedule found at its shard's offset 0.
        hitless = RecoveredAesKey(
            master_key=bytes(32),
            key_bits=256,
            votes=99,
            first_block_index=0,
            match_fraction=1.0,
            region_agreement=1.0,
            hits=(),
        )
        genuine = recovered_at(block_index=0, votes=2)
        merged = merge_recovered([(0, [genuine]), (4096, [hitless])])
        assert merged == [genuine]

    def test_merge_rebases_to_global_offsets(self):
        result = recovered_at(block_index=3, offset=16)
        [merged] = merge_recovered([(10 * 64, [result])])
        assert merged.hits[0].block_index == 13
        assert merged.hits[0].table_base == result.hits[0].table_base + 10 * 64
        assert merged.first_block_index == 13

    def test_duplicate_across_shards_keeps_stronger(self):
        # Block 10 seen from shard 0 and from shard at 5 blocks (as its
        # local block 5): same global base, higher vote count wins.
        weak = recovered_at(block_index=10, votes=1)
        strong = recovered_at(block_index=5, votes=4)
        merged = merge_recovered([(0, [weak]), (5 * 64, [strong])])
        assert len(merged) == 1
        assert merged[0].votes == 4
        assert merged[0].hits[0].block_index == 10
