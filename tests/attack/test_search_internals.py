"""Focused tests for the search's decay-hardening internals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.aes_search import (
    AesKeySearch,
    AesVariant,
    _ranked_ballots,
    repair_observed_table,
)
from repro.attack.sweep import synthetic_dump
from repro.crypto.aes import expand_key
from repro.dram.image import MemoryImage
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.util.bits import POPCOUNT_TABLE
from repro.util.rng import SplitMix64


class TestRepairObservedTable:
    def _noisy_schedule(self, n_flips: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
        key = SplitMix64(seed).next_bytes(32)
        clean = np.frombuffer(expand_key(key), dtype=np.uint8)
        noisy = clean.copy()
        rng = SplitMix64(seed + 1)
        flipped = set()
        while len(flipped) < n_flips:
            flipped.add(rng.next_below(len(noisy) * 8))
        for bit in flipped:
            noisy[bit // 8] ^= 0x80 >> (bit % 8)
        return clean, noisy

    def test_clean_schedule_untouched(self):
        clean, _ = self._noisy_schedule(0)
        assert np.array_equal(repair_observed_table(clean.copy(), 256), clean)

    @pytest.mark.parametrize("n_flips", [1, 3, 6])
    def test_scattered_errors_reduced(self, n_flips):
        clean, noisy = self._noisy_schedule(n_flips, seed=n_flips)
        repaired = repair_observed_table(noisy, 256)
        before = int(POPCOUNT_TABLE[noisy ^ clean].sum())
        after = int(POPCOUNT_TABLE[repaired ^ clean].sum())
        assert after <= before  # never makes things worse overall
        if n_flips <= 3:
            assert after < before or after == 0  # usually heals

    def test_respects_known_mask(self):
        clean, noisy = self._noisy_schedule(4, seed=9)
        known = np.ones(len(noisy), dtype=bool)
        known[64:128] = False  # pretend a block's key was missing
        repaired = repair_observed_table(noisy, 256, known_bytes=known)
        assert len(repaired) == len(noisy)

    def test_short_table_passthrough(self):
        stub = np.zeros(16, dtype=np.uint8)
        assert np.array_equal(repair_observed_table(stub, 256), stub)


class TestRankedBallots:
    """A pass's ballot book is arrays: ``_ranked_ballots`` picks what the
    dict book picked — each master at its first row, then a stable top-8
    by span score."""

    @staticmethod
    def dict_book(masters: np.ndarray, scores: np.ndarray) -> list[tuple[bytes, int]]:
        scored: dict[bytes, tuple[int, int]] = {}
        for row, master in enumerate(masters):
            scored.setdefault(master.tobytes(), (int(scores[row]), row))
        ranked = sorted(scored.items(), key=lambda item: item[1][0])[:8]
        return [(master, row) for master, (_score, row) in ranked]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 600),
        n_masters=st.integers(1, 40),
        score_range=st.sampled_from((1, 3, 50, 10_000)),
    )
    def test_matches_the_dict_book(self, seed, n_rows, n_masters, score_range):
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 256, size=(n_masters, 32), dtype=np.uint8)
        # Every row is its master's expansion, so a row's score is its
        # master's; a narrow score range makes ties the rule.
        master_scores = rng.integers(0, score_range, size=n_masters)
        which = rng.integers(0, n_masters, size=n_rows)
        masters, scores = distinct[which], master_scores[which]
        assert _ranked_ballots(masters, scores) == self.dict_book(masters, scores)


class TestRecoverAtBase:
    def test_finds_schedule_at_known_base(self):
        scrambler = Ddr4Scrambler(boot_seed=12)
        master = SplitMix64(3).next_bytes(32)
        plain = bytearray(SplitMix64(4).next_bytes(128 * 64))
        base = 60 * 64 + 19
        plain[base : base + 240] = expand_key(master)
        dump = MemoryImage(scrambler.scramble_range(0, bytes(plain)))
        keys = [scrambler.key_for_address(b * 64) for b in range(58, 68)]
        search = AesKeySearch(keys, key_bits=256)
        result = search.recover_at_base(dump, base)
        assert result is not None
        assert result.master_key == master

    def test_wrong_base_returns_none(self):
        scrambler = Ddr4Scrambler(boot_seed=13)
        dump = MemoryImage(scrambler.scramble_range(0, SplitMix64(5).next_bytes(64 * 64)))
        keys = [scrambler.key_for_address(b * 64) for b in range(16)]
        search = AesKeySearch(keys, key_bits=256)
        assert search.recover_at_base(dump, 10 * 64) is None

    def test_out_of_image_base_returns_none(self):
        scrambler = Ddr4Scrambler(boot_seed=14)
        dump = MemoryImage(scrambler.scramble_range(0, bytes(16 * 64)))
        search = AesKeySearch([scrambler.key_for_address(0)], key_bits=256)
        assert search.recover_at_base(dump, -100) is None
        assert search.recover_at_base(dump, 15 * 64) is None  # runs off the end


class TestOverlapCompetition:
    def test_adjacent_schedules_both_survive(self):
        """An XTS pair (bases 240 apart) must never compete."""
        dump, master, _ = synthetic_dump(bit_error_rate=0.0, n_blocks=3 * 4096, seed=21)
        from repro.attack.keymine import keys_matrix, mine_scrambler_keys

        search = AesKeySearch(keys_matrix(mine_scrambler_keys(dump)), key_bits=256)
        recovered = search.recover_keys(dump)
        masters = {r.master_key for r in recovered}
        assert master[:32] in masters and master[32:] in masters

    def test_alias_bases_filtered(self):
        """Shifted odd-round aliases of one schedule yield ONE key."""
        scrambler = Ddr4Scrambler(boot_seed=31)
        master = b"\x2f" * 32
        plain = bytearray(SplitMix64(6).next_bytes(256 * 64))
        plain[77 * 64 + 3 : 77 * 64 + 3 + 240] = expand_key(master)
        dump = MemoryImage(scrambler.scramble_range(0, bytes(plain)))
        keys = [scrambler.key_for_address(b * 64) for b in range(74, 84)]
        recovered = AesKeySearch(keys, key_bits=256).recover_keys(dump)
        assert [r.master_key for r in recovered] == [master]
        assert recovered[0].region_agreement > 0.99


class TestVariantOffsets:
    def test_aes128_scans_more_offsets(self):
        """Shorter spans allow (and get) more window offsets."""
        search128 = AesKeySearch([bytes(64)], key_bits=128)
        search256 = AesKeySearch([bytes(64)], key_bits=256)
        assert len(search128.offsets) == 32
        assert len(search256.offsets) == 17
        assert max(search128.offsets) + AesVariant(128).span_bytes <= 64
        assert max(search256.offsets) + AesVariant(256).span_bytes <= 64
