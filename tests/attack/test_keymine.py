"""Tests for scrambler-key mining."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.keymine import (
    CandidateKey,
    MiningState,
    _unique_rows,
    keys_matrix,
    mine_scrambler_keys,
)
from repro.dram.image import MemoryImage
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.util.rng import SplitMix64


def scrambled_image_with_zero_blocks(
    scrambler: Ddr4Scrambler, n_blocks: int, zero_every: int, seed: int = 0
) -> MemoryImage:
    """Random plaintext with zero blocks sprinkled at a fixed stride."""
    rng = SplitMix64(seed)
    plain = bytearray(rng.next_bytes(n_blocks * 64))
    for b in range(0, n_blocks, zero_every):
        plain[b * 64 : (b + 1) * 64] = bytes(64)
    return MemoryImage(scrambler.scramble_range(0, bytes(plain)))


class TestCleanMining:
    def test_recovers_exposed_keys_exactly(self):
        scrambler = Ddr4Scrambler(boot_seed=1234)
        image = scrambled_image_with_zero_blocks(scrambler, n_blocks=2048, zero_every=4)
        mined = {c.key for c in mine_scrambler_keys(image)}
        exposed = {scrambler.key_for_address(b * 64) for b in range(0, 2048, 4)}
        assert exposed <= mined

    def test_frequency_ordering(self):
        scrambler = Ddr4Scrambler(boot_seed=99)
        image = scrambled_image_with_zero_blocks(scrambler, n_blocks=1024, zero_every=2)
        candidates = mine_scrambler_keys(image)
        counts = [c.count for c in candidates]
        assert counts == sorted(counts, reverse=True)

    def test_no_zero_blocks_no_true_keys(self):
        scrambler = Ddr4Scrambler(boot_seed=5)
        rng = SplitMix64(1)
        image = MemoryImage(scrambler.scramble_range(0, rng.next_bytes(512 * 64)))
        mined = {c.key for c in mine_scrambler_keys(image)}
        true_keys = {scrambler.key_for_address(b * 64) for b in range(512)}
        assert not (mined & true_keys)

    def test_empty_image_yields_nothing(self):
        scrambler = Ddr4Scrambler(boot_seed=5)
        rng = SplitMix64(2)
        image = MemoryImage(rng.next_bytes(64 * 64))
        assert mine_scrambler_keys(image, tolerance_bits=0) == []


class TestDecayedMining:
    def test_majority_vote_repairs_flips(self):
        # Three exposures of each key (key indices cycle every 4096
        # blocks), so the vote can outnumber any single decayed copy.
        scrambler = Ddr4Scrambler(boot_seed=77)
        n_blocks = 3 * 4096
        image = scrambled_image_with_zero_blocks(scrambler, n_blocks=n_blocks, zero_every=2)
        data = bytearray(image.data)
        rng = SplitMix64(9)
        for b in range(0, n_blocks, 16):  # one flipped bit per 16th block
            bit = rng.next_below(512)
            data[b * 64 + bit // 8] ^= 0x80 >> (bit % 8)
        decayed = MemoryImage(bytes(data))
        mined = {c.key for c in mine_scrambler_keys(decayed, scan_limit_bytes=None)}
        exposed = {scrambler.key_for_address(b * 64) for b in range(0, 4096, 2)}
        # Voting recovers nearly all keys exactly despite the flips.
        assert len(exposed & mined) >= 0.95 * len(exposed)


class TestScanLimit:
    def test_limit_restricts_scan(self):
        scrambler = Ddr4Scrambler(boot_seed=3)
        image = scrambled_image_with_zero_blocks(scrambler, n_blocks=1024, zero_every=8)
        limited = mine_scrambler_keys(image, scan_limit_bytes=64 * 64)
        full = mine_scrambler_keys(image, scan_limit_bytes=None)
        assert len(limited) < len(full)


class TestMiningState:
    def test_state_must_come_from_the_same_image_and_limit(self):
        scrambler = Ddr4Scrambler(boot_seed=3)
        image = scrambled_image_with_zero_blocks(scrambler, n_blocks=256, zero_every=4)
        state = MiningState(image)
        with pytest.raises(ValueError):
            mine_scrambler_keys(MemoryImage(bytes(image.data)), state=state)
        with pytest.raises(ValueError):
            mine_scrambler_keys(image, scan_limit_bytes=None, state=state)
        assert mine_scrambler_keys(image, state=state) == mine_scrambler_keys(image)


class TestUniqueRows:
    """The miner's one-sort dedupe is ``np.unique(axis=0)``: the same
    rows, in the same order, with the same counts."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 600),
        n_distinct=st.integers(1, 600),
        shape=st.sampled_from(("random", "high", "last_byte", "two_bytes")),
    )
    def test_matches_axis0_unique(self, seed, n_rows, n_distinct, shape):
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 256, size=(n_distinct, 64), dtype=np.uint8)
        if shape == "high":
            # Bytes >= 0x80 must sort above the low ones, as unsigned.
            distinct |= np.uint8(0x80) * rng.integers(0, 2, size=distinct.shape, dtype=np.uint8)
        elif shape == "last_byte":
            distinct[:, :63] = distinct[0, :63]
        elif shape == "two_bytes":
            distinct[:, 1:63] = distinct[0, 1:63]
        # Heavy duplication: fewer draws than distinct rows, or many more.
        rows = distinct[rng.integers(0, n_distinct, size=n_rows)]
        got_rows, got_counts = _unique_rows(rows)
        want_rows, want_counts = np.unique(rows, axis=0, return_counts=True)
        assert got_rows.dtype == want_rows.dtype and np.array_equal(got_rows, want_rows)
        assert np.array_equal(got_counts, want_counts)

    def test_strided_input(self):
        rows = np.random.default_rng(1).integers(0, 256, size=(50, 128), dtype=np.uint8)
        view = rows[::2, ::2]
        got_rows, got_counts = _unique_rows(view)
        want_rows, want_counts = np.unique(view, axis=0, return_counts=True)
        assert np.array_equal(got_rows, want_rows) and np.array_equal(got_counts, want_counts)


class TestCandidateKey:
    def test_validation(self):
        with pytest.raises(ValueError):
            CandidateKey(key=bytes(32), count=1)
        with pytest.raises(ValueError):
            CandidateKey(key=bytes(64), count=0)

    def test_keys_matrix_shape(self):
        candidates = [CandidateKey(key=bytes([i]) * 64, count=1) for i in range(5)]
        matrix = keys_matrix(candidates)
        assert matrix.shape == (5, 64)
        assert keys_matrix([]).shape == (0, 64)

    def test_negative_tolerance_rejected(self):
        image = MemoryImage(bytes(64))
        with pytest.raises(ValueError):
            mine_scrambler_keys(image, tolerance_bits=-1)
