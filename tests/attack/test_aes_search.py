"""Tests for the per-block AES key search (§III-C)."""

import numpy as np
import pytest

from repro.attack.aes_search import (
    AesKeySearch,
    AesVariant,
    KeyFingerprintCache,
    _fingerprints,
    default_scan_offsets,
    exhaustive_hits,
    reconstruct_schedule,
)
from repro.crypto.aes import expand_key, expand_key_words
from repro.dram.image import MemoryImage
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.util.rng import SplitMix64


def plant_schedule(
    scrambler: Ddr4Scrambler,
    n_blocks: int,
    master_key: bytes,
    table_offset: int,
    seed: int = 0,
) -> MemoryImage:
    """Random plaintext with one expanded schedule planted, then scrambled."""
    rng = SplitMix64(seed)
    plain = bytearray(rng.next_bytes(n_blocks * 64))
    schedule = expand_key(master_key)
    plain[table_offset : table_offset + len(schedule)] = schedule
    return MemoryImage(scrambler.scramble_range(0, bytes(plain)))


class TestVariantGeometry:
    def test_aes256_thirteen_windows(self):
        """The '12 possible partial expansions' plus the r=0 window."""
        assert AesVariant(256).window_rounds == tuple(range(13))

    def test_span_sizes(self):
        assert AesVariant(256).span_bytes == 48
        assert AesVariant(192).span_bytes == 40
        assert AesVariant(128).span_bytes == 32

    def test_phases(self):
        # AES-256 windows sit at word 4r: phase 0 (even r) or 4 (odd r);
        # both share the same linear relations but different round sets.
        assert AesVariant(256).phases() == (0, 4)
        assert AesVariant(128).phases() == (0,)
        assert set(AesVariant(192).phases()) == {0, 2, 4}


class TestReconstruction:
    @pytest.mark.parametrize("key_bits", [128, 192, 256])
    def test_any_window_rebuilds_full_schedule(self, key_bits):
        key = bytes(range(key_bits // 8))
        words = expand_key_words(key)
        nk = key_bits // 32
        schedule = expand_key(key)
        for start in range(0, len(words) - nk, 5):
            window = words[start : start + nk]
            assert reconstruct_schedule(window, start, key_bits) == schedule

    def test_rejects_out_of_schedule_window(self):
        with pytest.raises(ValueError):
            reconstruct_schedule([0] * 8, 55, 256)

    def test_rejects_wrong_window_length(self):
        with pytest.raises(ValueError):
            reconstruct_schedule([0] * 4, 0, 256)


class TestCleanSearch:
    def test_recovers_key_at_odd_alignment(self):
        scrambler = Ddr4Scrambler(boot_seed=404)
        master = bytes(range(32))
        image = plant_schedule(scrambler, 512, master, table_offset=100 * 64 + 13)
        search = AesKeySearch(scrambler.all_keys()[:256], key_bits=256)
        # True key for blocks 100..103 must be in the candidate set.
        keys = [scrambler.key_for_address(b * 64) for b in range(98, 106)]
        search = AesKeySearch(keys, key_bits=256)
        recovered = search.recover_keys(image)
        assert recovered and recovered[0].master_key == master
        assert recovered[0].match_fraction == 1.0

    @pytest.mark.parametrize("alignment", [0, 1, 7, 15, 16, 48, 63])
    def test_all_alignments(self, alignment):
        scrambler = Ddr4Scrambler(boot_seed=11)
        master = b"\x55" * 32
        image = plant_schedule(scrambler, 64, master, table_offset=20 * 64 + alignment, seed=alignment)
        keys = [scrambler.key_for_address(b * 64) for b in range(18, 28)]
        recovered = AesKeySearch(keys, key_bits=256).recover_keys(image)
        assert [r.master_key for r in recovered] == [master]

    @pytest.mark.parametrize("key_bits", [128, 192, 256])
    def test_all_key_sizes(self, key_bits):
        scrambler = Ddr4Scrambler(boot_seed=22)
        master = bytes(range(1, key_bits // 8 + 1))
        image = plant_schedule(scrambler, 64, master, table_offset=10 * 64 + 5)
        keys = [scrambler.key_for_address(b * 64) for b in range(8, 18)]
        recovered = AesKeySearch(keys, key_bits=key_bits).recover_keys(image)
        assert master in [r.master_key for r in recovered]

    def test_no_schedule_no_findings(self):
        scrambler = Ddr4Scrambler(boot_seed=33)
        rng = SplitMix64(4)
        image = MemoryImage(scrambler.scramble_range(0, rng.next_bytes(256 * 64)))
        keys = [scrambler.key_for_address(b * 64) for b in range(64)]
        assert AesKeySearch(keys, key_bits=256).recover_keys(image) == []

    def test_zero_key_searches_plaintext(self):
        """With a single zero key the search degenerates to Halderman."""
        master = b"\x77" * 32
        plain = bytearray(SplitMix64(5).next_bytes(128 * 64))
        plain[40 * 64 : 40 * 64 + 240] = expand_key(master)
        image = MemoryImage(bytes(plain))
        recovered = AesKeySearch([bytes(64)], key_bits=256).recover_keys(image)
        assert [r.master_key for r in recovered] == [master]


class TestFingerprintJoinEquivalence:
    def test_matches_exhaustive_reference(self):
        scrambler = Ddr4Scrambler(boot_seed=55)
        master = bytes(reversed(range(32)))
        image = plant_schedule(scrambler, 32, master, table_offset=8 * 64 + 3)
        keys = [scrambler.key_for_address(b * 64) for b in range(6, 16)]
        fast = AesKeySearch(keys, key_bits=256)
        fast_hits = {
            (h.block_index, h.key_index, h.offset, h.round_index)
            for h in fast.find_hits(image)
        }
        slow_hits = {
            (h.block_index, h.key_index, h.offset, h.round_index)
            for h in exhaustive_hits(image, fast.keys, key_bits=256)
        }
        assert fast_hits == slow_hits
        assert fast_hits  # non-trivial


class TestKeyBandByteOrder:
    """Key-side band values are little-endian on every host, so they
    equal the block side's arithmetic ``lo | hi << 8`` composition."""

    @pytest.mark.parametrize("key_bits", [128, 192, 256])
    def test_bands_compose_low_byte_first(self, key_bits):
        keys = np.random.default_rng(key_bits).integers(0, 256, size=(5, 64), dtype=np.uint8)
        variant = AesVariant(key_bits)
        cache = KeyFingerprintCache(keys, key_bits).precompute()
        attached = KeyFingerprintCache.attach(keys, key_bits, cache.export_blob())
        for offset in default_scan_offsets(key_bits):
            for phase in variant.phases():
                fp = _fingerprints(
                    keys[:, offset : offset + variant.span_bytes], variant.nk, phase
                ).astype(np.uint16)
                expected = fp[:, 0::2] | fp[:, 1::2] << np.uint16(8)
                for values in (cache.bands(offset, phase)[0], attached.bands(offset, phase)[0]):
                    assert values.dtype == np.dtype("<u2")
                    assert np.array_equal(values, expected)
                # The attached entry is a view of the blob, not a rebuild.
                assert not attached.bands(offset, phase)[0].flags.writeable


class TestDecayedSearch:
    def test_recovery_with_bit_decay(self):
        scrambler = Ddr4Scrambler(boot_seed=66)
        master = b"\xc3" * 32
        image = plant_schedule(scrambler, 128, master, table_offset=50 * 64 + 9)
        data = bytearray(image.data)
        # Flip scattered bits across the schedule region (~0.5% BER).
        rng = SplitMix64(8)
        for _ in range(12):
            bit = 50 * 64 * 8 + rng.next_below(480 * 8)
            data[bit // 8] ^= 0x80 >> (bit % 8)
        decayed = MemoryImage(bytes(data))
        keys = [scrambler.key_for_address(b * 64) for b in range(48, 60)]
        recovered = AesKeySearch(keys, key_bits=256).recover_keys(decayed)
        assert recovered and recovered[0].master_key == master
        assert recovered[0].match_fraction > 0.95

    def test_votes_reflect_consistent_windows(self):
        scrambler = Ddr4Scrambler(boot_seed=77)
        master = b"\x11" * 32
        image = plant_schedule(scrambler, 64, master, table_offset=16 * 64)
        keys = [scrambler.key_for_address(b * 64) for b in range(14, 24)]
        recovered = AesKeySearch(keys, key_bits=256).recover_keys(image)
        assert recovered[0].votes >= 3


class TestValidation:
    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            AesKeySearch([], key_bits=256)

    def test_bad_key_shape_rejected(self):
        with pytest.raises(ValueError):
            AesKeySearch(np.zeros((2, 32), dtype=np.uint8))

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            AesKeySearch([bytes(64)], key_bits=256, offsets=(17,))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            AesKeySearch([bytes(64)], accept_mismatch_fraction=0.9)
