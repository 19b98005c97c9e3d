"""Tests for the scrambler-key litmus test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.litmus import (
    INVARIANT_WORD_OFFSETS,
    key_litmus_mismatch_bits,
    litmus_parity_matrix,
    litmus_pass_mask,
    passes_key_litmus,
)
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.util.rng import SplitMix64


class TestInvariantDefinitions:
    def test_four_invariants(self):
        assert len(INVARIANT_WORD_OFFSETS) == 4

    def test_paper_notation(self):
        """The first listed invariant is K[i+2:i+3]^K[i+4:i+5] == K[i+10:i+11]^K[i+12:i+13]."""
        assert INVARIANT_WORD_OFFSETS[0] == (2, 4, 10, 12)


class TestPositives:
    def test_all_scrambler_keys_pass(self):
        scrambler = Ddr4Scrambler(boot_seed=999)
        for index in range(0, 4096, 97):
            assert passes_key_litmus(scrambler.key_for(0, index))

    def test_constant_blocks_pass(self):
        """Word-constant plaintext XOR key still passes — the known
        false-positive class the miner's frequency ranking absorbs."""
        assert passes_key_litmus(bytes(64))
        assert passes_key_litmus(b"\xff" * 64)
        assert passes_key_litmus(b"\xab\xcd" * 32)

    def test_key_xor_constant_passes(self):
        key = Ddr4Scrambler(boot_seed=1).key_for(0, 3)
        mixed = bytes(k ^ c for k, c in zip(key, b"\x41\x42" * 32))
        assert passes_key_litmus(mixed)


class TestNegatives:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**60))
    def test_random_blocks_fail(self, seed):
        block = SplitMix64(seed).next_bytes(64)
        # 2^-192 false positive rate: effectively never.
        assert not passes_key_litmus(block)

    def test_text_fails(self):
        assert not passes_key_litmus(b"The quick brown fox jumps over the lazy dog, again and"[:64].ljust(64))


class TestDecayTolerance:
    def test_single_flip_within_budget(self):
        key = bytearray(Ddr4Scrambler(boot_seed=7).key_for(0, 11))
        key[2] ^= 0x01  # flip one invariant-covered bit
        assert not passes_key_litmus(bytes(key), tolerance_bits=0)
        assert passes_key_litmus(bytes(key), tolerance_bits=2)

    def test_mismatch_bits_counts_flips(self):
        key = bytearray(Ddr4Scrambler(boot_seed=7).key_for(0, 11))
        clean = key_litmus_mismatch_bits(bytes(key))[0]
        assert clean == 0
        key[0] ^= 0x80
        assert key_litmus_mismatch_bits(bytes(key))[0] > 0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            passes_key_litmus(bytes(64), tolerance_bits=-1)


class TestVectorisedScan:
    def test_mask_matches_scalar(self):
        scrambler = Ddr4Scrambler(boot_seed=31)
        rng = SplitMix64(3)
        blocks = [scrambler.key_for(0, i) for i in range(8)] + [
            rng.next_bytes(64) for _ in range(8)
        ]
        mask = litmus_pass_mask(b"".join(blocks))
        assert mask.tolist() == [True] * 8 + [False] * 8

    def test_accepts_matrix_input(self):
        matrix = np.zeros((4, 64), dtype=np.uint8)
        assert litmus_pass_mask(matrix).all()

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            key_litmus_mismatch_bits(np.zeros((4, 32), dtype=np.uint8))

    def test_wrong_block_length_rejected(self):
        with pytest.raises(ValueError):
            passes_key_litmus(bytes(32))


def _syndrome_weight(matrix: np.ndarray) -> np.ndarray:
    """Independent definition: unsatisfied checks of the parity matrix."""
    bits = np.unpackbits(np.ascontiguousarray(matrix), axis=1).astype(np.int64)
    return ((bits @ litmus_parity_matrix().T.astype(np.int64)) % 2).sum(axis=1)


class TestKernelMatchesParityChecks:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_blocks=st.integers(1, 40),
        kind=st.sampled_from(("random", "decayed", "zeros", "ones")),
        flips=st.integers(0, 24),
        layout=st.sampled_from(("contiguous", "row-strided", "offset", "fortran", "byte-strided")),
    )
    def test_mismatch_is_the_syndrome_weight(self, seed, n_blocks, kind, flips, layout):
        rng = np.random.default_rng(seed)
        if kind == "random":
            blocks = rng.integers(0, 256, size=(n_blocks, 64), dtype=np.uint8)
        elif kind == "zeros":
            blocks = np.zeros((n_blocks, 64), dtype=np.uint8)
        elif kind == "ones":
            blocks = np.full((n_blocks, 64), 0xFF, dtype=np.uint8)
        else:
            scrambler = Ddr4Scrambler(boot_seed=seed % 1000)
            blocks = np.frombuffer(
                b"".join(scrambler.key_for(0, i) for i in range(n_blocks)), dtype=np.uint8
            ).reshape(n_blocks, 64).copy()
            for _ in range(flips):
                row, bit = int(rng.integers(0, n_blocks)), int(rng.integers(0, 512))
                blocks[row, bit // 8] ^= 0x80 >> (bit % 8)
        # The kernel reads 2-byte words, which needs a contiguous last
        # axis: every other layout must give the same answer.
        if layout == "row-strided":
            wide = np.zeros((2 * n_blocks, 64), dtype=np.uint8)
            wide[::2] = blocks
            blocks = wide[::2]
        elif layout == "offset":
            wide = np.zeros((n_blocks, 65), dtype=np.uint8)
            wide[:, 1:] = blocks
            blocks = wide[:, 1:]
        elif layout == "fortran":
            blocks = np.asfortranarray(blocks)
        elif layout == "byte-strided":
            wide = np.zeros((n_blocks, 128), dtype=np.uint8)
            wide[:, ::2] = blocks
            blocks = wide[:, ::2]
        assert np.array_equal(key_litmus_mismatch_bits(blocks), _syndrome_weight(blocks))
