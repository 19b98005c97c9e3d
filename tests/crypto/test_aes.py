"""AES correctness: FIPS-197 vectors, schedule machinery, batch expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import (
    AES,
    INV_SBOX,
    SBOX,
    Rcon,
    batch_expand_from_window,
    batch_next_round_key,
    expand_key,
    expand_key_words,
    extend_schedule_words,
    inv_sbox,
    key_length_for,
    rounds_for,
    sbox,
    schedule_bytes,
)

# FIPS-197 Appendix C vectors: key / plaintext / ciphertext.
FIPS_VECTORS = [
    (
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "00112233445566778899aabbccddeeff",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


class TestSbox:
    def test_known_entries(self):
        assert sbox(0x00) == 0x63
        assert sbox(0x53) == 0xED
        assert inv_sbox(0x63) == 0x00

    def test_is_permutation(self):
        assert sorted(SBOX.tolist()) == list(range(256))

    def test_inverse_really_inverts(self):
        assert all(INV_SBOX[SBOX[v]] == v for v in range(256))


class TestRcon:
    def test_first_ten(self):
        expected = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]
        assert [Rcon(i) for i in range(1, 11)] == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Rcon(0)


class TestVariantGeometry:
    @pytest.mark.parametrize(
        "bits,length,rounds,sched",
        [(128, 16, 10, 176), (192, 24, 12, 208), (256, 32, 14, 240)],
    )
    def test_sizes(self, bits, length, rounds, sched):
        assert key_length_for(bits) == length
        assert rounds_for(bits) == rounds
        assert schedule_bytes(bits) == sched

    def test_rejects_unknown_size(self):
        with pytest.raises(ValueError):
            key_length_for(512)


class TestBlockCipher:
    @pytest.mark.parametrize("key_hex,pt_hex,ct_hex", FIPS_VECTORS)
    def test_fips_encrypt(self, key_hex, pt_hex, ct_hex):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.encrypt_block(bytes.fromhex(pt_hex)).hex() == ct_hex

    @pytest.mark.parametrize("key_hex,pt_hex,ct_hex", FIPS_VECTORS)
    def test_fips_decrypt(self, key_hex, pt_hex, ct_hex):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.decrypt_block(bytes.fromhex(ct_hex)).hex() == pt_hex

    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError):
            AES(b"short")

    def test_rejects_bad_block_length(self):
        with pytest.raises(ValueError):
            AES(bytes(16)).encrypt_block(b"tiny")

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_roundtrip_property(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_expanded_schedule_matches_expand_key(self):
        key = bytes(range(32))
        assert AES(key).expanded_schedule() == expand_key(key)


class TestKeyExpansion:
    def test_fips_a1_first_words(self):
        # FIPS-197 A.1: first derived words of the 128-bit example key.
        words = expand_key_words(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        assert words[4] == 0xA0FAFE17
        assert words[43] == 0xB6630CA6  # last word of the schedule

    def test_fips_a2_aes192_words(self):
        key = bytes.fromhex("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b")
        words = expand_key_words(key)
        assert words[6] == 0xFE0C91F7
        assert words[51] == 0x01002202  # last schedule word

    def test_fips_a3_aes256_words(self):
        key = bytes.fromhex(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
        )
        words = expand_key_words(key)
        assert words[8] == 0x9BA35411
        assert words[59] == 0x706C631E

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_extend_matches_full_expansion(self, key_len):
        """Continuing the schedule from any position matches the real one."""
        key = bytes(range(key_len))
        nk = key_len // 4
        words = expand_key_words(key)
        for start in range(0, len(words) - nk - 4, 3):
            window = words[start : start + nk]
            continued = extend_schedule_words(window, start, 4, nk)
            assert continued == words[start + nk : start + nk + 4]

    def test_extend_validates_window_length(self):
        with pytest.raises(ValueError):
            extend_schedule_words([0, 0], 0, 4, nk=4)


class TestBatchExpansion:
    @pytest.mark.parametrize("key_len,nk", [(16, 4), (24, 6), (32, 8)])
    def test_batch_matches_scalar(self, key_len, nk):
        key = bytes(range(1, key_len + 1))
        schedule = expand_key(key)
        window_bytes = 4 * nk
        rows, expected, indices = [], [], []
        for word_index in range(0, len(schedule) // 4 - nk - 4, 4):
            start = 4 * word_index
            rows.append(np.frombuffer(schedule[start : start + window_bytes], dtype=np.uint8))
            expected.append(schedule[start + window_bytes : start + window_bytes + 16])
            indices.append(word_index)
        # Batch rows sharing a first_word_index phase are grouped per call.
        for row, exp, idx in zip(rows, expected, indices):
            out = batch_next_round_key(row.reshape(1, -1).copy(), nk=nk, first_word_index=idx)
            assert out.tobytes() == exp

    def test_batch_many_rows_at_once(self):
        keys = [bytes([i]) * 32 for i in range(50)]
        mat = np.vstack(
            [np.frombuffer(expand_key(k)[:32], dtype=np.uint8) for k in keys]
        )
        out = batch_next_round_key(mat, nk=8, first_word_index=0)
        for i, key in enumerate(keys):
            assert out[i].tobytes() == expand_key(key)[32:48]

    def test_batch_validates_shape(self):
        with pytest.raises(ValueError):
            batch_next_round_key(np.zeros((2, 31), dtype=np.uint8), nk=8, first_word_index=0)


class TestBatchExpandFromWindow:
    """``batch_expand_from_window`` is the scalar ``reconstruct_schedule``
    run on every row: on real schedule windows and on random bytes, at
    every first word index, for one row, two rows and a repair batch."""

    @pytest.mark.parametrize("key_bits", [128, 192, 256])
    def test_every_row_matches_scalar_reconstruction(self, key_bits):
        from repro.attack.aes_search import reconstruct_schedule

        rng = np.random.default_rng(key_bits)
        nk, total = key_bits // 32, schedule_bytes(key_bits) // 4
        schedules = np.stack([
            np.frombuffer(expand_key(rng.bytes(key_bits // 8)), dtype=np.uint8)
            for _ in range(257)
        ])
        for first in range(total - nk + 1):
            real = schedules[:, 4 * first : 4 * (first + nk)]
            junk = rng.integers(0, 256, size=(257, 4 * nk), dtype=np.uint8)
            for rows in (1, 2, 257):
                assert np.array_equal(
                    batch_expand_from_window(real[:rows], first, nk), schedules[:rows]
                )
                out = batch_expand_from_window(junk[:rows], first, nk)
                assert out.shape == (rows, 4 * total) and out.dtype == np.uint8
                # Each row of the one- and two-row batches; the ends and
                # middle of the repair-sized one.
                for row in sorted({0, rows // 2, rows - 1}):
                    words = [
                        int.from_bytes(junk[row, 4 * w : 4 * w + 4].tobytes(), "big")
                        for w in range(nk)
                    ]
                    assert out[row].tobytes() == reconstruct_schedule(words, first, key_bits)

    def test_rows_are_independent_and_writable(self):
        rng = np.random.default_rng(7)
        windows = rng.integers(0, 256, size=(257, 32), dtype=np.uint8)
        batch = batch_expand_from_window(windows, 20, 8)
        for row in (0, 100, 256):
            single = batch_expand_from_window(windows[row : row + 1], 20, 8)
            assert np.array_equal(single[0], batch[row])
            single[0, 0] ^= 1  # one-row results are fresh arrays too
        strided = batch_expand_from_window(windows[::2], 20, 8)
        assert np.array_equal(strided, batch[::2])

    def test_validates_shape_and_position(self):
        with pytest.raises(ValueError):
            batch_expand_from_window(np.zeros((2, 32), dtype=np.uint8), 0, nk=5)
        with pytest.raises(ValueError):
            batch_expand_from_window(np.zeros((2, 31), dtype=np.uint8), 0, nk=8)
        with pytest.raises(ValueError):
            batch_expand_from_window(np.zeros(32, dtype=np.uint8), 0, nk=8)
        with pytest.raises(ValueError):
            batch_expand_from_window(np.zeros((1, 32), dtype=np.uint8), -1, nk=8)
        with pytest.raises(ValueError):
            batch_expand_from_window(np.zeros((1, 32), dtype=np.uint8), 53, nk=8)
        assert batch_expand_from_window(np.zeros((0, 16), dtype=np.uint8), 3, nk=4).shape == (
            0,
            176,
        )
