"""The scrambler-key litmus test (§III-B).

After extracting Skylake scrambler keys with the reverse cold boot
procedure, the paper found invariants between byte pairs of every
64-byte key.  With ``K[i:j]`` denoting bytes ``i..j`` of the key, for
each 16-byte-aligned sub-word ``i ∈ {0, 16, 32, 48}``:

    K[i+2:i+3] ^ K[i+4:i+5]  == K[i+10:i+11] ^ K[i+12:i+13]
    K[i:i+1]   ^ K[i+6:i+7]  == K[i+8:i+9]   ^ K[i+14:i+15]
    K[i:i+1]   ^ K[i+4:i+5]  == K[i+8:i+9]   ^ K[i+12:i+13]
    K[i:i+1]   ^ K[i+2:i+3]  == K[i+8:i+9]   ^ K[i+10:i+11]

A zero-filled plaintext block comes out of the scrambler carrying the
raw key, so blocks that satisfy these invariants are (very likely)
scrambler keys lying exposed in the dump.  Because DRAM bits decay in
transit, the tests are evaluated as a Hamming-distance budget rather
than strict equality.

Two facts make the test powerful:

* a random 64-byte block passes by chance with probability ~2^-192
  (16 two-byte equalities), so false positives come only from
  *structured* plaintext — e.g. constant-filled blocks, which produce
  ``key ^ constant`` candidates that frequency ranking and the AES
  stage tolerate;
* the invariants are linear, so the XOR of two scrambler keys passes
  too — which is why mining still works when a dump is taken through a
  second, differently-seeded scrambler (§III-B).
"""

from __future__ import annotations

import numpy as np

from repro.util.blocks import BLOCK_SIZE, as_block_matrix

#: The §III-B invariants as byte offsets within a 16-byte sub-word:
#: each entry (a, b, c, d) states bytes[a:a+2]^bytes[b:b+2] == bytes[c:c+2]^bytes[d:d+2].
INVARIANT_WORD_OFFSETS: tuple[tuple[int, int, int, int], ...] = (
    (2, 4, 10, 12),
    (0, 6, 8, 14),
    (0, 4, 8, 12),
    (0, 2, 8, 10),
)

#: Sub-word starting offsets within the 64-byte key.
SUB_WORD_OFFSETS: tuple[int, ...] = (0, 16, 32, 48)


def key_litmus_mismatch_bits(blocks: bytes | np.ndarray) -> np.ndarray:
    """Total invariant-violation bits for each 64-byte block.

    Accepts raw bytes or an ``(n, 64)`` uint8 matrix; returns an ``(n,)``
    int64 array.  A pristine scrambler key scores 0; each decayed bit
    inside the tested byte pairs adds at most a few mismatch bits.

    Every invariant compares 2-byte words at even offsets, so each one
    is a single XOR of four columns of a ``uint16`` view and one
    hardware popcount (byte order is irrelevant to the bit count).
    """
    matrix = as_block_matrix(blocks) if not isinstance(blocks, np.ndarray) else blocks
    if matrix.ndim != 2 or matrix.shape[1] != BLOCK_SIZE:
        raise ValueError(f"expected (n, {BLOCK_SIZE}) blocks, got {matrix.shape}")
    # The word view needs a contiguous last axis (strided or Fortran
    # inputs are copied).
    words = np.ascontiguousarray(matrix, dtype=np.uint8).view(np.uint16)
    mismatch = np.zeros(matrix.shape[0], dtype=np.int64)
    for base in SUB_WORD_OFFSETS:
        for a, b, c, d in INVARIANT_WORD_OFFSETS:
            mismatch += np.bitwise_count(
                words[:, (base + a) // 2]
                ^ words[:, (base + b) // 2]
                ^ words[:, (base + c) // 2]
                ^ words[:, (base + d) // 2]
            )
    return mismatch


_PARITY_MATRIX: np.ndarray | None = None


def litmus_parity_matrix() -> np.ndarray:
    """The invariants as a ``(256, 512)`` GF(2) parity-check matrix.

    Each §III-B invariant equates two XORs of 2-byte words, i.e. 16
    independent parity checks of weight 4 (one key bit from each of the
    four bytes at the same bit position).  4 sub-words × 4 invariants
    × 16 bit positions = 256 checks over the key's 512 bits, with every
    key bit appearing in 1–3 checks — a sparse code.

    Bit numbering matches ``np.unpackbits``: bit ``8·byte + j`` is the
    ``j``-th most significant bit of ``byte``.
    """
    global _PARITY_MATRIX
    if _PARITY_MATRIX is None:
        matrix = np.zeros((256, 8 * BLOCK_SIZE), dtype=np.uint8)
        check = 0
        for base in SUB_WORD_OFFSETS:
            for offsets in INVARIANT_WORD_OFFSETS:
                for bit in range(16):
                    for offset in offsets:
                        byte = base + offset + bit // 8
                        matrix[check, byte * 8 + bit % 8] = 1
                    check += 1
        matrix.setflags(write=False)
        _PARITY_MATRIX = matrix
    return _PARITY_MATRIX


def passes_key_litmus(block: bytes, tolerance_bits: int = 0) -> bool:
    """Whether one 64-byte block passes the scrambler-key litmus test."""
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"litmus test operates on 64-byte blocks, got {len(block)}")
    if tolerance_bits < 0:
        raise ValueError("tolerance must be non-negative")
    return int(key_litmus_mismatch_bits(block)[0]) <= tolerance_bits


def litmus_pass_mask(blocks: bytes | np.ndarray, tolerance_bits: int = 0) -> np.ndarray:
    """Boolean mask of blocks passing the litmus test (vectorised)."""
    if tolerance_bits < 0:
        raise ValueError("tolerance must be non-negative")
    return key_litmus_mismatch_bits(blocks) <= tolerance_bits
