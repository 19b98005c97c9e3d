"""64-byte block views over flat memory buffers.

The scrambler, the litmus tests, and the AES key search all operate on
64-byte memory blocks — the DDR3/DDR4 burst size and the granularity at
which scrambler keys are applied (paper §II-C, §III-B).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: DDR3/DDR4 burst size: 8 beats x 64-bit bus = 64 bytes, the unit at
#: which scrambler keys are applied.
BLOCK_SIZE = 64


def num_blocks(data: bytes | np.ndarray) -> int:
    """Number of whole 64-byte blocks in ``data``."""
    return len(data) // BLOCK_SIZE


def iter_blocks(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Yield ``(block_index, block_bytes)`` for each whole 64-byte block."""
    for i in range(num_blocks(data)):
        yield i, data[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]


def as_block_matrix(data: bytes | bytearray | memoryview | np.ndarray) -> np.ndarray:
    """View ``data`` as an ``(n_blocks, 64)`` uint8 matrix (zero copy).

    Trailing bytes that do not fill a whole block are ignored, matching
    how the attack scans dumps block-by-block.  Any buffer-protocol
    object works — ``bytes``, ``bytearray``, ``memoryview`` (including
    views over ``mmap`` buffers) — and none of them is copied: the matrix aliases the caller's memory.
    """
    if isinstance(data, np.ndarray):
        arr = np.asarray(data, dtype=np.uint8).ravel()
    else:
        arr = np.frombuffer(data, dtype=np.uint8)
    n = len(arr) // BLOCK_SIZE
    return arr[: n * BLOCK_SIZE].reshape(n, BLOCK_SIZE)
