"""Memory images: what a cold boot attacker actually holds.

A :class:`MemoryImage` is an immutable snapshot of (a region of) DRAM —
either a raw module dump or a dump read back through a (de)scrambler.
Everything downstream (key mining, AES search, correlation analysis)
consumes these.

Zero-copy backing
-----------------

``data`` is any buffer-protocol object — ``bytes``, a ``bytearray``
a dump was streamed into, a ``memoryview`` over another image's buffer,
or an ``mmap`` of a dump file (:meth:`MemoryImage.load_mapped`).
Nothing downstream copies it: :meth:`blocks_matrix` and the attack's
shard views all alias the same physical pages, which is what lets a
multi-gigabyte scan hand shards to workers as ``(offset, length)``
pairs instead of pickled bytes — worker processes are forked, so they
already hold the dump.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.resilience.errors import DumpFormatError
from repro.util.bits import hamming_distance_arrays
from repro.util.blocks import BLOCK_SIZE, as_block_matrix


@dataclass(frozen=True, eq=False)
class MemoryImage:
    """An immutable dump of physical memory starting at ``base_address``."""

    data: bytes | bytearray | memoryview
    base_address: int = 0

    def __post_init__(self) -> None:
        if self.base_address % BLOCK_SIZE:
            raise DumpFormatError("base address must be 64-byte aligned")
        if len(self.data) % BLOCK_SIZE:
            raise DumpFormatError("image length must be a multiple of 64 bytes")

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryImage):
            return NotImplemented
        return self.base_address == other.base_address and bytes(self.data) == bytes(
            other.data
        )

    @property
    def n_blocks(self) -> int:
        """Number of 64-byte blocks in the image."""
        return len(self.data) // BLOCK_SIZE

    def block(self, index: int) -> bytes:
        """The ``index``-th 64-byte block."""
        if not 0 <= index < self.n_blocks:
            raise IndexError(f"block {index} out of range (0..{self.n_blocks - 1})")
        return bytes(self.data[index * BLOCK_SIZE : (index + 1) * BLOCK_SIZE])

    def block_address(self, index: int) -> int:
        """Physical address of the ``index``-th block."""
        return self.base_address + index * BLOCK_SIZE

    def blocks_matrix(self) -> np.ndarray:
        """The image as an ``(n_blocks, 64)`` uint8 matrix (zero copy)."""
        return as_block_matrix(self.data)

    def view(self, start: int, length: int, base_address: int | None = None) -> "MemoryImage":
        """A zero-copy sub-image of ``length`` bytes starting at ``start``.

        The returned image aliases this image's buffer — this is how
        shards reference their slice of a dump without duplicating it.
        """
        if start % BLOCK_SIZE or length % BLOCK_SIZE:
            raise DumpFormatError("sub-image bounds must be block-aligned")
        if start < 0 or length < 0 or start + length > len(self.data):
            raise DumpFormatError(
                f"sub-image [{start}, {start + length}) outside image of {len(self.data)} bytes"
            )
        address = self.base_address + start if base_address is None else base_address
        return MemoryImage(memoryview(self.data)[start : start + length], address)

    def xor(self, other: "MemoryImage") -> "MemoryImage":
        """Blockwise XOR of two images of the same region.

        This is the operation that collapses a DDR3 dump-of-a-dump into
        a single universal key (§II-C) — and conspicuously fails to do
        so on DDR4.
        """
        if len(other) != len(self) or other.base_address != self.base_address:
            raise DumpFormatError("can only XOR images of the same region")
        a = np.frombuffer(self.data, dtype=np.uint8)
        b = np.frombuffer(other.data, dtype=np.uint8)
        return MemoryImage((a ^ b).tobytes(), self.base_address)

    def bit_error_rate(self, reference: "MemoryImage") -> float:
        """Fraction of differing bits vs a reference image."""
        if len(reference) != len(self):
            raise DumpFormatError("images must have equal length")
        a = np.frombuffer(self.data, dtype=np.uint8)
        b = np.frombuffer(reference.data, dtype=np.uint8)
        return float(hamming_distance_arrays(a, b, axis=None)) / (8 * len(self.data))

    def save(self, path: str | Path) -> None:
        """Write the raw image to disk."""
        Path(path).write_bytes(self.data)

    @classmethod
    def load(cls, path: str | Path, base_address: int = 0) -> "MemoryImage":
        """Read a raw image from disk."""
        return cls(Path(path).read_bytes(), base_address)

    @classmethod
    def load_mapped(cls, path: str | Path, base_address: int = 0) -> "MemoryImage":
        """Memory-map a dump file instead of reading it into the heap.

        The image's buffer is the page cache itself: an 8 GB dump costs
        no RSS until blocks are actually scanned, and a torn trailing
        partial block is clipped exactly as :meth:`load_tolerant` does.
        """
        target = Path(path)
        try:
            with open(target, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except FileNotFoundError:
            raise DumpFormatError(f"dump file not found: {target}") from None
        except IsADirectoryError:
            raise DumpFormatError(f"dump path is a directory, not a file: {target}") from None
        except (OSError, ValueError) as exc:
            raise DumpFormatError(f"cannot map dump {target}: {exc}") from exc
        usable = len(mapped) - len(mapped) % BLOCK_SIZE
        if usable == 0:
            mapped.close()
            raise DumpFormatError(
                f"dump {target} holds {len(mapped)} bytes — not even one "
                f"{BLOCK_SIZE}-byte block"
            )
        return cls(memoryview(mapped)[:usable], base_address)

    @classmethod
    def load_tolerant(cls, path: str | Path, base_address: int = 0) -> "MemoryImage":
        """Read a possibly-damaged dump, degrading instead of crashing.

        Real cold-boot dumps arrive truncated and torn; a trailing
        partial block is clipped (the attack loses at most 63 bytes).
        Anything unusable — missing file, directory, unreadable, empty
        — raises :class:`~repro.resilience.errors.DumpFormatError` with
        a one-line diagnosis instead of an unhandled traceback.
        """
        target = Path(path)
        try:
            data = target.read_bytes()
        except FileNotFoundError:
            raise DumpFormatError(f"dump file not found: {target}") from None
        except IsADirectoryError:
            raise DumpFormatError(f"dump path is a directory, not a file: {target}") from None
        except OSError as exc:
            raise DumpFormatError(f"cannot read dump {target}: {exc}") from exc
        usable = len(data) - len(data) % BLOCK_SIZE
        if usable == 0:
            raise DumpFormatError(
                f"dump {target} holds {len(data)} bytes — not even one "
                f"{BLOCK_SIZE}-byte block"
            )
        return cls(data[:usable], base_address)

