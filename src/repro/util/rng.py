"""Deterministic random number generation for simulation seeds.

The simulated BIOS, scrambler seed registers, DRAM ground states, and
workload generators all need reproducible pseudo-randomness that is
independent of Python's global RNG state.  SplitMix64 is a tiny, fast,
well-distributed 64-bit generator that is ideal for seeding.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class SplitMix64:
    """SplitMix64 PRNG (Steele, Lea & Flood 2014).

    Deliberately *not* cryptographically secure — the real scrambler's
    PRNGs are not either, which is the point of the paper.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next 64-bit output."""
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
        return z ^ (z >> 31)

    def next_u32(self) -> int:
        """Return the next 32-bit output."""
        return self.next_u64() >> 32

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # Reject the final partial range so the result is exactly uniform.
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def next_bytes(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes."""
        out = bytearray()
        while len(out) < n:
            out += self.next_u64().to_bytes(8, "little")
        return bytes(out[:n])

    def next_float(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0**-53)


def _fnv1a(parts: tuple[int | str | bytes, ...]) -> int:
    """FNV-1a over the serialised ``parts``."""
    h = _FNV_OFFSET
    for part in parts:
        # A type tag keeps derive_seed("x") and derive_seed(b"x") distinct.
        if isinstance(part, str):
            blob = b"s" + part.encode("utf-8")
        elif isinstance(part, bytes):
            blob = b"b" + part
        elif isinstance(part, int):
            blob = b"i" + part.to_bytes(16, "little", signed=True)
        else:
            raise TypeError(f"unsupported seed part type: {type(part)!r}")
        for b in blob + b"\x00":
            h ^= b
            h = (h * _FNV_PRIME) & _MASK64
    return h


def derive_seed(*parts: int | str | bytes) -> int:
    """Derive a 64-bit seed from a sequence of labels and numbers.

    Gives every simulated component (``derive_seed("bios", boot_count)``,
    ``derive_seed("module", serial, "ground-state")`` ...) its own stable
    stream without manual seed bookkeeping.  FNV-1a over the serialised
    parts, then one SplitMix64 finalisation round for diffusion.
    """
    return SplitMix64(_fnv1a(parts)).next_u64()


def derive_seeds(*prefix: int | str | bytes, count: int) -> np.ndarray:
    """``derive_seed(*prefix, i)`` for every ``i`` in ``range(count)``.

    The FNV-1a state after ``prefix`` is computed once; each index's
    serialised bytes (tag, 16 little-endian value bytes, separator) then
    fold in as uint64 columns, whose arithmetic wraps as the scalar
    code's mask does, and the SplitMix64 round runs the same way.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    index = np.arange(count, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    h = np.full(count, _fnv1a(prefix), dtype=np.uint64)
    h ^= np.uint64(ord("i"))
    h *= prime
    for k in range(16):
        if k < 8:
            h ^= (index >> np.uint64(8 * k)) & np.uint64(0xFF)
        h *= prime
    h *= prime  # the separator byte is zero
    z = h + np.uint64(_GOLDEN_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
    return z ^ (z >> np.uint64(31))
