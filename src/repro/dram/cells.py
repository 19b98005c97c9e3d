"""DRAM bit-cell charge decay physics.

This replaces the paper's physical apparatus (compressed-air freezing,
socket transfers, §III-D retention measurements) with a statistical
model that produces memory images with the same error structure the
attack must tolerate:

* an unrefreshed cell relaxes toward its **ground state** — some cells
  (true cells) decay to 0, others (anti cells) to 1, in board-layout
  regions (Halderman et al. 2008 observed the same striping);
* decay is strongly temperature dependent: retention roughly doubles
  for every ~9 °C of cooling, which is why a −25 °C module survives a
  5 s transfer with 90–99 % of its bits intact while a warm module
  loses a large fraction within 3 s (§III-D);
* per-cell retention times are dispersed, modelled by a Weibull
  survival curve: S(t) = exp(−(t/τ)^β).

The model is *incremental*: a module tracks its normalised "decay age",
so freezing, transferring warm, and resocketing compose correctly
(decaying 2 s then 3 s equals decaying 5 s at the same temperature).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.util import cpus
from repro.util.bits import popcount_bytes
from repro.util.rng import derive_seed

#: Bytes per chunk of the sparse path, bounding its per-byte popcount
#: and cumulative-count arrays.
DECAY_CHUNK_BYTES = 1 << 20

#: Bytes per block of the dense path: 2^21 raw 32-bit halves, so each
#: thread holds about 10 MiB of draws, compare and mask at a time.
DECAY_BLOCK_BYTES = 1 << 18

#: Below this flip probability, decay switches from the dense per-bit
#: Bernoulli draw to sparse position sampling (same distribution, cost
#: proportional to the number of flips instead of the number of bits,
#: but other bits).  At and above it the dense path flips exactly the
#: bits that one float32 draw per bit, ``rng.random(8n, float32) < p``,
#: would flip, and leaves the generator where that draw would, so
#: fixed-seed simulations of cold-to-moderate transfers reproduce the
#: exact historical flip patterns; the sparse win only matters in the
#: sub-0.5% regimes where flips are rare anyway.
SPARSE_DECAY_THRESHOLD = 0.005


def _build_select_table() -> np.ndarray:
    """``table[value, k]`` = mask of the k-th set bit of ``value``, MSB first."""
    table = np.zeros((256, 8), dtype=np.uint8)
    for value in range(256):
        k = 0
        for bit in range(7, -1, -1):
            if value >> bit & 1:
                table[value, k] = 1 << bit
                k += 1
    return table


_SELECT_TABLE = _build_select_table()


def _sample_flip_positions(
    rng: np.random.Generator, total: int, p: float
) -> np.ndarray:
    """Ranks of flipped bits among ``total`` vulnerable bits.

    Successive success positions of a Bernoulli(p) stream have i.i.d.
    Geometric(p) gaps, so walking sampled gaps reproduces the dense
    per-bit draw's distribution without materialising ``total`` floats.
    """
    batches = []
    prev = -1
    while prev < total - 1:
        size = int((total - 1 - prev) * p * 1.1) + 16
        gaps = rng.geometric(p, size=size)
        # For tiny p the sampler saturates gaps at int64 max, and their
        # cumsum would wrap negative.  A gap >= total lands past the end
        # (ending the walk) no matter its exact value, so cap first.
        np.minimum(gaps, total, out=gaps)
        positions = prev + np.cumsum(gaps)
        if positions[-1] >= total:
            batches.append(positions[positions < total])
            break
        batches.append(positions)
        prev = int(positions[-1])
    if not batches:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(batches)


@dataclass(frozen=True)
class DecayModel:
    """Weibull charge-decay model with Arrhenius-like temperature scaling.

    ``tau_room_s`` is the characteristic retention time at room
    temperature; ``doubling_celsius`` is how many degrees of cooling
    double the retention time; ``beta`` is the Weibull shape (spread of
    per-cell retention times).
    """

    tau_room_s: float
    beta: float = 1.5
    doubling_celsius: float = 9.0
    room_celsius: float = 20.0

    def __post_init__(self) -> None:
        if self.tau_room_s <= 0:
            raise ValueError("tau_room_s must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.doubling_celsius <= 0:
            raise ValueError("doubling_celsius must be positive")

    def tau_at(self, celsius: float) -> float:
        """Characteristic retention time at a given temperature."""
        return self.tau_room_s * 2.0 ** ((self.room_celsius - celsius) / self.doubling_celsius)

    def age_increment(self, seconds: float, celsius: float) -> float:
        """Normalised decay age accrued by ``seconds`` at ``celsius``.

        Age is time measured in units of τ(θ); accumulating it lets the
        temperature vary over a power-off interval.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return seconds / self.tau_at(celsius)

    def survival_at_age(self, age: float) -> float:
        """Fraction of vulnerable bits surviving to normalised ``age``."""
        if age < 0:
            raise ValueError("age must be non-negative")
        return math.exp(-(age**self.beta))

    def flip_fraction(self, seconds: float, celsius: float) -> float:
        """Unconditional fraction of vulnerable bits flipped after one interval."""
        return 1.0 - self.survival_at_age(self.age_increment(seconds, celsius))

    def conditional_flip_probability(self, age_before: float, age_after: float) -> float:
        """P(bit flips in (age_before, age_after] | intact at age_before)."""
        if age_after < age_before:
            raise ValueError("age must be non-decreasing")
        s0 = self.survival_at_age(age_before)
        s1 = self.survival_at_age(age_after)
        if s0 <= 0.0:
            return 1.0
        return min(1.0, max(0.0, 1.0 - s1 / s0))


class GroundState:
    """Per-module ground state: alternating true-cell/anti-cell stripes.

    True-cell stripes decay to 0x00, anti-cell stripes to 0xFF.  The
    stripe phase is randomised per module serial so different modules
    have different (but individually stable) ground-state layouts —
    this is what the "profiling" variant of the reverse cold boot
    attack measures (§III-A).

    The state is held as one value per stripe.  A contiguous slice,
    ``ground[start:stop]``, expands just that byte range, so decay and
    discharge touch the ground state a block at a time and a module
    never holds a second full-size copy of itself.
    """

    def __init__(self, n_bytes: int, serial: int | str, stripe_bytes: int = 4096) -> None:
        if n_bytes <= 0:
            raise ValueError("n_bytes must be positive")
        if stripe_bytes <= 0:
            raise ValueError("stripe_bytes must be positive")
        rng = np.random.Generator(np.random.PCG64(derive_seed("ground-state", str(serial))))
        n_stripes = (n_bytes + stripe_bytes - 1) // stripe_bytes
        self.stripe_values = np.where(rng.random(n_stripes) < 0.5, 0x00, 0xFF).astype(np.uint8)
        self.stripe_bytes = stripe_bytes
        self.shape = (n_bytes,)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index: slice) -> np.ndarray:
        """The bytes of a contiguous range, as a fresh uint8 array."""
        if not isinstance(index, slice):
            raise TypeError("a ground state is read by contiguous slices")
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("a ground state is read by contiguous slices")
        stop = max(start, stop)
        first = start // self.stripe_bytes
        last = -(-stop // self.stripe_bytes)
        expanded = np.repeat(self.stripe_values[first:last], self.stripe_bytes)
        skip = first * self.stripe_bytes
        return expanded[start - skip : stop - skip]


def ground_state_pattern(
    n_bytes: int, serial: int | str, stripe_bytes: int = 4096
) -> np.ndarray:
    """The whole :class:`GroundState` of ``n_bytes`` as one byte array."""
    return GroundState(n_bytes, serial, stripe_bytes)[:]


def _draw_threshold(flip_probability: float) -> int:
    """The count T of float32 draws ``k·2^-24`` (k < 2^24) below ``p``.

    NumPy's float32 draw is ``(u >> 8)·2^-24`` for the next 32-bit half
    ``u``, so ``draw < p`` holds exactly when ``u < T·2^8``.  Bisecting
    the reference comparison itself keeps its promotion of ``p``: a
    Python float compares in float32, an ``np.float64`` in float64.
    """
    lo, hi = 0, 1 << 24
    while lo < hi:
        mid = (lo + hi) // 2
        if (np.array([mid * 2.0**-24], dtype=np.float32) < flip_probability)[0]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _dense_decay(
    data: np.ndarray,
    ground: np.ndarray | GroundState,
    flip_probability: float,
    rng: np.random.Generator,
) -> int:
    """The per-bit draw of :func:`apply_decay`, from raw PCG64 words.

    Byte ``i`` takes 32-bit halves ``8i - lead … 8i + 7 - lead`` of the
    generator's stream, low half first, where ``lead`` is 1 when the
    generator holds a buffered high half (stream position −1).  So each
    block draws from a copy of the generator advanced to its first word,
    and the blocks run on a thread pool.
    """
    n = len(data)
    cut = None  # a 32-bit half below this flips its bit; None: every bit
    if flip_probability < 1.0:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(f"dense decay reads PCG64 words, not {type(bit_generator).__name__}")
        state = bit_generator.state
        lead = state["has_uint32"]
        threshold = _draw_threshold(flip_probability)
        if threshold < 1 << 24:
            cut = threshold << 8

    def decay_block(start: int) -> int:
        stop = min(n, start + DECAY_BLOCK_BYTES)
        chunk = data[start:stop]
        mask = chunk ^ ground[start:stop]
        if cut is not None:
            word, skip = divmod(8 * start - lead, 2)
            generator = np.random.PCG64()
            generator.state = state
            generator.advance(max(word, 0))
            halves = generator.random_raw(4 * (stop - start) + skip + min(word, 0))
            halves = halves.astype("<u8", copy=False).view("<u4")
            if word < 0:  # the buffered half is word −1's high half
                halves = np.concatenate((np.array([0, state["uinteger"]], "<u4"), halves))
            mask &= np.packbits(halves[skip : skip + 8 * (stop - start)] < cut)
        chunk ^= mask
        return int(popcount_bytes(mask).sum())

    starts = range(0, n, DECAY_BLOCK_BYTES)
    workers = min(cpus.usable_cpus(), len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            flipped = sum(pool.map(decay_block, starts))
    else:
        flipped = sum(map(decay_block, starts))
    if flip_probability < 1.0 and n:
        # The float draw takes 8n halves, 4n words: a buffered half
        # stays buffered, and the last word's high half is kept.
        last_word = int(bit_generator.advance(4 * n - 1).random_raw())
        final = bit_generator.state
        final["has_uint32"] = lead
        final["uinteger"] = last_word >> 32
        bit_generator.state = final
    return flipped


def apply_decay(
    data: np.ndarray,
    ground: np.ndarray | GroundState,
    flip_probability: float,
    rng: np.random.Generator,
) -> int:
    """Flip each still-charged bit toward ground with ``flip_probability``.

    Operates in place on ``data`` (uint8).  Only bits that differ from
    the ground state can flip (a discharged cell cannot spontaneously
    recharge).  Returns the number of bits flipped.  ``ground`` is a
    byte array or a :class:`GroundState`; either is sliced one block
    or chunk at a time.

    At and above :data:`SPARSE_DECAY_THRESHOLD` the flips are exactly
    those of one float32 draw per bit, read as raw PCG64 words in
    :data:`DECAY_BLOCK_BYTES` blocks on a thread pool sized to the
    usable CPUs, and ``rng`` ends where that draw would leave it; a
    ``TypeError`` rejects any other bit generator.
    """
    if data.shape != ground.shape:
        raise ValueError("data and ground state must have the same shape")
    if not 0.0 <= flip_probability <= 1.0:
        raise ValueError(f"flip probability out of range: {flip_probability}")
    if flip_probability == 0.0:
        return 0
    if flip_probability >= SPARSE_DECAY_THRESHOLD:
        return _dense_decay(data, ground, flip_probability, rng)
    n = len(data)
    flipped = 0
    for start in range(0, n, DECAY_CHUNK_BYTES):
        stop = min(n, start + DECAY_CHUNK_BYTES)
        chunk = data[start:stop]
        vulnerable = chunk ^ ground[start:stop]
        # Sparse path: sample which vulnerable bits flip instead of
        # drawing a float per bit of the chunk.
        counts = popcount_bytes(vulnerable)
        cumulative = np.cumsum(counts, dtype=np.int64)
        total = int(cumulative[-1]) if counts.size else 0
        if total == 0:
            continue
        ranks = _sample_flip_positions(rng, total, flip_probability)
        if ranks.size == 0:
            continue
        byte_index = np.searchsorted(cumulative, ranks, side="right")
        rank_in_byte = ranks - (cumulative[byte_index] - counts[byte_index])
        masks = _SELECT_TABLE[vulnerable[byte_index], rank_in_byte]
        np.bitwise_xor.at(chunk, byte_index, masks)
        flipped += int(ranks.size)
    return flipped
