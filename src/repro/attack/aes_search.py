"""Searching scrambled memory for expanded AES keys (§III-C).

The paper's insight (Figure 4): wherever an expanded AES key schedule
lies in memory, **at least three consecutive round keys fall inside a
single 64-byte block**, regardless of alignment.  So a per-block test
exists: descramble one block with a candidate scrambler key, take 32
bytes at some offset, run one step of the key-expansion recurrence for
each possible starting round (the "12 possible partial expansions"),
and compare the prediction against the adjacent 16 bytes with a
Hamming-distance budget.  A hit pins down the block's scrambler key,
the schedule's alignment, *and* which rounds it holds — after which the
whole schedule (and the master key at its head) is reconstructed by
running the recurrence forwards and backwards.

Cost containment — the fingerprint join
---------------------------------------

Tested naively, the search is |blocks| × |keys| × offsets × rounds key
expansions; the paper spent 2 hours per 100 MB per core *with AES-NI*.
Pure Python cannot brute-force that, so we exploit more structure
instead of more silicon: of the four schedule words predicted by an
expansion step, three are **linear** — ``w[i] = w[i-Nk] ^ w[i-1]`` with
no S-box.  For a true (block, key) pair these linear relations XOR to
zero, and since descrambling is itself an XOR, each relation splits
into *(function of scrambled block) == (same function of key)*.  We
therefore compute a 12-byte fingerprint per (block, offset) and per
(key, offset) and hash-join them: only joined pairs — true schedule
blocks plus a vanishing number of 2^-96 collisions — ever reach the
full S-box verification.  The search drops to O(blocks × offsets +
keys × offsets) with identical results, playing the role AES-NI plays
in the paper's implementation.

Decay tolerance: the join is *banded* (any clean 2-byte band of the
fingerprint matches), verification uses a Hamming budget, and recovery
escalates through window ballots, neighbour extension, bit repair,
equation-guided table repair, and whole-region confirmation — see
``docs/attack-algorithm.md`` for the full walkthrough.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from repro.attack.decode import (
    DEFAULT_DAMPING,
    DEFAULT_DECODE_ITERS,
    ChannelModel,
    DecodeResult,
    DecodeState,
    block_key_plausibility,
    clamp_rate,
    decode_schedule,
    schedule_plausibility,
)
from repro.attack.decode_shard import decode_schedules_sharded
from repro.crypto.aes import (
    INV_SBOX,
    SBOX,
    Rcon,
    _rot_word,
    _sub_word,
    batch_expand_from_window,
    batch_next_round_key,
    expand_key,
    extend_schedule_words,
    rounds_for,
)
from repro.dram.image import MemoryImage
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceededError, DecodeAbstainError
from repro.util.bits import POPCOUNT_TABLE
from repro.util.blocks import BLOCK_SIZE

#: Minimum satisfied (fully observed) expansion checks an observed
#: table must show before a belief-propagation decode is attempted.
#: Random bytes satisfy ~n_checks/256 ≈ 0.8 checks by luck (so the
#: Poisson tail past 4 is ~1e-3), while a true schedule at any
#: decodable channel keeps an order of magnitude more — the gate turns
#: the flood of junk groups the decoded stage's wide verify budget
#: admits into one cheap vectorized syndrome count each, instead of a
#: full message-passing run.
_DECODE_MIN_CLEAN_CHECKS = 4

#: The span-table pre-gate sorts junk bases from real ones using only
#: the seed hits' spans.  The radius-1 join's junk hits are *selected*
#: for schedule-likeness (a ≤40-of-128 verify tail), so they satisfy
#: byte-checks far above the 1/256 chance rate: measured at BER 0.04,
#: junk span tables score a median of 1 clean check with p99 = 3,
#: while a true two-hit span table scores ~12 (each byte survives the
#: combined channel with probability ≈0.53, so a check is clean at
#: ≈0.15 of ~44 fully-known checks, concentrated by shared bytes).
#: Alias bases (±32 bytes, one transform period) score nearly as high
#: as true ones and must pass — the decoder's Rcon frustration rejects
#: them downstream.
_DECODE_SEED_MIN_CLEAN_CHECKS = 5

#: A pool key joins a block's candidate list past this internal-check
#: score.  True keys at the decodable limit keep λ ≈ 4–5 of a 64-byte
#: slice's ~32 self-contained checks; a wrong key's λ ≈ 0.13, putting
#: 3+ at ~3e-4 per key — a handful of false keys per 4096-key pool,
#: which is why candidates form a *list* (resolved by decode
#: convergence) rather than an argmax adoption: at the decodable limit
#: a decayed true key often ties a lucky junk key at exactly this bar.
_BLOCK_KEY_MIN_CLEAN_CHECKS = 3

#: Per-block candidate list cap.  Measured ties at the decodable limit
#: run 3–4 keys wide; a longer tail only multiplies combos.
_BLOCK_KEY_MAX_CANDIDATES = 3

#: Ceiling on list-decode combinations tried per base.  Each combo is
#: one bounded message-passing run (~0.2 s); the true assignment is
#: found early because combos are ordered by coverage then score.
_DECODE_MAX_COMBOS = 24

#: Blocks per streaming chunk of the fused scan: 65536 rows = 4 MiB of
#: dump.  Every offset and phase probes the chunk's relation tables
#: while they are cache-resident, instead of re-reading (and
#: re-fingerprinting) the whole dump once per offset; measured on the
#: benchmark dump, 4 MiB amortises the ~60 fixed probes per chunk best
#: without pushing the band tables out of cache.
SCAN_CHUNK_BLOCKS = 65536


@dataclass(frozen=True)
class AesVariant:
    """Search geometry for one AES key size."""

    key_bits: int

    @property
    def nk(self) -> int:
        return self.key_bits // 32

    @property
    def total_words(self) -> int:
        return 4 * (rounds_for(self.key_bits) + 1)

    @property
    def window_bytes(self) -> int:
        """Bytes fed to one expansion step: Nk words."""
        return 4 * self.nk

    @property
    def span_bytes(self) -> int:
        """Window plus the 16 predicted bytes checked against memory."""
        return self.window_bytes + 16

    @property
    def window_rounds(self) -> tuple[int, ...]:
        """Starting rounds r for which a window at word 4r fits the schedule.

        For AES-256 this is r ∈ 0..12 — the paper's "12 possible partial
        expansions" counts the interior starting positions; we also test
        the r = 0 window that begins at the raw key itself.
        """
        max_r = (self.total_words - self.window_bytes // 4 - 4) // 4
        return tuple(range(max_r + 1))

    def phases(self) -> tuple[int, ...]:
        """Distinct values of (4r mod Nk) over the valid rounds.

        AES-128/256 round-aligned windows all share phase 0; AES-192's
        Nk = 6 stride cycles through phases 0, 4, 2, each with its own
        set of linear relations.
        """
        return tuple(sorted({(4 * r) % self.nk for r in self.window_rounds}))

    def rounds_with_phase(self, phase: int) -> tuple[int, ...]:
        return tuple(r for r in self.window_rounds if (4 * r) % self.nk == phase)


def _linear_relation_offsets(nk: int, phase: int) -> tuple[tuple[int, int, int], ...]:
    """Byte-offset triples (a, b, c) with x[a:a+4]^x[b:b+4]^x[c:c+4] == 0.

    For a schedule window of Nk words starting at word index j (with
    j ≡ phase mod Nk), predicted word t (absolute index j+Nk+t) is
    linear — ``w = w[j+t] ^ w[j+Nk+t-1]`` — whenever the expansion's
    S-box rule does not fire at that index.
    """
    p = 4 * nk  # byte offset where the predicted round key starts
    relations = []
    for t in range(4):
        index_mod = (phase + nk + t) % nk
        uses_sbox = index_mod == 0 or (nk > 6 and index_mod == 4)
        if uses_sbox:
            continue
        predicted = p + 4 * t
        previous = predicted - 4
        source = 4 * t
        relations.append((predicted, source, previous))
    if not relations:
        raise AssertionError("every phase has at least one linear relation")
    return tuple(relations)


def _fingerprints(span_data: np.ndarray, nk: int, phase: int) -> np.ndarray:
    """Fingerprint rows of an (N, span) matrix: XOR of the linear relations."""
    parts = [
        span_data[:, a : a + 4] ^ span_data[:, b : b + 4] ^ span_data[:, c : c + 4]
        for a, b, c in _linear_relation_offsets(nk, phase)
    ]
    return np.concatenate(parts, axis=1)


def _as_key_matrix(keys: list[bytes] | np.ndarray) -> np.ndarray:
    """Normalise candidate scrambler keys to a ``(k, 64)`` uint8 matrix."""
    if isinstance(keys, np.ndarray):
        matrix = np.asarray(keys, dtype=np.uint8)
    else:
        if not keys:
            raise ValueError("need at least one candidate scrambler key")
        matrix = np.vstack([np.frombuffer(bytes(k), dtype=np.uint8) for k in keys])
    if matrix.ndim != 2 or matrix.shape[1] != BLOCK_SIZE or matrix.shape[0] == 0:
        raise ValueError(f"keys must form a non-empty (k, 64) matrix, got {matrix.shape}")
    return matrix


def default_scan_offsets(key_bits: int) -> tuple[int, ...]:
    """The in-block offsets :class:`AesKeySearch` scans by default."""
    max_offset = BLOCK_SIZE - AesVariant(key_bits).span_bytes
    return tuple(range(min(32, max_offset + 1)))


#: Shared empty probe result, so memoised no-hit bands cost nothing.
_EMPTY_CODES = np.empty(0, dtype=np.int64)

#: XOR masks of one band value's probe neighbourhood, indexed by join
#: radius: the value itself, then (radius 1) its 16 one-bit neighbours.
_PROBE_MASKS = (
    np.zeros(1, dtype=np.uint16),
    np.array([0, *(1 << bit for bit in range(16))], dtype=np.uint16),
)


def _all_pairs(blocks: np.ndarray, n_keys: int) -> np.ndarray:
    """Every (block, key) pair, lexicographic — as an array, not tuples.

    ``_verify_pairs`` takes pairs as an ``(n, 2)`` array; building the
    cross product directly avoids materialising (and re-converting)
    hundreds of thousands of Python tuples per verification pass.
    """
    pairs = np.empty((blocks.size * n_keys, 2), dtype=np.int64)
    pairs[:, 0] = np.repeat(blocks, n_keys)
    pairs[:, 1] = np.tile(np.arange(n_keys, dtype=np.int64), blocks.size)
    return pairs


def _word_popcount(array: np.ndarray, skip_byte0: bool = False) -> np.ndarray:
    """Per-row popcount of an ``(n, 4)`` uint8 array, as ``(n,)`` uint8.

    One ``bitwise_count`` over the rows viewed as uint32 replaces the
    per-byte count + axis reduce — the prefilter calls this thousands
    of times per scan, and the fused form is ~25× faster.  With
    ``skip_byte0`` the count excludes each row's byte 0 (the column a
    round-varying Rcon perturbs) by subtracting its own count; a row's
    total always bounds its byte-0 count, so the uint8 difference
    cannot wrap.
    """
    counts = np.bitwise_count(
        np.ascontiguousarray(array).view(np.uint32).ravel()
    )
    if skip_byte0:
        counts -= np.bitwise_count(array[:, 0])
    return counts


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """Sort-and-mask deduplication, in place of ``np.unique``.

    Same result (ascending uniques) without the hash-table pass the
    hotter callers cannot afford; mutates and returns ``codes``.
    """
    codes.sort()
    if codes.size > 1:
        keep = np.empty(codes.size, dtype=bool)
        keep[0] = True
        np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        codes = codes[keep]
    return codes


def _expand_probe_runs(
    rows: np.ndarray,
    left: np.ndarray,
    counts: np.ndarray,
    order: np.ndarray,
    n_keys: int,
    dtype: type,
) -> np.ndarray:
    """Expand bucket runs ``[left, left+count)`` into joined pair codes.

    ``rows`` are the block indices of the probes that hit a non-empty
    key bucket; each run is flattened without a Python loop by a vector
    of ones whose run boundaries are adjusted so its cumsum walks each
    run in turn.  Returns ``block * n_keys + key`` codes, one per pair,
    in ``dtype`` — ``np.int32`` whenever the codes provably fit, which
    halves the memory traffic of the downstream merge.
    """
    total = int(counts.sum())
    step = np.ones(total, dtype=np.int64)
    step[0] = left[0]
    boundaries = np.cumsum(counts)[:-1]
    step[boundaries] = left[1:] - left[:-1] - counts[:-1] + 1
    positions = np.cumsum(step)
    codes = np.repeat((rows * n_keys).astype(dtype, copy=False), counts)
    codes += order[positions].astype(dtype, copy=False)
    return codes


class KeyFingerprintCache:
    """Key-side join state, computed once and shared by every shard.

    The key side of the fingerprint join — band values, their sort
    order, and the direct-address bucket tables the probe reads —
    depends only on the candidate keys and the ``(offset, phase)``
    geometry, never on the dump.  One cache therefore serves every
    shard of a scan and every retry of a failed shard: a worker process
    builds it once from the shared key matrix and reuses it across all
    the shard tasks it executes, instead of re-fingerprinting ~4k keys
    × 32 offsets per shard.

    For multi-process scans the cache also round-trips through shared
    memory: :meth:`export_blob` serialises every computed entry into one
    buffer and :meth:`attach` reconstitutes a cache whose entries are
    zero-copy read-only views of it, so workers inherit the tables the
    parent already built instead of rebuilding them per process.
    """

    def __init__(self, keys: list[bytes] | np.ndarray, key_bits: int = 256) -> None:
        self.keys = _as_key_matrix(keys)
        self.variant = AesVariant(key_bits)
        self._bands: dict[
            tuple[int, int], tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
        ] = {}
        # Band tables deduplicated by what they actually index: the
        # 2-byte fingerprint value of relation byte-triple ``rel`` at
        # span position ``j``.  Offset ``o``'s high band of a relation
        # is offset ``o+2``'s low band, and phases with identical
        # relation triples (AES-256's even/odd rounds) share all of
        # them, so entries reuse the same order/indptr arrays instead
        # of rebuilding ~2× copies.
        self._band_tables: dict[
            tuple[tuple[int, int, int], int], tuple[np.ndarray, np.ndarray]
        ] = {}
        self._entries_shared: dict[
            tuple[tuple[tuple[int, int, int], ...], int],
            tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]],
        ] = {}

    def bands(
        self, offset: int, phase: int
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """``(values, orders, indptrs)`` for one (offset, phase).

        ``values`` is the ``(k, n_bands)`` band matrix, little-endian
        (``'<u2'``) on every host: band ``j`` of fingerprint row ``fp``
        is ``fp[2j] | fp[2j+1] << 8``, the value the block side's
        :meth:`AesKeySearch._relation_tables` composes arithmetically.
        For each band, ``orders[band]`` is the stable argsort of its
        column and ``indptrs[band]`` a direct-address table over the
        2^16 possible band values: the keys holding value ``v`` occupy
        positions ``indptr[v]:indptr[v+1]`` of ``orders[band]``.
        Probing it is two gathers per block.
        """
        entry = self._bands.get((offset, phase))
        if entry is None:
            relations = _linear_relation_offsets(self.variant.nk, phase)
            entry = self._entries_shared.get((relations, offset))
            if entry is None:
                span = self.variant.span_bytes
                fp = _fingerprints(
                    self.keys[:, offset : offset + span], self.variant.nk, phase
                )
                values = np.ascontiguousarray(fp).view("<u2")
                orders = []
                indptrs = []
                for band in range(values.shape[1]):
                    table_key = (relations[band // 2], offset + 2 * (band % 2))
                    table = self._band_tables.get(table_key)
                    if table is None:
                        order = np.argsort(values[:, band], kind="stable").astype(
                            np.uint32
                        )
                        indptr = np.zeros((1 << 16) + 1, dtype=np.int32)
                        counts = np.bincount(values[:, band], minlength=1 << 16)
                        np.cumsum(counts, out=indptr[1:])
                        table = (order, indptr)
                        self._band_tables[table_key] = table
                    orders.append(table[0])
                    indptrs.append(table[1])
                entry = (values, tuple(orders), tuple(indptrs))
                self._entries_shared[(relations, offset)] = entry
            self._bands[(offset, phase)] = entry
        return entry

    def fingerprint_bytes(self, offset: int, phase: int) -> np.ndarray:
        """The raw ``(k, 4 * relations)`` uint8 fingerprint matrix."""
        return self.bands(offset, phase)[0].view(np.uint8)

    def precompute(
        self,
        offsets: tuple[int, ...] | None = None,
        phases: tuple[int, ...] | None = None,
    ) -> KeyFingerprintCache:
        """Eagerly build every (offset, phase) entry of a scan geometry.

        The fused scan and the thread-sharded orchestrator call this
        before fanning out so the lazily-built ``_bands`` dict is never
        mutated concurrently — after precompute, same-geometry lookups
        are pure reads.
        """
        if offsets is None:
            offsets = default_scan_offsets(self.variant.key_bits)
        if phases is None:
            phases = self.variant.phases()
        for offset in offsets:
            for phase in phases:
                self.bands(offset, phase)
        return self

    def export_blob(self) -> bytes:
        """Serialise every computed entry into one shareable buffer.

        Layout: 8-byte little-endian header length, a JSON header
        (key-set shape plus per-entry array locations), then the raw
        arrays, each 8-byte aligned.  The payload is position-
        independent, so it can live in shared memory and be attached by
        any process holding the same key matrix.
        """
        chunks: list[bytes] = []
        entries: list[list[object]] = []
        position = 0
        seen: dict[int, int] = {}

        def add(array: np.ndarray) -> int:
            nonlocal position
            start = seen.get(id(array))
            if start is not None:  # shared across entries: write once
                return start
            raw = array.tobytes()
            start = position
            seen[id(array)] = start
            chunks.append(raw)
            position += len(raw)
            pad = -position % 8
            if pad:
                chunks.append(b"\x00" * pad)
                position += pad
            return start

        for (offset, phase), (values, orders, indptrs) in sorted(self._bands.items()):
            locations = [add(values)]
            locations.extend(add(order) for order in orders)
            locations.extend(add(indptr) for indptr in indptrs)
            entries.append([offset, phase, int(values.shape[1]), locations])
        header = json.dumps(
            {
                "key_bits": self.variant.key_bits,
                "n_keys": int(self.keys.shape[0]),
                "entries": entries,
            }
        ).encode()
        header += b" " * (-(8 + len(header)) % 8)  # align the payload
        return len(header).to_bytes(8, "little") + header + b"".join(chunks)

    @classmethod
    def attach(
        cls, keys: list[bytes] | np.ndarray, key_bits: int, blob: bytes | memoryview
    ) -> KeyFingerprintCache:
        """Reconstitute a cache from :meth:`export_blob` without copying.

        Every entry becomes a read-only view into ``blob`` (which may be
        a shared-memory buffer); entries for geometries absent from the
        blob still build lazily from ``keys`` as usual.
        """
        cache = cls(keys, key_bits)
        view = memoryview(blob)
        header_len = int.from_bytes(bytes(view[:8]), "little")
        meta = json.loads(bytes(view[8 : 8 + header_len]).decode())
        if meta["key_bits"] != key_bits or meta["n_keys"] != int(cache.keys.shape[0]):
            raise ValueError("fingerprint blob was built for a different key set")
        payload = view[8 + header_len :]
        n_keys = int(cache.keys.shape[0])
        shared: dict[int, np.ndarray] = {}

        def array(location: int, dtype: type | str, count: int) -> np.ndarray:
            out = shared.get(location)
            if out is None:
                out = np.frombuffer(payload, dtype=dtype, count=count, offset=location)
                out.flags.writeable = False
                shared[location] = out
            return out

        for offset, phase, n_bands, locations in meta["entries"]:
            values = array(locations[0], "<u2", n_keys * n_bands).reshape(
                n_keys, n_bands
            )
            orders = tuple(
                array(locations[1 + band], np.uint32, n_keys) for band in range(n_bands)
            )
            indptrs = tuple(
                array(locations[1 + n_bands + band], np.int32, (1 << 16) + 1)
                for band in range(n_bands)
            )
            cache._bands[(offset, phase)] = (values, orders, indptrs)
        return cache


@dataclass(frozen=True)
class ScheduleHit:
    """One verified (block, scrambler key, offset, round) schedule sighting."""

    block_index: int
    key_index: int
    offset: int
    round_index: int
    mismatch_bits: int
    key_bits: int

    @property
    def table_base(self) -> int:
        """Image byte offset where this hit says the schedule begins.

        Round keys are 16 bytes apart, so every window of one in-memory
        schedule agrees on the base — hits are grouped by it.
        """
        return self.block_index * BLOCK_SIZE + self.offset - 16 * self.round_index


@dataclass(frozen=True)
class RecoveredAesKey:
    """A master key reconstructed and confirmed from one in-memory schedule."""

    master_key: bytes
    key_bits: int
    #: Number of observed schedule windows consistent with this key.
    votes: int
    first_block_index: int
    #: Fraction of the full schedule region's bits matching this key's
    #: expansion (1.0 = perfect; decay costs a few percent), measured
    #: over the blocks whose scrambler keys were available.
    match_fraction: float
    #: Agreement over the *entire* region, counting key-less blocks as
    #: zero agreement — the cross-candidate comparison metric: a true
    #: key explains every scoreable block, while a shifted near-copy
    #: explains only the stretch around its window.
    region_agreement: float
    hits: tuple[ScheduleHit, ...]
    #: Posterior confidence in [0, 1] from :func:`confidence_score`:
    #: how well the residual mismatch is explained by the estimated
    #: decay rate.  Excluded from equality (``compare=False``) so the
    #: fast-vs-seed identity checks — the seed never scores confidence
    #: — keep comparing the recovery itself.
    confidence: float = field(default=0.0, compare=False)

    @property
    def schedule(self) -> bytes:
        """The full expanded schedule this key produces."""
        return expand_key(self.master_key)


def confidence_score(
    residual_fraction: float,
    decay_rate: float | None = None,
    coverage: float = 1.0,
    posterior_certainty: float | None = None,
) -> float:
    """Posterior confidence in a recovered key, in ``[0, 1]``.

    A recovery is trustworthy when its residual mismatch — the fraction
    of schedule-region bits its expansion fails to explain — is no more
    than the decay channel accounts for.  The score combines three
    monotone penalties:

    * the estimated decay rate itself (a heavily decayed dump can
      always hide a wrong key better, so *no* recovery from it may
      claim more confidence than a cleaner dump's — this is what makes
      confidence calibration monotone across a decay sweep);
    * the **surprise**: residual mismatch beyond the estimated rate,
      weighted hard (a key that disagrees with the dump more than decay
      explains is suspect);
    * lost **coverage**: the fraction of the schedule region that had
      no attributable scrambler key and so went unscored.

    With ``decay_rate=None`` the residual itself serves as the rate
    estimate (self-calibration: zero surprise, pure rate penalty).

    ``posterior_certainty`` recalibrates the score from a converged
    belief-propagation decode (:mod:`repro.attack.decode`): the mean
    max-posterior probability over the schedule's bytes multiplies the
    channel score.  Certainty is itself monotone in the channel (worse
    decay flattens the posteriors), so the multiplication preserves the
    sweep-monotonicity guarantee while letting a sharp decode separate
    itself from a marginal ballot at the same residual.

    The weights keep the rate term dominant over the coverage term:
    coverage varies by tens of percent between recovery strategies
    (ballot-only vs consistency-voted reconstruction), and confidence
    must stay monotone in the channel — a dump decayed one budget step
    further (Δrate ≈ 0.008) must never score higher just because a
    later stage scored more of its schedule region.
    """
    residual = max(0.0, float(residual_fraction))
    rate = residual if decay_rate is None else max(0.0, float(decay_rate))
    surprise = max(0.0, residual - rate)
    coverage = min(1.0, max(0.0, float(coverage)))
    score = math.exp(-25.0 * rate - 64.0 * surprise - 0.5 * (1.0 - coverage))
    if posterior_certainty is not None:
        score *= min(1.0, max(0.0, float(posterior_certainty)))
    return min(1.0, max(0.0, score))


def _t_inverse_step(words: list[int], first_index: int, nk: int) -> int:
    """Compute schedule word ``first_index - 1`` from the Nk-word window.

    Inverts ``w[i] = w[i-Nk] ^ T_i(w[i-1])`` at i = first_index+Nk-1,
    where both w[i] and w[i-1] sit inside the window.
    """
    i = first_index + nk - 1
    temp = words[-2]
    if i % nk == 0:
        temp = _sub_word(_rot_word(temp)) ^ (Rcon(i // nk) << 24)
    elif nk > 6 and i % nk == 4:
        temp = _sub_word(temp)
    return words[-1] ^ temp


def _t_forward(word: int, index: int, nk: int) -> int:
    """The expansion transform T applied to the previous word at ``index``."""
    if index % nk == 0:
        return _sub_word(_rot_word(word)) ^ (Rcon(index // nk) << 24)
    if nk > 6 and index % nk == 4:
        return _sub_word(word)
    return word


def repair_observed_table(
    table: np.ndarray,
    key_bits: int,
    max_steps: int = 64,
    known_bytes: np.ndarray | None = None,
) -> np.ndarray:
    """Equation-guided error correction of a decayed schedule image.

    A true expanded schedule satisfies ``w[i] = w[i-Nk] ^ T_i(w[i-1])``
    for every word; bit decay breaks individual equations, and each
    violation's XOR residue pinpoints the flipped bits *if* the error
    sits in one of the equation's linear operands.  Greedy repair: for
    each violated equation, try crediting the residue to ``w[i]`` or
    ``w[i-Nk]`` and keep any change that lowers the total violation
    count.  Errors feeding an S-box input are left alone (flipping by
    the residue would not satisfy neighbouring equations, so the greedy
    step rejects it) — the window-ballot machinery picks those up.

    This is the algorithmic form of the paper's observation that
    "multiple contiguous blocks will pass this check", i.e. that the
    schedule's redundancy pays for decay tolerance.
    """
    variant = AesVariant(key_bits)
    nk = variant.nk
    n_words = len(table) // 4
    if n_words < nk + 1:
        return table
    # Words as (n_words, 4) big-endian byte rows: every transform in the
    # recurrence (XOR, RotWord, per-byte SubWord, Rcon on the MSB) is
    # byte-aligned, so the whole repair runs on uint8 matrices and every
    # candidate repair of a greedy step is scored in ONE batched pass.
    words = np.ascontiguousarray(table[: 4 * n_words], dtype=np.uint8).reshape(
        n_words, 4
    )
    if known_bytes is None:
        word_known = np.ones(n_words, dtype=bool)
    else:
        word_known = (
            np.asarray(known_bytes[: 4 * n_words], dtype=bool).reshape(n_words, 4).all(axis=1)
        )

    eq_index = np.arange(nk, n_words)
    rot_mask = eq_index % nk == 0
    sub_mask = (eq_index % nk == 4) if nk > 6 else np.zeros_like(rot_mask)
    rcon_vals = np.array([Rcon(int(i) // nk) for i in eq_index[rot_mask]], dtype=np.uint8)
    # Equations touching guess-filled (unknown) words carry no
    # information about the observed bytes; mask them out.
    known_eq = word_known[nk:] & word_known[: n_words - nk] & word_known[nk - 1 : -1]

    def residues(ws: np.ndarray) -> np.ndarray:
        """Equation residues for a ``(..., n_words, 4)`` batch of tables."""
        prev = ws[..., nk - 1 : -1, :]
        t = prev.copy()
        t[..., rot_mask, :] = SBOX[prev[..., rot_mask, :][..., (1, 2, 3, 0)]]
        t[..., rot_mask, 0] ^= rcon_vals
        if nk > 6:
            t[..., sub_mask, :] = SBOX[prev[..., sub_mask, :]]
        out = ws[..., nk:, :] ^ ws[..., : n_words - nk, :] ^ t
        out[..., ~known_eq, :] = 0
        return out

    def weights_of(ws: np.ndarray) -> np.ndarray:
        """Total residue popcount — the repair's objective.

        Popcount (not violation count) discriminates: a *correct* credit
        simultaneously clears every equation the flipped bits touch,
        while a wrong credit merely shuffles residue bits around.
        """
        return np.bitwise_count(residues(ws)).sum(axis=(-1, -2), dtype=np.int64)

    for _ in range(max_steps):
        residue = residues(words)
        violated = np.nonzero(residue.any(axis=1))[0]
        if violated.size == 0:
            break
        base_weight = int(weights_of(words))
        # Enumerate candidate repairs in the scalar order (per violated
        # equation: credit w[i], credit w[i-Nk], then — for S-box
        # equations — each single-bit flip of w[i-1]).
        targets: list[int] = []
        payloads: list[np.ndarray] = []
        for row in violated:
            i = int(eq_index[row])
            # Hypothesis A/B: the error lives in a linear operand, so the
            # residue itself is the correction.
            targets.extend((i, i - nk))
            payloads.extend((residue[row], residue[row]))
            # Hypothesis C: the error feeds the S-box input w[i-1]; a
            # single-bit flip there can zero the residue nonlinearly.
            if rot_mask[row] or sub_mask[row]:
                for bit in range(32):
                    targets.append(i - 1)
                    payload = np.zeros(4, dtype=np.uint8)
                    payload[3 - bit // 8] = 1 << (bit % 8)
                    payloads.append(payload)
        trials = np.broadcast_to(words, (len(targets), n_words, 4)).copy()
        trials[np.arange(len(targets)), targets] ^= np.asarray(payloads, dtype=np.uint8)
        weights = weights_of(trials)
        best = int(np.argmin(weights))  # ties → first trial, as scalar did
        if int(weights[best]) >= base_weight:
            break
        words = trials[best]
    return words.reshape(-1).copy()


def vote_correct_table(
    table: np.ndarray,
    key_bits: int,
    known_bytes: np.ndarray | None = None,
    max_sweeps: int = 8,
) -> np.ndarray:
    """Cross-round consistency voting over an observed schedule image.

    Where :func:`repair_observed_table` greedily credits one equation's
    residue at a time, this corrector exploits that every schedule word
    is predicted *independently* by three neighbouring relations of
    ``w[i] = w[i-Nk] ^ T_i(w[i-1])``:

    * **forward**:   ``w[i-Nk] ^ T_i(w[i-1])``        (the equation at i);
    * **backward**:  ``w[i+Nk] ^ T_{i+Nk}(w[i+Nk-1])`` (the equation at i+Nk);
    * **inverse**:   ``T_{i+1}^{-1}(w[i+1] ^ w[i+1-Nk])`` — every
      expansion transform is a bijection (RotWord/SubWord/Rcon all
      invert), so the equation at i+1 pins down its own S-box *input*.

    Each word's bits are set by majority over the available predictions
    plus the observed word itself; ties keep the observation.  Because
    decay flips are sparse and the predictions draw on *different*
    neighbours, a decayed word is usually outvoted by two or three
    clean predictions — and each sweep's corrections sharpen the next
    sweep's predictions, so iterating converges (a fixpoint or
    ``max_sweeps``, whichever first).  On a clean table every equation
    already holds and the vote is a no-op.

    ``known_bytes`` marks observed bytes (as in :meth:`_observed_table`);
    guess-filled words don't get an observation vote, so the vote
    re-derives them purely from their neighbours.
    """
    variant = AesVariant(key_bits)
    nk = variant.nk
    n_words = len(table) // 4
    out = np.ascontiguousarray(table, dtype=np.uint8).copy()
    if n_words < nk + 1 or max_sweeps < 1:
        return out
    words = out[: 4 * n_words].reshape(n_words, 4).copy()
    if known_bytes is None:
        word_known = np.ones(n_words, dtype=bool)
    else:
        word_known = (
            np.asarray(known_bytes[: 4 * n_words], dtype=bool).reshape(n_words, 4).all(axis=1)
        )

    eq_index = np.arange(nk, n_words)
    rot_mask = eq_index % nk == 0
    sub_mask = (eq_index % nk == 4) if nk > 6 else np.zeros_like(rot_mask)
    rcon_vals = np.array([Rcon(int(i) // nk) for i in eq_index[rot_mask]], dtype=np.uint8)

    def transform(prev: np.ndarray) -> np.ndarray:
        """``T_i`` applied to the w[i-1] rows of every equation."""
        t = prev.copy()
        t[rot_mask] = SBOX[prev[rot_mask][:, (1, 2, 3, 0)]]
        t[rot_mask, 0] ^= rcon_vals
        if nk > 6:
            t[sub_mask] = SBOX[prev[sub_mask]]
        return t

    def transform_inverse(values: np.ndarray) -> np.ndarray:
        """``T_i^{-1}`` of every equation's ``w[i] ^ w[i-Nk]``."""
        out_vals = values.copy()
        x = values[rot_mask].copy()
        x[:, 0] ^= rcon_vals
        x = INV_SBOX[x]
        out_vals[rot_mask] = x[:, (3, 0, 1, 2)]
        if nk > 6:
            out_vals[sub_mask] = INV_SBOX[values[sub_mask]]
        return out_vals

    for _ in range(max_sweeps):
        t = transform(words[nk - 1 : -1])
        # Prediction targets: forward → w[nk:], backward → w[:n-nk],
        # inverse → w[nk-1:n-1].  Each covers a contiguous word range.
        pred_forward = words[: n_words - nk] ^ t
        pred_backward = words[nk:] ^ t
        pred_inverse = transform_inverse(words[nk:] ^ words[: n_words - nk])

        ballots = np.zeros((n_words, 32), dtype=np.int16)
        voters = np.zeros((n_words, 1), dtype=np.int16)
        for prediction, lo, hi in (
            (pred_forward, nk, n_words),
            (pred_backward, 0, n_words - nk),
            (pred_inverse, nk - 1, n_words - 1),
        ):
            ballots[lo:hi] += np.unpackbits(prediction, axis=1)
            voters[lo:hi] += 1
        observed_bits = np.unpackbits(words, axis=1)
        ballots[word_known] += observed_bits[word_known]
        voters[word_known[:, None]] += 1

        corrected_bits = np.where(
            2 * ballots > voters, 1, np.where(2 * ballots < voters, 0, observed_bits)
        ).astype(np.uint8)
        corrected = np.packbits(corrected_bits, axis=1)
        if np.array_equal(corrected, words):
            break
        words = corrected
    out[: 4 * n_words] = words.reshape(-1)
    return out


def reconstruct_schedule(window: list[int], first_index: int, key_bits: int) -> bytes:
    """Rebuild the full schedule from Nk consecutive words at any position.

    Runs the expansion recurrence backwards to word 0, then forwards to
    the end.  This subsumes the paper's boundary step ("check blocks at
    the boundaries to extract any remaining bytes that are part of the
    key"): bytes of rounds that precede the hit window fall out of the
    backward recurrence.
    """
    variant = AesVariant(key_bits)
    nk = variant.nk
    if len(window) != nk:
        raise ValueError(f"window must hold {nk} words")
    if first_index < 0 or first_index + nk > variant.total_words:
        raise ValueError("window does not fit the schedule")
    words = list(window)
    index = first_index
    while index > 0:
        previous = _t_inverse_step(words, index, nk)
        words = [previous] + words[:-1]
        index -= 1
    head = list(words)
    tail = extend_schedule_words(head, 0, variant.total_words - nk, nk)
    return b"".join(w.to_bytes(4, "big") for w in head + tail)


class AesKeySearch:
    """Scan a scrambled dump for AES schedules, given candidate keys.

    ``keys`` is a list of 64-byte candidate scrambler keys (or an
    ``(k, 64)`` uint8 matrix), typically from
    :func:`repro.attack.keymine.mine_scrambler_keys`.  Passing a single
    all-zero key degrades the search to the classic Halderman scan over
    unscrambled memory.
    """

    def __init__(
        self,
        keys: list[bytes] | np.ndarray,
        key_bits: int = 256,
        verify_tolerance_bits: int = 16,
        offsets: tuple[int, ...] | None = None,
        extension_radius_blocks: int = 6,
        accept_mismatch_fraction: float = 0.05,
        repair_bits: int = 1,
        join_radius_bits: int = 0,
        key_cache: KeyFingerprintCache | None = None,
        schedule_vote: bool = False,
        decay_rate: float | None = None,
        schedule_decode: bool = False,
        decode_iters: int = DEFAULT_DECODE_ITERS,
        decode_damping: float = DEFAULT_DAMPING,
        decode_workers: int = 1,
        decode_state_store=None,
        deadline: Deadline | float | None = None,
    ) -> None:
        self.keys = _as_key_matrix(keys)
        self.variant = AesVariant(key_bits)
        if verify_tolerance_bits < 0:
            raise ValueError("tolerances must be non-negative")
        self.verify_tolerance_bits = verify_tolerance_bits
        max_offset = BLOCK_SIZE - self.variant.span_bytes
        #: Byte offsets scanned within each block.  Round keys recur
        #: every 16 bytes, so 0..16 already covers every possible table
        #: alignment; shorter variants (AES-128's 32-byte span) scan all
        #: the offsets that fit, doubling the windows per schedule and
        #: with them the decay resilience.
        self.offsets = offsets if offsets is not None else default_scan_offsets(key_bits)
        if any(o < 0 or o > max_offset for o in self.offsets):
            raise ValueError(f"offsets must lie in 0..{max_offset}")
        if not 0.0 < accept_mismatch_fraction < 0.5:
            raise ValueError("accept_mismatch_fraction must lie in (0, 0.5)")
        if extension_radius_blocks < 0 or repair_bits < 0:
            raise ValueError("extension radius and repair bits must be non-negative")
        #: Blocks around a seed hit re-verified without the fingerprint
        #: prefilter (the paper's step 3 "repeat on neighbouring blocks").
        self.extension_radius_blocks = extension_radius_blocks
        #: A candidate key is accepted when at most this fraction of the
        #: full schedule region's bits disagree with its expansion.
        self.accept_mismatch_fraction = accept_mismatch_fraction
        #: Decay repair: windows are retried with up to this many bit
        #: flips when no pristine window reconstructs a consistent key.
        self.repair_bits = repair_bits
        if join_radius_bits not in (0, 1):
            raise ValueError("join_radius_bits must be 0 or 1")
        #: Hamming radius of the band join.  At radius 1 every block
        #: band also probes its 16 single-bit neighbours, so a window
        #: survives the join unless *every* band decayed by two or more
        #: bits — the decoded stage's acquisition channel, where the
        #: exact join is the gate that starves the decoder.
        self.join_radius_bits = int(join_radius_bits)
        #: Error-correcting reconstruction: run cross-round consistency
        #: voting (:func:`vote_correct_table`) over the observed table
        #: before the greedy equation repair.  Off by default — it can
        #: recover keys the seed path cannot, which would break the
        #: fast-vs-seed equivalence checks; the adaptive engine turns
        #: it on in its widened stages.
        self.schedule_vote = bool(schedule_vote)
        if decay_rate is not None and not 0.0 <= decay_rate < 0.5:
            raise ValueError("decay_rate must lie in [0, 0.5)")
        #: Estimated per-bit decay rate of the dump; calibrates each
        #: recovery's :func:`confidence_score` (None = self-calibrate
        #: from the residual alone).
        self.decay_rate = decay_rate
        #: Belief-propagation decode: when the rescue loop has a mostly
        #: right guess, run message passing over the key-expansion
        #: constraint graph on the observed table instead of relying on
        #: vote+repair alone.  Off by default for the same seed
        #: equivalence reason as ``schedule_vote``; the adaptive
        #: engine's ``decoded`` stage turns it on.
        self.schedule_decode = bool(schedule_decode)
        if decode_iters < 1:
            raise ValueError("decode_iters must be at least 1")
        if not 0.0 <= decode_damping < 1.0:
            raise ValueError("decode_damping must lie in [0, 1)")
        self.decode_iters = int(decode_iters)
        self.decode_damping = float(decode_damping)
        if decode_workers < 1:
            raise ValueError("decode_workers must be at least 1")
        #: Thread shards for batched combo decodes: candidate tables
        #: are split across the resilient thread pool (the WHT kernels
        #: release the GIL), byte-identically to an unsharded decode.
        self.decode_workers = int(decode_workers)
        #: Optional :class:`~repro.resilience.checkpoint.DecodeStateStore`
        #: holding partial decode posteriors across a deadline, keyed by
        #: table base; with it a ``--resume`` warm-starts mid-decode and
        #: finishes byte-identically.
        self.decode_state_store = decode_state_store
        #: Wall-clock deadline threaded into each decode's sweep loop.
        self.deadline = Deadline.coerce(deadline)
        #: Telemetry from every decode attempt this search has made,
        #: aggregated into the report's ``robustness.decode`` block.
        self.decode_stats: dict = {
            "tables": 0,
            "iterations": 0,
            "converged": 0,
            "abstained": 0,
            # Bases the span pre-gate rejected, and bases skipped
            # because a decoded key already claimed their region.
            "gated": 0,
            "claimed": 0,
            "posterior_entropy_sum": 0.0,
            # Residual-schedule savings: check-message updates actually
            # computed vs what dense sweeps over the same live tables
            # would have computed.
            "checks_updated": 0,
            "checks_dense": 0,
        }
        #: Structured :class:`DecodeAbstainError` evidence, one entry
        #: per table the decoder declined to emit a key for.
        self.decode_abstains: list = []
        if key_cache is None:
            key_cache = KeyFingerprintCache(self.keys, key_bits)
        elif key_cache.variant.key_bits != key_bits or not np.array_equal(
            key_cache.keys, self.keys
        ):
            raise ValueError("key_cache was built for a different key set or key size")
        self._key_cache = key_cache
        #: The keys as ``(8, n_keys)`` uint64 words, for :meth:`_region_fit`.
        self._key_words = np.ascontiguousarray(self.keys).view(np.uint64).T.copy()
        self._flips: dict[int, np.ndarray] = {}
        #: Optional zero-argument liveness hook, called after every
        #: scan chunk and every offset of the neighbour walk (and by
        #: the decoder between sweeps).  The sharded orchestrator points
        #: this at the heartbeat watchdog so a multi-minute shard search
        #: publishes progress beats at sub-shard granularity.
        self.on_progress = None
        #: Wall-clock split of the last :meth:`find_hits` call: "join"
        #: (relation tables + direct-address probes) vs "verify"
        #: (mismatch prefilter + S-box verification).  The benchmark
        #: harness reads this so BENCH_scan.json reports the stages as
        #: they actually ran inside the fused pass, not a re-simulation.
        self.stage_seconds: dict[str, float] = {"join": 0.0, "verify": 0.0}
        # Per-band "bucket is non-empty" bitmaps, keyed by the identity
        # of the band's indptr table (the same key the probe memo uses).
        # A 64 KiB bool gather decides which blocks hit anything before
        # the wider int32 bucket-bound gathers run on the survivors.
        # Worker threads may race to fill an entry; both compute the
        # same array, so last-write-wins is harmless.
        self._band_nonempty: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------- matching

    def _verify_pairs(
        self,
        blocks: np.ndarray,
        pairs: list[tuple[int, int]] | np.ndarray,
        offset: int,
        phase: int,
        tolerance_bits: int | None = None,
    ) -> list[ScheduleHit]:
        """Full S-box verification of joined pairs at every compatible round.

        Rounds sharing a phase share their expansion structure: the
        transform applied to predicted word ``t`` depends only on
        ``(phase + t) mod Nk``, so two rounds of the same phase predict
        byte-identical words except for the round constant.  The Rcon
        lands on byte 0 of word ``t0 = (-phase) mod Nk`` (when ``t0``
        falls among the four predicted words) and — every later
        predicted transform being the identity XOR — propagates
        unchanged to byte 0 of each subsequent word.  One expansion per
        phase therefore serves every round: per round, only the byte
        columns ``4*t`` for ``t >= t0`` are re-popcounted against the
        Rcon delta.  For phases with no Rcon among the predicted words
        (e.g. AES-256 odd rounds), all rounds share one mismatch vector
        outright.
        """
        if len(pairs) == 0:
            return []
        pair_array = np.asarray(pairs, dtype=np.int64)
        offsets = np.full(pair_array.shape[0], offset, dtype=np.int64)
        return self._verify_pairs_at(blocks, pair_array, offsets, phase, tolerance_bits)

    def _verify_pairs_at(
        self,
        blocks: np.ndarray,
        pair_array: np.ndarray,
        offsets: np.ndarray,
        phase: int,
        tolerance_bits: int | None = None,
    ) -> list[ScheduleHit]:
        """:meth:`_verify_pairs` over a stacked multi-offset pair batch.

        ``offsets[i]`` is pair ``i``'s scan offset.  The expansion
        prediction and Rcon algebra depend only on the phase, never the
        offset, so the fused scan stacks every surviving pair of a
        chunk into one call: one :func:`batch_next_round_key` and one
        ``np.bitwise_count`` over the whole XOR matrix, instead of a
        small per-offset batch per probe — the fixed per-call cost was
        most of the verify stage's wall time once the join got cheap.

        The spans are gathered one run of equal offsets at a time, each
        a row slice of the batch reading a contiguous column slice, so
        the gather costs one byte per span byte: a per-pair column-index
        matrix would cost eight, which at radius 1 is tens of MiB.
        """
        if pair_array.shape[0] == 0:
            return []
        tolerance = self.verify_tolerance_bits if tolerance_bits is None else tolerance_bits
        variant = self.variant
        nk = variant.nk
        span = variant.span_bytes
        data = np.empty((pair_array.shape[0], span), dtype=np.uint8)
        bounds = [0, *(np.flatnonzero(np.diff(offsets)) + 1).tolist(), offsets.size]
        for first, last in zip(bounds[:-1], bounds[1:]):
            lo = int(offsets[first])
            np.bitwise_xor(
                blocks[pair_array[first:last, 0], lo : lo + span],
                self.keys[pair_array[first:last, 1], lo : lo + span],
                out=data[first:last],
            )
        window = data[:, : variant.window_bytes]
        check = data[:, variant.window_bytes :]
        # Every passing round is kept: odd-round expansion steps are
        # Rcon-free and therefore locally indistinguishable from each
        # other, so a window can legitimately match several rounds.  The
        # table-base grouping in recover_keys() — every window of one
        # schedule must agree on where the table starts — plus the
        # full-region confirmation resolve the ambiguity.
        rounds = variant.rounds_with_phase(phase)
        first_round = rounds[0]
        predicted = batch_next_round_key(window, nk=nk, first_word_index=4 * first_round)
        xored = predicted ^ check
        base_mismatch = np.bitwise_count(xored).sum(axis=1, dtype=np.int64)
        t0 = (-phase) % nk
        if t0 < 4:
            affected = np.ascontiguousarray(xored[:, 4 * t0 :: 4][:, : 4 - t0])
            base_excluded = base_mismatch - np.bitwise_count(affected).sum(
                axis=1, dtype=np.int64
            )
            rcon_first = Rcon((4 * first_round + nk + t0) // nk)
        hits: list[ScheduleHit] = []
        for round_index in rounds:
            if t0 >= 4 or round_index == first_round:
                mismatch = base_mismatch
            else:
                delta = rcon_first ^ Rcon((4 * round_index + nk + t0) // nk)
                mismatch = base_excluded + np.bitwise_count(
                    affected ^ np.uint8(delta)
                ).sum(axis=1, dtype=np.int64)
            for row in np.nonzero(mismatch <= tolerance)[0]:
                hits.append(
                    ScheduleHit(
                        block_index=int(pair_array[row, 0]),
                        key_index=int(pair_array[row, 1]),
                        offset=int(offsets[row]),
                        round_index=round_index,
                        mismatch_bits=int(mismatch[row]),
                        key_bits=variant.key_bits,
                    )
                )
        return hits

    # -------------------------------------------------------------- scanning

    def find_hits(self, image: MemoryImage) -> list[ScheduleHit]:
        """All verified schedule sightings in the image."""
        self.stage_seconds = {"join": 0.0, "verify": 0.0}
        hits = self._find_hits_fused(image.blocks_matrix())
        hits.sort(key=lambda h: (h.block_index, h.offset, h.round_index))
        return hits

    def _find_hits_fused(self, blocks: np.ndarray) -> list[ScheduleHit]:
        """Single streaming pass: mine the relation tables of each chunk
        once, then join and verify every (offset, phase) against them.

        Each chunk of the dump is touched once: its three linear-
        relation byte streams (and their 2-byte band composition) cover
        *every* scan offset, so a per-offset fingerprint recompute — 17
        full passes over the dump for AES-256 — collapses into one.
        Joined pairs then pass the exact mismatch lower bound
        (:meth:`_prefilter_chunk_pairs`) before the S-box verification,
        which prunes the ~2^-16-rate band collisions without touching
        the dump again.  Hit lists are byte-identical to the seed's
        per-(offset, phase) join-then-verify loop (``SeedAesKeySearch``
        in ``benchmarks/legacy_scan.py``): probe output is in ascending
        (block, key) order per (offset, phase), verification order per
        pair is unchanged, and the caller's final sort is stable.
        """
        if not self.offsets:
            return []
        hits: list[ScheduleHit] = []
        n_blocks = blocks.shape[0]
        groups = self._phase_groups()
        stage = self.stage_seconds
        for start in range(0, n_blocks, SCAN_CHUNK_BLOCKS):
            chunk = blocks[start : start + SCAN_CHUNK_BLOCKS]
            for group_phases in groups:
                tick = time.perf_counter()
                streams, band_tables = self._relation_tables(chunk, group_phases[0])
                stage["join"] += time.perf_counter() - tick
                probe_memo: dict[int, np.ndarray] = {}
                # Pairs surviving the prefilter accumulate across the
                # chunk's offsets; the S-box verification then runs
                # once per phase over the stacked batch instead of once
                # per (offset, phase) sliver.
                surviving: list[tuple[int, np.ndarray]] = []
                for offset in self.offsets:
                    tick = time.perf_counter()
                    pairs = self._probe_chunk(
                        band_tables, offset, group_phases[0], probe_memo
                    )
                    tock = time.perf_counter()
                    stage["join"] += tock - tick
                    if pairs.shape[0]:
                        pairs = self._prefilter_chunk_pairs(
                            chunk, streams, pairs, offset, group_phases, self.verify_tolerance_bits
                        )
                        pairs[:, 0] += start
                        if pairs.shape[0]:
                            surviving.append((offset, pairs))
                    stage["verify"] += time.perf_counter() - tock
                if surviving:
                    tick = time.perf_counter()
                    pair_array = np.concatenate(
                        [p for _, p in surviving], axis=0
                    ).astype(np.int64, copy=False)
                    pair_offsets = np.concatenate(
                        [
                            np.full(p.shape[0], off, dtype=np.int64)
                            for off, p in surviving
                        ]
                    )
                    for phase in group_phases:
                        hits.extend(
                            self._verify_pairs_at(
                                blocks, pair_array, pair_offsets, phase
                            )
                        )
                    stage["verify"] += time.perf_counter() - tick
            if self.on_progress is not None:
                self.on_progress()
        return hits

    def _phase_groups(self) -> list[list[int]]:
        """The phases in order, grouped by linear-relation triples: phases
        sharing them (AES-256's even and odd rounds) share fingerprints,
        so only their round verification differs."""
        groups: dict[tuple[tuple[int, int, int], ...], list[int]] = {}
        for phase in self.variant.phases():
            relations = _linear_relation_offsets(self.variant.nk, phase)
            groups.setdefault(relations, []).append(phase)
        return list(groups.values())

    def _relation_tables(
        self, chunk: np.ndarray, phase: int
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-relation fingerprint streams covering every scan offset.

        For relation bytes ``(a, b, c)``, row ``j`` of the byte table is
        ``chunk[:, j+a] ^ chunk[:, j+b] ^ chunk[:, j+c]`` — the
        fingerprint byte at in-span position ``j`` — for every ``j`` any
        offset can reach.  The band table composes adjacent rows into
        little-endian uint16 band values, so the band value of offset
        ``o``, half ``h`` is band-table row ``o + 2h``.  The band table
        is transposed so one offset's probe reads contiguous rows; the
        byte streams land side by side in one ``(blocks, 3·width)``
        matrix, so the prefilter fetches a pair's *entire* fingerprint
        neighbourhood with a single row gather — one cache line per
        pair instead of one per relation byte.
        """
        width = max(self.offsets) + 4
        relations = _linear_relation_offsets(self.variant.nk, phase)
        streams = np.empty((chunk.shape[0], len(relations) * width), dtype=np.uint8)
        band_tables: list[np.ndarray] = []
        for r, (a, b, c) in enumerate(relations):
            f = streams[:, r * width : (r + 1) * width]
            np.bitwise_xor(chunk[:, a : a + width], chunk[:, b : b + width], out=f)
            f ^= chunk[:, c : c + width]
            v = f[:, :-1].astype(np.uint16)
            v |= f[:, 1:].astype(np.uint16) << 8
            band_tables.append(np.ascontiguousarray(v.T))
        return streams, band_tables

    def _probe_chunk(
        self,
        band_tables: list[np.ndarray],
        offset: int,
        phase: int,
        memo: dict[int, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Direct-address banded join of one chunk at one (offset, phase).

        The join is *banded* for decay tolerance: the fingerprint splits
        into 2-byte bands (two per linear relation), and a (block, key)
        pair joins when **any** band matches — exactly, or at
        ``join_radius_bits = 1`` within one bit, so each block band
        probes its own value and its 16 one-bit neighbours.  A flipped
        bit corrupts only the bands whose source bytes it touches, so a
        window survives unless every band decayed (by two or more bits,
        at radius 1); junk joins, at rate 2^-16 per band probe, die in
        verification.

        The block side streams straight out of the chunk's band tables —
        no per-offset fingerprint pass — while the key side is the
        cache's direct-address buckets.  Returns ``(n, 2)`` int64
        ``(chunk-local block, key)`` pairs in ascending lexicographic
        order.

        ``memo`` (keyed by the identity of a band's bucket table) skips
        bands already probed for another offset: the cache shares each
        (relation, span-position) table between the offset reading it as
        its low band and the one reading it as its high band, and both
        read the same block values, so the expanded pair codes are
        identical.

        Most band values hit an empty key bucket, so each probe first
        gathers a 64 KiB non-empty bitmap and compresses to the hitting
        probes before touching the wider int32 bucket bounds.  Chunk-
        local codes fit int32 whenever ``chunk · n_keys < 2^31``, which
        halves the merge's memory traffic and hits numpy's vectorised
        32-bit introsort.
        """
        _, key_orders, key_indptrs = self._key_cache.bands(offset, phase)
        n_keys = self.keys.shape[0]
        masks = _PROBE_MASKS[self.join_radius_bits]
        dtype: type = (
            np.int32 if band_tables[0].shape[1] * n_keys < 2**31 else np.int64
        )
        codes: list[np.ndarray] = []
        band = 0
        for table in band_tables:
            for half in (0, 1):
                indptr = key_indptrs[band]
                band_codes = None if memo is None else memo.get(id(indptr))
                if band_codes is None:
                    nonempty = self._band_nonempty.get(id(indptr))
                    if nonempty is None:
                        nonempty = indptr[1:] != indptr[:-1]
                        self._band_nonempty[id(indptr)] = nonempty
                    # Probe ``i`` is block ``i // masks.size``'s value
                    # under mask ``i % masks.size``.
                    probes = (table[offset + 2 * half][:, None] ^ masks).ravel()
                    hits = np.flatnonzero(nonempty[probes])
                    if hits.size:
                        rows = hits // masks.size
                        hit_values = probes[hits].astype(np.int64)
                        left = indptr[hit_values].astype(np.int64)
                        counts = indptr[1:][hit_values]
                        counts = counts.astype(np.int64)
                        counts -= left
                        band_codes = _expand_probe_runs(
                            rows, left, counts, key_orders[band], n_keys, dtype
                        )
                    else:
                        band_codes = _EMPTY_CODES
                    if memo is not None:
                        memo[id(indptr)] = band_codes
                if band_codes.size:
                    codes.append(band_codes)
                band += 1
        if not codes:
            return np.empty((0, 2), dtype=np.int64)
        merged = np.concatenate(codes) if len(codes) > 1 else codes[0].copy()
        merged = _sorted_unique(merged).astype(np.int64, copy=False)
        return np.stack((merged // n_keys, merged % n_keys), axis=1)

    def _prefilter_chunk_pairs(
        self,
        chunk: np.ndarray,
        streams: np.ndarray,
        pairs: np.ndarray,
        offset: int,
        phases: list[int],
        tolerance: int,
    ) -> np.ndarray:
        """Drop pairs no round of verification within ``tolerance`` bits
        could accept.

        Exact stages, each a lower bound on *every* compatible round's
        mismatch, so pairs that could pass any round of any of the
        (relation-sharing) ``phases`` always survive — the final hit
        list is identical to verifying every pair, joined or not.

        Stage 0 applies the chain bound to the first **two** relations
        only.  Dropping a run's non-negative terms (or whole runs) can
        only lower its per-bit minimum, so the two-relation bound is
        itself a bound on the full one — and it already rejects all but
        ~10^-4 of joined pairs for a third of the gather and popcount
        traffic, leaving the full three-relation machinery a rounding
        error.

        Stage 1 is the phase-independent chain bound over all relations
        (:meth:`_mismatch_lower_bounds`).  It cannot reject a pair whose
        linear residuals are all consistent — notably a zero-filled
        block joined against its own mined key stream, where every
        ``u_t`` is zero — so stage 2 anchors the chain exactly when the
        S-box word is ``t = 0``: its expansion input is the *window's
        last word*, observed data, making every linear word's residual
        ``x_t = x_0 ^ u_1 ^ … ^ u_t`` computable outright.  Only the
        round constant escapes (it perturbs byte 0 of every residual
        when the ``t = 0`` transform carries Rcon), so those byte
        columns are excluded from the bound; phases whose ``t = 0``
        transform is SubWord-only (AES-256 odd rounds) bound all 32
        bits of every word — there the bound *is* the round mismatch.
        """
        nk = self.variant.nk
        ts = [(a - 4 * nk) // 4 for a, _, _ in _linear_relation_offsets(nk, phases[0])]
        key_fp = self._key_cache.fingerprint_bytes(offset, phases[0])
        width = streams.shape[1] // len(ts)
        # Single row gathers: each pair's whole fingerprint neighbourhood
        # (all relations) and its key fingerprint, one take() each —
        # numpy's row-take is several times faster than the equivalent
        # per-relation mixed advanced-plus-slice indexing.
        block_fp = streams.take(pairs[:, 0], axis=0)
        pair_fp = key_fp.take(pairs[:, 1], axis=0)

        def u_part(r: int) -> np.ndarray:
            lo = r * width + offset
            return block_fp[:, lo : lo + 4] ^ pair_fp[:, 4 * r : 4 * r + 4]

        # Stage 0: two-relation coarse bound over every joined pair.
        u_parts = [u_part(0), u_part(1)]
        coarse = np.flatnonzero(
            self._mismatch_lower_bounds(u_parts, ts[:2]) <= tolerance
        )
        pairs = pairs[coarse]
        if pairs.shape[0] == 0:
            return pairs
        block_fp = block_fp.take(coarse, axis=0)
        pair_fp = pair_fp.take(coarse, axis=0)
        u_parts = [part.take(coarse, axis=0) for part in u_parts]
        u_parts.extend(u_part(r) for r in range(2, len(ts)))

        # Stage 1: the full chain bound on the coarse survivors.
        survivors = np.flatnonzero(self._mismatch_lower_bounds(u_parts, ts) <= tolerance)
        pairs = pairs[survivors]
        if 0 in ts or pairs.shape[0] == 0:
            return pairs
        u_parts = [part.take(survivors, axis=0) for part in u_parts]
        block_rows = pairs[:, 0]
        key_rows = pairs[:, 1]
        nk = self.variant.nk
        p = 4 * nk
        columns = offset + np.array(
            (0, 1, 2, 3, p - 4, p - 3, p - 2, p - 1, p, p + 1, p + 2, p + 3)
        )
        spans = chunk[block_rows[:, None], columns]
        spans ^= self.keys[key_rows[:, None], columns]
        source = spans[:, 0:4]
        previous = spans[:, 4:8]
        check = spans[:, 8:12]
        best: np.ndarray | None = None
        for phase in phases:
            if phase % nk == 0:  # RotWord ∘ SubWord ∘ Rcon at t = 0
                x = SBOX[previous[:, (1, 2, 3, 0)]]
                rcon_byte = True  # Rcon varies per round on byte 0: exclude it
            else:  # nk > 6 S-box rule: SubWord only, round-independent
                x = SBOX[previous]
                rcon_byte = False
            x ^= source
            x ^= check
            bound = _word_popcount(x, skip_byte0=rcon_byte).astype(np.int64)
            for part in u_parts:
                x ^= part
                bound += _word_popcount(x, skip_byte0=rcon_byte)
            best = bound if best is None else np.minimum(best, bound)
        return pairs[best <= tolerance]

    @staticmethod
    def _mismatch_lower_bounds(u_parts: list[np.ndarray], ts: list[int]) -> np.ndarray:
        """Exact per-pair lower bound on every round's verify mismatch.

        Write ``x_t = predicted_t ^ check_t`` for the four verified
        words; the mismatch of a round is ``Σ popcount(x_t)``.  For a
        *linear* predicted word ``t`` the expansion step is a pure XOR,
        so ``x_t ^ x_{t-1} = u_t`` — the (block ^ key) fingerprint part,
        a data-only quantity — at **every** round sharing the phase
        (``x_{-1} = 0``: relation ``t = 0`` chains to the window's last
        word, which prediction starts from; Rcon deltas between rounds
        enter only at the S-box word and cancel out of every linear
        ``u_t``).  Minimising ``Σ popcount(x_t)`` subject to those chain
        constraints — independently per bit position, S-box words free
        at zero — therefore bounds all rounds at once:

        * a run of consecutive linear ``t`` anchored at ``t = 0`` has no
          free variable; its minimum is the popcount of every prefix XOR
          of its ``u`` values;
        * an unanchored run of length L has one free base bit; per bit,
          ``min(k, L + 1 - k)`` where ``k`` counts set bits among the
          prefix XORs — closed forms below for L ≤ 3 (runs are at most
          the four predicted words, and a length-4 run is anchored).
        """
        bounds = np.zeros(u_parts[0].shape[0], dtype=np.int64)
        popcount = _word_popcount

        runs: list[list[int]] = [[0]]
        for i in range(1, len(ts)):
            if ts[i] == ts[i - 1] + 1:
                runs[-1].append(i)
            else:
                runs.append([i])
        for run in runs:
            prefixes: list[np.ndarray] = []
            for i in run:
                prefixes.append(u_parts[i] if not prefixes else prefixes[-1] ^ u_parts[i])
            if ts[run[0]] == 0:  # anchored: x_{-1} = 0 pins every variable
                for prefix in prefixes:
                    bounds += popcount(prefix)
            elif len(prefixes) == 1:
                bounds += popcount(prefixes[0])
            elif len(prefixes) == 2:
                bounds += popcount(prefixes[0] | prefixes[1])
            else:  # L = 3: per bit, k - 2·[k == 3] realises min(k, 4 - k)
                s1, s2, s3 = prefixes
                bounds += popcount(s1) + popcount(s2) + popcount(s3)
                bounds -= 2 * popcount(s1 & s2 & s3)
        return bounds

    # ------------------------------------------------------------- recovery

    def _extend_hits(
        self,
        blocks: np.ndarray,
        block_indices: np.ndarray,
        tolerance_bits: int,
        base: int | None = None,
    ) -> list[ScheduleHit]:
        """Verify every (block, key) pair of a neighbourhood, joinlessly.

        The paper's neighbour walk (step 3) and the pinned-base rescue
        (:meth:`recover_at_base`) look for windows whose every band
        decayed, which the join misses.  Each pair instead meets the
        exact mismatch lower bound of :meth:`_prefilter_chunk_pairs`, so
        only survivors pay for S-box verification and the hits — per
        offset, phase and round, in ascending (block, key) order — are
        exactly those of verifying every pair.  With ``base`` only hits
        whose table starts there are kept, and offsets that cannot reach
        it (round keys sit 16 bytes apart) are skipped.
        """
        block_indices = np.asarray(block_indices, dtype=np.int64)
        chunk = blocks[block_indices]
        pairs = _all_pairs(np.arange(block_indices.size, dtype=np.int64), self.keys.shape[0])
        groups = self._phase_groups()
        streams = [self._relation_tables(chunk, phases[0])[0] for phases in groups]
        hits: list[ScheduleHit] = []
        for offset in self.offsets:
            if base is None or (offset - base) % 16 == 0:
                for group_streams, phases in zip(streams, groups):
                    survivors = self._prefilter_chunk_pairs(
                        chunk, group_streams, pairs, offset, phases, tolerance_bits
                    )
                    survivors[:, 0] = block_indices[survivors[:, 0]]
                    for phase in phases:
                        for hit in self._verify_pairs(
                            blocks, survivors, offset, phase, tolerance_bits
                        ):
                            if base is None or hit.table_base == base:
                                hits.append(hit)
            if self.on_progress is not None:
                self.on_progress()
        return hits

    def _flip_matrix(self, n_bytes: int) -> np.ndarray:
        """Rows of single-bit flips over ``n_bytes`` (bit 0 = MSB of byte 0)."""
        cached = self._flips.get(n_bytes)
        if cached is None:
            cached = np.zeros((8 * n_bytes, n_bytes), dtype=np.uint8)
            bits = np.arange(8 * n_bytes)
            cached[bits, bits // 8] = 0x80 >> (bits % 8)
            self._flips[n_bytes] = cached
        return cached

    def _window_ballots(
        self, span: np.ndarray, round_index: int, repair_bits: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """All ballots from one window, expanded in a single batch.

        Returns ``(masters, schedules)``: the ``(n, key_bytes)`` master
        keys and the ``(n, schedule_bytes)`` full expansions, one row
        per ballot.  Row order matches the seed's scalar path
        (``SeedAesKeySearch._window_candidates`` in
        ``benchmarks/legacy_scan.py``): the unrepaired window first, then
        one row per flipped bit.  Since the backward recurrence ends at
        word 0 and the forward pass re-derives everything from there,
        each schedule row *is* ``expand_key`` of its master — recovery
        scores rows directly instead of re-expanding every ballot in
        Python.
        """
        window = np.asarray(span[: self.variant.window_bytes], dtype=np.uint8)
        if repair_bits == 0:
            windows = window[None, :]
        else:
            windows = np.vstack(
                [window[None, :], window[None, :] ^ self._flip_matrix(len(window))]
            )
        schedules = batch_expand_from_window(windows, 4 * round_index, self.variant.nk)
        return schedules[:, : self.variant.key_bits // 8], schedules

    def _region_fit(
        self, blocks: np.ndarray, base: int, expansions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Each expansion's best scrambler key per block of its region.

        The attacker does not know the keys of the blocks a schedule
        overlaps, so each block takes the candidate key whose
        descrambling of its slice lies closest to the expansion.  A
        block whose best key still differs on more than ~35 % of the
        slice is *unscoreable*: its key was never mined.

        ``expansions`` is an ``(n, length)`` batch.  Returns ``(mismatch,
        key, scoreable, bounds)`` — best distance in bits, first key
        reaching it and the 35 % verdict, each ``(n, blocks)``, and each
        block's region-relative ``(lo, hi)`` — or ``None`` off the image.
        Keys are held as a transposed ``(8, n_keys)`` uint64 matrix, so a
        distance sums at most eight contiguous rows of word popcounts
        instead of reducing bytes along a short axis.
        """
        n, length = expansions.shape
        first = base // BLOCK_SIZE
        last = (base + length - 1) // BLOCK_SIZE
        if first < 0 or last >= blocks.shape[0]:
            return None
        # The region laid over its whole blocks: observed ^ expected
        # bytes, zero (and masked out of the keys) outside the region.
        start = base - first * BLOCK_SIZE
        observed = blocks[first : last + 1].reshape(-1)[start : start + length]
        target = np.zeros((n, (last - first + 1) * BLOCK_SIZE), dtype=np.uint8)
        target[:, start : start + length] = expansions ^ observed
        mask = np.zeros(target.shape[1], dtype=np.uint8)
        mask[start : start + length] = 0xFF
        target_words = target.view(np.uint64).reshape(n, -1, 8)
        mask_words = mask.view(np.uint64).reshape(-1, 8)
        n_region = target_words.shape[1]
        mismatch = np.empty((n, n_region), dtype=np.int64)
        best = np.empty((n, n_region), dtype=np.int64)
        # Block r's slice: in-block bytes [lo, hi), region bytes bounds[r].
        lo = np.maximum(start - BLOCK_SIZE * np.arange(n_region), 0)
        hi = np.minimum(start + length - BLOCK_SIZE * np.arange(n_region), BLOCK_SIZE)
        bounds = np.stack((lo, hi), axis=1) + (BLOCK_SIZE * np.arange(n_region) - start)[:, None]
        for r in range(n_region):
            words = slice(lo[r] // 8, -(-hi[r] // 8))
            keys = self._key_words[words] & mask_words[r, words, None]
            per_key = np.bitwise_count(keys ^ target_words[:, r, words, None]).sum(
                axis=1, dtype=np.uint16
            )
            mismatch[:, r] = per_key.min(axis=1)
            best[:, r] = per_key.argmin(axis=1)
        return mismatch, best, mismatch <= 0.35 * 8 * (hi - lo), bounds

    def _region_mismatch(
        self, blocks: np.ndarray, base: int, expansions: np.ndarray
    ) -> list[tuple[int, int]]:
        """(mismatch bits, counted bits) of the full schedule region, per
        row of ``expansions``.

        Unscoreable blocks (:meth:`_region_fit`) are left out of the
        score rather than counted against it; with less than half the
        region scoreable, or the region off the image, the row is
        rejected outright.
        """
        length = expansions.shape[1]
        reject = (8 * length, 8 * length)
        fit = self._region_fit(blocks, base, expansions)
        if fit is None:
            return [reject] * expansions.shape[0]
        mismatch, _, scoreable, bounds = fit
        counted = scoreable @ (8 * (bounds[:, 1] - bounds[:, 0]))
        totals = (mismatch * scoreable).sum(axis=1)
        return [
            (int(total), int(bits)) if bits >= 4 * length else reject
            for total, bits in zip(totals, counted)
        ]

    def _observed_table(
        self, blocks: np.ndarray, base: int, guess: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Descramble the full schedule region using per-block best keys.

        ``guess`` (an expansion that is at least mostly right) selects
        each overlapping block's scrambler key (:meth:`_region_fit`); the
        descrambled slices are the schedule as it actually survived in
        the dump — true schedule bytes plus decay.  Returns ``(table,
        known)``: unscoreable blocks (e.g. the key table overwrote the
        only zero page of their index) keep the guess's bytes and are
        marked unknown, so the ballot and repair stages never trust them.
        """
        fit = self._region_fit(blocks, base, guess[None, :])
        if fit is None:
            return None
        _, best, scoreable, bounds = fit
        table = np.array(guess, dtype=np.uint8)
        known = np.zeros(len(table), dtype=bool)
        for r, (lo, hi) in enumerate(bounds):
            if scoreable[0, r]:
                block, at = divmod(base + lo, BLOCK_SIZE)
                key = self.keys[best[0, r]]
                table[lo:hi] = blocks[block, at : at + hi - lo] ^ key[at : at + hi - lo]
                known[lo:hi] = True
        return table, known

    def _decode_table(
        self,
        table: np.ndarray,
        known: np.ndarray,
        base: int,
        state_key: str,
        rate_hint: float,
        evidence: bool = True,
    ) -> DecodeResult | None:
        """Belief-propagation pass over one observed table.

        Returns ``None`` without decoding when the table fails the
        plausibility gate — too few intact checks to be a schedule at
        any decodable rate, i.e. junk that slipped the wide verify
        budget.  Otherwise loads any checkpointed partial posteriors
        for ``state_key``, runs the decode under the search deadline —
        saving fresh partial state back through the store before
        re-raising on expiry, so a ``--resume`` warm-starts mid-decode
        — and folds the outcome into the search's decode telemetry.
        An abstain is recorded as structured evidence; the caller
        decides whether to fall back to vote+repair.
        """
        key_bits = self.variant.key_bits
        if schedule_plausibility(table, known, key_bits) < _DECODE_MIN_CLEAN_CHECKS:
            return None
        if self.decay_rate is not None:
            # A single-sighting pool key carries the dump's flip rate
            # itself, so the observed table's bytes see the decay twice
            # over: once on the table block, once on the key that
            # descrambled it.
            rate = 2.0 * self.decay_rate * (1.0 - self.decay_rate)
        else:
            rate = rate_hint
        channel = ChannelModel.symmetric(clamp_rate(rate))
        state = None
        if self.decode_state_store is not None:
            payload = self.decode_state_store.load(state_key)
            if payload is not None:
                state = DecodeState.from_dict(payload)
        try:
            result = decode_schedule(
                table,
                self.variant.key_bits,
                channel,
                known=known,
                max_iters=self.decode_iters,
                damping=self.decode_damping,
                on_progress=self.on_progress,
                deadline=self.deadline,
                state=state,
            )
        except DeadlineExceededError as error:
            partial = getattr(error, "decode_state", None)
            if partial is not None and self.decode_state_store is not None:
                self.decode_state_store.save(state_key, partial.to_dict())
            raise
        if self.decode_state_store is not None:
            self.decode_state_store.discard(state_key)
        stats = self.decode_stats
        stats["tables"] += 1
        stats["iterations"] += result.iterations
        stats["posterior_entropy_sum"] += float(result.posterior_entropy[0])
        stats["checks_updated"] += result.checks_updated
        stats["checks_dense"] += result.checks_dense
        if result.abstained():
            stats["abstained"] += 1
            # List-decode combo attempts pass evidence=False so a junk
            # base leaves one summarizing abstain, not one per combo.
            if evidence:
                self.decode_abstains.append(
                    DecodeAbstainError(
                        table_base=base,
                        iterations=result.iterations,
                        syndrome_weight=int(result.syndrome_weight[0]),
                        posterior_entropy=float(result.posterior_entropy[0]),
                    )
                )
        else:
            stats["converged"] += 1
        return result

    def _decode_batch(
        self,
        tables: np.ndarray,
        knowns: np.ndarray,
        base: int,
        state_key: str,
        rate_hint: float,
    ) -> DecodeResult:
        """One batched (optionally sharded) decode over combo tables.

        The list-decode trials of :meth:`_decode_group` share a channel
        and differ only in their observed bytes, so all of them run as
        one ``decode_schedules`` batch — per-table freeze masks mean
        the batch costs what its slowest live table costs, not the sum
        of every combo, and ``decode_workers > 1`` splits the tables
        across the resilient thread pool on top.  Checkpoint state is
        keyed per *group* (``{base:#x}:combos``) and covers the whole
        batch, so a deadline hit mid-group resumes every combo's
        messages, not just the one in flight.
        """
        key_bits = self.variant.key_bits
        if self.decay_rate is not None:
            rate = 2.0 * self.decay_rate * (1.0 - self.decay_rate)
        else:
            rate = rate_hint
        channel = ChannelModel.symmetric(clamp_rate(rate))
        state = None
        if self.decode_state_store is not None:
            payload = self.decode_state_store.load(state_key)
            if payload is not None:
                state = DecodeState.from_dict(payload)
        try:
            result = decode_schedules_sharded(
                tables,
                key_bits,
                channel,
                known=knowns,
                max_iters=self.decode_iters,
                damping=self.decode_damping,
                on_progress=self.on_progress,
                deadline=self.deadline,
                state=state,
                workers=self.decode_workers,
            )
        except DeadlineExceededError as error:
            partial = getattr(error, "decode_state", None)
            if partial is not None and self.decode_state_store is not None:
                self.decode_state_store.save(state_key, partial.to_dict())
            raise
        if self.decode_state_store is not None:
            self.decode_state_store.discard(state_key)
        stats = self.decode_stats
        batch = int(tables.shape[0])
        converged = int(result.converged.sum())
        stats["tables"] += batch
        if result.table_iterations is not None:
            stats["iterations"] += int(result.table_iterations.sum())
        else:
            stats["iterations"] += result.iterations * batch
        stats["posterior_entropy_sum"] += float(result.posterior_entropy.sum())
        stats["converged"] += converged
        stats["abstained"] += batch - converged
        stats["checks_updated"] += result.checks_updated
        stats["checks_dense"] += result.checks_dense
        return result

    def _span_table_from_hits(
        self, blocks: np.ndarray, base: int, group: list[ScheduleHit]
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(table, known, score) assembled purely from hit spans.

        Unlike :meth:`_observed_table` this needs no expansion guess:
        each verified hit pins its own 3-round stretch of the table
        (window plus check), descrambled with the key that verified.
        Bytes covered by several hits take the lowest-mismatch one —
        spans are written in decreasing-mismatch order so the best
        sighting lands last.  Uncovered bytes stay unknown; the decoder
        treats them as erasures.  ``score`` is the table's
        :func:`schedule_plausibility`, the decode path's junk pre-gate
        and :meth:`recover_keys`'s visit order.
        """
        variant = self.variant
        length = 4 * variant.total_words
        table = np.zeros(length, dtype=np.uint8)
        known = np.zeros(length, dtype=bool)
        for hit in sorted(group, key=lambda h: -h.mismatch_bits):
            lo = 16 * hit.round_index
            hi = min(length, lo + variant.span_bytes)
            if lo < 0 or lo >= hi:
                continue
            span = (
                blocks[hit.block_index, hit.offset : hit.offset + variant.span_bytes]
                ^ self.keys[hit.key_index, hit.offset : hit.offset + variant.span_bytes]
            )
            table[lo:hi] = span[: hi - lo]
            known[lo:hi] = True
        return table, known, schedule_plausibility(table, known, variant.key_bits)

    def _block_key_candidates(
        self, blocks: np.ndarray, base: int
    ) -> list[tuple[int, int, np.ndarray, np.ndarray]] | None:
        """Guess-free per-block candidate lists for list decoding.

        Each block overlapping the table tries *every* pool key at once
        (:func:`block_key_plausibility`) and keeps the few whose
        descrambled slice satisfies enough of the schedule's
        self-contained byte-checks to be worth a decode trial.  No
        hits, windows, or expansion guess are involved, so this
        recovers coverage for blocks whose every verify window decayed
        — the decoder's main starvation mode at high BER.  A *list*
        (not an argmax adoption) because at the decodable limit a
        decayed true key's score routinely ties a lucky junk key's;
        which candidate is right is decided by which assignment the
        decoder converges on, not by the score.  Returns
        ``(lo, hi, slices, scores)`` per block with a non-empty list
        (bounds are table-relative), or ``None`` when the region runs
        off the image.
        """
        variant = self.variant
        length = 4 * variant.total_words
        first = base // BLOCK_SIZE
        last = (base + length - 1) // BLOCK_SIZE
        if first < 0 or last >= blocks.shape[0]:
            return None
        out: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        for b in range(first, last + 1):
            lo = max(base, b * BLOCK_SIZE)
            hi = min(base + length, (b + 1) * BLOCK_SIZE)
            slices = (
                blocks[b, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE][None, :]
                ^ self.keys[:, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE]
            )
            scores = block_key_plausibility(slices, lo - base, variant.key_bits)
            order = np.argsort(scores, kind="stable")[::-1][:_BLOCK_KEY_MAX_CANDIDATES]
            keep = order[scores[order] >= _BLOCK_KEY_MIN_CLEAN_CHECKS]
            if keep.size:
                out.append((lo - base, hi - base, slices[keep], scores[keep]))
        return out

    def _decode_group(
        self,
        blocks: np.ndarray,
        base: int,
        group: list[ScheduleHit],
        span_gate: tuple[np.ndarray, np.ndarray, int],
        pinned: bool = False,
    ) -> tuple[RecoveredAesKey | None, bool]:
        """List-decode path: junk gate → candidate lists → BP per combo.

        The classical rescue needs a mostly-right expansion guess
        before it can even assemble an observed table; at the decoded
        stage's channel no ballot produces one.  This path goes the
        other way.  The verified hit spans *are* partial observations
        of the table (``span_gate``, from :meth:`_span_table_from_hits`),
        so the plausibility pre-gate sorts junk bases
        from real ones before anything expensive runs (``pinned``
        bases — vouched for by a recovered XTS partner — skip it,
        since their groups may be pure junk-tail even when the table
        is real).  Surviving bases list each region block's plausible
        scrambler keys guess-free, then belief propagation arbitrates:
        every bounded combination of per-block candidates (with
        erasure as the alternative, because an unminable block's list
        holds only impostors) gets a decode trial, ordered by coverage
        so the true assignment lands early.  A combo carrying a junk
        slice frustrates the syndrome and abstains; the true one
        converges — a valid schedule by construction (zero syndrome).
        When no combo converges outright, the bootstrap loop feeds the
        least-frustrated posterior back as the :meth:`_observed_table`
        guess — a partial decode is usually enough to unlock keys the
        candidate bar missed, and the re-decode with that coverage
        converges.  The region residual check then confirms any
        decoded schedule against the dump like a classical ballot.
        Returns ``(key, gated)``; ``gated`` tells the caller the base
        never looked like a schedule at all.
        """
        variant = self.variant
        span_table, span_known, span_score = span_gate
        span_plausible = span_score >= _DECODE_SEED_MIN_CLEAN_CHECKS
        if not pinned and not span_plausible:
            self.decode_stats["gated"] += 1
            return None, True
        # A pinned base's junk-tail spans would poison the decode as
        # false observations; use them only when they look schedule-like.
        if not span_plausible:
            span_table = np.zeros_like(span_table)
            span_known = np.zeros_like(span_known)
        candidates = self._block_key_candidates(blocks, base) or []
        combos: list[tuple[int, float, tuple]] = []
        for choice in product(*(
            [*range(len(scores)), None] for (_lo, _hi, _sl, scores) in candidates
        )):
            adopted = sum(1 for c in choice if c is not None)
            total = sum(
                float(candidates[i][3][c]) for i, c in enumerate(choice) if c is not None
            )
            combos.append((-adopted, -total, choice))
        combos.sort(key=lambda entry: entry[:2])
        spans_only = (-0, -0.0, tuple([None] * len(candidates)))
        combos = combos[:_DECODE_MAX_COMBOS]
        if span_plausible and spans_only not in combos:
            combos.append(spans_only)
        # Verify mismatch counts S-box-diffused bits (~700 effective per
        # window), so the per-bit channel of the assembled table runs
        # somewhat above best_mismatch/700; the decoder only needs the
        # right order of magnitude.
        rate_hint = 1.3 * min(h.mismatch_bits for h in group) / 700.0
        # Assemble every plausible combo table up front: the trials
        # share one channel, so they decode as a single batched
        # (optionally thread-sharded) call instead of one kernel launch
        # per combo — the per-table freeze masks mean converged and
        # stalled combos drop out of the batch as they settle.
        combo_tables: list[np.ndarray] = []
        combo_knowns: list[np.ndarray] = []
        for _adopted, _total, choice in combos:
            table, known = span_table.copy(), span_known.copy()
            any_slice = False
            for (lo, hi, slices, _scores), c in zip(candidates, choice):
                if c is None:
                    continue
                table[lo:hi] = slices[c]
                known[lo:hi] = True
                any_slice = True
            if not any_slice and not span_plausible:
                continue
            if (
                schedule_plausibility(table, known, variant.key_bits)
                < _DECODE_MIN_CLEAN_CHECKS
            ):
                continue
            combo_tables.append(table)
            combo_knowns.append(known)
        best: tuple[int, DecodeResult, np.ndarray, np.ndarray] | None = None
        if combo_tables:
            batched = self._decode_batch(
                np.stack(combo_tables),
                np.stack(combo_knowns),
                base,
                f"{base:#x}:combos",
                rate_hint,
            )
            # Combos keep their coverage-priority order, so the first
            # converged combo that validates is the same one the old
            # sequential trial loop would have returned.
            for idx in range(len(combo_tables)):
                if not batched.abstained(idx):
                    key = self._decoded_key(batched.table(idx), blocks, base, group)
                    if key is not None:
                        return key, False
                    continue
                syndrome = int(batched.syndrome_weight[idx])
                if best is None or syndrome < best[0]:
                    best = (
                        syndrome,
                        batched.table(idx),
                        combo_tables[idx],
                        combo_knowns[idx],
                    )
        # No combo converged: bootstrap from the least-frustrated
        # posterior — still the best table estimate anywhere, mostly
        # right even short of a valid codeword.  Use it as the
        # observed-table guess to pick keys for blocks the candidate
        # bar missed, and retry with the extra coverage.  Stop as soon
        # as a pass adds nothing.
        final: DecodeResult | None = None
        if best is not None:
            _syndrome, result, table, known = best
            final = result
            for round_index in range(2):
                observed = self._observed_table(blocks, base, result.tables[0])
                if observed is None:
                    break
                next_table = np.where(observed[1], observed[0], table).astype(np.uint8)
                next_known = known | observed[1]
                if (next_table == table).all() and (next_known == known).all():
                    break
                table, known = next_table, next_known
                result = self._decode_table(
                    table, known, base, f"{base:#x}:boot{round_index}",
                    rate_hint, evidence=False,
                )
                if result is None:
                    break
                final = result
                if not result.abstained():
                    return self._decoded_key(result, blocks, base, group), False
        if final is not None and final.abstained():
            # One summarizing abstain for the whole base, in place of
            # the per-combo evidence the trials suppressed.
            self.decode_abstains.append(
                DecodeAbstainError(
                    table_base=base,
                    iterations=final.iterations,
                    syndrome_weight=int(final.syndrome_weight[0]),
                    posterior_entropy=float(final.posterior_entropy[0]),
                )
            )
        return None, False

    def _decoded_key(
        self,
        result: DecodeResult,
        blocks: np.ndarray,
        base: int,
        group: list[ScheduleHit],
    ) -> RecoveredAesKey | None:
        """Confirm a converged decode against the dump and package it."""
        variant = self.variant
        decoded = result.tables[0]
        master = decoded[: variant.key_bits // 8].tobytes()
        expansion = np.frombuffer(expand_key(master), dtype=np.uint8)
        mismatch, counted_bits = self._region_mismatch(blocks, base, expansion[None, :])[0]
        fraction = mismatch / counted_bits
        if fraction > self.accept_mismatch_fraction:
            return None
        votes = 0
        for hit in group:
            lo = 16 * hit.round_index
            hi = min(len(expansion), lo + variant.span_bytes)
            span = (
                blocks[hit.block_index, hit.offset : hit.offset + variant.span_bytes]
                ^ self.keys[hit.key_index, hit.offset : hit.offset + variant.span_bytes]
            )[: hi - lo]
            bits = int(POPCOUNT_TABLE[expansion[lo:hi] ^ span].sum())
            if bits <= self.accept_mismatch_fraction * 8 * (hi - lo):
                votes += 1
        schedule_bits = 8 * 4 * variant.total_words
        return RecoveredAesKey(
            master_key=master,
            key_bits=variant.key_bits,
            votes=votes,
            first_block_index=min(h.block_index for h in group),
            match_fraction=1.0 - fraction,
            region_agreement=max(0.0, (counted_bits - mismatch) / schedule_bits),
            hits=tuple(sorted(group, key=lambda h: (h.block_index, h.offset))),
            confidence=confidence_score(
                fraction,
                decay_rate=self.decay_rate,
                coverage=counted_bits / schedule_bits,
                posterior_certainty=float(result.certainty[0]),
            ),
        )

    def _recover_from_group(
        self,
        blocks: np.ndarray,
        base: int,
        group: list[ScheduleHit],
        span_gate: tuple[np.ndarray, np.ndarray, int],
        pinned: bool = False,
    ) -> tuple[RecoveredAesKey | None, bool]:
        """Reconstruct, repair, and confirm one schedule's master key.

        Returns ``(key, decoded)``; ``decoded`` is true when the decode
        path produced the key, which then claims its region (see
        :meth:`recover_keys`).
        """
        variant = self.variant
        if self.schedule_decode:
            # The decode path runs first: at this stage's channel the
            # ballot machinery below almost never assembles a usable
            # guess, while the hit spans alone are enough for belief
            # propagation.  A base the seed gate rejected never looked
            # like a schedule at all — running the classical ballots on
            # it would only manufacture spurious keys from the junk
            # tail the wide verify budget admits (and burn most of the
            # stage's wall time doing it).  Falling through on a
            # genuine abstain keeps the classical rescue as the safety
            # net for plausible bases the decoder could not settle.
            decoded, gated = self._decode_group(
                blocks, base, group, span_gate, pinned=pinned
            )
            if decoded is not None:
                return decoded, True
            if gated:
                return None, False
        spans: list[tuple[int, np.ndarray]] = []
        for hit in group:
            span = (
                blocks[hit.block_index, hit.offset : hit.offset + variant.span_bytes]
                ^ self.keys[hit.key_index, hit.offset : hit.offset + variant.span_bytes]
            )
            spans.append((hit.round_index, span))

        # Ballots from pristine windows first; bit-repaired ballots only
        # when no pristine window survives the full-region confirmation.
        group_sorted = sorted(zip(group, spans), key=lambda item: item[0].mismatch_bits)
        best_master: bytes | None = None
        best_fraction = 1.0

        best_agreement = 0.0
        best_counted_bits = 0
        #: Converged decoded tables (as bytes) → mean max-posterior
        #: probability, for recalibrating the final confidence when the
        #: accepted master's expansion is one the decoder produced.
        decode_certainty: dict[bytes, float] = {}
        schedule_bits = 8 * 4 * variant.total_words
        #: Region confirmation per master: every expansion is its
        #: master's, so a ballot ranked again by a later pass is not
        #: rescored.
        region_fits: dict[bytes, tuple[int, int]] = {}

        def consider(scored: dict[bytes, int], expansions: dict[bytes, np.ndarray]) -> None:
            """Region-confirm the span-score-ranked ballots, in one batch."""
            nonlocal best_master, best_fraction, best_agreement, best_counted_bits
            ranked = [m for m, _score in sorted(scored.items(), key=lambda item: item[1])[:8]]
            fresh = [m for m in ranked if m not in region_fits]
            if fresh:
                batch = np.stack([expansions[m] for m in fresh])
                region_fits.update(zip(fresh, self._region_mismatch(blocks, base, batch)))
            for master in ranked:
                mismatch, counted_bits = region_fits[master]
                fraction = mismatch / counted_bits
                if fraction < best_fraction:
                    best_fraction = fraction
                    best_agreement = max(0.0, (counted_bits - mismatch) / schedule_bits)
                    best_counted_bits = counted_bits
                    best_master = master

        # A ballot is "clearly clean" when its expansion disagrees with
        # the dump only at decay-plausible rates; anything worse keeps
        # the escalation going even if it would pass the final gate,
        # because a near-miss reconstruction (wrong by a few window
        # bits) can still sit a few percent off.
        clearly_clean = min(0.02, self.accept_mismatch_fraction)

        for repair in range(self.repair_bits + 1):
            scored: dict[bytes, int] = {}
            expansions: dict[bytes, np.ndarray] = {}
            for hit, (round_index, span) in group_sorted:
                masters, schedules = self._window_ballots(span, round_index, repair)
                scores = np.zeros(len(schedules), dtype=np.int64)
                for span_round, span_data in spans:
                    segment = schedules[:, 16 * span_round : 16 * span_round + len(span_data)]
                    scores += np.bitwise_count(segment ^ span_data).sum(axis=1, dtype=np.int64)
                for row, master_row in enumerate(masters):
                    master = master_row.tobytes()
                    if master not in scored:
                        scored[master] = int(scores[row])
                        expansions[master] = schedules[row]
            consider(scored, expansions)
            if best_master is not None and best_fraction <= clearly_clean:
                break

        if best_master is not None and best_fraction > clearly_clean:
            # Iterative rescue: the best ballot so far is mostly right;
            # use it to descramble the whole table region, then ballot
            # from *every* round-aligned window of the observed table —
            # windows the hit scan never saw — with bit repairs.  Any
            # window that survived decay (or is one repair away from it)
            # reconstructs the true key, whose region mismatch is
            # strictly lower than any near-miss's, so the running
            # minimum converges on it.  The guess is refreshed between
            # iterations since a better guess picks better per-block keys.
            decode_attempted = False
            for _iteration in range(3):
                if self.on_progress is not None:
                    self.on_progress()
                before = best_fraction
                guess = np.frombuffer(expand_key(best_master), dtype=np.uint8)
                observed = self._observed_table(blocks, base, guess)
                if observed is None:
                    break
                table, known = observed
                decoded_clean = False
                if self.schedule_decode and not decode_attempted:
                    # Message passing sees the whole table at once and
                    # corrects channels far beyond what greedy repair
                    # survives; a converged (zero-syndrome) decode IS a
                    # valid codeword, so every byte becomes known and
                    # vote/repair have nothing left to do.  An abstain
                    # falls through to the classical correctors — and
                    # is not retried on later rescue iterations, whose
                    # observed table barely differs.
                    decode_attempted = True
                    result = self._decode_table(
                        table, known, base, f"{base:#x}", before
                    )
                    if result is not None and not result.abstained():
                        table = result.tables[0].copy()
                        known = np.ones_like(known)
                        decoded_clean = True
                        decode_certainty[table.tobytes()] = float(result.certainty[0])
                if not decoded_clean:
                    if self.schedule_vote:
                        # Consistency voting first: it corrects dense decay
                        # (multiple flips per equation) that the greedy
                        # single-residue repair stalls on, leaving the
                        # greedy pass only the stragglers.
                        table = vote_correct_table(
                            table, variant.key_bits, known_bytes=known
                        )
                    table = repair_observed_table(
                        table, variant.key_bits, known_bytes=known
                    )
                for repair in range(self.repair_bits + 1):
                    scored = {}
                    expansions = {}
                    for round_index in range(0, (variant.total_words - variant.nk) // 4 + 1):
                        lo = 16 * round_index
                        window = table[lo : lo + variant.window_bytes]
                        if len(window) < variant.window_bytes:
                            break
                        if not known[lo : lo + variant.window_bytes].all():
                            continue  # never ballot from guess-filled bytes
                        masters, schedules = self._window_ballots(window, round_index, repair)
                        scores = np.bitwise_count((schedules ^ table[None, :])[:, known]).sum(
                            axis=1, dtype=np.int64
                        )
                        for row, master_row in enumerate(masters):
                            master = master_row.tobytes()
                            if master not in scored:
                                scored[master] = int(scores[row])
                                expansions[master] = schedules[row]
                    consider(scored, expansions)
                    if best_fraction <= clearly_clean:
                        break
                if best_fraction <= clearly_clean or best_fraction >= before:
                    break

        if best_master is None or best_fraction > self.accept_mismatch_fraction:
            return None, False
        expansion = np.frombuffer(expand_key(best_master), dtype=np.uint8)
        votes = sum(
            1
            for round_index, span in spans
            if int(
                POPCOUNT_TABLE[
                    expansion[16 * round_index : 16 * round_index + len(span)] ^ span
                ].sum()
            )
            <= self.accept_mismatch_fraction * 8 * len(span)
        )
        return RecoveredAesKey(
            master_key=best_master,
            key_bits=variant.key_bits,
            votes=votes,
            first_block_index=min(h.block_index for h in group),
            match_fraction=1.0 - best_fraction,
            region_agreement=best_agreement,
            hits=tuple(sorted(group, key=lambda h: (h.block_index, h.offset))),
            confidence=confidence_score(
                best_fraction,
                decay_rate=self.decay_rate,
                coverage=best_counted_bits / schedule_bits,
                posterior_certainty=decode_certainty.get(expansion.tobytes()),
            ),
        ), False

    def recover_at_base(
        self, image: MemoryImage, base: int, loose_tolerance_bits: int = 40
    ) -> RecoveredAesKey | None:
        """Targeted recovery when the table's location is already known.

        Used for second chances — e.g. an XTS volume's tweak schedule
        sits exactly one schedule length after its recovered primary.
        With the base fixed, verification can afford a much looser
        Hamming budget (a wrong key's predicted-vs-check distance is
        binomial around half the check bits, so even 40 of 128 bits
        admits random junk at ~1e-5), giving heavily decayed windows a
        chance to seed the ballot/repair machinery.
        """
        if base < 0:
            return None
        blocks = image.blocks_matrix()
        last = (base + 4 * self.variant.total_words - 1) // BLOCK_SIZE
        if last >= blocks.shape[0]:
            return None
        hits = self._extend_hits(
            blocks, np.arange(base // BLOCK_SIZE, last + 1), loose_tolerance_bits, base=base
        )
        if not hits:
            return None
        span_gate = self._span_table_from_hits(blocks, base, hits)
        return self._recover_from_group(blocks, base, hits, span_gate, pinned=True)[0]

    def _competitive_overlap_filter(
        self, recovered: list[RecoveredAesKey]
    ) -> list[RecoveredAesKey]:
        """Among overlapping inferred tables, keep only the best-agreeing.

        A window cut from mid-schedule at a wrong (odd, Rcon-free) round
        produces a shifted near-copy of the true schedule at a base
        ±32k bytes away; its expansion still matches the stretch around
        its window, so it can sneak past an absolute threshold.  The
        true reconstruction of the same memory region always agrees
        with strictly more of it, so overlapping candidates compete on
        whole-region agreement and the winner takes the region.
        """
        if len(recovered) < 2:
            return recovered
        schedule_len = 4 * self.variant.total_words
        # Greedy interval selection by agreement: strongest candidates
        # claim their regions first; anything overlapping a claimed
        # region is a shifted alias and drops.  (Chained clustering
        # would wrongly merge two *adjacent* true schedules through the
        # aliases between them — e.g. an XTS pair.)
        ordered = sorted(
            recovered, key=lambda r: (-r.region_agreement, -r.votes, r.hits[0].table_base)
        )
        kept: list[RecoveredAesKey] = []
        claimed: list[tuple[int, int]] = []
        for result in ordered:
            base = result.hits[0].table_base
            interval = (base, base + schedule_len)
            if any(lo < interval[1] and interval[0] < hi for lo, hi in claimed):
                continue
            kept.append(result)
            claimed.append(interval)
        kept.sort(key=lambda r: r.hits[0].table_base)
        return kept

    def _schedule_groups(
        self, image: MemoryImage
    ) -> tuple[np.ndarray, dict[int, list[ScheduleHit]]]:
        """The image's block matrix and its verified hits by table base.

        Seed hits come from the fingerprint-joined scan; the blocks
        around each seed are re-verified tolerantly and their hits
        merged in.  Hits whose table would start before the image drop.
        """
        blocks = image.blocks_matrix()
        hits = self.find_hits(image)
        radius = self.extension_radius_blocks
        if hits and radius:
            seeds = np.unique([h.block_index for h in hits])
            near = np.unique(seeds[:, None] + np.arange(-radius, radius + 1))
            near = near[(near >= 0) & (near < blocks.shape[0])]
            merged = {(h.block_index, h.key_index, h.offset, h.round_index): h for h in hits}
            for hit in self._extend_hits(blocks, near, self.verify_tolerance_bits):
                merged.setdefault(
                    (hit.block_index, hit.key_index, hit.offset, hit.round_index), hit
                )
            hits = list(merged.values())
        groups: dict[int, list[ScheduleHit]] = {}
        for hit in hits:
            if hit.table_base >= 0:
                groups.setdefault(hit.table_base, []).append(hit)
        return blocks, groups

    def _settle(self, recovered: list[RecoveredAesKey]) -> list[RecoveredAesKey]:
        """One schedule per region, then one result per master key."""
        recovered = self._competitive_overlap_filter(recovered)
        # One schedule can surface under several nearby bases if decay
        # spoofs an extra window; keep the best-confirmed per master key.
        unique: dict[bytes, RecoveredAesKey] = {}
        for result in recovered:
            kept = unique.get(result.master_key)
            if kept is None or (result.votes, result.match_fraction) > (kept.votes, kept.match_fraction):
                unique[result.master_key] = result
        final = list(unique.values())
        final.sort(key=lambda r: (-r.votes, -r.match_fraction, r.first_block_index))
        return final

    def recover_keys(self, image: MemoryImage) -> list[RecoveredAesKey]:
        """Locate every schedule, reconstruct its master key, confirm it.

        Steps 2–4 of §III-C with decay hardening: seed hits come from the
        fingerprint-joined scan; neighbourhoods of seeds are re-verified
        tolerantly; every window of a schedule casts a reconstruction
        ballot (optionally with single-bit repairs); the ballot whose
        expansion best explains *all* observed windows wins; and the
        winner must match the full schedule region in the dump.

        Bases are visited from the most schedule-like span table down
        (ties by base).  A key the decode path returns claims its
        schedule region, and later bases inside a claimed region are
        skipped without a decode.  They are shifted aliases of the
        claimed schedule: the true base normally outscores them and
        claims first, and :meth:`_competitive_overlap_filter` would
        drop them anyway (``docs/robustness.md`` §9, "Region claims").  Classical
        keys claim nothing, so without ``schedule_decode`` every base
        is visited.
        """
        blocks, groups = self._schedule_groups(image)
        span_gates = {
            base: self._span_table_from_hits(blocks, base, group)
            for base, group in groups.items()
        }
        schedule_len = 4 * self.variant.total_words
        claims: list[int] = []
        recovered = []
        for base in sorted(groups, key=lambda b: (-span_gates[b][2], b)):
            if any(abs(base - claim) < schedule_len for claim in claims):
                self.decode_stats["claimed"] += 1
                continue
            result, decoded = self._recover_from_group(
                blocks, base, groups[base], span_gates[base]
            )
            if result is not None:
                recovered.append(result)
                if decoded:
                    claims.append(base)
        return self._settle(recovered)


def exhaustive_hits(
    image: MemoryImage,
    keys: list[bytes] | np.ndarray,
    key_bits: int = 256,
    verify_tolerance_bits: int = 16,
    offsets: tuple[int, ...] | None = None,
) -> list[ScheduleHit]:
    """Reference search: verify every (block, key, offset, round) directly.

    This is the paper's literal algorithm (feasible there thanks to
    AES-NI).  Exponentially slower than :class:`AesKeySearch` but with
    no fingerprint stage — used by the tests to validate that the
    fingerprint join loses nothing, and by benchmarks to measure the
    speedup.
    """
    searcher = AesKeySearch(
        keys, key_bits, verify_tolerance_bits, offsets=offsets
    )
    variant = searcher.variant
    blocks = image.blocks_matrix()
    n_blocks, n_keys = blocks.shape[0], searcher.keys.shape[0]
    all_pairs = _all_pairs(np.arange(n_blocks, dtype=np.int64), n_keys)
    hits: list[ScheduleHit] = []
    for offset in searcher.offsets:
        for phase in variant.phases():
            hits.extend(searcher._verify_pairs(blocks, all_pairs, offset, phase))
    hits.sort(key=lambda h: (h.block_index, h.offset, h.round_index))
    return hits
