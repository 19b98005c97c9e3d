"""The seed scan, frozen in time: the benchmark baseline and test oracle.

:class:`SeedAesKeySearch` restores the hot paths exactly as they
shipped before the vectorisation PR — the scan that re-reads the whole
dump once per (offset, phase), joining it against the keys with a
Python dict per band (after a band ``.copy().view(uint16)``
double-copy, and probing the 16 one-bit neighbours at join radius 1),
the per-round verification loop, the unpruned neighbour walk, the
pure-Python per-ballot ``reconstruct_schedule``/``expand_key`` recovery
machinery, the popcount-table region scoring, and the word-list greedy
schedule repair.  :func:`legacy_recover_keys` likewise reproduces the
seed dispatch — pickling every shard's bytes and the whole key matrix
into each task — and mines with :func:`seed_mine_scrambler_keys`, the
dict walk + popcount-table merge the vectorised miner replaced.
:func:`walk_mine_scrambler_keys` freezes the per-row banded merge walk
and per-cluster vote loop that the block-vectorised miner replaced;
it is the field-exact oracle for ``mine_scrambler_keys`` (order,
counts and residual bits).  Both miners score blocks with
:func:`seed_key_litmus_mismatch_bits`, the byte-pair popcount-table
litmus kernel, so neither depends on the kernel they pin.
:func:`claim_free_recover_keys` freezes the group loop of
``recover_keys`` as it ran before decoded keys claimed their regions.
:func:`bytewise_prefilter_chunk_pairs` freezes the scan's mismatch
prefilter as it ran on ``(n, 4)`` uint8 word rows, before it read
uint32 words; the tests hold the word-wide prefilter to its survivors.

Keeping the old code importable (rather than checking out an old
commit) lets ``benchmarks/harness.py`` measure the speedup *and* assert
byte-identical results in a single process, on identical inputs, and
lets the tests pin the fused scan and the pruned recovery to it.
"""

from __future__ import annotations

import numpy as np

from repro.attack.aes_search import (
    AesKeySearch,
    AesVariant,
    RecoveredAesKey,
    ScheduleHit,
    _all_pairs,
    _fingerprints,
    _linear_relation_offsets,
    _t_forward,
    reconstruct_schedule,
)
from repro.attack.keymine import (
    DEFAULT_SCAN_LIMIT_BYTES,
    CandidateKey,
    keys_matrix,
)
from repro.attack.litmus import INVARIANT_WORD_OFFSETS, SUB_WORD_OFFSETS
from repro.attack.parallel import merge_recovered, shard_image
from repro.crypto.aes import SBOX, batch_next_round_key, expand_key, schedule_bytes
from repro.dram.image import MemoryImage
from repro.resilience.executor import ResilientShardRunner
from repro.util.bits import POPCOUNT_TABLE
from repro.util.blocks import BLOCK_SIZE


def seed_key_litmus_mismatch_bits(matrix: np.ndarray) -> np.ndarray:
    """``key_litmus_mismatch_bits`` as the seed shipped it: byte-pair
    XORs of every invariant through the popcount table."""
    mismatch = np.zeros(matrix.shape[0], dtype=np.int64)
    for base in SUB_WORD_OFFSETS:
        for a, b, c, d in INVARIANT_WORD_OFFSETS:
            lhs = matrix[:, base + a : base + a + 2] ^ matrix[:, base + b : base + b + 2]
            rhs = matrix[:, base + c : base + c + 2] ^ matrix[:, base + d : base + d + 2]
            mismatch += POPCOUNT_TABLE[lhs ^ rhs].sum(axis=1, dtype=np.int64)
    return mismatch


def _majority_vote(members: np.ndarray) -> bytes:
    """Bitwise majority over an ``(n, 64)`` uint8 matrix of noisy copies."""
    if members.shape[0] == 1:
        return members[0].tobytes()
    bits = np.unpackbits(members, axis=1)
    voted = (bits.sum(axis=0) * 2 >= members.shape[0]).astype(np.uint8)
    return np.packbits(voted).tobytes()


def seed_mine_scrambler_keys(
    image: MemoryImage,
    tolerance_bits: int = 16,
    merge_radius_bits: int = 16,
    min_count: int = 1,
    scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
) -> list[CandidateKey]:
    """``mine_scrambler_keys`` as the seed shipped it.

    Exact duplicates are grouped with a Python dict walk over every
    passing block, merge distances run through the popcount table, and
    every cluster — singletons included — pays for a full majority
    vote; the costs the vectorised miner removed.
    """
    if merge_radius_bits < 0 or tolerance_bits < 0:
        raise ValueError("tolerances must be non-negative")
    data = image.data
    if scan_limit_bytes is not None:
        data = data[: scan_limit_bytes - scan_limit_bytes % BLOCK_SIZE]
    matrix = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    mismatch = seed_key_litmus_mismatch_bits(matrix)
    passing = matrix[mismatch <= tolerance_bits]
    if passing.shape[0] == 0:
        return []

    exact_groups: dict[bytes, int] = {}
    for row in passing:
        value = row.tobytes()
        exact_groups[value] = exact_groups.get(value, 0) + 1

    ordered = sorted(exact_groups.items(), key=lambda item: (-item[1], item[0]))
    rep_array = np.empty((len(ordered), BLOCK_SIZE), dtype=np.uint8)
    n_reps = 0
    counts: list[int] = []
    members: list[list[tuple[bytes, int]]] = []
    for value, count in ordered:
        row = np.frombuffer(value, dtype=np.uint8)
        if n_reps and merge_radius_bits > 0:
            distances = POPCOUNT_TABLE[rep_array[:n_reps] ^ row].sum(axis=1)
            best = int(np.argmin(distances))
            if int(distances[best]) <= merge_radius_bits:
                counts[best] += count
                members[best].append((value, count))
                continue
        rep_array[n_reps] = row
        n_reps += 1
        counts.append(count)
        members.append([(value, count)])

    candidates = []
    for cluster, count in zip(members, counts):
        if count < min_count:
            continue
        rows = []
        for value, value_count in cluster:
            rows.extend([np.frombuffer(value, dtype=np.uint8)] * min(value_count, 32))
        voted = _majority_vote(np.vstack(rows))
        candidates.append(
            CandidateKey(
                key=voted,
                count=count,
                litmus_mismatch_bits=int(
                    seed_key_litmus_mismatch_bits(
                        np.frombuffer(voted, dtype=np.uint8).reshape(1, -1)
                    )[0]
                ),
            )
        )
    candidates.sort(key=lambda c: (-c.count, c.key))
    return candidates


def walk_mine_scrambler_keys(
    image: MemoryImage,
    tolerance_bits: int = 16,
    merge_radius_bits: int = 16,
    scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
) -> list[CandidateKey]:
    """``mine_scrambler_keys`` before the block-vectorised merge walk.

    One Python iteration per unique row: band-dict candidate lookup
    below 64 bits (every representative at 64), then an ``argmin``
    over exact distances; and one weighted majority vote plus residual
    loop per cluster.  Field-exact oracle for the vectorised miner.
    """
    if merge_radius_bits < 0 or tolerance_bits < 0:
        raise ValueError("tolerances must be non-negative")
    data = image.data
    if scan_limit_bytes is not None:
        data = data[: scan_limit_bytes - scan_limit_bytes % BLOCK_SIZE]
    matrix = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    mismatch = seed_key_litmus_mismatch_bits(matrix)
    passing = matrix[mismatch <= tolerance_bits]
    if passing.shape[0] == 0:
        return []

    # Group exact duplicates first — vectorised: np.unique over rows
    # replaces a Python dict walk of every passing block.  Then merge
    # near-duplicates.
    unique_rows, unique_counts = np.unique(passing, axis=0, return_counts=True)
    # Representatives in descending count order, so the best-supported
    # version of a key absorbs its decayed variants.  The stable sort
    # keeps np.unique's lexicographic order as the tie-break, matching
    # the dict-based ordering this replaced.
    order = np.argsort(-unique_counts, kind="stable")
    unique_rows = unique_rows[order]
    ordered_counts = unique_counts[order].tolist()

    # Greedy nearest-representative merge.  The Hamming distances run on
    # uint64 views with a hardware popcount — 8 words per key instead of
    # 64 table lookups.  The candidate set per row comes from an *exact*
    # banded lookup: split the 64 bytes into ``merge_radius_bits + 1``
    # disjoint byte bands — by pigeonhole, any representative within the
    # merge radius matches at least one band byte-for-byte — and keep a
    # dict per band from band bytes to the representatives holding them.
    # Each row then measures exact distances only against its few band
    # candidates instead of every representative, turning the
    # O(uniques × reps) walk into O(uniques × candidates) with identical
    # assignments (every in-radius representative is a candidate, and
    # scanning candidates in ascending index keeps argmin's tie-break).
    unique_words = unique_rows.view(np.uint64)
    rep_words = np.empty((len(ordered_counts), BLOCK_SIZE // 8), dtype=np.uint64)
    n_reps = 0
    counts: list[int] = []
    members: list[list[tuple[np.ndarray, int]]] = []
    # Pigeonhole needs merge_radius_bits + 1 disjoint bands, and bands
    # are byte-aligned, so radii past 63 bits fall back to the dense
    # walk (they merge almost everything anyway, so reps stay few).
    use_bands = 0 < merge_radius_bits < BLOCK_SIZE
    if use_bands:
        n_bands = merge_radius_bits + 1
        edges = np.linspace(0, BLOCK_SIZE, n_bands + 1, dtype=np.int64)
        band_slices = [slice(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        band_reps: list[dict[bytes, list[int]]] = [{} for _ in band_slices]
    for index, count in enumerate(ordered_counts):
        row = unique_rows[index]
        if n_reps and merge_radius_bits > 0:
            if use_bands:
                row_bytes = row.tobytes()
                candidate_set: set[int] = set()
                for lookup, band in zip(band_reps, band_slices):
                    hits = lookup.get(row_bytes[band])
                    if hits is not None:
                        candidate_set.update(hits)
                candidates_idx = sorted(candidate_set)
                if not candidates_idx:
                    merged = False
                else:
                    distances = np.bitwise_count(
                        rep_words[candidates_idx] ^ unique_words[index]
                    ).sum(axis=1, dtype=np.int64)
                    best_pos = int(np.argmin(distances))
                    merged = int(distances[best_pos]) <= merge_radius_bits
                    best = candidates_idx[best_pos]
            else:
                distances = np.bitwise_count(rep_words[:n_reps] ^ unique_words[index]).sum(
                    axis=1, dtype=np.int64
                )
                best = int(np.argmin(distances))
                merged = int(distances[best]) <= merge_radius_bits
            if merged:
                counts[best] += count
                members[best].append((row, count))
                continue
        if use_bands:
            row_bytes = row.tobytes()
            for lookup, band in zip(band_reps, band_slices):
                lookup.setdefault(row_bytes[band], []).append(n_reps)
        rep_words[n_reps] = unique_words[index]
        n_reps += 1
        counts.append(count)
        members.append([(row, count)])

    candidates = []
    for cluster, count in zip(members, counts):
        if len(cluster) == 1:
            # Majority over identical copies is the copy itself.
            voted = cluster[0][0].tobytes()
        else:
            # Expand weighted members for the majority vote (bounded:
            # decay variants are few; weight caps keep this small).
            rows = []
            for row, value_count in cluster:
                rows.extend([row] * min(value_count, 32))
            voted = _majority_vote(np.vstack(rows))
        # Residual mismatch of the vote against its own support: the
        # decay the vote filtered out.  Weighted exactly as the vote
        # was, so residual / support_bits estimates the per-bit decay
        # rate of the blocks behind this candidate.
        voted_words = np.frombuffer(voted, dtype=np.uint8).view(np.uint64)
        residual = 0
        weight_total = 0
        for row, value_count in cluster:
            weight = min(value_count, 32)
            distance = int(np.bitwise_count(row.view(np.uint64) ^ voted_words).sum())
            residual += weight * distance
            weight_total += weight
        candidates.append(
            CandidateKey(
                key=voted,
                count=count,
                litmus_mismatch_bits=residual,
                support_bits=8 * BLOCK_SIZE * weight_total,
            )
        )
    # Frequency first (true keys recur); among equally-frequent
    # candidates the one whose support sits *closest* to its vote wins
    # — a large residual marks a coincidental merge, not a real key.
    candidates.sort(key=lambda c: (-c.count, c.litmus_mismatch_bits, c.key))
    return candidates


def _seed_repair_observed_table(
    table: np.ndarray,
    key_bits: int,
    max_steps: int = 64,
    known_bytes: np.ndarray | None = None,
) -> np.ndarray:
    """``repair_observed_table`` as the seed shipped it: pure Python.

    Words live in a Python list, residues come from per-word
    ``_t_forward`` calls, and the objective is ``bin(v).count("1")`` —
    the exact costs the vectorised rewrite removed.
    """
    variant = AesVariant(key_bits)
    nk = variant.nk
    n_words = len(table) // 4
    if n_words < nk + 1:
        return table
    words = [
        int.from_bytes(bytes(table[4 * i : 4 * i + 4]), "big") for i in range(n_words)
    ]
    if known_bytes is None:
        word_known = [True] * n_words
    else:
        word_known = [bool(known_bytes[4 * i : 4 * i + 4].all()) for i in range(n_words)]

    def violations(ws: list[int]) -> dict[int, int]:
        out = {}
        for i in range(nk, n_words):
            if not (word_known[i] and word_known[i - nk] and word_known[i - 1]):
                continue
            residue = ws[i] ^ ws[i - nk] ^ _t_forward(ws[i - 1], i, nk)
            if residue:
                out[i] = residue
        return out

    def residue_weight(ws: list[int]) -> int:
        return sum(bin(v).count("1") for v in violations(ws).values())

    for _ in range(max_steps):
        current = violations(words)
        if not current:
            break
        base_weight = residue_weight(words)
        best_trial = None
        best_weight = base_weight
        for i, residue in current.items():
            for target in (i, i - nk):
                trial = words.copy()
                trial[target] ^= residue
                weight = residue_weight(trial)
                if weight < best_weight:
                    best_weight = weight
                    best_trial = trial
            uses_sbox = (i % nk == 0) or (nk > 6 and i % nk == 4)
            if uses_sbox:
                for bit in range(32):
                    trial = words.copy()
                    trial[i - 1] ^= 1 << bit
                    weight = residue_weight(trial)
                    if weight < best_weight:
                        best_weight = weight
                        best_trial = trial
        if best_trial is None:
            break
        words = best_trial
    return np.frombuffer(
        b"".join(w.to_bytes(4, "big") for w in words), dtype=np.uint8
    ).copy()


class SeedAesKeySearch(AesKeySearch):
    """:class:`AesKeySearch` exactly as the seed implemented it."""

    def _window_candidates(
        self, span: np.ndarray, round_index: int, repair_bits: int
    ) -> list[bytes]:
        """Master-key ballots from one descrambled window (+ bit repairs)."""
        window = span[: self.variant.window_bytes]
        masters: list[bytes] = []
        repairs = [()] if repair_bits == 0 else [(), *((bit,) for bit in range(len(window) * 8))]
        for flips in repairs:
            candidate = window.copy()
            for bit in flips:
                candidate[bit // 8] ^= 0x80 >> (bit % 8)
            words = [
                int.from_bytes(candidate[4 * i : 4 * i + 4].tobytes(), "big")
                for i in range(self.variant.nk)
            ]
            try:
                schedule = reconstruct_schedule(words, 4 * round_index, self.variant.key_bits)
            except ValueError:
                continue
            masters.append(schedule[: self.variant.key_bits // 8])
        return masters

    def _span_score(self, expansion: np.ndarray, spans: list[tuple[int, np.ndarray]]) -> int:
        score = 0
        for round_index, span in spans:
            expected = expansion[16 * round_index : 16 * round_index + len(span)]
            score += int(POPCOUNT_TABLE[expected ^ span].sum())
        return score

    def _region_mismatch(
        self, blocks: np.ndarray, base: int, expansion: np.ndarray
    ) -> tuple[int, int]:
        length = len(expansion)
        first = base // BLOCK_SIZE
        last = (base + length - 1) // BLOCK_SIZE
        if first < 0 or last >= blocks.shape[0]:
            return (8 * length, 8 * length)
        mismatch = 0
        counted_bits = 0
        for b in range(first, last + 1):
            lo = max(base, b * BLOCK_SIZE)
            hi = min(base + length, (b + 1) * BLOCK_SIZE)
            expected = expansion[lo - base : hi - base]
            observed = blocks[b, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE]
            per_key = POPCOUNT_TABLE[
                (observed ^ self.keys[:, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE]) ^ expected
            ].sum(axis=1, dtype=np.int64)
            best = int(per_key.min())
            slice_bits = 8 * (hi - lo)
            if best > 0.35 * slice_bits:
                continue
            mismatch += best
            counted_bits += slice_bits
        if counted_bits < 4 * length:
            return (8 * length, 8 * length)
        return (mismatch, counted_bits)

    def _observed_table(
        self, blocks: np.ndarray, base: int, guess: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        length = len(guess)
        first = base // BLOCK_SIZE
        last = (base + length - 1) // BLOCK_SIZE
        if first < 0 or last >= blocks.shape[0]:
            return None
        pieces = []
        known_pieces = []
        for b in range(first, last + 1):
            lo = max(base, b * BLOCK_SIZE)
            hi = min(base + length, (b + 1) * BLOCK_SIZE)
            observed = blocks[b, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE]
            per_key = POPCOUNT_TABLE[
                (observed ^ self.keys[:, lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE])
                ^ guess[lo - base : hi - base]
            ].sum(axis=1, dtype=np.int64)
            best = int(per_key.min())
            if best > 0.35 * 8 * (hi - lo):
                pieces.append(guess[lo - base : hi - base].copy())
                known_pieces.append(np.zeros(hi - lo, dtype=bool))
            else:
                pieces.append(
                    observed
                    ^ self.keys[int(per_key.argmin()), lo - b * BLOCK_SIZE : hi - b * BLOCK_SIZE]
                )
                known_pieces.append(np.ones(hi - lo, dtype=bool))
        return np.concatenate(pieces), np.concatenate(known_pieces)

    def find_hits(self, image: MemoryImage) -> list[ScheduleHit]:
        """One full-dump join and verify pass per (offset, phase)."""
        blocks = image.blocks_matrix()
        hits: list[ScheduleHit] = []
        for offset in self.offsets:
            for phase in self.variant.phases():
                pairs = self._candidate_pairs(blocks, offset, phase)
                hits.extend(self._verify_pairs(blocks, pairs, offset, phase))
            if self.on_progress is not None:
                self.on_progress()
        hits.sort(key=lambda h: (h.block_index, h.offset, h.round_index))
        return hits

    def _candidate_pairs(self, blocks: np.ndarray, offset: int, phase: int) -> np.ndarray:
        """``(block, key)`` pairs sharing any fingerprint band (within one
        bit at join radius 1), in ascending lexicographic order."""
        span = self.variant.span_bytes
        nk = self.variant.nk
        block_fp = _fingerprints(blocks[:, offset : offset + span], nk, phase)
        key_fp = _fingerprints(self.keys[:, offset : offset + span], nk, phase)
        n_bands = block_fp.shape[1] // 2
        block_bands = (
            block_fp.reshape(-1, n_bands, 2).copy().view(np.uint16).reshape(-1, n_bands)
        )
        key_bands = (
            key_fp.reshape(-1, n_bands, 2).copy().view(np.uint16).reshape(-1, n_bands)
        )
        probe_masks = [0] if not self.join_radius_bits else [0, *(1 << i for i in range(16))]
        pairs: set[tuple[int, int]] = set()
        for band in range(n_bands):
            key_lookup: dict[int, list[int]] = {}
            for k, value in enumerate(key_bands[:, band].tolist()):
                key_lookup.setdefault(value, []).append(k)
            for b, value in enumerate(block_bands[:, band].tolist()):
                for mask in probe_masks:
                    hit_keys = key_lookup.get(value ^ mask)
                    if hit_keys is not None:
                        pairs.update((b, k) for k in hit_keys)
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(sorted(pairs), dtype=np.int64)

    def _verify_pairs(
        self,
        blocks: np.ndarray,
        pairs,
        offset: int,
        phase: int,
        tolerance_bits: int | None = None,
    ) -> list[ScheduleHit]:
        if len(pairs) == 0:
            return []
        tolerance = self.verify_tolerance_bits if tolerance_bits is None else tolerance_bits
        variant = self.variant
        nk = variant.nk
        pair_array = np.asarray(pairs, dtype=np.int64)
        data = (
            blocks[pair_array[:, 0], offset : offset + variant.span_bytes]
            ^ self.keys[pair_array[:, 1], offset : offset + variant.span_bytes]
        )
        window = data[:, : variant.window_bytes]
        check = data[:, variant.window_bytes :]
        hits: list[ScheduleHit] = []
        for round_index in variant.rounds_with_phase(phase):
            predicted = batch_next_round_key(window, nk=nk, first_word_index=4 * round_index)
            mismatch = POPCOUNT_TABLE[predicted ^ check].sum(axis=1, dtype=np.int64)
            for row in np.nonzero(mismatch <= tolerance)[0]:
                hits.append(
                    ScheduleHit(
                        block_index=int(pair_array[row, 0]),
                        key_index=int(pair_array[row, 1]),
                        offset=offset,
                        round_index=round_index,
                        mismatch_bits=int(mismatch[row]),
                        key_bits=variant.key_bits,
                    )
                )
        return hits

    def _extend_hits(
        self,
        blocks: np.ndarray,
        block_indices: np.ndarray,
        tolerance_bits: int,
        base: int | None = None,
    ) -> list[ScheduleHit]:
        """The unpruned neighbour walk: verify every (block, key) pair of
        the neighbourhood at every offset and phase, keeping only hits
        whose table starts at ``base`` when one is given."""
        pairs = _all_pairs(np.asarray(block_indices, dtype=np.int64), self.keys.shape[0])
        extended: list[ScheduleHit] = []
        for offset in self.offsets:
            for phase in self.variant.phases():
                for hit in self._verify_pairs(
                    blocks, pairs, offset, phase, tolerance_bits=tolerance_bits
                ):
                    if base is None or hit.table_base == base:
                        extended.append(hit)
            if self.on_progress is not None:
                self.on_progress()
        return extended

    def _recover_from_group(
        self,
        blocks: np.ndarray,
        base: int,
        group: list[ScheduleHit],
        span_gate=None,
        pinned: bool = False,
    ) -> tuple[RecoveredAesKey | None, bool]:
        # The seed never decoded: ``span_gate`` and ``pinned`` go unused,
        # and no key it returns claims a region.
        variant = self.variant
        spans: list[tuple[int, np.ndarray]] = []
        for hit in group:
            span = (
                blocks[hit.block_index, hit.offset : hit.offset + variant.span_bytes]
                ^ self.keys[hit.key_index, hit.offset : hit.offset + variant.span_bytes]
            )
            spans.append((hit.round_index, span))

        group_sorted = sorted(zip(group, spans), key=lambda item: item[0].mismatch_bits)
        best_master: bytes | None = None
        best_fraction = 1.0
        best_agreement = 0.0
        schedule_bits = 8 * 4 * variant.total_words

        def consider(ballots: list[tuple[bytes, int]]) -> None:
            nonlocal best_master, best_fraction, best_agreement
            for master, _span_score in sorted(ballots, key=lambda item: item[1])[:8]:
                expansion = np.frombuffer(expand_key(master), dtype=np.uint8)
                mismatch, counted_bits = self._region_mismatch(blocks, base, expansion)
                fraction = mismatch / counted_bits
                if fraction < best_fraction:
                    best_fraction = fraction
                    best_agreement = max(0.0, (counted_bits - mismatch) / schedule_bits)
                    best_master = master

        clearly_clean = min(0.02, self.accept_mismatch_fraction)

        for repair in range(self.repair_bits + 1):
            scored: dict[bytes, int] = {}
            for hit, (round_index, span) in group_sorted:
                for master in self._window_candidates(span, round_index, repair):
                    if master not in scored:
                        expansion = np.frombuffer(expand_key(master), dtype=np.uint8)
                        scored[master] = self._span_score(expansion, spans)
            consider(list(scored.items()))
            if best_master is not None and best_fraction <= clearly_clean:
                break

        if best_master is not None and best_fraction > clearly_clean:
            for _iteration in range(3):
                before = best_fraction
                guess = np.frombuffer(expand_key(best_master), dtype=np.uint8)
                observed = self._observed_table(blocks, base, guess)
                if observed is None:
                    break
                table, known = observed
                table = _seed_repair_observed_table(table, variant.key_bits, known_bytes=known)
                for repair in range(self.repair_bits + 1):
                    scored = {}
                    for round_index in range(0, (variant.total_words - variant.nk) // 4 + 1):
                        lo = 16 * round_index
                        window = table[lo : lo + variant.window_bytes]
                        if len(window) < variant.window_bytes:
                            break
                        if not known[lo : lo + variant.window_bytes].all():
                            continue
                        for master in self._window_candidates(window, round_index, repair):
                            if master not in scored:
                                expansion = np.frombuffer(expand_key(master), dtype=np.uint8)
                                scored[master] = int(
                                    POPCOUNT_TABLE[(expansion ^ table)[known]].sum()
                                )
                    consider(list(scored.items()))
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
        ), False


def claim_free_recover_keys(
    search: AesKeySearch, image: MemoryImage
) -> list[RecoveredAesKey]:
    """``AesKeySearch.recover_keys`` before decoded keys claimed regions.

    Every group goes through ``_recover_from_group`` in address order,
    and only then do ``_competitive_overlap_filter`` and the master
    dedup (``_settle``) drop overlapping and duplicate results — so
    every shifted alias of a decoded schedule is decoded too.  Patch it
    over ``AesKeySearch.recover_keys`` to get the reference outputs and
    decode counts the region claims must reproduce.
    """
    blocks, groups = search._schedule_groups(image)
    recovered = []
    for base in sorted(groups):
        span_gate = search._span_table_from_hits(blocks, base, groups[base])
        result, _decoded = search._recover_from_group(blocks, base, groups[base], span_gate)
        if result is not None:
            recovered.append(result)
    return search._settle(recovered)


def _bytewise_word_popcount(array: np.ndarray, skip_byte0: bool = False) -> np.ndarray:
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


def _bytewise_mismatch_lower_bounds(u_parts: list[np.ndarray], ts: list[int]) -> np.ndarray:
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
    popcount = _bytewise_word_popcount

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


def bytewise_prefilter_chunk_pairs(
    search: AesKeySearch,
    chunk: np.ndarray,
    streams: np.ndarray,
    pairs: np.ndarray,
    offset: int,
    phases: list[int],
    tolerance: int,
) -> np.ndarray:
    """``AesKeySearch._prefilter_chunk_pairs`` on uint8 word rows, frozen.

    The same stages, bounds and survivor order as the live prefilter,
    computed the way it shipped before it read uint32 words: each pair
    gathers its whole relation-stream row and key-fingerprint row, the
    S-box anchor fetches its twelve bytes through a 2-D fancy index,
    and every popcount runs on ``(n, 4)`` uint8 rows.  The one change
    from that code is the key fingerprint, recomputed here from
    ``search.keys`` instead of read from the live key cache.
    """
    nk = search.variant.nk
    ts = [(a - 4 * nk) // 4 for a, _, _ in _linear_relation_offsets(nk, phases[0])]
    key_fp = _fingerprints(
        search.keys[:, offset : offset + search.variant.span_bytes], nk, phases[0]
    )
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
        _bytewise_mismatch_lower_bounds(u_parts, ts[:2]) <= tolerance
    )
    pairs = pairs[coarse]
    if pairs.shape[0] == 0:
        return pairs
    block_fp = block_fp.take(coarse, axis=0)
    pair_fp = pair_fp.take(coarse, axis=0)
    u_parts = [part.take(coarse, axis=0) for part in u_parts]
    u_parts.extend(u_part(r) for r in range(2, len(ts)))

    # Stage 1: the full chain bound on the coarse survivors.
    survivors = np.flatnonzero(_bytewise_mismatch_lower_bounds(u_parts, ts) <= tolerance)
    pairs = pairs[survivors]
    if 0 in ts or pairs.shape[0] == 0:
        return pairs
    u_parts = [part.take(survivors, axis=0) for part in u_parts]
    block_rows = pairs[:, 0]
    key_rows = pairs[:, 1]
    nk = search.variant.nk
    p = 4 * nk
    columns = offset + np.array(
        (0, 1, 2, 3, p - 4, p - 3, p - 2, p - 1, p, p + 1, p + 2, p + 3)
    )
    spans = chunk[block_rows[:, None], columns]
    spans ^= search.keys[key_rows[:, None], columns]
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
        bound = _bytewise_word_popcount(x, skip_byte0=rcon_byte).astype(np.int64)
        for part in u_parts:
            x ^= part
            bound += _bytewise_word_popcount(x, skip_byte0=rcon_byte)
        best = bound if best is None else np.minimum(best, bound)
    return pairs[best <= tolerance]


def _seed_search_shard(
    payload: tuple[bytes, bytes, int],
    shard_offset: int,
    attempt: int,
    in_subprocess: bool,
) -> list[RecoveredAesKey]:
    """Seed worker: the full shard bytes and key matrix arrive pickled."""
    shard_data, keys_blob, key_bits = payload
    keys = np.frombuffer(keys_blob, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    search = SeedAesKeySearch(keys.copy(), key_bits=key_bits)
    return search.recover_keys(MemoryImage(shard_data))


def legacy_recover_keys(
    dump: MemoryImage,
    key_bits: int = 256,
    workers: int = 1,
    n_shards: int | None = None,
) -> list[RecoveredAesKey]:
    """Mine + sharded scan exactly as the seed dispatched it.

    Every shard task carries a *copy* of its slice of the dump plus the
    whole key matrix through the pickle boundary — the payload cost the
    shared-memory dispatch eliminated.
    """
    candidates = seed_mine_scrambler_keys(dump)
    if not candidates:
        return []
    keys_blob = keys_matrix(candidates).tobytes()
    overlap = schedule_bytes(key_bits) + BLOCK_SIZE
    shards = shard_image(dump, n_shards=n_shards or workers, overlap_bytes=overlap)
    jobs = {
        shard.base_offset: (bytes(shard.image.data), keys_blob, key_bits)
        for shard in shards
    }
    runner = ResilientShardRunner(_seed_search_shard, workers=workers)
    ledger = runner.run(jobs)
    return merge_recovered(
        [(outcome.shard_offset, outcome.result) for outcome in ledger.completed]
    )
