"""The seed scan, frozen in time: the benchmark harness's baseline.

:class:`SeedAesKeySearch` restores the hot paths exactly as they
shipped before the vectorisation PR — the Python dict fingerprint join
(with its band ``.copy().view(uint16)`` double-copy), the per-round
verification loop, the unpruned neighbour walk, the pure-Python per-ballot
``reconstruct_schedule``/``expand_key`` recovery machinery, the
popcount-table region scoring, and the word-list greedy schedule
repair.  :func:`legacy_recover_keys` likewise reproduces the seed
dispatch — pickling every shard's bytes and the whole key matrix into
each task — and mines with :func:`seed_mine_scrambler_keys`, the dict
walk + popcount-table merge the vectorised miner replaced.

Keeping the old code importable (rather than checking out an old
commit) lets ``benchmarks/harness.py`` measure the speedup *and* assert
byte-identical results in a single process, on identical inputs.
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
    _t_forward,
    reconstruct_schedule,
)
from repro.attack.keymine import (
    DEFAULT_SCAN_LIMIT_BYTES,
    CandidateKey,
    _majority_vote,
    keys_matrix,
)
from repro.attack.litmus import key_litmus_mismatch_bits
from repro.attack.parallel import merge_recovered, shard_image
from repro.crypto.aes import batch_next_round_key, expand_key, schedule_bytes
from repro.dram.image import MemoryImage
from repro.resilience.executor import ResilientShardRunner
from repro.util.bits import POPCOUNT_TABLE
from repro.util.blocks import BLOCK_SIZE


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
    mismatch = key_litmus_mismatch_bits(matrix)
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
                    key_litmus_mismatch_bits(
                        np.frombuffer(voted, dtype=np.uint8).reshape(1, -1)
                    )[0]
                ),
            )
        )
    candidates.sort(key=lambda c: (-c.count, c.key))
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

    def _candidate_pairs(self, blocks: np.ndarray, offset: int, phase: int) -> np.ndarray:
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
        return self._banded_join_dict(block_bands, key_bands)

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
        self, blocks: np.ndarray, base: int, group: list[ScheduleHit]
    ) -> RecoveredAesKey | None:
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
            return None
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
        )


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
