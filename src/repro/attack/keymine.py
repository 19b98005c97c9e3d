"""Mining scrambler keys out of a memory dump (§III-B, Key Idea 1).

Zero-filled 64-byte blocks — abundant in any running system — come out
of the scrambler as the raw scrambler key.  The miner therefore:

1. runs the litmus test over the dump (vectorised, decay-tolerant);
2. groups the passing blocks by value, merging near-duplicates whose
   Hamming distance fits the decay budget;
3. repairs each group's key by bitwise **majority vote** across its
   members ("since a single scrambler keystream appears multiple times
   inside a memory dump, we are able to filter out modest bit flips");
4. ranks candidates by frequency — true keys recur at every zero block
   that shares their key index, while ``key ^ constant`` artefacts from
   constant-filled plaintext are rarer.

The paper mined every key from under 16 MB of dump even on a loaded
system; the tests reproduce that bound on scaled dumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.litmus import key_litmus_mismatch_bits
from repro.dram.image import MemoryImage
from repro.util.blocks import BLOCK_SIZE

#: Default cap on how much of the dump the miner examines — the paper's
#: "less than 16MB of the memory dump" observation.
DEFAULT_SCAN_LIMIT_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class CandidateKey:
    """One mined scrambler-key candidate with its supporting evidence.

    ``litmus_mismatch_bits`` is the group's *residual* mismatch: the
    total Hamming distance between the voted key and its (weighted)
    support members.  A true key's decayed sightings sit a few bits
    from the vote; a coincidental merge of unrelated near-passing
    blocks leaves a large residual — so the residual breaks frequency
    ties in the candidate ranking and, summed over all candidates
    against ``support_bits``, estimates the dump's bit decay rate
    (see :func:`repro.attack.adaptive.estimate_decay_rate`).
    """

    key: bytes
    count: int
    #: Total residual Hamming bits between the voted key and its
    #: weighted support members (0 when every sighting was identical).
    litmus_mismatch_bits: int = 0
    #: Total member bits the residual was measured over (512 per
    #: weighted member row); 0 for legacy callers that never counted.
    support_bits: int = 0

    def __post_init__(self) -> None:
        if len(self.key) != BLOCK_SIZE:
            raise ValueError("scrambler keys are 64 bytes")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.litmus_mismatch_bits < 0 or self.support_bits < 0:
            raise ValueError("mismatch and support bit counts must be non-negative")


def _majority_vote(members: np.ndarray) -> bytes:
    """Bitwise majority over an ``(n, 64)`` uint8 matrix of noisy copies."""
    if members.shape[0] == 1:
        return members[0].tobytes()
    bits = np.unpackbits(members, axis=1)
    voted = (bits.sum(axis=0) * 2 >= members.shape[0]).astype(np.uint8)
    return np.packbits(voted).tobytes()


def mine_scrambler_keys(
    image: MemoryImage,
    tolerance_bits: int = 16,
    merge_radius_bits: int = 16,
    scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
) -> list[CandidateKey]:
    """Extract candidate scrambler keys from a (possibly decayed) dump.

    Returns candidates sorted by descending frequency.  ``tolerance_bits``
    is the litmus decay budget per block; ``merge_radius_bits`` bounds
    the Hamming distance at which two passing blocks are treated as
    noisy copies of the same key.
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


def keys_matrix(candidates: list[CandidateKey]) -> np.ndarray:
    """Stack candidate keys into an ``(k, 64)`` uint8 matrix for the search."""
    if not candidates:
        return np.empty((0, BLOCK_SIZE), dtype=np.uint8)
    return np.vstack([np.frombuffer(c.key, dtype=np.uint8) for c in candidates])
