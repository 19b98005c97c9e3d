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

A :class:`MiningState` holds one dump's litmus scores and answers every
budget pair asked of it once, so an escalation ladder that mines the
same dump at several budgets pays for the litmus test once and for each
distinct budget pair once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from repro.attack.litmus import key_litmus_mismatch_bits
from repro.dram.image import MemoryImage
from repro.util.blocks import BLOCK_SIZE

#: Default cap on how much of the dump the miner examines — the paper's
#: "less than 16MB of the memory dump" observation.
DEFAULT_SCAN_LIMIT_BYTES = 16 * 1024 * 1024

#: Unique rows the merge walk resolves per vectorised step.
_WALK_BLOCK_ROWS = 256

#: Representatives per chunk of a dense distance pass, which bounds its
#: ``(rows, chunk)`` temporaries to a few MiB.
_DISTANCE_CHUNK = 2048

#: Weight cap per distinct value in the vote and its residual: decay
#: variants are few, and one over-sighted value must not swamp them.
_VOTE_WEIGHT_CAP = 32

#: Member rows voted per step, which bounds the vote's temporaries.
_VOTE_CHUNK_ROWS = 8192


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


def _hamming_matrix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``(len(left), right.shape[1])`` Hamming distances over ``len(right)`` words.

    ``left`` is ``(n, 8)`` uint64 rows; ``right`` is ``(words, m)`` —
    the transposed layout, so each word pass broadcasts one contiguous
    row against one column.  Fewer than 8 words give a prefix distance,
    a lower bound on the full one.
    """
    # Up to 3 words (192 bits) fit a byte.
    dtype = np.uint8 if right.shape[0] <= 3 else np.uint16
    distances = np.zeros((left.shape[0], right.shape[1]), dtype=dtype)
    scratch = np.empty(distances.shape, dtype=np.uint64)
    counts = np.empty(distances.shape, dtype=np.uint8)
    for word in range(right.shape[0]):
        np.bitwise_xor(left[:, word, None], right[None, word], out=scratch)
        distances += np.bitwise_count(scratch, out=counts)
    return distances


def _prefix_words(radius: int) -> int:
    """Words whose prefix distance rules out almost every random pair.

    A random pair differs in 32 bits per word (σ = 4), so a prefix of
    ``1 + radius // 24`` words sits about 3σ or more beyond the radius.
    """
    return min(BLOCK_SIZE // 8, 1 + radius // 24)


def _within_radius(
    row_columns: np.ndarray,
    rep_columns: np.ndarray,
    rows: np.ndarray,
    reps: np.ndarray,
    prefix: np.ndarray,
    radius: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(row, rep, distance)`` pairs within ``radius``, order kept.

    ``prefix`` holds each pair's distance over the first
    :func:`_prefix_words` words; pairs already past the radius are
    dropped before the remaining words are gathered.
    """
    words_done = _prefix_words(radius)
    keep = prefix <= radius
    rows, reps = rows[keep], reps[keep]
    distances = prefix[keep].astype(np.int64)
    for word in range(words_done, row_columns.shape[0]):
        distances += np.bitwise_count(row_columns[word, rows] ^ rep_columns[word, reps])
    keep = distances <= radius
    return rows[keep], reps[keep], distances[keep]


def nearest_distances(rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Exact Hamming distance from each 64-byte row to its nearest key.

    Both arguments are ``(n, 64)`` uint8 matrices; returns ``(n,)``
    int64 (``keys`` must be non-empty).  Vectorised in blocks of rows
    and chunks of keys, so temporaries stay at a few MiB.
    """
    row_words = np.ascontiguousarray(rows).view(np.uint64)
    key_columns = np.ascontiguousarray(np.ascontiguousarray(keys).view(np.uint64).T)
    best = np.empty(row_words.shape[0], dtype=np.int64)
    for start in range(0, row_words.shape[0], _WALK_BLOCK_ROWS):
        block = row_words[start : start + _WALK_BLOCK_ROWS]
        nearest = np.full(block.shape[0], np.iinfo(np.int64).max)
        for lo in range(0, key_columns.shape[1], _DISTANCE_CHUNK):
            chunk = _hamming_matrix(block, key_columns[:, lo : lo + _DISTANCE_CHUNK])
            np.minimum(nearest, chunk.min(axis=1), out=nearest)
        best[start : start + block.shape[0]] = nearest
    return best


class _BandIndex:
    """Pigeonhole candidate index over the representatives' byte bands.

    The 64 bytes split into ``radius + 1`` disjoint byte bands, so any
    representative within the merge radius matches a row byte-for-byte
    on at least one band.  Each band of a value is one uint64 key — the
    band number in the top byte, the band's first (up to) 7 bytes below
    it — and the representatives' keys are kept in one sorted array,
    grown by sorted insertion.  Truncating a band wider than 7 bytes
    only adds candidates, whose exact distance is measured anyway.
    """

    def __init__(self, radius: int) -> None:
        edges = np.linspace(0, BLOCK_SIZE, radius + 2, dtype=np.int64)
        # Byte gather per band, padded with the zero column BLOCK_SIZE.
        gather = np.full((radius + 1, 8), BLOCK_SIZE, dtype=np.int64)
        for band, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            width = min(int(hi - lo), 7)
            gather[band, :width] = np.arange(lo, lo + width)
        self._gather = gather
        self._tags = np.arange(radius + 1, dtype=np.uint64) << np.uint64(56)
        self._keys = np.empty(0, dtype=np.uint64)
        self._ordinals = np.empty(0, dtype=np.int64)

    def band_keys(self, rows: np.ndarray) -> np.ndarray:
        """``(n, bands)`` tagged band keys of ``(n, 64)`` uint8 rows."""
        padded = np.zeros((rows.shape[0], BLOCK_SIZE + 1), dtype=np.uint8)
        padded[:, :BLOCK_SIZE] = rows
        keys = np.ascontiguousarray(padded[:, self._gather]).view(np.uint64)[:, :, 0]
        return keys | self._tags

    def candidates(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, ordinal)`` pairs sharing a band key, grouped by row."""
        query = keys.ravel()
        # Searching in sorted order walks the index once.
        order = np.argsort(query)
        lo = np.empty(query.size, dtype=np.int64)
        hits = np.empty(query.size, dtype=np.int64)
        lo[order] = np.searchsorted(self._keys, query[order], side="left")
        hits[order] = np.searchsorted(self._keys, query[order], side="right")
        hits -= lo
        total = int(hits.sum())
        # Positions lo[q] .. lo[q] + hits[q] - 1, query by query.
        ends = np.cumsum(hits)
        positions = np.arange(total) + np.repeat(lo - (ends - hits), hits)
        rows = np.repeat(np.arange(query.size) // keys.shape[1], hits)
        return rows, self._ordinals[positions]

    def insert(self, keys: np.ndarray, ordinals: np.ndarray) -> None:
        """Add representatives' band keys ``(k, bands)`` by sorted insertion."""
        query = keys.ravel()
        # np.insert keeps the given order among values that share an
        # insertion point, so they go in sorted.
        order = np.argsort(query, kind="stable")
        query = query[order]
        at = np.searchsorted(self._keys, query)
        self._keys = np.insert(self._keys, at, query)
        self._ordinals = np.insert(
            self._ordinals, at, np.repeat(ordinals, keys.shape[1])[order]
        )


def _merge_walk(rows: np.ndarray, radius: int) -> np.ndarray:
    """Greedy nearest-representative merge; returns each row's cluster.

    ``rows`` are the unique passing values, most-sighted first.  Each
    row joins the nearest existing representative within ``radius``
    bits — the earliest on ties — or else becomes a representative
    itself; clusters are numbered in the order their representatives
    appear.

    The walk runs a block of rows per vectorised step.  The block is
    compared with every representative that existed when it started
    (the pigeonhole band candidates below 64 bits, which always include
    every in-radius one, or all of them at 64 and beyond) and with
    itself.  A row with no in-radius earlier row in its block is decided
    by its best existing representative alone; only the rest are
    decided in order, in Python, since whether an earlier row of the
    block became a representative changes their answer.
    """
    n_rows = rows.shape[0]
    if radius == 0:
        # Distinct values are at least one bit apart: nothing merges.
        return np.arange(n_rows)
    words = rows.view(np.uint64)
    prefix_words = _prefix_words(radius)
    labels = np.empty(n_rows, dtype=np.int64)
    # Representatives' words by ordinal, transposed for the word passes.
    rep_columns = np.empty((BLOCK_SIZE // 8, n_rows), dtype=np.uint64)
    n_reps = 0
    bands = _BandIndex(radius) if radius < BLOCK_SIZE else None
    # (distance, ordinal) packed into one int64, so a minimum picks the
    # nearest representative and, on ties, the earliest.
    stride = n_rows
    out_of_radius = (radius + 1) * stride
    lower = np.tri(_WALK_BLOCK_ROWS, k=-1, dtype=bool)
    for start in range(0, n_rows, _WALK_BLOCK_ROWS):
        block = words[start : start + _WALK_BLOCK_ROWS]
        size = block.shape[0]
        block_columns = np.ascontiguousarray(block.T)
        block_keys = bands.band_keys(rows[start : start + size]) if bands else None

        # Each row's best in-radius representative among the existing ones.
        best = np.full(size, out_of_radius, dtype=np.int64)
        found = []
        if n_reps and bands is not None:
            pair_rows, pair_reps = bands.candidates(block_keys)
            prefix = np.zeros(pair_rows.size, dtype=np.int64)
            for word in range(prefix_words):
                prefix += np.bitwise_count(
                    block_columns[word, pair_rows] ^ rep_columns[word, pair_reps]
                )
            found.append(
                _within_radius(block_columns, rep_columns, pair_rows, pair_reps, prefix, radius)
            )
        elif n_reps:
            for lo in range(0, n_reps, _DISTANCE_CHUNK):
                hi = min(n_reps, lo + _DISTANCE_CHUNK)
                prefix = _hamming_matrix(block, rep_columns[:prefix_words, lo:hi])
                near = np.flatnonzero(prefix <= radius)
                pair_rows, pair_reps = np.divmod(near, hi - lo)
                found.append(
                    _within_radius(
                        block_columns, rep_columns, pair_rows, lo + pair_reps,
                        prefix.ravel()[near], radius,
                    )
                )
        for pair_rows, pair_reps, distances in found:
            if pair_rows.size:
                # Pairs come grouped by row: one minimum per row, no dedupe.
                firsts = np.flatnonzero(np.r_[True, pair_rows[1:] != pair_rows[:-1]])
                hit = pair_rows[firsts]
                packed = np.minimum.reduceat(distances * stride + pair_reps, firsts)
                best[hit] = np.minimum(best[hit], packed)
        joined = best < out_of_radius

        # In-radius pairs of a row and an earlier row of the same block,
        # in row order.
        prefix = _hamming_matrix(block, block_columns[:prefix_words])
        near = np.flatnonzero((prefix <= radius) & lower[:size, :size])
        pair_rows, pair_cols = np.divmod(near, size)
        pair_rows, pair_cols, pair_distances = _within_radius(
            block_columns, block_columns, pair_rows, pair_cols, prefix.ravel()[near], radius
        )
        # Rows with such a pair are decided in order; the rest already are.
        is_rep = (~joined).tolist()
        inherits: dict[int, int] = {}
        best_distance = (best // stride).tolist()
        pairs = zip(pair_rows.tolist(), pair_cols.tolist(), pair_distances.tolist())
        for row, row_pairs in itertools.groupby(pairs, key=operator.itemgetter(0)):
            nearest, nearest_row = 0, -1
            for _, col, distance in row_pairs:
                if is_rep[col] and (nearest_row < 0 or distance < nearest):
                    nearest, nearest_row = distance, col
            # An earlier row of the block that became a representative
            # wins only when strictly nearer than the best existing one
            # (radius + 1 when there is none), which comes first.
            if nearest_row >= 0 and nearest < best_distance[row]:
                inherits[row] = nearest_row
                is_rep[row] = False

        new_reps = np.flatnonzero(is_rep)
        ordinal_of = np.full(size, -1, dtype=np.int64)
        ordinal_of[new_reps] = n_reps + np.arange(new_reps.size)
        block_labels = np.where(joined, best % stride, ordinal_of)
        if inherits:
            block_labels[list(inherits)] = ordinal_of[list(inherits.values())]
        labels[start : start + size] = block_labels
        if new_reps.size:
            rep_columns[:, n_reps : n_reps + new_reps.size] = block_columns[:, new_reps]
            if bands is not None:
                bands.insert(block_keys[new_reps], ordinal_of[new_reps])
            n_reps += new_reps.size
    return labels


def _majority_vote(members: np.ndarray) -> bytes:
    """Bitwise majority over an ``(n, 64)`` uint8 matrix of noisy copies."""
    n_members = members.shape[0]
    votes, _, _ = _cluster_votes(
        members, np.ones(n_members, dtype=np.int64), np.zeros(n_members, dtype=np.int64)
    )
    return votes[0].tobytes()


def _cluster_votes(
    rows: np.ndarray, weights: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted bitwise majority of every cluster; ties go to 1.

    Returns ``(votes, weight_totals, residuals)``: the ``(clusters, 64)``
    voted keys, each cluster's total weight, and the weighted Hamming
    distance of its members from its vote.  A lone member is its own
    vote.  The other clusters are voted a few thousand member rows at a
    time: per bit plane, the members' weighted bits are summed per
    cluster — the same vote as expanding each row ``weight`` times.
    """
    sizes = np.bincount(labels)
    totals = np.bincount(labels, weights=weights).astype(np.int64)
    residuals = np.zeros(sizes.size, dtype=np.int64)
    # Member rows grouped by cluster, in row order within each.
    order = np.argsort(labels, kind="stable")
    votes = rows[order[np.cumsum(sizes) - sizes]]
    shared = np.flatnonzero(sizes > 1)
    shared_members = order[np.repeat(sizes > 1, sizes)]
    shared_ends = np.cumsum(sizes[shared])
    first = 0
    while first < shared.size:
        # Whole clusters, up to _VOTE_CHUNK_ROWS members (or one cluster).
        lo = shared_ends[first] - sizes[shared[first]]
        last = max(first + 1, int(np.searchsorted(shared_ends, lo + _VOTE_CHUNK_ROWS, "right")))
        clusters = shared[first:last]
        members = shared_members[lo : shared_ends[last - 1]]
        member_rows = rows[members]
        member_weights = weights[members]
        starts = shared_ends[first:last] - sizes[clusters] - lo
        voted = np.zeros((clusters.size, BLOCK_SIZE), dtype=np.uint8)
        for shift in range(8):
            plane = (member_rows >> shift) & 1
            plane *= member_weights.astype(np.uint8)[:, None]
            ones = np.add.reduceat(plane, starts, axis=0, dtype=np.int64)
            voted |= (2 * ones >= totals[clusters, None]).astype(np.uint8) << shift
        votes[clusters] = voted
        # Residual mismatch of each vote against its own support.
        distances = np.bitwise_count(
            member_rows.view(np.uint64) ^ np.repeat(voted, sizes[clusters], axis=0).view(np.uint64)
        ).sum(axis=1, dtype=np.int64)
        residuals[clusters] = np.add.reduceat(member_weights * distances, starts)
        first = last
    return votes, totals, residuals


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_counts=True)`` for ``(n, 64)`` uint8.

    Each row viewed as one 64-byte void sorts by byte comparison, which
    is the same lexicographic order, in one sort instead of one pass per
    byte column.
    """
    keys, counts = np.unique(
        np.ascontiguousarray(rows).view(f"V{BLOCK_SIZE}").ravel(), return_counts=True
    )
    return keys.view(np.uint8).reshape(-1, BLOCK_SIZE), counts


def _mine(passing: np.ndarray, merge_radius_bits: int) -> list[CandidateKey]:
    """Group, merge, vote and rank one budget's litmus-passing blocks."""
    if passing.shape[0] == 0:
        return []
    # Exact duplicates first, then near-duplicates.  Representatives
    # come in descending count order, so the best-supported version of
    # a key absorbs its decayed variants; the stable sort keeps the
    # rows' lexicographic order as the tie-break.
    unique_rows, unique_counts = _unique_rows(passing)
    order = np.argsort(-unique_counts, kind="stable")
    rows = np.ascontiguousarray(unique_rows[order])
    counts = unique_counts[order].astype(np.int64)
    labels = _merge_walk(rows, merge_radius_bits)
    # The residual — the decay the vote filtered out — is weighted
    # exactly as the vote was, so residual / support_bits estimates the
    # per-bit decay rate of the blocks behind the candidate.
    votes, weight_totals, residuals = _cluster_votes(
        rows, np.minimum(counts, _VOTE_WEIGHT_CAP), labels
    )
    cluster_counts = np.bincount(labels, weights=counts).astype(np.int64)
    candidates = [
        CandidateKey(
            key=vote.tobytes(),
            count=count,
            litmus_mismatch_bits=residual,
            support_bits=8 * BLOCK_SIZE * total,
        )
        for vote, count, residual, total in zip(
            votes, cluster_counts.tolist(), residuals.tolist(), weight_totals.tolist()
        )
    ]
    # Frequency first (true keys recur); among equally-frequent
    # candidates the one whose support sits *closest* to its vote wins
    # — a large residual marks a coincidental merge, not a real key.
    candidates.sort(key=lambda c: (-c.count, c.litmus_mismatch_bits, c.key))
    return candidates


class MiningState:
    """One dump's mining inputs: its litmus scores and every mine so far.

    The litmus mismatch is computed once, at construction; ``mine``
    memoises its answer per ``(tolerance_bits, merge_radius_bits)`` and
    returns a fresh list each call.  The adaptive engine builds one per
    dump, so triage and every rung share it.
    """

    def __init__(
        self, image: MemoryImage, scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES
    ) -> None:
        self.image = image
        self.scan_limit_bytes = scan_limit_bytes
        # A view, not a slice of ``image.data``: slicing a ``bytes`` or
        # ``bytearray`` dump would copy up to the whole scan limit.
        self._matrix = image.blocks_matrix()
        if scan_limit_bytes is not None:
            self._matrix = self._matrix[: scan_limit_bytes // BLOCK_SIZE]
        self._mismatch = key_litmus_mismatch_bits(self._matrix)
        self._mined: dict[tuple[int, int], list[CandidateKey]] = {}

    def mine(self, tolerance_bits: int = 16, merge_radius_bits: int = 16) -> list[CandidateKey]:
        """Candidates at one budget pair (see :func:`mine_scrambler_keys`)."""
        if merge_radius_bits < 0 or tolerance_bits < 0:
            raise ValueError("tolerances must be non-negative")
        budget = (tolerance_bits, merge_radius_bits)
        if budget not in self._mined:
            passing = self._matrix[self._mismatch <= tolerance_bits]
            self._mined[budget] = _mine(passing, merge_radius_bits)
        return list(self._mined[budget])


def mine_scrambler_keys(
    image: MemoryImage,
    tolerance_bits: int = 16,
    merge_radius_bits: int = 16,
    scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
    *,
    state: MiningState | None = None,
) -> list[CandidateKey]:
    """Extract candidate scrambler keys from a (possibly decayed) dump.

    Returns candidates sorted by descending frequency.  ``tolerance_bits``
    is the litmus decay budget per block; ``merge_radius_bits`` bounds
    the Hamming distance at which two passing blocks are treated as
    noisy copies of the same key.  ``state``, a :class:`MiningState`
    built from this ``image`` and ``scan_limit_bytes``, shares the
    litmus scores and earlier answers between calls.
    """
    if state is None:
        state = MiningState(image, scan_limit_bytes)
    elif state.image is not image or state.scan_limit_bytes != scan_limit_bytes:
        raise ValueError("the mining state was built from another image or scan limit")
    return state.mine(tolerance_bits, merge_radius_bits)


def keys_matrix(candidates: list[CandidateKey]) -> np.ndarray:
    """Stack candidate keys into an ``(k, 64)`` uint8 matrix for the search."""
    if not candidates:
        return np.empty((0, BLOCK_SIZE), dtype=np.uint8)
    return np.vstack([np.frombuffer(c.key, dtype=np.uint8) for c in candidates])
