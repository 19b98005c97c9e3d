"""Post-scan reconstruction and BP decode are pinned to frozen oracles.

Two speed-ups sit between the scan and the recovered keys: the
neighbour walk prunes every (block, key) pair with the fused scan's
exact mismatch lower bound before verifying, and the region scorer
picks each block's best key for a whole batch of ballots over a
transposed key matrix.  Neither may change one output, so Hypothesis
drives both against :class:`benchmarks.legacy_scan.SeedAesKeySearch` —
the unpruned walk and the per-block popcount-table scoring — and
asserts identical results, values and order.

The residual-scheduled float32 decoder is held to the dense float64
decoder frozen in :mod:`benchmarks.legacy_decode`, run per table as the
decode harness runs it: identical bytes wherever both converge, and
never an abstain where the oracle converges.  Its sweeps run their
dirty-check chunks and posterior refresh on a thread pool sized to the
usable CPUs; the serial decoder frozen beside the dense one pins that,
at every CPU count and at an interrupt, bit for bit.  A resume is held
to the straight run instead: the frozen serial resume keeps two resume
defects the live decoder no longer has.

The scan's mismatch prefilter is held to its byte-wise form frozen in
:mod:`benchmarks.legacy_scan`, on the joined pairs of every (offset,
phase group) at both join radii and on the all-pairs input of the
neighbour walk: the same survivors, values and order.

The key miner is held to the per-row merge walk frozen in
:mod:`benchmarks.legacy_scan` at every budget pair the adaptive ladder
mines with: the same candidates in the same order, field for field.
The seed miner breaks ties by key and stores the vote's own litmus
mismatch as the residual, so against it only the ``(key, count)``
multiset is comparable.
"""

import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_decode import (  # noqa: E402
    legacy_decode_schedules,
    serial_decode_schedule,
)
from benchmarks.legacy_scan import (  # noqa: E402
    SeedAesKeySearch,
    _seed_repair_observed_table,
    bytewise_prefilter_chunk_pairs,
    seed_mine_scrambler_keys,
    walk_mine_scrambler_keys,
)

from repro.attack.adaptive import decode_stage_for_rate, stage_for_rate  # noqa: E402
from repro.attack.aes_search import (  # noqa: E402
    AesKeySearch,
    ScheduleHit,
    _all_pairs,
    repair_observed_table,
)
from repro.attack.decode import ChannelModel, decode_schedule  # noqa: E402
from repro.attack.keymine import MiningState, mine_scrambler_keys  # noqa: E402
from repro.crypto.aes import expand_key  # noqa: E402
from repro.dram.cells import apply_decay, ground_state_pattern  # noqa: E402
from repro.dram.image import MemoryImage  # noqa: E402
from repro.resilience.errors import DeadlineExceededError  # noqa: E402
from repro.util import cpus as util_cpus  # noqa: E402

from .test_decode import (  # noqa: E402
    WORK_COUNTERS,
    CountdownDeadline,
    assert_same_decode,
    decode_batch,
)


def _schedule(rng: np.random.Generator, key_bits: int) -> np.ndarray:
    return np.frombuffer(expand_key(rng.bytes(key_bits // 8)), dtype=np.uint8).copy()


def _flip_bits(rng: np.random.Generator, data: np.ndarray, count: int) -> None:
    flat = data.reshape(-1)
    for _ in range(count):
        flat[int(rng.integers(0, flat.size))] ^= np.uint8(1 << int(rng.integers(0, 8)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    tolerance=st.integers(16, 48),
    n_keys=st.integers(1, 8),
    n_blocks=st.integers(1, 16),
    center=st.integers(0, 15),
    radius=st.integers(0, 8),
    planted=st.integers(0, 3),
    zero_blocks=st.integers(0, 3),
    decay_bits=st.integers(0, 96),
    pinned=st.booleans(),
)
def test_pruned_walk_matches_seed_walk(
    seed, key_bits, tolerance, n_keys, n_blocks, center, radius, planted,
    zero_blocks, decay_bits, pinned,
):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 256, size=(n_keys, 64), dtype=np.uint8)
    blocks = rng.integers(0, 256, size=(n_blocks, 64), dtype=np.uint8)
    schedule = _schedule(rng, key_bits)
    base = int(rng.integers(-64, 64 * n_blocks))
    for _ in range(planted):
        block = int(rng.integers(0, n_blocks))
        row = int(rng.integers(0, (len(schedule) - 64) // 16 + 1))
        blocks[block] = keys[rng.integers(0, n_keys)] ^ schedule[16 * row : 16 * row + 64]
        base = 64 * block - 16 * row
    _flip_bits(rng, blocks, decay_bits)
    # A zero page reads back as its own scrambler key: every linear
    # relation of the pair is consistent, so only the S-box anchor of
    # the bound can reject it.
    for _ in range(zero_blocks):
        blocks[rng.integers(0, n_blocks)] = keys[rng.integers(0, n_keys)]
    # Neighbourhoods clipped at either end of the dump, as the walk
    # around a seed hit near the edge sees them.
    center = min(center, n_blocks - 1)
    near = np.arange(max(0, center - radius), min(n_blocks, center + radius + 1))
    pin = base if pinned else None

    fast = AesKeySearch(keys, key_bits=key_bits)
    oracle = SeedAesKeySearch(keys, key_bits=key_bits)
    assert fast._extend_hits(blocks, near, tolerance, pin) == oracle._extend_hits(
        blocks, near, tolerance, pin
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    n_keys=st.integers(1, 12),
    n_blocks=st.integers(3, 10),
    anchor=st.sampled_from(("start", "middle", "end")),
    shift=st.integers(-90, 90),
    plant_rate=st.floats(0.0, 1.0),
    n_ballots=st.integers(1, 8),
    decay_bits=st.integers(0, 400),
    tied_keys=st.booleans(),
)
def test_region_scorer_matches_seed(
    seed, key_bits, n_keys, n_blocks, anchor, shift, plant_rate, n_ballots,
    decay_bits, tied_keys,
):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 256, size=(n_keys, 64), dtype=np.uint8)
    blocks = rng.integers(0, 256, size=(n_blocks, 64), dtype=np.uint8)
    schedule = _schedule(rng, key_bits)
    # Mostly unaligned bases; a shift past either end of the image runs
    # the region off it.
    room = 64 * n_blocks - len(schedule)
    base = {"start": 0, "middle": room // 2, "end": room}[anchor] + shift
    # Scramble the schedule into some of the blocks its region overlaps;
    # the rest stay random, past the 35 % cut.
    image = blocks.reshape(-1)
    for block in range(n_blocks):
        lo, hi = max(base, 64 * block), min(base + len(schedule), 64 * (block + 1))
        if lo < hi and rng.random() < plant_rate:
            key = keys[0 if tied_keys else rng.integers(0, n_keys)]
            image[lo:hi] = schedule[lo - base : hi - base] ^ key[lo - 64 * block : hi - 64 * block]
    _flip_bits(rng, blocks, decay_bits)
    if tied_keys and n_keys > 1:
        # Two pool keys one bit off the planted key, in different bytes,
        # tie on every block whose slice holds both bytes: the first key
        # must win, and the two descramble those blocks differently.
        keys[-1] = keys[0]
        keys[0, 30] ^= 1
        keys[-1, 33] ^= 1
    ballots = [schedule]
    while len(ballots) < n_ballots:
        ballot = schedule.copy() if rng.random() < 0.5 else _schedule(rng, key_bits)
        _flip_bits(rng, ballot, int(rng.integers(0, 64)))
        ballots.append(ballot)
    expansions = np.stack(ballots)

    fast = AesKeySearch(keys, key_bits=key_bits)
    oracle = SeedAesKeySearch(keys, key_bits=key_bits)
    assert fast._region_mismatch(blocks, base, expansions) == [
        oracle._region_mismatch(blocks, base, expansion) for expansion in expansions
    ]
    for expansion in expansions:
        got = fast._observed_table(blocks, base, expansion)
        want = oracle._observed_table(blocks, base, expansion)
        if want is None:
            assert got is None
        else:
            assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    kind=st.sampled_from(("clean", "decayed", "random")),
    decay_bits=st.integers(1, 24),
    erased=st.one_of(st.none(), st.tuples(st.integers(0, 239), st.integers(1, 96))),
)
def test_repair_matches_seed_repair(seed, key_bits, kind, decay_bits, erased):
    """The greedy equation repair builds its candidate repairs as arrays;
    the seed's word-list repair tries the same ones in the same order."""
    rng = np.random.default_rng(seed)
    table = _schedule(rng, key_bits)
    if kind == "random":
        table = rng.integers(0, 256, table.size, dtype=np.uint8)
    elif kind == "decayed":
        _flip_bits(rng, table, decay_bits)
    known = None
    if erased is not None:
        lo, width = erased
        known = np.ones(table.size, dtype=bool)
        known[lo % table.size : lo % table.size + width] = False
    got = repair_observed_table(table.copy(), key_bits, known_bytes=known)
    want = _seed_repair_observed_table(table.copy(), key_bits, known_bytes=known)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    repair_bits=st.sampled_from((0, 1)),
    decay_bits=st.integers(0, 60),
    junk_hits=st.integers(0, 3),
)
# Aliases that reach the rescue with bit repairs, at AES-256 and at
# AES-192 beside two junk groups.
@example(5, 256, 1, 60, 0)
@example(11, 192, 1, 40, 2)
def test_group_recovery_matches_seed(seed, key_bits, repair_bits, decay_bits, junk_hits):
    """The classical ballot → repair → rescue escalation, per base.

    A decayed schedule is scrambled over a small image.  The joinless
    walk finds its hits at the true round and at the wrong rounds of the
    same phase, whose bases are the shifted aliases that dominate
    recovery time on real dumps; junk groups hold hits on random
    blocks.  The live array ballot books and the seed's ballot dicts
    must return equal keys (``confidence``, which the seed never scores,
    is left out of the equality).
    """
    rng = np.random.default_rng(seed)
    n_blocks, n_keys = 12, 5
    keys = rng.integers(0, 256, size=(n_keys, 64), dtype=np.uint8)
    blocks = rng.integers(0, 256, size=(n_blocks, 64), dtype=np.uint8)
    schedule = _schedule(rng, key_bits)
    base = int(rng.integers(64, 64 * n_blocks - schedule.size - 64))
    image = blocks.reshape(-1)
    for block in range(n_blocks):
        lo, hi = max(base, 64 * block), min(base + schedule.size, 64 * (block + 1))
        if lo < hi:
            key = keys[rng.integers(0, n_keys)]
            image[lo:hi] = schedule[lo - base : hi - base] ^ key[lo - 64 * block : hi - 64 * block]
    _flip_bits(rng, blocks, decay_bits)

    fast = AesKeySearch(keys, key_bits=key_bits, repair_bits=repair_bits)
    oracle = SeedAesKeySearch(keys, key_bits=key_bits, repair_bits=repair_bits)
    groups: dict[int, list[ScheduleHit]] = {}
    for hit in fast._extend_hits(blocks, np.arange(n_blocks), fast.verify_tolerance_bits):
        groups.setdefault(hit.table_base, []).append(hit)
    # The true base and its nearest wrong-round aliases (bases a whole
    # number of round keys away).
    chosen = sorted(
        (b for b in groups if b >= 0 and (b - base) % 16 == 0), key=lambda b: abs(b - base)
    )[:4]
    # Junk: hits on random blocks, keys and rounds, each under its own
    # base (or mixed into a real group that base already holds).
    span = fast.variant.span_bytes
    for _ in range(junk_hits):
        hit = ScheduleHit(
            block_index=int(rng.integers(0, n_blocks)),
            key_index=int(rng.integers(0, n_keys)),
            offset=int(rng.choice(fast.offsets)),
            round_index=int(rng.integers(0, (schedule.size - span) // 16 + 1)),
            mismatch_bits=int(rng.integers(0, 17)),
            key_bits=key_bits,
        )
        if hit.table_base >= 0:
            groups.setdefault(hit.table_base, []).append(hit)
            chosen.append(hit.table_base)
    for at in dict.fromkeys(chosen):
        gate = fast._span_table_from_hits(blocks, at, groups[at])
        assert fast._recover_from_group(blocks, at, groups[at], gate) == (
            oracle._recover_from_group(blocks, at, groups[at], gate)
        )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    rate=st.floats(0.0, 0.045),
    to_ground=st.floats(0.5, 2.0),
    erase_at=st.floats(0.0, 1.0),
    erase_frac=st.floats(0.0, 0.5),
)
def test_decoder_matches_dense_oracle(seed, key_bits, rate, to_ground, erase_at, erase_frac):
    rng = np.random.default_rng(seed)
    channel = ChannelModel(
        rate_to_ground=max(rate, 1e-4) * to_ground,
        rate_from_ground=max(rate, 1e-4),
    )
    # Two planted schedules decayed through the channel (ground state
    # zero: ones drop at the to-ground rate, zeros rise at the reverse
    # one), then two junk tables.
    masters = [rng.bytes(key_bits // 8) for _ in range(2)]
    tables = []
    for master in masters:
        bits = np.unpackbits(np.frombuffer(expand_key(master), dtype=np.uint8))
        flip = np.where(bits == 1, channel.rate_to_ground, channel.rate_from_ground)
        tables.append(np.packbits(bits ^ (rng.random(bits.size) < flip)))
    n_bytes = tables[0].size
    tables += [rng.integers(0, 256, n_bytes, dtype=np.uint8) for _ in range(2)]
    observed = np.stack(tables)
    # One erased span of up to half the table, the same in every
    # table, handed over through ``known``.
    erase_len = int(erase_frac * n_bytes)
    lo = int(erase_at * (n_bytes - erase_len))
    known = np.ones(observed.shape, dtype=bool)
    known[:, lo : lo + erase_len] = False
    observed[~known] = 0

    live = decode_schedule(observed, key_bits, channel, known=known)
    for i in range(len(tables)):
        oracle = legacy_decode_schedules(observed[i], key_bits, channel, known=known[i])
        if oracle.converged[0]:
            assert live.converged[i], f"table {i}: the oracle decodes it, live abstains"
            assert np.array_equal(live.tables[i], oracle.tables[0])
    for i, master in enumerate(masters):
        if live.converged[i]:
            assert live.tables[i].tobytes() == expand_key(master)


def _cpus(count: int):
    return mock.patch.object(util_cpus, "usable_cpus", lambda: count)


def _cut(decode, *args, checks: int, **kwargs):
    """``(result, None)`` if the decode ends within ``checks`` deadline
    polls, else ``(None, its checkpoint)``."""
    try:
        return decode(*args, deadline=CountdownDeadline(checks), **kwargs), None
    except DeadlineExceededError as error:
        return None, error.decode_state


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    n_tables=st.integers(1, 30),
    junk_share=st.floats(0.0, 1.0),
    rate=st.floats(0.0, 0.045),
    to_ground=st.floats(0.5, 2.0),
    erase_share=st.sampled_from((None, 0.0, 0.3, 1.0)),
    erase_frac=st.floats(0.0, 0.5),
    cpus=st.integers(1, 4),
    cut_after=st.one_of(st.none(), st.integers(0, 6)),
)
# A mixed batch cut after its junk froze, resumed on another pool size;
# and a cut whose message logs a float32 log of the checkpoint did not
# recover exactly.
@example(5, 256, 16, 0.5, 0.04, 1.5, 0.3, 0.3, 2, 3)
@example(0, 128, 1, 1.0, 0.03125, 1.0, 1.0, 0.25, 3, 2)
def test_threaded_decoder_matches_serial_decoder(
    seed, key_bits, n_tables, junk_share, rate, to_ground, erase_share, erase_frac,
    cpus, cut_after,
):
    observed, channel, known = decode_batch(
        seed, key_bits, n_tables, junk_share, rate, to_ground, erase_share, erase_frac
    )
    args = (observed, key_bits, channel)
    with _cpus(cpus):
        live = decode_schedule(*args, known=known)
    assert_same_decode(live, serial_decode_schedule(*args, known=known))
    if cut_after is None:
        return
    # Cut both decoders at the same sweep: the checkpoints must match
    # bit for bit, and a resume under another CPU count must land where
    # the straight run does.
    with _cpus(cpus):
        live_done, live_state = _cut(decode_schedule, *args, known=known, checks=cut_after)
    frozen_done, frozen_state = _cut(
        serial_decode_schedule, *args, known=known, checks=cut_after
    )
    if frozen_state is None:
        assert_same_decode(live_done, frozen_done)
        return
    assert live_state is not None
    assert live_state.iteration == frozen_state.iteration
    assert live_state.digest == frozen_state.digest
    assert live_state.messages.tobytes() == frozen_state.messages.tobytes()
    assert live_state.sched == frozen_state.sched
    with _cpus(cpus % 4 + 1):
        resumed = decode_schedule(*args, known=known, state=live_state)
    assert_same_decode(resumed, live, skip=WORK_COUNTERS)


def _structured_keys(rng: np.random.Generator, n_keys: int) -> np.ndarray:
    """Keys shaped like the scrambler's: each 16-byte sub-word's second
    half is its first half XOR a repeated 16-bit constant, so every key
    passes the litmus test with zero mismatch."""
    first = rng.integers(0, 256, size=(n_keys, 4, 1, 8), dtype=np.uint8)
    constant = np.tile(rng.integers(0, 256, size=(n_keys, 4, 1, 2), dtype=np.uint8), 4)
    return np.concatenate([first, first ^ constant], axis=2).reshape(n_keys, 64)


def _scrambled_dump(
    seed: int, n_keys: int, n_blocks: int, zero_fraction: float,
    constant_fraction: float, rate: float,
) -> MemoryImage:
    """Random plaintext over a few keys, with zero pages (each a sighting
    of its key; few keys make repeats), 2-byte constant fill (``key ^
    constant`` blocks, which pass the litmus test too), and decay toward
    each cell's ground state."""
    rng = np.random.default_rng(seed)
    keys = _structured_keys(rng, n_keys)
    plain = rng.integers(0, 256, size=(n_blocks, 64), dtype=np.uint8)
    kind = rng.random(n_blocks)
    plain[kind < zero_fraction] = 0
    filled = (kind >= zero_fraction) & (kind < zero_fraction + constant_fraction)
    plain[filled] = np.tile(rng.integers(0, 256, size=(int(filled.sum()), 2), dtype=np.uint8), 32)
    blocks = plain ^ keys[rng.integers(0, n_keys, size=n_blocks)]
    flat = blocks.reshape(-1)
    apply_decay(flat, ground_state_pattern(flat.size, serial=seed, stripe_bytes=64), rate, rng)
    return MemoryImage(blocks.tobytes())


_RATES = st.floats(0.002, 0.05)

#: Every budget pair the adaptive ladder mines with — strict, the
#: calibrated and decoded stages at rates across the ladder's range —
#: plus the radius edges: 0 (no merge), 1–7 (bands wider than
#: 8 bytes), 63 (one byte per band) and 64 (every representative is a
#: candidate).
_BUDGETS = st.one_of(
    st.just((16, 16)),
    _RATES.map(stage_for_rate),
    _RATES.map(decode_stage_for_rate),
    st.builds(
        lambda tolerance, radius: (tolerance, radius),
        st.integers(0, 96),
        st.sampled_from((0, 1, 2, 3, 4, 5, 6, 7, 63, 64)),
    ),
).map(lambda b: b if isinstance(b, tuple) else (b.litmus_tolerance_bits, b.merge_radius_bits))


def _key_counts(candidates) -> Counter:
    return Counter((c.key, c.count) for c in candidates)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_keys=st.integers(1, 24),
    # Up to several walk blocks of unique passing rows.
    n_blocks=st.sampled_from((1, 40, 300, 1200)),
    zero_fraction=st.sampled_from((0.0, 0.3, 0.6, 0.9)),
    constant_fraction=st.floats(0.0, 0.3),
    rate=st.sampled_from((0.0, 0.002, 0.01, 0.03, 0.05)),
    budget=_BUDGETS,
    scan_limit=st.sampled_from((None, 64 * 700 + 13)),
)
def test_miner_matches_frozen_walk(
    seed, n_keys, n_blocks, zero_fraction, constant_fraction, rate, budget, scan_limit,
):
    image = _scrambled_dump(seed, n_keys, n_blocks, zero_fraction, constant_fraction, rate)
    tolerance, radius = budget
    mined = mine_scrambler_keys(image, tolerance, radius, scan_limit_bytes=scan_limit)
    assert mined == walk_mine_scrambler_keys(image, tolerance, radius, scan_limit_bytes=scan_limit)
    assert _key_counts(mined) == _key_counts(
        seed_mine_scrambler_keys(image, tolerance, radius, scan_limit_bytes=scan_limit)
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    budgets=st.lists(_BUDGETS, min_size=1, max_size=5),
    scan_limit=st.sampled_from((None, 64 * 300)),
)
def test_mining_state_answers_as_fresh_calls(seed, budgets, scan_limit):
    image = _scrambled_dump(seed, 6, 600, 0.5, 0.1, 0.02)
    state = MiningState(image, scan_limit)
    # Every pair twice, in drawn order then reversed: the second answer
    # comes from memory, after the caller emptied the first.
    for tolerance, radius in budgets + budgets[::-1]:
        mined = mine_scrambler_keys(image, tolerance, radius, scan_limit, state=state)
        assert mined == mine_scrambler_keys(image, tolerance, radius, scan_limit)
        mined.clear()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    join_radius=st.sampled_from((0, 1)),
    tolerance=st.integers(0, 48),
    n_keys=st.integers(1, 12),
    n_blocks=st.integers(1, 200),
    zero_fraction=st.sampled_from((0.0, 0.3, 0.8)),
    constant_fraction=st.floats(0.0, 0.3),
    planted=st.integers(0, 4),
    rate=st.sampled_from((0.0, 0.002, 0.01, 0.03)),
    chunk_start=st.integers(0, 8),
    walk=st.tuples(st.integers(0, 199), st.integers(0, 8)),
)
def test_prefilter_matches_bytewise_oracle(
    seed, key_bits, join_radius, tolerance, n_keys, n_blocks, zero_fraction,
    constant_fraction, planted, rate, chunk_start, walk,
):
    rng = np.random.default_rng(seed)
    keys = _structured_keys(rng, n_keys)
    # Zero pages join their own key with every linear residual zero, so
    # only the S-box anchor can drop them; constant fill makes ``key ^
    # constant`` blocks; planted schedules give true pairs at several
    # rounds.  Decay pulls every cell toward its ground state.
    plain = rng.integers(0, 256, size=(n_blocks, 64), dtype=np.uint8)
    kind = rng.random(n_blocks)
    plain[kind < zero_fraction] = 0
    filled = (kind >= zero_fraction) & (kind < zero_fraction + constant_fraction)
    plain[filled] = np.tile(rng.integers(0, 256, size=(int(filled.sum()), 2), dtype=np.uint8), 32)
    flat = plain.reshape(-1)
    for _ in range(planted):
        schedule = _schedule(rng, key_bits)
        at = int(rng.integers(0, max(1, flat.size - schedule.size + 1)))
        piece = schedule[: flat.size - at]
        flat[at : at + piece.size] = piece
    blocks = plain ^ keys[rng.integers(0, n_keys, size=n_blocks)]
    flat = blocks.reshape(-1)
    ground = ground_state_pattern(flat.size, serial=seed, stripe_bytes=64)
    apply_decay(flat, ground, rate, np.random.Generator(np.random.PCG64(seed)))
    # The scan reads row slices of a read-only buffer, as the fused
    # pass does with each chunk of ``image.blocks_matrix()``.
    chunk = MemoryImage(blocks.tobytes()).blocks_matrix()[min(chunk_start, n_blocks - 1) :]
    center, radius = walk
    center = min(center, chunk.shape[0] - 1)
    near = chunk[max(0, center - radius) : center + radius + 1].copy()

    search = AesKeySearch(
        keys, key_bits=key_bits, verify_tolerance_bits=tolerance, join_radius_bits=join_radius
    )
    every_pair = _all_pairs(np.arange(near.shape[0], dtype=np.int64), n_keys)
    for group in search._phase_groups():
        streams, band_tables = search._relation_tables(chunk, group[0])
        near_streams = search._relation_tables(near, group[0])[0]
        memo: dict = {}
        for offset in search.offsets:
            joined = search._probe_chunk(band_tables, offset, group[0], memo)
            for rows, rows_streams, pairs in (
                (chunk, streams, joined),
                (near, near_streams, every_pair),
            ):
                got = search._prefilter_chunk_pairs(
                    rows, rows_streams, pairs, offset, group, tolerance
                )
                want = bytewise_prefilter_chunk_pairs(
                    search, rows, rows_streams, pairs, offset, group, tolerance
                )
                assert got.dtype == want.dtype and np.array_equal(got, want)
