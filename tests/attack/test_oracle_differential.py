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
never an abstain where the oracle converges.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_decode import legacy_decode_schedules  # noqa: E402
from benchmarks.legacy_scan import SeedAesKeySearch  # noqa: E402

from repro.attack.aes_search import AesKeySearch  # noqa: E402
from repro.attack.decode import ChannelModel, decode_schedule  # noqa: E402
from repro.crypto.aes import expand_key  # noqa: E402


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
