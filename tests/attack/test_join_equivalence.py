"""The fused scan's join and verify are *identical* to the seed's.

The direct-address probe over a chunk's relation tables replaced the
seed's per-(offset, phase) Python dict join purely for speed; any
behavioural difference is a bug.  Hypothesis drives both — the fused
kernel's pieces and the frozen seed code in :mod:`benchmarks.legacy_scan`
— across random key/block matrices with planted schedules and random
decay, at both join radii and across the verify budgets the adaptive
ladder uses, asserting the joined pairs and the verified hits match
exactly (values *and* order).
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_scan import SeedAesKeySearch  # noqa: E402

from repro.attack.aes_search import AesKeySearch  # noqa: E402
from repro.attack.keymine import keys_matrix, mine_scrambler_keys  # noqa: E402
from repro.attack.sweep import synthetic_dump  # noqa: E402
from repro.crypto.aes import expand_key  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_bits=st.sampled_from((128, 192, 256)),
    n_keys=st.integers(1, 6),
    n_blocks=st.integers(1, 24),
    planted=st.integers(0, 3),
    decay_bits=st.integers(0, 96),
    radius=st.sampled_from((0, 1)),
    tolerance=st.sampled_from((16, 28, 40)),
)
def test_sorted_join_matches_dict_join(
    seed, key_bits, n_keys, n_blocks, planted, decay_bits, radius, tolerance
):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 256, size=(n_keys, 64), dtype=np.uint8)
    blocks = rng.integers(0, 256, size=(n_blocks, 64), dtype=np.uint8)

    # Plant decayed schedule sightings so the joins have real matches to
    # agree on, not just empty results.
    schedule = np.frombuffer(expand_key(rng.bytes(key_bits // 8)), dtype=np.uint8)
    max_row = (len(schedule) - 64) // 16
    for _ in range(planted):
        block = int(rng.integers(0, n_blocks))
        key = int(rng.integers(0, n_keys))
        row = int(rng.integers(0, max_row + 1))
        blocks[block] = keys[key] ^ schedule[16 * row : 16 * row + 64]
    for _ in range(decay_bits):
        block = int(rng.integers(0, n_blocks))
        blocks[block, int(rng.integers(0, 64))] ^= np.uint8(1 << int(rng.integers(0, 8)))

    options = dict(key_bits=key_bits, join_radius_bits=radius, verify_tolerance_bits=tolerance)
    fast = AesKeySearch(keys, **options)
    frozen_seed = SeedAesKeySearch(keys, **options)

    # The whole block matrix is one chunk of the fused scan.
    for phases in fast._phase_groups():
        _, band_tables = fast._relation_tables(blocks, phases[0])
        for offset in fast.offsets:
            for phase in phases:
                pairs = fast._probe_chunk(band_tables, offset, phase)
                assert np.array_equal(pairs, frozen_seed._candidate_pairs(blocks, offset, phase))
                assert fast._verify_pairs(blocks, pairs, offset, phase) == (
                    frozen_seed._verify_pairs(blocks, pairs, offset, phase)
                )


def test_recover_keys_identical_to_seed_on_synthetic_dump():
    """Full-scan equivalence: every RecoveredAesKey field, in order."""
    # Default dump size: smaller dumps don't cover the scrambler-key
    # period, leaving the planted table's key unminable.
    dump, master, _ = synthetic_dump(0.002, seed=11)
    keys = keys_matrix(mine_scrambler_keys(dump))

    fast = AesKeySearch(keys, key_bits=256).recover_keys(dump)
    frozen_seed = SeedAesKeySearch(keys, key_bits=256).recover_keys(dump)

    assert fast == frozen_seed
    masters = {r.master_key for r in fast}
    assert master[:32] in masters and master[32:] in masters
