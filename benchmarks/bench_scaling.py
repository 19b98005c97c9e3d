"""Scaling behaviour of the attack — context for the §III-C projections.

The paper extrapolates from 100 MB/core to 8 GB DIMMs because its scan
is linear and parallel.  These benches measure the same two scaling
axes for this implementation: dump size (linear) and candidate-key
count (sub-linear, thanks to the fingerprint join), plus the sharded
scan's consistency.
"""

import time

import pytest

from repro.attack.aes_search import AesKeySearch
from repro.attack.keymine import keys_matrix, mine_scrambler_keys
from repro.attack.parallel import resilient_recover_keys
from repro.attack.sweep import synthetic_dump
from repro.dram.image import MemoryImage


@pytest.fixture(scope="module")
def prepared():
    dump, master, _ = synthetic_dump(bit_error_rate=0.0, n_blocks=3 * 4096, seed=71)
    candidates = mine_scrambler_keys(dump)
    return dump, master, keys_matrix(candidates)


def test_scaling_with_dump_size(benchmark, prepared):
    """Search time grows ~linearly in blocks (paper: parallelise away)."""
    dump, _, keys = prepared
    search = AesKeySearch(keys, key_bits=256, extension_radius_blocks=0)

    def timed(fraction):
        size = int(dump.n_blocks * fraction) * 64
        sub = MemoryImage(dump.data[:size])
        start = time.perf_counter()
        search.find_hits(sub)
        return time.perf_counter() - start

    def measure():
        return {f: timed(f) for f in (0.25, 0.5, 1.0)}

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\nsearch time vs dump fraction:", {k: f"{v:.2f}s" for k, v in times.items()})
    ratio = times[1.0] / max(times[0.25], 1e-9)
    assert 2.0 < ratio < 8.0  # ~4x expected for 4x the blocks


def test_scaling_with_key_count(benchmark, prepared):
    """The join keeps key-count cost mild (brute force would be linear)."""
    dump, _, keys = prepared

    def timed(n_keys):
        search = AesKeySearch(keys[:n_keys].copy(), key_bits=256, extension_radius_blocks=0)
        start = time.perf_counter()
        search.find_hits(dump)
        return time.perf_counter() - start

    def measure():
        return {n: timed(n) for n in (512, 2048, keys.shape[0])}

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\nsearch time vs candidate keys:", {k: f"{v:.2f}s" for k, v in times.items()})
    growth = times[keys.shape[0]] / max(times[512], 1e-9)
    keys_growth = keys.shape[0] / 512
    # Far below proportional growth: the join is per-key O(1) dict work.
    assert growth < keys_growth


def test_sharded_equals_monolithic(benchmark, prepared):
    """Sharding changes wall-clock structure, never results."""
    dump, master, keys = prepared

    def both():
        mono = AesKeySearch(keys.copy(), key_bits=256).recover_keys(dump)
        sharded = resilient_recover_keys(dump, key_bits=256, workers=1, n_shards=6).recovered
        return {r.master_key for r in mono}, {r.master_key for r in sharded}

    mono, sharded = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\nmonolithic {len(mono)} keys, sharded {len(sharded)} keys")
    assert master[:32] in mono and master[:32] in sharded
    assert master[32:] in mono and master[32:] in sharded
