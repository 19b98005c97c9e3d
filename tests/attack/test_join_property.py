"""Hypothesis pins the fused scan to the frozen seed scan.

The fused scan replaces the seed's per-(offset, phase) Python hash join
with cache-blocked direct-address tables, a linear-relation prefilter,
and an S-box-anchored mismatch bound.  Its contract is *byte identity*:
for any dump and any key set it must emit exactly the hits — same
blocks, same keys, same order — as
:class:`benchmarks.legacy_scan.SeedAesKeySearch`, under arbitrary decay,
at both join radii and across the verify budgets the adaptive ladder
uses (16 bits strict, up to 40 on the decoded rung's radius-1 scan).
Hypothesis sweeps the geometry (variant, table placement, alignment)
and the decay channel.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_scan import SeedAesKeySearch  # noqa: E402

from repro.attack.aes_search import AesKeySearch  # noqa: E402
from repro.crypto.aes import expand_key, schedule_bytes  # noqa: E402
from repro.dram.image import MemoryImage  # noqa: E402
from repro.scrambler.ddr4 import Ddr4Scrambler  # noqa: E402
from repro.util.rng import SplitMix64  # noqa: E402

N_BLOCKS = 48


def _planted_image(
    scrambler: Ddr4Scrambler, key_bits: int, table_offset: int, seed: int
) -> tuple[MemoryImage, bytes]:
    """Random plaintext + one planted schedule, scrambled."""
    rng = SplitMix64(seed)
    master = rng.next_bytes(key_bits // 8)
    plain = bytearray(rng.next_bytes(N_BLOCKS * 64))
    schedule = expand_key(master)
    plain[table_offset : table_offset + len(schedule)] = schedule
    return MemoryImage(scrambler.scramble_range(0, bytes(plain))), master


def _decay(
    image: MemoryImage, n_flips: int, seed: int, start: int = 0, length: int | None = None
) -> MemoryImage:
    """Flip ``n_flips`` random bits of ``length`` bytes from ``start``."""
    data = bytearray(image.data)
    length = len(data) - start if length is None else length
    rng = SplitMix64(seed)
    for _ in range(n_flips):
        bit = 8 * start + rng.next_below(length * 8)
        data[bit // 8] ^= 0x80 >> (bit % 8)
    return MemoryImage(bytes(data))


@settings(max_examples=25, deadline=None)
@given(
    key_bits=st.sampled_from([128, 192, 256]),
    boot_seed=st.integers(0, 2**16),
    table_block=st.integers(0, 40),
    byte_skew=st.integers(0, 16),
    n_flips=st.integers(0, 24),
    table_flips=st.integers(0, 64),
    flip_seed=st.integers(0, 2**16),
    radius=st.sampled_from((0, 1)),
    tolerance=st.sampled_from((16, 28, 40)),
)
def test_fused_join_matches_dict_reference(
    key_bits, boot_seed, table_block, byte_skew, n_flips, table_flips, flip_seed, radius,
    tolerance,
):
    scrambler = Ddr4Scrambler(boot_seed=boot_seed)
    table_offset = table_block * 64 + byte_skew
    image, _ = _planted_image(scrambler, key_bits, table_offset, seed=flip_seed)
    # Background decay, plus up to ~4 % BER on the table itself: enough
    # that some windows lose every exact band yet still verify within
    # the wide budgets — the windows only the radius-1 join finds.
    decayed = _decay(image, n_flips, seed=flip_seed ^ 0x5A5A)
    decayed = _decay(
        decayed, table_flips, flip_seed ^ 0xA5A5, table_offset, schedule_bytes(key_bits)
    )
    # Key pool: every other block's true scrambler key — includes the
    # table region's keys, so genuine hits occur alongside noise.
    keys = [scrambler.key_for_address(b * 64) for b in range(0, N_BLOCKS, 2)]
    options = dict(key_bits=key_bits, join_radius_bits=radius, verify_tolerance_bits=tolerance)
    fused = AesKeySearch(keys, **options)
    reference = SeedAesKeySearch(keys, **options)
    assert fused.find_hits(decayed) == reference.find_hits(decayed)


def test_zero_page_dump_self_join_equivalence():
    """An all-zero dump is the prefilter's worst case: every scrambled
    block *is* its own keystream, so every (block, key=own) pair passes
    the linear bound at all offsets and only the S-box anchor rejects.
    The fused path must still emit exactly the seed's hits, at both
    join radii."""
    scrambler = Ddr4Scrambler(boot_seed=9)
    image = MemoryImage(scrambler.scramble_range(0, bytes(N_BLOCKS * 64)))
    keys = [scrambler.key_for_address(b * 64) for b in range(N_BLOCKS)]
    for radius in (0, 1):
        fused = AesKeySearch(keys, key_bits=256, join_radius_bits=radius)
        reference = SeedAesKeySearch(keys, key_bits=256, join_radius_bits=radius)
        assert fused.find_hits(image) == reference.find_hits(image)


def test_seed_scan_never_runs_the_fused_kernel(monkeypatch):
    """The seed oracle must stay on its own loop: were it to inherit the
    fused kernel, every test above — and the benchmark's seed baseline —
    would compare the kernel with itself."""
    scrambler = Ddr4Scrambler(boot_seed=3)
    table_offset = 20 * 64 + 5
    image, _ = _planted_image(scrambler, 256, table_offset, seed=4)
    keys = [scrambler.key_for_address(b * 64) for b in range(N_BLOCKS)]
    planted = AesKeySearch(keys, key_bits=256).find_hits(image)
    assert table_offset in {hit.table_base for hit in planted}

    def fused_kernel_called(self, blocks):
        raise AssertionError("SeedAesKeySearch ran the fused kernel")

    monkeypatch.setattr(AesKeySearch, "_find_hits_fused", fused_kernel_called)
    assert SeedAesKeySearch(keys, key_bits=256).find_hits(image) == planted
