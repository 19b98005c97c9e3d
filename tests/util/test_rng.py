"""Tests for the deterministic seed/PRNG machinery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import SplitMix64, derive_seed, derive_seeds


class TestSplitMix64:
    def test_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_diverge(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_known_reference_value(self):
        # SplitMix64 reference: seed 0 produces 0xE220A8397B1DCDAF first.
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_next_bytes_length(self):
        assert len(SplitMix64(7).next_bytes(13)) == 13
        assert len(SplitMix64(7).next_bytes(0)) == 0

    def test_next_below_bounds(self):
        rng = SplitMix64(99)
        values = [rng.next_below(10) for _ in range(500)]
        assert all(0 <= v < 10 for v in values)
        assert len(set(values)) == 10  # all residues seen

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).next_below(0)

    def test_next_float_in_unit_interval(self):
        rng = SplitMix64(5)
        for _ in range(100):
            value = rng.next_float()
            assert 0.0 <= value < 1.0

    def test_bit_balance(self):
        """Outputs should be roughly half ones (sanity, not rigor)."""
        rng = SplitMix64(123)
        ones = sum(bin(rng.next_u64()).count("1") for _ in range(200))
        assert 0.45 < ones / (200 * 64) < 0.55


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("a", 1, b"x") == derive_seed("a", 1, b"x")

    def test_order_sensitive(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_part_types(self):
        seeds = {derive_seed("s"), derive_seed(b"s"), derive_seed(123), derive_seed(-5)}
        assert len(seeds) == 4

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            derive_seed(1.5)  # type: ignore[arg-type]

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=4))
    def test_no_trivial_collisions(self, parts):
        shifted = [p + 1 for p in parts]
        assert derive_seed(*parts) != derive_seed(*shifted)


class TestDeriveSeeds:
    @pytest.mark.parametrize("generation", ["skylake", "kabylake"])
    @pytest.mark.parametrize("boot_seed", [0, 0x2545F4914F6CDD1D, (1 << 63) - 3, (1 << 64) - 1])
    @pytest.mark.parametrize("channel", [0, 1])
    def test_matches_derive_seed_at_every_index(self, generation, boot_seed, channel):
        """The DDR4 key pool's seeds: 4096 indices after a shared prefix."""
        prefix = ("ddr4-key", generation, boot_seed, channel)
        seeds = derive_seeds(*prefix, count=4096)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(*prefix, index) for index in range(4096)]

    def test_indices_past_two_bytes_and_no_prefix(self):
        assert derive_seeds(count=70000)[[0, 255, 256, 65535, 65536, 69999]].tolist() == [
            derive_seed(i) for i in (0, 255, 256, 65535, 65536, 69999)
        ]

    def test_empty_and_negative_counts(self):
        assert derive_seeds("x", count=0).shape == (0,)
        with pytest.raises(ValueError):
            derive_seeds("x", count=-1)
