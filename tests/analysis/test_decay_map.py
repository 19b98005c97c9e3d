"""Tests for spatial decay analysis."""

import numpy as np
import pytest

from repro.analysis.decay_map import decay_map, stripe_correlation
from repro.dram.image import MemoryImage
from repro.dram.module import DramModule, random_fill
from repro.util.rng import SplitMix64


class TestDecayMap:
    def test_identical_images_zero_everywhere(self):
        image = MemoryImage(bytes(4096))
        result = decay_map(image, image, window_bytes=512)
        assert result.overall_rate == 0.0
        assert result.hot_windows(0.0) == []

    def test_localised_damage_located(self):
        reference = bytearray(8192)
        decayed = bytearray(8192)
        decayed[3000] ^= 0xFF  # 8 flips inside window 2 (1024-byte windows)
        result = decay_map(MemoryImage(bytes(reference)), MemoryImage(bytes(decayed)), 1024)
        assert result.hot_windows(0.0) == [2]
        assert result.peak_rate == pytest.approx(8 / (8 * 1024))

    def test_overall_rate_matches_image_ber(self):
        a = SplitMix64(1).next_bytes(64 * 256)
        b = bytearray(a)
        for i in range(0, len(b), 977):
            b[i] ^= 0x01
        ia, ib = MemoryImage(a), MemoryImage(bytes(b))
        result = decay_map(ia, ib, window_bytes=1024)
        assert result.overall_rate == pytest.approx(ia.bit_error_rate(ib))

    def test_pixels_rendering(self):
        a = MemoryImage(bytes(64 * 64))
        b = MemoryImage(b"\xff" * 64 + bytes(63 * 64))
        pixels = decay_map(a, b, window_bytes=64).to_pixels(width=8)
        assert pixels.shape == (8, 8)
        assert pixels[0, 0] == 255  # the damaged window is hottest

    def test_validation(self):
        a = MemoryImage(bytes(128))
        with pytest.raises(ValueError):
            decay_map(a, MemoryImage(bytes(64)), 64)
        with pytest.raises(ValueError):
            decay_map(a, a, 100)


class TestStripeCorrelation:
    def test_real_decay_moves_toward_ground(self):
        module = DramModule(64 * 1024, "DDR3_C", serial=5)
        payload = random_fill(module)
        module.power_off()
        module.set_temperature(0.0)
        module.advance_time(5.0)
        module.power_on()
        result = stripe_correlation(
            MemoryImage(payload),
            MemoryImage(module.dump()),
            module.ground_state[:].tobytes(),
        )
        assert result.toward_ground_fraction == 1.0
        assert result.consistent_with_ground_state_decay

    def test_uniform_corruption_scores_half(self):
        rng = SplitMix64(9)
        reference = rng.next_bytes(64 * 512)
        corrupted = bytearray(reference)
        for _ in range(2000):
            bit = rng.next_below(len(corrupted) * 8)
            corrupted[bit // 8] ^= 0x80 >> (bit % 8)
        ground = rng.next_bytes(len(reference))
        result = stripe_correlation(
            MemoryImage(reference), MemoryImage(bytes(corrupted)), ground
        )
        assert 0.4 < result.toward_ground_fraction < 0.6
        assert not result.consistent_with_ground_state_decay

    def test_no_flips_is_trivially_consistent(self):
        image = MemoryImage(bytes(128))
        assert stripe_correlation(image, image, bytes(128)).toward_ground_fraction == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            stripe_correlation(MemoryImage(bytes(64)), MemoryImage(bytes(64)), bytes(32))
