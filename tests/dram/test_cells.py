"""Tests for the charge-decay physics model."""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_machine import legacy_apply_decay  # noqa: E402

from repro.dram.cells import (  # noqa: E402
    SPARSE_DECAY_THRESHOLD,
    DecayModel,
    GroundState,
    apply_decay,
    ground_state_pattern,
)
from repro.util import cpus as util_cpus  # noqa: E402


class TestDecayModel:
    def setup_method(self):
        self.model = DecayModel(tau_room_s=3.0, beta=1.5, doubling_celsius=9.0)

    def test_cooling_extends_retention(self):
        assert self.model.tau_at(-25.0) > self.model.tau_at(20.0)
        # One doubling step per 9 degrees.
        assert self.model.tau_at(11.0) == pytest.approx(2 * self.model.tau_at(20.0))

    def test_flip_fraction_monotone_in_time(self):
        times = [0.5, 1.0, 3.0, 10.0, 60.0]
        fractions = [self.model.flip_fraction(t, 20.0) for t in times]
        assert fractions == sorted(fractions)
        assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_zero_time_means_no_decay(self):
        assert self.model.flip_fraction(0.0, 20.0) == 0.0

    def test_conditional_probability_composes(self):
        """Decaying in two steps matches one step in probability mass."""
        a1 = self.model.age_increment(2.0, 20.0)
        a2 = a1 + self.model.age_increment(3.0, 20.0)
        p_two_step = 1 - (1 - self.model.conditional_flip_probability(0, a1)) * (
            1 - self.model.conditional_flip_probability(a1, a2)
        )
        p_one_step = self.model.conditional_flip_probability(0, a2)
        assert p_two_step == pytest.approx(p_one_step)

    def test_conditional_rejects_time_reversal(self):
        with pytest.raises(ValueError):
            self.model.conditional_flip_probability(1.0, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayModel(tau_room_s=0)
        with pytest.raises(ValueError):
            DecayModel(tau_room_s=1, beta=0)
        with pytest.raises(ValueError):
            self.model.age_increment(-1, 20.0)

    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=-60, max_value=60),
    )
    def test_flip_fraction_is_probability(self, seconds, celsius):
        fraction = self.model.flip_fraction(seconds, celsius)
        assert 0.0 <= fraction <= 1.0


class TestGroundState:
    def test_deterministic_per_serial(self):
        a = ground_state_pattern(8192, serial=1)
        b = ground_state_pattern(8192, serial=1)
        assert np.array_equal(a, b)

    def test_varies_with_serial(self):
        a = ground_state_pattern(65536, serial=1)
        b = ground_state_pattern(65536, serial=2)
        assert not np.array_equal(a, b)

    def test_stripes_are_pure(self):
        pattern = ground_state_pattern(16384, serial=3, stripe_bytes=512)
        assert set(np.unique(pattern)) <= {0x00, 0xFF}
        # Each stripe is uniform.
        stripes = pattern.reshape(-1, 512)
        assert all(len(np.unique(s)) == 1 for s in stripes)

    def test_both_polarities_present(self):
        pattern = ground_state_pattern(1 << 16, serial=4)
        assert 0x00 in pattern and 0xFF in pattern

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ground_state_pattern(0, serial=0)

    @pytest.mark.parametrize("stripe_bytes", [512, 3000, 4096])
    def test_slices_expand_only_their_range(self, stripe_bytes):
        n_bytes = 5 * stripe_bytes + 77
        pattern = ground_state_pattern(n_bytes, serial=6, stripe_bytes=stripe_bytes)
        state = GroundState(n_bytes, serial=6, stripe_bytes=stripe_bytes)
        assert len(state) == n_bytes and state.shape == pattern.shape
        assert len(state.stripe_values) == 6
        for start, stop in [(0, n_bytes), (1, 2), (stripe_bytes - 1, 2 * stripe_bytes + 1),
                            (n_bytes - 5, n_bytes + 100), (7, 7), (9, 3), (-10, None)]:
            assert np.array_equal(state[start:stop], pattern[start:stop]), (start, stop)

    def test_rejects_strided_and_scalar_reads(self):
        state = GroundState(8192, serial=1)
        with pytest.raises(ValueError):
            state[::2]
        with pytest.raises(TypeError):
            state[5]

    @pytest.mark.parametrize("probability", [0.003, 0.03])
    def test_stripe_form_decays_like_the_byte_array(self, probability):
        """Sparse and dense decay flip the same bits whether the ground
        state is passed as stripes or expanded, on stripes that straddle
        the sparse path's chunks and the dense path's blocks."""
        n_bytes = (3 << 20) + 4160
        state = GroundState(n_bytes, serial=12, stripe_bytes=3000)
        data = np.random.default_rng(4).integers(0, 256, n_bytes, dtype=np.uint8)
        striped, expanded = data.copy(), data.copy()
        flipped = apply_decay(striped, state, probability, np.random.default_rng(5))
        assert flipped == apply_decay(expanded, state[:], probability, np.random.default_rng(5))
        assert flipped > 0 and np.array_equal(striped, expanded)


class TestApplyDecay:
    def test_zero_probability_flips_nothing(self):
        data = np.frombuffer(bytes(range(256)) * 4, dtype=np.uint8).copy()
        ground = np.zeros_like(data)
        rng = np.random.Generator(np.random.PCG64(0))
        assert apply_decay(data, ground, 0.0, rng) == 0

    def test_full_probability_reaches_ground(self):
        ground = ground_state_pattern(1024, serial=9)
        data = (~ground).astype(np.uint8)
        rng = np.random.Generator(np.random.PCG64(0))
        flipped = apply_decay(data, ground, 1.0, rng)
        assert np.array_equal(data, ground)
        assert flipped == 8 * 1024

    def test_only_vulnerable_bits_flip(self):
        """Bits already at ground never change."""
        ground = ground_state_pattern(4096, serial=5)
        data = ground.copy()
        rng = np.random.Generator(np.random.PCG64(1))
        assert apply_decay(data, ground, 0.5, rng) == 0
        assert np.array_equal(data, ground)

    def test_flip_count_tracks_probability(self):
        n = 1 << 16
        ground = np.zeros(n, dtype=np.uint8)
        data = np.full(n, 0xFF, dtype=np.uint8)
        rng = np.random.Generator(np.random.PCG64(2))
        flipped = apply_decay(data, ground, 0.01, rng)
        expected = 0.01 * 8 * n
        assert 0.8 * expected < flipped < 1.2 * expected

    def test_rejects_probability_out_of_range(self):
        data = np.zeros(64, dtype=np.uint8)
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError):
            apply_decay(data, data.copy(), 1.5, rng)

    def test_rejects_shape_mismatch(self):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError):
            apply_decay(np.zeros(64, dtype=np.uint8), np.zeros(32, dtype=np.uint8), 0.1, rng)


class TestSparseSamplerDistribution:
    """The sparse position sampler must match the dense Bernoulli draw.

    Below ``SPARSE_DECAY_THRESHOLD``, ``apply_decay`` samples flip
    positions by geometric gaps instead of drawing a float per bit; the
    two procedures must be indistinguishable in distribution.
    """

    N_BYTES = 1 << 14
    P = 0.003
    TRIALS = 120

    def _flip_counts(self, probability):
        """(dense counts, sparse counts) over matched per-trial seeds."""
        assert probability < SPARSE_DECAY_THRESHOLD
        ground = ground_state_pattern(self.N_BYTES, serial=3)
        base = np.random.Generator(np.random.PCG64(8)).integers(
            0, 256, self.N_BYTES, dtype=np.uint8
        )
        dense, sparse = [], []
        for trial in range(self.TRIALS):
            rng = np.random.Generator(np.random.PCG64(trial))
            raw = rng.random(self.N_BYTES * 8, dtype=np.float32) < probability
            mask = np.packbits(raw) & (base ^ ground)
            dense.append(int(np.unpackbits(mask).sum()))
            data = base.copy()
            rng = np.random.Generator(np.random.PCG64(trial))
            sparse.append(apply_decay(data, ground, probability, rng))
        return np.array(dense), np.array(sparse)

    def test_flip_count_distributions_agree(self):
        """KS-style check: the empirical CDFs of flip counts must agree."""
        dense, sparse = self._flip_counts(self.P)
        # Compare empirical CDFs at the pooled sample points.
        pooled = np.sort(np.concatenate([dense, sparse]))
        cdf_dense = np.searchsorted(np.sort(dense), pooled, side="right") / len(dense)
        cdf_sparse = np.searchsorted(np.sort(sparse), pooled, side="right") / len(sparse)
        ks_statistic = float(np.max(np.abs(cdf_dense - cdf_sparse)))
        # KS critical value at alpha=0.001 for two samples of size n:
        # c(alpha) * sqrt(2/n) with c(0.001) ~ 1.95.
        critical = 1.95 * np.sqrt(2.0 / self.TRIALS)
        assert ks_statistic < critical, (ks_statistic, critical)
        # Means must agree within sampling error too.
        tolerance = 4.0 * (dense.std() + sparse.std()) / np.sqrt(self.TRIALS)
        assert abs(dense.mean() - sparse.mean()) < tolerance

    def test_sparse_path_flips_only_vulnerable_bits(self):
        ground = ground_state_pattern(self.N_BYTES, serial=4)
        base = np.random.Generator(np.random.PCG64(9)).integers(
            0, 256, self.N_BYTES, dtype=np.uint8
        )
        data = base.copy()
        rng = np.random.Generator(np.random.PCG64(5))
        flipped = apply_decay(data, ground, 0.004, rng)
        changed = data ^ base
        # Every changed bit was vulnerable (differed from ground)...
        assert np.all(changed & ~(base ^ ground) == 0)
        # ...and the reported count matches the actual flips.
        assert int(np.unpackbits(changed).sum()) == flipped

    def test_sparse_and_dense_regimes_are_continuous(self):
        """Flip rates just below and above the threshold line up."""
        ground = np.zeros(self.N_BYTES, dtype=np.uint8)
        rates = []
        for probability in (SPARSE_DECAY_THRESHOLD * 0.9, SPARSE_DECAY_THRESHOLD * 1.1):
            counts = []
            for trial in range(40):
                data = np.full(self.N_BYTES, 0xFF, dtype=np.uint8)
                rng = np.random.Generator(np.random.PCG64(trial + 100))
                counts.append(apply_decay(data, ground, probability, rng))
            rates.append(np.mean(counts) / (8 * self.N_BYTES))
        assert rates[0] == pytest.approx(SPARSE_DECAY_THRESHOLD * 0.9, rel=0.05)
        assert rates[1] == pytest.approx(SPARSE_DECAY_THRESHOLD * 1.1, rel=0.05)

    @pytest.mark.parametrize("probability", [1e-12, 1e-19, 1e-300, 5e-324])
    def test_vanishing_probability_terminates(self, probability):
        """Tiny p saturates the geometric sampler at int64 max; the gap
        walk must still terminate (regression: the saturated gaps'
        cumsum wrapped negative and the walk never advanced)."""
        data = np.full(1 << 12, 0xFF, dtype=np.uint8)
        ground = np.zeros_like(data)
        rng = np.random.Generator(np.random.PCG64(5))
        flipped = apply_decay(data, ground, probability, rng)
        assert flipped <= 1
        assert int(np.unpackbits(data ^ np.uint8(0xFF)).sum()) == flipped


def _float32_edges(k: int) -> list[float]:
    """The float32 draw value k·2^-24 and its float64 neighbours."""
    value = k * 2.0**-24
    return [np.nextafter(value, 0.0), value, np.nextafter(value, 1.0)]


#: Flip probabilities where the dense draw's cut is easiest to misplace:
#: the sparse/dense switch itself, draw values k·2^-24 (a draw equal to
#: p does not flip) with their neighbours, and the largest double below
#: 1, which rounds to 1.0 when the comparison runs in float32.
_EDGE_PROBABILITIES = [
    SPARSE_DECAY_THRESHOLD,
    *(edge for k in (83_887, 276_390, 1 << 23, (1 << 24) - 1) for edge in _float32_edges(k)),
    float(np.nextafter(1.0, 0.0)),
]


class TestDenseDecayMatchesFloatDraw:
    """The dense path flips exactly the bits of one float32 draw per bit.

    ``legacy_apply_decay`` is that draw, frozen: ``rng.random(8n,
    float32) < p`` over the whole image.  The dense path must leave the
    same bytes, return the same count and leave the generator in the
    same state, whatever the image size, the CPUs it may use, the type
    of ``p`` (a Python float compares in float32, an ``np.float64`` in
    float64), and whether the generator holds a buffered 32-bit half.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        probability=st.one_of(
            st.floats(SPARSE_DECAY_THRESHOLD, 1.0, exclude_max=True),
            st.sampled_from(_EDGE_PROBABILITIES),
        ),
        as_numpy=st.booleans(),
        # From one byte to several 256 KiB draw blocks, on no boundary.
        n_bytes=st.one_of(st.integers(1, 5000), st.integers(1, (3 << 18) + 5000)),
        cpus=st.sampled_from((1, 2, 3)),
        buffered=st.booleans(),
        striped=st.booleans(),
    )
    # The transfer's −25 °C, 5 s flip probability over several blocks;
    # a buffered half carried across block boundaries; every draw flips.
    @example(21, 0.016474, False, (3 << 18) + 4097, 3, False, True)
    @example(5, 0.5, True, (1 << 20) + 64, 2, True, True)
    @example(7, float(np.nextafter(1.0, 0.0)), False, (1 << 18) + 1, 3, True, False)
    def test_matches_legacy_float_draw(
        self, seed, probability, as_numpy, n_bytes, cpus, buffered, striped
    ):
        """``striped`` passes the live path the ground state as stripes,
        the frozen draw always as the expanded byte array."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, n_bytes, dtype=np.uint8)
        stripes = GroundState(n_bytes, serial=seed, stripe_bytes=512)
        ground = stripes[:]
        p = np.float64(probability) if as_numpy else float(probability)
        live_rng = np.random.Generator(np.random.PCG64(seed))
        if buffered:
            live_rng.random(dtype=np.float32)  # leaves the high half buffered
        frozen_rng = np.random.Generator(np.random.PCG64())
        frozen_rng.bit_generator.state = live_rng.bit_generator.state
        live, frozen = data.copy(), data.copy()
        with mock.patch.object(util_cpus, "usable_cpus", lambda: cpus):
            flipped = apply_decay(live, stripes if striped else ground, p, live_rng)
        assert flipped == legacy_apply_decay(frozen, ground, p, frozen_rng)
        assert np.array_equal(live, frozen)
        assert live_rng.bit_generator.state == frozen_rng.bit_generator.state

    def test_more_threads_than_cores_under_fast_switching(self):
        """Each thread draws and writes its own blocks: with four threads
        on eight blocks and a 1 µs switch interval, the bytes and the
        count still match the single-stream draw."""
        n_bytes = (8 << 18) - 3
        data = np.full(n_bytes, 0xA5, dtype=np.uint8)
        ground = ground_state_pattern(n_bytes, serial=11)
        live, frozen = data.copy(), data.copy()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(util_cpus, "usable_cpus", lambda: 4):
                flipped = apply_decay(
                    live, ground, 0.03, np.random.Generator(np.random.PCG64(3))
                )
        finally:
            sys.setswitchinterval(interval)
        assert flipped == legacy_apply_decay(
            frozen, ground, 0.03, np.random.Generator(np.random.PCG64(3))
        )
        assert np.array_equal(live, frozen)

    def test_rejects_other_bit_generators(self):
        data = np.full(64, 0xFF, dtype=np.uint8)
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(TypeError):
            apply_decay(data, np.zeros_like(data), 0.1, rng)
        assert np.all(data == 0xFF)
        # No draw is needed at p = 1 or below the dense threshold.
        assert apply_decay(data, np.zeros_like(data), 1.0, rng) == 8 * 64
