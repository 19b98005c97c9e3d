"""Belief-propagation schedule decoding: channel, graph, round trips.

The round-trip property tests are the decode stage's acceptance bar in
miniature: expand a key, corrupt it at a swept BER, decode — byte-exact
recovery below the code's threshold, abstain-not-wrong above it, across
all three AES variants and asymmetric channels.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_decode import legacy_decode_schedules  # noqa: E402

from repro.attack.decode import (  # noqa: E402
    DEFAULT_DAMPING,
    RATE_CEIL,
    RATE_FLOOR,
    ChannelModel,
    DecodeState,
    block_key_plausibility,
    build_constraint_graph,
    byte_priors,
    clamp_rate,
    context_digest,
    decode_schedule,
    schedule_plausibility,
)
from repro.crypto.aes import expand_key, rounds_for  # noqa: E402
from repro.resilience.deadline import Deadline  # noqa: E402
from repro.resilience.errors import DeadlineExceededError  # noqa: E402


def _corrupt(schedule: bytes, rate: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bits = np.unpackbits(np.frombuffer(schedule, dtype=np.uint8))
    bits ^= rng.random(bits.size) < rate
    return np.packbits(bits)


def _master(key_bits: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, key_bits // 8, np.uint8))


class CountdownDeadline(Deadline):
    """Expires after a fixed number of .expired polls."""

    def __init__(self, checks: int) -> None:
        object.__setattr__(self, "expires_at", float("inf"))
        object.__setattr__(self, "total_seconds", 3600.0)
        object.__setattr__(self, "checks_left", checks)

    @property
    def expired(self) -> bool:
        left = self.checks_left
        object.__setattr__(self, "checks_left", left - 1)
        return left <= 0


def _same_result(a, b) -> bool:
    return (
        np.array_equal(a.tables, b.tables)
        and np.array_equal(a.converged, b.converged)
        and np.array_equal(a.syndrome_weight, b.syndrome_weight)
        and np.array_equal(a.table_iterations, b.table_iterations)
    )


class TestRateClamp:
    """Satellite regression: every rate entering a prior is clamped."""

    def test_zero_rate_is_floored(self):
        assert clamp_rate(0.0) == RATE_FLOOR

    def test_half_and_above_is_ceiled(self):
        assert clamp_rate(0.5) == RATE_CEIL
        assert clamp_rate(0.9) == RATE_CEIL

    def test_negative_rate_is_floored(self):
        assert clamp_rate(-0.2) == RATE_FLOOR

    def test_interior_rates_pass_through(self):
        assert clamp_rate(0.0123) == pytest.approx(0.0123)

    def test_symmetric_channel_clamps_its_rate(self):
        channel = ChannelModel.symmetric(0.0)
        assert channel.rate_to_ground == RATE_FLOOR
        p_at, p_off = channel.flip_probabilities(4)
        assert float(p_at.min()) >= RATE_FLOOR
        assert float(p_off.max()) <= RATE_CEIL

    def test_estimators_never_emit_zero_or_half(self):
        """estimate_decay_rate / pool_decay_rate land inside the clamp."""
        from repro.attack.adaptive import estimate_decay_rate, pool_decay_rate
        from repro.attack.keymine import keys_matrix, mine_scrambler_keys
        from repro.attack.sweep import synthetic_dump

        dump, _, _ = synthetic_dump(bit_error_rate=0.0, seed=5)
        estimate = estimate_decay_rate(image=dump)
        assert RATE_FLOOR <= estimate.rate <= RATE_CEIL
        pool = keys_matrix(mine_scrambler_keys(dump))
        assert RATE_FLOOR <= pool_decay_rate(pool) <= RATE_CEIL
        # A prior of literally zero must still come back floored.
        noise = estimate_decay_rate(prior_rate=0.0)
        assert noise.rate == RATE_FLOOR

    def test_channel_rejects_rates_outside_physical_range(self):
        with pytest.raises(ValueError):
            ChannelModel(rate_to_ground=0.6, rate_from_ground=0.01)
        with pytest.raises(ValueError):
            ChannelModel(rate_to_ground=0.01, rate_from_ground=-0.1)


class TestConstraintGraph:
    @pytest.mark.parametrize("key_bits", [128, 192, 256])
    def test_true_schedule_satisfies_every_check(self, key_bits):
        graph = build_constraint_graph(key_bits)
        schedule = np.frombuffer(expand_key(_master(key_bits, 7)), dtype=np.uint8)
        assert schedule.size == graph.n_vars == 16 * (rounds_for(key_bits) + 1)
        assert schedule_plausibility(schedule, None, key_bits) == graph.n_checks

    @pytest.mark.parametrize("key_bits", [128, 192, 256])
    def test_random_bytes_satisfy_almost_none(self, key_bits):
        graph = build_constraint_graph(key_bits)
        rng = np.random.default_rng(3)
        junk = rng.integers(0, 256, graph.n_vars, np.uint8)
        # Expectation is n_checks/256 ≈ 0.8; an order of magnitude of
        # slack keeps this deterministic across numpy versions.
        assert schedule_plausibility(junk, None, key_bits) <= 8

    def test_graph_is_cached(self):
        assert build_constraint_graph(256) is build_constraint_graph(256)

    def test_luts_are_mutually_inverse(self):
        graph = build_constraint_graph(128)
        rows = np.arange(graph.n_checks)[:, None]
        identity = np.arange(256, dtype=np.uint8)[None, :]
        assert (graph.inv_lut[rows, graph.fwd_lut.astype(np.intp)] == identity).all()

    def test_known_mask_excludes_checks(self):
        schedule = np.frombuffer(expand_key(_master(256, 7)), dtype=np.uint8)
        known = np.zeros(schedule.size, dtype=bool)
        assert schedule_plausibility(schedule, known, 256) == 0


class TestBlockKeyPlausibility:
    def test_true_slice_outscores_junk(self):
        schedule = np.frombuffer(expand_key(_master(256, 11)), dtype=np.uint8)
        rng = np.random.default_rng(4)
        rows = np.vstack(
            [schedule[64:128], rng.integers(0, 256, 64, np.uint8)]
        )
        scores = block_key_plausibility(rows, 64, 256)
        assert scores[0] > 20
        assert scores[1] <= 5

    def test_slice_with_no_contained_checks_scores_zero(self):
        scores = block_key_plausibility(np.zeros((2, 4), np.uint8), 0, 256)
        assert (scores == 0).all()


class TestChannelPriors:
    def test_clean_observation_prefers_observed_value(self):
        observed = np.array([0x3C, 0xA5], dtype=np.uint8)
        prior = byte_priors(observed, ChannelModel.symmetric(0.01))
        assert (prior.argmax(axis=-1) == observed).all()

    def test_unknown_bytes_get_flat_priors(self):
        observed = np.array([0x3C], dtype=np.uint8)
        prior = byte_priors(
            observed, ChannelModel.symmetric(0.01), known=np.array([False])
        )
        assert np.allclose(prior, prior[..., :1])

    def test_asymmetric_channel_distrusts_ground_reads(self):
        """At ground, the observed bit may have leaked there: p_flip is
        the to-ground rate; off ground it is the near-zero reverse."""
        channel = ChannelModel(rate_to_ground=0.2, rate_from_ground=0.001)
        p_at, p_off = channel.flip_probabilities(1)
        assert float(p_at[0, 0]) > float(p_off[0, 0])


class TestDecodeRoundTrip:
    @pytest.mark.parametrize("key_bits", [128, 192, 256])
    def test_byte_exact_below_threshold(self, key_bits):
        master = _master(key_bits, 21)
        observed = _corrupt(expand_key(master), 0.04, seed=21)
        result = decode_schedule(
            observed, key_bits, ChannelModel.symmetric(0.04)
        )
        assert not result.abstained()
        assert result.tables[0, : key_bits // 8].tobytes() == master

    @pytest.mark.parametrize("key_bits", [128, 256])
    def test_abstains_not_wrong_above_threshold(self, key_bits):
        master = _master(key_bits, 22)
        observed = _corrupt(expand_key(master), 0.35, seed=22)
        result = decode_schedule(
            observed, key_bits, ChannelModel.symmetric(0.35), max_iters=24
        )
        if result.abstained():
            assert result.syndrome_weight[0] > 0
        else:
            # Convergence IS the correctness certificate: a converged
            # table is a valid codeword, and at any decodable distance
            # the nearest codeword is the true one.
            assert result.tables[0, : key_bits // 8].tobytes() == master

    def test_erased_master_is_reconstructed_from_the_tail(self):
        """known=False over the whole first round: the graph alone must
        pull the key back out of the redundant tail."""
        master = _master(256, 23)
        schedule = np.frombuffer(expand_key(master), dtype=np.uint8)
        known = np.ones(schedule.size, dtype=bool)
        known[:16] = False
        observed = schedule.copy()
        observed[:16] = 0
        result = decode_schedule(
            observed, 256, ChannelModel.symmetric(0.001), known=known
        )
        assert not result.abstained()
        assert result.tables[0, :32].tobytes() == master

    def test_batch_decode_matches_single(self):
        """Nothing couples tables inside a batch: every row, junk
        included, decodes exactly as it would alone."""
        masters = [_master(256, s) for s in (31, 32)]
        rng = np.random.default_rng(31)
        observed = np.vstack(
            [_corrupt(expand_key(m), 0.03, seed=s) for s, m in enumerate(masters)]
            + [rng.integers(0, 256, 240, np.uint8) for _ in range(2)]
        )
        channel = ChannelModel.symmetric(0.03)
        result = decode_schedule(observed, 256, channel)
        assert result.converged.tolist() == [True, True, False, False]
        for row, master in zip(result.tables, masters):
            assert row[:32].tobytes() == master
        for index, table in enumerate(observed):
            assert _same_result(decode_schedule(table, 256, channel), result.table(index))

    def test_abstained_posteriors_stay_conflicted(self):
        """A converged decode is near-certain; an abstained one carries
        visibly conflicted posteriors — the signal confidence_score is
        recalibrated from."""
        master = _master(256, 33)
        converged = decode_schedule(
            _corrupt(expand_key(master), 0.03, seed=33),
            256,
            ChannelModel.symmetric(0.03),
        )
        rng = np.random.default_rng(33)
        junk = rng.integers(0, 256, 240, np.uint8)
        abstained = decode_schedule(
            junk, 256, ChannelModel.symmetric(0.03), max_iters=24
        )
        assert not converged.abstained()
        assert abstained.abstained()
        assert float(converged.certainty[0]) > float(abstained.certainty[0])
        assert float(converged.posterior_entropy[0]) < float(
            abstained.posterior_entropy[0]
        )

    @settings(max_examples=12, deadline=None)
    @given(
        key_bits=st.sampled_from([128, 192, 256]),
        rate=st.floats(min_value=0.0, max_value=0.05),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_decodable_channels_round_trip(self, key_bits, rate, seed):
        """expand → corrupt at BER ≤ 0.05 → decode → the exact master."""
        master = _master(key_bits, seed)
        observed = _corrupt(expand_key(master), rate, seed)
        result = decode_schedule(
            observed, key_bits, ChannelModel.symmetric(max(rate, 1e-4))
        )
        assert not result.abstained()
        assert result.tables[0, : key_bits // 8].tobytes() == master

    @settings(max_examples=8, deadline=None)
    @given(
        rate=st.floats(min_value=0.30, max_value=0.45),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_hopeless_channels_never_hallucinate(self, rate, seed):
        """Past the code's horizon the decoder abstains or is right —
        it never converges onto a *different* key."""
        master = _master(256, seed)
        observed = _corrupt(expand_key(master), rate, seed)
        result = decode_schedule(
            observed, 256, ChannelModel.symmetric(rate), max_iters=16
        )
        if not result.abstained():
            assert result.tables[0, :32].tobytes() == master

    @settings(max_examples=8, deadline=None)
    @given(
        to_ground=st.floats(min_value=0.01, max_value=0.08),
        from_ground=st.floats(min_value=0.0, max_value=0.004),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_asymmetric_channels_round_trip(
        self, to_ground, from_ground, seed
    ):
        """Ground-state decay: 1→0 flips at the decay rate, 0→1 nearly
        never.  The matched asymmetric prior must still round-trip."""
        master = _master(256, seed)
        bits = np.unpackbits(np.frombuffer(expand_key(master), dtype=np.uint8))
        rng = np.random.default_rng(seed)
        drop = (bits == 1) & (rng.random(bits.size) < to_ground)
        rise = (bits == 0) & (rng.random(bits.size) < from_ground)
        observed = np.packbits(bits ^ drop ^ rise)
        channel = ChannelModel(
            rate_to_ground=to_ground, rate_from_ground=max(from_ground, 1e-6)
        )
        result = decode_schedule(observed, 256, channel)
        assert not result.abstained()
        assert result.tables[0, :32].tobytes() == master


class TestDecodeStateRoundTrip:
    def test_state_dict_round_trips_bit_exactly(self):
        state = DecodeState(
            iteration=9,
            messages=np.random.default_rng(1).random((1, 4, 3, 256)),
            digest="abc",
        )
        back = DecodeState.from_dict(state.to_dict())
        assert back is not None
        assert back.iteration == 9 and back.digest == "abc"
        assert (back.messages == state.messages).all()

    def test_corrupt_payload_is_rejected(self):
        state = DecodeState(
            iteration=1, messages=np.zeros((1, 1, 3, 256)), digest="d"
        )
        record = state.to_dict()
        record["crc32"] ^= 1
        assert DecodeState.from_dict(record) is None
        assert DecodeState.from_dict({"iteration": 0}) is None

    def test_digest_pins_the_context(self):
        observed = np.zeros(240, dtype=np.uint8)
        channel = ChannelModel.symmetric(0.01)
        base = context_digest(observed, None, channel, 256, DEFAULT_DAMPING)
        other_table = context_digest(
            np.ones(240, dtype=np.uint8), None, channel, 256, DEFAULT_DAMPING
        )
        other_channel = context_digest(
            observed, None, ChannelModel.symmetric(0.02), 256, DEFAULT_DAMPING
        )
        assert base != other_table
        assert base != other_channel

    def test_interrupted_decode_resumes_byte_identically(self):
        """Deadline mid-decode → checkpointed messages → resume lands on
        the same table as an uninterrupted run (the --resume bar)."""
        master = _master(256, 41)
        observed = _corrupt(expand_key(master), 0.07, seed=41)
        channel = ChannelModel.symmetric(0.07)
        straight = decode_schedule(observed, 256, channel)
        assert not straight.abstained()
        assert straight.iterations >= 3

        with pytest.raises(DeadlineExceededError) as err:
            decode_schedule(
                observed, 256, channel, deadline=CountdownDeadline(1)
            )
        state = err.value.decode_state
        assert state is not None and state.iteration > 0

        resumed = decode_schedule(observed, 256, channel, state=state)
        assert not resumed.abstained()
        assert (resumed.tables == straight.tables).all()
        assert resumed.tables[0, :32].tobytes() == master

    def test_mixed_batch_expiry_resumes_identically(self):
        """2 true and 4 junk tables at BER 0.04, cut by a deadline once
        the junk has frozen but the true tables still decode: the one
        batch checkpoint carries frozen and live tables alike, and the
        resume finishes exactly as a straight run."""
        from repro.attack.decode import _SweepSchedule

        rng = np.random.default_rng(91)
        observed = np.vstack(
            [_corrupt(expand_key(_master(256, 91 + i)), 0.04, 91 + i) for i in range(2)]
            + [rng.integers(0, 256, 240, np.uint8) for _ in range(4)]
        )
        channel = ChannelModel.symmetric(0.04)
        straight = decode_schedule(observed, 256, channel)
        assert straight.converged[:2].all() and not straight.converged[2:].any()

        with pytest.raises(DeadlineExceededError) as err:
            decode_schedule(observed, 256, channel, deadline=CountdownDeadline(3))
        state = err.value.decode_state
        assert state.messages.shape[0] == observed.shape[0]
        n_checks = build_constraint_graph(256).n_checks
        frozen = _SweepSchedule.from_dict(state.sched, 6, n_checks).frozen
        assert frozen[2:].all() and not frozen[:2].any()

        resumed = decode_schedule(observed, 256, channel, state=state)
        assert _same_result(straight, resumed)


class TestWatchdogHeartbeat:
    def test_progress_hook_fires_during_long_decodes(self):
        """Satellite: the decode loop must beat the watchdog — sweeps
        are slow enough that a silent loop reads as a stalled worker."""
        beats = []
        observed = _corrupt(expand_key(_master(256, 51)), 0.06, seed=51)
        decode_schedule(
            observed,
            256,
            ChannelModel.symmetric(0.06),
            on_progress=lambda: beats.append(1),
            beat_every=1,
        )
        assert len(beats) >= 3

    def test_stagnation_abstains_early(self):
        """An undecodable table stops at the stall window, not at
        max_iters — the wall-clock guard behind the abstain path."""
        rng = np.random.default_rng(6)
        junk = rng.integers(0, 256, 240, np.uint8)
        result = decode_schedule(
            junk,
            256,
            ChannelModel.symmetric(0.05),
            max_iters=72,
            stall_sweeps=6,
        )
        assert result.abstained()
        assert result.iterations < 72


class TestSweepScheduling:
    """The residual-scheduled rewrite's own contracts."""

    def test_hopeless_junk_abstains_at_the_probe(self):
        """A fully observed random table freezes right after the probe
        sweeps — not after dribbling to the stagnation limit."""
        from repro.attack.decode import _HOPELESS_PROBE_SWEEPS

        rng = np.random.default_rng(61)
        junk = rng.integers(0, 256, 240, np.uint8)
        result = decode_schedule(junk, 256, ChannelModel.symmetric(0.04))
        assert result.abstained()
        assert int(result.table_iterations[0]) == _HOPELESS_PROBE_SWEEPS

    def test_hopeless_triage_spares_erased_tables(self):
        """A table with a big erased span holds its syndrome high for
        honest reasons; triage must not abstain it."""
        master = _master(256, 62)
        observed = _corrupt(expand_key(master), 0.01, seed=62)
        known = np.ones(observed.size, dtype=bool)
        known[:120] = False  # half the schedule erased
        observed[:120] = 0
        result = decode_schedule(
            observed, 256, ChannelModel.symmetric(0.01), known=known
        )
        assert not result.abstained()
        assert result.tables[0, :32].tobytes() == master

    def test_near_codeword_tables_outlast_stagnation(self):
        """Regression (hypothesis-found): AES-128 at BER 0.03125 sits at
        syndrome 1–2 for more than the stall window before snapping to
        the codeword at sweep 13.  The stagnation abstain must not fire
        inside the near-codeword band."""
        master = _master(128, 3053)
        observed = _corrupt(expand_key(master), 0.03125, seed=3053)
        result = decode_schedule(
            observed, 128, ChannelModel.symmetric(0.03125)
        )
        assert not result.abstained()
        assert result.tables[0, :16].tobytes() == master

    def test_scheduled_f32_matches_dense_f64_outcomes(self):
        """The fast path may skip work and round messages, but wherever
        either path converges both must land on the same bytes.  The
        dense float64 path is the decoder frozen in
        :mod:`benchmarks.legacy_decode`, run per table as the decode
        harness runs it."""
        observed = np.vstack(
            [
                _corrupt(expand_key(_master(256, s)), 0.035, seed=s)
                for s in (63, 64, 65)
            ]
        )
        channel = ChannelModel.symmetric(0.035)
        fast = decode_schedule(observed, 256, channel)
        dense = [legacy_decode_schedules(table, 256, channel) for table in observed]
        assert fast.converged.tolist() == [bool(d.converged[0]) for d in dense]
        for index, reference in enumerate(dense):
            if reference.converged[0]:
                assert np.array_equal(fast.tables[index], reference.tables[0])

    def test_sweep_telemetry_reports_scheduling_savings(self):
        """checks_updated (work done) must undercut checks_dense (work a
        dense sweep would have done) once parts of the graph go quiet —
        the near-codeword band is where residual scheduling pays, and
        these are the counters the adaptive report surfaces."""
        observed = _corrupt(expand_key(_master(128, 3053)), 0.03125, seed=3053)
        result = decode_schedule(
            observed, 128, ChannelModel.symmetric(0.03125)
        )
        assert result.checks_dense > 0
        assert 0 < result.checks_updated < result.checks_dense
