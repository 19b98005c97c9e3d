"""Belief-propagation schedule decoding: channel, graph, round trips.

The round-trip property tests are the decode stage's acceptance bar in
miniature: expand a key, corrupt it at a swept BER, decode — byte-exact
recovery below the code's threshold, abstain-not-wrong above it, across
all three AES variants and asymmetric channels.
"""

import base64
import dataclasses
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.legacy_decode import (  # noqa: E402
    legacy_decode_schedules,
    serial_decode_schedule,
)

from repro.attack.decode import (  # noqa: E402
    DEFAULT_DAMPING,
    DEFAULT_DECODE_ITERS,
    RATE_CEIL,
    RATE_FLOOR,
    ChannelModel,
    DecodeResult,
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
from repro.resilience.checkpoint import DecodeStateStore  # noqa: E402
from repro.resilience.deadline import Deadline  # noqa: E402
from repro.resilience.errors import DeadlineExceededError  # noqa: E402
from repro.util import cpus as util_cpus  # noqa: E402


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


def decode_batch(
    seed: int,
    key_bits: int,
    n_tables: int,
    junk_share: float,
    rate: float,
    to_ground: float,
    erase_share: float | None,
    erase_frac: float,
) -> tuple[np.ndarray, ChannelModel, np.ndarray | None]:
    """``(observed, channel, known)``: planted schedules decayed through
    an asymmetric channel (ground state zero) mixed with junk tables,
    with an erased span of up to half the table in a share of them,
    handed over through ``known`` (``erase_share=None`` hands over no
    mask at all)."""
    rng = np.random.default_rng(seed)
    channel = ChannelModel(
        rate_to_ground=max(rate, 1e-4) * to_ground,
        rate_from_ground=max(rate, 1e-4),
    )
    tables = []
    for _ in range(n_tables):
        if rng.random() < junk_share:
            tables.append(rng.integers(0, 256, 16 * (rounds_for(key_bits) + 1), dtype=np.uint8))
            continue
        bits = np.unpackbits(np.frombuffer(expand_key(rng.bytes(key_bits // 8)), np.uint8))
        flip = np.where(bits == 1, channel.rate_to_ground, channel.rate_from_ground)
        tables.append(np.packbits(bits ^ (rng.random(bits.size) < flip)))
    observed = np.stack(tables)
    known = None
    if erase_share is not None:
        n_bytes = observed.shape[1]
        known = np.ones(observed.shape, dtype=bool)
        for row in np.flatnonzero(rng.random(n_tables) < erase_share):
            span = int(erase_frac * n_bytes)
            lo = int(rng.integers(0, n_bytes - span + 1))
            known[row, lo : lo + span] = False
        observed[~known] = 0
    return observed, channel, known


#: The :class:`DecodeResult` fields that count the work of one call
#: rather than describe the decode.
WORK_COUNTERS = ("checks_updated", "checks_dense")


def assert_same_decode(got: DecodeResult, want: DecodeResult, skip=()) -> None:
    """Every field but ``skip`` bit for bit, dtypes included."""
    for field in dataclasses.fields(DecodeResult):
        if field.name in skip:
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            assert a.shape == b.shape, field.name
        else:
            assert a == b, field.name


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


def _mixed_batch(seed: int, n_true: int, n_junk: int, rate: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.vstack(
        [_corrupt(expand_key(_master(256, seed + i)), rate, seed + i) for i in range(n_true)]
        + [rng.integers(0, 256, 240, np.uint8) for _ in range(n_junk)]
    )


class TestResumeProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        key_bits=st.sampled_from((128, 192, 256)),
        n_tables=st.integers(1, 12),
        junk_share=st.floats(0.0, 1.0),
        rate=st.floats(0.0, 0.06),
        to_ground=st.floats(0.5, 2.0),
        erase_share=st.sampled_from((None, 0.0, 0.3, 1.0)),
        erase_frac=st.floats(0.0, 0.5),
        cut=st.integers(0, 2**16),
    )
    # A junk table with a quarter erased, cut after 2 polls: the float32
    # log of the checkpoint's rounded probabilities changed 6 messages.
    @example(0, 128, 1, 1.0, 0.03125, 1.0, 1.0, 0.25, 2)
    # Four junk tables with half of each erased, cut after 6 polls: the
    # junk stalls through the stagnation counter, and counting the cut
    # sweep twice froze it one sweep early.
    @example(0, 128, 4, 1.0, 0.0, 1.0, 1.0, 0.5, 6)
    def test_resume_matches_the_straight_run(
        self, seed, key_bits, n_tables, junk_share, rate, to_ground, erase_share,
        erase_frac, cut,
    ):
        """A decode cut by a deadline at any poll and resumed from its
        checkpoint returns the straight run's result, every field bit
        for bit but the work counters."""
        observed, channel, known = decode_batch(
            seed, key_bits, n_tables, junk_share, rate, to_ground, erase_share, erase_frac
        )
        straight = decode_schedule(observed, key_bits, channel, known=known)
        if straight.iterations == 0:
            return
        # One poll per sweep the straight run made.
        checks = cut % straight.iterations
        with pytest.raises(DeadlineExceededError) as err:
            decode_schedule(
                observed, key_bits, channel, known=known, deadline=CountdownDeadline(checks)
            )
        state = err.value.decode_state
        assert state.iteration == checks
        resumed = decode_schedule(observed, key_bits, channel, known=known, state=state)
        assert_same_decode(resumed, straight, skip=WORK_COUNTERS)


def _recording_hook(full: DecodeResult, rejected):
    """``(accept, asked)`` for a list decode of ``full``'s batch.

    ``accept`` takes every converged table not in ``rejected``.  Each
    call checks what it is shown against ``full``, the lockstep decode
    of the batch: the table is one that converged there, with its final
    row.  ``asked`` records the indices offered, in order."""
    asked: list[int] = []

    def accept(index: int, table: np.ndarray) -> bool:
        assert full.converged[index], index
        assert table.tobytes() == full.tables[index].tobytes(), index
        asked.append(index)
        return index not in rejected

    return accept, asked


def _first_accepted(full: DecodeResult, rejected) -> int | None:
    """The lockstep decode's first converged table not in ``rejected``."""
    taken = [index for index in np.flatnonzero(full.converged) if index not in rejected]
    return int(taken[0]) if taken else None


def assert_list_decode(hooked, full, first, want, skip=()) -> None:
    """``hooked``, a list decode, against the lockstep decode ``full``.

    Every row a list decode settles is the lockstep row, and a row it
    cuts ran no sweep, or fewer than there; a row cut before its first
    sweep still holds the sweep-0 hard decisions of ``first``.  When
    nothing is accepted nothing is cut, and every field but the
    batch's sweep count (and ``skip``) is the lockstep decode's."""
    if want is None:
        assert hooked.cut is None
        assert_same_decode(hooked, full, skip=("iterations", *skip))
        return
    cut = hooked.cut
    assert not cut[: want + 1].any()
    for index in np.flatnonzero(~cut):
        assert_same_decode(hooked.table(index), full.table(index))
    ran = hooked.table_iterations[cut]
    assert ((ran < full.table_iterations[cut]) | (ran == 0)).all()
    unstarted = cut & (hooked.table_iterations == 0)
    assert hooked.tables[unstarted].tobytes() == first.tables[unstarted].tobytes()


class TestAcceptExit:
    """``accept`` makes a list decode: tables start in batch order a
    window at a time, each counting its own sweeps, and the decode ends
    at the first converged table it takes, with that table's row, and
    every row it settled, exactly as the lockstep decode has it.  A
    table at the sweep cap freezes, so it holds back no later table."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        key_bits=st.sampled_from((128, 192, 256)),
        n_tables=st.integers(2, 25),
        junk_share=st.floats(0.0, 1.0),
        rate=st.floats(0.0, 0.06),
        to_ground=st.floats(0.5, 2.0),
        erase_share=st.sampled_from((None, 0.0, 0.3, 1.0)),
        erase_frac=st.floats(0.0, 0.5),
        rejected=st.sets(st.integers(0, 24)),
        max_iters=st.sampled_from((6, DEFAULT_DECODE_ITERS)),
        cpus=st.integers(1, 4),
        cut=st.integers(0, 2**16),
        cut_hooked=st.booleans(),
    )
    # Tables 0, 1, 3 and 5 converge at sweep 3, table 2 at sweep 6: with
    # 0 and 1 refused, table 3 may not be offered before table 2 freezes.
    # The unhooked cut at sweep 7 resumes past the accepting sweep.
    @example(0, 128, 6, 0.3, 0.045, 1.0, 0.3, 0.3, {0, 1}, DEFAULT_DECODE_ITERS, 2, 4, True)
    @example(0, 128, 6, 0.3, 0.045, 1.0, 0.3, 0.3, {0, 1}, DEFAULT_DECODE_ITERS, 2, 7, False)
    # The same batch capped at 6 sweeps: table 2 freezes at the cap
    # unconverged, and table 3 is accepted after it.
    @example(0, 128, 6, 0.3, 0.045, 1.0, 0.3, 0.3, {0, 1}, 6, 1, 2, True)
    def test_accepts_the_full_decodes_first_accepted_table(
        self, seed, key_bits, n_tables, junk_share, rate, to_ground, erase_share,
        erase_frac, rejected, max_iters, cpus, cut, cut_hooked,
    ):
        observed, channel, known = decode_batch(
            seed, key_bits, n_tables, junk_share, rate, to_ground, erase_share, erase_frac
        )
        args = (observed, key_bits, channel)
        kwargs = {"known": known, "max_iters": max_iters}
        full = decode_schedule(*args, **kwargs)
        first = decode_schedule(*args, known=known, max_iters=0)
        want = _first_accepted(full, rejected)

        accept, asked = _recording_hook(full, rejected)
        with mock.patch.object(util_cpus, "usable_cpus", lambda: cpus):
            hooked = decode_schedule(*args, **kwargs, accept=accept)
        assert asked == sorted(set(asked))
        assert (asked[-1] if asked and asked[-1] not in rejected else None) == want
        assert_list_decode(hooked, full, first, want)
        if want is not None:
            serial = serial_decode_schedule(*args, **kwargs)
            assert_same_decode(hooked.table(want), serial.table(want))

        # Cut by a deadline at any poll, with or without the hook, and
        # resumed with it on another CPU count: the same table, the same
        # settled rows.  The restored sweep is offered too, so a resume
        # past the accepting sweep of a decode cut without the hook
        # accepts at once.
        polls = hooked.iterations if cut_hooked else full.iterations
        if polls == 0:
            return
        checks = cut % polls
        accept, asked = _recording_hook(full, rejected)
        with mock.patch.object(util_cpus, "usable_cpus", lambda: cpus):
            with pytest.raises(DeadlineExceededError) as err:
                decode_schedule(
                    *args, **kwargs, accept=accept if cut_hooked else None,
                    deadline=CountdownDeadline(checks),
                )
        state = err.value.decode_state
        assert state.iteration == checks
        assert all(index in rejected for index in asked)
        accept, asked = _recording_hook(full, rejected)
        with mock.patch.object(util_cpus, "usable_cpus", lambda: cpus % 4 + 1):
            resumed = decode_schedule(*args, **kwargs, state=state, accept=accept)
        assert (asked[-1] if asked and asked[-1] not in rejected else None) == want
        assert_list_decode(resumed, full, first, want, skip=WORK_COUNTERS)

    def test_a_lockstep_record_resumes_a_list_decode(self):
        """A record without per-table sweep counts (every lockstep
        record, and every record written before list decodes kept
        them) has every live table at the record's sweep.  A list
        decode resumes it from there, not from sweep 0."""
        observed = _mixed_batch(73, 4, 12, 0.06)
        channel = ChannelModel.symmetric(0.06)
        full = decode_schedule(observed, 256, channel)
        with pytest.raises(DeadlineExceededError) as err:
            decode_schedule(observed, 256, channel, deadline=CountdownDeadline(3))
        state = err.value.decode_state
        assert "sweeps" not in state.sched

        def refuse(index: int, table: np.ndarray) -> bool:
            return False

        # Cut again at its first poll, the resumed list decode writes
        # back the record it resumed.
        with pytest.raises(DeadlineExceededError) as again:
            decode_schedule(
                observed, 256, channel, state=state, accept=refuse,
                deadline=CountdownDeadline(0),
            )
        assert again.value.decode_state.to_dict() == state.to_dict()
        resumed = decode_schedule(observed, 256, channel, state=state, accept=refuse)
        assert_same_decode(resumed, full, skip=WORK_COUNTERS)
        accept, asked = _recording_hook(full, set())
        taken = decode_schedule(observed, 256, channel, state=state, accept=accept)
        assert asked == [_first_accepted(full, set())]
        assert_same_decode(taken.table(asked[0]), full.table(asked[0]))

    def test_a_list_decode_records_each_started_tables_sweeps(self):
        """Cut while tables wait for the window, a list decode records
        the sweeps of each table it started; resumed with or without
        the hook, every table settles as in the lockstep decode."""
        observed = _mixed_batch(73, 4, 12, 0.06)
        channel = ChannelModel.symmetric(0.06)
        full = decode_schedule(observed, 256, channel)

        def refuse(index: int, table: np.ndarray) -> bool:
            return False

        with mock.patch.object(util_cpus, "usable_cpus", lambda: 2):
            with pytest.raises(DeadlineExceededError) as err:
                decode_schedule(
                    observed, 256, channel, accept=refuse, deadline=CountdownDeadline(5)
                )
        state = err.value.decode_state
        sweeps = state.sched["sweeps"]
        # Tables 0 and 1 froze at sweep 4, and the window then started
        # tables 2 to 5.
        assert sweeps == [4, 4, 1, 1, 1, 1]
        for hook in (refuse, None):
            resumed = decode_schedule(observed, 256, channel, state=state, accept=hook)
            assert_same_decode(resumed, full, skip=("iterations", *WORK_COUNTERS))


class TestDecodeStateShape:
    """A decode state whose CRC holds but whose scheduling record is
    missing or shaped for another batch is rejected as a whole: the
    decode starts from sweep 0 and returns the straight run, work
    counters included, instead of resuming off its trajectory."""

    N_CHECKS = build_constraint_graph(256).n_checks

    @pytest.mark.parametrize(
        "key, size",
        [
            ("frozen_b64", 1), ("frozen_b64", 3),
            ("converged_b64", 1), ("converged_b64", 3),
            ("dirty_b64", 16 * N_CHECKS // 8 - 1), ("dirty_b64", 16 * N_CHECKS // 8 + 1),
            ("pending_b64", 4 * (16 * N_CHECKS - 1)), ("pending_b64", 4 * (16 * N_CHECKS + 1)),
        ],
    )
    def test_misshapen_records_raise(self, key, size):
        from repro.attack.decode import _SweepSchedule

        record = _SweepSchedule(16, self.N_CHECKS).to_dict()
        raw = base64.b64decode(record[key])
        record[key] = base64.b64encode(raw[:size].ljust(size, b"\0")).decode()
        with pytest.raises(ValueError):
            _SweepSchedule.from_dict(record, 16, self.N_CHECKS)

    @pytest.mark.parametrize(
        "sweeps", ["2", None, [2.0], [-1], [True], [[2]], [2] * 17, [2] * 3],
    )
    def test_misshapen_sweep_counts_raise(self, sweeps):
        """A list decode's per-table sweep counts: one non-negative int
        per started table, and every frozen table started (here tables
        0 to 3 froze)."""
        from repro.attack.decode import _SweepSchedule

        sched = _SweepSchedule(16, self.N_CHECKS)
        sched.frozen[:4] = True
        sched.sweeps = np.full(5, 2)
        record = sched.to_dict()
        assert _SweepSchedule.from_dict(record, 16, self.N_CHECKS).sweeps.tolist() == [2] * 5
        record["sweeps"] = sweeps
        with pytest.raises(ValueError):
            _SweepSchedule.from_dict(record, 16, self.N_CHECKS)

    def test_short_masks_restart_from_sweep_zero(self, tmp_path):
        """Regression: a 16-table state with its frozen and converged
        masks cut to 8 bits used to resume into 8 ``converged`` flags,
        and then with every check dirty, which froze tables at other
        sweeps than the straight run."""
        # Cut at sweep 3: the junk froze at sweep 2, the true tables
        # decode until sweeps 4 and 5.
        observed = _mixed_batch(73, 4, 12, 0.06)
        channel = ChannelModel.symmetric(0.06)
        straight = decode_schedule(observed, 256, channel)
        with pytest.raises(DeadlineExceededError) as err:
            decode_schedule(observed, 256, channel, deadline=CountdownDeadline(3))
        state = err.value.decode_state
        assert state.sched["frozen_b64"] != state.sched["converged_b64"]
        record = state.to_dict()
        for key in ("frozen_b64", "converged_b64"):
            record["sched"][key] = base64.b64encode(
                base64.b64decode(record["sched"][key])[:1]
            ).decode()
        # Through the sidecar, so the cut record carries a valid CRC.
        DecodeStateStore(tmp_path / "decode").save("cut", record)
        cut = DecodeState.from_dict(DecodeStateStore(tmp_path / "decode").load("cut"))
        assert cut is not None and cut.sched == record["sched"]

        assert_same_decode(decode_schedule(observed, 256, channel, state=cut), straight)

    @pytest.mark.parametrize("seed, polls", [(29, 4), (11, 9)])
    def test_a_state_without_a_scheduling_record_restarts(self, seed, polls):
        """Messages alone cannot continue the straight run: resuming
        them with every check dirty froze tables at other sweeps, and
        after 9 polls at seed 11 moved the posteriors too."""
        observed = _mixed_batch(seed, 4, 12, 0.06)
        channel = ChannelModel.symmetric(0.06)
        straight = decode_schedule(observed, 256, channel)
        with pytest.raises(DeadlineExceededError) as err:
            decode_schedule(observed, 256, channel, deadline=CountdownDeadline(polls))
        state = err.value.decode_state
        bare = DecodeState(state.iteration, state.messages, state.digest)
        assert_same_decode(decode_schedule(observed, 256, channel, state=bare), straight)


class TestDecodeThreads:
    def test_no_thread_outlives_a_decode(self):
        """The sweep pool lives for one call: it is gone after a decode
        that returns and after one that a deadline cuts short."""
        observed = _mixed_batch(81, 2, 6, 0.04)
        channel = ChannelModel.symmetric(0.04)
        before = set(threading.enumerate())
        pooled = []

        def beat():
            pooled.append(len(threading.enumerate()) > len(before))

        with mock.patch.object(util_cpus, "usable_cpus", lambda: 4):
            decode_schedule(observed, 256, channel, on_progress=beat, beat_every=1)
            with pytest.raises(DeadlineExceededError):
                decode_schedule(
                    observed, 256, channel, deadline=CountdownDeadline(2),
                    on_progress=beat, beat_every=1,
                )
        assert pooled and all(pooled)
        assert set(threading.enumerate()) == before

    def test_more_threads_than_cores_under_fast_switching(self):
        """Four threads on a 1 µs switch interval share each sweep's
        chunks and refresh: every message still lands where the serial
        decoder puts it."""
        observed = _mixed_batch(85, 3, 9, 0.05)
        channel = ChannelModel.symmetric(0.05)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(util_cpus, "usable_cpus", lambda: 4):
                live = decode_schedule(observed, 256, channel)
        finally:
            sys.setswitchinterval(interval)
        serial = serial_decode_schedule(observed, 256, channel)
        assert _same_result(live, serial)
        assert live.posterior_entropy.tobytes() == serial.posterior_entropy.tobytes()
        assert live.converged[:3].all()


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
