"""Decay-adaptive recovery: estimation, budget ladder, triage, engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.adaptive import (
    CLASSICAL_CEILING_RATE,
    STAGE_ORDER,
    STRICT_STAGE,
    AdaptiveBudget,
    AdaptiveRecoveryEngine,
    BudgetStage,
    DecayEstimate,
    estimate_decay_rate,
    pool_decay_rate,
    stage_for_rate,
    triage_regions,
)
from repro.attack.aes_search import (
    AesKeySearch,
    RecoveredAesKey,
    ScheduleHit,
    confidence_score,
)
from repro.attack.keymine import CandidateKey, keys_matrix, mine_scrambler_keys
from repro.attack.sweep import synthetic_dump
from repro.crypto.aes import schedule_bytes
from repro.dram.image import MemoryImage
from repro.resilience.errors import (
    MixedScramblerRegionError,
    RegionQuarantineError,
    TornRegionError,
)
from repro.util.blocks import BLOCK_SIZE


class TestDecayEstimation:
    @pytest.mark.parametrize("true_rate", [0.004, 0.012, 0.020])
    def test_litmus_mismatch_estimator_tracks_the_channel(self, true_rate):
        dump, _, _ = synthetic_dump(bit_error_rate=true_rate, seed=5)
        estimate = estimate_decay_rate(image=dump)
        assert estimate.source == "litmus-mismatch"
        assert estimate.rate == pytest.approx(true_rate, rel=0.35)

    def test_clean_dump_estimates_near_zero(self):
        dump, _, _ = synthetic_dump(bit_error_rate=0.0, seed=5)
        estimate = estimate_decay_rate(image=dump)
        assert estimate.rate < 0.001

    def test_prior_when_nothing_measurable(self):
        rng = np.random.default_rng(3)
        noise = MemoryImage(rng.integers(0, 256, 64 * BLOCK_SIZE, np.uint8).tobytes())
        estimate = estimate_decay_rate(image=noise, prior_rate=0.007)
        assert estimate.source == "prior"
        assert estimate.rate == 0.007
        assert estimate.sample_bits == 0

    def test_mined_support_beats_image(self):
        dump, _, _ = synthetic_dump(bit_error_rate=0.01, seed=5)
        candidates = [
            CandidateKey(bytes(64), count=4, litmus_mismatch_bits=400, support_bits=40_000)
        ]
        estimate = estimate_decay_rate(candidates=candidates, image=dump)
        assert estimate.source == "mined-support"
        assert estimate.rate == pytest.approx(0.01)

    def test_reference_map_wins_over_everything(self):
        from repro.analysis.decay_map import decay_map

        dump, _, _ = synthetic_dump(bit_error_rate=0.008, seed=5)
        reference, _, _ = synthetic_dump(bit_error_rate=0.0, seed=5)
        mapped = decay_map(reference, dump)
        estimate = estimate_decay_rate(reference_map=mapped, image=dump)
        assert estimate.source == "decay-map"
        assert estimate.rate == pytest.approx(0.008, rel=0.25)

    def test_pool_decay_rate_zero_for_clean_pool(self):
        dump, _, _ = synthetic_dump(bit_error_rate=0.0, seed=5)
        pool = keys_matrix(mine_scrambler_keys(dump))
        assert pool_decay_rate(pool) == pytest.approx(0.0, abs=1e-6)

    def test_decayed_pool_carries_residual_rate(self):
        dump, _, _ = synthetic_dump(bit_error_rate=0.012, seed=5)
        pool = keys_matrix(mine_scrambler_keys(dump, tolerance_bits=32))
        assert pool_decay_rate(pool) > 0.005

    def test_estimate_validates_range(self):
        with pytest.raises(ValueError):
            DecayEstimate(rate=0.5, source="prior", sample_bits=0)


class TestBudgetLadder:
    def test_strict_stage_matches_the_papers_constants(self):
        assert STRICT_STAGE.litmus_tolerance_bits == 16
        assert STRICT_STAGE.verify_tolerance_bits == 16
        assert STRICT_STAGE.schedule_vote is False

    def test_ladder_starts_strict_and_widens(self):
        estimate = DecayEstimate(rate=0.015, source="prior", sample_bits=0)
        stages = AdaptiveBudget(estimate).stages()
        assert stages[0] == STRICT_STAGE
        tolerances = [s.litmus_tolerance_bits for s in stages]
        assert tolerances == sorted(tolerances)
        assert stages[-1].litmus_tolerance_bits > 16
        assert all(s.schedule_vote for s in stages[1:])

    def test_budgets_scale_with_rate(self):
        low = stage_for_rate(0.004)
        high = stage_for_rate(0.02)
        assert high.litmus_tolerance_bits > low.litmus_tolerance_bits
        assert high.verify_tolerance_bits > low.verify_tolerance_bits
        assert high.accept_mismatch_fraction > low.accept_mismatch_fraction

    def test_total_work_trims_the_ladder(self):
        estimate = DecayEstimate(rate=0.02, source="prior", sample_bits=0)
        assert len(AdaptiveBudget(estimate, total_work=1).stages()) == 1
        assert len(AdaptiveBudget(estimate, total_work=6).stages()) == 2
        assert len(AdaptiveBudget(estimate, total_work=7).stages()) == 3

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.floats(min_value=0.0, max_value=0.06),
        total_work=st.integers(min_value=1, max_value=12),
        max_stage=st.sampled_from((None, *STAGE_ORDER)),
    )
    def test_ladder_cost_never_exceeds_the_work_budget(self, rate, total_work, max_stage):
        """Rungs run in STAGE_ORDER order — ``calibrated`` only up to
        the classical ceiling, nothing past ``max_stage``.  After its
        first rung the ladder's cumulative cost stays within
        ``total_work``, so the engine, which runs a subsequence of it,
        never needs a budget check of its own; and the budget cuts a
        rung only together with every rung after it."""
        estimate = DecayEstimate(rate=rate, source="prior", sample_bits=0)
        whole = AdaptiveBudget(estimate, total_work=100, max_stage=max_stage).stages()
        top = STAGE_ORDER.index(max_stage) if max_stage is not None else len(STAGE_ORDER)
        assert [s.name for s in whole] == [
            name
            for index, name in enumerate(STAGE_ORDER)
            if index <= top and (name != "calibrated" or rate <= CLASSICAL_CEILING_RATE)
        ]
        stages = AdaptiveBudget(estimate, total_work=total_work, max_stage=max_stage).stages()
        assert stages == whole[: len(stages)]
        assert stages[0] == STRICT_STAGE
        spent = stages[0].cost
        for stage in stages[1:]:
            spent += stage.cost
            assert spent <= total_work
        if len(stages) < len(whole):
            assert spent + whole[len(stages)].cost > total_work

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            BudgetStage("bad", 16, 16, 16, 0.6, False)
        with pytest.raises(ValueError):
            BudgetStage("bad", -1, 16, 16, 0.05, False)


class TestConfidenceCalibration:
    def test_residual_above_the_channel_costs_confidence(self):
        explained = confidence_score(0.01, decay_rate=0.01)
        surprising = confidence_score(0.05, decay_rate=0.01)
        assert surprising < explained

    def test_worse_channel_never_raises_confidence(self):
        scores = [
            confidence_score(rate, decay_rate=rate)
            for rate in (0.002, 0.008, 0.012, 0.016, 0.020)
        ]
        assert scores == sorted(scores, reverse=True)

    def test_bounded_in_unit_interval(self):
        assert 0.0 <= confidence_score(0.4, decay_rate=0.0, coverage=0.1) <= 1.0
        assert confidence_score(0.0, decay_rate=0.0) == pytest.approx(1.0)


class TestTriage:
    def test_healthy_dump_is_one_extent(self):
        dump, _, _ = synthetic_dump(bit_error_rate=0.002, seed=5)
        candidates = mine_scrambler_keys(dump)
        extents, quarantined = triage_regions(dump, candidates, 16, 16)
        assert quarantined == []
        assert extents == [(0, len(dump))]

    def test_torn_region_is_quarantined(self):
        dump, _, _ = synthetic_dump(bit_error_rate=0.002, seed=5)
        region = 256 * 1024
        torn = dump.data[:region] + b"\xaa" * region + dump.data[2 * region :]
        image = MemoryImage(torn)
        candidates = mine_scrambler_keys(image)
        extents, quarantined = triage_regions(image, candidates, 16, 16)
        assert len(quarantined) == 1
        error = quarantined[0]
        assert isinstance(error, TornRegionError)
        assert error.offset == region and error.length == region
        assert error.to_dict()["reason"] == "torn"
        covered = sum(length for _, length in extents)
        assert covered == len(image) - region

    def test_foreign_keystream_is_flagged_mixed(self):
        dump, _, _ = synthetic_dump(bit_error_rate=0.002, seed=5)
        other, _, _ = synthetic_dump(bit_error_rate=0.002, seed=99)
        region = 256 * 1024
        # A coherent keystream from a different scrambler seed covers
        # the head: litmus-passing blocks that merge with each other
        # but with nothing in the dump-wide pool.
        foreign = mine_scrambler_keys(other)[0].key
        stitched = MemoryImage(foreign * (region // len(foreign)) + dump.data[region:])
        candidates = mine_scrambler_keys(MemoryImage(bytes(dump.data[region:])))
        _, quarantined = triage_regions(stitched, candidates, 16, 16)
        mixed = [e for e in quarantined if isinstance(e, MixedScramblerRegionError)]
        assert len(mixed) == 1
        assert mixed[0].offset == 0 and mixed[0].length == region

    def test_diagnostics_are_structured(self):
        error = TornRegionError(0x1000, 0x2000, "constant fill")
        record = error.to_dict()
        assert record["offset"] == 0x1000 and record["length"] == 0x2000
        assert isinstance(error, RegionQuarantineError)

    def test_unlimited_mining_splices_every_healthy_extent(self):
        """Without a scan limit the miner reads the whole dump, so once a
        region is quarantined the spliced mining image must keep every
        healthy byte, not stop at the default 16 MiB."""
        mib = 1024 * 1024
        image = MemoryImage(bytes(20 * mib))
        extents = [(0, 10 * mib), (11 * mib, 9 * mib)]
        unlimited = AdaptiveRecoveryEngine(scan_limit_bytes=None)._mining_image(image, extents)
        assert len(unlimited) == 19 * mib
        assert len(AdaptiveRecoveryEngine()._mining_image(image, extents)) == 16 * mib


class TestEngine:
    def test_beyond_the_seed_cliff_adaptive_still_recovers(self):
        """At 1.2% BER the fixed budgets recover nothing; adaptive must."""
        from repro.attack.pipeline import Ddr4ColdBootAttack

        dump, master, _ = synthetic_dump(bit_error_rate=0.012, seed=5)
        fixed = Ddr4ColdBootAttack().run(dump)
        assert fixed.recovered_keys == []

        result = AdaptiveRecoveryEngine().recover(dump)
        truth = {master[:32], master[32:]}
        assert truth <= set(result.masters)
        assert result.stages_run[0] == "strict"
        assert len(result.stages_run) >= 2
        assert all(r.confidence > 0.0 for r in result.recovered)

    def test_clean_dump_stops_at_strict(self):
        dump, master, _ = synthetic_dump(bit_error_rate=0.0, seed=5)
        result = AdaptiveRecoveryEngine().recover(dump)
        assert result.stages_run == ["strict"]
        assert result.work_spent == 1
        assert {master[:32], master[32:]} <= set(result.masters)

    def test_summary_is_json_ready(self):
        import json

        dump, _, _ = synthetic_dump(bit_error_rate=0.0, seed=5)
        result = AdaptiveRecoveryEngine().recover(dump)
        digest = json.loads(json.dumps(result.summary()))
        assert digest["decay_source"] in ("litmus-mismatch", "mined-support", "prior")
        assert digest["n_recovered"] == len(result.recovered)
        assert digest["stages_run"] == ["strict"]


class TestDecodedRung:
    """The belief-propagation rung and the ladder reshaping around it."""

    def test_ladder_tops_out_with_the_decoded_stage(self):
        from repro.attack.adaptive import decode_stage_for_rate

        estimate = DecayEstimate(rate=0.02, source="prior", sample_bits=0)
        stages = AdaptiveBudget(estimate, total_work=10).stages()
        assert stages[-1].name == "decoded"
        assert stages[-1] == decode_stage_for_rate(0.02)
        assert stages[-1].schedule_decode

    def test_classical_rungs_drop_past_the_ceiling(self):
        """Past CLASSICAL_CEILING_RATE the calibrated budgets are
        hopeless (the v1 crossover was 0.020) and slow; the ladder must
        jump straight from strict to decoded."""
        estimate = DecayEstimate(
            rate=CLASSICAL_CEILING_RATE + 0.004, source="prior", sample_bits=0
        )
        names = [s.name for s in AdaptiveBudget(estimate, total_work=10).stages()]
        assert names == ["strict", "decoded"]

    def test_classical_rungs_survive_below_the_ceiling(self):
        estimate = DecayEstimate(rate=0.015, source="prior", sample_bits=0)
        names = [s.name for s in AdaptiveBudget(estimate).stages()]
        assert names == ["strict", "calibrated", "decoded"]

    def test_decoded_fits_the_default_budget_past_the_ceiling(self):
        """strict(1) + decoded(4) = 5 ≤ the default total_work of 10 —
        the decode escalation is reachable without any budget bump
        exactly where it is the only remaining option."""
        estimate = DecayEstimate(rate=0.04, source="prior", sample_bits=0)
        names = [s.name for s in AdaptiveBudget(estimate).stages()]
        assert names == ["strict", "decoded"]

    def test_max_stage_caps_the_ladder(self):
        estimate = DecayEstimate(rate=0.015, source="prior", sample_bits=0)
        budget = AdaptiveBudget(estimate, total_work=10, max_stage="calibrated")
        assert [s.name for s in budget.stages()] == ["strict", "calibrated"]
        with pytest.raises(ValueError):
            AdaptiveBudget(estimate, max_stage="turbo")

    def test_engine_rejects_unknown_max_stage(self):
        with pytest.raises(ValueError):
            AdaptiveRecoveryEngine(max_stage="turbo")


class TestConfidenceFloor:
    def test_under_floor_recoveries_do_not_stop_escalation(self):
        """A stage that returns only junk-grade recoveries (confidence
        below STOP_CONFIDENCE_FLOOR) must not freeze the ladder — the
        spurious-key failure mode the floor exists to stop."""
        from repro.attack.adaptive import STOP_CONFIDENCE_FLOOR

        # True keys in the measured envelope score >= ~0.05; the floor
        # must sit well under them and well over junk's ~0.001.
        assert 0.001 < STOP_CONFIDENCE_FLOOR <= 0.05


class TestDecodedEngineEndToEnd:
    def test_far_beyond_the_classical_crossover(self):
        """At 4% BER — double the v1 crossover — every classical stage
        recovers nothing; the decoded stage must return both masters
        byte-exact with zero spurious keys."""
        dump, master, _ = synthetic_dump(bit_error_rate=0.04, seed=5)
        result = AdaptiveRecoveryEngine(key_bits=256, total_work=10).recover(dump)
        truth = {master[:32], master[32:]}
        assert set(result.masters) == truth
        assert result.stages_run == ["strict", "decoded"]
        assert result.decode is not None
        assert result.decode["converged"] >= 2
        assert all(r.confidence > 0.0 for r in result.recovered)

    def test_hopeless_channel_abstains_not_wrong(self):
        """Past the decode horizon the engine must return nothing at
        all — never a plausible-looking wrong key."""
        dump, _, _ = synthetic_dump(bit_error_rate=0.10, seed=5)
        result = AdaptiveRecoveryEngine(key_bits=256, total_work=10).recover(dump)
        assert result.masters == []
        assert result.stages_run[-1] == "decoded"

    def test_summary_carries_stage_seconds_and_decode(self):
        import json

        dump, _, _ = synthetic_dump(bit_error_rate=0.0, seed=5)
        result = AdaptiveRecoveryEngine().recover(dump)
        digest = json.loads(json.dumps(result.summary()))
        assert set(digest["stage_seconds"]) == set(digest["stages_run"])
        assert all(s >= 0.0 for s in digest["stage_seconds"].values())


class TestOneDecodedPath:
    """The decoded rung decodes or abstains; it never ballots."""

    def test_decode_search_never_reaches_the_ballots(self, monkeypatch):
        """On the ``adaptive-ber-0.024`` input the decoded rung's search
        makes no ballot, vote or repair call, and still recovers both
        planted halves."""
        from repro.attack import aes_search
        from repro.attack.aes_search import AesKeySearch

        calls = {"_window_ballots": 0, "vote_correct_table": 0, "repair_observed_table": 0}
        decoding: list[bool] = []
        recover_from_group = AesKeySearch._recover_from_group

        def tracking(self, *args, **kwargs):
            decoding.append(self.schedule_decode)
            try:
                return recover_from_group(self, *args, **kwargs)
            finally:
                decoding.pop()

        def spy(name, function):
            def counting(*args, **kwargs):
                if decoding and decoding[-1]:
                    calls[name] += 1
                return function(*args, **kwargs)

            return counting

        monkeypatch.setattr(AesKeySearch, "_recover_from_group", tracking)
        monkeypatch.setattr(
            AesKeySearch, "_window_ballots",
            spy("_window_ballots", AesKeySearch._window_ballots),
        )
        for name in ("vote_correct_table", "repair_observed_table"):
            monkeypatch.setattr(aes_search, name, spy(name, getattr(aes_search, name)))

        dump, master, _ = synthetic_dump(bit_error_rate=0.024, seed=5)
        result = AdaptiveRecoveryEngine(total_work=10).recover(dump)
        assert result.stages_run[-1] == "decoded"
        assert calls == {"_window_ballots": 0, "vote_correct_table": 0, "repair_observed_table": 0}
        assert set(result.masters) == {master[:32], master[32:]}

    def test_abstaining_bases_yield_no_wrong_key(self):
        """BER 0.028, seed 2: the decoded rung returns exactly the two
        planted halves.  A classical fallback on the bases the decoder
        abstained on used to add a wrong third key here."""
        dump, master, _ = synthetic_dump(bit_error_rate=0.028, seed=2)
        result = AdaptiveRecoveryEngine(total_work=10).recover(dump)
        assert result.stages_run[-1] == "decoded"
        assert sorted(result.masters) == sorted((master[:32], master[32:]))

    def test_decoder_abstain_ends_the_ladder(self):
        """BER 0.028, seed 4: strict and calibrated recover nothing and
        the decoder abstains, so the default ladder returns no key after
        three rungs, in about a second."""
        dump, _, _ = synthetic_dump(bit_error_rate=0.028, seed=4)
        estimate = estimate_decay_rate(candidates=mine_scrambler_keys(dump), image=dump)
        assert estimate.rate == pytest.approx(0.0256, abs=5e-4)
        planned = [s.name for s in AdaptiveBudget(estimate).stages()]
        assert planned == ["strict", "calibrated", "decoded"]
        result = AdaptiveRecoveryEngine().recover(dump)
        assert result.stages_run == planned
        assert result.masters == []


class TestListDecodeExit:
    """The decoded rung starts each list decode's combos a few at a
    time and ends it at its first combo that converges and passes the
    region check.  A wrapper that drops the hook decodes every combo to
    its own freeze, in lockstep, as the rung used to: the keys and the
    report must not tell the two apart."""

    #: The decode counters the early exit may change: it cuts combos
    #: short, most before they start, and so runs fewer sweeps and
    #: settles fewer tables.
    EXIT_COUNTERS = (
        "iterations", "converged", "abstained", "cut", "checks_updated", "checks_dense",
        "mean_posterior_entropy",
    )

    @pytest.mark.parametrize("ber", [0.024, 0.040])
    def test_keys_and_report_match_full_batch_decodes(self, monkeypatch, ber):
        from repro.attack import aes_search

        dump, master, _ = synthetic_dump(bit_error_rate=ber, seed=5)
        hooked = AdaptiveRecoveryEngine(total_work=10).recover(dump)
        decode_schedule = aes_search.decode_schedule

        def full_batch(*args, accept=None, **kwargs):
            return decode_schedule(*args, **kwargs)

        monkeypatch.setattr(aes_search, "decode_schedule", full_batch)
        full = AdaptiveRecoveryEngine(total_work=10).recover(dump)

        assert hooked.recovered == full.recovered
        assert set(hooked.masters) == {master[:32], master[32:]}
        got, want = hooked.summary(), full.summary()
        for digest in (got, want):
            del digest["stage_seconds"]
            for name in self.EXIT_COUNTERS:
                del digest["decode"][name]
        assert got == want
        assert hooked.decode["iterations"] < full.decode["iterations"]
        # The counters add up: the combos the exit cut count as neither
        # converged nor abstained.
        for decode in (hooked.decode, full.decode):
            settled = decode["converged"] + decode["abstained"]
            assert settled + decode["cut"] == decode["tables"]
        assert full.decode["cut"] == 0 < hooked.decode["cut"]


def _recovered_at(base: int) -> RecoveredAesKey:
    """A recovered key whose one hit pins its schedule at ``base``."""
    block, offset = divmod(base, BLOCK_SIZE)
    hit = ScheduleHit(
        block_index=block, key_index=0, offset=offset, round_index=0,
        mismatch_bits=0, key_bits=256,
    )
    return RecoveredAesKey(
        master_key=bytes(32), key_bits=256, votes=1, first_block_index=block,
        match_fraction=1.0, region_agreement=1.0, hits=(hit,),
    )


class TestCompletePairs:
    """The pinned XTS rescue (:meth:`AesKeySearch.complete_pairs`, which
    the engine and the sharded runner share) runs only for unpaired
    schedules."""

    def _complete(self, bases, **kwargs):
        search = AesKeySearch(np.zeros((1, BLOCK_SIZE), dtype=np.uint8))
        tried = []

        def recover_at_base(image, base, loose_tolerance_bits=40):
            tried.append((base, loose_tolerance_bits))
            return None

        search.recover_at_base = recover_at_base
        image = MemoryImage(bytes(64 * BLOCK_SIZE))
        kept = search.complete_pairs(image, [_recovered_at(b) for b in bases], **kwargs)
        return tried, [r.hits[0].table_base for r in kept]

    def test_complete_pair_is_not_rescued(self):
        stride = schedule_bytes(256)
        tried, kept = self._complete([1000 + stride, 1000])
        assert tried == []
        assert kept == [1000, 1000 + stride]

    def test_unpaired_schedule_tries_both_siblings(self):
        stride = schedule_bytes(256)
        tried, kept = self._complete([1000], loose_tolerance_bits=48)
        assert tried == [(1000 - stride, 48), (1000 + stride, 48)]
        assert kept == [1000]
