"""Decay-adaptive recovery: estimate the channel, then spend budget on it.

The paper's pipeline tolerates "modest bit flips" through three fixed
Hamming budgets (litmus 16, verify 16, keyfind 8).  Those constants
encode an assumption — a cold transfer, seconds without power — and a
dump decayed past them recovers *nothing* rather than *less, with
lower confidence*.  This module replaces the constants with a
controller:

1. **Estimate** the dump's bit decay rate.  Three sources, best first:
   a reference image (``repro.analysis.decay_map``), the residual
   mismatch of mined-key support sets (every candidate's sightings
   disagree with their majority vote at exactly the channel's rate),
   or a configurable prior.
2. **Escalate** through :class:`BudgetStage`\\ s — a strict first pass
   at the paper's budgets, then calibrated and widened retries whose
   tolerances are set to ``mean + 3σ`` of the mismatch a true artefact
   would show at the estimated rate — under a total work budget.
3. **Quarantine** regions that cannot contribute (torn constant fill,
   a second scrambler's keystream, decay past the litmus horizon) with
   structured :class:`~repro.resilience.errors.RegionQuarantineError`
   diagnostics, and complete the scan over the remainder.

Escalated stages turn on the cross-round consistency voting of
:func:`repro.attack.aes_search.vote_correct_table` — correcting flipped
schedule bits instead of merely tolerating them — and thread the decay
estimate into :func:`repro.attack.aes_search.confidence_score` so every
recovery carries a posterior confidence calibrated to the channel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.attack.aes_search import AesKeySearch, RecoveredAesKey
from repro.attack.decode import DEFAULT_DECODE_ITERS, clamp_rate
from repro.attack.keyfind import KeyfindMatch, find_aes_keys
from repro.attack.keymine import (
    DEFAULT_SCAN_LIMIT_BYTES,
    CandidateKey,
    keys_matrix,
    mine_scrambler_keys,
)
from repro.attack.litmus import key_litmus_mismatch_bits, litmus_parity_matrix
from repro.attack.parallel import merge_recovered
from repro.crypto.aes import schedule_bytes
from repro.dram.image import MemoryImage
from repro.resilience.deadline import Deadline
from repro.resilience.errors import (
    DeadlineExceededError,
    MixedScramblerRegionError,
    RegionQuarantineError,
    TornRegionError,
    UndecodableRegionError,
)
from repro.util.blocks import BLOCK_SIZE

if False:  # pragma: no cover — typing-only import, avoids analysis dependency
    from repro.analysis.decay_map import DecayMap

#: Decay rate assumed when nothing measurable is available — the
#: paper's cold-transfer regime (sub-second without power).
DEFAULT_PRIOR_RATE = 0.002

#: Granularity of region triage.  256 KiB is fine enough to isolate a
#: damaged stretch without fragmenting the scan, and every region holds
#: thousands of blocks so the density statistics are meaningful.
DEFAULT_REGION_BYTES = 256 * 1024

#: A stage's recoveries stop the escalation ladder only when at least
#: one clears this posterior confidence.  Just past the classical
#: crossover a calibrated/widened ballot occasionally coughs up a
#: junk-tail key scored ~1e-3 (a true key at any stage's operating
#: point scores ≥~5e-2); breaking on it would both return a wrong key
#: and starve the decoded stage that can still produce the right one.
#: Recoveries under the floor are dropped — abstaining is part of the
#: contract, being wrong is not — with the drop recorded in the run's
#: diagnostics.
STOP_CONFIDENCE_FLOOR = 0.01

#: Past this estimated decay rate the classical vote+repair stages are
#: provably hopeless — the crossover where a true schedule's best
#: verify window sinks below the junk floor sits near 0.020, and the
#: widened stage's 1.5× inflation buys at most a few millirate beyond
#: it — yet their junk handling is the most expensive part of the
#: ladder (minutes per stage, against seconds for the strict pass).
#: The budget therefore escalates straight from strict to the decoded
#: stage, spending the work where belief propagation can still win
#: instead of burning it on ballots that cannot.
CLASSICAL_CEILING_RATE = 0.028

#: Past this estimated rate the decoded rung runs *before* widened.
#: Between here and :data:`CLASSICAL_CEILING_RATE` both rungs can in
#: principle recover — but the decoder converges in seconds where the
#: widened stage's junk ballots take tens of seconds, so the ladder
#: tries belief propagation first and only falls back to the widened
#: budgets when the decoder abstains.  At or below this rate the
#: classical stages are cheap and near-certain, and decoded stays the
#: ladder's top rung.  The threshold sits at the v1 classical
#: crossover: exactly where a true window's verify margin starts
#: sinking toward the junk floor.
DECODE_FIRST_RATE = 0.020


# --------------------------------------------------------------------------
# Decay estimation


@dataclass(frozen=True)
class DecayEstimate:
    """The channel model everything downstream is calibrated against."""

    #: Estimated per-bit flip probability of the dump.
    rate: float
    #: Where the estimate came from: ``decay-map`` (reference image),
    #: ``mined-support`` (candidate residuals), or ``prior``.
    source: str
    #: How many member bits the estimate was measured over (0 for the
    #: prior) — small samples deserve wider stage headroom.
    sample_bits: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 0.5:
            raise ValueError("decay rate must lie in [0, 0.5)")
        if self.sample_bits < 0:
            raise ValueError("sample_bits must be non-negative")


#: Mismatch ceiling selecting the keystream population for estimation.
#: Decayed zero blocks sit at ``~2 · 512 · rate`` mismatch bits while
#: random data sits near half the invariant comparisons (~128), so 64
#: separates the populations for every rate the attack can survive.
_ESTIMATE_LITMUS_CAP = 64


def _per_flip_sensitivity() -> float:
    """How many litmus-mismatch bits one flipped key bit costs, on average.

    Derived, not assumed: the litmus invariants form a parity-check
    matrix over the key's 512 bits, and a flipped bit toggles exactly
    the checks whose row contains it — so the mean mismatch delta per
    flip is the matrix's mean column weight (2.0 for the §III-B
    relations).
    """
    parity = litmus_parity_matrix()
    return float(parity.sum()) / parity.shape[1]


def _litmus_mismatch_estimate(
    image: MemoryImage,
    scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
    min_blocks: int = 32,
) -> DecayEstimate | None:
    """Estimate decay from the litmus residuals of keystream blocks.

    A clean zero block sits *on* the scrambler's invariant manifold;
    decay pushes it off at a rate of (measured) ~2 mismatch bits per
    flipped bit.  The mean mismatch of the keystream population —
    blocks under :data:`_ESTIMATE_LITMUS_CAP`, cleanly separated from
    random data — divided by the per-flip sensitivity and the block
    size therefore reads the channel's flip rate directly, with no
    need for repeated sightings of any single key.  Slightly
    optimistic at extreme rates (blocks decayed past the cap drop out
    of the population); the widened budget stage absorbs that.
    """
    data = image.data
    if scan_limit_bytes is not None:
        data = data[: scan_limit_bytes - scan_limit_bytes % BLOCK_SIZE]
    matrix = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    if matrix.shape[0] == 0:
        return None
    mismatch = key_litmus_mismatch_bits(matrix)
    keystream = mismatch[mismatch <= _ESTIMATE_LITMUS_CAP]
    if keystream.size < min_blocks:
        return None
    rate = float(keystream.mean()) / (_per_flip_sensitivity() * 8 * BLOCK_SIZE)
    return DecayEstimate(
        rate=clamp_rate(rate),
        source="litmus-mismatch",
        sample_bits=int(keystream.size) * 8 * BLOCK_SIZE,
    )


def estimate_decay_rate(
    candidates: list[CandidateKey] | None = None,
    reference_map: "DecayMap | None" = None,
    image: MemoryImage | None = None,
    prior_rate: float = DEFAULT_PRIOR_RATE,
    min_sample_bits: int = 32 * 1024,
) -> DecayEstimate:
    """Estimate the dump's bit decay rate from the best available source.

    A reference image (``reference_map``) measures the rate directly
    and wins.  Next, the mined candidates self-report it: each
    candidate's ``litmus_mismatch_bits`` is the Hamming residual
    between its majority vote and its support members, and for small
    rates the expected residual per member bit *is* the channel rate
    (each member disagrees with the vote exactly where it — and not
    the majority — decayed).  When the keystream never repeats (every
    key sighted once), the litmus residuals of the passing blocks
    themselves carry the rate (``image`` source).  Failing everything,
    the prior.

    The measured estimates are mildly optimistic: blocks that pass the
    litmus budget are the less-decayed ones, so heavily damaged dumps
    under-report.  :class:`AdaptiveBudget` compensates with ``+3σ``
    headroom and a widened final stage.

    Every exit path clamps the rate into ``[1e-6, 0.499]`` (see
    :func:`repro.attack.decode.clamp_rate`): a literal zero — a
    mismatch-free support set, a pristine reference — would make the
    decode stage's channel priors infinitely trusting, after which one
    contradicted observation deadlocks the whole constraint graph; and
    a saturated measurement must stay below 0.5 or the channel inverts.
    """
    if reference_map is not None and reference_map.rates.size:
        sample = int(reference_map.rates.size) * reference_map.window_bytes * 8
        return DecayEstimate(
            rate=clamp_rate(float(reference_map.overall_rate)),
            source="decay-map",
            sample_bits=sample,
        )
    if candidates:
        residual = 0
        support = 0
        for candidate in candidates:
            if candidate.count >= 2 and candidate.support_bits > 0:
                residual += candidate.litmus_mismatch_bits
                support += candidate.support_bits
        if support >= min_sample_bits:
            return DecayEstimate(
                rate=clamp_rate(residual / support),
                source="mined-support",
                sample_bits=support,
            )
    if image is not None:
        estimate = _litmus_mismatch_estimate(image)
        if estimate is not None:
            return estimate
    return DecayEstimate(rate=clamp_rate(prior_rate), source="prior", sample_bits=0)


def pool_decay_rate(pool: np.ndarray) -> float:
    """Residual decay rate carried by a candidate-key pool itself.

    Descrambling pays the pool key's own flips on top of each window's
    local decay, so the channel the verifier actually sees is the sum
    of the two.  A single-sighting pool carries the full dump rate; a
    pool whose keys were majority-voted from many sightings carries a
    fraction of it — the pool's litmus residuals measure exactly this.

    Clamped into ``[1e-6, 0.499]`` like every other rate estimate: the
    result feeds the decode stage's channel model, where a literal zero
    or a rate past 0.5 poisons the priors.
    """
    if pool.shape[0] == 0:
        return clamp_rate(0.0)
    residual = key_litmus_mismatch_bits(pool)
    keystream = residual[residual <= _ESTIMATE_LITMUS_CAP]
    if keystream.size == 0:
        return clamp_rate(0.0)
    return clamp_rate(
        float(keystream.mean()) / (_per_flip_sensitivity() * 8 * BLOCK_SIZE)
    )


# --------------------------------------------------------------------------
# Budget stages


@dataclass(frozen=True)
class BudgetStage:
    """One rung of the escalation ladder: a full set of Hamming budgets."""

    name: str
    litmus_tolerance_bits: int
    merge_radius_bits: int
    verify_tolerance_bits: int
    keyfind_tolerance_bits: int
    accept_mismatch_fraction: float
    repair_bits: int
    schedule_vote: bool
    #: Belief-propagation decode of observed tables
    #: (:mod:`repro.attack.decode`) — the ladder's last resort, far
    #: slower than voting/repair but correct well past their horizon.
    schedule_decode: bool = False
    #: Hamming radius of the fingerprint band join (0 = exact match).
    #: Radius 1 probes every single-bit neighbour of each 16-bit band,
    #: catching windows whose every band decayed by a bit — the join,
    #: not verification, is what starves the decoder at high BER.
    join_radius_bits: int = 0
    #: Blocks around each seed hit re-verified without the fingerprint
    #: filter (the paper's neighbour walk).  The decoded stage sets 0:
    #: its wide budgets admit thousands of junk seeds whose combined
    #: neighbourhoods would degenerate into an exhaustive scan, and the
    #: decoder replaces the walk's error tolerance anyway.
    extension_radius_blocks: int = 6
    #: Relative work units this stage consumes from the total budget.
    cost: int = 1

    def __post_init__(self) -> None:
        if self.cost < 1:
            raise ValueError("stage cost must be at least 1")
        if self.join_radius_bits not in (0, 1):
            raise ValueError("join_radius_bits must be 0 or 1")
        if self.extension_radius_blocks < 0:
            raise ValueError("extension_radius_blocks must be non-negative")
        if min(
            self.litmus_tolerance_bits,
            self.merge_radius_bits,
            self.verify_tolerance_bits,
            self.keyfind_tolerance_bits,
            self.repair_bits,
        ) < 0:
            raise ValueError("budgets must be non-negative")
        if not 0.0 < self.accept_mismatch_fraction < 0.5:
            raise ValueError("accept_mismatch_fraction must lie in (0, 0.5)")


#: The paper's fixed budgets, as stage zero of every ladder.
STRICT_STAGE = BudgetStage(
    name="strict",
    litmus_tolerance_bits=16,
    merge_radius_bits=16,
    verify_tolerance_bits=16,
    keyfind_tolerance_bits=8,
    accept_mismatch_fraction=0.05,
    repair_bits=1,
    schedule_vote=False,
    cost=1,
)


def _tail_budget(bits: float, rate: float, floor: int, cap: int, sigmas: float = 3.0) -> int:
    """Hamming budget covering ``mean + sigmas·σ`` flips over ``bits``.

    ``bits`` is the *effective* bit count the artefact's mismatch is
    measured over (invariant comparisons, check bits plus diffused
    window bits, ...); a Poisson-ish tail bound keeps true artefacts
    inside the budget while the cap keeps random junk out.
    """
    mean = bits * rate
    width = int(math.ceil(mean + sigmas * math.sqrt(max(mean, 1.0))))
    return max(floor, min(width, cap))


def stage_for_rate(name: str, rate: float, cost: int, schedule_vote: bool = True) -> BudgetStage:
    """Budgets calibrated so true artefacts at ``rate`` pass with margin.

    Effective bit counts: a zero block's litmus invariants re-read each
    of its 512 bits about three times; two noisy sightings of one key
    differ over 2·512 member bits; a verification window's 128 check
    bits plus its (nonlinearly diffused) window bits behave like ~700;
    the plaintext keyfind window is the same shape.
    """
    return BudgetStage(
        name=name,
        litmus_tolerance_bits=_tail_budget(1536, rate, floor=16, cap=64),
        merge_radius_bits=_tail_budget(1024, rate, floor=16, cap=48),
        verify_tolerance_bits=_tail_budget(700, rate, floor=16, cap=44),
        keyfind_tolerance_bits=_tail_budget(700, rate, floor=8, cap=32),
        accept_mismatch_fraction=min(0.30, max(0.05, 6.0 * rate + 0.02)),
        repair_bits=1 if rate < 0.008 else 2,
        schedule_vote=schedule_vote,
        cost=cost,
    )


#: Stage names in escalation order, for ``max_stage`` validation.
STAGE_ORDER = ("strict", "calibrated", "widened", "decoded")


def decode_stage_for_rate(rate: float) -> BudgetStage:
    """The ladder's top rung: budgets wide enough to *reach* the decoder.

    The decoder corrects channels several times past the widened
    stage's horizon, but it only ever sees tables that survived mining,
    the fingerprint join, and verification — and at high decay those
    gates, not the corrector, are what starve recovery.  On a
    single-sighting pool every candidate key carries the dump's full
    flip rate on top of the window's own, so the channel the verifier
    sees runs near *twice* the estimate (``2r(1-r)``), and S-box
    diffusion roughly triples it again inside the 128 check bits: at a
    4 % dump BER a true window's best verify mismatch sits around
    32–45 bits.  The gate that actually drops true windows there is
    the *exact* band join — every 16-bit band of a fingerprint decays
    with probability ~1-(1-2r)^48 — so this stage joins at Hamming
    radius 1 instead of widening verification into junk territory:
    verify stays capped at 40 of 128 bits, where random pairs pass at
    ~2e-5 and the radius-1 join's 17× pair stream stays in the low
    thousands of junk groups, each dying in the plausibility gate
    before any decode is spent.  The accept gate opens only modestly
    (a decoded table's region residual legitimately runs near the
    doubled channel) and stays far below random junk's ~0.45 floor;
    the decode itself is confirmed by its zero syndrome.
    """
    inflated = clamp_rate(max(2.0 * rate, rate + 0.008))
    return BudgetStage(
        name="decoded",
        litmus_tolerance_bits=_tail_budget(1536, inflated, floor=64, cap=96),
        merge_radius_bits=_tail_budget(1024, inflated, floor=48, cap=64),
        verify_tolerance_bits=_tail_budget(700, inflated, floor=36, cap=40),
        keyfind_tolerance_bits=_tail_budget(700, inflated, floor=24, cap=32),
        accept_mismatch_fraction=min(0.25, max(0.10, 3.0 * inflated + 0.04)),
        # One repair bit only: the widened stage's 2-bit escalation is
        # a 32k-variant ballot per window, which the junk the wide
        # verify budget admits would pay thousands of times over — and
        # correction past one flip is the decoder's job here anyway.
        repair_bits=1,
        schedule_vote=True,
        schedule_decode=True,
        join_radius_bits=1,
        extension_radius_blocks=0,
        cost=4,
    )


@dataclass(frozen=True)
class AdaptiveBudget:
    """Derives the escalation ladder for a decay estimate.

    Strict first — at low decay the paper's budgets are both the
    fastest and the most junk-resistant pass — then a stage calibrated
    to the estimated rate (with consistency voting on), then a widened
    stage at 1.5× the estimate to absorb estimator optimism, and
    finally the ``decoded`` stage: belief-propagation decoding behind
    budgets wide enough to feed it (:func:`decode_stage_for_rate`).
    Past :data:`CLASSICAL_CEILING_RATE` the calibrated and widened
    rungs are dropped entirely — hopeless at that channel, and by far
    the slowest — so the ladder jumps from strict to decoded (which
    then fits even the default work budget).  Stages are kept while
    their cumulative cost fits ``total_work``.
    """

    estimate: DecayEstimate
    total_work: int = 6
    #: Highest rung the ladder may climb (a :data:`STAGE_ORDER` name);
    #: ``None`` lets the work budget alone decide.  The decoded stage
    #: costs 4, so at the default ``total_work=6`` it is trimmed
    #: whenever the full four-rung ladder applies — callers that want
    #: it unconditionally (the CLI's ``--max-stage decoded``, the
    #: robustness benchmark) raise ``total_work`` to 10.  Past
    #: :data:`CLASSICAL_CEILING_RATE` the middle rungs drop out and
    #: strict+decoded (cost 5) fits the default budget on its own.
    max_stage: str | None = None

    def __post_init__(self) -> None:
        if self.total_work < 1:
            raise ValueError("total_work must be at least 1")
        if self.max_stage is not None and self.max_stage not in STAGE_ORDER:
            raise ValueError(
                f"max_stage must be one of {STAGE_ORDER}, got {self.max_stage!r}"
            )

    def stages(
        self,
        deadline: "Deadline | None" = None,
        seconds_per_cost: float | None = None,
    ) -> list[BudgetStage]:
        """The ladder, strict first, trimmed to the work budget.

        With a ``deadline`` and a measured ``seconds_per_cost`` (wall
        seconds one unit of stage cost takes on this dump), the ladder
        is additionally trimmed so the cumulative estimated wall time
        fits the remaining deadline — escalation the clock cannot
        afford is dropped up front instead of discovered mid-stage.
        """
        rate = self.estimate.rate
        ladder = [STRICT_STAGE]
        if rate <= CLASSICAL_CEILING_RATE:
            calibrated = stage_for_rate("calibrated", rate, cost=2)
            if calibrated != STRICT_STAGE:
                ladder.append(calibrated)
            widened = stage_for_rate("widened", max(1.5 * rate, rate + 0.004), cost=3)
            if widened != ladder[-1]:
                ladder.append(widened)
        decoded = decode_stage_for_rate(rate)
        if rate > DECODE_FIRST_RATE and ladder and ladder[-1].name == "widened":
            # Decode-first band: belief propagation converges in
            # seconds where the widened ballots take tens of seconds,
            # so decoded slots in ahead of widened; the engine stops at
            # the first stage that recovers, making widened the
            # fallback for decoder abstains rather than the default.
            ladder.insert(len(ladder) - 1, decoded)
        else:
            ladder.append(decoded)
        if self.max_stage is not None:
            keep_through = STAGE_ORDER.index(self.max_stage)
            ladder = [
                stage for stage in ladder if STAGE_ORDER.index(stage.name) <= keep_through
            ]
        remaining_s = deadline.remaining() if deadline is not None else None
        kept: list[BudgetStage] = []
        spent = 0
        for stage in ladder:
            # Skip (rather than stop at) a rung that does not fit: with
            # decoded ordered ahead of widened the ladder's costs are no
            # longer monotonic, so a later, cheaper rung may still fit
            # the remaining work or wall-clock budget.
            if kept and spent + stage.cost > self.total_work:
                continue
            if (
                kept
                and remaining_s is not None
                and seconds_per_cost is not None
                and (spent + stage.cost) * seconds_per_cost > remaining_s
            ):
                continue
            kept.append(stage)
            spent += stage.cost
        return kept


# --------------------------------------------------------------------------
# Region triage


def _quarantine_mixed_or_undecodable(
    offset: int,
    length: int,
    far_rows: np.ndarray,
    merge_radius_bits: int,
    far_fraction: float,
) -> RegionQuarantineError:
    """Classify a region whose litmus-passing blocks sit far from the pool.

    If the alien blocks cluster tightly *among themselves* they are a
    coherent keystream — another scrambler seed covers this stretch.
    If they scatter, the region's zero pages decayed past recognition.
    """
    sample = far_rows[:256].view(np.uint64)
    coherent = 0
    for index in range(sample.shape[0]):
        distances = np.bitwise_count(sample ^ sample[index]).sum(axis=1, dtype=np.int64)
        distances[index] = np.iinfo(np.int64).max
        if sample.shape[0] > 1 and int(distances.min()) <= merge_radius_bits:
            coherent += 1
    if sample.shape[0] > 1 and coherent * 2 > sample.shape[0]:
        return MixedScramblerRegionError(
            offset,
            length,
            f"{far_rows.shape[0]} litmus-passing blocks form a coherent "
            f"keystream foreign to the dump-wide pool "
            f"({far_fraction:.0%} beyond the merge radius)",
        )
    return UndecodableRegionError(
        offset,
        length,
        f"{far_rows.shape[0]} litmus-passing blocks match no mined key and "
        f"do not cohere with each other ({far_fraction:.0%} beyond the merge radius)",
    )


def triage_regions(
    image: MemoryImage,
    candidates: list[CandidateKey],
    litmus_tolerance_bits: int,
    merge_radius_bits: int,
    region_bytes: int = DEFAULT_REGION_BYTES,
) -> tuple[list[tuple[int, int]], list[RegionQuarantineError]]:
    """Partition a dump into scannable extents and quarantined regions.

    Three detectors, each emitting a structured diagnostic instead of
    letting the damage poison mining or waste search time:

    * **torn** — the region is constant fill (an imager wrote filler,
      not memory; scrambled DRAM is never byte-constant);
    * **mixed-scrambler** — the region's litmus-passing blocks form a
      coherent keystream that does not merge with the dump-wide
      candidate pool (a dump stitched across reboots);
    * **undecodable** — the region's litmus-pass density collapsed
      relative to the rest of the dump, or its passing blocks are
      incoherent junk: local decay beyond the widest escalated budget.

    The density detector is a heuristic — it only fires when the dump
    as a whole is rich in zero pages (pass density ≥ 5%) and the region
    is an extreme outlier (< 20% of the dump-wide density), so dense
    data regions in ordinary dumps are left alone.

    Returns ``(extents, quarantined)`` where ``extents`` are merged
    block-aligned ``(offset, length)`` runs covering every healthy
    region.
    """
    if region_bytes % BLOCK_SIZE:
        raise ValueError("region_bytes must be a multiple of the block size")
    matrix = image.blocks_matrix()
    n_blocks = matrix.shape[0]
    if n_blocks == 0:
        return [], []
    mismatch = key_litmus_mismatch_bits(matrix)
    passing_mask = mismatch <= litmus_tolerance_bits
    dump_density = float(passing_mask.mean())
    pool_words = keys_matrix(candidates).view(np.uint64) if candidates else None

    blocks_per_region = region_bytes // BLOCK_SIZE
    quarantined: list[RegionQuarantineError] = []
    healthy: list[tuple[int, int]] = []
    n_regions = (n_blocks + blocks_per_region - 1) // blocks_per_region
    for region_index in range(n_regions):
        first = region_index * blocks_per_region
        last = min(first + blocks_per_region, n_blocks)
        offset = first * BLOCK_SIZE
        length = (last - first) * BLOCK_SIZE
        region = matrix[first:last]
        flat = region.reshape(-1)
        if n_regions > 1 and flat.size and int(flat[0]) == int(flat.min()) == int(flat.max()):
            quarantined.append(
                TornRegionError(
                    offset, length, f"constant fill 0x{int(flat[0]):02x} over every byte"
                )
            )
            continue
        region_pass = passing_mask[first:last]
        n_pass = int(region_pass.sum())
        verdict: RegionQuarantineError | None = None
        if n_pass >= 8 and pool_words is not None and pool_words.size:
            rows = np.ascontiguousarray(region[region_pass])
            row_words = rows.view(np.uint64)
            far_bits = 2 * merge_radius_bits
            distances = np.empty(row_words.shape[0], dtype=np.int64)
            for index in range(row_words.shape[0]):
                distances[index] = int(
                    np.bitwise_count(pool_words ^ row_words[index])
                    .sum(axis=1, dtype=np.int64)
                    .min()
                )
            far = distances > far_bits
            far_fraction = float(far.mean())
            if far_fraction > 0.5:
                verdict = _quarantine_mixed_or_undecodable(
                    offset, length, rows[far], merge_radius_bits, far_fraction
                )
        elif (
            n_regions > 1
            and dump_density >= 0.05
            and last - first >= 64
            and n_pass < 0.2 * dump_density * (last - first)
        ):
            verdict = UndecodableRegionError(
                offset,
                length,
                f"litmus pass density {n_pass / (last - first):.1%} vs "
                f"{dump_density:.1%} dump-wide — local decay beyond the "
                f"{litmus_tolerance_bits}-bit budget",
            )
        if verdict is not None:
            quarantined.append(verdict)
            continue
        if healthy and healthy[-1][0] + healthy[-1][1] == offset:
            healthy[-1] = (healthy[-1][0], healthy[-1][1] + length)
        else:
            healthy.append((offset, length))
    return healthy, quarantined


# --------------------------------------------------------------------------
# The engine


@dataclass
class AdaptiveRecovery:
    """Everything a decay-adaptive scan learned, not just the keys."""

    recovered: list[RecoveredAesKey]
    candidates: list[CandidateKey]
    estimate: DecayEstimate
    stages_run: list[str]
    work_spent: int
    quarantined: list[RegionQuarantineError] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    #: Aggregated belief-propagation telemetry (``None`` when the
    #: decoded stage never saw a base): tables attempted, total sweeps,
    #: converged/abstained counts, bases the span pre-gate rejected
    #: (``gated``) or skipped inside a decoded key's region
    #: (``claimed``), mean posterior entropy, and whether a deadline
    #: interrupted a decode mid-sweep.
    decode: dict | None = None
    #: Structured evidence for every table the decoder declined to
    #: turn into a key (:class:`~repro.resilience.errors.DecodeAbstainError`).
    decode_abstains: list = field(default_factory=list)
    #: Wall seconds each escalation stage spent (mining + search),
    #: keyed by stage name — the robustness sweep's cost breakdown.
    stage_seconds: dict = field(default_factory=dict)

    @property
    def masters(self) -> list[bytes]:
        """The recovered master keys, in dump order."""
        return [result.master_key for result in self.recovered]

    def summary(self) -> dict:
        """JSON-ready digest for reports and the CLI."""
        decode_block = None
        if self.decode is not None:
            decode_block = dict(self.decode)
            decode_block["abstains"] = [error.to_dict() for error in self.decode_abstains]
        return {
            "estimated_decay_rate": self.estimate.rate,
            "decay_source": self.estimate.source,
            "decay_sample_bits": self.estimate.sample_bits,
            "stages_run": list(self.stages_run),
            "work_spent": self.work_spent,
            "n_recovered": len(self.recovered),
            "min_confidence": min((r.confidence for r in self.recovered), default=0.0),
            "quarantined_regions": [error.to_dict() for error in self.quarantined],
            "diagnostics": list(self.diagnostics),
            "decode": decode_block,
            "stage_seconds": dict(self.stage_seconds),
        }


class AdaptiveRecoveryEngine:
    """Runs the full estimate → triage → escalate → recover loop.

    ``total_work`` bounds how much of the ladder runs (strict costs 1,
    calibrated 2, widened 3 — roughly their relative runtimes); the
    engine stops at the first stage that recovers schedules, so a
    lightly decayed dump pays only the strict pass.
    """

    def __init__(
        self,
        key_bits: int = 256,
        total_work: int = 6,
        prior_rate: float = DEFAULT_PRIOR_RATE,
        region_bytes: int = DEFAULT_REGION_BYTES,
        max_candidate_keys: int | None = None,
        scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
        max_stage: str | None = None,
        decode_iters: int = DEFAULT_DECODE_ITERS,
        decode_workers: int = 1,
        decode_state_store=None,
    ) -> None:
        if not 0.0 <= prior_rate < 0.5:
            raise ValueError("prior_rate must lie in [0, 0.5)")
        if max_candidate_keys is not None and max_candidate_keys < 1:
            raise ValueError("max_candidate_keys must be positive")
        if max_stage is not None and max_stage not in STAGE_ORDER:
            raise ValueError(f"max_stage must be one of {STAGE_ORDER}, got {max_stage!r}")
        if decode_iters < 1:
            raise ValueError("decode_iters must be at least 1")
        if decode_workers < 1:
            raise ValueError("decode_workers must be at least 1")
        self.key_bits = key_bits
        self.total_work = total_work
        self.prior_rate = prior_rate
        self.region_bytes = region_bytes
        self.max_candidate_keys = max_candidate_keys
        self.scan_limit_bytes = scan_limit_bytes
        #: Ceiling on the escalation ladder (see :data:`STAGE_ORDER`).
        self.max_stage = max_stage
        self.decode_iters = decode_iters
        #: Thread shards for the decoded rung's batched combo decodes.
        self.decode_workers = int(decode_workers)
        #: Optional :class:`~repro.resilience.checkpoint.DecodeStateStore`
        #: for resumable mid-decode checkpoints.
        self.decode_state_store = decode_state_store

    # ---------------------------------------------------------------- helpers

    def _mining_image(self, image: MemoryImage, extents: list[tuple[int, int]]) -> MemoryImage:
        """The scannable extents spliced for mining (keys are position-free).

        The miner groups blocks by *value* only, so concatenating the
        healthy stretches — up to the paper's 16 MB mining bound — keeps
        quarantined bytes out of the candidate pool without re-indexing.
        """
        if len(extents) == 1 and extents[0] == (0, len(image)):
            return image
        limit = self.scan_limit_bytes or DEFAULT_SCAN_LIMIT_BYTES
        parts: list[bytes] = []
        total = 0
        for offset, length in extents:
            take = min(length, limit - total)
            take -= take % BLOCK_SIZE
            if take <= 0:
                break
            parts.append(bytes(image.data[offset : offset + take]))
            total += take
        return MemoryImage(b"".join(parts))

    def _complete_pairs(
        self,
        image: MemoryImage,
        search: AesKeySearch,
        recovered: list[RecoveredAesKey],
        stage: BudgetStage,
    ) -> list[RecoveredAesKey]:
        """Second chance for XTS siblings one schedule-length away.

        Mirrors the pipeline's targeted rescue: with the base pinned by
        a recovered partner, verification affords a loose budget, so a
        tweak schedule too decayed for the open scan still surfaces.
        """
        stride = schedule_bytes(self.key_bits)
        by_base = {r.hits[0].table_base: r for r in recovered if r.hits}
        loose = max(40, stage.verify_tolerance_bits + 8)
        for base in sorted(by_base):
            for sibling in (base - stride, base + stride):
                if sibling < 0 or sibling in by_base:
                    continue
                extra = search.recover_at_base(image, sibling, loose_tolerance_bits=loose)
                if extra is not None and extra.hits:
                    by_base[sibling] = extra
        return [by_base[base] for base in sorted(by_base)]

    # ------------------------------------------------------------------- scan

    def recover(
        self,
        image: MemoryImage,
        reference: MemoryImage | None = None,
        deadline: "Deadline | float | None" = None,
    ) -> AdaptiveRecovery:
        """Estimate, triage, escalate; return keys plus diagnostics.

        ``reference`` (a pre-decay image, when the experiment has one)
        upgrades the decay estimate from mined-support statistics to a
        direct measurement.  ``deadline`` bounds escalation: a stage is
        skipped when the wall time already spent per unit of stage cost
        predicts it will not fit the remaining budget, and nothing
        starts after expiry — the engine returns whatever the completed
        stages recovered rather than raising.
        """
        deadline = Deadline.coerce(deadline)
        diagnostics: list[str] = []
        strict_candidates = mine_scrambler_keys(
            image,
            tolerance_bits=STRICT_STAGE.litmus_tolerance_bits,
            merge_radius_bits=STRICT_STAGE.merge_radius_bits,
            scan_limit_bytes=self.scan_limit_bytes,
        )
        reference_map = None
        if reference is not None:
            from repro.analysis.decay_map import decay_map

            reference_map = decay_map(reference, image)
        estimate = estimate_decay_rate(
            candidates=strict_candidates,
            reference_map=reference_map,
            image=image,
            prior_rate=self.prior_rate,
        )
        stages = AdaptiveBudget(
            estimate, total_work=self.total_work, max_stage=self.max_stage
        ).stages()
        diagnostics.append(
            f"decay rate {estimate.rate:.4f} from {estimate.source}; "
            f"ladder: {', '.join(stage.name for stage in stages)}"
        )
        # Triage compares each region's litmus passers against the pool
        # the *widest* stage would mine — a strict pool misses the keys
        # only visible at escalated tolerances and would flag healthy
        # regions of a heavily decayed dump as alien.  (Max by budget,
        # not last in the ladder: in the decode-first band the decoded
        # rung runs before widened but still mines the widest.)
        widest = max(stages, key=lambda stage: stage.litmus_tolerance_bits)
        triage_pool = strict_candidates
        if widest.litmus_tolerance_bits > STRICT_STAGE.litmus_tolerance_bits:
            triage_pool = mine_scrambler_keys(
                image,
                tolerance_bits=widest.litmus_tolerance_bits,
                merge_radius_bits=widest.merge_radius_bits,
                scan_limit_bytes=self.scan_limit_bytes,
            )
        extents, quarantined = triage_regions(
            image,
            triage_pool,
            litmus_tolerance_bits=widest.litmus_tolerance_bits,
            merge_radius_bits=widest.merge_radius_bits,
            region_bytes=self.region_bytes,
        )
        diagnostics.extend(str(error) for error in quarantined)
        if not extents:
            diagnostics.append("no scannable regions remain after triage")
            return AdaptiveRecovery(
                recovered=[],
                candidates=strict_candidates,
                estimate=estimate,
                stages_run=[],
                work_spent=0,
                quarantined=quarantined,
                diagnostics=diagnostics,
            )
        mining_image = self._mining_image(image, extents)

        recovered: list[RecoveredAesKey] = []
        candidates = strict_candidates
        stages_run: list[str] = []
        spent = 0
        decode_totals = {
            "tables": 0,
            "iterations": 0,
            "converged": 0,
            "abstained": 0,
            "checks_updated": 0,
            "checks_dense": 0,
            "gated": 0,
            "claimed": 0,
            "posterior_entropy_sum": 0.0,
            "interrupted": False,
        }
        decode_abstains: list = []
        stage_seconds: dict[str, float] = {}

        def fold_decode(search: AesKeySearch) -> None:
            for key_name in (
                "tables",
                "iterations",
                "converged",
                "abstained",
                "checks_updated",
                "checks_dense",
                "gated",
                "claimed",
            ):
                decode_totals[key_name] += search.decode_stats[key_name]
            decode_totals["posterior_entropy_sum"] += search.decode_stats[
                "posterior_entropy_sum"
            ]
            decode_abstains.extend(search.decode_abstains)

        escalation_start = time.monotonic()
        for stage in stages:
            if stages_run and spent + stage.cost > self.total_work:
                # Skip, don't stop: in the decode-first band a cheaper
                # rung (widened) follows the expensive decoded rung.
                diagnostics.append(
                    f"stage {stage.name!r} skipped: work budget exhausted"
                )
                continue
            if deadline is not None and deadline.expired:
                diagnostics.append(
                    f"deadline expired before stage {stage.name!r}; stopping escalation"
                )
                break
            if stages_run and deadline is not None and spent:
                # Completed stages calibrate what one unit of cost takes
                # on this dump; an escalation that cannot fit the
                # remaining clock is not worth starting.
                seconds_per_cost = (time.monotonic() - escalation_start) / spent
                estimated = stage.cost * seconds_per_cost
                if estimated > deadline.remaining():
                    diagnostics.append(
                        f"stage {stage.name!r} skipped: ~{estimated:.1f}s estimated, "
                        f"{deadline.remaining():.1f}s of deadline remain"
                    )
                    continue
            spent += stage.cost
            stages_run.append(stage.name)
            stage_start = time.monotonic()
            try:
                candidates = mine_scrambler_keys(
                    mining_image,
                    tolerance_bits=stage.litmus_tolerance_bits,
                    merge_radius_bits=stage.merge_radius_bits,
                    scan_limit_bytes=self.scan_limit_bytes,
                )
                if self.max_candidate_keys is not None:
                    candidates = candidates[: self.max_candidate_keys]
                if not candidates:
                    diagnostics.append(f"stage {stage.name!r}: no candidate keys mined")
                    continue
                # Wider mining sees more disagreement, so the estimate can
                # only sharpen upward — refresh it for confidence scoring.
                refreshed = estimate_decay_rate(candidates=candidates, prior_rate=estimate.rate)
                if refreshed.source == "mined-support" and refreshed.rate > estimate.rate:
                    estimate = refreshed
                pool = keys_matrix(candidates)
                # Confidence is scored against the channel the verifier
                # actually sees: local decay plus the pool keys' own
                # residual decay (see :func:`pool_decay_rate`).
                effective_rate = min(0.499, estimate.rate + pool_decay_rate(pool))
                search = AesKeySearch(
                    pool,
                    self.key_bits,
                    verify_tolerance_bits=stage.verify_tolerance_bits,
                    accept_mismatch_fraction=stage.accept_mismatch_fraction,
                    repair_bits=stage.repair_bits,
                    schedule_vote=stage.schedule_vote,
                    join_radius_bits=stage.join_radius_bits,
                    extension_radius_blocks=stage.extension_radius_blocks,
                    decay_rate=effective_rate,
                    schedule_decode=stage.schedule_decode,
                    decode_iters=self.decode_iters,
                    decode_workers=self.decode_workers,
                    decode_state_store=self.decode_state_store,
                    deadline=deadline,
                )
                try:
                    per_extent = [
                        (
                            offset,
                            search.recover_keys(image.view(offset, length, base_address=0)),
                        )
                        for offset, length in extents
                    ]
                    recovered = merge_recovered(per_extent)
                    recovered = self._complete_pairs(image, search, recovered, stage)
                except DeadlineExceededError as error:
                    # Mid-decode expiry: the partial posteriors are already
                    # in the state store (the search saved them before
                    # re-raising), so the run is resumable — report what
                    # completed instead of discarding it.
                    fold_decode(search)
                    decode_totals["interrupted"] = True
                    diagnostics.append(
                        f"stage {stage.name!r} interrupted: {error}"
                        + (
                            "; partial decode state checkpointed"
                            if self.decode_state_store is not None
                            else ""
                        )
                    )
                    break
                fold_decode(search)
                if recovered:
                    if max(r.confidence for r in recovered) >= STOP_CONFIDENCE_FLOOR:
                        diagnostics.append(
                            f"stage {stage.name!r}: recovered {len(recovered)} schedule(s)"
                        )
                        break
                    diagnostics.append(
                        f"stage {stage.name!r}: dropped {len(recovered)} recovery(ies) "
                        f"below the confidence floor ({STOP_CONFIDENCE_FLOOR}); escalating"
                    )
                    recovered = []
                    continue
                diagnostics.append(f"stage {stage.name!r}: no schedules recovered")
            finally:
                stage_seconds[stage.name] = time.monotonic() - stage_start
        decode_block = None
        if decode_totals["tables"] or decode_totals["gated"] or decode_totals["interrupted"]:
            tables = decode_totals["tables"]
            decode_block = {
                "tables": tables,
                "iterations": decode_totals["iterations"],
                "converged": decode_totals["converged"],
                "abstained": decode_totals["abstained"],
                "checks_updated": decode_totals["checks_updated"],
                "checks_dense": decode_totals["checks_dense"],
                "gated": decode_totals["gated"],
                "claimed": decode_totals["claimed"],
                "workers": self.decode_workers,
                "mean_posterior_entropy": (
                    decode_totals["posterior_entropy_sum"] / tables if tables else 0.0
                ),
                "interrupted": decode_totals["interrupted"],
            }
        return AdaptiveRecovery(
            recovered=recovered,
            candidates=candidates,
            estimate=estimate,
            stages_run=stages_run,
            work_spent=spent,
            quarantined=quarantined,
            diagnostics=diagnostics,
            decode=decode_block,
            decode_abstains=decode_abstains,
            stage_seconds=stage_seconds,
        )

    # ---------------------------------------------------------------- keyfind

    def keyfind(
        self,
        image: MemoryImage,
        reference: MemoryImage | None = None,
        deadline: "Deadline | float | None" = None,
    ) -> tuple[list[KeyfindMatch], list[str]]:
        """Escalating Halderman-style search over *unscrambled* memory.

        No litmus statistics exist without a scrambler, so the estimate
        comes from a reference image or the prior; the ladder then
        escalates ``find_aes_keys``'s window tolerance stage by stage.
        Returns ``(matches, stages_run)``.
        """
        reference_map = None
        if reference is not None:
            from repro.analysis.decay_map import decay_map

            reference_map = decay_map(reference, image)
        deadline = Deadline.coerce(deadline)
        estimate = estimate_decay_rate(reference_map=reference_map, prior_rate=self.prior_rate)
        stages = AdaptiveBudget(estimate, total_work=self.total_work).stages()
        stages_run: list[str] = []
        spent = 0
        for stage in stages:
            if stages_run and spent + stage.cost > self.total_work:
                break
            if deadline is not None and deadline.expired:
                break
            spent += stage.cost
            stages_run.append(stage.name)
            matches = find_aes_keys(
                image, key_bits=self.key_bits, tolerance_bits=stage.keyfind_tolerance_bits
            )
            if matches:
                return matches, stages_run
        return [], stages_run
