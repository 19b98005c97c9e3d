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
   or a fixed prior.
2. **Escalate** through three :class:`BudgetStage`\\ s — a strict
   first pass at the paper's budgets, a calibrated retry whose
   tolerances are set to ``mean + 3σ`` of the mismatch a true artefact
   would show at the estimated rate, then belief-propagation decoding
   (:mod:`repro.attack.decode`) — under a total work budget.
3. **Quarantine** regions that cannot contribute (torn constant fill,
   a second scrambler's keystream, decay past the litmus horizon) with
   structured :class:`~repro.resilience.errors.RegionQuarantineError`
   diagnostics, and complete the scan over the remainder.

The calibrated stage turns on the cross-round consistency voting of
:func:`repro.attack.aes_search.vote_correct_table` — correcting flipped
schedule bits instead of merely tolerating them.  Every stage threads
the decay estimate into :func:`repro.attack.aes_search.confidence_score`
so every recovery carries a posterior confidence calibrated to the
channel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.attack.aes_search import AesKeySearch, RecoveredAesKey
from repro.attack.decode import DEFAULT_DECODE_ITERS, clamp_rate
from repro.attack.keymine import (
    DEFAULT_SCAN_LIMIT_BYTES,
    CandidateKey,
    MiningState,
    keys_matrix,
    mine_scrambler_keys,
    nearest_distances,
)
from repro.attack.litmus import key_litmus_mismatch_bits, litmus_parity_matrix
from repro.attack.parallel import merge_recovered
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
#: crossover a calibrated ballot occasionally coughs up a
#: junk-tail key scored ~1e-3 (a true key at any stage's operating
#: point scores ≥~5e-2); breaking on it would both return a wrong key
#: and starve the decoded stage that can still produce the right one.
#: Recoveries under the floor are dropped — abstaining is part of the
#: contract, being wrong is not — with the drop recorded in the run's
#: diagnostics.
STOP_CONFIDENCE_FLOOR = 0.01

#: Past this estimated decay rate the calibrated vote+repair stage is
#: provably hopeless — the crossover where a true schedule's best
#: verify window sinks below the junk floor sits near 0.020 — yet its
#: junk handling is the most expensive part of a classical pass.  The
#: budget therefore escalates straight from strict to the decoded
#: stage, spending the work where belief propagation can still win
#: instead of burning it on ballots that cannot.
CLASSICAL_CEILING_RATE = 0.028


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
    of the population); the calibrated stage's ``+3σ`` headroom and
    the decoded stage's doubled rate absorb that.
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
    headroom and a decoded final stage calibrated to twice the rate.

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
    accept_mismatch_fraction: float
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
    accept_mismatch_fraction=0.05,
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


def stage_for_rate(rate: float) -> BudgetStage:
    """The ``calibrated`` rung: budgets true artefacts at ``rate`` pass
    with margin.

    Effective bit counts: a zero block's litmus invariants re-read each
    of its 512 bits about three times; two noisy sightings of one key
    differ over 2·512 member bits; a verification window's 128 check
    bits plus its (nonlinearly diffused) window bits behave like ~700.
    """
    return BudgetStage(
        name="calibrated",
        litmus_tolerance_bits=_tail_budget(1536, rate, floor=16, cap=64),
        merge_radius_bits=_tail_budget(1024, rate, floor=16, cap=48),
        verify_tolerance_bits=_tail_budget(700, rate, floor=16, cap=44),
        accept_mismatch_fraction=min(0.30, max(0.05, 6.0 * rate + 0.02)),
        schedule_vote=True,
        cost=2,
    )


#: Stage names in escalation order: every ladder is a prefix of this
#: order, less ``calibrated`` past :data:`CLASSICAL_CEILING_RATE`.
STAGE_ORDER = ("strict", "calibrated", "decoded")


def decode_stage_for_rate(rate: float) -> BudgetStage:
    """The ladder's top rung: budgets wide enough to *reach* the decoder.

    The decoder corrects channels several times past the calibrated
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
        accept_mismatch_fraction=min(0.25, max(0.10, 3.0 * inflated + 0.04)),
        # Unused: a decode search never ballots, so voting does not
        # apply — the decoder does all the correcting.
        schedule_vote=True,
        schedule_decode=True,
        join_radius_bits=1,
        extension_radius_blocks=0,
        cost=4,
    )


@dataclass(frozen=True)
class AdaptiveBudget:
    """Derives the escalation ladder for a decay estimate.

    Strict first (cost 1) — at low decay the paper's budgets are both
    the fastest and the most junk-resistant pass — then a stage
    calibrated to the estimated rate with consistency voting on (cost
    2), and finally the ``decoded`` stage (cost 4): belief-propagation
    decoding behind budgets wide enough to feed it
    (:func:`decode_stage_for_rate`).  Past
    :data:`CLASSICAL_CEILING_RATE` the calibrated rung is dropped —
    hopeless at that channel — so the ladder jumps from strict to
    decoded.  The default ``total_work=10`` fits every rung.
    """

    estimate: DecayEstimate
    total_work: int = 10
    #: Highest rung the ladder may climb (a :data:`STAGE_ORDER` name);
    #: ``None`` lets the work budget alone decide.
    max_stage: str | None = None

    def __post_init__(self) -> None:
        if self.total_work < 1:
            raise ValueError("total_work must be at least 1")
        if self.max_stage is not None and self.max_stage not in STAGE_ORDER:
            raise ValueError(
                f"max_stage must be one of {STAGE_ORDER}, got {self.max_stage!r}"
            )

    def stages(self) -> list[BudgetStage]:
        """The ladder in :data:`STAGE_ORDER` order, cut to the work budget.

        Strict always runs; the ladder stops before the first later rung
        whose cost would take the cumulative cost past ``total_work``,
        so an engine running any subsequence of it stays within budget.
        The wall-clock deadline is the engine's to enforce, rung by
        rung, with costs measured on the dump.
        """
        rate = self.estimate.rate
        ladder = [STRICT_STAGE]
        if rate <= CLASSICAL_CEILING_RATE:
            ladder.append(stage_for_rate(rate))
        ladder.append(decode_stage_for_rate(rate))
        if self.max_stage is not None:
            keep_through = STAGE_ORDER.index(self.max_stage)
            ladder = [
                stage for stage in ladder if STAGE_ORDER.index(stage.name) <= keep_through
            ]
        spent = 0
        for count, stage in enumerate(ladder):
            spent += stage.cost
            if count and spent > self.total_work:
                return ladder[:count]
        return ladder


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
    pool = keys_matrix(candidates)
    as_values = np.dtype((np.void, BLOCK_SIZE))

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
        if n_pass >= 8 and pool.shape[0]:
            rows = np.ascontiguousarray(region[region_pass])
            far_bits = 2 * merge_radius_bits
            # A passing block that is itself a pool key sits at distance
            # 0; only the others need their exact pool minimum.
            distances = np.zeros(rows.shape[0], dtype=np.int64)
            outside = ~np.isin(rows.view(as_values).ravel(), pool.view(as_values).ravel())
            if outside.any():
                distances[outside] = nearest_distances(rows[outside], pool)
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
    #: converged/abstained/cut counts, bases the span pre-gate rejected
    #: (``gated``) or skipped inside a decoded key's region
    #: (``claimed``), mean posterior entropy, and whether a deadline
    #: interrupted a decode mid-sweep.  A list decode starts its combos
    #: a few at a time, in priority order, and ends at its first combo
    #: that converges and passes the region check.  The combos it ends
    #: before they settle, many of which never start, count in
    #: ``tables`` and in ``cut``, so converged + abstained + cut ==
    #: tables; their sweeps count in ``iterations``, and the mean
    #: posterior entropy is over the converged and abstained tables
    #: only.
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
    calibrated 2, decoded 4; the default of 10 fits all three); the
    engine stops at the first stage that recovers schedules, so a
    lightly decayed dump pays only the strict pass.
    """

    def __init__(
        self,
        key_bits: int = 256,
        total_work: int = 10,
        scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
        max_stage: str | None = None,
        decode_iters: int = DEFAULT_DECODE_ITERS,
        decode_state_store=None,
    ) -> None:
        if max_stage is not None and max_stage not in STAGE_ORDER:
            raise ValueError(f"max_stage must be one of {STAGE_ORDER}, got {max_stage!r}")
        if decode_iters < 1:
            raise ValueError("decode_iters must be at least 1")
        self.key_bits = key_bits
        self.total_work = total_work
        self.scan_limit_bytes = scan_limit_bytes
        #: Ceiling on the escalation ladder (see :data:`STAGE_ORDER`).
        self.max_stage = max_stage
        self.decode_iters = decode_iters
        #: Optional :class:`~repro.resilience.checkpoint.DecodeStateStore`
        #: for resumable mid-decode checkpoints.
        self.decode_state_store = decode_state_store

    # ---------------------------------------------------------------- helpers

    def _mining_image(self, image: MemoryImage, extents: list[tuple[int, int]]) -> MemoryImage:
        """The scannable extents spliced for mining (keys are position-free).

        The miner groups blocks by *value* only, so concatenating the
        healthy stretches — up to the scan limit, or all of them without
        one — keeps quarantined bytes out of the candidate pool without
        re-indexing.
        """
        if len(extents) == 1 and extents[0] == (0, len(image)):
            return image
        limit = self.scan_limit_bytes
        parts: list[bytes] = []
        total = 0
        for offset, length in extents:
            take = length if limit is None else min(length, limit - total)
            take -= take % BLOCK_SIZE
            if take <= 0:
                break
            parts.append(bytes(image.data[offset : offset + take]))
            total += take
        return MemoryImage(b"".join(parts))

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
        # One mining state per dump: the litmus scores are computed once,
        # and a budget pair mined twice (strict here and as a rung, the
        # widest pair for triage and as a rung) is answered from memory.
        mining = MiningState(image, self.scan_limit_bytes)
        strict_candidates = mine_scrambler_keys(
            image,
            tolerance_bits=STRICT_STAGE.litmus_tolerance_bits,
            merge_radius_bits=STRICT_STAGE.merge_radius_bits,
            scan_limit_bytes=self.scan_limit_bytes,
            state=mining,
        )
        reference_map = None
        if reference is not None:
            from repro.analysis.decay_map import decay_map

            reference_map = decay_map(reference, image)
        estimate = estimate_decay_rate(
            candidates=strict_candidates,
            reference_map=reference_map,
            image=image,
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
        # regions of a heavily decayed dump as alien.
        widest = max(stages, key=lambda stage: stage.litmus_tolerance_bits)
        triage_pool = strict_candidates
        if widest.litmus_tolerance_bits > STRICT_STAGE.litmus_tolerance_bits:
            triage_pool = mine_scrambler_keys(
                image,
                tolerance_bits=widest.litmus_tolerance_bits,
                merge_radius_bits=widest.merge_radius_bits,
                scan_limit_bytes=self.scan_limit_bytes,
                state=mining,
            )
        extents, quarantined = triage_regions(
            image,
            triage_pool,
            litmus_tolerance_bits=widest.litmus_tolerance_bits,
            merge_radius_bits=widest.merge_radius_bits,
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
        if mining_image is not image:
            mining = MiningState(mining_image, self.scan_limit_bytes)

        recovered: list[RecoveredAesKey] = []
        candidates = strict_candidates
        stages_run: list[str] = []
        spent = 0
        decode_totals = {
            "tables": 0,
            "iterations": 0,
            "converged": 0,
            "abstained": 0,
            "cut": 0,
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
                "cut",
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
                    state=mining,
                )
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
                    schedule_vote=stage.schedule_vote,
                    join_radius_bits=stage.join_radius_bits,
                    extension_radius_blocks=stage.extension_radius_blocks,
                    decay_rate=effective_rate,
                    schedule_decode=stage.schedule_decode,
                    decode_iters=self.decode_iters,
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
                    recovered = search.complete_pairs(
                        image, recovered, max(40, stage.verify_tolerance_bits + 8)
                    )
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
            settled = decode_totals["converged"] + decode_totals["abstained"]
            decode_block = {
                "tables": tables,
                "iterations": decode_totals["iterations"],
                "converged": decode_totals["converged"],
                "abstained": decode_totals["abstained"],
                "cut": decode_totals["cut"],
                "checks_updated": decode_totals["checks_updated"],
                "checks_dense": decode_totals["checks_dense"],
                "gated": decode_totals["gated"],
                "claimed": decode_totals["claimed"],
                "mean_posterior_entropy": (
                    decode_totals["posterior_entropy_sum"] / settled if settled else 0.0
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
