"""Sharded scanning — §III-C's "the task is fully parallelizable".

The paper scans 8 GB on an eight-core Xeon in ~21 h by splitting the
dump across cores; "we can analyze gigabytes of data in a matter of
hours using multiple machines".  This module implements that split:

* key mining runs once over the (≤16 MB) mining window — it is cheap
  and every shard needs the same candidate pool;
* the AES search shards the dump into overlapping slices (overlap of
  one schedule length, so a table straddling a boundary is wholly
  inside some shard) and runs per-shard searches, serially or on a
  worker pool;
* results merge by table base, deduplicating the overlap.

A multi-hour batch job cannot die because one worker did, so the scan
runs on :class:`repro.resilience.executor.ResilientShardRunner`:
crashed or hung shards are retried with deterministic backoff, shards
out of retry budget are quarantined and reported in the
:class:`ScanReport`'s ledger, a repeatedly-breaking pool degrades to
in-process serial execution, and (optionally) every completed shard is
journalled to a crash-safe checkpoint so an interrupted scan resumes
without re-searching anything (``checkpoint=path``).

`shard_image` / `merge_recovered` are pure and tested directly; the
orchestrator works with `workers=1` (in-process) or `workers>1` (a
worker pool).

Worker pools
------------

Each call builds one run state (:class:`_ScanRun`): the dump, the mined
key matrix and its CRC, one
:class:`~repro.attack.aes_search.KeyFingerprintCache`, and the watchdog's
heartbeat board with its slot map.  It is registered under a run token
for the length of the call, and every pool gets the same worker,
``partial(_scan_shard_task, token)``.  The pool follows from the run:
the scan kernels are numpy bulk operations that release the GIL, so
shards run on a thread pool that reads the registry entry in the
orchestrator's address space, with the fingerprint cache built once
before fan-out.  Only a process can be killed from outside, so a stall
watchdog or a fault plan scripting process-level (``kill``/``hang``)
faults selects a process pool instead.  Its workers are forked after
the run is registered — a pool the resilient executor rebuilds after a
crash or hang too — so each reads the copy of the run state it
inherited: nothing is published, attached or copied, and each worker
fills its own copy of the fingerprint cache on first use.
:attr:`ScanReport.executor` records which pool ran.  A run drops its
entry when it ends, so concurrent scans in one process (the job
service runs several) never read each other's state.

Shards are *views*: :func:`shard_image` slices the dump with
``memoryview``, so a shard owns ``(base_offset, length)`` — never a
copy of the bytes.  A shard task pickles to ``(length, fault_plan)``
plus an integer offset and the run token — well under a kilobyte
regardless of dump size — and a retried or rescheduled shard re-ships
nothing.
"""

from __future__ import annotations

import itertools
import time
import zlib
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.attack.aes_search import AesKeySearch, KeyFingerprintCache, RecoveredAesKey
from repro.attack.keymine import DEFAULT_SCAN_LIMIT_BYTES, keys_matrix, mine_scrambler_keys
from repro.crypto.aes import schedule_bytes
from repro.dram.image import MemoryImage
from repro.resilience.checkpoint import CheckpointJournal, JournalHeader, dump_fingerprint
from repro.resilience.deadline import Deadline
from repro.resilience.errors import (
    CheckpointCorruptError,
    CheckpointStaleError,
    CheckpointStorageError,
    ShardLayoutError,
    SharedSegmentCorruptError,
)
from repro.resilience.executor import (
    STATUS_FROM_CHECKPOINT,
    ResilientShardRunner,
    RunLedger,
    ShardOutcome,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.resilience.watchdog import HeartbeatBoard, HeartbeatMonitor, WatchdogConfig
from repro.util.blocks import BLOCK_SIZE


@dataclass(frozen=True)
class Shard:
    """One slice of a dump, with its offset in the original image.

    ``image`` is a zero-copy view into the parent dump's buffer (see
    :meth:`MemoryImage.view`): a shard is fully described by
    ``(base_offset, length)``, which is all that crosses the process
    boundary when shards are dispatched to workers.
    """

    base_offset: int
    image: MemoryImage

    def __post_init__(self) -> None:
        if self.base_offset % BLOCK_SIZE:
            raise ShardLayoutError("shard offsets must be block-aligned")

    @property
    def length(self) -> int:
        """Shard size in bytes."""
        return len(self.image)


def shard_image(dump: MemoryImage, n_shards: int, overlap_bytes: int) -> list[Shard]:
    """Split a dump into ``n_shards`` slices with trailing overlap.

    Each shard (except the last) extends ``overlap_bytes`` past its
    nominal boundary, rounded up to whole blocks, so any structure up
    to that long lies entirely within at least one shard.
    """
    if n_shards < 1:
        raise ShardLayoutError("need at least one shard")
    if overlap_bytes < 0:
        raise ShardLayoutError("overlap must be non-negative")
    total_blocks = dump.n_blocks
    if total_blocks == 0:
        return []
    n_shards = min(n_shards, total_blocks)
    per_shard = -(-total_blocks // n_shards)  # ceil division
    overlap_blocks = -(-overlap_bytes // BLOCK_SIZE)
    shards = []
    for index in range(n_shards):
        start_block = index * per_shard
        if start_block >= total_blocks:
            break
        stop_block = min(total_blocks, start_block + per_shard + overlap_blocks)
        start = start_block * BLOCK_SIZE
        shards.append(
            Shard(
                base_offset=start,
                image=dump.view(start, stop_block * BLOCK_SIZE - start, base_address=0),
            )
        )
    return shards


def _rebase_recovered(result: RecoveredAesKey, shard_offset: int) -> RecoveredAesKey:
    """Shift a shard-local result into whole-dump coordinates."""
    if shard_offset == 0:
        return result
    shift_blocks = shard_offset // BLOCK_SIZE
    return replace(
        result,
        first_block_index=result.first_block_index + shift_blocks,
        hits=tuple(
            replace(hit, block_index=hit.block_index + shift_blocks)
            for hit in result.hits
        ),
    )


def merge_recovered(
    per_shard: list[tuple[int, list[RecoveredAesKey]]]
) -> list[RecoveredAesKey]:
    """Merge shard results, deduplicating overlap re-discoveries.

    Each result is first rebased into whole-dump coordinates (its
    hits' block indices — and hence ``table_base`` — become global), so
    two shard findings describe the same schedule exactly when their
    table bases coincide; the better-confirmed one wins.  Results
    without any :class:`ScheduleHit` carry no location evidence — they
    cannot be assigned a global base (and must not collide with a
    genuine schedule at offset 0), so they are dropped.
    """
    by_global_base: dict[int, RecoveredAesKey] = {}
    for shard_offset, results in per_shard:
        for result in results:
            if not result.hits:
                continue
            rebased = _rebase_recovered(result, shard_offset)
            global_base = rebased.hits[0].table_base
            kept = by_global_base.get(global_base)
            # Votes are the hardest evidence; among equally-voted
            # findings the posterior confidence (residual mismatch vs
            # the decay channel) outranks the raw match fraction.
            if kept is None or (
                rebased.votes,
                rebased.confidence,
                rebased.match_fraction,
            ) > (kept.votes, kept.confidence, kept.match_fraction):
                by_global_base[global_base] = rebased
    return [by_global_base[base] for base in sorted(by_global_base)]


@dataclass
class _ScanRun:
    """One scan's state: everything its shard tasks read."""

    dump: bytes | bytearray | memoryview
    keys: np.ndarray
    key_bits: int
    #: CRC32 of ``keys`` as the orchestrator built them; every shard
    #: task re-checks its copy against it.
    keys_crc: int
    key_cache: KeyFingerprintCache
    board: HeartbeatBoard | None = None
    #: Shard offset → heartbeat board slot (empty without a board).
    slots: dict[int, int] = field(default_factory=dict)

    def beat(self, shard_offset: int) -> None:
        """Publish one progress beat for a shard (no-op without a board)."""
        slot = self.slots.get(shard_offset)
        if slot is not None:
            self.board.beat(slot)


#: Every live scan's :class:`_ScanRun`, by run token.  Serial and thread
#: workers read it in the orchestrator; process workers read the copy
#: they inherited when their pool forked.
_RUNS: dict[int, _ScanRun] = {}
_RUN_TOKENS = itertools.count()


def _scan_shard_task(
    token: int,
    payload: tuple[int, FaultPlan | None],
    shard_offset: int,
    attempt: int,
    in_subprocess: bool,
) -> list[RecoveredAesKey]:
    """Worker: search one shard of run ``token``'s dump.

    The payload is ``(length, fault_plan)`` — a shard is just a window
    ``[shard_offset, shard_offset + length)`` over the run's dump.
    Retries re-enter here with a bumped ``attempt`` and re-ship nothing.
    """
    length, fault_plan = payload
    run = _RUNS[token]
    # First beat arms the watchdog's stall clock for this shard: from
    # here on, silence past stall_timeout_s means a genuine wedge.
    run.beat(shard_offset)
    keys = run.keys
    if fault_plan is not None:
        # A scripted "poison" fault damages this worker's copy of the
        # key matrix without touching what sibling workers see.
        keys = fault_plan.poison_keys(shard_offset, attempt, keys)
    actual_crc = zlib.crc32(np.ascontiguousarray(keys).tobytes()) & 0xFFFFFFFF
    if actual_crc != run.keys_crc:
        raise SharedSegmentCorruptError("keys", run.keys_crc, actual_crc)
    shard_view = memoryview(run.dump)[shard_offset : shard_offset + length]
    if fault_plan is not None:
        # Fault injection mutates its copy of the shard, never the
        # dump every sibling is scanning.
        image = MemoryImage(
            fault_plan.apply(
                shard_offset, attempt, bytes(shard_view), in_subprocess=in_subprocess
            )
        )
    else:
        image = MemoryImage(shard_view)
    # A poisoned matrix that slipped past the CRC must not reuse the
    # fingerprint cache built from the clean keys.
    cache = run.key_cache if keys is run.keys else None
    search = AesKeySearch(keys, key_bits=run.key_bits, key_cache=cache)
    search.on_progress = lambda: run.beat(shard_offset)
    results = search.recover_keys(image)
    run.beat(shard_offset)
    return results


@dataclass
class ScanReport:
    """A resilient sharded scan's findings plus its execution ledger."""

    recovered: list[RecoveredAesKey] = field(default_factory=list)
    candidates: list = field(default_factory=list)
    ledger: RunLedger = field(default_factory=RunLedger)
    n_shards: int = 0
    mine_seconds: float = 0.0
    search_seconds: float = 0.0
    #: Diagnostic when an existing checkpoint journal was rejected
    #: (failed CRC or unreadable records) and the scan restarted fresh
    #: instead of replaying untrusted results.
    checkpoint_rejected: str | None = None
    #: The run's wall-clock budget in seconds (None = unbounded).
    deadline_seconds: float | None = None
    #: Diagnostic when journaling died (primary *and* fallback paths
    #: unwritable) and the scan completed without further checkpoints.
    checkpoint_error: str | None = None
    #: Where the journal actually lives — differs from the requested
    #: path after an ENOSPC rotation to the fallback directory.
    checkpoint_path: str | None = None
    #: How shard jobs actually ran: ``"serial"`` (one worker,
    #: in-process), ``"thread"`` (shared-address-space pool for the
    #: GIL-releasing fused kernels), or ``"process"`` (isolated,
    #: killable workers, which a stall watchdog or process-level
    #: faults select).
    executor: str = "serial"

    @property
    def quarantined_offsets(self) -> list[int]:
        """Byte offsets of shards abandoned after retries (sorted)."""
        return sorted(o.shard_offset for o in self.ledger.quarantined)

    @property
    def unscanned_offsets(self) -> list[int]:
        """Offsets left resumable by a deadline expiry or interrupt."""
        return sorted(o.shard_offset for o in self.ledger.unfinished)

    @property
    def resumed_shards(self) -> int:
        """How many shards were skipped thanks to the checkpoint."""
        return len(self.ledger.resumed)

    @property
    def interrupted(self) -> bool:
        """Whether a graceful-shutdown signal cut the scan short."""
        return self.ledger.interrupted

    @property
    def deadline_expired(self) -> bool:
        """Whether the wall-clock deadline cut the scan short."""
        return self.ledger.deadline_expired

    @property
    def expiry_cause(self) -> str | None:
        """Why the scan ended early ("deadline", a signal name), if it did."""
        return self.ledger.stop_cause or None

    @property
    def complete(self) -> bool:
        """True when every shard was scanned (nothing quarantined,
        nothing left behind by a deadline or interrupt)."""
        return not self.ledger.quarantined and not self.ledger.unfinished


def resilient_recover_keys(
    dump: MemoryImage,
    key_bits: int = 256,
    workers: int = 1,
    n_shards: int | None = None,
    retry_policy: RetryPolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = True,
    fault_plan: FaultPlan | None = None,
    on_event=None,
    deadline: "Deadline | float | None" = None,
    stop=None,
    watchdog: WatchdogConfig | None = None,
    checkpoint_fallback_dir: str | Path | None = None,
    scan_limit_bytes: int | None = DEFAULT_SCAN_LIMIT_BYTES,
) -> ScanReport:
    """Mine once, search in shards fault-tolerantly, merge, report.

    Keys are mined from the first ``scan_limit_bytes`` of the dump (all
    of it when None); the search covers the whole dump.  This is a pure
    scan: XTS siblings it misses are rescued by
    :meth:`~repro.attack.pipeline.Ddr4ColdBootAttack.run_sharded`, not
    here.  Failures are retried per ``retry_policy``, completed shards
    are journalled to ``checkpoint`` (and skipped on ``resume``), and
    ``fault_plan`` lets the test harness sabotage workers
    deterministically.

    ``deadline`` (a :class:`Deadline` or seconds) bounds the whole scan
    — on expiry the completed shards are already journalled, the rest
    are reported as unscanned, and the run is resumable.  ``stop`` (a
    :class:`~repro.resilience.shutdown.GracefulShutdown`) drains
    in-flight shards to the journal on the first signal.  ``watchdog``
    enables heartbeat stall detection (and kills stalled workers).
    ``checkpoint_fallback_dir`` is where the journal rotates when its
    primary path stops accepting writes.

    With ``workers > 1`` shards run on threads, unless the run needs
    killable workers — a ``watchdog``, or a ``fault_plan`` scripting
    process-level (``kill``/``hang``) faults — which selects a process
    pool (see the module docstring).
    """
    if workers < 1:
        raise ShardLayoutError("need at least one worker")
    needs_isolation = watchdog is not None or (
        fault_plan is not None and fault_plan.has_process_faults()
    )
    pool_kind = "process" if needs_isolation else "thread"
    policy = retry_policy or RetryPolicy()
    deadline = Deadline.coerce(deadline)
    deadline_seconds = deadline.total_seconds if deadline is not None else None
    start = time.perf_counter()
    candidates = mine_scrambler_keys(dump, scan_limit_bytes=scan_limit_bytes)
    mine_seconds = time.perf_counter() - start
    if not candidates:
        return ScanReport(
            candidates=[], mine_seconds=mine_seconds, deadline_seconds=deadline_seconds
        )
    overlap = schedule_bytes(key_bits) + BLOCK_SIZE
    shards = shard_image(dump, n_shards=n_shards or workers, overlap_bytes=overlap)

    journal: CheckpointJournal | None = None
    already_done: dict[int, list[RecoveredAesKey]] = {}
    checkpoint_rejected: str | None = None
    if checkpoint is not None:
        header = JournalHeader(
            dump_len=len(dump),
            dump_sha256=dump_fingerprint(dump.data),
            key_bits=key_bits,
            n_shards=len(shards),
            overlap_bytes=overlap,
        )
        try:
            journal, already_done = CheckpointJournal.open(
                checkpoint, header, resume=resume,
                fallback_directory=checkpoint_fallback_dir,
            )
        except CheckpointStaleError:
            # The journal is intact but pinned to a different dump or
            # shard geometry — a caller mistake, not damage.  Refuse
            # rather than silently discarding the wrong checkpoint.
            raise
        except CheckpointCorruptError as exc:
            # A journal that fails its integrity checks must neither be
            # replayed (a rotted line could resurrect a wrong key) nor
            # abort a multi-hour scan: record the diagnostic, start a
            # fresh journal, and re-search everything.
            checkpoint_rejected = str(exc)
            journal, already_done = CheckpointJournal.open(
                checkpoint, header, resume=False,
                fallback_directory=checkpoint_fallback_dir,
            )

    report = ScanReport(
        candidates=candidates,
        n_shards=len(shards),
        mine_seconds=mine_seconds,
        checkpoint_rejected=checkpoint_rejected,
        deadline_seconds=deadline_seconds,
        checkpoint_path=None if journal is None else str(journal.path),
    )
    search_start = time.perf_counter()
    jobs: dict[int, tuple] = {}
    for shard in shards:
        if shard.base_offset in already_done:
            report.ledger.outcomes[shard.base_offset] = ShardOutcome(
                shard_offset=shard.base_offset,
                status=STATUS_FROM_CHECKPOINT,
                result=already_done[shard.base_offset],
            )
            continue
        jobs[shard.base_offset] = (shard.length, fault_plan)

    if jobs:
        notify = on_event or (lambda message: None)
        # The key matrix is only materialised when there is work left to
        # run — a fully-resumed scan (every shard already journalled)
        # skips it.
        keys_mat = keys_matrix(candidates)
        run = _ScanRun(
            dump=dump.data,
            keys=keys_mat,
            key_bits=key_bits,
            keys_crc=zlib.crc32(keys_mat.tobytes()) & 0xFFFFFFFF,
            key_cache=KeyFingerprintCache(keys_mat, key_bits),
        )
        report.executor = "serial" if workers == 1 else pool_kind
        monitor: HeartbeatMonitor | None = None
        if watchdog is not None and workers > 1:
            # Made before the pool forks, so every worker beats into it.
            run.board = HeartbeatBoard.create(len(jobs))
            if run.board is None:
                notify("heartbeat board unavailable; stall watchdog disabled")
            else:
                run.slots = {offset: slot for slot, offset in enumerate(sorted(jobs))}
                monitor = HeartbeatMonitor(run.board, run.slots, watchdog)
        if report.executor == "thread":
            # The key-side join tables are a pure function of the keys
            # and the scan geometry: build them once before fan-out, so
            # thread workers share pure reads.  Process workers each
            # fill the copy they inherit (docs/performance.md §2).
            run.key_cache.precompute()
        token = next(_RUN_TOKENS)
        _RUNS[token] = run
        try:
            # Journal the instant each shard completes — a scan killed
            # mid-run must find every finished shard on disk when it
            # resumes.  Journaling survives a dying filesystem by
            # rotating to the fallback path; if even that fails the
            # scan continues un-journalled rather than dying mid-write.
            on_result = None if journal is None else journal.record
            if (
                on_result is not None
                and fault_plan is not None
                and fault_plan.has_journal_faults()
            ):
                record = on_result
                journal_path = journal.path

                def on_result(offset: int, results, _record=record) -> None:
                    _record(offset, results)
                    fault_plan.corrupt_journal_record(journal_path, offset)

            if on_result is not None:
                recorder = on_result

                def on_result(offset: int, results) -> None:
                    if report.checkpoint_error is not None:
                        return
                    try:
                        recorder(offset, results)
                    except CheckpointStorageError as exc:
                        report.checkpoint_error = str(exc)
                        notify(
                            f"checkpoint journaling disabled ({exc}); "
                            "scan continues but is no longer resumable"
                        )
                    else:
                        report.checkpoint_path = str(journal.path)

            runner = ResilientShardRunner(
                partial(_scan_shard_task, token),
                policy=policy,
                workers=workers,
                on_event=on_event,
                on_result=on_result,
                pool_kind=pool_kind,
            )
            run_ledger = runner.run(jobs, deadline=deadline, stop=stop, watchdog=monitor)
        finally:
            del _RUNS[token]
            if run.board is not None:
                run.board.close()
        run_ledger.outcomes = {**report.ledger.outcomes, **run_ledger.outcomes}
        report.ledger = run_ledger

    per_shard = [
        (outcome.shard_offset, outcome.result)
        for outcome in report.ledger.completed
    ]
    report.recovered = merge_recovered(per_shard)
    report.search_seconds = time.perf_counter() - search_start
    return report

