"""Sharded scanning — §III-C's "the task is fully parallelizable".

The paper scans 8 GB on an eight-core Xeon in ~21 h by splitting the
dump across cores; "we can analyze gigabytes of data in a matter of
hours using multiple machines".  This module implements that split:

* key mining runs once over the (≤16 MB) mining window — it is cheap
  and every shard needs the same candidate pool;
* the AES search shards the dump into overlapping slices (overlap of
  one schedule length, so a table straddling a boundary is wholly
  inside some shard) and runs per-shard searches, serially or on a
  process pool;
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
orchestrator works with `workers=1` (in-process) or `workers>1`
(multiprocessing).

Zero-copy dispatch
------------------

Shards are *views*: :func:`shard_image` slices the dump with
``memoryview``, so a shard owns ``(base_offset, length)`` — never a
copy of the bytes.  For multi-process scans the dump and the mined key
matrix are published once into POSIX shared memory
(:class:`repro.dram.image.SharedDumpBuffer`); every worker process
attaches in its pool initializer (:func:`_init_scan_worker`).  The
key-side join tables travel the same way: the orchestrator precomputes
one :class:`~repro.attack.aes_search.KeyFingerprintCache`, exports it
as a position-independent blob, and publishes it through the resource
chain so workers attach read-only views instead of rebuilding the
tables per process.  A shard task then pickles to ``(length,
fault_plan)`` plus an integer offset — well under a kilobyte
regardless of dump size — and a retried or rescheduled shard re-ships
nothing.  When the resilient executor rebuilds a broken pool, the
fresh processes re-run the initializer and re-attach automatically.

Thread executor
---------------

The scan kernels are numpy bulk operations that release the GIL, so
the default executor (``executor="auto"`` → ``"thread"``) runs shards
on a thread pool sharing the orchestrator's address space: no process
spin-up, no pickling, no shared-memory segments — the dump, keys, and
fingerprint cache are passed by reference.  The process pool remains
one flag away (``executor="process"``) and is selected automatically
when a run needs process isolation: a stall watchdog, or a fault plan
scripting process-level (``kill``/``hang``) faults.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.attack.aes_search import AesKeySearch, KeyFingerprintCache, RecoveredAesKey
from repro.attack.keymine import keys_matrix, mine_scrambler_keys
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
from repro.resilience.resources import (
    BACKEND_SERIAL,
    PublishedBuffer,
    ResourcePolicy,
    publish_bytes,
    resolve_ref,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.watchdog import (
    HeartbeatBoard,
    HeartbeatMonitor,
    WatchdogConfig,
    attach_worker_heartbeat,
    beat,
    detach_worker_heartbeat,
)
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


def _search_shard(
    payload: tuple[bytes, bytes, int, FaultPlan | None],
    shard_offset: int,
    attempt: int,
    in_subprocess: bool,
) -> list[RecoveredAesKey]:
    """Worker: run the AES search over one shard (picklable signature).

    When a :class:`FaultPlan` rides along it is consulted first — the
    injected crash/hang/corruption happens in the worker, on exactly
    the code path a real failure would take.
    """
    shard_data, keys_blob, key_bits, fault_plan = payload
    if fault_plan is not None:
        shard_data = fault_plan.apply(
            shard_offset, attempt, shard_data, in_subprocess=in_subprocess
        )
    keys = np.frombuffer(keys_blob, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    search = AesKeySearch(keys.copy(), key_bits=key_bits)
    return search.recover_keys(MemoryImage(shard_data))


#: Per-process scan state installed by :func:`_init_scan_worker` in
#: process-pool workers: the attached dump buffer, the key matrix, and
#: the key-side fingerprint cache every shard task in that process
#: reuses.  Serial and thread-pool scans bind their own state to the
#: run instead, so concurrent scans in one process stay apart.
_WORKER_STATE: dict = {}


def _resolve_buffer(ref: tuple) -> tuple[object | None, object]:
    """Materialise a buffer reference into ``(holder, buffer)``.

    Delegates to :func:`repro.resilience.resources.resolve_ref`, which
    owns the attach protocol for every backend in the degradation chain
    — ``("shm", name, length)``, ``("file", path, length)``, and the
    in-process ``("buffer", obj)`` fast path.
    """
    return resolve_ref(ref)


def _release_worker_state() -> None:
    """Drop this process's scan state and close any attached segments.

    The state (dump view, keys array) must be dropped *before* the
    segments close — a mapping cannot be torn down while views into it
    are still exported.
    """
    holders = _WORKER_STATE.pop("holders", ())
    _WORKER_STATE.clear()
    for holder in holders:
        if holder is not None:
            holder.close()
    detach_worker_heartbeat()


def _init_scan_worker(
    dump_ref: tuple,
    keys_ref: tuple,
    key_bits: int,
    keys_crc: int | None = None,
    heartbeat_ref: tuple | None = None,
    heartbeat_slots: dict[int, int] | None = None,
    cache_ref: tuple | None = None,
) -> None:
    """Attach dump + key matrix once per worker process (pool initializer).

    Runs in every process of a fresh pool — including the processes of
    a pool the resilient executor rebuilt after a crash or hang, so
    re-attachment across pool generations needs no extra bookkeeping.
    The key-side fingerprint cache is built here once and shared by all
    shard tasks (and all retries) this process ever executes.

    ``keys_crc`` is the CRC32 of the key matrix as the orchestrator
    published it; every shard task re-checks its view against it, so a
    segment that was torn, remapped, or otherwise corrupted between
    publication and use surfaces as a structured
    :class:`~repro.resilience.errors.SharedSegmentCorruptError` instead
    of silently descrambling the dump with garbage keys.

    ``heartbeat_ref``/``heartbeat_slots`` (optional) attach this process
    to the watchdog's beat board so shard tasks publish liveness.
    """
    _release_worker_state()
    _WORKER_STATE.update(_attach_scan_state(dump_ref, keys_ref, key_bits, keys_crc, cache_ref))
    if heartbeat_ref is not None:
        attach_worker_heartbeat(heartbeat_ref, heartbeat_slots or {})


def _attach_scan_state(
    dump_ref: tuple,
    keys_ref: tuple,
    key_bits: int,
    keys_crc: int | None = None,
    cache_ref: tuple | None = None,
) -> dict:
    """Resolve one scan's buffer references into the state shard tasks read.

    The state holds the dump view, the key matrix, ``keys_crc``, the
    key-side fingerprint cache, and the ``holders`` whose mappings keep
    the views alive (``None`` for in-process buffers, which need no
    closing).

    ``cache_ref`` (optional) carries the orchestrator's fingerprint
    cache: ``("cache", obj)`` for thread pools (the object itself —
    same address space, nothing to parse) or a
    :meth:`KeyFingerprintCache.export_blob` buffer reference published
    alongside the dump and keys for process pools, where the worker
    *attaches* read-only views into the shared blob instead of
    rebuilding the join tables per process.  A blob that fails its
    structural checks falls back to a local rebuild (the cache is a
    pure function of the keys, so correctness never depends on the
    blob).
    """
    dump_holder, dump_view = _resolve_buffer(dump_ref)
    keys_holder, keys_view = _resolve_buffer(keys_ref)
    keys = np.frombuffer(keys_view, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    cache_holder = None
    key_cache = None
    if cache_ref is not None and cache_ref[0] == "cache":
        # Thread pool: the orchestrator's cache object itself.  Same
        # address space, so there is no blob to parse — workers share
        # the precomputed band tables (and their probe memo bitmaps)
        # by reference.
        key_cache = cache_ref[1]
    elif cache_ref is not None:
        cache_holder, cache_view = _resolve_buffer(cache_ref)
        try:
            key_cache = KeyFingerprintCache.attach(keys, key_bits, cache_view)
        except (ValueError, KeyError):
            if cache_holder is not None:
                cache_holder.close()
            cache_holder = None
            key_cache = None
    if key_cache is None:
        key_cache = KeyFingerprintCache(keys, key_bits)
    return dict(
        dump=dump_view,
        keys=keys,
        key_bits=key_bits,
        keys_crc=keys_crc,
        key_cache=key_cache,
        holders=(dump_holder, keys_holder, cache_holder),
    )


def _scan_shard_task(
    payload: tuple[int, FaultPlan | None],
    shard_offset: int,
    attempt: int,
    in_subprocess: bool,
    state: dict | None = None,
) -> list[RecoveredAesKey]:
    """Worker: search one shard of the pre-attached dump.

    The payload is ``(length, fault_plan)`` — with the dump and keys
    attached, a shard is just a window ``[shard_offset, shard_offset +
    length)`` over the shared buffer.  ``state`` is the run's own scan
    state (serial and thread pools bind it); process-pool workers leave
    it unset and read what :func:`_init_scan_worker` installed.
    Retries re-enter here with a bumped ``attempt`` and re-ship nothing.
    """
    length, fault_plan = payload
    if state is None:
        state = _WORKER_STATE
    if "dump" not in state:
        raise RuntimeError("scan worker used before _init_scan_worker ran")
    # First beat arms the watchdog's stall clock for this shard: from
    # here on, silence past stall_timeout_s means a genuine wedge.
    beat(shard_offset)
    keys = state["keys"]
    if fault_plan is not None:
        # A scripted "poison" fault damages this worker's view of the
        # key matrix — exactly what a torn shared-memory segment looks
        # like — without touching what sibling workers see.
        keys = fault_plan.poison_keys(shard_offset, attempt, keys)
    expected_crc = state.get("keys_crc")
    if expected_crc is not None:
        actual_crc = zlib.crc32(np.ascontiguousarray(keys).tobytes()) & 0xFFFFFFFF
        if actual_crc != expected_crc:
            raise SharedSegmentCorruptError("keys", expected_crc, actual_crc)
    shard_view = memoryview(state["dump"])[shard_offset : shard_offset + length]
    if fault_plan is not None:
        # Fault injection mutates its copy of the shard, never the
        # shared buffer every sibling is scanning.
        image = MemoryImage(
            fault_plan.apply(
                shard_offset, attempt, bytes(shard_view), in_subprocess=in_subprocess
            )
        )
    else:
        image = MemoryImage(shard_view)
    # A poisoned matrix that slipped past the CRC (no checksum was
    # published) must also invalidate the fingerprint cache — it was
    # built from the clean keys.
    cache = state["key_cache"] if keys is state["keys"] else None
    search = AesKeySearch(keys, key_bits=state["key_bits"], key_cache=cache)
    search.on_progress = lambda: beat(shard_offset)
    results = search.recover_keys(image)
    beat(shard_offset)
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
    #: Which degradation backend published the dump/keys for workers
    #: ("shm", "file", "serial", or "buffer" for single-process scans).
    resource_backend: str = "buffer"
    #: How shard jobs actually ran: ``"serial"`` (one worker,
    #: in-process), ``"thread"`` (shared-address-space pool for the
    #: GIL-releasing fused kernels), or ``"process"`` (isolated,
    #: killable workers — the chaos-tolerant pool).
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
    mining_tolerance_bits: int = 16,
    retry_policy: RetryPolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = True,
    fault_plan: FaultPlan | None = None,
    on_event=None,
    deadline: "Deadline | float | None" = None,
    stop=None,
    watchdog: WatchdogConfig | None = None,
    resource_policy: ResourcePolicy | None = None,
    checkpoint_fallback_dir: str | Path | None = None,
    executor: str = "auto",
) -> ScanReport:
    """Mine once, search in shards fault-tolerantly, merge, report.

    The full-control variant of :func:`parallel_recover_keys`: failures
    are retried per ``retry_policy``, completed shards are journalled
    to ``checkpoint`` (and skipped on ``resume``), and ``fault_plan``
    lets the test harness sabotage workers deterministically.

    ``deadline`` (a :class:`Deadline` or seconds) bounds the whole scan
    — on expiry the completed shards are already journalled, the rest
    are reported as unscanned, and the run is resumable.  ``stop`` (a
    :class:`~repro.resilience.shutdown.GracefulShutdown`) drains
    in-flight shards to the journal on the first signal.  ``watchdog``
    enables heartbeat stall detection for multi-process scans.
    ``resource_policy`` controls the shm → mmap-tempfile → serial
    publication chain; ``checkpoint_fallback_dir`` is where the journal
    rotates when its primary path stops accepting writes.

    ``executor`` picks the worker pool: ``"thread"`` shares the dump,
    key matrix, and fingerprint cache by reference (the scan kernels
    release the GIL, so threads scale without spin-up, pickling, or
    shared-memory round-trips), ``"process"`` keeps the isolated,
    killable workers, and ``"auto"`` (default) uses threads unless the
    run needs process isolation — a stall watchdog or a fault plan with
    process-level (``kill``/``hang``) faults.
    """
    if workers < 1:
        raise ShardLayoutError("need at least one worker")
    if executor not in ("auto", "thread", "process"):
        raise ShardLayoutError(
            f"unknown executor {executor!r} (want 'auto', 'thread', or 'process')"
        )
    pool_kind = executor
    if executor == "auto":
        needs_isolation = watchdog is not None or (
            fault_plan is not None and fault_plan.has_process_faults()
        )
        pool_kind = "process" if needs_isolation else "thread"
    policy = retry_policy or RetryPolicy()
    deadline = Deadline.coerce(deadline)
    deadline_seconds = deadline.total_seconds if deadline is not None else None
    start = time.perf_counter()
    candidates = mine_scrambler_keys(dump, tolerance_bits=mining_tolerance_bits)
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
        # skips both the matrix build and the shared-memory publication.
        keys_mat = keys_matrix(candidates)
        published: list[PublishedBuffer] = []
        board: HeartbeatBoard | None = None
        monitor: HeartbeatMonitor | None = None
        effective_workers = workers
        cache_ref: tuple | None = None
        if workers > 1:
            # The key-side join tables are a pure function of the mined
            # keys and the scan geometry: build them once here so every
            # worker shares them instead of rebuilding per worker —
            # thread pools by object reference, process pools via the
            # published read-only export blob.
            shared_cache = KeyFingerprintCache(keys_mat, key_bits).precompute()
        if workers > 1 and pool_kind == "process":
            # Publish dump + keys once; workers attach by name in their
            # pool initializer.  Shard payloads carry only (length,
            # fault_plan), so nothing scales with dump size.  The
            # publication itself degrades shm → mmap tempfile → serial.
            dump_pub = publish_bytes(dump.data, resource_policy, on_event=notify)
            published.append(dump_pub)
            keys_pub = publish_bytes(keys_mat.tobytes(), resource_policy, on_event=notify)
            published.append(keys_pub)
            if BACKEND_SERIAL in (dump_pub.backend, keys_pub.backend):
                # No cross-process backend available at all: nothing
                # can be shared, so nothing can be parallel.
                notify("no shared-buffer backend available; running serially")
                effective_workers = 1
                report.ledger.degraded_to_serial = True
                report.resource_backend = BACKEND_SERIAL
                dump_ref = ("buffer", dump.data)
                keys_ref = ("buffer", keys_mat.tobytes())
            else:
                report.resource_backend = dump_pub.backend
                dump_ref = dump_pub.ref
                keys_ref = keys_pub.ref
                cache_pub = publish_bytes(
                    shared_cache.export_blob(), resource_policy, on_event=notify
                )
                published.append(cache_pub)
                if cache_pub.backend != BACKEND_SERIAL:
                    cache_ref = cache_pub.ref
        elif workers > 1:
            # Thread pool: every worker lives in this address space, so
            # the dump, keys, and fingerprint cache are shared directly
            # — no shm segments, no blob round-trip, nothing to unlink.
            dump_ref = ("buffer", dump.data)
            keys_ref = ("buffer", keys_mat.tobytes())
            cache_ref = ("cache", shared_cache)
        else:
            dump_ref = ("buffer", dump.data)
            keys_ref = ("buffer", keys_mat.tobytes())
        if watchdog is not None and pool_kind != "process" and effective_workers > 1:
            # A stalled thread cannot be killed from outside; only the
            # process pool supports stall-kill semantics.
            notify("stall watchdog requires the process executor; disabled")
        heartbeat_ref = None
        heartbeat_slots: dict[int, int] = {}
        if watchdog is not None and effective_workers > 1 and pool_kind == "process":
            board = HeartbeatBoard.create(len(jobs), resource_policy)
            if board is None:
                notify("heartbeat board unavailable; stall watchdog disabled")
            else:
                heartbeat_ref = board.ref
                heartbeat_slots = {
                    offset: slot for slot, offset in enumerate(sorted(jobs))
                }
                monitor = HeartbeatMonitor(board, heartbeat_slots, watchdog)
        report.executor = "serial" if effective_workers == 1 else pool_kind
        # Serial and thread scans share this address space with any other
        # scan the process runs (the job service runs several at once),
        # so their state is bound to this run, not to module state.
        in_process = report.executor != "process"
        state: dict = {}
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

            keys_crc = zlib.crc32(keys_mat.tobytes()) & 0xFFFFFFFF
            if in_process:
                state.update(_attach_scan_state(dump_ref, keys_ref, key_bits, keys_crc, cache_ref))
                worker = partial(_scan_shard_task, state=state)
                initializer, initargs = None, ()
            else:
                worker, initializer = _scan_shard_task, _init_scan_worker
                initargs = (
                    dump_ref, keys_ref, key_bits, keys_crc,
                    heartbeat_ref, heartbeat_slots, cache_ref,
                )
            runner = ResilientShardRunner(
                worker,
                policy=policy,
                workers=effective_workers,
                on_event=on_event,
                on_result=on_result,
                initializer=initializer,
                initargs=initargs,
                pool_kind=pool_kind,
            )
            run_ledger = runner.run(jobs, deadline=deadline, stop=stop, watchdog=monitor)
        finally:
            # Drop the dump and key references before the segments go —
            # this run's own, or those of a process pool that degraded
            # to serial here — so no hung thread or failed task's
            # traceback keeps the dump's buffer exported past the run.
            if in_process:
                state.clear()
            else:
                _release_worker_state()
            for buffer in published:
                buffer.unlink()
            if board is not None:
                board.unlink()
        report.ledger.pool_rebuilds = run_ledger.pool_rebuilds
        report.ledger.degraded_to_serial = (
            report.ledger.degraded_to_serial or run_ledger.degraded_to_serial
        )
        report.ledger.stall_kills = run_ledger.stall_kills
        report.ledger.interrupted = run_ledger.interrupted
        report.ledger.deadline_expired = run_ledger.deadline_expired
        report.ledger.stop_cause = run_ledger.stop_cause
        report.ledger.outcomes.update(run_ledger.outcomes)

    per_shard = [
        (outcome.shard_offset, outcome.result)
        for outcome in report.ledger.completed
    ]
    report.recovered = merge_recovered(per_shard)
    report.search_seconds = time.perf_counter() - search_start
    return report


def parallel_recover_keys(
    dump: MemoryImage,
    key_bits: int = 256,
    workers: int = 1,
    n_shards: int | None = None,
    mining_tolerance_bits: int = 16,
    retry_policy: RetryPolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = True,
    fault_plan: FaultPlan | None = None,
    executor: str = "auto",
) -> list[RecoveredAesKey]:
    """Mine once, search in shards, merge — the paper's scaling recipe.

    Thin wrapper over :func:`resilient_recover_keys` that returns just
    the recovered keys; use the latter when the execution ledger
    (quarantined shards, resume accounting) matters.
    """
    return resilient_recover_keys(
        dump,
        key_bits=key_bits,
        workers=workers,
        n_shards=n_shards,
        mining_tolerance_bits=mining_tolerance_bits,
        retry_policy=retry_policy,
        checkpoint=checkpoint,
        resume=resume,
        fault_plan=fault_plan,
        executor=executor,
    ).recovered
