"""Structured exception taxonomy for the attack runtime.

The §III-C scan is a multi-hour batch job over inherently damaged
inputs (decayed, truncated, torn dumps), so failures need to carry
enough structure for the orchestrator to decide: retry, quarantine,
degrade, or abort.  Every error the resilience layer raises derives
from :class:`ReproError`; the subclasses also inherit the closest
builtin (``ValueError``, ``TimeoutError``, ``RuntimeError``) so
pre-existing ``except ValueError`` call sites keep working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every structured error raised by this toolkit."""


class DumpFormatError(ReproError, ValueError):
    """A memory dump is missing, truncated, misaligned, or malformed."""


class ShardLayoutError(ReproError, ValueError):
    """A sharded-scan request is internally inconsistent (bad shard
    count, negative overlap, unaligned shard offsets)."""


class ShardTimeoutError(ReproError, TimeoutError):
    """One shard's search exceeded its per-shard wall-clock budget."""

    def __init__(self, shard_offset: int, timeout_seconds: float, attempt: int) -> None:
        self.shard_offset = shard_offset
        self.timeout_seconds = timeout_seconds
        self.attempt = attempt
        super().__init__(
            f"shard {shard_offset:#x} exceeded {timeout_seconds:g}s "
            f"(attempt {attempt})"
        )


class ShardStallError(ReproError, TimeoutError):
    """One shard's heartbeat stopped advancing past the stall timeout.

    Unlike :class:`ShardTimeoutError` — a budget the shard blew while
    possibly still making progress — a stall means the worker published
    no progress beat for ``stalled_seconds``: it is genuinely hung
    (deadlocked, busy-looped, wedged in a syscall), so the watchdog
    kills its pool slot and resubmits the shard."""

    def __init__(self, shard_offset: int, stalled_seconds: float, attempt: int) -> None:
        self.shard_offset = shard_offset
        self.stalled_seconds = stalled_seconds
        self.attempt = attempt
        super().__init__(
            f"shard {shard_offset:#x} heartbeat stalled for "
            f"{stalled_seconds:g}s (attempt {attempt})"
        )


class DeadlineExceededError(ReproError, TimeoutError):
    """The run's wall-clock deadline expired.

    The attack window is physically bounded — charge decay destroys the
    dump while the scan runs — so every stage accepts a
    :class:`~repro.resilience.deadline.Deadline` and raises this when
    the budget is gone.  Catchers checkpoint, report partially, and
    exit resumable rather than discarding completed work."""

    def __init__(self, deadline_seconds: float, context: str = "") -> None:
        self.deadline_seconds = deadline_seconds
        self.context = context
        suffix = f" during {context}" if context else ""
        super().__init__(
            f"deadline of {deadline_seconds:g}s exceeded{suffix}"
        )


class CheckpointStorageError(ReproError, OSError):
    """The checkpoint journal could not be written durably anywhere.

    Raised only after the rotation chain — primary path, then the
    fallback path — failed (``ENOSPC`` on both, an unwritable fallback
    directory).  A scan catching this completes without further
    journaling rather than dying mid-journal; the run is simply no
    longer resumable past this point."""

    def __init__(self, path: str, cause: str) -> None:
        self.path = path
        self.cause = cause
        super().__init__(f"checkpoint journal {path} unwritable: {cause}")


class WorkerCrashError(ReproError, RuntimeError):
    """A shard worker raised or its process died mid-search."""

    def __init__(self, shard_offset: int, attempt: int, cause: str) -> None:
        self.shard_offset = shard_offset
        self.attempt = attempt
        self.cause = cause
        super().__init__(
            f"shard {shard_offset:#x} worker crashed (attempt {attempt}): {cause}"
        )


class CheckpointCorruptError(ReproError, ValueError):
    """A checkpoint journal cannot be trusted: unreadable interior
    records, a failed per-line CRC, or a header that does not match
    the dump being resumed."""


class CheckpointStaleError(CheckpointCorruptError):
    """The journal is intact but belongs to a *different* scan (another
    dump, or incompatible shard geometry).  Unlike on-disk damage —
    which the runtime tolerates by rejecting the journal and rescanning
    — a stale journal is a caller mistake and propagates, so the wrong
    checkpoint is never silently discarded."""


class AdmissionRejectedError(ReproError, RuntimeError):
    """The service's bounded admission queue refused a new job.

    Backpressure, not a bug: a long-running ``repro serve`` must bound
    the memory its queue can consume, so once ``max_queued`` jobs are
    waiting, further submissions are rejected *synchronously* with this
    typed error instead of being buffered without limit.  In-flight and
    already-queued jobs are unaffected; the submitter retries later or
    against another server."""

    def __init__(self, job_id: str, pending: int, max_queued: int) -> None:
        self.job_id = job_id
        self.pending = pending
        self.max_queued = max_queued
        super().__init__(
            f"job {job_id} rejected: admission queue is full "
            f"({pending}/{max_queued} jobs pending) — retry later"
        )


class JobStoreCorruptError(CheckpointCorruptError):
    """The service's write-ahead job log cannot be trusted: unreadable
    interior records, a failed per-line CRC, or an impossible state
    transition.  A torn *trailing* record is expected crash damage and
    is repaired, not an error."""


class InvalidJobIdError(ReproError, ValueError):
    """A job id that cannot name the job's spool files and directory."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"job id {job_id!r} cannot name a file")


class UnknownJobError(ReproError, KeyError):
    """A job id names no job in the service's write-ahead log."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job id {job_id!r}")

    def __str__(self) -> str:  # KeyError quotes its repr; keep one line
        return f"unknown job id {self.job_id!r}"


class SharedSegmentCorruptError(ReproError, RuntimeError):
    """A worker's copy of the scan's key matrix failed its integrity
    check (its CRC is not the one the orchestrator took when it built
    the matrix).  Retrying re-checks the copy; persistent corruption
    exhausts the retry budget and quarantines the shard."""

    def __init__(self, segment: str, expected_crc: int, actual_crc: int) -> None:
        self.segment = segment
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc
        super().__init__(
            f"shared segment {segment!r} failed integrity check "
            f"(crc {actual_crc:#010x}, expected {expected_crc:#010x})"
        )

    def __reduce__(self):
        # Raised in process workers: the parent must be able to unpickle
        # it, or the pool reports itself broken instead of the failure.
        return type(self), (self.segment, self.expected_crc, self.actual_crc)


class DecodeAbstainError(ReproError, RuntimeError):
    """The belief-propagation decode stage declined to emit a key.

    Raised (or, in the adaptive engine, *collected*) when message
    passing over the key-expansion constraint graph fails to reach a
    zero syndrome: the channel is beyond what the schedule's redundancy
    can correct, so any key read off the posteriors would be a guess.
    Abstaining with evidence — instead of returning the guess — is what
    keeps the decoded stage's zero-spurious guarantee."""

    def __init__(
        self,
        table_base: int,
        iterations: int,
        syndrome_weight: int,
        posterior_entropy: float,
    ) -> None:
        self.table_base = table_base
        self.iterations = iterations
        self.syndrome_weight = syndrome_weight
        self.posterior_entropy = posterior_entropy
        super().__init__(
            f"decode abstained at table base {table_base:#x}: "
            f"{syndrome_weight} unsatisfied checks after {iterations} sweeps "
            f"(posterior entropy {posterior_entropy:.2f} bits/byte)"
        )

    def to_dict(self) -> dict:
        """JSON-ready evidence record for reports and diagnostics."""
        return {
            "table_base": self.table_base,
            "iterations": self.iterations,
            "syndrome_weight": self.syndrome_weight,
            "posterior_entropy": self.posterior_entropy,
        }


class RegionQuarantineError(ReproError, RuntimeError):
    """Base of the structured diagnostics for dump regions the adaptive
    scan isolates instead of aborting on.  Instances are *collected*
    (in :class:`repro.attack.adaptive.AdaptiveRecovery`) rather than
    raised — the scan completes over the remaining regions — but they
    stay exceptions so callers that do want to abort can ``raise`` one.
    """

    reason = "quarantined"

    def __init__(self, offset: int, length: int, detail: str) -> None:
        self.offset = offset
        self.length = length
        self.detail = detail
        super().__init__(
            f"region [{offset:#x}, {offset + length:#x}) {self.reason}: {detail}"
        )

    def to_dict(self) -> dict:
        """JSON-ready diagnostic record for reports."""
        return {
            "offset": self.offset,
            "length": self.length,
            "reason": self.reason,
            "detail": self.detail,
        }


class UndecodableRegionError(RegionQuarantineError):
    """No mined scrambler key explains any block of the region even at
    the widest escalated litmus budget — the bytes cannot be attributed
    to the scrambler keystream (extreme local decay, or overwritten)."""

    reason = "undecodable"


class MixedScramblerRegionError(RegionQuarantineError):
    """The region's zero blocks expose scrambler keys that do not merge
    with the dump-wide candidate pool — the signature of a dump stitched
    across reboots (a second scrambler seed covers this stretch)."""

    reason = "mixed-scrambler"


class TornRegionError(RegionQuarantineError):
    """The region carries no information: constant fill from a torn or
    truncated acquisition (the imager wrote filler, not memory)."""

    reason = "torn"
