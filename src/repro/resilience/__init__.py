"""Fault tolerance for the attack runtime — the production hardening layer.

The paper's §III-C scan is a multi-hour batch job over damaged inputs;
this package supplies what such a job needs to survive contact with
reality: a structured error taxonomy (:mod:`repro.resilience.errors`),
bounded deterministic retries (:mod:`repro.resilience.retry`), a
crash-tolerant shard executor (:mod:`repro.resilience.executor`), a
crash-safe checkpoint journal (:mod:`repro.resilience.checkpoint`),
a seeded fault-injection harness (:mod:`repro.resilience.faults`)
that proves the other four actually work, and the deadline-aware
watchdog runtime: monotonic deadlines
(:mod:`repro.resilience.deadline`), heartbeat stall detection
(:mod:`repro.resilience.watchdog`), and cooperative signal handling
(:mod:`repro.resilience.shutdown`).
"""

from repro.resilience.checkpoint import (
    JOURNAL_VERSION,
    CheckpointJournal,
    JournalHeader,
    deserialize_recovered,
    dump_fingerprint,
    serialize_recovered,
    verify_journal_file,
)
from repro.resilience.deadline import Deadline, clamp_sleep
from repro.resilience.errors import (
    AdmissionRejectedError,
    CheckpointCorruptError,
    CheckpointStorageError,
    DeadlineExceededError,
    DumpFormatError,
    InvalidJobIdError,
    JobStoreCorruptError,
    ReproError,
    ShardLayoutError,
    ShardStallError,
    ShardTimeoutError,
    UnknownJobError,
    WorkerCrashError,
)
from repro.resilience.executor import (
    STATUS_EXPIRED,
    STATUS_FROM_CHECKPOINT,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_QUARANTINED,
    ResilientShardRunner,
    RunLedger,
    ShardOutcome,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    PERMANENT,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.shutdown import (
    EXIT_DEADLINE_EXPIRED,
    EXIT_INTERRUPTED,
    EXIT_JOB_FAILED,
    GracefulShutdown,
)
from repro.resilience.watchdog import (
    HeartbeatBoard,
    HeartbeatMonitor,
    WatchdogConfig,
)

__all__ = [
    "EXIT_DEADLINE_EXPIRED",
    "EXIT_INTERRUPTED",
    "EXIT_JOB_FAILED",
    "FAULT_KINDS",
    "JOURNAL_VERSION",
    "PERMANENT",
    "STATUS_EXPIRED",
    "STATUS_FROM_CHECKPOINT",
    "STATUS_INTERRUPTED",
    "STATUS_OK",
    "STATUS_QUARANTINED",
    "AdmissionRejectedError",
    "CheckpointCorruptError",
    "CheckpointJournal",
    "CheckpointStorageError",
    "Deadline",
    "DeadlineExceededError",
    "DumpFormatError",
    "FaultPlan",
    "FaultSpec",
    "GracefulShutdown",
    "HeartbeatBoard",
    "HeartbeatMonitor",
    "InjectedFault",
    "InvalidJobIdError",
    "JobStoreCorruptError",
    "JournalHeader",
    "ReproError",
    "ResilientShardRunner",
    "RetryPolicy",
    "RunLedger",
    "ShardLayoutError",
    "ShardOutcome",
    "ShardStallError",
    "ShardTimeoutError",
    "UnknownJobError",
    "WatchdogConfig",
    "WorkerCrashError",
    "clamp_sleep",
    "deserialize_recovered",
    "dump_fingerprint",
    "serialize_recovered",
    "verify_journal_file",
]
