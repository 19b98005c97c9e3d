"""Crash-tolerant shard execution: futures, timeouts, retries, quarantine.

``pool.map`` — the seed orchestrator's engine — has the wrong failure
semantics for a multi-hour scan: one crashed worker poisons the whole
map, one hung shard stalls it forever, and nothing is retried.  This
executor replaces it with submit-based futures and explicit policy:

* a shard that raises is charged a :class:`WorkerCrashError` attempt
  and retried with deterministic backoff;
* a shard that exceeds the per-shard timeout is charged a
  :class:`ShardTimeoutError` attempt; the pool (now holding a zombie
  worker) is torn down and rebuilt for the survivors;
* a shard whose *process* dies (``BrokenProcessPool``) is likewise
  retried on a fresh pool;
* when the pool itself keeps breaking (``max_pool_rebuilds``
  exhausted), execution degrades gracefully to in-process serial mode
  rather than giving up;
* a shard that exhausts ``max_attempts`` is quarantined and reported —
  the scan completes without it.

The worker callable receives ``(payload, shard_offset, attempt,
in_subprocess)`` and must be picklable (a module-level function, or a
``partial`` of one); the final flag tells fault-injecting workers
whether process-level faults (kill, hang) are safe to fire.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.resilience.deadline import Deadline
from repro.resilience.errors import (
    ShardStallError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.resilience.retry import RetryPolicy

#: Worker-pool flavours the runner can drive.  ``"process"`` is the
#: chaos-tolerant default: workers are killable, a hung shard only
#: poisons its own process, and fault injection may fire process-level
#: faults.  Process workers are forked, so they inherit whatever the
#: orchestrator set up before the run — the scan's dump, key matrix
#: and heartbeat board — and nothing is published or attached.
#: ``"thread"`` trades that isolation for zero spin-up and pickling
#: cost — the right choice for numpy kernels that release the GIL (the
#: fused scan path), where every worker shares the orchestrator's dump,
#: key matrix, and one prebuilt fingerprint cache by reference.
POOL_KINDS = ("process", "thread")

#: Process workers are forked whatever the platform default: a worker
#: reaches its run's state by inheritance (see :data:`POOL_KINDS`),
#: which a ``spawn`` or ``forkserver`` worker would not have.
_PROCESS_CONTEXT = multiprocessing.get_context("fork")

#: How long a pool teardown waits for each killed worker to exit.
_KILL_JOIN_S = 5.0

#: Shard lifecycle states reported in a :class:`ShardOutcome`.
STATUS_OK = "ok"
STATUS_QUARANTINED = "quarantined"
STATUS_FROM_CHECKPOINT = "from-checkpoint"
#: The run's deadline expired before this shard got a verdict; it is
#: not quarantined — a resumed run will scan it.
STATUS_EXPIRED = "deadline-expired"
#: A graceful-shutdown signal stopped the run before this shard got a
#: verdict; likewise resumable.
STATUS_INTERRUPTED = "interrupted"


@dataclass
class ShardOutcome:
    """Terminal record for one shard of a resilient run."""

    shard_offset: int
    status: str
    attempts: int = 0
    result: Any = None
    #: Human-readable reasons for every failed attempt, in order.
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the shard produced a usable result."""
        return self.status in (STATUS_OK, STATUS_FROM_CHECKPOINT)


@dataclass
class RunLedger:
    """Everything a resilient run did, shard by shard."""

    outcomes: dict[int, ShardOutcome] = field(default_factory=dict)
    pool_rebuilds: int = 0
    degraded_to_serial: bool = False
    #: Workers killed by the heartbeat watchdog for stalled beats.
    stall_kills: int = 0
    #: The run stopped early on a graceful-shutdown signal.
    interrupted: bool = False
    #: The run stopped early because its wall-clock deadline expired.
    deadline_expired: bool = False
    #: Why the run stopped early (signal name, "deadline"), if it did.
    stop_cause: str = ""

    @property
    def completed(self) -> list[ShardOutcome]:
        """Outcomes that delivered results (freshly or from checkpoint)."""
        return [o for o in self.outcomes.values() if o.ok]

    @property
    def quarantined(self) -> list[ShardOutcome]:
        """Shards abandoned after exhausting their retry budget."""
        return [o for o in self.outcomes.values() if o.status == STATUS_QUARANTINED]

    @property
    def resumed(self) -> list[ShardOutcome]:
        """Shards skipped because a checkpoint already held their results."""
        return [o for o in self.outcomes.values() if o.status == STATUS_FROM_CHECKPOINT]

    @property
    def unfinished(self) -> list[ShardOutcome]:
        """Shards left resumable by a deadline expiry or interrupt."""
        return [
            o
            for o in self.outcomes.values()
            if o.status in (STATUS_EXPIRED, STATUS_INTERRUPTED)
        ]

    def summary(self) -> str:
        """One-line ledger digest for logs and CLI output."""
        parts = [
            f"{len(self.completed)}/{len(self.outcomes)} shards ok",
            f"{len(self.resumed)} from checkpoint",
            f"{len(self.quarantined)} quarantined",
        ]
        if self.unfinished:
            parts.append(f"{len(self.unfinished)} unfinished ({self.stop_cause})")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuilds")
        if self.stall_kills:
            parts.append(f"{self.stall_kills} stall kills")
        if self.degraded_to_serial:
            parts.append("degraded to serial")
        return ", ".join(parts)


class ResilientShardRunner:
    """Run shard jobs under a :class:`RetryPolicy`, tolerating failures.

    ``worker(payload, shard_offset, attempt, in_subprocess)`` performs
    one attempt.
    ``on_event(message)`` (optional) receives progress strings —
    retries, rebuilds, quarantines — as they happen.
    ``on_result(shard_offset, result)`` (optional) fires the moment a
    shard completes — this is the checkpoint journal's hook, so it must
    run *before* the next shard is awaited, not after the whole run.

    ``pool_kind`` selects the worker pool (:data:`POOL_KINDS`).  Every
    process pool — a rebuilt one too — is forked from the orchestrator
    when the run submits to it, so its workers hold whatever state the
    worker callable reads that existed before :meth:`run`.  Thread
    workers are told ``in_subprocess=False`` (a process-level injected
    fault would take the orchestrator down with it), and a thread that
    genuinely hangs cannot be killed — its shard is still charged a
    timeout and retried on a fresh pool, but the zombie thread lingers
    until process exit.  Process pools remain the executor for chaos
    tolerance; threads are for kernels that release the GIL.
    """

    def __init__(
        self,
        worker: Callable[[Any, int, int, bool], Any],
        policy: RetryPolicy | None = None,
        workers: int = 1,
        on_event: Callable[[str], None] | None = None,
        on_result: Callable[[int, Any], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        pool_kind: str = "process",
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if pool_kind not in POOL_KINDS:
            raise ValueError(f"unknown pool kind {pool_kind!r} (want one of {POOL_KINDS})")
        self.worker = worker
        self.policy = policy or RetryPolicy()
        self.workers = workers
        self.on_event = on_event or (lambda message: None)
        self.on_result = on_result or (lambda offset, result: None)
        self.sleep = sleep
        self.pool_kind = pool_kind

    # ------------------------------------------------------------------ api

    def run(
        self,
        jobs: dict[int, Any],
        deadline: "Deadline | float | None" = None,
        stop: Any = None,
        watchdog: Any = None,
    ) -> RunLedger:
        """Execute every job; always returns a complete ledger.

        ``jobs`` maps shard offset → payload.  Crashes, hangs, and
        broken pools are retried per policy; shards out of budget are
        quarantined, never raised.

        ``deadline`` (a :class:`Deadline` or plain seconds) bounds the
        whole run: on expiry, in-flight shards are abandoned and every
        unfinished shard is recorded :data:`STATUS_EXPIRED` — resumable,
        not quarantined.  ``stop`` (a
        :class:`~repro.resilience.shutdown.GracefulShutdown` or
        anything with ``requested``/``forced``/``cause``) drains
        in-flight shards to their result hooks, then records the rest
        :data:`STATUS_INTERRUPTED`; a *forced* stop abandons in-flight
        work immediately.  ``watchdog`` (a
        :class:`~repro.resilience.watchdog.HeartbeatMonitor`) is
        started here and kills/resubmits shards whose heartbeat stalls,
        with a circuit breaker degrading to serial after
        ``max_stall_kills`` consecutive stall-kills.
        """
        deadline = Deadline.coerce(deadline)
        ledger = RunLedger()
        attempts: dict[int, int] = {offset: 0 for offset in jobs}
        errors: dict[int, list[str]] = {offset: [] for offset in jobs}
        pending = dict(jobs)
        use_pool = self.workers > 1
        consecutive_stalls = 0

        if watchdog is not None and use_pool:
            watchdog.start()
        try:
            while pending and use_pool:
                if self._halt_pending(pending, attempts, errors, ledger, deadline, stop):
                    return ledger
                stalls_before = ledger.stall_kills
                finished = self._pool_generation(
                    pending, attempts, errors, ledger, deadline, stop, watchdog
                )
                for offset in finished:
                    pending.pop(offset)
                if ledger.stall_kills > stalls_before:
                    consecutive_stalls += ledger.stall_kills - stalls_before
                elif finished:
                    consecutive_stalls = 0
                if (
                    pending
                    and watchdog is not None
                    and consecutive_stalls >= watchdog.config.max_stall_kills
                ):
                    ledger.degraded_to_serial = True
                    self.on_event(
                        f"watchdog killed {consecutive_stalls} consecutive stalled "
                        f"worker(s); degrading {len(pending)} shard(s) to serial "
                        f"execution"
                    )
                    use_pool = False
                if pending and use_pool and ledger.pool_rebuilds > self.policy.max_pool_rebuilds:
                    ledger.degraded_to_serial = True
                    self.on_event(
                        f"process pool broke {ledger.pool_rebuilds} times; "
                        f"degrading {len(pending)} shard(s) to serial execution"
                    )
                    use_pool = False
        finally:
            if watchdog is not None:
                watchdog.stop()

        while pending:
            if self._halt_pending(pending, attempts, errors, ledger, deadline, stop):
                return ledger
            offset = next(iter(pending))
            payload = pending.pop(offset)
            self._run_serial(offset, payload, attempts, errors, ledger, deadline, stop)
        return ledger

    def _halt_pending(
        self,
        pending: dict[int, Any],
        attempts: dict[int, int],
        errors: dict[int, list[str]],
        ledger: RunLedger,
        deadline: "Deadline | None",
        stop: Any,
    ) -> bool:
        """If a stop/deadline fired, mark all pending shards resumable.

        Returns True when the run should end now.  The marked shards are
        *not* quarantined — a resumed run re-scans exactly these.
        """
        if stop is not None and stop.requested:
            status = STATUS_INTERRUPTED
            ledger.interrupted = True
            ledger.stop_cause = getattr(stop, "cause", "") or "interrupt"
        elif deadline is not None and deadline.expired:
            status = STATUS_EXPIRED
            ledger.deadline_expired = True
            ledger.stop_cause = "deadline"
        else:
            return False
        for offset in pending:
            ledger.outcomes[offset] = ShardOutcome(
                shard_offset=offset,
                status=status,
                attempts=attempts[offset],
                errors=errors[offset],
            )
        self.on_event(
            f"run halted ({ledger.stop_cause}); "
            f"{len(pending)} shard(s) left resumable"
        )
        return True

    # ------------------------------------------------------------ accounting

    def _record_ok(
        self,
        offset: int,
        result: Any,
        attempts: dict[int, int],
        errors: dict[int, list[str]],
        ledger: RunLedger,
    ) -> None:
        """Record a completed shard and fire the result hook immediately."""
        ledger.outcomes[offset] = ShardOutcome(
            shard_offset=offset,
            status=STATUS_OK,
            attempts=attempts[offset],
            result=result,
            errors=errors[offset],
        )
        self.on_result(offset, result)

    def _record_failure(
        self,
        offset: int,
        attempts: dict[int, int],
        errors: dict[int, list[str]],
        ledger: RunLedger,
        error: Exception,
    ) -> bool:
        """Charge one failed attempt; quarantine when out of budget.

        Returns True when the shard still has retry budget.
        """
        errors[offset].append(f"{type(error).__name__}: {error}")
        if self.policy.should_retry(attempts[offset]):
            self.on_event(
                f"shard {offset:#x} attempt {attempts[offset]} failed "
                f"({type(error).__name__}); retrying"
            )
            return True
        ledger.outcomes[offset] = ShardOutcome(
            shard_offset=offset,
            status=STATUS_QUARANTINED,
            attempts=attempts[offset],
            errors=errors[offset],
        )
        self.on_event(
            f"shard {offset:#x} quarantined after {attempts[offset]} attempt(s)"
        )
        return False

    def _run_serial(
        self,
        offset: int,
        payload: Any,
        attempts: dict[int, int],
        errors: dict[int, list[str]],
        ledger: RunLedger,
        deadline: "Deadline | None" = None,
        stop: Any = None,
    ) -> None:
        """In-process execution with retries (no hang protection)."""
        while True:
            if self._halt_pending({offset: payload}, attempts, errors, ledger, deadline, stop):
                return
            attempts[offset] += 1
            try:
                result = self.worker(payload, offset, attempts[offset], False)
            except Exception as exc:  # noqa: BLE001 — quarantine, don't die
                crash = WorkerCrashError(offset, attempts[offset], str(exc))
                if not self._record_failure(offset, attempts, errors, ledger, crash):
                    return
                self.sleep(self.policy.clamped_delay_s(offset, attempts[offset], deadline))
            else:
                self._record_ok(offset, result, attempts, errors, ledger)
                return

    # ------------------------------------------------------------- pool mode

    def _pool_generation(
        self,
        pending: dict[int, Any],
        attempts: dict[int, int],
        errors: dict[int, list[str]],
        ledger: RunLedger,
        deadline: "Deadline | None" = None,
        stop: Any = None,
        watchdog: Any = None,
    ) -> list[int]:
        """One process-pool pass over the pending shards.

        Returns the offsets that reached a terminal state (ok or
        quarantined).  A hang or a broken pool abandons the generation:
        the pool is shut down without waiting and the caller spins up a
        fresh one for whatever remains.  A stalled heartbeat likewise
        abandons the generation (the hung worker poisons its pool), but
        is accounted as a stall-kill rather than a rebuild so the
        watchdog's circuit breaker sees it.  A graceful stop drains:
        in-flight shards run to a verdict, nothing is resubmitted.
        """
        finished: list[int] = []
        timeout = self.policy.shard_timeout_s
        in_subprocess = self.pool_kind == "process"
        if in_subprocess:
            pool: Any = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_PROCESS_CONTEXT
            )
        else:
            pool = ThreadPoolExecutor(max_workers=self.workers)
        broken = False
        stalled_pool = False
        aborted = False
        try:
            futures: dict[Future, int] = {}
            deadlines: dict[Future, float] = {}
            # Shards are submitted lazily, at most ``workers`` in flight:
            # anything handed to the pool gets prefetched into its call
            # queue where ``Future.cancel`` cannot reach it, so eager
            # submission would make a graceful drain run the whole scan.
            # Lazy submission also starts each shard's timeout at actual
            # dispatch, not at enqueue.
            waiting = list(pending.items())

            def dispatch(offset: int, payload: Any) -> None:
                # Track *before* submitting: a worker can beat before
                # submit() returns, and a board snapshot taken after
                # that first beat would never see the counter move, so
                # the shard's stall clock would never arm.
                if watchdog is not None:
                    watchdog.track(offset)
                try:
                    future = pool.submit(
                        self.worker, payload, offset, attempts[offset] + 1, in_subprocess
                    )
                except BaseException:
                    if watchdog is not None:
                        watchdog.untrack(offset)
                    raise
                attempts[offset] += 1
                futures[future] = offset
                if timeout is not None:
                    deadlines[future] = time.monotonic() + timeout

            while waiting and len(futures) < self.workers:
                dispatch(*waiting.pop(0))

            while futures:
                caps: list[float] = []
                if deadlines:
                    caps.append(max(0.0, min(deadlines.values()) - time.monotonic()))
                if watchdog is not None:
                    caps.append(watchdog.poll_interval_s)
                if deadline is not None:
                    caps.append(deadline.remaining())
                if stop is not None:
                    # Stay responsive to signals even with lazy shards.
                    caps.append(0.25)
                wait_budget = min(caps) if caps else None
                done, _ = wait(futures, timeout=wait_budget, return_when=FIRST_COMPLETED)

                draining = stop is not None and stop.requested
                for future in done:
                    offset = futures.pop(future)
                    deadlines.pop(future, None)
                    if watchdog is not None:
                        watchdog.untrack(offset)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # The pool died; *which* worker killed it is
                        # unknowable (every sibling future raises this
                        # too), so charge nobody — refund the attempt,
                        # leave the shard pending, and rebuild.  The
                        # rebuild budget bounds a persistent killer:
                        # once exhausted, serial mode settles the score
                        # with per-shard attempt accounting.
                        broken = True
                        attempts[offset] -= 1
                        errors[offset].append("BrokenProcessPool: worker process died")
                    except Exception as exc:  # noqa: BLE001
                        crash = WorkerCrashError(offset, attempts[offset], str(exc))
                        if not self._record_failure(offset, attempts, errors, ledger, crash):
                            finished.append(offset)
                        elif draining:
                            # Drain mode: the failure is recorded, but
                            # the retry belongs to the resumed run.
                            pass
                        else:
                            self.sleep(
                                self.policy.clamped_delay_s(offset, attempts[offset], deadline)
                            )
                            try:
                                dispatch(offset, pending[offset])
                            except BrokenProcessPool:
                                # A sibling's death broke the pool while
                                # this shard was being resubmitted; leave
                                # it pending for the rebuilt pool.
                                broken = True
                    else:
                        self._record_ok(offset, result, attempts, errors, ledger)
                        finished.append(offset)
                if broken:
                    break

                if draining and not (stop is not None and stop.forced):
                    # Graceful drain: shards already executing run to a
                    # verdict (and get journaled), but anything still
                    # queued belongs to the resumed run — cancel it and
                    # refund the attempt that never started.
                    for future in list(futures):
                        if future.cancel():
                            offset = futures.pop(future)
                            deadlines.pop(future, None)
                            attempts[offset] -= 1
                            if watchdog is not None:
                                watchdog.untrack(offset)

                if stop is not None and stop.forced:
                    # Second signal: abandon in-flight work right now.
                    aborted = True
                    break
                if deadline is not None and deadline.expired:
                    # Budget gone: completed shards are journaled; the
                    # rest resume.  Waiting out in-flight shards could
                    # take a full shard timeout — abandon them instead.
                    aborted = True
                    break

                now = time.monotonic()
                expired = [f for f, future_deadline in deadlines.items() if future_deadline <= now]
                for future in expired:
                    if future.done():
                        continue  # a result beat the deadline; next wait() reaps it
                    offset = futures.pop(future)
                    deadlines.pop(future, None)
                    if watchdog is not None:
                        watchdog.untrack(offset)
                    future.cancel()
                    broken = True  # a hung worker poisons its pool slot
                    hang = ShardTimeoutError(
                        offset, timeout or 0.0, attempts[offset]
                    )
                    if not self._record_failure(offset, attempts, errors, ledger, hang):
                        finished.append(offset)
                if broken:
                    break

                if watchdog is not None:
                    for offset, silent_for in watchdog.take_stalled():
                        future = next(
                            (f for f, o in futures.items() if o == offset), None
                        )
                        if future is None or future.done():
                            continue  # a verdict raced the stall; next wait() reaps it
                        futures.pop(future)
                        deadlines.pop(future, None)
                        future.cancel()
                        stalled_pool = True  # the hung worker squats on a pool slot
                        ledger.stall_kills += 1
                        stall = ShardStallError(offset, silent_for, attempts[offset])
                        if not self._record_failure(offset, attempts, errors, ledger, stall):
                            finished.append(offset)
                    if stalled_pool:
                        break

                # Re-check the stop flag: a result hook (the checkpoint
                # journal's caller) may have requested the stop while
                # this batch was being recorded.
                if not (stop is not None and stop.requested):
                    while waiting and len(futures) < self.workers:
                        try:
                            dispatch(*waiting.pop(0))
                        except BrokenProcessPool:
                            broken = True
                            break
                    if broken:
                        break

            # Generation abandoned with futures in flight: harvest any
            # that won the race, refund the rest (their attempt never
            # ran to a verdict — charging it would let pool-level
            # failures quarantine innocent shards).
            for future, offset in list(futures.items()):
                resolved = False
                if future.done():
                    try:
                        result = future.result()
                    except Exception:  # noqa: BLE001 — collateral damage
                        pass
                    else:
                        self._record_ok(offset, result, attempts, errors, ledger)
                        finished.append(offset)
                        resolved = True
                else:
                    future.cancel()
                if not resolved:
                    attempts[offset] -= 1
                if watchdog is not None:
                    watchdog.untrack(offset)
        finally:
            if broken:
                ledger.pool_rebuilds += 1
                self.on_event("shard pool broken; rebuilding for remaining shards")
            elif stalled_pool:
                self.on_event(
                    "stalled worker killed; rebuilding pool for remaining shards"
                )
            # A broken/hung/abandoned pool must not be joined — shut
            # down without waiting, then put the zombie workers down
            # explicitly (a hung worker would otherwise squat on its
            # shard's memory and stall interpreter exit).  The process
            # list must be taken first: shutdown() drops it.  SIGKILL,
            # not SIGTERM: a forked worker inherits the orchestrator's
            # signal handlers (GracefulShutdown turns SIGTERM into a
            # flag), so only SIGKILL is sure to land.
            teardown = broken or stalled_pool or aborted
            processes = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=not teardown, cancel_futures=True)
            if teardown:
                for process in processes:
                    process.kill()
                for process in processes:
                    process.join(timeout=_KILL_JOIN_S)
        return finished
