"""Heartbeat watchdog: shared beat counters + a stall-detection thread.

The per-shard timeout catches a worker that is *slow*; it cannot
distinguish slow from *wedged* until the whole budget burns.  The
watchdog closes that gap: every worker publishes progress beats into a
shared ``uint64`` array (one slot per shard, an anonymous shared map
made before the worker pool forks, so every worker inherits it), and a
monitor thread inside
:class:`~repro.resilience.executor.ResilientShardRunner` watches the
counters.  A shard whose counter stops advancing for
``stall_timeout_s`` is genuinely hung — deadlocked, busy-looping,
stuck in a syscall — so the runner kills its pool and resubmits it
through the existing quarantine path, hours before the shard timeout
would have fired.

Beats are *cooperative but cheap*: one 8-byte write per scan chunk.  A
worker that stops executing instrumented code stops beating — that is
the entire detection mechanism, so it catches hangs that no amount of
in-band fault injection cooperation could surface.

The stall clock for a shard arms at its **first beat**.  Before that
the shard may simply be queued behind siblings on a saturated pool —
only the per-shard timeout (which includes queue wait) bounds it.
After the first beat, silence means a wedge.
"""

from __future__ import annotations

import mmap
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable

#: Width of one heartbeat counter (little-endian ``uint64``).
HEARTBEAT_SLOT_BYTES = 8
_SLOT_FORMAT = "<Q"
_COUNTER_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class WatchdogConfig:
    """Stall-detection tuning knobs.

    ``stall_timeout_s`` must comfortably exceed the worker's longest
    legitimate beat gap (one scan chunk); ``poll_interval_s`` bounds
    detection latency and the executor's wait granularity;
    ``max_stall_kills`` is the circuit breaker — that many *consecutive*
    stall-kills and the runner stops trusting the pool entirely,
    degrading to serial execution.
    """

    stall_timeout_s: float = 30.0
    poll_interval_s: float = 0.25
    max_stall_kills: int = 3

    def __post_init__(self) -> None:
        if self.stall_timeout_s <= 0:
            raise ValueError("stall_timeout_s must be positive")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.max_stall_kills < 1:
            raise ValueError("max_stall_kills must be at least 1")


class HeartbeatBoard:
    """The shared beat array: one ``uint64`` counter per slot.

    The counters live in an anonymous shared ``mmap``.  Made before a
    worker pool forks, the map is the same memory in the orchestrator
    and in every worker: a worker bumps its shard's counter with
    :meth:`beat` and the monitor reads counters through :meth:`value`.
    """

    def __init__(self, counters: mmap.mmap, n_slots: int) -> None:
        self._counters = counters
        self.n_slots = n_slots

    @classmethod
    def create(cls, n_slots: int) -> "HeartbeatBoard | None":
        """Allocate a zeroed board, or ``None`` if no shared map can be made."""
        if n_slots < 1:
            raise ValueError("need at least one heartbeat slot")
        try:
            counters = mmap.mmap(-1, n_slots * HEARTBEAT_SLOT_BYTES)
        except OSError:
            return None
        return cls(counters, n_slots)

    def value(self, slot: int) -> int:
        """Current beat counter for ``slot``."""
        return struct.unpack_from(
            _SLOT_FORMAT, self._counters, slot * HEARTBEAT_SLOT_BYTES
        )[0]

    def values(self) -> list[int]:
        """Every slot's counter, in slot order."""
        return [self.value(slot) for slot in range(self.n_slots)]

    def beat(self, slot: int) -> None:
        """Bump ``slot``'s counter by one."""
        struct.pack_into(
            _SLOT_FORMAT,
            self._counters,
            slot * HEARTBEAT_SLOT_BYTES,
            (self.value(slot) + 1) & _COUNTER_MASK,
        )

    def close(self) -> None:
        """Drop this process's mapping of the board."""
        self._counters.close()

    def __enter__(self) -> "HeartbeatBoard":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ------------------------------------------------------------- monitor side


@dataclass
class _SlotState:
    value: int
    changed_at: float
    #: Stall clock arms at the first observed beat (see module docstring).
    armed: bool = False


class HeartbeatMonitor:
    """Daemon thread that turns silent beat counters into stall verdicts.

    The executor :meth:`track`\\ s a shard just before it submits it
    (so the snapshot predates the worker's first beat) and
    :meth:`untrack`\\ s it on completion; the thread samples the board
    every ``poll_interval_s`` and files shards whose armed counter has
    not moved for ``stall_timeout_s`` into the stalled set, which the
    executor drains with :meth:`take_stalled` and converts into
    :class:`~repro.resilience.errors.ShardStallError` attempts.

    ``clock`` is injectable so tests can drive :meth:`scan_once`
    without threads or real waiting.
    """

    def __init__(
        self,
        board: HeartbeatBoard,
        slot_of: dict[int, int],
        config: WatchdogConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.board = board
        self.slot_of = dict(slot_of)
        self.config = config or WatchdogConfig()
        self.clock = clock
        self._lock = threading.Lock()
        self._tracked: dict[int, _SlotState] = {}
        self._stalled: dict[int, float] = {}
        self._halt = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def poll_interval_s(self) -> float:
        """Detection granularity (the executor caps its waits to this)."""
        return self.config.poll_interval_s

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start the monitor thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._halt.clear()
        self._thread = threading.Thread(
            target=self._loop, name="heartbeat-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the monitor thread (idempotent)."""
        self._halt.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._thread = None

    def _loop(self) -> None:
        while not self._halt.wait(self.config.poll_interval_s):
            self.scan_once()

    # -------------------------------------------------------------- tracking

    def track(self, shard_offset: int) -> None:
        """(Re)start stall tracking for a shard about to be submitted."""
        slot = self.slot_of.get(shard_offset)
        if slot is None:
            return
        with self._lock:
            self._stalled.pop(shard_offset, None)
            self._tracked[shard_offset] = _SlotState(
                value=self.board.value(slot), changed_at=self.clock()
            )

    def untrack(self, shard_offset: int) -> None:
        """Stop tracking a shard that reached a verdict."""
        with self._lock:
            self._tracked.pop(shard_offset, None)
            self._stalled.pop(shard_offset, None)

    def scan_once(self) -> None:
        """One sampling pass (the thread body; callable directly in tests)."""
        now = self.clock()
        with self._lock:
            for offset, state in self._tracked.items():
                if offset in self._stalled:
                    continue
                value = self.board.value(self.slot_of[offset])
                if value != state.value:
                    state.value = value
                    state.changed_at = now
                    state.armed = True
                elif state.armed:
                    silent_for = now - state.changed_at
                    if silent_for > self.config.stall_timeout_s:
                        self._stalled[offset] = silent_for

    def take_stalled(self) -> list[tuple[int, float]]:
        """Drain stall verdicts as ``(shard_offset, silent_seconds)``.

        Drained shards are untracked — the executor resubmits them,
        which re-:meth:`track`\\ s with a fresh clock.
        """
        with self._lock:
            verdicts = sorted(self._stalled.items())
            for offset, _ in verdicts:
                self._tracked.pop(offset, None)
            self._stalled.clear()
        return verdicts
