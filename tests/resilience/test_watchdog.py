"""Heartbeat watchdog: board units, monitor stall logic, hung-worker kills.

The monitor units drive :meth:`HeartbeatMonitor.scan_once` with an
injected clock — no threads, no sleeping.  The acceptance tests run a
*genuinely* hung worker (an uninstrumented busy loop, no fault-plan
cooperation) under the real pool executor and assert it is detected,
killed, resubmitted, and that the run still converges to the right
answer.
"""

import time

import pytest

from repro.resilience.errors import ShardStallError
from repro.resilience.executor import ResilientShardRunner
from repro.resilience.resources import ResourcePolicy
from repro.resilience.retry import RetryPolicy
from repro.resilience.watchdog import (
    HeartbeatBoard,
    HeartbeatMonitor,
    WatchdogConfig,
    attach_worker_heartbeat,
    beat,
    detach_worker_heartbeat,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        WatchdogConfig(stall_timeout_s=0.0)
    with pytest.raises(ValueError):
        WatchdogConfig(poll_interval_s=-1.0)
    with pytest.raises(ValueError):
        WatchdogConfig(max_stall_kills=0)


# -------------------------------------------------------------------- board


def test_board_counts_beats_per_slot():
    with HeartbeatBoard.create(3) as board:
        assert board.values() == [0, 0, 0]
        board.beat(1)
        board.beat(1)
        board.beat(2)
        assert board.values() == [0, 2, 1]


def test_board_requires_a_shared_backend():
    policy = ResourcePolicy(allow_shm=False, allow_file=False)
    assert HeartbeatBoard.create(4, policy) is None


def test_board_rejects_zero_slots():
    with pytest.raises(ValueError):
        HeartbeatBoard.create(0)


def test_worker_attach_protocol_reaches_the_owner_view():
    """A worker attached by ref beats into the owner's counters."""
    with HeartbeatBoard.create(2) as board:
        try:
            attach_worker_heartbeat(board.ref, {0x1000: 0, 0x2000: 1})
            beat(0x2000)
            beat(0x2000)
            beat(0x1000)
            assert board.values() == [1, 2]
            # Unknown shard offsets are ignored, not an error.
            beat(0x9999)
            assert board.values() == [1, 2]
        finally:
            detach_worker_heartbeat()


def test_beat_without_attachment_is_a_noop():
    detach_worker_heartbeat()
    beat(0x1000)  # must not raise


def test_file_backend_board_works_cross_policy():
    """With shm denied, the board degrades to an mmap tempfile."""
    policy = ResourcePolicy(allow_shm=False)
    board = HeartbeatBoard.create(1, policy)
    assert board is not None
    try:
        assert board.backend == "file"
        attach_worker_heartbeat(board.ref, {0: 0})
        beat(0)
        assert board.value(0) == 1
    finally:
        detach_worker_heartbeat()
        board.unlink()


# ------------------------------------------------------------------ monitor


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def monitor_parts():
    board = HeartbeatBoard.create(2)
    clock = FakeClock()
    config = WatchdogConfig(stall_timeout_s=5.0, poll_interval_s=0.1)
    monitor = HeartbeatMonitor(board, {0x100: 0, 0x200: 1}, config, clock=clock)
    yield board, monitor, clock
    board.unlink()


def test_silence_before_the_first_beat_is_not_a_stall(monitor_parts):
    """Queued shards never beat; only armed counters can stall."""
    board, monitor, clock = monitor_parts
    monitor.track(0x100)
    clock.advance(1000.0)
    monitor.scan_once()
    assert monitor.take_stalled() == []


def test_armed_counter_going_silent_is_a_stall(monitor_parts):
    board, monitor, clock = monitor_parts
    monitor.track(0x100)
    board.beat(0)  # arms the stall clock
    monitor.scan_once()
    clock.advance(5.1)
    monitor.scan_once()
    stalled = monitor.take_stalled()
    assert [offset for offset, _ in stalled] == [0x100]
    assert stalled[0][1] > 5.0


def test_steady_beats_never_stall(monitor_parts):
    board, monitor, clock = monitor_parts
    monitor.track(0x100)
    for _ in range(10):
        board.beat(0)
        monitor.scan_once()
        clock.advance(4.0)  # always inside the 5 s stall budget
    monitor.scan_once()
    assert monitor.take_stalled() == []


def test_take_stalled_drains_and_resubmission_rearms(monitor_parts):
    board, monitor, clock = monitor_parts
    monitor.track(0x100)
    board.beat(0)
    monitor.scan_once()
    clock.advance(6.0)
    monitor.scan_once()
    assert monitor.take_stalled() != []
    assert monitor.take_stalled() == []  # drained
    # Resubmission re-tracks with a fresh, unarmed clock.
    monitor.track(0x100)
    clock.advance(1000.0)
    monitor.scan_once()
    assert monitor.take_stalled() == []


def test_untracked_shards_cannot_stall(monitor_parts):
    board, monitor, clock = monitor_parts
    monitor.track(0x200)
    board.beat(1)
    monitor.scan_once()
    monitor.untrack(0x200)
    clock.advance(60.0)
    monitor.scan_once()
    assert monitor.take_stalled() == []


def test_monitor_thread_starts_and_stops():
    board = HeartbeatBoard.create(1)
    try:
        monitor = HeartbeatMonitor(board, {0: 0}, WatchdogConfig(poll_interval_s=0.01))
        monitor.start()
        monitor.start()  # idempotent
        assert monitor._thread is not None and monitor._thread.is_alive()
        monitor.stop()
        assert monitor._thread is None
        monitor.stop()  # idempotent
    finally:
        board.unlink()


# --------------------------------------------------- executor integration
#
# The hung workers below are *not* fault-plan cooperators: they beat on
# entry (arming the stall clock) and then spin in an uninstrumented busy
# loop.  The loop is time-bounded only so a broken watchdog fails the
# test instead of wedging the suite.

_HANG_BOUND_S = 30.0


def _spin(seconds: float) -> None:
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def _hang_once_worker(payload, shard_offset, attempt, in_subprocess):
    beat(shard_offset)
    if shard_offset == 0 and attempt == 1 and in_subprocess:
        _spin(_HANG_BOUND_S)
    return payload * 2


def _always_hang_worker(payload, shard_offset, attempt, in_subprocess):
    beat(shard_offset)
    if in_subprocess:
        _spin(_HANG_BOUND_S)
    return payload * 2


def _watchdog_runner(worker, board, slot_of, config, **kwargs):
    monitor = HeartbeatMonitor(board, slot_of, config)
    runner = ResilientShardRunner(
        worker,
        workers=2,
        policy=kwargs.pop("policy"),
        initializer=attach_worker_heartbeat,
        initargs=(board.ref, slot_of),
        **kwargs,
    )
    return runner, monitor


def test_hung_worker_is_stall_killed_and_resubmitted():
    """A wedged worker is detected in ~stall_timeout, not ~shard_timeout."""
    jobs = {0: 10, 1: 20, 2: 30}
    slot_of = {offset: slot for slot, offset in enumerate(sorted(jobs))}
    config = WatchdogConfig(stall_timeout_s=0.5, poll_interval_s=0.05)
    with HeartbeatBoard.create(len(jobs)) as board:
        runner, monitor = _watchdog_runner(
            _hang_once_worker,
            board,
            slot_of,
            config,
            policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.001, shard_timeout_s=_HANG_BOUND_S * 4
            ),
        )
        start = time.monotonic()
        ledger = runner.run(jobs, watchdog=monitor)
        elapsed = time.monotonic() - start

    assert ledger.stall_kills == 1
    assert ledger.pool_rebuilds == 0  # stall kills are not rebuild budget
    assert not ledger.degraded_to_serial
    # Every shard converged, including the one whose first attempt hung.
    assert {o: out.result for o, out in ledger.outcomes.items()} == {0: 20, 1: 40, 2: 60}
    assert ledger.outcomes[0].attempts == 2
    assert any("ShardStallError" in e for e in ledger.outcomes[0].errors)
    # Detection ran on the stall clock, nowhere near the hang bound.
    assert elapsed < _HANG_BOUND_S


def test_consecutive_stalls_trip_the_circuit_breaker_to_serial():
    """A pool that hangs every worker is abandoned for serial execution."""
    jobs = {0: 1, 1: 2}
    slot_of = {offset: slot for slot, offset in enumerate(sorted(jobs))}
    config = WatchdogConfig(stall_timeout_s=0.4, poll_interval_s=0.05, max_stall_kills=2)
    events: list[str] = []
    with HeartbeatBoard.create(len(jobs)) as board:
        runner, monitor = _watchdog_runner(
            _always_hang_worker,
            board,
            slot_of,
            config,
            policy=RetryPolicy(
                max_attempts=6, base_delay_s=0.001, shard_timeout_s=_HANG_BOUND_S * 4
            ),
            on_event=events.append,
        )
        try:
            ledger = runner.run(jobs, watchdog=monitor)
        finally:
            # Serial execution ran the initializer in this process.
            detach_worker_heartbeat()

    assert ledger.stall_kills >= config.max_stall_kills
    assert ledger.degraded_to_serial
    # Serial execution (in_subprocess=False) completes the shards.
    assert {o: out.result for o, out in ledger.outcomes.items()} == {0: 2, 1: 4}
    assert any("degrading" in event for event in events)


def test_stall_error_is_structured():
    error = ShardStallError(0x4000, 12.5, 2)
    assert error.shard_offset == 0x4000
    assert error.stalled_seconds == 12.5
    assert error.attempt == 2
    assert "0x4000" in str(error)


def test_decode_heartbeats_keep_the_stall_clock_fed(monitor_parts):
    """A belief-propagation decode beats the watchdog from inside its
    sweep loop (decode_schedule's on_progress hook): advancing the
    clock close to the stall budget between sweeps must never trip the
    monitor, while the same schedule decoded with the hook disconnected
    stalls — multi-minute decodes are workers, not hangs."""
    import numpy as np

    from repro.attack.decode import ChannelModel, decode_schedule
    from repro.crypto.aes import expand_key

    board, monitor, clock = monitor_parts
    monitor.track(0x100)
    board.beat(0)  # arm
    monitor.scan_once()

    rng = np.random.default_rng(8)
    master = bytes(rng.integers(0, 256, 32, np.uint8))
    bits = np.unpackbits(np.frombuffer(expand_key(master), dtype=np.uint8))
    bits ^= rng.random(bits.size) < 0.06
    observed = np.packbits(bits)

    def beat_and_tick():
        board.beat(0)
        monitor.scan_once()
        clock.advance(4.0)  # each sweep "takes" most of the 5 s budget

    result = decode_schedule(
        observed,
        256,
        ChannelModel.symmetric(0.06),
        on_progress=beat_and_tick,
        beat_every=1,
    )
    assert not result.abstained()
    monitor.scan_once()
    assert monitor.take_stalled() == []

    # Same decode, hook disconnected: the armed counter goes silent for
    # the whole run and the monitor must flag the stall.
    monitor.track(0x100)
    board.beat(0)
    monitor.scan_once()
    decode_schedule(observed, 256, ChannelModel.symmetric(0.06))
    clock.advance(6.0)
    monitor.scan_once()
    assert [offset for offset, _ in monitor.take_stalled()] == [0x100]
