"""Heartbeat watchdog: board units, monitor stall logic, hung-worker kills.

The monitor units drive :meth:`HeartbeatMonitor.scan_once` with an
injected clock — no threads, no sleeping.  The acceptance tests run a
*genuinely* hung worker (an uninstrumented busy loop, no fault-plan
cooperation) under the real pool executor and assert it is detected,
killed, resubmitted, and that the run still converges to the right
answer.  Workers beat through the board they inherit when the pool
forks.
"""

import multiprocessing
import time

import pytest

from repro.resilience import watchdog
from repro.resilience.errors import ShardStallError
from repro.resilience.executor import ResilientShardRunner
from repro.resilience.retry import RetryPolicy
from repro.resilience.watchdog import HeartbeatBoard, HeartbeatMonitor, WatchdogConfig

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


def test_board_requires_a_shared_backend(monkeypatch):
    """No shared map, no board: the caller runs without a watchdog."""

    def no_map(*args, **kwargs):
        raise OSError("mmap refused")

    monkeypatch.setattr(watchdog.mmap, "mmap", no_map)
    assert HeartbeatBoard.create(4) is None


def test_board_rejects_zero_slots():
    with pytest.raises(ValueError):
        HeartbeatBoard.create(0)


def _beat_slots(board, slots):
    for slot in slots:
        board.beat(slot)


def test_forked_worker_beats_reach_the_owner_view():
    """A forked worker beats into the board it inherited, and the owner
    reads the counts."""
    with HeartbeatBoard.create(2) as board:
        child = multiprocessing.get_context("fork").Process(
            target=_beat_slots, args=(board, [1, 1, 0])
        )
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        assert board.values() == [1, 2]


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
    board.close()


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
        board.close()


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


#: The board and slot map the workers below beat, set before the runner
#: forks its pool, so every worker process inherits them.
_INHERITED: dict = {}


def _beat(shard_offset):
    _INHERITED["board"].beat(_INHERITED["slot_of"][shard_offset])


def _hang_once_worker(payload, shard_offset, attempt, in_subprocess):
    _beat(shard_offset)
    if shard_offset == 0 and attempt == 1 and in_subprocess:
        _spin(_HANG_BOUND_S)
    return payload * 2


def _always_hang_worker(payload, shard_offset, attempt, in_subprocess):
    _beat(shard_offset)
    if in_subprocess:
        _spin(_HANG_BOUND_S)
    return payload * 2


@pytest.fixture()
def inherited_board():
    """A board for ``jobs``' shards, which the pool's workers inherit."""

    def make(jobs):
        slot_of = {offset: slot for slot, offset in enumerate(sorted(jobs))}
        board = HeartbeatBoard.create(len(jobs))
        _INHERITED.update(board=board, slot_of=slot_of)
        return board, slot_of

    yield make
    board = _INHERITED.pop("board", None)
    _INHERITED.clear()
    if board is not None:
        board.close()


def test_hung_worker_is_stall_killed_and_resubmitted(inherited_board):
    """A wedged worker is detected in ~stall_timeout, not ~shard_timeout."""
    jobs = {0: 10, 1: 20, 2: 30}
    board, slot_of = inherited_board(jobs)
    config = WatchdogConfig(stall_timeout_s=0.5, poll_interval_s=0.05)
    runner = ResilientShardRunner(
        _hang_once_worker,
        workers=2,
        policy=RetryPolicy(
            max_attempts=3, base_delay_s=0.001, shard_timeout_s=_HANG_BOUND_S * 4
        ),
    )
    start = time.monotonic()
    ledger = runner.run(jobs, watchdog=HeartbeatMonitor(board, slot_of, config))
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


def test_consecutive_stalls_trip_the_circuit_breaker_to_serial(inherited_board):
    """A pool that hangs every worker is abandoned for serial execution."""
    jobs = {0: 1, 1: 2}
    board, slot_of = inherited_board(jobs)
    config = WatchdogConfig(stall_timeout_s=0.4, poll_interval_s=0.05, max_stall_kills=2)
    events: list[str] = []
    runner = ResilientShardRunner(
        _always_hang_worker,
        workers=2,
        policy=RetryPolicy(
            max_attempts=6, base_delay_s=0.001, shard_timeout_s=_HANG_BOUND_S * 4
        ),
        on_event=events.append,
    )
    ledger = runner.run(jobs, watchdog=HeartbeatMonitor(board, slot_of, config))

    assert ledger.stall_kills >= config.max_stall_kills
    assert ledger.degraded_to_serial
    # Serial execution (in_subprocess=False) completes the shards.
    assert {o: out.result for o, out in ledger.outcomes.items()} == {0: 2, 1: 4}
    assert any("degrading" in event for event in events)


# ------------------------------------------- stall kills through the scan
#
# A scripted ``hang`` fault beats once on entry (the scan task's first
# beat) and then sleeps; the watchdog must arm on that beat, kill the
# worker within the stall budget, and leave no hung process behind.

_SCAN_HANG_S = 8.0


def _hung_scan():
    """A 2-worker process scan whose first shard hangs for _SCAN_HANG_S."""
    from repro.attack.parallel import resilient_recover_keys, shard_image
    from repro.attack.sweep import synthetic_dump
    from repro.crypto.aes import schedule_bytes
    from repro.resilience.faults import FaultPlan, FaultSpec

    dump, master, _ = synthetic_dump(0.0, seed=5)
    shards = shard_image(dump, 4, overlap_bytes=schedule_bytes(256) + 64)
    plan = FaultPlan(
        faults=((shards[0].base_offset, FaultSpec(kind="hang", hang_seconds=_SCAN_HANG_S)),),
        seed=5,
    )
    start = time.monotonic()
    scan = resilient_recover_keys(
        dump,
        workers=2,
        n_shards=4,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        fault_plan=plan,
        watchdog=WatchdogConfig(stall_timeout_s=1.0, poll_interval_s=0.05),
    )
    assert scan.executor == "process"
    assert {r.master_key for r in scan.recovered} >= {master[:32], master[32:]}
    return scan, time.monotonic() - start


def test_stall_clock_arms_even_when_the_first_beat_beats_tracking(monkeypatch):
    """Tracking starts before dispatch, so a worker whose first beat lands
    before the monitor's snapshot is still armed and stall-killed.

    Delaying ``track`` makes that race certain: a snapshot taken after
    the submit would already hold the first beat, the counter would
    never move again, and the hang would run to its end.
    """
    track = HeartbeatMonitor.track

    def slow_track(self, shard_offset):
        time.sleep(0.5)
        track(self, shard_offset)

    monkeypatch.setattr(HeartbeatMonitor, "track", slow_track)
    scan, elapsed = _hung_scan()
    assert scan.ledger.stall_kills >= 1
    assert elapsed < _SCAN_HANG_S


def test_stall_killed_worker_is_dead_when_the_scan_returns():
    """The teardown kills the hung worker: no pool process outlives the
    scan (a survivor would hold its shard's memory and stall exit)."""
    import multiprocessing

    before = {process.pid for process in multiprocessing.active_children()}
    scan, _ = _hung_scan()
    assert scan.ledger.stall_kills >= 1
    survivors = [
        process
        for process in multiprocessing.active_children()
        if process.pid not in before
    ]
    assert survivors == []


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
