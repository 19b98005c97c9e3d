"""Deterministic fault injection for the sharded attack runtime.

Proving that a 21-hour scan survives worker crashes cannot wait for a
real crash; this module injects them on demand, *deterministically*.
A :class:`FaultPlan` maps shard offsets to :class:`FaultSpec` entries;
the shard worker consults the plan on every attempt and, per the
spec, raises, kills its process, sleeps past the shard timeout, or
hands the search bit-corrupted shard bytes.  Everything is seeded, so
a failing resilience test replays exactly.

The plan travels *inside* the pickled worker arguments — faults fire
in the worker process itself, exercising the same crash/timeout paths
a real failure would.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import SplitMix64, derive_seed

#: ``first_attempts`` value meaning "fault on every attempt, forever".
PERMANENT = 1 << 30

#: Fault kinds understood by the chaos harness.  The first four are
#: process faults fired by :meth:`FaultPlan.apply` inside the worker;
#: the last three are *data* faults: ``"bitrot"`` corrupts the shard's
#: bytes at a seeded rate (decay concentrated in one stretch of the
#: dump), ``"journal"`` corrupts the shard's checkpoint-journal line
#: after it is written (fired by the orchestrator via
#: :meth:`FaultPlan.corrupt_journal_record`), and ``"poison"`` corrupts
#: the worker's copy of the scan's key matrix (fired by the shard task
#: via :meth:`FaultPlan.poison_keys` before its integrity check).
FAULT_KINDS = ("crash", "kill", "hang", "corrupt", "bitrot", "journal", "poison")


class InjectedFault(RuntimeError):
    """Raised (or printed by a dying worker) when an injected fault fires."""


@dataclass(frozen=True)
class FaultSpec:
    """One shard's scripted misbehaviour.

    ``kind``:

    * ``"crash"``  — the worker raises :class:`InjectedFault`;
    * ``"kill"``   — the worker process exits abruptly (``os._exit``),
      which surfaces as ``BrokenProcessPool`` on the parent side;
    * ``"hang"``   — the worker sleeps ``hang_seconds`` before
      answering, tripping the per-shard timeout;
    * ``"corrupt"`` — ``corrupt_bits`` deterministic bit flips are
      applied to the shard bytes before the search sees them;
    * ``"bitrot"`` — every bit of the shard flips independently with
      probability ``corrupt_rate`` (seeded): localized decay, the
      data-level analogue of a hot spot in the §III-D retention maps;
    * ``"journal"`` — the shard computes normally, but the checkpoint
      record written for it is corrupted on disk afterwards (the
      orchestrator fires this one; the worker ignores it);
    * ``"poison"`` — the worker's private copy of the scan's key
      matrix gets ``corrupt_bits`` flips before its CRC check (the
      shard task fires this one; ``apply`` ignores it).

    ``first_attempts`` bounds the sabotage: the fault fires on attempts
    ``1..first_attempts`` and the shard behaves from then on.  Use
    :data:`PERMANENT` for a shard that never recovers (it must end up
    quarantined).
    """

    kind: str
    first_attempts: int = 1
    hang_seconds: float = 30.0
    corrupt_bits: int = 64
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (want one of {FAULT_KINDS})")
        if self.first_attempts < 1:
            raise ValueError("a fault must fire on at least one attempt")
        if self.hang_seconds < 0 or self.corrupt_bits < 0:
            raise ValueError("hang duration and corrupt bits must be non-negative")
        if not 0.0 <= self.corrupt_rate < 0.5:
            raise ValueError("corrupt_rate must lie in [0, 0.5)")

    def fires_on(self, attempt: int) -> bool:
        """Whether this fault is active on the given 1-based attempt."""
        return attempt <= self.first_attempts


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of shard faults, picklable into workers."""

    faults: tuple[tuple[int, FaultSpec], ...] = ()
    seed: int = 0
    _by_offset: dict = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_offset", dict(self.faults))

    def spec_for(self, shard_offset: int) -> FaultSpec | None:
        """The fault scripted for a shard, if any."""
        return self._by_offset.get(shard_offset)

    def corrupt(self, shard_offset: int, attempt: int, data: bytes, n_bits: int) -> bytes:
        """Flip ``n_bits`` seeded bit positions in ``data`` (length kept)."""
        if not data or n_bits == 0:
            return data
        rng = SplitMix64(derive_seed("fault-corrupt", self.seed, shard_offset, attempt))
        corrupted = np.frombuffer(data, dtype=np.uint8).copy()
        for _ in range(n_bits):
            bit = rng.next_below(len(data) * 8)
            corrupted[bit // 8] ^= 0x80 >> (bit % 8)
        return corrupted.tobytes()

    def bitrot(self, shard_offset: int, attempt: int, data: bytes, rate: float) -> bytes:
        """Flip every bit of ``data`` independently at ``rate`` (seeded)."""
        if not data or rate <= 0.0:
            return data
        generator = np.random.Generator(
            np.random.PCG64(derive_seed("fault-bitrot", self.seed, shard_offset, attempt))
        )
        flips = generator.random(len(data) * 8) < rate
        mask = np.packbits(flips)
        return (np.frombuffer(data, dtype=np.uint8) ^ mask).tobytes()

    def poison_keys(self, shard_offset: int, attempt: int, keys: np.ndarray) -> np.ndarray:
        """A bit-flipped copy of a worker's key matrix, when scripted.

        Returns ``keys`` untouched unless a ``"poison"`` fault is
        scripted for this shard and fires on this attempt; the caller's
        check against the CRC the orchestrator took of the matrix is
        what turns the poison into a structured
        :class:`~repro.resilience.errors.SharedSegmentCorruptError`.
        """
        spec = self.spec_for(shard_offset)
        if spec is None or spec.kind != "poison" or not spec.fires_on(attempt):
            return keys
        poisoned = bytearray(
            self.corrupt(shard_offset, attempt, np.ascontiguousarray(keys).tobytes(),
                         max(1, spec.corrupt_bits))
        )
        return np.frombuffer(bytes(poisoned), dtype=np.uint8).reshape(keys.shape)

    def corrupt_journal_record(self, path, shard_offset: int) -> bool:
        """Corrupt the checkpoint record just written for a shard.

        Fired by the orchestrator immediately after the journal line
        lands on disk, when a ``"journal"`` fault is scripted for the
        shard: one character inside the final line's JSON content is
        XOR-damaged (the line still parses or not — either way its CRC
        no longer matches, so a resume must reject it rather than
        silently replay a wrong record).  Returns whether a record was
        corrupted.
        """
        spec = self.spec_for(shard_offset)
        if spec is None or spec.kind != "journal":
            return False
        from pathlib import Path

        target = Path(path)
        raw = target.read_bytes()
        body = raw[:-1] if raw.endswith(b"\n") else raw
        line_start = body.rfind(b"\n") + 1
        if line_start >= len(body):
            return False
        rng = SplitMix64(derive_seed("fault-journal", self.seed, shard_offset))
        position = line_start + rng.next_below(len(body) - line_start)
        damaged = bytearray(raw)
        # Stay printable so the damage survives JSON parsing and must be
        # caught by the CRC, not by a decode error.
        damaged[position] = ord("0") if damaged[position] != ord("0") else ord("1")
        target.write_bytes(bytes(damaged))
        return True

    def has_journal_faults(self) -> bool:
        """Whether any shard has a ``"journal"`` fault scripted."""
        return any(spec.kind == "journal" for _, spec in self.faults)

    def has_process_faults(self) -> bool:
        """Whether any scripted fault needs a real worker *process*.

        ``kill`` and ``hang`` only behave as scripted when the worker
        is a killable subprocess — fired in a thread they downgrade to
        :class:`InjectedFault` (see :meth:`apply`).  The sharded scan
        uses this to run chaos plans on a process pool.
        """
        return any(spec.kind in ("kill", "hang") for _, spec in self.faults)

    def apply(
        self,
        shard_offset: int,
        attempt: int,
        data: bytes,
        in_subprocess: bool = True,
    ) -> bytes:
        """Fire the scripted fault for (shard, attempt), if any.

        Returns the (possibly corrupted) shard bytes the search should
        run on.  ``in_subprocess=False`` (the executor's serial
        degradation path) downgrades process-level faults — ``kill``
        and ``hang`` — to an :class:`InjectedFault` exception, because
        killing or stalling the orchestrator process would take the
        harness down with it.
        """
        spec = self.spec_for(shard_offset)
        if spec is None or not spec.fires_on(attempt):
            return data
        if spec.kind == "corrupt":
            return self.corrupt(shard_offset, attempt, data, spec.corrupt_bits)
        if spec.kind == "bitrot":
            return self.bitrot(shard_offset, attempt, data, spec.corrupt_rate)
        if spec.kind in ("journal", "poison"):
            # Fired elsewhere: the orchestrator corrupts the journal
            # record, the shard task poisons its key-matrix copy.
            return data
        if spec.kind == "crash" or not in_subprocess:
            raise InjectedFault(
                f"injected {spec.kind} on shard {shard_offset:#x} attempt {attempt}"
            )
        if spec.kind == "kill":
            os._exit(13)
        # "hang": sleep long enough to trip the per-shard timeout.
        time.sleep(spec.hang_seconds)
        return data

    @classmethod
    def scheduled(
        cls,
        seed: int,
        shard_offsets: list[int] | tuple[int, ...],
        crash_fraction: float = 0.0,
        kill_fraction: float = 0.0,
        hang_fraction: float = 0.0,
        corrupt_fraction: float = 0.0,
        first_attempts: int = 1,
        hang_seconds: float = 30.0,
        corrupt_bits: int = 64,
    ) -> "FaultPlan":
        """Draw a seeded fault schedule over the given shards.

        Exactly ``floor(fraction * n_shards)`` shards receive each fault
        kind, chosen by a seeded shuffle — the same seed over the same
        offsets always yields the same plan, and the sabotage rate is
        exact rather than a per-shard coin flip.
        """
        total = crash_fraction + kill_fraction + hang_fraction + corrupt_fraction
        if total > 1.0 + 1e-9:
            raise ValueError("fault fractions must sum to at most 1")
        # Seeded Fisher-Yates shuffle, then deal consecutive slices.
        pool = list(shard_offsets)
        rng = SplitMix64(derive_seed("fault-schedule", seed))
        for index in range(len(pool) - 1, 0, -1):
            other = rng.next_below(index + 1)
            pool[index], pool[other] = pool[other], pool[index]
        faults: list[tuple[int, FaultSpec]] = []
        cursor = 0
        for kind, fraction in (
            ("crash", crash_fraction),
            ("kill", kill_fraction),
            ("hang", hang_fraction),
            ("corrupt", corrupt_fraction),
        ):
            count = int(fraction * len(pool))
            for offset in pool[cursor : cursor + count]:
                faults.append(
                    (
                        offset,
                        FaultSpec(
                            kind=kind,
                            first_attempts=first_attempts,
                            hang_seconds=hang_seconds,
                            corrupt_bits=corrupt_bits,
                        ),
                    )
                )
            cursor += count
        return cls(faults=tuple(faults), seed=seed)
