"""The simulated DIMM: storage, power state, and decay over time.

A :class:`DramModule` is the physical object that gets frozen, pulled
out of the victim machine, carried across the room, and socketed into
the attacker's machine.  It stores raw (post-scrambler) bytes; the
scrambling itself lives in the memory controller (``repro.controller``),
exactly as in real systems where "all data that is eventually written to
DRAM passes through the scrambler" (§III-A).

The module exposes the two raw-access capabilities the paper needed
hardware tricks for: :meth:`raw_read`/:meth:`raw_write` stand in for the
FPGA board used to inject unscrambled data, and :meth:`dump` for the
bare-metal GRUB module that reads memory with minimal pollution.
"""

from __future__ import annotations

import numpy as np

from repro.dram.cells import DECAY_BLOCK_BYTES, GroundState, apply_decay
from repro.dram.retention import MODULE_PROFILES, ModuleProfile
from repro.util.rng import SplitMix64, derive_seed


class DramModule:
    """One removable DRAM module with decay-over-time behaviour.

    While powered, refresh holds contents steady.  While unpowered,
    :meth:`advance_time` decays still-charged bits toward the module's
    per-cell ground state, at a rate set by the module profile and the
    current temperature (spray it with :meth:`set_temperature` first).
    """

    def __init__(
        self,
        capacity_bytes: int,
        profile: ModuleProfile | str = "DDR4_A",
        serial: int = 0,
    ) -> None:
        if capacity_bytes <= 0 or capacity_bytes % 64:
            raise ValueError("capacity must be a positive multiple of 64 bytes")
        if isinstance(profile, str):
            profile = MODULE_PROFILES[profile]
        self.capacity_bytes = capacity_bytes
        self.profile = profile
        self.serial = serial
        self.ground_state = GroundState(capacity_bytes, serial)
        #: Cell contents; a fresh module sits at its ground state.
        self.data = self.ground_state[:]
        self.powered = True
        self.temperature_c = 20.0
        self._decay_age = 0.0
        self._power_cycles = 0

    # ------------------------------------------------------------------ power

    def power_off(self) -> None:
        """Cut power; decay begins accruing from age zero."""
        if not self.powered:
            raise RuntimeError("module is already powered off")
        self.powered = False
        self._decay_age = 0.0

    def power_on(self) -> None:
        """Restore power (socketed into a live machine); refresh resumes."""
        if self.powered:
            raise RuntimeError("module is already powered on")
        self.powered = True
        self._power_cycles += 1

    def set_temperature(self, celsius: float) -> None:
        """Set the module temperature (e.g. −25 °C after a duster spray)."""
        if celsius < -200.0 or celsius > 150.0:
            raise ValueError(f"implausible module temperature: {celsius}")
        self.temperature_c = celsius

    def advance_time(self, seconds: float) -> int:
        """Let ``seconds`` pass; returns bits decayed (0 while powered).

        Decay is applied incrementally and is consistent under
        subdivision: 2 s + 3 s at a fixed temperature flips the same
        *distribution* of bits as a single 5 s interval.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        if self.powered or seconds == 0:
            return 0
        model = self.profile.decay
        age_before = self._decay_age
        age_after = age_before + model.age_increment(seconds, self.temperature_c)
        p = model.conditional_flip_probability(age_before, age_after)
        self._decay_age = age_after
        rng = np.random.Generator(
            np.random.PCG64(
                derive_seed("decay", self.serial, self._power_cycles, f"{age_after:.9f}")
            )
        )
        return apply_decay(self.data, self.ground_state, p, rng)

    # ----------------------------------------------------------------- access

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.capacity_bytes:
            raise ValueError(
                f"access [{address}, {address + length}) outside module "
                f"of {self.capacity_bytes} bytes"
            )

    def raw_read(self, address: int, length: int) -> bytes:
        """Read raw cell contents (the FPGA / disabled-scrambler path)."""
        if not self.powered:
            raise RuntimeError("cannot read an unpowered module")
        self._check_range(address, length)
        return self.data[address : address + length].tobytes()

    def raw_write(self, address: int, payload: bytes) -> None:
        """Write raw cell contents, bypassing any controller scrambling."""
        if not self.powered:
            raise RuntimeError("cannot write an unpowered module")
        self._check_range(address, len(payload))
        self.data[address : address + len(payload)] = np.frombuffer(
            payload, dtype=np.uint8
        )

    # ----------------------------------------------------------- bulk access

    def _check_block_indices(self, block_indices: np.ndarray) -> None:
        if not self.powered:
            raise RuntimeError("cannot access an unpowered module")
        if block_indices.size and (
            int(block_indices.min()) < 0
            or int(block_indices.max()) * 64 + 64 > self.capacity_bytes
        ):
            raise ValueError(
                f"block access outside module of {self.capacity_bytes} bytes"
            )

    def blocks_view(self) -> np.ndarray:
        """The cell array as a zero-copy ``(n_blocks, 64)`` matrix."""
        return self.data.reshape(-1, 64)

    def raw_read_blocks(self, block_indices: np.ndarray) -> np.ndarray:
        """Gather whole 64-byte blocks by block index: ``(n, 64)`` copy."""
        block_indices = np.asarray(block_indices, dtype=np.int64)
        self._check_block_indices(block_indices)
        return self.blocks_view()[block_indices]

    def raw_read_run(self, start_block: int, n_blocks: int) -> np.ndarray:
        """A contiguous block run as a zero-copy ``(n_blocks, 64)`` view."""
        if not self.powered:
            raise RuntimeError("cannot read an unpowered module")
        self._check_range(start_block * 64, n_blocks * 64)
        return self.blocks_view()[start_block : start_block + n_blocks]

    def raw_write_run(self, start_block: int, rows: np.ndarray) -> None:
        """Overwrite a contiguous block run with ``(n, 64)`` rows."""
        if not self.powered:
            raise RuntimeError("cannot write an unpowered module")
        self._check_range(start_block * 64, len(rows) * 64)
        self.blocks_view()[start_block : start_block + len(rows)] = rows

    def raw_write_blocks(self, block_indices: np.ndarray, rows: np.ndarray) -> None:
        """Scatter whole 64-byte blocks by block index."""
        block_indices = np.asarray(block_indices, dtype=np.int64)
        self._check_block_indices(block_indices)
        self.blocks_view()[block_indices] = rows

    def dump(self) -> bytes:
        """Full raw image of the module (bare-metal GRUB dump)."""
        if not self.powered:
            raise RuntimeError("cannot dump an unpowered module")
        return self.data.tobytes()

    def fill(self, value: int = 0) -> None:
        """Fill the whole module with one byte value (reverse cold boot step 1)."""
        if not self.powered:
            raise RuntimeError("cannot fill an unpowered module")
        self.data[:] = value & 0xFF

    def decay_to_ground(self) -> None:
        """Let the module fully discharge (the 'profiling' variant, §III-A)."""
        for start in range(0, self.capacity_bytes, DECAY_BLOCK_BYTES):
            stop = start + DECAY_BLOCK_BYTES
            self.data[start:stop] = self.ground_state[start:stop]

    def fraction_correct(self, reference: bytes) -> float:
        """Fraction of bits matching ``reference`` — the retention metric."""
        if len(reference) != self.capacity_bytes:
            raise ValueError("reference length must equal module capacity")
        ref = np.frombuffer(reference, dtype=np.uint8)
        from repro.util.bits import popcount_bytes

        wrong = int(popcount_bytes(self.data ^ ref).sum())
        return 1.0 - wrong / (8 * self.capacity_bytes)


def random_fill(module: DramModule, seed: int | str = "fill") -> bytes:
    """Fill a module with reproducible pseudo-random data; returns a copy."""
    rng = SplitMix64(derive_seed("random-fill", str(seed), module.serial))
    payload = rng.next_bytes(module.capacity_bytes)
    module.raw_write(0, payload)
    return payload
