"""Simulated machines: the systems of Table I, boot cycles, module swaps.

A :class:`Machine` ties together DIMMs, an address map, and a memory
controller whose block transform is chosen by the machine's protection
level: a generation-appropriate scrambler (the Table I systems), a §IV
stream-cipher engine, or nothing (old DDR/DDR2-style plaintext).

Boot behaviour follows §III-B: on every boot the BIOS writes a fresh
scrambler seed — except on the "certain vendors" whose BIOS never
resets it, causing scrambler keys to repeat across boots.  Booting also
pollutes a small region of low memory (firmware + the bare-metal dump
module), as real boots do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controller.controller import MemoryController
from repro.controller.encrypted import SUPPORTED_CIPHERS, StreamCipherEngine
from repro.dram.address import DramAddressMap, address_map_for
from repro.dram.image import MemoryImage
from repro.dram.module import DramModule
from repro.scrambler.base import ScramblerModel, bios_seed
from repro.scrambler.ddr3 import Ddr3Scrambler
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.util.rng import SplitMix64, derive_seed
from repro.victim.veracrypt import VeraCryptVolume


@dataclass(frozen=True)
class MachineSpec:
    """Identity and platform configuration of one tested machine."""

    cpu_model: str
    microarchitecture: str  # "sandybridge" | "ivybridge" | "skylake"
    ddr_generation: str  # "DDR3" | "DDR4"
    launch: str
    channels: int = 1
    #: Most BIOSes reseed the scrambler every boot; some vendors don't.
    bios_resets_seed: bool = True

    def __post_init__(self) -> None:
        if self.microarchitecture not in ("sandybridge", "ivybridge", "skylake"):
            raise ValueError(f"unknown microarchitecture: {self.microarchitecture}")
        if self.ddr_generation not in ("DDR3", "DDR4"):
            raise ValueError(f"unknown DDR generation: {self.ddr_generation}")


#: Table I: the five machines whose scramblers the paper analysed.
TABLE_I_MACHINES: dict[str, MachineSpec] = {
    "i5-2540M": MachineSpec("i5-2540M", "sandybridge", "DDR3", "Q1, 2011"),
    "i5-2430M": MachineSpec("i5-2430M", "sandybridge", "DDR3", "Q4, 2011"),
    "i7-3540M": MachineSpec("i7-3540M", "ivybridge", "DDR3", "Q1, 2013"),
    "i5-6400": MachineSpec("i5-6400", "skylake", "DDR4", "Q3, 2015"),
    "i5-6600K": MachineSpec("i5-6600K", "skylake", "DDR4", "Q3, 2015"),
}

#: Low-memory bytes overwritten by firmware + the GRUB dump module on
#: boot ("minimal pollution to the memory contents", §III-A).
BOOT_POLLUTION_BYTES = 16 * 1024


class Machine:
    """One simulated computer with removable, decaying DRAM.

    ``protection`` selects the memory-path transform:

    * ``"scrambler"`` — the generation-appropriate scrambler (default);
    * one of :data:`~repro.controller.encrypted.SUPPORTED_CIPHERS` —
      the §IV encrypted-memory proposal;
    * ``"none"`` — plaintext memory (pre-DDR3 behaviour).
    """

    def __init__(
        self,
        spec: MachineSpec,
        memory_bytes: int,
        machine_id: int = 0,
        module_profile: str | None = None,
        protection: str = "scrambler",
        trace_bus: bool = False,
        boot_pollution_bytes: int = BOOT_POLLUTION_BYTES,
    ) -> None:
        if protection not in ("scrambler", "none", *SUPPORTED_CIPHERS):
            raise ValueError(f"unknown protection: {protection!r}")
        if memory_bytes % (64 * spec.channels):
            raise ValueError("memory must divide evenly into 64-byte blocks per channel")
        self.spec = spec
        self.machine_id = machine_id
        self.protection = protection
        self.boot_pollution_bytes = boot_pollution_bytes
        self.address_map: DramAddressMap = address_map_for(
            spec.microarchitecture, spec.channels
        )
        profile = module_profile or ("DDR4_A" if spec.ddr_generation == "DDR4" else "DDR3_A")
        per_channel = memory_bytes // spec.channels
        self.modules: dict[int, DramModule | None] = {
            ch: DramModule(
                per_channel, profile, serial=derive_seed("dimm", machine_id, ch)
            )
            for ch in range(spec.channels)
        }
        self.boot_count = 0
        self.powered = False
        self.suspended = False
        self.scrambler: ScramblerModel | None = None
        self.cipher_engine: StreamCipherEngine | None = None
        self._trace_bus = trace_bus
        self.controller: MemoryController | None = None
        self.boot()

    # ----------------------------------------------------------- lifecycle

    def _build_controller(self) -> None:
        missing = [ch for ch, m in self.modules.items() if m is None]
        if missing:
            raise RuntimeError(f"cannot operate without modules in channels {missing}")
        transform = None
        if self.protection == "scrambler":
            transform = self.scrambler
        elif self.protection in SUPPORTED_CIPHERS:
            transform = self.cipher_engine
        self.controller = MemoryController(
            self.address_map, dict(self.modules), transform, trace_bus=self._trace_bus
        )

    def boot(self) -> None:
        """Power on (if needed) and run firmware: reseed + boot pollution."""
        self.boot_count += 1
        for module in self.modules.values():
            if module is not None and not module.powered:
                module.power_on()
        self.powered = True
        seed = bios_seed(self.boot_count, self.spec.bios_resets_seed, self.machine_id)
        if self.protection == "scrambler":
            if self.spec.ddr_generation == "DDR4":
                self.scrambler = Ddr4Scrambler(
                    seed, self.address_map, self.spec.microarchitecture
                )
            else:
                self.scrambler = Ddr3Scrambler(
                    seed, self.address_map, self.spec.microarchitecture
                )
        elif self.protection in SUPPORTED_CIPHERS:
            self.cipher_engine = StreamCipherEngine.from_boot_seed(self.protection, seed)
        self._build_controller()
        if self.boot_pollution_bytes:
            firmware = SplitMix64(derive_seed("boot-pollution", self.machine_id, self.boot_count))
            self.controller.write(0, firmware.next_bytes(self.boot_pollution_bytes))

    def suspend(self) -> None:
        """Suspend to RAM (ACPI S3): DRAM stays refreshed, secrets stay.

        §II-B's acquisition scenario — "if the machine is in sleep mode
        while the attacker acquires it" — a suspended machine keeps its
        modules powered (self-refresh), so nothing decays and the
        mounted volume's keys remain resident.  The attacker's physical
        moves (shutdown/remove) work exactly as on a running machine.
        """
        if not self.powered:
            raise RuntimeError("cannot suspend a machine that is off")
        self.suspended = True

    def resume(self) -> None:
        """Wake from suspend; memory contents are exactly as left."""
        if not getattr(self, "suspended", False):
            raise RuntimeError("machine is not suspended")
        self.suspended = False

    def shutdown(self) -> None:
        """Cut power; DRAM decay starts accruing."""
        self.suspended = False
        if not self.powered:
            raise RuntimeError("machine is already off")
        for module in self.modules.values():
            if module is not None and module.powered:
                module.power_off()
        self.powered = False

    def wait(self, seconds: float) -> None:
        """Let wall-clock time pass (decays any unpowered modules)."""
        for module in self.modules.values():
            if module is not None and not module.powered:
                module.advance_time(seconds)

    # --------------------------------------------------------- module swaps

    def remove_module(self, channel: int = 0) -> DramModule:
        """Pull a DIMM out of its socket (it loses power immediately)."""
        module = self.modules.get(channel)
        if module is None:
            raise RuntimeError(f"channel {channel} has no module installed")
        if module.powered:
            module.power_off()
        self.modules[channel] = None
        self.controller = None  # machine cannot run without its memory
        self.powered = False
        return module

    def install_module(self, module: DramModule, channel: int = 0) -> None:
        """Socket a DIMM; call :meth:`boot` afterwards to use the machine."""
        if self.modules.get(channel) is not None:
            raise RuntimeError(f"channel {channel} already has a module")
        expected = next(
            (m.capacity_bytes for m in self.modules.values() if m is not None), None
        )
        if expected is not None and module.capacity_bytes != expected:
            raise ValueError("mixed module capacities are not supported")
        self.modules[channel] = module

    # ------------------------------------------------------------ software

    @property
    def memory_bytes(self) -> int:
        """Total installed memory."""
        return sum(m.capacity_bytes for m in self.modules.values() if m is not None)

    def _require_running(self) -> MemoryController:
        if not self.powered or self.controller is None:
            raise RuntimeError("machine is not running")
        if self.suspended:
            raise RuntimeError("machine is suspended (no software is executing)")
        return self.controller

    def write(self, physical_address: int, data: bytes) -> None:
        """Software (post-scrambler) memory write."""
        self._require_running().write(physical_address, data)

    def read(self, physical_address: int, length: int) -> bytes:
        """Software (descrambled) memory read."""
        return self._require_running().read(physical_address, length)

    def set_transform_enabled(self, enabled: bool) -> None:
        """The BIOS menu toggle that enables/disables scrambling (§III-A)."""
        self._require_running().transform_enabled = enabled

    def bare_metal_dump(
        self, base_address: int = 0, length: int | None = None
    ) -> MemoryImage:
        """Dump memory via the GRUB-module path (reads through the transform).

        The dump is streamed into one fresh buffer, with no intermediate
        copies, and wrapped.
        """
        controller = self._require_running()
        if length is None:
            length = controller.capacity_bytes
        dump = bytearray(length)
        controller.read_into(base_address, dump)
        return MemoryImage(dump, base_address)

    # ------------------------------------------------------- victim service

    def mount_encrypted_volume(
        self, password: bytes, key_table_address: int, salt: bytes = b"veracrypt-salt"
    ) -> VeraCryptVolume:
        """Mount a VeraCrypt volume: its expanded keys become RAM-resident.

        The 480-byte expanded key table (two AES-256 schedules) is
        written at ``key_table_address`` — any byte alignment, exactly
        like a driver allocation would land.
        """
        volume = VeraCryptVolume.create(password, salt)
        self.write(key_table_address, volume.expanded_keys().resident_bytes)
        return volume
