"""The integrated memory controller: CPU ⇄ (scrambler | cipher) ⇄ DRAM.

All data written to DRAM passes through the controller's block
transform (scrambler or §IV cipher engine); all data read by software
passes back through it, so "regular software cannot see the raw
scrambled data" (§III-A).  Raw cell contents are only reachable by
pulling the module (``module.dump`` after a transfer) or by disabling
the transform via the BIOS toggle the paper's DDR4 motherboard exposed.

The controller also keeps an optional **bus trace** — the interposer's
view of (address, raw data on the wire) — used to demonstrate the
bus-snooping/replay weakness the §IV scheme explicitly does not defend
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.dram.address import DramAddressMap
from repro.dram.module import DramModule
from repro.util.blocks import BLOCK_SIZE


class BlockTransform(Protocol):
    """Anything producing a 64-byte XOR keystream per physical block."""

    def keystream_for_block(self, physical_address: int) -> bytes:
        """Keystream for the 64-byte block at an aligned physical address."""
        ...


@dataclass(frozen=True)
class BusTransaction:
    """One burst observed on the DRAM bus (what an interposer sees)."""

    kind: str  # "read" or "write"
    physical_address: int
    wire_data: bytes  # post-transform: what actually crosses the bus


class MemoryController:
    """Routes CPU accesses across channels, applying the block transform.

    ``modules`` maps channel number to its :class:`DramModule`.  The
    transform can be a :class:`~repro.scrambler.ScramblerModel`, a
    :class:`~repro.controller.encrypted.StreamCipherEngine`, or ``None``
    (plaintext DDR/DDR2-style operation).
    """

    def __init__(
        self,
        address_map: DramAddressMap,
        modules: dict[int, DramModule],
        transform: BlockTransform | None = None,
        trace_bus: bool = False,
    ) -> None:
        if set(modules) != set(range(address_map.channels)):
            raise ValueError(
                f"need one module per channel 0..{address_map.channels - 1}, "
                f"got channels {sorted(modules)}"
            )
        self.address_map = address_map
        self.modules = dict(modules)
        self.transform = transform
        #: BIOS toggle: scrambling/encryption can be switched off, which is
        #: how the paper's analysis motherboard exposed raw DRAM contents.
        self.transform_enabled = transform is not None
        self.bus_trace: list[BusTransaction] = []
        self._trace_bus = trace_bus

    # ------------------------------------------------------------ geometry

    @property
    def capacity_bytes(self) -> int:
        """Total addressable bytes across all channels."""
        return sum(m.capacity_bytes for m in self.modules.values())

    def _route(self, block_address: int) -> tuple[DramModule, int]:
        """Map an aligned block address to (module, module-local address)."""
        channel = self.address_map.channel_of(block_address)
        local = self.address_map.channel_local_address(block_address)
        module = self.modules[channel]
        if local + BLOCK_SIZE > module.capacity_bytes:
            raise ValueError(
                f"address {block_address:#x} maps beyond channel {channel}'s module"
            )
        return module, local

    def _block_keystream(self, block_address: int) -> np.ndarray:
        if self.transform is not None and self.transform_enabled:
            stream = self.transform.keystream_for_block(block_address)
            return np.frombuffer(stream, dtype=np.uint8)
        return np.zeros(BLOCK_SIZE, dtype=np.uint8)

    # ---------------------------------------------------------- bulk routing

    def _route_run(self, base_address: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised routing for an aligned run: (channels, local block indices)."""
        amap = self.address_map
        addresses = np.uint64(base_address) + np.arange(
            n_blocks, dtype=np.uint64
        ) * np.uint64(BLOCK_SIZE)
        channels = amap.channel_of_array(addresses)
        block_indices = (
            amap.channel_local_address_array(addresses) >> np.uint64(6)
        ).astype(np.int64)
        for channel in np.unique(channels):
            selected = channels == channel
            module = self.modules[int(channel)]
            local = block_indices[selected]
            over = (local < 0) | (local * BLOCK_SIZE + BLOCK_SIZE > module.capacity_bytes)
            if over.any():
                bad = int(addresses[selected][over][0])
                raise ValueError(
                    f"address {bad:#x} maps beyond channel {int(channel)}'s module"
                )
        return channels, block_indices

    def _range_keystream(self, base_address: int, n_blocks: int) -> np.ndarray | None:
        """Batched keystream rows for an aligned run; ``None`` = transform off."""
        if self.transform is None or not self.transform_enabled:
            return None
        batched = getattr(self.transform, "keystream_for_range", None)
        if batched is not None:
            return np.asarray(batched(base_address, n_blocks), dtype=np.uint8)
        rows = np.empty((n_blocks, BLOCK_SIZE), dtype=np.uint8)
        for i in range(n_blocks):
            rows[i] = np.frombuffer(
                self.transform.keystream_for_block(base_address + i * BLOCK_SIZE),
                dtype=np.uint8,
            )
        return rows

    def _gather_wire(self, base_address: int, n_blocks: int) -> np.ndarray:
        """Raw wire data for an aligned run as ``(n_blocks, 64)`` rows.

        Single-channel layouts return a zero-copy view of the module.
        """
        if self.address_map.channels == 1:
            return self.modules[0].raw_read_run(base_address // BLOCK_SIZE, n_blocks)
        channels, block_indices = self._route_run(base_address, n_blocks)
        out = np.empty((n_blocks, BLOCK_SIZE), dtype=np.uint8)
        for channel in np.unique(channels):
            selected = channels == channel
            out[selected] = self.modules[int(channel)].raw_read_blocks(
                block_indices[selected]
            )
        return out

    def _scatter_wire(self, base_address: int, rows: np.ndarray) -> None:
        """Write ``(n, 64)`` wire rows to an aligned run across channels."""
        if self.address_map.channels == 1:
            self.modules[0].raw_write_run(base_address // BLOCK_SIZE, rows)
            return
        channels, block_indices = self._route_run(base_address, len(rows))
        for channel in np.unique(channels):
            selected = channels == channel
            self.modules[int(channel)].raw_write_blocks(
                block_indices[selected], rows[selected]
            )

    def _trace_run(self, kind: str, base_address: int, rows: np.ndarray) -> None:
        append = self.bus_trace.append
        for i in range(len(rows)):
            append(
                BusTransaction(kind, base_address + i * BLOCK_SIZE, rows[i].tobytes())
            )

    # ------------------------------------------------------------ data path

    #: Blocks per bulk run (4 MiB): bounds keystream/wire temporaries.
    RUN_BLOCKS = 1 << 16

    def _write_partial(self, block_address: int, offset: int, chunk: np.ndarray) -> None:
        """Read-modify-write for an unaligned edge of a larger write."""
        module, local = self._route(block_address)
        stream = self._block_keystream(block_address)
        raw = np.frombuffer(module.raw_read(local, BLOCK_SIZE), dtype=np.uint8)
        plain = raw ^ stream
        plain[offset : offset + chunk.size] = chunk
        wire = (plain ^ stream).tobytes()
        module.raw_write(local, wire)
        if self._trace_bus:
            self.bus_trace.append(BusTransaction("write", block_address, wire))

    def write(self, physical_address: int, data: bytes) -> None:
        """Write any bytes-like at any alignment, without copying the payload.

        Aligned whole-block runs go through the vectorised path — one
        routing pass, one batched keystream, one XOR — with scalar
        read-modify-write only at unaligned edges.
        """
        if physical_address < 0:
            raise ValueError("address must be non-negative")
        payload = np.frombuffer(data, dtype=np.uint8)
        total = payload.size
        if total == 0:
            return
        cursor = physical_address
        consumed = 0
        offset = physical_address % BLOCK_SIZE
        if offset:
            take = min(BLOCK_SIZE - offset, total)
            self._write_partial(cursor - offset, offset, payload[:take])
            consumed = take
            cursor += take
        while (total - consumed) // BLOCK_SIZE:
            n_run = min((total - consumed) // BLOCK_SIZE, self.RUN_BLOCKS)
            rows = payload[consumed : consumed + n_run * BLOCK_SIZE].reshape(
                n_run, BLOCK_SIZE
            )
            stream = self._range_keystream(cursor, n_run)
            wire = rows if stream is None else rows ^ stream
            self._scatter_wire(cursor, wire)
            if self._trace_bus:
                self._trace_run("write", cursor, wire)
            consumed += n_run * BLOCK_SIZE
            cursor += n_run * BLOCK_SIZE
        if consumed < total:
            self._write_partial(cursor, 0, payload[consumed:])

    def _read_into_array(self, physical_address: int, out: np.ndarray) -> None:
        """Descramble ``out.size`` bytes starting anywhere into ``out``."""
        length = out.size
        offset = physical_address % BLOCK_SIZE
        cursor = physical_address - offset
        produced = 0
        while produced < length:
            remaining = length - produced
            n_run = min(
                (offset + remaining + BLOCK_SIZE - 1) // BLOCK_SIZE, self.RUN_BLOCKS
            )
            wire = self._gather_wire(cursor, n_run)
            if self._trace_bus:
                self._trace_run("read", cursor, wire)
            stream = self._range_keystream(cursor, n_run)
            take = min(n_run * BLOCK_SIZE - offset, remaining)
            dest = out[produced : produced + take]
            if offset == 0 and take == n_run * BLOCK_SIZE:
                # Whole-run case: XOR straight into the caller's buffer.
                shaped = dest.reshape(n_run, BLOCK_SIZE)
                if stream is None:
                    np.copyto(shaped, wire)
                else:
                    np.bitwise_xor(wire, stream, out=shaped)
            else:
                plain = wire if stream is None else wire ^ stream
                dest[:] = plain.reshape(-1)[offset : offset + take]
            produced += take
            cursor += n_run * BLOCK_SIZE
            offset = 0

    def read(self, physical_address: int, length: int) -> bytes:
        """Read bytes at any alignment through the descrambler/decryptor."""
        if physical_address < 0 or length < 0:
            raise ValueError("address and length must be non-negative")
        if length == 0:
            return b""
        out = np.empty(length, dtype=np.uint8)
        self._read_into_array(physical_address, out)
        return out.tobytes()

    def read_into(self, physical_address: int, out) -> None:
        """Descramble a range directly into a writable buffer, zero-copy.

        ``out`` may be any writable buffer (bytearray, memoryview, numpy
        array); its length sets the read size.  This is the streaming
        path :meth:`~repro.victim.machine.Machine.bare_metal_dump` uses
        to fill its dump buffer.
        """
        if physical_address < 0:
            raise ValueError("address must be non-negative")
        if isinstance(out, np.ndarray):
            arr = out.reshape(-1).view(np.uint8)
        else:
            arr = np.frombuffer(out, dtype=np.uint8)
        if not arr.flags.writeable:
            raise ValueError("read_into needs a writable buffer")
        self._read_into_array(physical_address, arr)

    # --------------------------------------------------------- raw access

    def raw_write_wire(self, physical_address: int, data: bytes) -> None:
        """Inject raw bytes onto a module, bypassing the transform.

        This models both the FPGA write path of §III-A and a bus-replay
        adversary re-driving captured wire data.
        """
        if physical_address % BLOCK_SIZE or len(data) % BLOCK_SIZE:
            raise ValueError("raw wire access requires whole aligned blocks")
        rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
        if len(rows):
            self._scatter_wire(physical_address, rows)

    def dump_through_transform(self, base_address: int, length: int) -> bytes:
        """What the bare-metal GRUB dumper sees: a read of the whole range."""
        return self.read(base_address, length)
