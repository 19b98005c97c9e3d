"""The Skylake DDR4 scrambler model (§III-B).

The paper could not see inside the Skylake memory controller; what it
*measured* — and what this model reproduces property-for-property — is:

1. **4096 distinct 64-byte keys per channel** (vs 16 on DDR3), selected
   by 12 physical-address bits, so plaintext collisions are 256× rarer
   (Figure 3d);
2. keys are a function of the **boot seed and the address bits**, so
   blocks that share a key keep sharing one across reboots;
3. seed mixing is **non-separable**: XOR-ing the key pools of two boots
   does *not* collapse to one universal key (Figure 3e), killing the
   DDR3 attack;
4. every key satisfies the four **byte-pair invariants** — within each
   16-byte-aligned sub-word, the second 8 bytes equal the first 8 bytes
   XOR a repeated 16-bit constant.  (That single structural statement
   implies all four equalities of §III-B; see
   ``repro.attack.litmus``.)  This is the hardware-cost fingerprint of
   generating 8 bytes of LFSR stream and reusing it, and it is exactly
   what the attack's key litmus test keys on.

Because the construction is linear, the XOR of two scrambler keys also
satisfies the invariants — which is why the paper notes the litmus
tests "can extract keys required for descrambling even when data is
read back through a scrambler with a different set of keys."
"""

from __future__ import annotations

import numpy as np

from repro.dram.address import DramAddressMap, address_map_for
from repro.scrambler.base import ScramblerModel
from repro.scrambler.lfsr import GaloisLfsr, batch_lfsr_bits
from repro.util.bits import words16_to_bytes
from repro.util.rng import derive_seed, derive_seeds


class Ddr4Scrambler(ScramblerModel):
    """Skylake-style scrambler: 4096 structured keys, non-separable seed."""

    generation = "ddr4"

    #: 64-byte keys are built from four independent 16-byte sub-blocks.
    SUB_BLOCKS = 4

    def __init__(
        self,
        boot_seed: int,
        address_map: DramAddressMap | None = None,
        cpu_generation: str = "skylake",
        channels: int = 1,
    ) -> None:
        if address_map is None:
            address_map = address_map_for(cpu_generation, channels)
        if address_map.keys_per_channel != 4096:
            raise ValueError(
                "Skylake DDR4 scramblers use 4096 keys/channel; the address "
                f"map must select 12 key-index bits, got {address_map.keys_per_channel} keys"
            )
        self.cpu_generation = cpu_generation
        super().__init__(address_map, boot_seed)

    def _generate_key(self, channel: int, key_index: int) -> bytes:
        # Non-separable mixing: the LFSR seed diffuses boot seed, channel
        # and key index together, so K(idx, s1) ^ K(idx, s2) varies with
        # idx (no universal key across boots).
        lfsr = GaloisLfsr(
            64,
            derive_seed(
                "ddr4-key", self.cpu_generation, self.boot_seed, channel, key_index
            ),
        )
        sub_blocks = []
        for _ in range(self.SUB_BLOCKS):
            # Eight bytes of fresh stream, then the same eight bytes
            # reused XOR a repeated 16-bit constant — the structure
            # behind all four §III-B invariants.
            first_half = [lfsr.next_word16() for _ in range(4)]
            reuse_constant = lfsr.next_word16()
            second_half = [w ^ reuse_constant for w in first_half]
            sub_blocks.append(words16_to_bytes(first_half + second_half))
        return b"".join(sub_blocks)

    def _generate_key_pool(self, channel: int) -> np.ndarray:
        # Every key consumes 4 sub-blocks × 5 LFSR words of 16 bits; all
        # 4096 registers produce those 320 bits in one leap-functional
        # product, then the word/byte assembly mirrors _generate_key.
        seeds = derive_seeds(
            "ddr4-key", self.cpu_generation, self.boot_seed, channel,
            count=self.keys_per_channel,
        )
        n_words = self.SUB_BLOCKS * 5  # 4 fresh words + 1 reuse constant each
        bits = batch_lfsr_bits(seeds, n_words * 16)
        bits = bits.reshape(len(seeds), self.SUB_BLOCKS, 5, 16)
        # next_word16 collects LSB first; words16_to_bytes is big-endian,
        # so pack little within each byte, then swap (lo, hi) -> (hi, lo).
        words = np.packbits(bits, axis=-1, bitorder="little")[..., ::-1]
        first_half = words[:, :, 0:4, :]
        reuse_constant = words[:, :, 4:5, :]
        second_half = first_half ^ reuse_constant
        pool = np.concatenate([first_half, second_half], axis=2)
        return pool.reshape(len(seeds), 8 * self.SUB_BLOCKS * 2)
