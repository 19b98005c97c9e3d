"""Parameter sweeps: attack success vs physical conditions and ablations.

The paper demonstrates its attack at one operating point (−25 °C, ~5 s,
90–99 % retention).  This module maps the surrounding space — the
experiments a reviewer would ask for:

* :func:`attack_success_sweep` — recovery success and key-mining yield
  as functions of transfer temperature/time (i.e. of bit error rate);
* :func:`synthetic_dump` — a parameterised scrambled dump with a
  planted XTS key table and controllable artificial decay, for fast
  ablations that bypass the full machine simulation;
* :func:`ablate_search` — measure what each decay-hardening mechanism
  of the search contributes (neighbour extension, bit repair, the
  banded fingerprint join) by disabling them one at a time;
* :func:`fault_recovery_sweep` — inject each worker-fault kind
  (crash, hang, kill, corruption) into a sharded scan and confirm the
  resilient runtime still recovers the planted master key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.aes_search import AesKeySearch
from repro.attack.coldboot import TransferConditions, cold_boot_transfer
from repro.attack.keymine import keys_matrix, mine_scrambler_keys
from repro.attack.pipeline import Ddr4ColdBootAttack
from repro.crypto.aes import expand_key
from repro.dram.image import MemoryImage
from repro.scrambler.ddr4 import Ddr4Scrambler
from repro.util.rng import SplitMix64, derive_seed
from repro.victim.machine import TABLE_I_MACHINES, Machine
from repro.victim.workload import synthesize_memory


@dataclass(frozen=True)
class SweepPoint:
    """Outcome of one attack attempt under specific conditions."""

    temperature_c: float
    transfer_seconds: float
    bit_error_rate: float
    candidates_mined: int
    keys_recovered: int
    master_key_recovered: bool


def attack_success_sweep(
    temperatures: tuple[float, ...] = (-50.0, -25.0, 0.0, 20.0),
    transfer_seconds: float = 5.0,
    memory_bytes: int = 2 << 20,
    seed: int = 71,
) -> list[SweepPoint]:
    """Run the full physical attack across transfer temperatures."""
    points = []
    for index, celsius in enumerate(temperatures):
        victim = Machine(
            TABLE_I_MACHINES["i5-6400"], memory_bytes=memory_bytes, machine_id=seed + index
        )
        contents, _ = synthesize_memory(
            memory_bytes - 64 * 1024, zero_fraction=0.35, seed=seed + index
        )
        victim.write(64 * 1024, contents)
        volume = victim.mount_encrypted_volume(
            b"sweep", key_table_address=memory_bytes // 2 + 37
        )
        reference = Machine(
            TABLE_I_MACHINES["i5-6400"], memory_bytes=memory_bytes, machine_id=seed + index
        )
        attacker = Machine(
            TABLE_I_MACHINES["i5-6600K"], memory_bytes=memory_bytes, machine_id=seed + 100 + index
        )
        dump = cold_boot_transfer(
            victim, attacker, TransferConditions(celsius, transfer_seconds)
        )
        # BER proxy: decayed fraction of the key-table region is hard to
        # measure externally; use the module profile's model prediction.
        from repro.dram.retention import MODULE_PROFILES

        flip = MODULE_PROFILES["DDR4_A"].decay.flip_fraction(transfer_seconds, celsius)
        attack = Ddr4ColdBootAttack()
        report = attack.run(dump)
        master = attack.recover_xts_master_key(dump, report)
        points.append(
            SweepPoint(
                temperature_c=celsius,
                transfer_seconds=transfer_seconds,
                bit_error_rate=0.5 * flip,
                candidates_mined=len(report.candidate_keys),
                keys_recovered=len(report.recovered_keys),
                master_key_recovered=master == volume.master_key,
            )
        )
    return points


def synthetic_dump(
    bit_error_rate: float,
    n_blocks: int = 3 * 4096,
    zero_every: int = 3,
    table_block: int = 700,
    seed: int = 5,
) -> tuple[MemoryImage, bytes, Ddr4Scrambler]:
    """A scrambled dump with a planted XTS table and uniform bit decay.

    Unlike the machine simulation, decay here is uniform random bit
    flips at exactly ``bit_error_rate`` — the controlled variable for
    ablation studies.  Returns (dump, 64-byte master key, scrambler).
    """
    if not 0.0 <= bit_error_rate < 0.5:
        raise ValueError("bit error rate must lie in [0, 0.5)")
    if (table_block + 8) * 64 > n_blocks * 64:
        raise ValueError("the key table must fit inside the dump")
    rng = SplitMix64(derive_seed("synthetic-dump", seed))
    plain = bytearray(rng.next_bytes(n_blocks * 64))
    for b in range(0, n_blocks, zero_every):
        plain[b * 64 : (b + 1) * 64] = bytes(64)
    master = rng.next_bytes(64)
    table = expand_key(master[:32]) + expand_key(master[32:])
    offset = table_block * 64 + 11
    plain[offset : offset + len(table)] = table
    scrambler = Ddr4Scrambler(boot_seed=derive_seed("synthetic-boot", seed))
    scrambled = bytearray(scrambler.scramble_range(0, bytes(plain)))
    if bit_error_rate > 0:
        generator = np.random.Generator(np.random.PCG64(derive_seed("synthetic-decay", seed)))
        flips = generator.random(len(scrambled) * 8) < bit_error_rate
        mask = np.packbits(flips)
        scrambled = bytearray(
            (np.frombuffer(bytes(scrambled), dtype=np.uint8) ^ mask).tobytes()
        )
    return MemoryImage(bytes(scrambled)), master, scrambler


@dataclass(frozen=True)
class FaultSweepPoint:
    """Outcome of one sharded scan under an injected fault kind."""

    fault_kind: str
    shards_quarantined: int
    keys_recovered: int
    master_recovered: bool
    matches_clean_run: bool


def fault_recovery_sweep(
    fault_kinds: tuple[str, ...] = ("crash", "corrupt"),
    workers: int = 2,
    n_shards: int = 4,
    seed: int = 5,
    shard_timeout_s: float | None = 120.0,
    hang_seconds: float = 150.0,
) -> list[FaultSweepPoint]:
    """Sabotage a sharded scan one fault kind at a time and re-verify.

    Each point injects a *transient* fault (first attempt only) into
    one shard of a :func:`synthetic_dump` scan via
    :class:`repro.resilience.faults.FaultPlan` and checks that the
    resilient runtime converges to the same recovered keys as the clean
    run.  ``("crash", "corrupt")`` is the fast default; add ``"hang"``
    / ``"kill"`` (process death) for the full, slower battery.
    """
    from repro.attack.parallel import resilient_recover_keys, shard_image
    from repro.crypto.aes import schedule_bytes
    from repro.resilience.faults import FaultPlan, FaultSpec
    from repro.resilience.retry import RetryPolicy

    dump, master, _ = synthetic_dump(bit_error_rate=0.0, seed=seed)
    clean = resilient_recover_keys(dump, key_bits=256, workers=1, n_shards=n_shards)
    clean_masters = {r.master_key for r in clean.recovered}
    shards = shard_image(dump, n_shards, overlap_bytes=schedule_bytes(256) + 64)
    policy = RetryPolicy(
        max_attempts=3, base_delay_s=0.01, shard_timeout_s=shard_timeout_s, seed=seed
    )
    points = []
    for kind in fault_kinds:
        plan = FaultPlan(
            faults=(
                (
                    shards[len(shards) // 2].base_offset,
                    FaultSpec(kind=kind, first_attempts=1, hang_seconds=hang_seconds),
                ),
            ),
            seed=seed,
        )
        scan = resilient_recover_keys(
            dump,
            key_bits=256,
            workers=workers,
            n_shards=n_shards,
            retry_policy=policy,
            fault_plan=plan,
        )
        masters = {r.master_key for r in scan.recovered}
        points.append(
            FaultSweepPoint(
                fault_kind=kind,
                shards_quarantined=len(scan.quarantined_offsets),
                keys_recovered=len(scan.recovered),
                master_recovered=master[:32] in masters and master[32:] in masters,
                matches_clean_run=masters == clean_masters,
            )
        )
    return points


@dataclass(frozen=True)
class AblationResult:
    """Recovery outcome with one hardening mechanism toggled."""

    configuration: str
    keys_recovered: int
    master_recovered: bool


def ablate_search(
    bit_error_rate: float = 0.008, seed: int = 5
) -> list[AblationResult]:
    """Toggle the search's decay hardening and measure what breaks.

    Configurations: the full search; no neighbour extension; no bit
    repair; neither.  (The banded join cannot be disabled independently
    — it *is* the join — but `exhaustive_hits` in the tests covers the
    no-join reference.)
    """
    dump, master, _ = synthetic_dump(bit_error_rate, seed=seed)
    candidates = mine_scrambler_keys(dump)
    keys = keys_matrix(candidates)
    configurations = {
        "full": dict(extension_radius_blocks=6, repair_bits=1),
        "no-extension": dict(extension_radius_blocks=0, repair_bits=1),
        "no-repair": dict(extension_radius_blocks=6, repair_bits=0),
        "bare": dict(extension_radius_blocks=0, repair_bits=0),
    }
    results = []
    for name, options in configurations.items():
        search = AesKeySearch(keys, key_bits=256, **options)
        recovered = search.recover_keys(dump)
        masters = {r.master_key for r in recovered}
        results.append(
            AblationResult(
                configuration=name,
                keys_recovered=len(recovered),
                master_recovered=master[:32] in masters and master[32:] in masters,
            )
        )
    return results
