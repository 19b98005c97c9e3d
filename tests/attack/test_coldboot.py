"""Tests for the physical cold-boot procedures."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attack.coldboot import TransferConditions, cold_boot_transfer, reverse_cold_boot
from repro.dram.cells import SPARSE_DECAY_THRESHOLD
from repro.dram.retention import MODULE_PROFILES
from repro.util.rng import SplitMix64
from repro.victim.machine import TABLE_I_MACHINES, Machine, MachineSpec

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from benchmarks import coldboot_footprint  # noqa: E402


def make_machines(mem: int = 1 << 18):
    victim = Machine(TABLE_I_MACHINES["i5-6400"], memory_bytes=mem, machine_id=1)
    attacker = Machine(TABLE_I_MACHINES["i5-6600K"], memory_bytes=mem, machine_id=2)
    return victim, attacker


class TestReverseColdBoot:
    def test_zero_fill_reveals_keystream(self):
        victim, _ = make_machines()
        keystream = reverse_cold_boot(victim)
        for block in (64, 100, 4095):
            expected = victim.scrambler.key_for_address(block * 64)
            assert keystream.block(block) == expected

    def test_ground_state_profiling_variant(self):
        victim, _ = make_machines()
        keystream = reverse_cold_boot(victim, use_ground_state=True)
        for block in (64, 2000):
            assert keystream.block(block) == victim.scrambler.key_for_address(block * 64)

    def test_requires_running_machine(self):
        victim, _ = make_machines()
        victim.shutdown()
        with pytest.raises(RuntimeError):
            reverse_cold_boot(victim)


class TestColdBootTransfer:
    def test_dump_is_double_scrambled(self):
        victim, attacker = make_machines()
        victim.write(0x8000, b"S" * 64)
        victim_key = victim.scrambler.key_for_address(0x8000)
        dump = cold_boot_transfer(victim, attacker, TransferConditions(transfer_seconds=0.0))
        attacker_key = attacker.scrambler.key_for_address(0x8000)
        block = dump.block(0x8000 // 64)
        expected = bytes(
            b"S"[0] ^ kv ^ ka for kv, ka in zip(victim_key, attacker_key)
        )
        assert block == expected

    def test_decay_tracks_conditions(self):
        victim_cold, attacker_cold = make_machines()
        victim_warm = Machine(TABLE_I_MACHINES["i5-6400"], memory_bytes=1 << 18, machine_id=1)
        attacker_warm = Machine(TABLE_I_MACHINES["i5-6600K"], memory_bytes=1 << 18, machine_id=2)
        # Above the attacker's 16 KiB boot-pollution footprint, and big
        # enough that decayed bits dominate the comparison.
        payload = bytes(range(256)) * 512  # 128 KiB
        victim_cold.write(64 * 1024, payload)
        victim_warm.write(64 * 1024, payload)
        cold = cold_boot_transfer(
            victim_cold, attacker_cold, TransferConditions(temperature_c=-25.0, transfer_seconds=5.0)
        )
        warm = cold_boot_transfer(
            victim_warm, attacker_warm, TransferConditions(temperature_c=20.0, transfer_seconds=5.0)
        )
        clean_victim, clean_attacker = make_machines()
        clean_victim.write(64 * 1024, payload)
        clean = cold_boot_transfer(
            clean_victim, clean_attacker, TransferConditions(transfer_seconds=0.0)
        )
        assert cold.bit_error_rate(clean) < warm.bit_error_rate(clean)
        assert cold.bit_error_rate(clean) < 0.02

    def test_rejects_powered_off_victim(self):
        victim, attacker = make_machines()
        victim.shutdown()
        with pytest.raises(RuntimeError):
            cold_boot_transfer(victim, attacker)

    def test_victim_is_dead_after_extraction(self):
        victim, attacker = make_machines()
        cold_boot_transfer(victim, attacker)
        assert not victim.powered
        assert victim.modules[0] is None


TWO_CHANNEL_SKYLAKE = MachineSpec("i5-6400 (2ch)", "skylake", "DDR4", "Q3, 2015", channels=2)


class TestDumpsArePinned:
    """Whole transfers, victim boot to attacker dump, pinned by SHA-256.

    The digests were taken before the modules held their ground state
    as stripe values, so they hold fresh cells, both decay paths and
    the dump path to the bytes they produced with a full byte copy.
    """

    CASES = {
        # The transfer the attack uses: dense decay (p ≈ 0.016).
        "ddr4-dense": ("i5-6400", "i5-6600K", 1 << 20, -25.0, 5.0,
                       "22cd571f480fd66e81b999afc57abf2d339db643b83296ec4fb2d22221b16201"),
        # p ≈ 0.0015: sparse decay over two of its 1 MiB chunks.
        "ddr4-sparse": ("i5-6400", "i5-6600K", 2 << 20, -25.0, 1.0,
                        "e63000bd85e9d6bbef5133fc06d21068a99de532f8ceb158cfcc3c2bceb6cd1b"),
        "ddr3-dense": ("i5-2540M", "i7-3540M", 1 << 20, 0.0, 2.0,
                       "31600da834fdc62ea2f84e330b89859601e924ef175c430c60aea6e061916a5f"),
        # Channel 0's module moves; the dump also reads the attacker's
        # own channel-1 module, never decayed, at its ground state.
        "ddr4-two-channel": (TWO_CHANNEL_SKYLAKE, TWO_CHANNEL_SKYLAKE, 2 << 20, -25.0, 5.0,
                             "1b0ae017d0fb16bba0df15243acf7de409f6f107e744985704d6467be21fccf4"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dump_digest(self, case):
        victim_spec, attacker_spec, memory, celsius, seconds, digest = self.CASES[case]
        specs = [s if isinstance(s, MachineSpec) else TABLE_I_MACHINES[s]
                 for s in (victim_spec, attacker_spec)]
        victim = Machine(specs[0], memory_bytes=memory, machine_id=7)
        attacker = Machine(specs[1], memory_bytes=memory, machine_id=8)
        victim.write(64 * 1024, SplitMix64(11).next_bytes(memory // 2))
        dump = cold_boot_transfer(
            victim, attacker, TransferConditions(temperature_c=celsius, transfer_seconds=seconds)
        )
        assert hashlib.sha256(dump.data).hexdigest() == digest

    def test_cases_cover_both_decay_paths(self):
        probabilities = {}
        for case, (spec, _, _, celsius, seconds, _) in self.CASES.items():
            generation = spec.ddr_generation if isinstance(spec, MachineSpec) \
                else TABLE_I_MACHINES[spec].ddr_generation
            decay = MODULE_PROFILES[f"{generation}_A"].decay
            probabilities[case] = decay.conditional_flip_probability(
                0.0, decay.age_increment(seconds, celsius))
        assert probabilities["ddr4-sparse"] < SPARSE_DECAY_THRESHOLD
        assert min(p for case, p in probabilities.items()
                   if case != "ddr4-sparse") >= SPARSE_DECAY_THRESHOLD


def footprint(size_mib: int) -> dict:
    """One pass in a fresh process: its growth over the built contents."""
    completed = subprocess.run(
        [sys.executable, coldboot_footprint.__file__, "--size-mib", str(size_mib)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert completed.returncode in (0, 1), completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
def test_peak_memory_grows_by_at_most_two_and_a_half_modules():
    """The footprint bound of docs/performance.md §9.

    The pass needs two copies of the module, its cells and the dump.
    The difference of two module sizes cancels what the pass costs
    whatever the size, and must stay within 2.5 MiB per MiB of module:
    a third copy, such as a byte-for-byte ground state, breaks it.
    """
    small, large = footprint(16), footprint(48)
    for run in (small, large):
        assert run["exact_keys"] == run["keys"] == 2, run
        assert run["growth_mib"] <= run["bound_mib"], run
    allowance = coldboot_footprint.GROWTH_PER_MODULE_MIB * (48 - 16)
    assert large["growth_mib"] - small["growth_mib"] <= allowance, (small, large)


class TestTransferChannel:
    """The bridge from physical transfer conditions to decode priors."""

    def profile(self):
        from repro.dram.retention import MODULE_PROFILES

        return MODULE_PROFILES["DDR4_A"]

    def test_expected_rate_is_half_the_vulnerable_flip_fraction(self):
        from repro.attack.decode import RATE_CEIL, RATE_FLOOR

        conditions = TransferConditions(transfer_seconds=10.0, temperature_c=20.0)
        profile = self.profile()
        rate = conditions.expected_bit_error_rate(profile)
        flip = profile.decay.flip_fraction(10.0, 20.0)
        assert RATE_FLOOR <= rate <= RATE_CEIL
        assert rate == pytest.approx(min(RATE_CEIL, max(RATE_FLOOR, 0.5 * flip)))

    def test_colder_transfers_cost_fewer_flips(self):
        profile = self.profile()
        warm = TransferConditions(transfer_seconds=10.0, temperature_c=30.0)
        cold = TransferConditions(transfer_seconds=10.0, temperature_c=-40.0)
        assert cold.expected_bit_error_rate(profile) < warm.expected_bit_error_rate(profile)

    def test_channel_model_is_one_directional(self):
        conditions = TransferConditions(transfer_seconds=5.0, temperature_c=20.0)
        channel = conditions.channel_model(self.profile(), ground=b"\x00")
        assert channel.rate_to_ground > channel.rate_from_ground
        assert channel.ground == b"\x00"
