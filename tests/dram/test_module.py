"""Tests for the removable DIMM model."""

import pytest

from repro.dram.cells import ground_state_pattern
from repro.dram.module import DramModule, random_fill
from repro.dram.retention import MODULE_PROFILES


@pytest.fixture
def module() -> DramModule:
    return DramModule(64 * 1024, "DDR4_A", serial=11)


class TestPowerLifecycle:
    def test_fresh_module_sits_at_ground(self, module):
        assert module.raw_read(0, 64) in (bytes(64), b"\xff" * 64)

    def test_double_power_off_rejected(self, module):
        module.power_off()
        with pytest.raises(RuntimeError):
            module.power_off()

    def test_double_power_on_rejected(self, module):
        with pytest.raises(RuntimeError):
            module.power_on()

    def test_no_access_while_unpowered(self, module):
        module.power_off()
        with pytest.raises(RuntimeError):
            module.raw_read(0, 64)
        with pytest.raises(RuntimeError):
            module.raw_write(0, bytes(64))
        with pytest.raises(RuntimeError):
            module.dump()

    def test_powered_module_never_decays(self, module):
        payload = random_fill(module)
        assert module.advance_time(100.0) == 0
        assert module.dump() == payload


class TestDecayBehaviour:
    def test_retention_metric(self, module):
        payload = random_fill(module)
        module.power_off()
        module.set_temperature(-25.0)
        module.advance_time(5.0)
        module.power_on()
        retained = module.fraction_correct(payload)
        assert 0.9 <= retained < 1.0  # the paper's 90-99% band

    def test_warm_decay_is_much_faster(self):
        cold = DramModule(32 * 1024, "DDR4_A", serial=1)
        warm = DramModule(32 * 1024, "DDR4_A", serial=1)
        payload_cold = random_fill(cold)
        payload_warm = random_fill(warm)
        for m, temperature in ((cold, -25.0), (warm, 20.0)):
            m.power_off()
            m.set_temperature(temperature)
            m.advance_time(3.0)
            m.power_on()
        assert warm.fraction_correct(payload_warm) < cold.fraction_correct(payload_cold)

    def test_incremental_decay_is_consistent(self):
        """2s + 3s decays like one 5s interval (statistically)."""
        split = DramModule(64 * 1024, "DDR3_C", serial=7)
        whole = DramModule(64 * 1024, "DDR3_C", serial=7)
        p_split = random_fill(split)
        p_whole = random_fill(whole)
        for m in (split, whole):
            m.power_off()
            m.set_temperature(0.0)
        split.advance_time(2.0)
        split.advance_time(3.0)
        whole.advance_time(5.0)
        split.power_on()
        whole.power_on()
        a = 1 - split.fraction_correct(p_split)
        b = 1 - whole.fraction_correct(p_whole)
        assert a == pytest.approx(b, rel=0.25)

    def test_decay_moves_toward_ground(self, module):
        module.fill(0x00)
        module.power_off()
        module.set_temperature(20.0)
        module.advance_time(60.0)
        module.power_on()
        # After a minute warm, most data is gone toward the ground state.
        data = module.dump()
        ground = module.ground_state[:].tobytes()
        agreement = sum(a == b for a, b in zip(data[:4096], ground[:4096])) / 4096
        assert agreement > 0.9

    def test_decay_to_ground_helper(self, module):
        random_fill(module)
        module.decay_to_ground()
        assert module.dump() == module.ground_state[:].tobytes()

    def test_ground_state_is_the_serials_stripe_pattern(self):
        """A capacity that ends mid-stripe and spans several decay
        blocks: fresh cells and full discharge are the serial's
        pattern, however the module slices it."""
        capacity = (3 << 18) + 4096 + 640
        module = DramModule(capacity, "DDR4_A", serial=23)
        pattern = ground_state_pattern(capacity, 23).tobytes()
        assert module.dump() == pattern
        random_fill(module)
        module.decay_to_ground()
        assert module.dump() == pattern


class TestAccessValidation:
    def test_out_of_range_read(self, module):
        with pytest.raises(ValueError):
            module.raw_read(module.capacity_bytes - 32, 64)

    def test_out_of_range_write(self, module):
        with pytest.raises(ValueError):
            module.raw_write(module.capacity_bytes, b"x")

    def test_capacity_must_be_block_aligned(self):
        with pytest.raises(ValueError):
            DramModule(100, "DDR4_A")

    def test_profile_by_name_and_object(self):
        by_name = DramModule(4096, "DDR3_C")
        by_object = DramModule(4096, MODULE_PROFILES["DDR3_C"])
        assert by_name.profile == by_object.profile

    def test_fraction_correct_validates_length(self, module):
        with pytest.raises(ValueError):
            module.fraction_correct(b"short")
