"""Unit tests for the platform model."""

import pytest

from repro.errors import ModelError
from repro.model.blocks import MAX_CACHE_SETS
from repro.model.platform import (
    BusPolicy,
    CacheGeometry,
    CYCLES_PER_US,
    Platform,
    cycles_to_microseconds,
    microseconds_to_cycles,
)


class TestUnits:
    def test_default_memory_latency_is_five_microseconds(self):
        assert Platform().d_mem == microseconds_to_cycles(5)

    def test_round_trip_conversion(self):
        for us in (1, 2, 5, 10, 100):
            assert cycles_to_microseconds(microseconds_to_cycles(us)) == us

    def test_cycles_per_us_consistent_with_processor_speed(self):
        assert microseconds_to_cycles(1) == CYCLES_PER_US


class TestCacheGeometry:
    def test_defaults_match_paper(self):
        geometry = CacheGeometry()
        assert geometry.num_sets == 256
        assert geometry.block_size == 32
        assert geometry.capacity_bytes == 8192

    def test_set_mapping_is_modulo(self):
        geometry = CacheGeometry(num_sets=16, block_size=32)
        assert geometry.set_of_block(0) == 0
        assert geometry.set_of_block(16) == 0
        assert geometry.set_of_block(17) == 1

    def test_block_of_address(self):
        geometry = CacheGeometry(num_sets=16, block_size=32)
        assert geometry.block_of_address(0) == 0
        assert geometry.block_of_address(31) == 0
        assert geometry.block_of_address(32) == 1

    def test_set_of_address_composes(self):
        geometry = CacheGeometry(num_sets=8, block_size=32)
        assert geometry.set_of_address(8 * 32 + 5) == 0

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ModelError):
            CacheGeometry(num_sets=100)

    def test_rejects_non_power_of_two_block_size(self):
        with pytest.raises(ModelError):
            CacheGeometry(block_size=24)

    def test_rejects_non_positive_sets(self):
        with pytest.raises(ModelError):
            CacheGeometry(num_sets=0)

    def test_every_set_index_packs(self):
        # A set index must pack into a block set, so the cache is bounded.
        assert CacheGeometry(num_sets=MAX_CACHE_SETS).num_sets == MAX_CACHE_SETS
        with pytest.raises(ModelError, match="at most"):
            CacheGeometry(num_sets=2 * MAX_CACHE_SETS)

    def test_rejects_negative_address(self):
        with pytest.raises(ModelError):
            CacheGeometry().block_of_address(-1)

    def test_rejects_negative_block(self):
        with pytest.raises(ModelError):
            CacheGeometry().set_of_block(-4)

    def test_with_num_sets(self):
        geometry = CacheGeometry().with_num_sets(64)
        assert geometry.num_sets == 64
        assert geometry.block_size == 32


class TestPlatform:
    def test_defaults_match_paper(self):
        platform = Platform()
        assert platform.num_cores == 4
        assert platform.slot_size == 2
        assert platform.bus_policy is BusPolicy.FP

    def test_tdma_cycle_length(self):
        platform = Platform(num_cores=4, slot_size=2)
        assert platform.tdma_cycle_slots == 8

    def test_cores_iterable(self):
        assert list(Platform(num_cores=3).cores) == [0, 1, 2]

    def test_with_helpers_produce_modified_copies(self):
        base = Platform()
        assert base.with_bus_policy(BusPolicy.RR).bus_policy is BusPolicy.RR
        assert base.with_d_mem(42).d_mem == 42
        assert base.with_num_cores(8).num_cores == 8
        assert base.with_slot_size(3).slot_size == 3
        assert base.with_cache(CacheGeometry(num_sets=64)).cache.num_sets == 64
        # The original is untouched (frozen dataclass semantics).
        assert base.num_cores == 4
        assert base.bus_policy is BusPolicy.FP

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            Platform(num_cores=0)
        with pytest.raises(ModelError):
            Platform(d_mem=0)
        with pytest.raises(ModelError):
            Platform(slot_size=0)
        with pytest.raises(ModelError):
            Platform(bus_policy="fp")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["num_cores", "d_mem", "slot_size"])
    def test_rejects_non_finite_numbers(self, field, value):
        with pytest.raises(ModelError, match=f"{field} must be .*finite"):
            Platform(**{field: value})


class TestBusPolicy:
    def test_work_conserving_classification(self):
        assert BusPolicy.FP.is_work_conserving
        assert BusPolicy.RR.is_work_conserving
        assert BusPolicy.PERFECT.is_work_conserving
        assert not BusPolicy.TDMA.is_work_conserving
