"""Tests for the virtual-memory simulator."""

import pytest

from repro.vmem.trace import AccessTrace
from repro.vmem.vm_simulator import VirtualMemoryConfig, VirtualMemorySimulator

PAGE = 4096


def sequential_trace(num_pages: int, passes: int = 1, cpu_per_byte: float = 0.0) -> AccessTrace:
    trace = AccessTrace(description="sequential")
    for _ in range(passes):
        for page in range(num_pages):
            trace.record(page * PAGE, PAGE, cpu_cost_s=PAGE * cpu_per_byte)
    return trace


def small_config(ram_pages: int) -> VirtualMemoryConfig:
    return VirtualMemoryConfig(ram_bytes=ram_pages * PAGE, page_size=PAGE)


class TestLiveAccess:
    def test_access_charges_io_and_cpu(self):
        sim = VirtualMemorySimulator(small_config(16))
        elapsed = sim.access(0, PAGE, cpu_cost_s=0.01)
        assert elapsed > 0.01
        stats = sim.io_stats()
        assert stats.cpu_time_s == pytest.approx(0.01)
        assert stats.io_time_s > 0

    def test_charge_cpu(self):
        sim = VirtualMemorySimulator(small_config(16))
        sim.charge_cpu(0.5)
        assert sim.elapsed_s == pytest.approx(0.5)

    def test_charge_negative_cpu_rejected(self):
        sim = VirtualMemorySimulator(small_config(16))
        with pytest.raises(ValueError):
            sim.charge_cpu(-1.0)

    def test_reset_clears_state(self):
        sim = VirtualMemorySimulator(small_config(16))
        sim.access(0, PAGE)
        sim.reset()
        assert sim.elapsed_s == 0.0
        assert sim.io_stats().bytes_read == 0


class TestTraceReplay:
    def test_result_reports_positive_wall_time(self):
        sim = VirtualMemorySimulator(small_config(32))
        result = sim.run_trace(sequential_trace(16), file_bytes=16 * PAGE)
        assert result.wall_time_s > 0
        assert result.io_stats.bytes_read >= 16 * PAGE

    def test_in_ram_workload_reads_data_once(self):
        sim = VirtualMemorySimulator(small_config(64))
        result = sim.run_trace(sequential_trace(16, passes=5), file_bytes=16 * PAGE)
        # All five passes fit in RAM: only the first pass faults.
        assert result.cache_stats_dict["major_faults"] <= 16
        assert result.io_stats.bytes_read <= 2 * 16 * PAGE

    def test_out_of_core_workload_rereads_every_pass(self):
        sim = VirtualMemorySimulator(small_config(8))
        result = sim.run_trace(sequential_trace(32, passes=3), file_bytes=32 * PAGE)
        assert result.io_stats.bytes_read >= 3 * 32 * PAGE * 0.9

    def test_out_of_core_slower_than_in_ram(self):
        cpu = 1e-9
        in_ram = VirtualMemorySimulator(small_config(64)).run_trace(
            sequential_trace(16, passes=4, cpu_per_byte=cpu), file_bytes=16 * PAGE
        )
        out_core = VirtualMemorySimulator(small_config(8)).run_trace(
            sequential_trace(16, passes=4, cpu_per_byte=cpu), file_bytes=16 * PAGE
        )
        assert out_core.wall_time_s > in_ram.wall_time_s

    def test_cold_cache_flag(self):
        sim = VirtualMemorySimulator(small_config(64))
        sim.run_trace(sequential_trace(16), file_bytes=16 * PAGE, cold_cache=True)
        warm = sim.run_trace(sequential_trace(16), file_bytes=16 * PAGE, cold_cache=False)
        assert warm.io_stats.bytes_read <= 32 * PAGE  # mostly cache hits on 2nd run

    def test_utilization_split_matches_cpu_cost(self):
        # Pure I/O trace: CPU utilisation should be ~0, disk ~1.
        sim = VirtualMemorySimulator(small_config(8))
        result = sim.run_trace(sequential_trace(64, passes=2), file_bytes=64 * PAGE)
        assert result.io_utilization > 0.95
        assert result.cpu_utilization < 0.05

    def test_wall_time_is_io_plus_cpu(self):
        sim = VirtualMemorySimulator(small_config(8))
        result = sim.run_trace(
            sequential_trace(32, passes=2, cpu_per_byte=1e-9), file_bytes=32 * PAGE
        )
        assert result.wall_time_s == pytest.approx(
            result.io_stats.io_time_s + result.io_stats.cpu_time_s
        )


class TestConfig:
    def test_resolve_disk_profile_by_name(self):
        config = VirtualMemoryConfig(disk_profile="hdd")
        assert config.resolve_disk_profile().name.startswith("hdd")

    def test_make_cache_config_propagates_settings(self):
        config = VirtualMemoryConfig(ram_bytes=1 << 20, page_size=8192)
        cache_config = config.make_cache_config()
        assert cache_config.ram_bytes == 1 << 20
        assert cache_config.page_size == 8192
