"""Tests for the resource monitor."""

import pytest

from repro.profiling.resources import ResourceMonitor, ResourceUsage


class TestResourceMonitor:
    def test_start_stop_produces_usage(self):
        monitor = ResourceMonitor()
        monitor.start()
        _ = sum(i * i for i in range(100_000))
        usage = monitor.stop()
        assert usage.wall_time_s > 0
        assert usage.cpu_time_s >= 0

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            ResourceMonitor().stop()

    def test_cpu_utilization_bounded(self):
        usage = ResourceUsage(wall_time_s=2.0, cpu_time_s=1.0, read_bytes=0, write_bytes=0)
        assert usage.cpu_utilization() == pytest.approx(0.5)
        assert usage.cpu_utilization(cores=4) == pytest.approx(0.125)
        assert ResourceUsage(0.0, 1.0, 0, 0).cpu_utilization() == 0.0

    def test_io_throughput(self):
        usage = ResourceUsage(wall_time_s=2.0, cpu_time_s=0.0, read_bytes=100, write_bytes=100)
        assert usage.io_throughput_bytes_per_s() == pytest.approx(100.0)
