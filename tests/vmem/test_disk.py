"""Tests for the disk performance model."""

import pytest

from repro.vmem.disk import DiskModel, DiskProfile, HDD_7200RPM, NVME_SSD, SATA_SSD, get_profile


class TestDiskProfile:
    def test_builtin_profiles_validate(self):
        for profile in (NVME_SSD, SATA_SSD, HDD_7200RPM):
            profile.validate()

    def test_invalid_bandwidth_rejected(self):
        bad = DiskProfile("bad", 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bad.validate()

    def test_get_profile_by_name(self):
        assert get_profile("nvme") is NVME_SSD
        assert get_profile("hdd") is HDD_7200RPM

    def test_get_profile_unknown(self):
        with pytest.raises(ValueError):
            get_profile("tape")


class TestDiskModel:
    def test_read_time_includes_latency_and_transfer(self):
        model = DiskModel(profile=NVME_SSD)
        elapsed = model.read(0, 1024 * 1024)
        expected = NVME_SSD.read_latency_s + 1024 * 1024 / NVME_SSD.random_read_bw
        assert elapsed == pytest.approx(expected)

    def test_sequential_read_faster_than_random(self):
        model = DiskModel(profile=NVME_SSD)
        model.read(0, 1 << 20)
        sequential = model.read(1 << 20, 1 << 20)  # continues previous read
        fresh = DiskModel(profile=NVME_SSD)
        fresh.read(0, 1 << 20)
        random = fresh.read(100 << 20, 1 << 20)  # jumps elsewhere
        assert sequential < random

    def test_zero_byte_io_is_free(self):
        model = DiskModel()
        assert model.read(0, 0) == 0.0
        assert model.write(0, 0) == 0.0
        assert model.read_requests == 0

    def test_counters_accumulate(self):
        model = DiskModel()
        model.read(0, 100)
        model.write(0, 200)
        assert model.bytes_read == 100
        assert model.bytes_written == 200
        assert model.read_requests == 1
        assert model.write_requests == 1
        assert model.busy_time_s > 0

    def test_utilization_bounded(self):
        model = DiskModel()
        model.read(0, 10 << 20)
        assert 0.0 <= model.utilization(1e-9) <= 1.0
        assert model.utilization(0.0) == 0.0

    def test_reset_clears_counters(self):
        model = DiskModel()
        model.read(0, 1 << 20)
        model.reset()
        assert model.bytes_read == 0
        assert model.busy_time_s == 0.0
