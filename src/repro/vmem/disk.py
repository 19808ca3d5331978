"""Disk performance model.

The M3 experiments used an OCZ RevoDrive 350 (a PCIe SSD).  The simulator
charges time for every page read from and written to the simulated device
using a simple but well-calibrated model:

* every I/O operation pays a fixed per-request latency (seek/command overhead);
* the payload pays ``bytes / sequential_bandwidth`` when the request continues
  the previous one (sequential) and ``bytes / random_bandwidth`` otherwise;
* requests can be batched (read-ahead issues one request for the whole
  window), which amortises the fixed latency — exactly the mechanism that
  makes read-ahead profitable.

The model also tracks *busy time* so that device utilisation (the paper's
"disk I/O was 100 % utilized") can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class DiskProfile:
    """Static performance characteristics of a storage device.

    Attributes
    ----------
    name:
        Human readable device name.
    read_latency_s:
        Fixed per-request read latency in seconds.
    write_latency_s:
        Fixed per-request write latency in seconds.
    sequential_read_bw:
        Sequential read bandwidth in bytes/second.
    random_read_bw:
        Random (4 KiB-ish) read bandwidth in bytes/second.
    sequential_write_bw:
        Sequential write bandwidth in bytes/second.
    random_write_bw:
        Random write bandwidth in bytes/second.
    """

    name: str
    read_latency_s: float
    write_latency_s: float
    sequential_read_bw: float
    random_read_bw: float
    sequential_write_bw: float
    random_write_bw: float

    def validate(self) -> None:
        """Raise ``ValueError`` if any parameter is non-positive."""
        for field_name in (
            "sequential_read_bw",
            "random_read_bw",
            "sequential_write_bw",
            "random_write_bw",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.read_latency_s < 0 or self.write_latency_s < 0:
            raise ValueError("latencies must be non-negative")


#: Profile approximating the OCZ RevoDrive 350 PCIe SSD used in the paper
#: (~1.8 GB/s sequential read, ~130 k IOPS random read).
NVME_SSD = DiskProfile(
    name="pcie-ssd (OCZ RevoDrive 350 class)",
    read_latency_s=60e-6,
    write_latency_s=25e-6,
    sequential_read_bw=1.8e9,
    random_read_bw=520e6,
    sequential_write_bw=1.7e9,
    random_write_bw=450e6,
)

#: A mainstream SATA SSD (~520 MB/s sequential).
SATA_SSD = DiskProfile(
    name="sata-ssd",
    read_latency_s=90e-6,
    write_latency_s=60e-6,
    sequential_read_bw=520e6,
    random_read_bw=300e6,
    sequential_write_bw=480e6,
    random_write_bw=250e6,
)

#: A 7200 RPM spinning disk (~160 MB/s sequential, slow random access).
HDD_7200RPM = DiskProfile(
    name="hdd-7200rpm",
    read_latency_s=8e-3,
    write_latency_s=9e-3,
    sequential_read_bw=160e6,
    random_read_bw=2e6,
    sequential_write_bw=150e6,
    random_write_bw=2e6,
)

_PROFILES = {
    "nvme": NVME_SSD,
    "pcie": NVME_SSD,
    "ssd": SATA_SSD,
    "sata": SATA_SSD,
    "hdd": HDD_7200RPM,
}


def get_profile(name: str) -> DiskProfile:
    """Look up a built-in :class:`DiskProfile` by name."""
    try:
        return _PROFILES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown disk profile {name!r}; choose from {sorted(set(_PROFILES))}"
        ) from None


@dataclass
class DiskModel:
    """Charges simulated time for disk I/O and tracks device busy time.

    Parameters
    ----------
    profile:
        The static device characteristics.
    """

    profile: DiskProfile = NVME_SSD

    bytes_read: int = field(default=0, init=False)
    bytes_written: int = field(default=0, init=False)
    read_requests: int = field(default=0, init=False)
    write_requests: int = field(default=0, init=False)
    busy_time_s: float = field(default=0.0, init=False)
    _last_read_end: Optional[int] = field(default=None, init=False)
    _last_write_end: Optional[int] = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.profile.validate()

    # -- time accounting ---------------------------------------------------

    def read(self, offset: int, nbytes: int) -> float:
        """Charge a read of ``nbytes`` starting at byte ``offset``.

        Returns the simulated elapsed time in seconds.
        """
        if nbytes <= 0:
            return 0.0
        sequential = self._last_read_end is not None and offset == self._last_read_end
        bandwidth = (
            self.profile.sequential_read_bw if sequential else self.profile.random_read_bw
        )
        elapsed = self.profile.read_latency_s + nbytes / bandwidth
        self._last_read_end = offset + nbytes
        self.bytes_read += nbytes
        self.read_requests += 1
        self.busy_time_s += elapsed
        return elapsed

    def write(self, offset: int, nbytes: int) -> float:
        """Charge a write of ``nbytes`` starting at byte ``offset``.

        Returns the simulated elapsed time in seconds.
        """
        if nbytes <= 0:
            return 0.0
        sequential = self._last_write_end is not None and offset == self._last_write_end
        bandwidth = (
            self.profile.sequential_write_bw if sequential else self.profile.random_write_bw
        )
        elapsed = self.profile.write_latency_s + nbytes / bandwidth
        self._last_write_end = offset + nbytes
        self.bytes_written += nbytes
        self.write_requests += 1
        self.busy_time_s += elapsed
        return elapsed

    # -- reporting -----------------------------------------------------------

    def utilization(self, wall_time_s: float) -> float:
        """Fraction of ``wall_time_s`` during which the device was busy (0–1).

        Clamped to 1.0: in the simulator I/O time is a component of wall time,
        so utilisation cannot meaningfully exceed 100 %.
        """
        if wall_time_s <= 0:
            return 0.0
        return min(1.0, self.busy_time_s / wall_time_s)

    def reset(self) -> None:
        """Zero all counters (keeps the profile)."""
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_requests = 0
        self.write_requests = 0
        self.busy_time_s = 0.0
        self._last_read_end = None
        self._last_write_end = None
