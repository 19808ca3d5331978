"""Resource accounting for real runs.

:class:`ResourceMonitor` samples process CPU time and the ``/proc/self/io``
byte counters around a workload — the instrument a *measured* version of the
paper's "disk 100 % / CPU 13 %" observation needs.  (The modelled version is
:attr:`repro.bench.m3_model.M3RunEstimate.io_bound`.)
"""

from repro.profiling.resources import ResourceMonitor, ResourceSnapshot, ResourceUsage

__all__ = ["ResourceMonitor", "ResourceSnapshot", "ResourceUsage"]
