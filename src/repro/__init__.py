"""repro — a reproduction of *M3: Scaling Up Machine Learning via Memory Mapping*.

M3 (Fang & Chau, SIGMOD 2016) shows that memory-mapping a dataset lets
unmodified machine learning code scale to datasets that exceed RAM, at speeds
competitive with small Spark clusters.  This package reproduces the system and
its evaluation:

* :mod:`repro.api` — the unified API: a :class:`~repro.api.Session` resolving
  URI-style dataset specs (``mmap://file.m3``, ``shard://dir/``,
  ``memory://name``) to pluggable storage backends, handing out
  :class:`~repro.api.Dataset` handles, and dispatching ``session.fit`` to
  execution engines (``local``, ``simulated``, ``streaming``).
* :mod:`repro.core` — the original M3 primitives (memory-mapped matrices,
  ``mmap_alloc``, access advice) plus Table 1's ``open_dataset`` helpers,
  plain functions over the unified API.
* :mod:`repro.ml` — the machine learning library being scaled (L-BFGS logistic
  regression, k-means, and friends), written against the plain row-slicing
  protocol so in-memory, memory-mapped and sharded data are interchangeable.
* :mod:`repro.vmem` — a virtual-memory / page-cache simulator substituting for
  the paper's 32 GB desktop and PCIe SSD.
* :mod:`repro.distributed` — the paper's Spark baseline as a paper-scale EC2
  cluster cost model, substituting for the paper's EMR clusters.
* :mod:`repro.data` — an Infimnist-style infinite digit-image generator and
  the on-disk formats.
* :mod:`repro.bench` — the harness behind ``m3 reproduce``: Figure 1a, the
  utilisation finding, Figure 1b and Table 1 regenerated once and checked
  against the paper as the named claims of ``REPRODUCTION.md``.
* :mod:`repro.profiling` — the ``/proc/self/io`` + CPU-time sampler for real
  runs.

From Table 1's helpers to the unified API
-----------------------------------------

==============================================  ==============================================
Helper (a plain function over a Session)        Session
==============================================  ==============================================
``X, y = m3.open_dataset("d.m3")``              ``ds = session.open("mmap://d.m3")`` then
                                                ``X, y = ds.arrays()``
``m3.create_dataset("d.m3", X, y)``             ``session.create("mmap://d.m3", X, y)``
``m3.open_dataset("d.m3", record_trace=True)``  ``session.open(spec, record_trace=True)`` +
then ``X.trace``                                ``ds.trace`` (per handle, thread safe)
``model.fit(X, y)`` by hand                     ``session.fit(model, ds)`` — pick the engine
                                                with ``engine="local" | "simulated" |
                                                "streaming"``
(no equivalent)                                 ``session.info(spec)`` / CLI ``m3 info``
(no equivalent)                                 ``session.create("shard://dir/", X, y)`` —
                                                matrix sharded across multiple files
==============================================  ==============================================
"""

from repro import api, bench, core, data, distributed, ml, profiling, vmem
from repro.api import Dataset, FitResult, Session
from repro.core import (
    M3Config,
    MmapMatrix,
    create_dataset,
    load_matrix,
    mmap_alloc,
    open_dataset,
)
from repro.ml import KMeans, LogisticRegression, SoftmaxRegression

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "api",
    "core",
    "ml",
    "vmem",
    "distributed",
    "data",
    "profiling",
    "bench",
    "Session",
    "Dataset",
    "FitResult",
    "M3Config",
    "MmapMatrix",
    "mmap_alloc",
    "create_dataset",
    "open_dataset",
    "load_matrix",
    "LogisticRegression",
    "SoftmaxRegression",
    "KMeans",
]
