"""repro — a reproduction of *M3: Scaling Up Machine Learning via Memory Mapping*.

M3 (Fang & Chau, SIGMOD 2016) shows that memory-mapping a dataset lets
unmodified machine learning code scale to datasets that exceed RAM, at speeds
competitive with small Spark clusters.  This package reproduces the system and
its evaluation:

* :mod:`repro.api` — the unified API: a :class:`~repro.api.Session` resolving
  URI-style dataset specs (``mmap://file.m3``, ``shard://dir/``,
  ``memory://name``) to pluggable storage backends, handing out
  :class:`~repro.api.Dataset` handles, and dispatching ``session.fit`` to
  execution engines (``local``, ``streaming``).
* :mod:`repro.core` — the original M3 primitives (memory-mapped matrices,
  ``mmap_alloc``, access advice).
* :mod:`repro.ml` — the machine learning library being scaled (L-BFGS logistic
  regression, k-means, and friends), written against the plain row-slicing
  protocol so in-memory, memory-mapped and sharded data are interchangeable.
* :mod:`repro.vmem` — a virtual-memory / page-cache simulator substituting for
  the paper's 32 GB desktop and PCIe SSD; it replays the access trace any
  engine records.
* :mod:`repro.distributed` — the paper's Spark baseline as a paper-scale EC2
  cluster cost model, substituting for the paper's EMR clusters.
* :mod:`repro.data` — an Infimnist-style infinite digit-image generator and
  the on-disk formats.
* :mod:`repro.bench` — the harness behind ``m3 reproduce``: Figure 1a, the
  utilisation finding, Figure 1b and Table 1 regenerated once and checked
  against the paper as the named claims of ``REPRODUCTION.md``.
* :mod:`repro.profiling` — the ``/proc/self/io`` + CPU-time sampler for real
  runs.

Table 1's one-line change
-------------------------

.. code-block:: python

    from repro import LogisticRegression, Session

    with Session() as session:
        X, y = session.open("mmap://d.m3").arrays()              # the changed line
        model = LogisticRegression(max_iterations=10).fit(X, y)  # unchanged

``session.create("mmap://d.m3", X, y)`` writes such a file
(``"shard://dir/"`` shards the matrix across files);
``session.open(spec, record_trace=True).trace`` records one handle's access
pattern, which ``repro.vmem.VirtualMemorySimulator(config).run_trace(trace)``
replays at paper scale; ``session.fit(model, ds, engine="local" |
"streaming")`` picks an execution engine; ``session.info(spec)`` (CLI
``m3 info``) describes a dataset without loading it.
"""

from repro import api, bench, core, data, distributed, ml, profiling, vmem
from repro.api import Dataset, FitResult, Session
from repro.core import MmapMatrix, mmap_alloc
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
    "MmapMatrix",
    "mmap_alloc",
    "LogisticRegression",
    "SoftmaxRegression",
    "KMeans",
]
