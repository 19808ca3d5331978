"""M3 core: transparent out-of-core machine learning via memory mapping.

This package is the paper's primary contribution.  Its public surface is
deliberately tiny, mirroring Table 1 of the paper where switching from an
in-memory matrix to M3 requires one changed line and one helper call:

.. code-block:: python

    # Original (in memory)                 # M3 (memory mapped)
    data = np.load("small.npy")            data = m3.load_matrix("huge.m3")
    model = LogisticRegression().fit(data, y)   # unchanged

Key pieces:

* :func:`~repro.core.allocator.mmap_alloc` — the Python analogue of the
  paper's ``mmapAlloc`` helper: create or open a file-backed buffer and hand
  back an array view of it.
* :class:`~repro.core.mmap_matrix.MmapMatrix` — a matrix wrapper around
  ``numpy.memmap`` that supports the row-slicing protocol estimators use,
  optionally records its access pattern into an
  :class:`~repro.vmem.trace.AccessTrace`, and accepts access *advice*.
* :func:`~repro.core.m3.open_dataset` / :func:`~repro.core.m3.create_dataset`
  / :func:`~repro.core.m3.load_matrix` — Table 1's helpers: plain functions
  over :class:`repro.api.Session`, which adds pluggable storage backends
  (``mmap``, ``shard``, ``memory``), execution engines and per-handle traces.
* :mod:`~repro.core.chunking` — chunk iterators and planners.
"""

from repro.core.config import M3Config
from repro.core.advice import AccessAdvice
from repro.core.allocator import mmap_alloc, mmap_free
from repro.core.mmap_matrix import MmapMatrix
from repro.core.chunking import ChunkPlan, iter_chunks, plan_chunks
from repro.core.m3 import create_dataset, load_matrix, open_dataset

__all__ = [
    "M3Config",
    "AccessAdvice",
    "mmap_alloc",
    "mmap_free",
    "MmapMatrix",
    "ChunkPlan",
    "iter_chunks",
    "plan_chunks",
    "create_dataset",
    "open_dataset",
    "load_matrix",
]
