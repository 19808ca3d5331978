"""M3 core: transparent out-of-core machine learning via memory mapping.

This package is the paper's primary contribution.  Its public surface is
deliberately tiny, mirroring Table 1 of the paper where switching from an
in-memory matrix to M3 requires one changed line:

.. code-block:: python

    # Original (in memory)                  # M3 (memory mapped)
    X = np.load("small.npy")                X, y = session.open("mmap://huge.m3").arrays()
    model = LogisticRegression().fit(X, y)  # unchanged

Key pieces:

* :func:`~repro.core.allocator.mmap_alloc` — the Python analogue of the
  paper's ``mmapAlloc`` helper: create or open a file-backed buffer and hand
  back an array view of it (``MmapMatrix(mmap_alloc(path, shape, mode="r"))``
  maps any headerless file of the right size).
* :class:`~repro.core.mmap_matrix.MmapMatrix` — a matrix wrapper around
  ``numpy.memmap`` that supports the row-slicing protocol estimators use,
  optionally records its access pattern into an
  :class:`~repro.vmem.trace.AccessTrace`, and accepts access *advice*.

Datasets are opened through :class:`repro.api.Session`, which adds pluggable
storage backends (``mmap``, ``shard``, ``memory``), execution engines and
per-handle traces.
"""

from repro.core.advice import AccessAdvice
from repro.core.allocator import mmap_alloc
from repro.core.mmap_matrix import MmapMatrix

__all__ = [
    "AccessAdvice",
    "mmap_alloc",
    "MmapMatrix",
]
