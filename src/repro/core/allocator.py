"""``mmap_alloc`` — the Python analogue of the paper's ``mmapAlloc`` helper.

Table 1 of the paper shows the entire code change M3 requires::

    Original                         M3
    --------                         --
    Mat data;                        double *m = mmapAlloc(file, rows * cols);
                                     Mat data(m, rows, cols);

``mmap_alloc`` plays the role of ``mmapAlloc``: given a file path and a shape
it returns a NumPy array *view* over a file-backed mapping.  If the file does
not exist (or is too small) it is created/extended to the required size, so
the same call serves both "allocate a huge scratch matrix on disk" and "map an
existing dataset".
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple, Union

import numpy as np

ShapeLike = Union[int, Tuple[int, ...]]


def _normalise_shape(shape: ShapeLike) -> Tuple[int, ...]:
    if isinstance(shape, int):
        shape = (shape,)
    shape = tuple(int(dim) for dim in shape)
    if not shape:
        raise ValueError("shape must have at least one dimension")
    if any(dim <= 0 for dim in shape):
        raise ValueError(f"all dimensions must be positive, got {shape}")
    return shape


def mmap_alloc(
    path: Union[str, Path],
    shape: ShapeLike,
    dtype: Union[str, np.dtype] = np.float64,
    mode: str = "r+",
    offset: int = 0,
) -> np.memmap:
    """Map ``path`` into memory and return an array view of the given shape.

    Parameters
    ----------
    path:
        Backing file.  Created (sparse) or grown if needed when ``mode`` is a
        writable mode; must already exist for read-only mode.
    shape:
        Array shape, e.g. ``(rows, cols)``.
    dtype:
        Element dtype (default float64, matching the paper's dense doubles).
    mode:
        ``"r"``, ``"r+"``, ``"w+"`` or ``"c"`` as accepted by ``numpy.memmap``.
        The default ``"r+"`` creates the file if missing and maps it
        read-write.
    offset:
        Byte offset of the array within the file (used by the binary format's
        header).

    Returns
    -------
    numpy.memmap
        A file-backed array of the requested shape and dtype.
    """
    path = Path(path)
    shape = _normalise_shape(shape)
    dtype = np.dtype(dtype)
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    required = offset + int(np.prod(shape)) * dtype.itemsize

    if mode in ("r", "c"):
        if not path.exists():
            raise FileNotFoundError(f"{path} does not exist (mode {mode!r} cannot create it)")
        actual = path.stat().st_size
        if actual < required:
            raise ValueError(
                f"{path} is {actual} bytes but shape {shape} needs {required} bytes"
            )
    else:
        # Writable modes: create or extend the backing file (sparse where the
        # filesystem allows, so this is cheap even for very large shapes).
        if mode == "w+" or not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("wb") as handle:
                handle.truncate(required)
            mode = "r+"
        elif path.stat().st_size < required:
            with path.open("r+b") as handle:
                handle.truncate(required)

    return np.memmap(path, dtype=dtype, mode=mode, offset=offset, shape=shape, order="C")
