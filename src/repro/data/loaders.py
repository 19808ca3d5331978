"""Text-format loaders and savers (CSV and libsvm).

Spark reads its training data from text files on HDFS (the paper stored the
datasets "on the cluster's HDFS"); mlpack reads CSV.  These helpers read and
write both formats, so data can move between those tools and the binary M3
format.  They are intentionally simple, dependency-free implementations —
large data should use the binary format in :mod:`repro.data.formats`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np


def save_csv_matrix(
    path: Union[str, Path],
    data: np.ndarray,
    labels: Optional[np.ndarray] = None,
    delimiter: str = ",",
) -> None:
    """Write ``data`` (and optional ``labels`` as the first column) to CSV."""
    path = Path(path)
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    if labels is not None:
        labels = np.asarray(labels).reshape(-1, 1)
        if labels.shape[0] != data.shape[0]:
            raise ValueError("labels length must match number of rows")
        data = np.hstack([labels, data])
    np.savetxt(path, data, delimiter=delimiter, fmt="%.10g")


def load_csv_matrix(
    path: Union[str, Path],
    labels_in_first_column: bool = False,
    delimiter: str = ",",
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Load a CSV matrix; optionally split off a label column.

    Returns ``(data, labels)`` where ``labels`` is ``None`` unless
    ``labels_in_first_column`` is true.
    """
    path = Path(path)
    raw = np.loadtxt(path, delimiter=delimiter, ndmin=2)
    if labels_in_first_column:
        if raw.shape[1] < 2:
            raise ValueError("CSV must have at least two columns to hold labels + features")
        return raw[:, 1:], raw[:, 0].astype(np.int64)
    return raw, None


def save_libsvm(
    path: Union[str, Path],
    data: np.ndarray,
    labels: np.ndarray,
) -> None:
    """Write a dense matrix in libsvm/svmlight sparse text format.

    Zero entries are omitted, feature indices are 1-based — the convention
    Spark MLlib's ``loadLibSVMFile`` expects.
    """
    path = Path(path)
    data = np.asarray(data)
    labels = np.asarray(labels)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    if labels.shape[0] != data.shape[0]:
        raise ValueError("labels length must match number of rows")
    with path.open("w", encoding="ascii") as handle:
        for row, label in zip(data, labels):
            parts = [f"{label:g}"]
            nonzero = np.nonzero(row)[0]
            parts.extend(f"{j + 1}:{row[j]:.10g}" for j in nonzero)
            handle.write(" ".join(parts) + "\n")


def load_libsvm(
    path: Union[str, Path],
    num_features: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Load a libsvm/svmlight file into a dense ``(data, labels)`` pair.

    Parameters
    ----------
    path:
        The libsvm text file.
    num_features:
        Total number of features.  If omitted it is inferred from the largest
        feature index present in the file.
    """
    path = Path(path)
    rows = []
    labels = []
    max_index = 0
    with path.open("r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            labels.append(float(parts[0]))
            entries = []
            for token in parts[1:]:
                index_str, value_str = token.split(":", 1)
                index = int(index_str)
                max_index = max(max_index, index)
                entries.append((index, float(value_str)))
            rows.append(entries)
    if num_features is None:
        num_features = max_index
    data = np.zeros((len(rows), num_features), dtype=np.float64)
    for i, entries in enumerate(rows):
        for index, value in entries:
            if index < 1 or index > num_features:
                raise ValueError(
                    f"feature index {index} out of range 1..{num_features} on row {i}"
                )
            data[i, index - 1] = value
    return data, np.asarray(labels)
