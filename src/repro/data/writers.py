"""The out-of-core Infimnist writer.

The paper materialised up to 190 GB of dense Infimnist data on disk.  Writing
such a dataset must itself be out-of-core: :func:`write_infimnist_dataset`
generates rows from an :class:`~repro.data.infimnist.InfimnistGenerator`
``WRITE_CHUNK_ROWS`` at a time and streams them into the one raw shard of an
``mmap://`` dataset (:func:`repro.api.sharded.write_streamed_dataset`),
never holding more than one chunk of rows in memory.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.data.infimnist import BYTES_PER_IMAGE, InfimnistGenerator, NUM_FEATURES

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.api.sharded import ShardManifest

#: Rows :func:`write_infimnist_dataset` generates and writes per step; it
#: bounds the writer's memory and does not change the bytes written.
WRITE_CHUNK_ROWS = 1024


def write_infimnist_dataset(
    path: Union[str, Path],
    num_examples: Optional[int] = None,
    target_bytes: Optional[int] = None,
    seed: int = 0,
) -> "ShardManifest":
    """Materialise an Infimnist-style dataset at ``path`` as ``mmap://`` stores
    it: a directory holding one raw, checksummed v2 shard.

    Exactly one of ``num_examples`` or ``target_bytes`` must be given; with
    ``target_bytes`` the number of examples is chosen so the data section is as
    close to the target as possible without exceeding it (mirroring how the
    paper's "10 GB … 190 GB" subsets are defined).

    Returns the written dataset's :class:`~repro.api.sharded.ShardManifest`.
    """
    # The manifest belongs to the dataset layer above this package.
    from repro.api.sharded import write_streamed_dataset

    if (num_examples is None) == (target_bytes is None):
        raise ValueError("specify exactly one of num_examples or target_bytes")
    if target_bytes is not None:
        num_examples = max(1, target_bytes // BYTES_PER_IMAGE)
    assert num_examples is not None
    if num_examples <= 0:
        raise ValueError(f"num_examples must be positive, got {num_examples}")

    batches = InfimnistGenerator(seed=seed).iter_batches(num_examples, WRITE_CHUNK_ROWS)
    bands = (
        (start, features, labels)
        for start, (features, labels) in zip(range(0, num_examples, WRITE_CHUNK_ROWS), batches)
    )
    return write_streamed_dataset(
        path, bands, NUM_FEATURES, np.float64, has_labels=True, shard_rows=num_examples
    )
