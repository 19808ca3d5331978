"""An Infimnist-style infinite digit image generator.

The paper's dataset is Infimnist: "an infinite supply of digit images (0–9)
derived from the well-known MNIST dataset using pseudo-random deformations and
translations.  Each image is 28×28 pixel grayscale image (784 features; each
image is 6272 bytes)".  6272 bytes per image corresponds to 784 features
stored as 8-byte doubles — i.e. the authors materialised a dense ``float64``
matrix, which is also what we generate.

:class:`InfimnistGenerator` is *indexable*: example ``i`` is produced by
seeding a pseudo-random generator with ``hash(seed, i)`` and deforming the
canonical glyph of digit ``i % 10``.  The same index always produces the same
image, so any prefix (or any slice) of the infinite stream is well defined
without storing anything — which is how the 10 GB…190 GB subsets of the
paper's 32 M-image dataset are all "subsets of the full 32M images".
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.data.deformations import DeformationParams, deform_image
from repro.data.digits import IMAGE_SIZE, render_digit

NUM_FEATURES = IMAGE_SIZE * IMAGE_SIZE
"""Number of features per image (784, as in MNIST/Infimnist)."""

BYTES_PER_IMAGE = NUM_FEATURES * 8
"""Bytes per image as a dense float64 row (6272, matching the paper)."""


class InfimnistGenerator:
    """Deterministic, indexable generator of deformed digit images.

    Parameters
    ----------
    seed:
        Master seed.  Two generators with the same seed produce identical
        streams.
    params:
        Deformation strengths; see :class:`~repro.data.deformations.DeformationParams`.
    dtype:
        Output dtype of feature vectors (default ``float64`` to match the
        paper's 6272 bytes/image).

    Examples
    --------
    >>> gen = InfimnistGenerator(seed=7)
    >>> x, y = gen.example(123)
    >>> x.shape
    (784,)
    >>> int(y)
    3
    """

    def __init__(
        self,
        seed: int = 0,
        params: Optional[DeformationParams] = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.seed = int(seed)
        self.params = params or DeformationParams()
        self.dtype = np.dtype(dtype)

    # -- single examples -------------------------------------------------------

    def label(self, index: int) -> int:
        """Digit label of example ``index`` (the class cycles 0–9)."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        return index % 10

    def image(self, index: int) -> np.ndarray:
        """28×28 image for example ``index``, values in [0, 1]."""
        digit = self.label(index)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index]))
        return deform_image(render_digit(digit), rng, self.params).astype(self.dtype)

    def example(self, index: int) -> Tuple[np.ndarray, int]:
        """Return ``(features, label)`` for example ``index``.

        Features are the flattened 784-vector of the image.
        """
        return self.image(index).reshape(-1), self.label(index)

    # -- batches ---------------------------------------------------------------

    def batch(self, start: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Generate ``count`` consecutive examples starting at ``start``.

        Returns
        -------
        (features, labels):
            ``features`` has shape ``(count, 784)`` and ``labels`` shape
            ``(count,)`` with integer classes 0–9.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        features = np.empty((count, NUM_FEATURES), dtype=self.dtype)
        labels = np.empty(count, dtype=np.int64)
        for row, index in enumerate(range(start, start + count)):
            x, y = self.example(index)
            features[row] = x
            labels[row] = y
        return features, labels

    def iter_batches(
        self, num_examples: int, batch_size: int, start: int = 0
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(features, labels)`` batches covering ``num_examples`` rows."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        produced = 0
        while produced < num_examples:
            count = min(batch_size, num_examples - produced)
            yield self.batch(start + produced, count)
            produced += count

    # -- size helpers ----------------------------------------------------------

    @staticmethod
    def bytes_for_examples(num_examples: int) -> int:
        """On-disk size of ``num_examples`` dense float64 rows (paper's metric)."""
        return num_examples * BYTES_PER_IMAGE

    @staticmethod
    def examples_for_bytes(num_bytes: int) -> int:
        """Number of whole examples that fit in ``num_bytes``."""
        return num_bytes // BYTES_PER_IMAGE
