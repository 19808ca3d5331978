"""Dataset substrate.

The M3 paper evaluates on *Infimnist*, "an infinite supply of digit images
(0–9) derived from the well-known MNIST dataset using pseudo-random
deformations and translations", materialised as a dense matrix of up to
32 million 784-feature rows (190 GB).  We do not have the Infimnist tool or
the MNIST source images offline, so this package procedurally renders digit
glyphs and applies deterministic pseudo-random translations, elastic-style
deformations and noise — preserving what the experiments need: an arbitrarily
large, dense, learnable matrix of 28×28 grayscale digit images.

The package also provides the on-disk formats (a raw dense binary matrix
format suitable for memory mapping), synthetic Gaussian-blob generators used
by unit tests, and chunked out-of-core writers.
"""

from repro.data.digits import DIGIT_TEMPLATES, render_digit
from repro.data.deformations import DeformationParams, deform_image
from repro.data.infimnist import InfimnistGenerator, NUM_FEATURES
from repro.data.formats import (
    BinaryMatrixHeader,
    create_binary_matrix,
    open_binary_matrix,
    read_binary_matrix_header,
    write_binary_matrix,
)
from repro.data.synthetic import make_blobs, make_classification, make_low_rank_matrix
from repro.data.writers import OutOfCoreWriter, write_infimnist_dataset

__all__ = [
    "DIGIT_TEMPLATES",
    "render_digit",
    "DeformationParams",
    "deform_image",
    "InfimnistGenerator",
    "NUM_FEATURES",
    "BinaryMatrixHeader",
    "create_binary_matrix",
    "open_binary_matrix",
    "read_binary_matrix_header",
    "write_binary_matrix",
    "make_blobs",
    "make_classification",
    "make_low_rank_matrix",
    "OutOfCoreWriter",
    "write_infimnist_dataset",
]
