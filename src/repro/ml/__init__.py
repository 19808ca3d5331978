"""An mlpack-style machine learning library, written to be mapping-agnostic.

The paper's claim is that *existing* machine learning implementations work
unchanged on memory-mapped data.  To demonstrate that, every estimator in this
package is written against the plain NumPy slicing protocol: it only ever asks
its input matrix for contiguous row chunks (``X[start:stop]``) and never cares
whether the object is an in-memory ``ndarray``, a ``numpy.memmap`` or an M3
:class:`~repro.core.mmap_matrix.MmapMatrix`.  The test suite asserts that the
fitted models are bit-for-bit identical across all three.

Contents:

* :mod:`repro.ml.optim` — L-BFGS (the optimiser used in the paper) and its
  strong-Wolfe line search.
* :mod:`repro.ml.linear_model` — binary logistic regression, multinomial
  (softmax) regression, and linear regression.
* :mod:`repro.ml.cluster` — Lloyd's k-means, mini-batch k-means, k-means++.
* :mod:`repro.ml.naive_bayes`, :mod:`repro.ml.pca` — additional algorithms for
  the paper's "wide range of machine learning" ongoing-work direction.
* :mod:`repro.ml.metrics`, :mod:`repro.ml.preprocessing` — evaluation metrics
  and chunk-aware feature scaling.
"""

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    ClustererMixin,
    NotResumableError,
    StreamingEstimator,
    StreamingPredictor,
    TransformerMixin,
)
from repro.ml.persistence import load_model, save_model
from repro.ml.optim import LBFGS, OptimizationResult, DifferentiableObjective
from repro.ml.linear_model import LinearRegression, LogisticRegression, SoftmaxRegression
from repro.ml.cluster import KMeans, MiniBatchKMeans, kmeans_plus_plus_init
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.pca import PCA
from repro.ml import metrics, preprocessing

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "ClustererMixin",
    "NotResumableError",
    "StreamingEstimator",
    "StreamingPredictor",
    "TransformerMixin",
    "save_model",
    "load_model",
    "LBFGS",
    "OptimizationResult",
    "DifferentiableObjective",
    "LogisticRegression",
    "SoftmaxRegression",
    "LinearRegression",
    "KMeans",
    "MiniBatchKMeans",
    "kmeans_plus_plus_init",
    "GaussianNaiveBayes",
    "PCA",
    "metrics",
    "preprocessing",
]
