"""Saving and loading fitted estimators as plain JSON.

The serving path (``m3 train --save-model`` → ``m3 predict --model`` /
``m3 serve``) needs fitted models to survive a process boundary.  Every
estimator in :mod:`repro.ml` — the predictors and the ``PCA`` /
preprocessing transformers alike — is fully described by its constructor
parameters
(:meth:`~repro.ml.base.BaseEstimator.get_params`) plus its fitted attributes
(public names ending in ``_`` holding arrays or scalars), so models round-trip
through a small JSON document — no pickle, no code execution on load, and the
files are diffable and portable across machines.

Derived attributes that are not plain data (``result_``, cached objective
templates, streaming state) are recomputable from training and are *not*
persisted; a loaded model predicts identically but does not carry its
optimiser telemetry.  The exception is ``MiniBatchKMeans``, whose whole
streaming state is two fitted attributes (``cluster_centers_``, ``counts_``):
a loaded model's next ``partial_fit`` continues exactly where the saved one
stopped.  The other streaming estimators start over on ``partial_fit`` after
a load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Type, Union

import numpy as np

from repro.durable import durable_replace

FORMAT_NAME = "m3-model"
FORMAT_VERSION = 1


def _model_registry() -> Dict[str, Type]:
    """Estimator classes a saved model may name, keyed by class name.

    Imported lazily so ``persistence`` stays importable from ``repro.ml``'s
    own ``__init__`` without cycles.
    """
    from repro.ml.cluster.kmeans import KMeans
    from repro.ml.cluster.minibatch_kmeans import MiniBatchKMeans
    from repro.ml.linear_model.linear_regression import LinearRegression
    from repro.ml.linear_model.logistic_regression import LogisticRegression
    from repro.ml.linear_model.softmax_regression import SoftmaxRegression
    from repro.ml.naive_bayes import GaussianNaiveBayes
    from repro.ml.pca import PCA
    from repro.ml.preprocessing import MinMaxScaler, StandardScaler

    return {
        cls.__name__: cls
        for cls in (
            LogisticRegression,
            SoftmaxRegression,
            LinearRegression,
            KMeans,
            MiniBatchKMeans,
            GaussianNaiveBayes,
            PCA,
            StandardScaler,
            MinMaxScaler,
        )
    }


def _encode_value(value: Any) -> Any:
    """JSON-encode one parameter or fitted attribute; None for unsupported."""
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": value.tolist(),
            "dtype": value.dtype.str,
            "shape": list(value.shape),
        }
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (tuple, list)):
        # Sequence parameters (e.g. MinMaxScaler's feature_range) round-trip
        # element-wise; tuples are tagged so load restores the exact type a
        # constructor expects.  One unencodable element skips the whole value.
        items = [_encode_value(item) for item in value]
        if any(isinstance(item, dict) and "__skipped__" in item for item in items):
            return {"__skipped__": type(value).__name__}
        return {"__tuple__": items} if isinstance(value, tuple) else items
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return {"__skipped__": type(value).__name__}


def _is_fitted_attribute(key: str) -> bool:
    """Whether ``key`` names a public fitted attribute (``coef_`` style)."""
    return key.endswith("_") and not key.startswith("_")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__ndarray__" in value:
        array = np.array(value["__ndarray__"], dtype=np.dtype(value["dtype"]))
        return array.reshape([int(n) for n in value["shape"]])
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_decode_value(item) for item in value["__tuple__"])
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def save_model(path: Union[str, Path], model: Any) -> Path:
    """Write ``model`` (params + fitted attributes) to ``path`` as JSON.

    Non-data attributes (optimisation results, cached objectives) are
    recorded by name under ``"skipped"`` but their values are dropped.
    The JSON goes to a same-directory tmp file first and replaces ``path``
    through :func:`~repro.durable.durable_replace`, so a save cut short
    leaves the previous model loadable (``m3 traind --save-model`` rewrites
    one path on every publish).
    """
    params: Dict[str, Any] = {}
    skipped = []
    for key, value in model.get_params().items():
        encoded = _encode_value(value)
        if isinstance(encoded, dict) and "__skipped__" in encoded:
            # An unencodable constructor param (e.g. a callback): omit it so
            # the loaded model falls back to the constructor default, and
            # record the omission instead of smuggling a marker dict through.
            skipped.append(key)
        else:
            params[key] = encoded
    attributes: Dict[str, Any] = {}
    for key, value in vars(model).items():
        if not _is_fitted_attribute(key):
            continue
        encoded = _encode_value(value)
        if isinstance(encoded, dict) and "__skipped__" in encoded:
            skipped.append(key)
        else:
            attributes[key] = encoded
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "class": type(model).__name__,
        "params": params,
        "attributes": attributes,
        "skipped": sorted(skipped),
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    durable_replace(tmp, path)
    return path


def load_model(path: Union[str, Path]) -> Any:
    """Rebuild the estimator saved at ``path`` by :func:`save_model`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise ValueError(f"{path} is not a saved {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported {FORMAT_NAME} version {payload.get('version')!r}"
        )
    registry = _model_registry()
    class_name = payload.get("class")
    if class_name not in registry:
        known = ", ".join(sorted(registry))
        raise ValueError(
            f"saved model class {class_name!r} is not a known estimator "
            f"(known: {known})"
        )
    params_payload = payload.get("params")
    attributes_payload = payload.get("attributes")
    if not isinstance(params_payload, dict) or not isinstance(attributes_payload, dict):
        raise ValueError(f"{path} is missing its params/attributes sections")
    params = {key: _decode_value(value) for key, value in params_payload.items()}
    model = registry[class_name](**params)
    for key, value in attributes_payload.items():
        # Only fitted-attribute names may be set: a hand-edited file must not
        # be able to shadow methods or private state on the loaded estimator.
        if not _is_fitted_attribute(key):
            raise ValueError(f"invalid fitted attribute name {key!r} in {path}")
        setattr(model, key, _decode_value(value))
    return model
