"""Request-level serving: hot-model registry plus a micro-batching server.

The scan-level API (:meth:`repro.api.Session.predict`) walks whole datasets;
this package serves **requests** — single rows or small batches arriving
concurrently from many clients, the "heavy traffic from millions of users"
regime.  The pieces:

* :class:`ModelRegistry` — named, versioned hot models (live estimators or
  ``m3 train --save-model`` JSON files), swapped atomically under load;
* :class:`ModelServer` — the long-lived daemon: a bounded request queue with
  backpressure, one dispatcher thread that coalesces concurrent requests
  into chunk-sized micro-batches, and per-request latency accounting
  (queue-wait / batch / compute);
* :class:`Serving` — a server bound to one published model, returned by
  :meth:`repro.api.Session.serve`;
* :class:`Trainer` — the train side of the live loop: tails an appendable
  ``shard://`` dataset's committed generations, reads the delta rows on its
  polling thread (no reader thread; each coded block decoded once), runs
  ``partial_fit`` on them chunk by chunk, and publishes refreshed versions
  into the *same* registry the server resolves from (the ``m3 traind``
  daemon);
* :class:`ServeResult` / :class:`ServeStats` — the request-level siblings of
  :class:`~repro.api.engines.PredictResult` and its pipeline accounting.

Each coalesced batch is computed by :func:`repro.serve.server.serve_batch` —
the :class:`~repro.ml.base.StreamingPredictor` per-chunk path — so every
served prediction is bit-identical to the in-core ``model.predict`` row.

.. code-block:: python

    from repro.api import Session
    from repro.ml import LogisticRegression

    with Session() as session:
        model = LogisticRegression().fit(X, y)
        with session.serve(model, max_batch=256, max_delay_ms=2) as serving:
            result = serving.predict_one(X[0])
            print(result.prediction, result.model_key, result.queue_wait_s)
            serving.swap("retrained.json")   # atomic hot-swap under load
            print(serving.stats().as_dict())

The wire is :mod:`repro.net`: ``m3 served --model model.json`` puts a
:class:`~repro.net.NetServer` listener on this server, and ``m3 serve`` is
that front end's stdio transport (requests on stdin, responses on stdout).
"""

from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.server import (
    DEFAULT_MODEL_NAME,
    ModelServer,
    ServeError,
    ServeResult,
    ServeStats,
    ServerClosed,
    ServerSaturated,
    Serving,
)
from repro.serve.trainer import Trainer, TrainerStats, TrainUpdate

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "ModelServer",
    "Serving",
    "ServeError",
    "ServeResult",
    "ServeStats",
    "ServerClosed",
    "ServerSaturated",
    "DEFAULT_MODEL_NAME",
    "Trainer",
    "TrainerStats",
    "TrainUpdate",
]
