"""``repro.net`` — the network serving front end.

Puts a wire on :class:`~repro.serve.server.ModelServer`:

* :class:`NetServer` — an asyncio TCP listener speaking newline-delimited
  JSON, raw-row frames (rows as the array's own bytes) and minimal
  HTTP/1.1 POST (sniffed per frame, on one port), with keep-alive
  connections, per-connection backpressure, typed wire errors (HTTP 429
  for saturation), and graceful drain on ``close()``/SIGTERM.
* :class:`NetClient` — the keep-alive client (raw-row frames where the
  server offers them, JSON lines otherwise; or HTTP round trips) used by
  tests, benchmarks and ``m3 predict --connect``: a synchronous call with
  nothing in flight reads its own answer on the calling thread, and
  pipelined ``submit`` futures are resolved by a reader thread that runs
  only while they are pending.
* :class:`AdaptiveDelayController` — learns ``max_delay_ms`` from the
  observed arrival rate (EWMA inter-arrival estimate, clamped to a
  ceiling, exactly zero at low load) so open-loop bursts coalesce into
  full micro-batches without taxing idle traffic.
* :mod:`repro.net.protocol` — the shared request/response codec.

:class:`NetServer` holds the only request loop there is: ``m3 served``
exposes its listener, and ``m3 serve`` is its stdio transport — stdin and
stdout pumped through one loopback connection of the same stack.
"""

from repro.net.client import NetClient, NetResult
from repro.net.controller import AdaptiveDelayController
from repro.net.protocol import ProtocolError, RemoteError
from repro.net.server import NetServer, NetStats

__all__ = [
    "AdaptiveDelayController",
    "NetClient",
    "NetResult",
    "NetServer",
    "NetStats",
    "ProtocolError",
    "RemoteError",
]
