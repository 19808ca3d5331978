"""The project-wide lock-rank registry.

Every ``threading.Lock``/``RLock``/``Condition`` owned by ``src/repro``
declares a **rank** here.  The discipline is the classical lock-ordering
rule: a thread may only acquire a lock whose rank is *strictly greater*
than every rank it already holds.  Because all threads agree on one total
order, no cycle of lock waits — and therefore no deadlock — can form.

The registry is consumed twice:

* **Statically** by rule R001 of :mod:`repro.analysis.rules`: every lock
  attribute in the tree must have an entry (keyed by its dotted
  ``module.Class.attr`` name), and nested ``with`` acquisitions must follow
  rank order.
* **At runtime** by :class:`repro.analysis.runtime.OrderedLock` (enabled
  with ``REPRO_ANALYSIS=1``): the rank check runs on every acquisition,
  against the acquiring thread's actual held-lock stack.

Ranks only need to be ordered, not dense — leave gaps so new locks can
slot in between existing ones without renumbering.

Current order (outermost first; renumbered in one commit when the
network-serving locks landed, per the ROADMAP's standing instruction)::

    rank  30   NetClient._lock                    client sends + pending queue + sync round trip
    rank  40   ModelServer._cond                  serving queue + dispatcher wakeup
    rank  60   Trainer._lock                      train->publish daemon state
    rank  70   Session._lock                      dataset list + backend cache
    rank  80   ModelRegistry._lock                hot-model publish/resolve
    rank  90   ShardAppender._lock                tail-shard write + generation commit
    rank 140   _BlockCache._lock                  decoded-block LRU (innermost)

The recorded nesting that motivates the order: the dispatcher thread
resolves models (``ModelRegistry._lock``, 80) while *not* holding
``ModelServer._cond`` (40).  The trainer daemon holds ``Trainer._lock`` (60) while opening snapshot
datasets (``Session._lock``, 70) and publishing refreshed versions
(``ModelRegistry._lock``, 80), so it must rank above the server condition
but below both; the shard appender (90) is a near-leaf write lock that
callers already holding session or registry locks may enter, but which
never re-enters the session layer.
The network front end holds no lock: ``NetServer``'s connections and
counters are confined to its event-loop thread.  The adaptive delay
controller holds none either: ``ModelServer`` records arrivals and reads the
learned window only under its own ``_cond`` (40).  The chunk pipeline's one
lock is the decoded-block cache (140), a leaf: its readers are
:func:`~repro.fanout.map_ordered` workers, a buffer lease has one releaser
at a time, and readahead hints keep no shared total.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["LOCK_ORDER"]

#: Dotted lock name -> rank.  Acquisitions must strictly increase in rank.
LOCK_ORDER: Dict[str, int] = {
    # Outermost: the client's connection.  Serialises each send + the pending
    # deque against the reader thread, and spans a synchronous round trip
    # (send, then read its own answer on the calling thread).  Touches no
    # server-side lock.
    "repro.net.client.NetClient._lock": 30,
    # Serving layer.
    "repro.serve.server.ModelServer._cond": 40,
    # The train->publish daemon: holds its own state lock while opening
    # snapshot datasets (Session._lock, 70) and publishing refreshed model
    # versions (ModelRegistry._lock, 80), so it ranks above the server
    # condition and below both of those.
    "repro.serve.trainer.Trainer._lock": 60,
    "repro.api.session.Session._lock": 70,
    "repro.serve.registry.ModelRegistry._lock": 80,
    # The append path: serialises tail-shard writes and generation commits.
    # Callers already holding session/registry locks may append (70/80 -> 90
    # is increasing); the appender itself never re-enters the session layer.
    "repro.api.sharded.ShardAppender._lock": 90,
    # Streaming pipeline.  Readers are map_ordered workers: they hint, read
    # and decode each chunk holding no lock of the stream's own.
    # Innermost library lock: the decoded-block LRU is a pure leaf — decoding
    # happens outside it and nothing is acquired while it is held.
    "repro.api.sharded._BlockCache._lock": 140,
    # Internal leaf locks of the instrumentation layer itself.  They guard
    # tracker bookkeeping, are never held across another acquisition, and
    # rank above everything so holding *any* library lock may enter them.
    "repro.analysis.runtime.LockOrderGraph._lock": 900,
    "repro.analysis.runtime.LeaseTracker._lock": 910,
    # The fault-injection plan's accounting lock: sites fire while holding
    # appender/trainer/pipeline locks, so — like the trackers above — it is
    # a pure leaf ranked after everything in the library proper.
    "repro.faults.FaultPlan._lock": 920,
}
