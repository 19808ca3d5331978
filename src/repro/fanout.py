"""The one thread fan-out of the package: an ordered map over a bounded pool.

Both sides of the stack use it — the read side's full-matrix passes
(:func:`repro.ml.base.map_row_chunks`, ``predict_streaming``) and the write
side's block encode (:func:`repro.data.formats_v2.encode_blocks`) — and each
decides its own worker count.  The module imports nothing from the package,
so storage code can fan out without depending on :mod:`repro.ml`.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Deque, Iterable, Iterator, Optional, Tuple

__all__ = ["COMPUTE_THREAD_PREFIX", "available_cpus", "map_ordered"]

#: Name prefix of the threads :func:`map_ordered` starts — how a nested call
#: recognises that it is already running on one of them.
COMPUTE_THREAD_PREFIX = "m3-compute"


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def map_ordered(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: int,
    in_flight: int,
    abandon: Optional[Callable[[Any], None]] = None,
) -> Iterator[Any]:
    """Yield ``fn(item)`` for every item, strictly in ``items``' order.

    ``items`` is drawn on the calling thread, one item at a time and in
    order; only ``fn`` runs, on up to ``workers`` pool threads; results come
    back in submission order however the workers interleave, with at most
    ``in_flight`` items submitted and not yet consumed.  An exception from
    ``fn`` is raised at its item's position — after every earlier result;
    items submitted but not yet started are then cancelled (each handed to
    ``abandon``, for items that own a resource ``fn`` would have given back),
    later items are never drawn, and no thread outlives the generator,
    whether it is exhausted, closed or failed.

    With ``workers <= 1``, or when called from one of its own pool threads (a
    ``fn`` that fans out again), it is the plain serial loop: no pool, no
    thread.
    """
    if workers <= 1 or threading.current_thread().name.startswith(COMPUTE_THREAD_PREFIX):
        for item in items:
            yield fn(item)
        return
    pending: Deque[Tuple[Future, Any]] = deque()
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix=COMPUTE_THREAD_PREFIX
    ) as pool:
        try:
            for item in items:
                pending.append((pool.submit(fn, item), item))
                if len(pending) >= in_flight:
                    yield pending.popleft()[0].result()
            while pending:
                yield pending.popleft()[0].result()
        finally:
            for future, item in pending:
                if future.cancel() and abandon is not None:
                    abandon(item)
