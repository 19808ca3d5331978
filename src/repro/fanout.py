"""The one thread fan-out of the package: an ordered map over a bounded pool.

Both sides of the stack use it — the read side's chunk readers
(:class:`repro.api.chunks.ChunkStream`) and full-matrix passes
(:func:`repro.ml.base.map_row_chunks`, ``predict_streaming``), and the write
side's block encode (:func:`repro.data.formats_v2.encode_blocks`) — and each
decides its own worker count.  The module imports nothing from the package,
so storage code can fan out without depending on :mod:`repro.ml`.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent import futures
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Deque, Iterable, Iterator, Optional, Tuple

__all__ = ["COMPUTE_THREAD_PREFIX", "DeadlineExceeded", "available_cpus", "map_ordered"]

#: Name prefix of the threads :func:`map_ordered` starts — how a nested call
#: recognises that it is already running on one of them.
COMPUTE_THREAD_PREFIX = "m3-compute"


class DeadlineExceeded(TimeoutError):
    """The result due next from :func:`map_ordered` missed its ``timeout_s``."""


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _on_compute_thread() -> bool:
    return threading.current_thread().name.startswith(COMPUTE_THREAD_PREFIX)


def map_ordered(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: int,
    in_flight: int,
    abandon: Optional[Callable[[Any], None]] = None,
    *,
    threaded: bool = False,
    timeout_s: Optional[float] = None,
    discard: Optional[Callable[[Any], None]] = None,
    name: str = "",
) -> Iterator[Any]:
    """Yield ``fn(item)`` for every item, strictly in ``items``' order.

    ``items`` is drawn on the calling thread, one item at a time and in
    order; only ``fn`` runs, on up to ``workers`` pool threads; results come
    back in submission order however the workers interleave, with at most
    ``in_flight`` items submitted and not yet consumed.  An exception from
    ``fn`` is raised at its item's position — after every earlier result;
    items submitted but not yet started are then cancelled (each handed to
    ``abandon``, for items that own a resource ``fn`` would have given back),
    later items are never drawn, and — with the default options — no thread
    outlives the generator, whether it is exhausted, closed or failed.

    With ``workers <= 1``, or when called from one of its own pool threads (a
    ``fn`` that fans out again), it is the plain serial loop: no pool, no
    thread.

    The keyword-only options serve a caller whose workers run *beside* it
    rather than for it (the chunk stream's readers); their defaults change
    nothing above:

    * ``threaded`` — one worker runs on a pool thread of its own instead of
      the serial loop (``workers=0`` is still the serial loop), and the
      caller owns the workers' lifetime: however the generator ends, it does
      not wait for a running worker, and the caller waits for its workers
      itself, within whatever bound it needs (``name`` finds them);
    * ``timeout_s`` — the result due next must be ready within ``timeout_s``
      seconds of the consumer asking for it, or :class:`DeadlineExceeded` is
      raised at its position, after every earlier result.  A generator with
      a deadline never waits for a running worker either, so no ending —
      a missed deadline, an error, ``close()`` — waits for a stuck one;
    * ``discard`` — receives every result computed but never yielded (the
      generator ended first), once its worker finishes: for results that
      own a resource;
    * ``name`` — appended to the pool threads' name prefix
      (:data:`COMPUTE_THREAD_PREFIX`), so a caller can tell its own workers
      from other pools' in :func:`threading.enumerate`.

    Workers the generator does not wait for finish their item and then exit
    on their own.  A generator finalized on a pool thread (a garbage
    collection that runs there) cannot join that thread, so it does not wait
    either.
    """
    if workers < (1 if threaded else 2) or _on_compute_thread():
        for item in items:
            yield fn(item)
        return
    pending: Deque[Tuple[Future, Any]] = deque()
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix=COMPUTE_THREAD_PREFIX + name)
    try:
        for item in items:
            pending.append((pool.submit(fn, item), item))
            if len(pending) >= in_flight:
                yield _next_result(pending, timeout_s)
        while pending:
            yield _next_result(pending, timeout_s)
    finally:
        for future, item in pending:
            if future.cancel():
                if abandon is not None:
                    abandon(item)
            elif discard is not None:
                future.add_done_callback(partial(_discard_result, discard))
        pool.shutdown(wait=not (threaded or timeout_s is not None or _on_compute_thread()))


def _next_result(pending: Deque[Tuple[Future, Any]], timeout_s: Optional[float]) -> Any:
    """Pop the oldest pending future and return its result (or raise its error).

    On a missed deadline the future stays pending, so teardown can cancel it
    or hand its late result to ``discard``.
    """
    future = pending[0][0]
    if timeout_s is not None and not futures.wait((future,), timeout=timeout_s).done:
        raise DeadlineExceeded(f"the result due next was not ready within {timeout_s} s")
    pending.popleft()
    return future.result()


def _discard_result(discard: Callable[[Any], None], future: Future) -> None:
    if not future.cancelled() and future.exception() is None:
        discard(future.result())
