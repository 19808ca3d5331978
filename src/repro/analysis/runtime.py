"""Opt-in runtime verification of the concurrency invariants.

This module is the dynamic half of ``repro.analysis``: where the static
linter (rules R001–R003) proves properties of the *source*, the classes
here check the same properties on the *live* program.

Enablement
----------
Instrumentation is off by default and costs nothing when off: the
factories :func:`make_lock`, :func:`make_rlock` and :func:`make_condition`
return plain :mod:`threading` primitives unless analysis is enabled, so the
hot paths run exactly the code they ran before this module existed.  Enable
it with ``REPRO_ANALYSIS=1`` in the environment, or programmatically with
:func:`set_analysis_enabled` (the benchmark and the test suite use the
latter so they can compare both modes in one process).  The decision is
taken when each lock is *constructed*, which is why toggling mid-stream
affects only objects built afterwards.

What runs when enabled
----------------------
* :class:`OrderedLock` keeps a per-thread acquisition stack and checks two
  things on every acquire: the declared rank from
  :data:`repro.analysis.locks.LOCK_ORDER` must strictly increase along the
  stack, and the edge ``held -> acquiring`` must not close a cycle in the
  global :class:`LockOrderGraph`.  Either violation raises
  :class:`LockOrderViolation` *before* blocking on the lock — the bug
  surfaces as a traceback in the offending thread instead of a deadlock.
* :class:`LeaseTracker` records every activated
  :class:`~repro.api.chunks.BufferLease` until it is released; the
  suite-wide pytest fixture in ``tests/conftest.py`` fails any test that
  leaks one.
* :class:`ThreadLeakDetector` snapshots live threads so the same fixture
  can fail tests that leave non-daemon threads running.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.analysis.locks import LOCK_ORDER

__all__ = [
    "LockOrderViolation",
    "OrderedLock",
    "LockOrderGraph",
    "LeaseTracker",
    "ThreadLeakDetector",
    "analysis_enabled",
    "set_analysis_enabled",
    "make_lock",
    "make_rlock",
    "make_condition",
    "GRAPH",
    "LEASES",
]


class LockOrderViolation(RuntimeError):
    """A lock acquisition violated the declared or observed lock order."""


_FORCE: Optional[bool] = None


def analysis_enabled() -> bool:
    """Whether runtime instrumentation is currently enabled.

    ``set_analysis_enabled`` overrides take precedence; otherwise the
    ``REPRO_ANALYSIS`` environment variable decides (any value other than
    empty/``0`` enables).
    """
    if _FORCE is not None:
        return _FORCE
    return os.environ.get("REPRO_ANALYSIS", "").strip() not in ("", "0")


def set_analysis_enabled(value: Optional[bool]) -> Optional[bool]:
    """Force instrumentation on/off in-process, returning the prior override.

    Pass ``None`` to fall back to the ``REPRO_ANALYSIS`` environment
    variable.  Only locks constructed *after* the call are affected.
    """
    global _FORCE
    previous = _FORCE
    _FORCE = value
    return previous


class LockOrderGraph:
    """The global directed graph of observed ``held -> acquired`` edges.

    Nodes are lock *names* (not instances), so the order learned from one
    stream/server applies to every other instance of the same subsystem.
    An acquisition that would close a cycle — i.e. some other thread has
    already demonstrated the opposite order — raises
    :class:`LockOrderViolation` before the edge is recorded.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: Dict[str, Set[str]] = {}

    def record(self, held: str, acquiring: str) -> None:
        """Record that a thread acquired ``acquiring`` while holding ``held``."""
        if held == acquiring:
            return
        # Fast path: this exact edge was already recorded (and therefore
        # already cycle-checked).  A plain dict/set read is safe under the
        # GIL and keeps the steady-state cost of a nested acquisition at
        # two lookups instead of a contended global lock.
        succ = self._edges.get(held)
        if succ is not None and acquiring in succ:
            return
        with self._lock:
            if self._reaches(acquiring, held):
                raise LockOrderViolation(
                    f"acquiring {acquiring!r} while holding {held!r} inverts "
                    f"the previously observed lock order "
                    f"({acquiring!r} ->* {held!r} already recorded)"
                )
            self._edges.setdefault(held, set()).add(acquiring)

    def _reaches(self, source: str, target: str) -> bool:
        """Whether ``target`` is reachable from ``source`` (caller holds lock)."""
        frontier = [source]
        seen = {source}
        while frontier:
            node = frontier.pop()
            if node == target:
                return True
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def edges(self) -> Dict[str, Set[str]]:
        """A snapshot copy of the recorded edges."""
        with self._lock:
            return {node: set(succ) for node, succ in self._edges.items()}

    def clear(self) -> None:
        """Forget every recorded edge (test isolation)."""
        with self._lock:
            self._edges.clear()


#: Process-wide lock-order graph shared by every :class:`OrderedLock`.
GRAPH = LockOrderGraph()

_held = threading.local()


def _held_stack() -> List["OrderedLock"]:
    """The calling thread's stack of currently held ordered locks."""
    try:
        return _held.stack
    except AttributeError:
        _held.stack = []
        return _held.stack


class OrderedLock:
    """A lock wrapper that enforces rank order and learns the lock graph.

    Implements the full lock protocol (``acquire``/``release``/context
    manager) plus the private ``_release_save``/``_acquire_restore``/
    ``_is_owned`` hooks :class:`threading.Condition` uses, so
    ``threading.Condition(OrderedLock(name, reentrant=True))`` behaves like
    a condition over an ``RLock`` — including fully releasing (and popping
    from the held stack) around ``wait()``.
    """

    def __init__(
        self, name: str, rank: Optional[int] = None, reentrant: bool = False
    ) -> None:
        self.name = name
        self.rank = LOCK_ORDER.get(name) if rank is None else rank
        self.reentrant = reentrant
        # The wrapped primitive; ordering is tracked by the wrapper itself.
        self._inner: Any = (  # lint: disable=R001
            threading.RLock() if reentrant else threading.Lock()
        )

    def __repr__(self) -> str:
        kind = "RLock" if self.reentrant else "Lock"
        return f"OrderedLock({self.name!r}, rank={self.rank}, {kind})"

    # -- order checking ------------------------------------------------------

    def _check(self) -> None:
        """Validate this acquisition against the thread's held stack."""
        stack = _held_stack()
        for entry in stack:
            if entry is self:
                if self.reentrant:
                    return  # re-entrant reacquire: no new ordering introduced
                raise LockOrderViolation(
                    f"{self.name!r} acquired twice by one thread "
                    f"(non-reentrant lock: guaranteed self-deadlock)"
                )
        if not stack:
            return
        top = stack[-1]
        if self.rank is not None and top.rank is not None and self.rank <= top.rank:
            raise LockOrderViolation(
                f"acquiring {self.name!r} (rank {self.rank}) while holding "
                f"{top.name!r} (rank {top.rank}): ranks must strictly "
                f"increase along the acquisition stack (see "
                f"repro.analysis.locks.LOCK_ORDER)"
            )
        GRAPH.record(top.name, self.name)

    # -- lock protocol -------------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire after validating lock order; returns the inner result."""
        self._check()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            _held_stack().append(self)
        return acquired

    def release(self) -> None:
        """Release one level of the lock, unwinding the held stack."""
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._inner.release()

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    # -- threading.Condition protocol ----------------------------------------

    def _is_owned(self) -> bool:
        return any(entry is self for entry in _held_stack())

    def _release_save(self) -> Tuple[Any, int]:
        """Fully release around ``Condition.wait``, popping our stack entries."""
        stack = _held_stack()
        count = sum(1 for entry in stack if entry is self)
        stack[:] = [entry for entry in stack if entry is not self]
        if self.reentrant:
            state = self._inner._release_save()
        else:
            self._inner.release()
            state = None
        return (state, count)

    def _acquire_restore(self, saved: Tuple[Any, int]) -> None:
        """Reacquire after ``Condition.wait``, re-validating lock order."""
        state, count = saved
        self._check()
        if self.reentrant:
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        _held_stack().extend([self] * count)


# -- construction factories (the zero-cost passthrough) -----------------------

LockLike = Union[threading.Lock, OrderedLock]


def make_lock(name: str) -> Any:
    """A mutex named ``name``: plain ``threading.Lock`` unless analysis is on."""
    if analysis_enabled():
        return OrderedLock(name)
    return threading.Lock()


def make_rlock(name: str) -> Any:
    """A re-entrant mutex named ``name`` (plain ``RLock`` unless analysis is on)."""
    if analysis_enabled():
        return OrderedLock(name, reentrant=True)
    return threading.RLock()


def make_condition(name: str) -> threading.Condition:
    """A condition variable whose underlying lock is order-checked when enabled."""
    if analysis_enabled():
        return threading.Condition(OrderedLock(name, reentrant=True))
    return threading.Condition(threading.RLock())


# -- leak detection -----------------------------------------------------------


class LeaseTracker:
    """Registry of outstanding (activated, unreleased) buffer leases.

    :class:`~repro.api.chunks.BufferLease` reports activation and
    release here when :attr:`enabled` is true; the check at the call sites
    is a single attribute read, so the tracker costs nothing when idle.
    The suite-wide fixture enables it around every test and fails the test
    if leases remain outstanding afterwards.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._outstanding: Dict[int, str] = {}
        self.activated_total = 0

    def activated(self, lease: Any) -> None:
        """Record that ``lease`` was handed out by its pool."""
        with self._lock:
            self.activated_total += 1
            self._outstanding[id(lease)] = repr(lease)

    def released(self, lease: Any) -> None:
        """Record that ``lease`` went back to its pool."""
        with self._lock:
            self._outstanding.pop(id(lease), None)

    def outstanding(self) -> List[str]:
        """Descriptions of every lease currently checked out."""
        with self._lock:
            return list(self._outstanding.values())

    def reset(self) -> None:
        """Drop all tracked state (start of a test)."""
        with self._lock:
            self._outstanding.clear()
            self.activated_total = 0


#: Process-wide lease tracker hooked into ``BufferLease``.
LEASES = LeaseTracker()


class ThreadLeakDetector:
    """Detects threads a block of code started but never joined.

    Usage: ``start()`` before the code under test, ``leaked()`` after.
    Only *non-daemon* threads count as leaks, and each gets a short grace
    join before being reported: a chunk stream's readers (pool threads of
    :func:`~repro.fanout.map_ordered`) finish a read they were given before
    they exit.
    """

    def __init__(self) -> None:
        self._before: Set[int] = set()

    def start(self) -> None:
        """Snapshot the currently live threads."""
        self._before = {
            thread.ident for thread in threading.enumerate() if thread.ident
        }

    def leaked(self, grace: float = 1.0) -> List[threading.Thread]:
        """New non-daemon threads still alive after up to ``grace`` seconds."""
        candidates = [
            thread
            for thread in threading.enumerate()
            if thread.ident not in self._before
            and not thread.daemon
            and thread.is_alive()
        ]
        for thread in candidates:
            thread.join(timeout=grace)
        return [thread for thread in candidates if thread.is_alive()]
