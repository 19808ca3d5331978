"""The shared retry policy: bounded exponential backoff with jitter.

Readers, the trainer's generation polls, and anything else that touches
a device retry transient failures through one :class:`RetryPolicy`, so
the backoff shape and the failure contract are uniform: a retryable
error is attempted at most ``attempts`` times with exponentially growing
(jittered, capped) sleeps between tries, and exhaustion raises a typed
:class:`RetriesExhausted` chained from the last cause — the caller sees
*both* that the budget ran out and exactly what kept failing.

What retries and what does not
------------------------------
``retry_on`` defaults to :class:`OSError` only: device-level errors
(including :class:`~repro.faults.InjectedFault`) are plausibly
transient.  Corruption is not — a
:class:`~repro.data.formats_v2.ChecksumError` or
:class:`~repro.data.codecs.CodecError` re-reads to the same bad bytes,
so those propagate immediately rather than burning the budget.

Per-site budgets live in :data:`SITE_BUDGETS`; :func:`policy_for`
resolves the policy a call site should use (unlisted sites get
:data:`DEFAULT_POLICY`).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Type

__all__ = [
    "RetriesExhausted",
    "RetryPolicy",
    "DEFAULT_POLICY",
    "SITE_BUDGETS",
    "policy_for",
    "observing_retries",
]

RetryHook = Callable[[int, BaseException], None]


class RetriesExhausted(RuntimeError):
    """Every attempt of a retried operation failed.

    Always raised ``from`` the last underlying error, so the full causal
    chain (e.g. ``RetriesExhausted`` ← ``InjectedFault``) survives into
    tracebacks and test assertions.
    """

    def __init__(self, site: str, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"site {site!r}: {attempts} attempt(s) failed; last error: "
            f"{last!r}"
        )
        self.site = site
        self.attempts = attempts


#: The hooks :func:`observing_retries` added in this context (a thread
#: starts with none).
_observers: ContextVar[Tuple[RetryHook, ...]] = ContextVar("retry_observers", default=())


@contextmanager
def observing_retries(on_retry: RetryHook) -> Iterator[None]:
    """Within the block, ``on_retry`` sees every retry this thread makes.

    Every envelope counts, nested ones included and whatever ``on_retry``
    each was given: an operation that opens a dataset, whose label reads
    retry under their own budget, reports those retries to its caller.
    """
    token = _observers.set(_observers.get() + (on_retry,))
    try:
        yield
    finally:
        _observers.reset(token)


#: Jitter draws only perturb sleep durations, never control flow, so a
#: module-level seeded RNG keeps runs byte-reproducible where it matters.
_jitter = random.Random(0x5EED5)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``attempts`` tries, jittered sleeps.

    The first retry sleeps ``backoff_s`` (± ``jitter`` fraction), each
    subsequent retry doubles the base up to ``max_backoff_s``.  Defaults
    are deliberately small — the transients this shields against (a
    flaky read, a lease racing a close) resolve in milliseconds, and
    tests that exhaust the budget should not stall the suite.
    """

    attempts: int = 3
    backoff_s: float = 0.005
    max_backoff_s: float = 0.1
    jitter: float = 0.25
    retry_on: Tuple[Type[BaseException], ...] = (OSError,)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def sleep_for(self, retry_index: int) -> float:
        """The jittered sleep before retry ``retry_index`` (0-based)."""
        base = min(self.backoff_s * (2 ** retry_index), self.max_backoff_s)
        if base <= 0 or self.jitter == 0:
            return base
        return base * (1.0 + self.jitter * (2.0 * _jitter.random() - 1.0))

    def call(
        self,
        fn: Callable[[], Any],
        site: str = "",
        on_retry: Optional[RetryHook] = None,
    ) -> Any:
        """Run ``fn`` under this policy; return its result.

        ``on_retry(retry_index, error)`` fires before each backoff sleep
        — the pipeline uses it to count retries into its stats — and so
        does every hook of :func:`observing_retries`.  Raises
        :class:`RetriesExhausted` (chained from the last error) once the
        budget is spent; non-retryable errors propagate untouched.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.attempts):
            try:
                return fn()
            except self.retry_on as error:  # noqa: PERF203 — the cold path
                last = error
                if attempt + 1 >= self.attempts:
                    break
                if on_retry is not None:
                    on_retry(attempt, error)
                for observe in _observers.get():
                    observe(attempt, error)
                delay = self.sleep_for(attempt)
                if delay > 0:
                    # Backoff, not polling: nothing signals "the device
                    # recovered", so there is no condition to wait on.
                    time.sleep(delay)  # lint: disable=R003
        assert last is not None
        raise RetriesExhausted(site, self.attempts, last) from last


#: The policy unlisted sites fall back to.
DEFAULT_POLICY = RetryPolicy()

#: Per-site retry budgets.  Reads get an extra attempt (transient device
#: errors are their whole threat model); the trainer poll gets more still
#: because a missed poll only delays a publish, it never corrupts one.
SITE_BUDGETS: Dict[str, RetryPolicy] = {
    "read.pread": RetryPolicy(attempts=4),
    "read.gather": RetryPolicy(attempts=4),
    "pool.lease": RetryPolicy(attempts=4),
    "trainer.poll": RetryPolicy(attempts=5),
}


def policy_for(site: str) -> RetryPolicy:
    """The retry policy for ``site`` (its budget, or the default)."""
    return SITE_BUDGETS.get(site, DEFAULT_POLICY)
