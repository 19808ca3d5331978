"""Adaptive micro-batch delay: learn ``max_delay_ms`` from arrival rate.

A fixed coalesce window is a bet about traffic that is always wrong
somewhere: ``max_delay_ms=0`` dispatches underfull batches the moment a
dispatcher is free (fine under closed-loop load, wasteful for open-loop
bursts), while any positive fixed delay taxes every quiet-hour request
with latency it buys nothing for.

:class:`AdaptiveDelayController` replaces the constant with an estimate:
it keeps an EWMA of the request inter-arrival gap and sizes the window
so an underfull batch waits just long enough for the traffic *actually
arriving* to fill it — ``gap x (max_batch - 1)`` seconds, clamped to a
ceiling — and collapses to **zero** when the observed rate is too low
for waiting to gain a worthwhile batch (fewer than ``min_gain`` extra
requests expected inside a full ceiling window).  Idle traffic therefore
pays nothing; a burst coalesces into near-full batches within one
ceiling's worth of observation.

The controller is transport-agnostic: ``ModelServer`` calls
:meth:`record_arrival` on every offered ``submit`` and reads
:meth:`delay_s` when its dispatcher opens a batch window, whether requests
arrive over a socket, stdin, or in-process calls.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = ["AdaptiveDelayController"]

#: Gaps above this are treated as idle pauses, not rate observations: a
#: lunch break must not poison the estimate for the first burst after it.
MAX_OBSERVED_GAP_S = 1.0


class AdaptiveDelayController:
    """EWMA arrival-rate estimator feeding ``ModelServer``'s coalesce window.

    Not thread-safe: ``ModelServer`` calls :meth:`record_arrival` and
    :meth:`delay_s` under its condition, which serialises them.
    :meth:`snapshot` only reads, for a stats line.

    Parameters
    ----------
    max_batch:
        The server's batch size the window should aim to fill.
    ceiling_ms:
        Hard upper clamp on the learned delay — the worst-case latency
        tax any request can pay, however bursty the traffic looks.
    alpha:
        EWMA weight of the newest inter-arrival gap (0 < alpha <= 1).
        Small values smooth over jitter; large values track rate shifts
        within a few requests.
    min_gain:
        The low-load cutoff: the learned delay drops to exactly zero
        unless a full ceiling window is expected to gather at least this
        many extra requests (``ceiling / gap >= min_gain``).
    """

    def __init__(
        self,
        max_batch: int = 256,
        ceiling_ms: float = 5.0,
        alpha: float = 0.2,
        min_gain: float = 2.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if ceiling_ms < 0:
            raise ValueError(f"ceiling_ms must be >= 0, got {ceiling_ms}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if min_gain <= 0:
            raise ValueError(f"min_gain must be > 0, got {min_gain}")
        self.max_batch = max_batch
        self.ceiling_s = ceiling_ms / 1000.0
        self.alpha = alpha
        self.min_gain = min_gain
        self._gap_ewma_s: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self._arrivals = 0

    def record_arrival(self, now: Optional[float] = None) -> None:
        """Fold one request arrival into the inter-arrival EWMA.

        ``now`` (a ``time.perf_counter`` timestamp) is injectable so tests
        drive deterministic arrival schedules.
        """
        if now is None:
            now = time.perf_counter()
        self._arrivals += 1
        last = self._last_arrival
        self._last_arrival = now
        if last is None:
            return
        gap = now - last
        if gap < 0.0:
            return
        if gap > MAX_OBSERVED_GAP_S:
            # An idle pause, not a rate sample: forget the old rate so the
            # next burst is measured fresh instead of being averaged against
            # the silence.
            self._gap_ewma_s = None
            return
        if self._gap_ewma_s is None:
            self._gap_ewma_s = gap
        else:
            self._gap_ewma_s += self.alpha * (gap - self._gap_ewma_s)

    def delay_s(self) -> float:
        """The learned coalesce window, in seconds (0.0 at low load).

        ``gap x (max_batch - 1)`` — the time the observed rate needs to
        fill the rest of a batch — clamped to the ceiling, or exactly
        ``0.0`` when fewer than ``min_gain`` extra requests are expected
        within a full ceiling window.
        """
        gap = self._gap_ewma_s
        if gap is None or self.ceiling_s == 0.0 or self.max_batch == 1:
            return 0.0
        if gap <= 0.0:
            # Back-to-back timestamps: traffic far faster than the clock
            # resolution fills batches without any window.
            return 0.0
        if self.ceiling_s / gap < self.min_gain:
            return 0.0
        return min(gap * (self.max_batch - 1), self.ceiling_s)

    @property
    def delay_ms(self) -> float:
        """:meth:`delay_s` in milliseconds (the knob's display unit)."""
        return self.delay_s() * 1e3

    def snapshot(self) -> Dict[str, float]:
        """Current estimator state, JSON-friendly (for stats lines and tests)."""
        gap = self._gap_ewma_s
        arrivals = self._arrivals
        return {
            "arrivals": float(arrivals),
            "gap_ewma_ms": float("nan") if gap is None else gap * 1e3,
            "delay_ms": self.delay_s() * 1e3,
            "ceiling_ms": self.ceiling_s * 1e3,
        }

    def __repr__(self) -> str:
        state = self.snapshot()
        return (
            f"AdaptiveDelayController(max_batch={self.max_batch}, "
            f"ceiling_ms={state['ceiling_ms']:.1f}, "
            f"delay_ms={state['delay_ms']:.3f})"
        )
