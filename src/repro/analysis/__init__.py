"""Concurrency & resource-safety analysis for the M3 reproduction.

Two halves share one rule set:

* The **static pass** (``m3 lint``, :mod:`repro.analysis.linter`) checks
  the source with stdlib :mod:`ast`: lock-rank discipline (R001), resource
  cleanup on all paths (R002), concurrency hygiene (R003) and the public
  API surface (R004).
* The **runtime pass** (:mod:`repro.analysis.runtime`, enabled with
  ``REPRO_ANALYSIS=1``) swaps the library's locks for
  :class:`~repro.analysis.runtime.OrderedLock` — which enforces the same
  rank order on live acquisition stacks and detects order-inverting
  acquisitions before they deadlock — and tracks buffer-lease/thread leaks
  for the test suite.

Both are anchored by the lock-rank registry in
:mod:`repro.analysis.locks`.
"""

from repro.analysis.findings import RULES, Finding
from repro.analysis.linter import LintError, LintReport, lint_paths
from repro.analysis.locks import LOCK_ORDER
from repro.analysis.runtime import (
    GRAPH,
    LEASES,
    LeaseTracker,
    LockOrderGraph,
    LockOrderViolation,
    OrderedLock,
    ThreadLeakDetector,
    analysis_enabled,
    make_condition,
    make_lock,
    make_rlock,
    set_analysis_enabled,
)

__all__ = [
    "RULES",
    "Finding",
    "LintError",
    "LintReport",
    "lint_paths",
    "LOCK_ORDER",
    "GRAPH",
    "LEASES",
    "LeaseTracker",
    "LockOrderGraph",
    "LockOrderViolation",
    "OrderedLock",
    "ThreadLeakDetector",
    "analysis_enabled",
    "make_condition",
    "make_lock",
    "make_rlock",
    "set_analysis_enabled",
]
