"""Seeded deterministic fault injection for the whole pipeline.

Every robustness claim in this repository is testable because the code
paths that can fail in production — positioned reads, block decodes,
buffer-pool leases, append commits, trainer polls, server dispatch —
carry a named **injection site**.  A :class:`FaultPlan` arms a subset of
those sites with a probability, a fire budget and a seed; when the plan
is active, :func:`maybe_fire` raises :class:`InjectedFault` at armed
sites exactly as a real ``EIO`` / torn write / poisoned payload would,
and the hardening built on top (checksums, :mod:`repro.faults.retry`,
bounded waits, serving degradation) has to absorb it.

Zero cost when off
------------------
Mirrors :mod:`repro.analysis.runtime`: with no plan active (the default)
each site costs one function call and a ``None`` check — nothing is
parsed, no RNG is consulted, no lock is taken.  Sites sit at *block*
granularity (one check per ~1 MiB fetch/decode, per lease, per commit
step), never per row, which is what keeps the disabled overhead inside
the ``BENCH_faults.json`` budget (≤ 1.03× streaming fit).

Activation
----------
* ``REPRO_FAULTS=<spec>`` in the environment (parsed once, lazily), or
* ``Session(faults=<spec or FaultPlan>)``, or
* :func:`set_fault_plan` directly (tests use this for scoping).

Spec grammar (also accepted by :meth:`FaultPlan.parse`)::

    spec  := rule ("," rule)*
    rule  := site (":" key "=" value)*
    key   := "p" (probability, default 1.0)
           | "n" (max fires; default 1, n<=0 means unlimited)
           | "seed" (per-rule RNG seed, default 0)

    REPRO_FAULTS="read.pread:p=0.5:n=2:seed=7,decode.block"

Determinism: each rule draws from its own ``random.Random`` seeded by
``seed`` mixed with the site name, so a single-threaded run fires at the
same call ordinals every time.  (Across reader *threads* the interleaving
of draws is scheduling-dependent — chaos tests pin ``p=1.0`` with a fire
budget when they need exact behaviour.)

The site catalogue lives in the module's ``SITES`` table, listed by
:func:`fault_sites` (and, prose-form, in ``src/repro/faults/README.md``);
:meth:`FaultPlan.parse` rejects unknown sites so a typo cannot silently
disarm a chaos run.  :func:`set_fault_plan` is the one public switch.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.analysis.runtime import make_lock
from repro.faults.retry import (
    RetriesExhausted,
    RetryPolicy,
    observing_retries,
    policy_for,
)

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "fault_sites",
    "set_fault_plan",
    "maybe_fire",
    "should_fire",
    "RetryPolicy",
    "RetriesExhausted",
    "policy_for",
    "observing_retries",
]


#: Every named injection site threaded through the real code paths.
#: ``FaultPlan.parse`` validates against this catalogue.
SITES: Dict[str, str] = {
    "read.pread": (
        "formats_v2.BlockedMatrixReader._pread — the positioned read every "
        "v2 block/label fetch goes through"
    ),
    "read.gather": (
        "chunk-pipeline reader gathering raw rows out of mapped shards"
    ),
    "decode.block": "codec decode of one coded block payload",
    "encode.block": (
        "codec encode of one block payload (or label segment) on the write "
        "side, possibly on an encode worker"
    ),
    "pool.lease": "ChunkBufferPool lease acquisition in a reader thread",
    "append.pre_fsync": (
        "ShardAppender durability point — before fsync of freshly landed "
        "bytes"
    ),
    "append.pre_rename": (
        "ShardAppender commit — before the atomic tmp→final rename"
    ),
    "append.post_rename": (
        "ShardAppender commit — after the rename and its directory fsync, "
        "before the commit sequence completes"
    ),
    "append.recover": (
        "ShardAppender tail recovery — reading the committed tail on reopen"
    ),
    "trainer.poll": "Trainer manifest-generation poll of an appendable dataset",
    "serve.dispatch": "ModelServer micro-batch dispatch",
    "net.accept": (
        "NetServer connection accept — the new connection drops before any "
        "request is read"
    ),
    "net.read": (
        "NetServer request read — the connection dies mid-read, as a reset "
        "or torn frame would"
    ),
    "net.write": (
        "NetServer response write — the response is lost after compute, as "
        "a broken pipe would"
    ),
    "write.trailer": (
        "BlockedMatrixWriter.finalize — torn trailer write (partial JSON "
        "header lands, prefix still commits)"
    ),
}


def fault_sites() -> Tuple[str, ...]:
    """Sorted names of every known injection site."""
    return tuple(sorted(SITES))


class InjectedFault(OSError):
    """The error an armed injection site raises.

    Subclasses :class:`OSError` so the hardening under test — retry
    policies, reader error paths, appender recovery — handles an injected
    fault through exactly the code that would handle a real ``EIO``.
    """

    def __init__(self, site: str, ordinal: int, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"injected fault #{ordinal} at site {site!r}{suffix}"
        )
        self.site = site
        self.ordinal = ordinal


@dataclass(frozen=True)
class FaultRule:
    """Arming of one site: fire with ``probability``, at most ``count`` times.

    ``count=None`` means unlimited; ``seed`` makes the per-rule draw
    sequence reproducible.
    """

    site: str
    probability: float = 1.0
    count: Optional[int] = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            known = ", ".join(fault_sites())
            raise ValueError(
                f"unknown fault site {self.site!r} (known sites: {known})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.count is not None and self.count < 0:
            raise ValueError(
                f"fault count must be >= 0 or None, got {self.count}"
            )


class FaultPlan:
    """A set of armed sites plus their live fire/trigger accounting.

    Thread-safe: sites fire from reader threads, the serving dispatcher
    and the appender concurrently.  The internal lock is a registered leaf
    (rank 920) — it nests inside every pipeline lock and never acquires
    anything itself.
    """

    def __init__(self, rules: Iterable[FaultRule]) -> None:
        self._lock = make_lock("repro.faults.FaultPlan._lock")
        self._rules: Dict[str, FaultRule] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._fired: Dict[str, int] = {}
        self._checked: Dict[str, int] = {}
        for rule in rules:
            if rule.site in self._rules:
                raise ValueError(f"site {rule.site!r} armed twice in one plan")
            self._rules[rule.site] = rule
            # Mix the site name into the seed so two rules with the same
            # seed still draw independent sequences.
            mixed = rule.seed ^ zlib.crc32(rule.site.encode("utf-8"))
            self._rngs[rule.site] = random.Random(mixed)
            self._fired[rule.site] = 0
            self._checked[rule.site] = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` spec string (see module docstring)."""
        rules = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            site = parts[0].strip()
            kwargs: Dict[str, Union[float, int, None]] = {}
            for part in parts[1:]:
                if "=" not in part:
                    raise ValueError(
                        f"malformed fault rule {chunk!r}: expected key=value, "
                        f"got {part!r}"
                    )
                key, _, value = part.partition("=")
                key = key.strip()
                value = value.strip()
                try:
                    if key == "p":
                        kwargs["probability"] = float(value)
                    elif key == "n":
                        n = int(value)
                        kwargs["count"] = None if n <= 0 else n
                    elif key == "seed":
                        kwargs["seed"] = int(value)
                    else:
                        raise ValueError(
                            f"unknown fault rule key {key!r} in {chunk!r} "
                            f"(known: p, n, seed)"
                        )
                except ValueError as error:
                    if "unknown fault rule key" in str(error):
                        raise
                    raise ValueError(
                        f"malformed fault rule {chunk!r}: {key}={value!r} is "
                        f"not a number"
                    ) from None
            rules.append(FaultRule(site=site, **kwargs))  # type: ignore[arg-type]
        if not rules:
            raise ValueError(f"fault spec {spec!r} arms no sites")
        return cls(rules)

    # -- firing ---------------------------------------------------------------

    def should_fire(self, site: str) -> bool:
        """Whether an armed ``site`` fires this time (consumes budget)."""
        rule = self._rules.get(site)
        if rule is None:
            return False
        with self._lock:
            self._checked[site] += 1
            if rule.count is not None and self._fired[site] >= rule.count:
                return False
            if rule.probability < 1.0:
                if self._rngs[site].random() >= rule.probability:
                    return False
            self._fired[site] += 1
            return True

    def fire(self, site: str, detail: str = "") -> None:
        """Raise :class:`InjectedFault` if ``site`` fires this time."""
        if self.should_fire(site):
            raise InjectedFault(site, self._fired[site], detail)

    # -- accounting -----------------------------------------------------------

    def fires(self, site: Optional[str] = None) -> int:
        """Faults fired so far — for ``site``, or in total."""
        with self._lock:
            if site is not None:
                return self._fired.get(site, 0)
            return sum(self._fired.values())

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site ``{"checked": n, "fired": n}`` accounting."""
        with self._lock:
            return {
                site: {
                    "checked": self._checked[site],
                    "fired": self._fired[site],
                }
                for site in self._rules
            }

    @property
    def sites(self) -> Tuple[str, ...]:
        """The armed site names."""
        return tuple(self._rules)

    def __repr__(self) -> str:
        armed = ", ".join(
            f"{rule.site}(p={rule.probability}, n={rule.count})"
            for rule in self._rules.values()
        )
        return f"FaultPlan({armed})"


# -- activation (the zero-cost-when-off gate) ---------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ENV_CHECKED = False


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan, resolving ``REPRO_FAULTS`` lazily once."""
    global _ENV_CHECKED, _ACTIVE
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        spec = os.environ.get("REPRO_FAULTS", "").strip()
        if spec and _ACTIVE is None:
            _ACTIVE = FaultPlan.parse(spec)
    return _ACTIVE


def set_fault_plan(
    plan: Union[FaultPlan, str, None]
) -> Optional[FaultPlan]:
    """Activate ``plan`` process-wide, returning the previous plan.

    Accepts a :class:`FaultPlan`, a spec string, or ``None`` to disarm.
    ``Session(faults=...)`` and the chaos suite route through here; pass
    the returned previous plan back in to restore scope.
    """
    global _ACTIVE, _ENV_CHECKED
    previous = _ACTIVE if _ENV_CHECKED else active_plan()
    _ENV_CHECKED = True
    _ACTIVE = FaultPlan.parse(plan) if isinstance(plan, str) else plan
    return previous


def maybe_fire(site: str, detail: str = "") -> None:
    """The hot-path site hook: raise if an active plan arms ``site``.

    One call + ``None`` check when no plan is active.
    """
    plan = _ACTIVE
    if plan is None:
        if _ENV_CHECKED:
            return
        plan = active_plan()
        if plan is None:
            return
    plan.fire(site, detail)


def should_fire(site: str) -> bool:
    """Non-raising variant of :func:`maybe_fire` for crash-simulation sites
    that need to corrupt state *themselves* (e.g. a torn trailer write)
    rather than raise at the check point."""
    plan = _ACTIVE
    if plan is None:
        if _ENV_CHECKED:
            return False
        plan = active_plan()
        if plan is None:
            return False
    return plan.should_fire(site)
