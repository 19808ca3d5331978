"""Access traces.

The paper's ongoing-work section proposes "extensively study[ing] the memory
access patterns and locality of algorithms (e.g., sequential scans vs random
access)".  An :class:`AccessTrace` records the byte ranges an algorithm touches
so that the same workload can be replayed through differently-configured
virtual memory simulators (different RAM sizes, disks, replacement policies)
without re-running the algorithm — which is exactly how the benchmark harness
produces Figure 1a's sweep over dataset sizes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple, Union


class AccessKind(str, enum.Enum):
    """Whether an access reads or writes the mapped region."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class AccessRecord:
    """A single contiguous access to the mapped file.

    Attributes
    ----------
    offset:
        Byte offset of the first byte accessed.
    length:
        Number of bytes accessed.
    kind:
        Read or write.
    cpu_cost_s:
        CPU time (seconds) the algorithm spent processing these bytes.  This
        lets the simulator interleave compute and I/O accounting when the
        trace is replayed.
    """

    offset: int
    length: int
    kind: AccessKind = AccessKind.READ
    cpu_cost_s: float = 0.0

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset}")
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")
        if self.cpu_cost_s < 0:
            raise ValueError(f"cpu_cost_s must be non-negative, got {self.cpu_cost_s}")

    @property
    def end(self) -> int:
        """Offset of the first byte *after* the access."""
        return self.offset + self.length


@dataclass
class AccessTrace:
    """An ordered list of :class:`AccessRecord` produced by one workload run."""

    records: List[AccessRecord] = field(default_factory=list)
    description: str = ""

    def record(
        self,
        offset: int,
        length: int,
        kind: Union[AccessKind, str] = AccessKind.READ,
        cpu_cost_s: float = 0.0,
    ) -> None:
        """Append an access to the trace."""
        if isinstance(kind, str):
            kind = AccessKind(kind)
        self.records.append(AccessRecord(offset, length, kind, cpu_cost_s))

    def extend(self, records: Iterable[AccessRecord]) -> None:
        """Append many records at once."""
        self.records.extend(records)

    def __iter__(self) -> Iterator[AccessRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_bytes(self) -> int:
        """Total bytes touched (reads + writes, counting repeats)."""
        return sum(r.length for r in self.records)

    @property
    def total_cpu_cost_s(self) -> float:
        """Total CPU seconds attributed to the trace."""
        return sum(r.cpu_cost_s for r in self.records)

    @property
    def max_offset(self) -> int:
        """One past the largest byte offset touched (i.e. required file size)."""
        return max((r.end for r in self.records), default=0)

    def sequential_fraction(self) -> float:
        """Fraction of records that start exactly where the previous one ended.

        A fully sequential scan returns a value close to 1.0; random access
        returns a value close to 0.0.  This is the "locality" metric the
        paper's future work proposes to study.
        """
        if len(self.records) <= 1:
            return 1.0 if self.records else 0.0
        sequential = 0
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.offset == prev.end:
                sequential += 1
        return sequential / (len(self.records) - 1)

    def scaled(self, factor: int) -> "AccessTrace":
        """Return a trace representing ``factor`` back-to-back repetitions.

        Used to extrapolate a one-iteration trace to the paper's 10 iterations
        without storing ten times the records.
        """
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        scaled = AccessTrace(description=f"{self.description} x{factor}")
        for _ in range(factor):
            scaled.records.extend(self.records)
        return scaled

    # -- persistence ---------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Serialise the trace to a JSON-lines file."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            header = {"description": self.description, "num_records": len(self.records)}
            handle.write(json.dumps(header) + "\n")
            for record in self.records:
                handle.write(
                    json.dumps(
                        {
                            "offset": record.offset,
                            "length": record.length,
                            "kind": record.kind.value,
                            "cpu_cost_s": record.cpu_cost_s,
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AccessTrace":
        """Load a trace previously written by :meth:`save`."""
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return cls()
        header = json.loads(lines[0])
        trace = cls(description=header.get("description", ""))
        for line in lines[1:]:
            if not line.strip():
                continue
            payload = json.loads(line)
            trace.record(
                payload["offset"],
                payload["length"],
                AccessKind(payload["kind"]),
                payload.get("cpu_cost_s", 0.0),
            )
        return trace


def reader_log_trace(
    reader_log: Sequence[Sequence[Tuple[int, int]]], row_bytes: int
) -> AccessTrace:
    """Interleave a multi-reader chunk schedule into one :class:`AccessTrace`.

    ``reader_log`` is the per-reader ordered ``(start, stop)`` row bounds a
    :class:`~repro.api.chunks.ChunkStream` recorded (its ``reader_log``, or
    ``details["reader_log"]`` of a streaming fit or predict), or any
    hand-built schedule of the same shape.  The per-reader streams are taken
    round-robin — the storage-level arrival order of a stream's readers
    working through their claims concurrently — as reads of ``row_bytes`` per row.  Replay the
    result like any trace, e.g. under one of the kernel read-ahead policies
    of :mod:`repro.vmem.readahead`::

        trace = reader_log_trace(result.details["reader_log"], plan.row_bytes)
        VirtualMemorySimulator(config).run_trace(trace)
    """
    trace = AccessTrace(description=f"multi-reader replay ({len(reader_log)} readers)")
    pending = [iter(log) for log in reader_log]
    while pending:
        still_running = []
        for stream in pending:
            bounds = next(stream, None)
            if bounds is None:
                continue
            start, stop = bounds
            trace.record(offset=start * row_bytes, length=(stop - start) * row_bytes)
            still_running.append(stream)
        pending = still_running
    return trace
