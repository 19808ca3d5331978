"""The block-size / layout advisor behind ``m3 convert --auto-block``.

Choosing a v2 shard encoding means choosing two knobs — ``block_rows`` and
the row/column ``layout`` — whose goodness depends on how the dataset will be
*scanned*.  Rather than hard-coding rules of thumb, the advisor simulates the
fetch pattern each candidate encoding produces for a chunked streaming scan
(whole rows — every reader fetches whole blocks), scores the resulting
page-access sequence with the cache-friendliness metrics of
:mod:`repro.vmem.locality` (SLD / TLD / miss ratio / roundtrip intervals),
and divides by the **read amplification** — coded bytes fetched per byte the
workload actually needs.  The two penalties the simulation surfaces are
exactly the real ones:

* blocks wider than the streaming chunk are re-fetched by every chunk that
  overlaps them, so oversized blocks amplify reads;
* a column-major block is one segment per column, and tiny column segments
  waste page granularity — the layout is a compression-ratio choice, and the
  advisor recommends it only where it costs the scan nothing.

Ties break toward the row layout and larger blocks: fewer segments means
fewer seeks and less header metadata at equal simulated cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.vmem.locality import (
    CacheFriendlinessReport,
    cache_friendliness,
    trace_to_page_sequence,
)
from repro.vmem.page import PAGE_SIZE_DEFAULT
from repro.vmem.trace import AccessTrace

#: Raw-byte block sizes tried when no explicit candidate list is given.
DEFAULT_BLOCK_BYTES_CANDIDATES = (
    64 * 1024,
    256 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
)

DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

#: Cap on simulated chunks per candidate, keeping the advisor O(seconds)
#: on billion-row geometries (the fetch pattern is periodic past this).
_MAX_SIMULATED_CHUNKS = 24


@dataclass(frozen=True)
class CandidateScore:
    """One simulated ``(block_rows, layout)`` encoding and its scores."""

    block_rows: int
    layout: str
    #: Coded bytes fetched per byte the workload needs (>= 1 is typical).
    amplification: float
    friendliness: CacheFriendlinessReport
    #: The ranking key: cache-friendliness composite / amplification.
    score: float


@dataclass(frozen=True)
class BlockAdvice:
    """The advisor's pick plus every candidate it considered, best first."""

    block_rows: int
    layout: str
    candidates: Tuple[CandidateScore, ...]

    def as_dict(self) -> dict:
        """JSON-friendly summary (for ``m3 convert --auto-block`` output)."""
        return {
            "block_rows": self.block_rows,
            "layout": self.layout,
            "candidates": [
                {
                    "block_rows": c.block_rows,
                    "layout": c.layout,
                    "amplification": c.amplification,
                    "score": c.score,
                    "spatial_locality": c.friendliness.spatial_locality,
                    "temporal_locality": c.friendliness.temporal_locality,
                    "miss_ratio": c.friendliness.miss_ratio,
                    "mean_roundtrip_interval": c.friendliness.mean_roundtrip_interval,
                }
                for c in self.candidates
            ],
        }


def _simulate_fetch_trace(
    rows: int,
    cols: int,
    itemsize: int,
    chunk_rows: int,
    block_rows: int,
    layout: str,
) -> AccessTrace:
    """The byte ranges a chunked scan fetches under one candidate encoding.

    Blocks are laid out consecutively (segments within a block too), and each
    chunk independently fetches every block it overlaps — the pipeline has no
    cross-chunk payload cache on its hot path, so an overlapped block really
    is read again.
    """
    trace = AccessTrace()
    block_bytes = block_rows * cols * itemsize
    column_stride = block_rows * itemsize
    for start in range(0, rows, chunk_rows):
        stop = min(start + chunk_rows, rows)
        for block in range(start // block_rows, (stop - 1) // block_rows + 1):
            block_height = min(block_rows, rows - block * block_rows)
            base = block * block_bytes
            if layout == "row":
                trace.record(base, block_height * cols * itemsize)
            else:
                for col in range(cols):
                    trace.record(base + col * column_stride, block_height * itemsize)
    return trace


def advise_block_layout(
    rows: int,
    cols: int,
    itemsize: int = 8,
    chunk_rows: Optional[int] = None,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    block_rows_candidates: Optional[Sequence[int]] = None,
    page_size: int = PAGE_SIZE_DEFAULT,
) -> BlockAdvice:
    """Pick ``block_rows`` and layout for a chunk-streamed scan workload.

    Parameters
    ----------
    rows, cols, itemsize:
        Geometry of the dataset being encoded (itemsize of the *storage*
        dtype, since that is what gets fetched).
    chunk_rows:
        The streaming chunk height the consumer will scan with; defaults to
        ~1 MiB worth of rows (the pipeline's warm-up chunk).
    cache_bytes:
        Page-cache budget the miss ratio / roundtrip metrics are scored at.
    block_rows_candidates:
        Explicit ``block_rows`` values to try; defaults to
        :data:`DEFAULT_BLOCK_BYTES_CANDIDATES` converted through the row
        width.
    """
    if rows <= 0 or cols <= 0 or itemsize <= 0:
        raise ValueError(
            f"geometry must be positive, got rows={rows} cols={cols} "
            f"itemsize={itemsize}"
        )
    row_bytes = cols * itemsize
    if chunk_rows is None:
        chunk_rows = max(1, (1024 * 1024) // row_bytes)
    chunk_rows = min(chunk_rows, rows)

    if block_rows_candidates is None:
        block_rows_candidates = sorted(
            {
                max(1, min(rows, target // row_bytes))
                for target in DEFAULT_BLOCK_BYTES_CANDIDATES
            }
        )
    cache_pages = max(1, cache_bytes // page_size)
    # The fetch pattern repeats chunk over chunk; simulating a bounded prefix
    # keeps the advisor cheap without changing the ranking.
    sample_rows = min(rows, chunk_rows * _MAX_SIMULATED_CHUNKS)
    bytes_needed = sample_rows * row_bytes

    scored: List[CandidateScore] = []
    for block_rows in block_rows_candidates:
        if block_rows <= 0:
            raise ValueError(f"block_rows candidates must be positive, got {block_rows}")
        for layout in ("row", "column"):
            trace = _simulate_fetch_trace(
                sample_rows, cols, itemsize, chunk_rows, int(block_rows), layout,
            )
            pages = trace_to_page_sequence(trace, page_size)
            report = cache_friendliness(pages, cache_pages)
            fetched = len(pages) * page_size
            amplification = max(fetched / bytes_needed, 1e-9)
            scored.append(
                CandidateScore(
                    block_rows=int(block_rows),
                    layout=layout,
                    amplification=amplification,
                    friendliness=report,
                    score=report.score / amplification,
                )
            )
    scored.sort(
        key=lambda c: (-c.score, 0 if c.layout == "row" else 1, -c.block_rows)
    )
    best = scored[0]
    return BlockAdvice(
        block_rows=best.block_rows, layout=best.layout, candidates=tuple(scored)
    )
