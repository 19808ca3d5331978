"""Stall deadlines: a wedged reader surfaces as a diagnostic
:class:`ChunkStreamError` within ``stall_timeout_s`` — never a hang — and
teardown afterwards leaks neither threads nor leases (suite guards).  The
stall itself is exercised for every reader count and storage kind in
``tests/api/test_chunk_stream.py``; here, the deadline's plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.chunks import open_chunk_stream


class TestStallDeadlinePlumbing:
    @pytest.mark.parametrize("options", [{}, {"prefetch": False}, {"io_workers": 2}])
    def test_invalid_timeout_rejected(self, options):
        with pytest.raises(ValueError, match="stall_timeout_s"):
            open_chunk_stream(np.zeros((16, 2)), chunk_rows=8, stall_timeout_s=0.0, **options)

    def test_recovery_after_transient_slowness(self):
        """A deadline comfortably above the read time never fires."""
        matrix = np.arange(64.0).reshape(32, 2)
        stream = open_chunk_stream(
            matrix, chunk_rows=8, io_workers=2, hints=False, stall_timeout_s=5.0
        )
        rows = sum(chunk.rows for chunk in stream)
        assert rows == 32
        stream.close()

    def test_open_chunk_stream_threads_timeout_through(self):
        matrix = np.zeros((16, 2))
        stream = open_chunk_stream(matrix, chunk_rows=8, stall_timeout_s=1.5)
        assert stream.stall_timeout_s == 1.5
        stream.close()
        parallel = open_chunk_stream(
            matrix, chunk_rows=8, io_workers=2, hints=False, stall_timeout_s=2.5
        )
        assert parallel.stall_timeout_s == 2.5
        parallel.close()
