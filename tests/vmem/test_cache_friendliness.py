"""Tests for the cache-friendliness metrics and the block/layout advisor."""

import numpy as np
import pytest

from repro.vmem.advisor import BlockAdvice, advise_block_layout
from repro.vmem.locality import (
    CacheFriendlinessReport,
    cache_friendliness,
    roundtrip_intervals,
    spatial_locality_degree,
    temporal_locality_degree,
)


class TestSpatialLocality:
    def test_sequential_scan_is_perfect(self):
        assert spatial_locality_degree(list(range(100))) == 1.0

    def test_random_jumps_score_low(self):
        jumpy = [0, 1000, 5, 9000, 42, 7777]
        assert spatial_locality_degree(jumpy) < 0.1

    def test_short_sequences(self):
        assert spatial_locality_degree([]) == 1.0
        assert spatial_locality_degree([3]) == 1.0

    def test_stride_two_scores_between(self):
        strided = list(range(0, 200, 2))
        score = spatial_locality_degree(strided)
        assert 0.4 < score < 0.6  # 1/(1+|2-1|) = 0.5


class TestTemporalLocality:
    def test_immediate_reuse_scores_high(self):
        assert temporal_locality_degree([1, 1, 1, 1]) > 0.7

    def test_no_reuse_scores_zero(self):
        assert temporal_locality_degree(list(range(50))) == 0.0

    def test_empty_sequence(self):
        assert temporal_locality_degree([]) == 0.0


class TestRoundtripIntervals:
    def test_fits_in_cache_no_roundtrips(self):
        sequence = [0, 1, 2, 0, 1, 2]
        assert roundtrip_intervals(sequence, cache_pages=3) == []

    def test_cyclic_scan_over_small_cache_roundtrips(self):
        # 4 distinct pages through a 2-page LRU: every revisit is a refetch
        # of an evicted page.
        sequence = [0, 1, 2, 3] * 3
        trips = roundtrip_intervals(sequence, cache_pages=2)
        assert len(trips) == 8  # every access after the first cycle
        assert all(t > 0 for t in trips)

    def test_invalid_cache_rejected(self):
        with pytest.raises(ValueError):
            roundtrip_intervals([0, 1], cache_pages=0)


class TestCacheFriendliness:
    def test_report_fields_and_score(self):
        report = cache_friendliness(list(range(10)) * 2, cache_pages=100)
        assert isinstance(report, CacheFriendlinessReport)
        assert report.total_page_accesses == 20
        assert 0.0 <= report.miss_ratio <= 1.0
        assert 0.0 <= report.score <= 1.0

    def test_sequential_beats_random(self, rng):
        n = 400
        sequential = list(range(n)) * 2
        random_pages = rng.integers(0, 10_000, size=2 * n).tolist()
        cache = 64
        assert (
            cache_friendliness(sequential, cache).score
            > cache_friendliness(random_pages, cache).score
        )

    def test_small_cache_raises_miss_ratio(self):
        sequence = list(range(100)) * 3
        big = cache_friendliness(sequence, cache_pages=200)
        small = cache_friendliness(sequence, cache_pages=10)
        assert small.miss_ratio > big.miss_ratio
        assert small.score < big.score


class TestAdvisor:
    def test_full_scan_prefers_row_layout(self):
        advice = advise_block_layout(rows=100_000, cols=64, itemsize=8,
                                     chunk_rows=2000)
        assert isinstance(advice, BlockAdvice)
        assert advice.layout == "row"

    def test_tiny_column_segments_penalised(self):
        # 128-row blocks: a column segment is 1 KiB, a quarter of a page.
        advice = advise_block_layout(rows=100_000, cols=64, itemsize=8,
                                     chunk_rows=2000, block_rows_candidates=[128])
        by_layout = {c.layout: c for c in advice.candidates}
        assert by_layout["column"].amplification > 2 * by_layout["row"].amplification

    def test_oversized_blocks_penalised(self):
        advice = advise_block_layout(
            rows=100_000, cols=64, itemsize=8, chunk_rows=1000,
            block_rows_candidates=[500, 16_000],
        )
        # 16k-row blocks overlap ~16 chunks each and get re-fetched per
        # chunk; the chunk-sized candidate must win.
        assert advice.block_rows == 500
        by_rows = {c.block_rows: c for c in advice.candidates
                   if c.layout == advice.layout}
        assert by_rows[16_000].amplification > 4 * by_rows[500].amplification

    def test_candidates_ranked_best_first(self):
        advice = advise_block_layout(rows=50_000, cols=32, itemsize=8,
                                     chunk_rows=1000)
        scores = [c.score for c in advice.candidates]
        assert scores == sorted(scores, reverse=True)
        assert advice.candidates[0].block_rows == advice.block_rows
        assert advice.candidates[0].layout == advice.layout

    def test_as_dict_is_json_friendly(self):
        import json

        advice = advise_block_layout(rows=10_000, cols=16, itemsize=8)
        payload = advice.as_dict()
        json.dumps(payload)  # must not raise
        assert payload["block_rows"] == advice.block_rows
        assert len(payload["candidates"]) == len(advice.candidates)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            advise_block_layout(rows=0, cols=4)
        with pytest.raises(ValueError):
            advise_block_layout(rows=10, cols=4, block_rows_candidates=[0])
