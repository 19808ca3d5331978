"""Property-based tests for the Spark cost model and the locality analysis."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.bench.workloads import dataset_bytes_for_gb
from repro.distributed.cluster import make_emr_cluster
from repro.distributed.cost_model import SparkCostModel, SparkWorkload
from repro.vmem.locality import build_miss_ratio_curve, reuse_distances
from repro.vmem.page_cache import PageCache, PageCacheConfig
from repro.vmem.readahead import NoReadAhead
from repro.vmem.trace import AccessTrace

PAGE = 4096


class TestCostModelProperties:
    @given(
        size_gb=st.integers(1, 400),
        instances=st.integers(1, 32),
    )
    @settings(max_examples=40, deadline=None)
    def test_estimates_are_positive_and_decomposable(self, size_gb, instances):
        workload = SparkWorkload.logistic_regression(dataset_bytes_for_gb(size_gb))
        estimate = SparkCostModel(make_emr_cluster(instances)).estimate(workload)
        assert estimate.total_time_s > 0
        assert abs(sum(estimate.breakdown().values()) - estimate.total_time_s) < 1e-6
        assert 0.0 <= estimate.cached_fraction <= 1.0

    @given(size_gb=st.integers(1, 400))
    @settings(max_examples=30, deadline=None)
    def test_more_instances_never_slower(self, size_gb):
        workload = SparkWorkload.kmeans(dataset_bytes_for_gb(size_gb))
        previous = None
        for instances in (2, 4, 8, 16):
            estimate = SparkCostModel(make_emr_cluster(instances)).estimate(workload)
            if previous is not None:
                assert estimate.total_time_s <= previous + 1e-9
            previous = estimate.total_time_s


class TestLocalityProperties:
    @given(
        pages=st.lists(st.integers(0, 25), min_size=1, max_size=150),
        capacity=st.integers(1, 30),
    )
    @settings(max_examples=50, deadline=None)
    def test_miss_ratio_curve_matches_lru_simulation(self, pages, capacity):
        """Mattson's algorithm and the simulated LRU cache must always agree."""
        trace = AccessTrace()
        for page in pages:
            trace.record(page * PAGE, PAGE)
        curve = build_miss_ratio_curve(trace, page_size=PAGE)

        cache = PageCache(
            PageCacheConfig(ram_bytes=capacity * PAGE, page_size=PAGE, readahead=NoReadAhead())
        )
        for page in pages:
            cache.access_page(page)
        assert curve.miss_ratio(capacity) == cache.stats.fault_rate

    @given(pages=st.lists(st.integers(0, 40), min_size=1, max_size=150))
    @settings(max_examples=50)
    def test_reuse_distance_invariants(self, pages):
        distances = reuse_distances(pages)
        assert len(distances) == len(pages)
        # The number of infinite distances equals the number of distinct pages.
        assert sum(1 for d in distances if d == -1) == len(set(pages))
        # Finite distances are bounded by the number of distinct pages minus one.
        for distance in distances:
            if distance != -1:
                assert 0 <= distance <= len(set(pages)) - 1
