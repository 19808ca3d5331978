"""Property-based tests for the Spark cost model."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.bench.workloads import dataset_bytes_for_gb
from repro.distributed.cluster import make_emr_cluster
from repro.distributed.cost_model import SparkCostModel, SparkWorkload


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

