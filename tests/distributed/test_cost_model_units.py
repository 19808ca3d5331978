"""Unit checks of the Spark cost model's building blocks, one formula at a time.

``test_cost_model.py`` and ``test_cluster_hdfs_shuffle.py`` check the shape of
Figure 1b; these pin the arithmetic each component contributes to it.
"""

import pytest

from repro.bench.workloads import dataset_bytes_for_gb
from repro.distributed.cluster import EC2_M3_2XLARGE, GIB, ClusterSpec, make_emr_cluster
from repro.distributed.cost_model import SparkCostModel, SparkWorkload
from repro.distributed.hdfs import HdfsConfig, HdfsModel
from repro.distributed.shuffle import NetworkModel, ShuffleCost

DATASET_190GB = dataset_bytes_for_gb(190)
DATASET_10GB = dataset_bytes_for_gb(10)


class TestClusterArithmetic:
    def test_default_name_comes_from_instance(self):
        assert ClusterSpec(instances=2).name == "2x m3.2xlarge"

    def test_throughputs_scale_with_instances(self):
        four = make_emr_cluster(4)
        eight = make_emr_cluster(8)
        assert four.total_cpu_flops == 4 * EC2_M3_2XLARGE.cpu_flops
        assert eight.total_cpu_flops == 2 * four.total_cpu_flops
        assert four.aggregate_disk_bandwidth == 4 * EC2_M3_2XLARGE.local_disk_bandwidth
        assert eight.aggregate_disk_bandwidth == 2 * four.aggregate_disk_bandwidth

    def test_cache_fraction_shrinks_as_data_grows(self):
        cluster = make_emr_cluster(4)
        sizes = [GIB, 10 * GIB, 100 * GIB, 1000 * GIB]
        fractions = [cluster.cache_fraction(size) for size in sizes]
        assert fractions == sorted(fractions, reverse=True)
        assert all(0.0 < fraction <= 1.0 for fraction in fractions)


class TestHdfsArithmetic:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            HdfsModel(make_emr_cluster(4)).num_blocks(-1)

    def test_fully_local_scan_is_disk_plus_block_overhead(self):
        cluster = make_emr_cluster(4)
        config = HdfsConfig(locality_fraction=1.0)
        model = HdfsModel(cluster, config)
        nbytes = 10 * GIB
        expected = (
            nbytes / cluster.aggregate_disk_bandwidth
            + model.num_blocks(nbytes) * config.read_overhead_s / cluster.instances
        )
        assert model.scan_time_s(nbytes) == pytest.approx(expected)

    def test_unreplicated_write_is_disk_bound(self):
        cluster = make_emr_cluster(4)
        model = HdfsModel(cluster, HdfsConfig(replication=1))
        assert model.write_time_s(GIB) == pytest.approx(GIB / cluster.aggregate_disk_bandwidth)

    def test_replication_and_overhead_validated(self):
        with pytest.raises(ValueError):
            HdfsConfig(replication=0).validate()
        with pytest.raises(ValueError):
            HdfsConfig(read_overhead_s=-0.1).validate()


class TestShuffleArithmetic:
    def test_wider_fanout_is_shallower(self):
        binary = ShuffleCost(make_emr_cluster(8))
        quaternary = ShuffleCost(make_emr_cluster(8), tree_fanout=4)
        assert quaternary.tree_depth(64) == 3
        assert binary.tree_depth(64) == 6
        assert quaternary.aggregate_time_s(1_000, 64) < binary.aggregate_time_s(1_000, 64)

    def test_single_instance_broadcast_is_one_transfer(self):
        cluster = make_emr_cluster(1)
        shuffle = ShuffleCost(cluster)
        expected = NetworkModel().transfer_time_s(1_000_000, cluster.instance.network_bandwidth)
        assert shuffle.broadcast_time_s(1_000_000) == pytest.approx(expected)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            ShuffleCost(make_emr_cluster(4)).aggregate_time_s(-1, 8)

    def test_transfer_time_is_fixed_cost_plus_bandwidth(self):
        network = NetworkModel(latency_s=1e-3, software_overhead_s=2e-3)
        assert network.transfer_time_s(0, 1e6) == pytest.approx(3e-3)
        assert network.transfer_time_s(2_000_000, 1e6) == pytest.approx(2.003)


class TestWorkloadArithmetic:
    def test_invalid_passes_and_throughputs_rejected(self):
        with pytest.raises(ValueError):
            SparkWorkload(name="bad", dataset_bytes=10, passes_per_iteration=0.0)
        with pytest.raises(ValueError):
            SparkWorkload(name="bad", dataset_bytes=10, per_core_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            SparkWorkload(name="bad", dataset_bytes=10, deserialization_bytes_per_s=-1.0)

    def test_model_bytes_follow_feature_and_cluster_counts(self):
        lr = SparkWorkload.logistic_regression(DATASET_10GB, n_features=99)
        km = SparkWorkload.kmeans(DATASET_10GB, n_clusters=3, n_features=99)
        assert lr.model_bytes == 8 * 100
        assert km.model_bytes == 8 * 3 * 100


class TestEstimateArithmetic:
    def test_runtime_beyond_startup_is_linear_in_iterations(self):
        model = SparkCostModel(make_emr_cluster(4))
        ten = model.estimate(SparkWorkload.logistic_regression(DATASET_190GB, iterations=10))
        twenty = model.estimate(SparkWorkload.logistic_regression(DATASET_190GB, iterations=20))
        assert twenty.startup_time_s == ten.startup_time_s
        assert twenty.total_time_s - twenty.startup_time_s == pytest.approx(
            2 * (ten.total_time_s - ten.startup_time_s)
        )

    def test_cached_fraction_uses_usable_cluster_memory(self):
        model = SparkCostModel(make_emr_cluster(4), os_cache_fraction=0.5)
        usable = model.usable_cache_bytes()
        assert usable == int(model.cluster.total_memory_bytes * 0.5)
        assert model.cached_fraction(0) == 1.0
        assert model.cached_fraction(usable) == pytest.approx(1.0)
        assert model.cached_fraction(4 * usable) == pytest.approx(0.25)

    def test_estimate_is_labelled_with_cluster_and_workload(self):
        estimate = SparkCostModel(make_emr_cluster(8)).estimate(SparkWorkload.kmeans(DATASET_10GB))
        assert estimate.cluster_name == "8x Spark"
        assert estimate.workload_name == "kmeans"
        assert estimate.cached_fraction == pytest.approx(1.0)
