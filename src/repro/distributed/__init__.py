"""The paper's Spark baseline, as a paper-scale cost model.

The paper compares M3 against Spark MLlib running on 4- and 8-instance Amazon
EC2 clusters (m3.2xlarge: 8 vCPUs, 30 GB RAM, 2×80 GB SSD) with the data on
HDFS.  We cannot provision EC2 offline, so this package models those clusters
instead of running them: :class:`~repro.distributed.cost_model.SparkCostModel`,
with the cluster, HDFS and shuffle models beneath it, predicts the wall-clock
time a job would take on the paper's clusters.  It captures the mechanisms the
paper cites for Spark's slowdown: per-task scheduling overhead, reading from
HDFS when the working set exceeds aggregate executor memory, and network
aggregation of model updates.

Figure 1b (``m3 reproduce``) runs the same workload through the M3 virtual
memory simulator and through this cost model with 4 and 8 instances.  The
estimates are modelled, not measured: nothing here executes a Spark job.
"""

from repro.distributed.cluster import ClusterSpec, InstanceSpec, EC2_M3_2XLARGE, make_emr_cluster
from repro.distributed.hdfs import HdfsConfig, HdfsModel
from repro.distributed.shuffle import NetworkModel, ShuffleCost
from repro.distributed.cost_model import SparkCostModel, SparkJobEstimate, SparkWorkload

__all__ = [
    "ClusterSpec",
    "InstanceSpec",
    "EC2_M3_2XLARGE",
    "make_emr_cluster",
    "HdfsConfig",
    "HdfsModel",
    "NetworkModel",
    "ShuffleCost",
    "SparkCostModel",
    "SparkJobEstimate",
    "SparkWorkload",
]
