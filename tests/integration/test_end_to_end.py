"""End-to-end integration tests: generate → map → learn → evaluate → project.

These cover the full pipeline a user of the reproduction would run, including
the projection of a recorded access pattern to paper scale through the
virtual-memory simulator.
"""

import numpy as np
import pytest

from repro.api import Session, StreamingEngine, plan_chunks
from repro.bench.m3_model import M3RuntimeModel, M3Workload
from repro.data.writers import write_infimnist_dataset
from repro.ml import SoftmaxRegression
from repro.ml.metrics import accuracy
from repro.vmem.vm_simulator import VirtualMemoryConfig, VirtualMemorySimulator

GIB = 1024 ** 3


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Generate a dataset, train through the memory map, keep the trace."""
    path = tmp_path_factory.mktemp("e2e") / "digits.m3"
    write_infimnist_dataset(path, num_examples=700, seed=5)
    with Session() as session:
        X, y = session.open(f"mmap://{path}", record_trace=True).arrays()
        labels = np.asarray(y)
        model = SoftmaxRegression(max_iterations=8, l2_penalty=1e-4).fit(X, labels)
        yield path, X, labels, model


class TestLearningQuality:
    def test_digit_classifier_is_accurate(self, pipeline):
        _, X, labels, model = pipeline
        predictions = model.predict(X)
        assert accuracy(labels, predictions) > 0.85

    def test_holdout_generalisation(self, pipeline):
        """The model trained on disk generalises to freshly generated images."""
        from repro.data.infimnist import InfimnistGenerator

        _, _, _, model = pipeline
        X_new, y_new = InfimnistGenerator(seed=5).batch(700, 300)
        assert accuracy(y_new, model.predict(X_new)) > 0.7


class TestScaleProjection:
    def test_recorded_trace_replays_in_simulator(self, pipeline):
        _, X, _, _ = pipeline
        trace = X.trace
        simulator = VirtualMemorySimulator(
            VirtualMemoryConfig(ram_bytes=64 * 1024 * 1024, page_size=64 * 1024)
        )
        result = simulator.run_trace(trace, file_bytes=X.nbytes + 64)
        assert result.wall_time_s > 0
        assert result.io_stats.bytes_read >= X.nbytes

    def test_chunk_plan_projection_to_paper_scale(self, pipeline):
        """The same access pattern, projected to 190 GB on a 32 GB machine, is
        I/O bound and takes on the order of the paper's reported runtime."""
        _, _, _, model = pipeline
        passes = model.result_.function_evaluations
        runtime_model = M3RuntimeModel()
        estimate = runtime_model.estimate(
            M3Workload(name="softmax", passes=passes), dataset_bytes=190 * 1000 ** 3
        )
        assert estimate.disk_utilization > 0.8
        assert 500 < estimate.wall_time_s < 10_000


class TestStreamingOnSameData:
    def test_streaming_predict_matches_in_core(self, pipeline):
        path, X, _, model = pipeline
        with Session() as session:
            result = session.predict(
                f"mmap://{path}", model, engine=StreamingEngine(chunk_rows=128)
            )
        assert result.n_rows == X.shape[0]
        assert np.array_equal(result.predictions, model.predict(np.asarray(X)))


class TestOutOfCorePipelineOnDisk:
    def test_chunk_plan_matches_file_geometry(self, pipeline):
        path, X, _, _ = pipeline
        plan = plan_chunks(X, chunk_rows=256)
        assert plan.num_chunks == -(-X.shape[0] // 256)
        assert plan.total_bytes == X.nbytes
        with Session() as session:
            assert session.info(path)["nbytes"] == plan.total_bytes
