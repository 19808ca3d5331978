"""Tests for the execution engines."""

import numpy as np
import pytest

from repro.api import (
    ENGINE_REGISTRY,
    ExecutionEngine,
    LocalEngine,
    Session,
    StreamingEngine,
    resolve_engine,
)
from repro.ml import LogisticRegression
from repro.vmem.vm_simulator import VirtualMemoryConfig, VirtualMemorySimulator


@pytest.fixture()
def session_dataset(tmp_path):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(80, 6))
    y = (X[:, 0] + 0.1 * rng.normal(size=80) > 0).astype(np.int64)
    session = Session()
    session.create(f"mmap://{tmp_path}/e.m3", X, y)
    dataset = session.open(f"mmap://{tmp_path}/e.m3")
    yield session, dataset, X, y
    session.close()


class TestResolveEngine:
    def test_by_name(self):
        assert isinstance(resolve_engine("local"), LocalEngine)
        assert isinstance(resolve_engine("streaming"), StreamingEngine)

    @pytest.mark.parametrize("name", ["local", "streaming"])
    def test_each_name_builds_a_fresh_engine(self, name):
        first, second = resolve_engine(name), resolve_engine(name)
        assert type(first) is ENGINE_REGISTRY[name]
        assert first.name == name
        assert first is not second

    def test_none_is_local(self):
        assert isinstance(resolve_engine(None), LocalEngine)

    def test_instance_and_class(self):
        engine = StreamingEngine()
        assert resolve_engine(engine) is engine
        assert isinstance(resolve_engine(LocalEngine), LocalEngine)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            resolve_engine("gpu")
        with pytest.raises(TypeError):
            resolve_engine(42)
        with pytest.raises(
            ValueError,
            match=r"unknown execution engine 'distributed' \(known: local, streaming\)",
        ):
            resolve_engine("distributed")
        with pytest.raises(ValueError, match="unknown execution engine 'simulated'"):
            resolve_engine("simulated")

    def test_custom_engine_instance_through_fit(self, session_dataset):
        # A substitute engine is passed as an instance; Session.fit dispatches
        # to it like to a named engine, and the registry stays fixed.
        class EchoEngine(LocalEngine):
            name = "echo"

        session, dataset, _, _ = session_dataset
        result = session.fit(LogisticRegression(max_iterations=3), dataset, engine=EchoEngine())
        assert result.engine == "echo"
        assert "echo" not in ENGINE_REGISTRY


class TestLocalEngine:
    def test_fit(self, session_dataset):
        session, dataset, X, y = session_dataset
        result = session.fit(LogisticRegression(max_iterations=5), dataset)
        assert result.engine == "local"
        assert result.trace is None  # the dataset records no trace by default
        assert result.model.score(X, y) > 0.9


class TestRecordThenReplay:
    """Paper-scale replay is no engine: record a trace on one, replay it."""

    @pytest.fixture()
    def traced(self, session_dataset):
        session, dataset, _, _ = session_dataset
        return session, session.open(dataset.spec, record_trace=True)

    def test_fit_hands_over_the_trace_to_replay(self, traced):
        session, dataset = traced
        result = session.fit(LogisticRegression(max_iterations=3), dataset)
        assert result.trace is dataset.trace and len(result.trace) > 0
        simulation = VirtualMemorySimulator(VirtualMemoryConfig()).run_trace(result.trace)
        assert simulation.wall_time_s > 0

    def test_trace_covers_every_pass(self, traced):
        session, dataset = traced
        result = session.fit(LogisticRegression(max_iterations=3), dataset)
        assert result.trace.total_bytes % dataset.nbytes == 0
        assert result.trace.total_bytes // dataset.nbytes >= 2

    def test_custom_machine(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(2000, 64))  # ~1 MB, far exceeds the tiny RAM below
        y = (X[:, 0] > 0).astype(np.int64)
        with Session() as session:
            session.create(f"mmap://{tmp_path}/big.m3", X, y)
            dataset = session.open(f"mmap://{tmp_path}/big.m3", record_trace=True)
            trace = session.fit(LogisticRegression(max_iterations=3), dataset).trace
        slow = VirtualMemorySimulator(VirtualMemoryConfig(ram_bytes=1 << 16)).run_trace(trace)
        fast = VirtualMemorySimulator(VirtualMemoryConfig(ram_bytes=1 << 34)).run_trace(trace)
        # A machine whose RAM cannot hold the dataset re-reads it every pass.
        assert slow.io_stats.bytes_read > fast.io_stats.bytes_read
        assert slow.wall_time_s > fast.wall_time_s


class TestEngineProtocol:
    def test_engines_are_registered(self):
        assert set(ENGINE_REGISTRY) == {"local", "streaming"}
        for engine_class in ENGINE_REGISTRY.values():
            assert issubclass(engine_class, ExecutionEngine)
