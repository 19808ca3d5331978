"""Tests for the execution engines."""

import numpy as np
import pytest

from repro.api import (
    ENGINE_REGISTRY,
    ExecutionEngine,
    LocalEngine,
    Session,
    SimulatedEngine,
    StreamingEngine,
    resolve_engine,
)
from repro.ml import LogisticRegression
from repro.vmem.vm_simulator import VirtualMemoryConfig


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
        assert isinstance(resolve_engine("simulated"), SimulatedEngine)
        assert isinstance(resolve_engine("streaming"), StreamingEngine)

    @pytest.mark.parametrize("name", ["local", "simulated", "streaming"])
    def test_each_name_builds_a_fresh_engine(self, name):
        first, second = resolve_engine(name), resolve_engine(name)
        assert type(first) is ENGINE_REGISTRY[name]
        assert first.name == name
        assert first is not second

    def test_none_is_local(self):
        assert isinstance(resolve_engine(None), LocalEngine)

    def test_instance_and_class(self):
        engine = SimulatedEngine()
        assert resolve_engine(engine) is engine
        assert isinstance(resolve_engine(LocalEngine), LocalEngine)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            resolve_engine("gpu")
        with pytest.raises(TypeError):
            resolve_engine(42)
        with pytest.raises(
            ValueError,
            match=r"unknown execution engine 'distributed' \(known: local, simulated, streaming\)",
        ):
            resolve_engine("distributed")

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
        assert result.simulation is None
        assert result.model.score(X, y) > 0.9


class TestSimulatedEngine:
    def test_fit_attaches_simulation(self, session_dataset):
        session, dataset, _, _ = session_dataset
        result = session.fit(
            LogisticRegression(max_iterations=3), dataset, engine="simulated"
        )
        assert result.engine == "simulated"
        assert result.trace is not None and len(result.trace) > 0
        assert result.simulation is not None
        assert result.simulation.wall_time_s > 0
        assert result.details["simulated_wall_time_s"] == result.simulation.wall_time_s

    def test_trace_covers_every_pass(self, session_dataset):
        session, dataset, _, _ = session_dataset
        result = session.fit(
            LogisticRegression(max_iterations=3), dataset, engine="simulated"
        )
        assert result.trace.total_bytes % dataset.nbytes == 0
        assert result.trace.total_bytes // dataset.nbytes >= 2

    def test_does_not_leave_trace_attached(self, session_dataset):
        session, dataset, _, _ = session_dataset
        session.fit(LogisticRegression(max_iterations=3), dataset, engine="simulated")
        assert dataset.trace is None

    def test_restores_previous_trace(self, session_dataset):
        session, dataset, _, _ = session_dataset
        mine = dataset.start_trace("mine")
        session.fit(LogisticRegression(max_iterations=3), dataset, engine="simulated")
        assert dataset.trace is mine

    def test_custom_machine(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(2000, 64))  # ~1 MB, far exceeds the tiny RAM below
        y = (X[:, 0] > 0).astype(np.int64)
        with Session() as session:
            session.create(f"mmap://{tmp_path}/big.m3", X, y)
            dataset = session.open(f"mmap://{tmp_path}/big.m3")
            tiny = SimulatedEngine(VirtualMemoryConfig(ram_bytes=1 << 16))
            big = SimulatedEngine(VirtualMemoryConfig(ram_bytes=1 << 34))
            slow = session.fit(LogisticRegression(max_iterations=3), dataset, engine=tiny)
            fast = session.fit(LogisticRegression(max_iterations=3), dataset, engine=big)
        # A machine whose RAM cannot hold the dataset re-reads it every pass.
        assert slow.simulation.io_stats.bytes_read > fast.simulation.io_stats.bytes_read
        assert slow.simulation.wall_time_s > fast.simulation.wall_time_s


class TestEngineProtocol:
    def test_engines_are_registered(self):
        assert set(ENGINE_REGISTRY) == {"local", "simulated", "streaming"}
        for engine_class in ENGINE_REGISTRY.values():
            assert issubclass(engine_class, ExecutionEngine)
