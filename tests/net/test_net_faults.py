"""Fault injection at the transport sites: net.accept / net.read / net.write."""

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, fault_sites
from repro.net import NetClient
from repro.serve import ServerClosed


class TestSiteRegistry:
    def test_transport_sites_are_registered(self):
        sites = fault_sites()
        for site in ("net.accept", "net.read", "net.write"):
            assert site in sites

    def test_transport_sites_parse_in_a_plan(self):
        plan = FaultPlan.parse("net.accept:n=1:seed=7, net.read:p=0.5, net.write")
        assert plan.sites == ("net.accept", "net.read", "net.write")


class TestAcceptFaults:
    def test_faulted_connection_drops_but_the_listener_survives(self, live, problem,
                                                                framed, wait_stats):
        X, _ = problem
        net = live()
        faults.set_fault_plan(FaultPlan.parse("net.accept:n=1:seed=7"))
        first = NetClient(net.host, net.port, timeout_s=5.0)
        try:
            # The TCP connect succeeded, but the server dropped the
            # connection at the accept site: the request fails typed.
            with pytest.raises((OSError, ServerClosed)):
                future = first.submit(framed(X[0]))
                future.result(timeout=10.0)
        finally:
            first.close()
        stats = wait_stats(
            net, lambda s: s.faults_injected >= 1 and s.dropped_connections >= 1
        )
        assert stats.faults_injected == 1
        assert stats.dropped_connections == 1
        # The budget (n=1) is spent: the next connection serves normally.
        with NetClient(net.host, net.port) as second:
            assert second.predict_one(framed(X[0])).model_key == "default@1"
        assert faults.active_plan().fires("net.accept") == 1


class TestReadFaults:
    def test_faulted_frame_read_drops_only_that_connection(self, live, problem, framed,
                                                           wait_stats):
        X, _ = problem
        net = live()
        # Connected (hello exchanged) before the plan arms, so the one
        # fault lands on the request frame, in whichever framing.
        first = NetClient(net.host, net.port, timeout_s=5.0)
        faults.set_fault_plan(FaultPlan.parse("net.read:n=1:seed=3"))
        try:
            with pytest.raises((OSError, ServerClosed)):
                first.submit(framed(X[0])).result(timeout=10.0)
        finally:
            first.close()
        stats = wait_stats(net, lambda s: s.faults_injected >= 1)
        assert stats.faults_injected == 1
        assert stats.dropped_connections == 1
        with NetClient(net.host, net.port) as second:
            np.testing.assert_array_equal(
                second.predict(framed(X[:4])).predictions,
                net.server.registry.resolve("default").model.predict(X[:4]),
            )


class TestWriteFaults:
    def test_faulted_response_write_aborts_the_connection(self, live, problem, framed,
                                                          wait_stats):
        X, _ = problem
        net = live()
        # Connected (hello exchanged) before the plan arms, so the one
        # fault lands on the request frame, in whichever framing.
        first = NetClient(net.host, net.port, timeout_s=5.0)
        faults.set_fault_plan(FaultPlan.parse("net.write:n=1:seed=5"))
        try:
            with pytest.raises((OSError, ServerClosed)):
                first.submit(framed(X[0])).result(timeout=10.0)
        finally:
            first.close()
        stats = wait_stats(net, lambda s: s.faults_injected >= 1)
        assert stats.faults_injected == 1
        # The request itself was served — the fault hit the write path,
        # after dispatch — and later connections are untouched.
        with NetClient(net.host, net.port) as second:
            assert second.predict_one(framed(X[0])).batch_rows >= 1
        assert faults.active_plan().fires("net.write") == 1


class TestDisarmed:
    def test_no_plan_means_no_drops(self, live, problem, framed):
        X, _ = problem
        assert faults.active_plan() is None
        net = live()
        with NetClient(net.host, net.port) as client:
            for i in range(5):
                client.predict_one(framed(X[i]))
        stats = net.stats()
        assert stats.faults_injected == 0
        assert stats.dropped_connections == 0
