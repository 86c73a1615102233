"""Tests for service and client nodes (queueing, routing, fan-out)."""

import numpy as np
import pytest

from repro.errors import SimulationError, TopologyError
from repro.simulation.des import Simulator
from repro.simulation.distributions import Constant
from repro.simulation.network import Fabric
from repro.simulation.nodes import (
    Absorb,
    ClientNode,
    Forward,
    LeafRouter,
    Message,
    Reply,
    Router,
    ServiceNode,
    SinkRouter,
    StaticRouter,
)


def make_system(**ws_kwargs):
    sim = Simulator()
    fabric = Fabric(sim, np.random.default_rng(0), default_latency=Constant(0.001))
    return sim, fabric


class TestMessage:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SimulationError):
            Message(1, "cls", "query", "A", "B", ("A",), 0.0)


class TestDecisions:
    def test_forward_requires_targets(self):
        with pytest.raises(SimulationError):
            Forward()

    def test_static_router_by_class(self):
        router = StaticRouter({"a": "X"}, default="Y")
        sim, fabric = make_system()
        node = ServiceNode(sim, fabric, "N", Constant(0.01), router=router)
        msg_a = Message(1, "a", "request", "C", "N", ("C",), 0.0)
        msg_b = Message(2, "b", "request", "C", "N", ("C",), 0.0)
        assert router.route(node, msg_a).targets == ("X",)
        assert router.route(node, msg_b).targets == ("Y",)

    def test_static_router_without_default_replies(self):
        router = StaticRouter({})
        decision = router.route(None, Message(1, "x", "request", "C", "N", ("C",), 0.0))
        assert isinstance(decision, Reply)

    def test_leaf_and_sink_routers(self):
        msg = Message(1, "x", "request", "C", "N", ("C",), 0.0)
        assert isinstance(LeafRouter().route(None, msg), Reply)
        assert isinstance(SinkRouter().route(None, msg), Absorb)


class TestRequestResponse:
    def test_single_hop_roundtrip(self):
        sim, fabric = make_system()
        server = ServiceNode(sim, fabric, "S", Constant(0.010))
        client = ClientNode(sim, fabric, "C", "cls", "S")
        client.issue_request()
        sim.run_until(1.0)
        assert client.completed == 1
        # Latency = 2 links + service time.
        assert client.latencies()[0] == pytest.approx(0.012, abs=1e-6)

    def test_three_tier_chain(self):
        sim, fabric = make_system()
        ServiceNode(sim, fabric, "DB", Constant(0.010))
        ServiceNode(sim, fabric, "AP", Constant(0.005),
                    router=StaticRouter({}, default="DB"),
                    response_service_time=Constant(0.001))
        ServiceNode(sim, fabric, "WS", Constant(0.002),
                    router=StaticRouter({}, default="AP"),
                    response_service_time=Constant(0.001))
        client = ClientNode(sim, fabric, "C", "cls", "WS")
        client.issue_request()
        sim.run_until(1.0)
        assert client.completed == 1
        # 6 links *1ms + request 2+5+10ms + response processing 1+1ms
        assert client.latencies()[0] == pytest.approx(0.025, abs=1e-6)

    def test_fanout_joins_all_children(self):
        sim, fabric = make_system()
        db = ServiceNode(sim, fabric, "DB", Constant(0.010), workers=10)
        ServiceNode(sim, fabric, "AP", Constant(0.005),
                    router=StaticRouter({}, default=("DB", "DB", "DB")))
        client = ClientNode(sim, fabric, "C", "cls", "AP")
        client.issue_request()
        sim.run_until(1.0)
        assert client.completed == 1
        assert db.serviced_requests == 3

    def test_absorb_terminates_without_response(self):
        sim, fabric = make_system()
        sink = ServiceNode(sim, fabric, "SINK", Constant(0.01), router=SinkRouter())
        client = ClientNode(sim, fabric, "C", "cls", "SINK")
        client.issue_request()
        sim.run_until(1.0)
        assert client.completed == 0
        assert client.outstanding == 1
        assert sink.serviced_requests == 1


class TestQueueing:
    def test_single_worker_serializes(self):
        sim, fabric = make_system()
        server = ServiceNode(sim, fabric, "S", Constant(0.010), workers=1)
        client = ClientNode(sim, fabric, "C", "cls", "S")
        for _ in range(3):
            client.issue_request()
        sim.run_until(1.0)
        lats = sorted(client.latencies())
        # Second and third requests wait behind the first.
        assert lats[0] == pytest.approx(0.012, abs=1e-6)
        assert lats[1] == pytest.approx(0.022, abs=1e-6)
        assert lats[2] == pytest.approx(0.032, abs=1e-6)
        assert server.mean_queue_delay() > 0

    def test_many_workers_parallelize(self):
        sim, fabric = make_system()
        ServiceNode(sim, fabric, "S", Constant(0.010), workers=3)
        client = ClientNode(sim, fabric, "C", "cls", "S")
        for _ in range(3):
            client.issue_request()
        sim.run_until(1.0)
        assert max(client.latencies()) == pytest.approx(0.012, abs=1e-6)

    def test_workers_validation(self):
        sim, fabric = make_system()
        with pytest.raises(SimulationError):
            ServiceNode(sim, fabric, "S", Constant(0.01), workers=0)

    def test_extra_delay_injection(self):
        sim, fabric = make_system()
        server = ServiceNode(sim, fabric, "S", Constant(0.010))
        server.set_extra_delay(lambda now: 0.050)
        client = ClientNode(sim, fabric, "C", "cls", "S")
        client.issue_request()
        sim.run_until(1.0)
        assert client.latencies()[0] == pytest.approx(0.062, abs=1e-6)

    def test_extra_delay_cleared(self):
        sim, fabric = make_system()
        server = ServiceNode(sim, fabric, "S", Constant(0.010))
        server.set_extra_delay(lambda now: 0.050)
        server.set_extra_delay(None)
        client = ClientNode(sim, fabric, "C", "cls", "S")
        client.issue_request()
        sim.run_until(1.0)
        assert client.latencies()[0] == pytest.approx(0.012, abs=1e-6)


class TestObservability:
    def test_service_totals(self):
        sim, fabric = make_system()
        server = ServiceNode(sim, fabric, "S", Constant(0.010))
        client = ClientNode(sim, fabric, "C", "cls", "S")
        client.issue_request()
        sim.run_until(1.0)
        assert server.serviced_requests == 1
        assert server.mean_service_time("cls") == pytest.approx(0.010)
        assert server.mean_service_time("cls", kind="response") == 0.0
        assert server.mean_service_time() == pytest.approx(0.010)

    def test_service_totals_split_by_kind(self):
        sim, fabric = make_system()
        ServiceNode(sim, fabric, "DB", Constant(0.010))
        ap = ServiceNode(sim, fabric, "AP", Constant(0.005),
                         router=StaticRouter({}, default="DB"),
                         response_service_time=Constant(0.001))
        client = ClientNode(sim, fabric, "C", "cls", "AP")
        client.issue_request()
        client.issue_request()
        sim.run_until(1.0)
        assert ap.mean_service_time("cls") == pytest.approx(0.005)
        assert ap.mean_service_time("cls", kind="response") == pytest.approx(0.001)

    def test_mean_queue_delay_averages_every_serviced_message(self):
        sim, fabric = make_system()
        server = ServiceNode(sim, fabric, "S", Constant(0.010), workers=1)
        client = ClientNode(sim, fabric, "C", "cls", "S")
        for _ in range(3):
            client.issue_request()
        sim.run_until(1.0)
        # The three requests wait 0, 10 and 20 ms behind each other.
        assert server.mean_queue_delay() == pytest.approx(0.010, abs=1e-9)

    def test_idle_node_reports_zero(self):
        sim, fabric = make_system()
        server = ServiceNode(sim, fabric, "S", Constant(0.010))
        sim.run_until(1.0)
        assert server.mean_service_time() == 0.0
        assert server.mean_queue_delay() == 0.0

    def test_extra_delay_counts_in_service_time(self):
        sim, fabric = make_system()
        server = ServiceNode(sim, fabric, "S", Constant(0.010))
        server.set_extra_delay(lambda now: 0.050)
        client = ClientNode(sim, fabric, "C", "cls", "S")
        client.issue_request()
        sim.run_until(1.0)
        assert server.mean_service_time("cls") == pytest.approx(0.060)

    def test_mean_service_time_by_class(self):
        sim, fabric = make_system()
        server = ServiceNode(sim, fabric, "S", Constant(0.010))
        c1 = ClientNode(sim, fabric, "C1", "a", "S")
        c2 = ClientNode(sim, fabric, "C2", "b", "S")
        c1.issue_request()
        c2.issue_request()
        sim.run_until(1.0)
        assert server.mean_service_time("a") == pytest.approx(0.010)
        assert server.mean_service_time("missing") == 0.0

    def test_client_latency_windowing(self):
        sim, fabric = make_system()
        ServiceNode(sim, fabric, "S", Constant(0.010))
        client = ClientNode(sim, fabric, "C", "cls", "S")
        client.issue_request()
        sim.run_until(0.5)
        sim.schedule(0.0, client.issue_request)
        sim.run_until(1.0)
        assert len(client.latencies()) == 2
        assert len(client.latencies(since=0.4)) == 1

    def test_client_rejects_unknown_response(self):
        sim, fabric = make_system()
        ServiceNode(sim, fabric, "S", Constant(0.01))
        client = ClientNode(sim, fabric, "C", "cls", "S")
        bogus = Message(999, "cls", "response", "S", "C", (), 0.0)
        with pytest.raises(SimulationError):
            client.receive(bogus)

    def test_client_rejects_request_kind(self):
        sim, fabric = make_system()
        ServiceNode(sim, fabric, "S", Constant(0.01))
        client = ClientNode(sim, fabric, "C", "cls", "S")
        bogus = Message(999, "cls", "request", "S", "C", (), 0.0)
        with pytest.raises(SimulationError):
            client.receive(bogus)
