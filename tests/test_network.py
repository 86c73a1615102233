"""Tests for the network fabric (links, latency, capture hooks)."""

import numpy as np
import pytest

from repro.errors import SimulationError, TopologyError
from repro.simulation.des import Simulator
from repro.simulation.distributions import Constant
from repro.simulation.network import Fabric, PACKET_GAP
from repro.simulation.nodes import ClientNode, Message, ServiceNode
from repro.tracing.tracer import Tracer


def make_fabric(**kwargs):
    sim = Simulator()
    fabric = Fabric(sim, np.random.default_rng(0), default_latency=Constant(0.001), **kwargs)
    return sim, fabric


class TestRegistration:
    def test_duplicate_node_rejected(self):
        sim, fabric = make_fabric()
        ServiceNode(sim, fabric, "A", Constant(0.01))
        with pytest.raises(TopologyError):
            ServiceNode(sim, fabric, "A", Constant(0.01))

    def test_unknown_node_lookup(self):
        sim, fabric = make_fabric()
        with pytest.raises(TopologyError):
            fabric.node("ghost")

    def test_has_node(self):
        sim, fabric = make_fabric()
        ServiceNode(sim, fabric, "A", Constant(0.01))
        assert fabric.has_node("A")
        assert not fabric.has_node("B")

    def test_duplicate_tracer_rejected(self):
        sim, fabric = make_fabric()
        fabric.attach_tracer(Tracer("A"))
        with pytest.raises(TopologyError):
            fabric.attach_tracer(Tracer("A"))

    def test_send_to_unknown_node(self):
        sim, fabric = make_fabric()
        ServiceNode(sim, fabric, "A", Constant(0.01))
        msg = Message(1, "c", "request", "A", "ghost", ("A",), 0.0)
        with pytest.raises(TopologyError):
            fabric.send(msg)

    def test_packets_per_message_validation(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Fabric(sim, np.random.default_rng(0), packets_per_message=0)


class TestLatency:
    def test_default_latency_applies(self):
        sim, fabric = make_fabric()
        ServiceNode(sim, fabric, "S", Constant(0.0))
        client = ClientNode(sim, fabric, "C", "cls", "S")
        client.issue_request()
        sim.run_until(1.0)
        assert client.latencies()[0] == pytest.approx(0.002, abs=1e-9)

    def test_per_link_override(self):
        sim, fabric = make_fabric()
        ServiceNode(sim, fabric, "S", Constant(0.0))
        client = ClientNode(sim, fabric, "C", "cls", "S")
        fabric.set_latency("C", "S", Constant(0.020))
        client.issue_request()
        sim.run_until(1.0)
        # 20ms out, default 1ms back.
        assert client.latencies()[0] == pytest.approx(0.021, abs=1e-9)

    def test_link_latency_lookup(self):
        sim, fabric = make_fabric()
        fabric.set_latency("A", "B", Constant(0.5))
        assert fabric.link_latency("A", "B").mean() == 0.5
        assert fabric.link_latency("B", "A").mean() == 0.001


class TestCapture:
    def test_tracer_sees_both_directions(self):
        sim, fabric = make_fabric()
        ServiceNode(sim, fabric, "S", Constant(0.01))
        tracer = Tracer("S")
        fabric.attach_tracer(tracer)
        client = ClientNode(sim, fabric, "C", "cls", "S")
        client.issue_request()
        sim.run_until(1.0)
        assert set(tracer.edges()) == {("C", "S"), ("S", "C")}
        assert tracer.packet_count == 2

    def test_capture_hook_fires_at_both_ends(self):
        sim, fabric = make_fabric()
        ServiceNode(sim, fabric, "S", Constant(0.01))
        captures = []
        fabric.add_capture_hook(lambda ts, s, d, obs, m: captures.append((ts, s, d, obs)))
        client = ClientNode(sim, fabric, "C", "cls", "S")
        client.issue_request()
        sim.run_until(1.0)
        # 2 messages (request + response), each captured at src and dst.
        assert len(captures) == 4
        observers = [obs for (_, _, _, obs) in captures]
        assert observers.count("C") == 2 and observers.count("S") == 2

    def test_receive_capture_is_after_send_capture(self):
        sim, fabric = make_fabric()
        ServiceNode(sim, fabric, "S", Constant(0.01))
        captures = []
        fabric.add_capture_hook(lambda ts, s, d, obs, m: captures.append((ts, obs)))
        ClientNode(sim, fabric, "C", "cls", "S").issue_request()
        sim.run_until(1.0)
        request = captures[:2]
        assert request[0] == (0.0, "C")
        assert request[1] == (pytest.approx(0.001), "S")

    def test_trace_sink_sees_traced_captures_by_local_clock(self):
        sim, fabric = make_fabric(packets_per_message=2)
        ServiceNode(sim, fabric, "S", Constant(0.01))
        tracer = Tracer("S", clock_skew=0.5)
        fabric.attach_tracer(tracer)
        seen = []
        fabric.set_trace_sink(lambda *capture: seen.append(capture))
        ClientNode(sim, fabric, "C", "cls", "S").issue_request()
        sim.run_until(1.0)
        # The client is untraced: only S's two captures of each message.
        assert [capture[1:] for capture in seen] == [
            ("C", "S", True), ("C", "S", True), ("S", "C", False), ("S", "C", False),
        ]
        stamps = [capture[0] for capture in seen]
        assert stamps == pytest.approx(
            [0.501, 0.501 + PACKET_GAP, 0.511, 0.511 + PACKET_GAP]
        )
        assert sorted(stamps) == tracer.timestamps("C", "S") + tracer.timestamps("S", "C")

    def test_multi_packet_messages(self):
        sim, fabric = make_fabric(packets_per_message=3)
        ServiceNode(sim, fabric, "S", Constant(0.01))
        tracer = Tracer("S")
        fabric.attach_tracer(tracer)
        ClientNode(sim, fabric, "C", "cls", "S").issue_request()
        sim.run_until(1.0)
        stamps = tracer.timestamps("C", "S")
        assert len(stamps) == 3
        assert stamps[1] - stamps[0] == pytest.approx(PACKET_GAP)

    def test_messages_sent_counter(self):
        sim, fabric = make_fabric()
        ServiceNode(sim, fabric, "S", Constant(0.01))
        ClientNode(sim, fabric, "C", "cls", "S").issue_request()
        sim.run_until(1.0)
        assert fabric.messages_sent == 2

    def test_request_ids_unique_and_deterministic(self):
        sim, fabric = make_fabric()
        ids = [fabric.next_request_id() for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]
