"""Tests for the topology builder and ground truth recorder."""

import math

import numpy as np
import pytest

from repro.config import PathmapConfig
from repro.errors import TopologyError
from repro.simulation.distributions import Constant
from repro.simulation.nodes import StaticRouter
from repro.simulation.topology import Topology


def tiny_topology(seed=0):
    topo = Topology(seed=seed)
    topo.add_service_node("DB", Constant(0.010))
    topo.add_service_node("WS", Constant(0.002), router=StaticRouter({}, default="DB"))
    client = topo.add_client("C", "cls", front_end="WS")
    return topo, client


class TestConstruction:
    def test_client_requires_existing_front_end(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_client("C", "cls", front_end="nope")

    def test_tracers_attached_to_service_nodes_only(self):
        topo, client = tiny_topology()
        assert topo.fabric.tracer("WS") is not None
        assert topo.fabric.tracer("DB") is not None
        assert topo.fabric.tracer("C") is None

    def test_clients_registered_with_collector(self):
        topo, client = tiny_topology()
        assert topo.collector.clients == {"C"}

    def test_node_lookup(self):
        topo, _ = tiny_topology()
        assert topo.node("DB").node_id == "DB"
        with pytest.raises(TopologyError):
            topo.node("nope")


class TestTraceStreaming:
    def test_collector_receives_server_side_captures_only(self):
        topo, client = tiny_topology()
        client.issue_request()
        topo.run_until(1.0)
        # 4 messages (C->WS, WS->DB, DB->WS, WS->C); each traced endpoint
        # captures once per message it touches: WS 4x, DB 2x.
        assert topo.collector.record_count() == 6

    def test_collector_timestamps_use_skewed_clocks(self):
        topo = Topology(seed=0)
        topo.add_service_node("WS", Constant(0.002), clock_skew=1.0)
        client = topo.add_client("C", "cls", front_end="WS")
        client.issue_request()
        topo.run_until(1.0)
        stamps = topo.collector.edge_timestamps("C", "WS")
        assert stamps[0] > 0.9  # skew applied

    def test_collector_stream_equals_the_tracers_own_stamps(self):
        """Each traced packet reaches the collector once, by the stamp its
        tracer stored, on the side that tracer sits."""
        topo = Topology(seed=1, packets_per_message=2)
        topo.add_service_node("DB", Constant(0.004), clock_skew=-0.25)
        topo.add_service_node(
            "WS", Constant(0.002), clock_skew=0.5, router=StaticRouter({}, default="DB")
        )
        client = topo.add_client("C", "cls", front_end="WS")
        topo.open_workload(client, rate=80.0)
        topo.run_until(2.0)
        collector = topo.collector
        for node, tracer in topo.fabric.tracers.items():
            for src, dst in tracer.edges():
                stores = collector._at_dst if node == dst else collector._at_src
                assert stores[(src, dst)].array().tolist() == tracer.timestamps(src, dst)
        assert collector.record_count() == sum(
            t.packet_count for t in topo.fabric.tracers.values()
        )

    def test_tracer_restart_mid_run_keeps_streaming(self):
        """A restart empties the tracer's edge map; the next packets map
        their edges afresh and still reach the collector."""
        topo, client = tiny_topology()
        topo.open_workload(client, rate=50.0)
        topo.run_until(1.0)
        db = topo.fabric.tracer("DB")
        db.restart()
        assert db.edges() == [] and db.packet_count == 0
        topo.run_until(2.0)
        received = topo.collector._at_dst[("WS", "DB")].array()
        sent = topo.collector._at_src[("DB", "WS")].array()
        assert received[0] < 1.0 < received[-1]
        assert db.timestamps("WS", "DB") == received[received > 1.0].tolist()
        assert db.timestamps("DB", "WS") == sent[sent > 1.0].tolist()
        assert db.packet_count == np.count_nonzero(received > 1.0) + np.count_nonzero(
            sent > 1.0
        )

    def test_run_advances_clock(self):
        topo, _ = tiny_topology()
        topo.run_until(3.5)
        assert topo.now == 3.5


class TestWorkloadWiring:
    def test_open_workload(self):
        topo, client = tiny_topology()
        topo.open_workload(client, rate=100.0)
        topo.run_until(5.0)
        assert client.completed > 300

    def test_closed_workload(self):
        topo, client = tiny_topology()
        topo.closed_workload(client, sessions=2, think_time=Constant(0.1))
        topo.run_until(5.0)
        assert client.completed > 50
        assert client.outstanding <= 2

    def test_deterministic_traces(self):
        def run(seed):
            topo, client = tiny_topology(seed=seed)
            topo.open_workload(client, rate=50.0)
            topo.run_until(3.0)
            return topo.collector.edge_timestamps("C", "WS").tolist()

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestGroundTruth:
    def test_edge_delays_match_constants(self):
        topo, client = tiny_topology()
        truth = topo.ground_truth("WS")
        topo.open_workload(client, rate=50.0)
        topo.run_until(5.0)
        # WS->DB arrival = WS service (2ms) + link (0.2ms).
        mean = truth.mean_edge_delay("cls", ("WS", "DB"))
        assert mean == pytest.approx(0.0022, abs=2e-4)

    def test_traversed_edges(self):
        topo, client = tiny_topology()
        truth = topo.ground_truth("WS")
        topo.open_workload(client, rate=50.0)
        topo.run_until(5.0)
        edges = truth.traversed_edges("cls")
        assert set(edges) == {("C", "WS"), ("WS", "DB"), ("DB", "WS"), ("WS", "C")}
        # Every request touches every edge once.
        assert len(set(edges.values())) == 1

    def test_unknown_class_is_nan(self):
        topo, client = tiny_topology()
        truth = topo.ground_truth("WS")
        topo.run_until(1.0)
        assert math.isnan(truth.mean_edge_delay("nope", ("WS", "DB")))

    def test_request_count(self):
        topo, client = tiny_topology()
        truth = topo.ground_truth("WS")
        client.issue_request()
        topo.run_until(1.0)
        assert truth.request_count() == 1
        assert truth.request_count("cls") == 1
        assert truth.request_count("other") == 0

    def test_ground_truth_idempotent_attach(self):
        topo, _ = tiny_topology()
        assert topo.ground_truth("WS") is topo.ground_truth("WS")

    def test_time_windowed_delays(self):
        topo, client = tiny_topology()
        truth = topo.ground_truth("WS")
        topo.open_workload(client, rate=50.0)
        topo.run_until(5.0)
        all_delays = truth.edge_delays("cls", ("WS", "DB"))
        late = truth.edge_delays("cls", ("WS", "DB"), since=2.5)
        assert 0 < len(late) < len(all_delays)
