"""Tests for the online E2EProf engine (incremental sliding-window analysis)."""

import numpy as np
import pytest

from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.errors import AnalysisError
from repro.simulation.distributions import Constant, Erlang
from repro.simulation.nodes import StaticRouter
from repro.simulation.topology import Topology

CFG = PathmapConfig(
    window=20.0,
    refresh_interval=10.0,
    quantum=1e-3,
    sampling_window=10e-3,
    max_transaction_delay=1.0,
)


def chain_topology(seed=0):
    topo = Topology(seed=seed)
    topo.add_service_node("DB", Erlang(0.010, k=8), workers=8)
    topo.add_service_node(
        "WS", Erlang(0.004, k=8), workers=8, router=StaticRouter({}, default="DB")
    )
    client = topo.add_client("C", "cls", front_end="WS")
    topo.open_workload(client, rate=20.0)
    return topo, client


class TestRefreshCycle:
    def test_refreshes_fire_on_schedule(self):
        topo, _ = chain_topology()
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        seen = []
        engine.subscribe(lambda now, result: seen.append(now))
        topo.run_until(45.0)
        assert seen == [10.0, 20.0, 30.0, 40.0]

    def test_latest_result_updated(self):
        topo, _ = chain_topology()
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        topo.run_until(25.0)
        assert engine.latest_refresh_time == 20.0
        assert engine.latest_result is not None

    def test_detach_stops_refreshes(self):
        topo, _ = chain_topology()
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        topo.run_until(15.0)
        engine.detach()
        topo.run_until(45.0)
        assert engine.latest_refresh_time == 10.0

    def test_double_attach_rejected(self):
        topo, _ = chain_topology()
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        with pytest.raises(AnalysisError):
            engine.attach(topo)

    def test_refresh_without_attach_rejected(self):
        with pytest.raises(AnalysisError):
            E2EProfEngine(CFG).refresh(0.0)


class TestAnalysisQuality:
    def test_path_recovered_online(self):
        topo, _ = chain_topology()
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        topo.run_until(45.0)
        graph = engine.latest_result.graph_for("C")
        assert graph.has_edge("WS", "DB")
        assert graph.has_edge("DB", "WS")
        assert graph.has_edge("WS", "C")
        # Cumulative delay at DB ~ WS service (4ms) + link.
        assert graph.edge("WS", "DB").min_delay == pytest.approx(0.004, abs=0.003)

    def test_incremental_matches_batch_collector_analysis(self):
        from repro.core.pathmap import compute_service_graphs

        topo, _ = chain_topology()
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        topo.run_until(45.0)
        online = engine.latest_result.graph_for("C")

        # Batch analysis over (approximately) the same window. Block
        # anchoring lags by omega, so delays may differ by ~1 quantum.
        batch_window = topo.collector.window(CFG, end_time=40.0)
        batch = compute_service_graphs(batch_window, CFG).graph_for("C")
        assert online.edge_set() == batch.edge_set()
        for edge in batch.edges:
            online_delay = online.edge(edge.src, edge.dst).min_delay
            assert online_delay == pytest.approx(edge.min_delay, abs=0.005)

    def test_correlators_are_reused(self):
        topo, _ = chain_topology()
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        topo.run_until(25.0)
        count_after_two = engine.correlator_count
        topo.run_until(45.0)
        # Steady state: no new correlators for a stable topology.
        assert engine.correlator_count == count_after_two

    def test_float32_wire_matches_float64_oracle(self):
        """Block values cross the transport as float32; every refresh must
        still publish the dense float64 pathmap's edges over the same
        window, with delays within one quantum."""
        from repro.core.pathmap import compute_service_graphs

        topo, _ = chain_topology(seed=3)
        engine = E2EProfEngine(CFG)
        published = []
        engine.subscribe(lambda now, result: published.append((now, result)))
        engine.attach(topo)
        topo.run_until(45.0)
        assert engine.wire_bytes_received > 0
        assert [now for now, _ in published] == [10.0, 20.0, 30.0, 40.0]
        for now, result in published:
            # The refresh's window ends one sampling window behind ``now``;
            # name it by quantum index, a quarter quantum inside, so float
            # flooring cannot shift it by one quantum.
            first = round(now / CFG.quantum) - CFG.sampling_quanta - CFG.window_quanta
            start = (first + 0.25) * CFG.quantum
            window = topo.collector.window(
                CFG, end_time=start + CFG.window, start_time=start
            )
            expected = compute_service_graphs(window, CFG, method="dense").graphs
            assert set(result.graphs) == set(expected), now
            for key, graph in expected.items():
                online = result.graphs[key]
                assert online.edge_set() == graph.edge_set(), (now, key)
                for edge in graph.edges:
                    if edge.delays:
                        assert online.edge(edge.src, edge.dst).min_delay == pytest.approx(
                            edge.min_delay, abs=CFG.quantum
                        ), (now, edge.key)

    def test_late_appearing_edge_gets_backfilled(self):
        topo = Topology(seed=1)
        topo.add_service_node("DB", Erlang(0.010, k=8), workers=8)
        topo.add_service_node("X", Constant(0.005), workers=8,
                              router=StaticRouter({}, default="DB"))
        topo.add_service_node(
            "WS", Erlang(0.004, k=8), workers=8,
            router=StaticRouter({"late": "X"}, default="DB"),
        )
        c1 = topo.add_client("C", "cls", front_end="WS")
        topo.open_workload(c1, rate=20.0)
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        topo.run_until(25.0)
        # The 'late' class starts mid-run: its edges are new to the engine.
        c2 = topo.add_client("C2", "late", front_end="WS")
        topo.open_workload(c2, rate=20.0)
        topo.run_until(55.0)
        graph = engine.latest_result.graph_for("C2")
        assert graph.has_edge("WS", "X")
        assert graph.has_edge("X", "DB")
