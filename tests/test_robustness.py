"""Robustness and degenerate-input behaviour across the stack."""

import pytest

from repro import E2EProfEngine, PathmapConfig, build_rubis, compute_service_graphs
from repro.simulation.distributions import Constant, Erlang
from repro.simulation.nodes import StaticRouter
from repro.simulation.topology import Topology
from repro.tracing.collector import TraceCollector
from repro.tracing.records import CaptureRecord

CFG = PathmapConfig(
    window=30.0,
    refresh_interval=30.0,
    quantum=1e-3,
    sampling_window=20e-3,
    max_transaction_delay=2.0,
)


class TestSilentSystems:
    def test_engine_survives_silent_refreshes(self):
        """No traffic at all: refreshes produce empty results, not crashes."""
        topo = Topology(seed=0)
        topo.add_service_node("WS", Constant(0.01))
        topo.add_client("C", "cls", front_end="WS")  # client never sends
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        topo.run_until(95.0)
        assert engine.latest_result is not None
        assert engine.latest_result.graphs == {}

    def test_engine_handles_traffic_starting_late(self):
        topo = Topology(seed=0)
        topo.add_service_node("DB", Erlang(0.010, k=8), workers=8)
        topo.add_service_node("WS", Erlang(0.004, k=8), workers=8,
                              router=StaticRouter({}, default="DB"))
        client = topo.add_client("C", "cls", front_end="WS")
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        topo.run_until(65.0)  # two silent refreshes
        workload = topo.open_workload(client, rate=20.0)
        topo.run_until(155.0)
        graph = engine.latest_result.graph_for("C")
        assert graph.has_edge("WS", "DB")

    def test_collector_window_with_no_records(self):
        collector = TraceCollector(client_nodes=["C"])
        window = collector.window(CFG, end_time=30.0)
        assert window.front_end_nodes() == []
        result = compute_service_graphs(window, CFG)
        assert result.graphs == {}


class TestOddTraffic:
    def test_one_way_client_traffic_only(self):
        """Requests with no responses (e.g. fire-and-forget logging)."""
        collector = TraceCollector(client_nodes=["C"])
        for i in range(200):
            t = 0.1 * i
            collector.ingest(CaptureRecord(t, "C", "LOG", "LOG"))
        result = compute_service_graphs(
            collector.window(CFG, end_time=20.0), CFG
        )
        graph = result.graph_for("C")
        assert graph.edge_set() == {("C", "LOG")}

    def test_duplicate_timestamps(self):
        """Packets captured at the identical instant must not crash the
        density computation or correlation."""
        collector = TraceCollector(client_nodes=["C"])
        for i in range(50):
            t = 0.5 * i
            for _ in range(4):  # four packets at the same instant
                collector.ingest(CaptureRecord(t, "C", "S", "S"))
                collector.ingest(CaptureRecord(t + 0.010, "S", "D", "D"))
        result = compute_service_graphs(
            collector.window(CFG, end_time=26.0), CFG
        )
        graph = result.graph_for("C")
        assert graph.has_edge("S", "D")
        assert graph.edge("S", "D").min_delay == pytest.approx(0.010, abs=0.003)

    def test_closed_workload_rubis_paths(self):
        """The paper's actual workload shape: 30 httperf sessions."""
        rubis = build_rubis(dispatch="affinity", seed=19, workload="closed",
                            sessions=30, request_rate=15.0, config=CFG)
        rubis.run_until(35.0)
        result = compute_service_graphs(rubis.window(end_time=33.0), CFG)
        graph = result.graph_for("C1")
        for edge in (("WS", "TS1"), ("TS1", "EJB1"), ("EJB1", "DS")):
            assert graph.has_edge(*edge)

    def test_very_low_rate_graceful(self):
        """A handful of requests: either a clean graph or a clean miss,
        never an exception."""
        rubis = build_rubis(dispatch="affinity", seed=3, request_rate=0.2, config=CFG)
        rubis.run_until(35.0)
        result = compute_service_graphs(rubis.window(end_time=33.0), CFG)
        for graph in result.graphs.values():
            for edge in graph.edges:
                assert edge.delays  # any reported edge carries delays


class TestNonSteadyWindows:
    """Empty analysis windows must degrade to silence, never to stale
    paths or exceptions (trough / disappearing-class regression)."""

    def test_adaptive_trough_reports_silence_not_stale_paths(self):
        from repro.scenarios import get_scenario
        from repro.scenarios.runner import analyze_adaptive

        run = get_scenario("traffic_trough").build(seed=0)
        score = analyze_adaptive(run)  # must not raise anywhere
        # The [16, 24) window sits entirely inside the [14, 24) trough:
        # the regional class sent nothing, so the correct answer is an
        # empty graph -- and any claimed edge would be a stale path.
        in_trough = [
            cell
            for cell in score.cells
            if cell.service_class == "regional" and cell.window_end == 24.0
        ]
        assert in_trough, "the trough window must have been graded"
        for cell in in_trough:
            assert cell.edges == [], "stale path survived the trough"
            assert cell.f1 == 1.0
        # The co-tenant steady class keeps its paths through the trough.
        steady_cells = [
            cell
            for cell in score.cells
            if cell.service_class == "steady" and cell.window_end == 24.0
        ]
        assert steady_cells and steady_cells[0].recall == 1.0

    def test_engine_survives_every_class_disappearing(self):
        from repro.apps.manyclass import build_many_class

        deployment = build_many_class(
            classes=3,
            quiet_fraction=1.0,  # every class stops at quiet_after
            seed=2,
            request_rate=10.0,
            quiet_after=5.0,
            config=CFG,
        )
        engine = E2EProfEngine(CFG)
        engine.attach(deployment.topology)
        deployment.run_until(95.0)  # window slides fully past all traffic
        engine.detach()
        result = engine.latest_result
        assert result is not None
        # All-quiet window: no graphs and zero confidence.
        assert not result.graphs
        assert engine.confidence_score == 0.0
