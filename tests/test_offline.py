"""Tests for the offline sliding-window replay through the engine."""

import importlib.util
import pathlib

import pytest

from repro import PathmapConfig, build_rubis
from repro.apps.faults import staircase_delay
from repro.core.change_detection import ChangeDetector
from repro.core.engine import E2EProfEngine
from repro.core.offline import replay
from repro.core.pathmap import compute_service_graphs
from repro.errors import AnalysisError
from repro.tracing.collector import TraceCollector
from repro.tracing.storage import load_captures, write_capture_jsonl

CFG = PathmapConfig(
    window=30.0,
    refresh_interval=30.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=2.0,
)
ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLE = ROOT / "examples" / "offline_trace_analysis.py"


@pytest.fixture(scope="module")
def recorded_run():
    """A recorded RUBiS run with a fault at t=60: trace at rest."""
    rubis = build_rubis(dispatch="affinity", seed=15, request_rate=10.0, config=CFG)
    rubis.ejbs["EJB1"].set_extra_delay(staircase_delay(0.030, 1e9, start=60.0))
    rubis.run_until(155.0)
    return rubis


def edge_labels(result):
    """Every class's edges with their delay labels, for exact comparison."""
    return {
        key: sorted((edge.src, edge.dst, tuple(edge.delays)) for edge in graph.edges)
        for key, graph in result.graphs.items()
    }


class TestAnalyzeSliding:
    def test_refresh_schedule(self, recorded_run):
        engine = E2EProfEngine(CFG)
        times = [t for t, _ in replay(recorded_run.collector, engine, 0.0, 150.0)]
        assert times == [30.0, 60.0, 90.0, 120.0, 150.0]

    def test_lazy_early_stop(self, recorded_run):
        engine = E2EProfEngine(CFG)
        iterator = replay(recorded_run.collector, engine, 0.0, 150.0)
        first_time, first_result = next(iterator)
        assert first_time == 30.0
        assert first_result.graph_for("C1").has_edge("WS", "TS1")
        # Not consuming the rest is fine (lazy): nothing past it ran.
        assert engine.latest_refresh_time == 30.0

    def test_fault_visible_in_later_windows(self, recorded_run):
        results = dict(replay(recorded_run.collector, E2EProfEngine(CFG), 0.0, 150.0))
        before = results[30.0].graph_for("C1").node_delay("EJB1")
        after = results[120.0].graph_for("C1").node_delay("EJB1")
        assert after - before == pytest.approx(0.030, abs=0.006)

    def test_range_validation(self, recorded_run):
        with pytest.raises(AnalysisError):
            list(replay(recorded_run.collector, E2EProfEngine(CFG), 100.0, 100.0))
        with pytest.raises(AnalysisError):
            list(replay(recorded_run.collector, E2EProfEngine(CFG), 0.0, 10.0))

    def test_partial_windows_run_but_are_not_yielded(self, recorded_run):
        config = CFG.with_window(30.0, refresh_interval=10.0)
        engine = E2EProfEngine(config)
        refreshed = []
        engine.subscribe(lambda now, result: refreshed.append(now))
        yielded = [t for t, _ in replay(recorded_run.collector, engine, 5.0, 60.0)]
        assert refreshed == [15.0, 25.0, 35.0, 45.0, 55.0]
        assert yielded == [35.0, 45.0, 55.0]


class TestReplayInto:
    def test_online_tooling_runs_offline(self, recorded_run):
        """The same ChangeDetector used online subscribes to the replaying
        engine and flags the recorded fault."""
        detector = ChangeDetector(absolute_threshold=0.010,
                                  relative_threshold=0.2,
                                  baseline_refreshes=2)
        engine = E2EProfEngine(CFG)
        detector.subscribe_to(engine)
        results = list(replay(recorded_run.collector, engine, 0.0, 150.0))
        assert len(results) == 5
        flagged = {event.edge for event in detector.events()}
        assert ("EJB1", "DS") in flagged or ("TS1", "EJB1") in flagged


class TestOneAnalyzer:
    def test_replay_equals_live_engine(self):
        """A replay of a live run's collector publishes what the engine
        attached to that run published: the same edges and the same delay
        labels, bit for bit, at every refresh."""
        config = CFG.with_window(30.0, refresh_interval=10.0)
        rubis = build_rubis(dispatch="affinity", seed=15, request_rate=10.0, config=config)
        live = E2EProfEngine(config)
        online = []
        live.subscribe(lambda now, result: online.append((now, edge_labels(result))))
        live.attach(rubis.topology)
        rubis.run_until(105.0)
        engine = E2EProfEngine(config)
        replayed = []
        engine.subscribe(lambda now, result: replayed.append((now, edge_labels(result))))
        for _ in replay(rubis.collector, engine, 0.0, 100.0):
            pass
        assert [now for now, _ in online] == [10.0 * k for k in range(1, 11)]
        assert all(labels for _, labels in online)
        assert replayed == online

    def test_skewed_trace_matches_dense_oracle(self, tmp_path):
        """The example's stored trace (DB clock 80 ms ahead): stored stamps
        are already local-clock, so a replay skews nothing twice and every
        refresh publishes the dense pathmap's edges over the engine's
        window, with delays within one quantum."""
        spec = importlib.util.spec_from_file_location("offline_trace_analysis", EXAMPLE)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        config = example.CONFIG.with_window(60.0, refresh_interval=20.0)
        topo = example.build_system()
        topo.run_until(125.0)
        path = tmp_path / "orders.jsonl"
        write_capture_jsonl(path, topo.collector.export_records())
        stored = TraceCollector(client_nodes=["C"])
        stored.ingest_many(load_captures(path))
        engine = E2EProfEngine(config)
        published = list(replay(stored, engine, 0.0, 120.0))
        assert [now for now, _ in published] == [60.0, 80.0, 100.0, 120.0]
        for now, result in published:
            # The refresh's window ends one sampling window behind ``now``;
            # name it by quantum index, a quarter quantum inside, so float
            # flooring cannot shift it by one quantum.
            first = (
                round(now / config.quantum) - config.sampling_quanta - config.window_quanta
            )
            start = (first + 0.25) * config.quantum
            window = stored.window(
                config, end_time=start + config.window, start_time=start
            )
            expected = compute_service_graphs(window, config, method="dense").graphs
            assert set(result.graphs) == set(expected), now
            for key, graph in expected.items():
                assert graph.has_edge("AP", "DB"), (now, key)
                offline = result.graphs[key]
                assert offline.edge_set() == graph.edge_set(), (now, key)
                for edge in graph.edges:
                    if edge.delays:
                        assert offline.edge(edge.src, edge.dst).min_delay == pytest.approx(
                            edge.min_delay, abs=config.quantum
                        ), (now, edge.key)
