"""Unit tests for the pathmap DFS (Algorithm 1) over synthetic windows.

These bypass the simulator entirely: edge signals are constructed
analytically (a request signal plus shifted copies downstream), so path
recovery can be asserted precisely.
"""

from typing import Dict, List

import numpy as np
import pytest

from repro.config import PathmapConfig
from repro.core.pathmap import Pathmap, TraceWindow, compute_service_graphs
from repro.core.timeseries import DensityTimeSeries, build_density_series
from repro.errors import AnalysisError


class SyntheticWindow(TraceWindow):
    """A TraceWindow built from an explicit edge -> timestamp map."""

    def __init__(self, edges: Dict[tuple, List[float]], clients, config, length=4000):
        self._edges = edges
        self._clients = set(clients)
        self._config = config
        self._length = length

    def front_end_nodes(self):
        return sorted(
            {dst for (src, dst) in self._edges if src in self._clients}
        )

    def clients_of(self, node):
        return sorted(
            src for (src, dst) in self._edges if dst == node and src in self._clients
        )

    def destinations_of(self, node):
        return sorted(dst for (src, dst) in self._edges if src == node)

    def is_client(self, node):
        return node in self._clients

    def edge_series(self, src, dst):
        return build_density_series(
            self._edges[(src, dst)],
            quantum=self._config.quantum,
            sampling_quanta=self._config.sampling_quanta,
            window_start=0,
            window_length=self._length,
        )


CFG = PathmapConfig(
    window=4.0,
    refresh_interval=4.0,
    quantum=1e-3,
    sampling_window=5e-3,
    max_transaction_delay=0.5,
)


def poisson_arrivals(rng, rate, duration):
    count = rng.poisson(rate * duration)
    return np.sort(rng.uniform(0, duration, count))


@pytest.fixture(scope="module")
def arrivals():
    return poisson_arrivals(np.random.default_rng(0), rate=60.0, duration=4.0)


def shifted(stamps, delay):
    return list(np.asarray(stamps) + delay)


class TestLinearChain:
    def test_recovers_chain_and_delays(self, arrivals):
        edges = {
            ("C", "A"): list(arrivals),
            ("A", "B"): shifted(arrivals, 0.030),
            ("B", "D"): shifted(arrivals, 0.070),
        }
        window = SyntheticWindow(edges, {"C"}, CFG)
        result = compute_service_graphs(window, CFG)
        graph = result.graph_for("C")
        assert graph.edge_set() == {("C", "A"), ("A", "B"), ("B", "D")}
        assert graph.edge("A", "B").min_delay == pytest.approx(0.030, abs=0.004)
        assert graph.edge("B", "D").min_delay == pytest.approx(0.070, abs=0.004)
        assert graph.node_delay("B") == pytest.approx(0.040, abs=0.006)

    def test_stats_counters(self, arrivals):
        edges = {
            ("C", "A"): list(arrivals),
            ("A", "B"): shifted(arrivals, 0.030),
        }
        result = compute_service_graphs(SyntheticWindow(edges, {"C"}, CFG), CFG)
        assert result.stats.graphs == 1
        assert result.stats.correlations >= 1
        assert result.stats.edges_discovered == 1
        assert result.stats.elapsed_seconds > 0


class TestBranching:
    def test_unrelated_branch_excluded(self, arrivals):
        rng = np.random.default_rng(99)
        other = poisson_arrivals(rng, rate=60.0, duration=4.0)
        edges = {
            ("C", "A"): list(arrivals),
            ("A", "B"): shifted(arrivals, 0.030),
            # A also talks to E, but with traffic unrelated to C's requests.
            ("A", "E"): list(other),
        }
        graph = compute_service_graphs(SyntheticWindow(edges, {"C"}, CFG), CFG).graph_for("C")
        assert graph.has_edge("A", "B")
        assert not graph.has_edge("A", "E")

    def test_two_classes_get_separate_graphs(self, arrivals):
        rng = np.random.default_rng(5)
        arrivals2 = poisson_arrivals(rng, rate=60.0, duration=4.0)
        edges = {
            ("C1", "A"): list(arrivals),
            ("C2", "A"): list(arrivals2),
            ("A", "B1"): shifted(arrivals, 0.020),
            ("A", "B2"): shifted(arrivals2, 0.025),
        }
        result = compute_service_graphs(SyntheticWindow(edges, {"C1", "C2"}, CFG), CFG)
        g1 = result.graph_for("C1")
        g2 = result.graph_for("C2")
        assert g1.has_edge("A", "B1") and not g1.has_edge("A", "B2")
        assert g2.has_edge("A", "B2") and not g2.has_edge("A", "B1")

    def test_multiple_spikes_on_shared_edge(self, arrivals):
        # C's requests reach D along two branches with different delays:
        # the shared edge B->D carries both copies.
        edges = {
            ("C", "A"): list(arrivals),
            ("A", "B"): shifted(arrivals, 0.030) + shifted(arrivals, 0.120),
        }
        graph = compute_service_graphs(SyntheticWindow(edges, {"C"}, CFG), CFG).graph_for("C")
        delays = graph.edge("A", "B").delays
        assert len(delays) >= 2
        assert min(abs(d - 0.030) for d in delays) < 0.005
        assert min(abs(d - 0.120) for d in delays) < 0.005


class TestReturnPath:
    def test_response_edge_labelled_but_not_recursed(self, arrivals):
        edges = {
            ("C", "A"): list(arrivals),
            ("A", "B"): shifted(arrivals, 0.030),
            ("B", "A"): shifted(arrivals, 0.080),
            ("A", "C"): shifted(arrivals, 0.090),
        }
        graph = compute_service_graphs(SyntheticWindow(edges, {"C"}, CFG), CFG).graph_for("C")
        assert graph.edge("A", "C").min_delay == pytest.approx(0.090, abs=0.004)
        # The client is a leaf: nothing was explored beyond it.
        assert graph.successors("C") == ["A"]


class TestRobustness:
    def test_silent_edge_yields_no_false_positive(self, arrivals):
        edges = {
            ("C", "A"): list(arrivals),
            ("A", "B"): [],  # edge exists administratively but is silent
        }
        window = SyntheticWindow(edges, {"C"}, CFG)
        graph = compute_service_graphs(window, CFG).graph_for("C")
        assert not graph.has_edge("A", "B")

    def test_sparse_traffic_below_overlap_floor(self):
        cfg = CFG
        stamps = [1.0, 2.0]  # far too few requests
        edges = {("C", "A"): stamps, ("A", "B"): shifted(stamps, 0.030)}
        graph = compute_service_graphs(SyntheticWindow(edges, {"C"}, cfg), cfg).graph_for("C")
        # With only two requests the correlation may or may not clear the
        # spike threshold, but the analysis must not crash and the graph
        # must at least contain the client edge.
        assert graph.has_edge("C", "A")

    def test_graph_for_unknown_client(self, arrivals):
        edges = {("C", "A"): list(arrivals)}
        result = compute_service_graphs(SyntheticWindow(edges, {"C"}, CFG), CFG)
        with pytest.raises(AnalysisError):
            result.graph_for("nope")

    def test_all_methods_agree_on_structure(self, arrivals):
        edges = {
            ("C", "A"): list(arrivals),
            ("A", "B"): shifted(arrivals, 0.030),
            ("B", "D"): shifted(arrivals, 0.070),
        }
        window = SyntheticWindow(edges, {"C"}, CFG)
        graphs = {}
        for method in ("dense", "sparse", "rle", "fft"):
            result = Pathmap(CFG, method=method).analyze(window)
            graphs[method] = result.graph_for("C").edge_set()
        assert len({frozenset(g) for g in graphs.values()}) == 1
