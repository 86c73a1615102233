"""Tests for bottleneck identification (the grey nodes of Figures 5/6)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.bottleneck import find_bottlenecks, rank_nodes
from repro.core.service_graph import ServiceGraph
from repro.errors import AnalysisError


def tiered_graph():
    """WS 3ms, TS 8ms, EJB 20ms (cumulative labels encode node delays)."""
    g = ServiceGraph("C", "WS")
    g.add_edge("WS", "TS", [0.003])
    g.add_edge("TS", "EJB", [0.011])
    g.add_edge("EJB", "DB", [0.031])
    g.add_edge("DB", "EJB", [0.041])
    return g


class TestFindBottlenecks:
    def test_dominant_node_flagged(self):
        report = find_bottlenecks(tiered_graph(), threshold_share=0.30)
        assert report.bottlenecks == ["EJB"]
        assert report.dominant() == "EJB"

    def test_shares_sum_to_one(self):
        report = find_bottlenecks(tiered_graph())
        total_share = sum(report.share(n) for n in report.node_delays)
        assert total_share == pytest.approx(1.0)

    def test_low_threshold_flags_more(self):
        report = find_bottlenecks(tiered_graph(), threshold_share=0.05)
        assert set(report.bottlenecks) >= {"EJB", "TS"}
        # Ranked slowest first.
        assert report.bottlenecks[0] == "EJB"

    def test_even_spread_flags_none_at_high_threshold(self):
        g = ServiceGraph("C", "A")
        g.add_edge("A", "B", [0.010])
        g.add_edge("B", "C2", [0.020])
        g.add_edge("C2", "D", [0.030])
        report = find_bottlenecks(g, threshold_share=0.60)
        assert report.bottlenecks == []

    def test_threshold_validation(self):
        with pytest.raises(AnalysisError):
            find_bottlenecks(tiered_graph(), threshold_share=0.0)
        with pytest.raises(AnalysisError):
            find_bottlenecks(tiered_graph(), threshold_share=1.5)

    def test_empty_graph(self):
        g = ServiceGraph("C", "WS")
        report = find_bottlenecks(g)
        assert report.bottlenecks == []
        assert report.total_delay == 0.0
        with pytest.raises(AnalysisError):
            report.dominant()

    def test_share_of_unknown_node(self):
        report = find_bottlenecks(tiered_graph())
        assert report.share("nope") == 0.0


class TestRankNodes:
    def test_ranking_order(self):
        # DB has a return edge, so it gets a 10ms node delay too.
        assert rank_nodes(tiered_graph()) == ["EJB", "DB", "TS", "WS"]

    def test_empty(self):
        assert rank_nodes(ServiceGraph("C", "WS")) == []


class TestTies:
    """Equal node delays rank by node name, whatever the string hash seed
    (a set of node names iterates in a per-process order)."""

    SCRIPT = (
        "from repro.core.bottleneck import find_bottlenecks, rank_nodes\n"
        "from repro.core.service_graph import ServiceGraph\n"
        "g = ServiceGraph('C', 'WS')\n"
        "for name in ['T', 'R', 'P', 'S', 'Q']:\n"
        "    g.add_edge('WS', name, [0.001])\n"
        "    g.add_edge(name, name + 'db', [0.011])\n"
        "print(list(g.node_delays()), find_bottlenecks(g).dominant(), rank_nodes(g))\n"
    )

    def run(self, hash_seed):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, capture_output=True,
            text=True, check=True,
        ).stdout

    def test_same_answer_under_two_hash_seeds(self):
        first, second = self.run(1), self.run(2)
        assert first == second
        assert first.split("] ")[1].startswith("P ")
