"""NEST -- related-work baseline: Aguilera et al.'s nesting algorithm.

Not a paper figure, but an ablation the paper's Section 2 implies: on
RPC-style traffic (RUBiS) the nesting algorithm recovers the same paths
as pathmap much faster (it is per-request exact), while on unidirectional
pipelines (Delta) it produces nothing -- which is exactly why E2EProf
uses correlation.
"""

import time

import pytest

from repro.analysis.render import render_comparison_table
from repro.baselines.nesting import nesting_analysis
from repro.core.offline import analyze_window
from repro.tracing.records import CaptureRecord

from conftest import BENCH_CONFIG, write_result


def capture_records(rubis):
    return [
        CaptureRecord(ts, src, dst, dst if dst not in ("C1", "C2") else src)
        for (src, dst) in rubis.collector.edges()
        for ts in rubis.collector.edge_timestamps(src, dst)
    ]


def test_nesting_vs_pathmap(benchmark, rubis_affinity):
    records = capture_records(rubis_affinity)

    started = time.perf_counter()
    nesting = nesting_analysis(records, client_nodes=["C1", "C2"])
    nesting_time = time.perf_counter() - started

    started = time.perf_counter()
    pathmap_result = analyze_window(rubis_affinity.collector, BENCH_CONFIG, end=183.0)
    pathmap_time = time.perf_counter() - started

    benchmark(nesting_analysis, records, ["C1", "C2"])

    sequences = set(nesting.node_sequences())
    rows = [
        ["pathmap (engine)", f"{pathmap_time:.3f}",
         str(sum(len(g.edges) for g in pathmap_result.graphs.values())), "any protocol"],
        ["nesting", f"{nesting_time:.3f}",
         str(len(sequences)), "RPC-style only"],
    ]
    table = render_comparison_table(
        ["algorithm", "time (s)", "artifacts", "applicability"],
        rows,
        title="Baseline -- nesting (Aguilera et al.) vs pathmap on RUBiS",
    )
    write_result("nesting_baseline.txt", table)

    # Both find the true bidding path.
    assert ("C1", "WS", "TS1", "EJB1", "DS") in sequences
    graph = pathmap_result.graph_for("C1")
    for edge in (("WS", "TS1"), ("TS1", "EJB1"), ("EJB1", "DS")):
        assert graph.has_edge(*edge)
    # Nesting's per-hop delay agrees with pathmap's cumulative labels.
    pattern = nesting.pattern_for(("C1", "WS", "TS1", "EJB1", "DS"))
    pathmap_delay = graph.edge("TS1", "EJB1").min_delay
    nesting_delay = pattern.mean_delays[2]
    assert nesting_delay == pytest.approx(pathmap_delay, abs=0.01)
