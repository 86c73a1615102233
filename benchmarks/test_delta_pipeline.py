"""DELTA -- Section 4.3: the Delta Air Lines Revenue Pipeline case study.

Regenerates the section's findings on the synthetic pipeline:

1. service paths of every front-end queue recovered from application-level
   access logs (not packet captures);
2. the 4 AM paper-ticket batch floods the queues and degrades analysis --
   "the computed delays are far from accurate ... the analysis error due
   to the large queue length could not be eliminated";
3. a slow database connection is diagnosed as the bottleneck.
"""

import pytest

from repro.analysis.render import render_comparison_table
from repro.apps.delta import build_delta, inject_batch
from repro.config import PathmapConfig
from repro.core.bottleneck import find_bottlenecks
from repro.core.offline import analyze_window
from repro.tracing.access_log import access_log_to_captures
from repro.tracing.collector import TraceCollector

CFG = PathmapConfig(
    window=3600.0,
    refresh_interval=600.0,
    quantum=1.0,
    sampling_window=50.0,
    max_transaction_delay=1200.0,
)
HORIZON = 3700.0


def build_and_collect(slow_db_factor=1.0, batch=False):
    deployment = build_delta(seed=3, num_queues=5, events_per_hour=18000.0,
                             slow_db_factor=slow_db_factor, config=CFG)
    if batch:
        inject_batch(deployment, at=1200.0, events=1500, over_seconds=60.0)
    deployment.run_until(HORIZON)
    collector = TraceCollector(client_nodes=["external"])
    collector.ingest_many(access_log_to_captures(deployment.sorted_access_log()))
    return deployment, collector


@pytest.fixture(scope="module")
def steady_case():
    return build_and_collect()


def test_delta_pipeline(benchmark, steady_case):
    deployment, collector = steady_case
    result = benchmark(analyze_window, collector, CFG, end=HORIZON - 50.0)

    _, slow_collector = build_and_collect(slow_db_factor=2.5)
    slow_result = analyze_window(slow_collector, CFG, end=HORIZON - 50.0)
    batch_dep, batch_collector = build_and_collect(batch=True)
    surge_result = analyze_window(batch_collector, CFG.with_window(2000.0), end=2400.0)

    def summarize(res, label):
        rows = []
        for (client, root), graph in sorted(res.graphs.items()):
            stages = "->".join(
                stage for stage in (root, "VAL", "RDB", "ACCT")
                if stage == root or any(e.dst == stage for e in graph.edges)
            )
            delays = graph.node_delays()
            dominant = (
                find_bottlenecks(graph).dominant() if delays else "-"
            )
            rows.append([label, root, stages, dominant])
        return rows

    rows = (
        summarize(result, "steady")
        + summarize(slow_result, "slow DB x2.5")
        + summarize(surge_result, "4AM batch window")
    )
    table = render_comparison_table(
        ["scenario", "queue", "recovered stages", "dominant delay"],
        rows,
        title="Section 4.3 -- Revenue Pipeline path analysis (from access logs)",
    )
    worst_queue = max(
        q.mean_queue_delay() for q in batch_dep.queues.values()
    )
    extra = (
        f"\nbatch surge: worst front-end queue mean delay {worst_queue:.1f} s "
        "(paper: queue length up to 4000; steady-state assumption broken)"
    )
    write_result_local(table + extra)

    # Findings.
    full = [
        g for g in result.graphs.values()
        if g.has_edge("VAL", "RDB") and g.has_edge("RDB", "ACCT")
    ]
    assert len(full) == 5  # all queues' paths recovered at steady state
    dominants = [
        find_bottlenecks(g).dominant()
        for g in slow_result.graphs.values() if g.node_delays()
    ]
    assert dominants and max(sorted(set(dominants)), key=dominants.count) == "RDB"
    surge_edges = sum(len(g.edges) for g in surge_result.graphs.values())
    steady_edges = sum(len(g.edges) for g in result.graphs.values())
    assert surge_edges < steady_edges  # degradation under the batch


def write_result_local(text):
    from conftest import write_result

    write_result("delta_pipeline.txt", text)
