"""DELTA-FULL -- the Revenue Pipeline at the paper's scale.

Section 4.3's actual numbers: 25 front-end queues, ~40K events/hour.
This bench runs slightly over an hour of that traffic, analyzes the full
1-hour window from access logs, and checks path recovery across all 25
queues -- the shared back-end links now carry a 25-way class mixture, the
hardest dilution case in the reproduction.
"""

import pytest

from repro.analysis.render import render_comparison_table
from repro.apps.delta import EVENTS_PER_HOUR, build_delta
from repro.config import PathmapConfig
from repro.core.offline import analyze_window
from repro.tracing.access_log import access_log_to_captures
from repro.tracing.collector import TraceCollector

from conftest import write_result

CFG = PathmapConfig(
    window=3600.0,
    refresh_interval=600.0,
    quantum=1.0,
    sampling_window=50.0,
    max_transaction_delay=1800.0,
)
HORIZON = 3700.0


@pytest.fixture(scope="module")
def fullscale():
    deployment = build_delta(
        seed=7, num_queues=25, events_per_hour=EVENTS_PER_HOUR, config=CFG
    )
    deployment.run_until(HORIZON)
    collector = TraceCollector(client_nodes=["external"])
    collector.ingest_many(access_log_to_captures(deployment.sorted_access_log()))
    return deployment, collector


def test_delta_full_scale(benchmark, fullscale):
    deployment, collector = fullscale
    result = benchmark(analyze_window, collector, CFG, end=HORIZON - 50.0)

    per_queue = {}
    for (client, root), graph in result.graphs.items():
        stages = sum(
            1 for edge in (("VAL", "RDB"), ("RDB", "ACCT"))
            if graph.has_edge(*edge)
        ) + (1 if graph.has_edge(root, "VAL") else 0)
        per_queue[root] = stages
    full = sum(1 for v in per_queue.values() if v == 3)
    partial = sum(1 for v in per_queue.values() if 1 <= v < 3)

    table = render_comparison_table(
        ["metric", "value"],
        [
            ["events routed", str(deployment.topology.fabric.messages_sent)],
            ["access-log records", str(len(deployment.access_log))],
            ["queues analyzed", str(len(per_queue))],
            ["full 3-stage recovery", f"{full}/25"],
            ["partial recovery", f"{partial}/25"],
            ["analysis correlations", str(result.stats.correlations)],
            ["analysis time (s, replay)", f"{benchmark.seconds:.2f}"],
        ],
        title="Section 4.3 at paper scale -- 25 queues, 40K events/hour",
    )
    write_result("delta_fullscale.txt", table)

    assert len(per_queue) == 25
    # At 25-way homogeneous dilution each class contributes ~4% of the
    # shared back-end signal (normalized correlation ~1/sqrt(25) = 0.2,
    # close to the noise floor of a 1-hour window). The front-queue hop
    # is always found; a meaningful fraction of queues resolve the full
    # pipeline, and most resolve at least partially. This is the binding
    # statistical limit of the approach at the paper's scale -- see the
    # honest-deviation notes in EXPERIMENTS.md.
    assert all(v >= 1 for v in per_queue.values())
    assert full >= 6
    assert full + partial >= 20
