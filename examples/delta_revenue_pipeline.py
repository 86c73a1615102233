"""Diagnosing an enterprise event pipeline from access logs (Section 4.3).

The Delta Revenue Pipeline is a unidirectional, multi-queue event system
analyzed from *application-level access logs* (timestamp, server id,
request id) -- no packet captures, no instrumentation. This example:

1. generates an hour of pipeline traffic with a deliberately slowed
   database stage,
2. converts the access log into edge captures,
3. runs pathmap (tau = 1 s, omega = 50 s, the paper's Delta settings),
4. pinpoints the slow stage.

Run:  python examples/delta_revenue_pipeline.py
"""

from repro import analyze_window, build_delta, find_bottlenecks
from repro.analysis.render import render_ascii
from repro.apps.delta import DELTA_ANALYSIS_CONFIG
from repro.config import PathmapConfig
from repro.tracing.access_log import access_log_to_captures
from repro.tracing.collector import TraceCollector

CONFIG = PathmapConfig(
    window=3600.0,
    refresh_interval=600.0,
    quantum=1.0,          # 1-second events, not millisecond packets
    sampling_window=50.0,
    max_transaction_delay=1200.0,
)


def main() -> None:
    print("building the Revenue Pipeline (5 queues, slow database x2.5)...")
    deployment = build_delta(
        seed=3,
        num_queues=5,
        events_per_hour=18_000.0,
        slow_db_factor=2.5,   # the fault to diagnose
        config=CONFIG,
    )
    deployment.run_until(3700.0)
    log = deployment.sorted_access_log()
    print(f"collected {len(log)} access-log records "
          f"({deployment.topology.fabric.messages_sent} events routed)")

    # The same analysis code consumes logs as consumes packet traces.
    collector = TraceCollector(client_nodes=["external"])
    collector.ingest_many(access_log_to_captures(log))
    result = analyze_window(collector, CONFIG, end=3650.0)

    print(f"\nrecovered {len(result.graphs)} per-queue service graphs:\n")
    shown = 0
    for (client, root), graph in sorted(result.graphs.items()):
        if shown < 2:
            print(render_ascii(graph))
            print()
        shown += 1

    votes = {}
    for graph in result.graphs.values():
        if graph.node_delays():
            dominant = find_bottlenecks(graph).dominant()
            votes[dominant] = votes.get(dominant, 0) + 1
    culprit = max(votes, key=votes.get)
    print(f"diagnosis: dominant delay contributor across queues = {culprit} "
          f"(votes: {votes})")
    print("expected: RDB -- the stage we slowed down, matching the paper's "
          "'slow database server connection' finding")


if __name__ == "__main__":
    main()
