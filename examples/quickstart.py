"""Quickstart: discover service paths in a simulated multi-tier system.

Builds the paper's RUBiS testbed (web server -> 2x Tomcat -> 2x EJB ->
database) with two client classes, runs one minute of traffic, and lets
pathmap recover each class's causal service path -- delays, return path,
and bottleneck -- purely from passively captured packet timestamps.

Run:  python examples/quickstart.py
"""

from repro import PathmapConfig, analyze_window, build_rubis, find_bottlenecks
from repro.analysis.render import render_ascii


def main() -> None:
    # One minute of traffic is plenty at 10 requests/second per class.
    config = PathmapConfig(
        window=60.0,             # sliding window W
        refresh_interval=60.0,   # dW
        quantum=1e-3,            # tau = 1 ms (paper's RUBiS setting)
        sampling_window=50e-3,   # omega = 50 ms
        max_transaction_delay=2.0,
        min_spike_height=0.10,
    )

    print("building RUBiS (affinity dispatch: bidding->TS1, comment->TS2)...")
    rubis = build_rubis(dispatch="affinity", seed=7, request_rate=10.0, config=config)
    rubis.run_until(62.0)
    print(f"simulated 62 s, {rubis.topology.fabric.messages_sent} messages on the wire")

    # The online engine, replayed over the stored trace up to t = 61 s.
    result = analyze_window(rubis.collector, config, end=61.0)
    print(
        f"pathmap: {result.stats.correlations} correlations, "
        f"{result.stats.edges_discovered} causal edges, "
        f"{result.stats.elapsed_seconds:.2f}s\n"
    )

    for client in ("C1", "C2"):
        graph = result.graph_for(client)
        print(render_ascii(graph))
        report = find_bottlenecks(graph)
        print(f"  bottleneck: {report.dominant()} "
              f"({report.share(report.dominant()):.0%} of attributed delay)\n")


if __name__ == "__main__":
    main()
