"""Capacity planning from a measured service graph (paper Section 3.1).

"...service path analysis can pinpoint the bottleneck components in a
request path, and it can be used for provisioning, capacity planning,
enforcing SLAs, performance prediction, etc."

This example measures a RUBiS deployment, then answers two operator
questions with nothing but the black-box service graph:

1. *what-if*: how fast does bidding get if we double the EJB tier?
2. *planning*: what is the cheapest single-node upgrade that brings the
   path under a 25 ms target?

Finally it applies the recommended upgrade in the simulator and verifies
the prediction against reality.

Run:  python examples/capacity_planning.py
"""

from repro import PathmapConfig, analyze_window, build_rubis
from repro.management.planning import path_hop_breakdown, plan_for_target, predict_latency

CONFIG = PathmapConfig(
    window=60.0, refresh_interval=60.0, quantum=1e-3,
    sampling_window=50e-3, max_transaction_delay=2.0,
    min_spike_height=0.10,
)
TARGET = 0.025  # 25 ms request-path target for bidding


def measure(service_means=None):
    rubis = build_rubis(dispatch="affinity", seed=7, request_rate=10.0,
                        config=CONFIG, service_means=service_means)
    rubis.run_until(62.0)
    result = analyze_window(rubis.collector, CONFIG, end=61.0)
    graph = result.graph_for("C1")
    path = max(graph.paths(), key=lambda p: p.total_delay)
    return graph, path


def main() -> None:
    graph, path = measure()
    print(f"measured bidding path: {' -> '.join(path.nodes)} "
          f"({path.total_delay*1e3:.1f} ms)")
    print("per-node attribution:",
          {n: f"{d*1e3:.1f}ms" for n, d in path_hop_breakdown(path).items()})

    doubled = predict_latency(graph, {"EJB1": 2.0}, path)
    print(f"\nwhat-if, EJB1 twice as fast: predicted "
          f"{doubled*1e3:.1f} ms (from {path.total_delay*1e3:.1f} ms)")

    options = plan_for_target(graph, target_latency=TARGET, path=path)
    if not options:
        print(f"no single-node upgrade reaches {TARGET*1e3:.0f} ms")
        return
    best = options[0]
    print(f"\nplan for a {TARGET*1e3:.0f} ms target:")
    for rec in options:
        print(f"  speed up {rec.node} by {rec.speedup:.2f}x "
              f"-> predicted {rec.predicted_latency*1e3:.1f} ms")

    # Apply the cheapest recommendation for real and re-measure.
    means = {"EJB1": 0.020 / best.speedup}
    _, upgraded_path = measure(service_means=means)
    print(f"\napplied: {best.node} sped up {best.speedup:.2f}x in the simulator")
    print(f"predicted {best.predicted_latency*1e3:.1f} ms, "
          f"measured {upgraded_path.total_delay*1e3:.1f} ms")


if __name__ == "__main__":
    main()
