"""Offline workflow: capture once, analyze many times (plus clock audit).

Enterprise diagnosis is often post-hoc: capture a trace window in
production, then slice and re-analyze it offline (that is how the paper
processed Delta's week-long log). This example:

1. records a RUBiS trace to a JSONL file,
2. reloads it into a fresh collector and replays it through the online
   engine, one full window per refresh,
3. audits clock skew between two servers from the same trace
   (Section 3.8) -- the database's clock is deliberately 80 ms ahead.

Run:  python examples/offline_trace_analysis.py
"""

import tempfile
from pathlib import Path

from repro import E2EProfEngine, PathmapConfig, TraceCollector, estimate_clock_skew
from repro.core.offline import replay
from repro.simulation.distributions import Erlang
from repro.simulation.nodes import StaticRouter
from repro.simulation.topology import Topology
from repro.tracing.storage import load_captures, write_capture_jsonl

CONFIG = PathmapConfig(
    window=60.0,
    refresh_interval=60.0,
    quantum=1e-3,
    sampling_window=5e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)
DB_SKEW = 0.080  # the database clock runs 80 ms ahead
LINK = 0.0002    # known LAN one-way latency


def build_system() -> Topology:
    topo = Topology(seed=13)
    topo.add_service_node("DB", Erlang(0.010, k=8), workers=8, clock_skew=DB_SKEW)
    topo.add_service_node("AP", Erlang(0.008, k=8), workers=8,
                          router=StaticRouter({}, default="DB"))
    topo.add_service_node("WS", Erlang(0.003, k=8), workers=8,
                          router=StaticRouter({}, default="AP"))
    client = topo.add_client("C", "orders", front_end="WS")
    topo.open_workload(client, rate=20.0)
    return topo


def main() -> None:
    topo = build_system()
    topo.run_until(125.0)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "orders_trace.jsonl"
        count = write_capture_jsonl(path, topo.collector.export_records())
        print(f"wrote {count} capture records to {path.name} "
              f"({path.stat().st_size // 1024} KiB)")

        # A fresh analysis session, as if days later on another machine.
        offline = TraceCollector(client_nodes=["C"])
        offline.ingest_many(load_captures(path))

        # The stored stamps are already local-clock (DB's included), so
        # the replay's tracers add no skew of their own.
        for end, result in replay(offline, E2EProfEngine(CONFIG), 1.0, 121.0):
            graph = result.graph_for("C")
            print(f"window ending t={end:.0f}s: orders path "
                  f"{' -> '.join(p.nodes[-1] for p in graph.paths()[:1]) or '?'} "
                  f"deepest delay {graph.end_to_end_delay()*1e3:.1f} ms "
                  f"over {len(graph.edges)} edges")

        # Clock audit: the AP->DB edge was captured at both endpoints.
        estimate = estimate_clock_skew(
            offline, "AP", "DB", CONFIG, end_time=121.0, network_delay=LINK
        )
        print(f"\nclock audit on AP->DB: estimated skew "
              f"{estimate.skew*1e3:+.1f} ms (injected {DB_SKEW*1e3:+.0f} ms, "
              f"spike height {estimate.spike_height:.2f})")
        print("note: pathmap's delay labels on edges into DB absorb this "
              "skew, which is why Section 3.8 recommends the audit.")


if __name__ == "__main__":
    main()
