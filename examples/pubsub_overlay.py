"""Pub-sub dissemination trees (the paper's Section 5 future work).

"Our near term future work will explore other areas and applications to
which the techniques presented in this paper can be applied. These
include network overlays and publish-subscribe systems."

Two publishers feed a broker tree; subscribers receive per-topic copies.
Pathmap, completely unchanged, recovers each topic's dissemination tree
-- including the fan-out at the root broker, where one inbound event
becomes two outbound messages.

Run:  python examples/pubsub_overlay.py
"""

from repro import analyze_window
from repro.analysis.render import render_ascii
from repro.apps.pubsub import PUBSUB_ANALYSIS_CONFIG, build_pubsub


def main() -> None:
    deployment = build_pubsub(seed=17, publish_rate=20.0)
    print("broker tree: B0 -> {BL -> {SUB1, SUB2}, BR -> {SUB3}}")
    print("topics: 'news' (BL branch only), 'alerts' (both branches)\n")
    deployment.run_until(62.0)

    result = analyze_window(deployment.collector, PUBSUB_ANALYSIS_CONFIG, end=61.0)
    for (publisher, root), graph in sorted(result.graphs.items()):
        print(render_ascii(graph, mark_bottlenecks=False))
        fanout = len(graph.successors(root))
        print(f"  root fan-out: {fanout} branch(es)\n")

    alerts = result.graph_for("PUB-alerts")
    print("checks:")
    print("  alerts reaches both branches:",
          alerts.has_edge("B0", "BL") and alerts.has_edge("B0", "BR"))
    news = result.graph_for("PUB-news")
    print("  news stays on the left branch:",
          news.has_edge("B0", "BL") and not news.has_edge("B0", "BR"))


if __name__ == "__main__":
    main()
