"""FIG6 -- Figure 6: service graphs under round-robin server selection.

Each service class now takes TWO paths (one per Tomcat/EJB branch); both
must appear in the class's service graph, with the EJB tier grey.
"""

from repro.analysis.render import render_ascii
from repro.apps.rubis import EXPECTED_ROUND_ROBIN_EDGES
from repro.core.offline import analyze_window

from conftest import BENCH_CONFIG, write_result


def test_fig6_roundrobin_service_graphs(benchmark, rubis_roundrobin):
    result = benchmark(
        analyze_window, rubis_roundrobin.collector, BENCH_CONFIG, end=183.0
    )

    lines = ["Figure 6 -- service graphs, round-robin server selection"]
    for client in ("C1", "C2"):
        lines.append("")
        lines.append(render_ascii(result.graph_for(client)))
    write_result("fig6_roundrobin_paths.txt", "\n".join(lines))

    for service_class, client in (("bidding", "C1"), ("comment", "C2")):
        graph = result.graph_for(client)
        for edge in EXPECTED_ROUND_ROBIN_EDGES[service_class]:
            assert graph.has_edge(*edge), (client, edge)
    # Both branches enumerable as distinct paths.
    nodes_per_path = {p.nodes for p in result.graph_for("C1").paths()}
    assert any("TS1" in n for n in nodes_per_path)
    assert any("TS2" in n for n in nodes_per_path)
