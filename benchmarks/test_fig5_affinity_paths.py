"""FIG5 -- Figure 5: service graphs under affinity-based server selection.

Regenerates the paper's figure as delay-labelled ASCII path chains with
the bottleneck (EJB) tier marked, and benchmarks the pathmap analysis
that produces it.

Expected shape (paper): bidding takes C1 -> WS -> TS1 -> EJB1 -> DS and
back; comment takes C2 -> WS -> TS2 -> EJB2 -> DS and back; the EJB
servers are the dominant delay contributors (grey).
"""

from repro.analysis.render import render_ascii
from repro.apps.rubis import EXPECTED_AFFINITY_PATHS
from repro.core.offline import analyze_window

from conftest import BENCH_CONFIG, write_result


def test_fig5_affinity_service_graphs(benchmark, rubis_affinity):
    result = benchmark(
        analyze_window, rubis_affinity.collector, BENCH_CONFIG, end=183.0
    )

    lines = ["Figure 5 -- service graphs, affinity-based server selection"]
    for client in ("C1", "C2"):
        graph = result.graph_for(client)
        lines.append("")
        lines.append(render_ascii(graph))
    write_result("fig5_affinity_paths.txt", "\n".join(lines))

    # The paper's headline: paths recovered exactly.
    for service_class, client in (("bidding", "C1"), ("comment", "C2")):
        graph = result.graph_for(client)
        for edge in EXPECTED_AFFINITY_PATHS[service_class]:
            assert graph.has_edge(*edge)
    assert result.graph_for("C1").node_delay("EJB1") > result.graph_for("C1").node_delay("TS1")
