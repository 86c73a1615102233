"""Bottleneck identification (paper Section 4.1.1).

"The major sources of delay are automatically detected by E2EProf and
marked in grey (i.e., the EJB servers in the figure)."

Given a service graph, the per-node computation delays are ranked; nodes
whose delay exceeds a configurable share of the path total are flagged as
bottlenecks (the grey nodes of Figures 5 and 6).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core.service_graph import NodeId, ServiceGraph
from repro.errors import AnalysisError


@dataclasses.dataclass(frozen=True)
class BottleneckReport:
    """Ranked per-node delay attribution for one service class."""

    client: NodeId
    node_delays: Dict[NodeId, float]
    bottlenecks: List[NodeId]
    total_delay: float

    def share(self, node: NodeId) -> float:
        """Fraction of the total attributed delay spent at ``node``."""
        if self.total_delay <= 0:
            return 0.0
        return self.node_delays.get(node, 0.0) / self.total_delay

    def dominant(self) -> NodeId:
        """The single largest contributor; of tied ones, the first by name."""
        if not self.node_delays:
            raise AnalysisError("no node delays to rank")
        return min(self.node_delays, key=lambda node: (-self.node_delays[node], node))


def find_bottlenecks(
    graph: ServiceGraph, threshold_share: float = 0.30
) -> BottleneckReport:
    """Flag nodes contributing more than ``threshold_share`` of the
    summed per-node delay of a service graph.

    The paper's figures mark exactly these nodes grey. A share threshold
    (rather than a fixed count) naturally flags multiple nodes when delay
    is concentrated in a tier, and none when it is evenly spread.
    """
    if not 0 < threshold_share <= 1:
        raise AnalysisError(
            f"threshold_share must be in (0, 1], got {threshold_share}"
        )
    delays = graph.node_delays()
    total = sum(delays.values())
    bottlenecks = sorted(
        (node for node, delay in delays.items() if total > 0 and delay / total >= threshold_share),
        key=lambda node: -delays[node],
    )
    return BottleneckReport(
        client=graph.client,
        node_delays=delays,
        bottlenecks=bottlenecks,
        total_delay=total,
    )


def rank_nodes(graph: ServiceGraph) -> List[NodeId]:
    """All nodes with defined computation delay, slowest first."""
    delays = graph.node_delays()
    return sorted(delays, key=lambda node: -delays[node])
