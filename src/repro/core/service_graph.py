"""Service graph and service path abstractions (paper Sections 3.1-3.2).

A *service graph* is the output of pathmap for one service class: a
directed graph rooted at a front-end node, whose vertices are service
nodes and whose edges carry the causal delay(s) discovered by
cross-correlation.

Edge delay semantics (paper Section 3.3): the label of edge
``S_i -> d_s`` is the **cumulative** latency from the moment a request of
this class arrives at the front end until its induced message arrives at
``d_s`` -- "the sum of the time taken by the request to arrive at node
S_i, the processing delay at node S_i, and the communication delay in the
path from S_i to d_s". An edge may carry several delays (one per spike)
when the class reaches ``S_i`` via several upstream paths.

The per-node *computation delay* is the difference between the smallest
outgoing and the smallest incoming cumulative delay (this includes the
outgoing link's network latency, which is negligible on a LAN -- same
approximation as the paper).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.spikes import Spike
from repro.errors import AnalysisError

NodeId = str
EdgeKey = Tuple[NodeId, NodeId]


@dataclasses.dataclass
class ServiceEdge:
    """A causal edge discovered by pathmap.

    Attributes
    ----------
    src, dst:
        Endpoint node ids.
    delays:
        Cumulative delays in seconds, one per correlation spike, sorted
        ascending. Multiple entries mean the service class reaches this
        edge along multiple upstream paths.
    spikes:
        The raw spikes backing ``delays`` (same order).
    quality:
        Transport-health annotation
        (:class:`~repro.tracing.transport.DataQuality`) when the edge's
        signal was degraded or stale this window; None for fresh data
        (and for analyses that bypass the transport layer).
    """

    src: NodeId
    dst: NodeId
    delays: List[float] = dataclasses.field(default_factory=list)
    spikes: List[Spike] = dataclasses.field(default_factory=list)
    quality: Optional[object] = None

    @property
    def key(self) -> EdgeKey:
        return (self.src, self.dst)

    @property
    def min_delay(self) -> float:
        if not self.delays:
            raise AnalysisError(f"edge {self.src}->{self.dst} has no delays")
        return min(self.delays)

    @property
    def max_delay(self) -> float:
        if not self.delays:
            raise AnalysisError(f"edge {self.src}->{self.dst} has no delays")
        return max(self.delays)

    def strongest_spike(self) -> Optional[Spike]:
        if not self.spikes:
            return None
        return max(self.spikes, key=lambda s: s.height)


@dataclasses.dataclass(frozen=True)
class ServicePath:
    """One root-to-leaf path through a service graph.

    ``nodes[0]`` is the client node; ``cumulative_delays[k]`` is the delay
    label of the edge ``nodes[k] -> nodes[k+1]`` (so it has one fewer entry
    than ``nodes``; the client edge has delay 0 by convention, as the
    request's arrival at the front end is the time origin).
    """

    nodes: Tuple[NodeId, ...]
    cumulative_delays: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise AnalysisError("a service path needs at least two nodes")
        if len(self.cumulative_delays) != len(self.nodes) - 1:
            raise AnalysisError(
                "cumulative_delays must have exactly len(nodes) - 1 entries"
            )

    @property
    def total_delay(self) -> float:
        """Cumulative delay at the deepest edge of the path."""
        return self.cumulative_delays[-1]

    def hop_delays(self) -> Tuple[float, ...]:
        """Per-hop delays: consecutive differences of the cumulative labels."""
        out = [self.cumulative_delays[0]]
        for prev, cur in zip(self.cumulative_delays, self.cumulative_delays[1:]):
            out.append(cur - prev)
        return tuple(out)

    def __str__(self) -> str:
        parts = [self.nodes[0]]
        for node, delay in zip(self.nodes[1:], self.cumulative_delays):
            parts.append(f"-[{delay * 1e3:.1f}ms]-> {node}")
        return " ".join(parts)


class ServiceGraph:
    """The causal graph of one service class, rooted at a front-end node."""

    def __init__(self, client: NodeId, root: NodeId) -> None:
        self.client = client
        self.root = root
        #: Steady-state confidence report
        #: (:class:`~repro.core.confidence.ConfidenceReport`) stamped by
        #: :meth:`PathmapResult.annotate_confidence`; None when ungraded.
        self.confidence: Optional[object] = None
        self._nodes: Set[NodeId] = {client, root}
        self._edges: Dict[EdgeKey, ServiceEdge] = {}
        self._out: Dict[NodeId, List[NodeId]] = {client: [root], root: []}
        # The client edge exists by construction (Algorithm 1 adds
        # E_c(V_c -> S_i) before calling ComputePath) with delay 0: request
        # arrival at the front end is the time origin of all labels.
        self._edges[(client, root)] = ServiceEdge(client, root, [0.0], [])

    # -- construction -----------------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        if node not in self._nodes:
            self._nodes.add(node)
            self._out[node] = []

    def add_edge(
        self,
        src: NodeId,
        dst: NodeId,
        delays: Sequence[float],
        spikes: Sequence[Spike] = (),
    ) -> ServiceEdge:
        """Add (or extend) a causal edge labelled with spike delays."""
        if not delays:
            raise AnalysisError(f"edge {src}->{dst} must carry at least one delay")
        self.add_node(src)
        self.add_node(dst)
        key = (src, dst)
        edge = self._edges.get(key)
        if edge is None:
            edge = ServiceEdge(src, dst, sorted(delays), list(spikes))
            self._edges[key] = edge
            self._out[src].append(dst)
        else:
            edge.delays = sorted(set(edge.delays) | set(delays))
            edge.spikes.extend(spikes)
        return edge

    # -- inspection ---------------------------------------------------------------

    @property
    def nodes(self) -> Set[NodeId]:
        return set(self._nodes)

    @property
    def edges(self) -> List[ServiceEdge]:
        return list(self._edges.values())

    def edge(self, src: NodeId, dst: NodeId) -> ServiceEdge:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise AnalysisError(f"no edge {src}->{dst} in service graph") from None

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        return (src, dst) in self._edges

    def edge_set(self) -> Set[EdgeKey]:
        return set(self._edges)

    def successors(self, node: NodeId) -> List[NodeId]:
        return list(self._out.get(node, []))

    def predecessors(self, node: NodeId) -> List[NodeId]:
        return [src for (src, dst) in self._edges if dst == node]

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"ServiceGraph(client={self.client!r}, root={self.root!r}, "
            f"nodes={len(self._nodes)}, edges={len(self._edges)})"
        )

    # -- delay attribution ------------------------------------------------------------

    def incoming_delay(self, node: NodeId) -> Optional[float]:
        """Smallest cumulative delay over incoming edges, or None."""
        delays = [
            edge.min_delay for edge in self._edges.values() if edge.dst == node
        ]
        return min(delays) if delays else None

    def outgoing_delay(self, node: NodeId) -> Optional[float]:
        """Smallest cumulative delay over outgoing edges, or None."""
        delays = [
            edge.min_delay
            for edge in self._edges.values()
            if edge.src == node and edge.dst != self.client
        ]
        return min(delays) if delays else None

    def node_delay(self, node: NodeId) -> Optional[float]:
        """Per-node computation delay (paper Section 3.3).

        The difference between the node's smallest outgoing and smallest
        incoming cumulative delays; includes the outgoing link latency.
        Returns None for the client, for leaves, and for unreached nodes.
        """
        if node == self.client:
            return None
        incoming = self.incoming_delay(node)
        outgoing = self.outgoing_delay(node)
        if incoming is None or outgoing is None:
            return None
        return max(0.0, outgoing - incoming)

    def node_delays(self) -> Dict[NodeId, float]:
        """Computation delay for every node where it is defined, by node
        name (so ties rank the same in every process)."""
        out: Dict[NodeId, float] = {}
        for node in sorted(self._nodes):
            delay = self.node_delay(node)
            if delay is not None:
                out[node] = delay
        return out

    def end_to_end_delay(self) -> float:
        """Largest cumulative delay over all edges: the end-to-end latency
        from request arrival at the front end to the deepest observed
        message (for request-response paths whose return edges were
        discovered, this is the front-end response time)."""
        if not self._edges:
            raise AnalysisError("empty service graph")
        return max(edge.max_delay for edge in self._edges.values())

    # -- path enumeration ---------------------------------------------------------------

    def paths(self, max_paths: int = 1000) -> List[ServicePath]:
        """Enumerate root-to-leaf causal paths by increasing delay labels.

        An edge continues a path only when it carries a delay no smaller
        than the delay at which the path reached its source (causality
        moves forward in time); each node is visited at most once per path
        (cycle unrolling as in the paper's Figure 5).
        """
        results: List[ServicePath] = []

        def walk(node: NodeId, visited: Tuple[NodeId, ...], delays: Tuple[float, ...]) -> None:
            if len(results) >= max_paths:
                return
            reached_at = delays[-1] if delays else 0.0
            extended = False
            for nxt in self._out.get(node, []):
                if nxt in visited:
                    continue
                edge = self._edges[(node, nxt)]
                feasible = [d for d in edge.delays if d >= reached_at]
                if not feasible:
                    continue
                extended = True
                walk(nxt, visited + (nxt,), delays + (min(feasible),))
            if not extended and len(visited) >= 2:
                results.append(ServicePath(visited, delays))

        walk(self.client, (self.client,), ())
        # Continue from root: the walk above starts at the client whose
        # only edge is client -> root with delay 0.
        return results

    def to_dict(self) -> Dict:
        """JSON-serializable representation."""
        return {
            "client": self.client,
            "root": self.root,
            # Like edge quality below, the confidence verdict is exported
            # only when the window was flagged unsteady.
            **(
                {"confidence": self.confidence.to_dict()}
                if self.confidence is not None and not self.confidence.ok
                else {}
            ),
            "nodes": sorted(self._nodes),
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "delays": list(e.delays),
                    # Quality annotations ride along only when the edge
                    # was flagged, keeping fresh-run exports unchanged.
                    **(
                        {"quality": e.quality.to_dict()}
                        if e.quality is not None
                        else {}
                    ),
                }
                for e in self._edges.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ServiceGraph":
        graph = cls(data["client"], data["root"])
        for node in data.get("nodes", []):
            graph.add_node(node)
        for edge in data.get("edges", []):
            if (edge["src"], edge["dst"]) == (data["client"], data["root"]):
                continue  # constructed implicitly
            graph.add_edge(edge["src"], edge["dst"], edge["delays"])
        return graph
