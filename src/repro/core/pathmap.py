"""The pathmap algorithm (paper Section 3.3, Algorithm 1).

Pathmap discovers, for every (front-end node, client node) pair, the
causal service graph of that client's service class:

1. ``ServiceRoot`` seeds one :class:`~repro.core.service_graph.ServiceGraph`
   per pair, rooted at the front end, with the implicit client edge.
2. ``ComputePath`` cross-correlates the class's *reference signal* (the
   time series of the client's requests arriving at the front end,
   ``T^{S_i}_{V_c -> S_i}``) against the signal of every edge leaving the
   current node, observed at the edge's destination. Correlation spikes
   identify causal edges; spike lags become cumulative delay labels.
3. Recursion proceeds depth-first into nodes not yet visited for this
   class (cycles from request-response return paths are unrolled).

The algorithm is black-box: its only input is a :class:`TraceWindow`
(per-edge message time series for one sliding window), which the tracing
subsystem assembles from passively captured packet timestamps. No
application cooperation, source code, or instrumentation is required.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.config import PathmapConfig
from repro.core.correlation import CorrelationSeries, SeriesLike, cross_correlate
from repro.core.service_graph import NodeId, ServiceGraph
from repro.core.spikes import Spike, detect_spikes
from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.confidence import ConfidenceReport
    from repro.obs.ledger import RefreshLedger
    from repro.obs.registry import MetricsRegistry
    from repro.obs.spans import SpanTracer
    from repro.tracing.transport import DataQuality


class TraceWindow(abc.ABC):
    """One sliding window of per-edge traffic signals.

    This is the boundary between the tracing substrate and the analysis:
    anything that can answer these five queries can be analyzed by
    pathmap (network packet traces, application access logs, simulated
    traffic...).
    """

    @abc.abstractmethod
    def front_end_nodes(self) -> List[NodeId]:
        """Service nodes that receive requests directly from clients."""

    @abc.abstractmethod
    def clients_of(self, node: NodeId) -> List[NodeId]:
        """Client nodes connected to a front-end node in this window."""

    @abc.abstractmethod
    def destinations_of(self, node: NodeId) -> List[NodeId]:
        """Nodes that ``node`` sent at least one message to in this window
        (may include client nodes, for response edges)."""

    @abc.abstractmethod
    def edge_series(self, src: NodeId, dst: NodeId) -> SeriesLike:
        """Density time series of messages ``src -> dst``, timestamped at
        the destination when the destination is traced, else at the source
        (client nodes are never traced -- paper Section 3.3)."""

    @abc.abstractmethod
    def is_client(self, node: NodeId) -> bool:
        """True when ``node`` is a client node (never recursed into)."""


def class_pairs(window: TraceWindow) -> List[Tuple[NodeId, NodeId]]:
    """Every ``(client, front_end)`` service class, in analysis order.

    The order is canonical (sorted, deterministic).
    """
    return [
        (client, root)
        for root in window.front_end_nodes()
        for client in window.clients_of(root)
    ]


@dataclasses.dataclass
class PathmapStats:
    """Work counters for one analysis pass (feeds the Figure 9 benchmark)."""

    correlations: int = 0
    spikes: int = 0
    edges_discovered: int = 0
    graphs: int = 0
    nodes_visited: int = 0
    elapsed_seconds: float = 0.0


@dataclasses.dataclass
class PathmapResult:
    """All service graphs recovered from one window, plus work stats.

    When the engine runs over the fault-tolerant transport, the result
    also carries transport-health annotations: ``edge_quality`` maps each
    tracked edge to its :class:`~repro.tracing.transport.DataQuality`
    (fresh / degraded / stale + gap ratio) and ``quality`` is the
    overall window score in ``[0, 1]`` (1.0 means every signal was
    complete and live). Paths built on degraded edges are annotated --
    never silently dropped -- so subscribers can weigh them.
    """

    graphs: Dict[Tuple[NodeId, NodeId], ServiceGraph]
    stats: PathmapStats
    #: Per-edge transport-data quality (empty without transport).
    edge_quality: Dict[Tuple[NodeId, NodeId], "DataQuality"] = dataclasses.field(
        default_factory=dict
    )
    #: Overall data-quality score of the window (1.0 = fully fresh).
    quality: float = 1.0
    #: Per-class steady-state confidence (empty until annotated).
    class_confidence: Dict[Tuple[NodeId, NodeId], "ConfidenceReport"] = (
        dataclasses.field(default_factory=dict)
    )
    #: Overall steady-state confidence of the window: the minimum class
    #: score, 1.0 when nothing was graded (no classes, scoring off).
    confidence: float = 1.0
    #: Per-stage / per-kernel cost accounting of the refresh that built
    #: this result (:class:`repro.obs.ledger.RefreshLedger`; None for
    #: results computed outside an engine, e.g. one-shot analysis).
    ledger: Optional["RefreshLedger"] = None

    def annotate_ledger(self, ledger: "RefreshLedger") -> None:
        """Attach the producing refresh's cost ledger to this result."""
        self.ledger = ledger

    def annotate_confidence(
        self, class_confidence: Dict[Tuple[NodeId, NodeId], "ConfidenceReport"]
    ) -> None:
        """Attach per-class steady-state confidence reports and stamp
        each onto its service graph. The overall score is the minimum --
        one unsteady class makes the whole window suspect for comparison
        across refreshes, while per-class verdicts stay available."""
        self.class_confidence = dict(class_confidence)
        if self.class_confidence:
            self.confidence = min(
                report.score for report in self.class_confidence.values()
            )
        for class_key, graph in self.graphs.items():
            report = self.class_confidence.get(class_key)
            if report is not None:
                graph.confidence = report

    def low_confidence_classes(
        self,
    ) -> Dict[Tuple[NodeId, NodeId], "ConfidenceReport"]:
        """Classes whose window violated the steady-state assumption."""
        return {k: r for k, r in self.class_confidence.items() if not r.ok}

    def annotate_quality(
        self,
        edge_quality: Dict[Tuple[NodeId, NodeId], "DataQuality"],
        quality: float,
    ) -> None:
        """Attach transport-health verdicts to this result and stamp the
        non-fresh ones onto the matching discovered graph edges."""
        self.edge_quality = dict(edge_quality)
        self.quality = quality
        for graph in self.graphs.values():
            for edge in graph.edges:
                verdict = self.edge_quality.get(edge.key)
                if verdict is not None and not verdict.ok:
                    edge.quality = verdict

    def degraded_edges(self) -> Dict[Tuple[NodeId, NodeId], "DataQuality"]:
        """Edges whose signal was degraded or stale this window."""
        return {k: q for k, q in self.edge_quality.items() if not q.ok}

    def graph_for(self, client: NodeId, root: Optional[NodeId] = None) -> ServiceGraph:
        """The service graph of one client (and optionally one root)."""
        matches = [
            g
            for (c, r), g in self.graphs.items()
            if c == client and (root is None or r == root)
        ]
        if not matches:
            raise AnalysisError(f"no service graph for client {client!r}")
        if len(matches) > 1:
            raise AnalysisError(
                f"client {client!r} has {len(matches)} service graphs; "
                "specify the root"
            )
        return matches[0]


#: Signature of a pluggable correlation provider: given the window and
#: the identifying keys of the reference ``(client, root)`` and edge
#: ``(src, dst)`` signals, return a correlation series. A provider that
#: needs the signals themselves fetches them with ``window.edge_series``;
#: the online engine plugs in one backed by incremental correlators, which
#: never does.
CorrelationProvider = Callable[
    [TraceWindow, Tuple[NodeId, NodeId], Tuple[NodeId, NodeId]],
    "CorrelationSeries",
]


class Pathmap:
    """Configured pathmap analyzer.

    Parameters
    ----------
    config:
        Algorithm parameters (W, dW, tau, omega, T_u, spike threshold).
    method:
        Correlation implementation: ``"auto"``, ``"dense"``, ``"sparse"``,
        ``"rle"`` or ``"fft"`` (see :mod:`repro.core.correlation`).
    correlation_provider:
        Optional override for how edge correlations are produced. Receives
        ``(window, (client, root), (src, dst))`` and returns a
        :class:`~repro.core.correlation.CorrelationSeries`. Used by the
        online engine to substitute cached incremental correlators.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving,
        per analysis pass, the DFS work counters
        (``pathmap_correlations_total``, ``pathmap_spikes_total``,
        ``pathmap_edges_total``, ``pathmap_nodes_visited_total``) and a
        per-service-class wall-time histogram
        (``pathmap_class_seconds{class="C1@WS"}``).
    tracer:
        Optional :class:`~repro.obs.spans.SpanTracer`: when enabled, each
        service class's DFS runs under a ``pathmap.class`` span (labelled
        ``client@root``) with its work counters as span attributes.
    """

    def __init__(
        self,
        config: PathmapConfig,
        method: str = "auto",
        correlation_provider: Optional[CorrelationProvider] = None,
        metrics: Optional["MetricsRegistry"] = None,
        tracer: Optional["SpanTracer"] = None,
    ) -> None:
        self.config = config
        self.method = method
        self._provider = correlation_provider or self._default_provider
        self._metrics = metrics
        if tracer is None:
            from repro.obs.spans import NULL_TRACER

            tracer = NULL_TRACER
        self._tracer = tracer
        # Spike-scan memo: when the provider returns the *same*
        # CorrelationSeries object as last time for a (class, edge) pair --
        # the incremental correlator's dirty-flag cache does exactly that
        # for quiet edges -- the previous detect_spikes result is reused.
        # Holding a strong reference to the series makes the identity check
        # safe (the id cannot be recycled while the entry lives). A host
        # that discards a correlator calls forget() so the memo dies with
        # it.
        self._spike_cache: Dict[
            Tuple[Tuple[NodeId, NodeId], Tuple[NodeId, NodeId]],
            Tuple["CorrelationSeries", List[Spike]],
        ] = {}

    def _default_provider(
        self,
        window: TraceWindow,
        ref_key: Tuple[NodeId, NodeId],
        edge_key: Tuple[NodeId, NodeId],
    ) -> "CorrelationSeries":
        return cross_correlate(
            window.edge_series(*ref_key),
            window.edge_series(*edge_key),
            max_lag=self.config.max_lag_quanta,
            method=self.method,
        )

    def forget(self, keys) -> None:
        """Drop the spike memo of every ``(ref_key, edge_key)`` in ``keys``
        (the host discarded those correlators and their cached series)."""
        for key in keys:
            self._spike_cache.pop(key, None)

    # -- Algorithm 1: ServiceRoot ------------------------------------------------

    def analyze(self, window: TraceWindow) -> PathmapResult:
        """Compute the service graphs of every service class in ``window``
        (:func:`class_pairs` order), one class at a time.

        Classes are independent -- the paper's Section 3.7 notes the
        algorithm "can easily be made more scalable by parallely computing
        the service graph of each client node" -- but neither a thread
        pool nor worker processes beat this loop on the measured
        workloads (docs/PERFORMANCE.md, "Parallel refresh")."""
        started = time.perf_counter()
        stats = PathmapStats()
        graphs: Dict[Tuple[NodeId, NodeId], ServiceGraph] = {}
        for client, root in class_pairs(window):
            pair_started = time.perf_counter()
            graph = ServiceGraph(client, root)
            local = PathmapStats()
            with self._tracer.span(
                "pathmap.class", service_class=f"{client}@{root}"
            ) as span:
                visited: Set[NodeId] = set()
                self._compute_path(graph, root, visited, window, local)
                span.set_attribute("correlations", local.correlations)
                span.set_attribute("spikes", local.spikes)
                span.set_attribute("edges", local.edges_discovered)
                span.set_attribute("nodes_visited", local.nodes_visited)
            if self._metrics is not None:
                self._metrics.histogram(
                    "pathmap_class_seconds",
                    "Wall-clock seconds to compute one service class's graph",
                    labels={"class": f"{client}@{root}"},
                ).observe(time.perf_counter() - pair_started)
            graphs[(client, root)] = graph
            stats.correlations += local.correlations
            stats.spikes += local.spikes
            stats.edges_discovered += local.edges_discovered
            stats.graphs += 1
            stats.nodes_visited += local.nodes_visited
        stats.elapsed_seconds = time.perf_counter() - started
        if self._metrics is not None:
            self._record_stats(stats)
        return PathmapResult(graphs, stats)

    def _record_stats(self, stats: PathmapStats) -> None:
        m = self._metrics
        m.counter(
            "pathmap_correlations_total", "Edge correlations evaluated by the DFS"
        ).inc(stats.correlations)
        m.counter(
            "pathmap_spikes_total", "Correlation spikes detected"
        ).inc(stats.spikes)
        m.counter(
            "pathmap_edges_total", "Causal edges discovered"
        ).inc(stats.edges_discovered)
        m.counter(
            "pathmap_nodes_visited_total", "Nodes the DFS recursed into"
        ).inc(stats.nodes_visited)
        m.histogram(
            "pathmap_analysis_seconds", "Wall-clock seconds per full analysis pass"
        ).observe(stats.elapsed_seconds)

    # -- Algorithm 1: ComputePath --------------------------------------------------

    def _compute_path(
        self,
        graph: ServiceGraph,
        node: NodeId,
        visited: Set[NodeId],
        window: TraceWindow,
        stats: PathmapStats,
    ) -> None:
        visited.add(node)
        stats.nodes_visited += 1
        ref_key = (graph.client, graph.root)
        for dest in window.destinations_of(node):
            # Response edges back to client nodes are correlated too (they
            # expose the end-to-end latency) but never extend the recursion.
            spikes = self._correlate_edge(window, ref_key, (node, dest), stats)
            if not spikes:
                continue
            graph.add_edge(node, dest, [s.delay for s in spikes], spikes)
            stats.edges_discovered += 1
            if dest not in visited and not window.is_client(dest):
                self._compute_path(graph, dest, visited, window, stats)

    def _correlate_edge(
        self,
        window: TraceWindow,
        ref_key: Tuple[NodeId, NodeId],
        edge_key: Tuple[NodeId, NodeId],
        stats: PathmapStats,
    ) -> List[Spike]:
        cfg = self.config
        corr = self._provider(window, ref_key, edge_key)
        stats.correlations += 1
        if corr.n < cfg.min_overlap_samples:
            return []
        memo_key = (ref_key, edge_key)
        memo = self._spike_cache.get(memo_key)
        if memo is not None and memo[0] is corr:
            spikes = memo[1]
        else:
            spikes = detect_spikes(
                corr,
                sigma=cfg.spike_sigma,
                resolution_quanta=cfg.resolution_quanta,
                min_height=cfg.min_spike_height,
            )
            self._spike_cache[memo_key] = (corr, spikes)
        stats.spikes += len(spikes)
        return spikes


def compute_service_graphs(
    window: TraceWindow,
    config: PathmapConfig,
    method: str = "auto",
    metrics: Optional["MetricsRegistry"] = None,
    tracer: Optional["SpanTracer"] = None,
) -> PathmapResult:
    """Convenience wrapper: one-shot pathmap analysis of a window."""
    return Pathmap(config, method=method, metrics=metrics, tracer=tracer).analyze(window)
