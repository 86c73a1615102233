"""Per-refresh metrics samples delivered to engine subscribers.

The paper casts E2EProf as "a basic service, 'pluggable' into any
distributed system"; a production deployment of such a service must export
its *own* health alongside its analysis results. A
:class:`MetricsSample` is that export: one immutable record per engine
refresh with the costs and work counts of exactly that refresh (deltas,
not cumulative totals -- subscribers aggregate however they like).

Wired through :meth:`repro.core.engine.E2EProfEngine.subscribe_metrics`::

    def on_metrics(now, result, sample):
        if sample.refresh_seconds > config.refresh_interval / 2:
            alert("analyzer falling behind", sample)

    engine.subscribe_metrics(on_metrics)

Samples are produced regardless of whether the engine's metrics registry
is enabled -- the engine counts this handful of values locally either way,
so a subscriber is the cheapest way to watch one engine without turning on
the full registry.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class MetricsSample:
    """Self-observability numbers for one engine refresh.

    Attributes
    ----------
    time:
        Simulation/wall time of the refresh (the ``now`` passed to
        :meth:`~repro.core.engine.E2EProfEngine.refresh`).
    refresh_seconds:
        Wall-clock cost of the refresh work: block ingest + incremental
        correlator updates + pathmap DFS (the Figure 9 quantity).
    pathmap_seconds:
        Portion of ``refresh_seconds`` spent in the pathmap DFS.
    fanout_seconds:
        Wall-clock cost of notifying the plain result subscribers
        (measured after the refresh work, so not part of
        ``refresh_seconds``).
    blocks_ingested:
        Streamed RLE blocks pulled from tracers this refresh.
    wire_bytes:
        Bytes of wire-format payload decoded this refresh (0 unless the
        engine runs with ``wire_fidelity=True``).
    correlators:
        Live (unparked) incremental correlators after this refresh.
    parked_correlators:
        Dormant correlators the engine has parked: dropped until one of
        their edges carries traffic again, costing nothing per refresh.
    cache_hits:
        Correlations served by an existing (cached) incremental
        correlator this refresh.
    cache_misses:
        Correlations that had to build a correlator from block history
        this refresh.
    correlations:
        Edge correlations evaluated by the pathmap DFS this refresh.
    spikes:
        Correlation spikes detected this refresh.
    nodes_visited:
        Nodes the pathmap DFS recursed into this refresh.
    correlator_skips:
        Pair products skipped this refresh because one side's block was
        quiet (the refresh's quiet-edge optimization). Parked correlators
        are counted arithmetically: each would have skipped every pair
        slot.
    correlation_cache_hits:
        Correlation queries answered from a correlator's dirty-flag
        result cache this refresh (unchanged window, same series object
        re-served).
    capture_batches:
        Columnar timestamp batches forwarded to the engine's capture
        sink this refresh (0 unless a ``capture_sink`` is configured).
    autotune_recommendations:
        Per-class tuning recommendations the adaptive controller holds
        after this refresh (0 unless the engine runs with
        ``adaptive=True``).
    low_confidence_events:
        Service classes whose steady-state confidence checks failed
        this refresh (each also publishes an ``EVENT_LOW_CONFIDENCE``
        diagnostic event).
    rewindow_clips:
        Change-point-triggered window clips the adaptive controller
        applied this refresh (delta, not the engine's running total).
    """

    time: float
    refresh_seconds: float
    pathmap_seconds: float
    fanout_seconds: float
    blocks_ingested: int
    wire_bytes: int
    correlators: int
    cache_hits: int
    cache_misses: int
    correlations: int
    spikes: int
    nodes_visited: int
    correlator_skips: int = 0
    correlation_cache_hits: int = 0
    capture_batches: int = 0
    autotune_recommendations: int = 0
    low_confidence_events: int = 0
    rewindow_clips: int = 0
    parked_correlators: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-able) of the sample."""
        return dataclasses.asdict(self)
