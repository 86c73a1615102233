"""The online E2EProf engine (paper Sections 3.3-3.6).

This is the analyzer node: every refresh interval ``dW`` each per-node
tracer sends the RLE-encoded block of every edge that spoke as one round
frame over the transport (the streamed wire format of Section 3.6; a
quiet edge's silence is implicit), and the engine feeds the blocks into
incremental correlators -- the rows of one
:class:`~repro.core.incremental.CorrelatorBank`, one per (service class,
edge) -- and re-runs the pathmap DFS over the spikes those rows keep. Only the newest ``dW`` of trace is ever correlated,
which is what makes the per-refresh cost constant in ``W`` (the flat
'incremental' curve of Figure 9).

Subscribers receive every fresh :class:`~repro.core.pathmap.PathmapResult`
-- the paper's long-term vision of E2EProf as "a basic service,
'pluggable' into any distributed system" whose subscribers "receive
real-time information about their service paths".

Block timing: blocks are flushed one sampling window behind real time so
every message contributing to a block's boxcar has already been observed;
the analysis therefore lags reality by ``omega`` (50 ms at RUBiS
settings), which is negligible against ``dW``.

Side rule: an edge is captured at each traced endpoint. The engine keeps
the destination-side copy (Algorithm 1), and the source-side copy only
for edges into a node that runs no tracer: a client, or an untraced
(black-box) back end.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.config import PathmapConfig, TransportConfig
from repro.core.confidence import (
    DEFAULT_LOW_CONFIDENCE,
    ConfidenceReport,
    window_confidence,
)
from repro.core.correlation import SpectrumCache
from repro.core.incremental import CorrelatorBank, block_is_quiet, block_sums
from repro.lake.summaries import COVERAGE, ROW_DTYPE, BlockSummary, SummaryBatch
from repro.core.pathmap import Pathmap, PathmapResult
from repro.core.rle import RunLengthSeries
from repro.core.stages import HostWindow, PipelineCore
from repro.errors import AnalysisError
from repro.obs.events import (
    EVENT_DEGRADED_REFRESH,
    EVENT_LOW_CONFIDENCE,
    EVENT_SUBSCRIBER_ERROR,
    EVENT_TRACER_STALE,
    EVENT_TRANSPORT_GAP,
    EventBus,
)
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder, RefreshFrame
from repro.obs.instruments import DEFAULT_STAGE_BUCKETS
from repro.obs.ledger import (
    CORRELATION_KERNELS,
    PIPELINE_STAGES,
    STAGE_CORRELATE,
    STAGE_DFS,
    STAGE_INGEST,
    STAGE_PUBLISH,
    STAGE_SPILL,
    LedgerRecorder,
    RefreshLedger,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.sample import MetricsSample
from repro.obs.spans import SpanTracer
from repro.simulation.des import PeriodicTask
from repro.tracing.collector import TraceCollector
from repro.tracing.records import NodeId
from repro.tracing.tracer import Tracer
from repro.tracing.transport import (
    QUALITY_DEGRADED,
    QUALITY_FRESH,
    QUALITY_STALE,
    TRACER_DEAD,
    TRACER_LAGGING,
    TRACER_LIVE,
    DataQuality,
    FaultyChannel,
    FRESH_QUALITY,
    TransportLink,
    TransportReceiver,
    overall_quality,
)
from repro.tracing.wire import RoundFrame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lake import TraceLake
    from repro.simulation.topology import Topology

logger = logging.getLogger(__name__)

EdgeKey = Tuple[NodeId, NodeId]
RefKey = Tuple[NodeId, NodeId]
Subscriber = Callable[[float, PathmapResult], None]
MetricsSubscriber = Callable[[float, PathmapResult, MetricsSample], None]


class E2EProfEngine(PipelineCore):
    """Online sliding-window service-path analysis over streamed blocks.

    The refresh is an explicit four-stage pipeline -- **ingest ->
    correlate -> DFS -> publish**, the exact stage names of the refresh
    ledger -- run on the calling thread. The correlate and DFS stages'
    state and kernels live in :class:`~repro.core.stages.PipelineCore`.
    """

    def __init__(
        self,
        config: PathmapConfig,
        clients: Optional[Set[NodeId]] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        events: Optional[EventBus] = None,
        flight_capacity: int = DEFAULT_FLIGHT_CAPACITY,
        transport: Optional[TransportConfig] = None,
        channel_factory: Optional[Callable[[NodeId], FaultyChannel]] = None,
        capture_sink: Optional[TraceCollector] = None,
        lake: Optional["TraceLake"] = None,
    ) -> None:
        self.config = config
        self._clients: Set[NodeId] = set(clients or ())
        #: Always-on refresh cost ledger (:mod:`repro.obs.ledger`): one
        #: :class:`RefreshLedger` per refresh with per-stage wall times
        #: and per-kernel measured costs, attached to every result.
        self.ledger = LedgerRecorder()
        #: The most recent refresh's ledger (None before the first).
        self.latest_ledger: Optional[RefreshLedger] = None
        # Cross-refresh cache of block FFT spectra (the overlap-add
        # increment: only the newest dW block needs a fresh transform).
        self._spectra = SpectrumCache()
        #: Transport bytes delivered to the receiver, all time.
        self.wire_bytes_received = 0
        #: Self-observability registry. Defaults to a fresh **disabled**
        #: registry, so the uninstrumented cost model of Figure 9 holds
        #: unless an operator opts in (pass an enabled registry, or call
        #: ``engine.metrics.enable()`` before ``attach``).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Span tracer for the refresh pipeline. Defaults to a fresh
        #: **disabled** tracer (same opt-in contract as ``metrics``).
        self.tracer = tracer if tracer is not None else SpanTracer()
        #: Diagnostic event bus; change/anomaly/SLA/scheduler subscribers
        #: attached via their ``subscribe_to(engine)`` publish here.
        self.events = events if events is not None else EventBus(tracer=self.tracer)
        #: Always-on flight recorder of the last ``flight_capacity``
        #: refreshes (spans + events + per-refresh sample).
        self.flight = FlightRecorder(capacity=flight_capacity)
        self._num_blocks = max(1, round(config.window / config.refresh_interval))
        self._block_quanta = config.refresh_quanta
        # Aligned per-edge block history (destination-side, RLE).
        self._blocks: Dict[EdgeKey, Deque[RunLengthSeries]] = {}
        self._refreshes = 0
        self._base_quantum: Optional[int] = None
        # Parked correlator keys; edge -> live and parked keys (core.stages).
        self._parked: Set[Tuple[RefKey, EdgeKey]] = set()
        self._edge_keys: Dict[EdgeKey, Set[Tuple[RefKey, EdgeKey]]] = {}
        # Per-refresh (edge, side) -> window boundary masses (core.stages).
        self._boundary: Dict[Tuple[EdgeKey, bool], object] = {}
        self._subscribers: List[Subscriber] = []
        self._metrics_subscribers: List[MetricsSubscriber] = []
        self._pathmap = Pathmap(
            config,
            spike_provider=self._provide_spikes,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.latest_result: Optional[PathmapResult] = None
        self.latest_refresh_time: Optional[float] = None
        #: Wall-clock seconds the most recent refresh took (block ingest +
        #: incremental correlator updates + pathmap DFS). The Figure 9
        #: 'incremental' curve measures exactly this.
        self.last_refresh_seconds: float = 0.0
        #: MetricsSample of the most recent refresh (None before the first).
        self.latest_sample: Optional[MetricsSample] = None
        # What a refresh reads: node -> tracer, and an object whose
        # ``.clients`` names the client nodes (a topology's collector or a
        # stored trace's). Filled by :meth:`connect`.
        self._tracers: Optional[Dict[NodeId, Tracer]] = None
        self._client_source = None
        self._task: Optional[PeriodicTask] = None
        # Per-refresh correlator-cache tallies (plain ints: counted even
        # with the registry disabled, so MetricsSamples are always real).
        self._refresh_cache_hits = 0
        self._refresh_cache_misses = 0
        # Per-refresh optimization tallies: pair products skipped on quiet
        # blocks, and correlations served unchanged since their last service.
        self._refresh_skips = 0
        self._refresh_corr_cache_hits = 0
        # Per-refresh adaptivity tallies (satellite of the cost ledger):
        # classes below the confidence threshold this refresh, and the
        # rewindow total already reported through a MetricsSample.
        self._refresh_low_confidence = 0
        self._rewindows_sampled = 0
        #: Subscriber callbacks that raised and were isolated (all time,
        #: counted regardless of the registry switch).
        self.subscriber_errors = 0
        m = self.metrics
        self._m_refresh = m.histogram(
            "engine_refresh_seconds",
            "Wall-clock seconds per engine refresh (ingest + correlators + DFS)",
        )
        self._m_pathmap = m.histogram(
            "engine_pathmap_seconds", "Seconds of each refresh spent in the pathmap DFS"
        )
        self._m_fanout = m.histogram(
            "engine_fanout_seconds", "Seconds spent fanning each result out to subscribers"
        )
        self._m_batch = m.histogram(
            "correlator_batch_seconds",
            "Seconds per refresh spent in the batched correlator append",
        )
        self._m_stage = {
            stage: m.histogram(
                "engine_stage_seconds",
                "Wall-clock seconds per pipeline stage per refresh "
                "(ingest / correlate / dfs / publish, from the refresh ledger)",
                labels={"stage": stage},
                buckets=DEFAULT_STAGE_BUCKETS,
            )
            for stage in PIPELINE_STAGES
        }
        self._m_kernel_rows = {
            kernel: m.counter(
                "ledger_kernel_rows_total",
                "Correlation rows processed per kernel (from the refresh ledger)",
                labels={"kernel": kernel},
            )
            for kernel in CORRELATION_KERNELS
        }
        self._m_kernel_seconds = {
            kernel: m.counter(
                "ledger_kernel_seconds_total",
                "Wall-clock seconds spent per kernel (from the refresh ledger)",
                labels={"kernel": kernel},
            )
            for kernel in CORRELATION_KERNELS
        }
        self._m_kernel_ns = {
            kernel: m.gauge(
                "ledger_kernel_ns_per_row",
                "EWMA of measured nanoseconds per row per kernel",
                labels={"kernel": kernel},
            )
            for kernel in CORRELATION_KERNELS
        }
        self._m_refreshes = m.counter("engine_refreshes_total", "Engine refreshes run")
        self._m_blocks = m.counter(
            "engine_blocks_ingested_total", "Non-empty RLE blocks pulled from tracers"
        )
        self._m_wire_bytes = m.counter(
            "engine_wire_bytes_total",
            "Wire-format bytes received (every transport delivery)",
        )
        self._m_cache_hits = m.counter(
            "engine_correlator_cache_hits_total",
            "Correlations served by an existing incremental correlator",
        )
        self._m_cache_misses = m.counter(
            "engine_correlator_cache_misses_total",
            "Correlations that had to build a correlator from block history",
        )
        self._m_correlators = m.gauge(
            "engine_correlators", "Live incremental correlators"
        )
        self._m_edges = m.gauge(
            "engine_tracked_edges", "Edges with block history in the current window"
        )
        self._m_subscriber_errors = m.counter(
            "obs_subscriber_errors_total",
            "Subscriber callbacks that raised and were isolated during fan-out",
        )
        #: Optional analyzer-side capture archive. When set, every
        #: tracer's raw per-edge timestamps are drained each refresh as
        #: columnar batches, ride the tracer's round frame and are filed
        #: here without materializing per-record objects.
        self.capture_sink = capture_sink
        self._refresh_capture_batches = 0
        #: Optional trace lake (:class:`~repro.lake.TraceLake`). When set,
        #: the capture sink's evictions spill to it (write-behind), the
        #: journal is checkpointed once per refresh under the ledger's
        #: ``spill`` stage, and correlator evictions persist materialized
        #: per-(class, edge) correlation summaries for ``repro history``.
        self.lake = lake
        if lake is not None and capture_sink is not None and capture_sink.lake is None:
            capture_sink.lake = lake
        self._lake_segments_synced = 0 if lake is None else lake.segments_written
        # Every (reference edge, edge) correlator, one row each (core.stages).
        self._bank = CorrelatorBank(
            max_lag=config.max_lag_quanta,
            num_blocks=self._num_blocks,
            quantum=config.quantum,
            metrics=self.metrics,
            evict_hook=self._summary_hook(),
        )
        #: The one ingest path: every tracer's flush round travels as one
        #: round frame, tracer -> TransportLink -> channel ->
        #: TransportReceiver, gaining epoch/sequence framing, reordering
        #: tolerance, liveness watching and per-edge DataQuality.
        #: ``transport`` tunes the receiver (None = the defaults).
        self._receiver = TransportReceiver(
            transport, config.refresh_interval, metrics=m
        )
        self._channel_factory = channel_factory
        self._links: Dict[NodeId, TransportLink] = {}
        #: Per-tracer channels (fault injectors or perfect pass-throughs);
        #: chaos tests reach in here to toggle fault rates mid-run.
        self.transport_channels: Dict[NodeId, FaultyChannel] = {}
        # Block starts known missing per edge (declared gaps + current-
        # round absences of its tracer), pruned as the window slides.
        self._gap_blocks: Dict[EdgeKey, Set[int]] = {}
        self._tracer_states: Dict[NodeId, str] = {}
        self._transport_totals: Dict[str, int] = {}
        #: Overall data-quality score of the latest refresh (1.0 = every
        #: edge signal complete and live; 1.0 before the first refresh).
        self.quality_score: float = 1.0
        #: Per-edge DataQuality of the latest refresh.
        self.latest_edge_quality: Dict[EdgeKey, DataQuality] = {}
        self._m_quality = m.gauge(
            "engine_quality_score",
            "Overall data-quality score of the latest refresh (1 = fresh)",
        )
        self._m_live_tracers = m.gauge(
            "transport_live_tracers", "Tracers currently heard within the staleness threshold"
        )
        self._m_stale_tracers = m.gauge(
            "transport_stale_tracers", "Tracers currently lagging or dead"
        )
        self._m_t_gaps = m.counter(
            "transport_gap_blocks_total", "Blocks declared lost on transport streams"
        )
        self._m_t_duplicates = m.counter(
            "transport_duplicate_frames_total", "Duplicate transport frames dropped"
        )
        self._m_t_reordered = m.counter(
            "transport_reordered_frames_total", "Transport frames that arrived out of order"
        )
        self._m_t_late = m.counter(
            "transport_late_blocks_total",
            "Late blocks recovered into the window after their gap was declared",
        )
        self._m_t_stale_epoch = m.counter(
            "transport_stale_epoch_frames_total",
            "Pre-restart frames rejected by epoch checks",
        )
        #: Per-class steady-state confidence of the latest refresh.
        self.latest_confidence: Dict[RefKey, ConfidenceReport] = {}
        #: Overall (minimum per-class) confidence of the latest refresh.
        self.confidence_score: float = 1.0
        #: History-blanking re-windows performed (see :meth:`rewindow`).
        self.rewindows = 0
        self._m_confidence = m.gauge(
            "engine_confidence_score",
            "Steady-state confidence of the latest refresh (1 = steady)",
        )
        self._m_low_confidence = m.counter(
            "engine_low_confidence_total",
            "Refreshes with at least one class below the confidence threshold",
        )
        self._m_rewindows = m.counter(
            "engine_rewindows_total",
            "Change-point-triggered history re-windows performed",
        )

    # -- wiring ---------------------------------------------------------------------

    def subscribe(self, callback: Subscriber) -> None:
        """Receive ``(time, PathmapResult)`` after every refresh."""
        self._subscribers.append(callback)

    def subscribe_metrics(self, callback: MetricsSubscriber) -> None:
        """Receive ``(time, PathmapResult, MetricsSample)`` after every
        refresh -- the engine's own health signals alongside its analysis
        (see :mod:`repro.obs.sample`). Works with the registry disabled."""
        self._metrics_subscribers.append(callback)

    def connect(
        self, tracers: Dict[NodeId, Tracer], client_source, start_at: float
    ) -> None:
        """Read ``tracers`` (node -> tracer) from now on; every refresh
        also re-reads ``client_source.clients``, since clients may appear
        while running (new service classes).

        Block boundaries are anchored one sampling window behind
        ``start_at``, so the refresh at ``now`` analyzes the window ending
        at ``now - omega`` (see the module docstring). :meth:`attach`
        connects a live topology; :func:`repro.core.offline.replay` a
        stored trace's streams. Either way, :meth:`refresh` runs the rest.
        """
        if self._tracers is not None:
            raise AnalysisError("engine is already attached")
        self._tracers = tracers
        self._client_source = client_source
        self._clients |= client_source.clients
        if self.metrics.enabled:
            # Only bound when observing is on: tracer.observe runs once per
            # simulated packet, so unbound tracers pay nothing at all.
            for tracer in tracers.values():
                tracer.bind_metrics(self.metrics)
        if self.capture_sink is not None:
            for tracer in tracers.values():
                tracer.enable_batch_streaming()
        # Anchor block boundaries one sampling window behind the wall
        # clock so flushed blocks are complete (see module docstring).
        tau = self.config.quantum
        self._base_quantum = int(round(start_at / tau)) - self.config.sampling_quanta

    def attach(self, topology: "Topology", start_at: Optional[float] = None) -> None:
        """Drive refreshes from a simulated topology's clock.

        The first refresh fires one ``dW`` after ``start_at`` (default:
        attach time) and every ``dW`` thereafter.
        """
        begin = start_at if start_at is not None else topology.sim.now
        self.connect(topology.fabric.tracers, topology.collector, begin)
        self._task = PeriodicTask(
            topology.sim,
            self.config.refresh_interval,
            self._on_tick,
            start_at=begin + self.config.refresh_interval,
        )

    def detach(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self._tracers = None
        self._client_source = None

    def close(self) -> None:
        """Release every runtime resource the engine holds: the refresh
        task, and the lake's buffered writes (flushed). Idempotent; safe
        to call whether or not the engine was ever attached."""
        self.detach()
        if self.lake is not None:
            self.lake.flush()

    # -- refresh ------------------------------------------------------------------------

    def _on_tick(self, now: float) -> None:
        self.refresh(now)

    def refresh(self, now: float) -> PathmapResult:
        """Pull every loud edge's block, update correlators, recompute graphs.

        The whole refresh runs under an ``engine.refresh`` root span
        (ingest -> correlator updates -> pathmap DFS -> fan-out children
        when the tracer is enabled), and every refresh -- including one
        that raises -- leaves a frame in the flight recorder.
        """
        sequence = self._refreshes
        events_mark = time.perf_counter()
        try:
            with self.tracer.span("engine.refresh", refresh=sequence, time=now):
                result = self._do_refresh(now)
        finally:
            self._record_flight_frame(now, sequence, events_mark)
        return result

    def _do_refresh(self, now: float) -> PathmapResult:
        """One refresh as the explicit pipeline: ``_stage_ingest`` ->
        ``_stage_correlate`` -> ``_stage_dfs`` -> ``_stage_publish``
        (stage boundaries match the refresh ledger's samples)."""
        started = time.perf_counter()
        if self._tracers is None:
            raise AnalysisError("engine is not attached")
        self._clients |= self._client_source.clients
        block_start = self._base_quantum + self._refreshes * self._block_quanta
        self._refresh_cache_hits = 0
        self._refresh_cache_misses = 0
        self._refresh_skips = 0
        self._refresh_corr_cache_hits = 0
        self._refresh_capture_batches = 0
        self._refresh_low_confidence = 0
        self.ledger.begin_refresh()
        wire_bytes_before = self.wire_bytes_received
        fresh, late_frames = self._stage_ingest(now, block_start)
        self._stage_correlate(fresh, late_frames, block_start)
        result, pathmap_seconds = self._stage_dfs()
        result = self._stage_publish(
            result,
            now,
            block_start,
            started,
            pathmap_seconds,
            len(fresh),
            wire_bytes_before,
        )
        if self.lake is not None:
            self._maintain_lake(block_start)
        return result

    def _maintain_lake(self, block_start: int) -> None:
        """Per-refresh trace-lake maintenance: force the capture sink's
        retention eviction (so spills track the refresh cadence, not just
        the ingest stride), checkpoint pending summaries, their frontier
        (the window floor: full-window correlators have evicted every
        block before it) and the catalog delta, and account the spill time
        since ingest as the ledger's optional ``spill`` stage. Runs after
        publish: the stage lands in the just-completed ledger in place
        (same contract as the post-fanout publish sample)."""
        lake = self.lake
        if self.capture_sink is not None and self.capture_sink.retention is not None:
            self.capture_sink.evict_expired()
        lake.advance_frontier(
            block_start - (self._num_blocks - 1) * self._block_quanta
        )
        lake.checkpoint()
        segments = lake.segments_written - self._lake_segments_synced
        self._lake_segments_synced = lake.segments_written
        self.ledger.record_stage(STAGE_SPILL, lake.drain_spill_seconds(), segments)

    def _summary_hook(self):
        """Bank eviction hook persisting materialized summaries.

        Returns None without a lake; otherwise a hook that turns every
        row's evicted ``(reference block, signal block, summed pair-product
        row)`` into one row of a :class:`~repro.lake.SummaryBatch` -- the
        whole eviction in one batch, built with array operations -- and
        buffers it in the lake (memory only; the refresh's checkpoint
        journals it). A row's first eviction also writes a coverage
        marker, just before its block row; from there to the lake's
        frontier an eviction of two quiet blocks is implicit.
        """
        lake = self.lake
        if lake is None:
            return None

        def hook(bank, old_x, y_moments, y_quiet, first, touched, sums, crcs):
            head = next(x for x in old_x if x is not None)
            x_sums = block_sums(old_x)
            refs = bank.row_refs()
            # A contribution pairs the evicted x block, so a quiet x block
            # leaves only markers and rows with a loud y block to write.
            x_quiet = np.array([x is None or block_is_quiet(x) for x in old_x])
            blocks = np.flatnonzero(~(x_quiet[refs] & y_quiet))
            markers = np.flatnonzero(first)
            rows = np.concatenate([markers, blocks])
            marker = np.arange(rows.size) < markers.size
            order = np.lexsort((~marker, rows))  # by row, its marker first
            rows, marker = rows[order], marker[order]
            written, key = np.unique(rows, return_inverse=True)
            lag_of = np.full(len(bank), -1, dtype=np.int64)
            lag_of[touched] = np.arange(touched.size)
            block = ~marker
            table = np.zeros(rows.size, dtype=ROW_DTYPE)
            table["key"] = key
            table["block_start"] = head.start
            table["block_length"] = head.length
            table["quantum"] = head.quantum
            table["x_total"][block] = x_sums[refs[rows[block]], 0]
            table["x_energy"][block] = x_sums[refs[rows[block]], 1]
            table["y_total"][block] = y_moments[rows[block], 0]
            table["y_energy"][block] = y_moments[rows[block], 1]
            table["coverage"][marker] = COVERAGE.index("begin")
            table["lag_offset"] = np.where(block, lag_of[rows], -1)
            keys = [(*bank.keys[row][0], *bank.keys[row][1]) for row in written.tolist()]
            if rows.size:
                lake.record_summary(SummaryBatch(keys, table, sums, crcs))

        return hook

    def _invalidate_correlators(self, edge):
        """Dropped keys' implicit summary coverage ends at the frontier."""
        dropped = super()._invalidate_correlators(edge)
        if self.lake is not None and self.lake.frontier is not None:
            for ref_key, edge_key in dropped:
                self.lake.record_summary(
                    BlockSummary(
                        *ref_key, *edge_key, self.lake.frontier,
                        self._block_quanta, self.config.quantum, coverage="end",
                    )
                )
        return dropped

    def _stage_ingest(
        self, now: float, block_start: int
    ) -> Tuple[Dict[EdgeKey, RunLengthSeries], List[RoundFrame]]:
        """**Stage 1 -- ingest**: flush every tracer's round through the
        fault-tolerant transport and file the capture batches riding it.
        Returns the fresh loud blocks plus any re-sequenced late rounds
        for history patching."""
        fresh: Dict[EdgeKey, RunLengthSeries] = {}
        ingest_started = time.perf_counter()
        with self.tracer.span("engine.ingest") as ingest_span:
            late_frames = self._transport_ingest(fresh, block_start, now)
            ingest_span.set_attribute("blocks", len(fresh))
        ingest_seconds = time.perf_counter() - ingest_started
        if self.lake is not None:
            # Auto-sweep spills inside this wall belong to the spill stage only.
            spilled = self.lake.drain_spill_seconds()
            ingest_seconds -= spilled
            self.ledger.record_stage(STAGE_SPILL, spilled)
        self.ledger.record_stage(STAGE_INGEST, ingest_seconds, len(fresh))
        return fresh, late_frames

    def _stage_correlate(
        self,
        fresh: Dict[EdgeKey, RunLengthSeries],
        late_frames: List[RoundFrame],
        block_start: int,
    ) -> None:
        """**Stage 2 -- correlate**: store/patch block history and bring
        every incremental correlator up to date."""
        correlate_started = time.perf_counter()
        self._refreshes += 1
        self._store_blocks(fresh, block_start)
        if late_frames:
            self._patch_late_blocks(late_frames, block_start)
        with self.tracer.span(
            "engine.correlators", correlators=self.correlator_count
        ):
            self._append_to_correlators()
        self.ledger.record_stage(
            STAGE_CORRELATE, time.perf_counter() - correlate_started, len(self._blocks)
        )

    def _stage_dfs(self) -> Tuple[PathmapResult, float]:
        """**Stage 3 -- DFS**: recompute every service class's graph."""
        pathmap_started = time.perf_counter()
        with self.tracer.span("engine.pathmap"):
            result = self._pathmap.analyze(HostWindow(self))
        pathmap_seconds = time.perf_counter() - pathmap_started
        self.ledger.record_stage(
            STAGE_DFS, pathmap_seconds, result.stats.correlations
        )
        return result, pathmap_seconds

    def _stage_publish(
        self,
        result: PathmapResult,
        now: float,
        block_start: int,
        started: float,
        pathmap_seconds: float,
        blocks_ingested: int,
        wire_bytes_before: int,
    ) -> PathmapResult:
        """**Stage 4 -- publish**: annotate the result (quality,
        confidence, ledger), observe the engine metrics, and fan out to
        every subscriber."""
        annotate_started = time.perf_counter()
        self._apply_quality(result, now, block_start)
        self._apply_confidence(result, now)
        self.latest_result = result
        self.latest_refresh_time = now
        self.last_refresh_seconds = time.perf_counter() - started
        # The annotation slice of publish happens before the fan-out; the
        # completed ledger object is shared with the history/flight copy,
        # so the post-fanout record_stage below finishes it in place.
        self.ledger.record_stage(
            STAGE_PUBLISH, time.perf_counter() - annotate_started
        )
        ledger = self.ledger.complete(
            now,
            self._refreshes - 1,
            self.last_refresh_seconds,
            skips=self._refresh_skips,
            cache_hits=self._refresh_cache_hits,
        )
        result.annotate_ledger(ledger)
        self.latest_ledger = ledger
        self._m_refresh.observe(self.last_refresh_seconds)
        self._m_pathmap.observe(pathmap_seconds)
        self._m_refreshes.inc()
        self._m_blocks.inc(blocks_ingested)
        wire_bytes = self.wire_bytes_received - wire_bytes_before
        self._m_wire_bytes.inc(wire_bytes)
        self._m_correlators.set(self.correlator_count)
        self._m_edges.set(len(self._blocks))
        fanout_started = time.perf_counter()
        with self.tracer.span(
            "engine.fanout", subscribers=len(self._subscribers)
        ):
            for subscriber in self._subscribers:
                self._notify(subscriber, now, (now, result))
        fanout_seconds = time.perf_counter() - fanout_started
        self._m_fanout.observe(fanout_seconds)
        self.latest_sample = MetricsSample(
            time=now,
            refresh_seconds=self.last_refresh_seconds,
            pathmap_seconds=pathmap_seconds,
            fanout_seconds=fanout_seconds,
            blocks_ingested=blocks_ingested,
            wire_bytes=wire_bytes,
            correlators=self.correlator_count,
            parked_correlators=len(self._parked),
            cache_hits=self._refresh_cache_hits,
            cache_misses=self._refresh_cache_misses,
            correlations=result.stats.correlations,
            spikes=result.stats.spikes,
            nodes_visited=result.stats.nodes_visited,
            correlator_skips=self._refresh_skips,
            correlation_cache_hits=self._refresh_corr_cache_hits,
            capture_batches=self._refresh_capture_batches,
            low_confidence_events=self._refresh_low_confidence,
            rewindow_clips=self.rewindows - self._rewindows_sampled,
        )
        self._rewindows_sampled = self.rewindows
        with self.tracer.span(
            "engine.fanout_metrics", subscribers=len(self._metrics_subscribers)
        ):
            for metrics_subscriber in self._metrics_subscribers:
                self._notify(
                    metrics_subscriber, now, (now, result, self.latest_sample)
                )
        self.ledger.record_stage(
            STAGE_PUBLISH,
            time.perf_counter() - fanout_started,
            len(self._subscribers) + len(self._metrics_subscribers),
        )
        for stage in PIPELINE_STAGES:
            self._m_stage[stage].observe(ledger.stage_seconds(stage))
        for kernel in CORRELATION_KERNELS:
            kernel_sample = ledger.kernel(kernel)
            if kernel_sample.rows:
                self._m_kernel_rows[kernel].inc(kernel_sample.rows)
                self._m_kernel_seconds[kernel].inc(kernel_sample.seconds)
            if kernel_sample.ns_per_row_ewma is not None:
                self._m_kernel_ns[kernel].set(kernel_sample.ns_per_row_ewma)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "refresh %d at t=%.3f: %d blocks, %d correlators, "
                "%d spikes, %.1f ms",
                self._refreshes,
                now,
                blocks_ingested,
                self.correlator_count,
                result.stats.spikes,
                self.last_refresh_seconds * 1e3,
            )
        return result

    def _notify(self, callback: Callable, now: float, args: Tuple) -> None:
        """Call one subscriber, isolated: a raising callback is logged,
        counted (``obs_subscriber_errors_total``) and published as a
        diagnostic event, but never aborts the refresh or starves the
        subscribers after it."""
        name = getattr(callback, "__qualname__", None) or repr(callback)
        try:
            with self.tracer.span("engine.subscriber", subscriber=name):
                callback(*args)
        except Exception as exc:
            self.subscriber_errors += 1
            self._m_subscriber_errors.inc()
            logger.exception("subscriber %s raised during refresh fan-out", name)
            self.events.publish(
                EVENT_SUBSCRIBER_ERROR,
                now,
                subscriber=name,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _record_flight_frame(
        self, now: float, sequence: int, events_mark: float
    ) -> None:
        """File one frame in the always-on flight recorder: the refresh's
        sample, its diagnostic events, and (when tracing) its spans."""
        spans = self.tracer.drain()
        sample = self.latest_sample
        sample_dict = (
            sample.to_dict() if sample is not None and sample.time == now else {}
        )
        ledger = self.latest_ledger
        ledger_dict = (
            ledger.to_dict()
            if ledger is not None and ledger.sequence == sequence
            else {}
        )
        self.flight.record(
            RefreshFrame(
                time=now,
                sequence=sequence,
                sample=sample_dict,
                spans=spans,
                events=self.events.events_since(events_mark),
                ledger=ledger_dict,
            )
        )

    def dump_flight_record(self, last: Optional[int] = None) -> dict:
        """JSON-able dump of the last recorded refreshes (see
        :class:`repro.obs.flight.FlightRecorder`)."""
        return self.flight.dump(last)

    # -- fault-tolerant transport -------------------------------------------------

    def _link_for(self, node_id: NodeId) -> TransportLink:
        link = self._links.get(node_id)
        if link is None:
            link = TransportLink(node_id)
            self._links[node_id] = link
        return link

    def _channel_for(self, node_id: NodeId) -> FaultyChannel:
        channel = self.transport_channels.get(node_id)
        if channel is None:
            if self._channel_factory is not None:
                channel = self._channel_factory(node_id)
            else:
                channel = FaultyChannel()  # perfect pass-through
            self.transport_channels[node_id] = channel
        return channel

    def _flush_kept(
        self, node_id: NodeId, tracer: Tracer, block_start: int
    ) -> Dict[EdgeKey, RunLengthSeries]:
        """One block per loud edge whose copy at this tracer the analysis
        keeps: destination-side capture wins (Algorithm 1); source-side
        only for edges into a node that runs no tracer."""
        tracers = self._tracers
        kept = {
            (src, dst)
            for src, dst in tracer.edges()
            if node_id == dst or (node_id == src and dst not in tracers)
        }
        return tracer.flush_block(
            self.config, block_start, self._block_quanta, edges=kept
        )

    def _transport_ingest(
        self, fresh: Dict[EdgeKey, RunLengthSeries], block_start: int, now: float
    ) -> List[RoundFrame]:
        """Flush every tracer through its framed link + channel into the
        receiving endpoint -- one round frame per tracer, carrying only
        its loud blocks and the capture batches drained with them;
        returns re-sequenced *late* rounds (rounds of earlier refreshes)
        for history patching.

        The refresh's deliveries are collected in arrival order and
        handed to the receiver once, so it decodes the round in one pass."""
        receiver = self._receiver
        tau = self.config.quantum
        tracers = self._tracers
        with self.tracer.span("engine.transport") as span:
            deliveries: List[bytes] = []
            for node_id, tracer in tracers.items():
                receiver.register_tracer(node_id, now)
                link = self._link_for(node_id)
                channel = self._channel_for(node_id)
                with self.tracer.span("tracer.flush", node=node_id):
                    blocks = self._flush_kept(node_id, tracer, block_start)
                # Raw captures ride the tracer's round frame.
                batches = tracer.drain_batches() if self.capture_sink is not None else None
                deliveries.extend(
                    channel.send(
                        link.encode_blocks(
                            blocks, block_start, self._block_quanta, tau, batches
                        )
                    )
                )
            # Frames the channels held back (reordered / delayed) that
            # have come due this round.
            for channel in self.transport_channels.values():
                deliveries.extend(channel.advance())
            self.wire_bytes_received += sum(map(len, deliveries))
            receiver.receive(deliveries, now)
            late: List[RoundFrame] = []
            heard = set()
            for frame in receiver.poll():
                if frame.start == block_start:
                    fresh.update(frame.blocks)
                    heard.add(frame.node)
                else:
                    late.append(frame)
            if self.capture_sink is not None:
                # The capture batches of every polled round, fresh and
                # late, in poll order: they carry absolute capture times,
                # so a late round's batches file like any other.
                for batch in receiver.poll_timestamp_batches():
                    self.capture_sink.ingest_batch(
                        batch.src,
                        batch.dst,
                        batch.timestamps,
                        observed_at_destination=batch.observed_at_destination,
                    )
                    self._refresh_capture_batches += 1
            # Declared gaps: rounds the reorder buffers gave up waiting
            # for, one notice per edge the tracer owns.
            gap_edges: Dict[EdgeKey, int] = {}
            for notice in receiver.drain_gap_notices():
                self._gap_blocks.setdefault(notice.edge, set()).add(notice.block_start)
                gap_edges[notice.edge] = gap_edges.get(notice.edge, 0) + 1
            for edge, count in sorted(gap_edges.items()):
                self.events.publish(
                    EVENT_TRANSPORT_GAP,
                    now,
                    node=receiver.edge_owner(edge),
                    edge=f"{edge[0]}->{edge[1]}",
                    blocks=count,
                )
            # Current-round absence: a tracer whose stream carried a round
            # within the last two but whose round for this block has not
            # been delivered provisionally gaps every edge it owns (a late
            # arrival patches the marks away again).
            recent = block_start - 2 * self._block_quanta
            for node_id in tracers:
                if node_id in heard:
                    continue
                newest = receiver.newest_round_start(node_id)
                if newest is not None and newest >= recent:
                    for edge in receiver.owned_edges(node_id):
                        self._gap_blocks.setdefault(edge, set()).add(block_start)
            span.set_attribute("fresh", len(fresh))
            span.set_attribute("late", len(late))
            span.set_attribute("gaps", sum(gap_edges.values()))
            return late

    def _patch_late_blocks(
        self, late: List[RoundFrame], block_start: int
    ) -> int:
        """Splice re-sequenced late rounds back into window history.

        Blocks carry their own window position, so a loud block that
        arrives a round (or several) behind schedule replaces the silence
        that was stored in its place; correlators touching the edge are
        invalidated and rebuilt lazily from the corrected history. A late
        round is complete, so it also clears the gap marks of the quiet
        edges it vouches for -- every edge its tracer owns.
        """
        receiver = self._receiver
        patched = 0
        for frame in late:
            for edge, block in frame.blocks.items():
                if self._splice_block(edge, block, block_start):
                    patched += 1
            for edge in receiver.owned_edges(frame.node):
                gaps = self._gap_blocks.get(edge)
                if gaps:
                    gaps.discard(frame.start)
        if patched:
            self._m_t_late.inc(patched)
        return patched

    def _apply_quality(
        self, result: PathmapResult, now: float, block_start: int
    ) -> None:
        """Degraded-mode refresh: derive per-edge DataQuality from the
        transport's gap/liveness state, annotate the result, publish the
        transport health signals."""
        receiver = self._receiver
        # Slide the gap bookkeeping with the window.
        cutoff = block_start - (self._num_blocks - 1) * self._block_quanta
        for edge in list(self._gap_blocks):
            kept = {s for s in self._gap_blocks[edge] if s >= cutoff}
            if kept:
                self._gap_blocks[edge] = kept
            else:
                del self._gap_blocks[edge]
        statuses = receiver.statuses(now)
        self._publish_liveness_transitions(statuses, now)
        rounds = min(self._refreshes, self._num_blocks)
        stale_gap_ratio = receiver.config.stale_gap_ratio
        edge_quality: Dict[EdgeKey, DataQuality] = {}
        for edge in self._blocks:
            gap_ratio = (
                len(self._gap_blocks.get(edge, ())) / rounds if rounds else 0.0
            )
            owner = receiver.edge_owner(edge)
            owner_state = statuses[owner].state if owner in statuses else None
            if owner_state == TRACER_DEAD or gap_ratio > stale_gap_ratio:
                edge_quality[edge] = DataQuality(QUALITY_STALE, gap_ratio)
            elif gap_ratio > 0.0 or owner_state == TRACER_LAGGING:
                edge_quality[edge] = DataQuality(QUALITY_DEGRADED, gap_ratio)
            else:
                edge_quality[edge] = FRESH_QUALITY
        score = overall_quality(edge_quality.values())
        result.annotate_quality(edge_quality, score)
        self.quality_score = score
        self.latest_edge_quality = edge_quality
        self._m_quality.set(score)
        live = sum(1 for s in statuses.values() if s.state == TRACER_LIVE)
        self._m_live_tracers.set(live)
        self._m_stale_tracers.set(len(statuses) - live)
        self._sync_transport_counters()
        if score < 1.0:
            self.events.publish(
                EVENT_DEGRADED_REFRESH,
                now,
                quality=score,
                degraded_edges=sum(1 for q in edge_quality.values() if not q.ok),
                stale_tracers=len(statuses) - live,
            )

    def _publish_liveness_transitions(
        self, statuses: Dict[NodeId, "object"], now: float
    ) -> None:
        for node, status in statuses.items():
            previous = self._tracer_states.get(node, TRACER_LIVE)
            if status.state != previous:
                self._tracer_states[node] = status.state
                self.events.publish(
                    EVENT_TRACER_STALE,
                    now,
                    node=node,
                    state=status.state,
                    previous=previous,
                    last_heard=status.last_heard,
                )

    def _sync_transport_counters(self) -> None:
        """Mirror the receiver's cumulative stream tallies into the
        metrics registry as counter deltas."""
        totals = self._receiver.totals()
        for key, metric in (
            ("gaps", self._m_t_gaps),
            ("duplicates", self._m_t_duplicates),
            ("reordered", self._m_t_reordered),
            ("stale_epoch_drops", self._m_t_stale_epoch),
        ):
            delta = totals[key] - self._transport_totals.get(key, 0)
            if delta > 0:
                metric.inc(delta)
            self._transport_totals[key] = totals[key]

    # -- steady-state confidence and re-windowing ----------------------------------

    def _class_reference_edges(self) -> List[RefKey]:
        """Every (client, front-end) reference edge with block history,
        in sorted order (iteration order must not depend on dict history
        so refreshes stay reproducible)."""
        return sorted(
            edge
            for edge in self._blocks
            if edge[0] in self._clients and edge[1] not in self._clients
        )

    def _apply_confidence(self, result: PathmapResult, now: float) -> None:
        """Grade every service class's reference signal against the
        steady-state assumption and annotate the result."""
        reports: Dict[RefKey, ConfidenceReport] = {}
        for class_key in self._class_reference_edges():
            reports[class_key] = window_confidence(
                self._blocks[class_key],
                quantum=self.config.quantum,
                mass_per_message=self.config.sampling_quanta,
            )
        result.annotate_confidence(reports)
        self.latest_confidence = reports
        self.confidence_score = result.confidence
        self._m_confidence.set(result.confidence)
        low = {k: r for k, r in reports.items() if not r.ok}
        self._refresh_low_confidence = len(low)
        if low:
            self._m_low_confidence.inc()
            for class_key, report in sorted(low.items()):
                self.events.publish(
                    EVENT_LOW_CONFIDENCE,
                    now,
                    service_class=f"{class_key[0]}@{class_key[1]}",
                    score=report.score,
                    stability=report.stability,
                    recency=report.recency,
                    threshold=DEFAULT_LOW_CONFIDENCE,
                )

    def rewindow(self, cutoff: float) -> int:
        """Blank all block history that ends at or before ``cutoff``.

        Change-point response: once a detected shift invalidates the
        steady-state assumption for the pre-change past, the engine
        replaces every affected block with silence and invalidates the
        correlators touching it (the same lazy-rebuild machinery used for
        transport late-block patching). The next refresh then computes
        its graphs as if the window began at the cutoff -- delay
        estimates converge on the new regime in one refresh instead of
        bleeding the old regime for a full window length.

        Returns the number of non-empty blocks blanked.
        """
        if self._base_quantum is None:
            raise AnalysisError("engine was never attached")
        cutoff_quantum = int(round(cutoff / self.config.quantum))
        blanked = self._blank_history(cutoff_quantum)
        if blanked:
            self.rewindows += 1
            self._m_rewindows.inc()
        return blanked

    def restart_tracer(self, node_id: NodeId) -> None:
        """Simulate a tracer crash/restart: captured state is lost, the
        transport epoch bumps (so pre-restart blocks are never
        resurrected) and its round sequence resets."""
        tracer = (self._tracers or {}).get(node_id)
        if tracer is not None:
            tracer.restart()
        self._link_for(node_id).restart()

    def transport_summary(self, now: Optional[float] = None) -> dict:
        """JSON-able snapshot of transport health (``repro stats``)."""
        if now is None:
            now = self.latest_refresh_time if self.latest_refresh_time else 0.0
        return {
            "enabled": True,
            "quality_score": self.quality_score,
            "totals": self._receiver.totals(),
            "tracers": {
                node: status.to_dict()
                for node, status in sorted(self._receiver.statuses(now).items())
            },
            "links": {
                node: {
                    "epoch": link.epoch,
                    "restarts": link.restarts,
                    "frames_sent": link.frames_sent,
                }
                for node, link in sorted(self._links.items())
            },
            "channels": {
                node: channel.stats()
                for node, channel in sorted(self.transport_channels.items())
            },
            "degraded_edges": {
                f"{src}->{dst}": quality.to_dict()
                for (src, dst), quality in sorted(self.latest_edge_quality.items())
                if not quality.ok
            },
        }
