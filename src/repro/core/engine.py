"""The online E2EProf engine (paper Sections 3.3-3.6).

This is the analyzer node: every refresh interval ``dW`` it pulls one
RLE-encoded block per edge from the per-node tracers (the streamed wire
format of Section 3.6), feeds the blocks into cached
:class:`~repro.core.incremental.IncrementalCorrelator` instances -- one
per (service class, edge) pair -- and re-runs the pathmap DFS using those
cached correlations. Only the newest ``dW`` of trace is ever correlated,
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
"""

from __future__ import annotations

import concurrent.futures
import logging
import threading
import time
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.config import PathmapConfig, TransportConfig
from repro.core.confidence import (
    DEFAULT_LOW_CONFIDENCE,
    ConfidenceReport,
    window_confidence,
)
from repro.core.correlation import SpectrumCache, fft_length
from repro.core.incremental import IncrementalCorrelator, block_is_quiet
from repro.lake.summaries import BlockSummary
from repro.core.pathmap import Pathmap, PathmapResult, PathmapStats, class_pairs
from repro.core.rle import RunLengthSeries
from repro.core.stages import HostWindow, PipelineCore
from repro.errors import AnalysisError
from repro.obs.events import (
    EVENT_DEGRADED_REFRESH,
    EVENT_LOW_CONFIDENCE,
    EVENT_SHARD_LOST,
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
from repro.simulation.topology import Topology
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
from repro.tracing.wire import BlockFrame, decode_block, encode_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lake import TraceLake

logger = logging.getLogger(__name__)

EdgeKey = Tuple[NodeId, NodeId]
RefKey = Tuple[NodeId, NodeId]
Subscriber = Callable[[float, PathmapResult], None]
MetricsSubscriber = Callable[[float, PathmapResult, MetricsSample], None]


class E2EProfEngine(PipelineCore):
    """Online sliding-window service-path analysis over streamed blocks.

    The refresh is an explicit four-stage pipeline -- **ingest ->
    correlate -> DFS -> publish**, the exact stage names of the refresh
    ledger -- and the middle stages run in one of three execution modes
    (``parallel``), every one of which produces bit-identical results:

    ``"serial"``
        Everything on the calling thread.
    ``"threads"``
        Correlator append groups and the per-class DFS fan out over a
        ``workers``-wide thread pool (GIL-bound outside the numpy
        kernels).
    ``"processes"``
        Service classes are partitioned across ``shards`` worker
        *processes* by a consistent-hash shard map; fresh blocks ship
        zero-copy via shared memory and per-shard partial pathmaps merge
        deterministically (:mod:`repro.core.shards`).
    """

    def __init__(
        self,
        config: PathmapConfig,
        clients: Optional[Set[NodeId]] = None,
        wire_fidelity: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        events: Optional[EventBus] = None,
        flight_capacity: int = DEFAULT_FLIGHT_CAPACITY,
        transport: Optional[TransportConfig] = None,
        channel_factory: Optional[Callable[[NodeId], FaultyChannel]] = None,
        workers: Optional[int] = None,
        batched: bool = True,
        capture_sink: Optional[TraceCollector] = None,
        lake: Optional["TraceLake"] = None,
        adaptive: bool = False,
        ledger: bool = True,
        measured_dispatch: Optional[bool] = None,
        fft_dispatch: Optional[str] = None,
        parallel: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> None:
        self.config = config
        self._clients: Set[NodeId] = set(clients or ())
        #: Worker threads for refresh work (correlator append groups + the
        #: per-class pathmap DFS). Defaults to ``config.workers``; results
        #: are bit-identical to serial at any setting.
        self.workers = int(workers) if workers is not None else config.workers
        if self.workers < 1:
            raise AnalysisError(f"workers must be >= 1, got {self.workers}")
        #: Execution mode of the correlate/DFS stages (see class
        #: docstring). ``"auto"`` resolves to threads when ``workers > 1``
        #: and serial otherwise, preserving the pre-``parallel`` behavior.
        self.parallel = parallel if parallel is not None else config.parallel
        if self.parallel == "auto":
            self.parallel = "threads" if self.workers > 1 else "serial"
        if self.parallel not in ("serial", "threads", "processes"):
            raise AnalysisError(
                "parallel must be one of serial/threads/processes, "
                f"got {self.parallel!r}"
            )
        #: Worker process count for ``parallel="processes"``. Defaults to
        #: ``config.shards``, falling back to ``workers``.
        self.shards = int(shards) if shards is not None else (config.shards or self.workers)
        if self.shards < 1:
            raise AnalysisError(f"shards must be >= 1, got {self.shards}")
        # Thread fan-out inside this process: only the threads mode
        # shards refresh work across the pool.
        self._thread_workers = self.workers if self.parallel == "threads" else 1
        # Parent-side shard fleet (processes mode; created at attach).
        self._sharded = None
        # (shard, owned class pairs) dropped from the latest refresh
        # because the shard's worker died mid-refresh.
        self._lost_shards: List[Tuple[int, List[RefKey]]] = []
        # The latest refresh's class pairs, in canonical analysis order,
        # and their per-shard partition (processes mode bookkeeping).
        self._dispatch_pair_order: List[RefKey] = []
        self._dispatch_pairs: Dict[int, List[RefKey]] = {}
        #: When True (default), correlator updates use reference-grouped
        #: :func:`~repro.core.correlation.batch_lag_products` kernels with
        #: quiet-edge skipping and correlation memoization. False restores
        #: the legacy one-kernel-per-pair refresh (the benchmark baseline).
        self.batched = bool(batched)
        #: Always-on refresh cost ledger (:mod:`repro.obs.ledger`): one
        #: :class:`RefreshLedger` per refresh with per-stage wall times
        #: and per-kernel measured costs, attached to every result.
        #: ``ledger=False`` disables the recording (the overhead
        #: benchmark's baseline); results then carry zero ledgers.
        self.ledger = LedgerRecorder(enabled=ledger)
        #: The most recent refresh's ledger (None before the first).
        self.latest_ledger: Optional[RefreshLedger] = None
        #: When True, sparse-vs-RLE kernel dispatch compares predicted
        #: kernel times from the ledger's measured per-unit cost EWMAs
        #: instead of the modeled constant. Output is bit-identical
        #: either way. Defaults to ``config.measured_dispatch``.
        self.measured_dispatch = (
            bool(measured_dispatch)
            if measured_dispatch is not None
            else config.measured_dispatch
        )
        #: Dense-regime FFT batch kernel routing (``"auto"`` / ``"off"``
        #: / ``"force"``; see :attr:`PathmapConfig.fft_dispatch`).
        #: Defaults to ``config.fft_dispatch``.
        self.fft_dispatch = (
            fft_dispatch if fft_dispatch is not None else config.fft_dispatch
        )
        if self.fft_dispatch not in ("auto", "off", "force"):
            raise AnalysisError(
                "fft_dispatch must be one of auto/off/force, "
                f"got {self.fft_dispatch!r}"
            )
        # Cross-refresh cache of block FFT spectra (the overlap-add
        # increment: only the newest dW block needs a fresh transform).
        self._spectra = SpectrumCache()
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        # Guards the plain-int per-refresh tallies below when provider
        # callbacks run on pool threads (workers > 1).
        self._tally_lock = threading.Lock()
        #: When True, every streamed block is round-tripped through the
        #: binary wire format (tracing.wire) before analysis -- proving
        #: the bytes actually sent over the network carry everything the
        #: analysis needs (values pass through float32).
        self.wire_fidelity = wire_fidelity
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
        self._correlators: Dict[Tuple[RefKey, EdgeKey], IncrementalCorrelator] = {}
        # Parked correlator keys; edge -> live and parked keys (core.stages).
        self._parked: Set[Tuple[RefKey, EdgeKey]] = set()
        self._edge_keys: Dict[EdgeKey, Set[Tuple[RefKey, EdgeKey]]] = {}
        # Per-refresh (edge, side) -> window boundary masses (core.stages).
        self._boundary: Dict[Tuple[EdgeKey, bool], object] = {}
        self._subscribers: List[Subscriber] = []
        self._metrics_subscribers: List[MetricsSubscriber] = []
        self._pathmap = Pathmap(
            config,
            correlation_provider=self._provide_correlation,
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
        self._topology: Optional[Topology] = None
        self._task: Optional[PeriodicTask] = None
        # Per-refresh correlator-cache tallies (plain ints: counted even
        # with the registry disabled, so MetricsSamples are always real).
        self._refresh_cache_hits = 0
        self._refresh_cache_misses = 0
        # Per-refresh optimization tallies: pair products skipped on quiet
        # blocks, and correlations served from the dirty-flag result cache.
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
            "Seconds per refresh spent in the reference-grouped batch append",
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
            "engine_blocks_ingested_total", "Streamed RLE blocks pulled from tracers"
        )
        self._m_wire_bytes = m.counter(
            "engine_wire_bytes_total", "Wire-format bytes received (wire_fidelity mode)"
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
        #: columnar batches and forwarded here -- through the transport's
        #: packed timestamp frames when transport is on, directly
        #: otherwise -- without materializing per-record objects.
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
        # Summaries ride the in-process correlators' eviction hooks;
        # processes-mode correlators live in shard workers without lake
        # access, so summary capture is serial/threads-only (the raw
        # spill path is mode-independent).
        self._lake_summaries = lake is not None and self.parallel != "processes"
        self._lake_segments_synced = 0 if lake is None else lake.segments_written
        #: Fault-tolerant transport (None = legacy direct pull). When set,
        #: every block travels tracer -> TransportLink -> channel ->
        #: TransportReceiver, gaining epoch/sequence framing, reordering
        #: tolerance, liveness watching and per-edge DataQuality.
        self.transport = transport
        self._channel_factory = channel_factory
        self._receiver: Optional[TransportReceiver] = None
        self._links: Dict[NodeId, TransportLink] = {}
        #: Per-tracer channels (fault injectors or perfect pass-throughs);
        #: chaos tests reach in here to toggle fault rates mid-run.
        self.transport_channels: Dict[NodeId, FaultyChannel] = {}
        # Block starts known missing per edge (declared gaps + current-
        # round absences), pruned as the window slides past them.
        self._gap_blocks: Dict[EdgeKey, Set[int]] = {}
        self._tracer_states: Dict[NodeId, str] = {}
        self._transport_totals: Dict[str, int] = {}
        #: Overall data-quality score of the latest refresh (1.0 = every
        #: edge signal complete and live; always 1.0 without transport).
        self.quality_score: float = 1.0
        #: Per-edge DataQuality of the latest refresh (transport only).
        self.latest_edge_quality: Dict[EdgeKey, DataQuality] = {}
        if transport is not None:
            self._receiver = TransportReceiver(
                transport, config.refresh_interval, metrics=m
            )
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
        #: When True, every refresh also derives per-class tuned-parameter
        #: recommendations (:mod:`repro.core.autotune`) from the observed
        #: reference-signal statistics into ``latest_recommendations``.
        #: The running analysis keeps its own parameters either way --
        #: blocks are quantized at ingest, so a resolution change needs a
        #: re-analysis, not a mid-flight swap.
        self.adaptive = bool(adaptive)
        #: Per-class steady-state confidence of the latest refresh.
        self.latest_confidence: Dict[RefKey, ConfidenceReport] = {}
        #: Overall (minimum per-class) confidence of the latest refresh.
        self.confidence_score: float = 1.0
        #: Per-class tuned-config recommendations (``adaptive=True`` only).
        self.latest_recommendations: Dict[RefKey, PathmapConfig] = {}
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

    def attach(self, topology: Topology, start_at: Optional[float] = None) -> None:
        """Drive refreshes from a simulated topology's clock.

        The first refresh fires one ``dW`` after ``start_at`` (default:
        attach time) and every ``dW`` thereafter.
        """
        if self._topology is not None:
            raise AnalysisError("engine is already attached")
        self._topology = topology
        self._clients |= topology.collector.clients
        if self.metrics.enabled:
            # Only bound when observing is on: tracer.observe runs once per
            # simulated packet, so unbound tracers pay nothing at all.
            for tracer in topology.fabric.tracers.values():
                tracer.bind_metrics(self.metrics)
        if self.capture_sink is not None:
            for tracer in topology.fabric.tracers.values():
                tracer.enable_batch_streaming()
        begin = start_at if start_at is not None else topology.sim.now
        tau = self.config.quantum
        # Anchor block boundaries one sampling window behind the wall
        # clock so flushed blocks are complete (see module docstring).
        self._base_quantum = int(round(begin / tau)) - self.config.sampling_quanta
        if self._thread_workers > 1 and self._pool is None:
            # One pool for the engine's whole attached lifetime: spawning
            # threads per refresh would dwarf the work they shard.
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self._thread_workers, thread_name_prefix="e2eprof-refresh"
            )
        if self.parallel == "processes" and self._sharded is None:
            # The fleet manager spawns/respawns workers lazily at the top
            # of each refresh's correlate stage (ensure_workers).
            from repro.core.shards import ShardedAnalysis

            self._sharded = ShardedAnalysis(self, self.shards)
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
        self._topology = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._sharded is not None:
            self._sharded.close()
            self._sharded = None

    def close(self) -> None:
        """Release every runtime resource the engine holds: the refresh
        task, the thread pool, the shard worker processes and all
        shared-memory segments. Idempotent; safe to call whether or not
        the engine was ever attached (``detach`` already is both, this
        alias just names the teardown contract explicitly)."""
        self.detach()
        if self.lake is not None:
            self.lake.flush()

    def reshard(self, shards: int) -> None:
        """Rebalance the process fleet to ``shards`` workers at the next
        refresh boundary (``parallel="processes"`` only; a no-op count
        change otherwise). Consistent hashing moves only ~1/N of the
        service classes per step, and moved classes rebuild their
        correlators bit-identically from mirrored block history."""
        if shards < 1:
            raise AnalysisError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)
        if self._sharded is not None:
            self._sharded.reshard(self.shards)

    # -- refresh ------------------------------------------------------------------------

    def _on_tick(self, now: float) -> None:
        self.refresh(now)

    def refresh(self, now: float) -> PathmapResult:
        """Pull one block per edge, update correlators, recompute graphs.

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
        if self._topology is None:
            raise AnalysisError("engine is not attached to a topology")
        if self._base_quantum is None:
            raise AnalysisError("engine was never attached")
        # Clients may be added while running (new service classes).
        self._clients |= self._topology.collector.clients
        block_start = self._base_quantum + self._refreshes * self._block_quanta
        self._refresh_cache_hits = 0
        self._refresh_cache_misses = 0
        self._refresh_skips = 0
        self._refresh_corr_cache_hits = 0
        self._refresh_capture_batches = 0
        self._refresh_low_confidence = 0
        self._lost_shards = []
        self.ledger.begin_refresh()
        wire_bytes_before = self.wire_bytes_received
        fresh, late_frames = self._stage_ingest(now, block_start)
        self._stage_correlate(fresh, late_frames, block_start, now)
        result, pathmap_seconds = self._stage_dfs(now)
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
        if self._lake_summaries:
            lake.advance_frontier(
                block_start - (self._num_blocks - 1) * self._block_quanta
            )
        lake.checkpoint()
        segments = lake.segments_written - self._lake_segments_synced
        self._lake_segments_synced = lake.segments_written
        self.ledger.record_stage(STAGE_SPILL, lake.drain_spill_seconds(), segments)

    def _summary_hook(self, ref_key, edge_key):
        """Correlator eviction hook persisting materialized summaries.

        Returns None unless a lake is attached and the correlators live
        in this process; otherwise a closure that turns each evicted
        ``(reference block, signal block, summed pair-product row)`` into
        a :class:`~repro.lake.BlockSummary` buffered in the lake (memory
        only; the refresh's checkpoint journals it).  The first eviction
        also writes a coverage marker; from there to the lake's frontier
        an eviction of two quiet blocks is implicit.
        """
        if not self._lake_summaries:
            return None
        lake = self.lake
        client, root = ref_key
        src, dst = edge_key
        covered = False

        def hook(old_x, old_y, contribution):
            nonlocal covered
            if not covered:
                covered = True
                lake.record_summary(
                    BlockSummary(
                        client, root, src, dst, int(old_y.start),
                        int(old_y.length), float(old_y.quantum), coverage="begin",
                    )
                )
            if contribution is None and block_is_quiet(old_x) and block_is_quiet(old_y):
                return
            lake.record_summary(
                BlockSummary(
                    client=client,
                    root=root,
                    src=src,
                    dst=dst,
                    block_start=int(old_y.start),
                    block_length=int(old_y.length),
                    quantum=float(old_y.quantum),
                    x_total=float(old_x.total()),
                    x_energy=float(old_x.energy()),
                    y_total=float(old_y.total()),
                    y_energy=float(old_y.energy()),
                    lag_products=contribution,
                )
            )

        return hook

    def _invalidate_correlators(self, edge):
        """Dropped keys' implicit summary coverage ends at the frontier."""
        dropped = super()._invalidate_correlators(edge)
        if self._lake_summaries and self.lake.frontier is not None:
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
    ) -> Tuple[Dict[EdgeKey, RunLengthSeries], List[BlockFrame]]:
        """**Stage 1 -- ingest**: pull one block per edge from every
        tracer (directly, or through the fault-tolerant transport) and
        drain capture batches. Returns the fresh blocks plus any
        re-sequenced late frames for history patching."""
        wire_metrics = self.metrics if self.metrics.enabled else None
        fresh: Dict[EdgeKey, RunLengthSeries] = {}
        late_frames: List[BlockFrame] = []
        ingest_started = time.perf_counter()
        with self.tracer.span("engine.ingest") as ingest_span:
            if self._receiver is not None:
                late_frames = self._transport_ingest(fresh, block_start, now)
            else:
                for node_id, tracer in self._topology.fabric.tracers.items():
                    with self.tracer.span("tracer.flush", node=node_id):
                        for edge, block in self._flush_kept(
                            node_id, tracer, block_start
                        ).items():
                            if self.wire_fidelity:
                                payload = encode_block(block, metrics=wire_metrics)
                                self.wire_bytes_received += len(payload)
                                block = decode_block(payload, metrics=wire_metrics)
                            fresh[edge] = block
                    if self.capture_sink is not None:
                        # Direct (no-transport) batch forwarding: the
                        # tracer's raw captures reach the archive as
                        # columnar writes, never as per-record objects.
                        for (src, dst), stamps in tracer.drain_batches().items():
                            self.capture_sink.ingest_batch(
                                src, dst, stamps,
                                observed_at_destination=(node_id == dst),
                            )
                            self._refresh_capture_batches += 1
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
        late_frames: List[BlockFrame],
        block_start: int,
        now: float,
    ) -> None:
        """**Stage 2 -- correlate**: store/patch block history and bring
        every incremental correlator up to date.

        Serial and thread modes append in-process (the thread pool fans
        out per reference group). Processes mode first heals the fleet
        -- dead shards respawn from the *pre-store* mirrored history, so
        they ingest this refresh like everyone else -- then stores
        locally (the parent's mirror feeds confidence/quality grading
        and future respawns) and ships the refresh to every worker,
        which appends and analyzes concurrently; their timings land in
        this stage's ledger sample when collected."""
        correlate_started = time.perf_counter()
        if self._sharded is not None:
            self._sharded.ensure_workers()
        self._refreshes += 1
        self._store_blocks(fresh, block_start)
        if late_frames:
            self._patch_late_blocks(late_frames, block_start)
        if self._sharded is not None:
            from repro.core.shards import block_tuple

            pairs = class_pairs(HostWindow(self))
            self._dispatch_pair_order = pairs
            self._dispatch_pairs = self._sharded.partition(pairs)
            late_payload = [
                (frame.edge, block_tuple(frame.block))
                for frame in late_frames
                if frame.block is not None
            ]
            spectra = None
            if self.fft_dispatch != "off":
                # Compute each fresh block's rfft once in the parent and
                # ship it with the blocks: workers seed their caches
                # instead of re-transforming per shard. spectrum() is a
                # pure function of (block, size), so seeded entries are
                # bitwise what the worker would have computed.
                size = fft_length(2 * self._block_quanta - 1)
                spectra = {
                    edge: (size, self._spectra.spectrum(block, size))
                    for edge, block in fresh.items()
                    if not block_is_quiet(block)
                }
            with self.tracer.span(
                "engine.shards.dispatch", shards=self._sharded.num_shards
            ):
                self._sharded.dispatch(
                    fresh,
                    late_payload,
                    block_start,
                    now,
                    self._dispatch_pairs,
                    clients=self._clients,
                    refreshes=self._refreshes,
                    spectra=spectra,
                )
        else:
            with self.tracer.span(
                "engine.correlators", correlators=len(self._correlators)
            ):
                self._append_to_correlators()
        self.ledger.record_stage(
            STAGE_CORRELATE, time.perf_counter() - correlate_started, len(self._blocks)
        )

    def _stage_dfs(self, now: float) -> Tuple[PathmapResult, float]:
        """**Stage 3 -- DFS**: recompute every service class's graph.

        Serial/thread modes run the pathmap DFS in-process. Processes
        mode collects each shard's partial pathmap and merges the
        disjoint per-class results deterministically."""
        pathmap_started = time.perf_counter()
        with self.tracer.span("engine.pathmap"):
            if self._sharded is not None:
                result = self._merge_shard_partials(now)
            else:
                window = HostWindow(self)
                result = self._pathmap.analyze(
                    window, workers=self._thread_workers, executor=self._pool
                )
        pathmap_seconds = time.perf_counter() - pathmap_started
        self.ledger.record_stage(
            STAGE_DFS, pathmap_seconds, result.stats.correlations
        )
        return result, pathmap_seconds

    def _merge_shard_partials(self, now: float) -> PathmapResult:
        """Collect every shard worker's partial and merge: graphs are a
        disjoint union re-ordered to the canonical pair order, stats and
        tallies are sums, worker counter deltas fold into the parent
        registry, and worker kernel/shard timings replay into the
        parent's ledger. Shards lost mid-refresh are recorded for the
        publish stage's degraded-quality annotation."""
        merge_started = time.perf_counter()
        partials, lost = self._sharded.collect()
        stats = PathmapStats()
        by_pair: Dict[RefKey, "object"] = {}
        worker_correlate = 0.0
        for partial in partials:
            by_pair.update(partial.graphs)
            stats.correlations += partial.correlations
            stats.spikes += partial.spikes
            stats.edges_discovered += partial.edges_discovered
            stats.graphs += partial.graph_count
            stats.nodes_visited += partial.nodes_visited
            self._refresh_cache_hits += partial.cache_hits
            self._refresh_cache_misses += partial.cache_misses
            self._refresh_skips += partial.skips
            self._refresh_corr_cache_hits += partial.corr_cache_hits
            worker_correlate = max(worker_correlate, partial.correlate_seconds)
            for kernel in sorted(partial.kernels):
                rows, seconds, units, nbytes = partial.kernels[kernel]
                self.ledger.record_kernel(
                    kernel,
                    rows=rows,
                    seconds=seconds,
                    work_units=units,
                    bytes_touched=nbytes,
                )
            self.ledger.record_shard(
                partial.shard,
                partial.correlate_seconds,
                partial.dfs_seconds,
                classes=partial.classes,
                correlators=partial.correlators,
            )
            # Worker counters (pathmap_*, correlator_*, engine cache
            # hit/miss...) fold in as deltas, so enabled-registry runs
            # read integer-identical totals to a serial run.
            for name, labels, help_, delta in partial.counters:
                self.metrics.counter(name, help_, labels=dict(labels)).inc(delta)
        # Workers correlate concurrently with each other; the refresh's
        # wall-clock correlate cost extends by the slowest shard.
        self.ledger.record_stage(STAGE_CORRELATE, worker_correlate)
        graphs: Dict[RefKey, "object"] = {}
        for pair in self._dispatch_pair_order:
            if pair in by_pair:
                graphs[pair] = by_pair[pair]
        stats.elapsed_seconds = time.perf_counter() - merge_started
        self._lost_shards = [
            (shard, self._dispatch_pairs.get(shard, [])) for shard in lost
        ]
        return PathmapResult(graphs, stats)

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
        shard-loss degradation, confidence, recommendations, ledger),
        observe the engine metrics, and fan out to every subscriber."""
        annotate_started = time.perf_counter()
        if self._receiver is not None:
            self._apply_quality(result, now, block_start)
        if self._lost_shards:
            self._apply_shard_loss(result, now)
        self._apply_confidence(result, now)
        if self.adaptive:
            self._update_recommendations(result)
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
        self._m_correlators.set(self._correlator_total())
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
            correlators=self._correlator_total(),
            parked_correlators=self.parked_count,
            cache_hits=self._refresh_cache_hits,
            cache_misses=self._refresh_cache_misses,
            correlations=result.stats.correlations,
            spikes=result.stats.spikes,
            nodes_visited=result.stats.nodes_visited,
            correlator_skips=self._refresh_skips,
            correlation_cache_hits=self._refresh_corr_cache_hits,
            capture_batches=self._refresh_capture_batches,
            autotune_recommendations=len(self.latest_recommendations),
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
        if self.ledger.enabled:
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
                self._correlator_total(),
                result.stats.spikes,
                self.last_refresh_seconds * 1e3,
            )
        return result

    def _correlator_total(self) -> int:
        """Live correlators across the analysis, whichever process holds
        them (the fleet's last reported counts in processes mode)."""
        if self._sharded is not None:
            return self._sharded.correlator_total()
        return len(self._correlators)

    @property
    def correlator_count(self) -> int:
        return self._correlator_total()

    @property
    def parked_count(self) -> int:
        """Dormant correlators dropped until one of their edges wakes."""
        if self._sharded is not None:
            return self._sharded.parked_total()
        return len(self._parked)

    def _apply_shard_loss(self, result: PathmapResult, now: float) -> None:
        """Degrade, never drop: a shard lost mid-refresh leaves its
        service classes out of this result, so their reference edges --
        and every edge their previous graphs had discovered -- are
        marked :data:`QUALITY_DEGRADED` through the same DataQuality
        machinery transport faults use, and a ``shard_lost`` event is
        published per lost shard. The fleet respawns the shard from
        mirrored history at the next refresh."""
        previous = self.latest_result
        dark_edges: Set[EdgeKey] = set()
        for _, pairs in self._lost_shards:
            for pair in pairs:
                dark_edges.add(pair)
                if previous is not None:
                    graph = previous.graphs.get(pair)
                    if graph is not None:
                        dark_edges.update(edge.key for edge in graph.edges)
        if self._receiver is not None:
            # Start from this refresh's transport verdicts (already
            # annotated) and only ever worsen them.
            edge_quality = dict(self.latest_edge_quality)
        else:
            edge_quality = {edge: FRESH_QUALITY for edge in self._blocks}
        for edge in sorted(dark_edges):
            current = edge_quality.get(edge)
            if current is None or current.ok:
                edge_quality[edge] = DataQuality(QUALITY_DEGRADED, 1.0)
        score = overall_quality(edge_quality.values())
        result.annotate_quality(edge_quality, score)
        self.quality_score = score
        self.latest_edge_quality = edge_quality
        self._m_quality.set(score)
        for shard, pairs in self._lost_shards:
            self.events.publish(
                EVENT_SHARD_LOST,
                now,
                shard=shard,
                classes=len(pairs),
                degraded_edges=len(dark_edges),
            )
        if self._receiver is None and score < 1.0:
            # With transport on, _apply_quality owns the degraded-refresh
            # event; without it, shard loss is the only degradation source.
            self.events.publish(
                EVENT_DEGRADED_REFRESH,
                now,
                quality=score,
                degraded_edges=sum(1 for q in edge_quality.values() if not q.ok),
                stale_tracers=0,
            )

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
        """One block per edge whose copy at this tracer the analysis
        keeps: destination-side capture wins (Algorithm 1); source-side
        only for edges into untraced clients."""
        kept = {
            (src, dst)
            for src, dst in tracer.edges()
            if node_id == dst or (dst in self._clients and node_id == src)
        }
        return tracer.flush_block(
            self.config, block_start, self._block_quanta, edges=kept
        )

    def _transport_ingest(
        self, fresh: Dict[EdgeKey, RunLengthSeries], block_start: int, now: float
    ) -> List[BlockFrame]:
        """Flush every tracer through its framed link + channel into the
        receiving endpoint; returns re-sequenced *late* frames (blocks
        belonging to earlier rounds) for history patching.

        The refresh's deliveries are collected in arrival order and
        handed to the receiver once, so it decodes the round in one pass."""
        receiver = self._receiver
        assert receiver is not None and self._topology is not None
        with self.tracer.span("engine.transport") as span:
            deliveries: List[bytes] = []
            for node_id, tracer in self._topology.fabric.tracers.items():
                receiver.register_tracer(node_id, now)
                link = self._link_for(node_id)
                channel = self._channel_for(node_id)
                with self.tracer.span("tracer.flush", node=node_id):
                    blocks = self._flush_kept(node_id, tracer, block_start)
                for payload in link.encode_blocks(blocks):
                    deliveries.extend(channel.send(payload))
                if self.capture_sink is not None:
                    # Raw captures ride the same link/channel as packed
                    # timestamp frames (one frame per edge batch).
                    batches = tracer.drain_batches()
                    if batches:
                        for payload in link.encode_timestamp_batches(batches):
                            deliveries.extend(channel.send(payload))
            # Frames the channels held back (reordered / delayed) that
            # have come due this round.
            for channel in self.transport_channels.values():
                deliveries.extend(channel.advance())
            self.wire_bytes_received += sum(map(len, deliveries))
            receiver.receive(deliveries, now)
            late: List[BlockFrame] = []
            for frame in receiver.poll():
                if frame.block is None:
                    continue
                if frame.block.start == block_start:
                    fresh[frame.edge] = frame.block
                else:
                    late.append(frame)
            if self.capture_sink is not None:
                # Timestamp batches carry absolute capture times, so
                # arrival order is irrelevant: file each straight into
                # the columnar archive.
                for ts_frame in receiver.poll_timestamp_batches():
                    self.capture_sink.ingest_batch(
                        ts_frame.src,
                        ts_frame.dst,
                        ts_frame.timestamps,
                        observed_at_destination=ts_frame.observed_at_destination,
                    )
                    self._refresh_capture_batches += 1
            # Declared gaps: blocks the reorder buffers gave up waiting for.
            gap_edges: Dict[EdgeKey, int] = {}
            for notice in receiver.drain_gap_notices():
                if notice.block_start is not None:
                    self._gap_blocks.setdefault(notice.edge, set()).add(
                        notice.block_start
                    )
                gap_edges[notice.edge] = gap_edges.get(notice.edge, 0) + 1
            for edge, count in sorted(gap_edges.items()):
                self.events.publish(
                    EVENT_TRANSPORT_GAP,
                    now,
                    node=receiver.edge_owner(edge),
                    edge=f"{edge[0]}->{edge[1]}",
                    blocks=count,
                )
            # Current-round absence: streams that were active moments ago
            # but produced nothing this round are provisionally gapped
            # (a late arrival patches the mark away again).
            for edge in receiver.known_edges():
                if edge in fresh:
                    continue
                if self._stream_recently_active(edge, block_start):
                    self._gap_blocks.setdefault(edge, set()).add(block_start)
            span.set_attribute("fresh", len(fresh))
            span.set_attribute("late", len(late))
            span.set_attribute("gaps", sum(gap_edges.values()))
            return late

    def _stream_recently_active(self, edge: EdgeKey, block_start: int) -> bool:
        """True when the edge's stream delivered a block within the last
        two rounds -- i.e. silence this round means loss, not idleness."""
        receiver = self._receiver
        assert receiver is not None
        node = receiver.edge_owner(edge)
        if node is None:
            return False
        buffer = receiver._buffers.get((node, edge[0], edge[1]))
        if buffer is None or buffer._anchor is None or not buffer._block_quanta:
            return False
        newest_start = buffer._anchor + buffer.max_seen * buffer._block_quanta
        return newest_start >= block_start - 2 * self._block_quanta

    def _patch_late_blocks(
        self, late: List[BlockFrame], block_start: int
    ) -> int:
        """Splice re-sequenced late blocks back into window history.

        Blocks carry their own window position, so a block that arrives
        a round (or several) behind schedule replaces the silence that
        was stored in its place; correlators touching the edge are
        invalidated and rebuilt lazily from the corrected history.
        """
        patched = 0
        for frame in late:
            block = frame.block
            assert block is not None
            edge = frame.edge
            if not self._splice_block(edge, block, block_start):
                continue
            patched += 1
            gaps = self._gap_blocks.get(edge)
            if gaps:
                gaps.discard(block.start)
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
        assert receiver is not None
        transport = self.transport or TransportConfig()
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
        edge_quality: Dict[EdgeKey, DataQuality] = {}
        for edge in self._blocks:
            gap_ratio = (
                len(self._gap_blocks.get(edge, ())) / rounds if rounds else 0.0
            )
            owner = receiver.edge_owner(edge)
            owner_state = statuses[owner].state if owner in statuses else None
            if owner_state == TRACER_DEAD or gap_ratio > transport.stale_gap_ratio:
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
        receiver = self._receiver
        assert receiver is not None
        totals = receiver.totals()
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

    # -- steady-state confidence and adaptivity ------------------------------------

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
        steady-state assumption and annotate the result. Runs serially
        after the DFS, so ``workers`` never affects the verdicts."""
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

    def _update_recommendations(self, result: PathmapResult) -> None:
        """Refresh the per-class tuned-parameter recommendations from the
        confidence reports' traffic statistics (``adaptive=True``)."""
        from repro.core.autotune import (
            TrafficStats,
            autotune_config,
            observed_delay_bound,
        )
        from repro.core.confidence import DEFAULT_BINS_PER_BLOCK

        rounds = min(self._refreshes, self._num_blocks)
        duration = rounds * self.config.refresh_interval
        bin_seconds = self.config.refresh_interval / DEFAULT_BINS_PER_BLOCK
        recommendations: Dict[RefKey, PathmapConfig] = {}
        for class_key, report in self.latest_confidence.items():
            if report.mean_rate <= 0 or duration <= 0:
                continue
            graph = result.graphs.get(class_key)
            delay_bound = (
                observed_delay_bound(graph) if graph is not None else None
            )
            # Excess Fano factor = excess CV^2 of bin counts x mean bin
            # count (F = cv2 * mean).
            burstiness = report.excess_cv2 * report.mean_rate * bin_seconds
            stats = TrafficStats.from_rate(
                report.mean_rate,
                duration,
                burstiness=burstiness,
                delay_bound=delay_bound,
            )
            recommendations[class_key] = autotune_config(self.config, stats)
        self.latest_recommendations = recommendations

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
        if self._sharded is not None:
            # Mirror the blanking into every shard worker's history (an
            # ordered control message, applied before the next refresh).
            self._sharded.rewindow(cutoff_quantum)
        if blanked:
            self.rewindows += 1
            self._m_rewindows.inc()
        return blanked

    def restart_tracer(self, node_id: NodeId) -> None:
        """Simulate a tracer crash/restart: captured state is lost, the
        transport epoch bumps (so pre-restart blocks are never
        resurrected) and all per-edge sequence streams reset."""
        if self._topology is not None:
            tracer = self._topology.fabric.tracer(node_id)
            if tracer is not None:
                tracer.restart()
        if self._receiver is not None:
            self._link_for(node_id).restart()

    def transport_summary(self, now: Optional[float] = None) -> dict:
        """JSON-able snapshot of transport health (``repro stats``)."""
        if self._receiver is None:
            return {"enabled": False}
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


#: Backwards-compatible alias: the engine's TraceWindow view now
#: lives in :mod:`repro.core.stages` and serves shard workers too.
_EngineWindow = HostWindow
