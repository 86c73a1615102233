"""repro.obs -- self-observability for the analyzer (metrics, spans, events).

The paper's core claim is that the pathmap analyzer is cheap enough to run
*online* (the flat 'incremental' curve of Figure 9, Section 3.7). This
package lets the reproduction **prove that about itself, continuously**: a
dependency-free metrics registry (counters, gauges, fixed-bucket
histograms, ``perf_counter`` timers) that the engine, correlators, wire
codec, collector and tracers report into.

Key properties:

* **Off by default.** Every instrumented component defaults to a disabled
  registry; a disabled instrument mutation is one attribute check. The
  overhead-guard test pins the disabled path at well under 5% of engine
  refresh time.
* **Exact under threads.** Enabled instruments take a per-instrument lock,
  so concurrent updates never lose increments.
* **Three expositions.** ``registry.snapshot()`` (JSON-able),
  ``registry.to_prometheus()`` (text format 0.0.4), and per-refresh
  :class:`MetricsSample` objects pushed to engine subscribers.

Beyond aggregates, the package also provides the *causal* layer (PR 2):
:class:`SpanTracer` (nested, monotonic per-stage spans; same off-by-default
contract), :class:`EventBus` (typed :class:`DiagnosticEvent` records --
changes, anomalies, SLA violations, scheduler decisions -- attached to the
span that raised them), :class:`FlightRecorder` (a bounded ring of the last
N refreshes' spans+events, always recording), and :func:`chrome_trace`
(Perfetto/``chrome://tracing``-loadable export).

See ``docs/OBSERVABILITY.md`` for the catalogue and wiring recipes, and
the ``repro stats`` / ``repro timeline`` CLI subcommands for one-shot
expositions.
"""

from repro.obs.events import (
    EVENT_ANOMALY,
    EVENT_CHANGE,
    EVENT_LATENCY,
    EVENT_PATH_SELECTION,
    EVENT_SLA_VIOLATION,
    EVENT_SUBSCRIBER_ERROR,
    EVENT_TRACER_STALE,
    EVENT_TRANSPORT_GAP,
    EVENT_DEGRADED_REFRESH,
    EVENT_LOW_CONFIDENCE,
    EVENT_REWINDOW,
    EVENT_SLO_BURN,
    DiagnosticEvent,
    EventBus,
)
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.exposition import snapshot, to_prometheus
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder, RefreshFrame
from repro.obs.instruments import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_STAGE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Timer,
    exponential_buckets,
)
from repro.obs.ledger import (
    CORRELATION_KERNELS,
    KERNEL_LEGACY,
    KERNEL_RLE,
    KERNEL_SPARSE_BATCH,
    PIPELINE_STAGES,
    STAGE_CORRELATE,
    STAGE_DFS,
    STAGE_INGEST,
    STAGE_PUBLISH,
    Ewma,
    KernelSample,
    LedgerRecorder,
    RefreshLedger,
    StageSample,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.sample import MetricsSample
from repro.obs.slo import (
    SLOMonitor,
    StageObjective,
    default_objectives,
)
from repro.obs.spans import NULL_TRACER, Span, SpanTracer

__all__ = [
    "CORRELATION_KERNELS",
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_FLIGHT_CAPACITY",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_STAGE_BUCKETS",
    "DiagnosticEvent",
    "EVENT_ANOMALY",
    "EVENT_CHANGE",
    "EVENT_LATENCY",
    "EVENT_PATH_SELECTION",
    "EVENT_SLA_VIOLATION",
    "EVENT_SLO_BURN",
    "EVENT_SUBSCRIBER_ERROR",
    "EVENT_TRACER_STALE",
    "EVENT_TRANSPORT_GAP",
    "EVENT_DEGRADED_REFRESH",
    "EVENT_LOW_CONFIDENCE",
    "EVENT_REWINDOW",
    "EventBus",
    "Ewma",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KERNEL_LEGACY",
    "KERNEL_RLE",
    "KERNEL_SPARSE_BATCH",
    "KernelSample",
    "LedgerRecorder",
    "MetricsRegistry",
    "MetricsSample",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "PIPELINE_STAGES",
    "RefreshFrame",
    "RefreshLedger",
    "SLOMonitor",
    "STAGE_CORRELATE",
    "STAGE_DFS",
    "STAGE_INGEST",
    "STAGE_PUBLISH",
    "Span",
    "SpanTracer",
    "StageObjective",
    "StageSample",
    "Timer",
    "chrome_trace",
    "default_objectives",
    "exponential_buckets",
    "snapshot",
    "to_prometheus",
    "write_chrome_trace",
]
