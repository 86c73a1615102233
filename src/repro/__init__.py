"""repro -- reproduction of *E2EProf: Automated End-to-End Performance
Management for Enterprise Systems* (Agarwala, Alegre, Schwan,
Mehalingham; DSN 2007).

The package has four layers:

* :mod:`repro.core` -- the paper's contribution: density time series,
  bounded/sparse/RLE/FFT cross-correlation, spike detection, the pathmap
  path-discovery algorithm, the incremental online engine, change
  detection, clock-skew estimation and bottleneck attribution.
* :mod:`repro.tracing` -- the non-intrusive tracing substrate: per-node
  tracers, the central collector, access-log adapters and trace storage.
* :mod:`repro.simulation` -- the testbed substitute: a deterministic
  discrete-event simulator of multi-tier enterprise systems.
* :mod:`repro.apps` / :mod:`repro.management` / :mod:`repro.baselines` --
  the paper's two case studies (RUBiS, Delta Revenue Pipeline), SLA-aware
  path selection, and the Aguilera et al. baselines.

Quickstart::

    from repro import analyze_window, build_rubis

    rubis = build_rubis(dispatch="affinity", seed=7)
    rubis.run_until(185.0)
    result = analyze_window(rubis.collector, rubis.config, end=183.0)
    print(result.graph_for("C1"))
"""

import logging as _logging

# Library-friendly logging: every module under repro logs through its
# module logger, and the package root swallows records unless the
# application configures handlers (or passes --log-level to the CLI).
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from repro.config import DELTA_CONFIG, PathmapConfig, RUBIS_CONFIG, TransportConfig
from repro.core.autotune import TrafficStats, autotune_config
from repro.core.bottleneck import BottleneckReport, find_bottlenecks
from repro.core.change_detection import ChangeDetector, ChangeEvent
from repro.core.confidence import ConfidenceReport, timestamp_confidence, window_confidence
from repro.core.clock_skew import SkewEstimate, estimate_clock_skew
from repro.core.correlation import CorrelationSeries, cross_correlate
from repro.core.engine import E2EProfEngine
from repro.core.offline import analyze_window
from repro.core.pathmap import Pathmap, PathmapResult, TraceWindow, compute_service_graphs
from repro.core.rle import RunLengthSeries, rle_decode, rle_encode
from repro.core.service_graph import ServiceEdge, ServiceGraph, ServicePath
from repro.core.spikes import Spike, detect_spikes
from repro.core.timeseries import DensityTimeSeries, build_density_series
from repro.errors import (
    AnalysisError,
    ConfigError,
    CorrelationError,
    E2EProfError,
    ObservabilityError,
    SeriesError,
    SimulationError,
    TopologyError,
    TraceError,
)
from repro.obs import (
    DiagnosticEvent,
    EventBus,
    FlightRecorder,
    MetricsRegistry,
    MetricsSample,
    RefreshFrame,
    Span,
    SpanTracer,
    chrome_trace,
    write_chrome_trace,
)
from repro.apps.delta import build_delta
from repro.apps.rubis import build_rubis
from repro.simulation.topology import Topology
from repro.tracing.collector import TraceCollector
from repro.tracing.records import AccessLogRecord, CaptureRecord
from repro.tracing.transport import (
    DataQuality,
    FaultyChannel,
    TransportLink,
    TransportReceiver,
    overall_quality,
)

__version__ = "1.0.0"

__all__ = [
    "AccessLogRecord",
    "AnalysisError",
    "BottleneckReport",
    "CaptureRecord",
    "ChangeDetector",
    "ChangeEvent",
    "ConfidenceReport",
    "ConfigError",
    "CorrelationError",
    "CorrelationSeries",
    "DELTA_CONFIG",
    "DataQuality",
    "DensityTimeSeries",
    "DiagnosticEvent",
    "E2EProfEngine",
    "E2EProfError",
    "EventBus",
    "FaultyChannel",
    "FlightRecorder",
    "MetricsRegistry",
    "MetricsSample",
    "ObservabilityError",
    "RefreshFrame",
    "Span",
    "SpanTracer",
    "Pathmap",
    "PathmapConfig",
    "PathmapResult",
    "RUBIS_CONFIG",
    "RunLengthSeries",
    "SeriesError",
    "ServiceEdge",
    "ServiceGraph",
    "ServicePath",
    "SimulationError",
    "SkewEstimate",
    "Spike",
    "Topology",
    "TopologyError",
    "TraceCollector",
    "TraceError",
    "TraceWindow",
    "TrafficStats",
    "TransportConfig",
    "TransportLink",
    "TransportReceiver",
    "analyze_window",
    "autotune_config",
    "build_delta",
    "build_density_series",
    "build_rubis",
    "chrome_trace",
    "compute_service_graphs",
    "cross_correlate",
    "detect_spikes",
    "estimate_clock_skew",
    "find_bottlenecks",
    "overall_quality",
    "rle_decode",
    "rle_encode",
    "timestamp_confidence",
    "window_confidence",
    "write_chrome_trace",
]
