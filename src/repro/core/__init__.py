"""The paper's contribution: pathmap and its supporting signal analysis."""

from repro.core.anomaly import ALARM, OK, WARNING, Anomaly, AnomalyDetector
from repro.core.bottleneck import BottleneckReport, find_bottlenecks, rank_nodes
from repro.core.change_detection import ChangeDetector, ChangeEvent, DelaySample
from repro.core.clock_skew import SkewEstimate, estimate_clock_skew
from repro.core.correlation import (
    CorrelationSeries,
    correlate_dense,
    correlate_fft,
    correlate_rle,
    correlate_sparse,
    cross_correlate,
)
from repro.core.engine import E2EProfEngine
from repro.core.link_latency import (
    decompose_node_delays,
    estimate_link_latency,
    measure_link_latencies,
)
from repro.core.offline import analyze_window, replay
from repro.core.pathmap import Pathmap, PathmapResult, PathmapStats, TraceWindow, compute_service_graphs
from repro.core.rle import Run, RunLengthSeries, rle_decode, rle_encode
from repro.core.service_graph import ServiceEdge, ServiceGraph, ServicePath
from repro.core.spikes import Spike, detect_spikes, earliest_spike, strongest_spike
from repro.core.timeseries import (
    DensityTimeSeries,
    aligned_windows,
    build_density_series,
    quantize_timestamps,
)
