"""Long-horizon drift queries over the trace lake (``repro history``).

Answers "has the delay between these services drifted since last week?"
without replaying a week of traces.  Two estimators over the same span:

``span_estimate``
    Folds the lake's **materialized correlation summaries** (persisted
    at correlator-eviction time, quiet blocks implicit between a key's
    coverage marker and the lake's frontier, :mod:`repro.lake.summaries`)
    by pure vector addition -- no correlation kernels run.  This is the fast
    path the ``benchmarks/test_lake_speedup.py`` gate measures, and it
    carries the fold's documented ``O(max_lag / span)`` boundary
    approximation.

``raw_span_estimate``
    Re-correlates from the **raw spilled timestamps** (stitched through
    the collector's cache-aside read path semantics): density series are
    rebuilt over the span and pushed through
    :func:`~repro.core.correlation.correlate_sparse`.  Exact, slow, and
    the reference the speedup is measured against.

Both peak-pick the normalized correlation, so their delay estimates
agree whenever the span's signal is stationary enough for the fold's
boundary approximation to wash out (the long-span regime summaries are
built for).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.config import PathmapConfig
from repro.core.correlation import CorrelationSeries, correlate_sparse
from repro.core.timeseries import build_density_series
from repro.errors import AnalysisError
from repro.lake.lake import TraceLake
from repro.lake.summaries import BlockSummary, covered_blocks, fold_covered


@dataclasses.dataclass(frozen=True)
class SpanEstimate:
    """One span's correlation-derived delay estimate for a (class, edge)."""

    client: str
    root: str
    src: str
    dst: str
    #: Span actually covered (block-aligned for summary folds).
    start: float
    end: float
    #: Window length in quanta the correlation was normalized over.
    n: int
    #: Blocks folded, written or implicitly quiet (0 for raw replays).
    blocks: int
    #: Peak-correlation lag converted to seconds (NaN when degenerate).
    delay: float
    #: Correlation value at the peak.
    peak: float
    degenerate: bool
    #: ``"summaries"`` or ``"raw"``.
    source: str
    series: CorrelationSeries

    def to_dict(self) -> dict:
        return {
            "client": self.client,
            "root": self.root,
            "src": self.src,
            "dst": self.dst,
            "start": self.start,
            "end": self.end,
            "n": self.n,
            "blocks": self.blocks,
            "delay": self.delay,
            "peak": self.peak,
            "degenerate": self.degenerate,
            "source": self.source,
        }


def _peak(series: CorrelationSeries) -> Tuple[float, float]:
    """(delay seconds, peak value); NaN delay for degenerate series."""
    if series.degenerate or series.values.size == 0:
        return float("nan"), 0.0
    lag = int(np.argmax(series.values))
    return lag * series.quantum, float(series.values[lag])


def span_estimate(
    lake: TraceLake,
    client: str,
    root: str,
    src: str,
    dst: str,
    start: float = float("-inf"),
    end: float = float("inf"),
    max_lag: Optional[int] = None,
) -> SpanEstimate:
    """Delay estimate for a span by folding materialized summaries."""
    rows: List[BlockSummary] = lake.summaries(
        client=client, root=root, src=src, dst=dst, start=start, end=end
    )
    covered = covered_blocks(rows, lake.frontier, start, end)
    if covered.size == 0:
        raise AnalysisError(
            f"no materialized summaries for ({client}, {root}) x "
            f"({src}, {dst}) in [{start}, {end})"
        )
    series = fold_covered(rows, covered, max_lag=max_lag, start=start, end=end)
    delay, peak = _peak(series)
    return SpanEstimate(
        client=client,
        root=root,
        src=src,
        dst=dst,
        start=int(covered[0]) * rows[0].quantum,
        end=(int(covered[-1]) + rows[0].block_length) * rows[0].quantum,
        n=series.n,
        blocks=int(covered.size),
        delay=delay,
        peak=peak,
        degenerate=series.degenerate,
        source="summaries",
        series=series,
    )


def _lake_edge_stamps(
    lake: TraceLake, src: str, dst: str, start: float, end: float
) -> np.ndarray:
    """One edge's spilled timestamps in ``[start, end)``, sorted.

    Destination-side captures preferred, source-side fallback -- the
    collector's Algorithm 1 signal selection applied to the lake's
    stream catalog.
    """
    streams = set(lake.streams())
    for at_dst in (True, False):
        if (src, dst, at_dst) in streams:
            return np.sort(lake.query(src, dst, at_dst, start=start, end=end))
    return np.empty(0, dtype=np.float64)


def raw_span_estimate(
    lake: TraceLake,
    config: PathmapConfig,
    client: str,
    root: str,
    src: str,
    dst: str,
    start: float,
    end: float,
    max_lag: Optional[int] = None,
) -> SpanEstimate:
    """Delay estimate for a span by re-correlating raw spilled traces.

    The exact (kernel-running) comparator for :func:`span_estimate`:
    reference and signal density series are rebuilt from the lake's raw
    segments over ``[start, end)`` and correlated from scratch.
    """
    if not (math.isfinite(start) and math.isfinite(end)) or start >= end:
        raise AnalysisError(f"raw replay needs a finite span, got [{start}, {end})")
    ref_stamps = _lake_edge_stamps(lake, client, root, start, end)
    sig_stamps = _lake_edge_stamps(lake, src, dst, start, end)
    if ref_stamps.size == 0 or sig_stamps.size == 0:
        raise AnalysisError(
            f"no spilled traces for ({client}, {root}) x ({src}, {dst}) "
            f"in [{start}, {end})"
        )
    tau = config.quantum
    window_start = int(np.floor(start / tau))
    window_length = max(1, int(round((end - start) / tau)))
    ref_series = build_density_series(
        ref_stamps,
        quantum=tau,
        sampling_quanta=config.sampling_quanta,
        window_start=window_start,
        window_length=window_length,
    )
    sig_series = build_density_series(
        sig_stamps,
        quantum=tau,
        sampling_quanta=config.sampling_quanta,
        window_start=window_start,
        window_length=window_length,
    )
    series = correlate_sparse(ref_series, sig_series, max_lag=max_lag)
    delay, peak = _peak(series)
    return SpanEstimate(
        client=client,
        root=root,
        src=src,
        dst=dst,
        start=window_start * tau,
        end=(window_start + window_length) * tau,
        n=series.n,
        blocks=0,
        delay=delay,
        peak=peak,
        degenerate=series.degenerate,
        source="raw",
        series=series,
    )


@dataclasses.dataclass(frozen=True)
class DriftReport:
    """Delay drift of one (class, edge) between two spans."""

    baseline: SpanEstimate
    current: SpanEstimate

    @property
    def drift_seconds(self) -> float:
        return self.current.delay - self.baseline.delay

    @property
    def drift_quanta(self) -> int:
        if math.isnan(self.drift_seconds):
            return 0
        return int(round(self.drift_seconds / self.baseline.series.quantum))

    @property
    def comparable(self) -> bool:
        return not (self.baseline.degenerate or self.current.degenerate)

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "current": self.current.to_dict(),
            "drift_seconds": self.drift_seconds,
            "drift_quanta": self.drift_quanta,
            "comparable": self.comparable,
        }


def delay_drift(
    lake: TraceLake,
    client: str,
    root: str,
    src: str,
    dst: str,
    baseline_span: Tuple[float, float],
    current_span: Tuple[float, float],
    max_lag: Optional[int] = None,
) -> DriftReport:
    """Compare a (class, edge) delay across two spans via summary folds."""
    baseline = span_estimate(
        lake, client, root, src, dst, baseline_span[0], baseline_span[1], max_lag
    )
    current = span_estimate(
        lake, client, root, src, dst, current_span[0], current_span[1], max_lag
    )
    return DriftReport(baseline=baseline, current=current)
