"""PERF -- columnar batched ingest vs the per-record collector path.

The paper's tracers forward captures continuously; a central analyzer's
ingest rate bounds the trace rate the whole deployment can sustain
(Section 5.1 measures analysis cost against trace rate). This bench
replays a many-class capture trace (:mod:`repro.apps.manyclass`) through
the collector along both ingest paths:

* ``per_record`` -- one :class:`CaptureRecord` at a time into the
  collector's chunked store.
* ``batched``    -- per-(edge, side) timestamp arrays per flush interval
  into the same store, as the engine's capture-sink drain delivers
  them.

Every timing includes the post-ingest consolidation (the first
``edge_timestamps`` query per edge), so lazy sorting cannot hide cost.
Asserts the headline claim: batched ingest sustains at least 2x the
records/second of the per-record path (the last full-size numbers are
frozen in docs/PERFORMANCE.md, "Columnar ingest"), while producing
bit-identical analysis windows, and a retention-bounded collector keeps
resident records below the total ingested. Results land in
``benchmarks/results/ingest_throughput.txt``.
"""

import time

import numpy as np

from repro.analysis.render import render_comparison_table
from repro.apps.manyclass import build_many_class
from repro.config import PathmapConfig
from repro.tracing.collector import TraceCollector

from conftest import write_result

CLASSES = 12
SEED = 7
DURATION = 12.0
REQUEST_RATE = 100.0
REPEATS = 2

#: Window configuration for the equivalence check and the retention soak.
BENCH_INGEST_CONFIG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=1e-3,
    max_transaction_delay=2.0,
)

#: Flush cadence grouping the record stream into batches -- one batch
#: per (edge, side) per interval, like the engine's per-refresh drain.
FLUSH_INTERVAL = 2.0


def build_workload():
    """Simulate the many-class topology; return its time-ordered record
    stream and the same stream as per-flush-interval
    ``{(src, dst, at_destination): ndarray}`` batch rounds."""
    deployment = build_many_class(
        classes=CLASSES,
        quiet_fraction=0.0,
        seed=SEED,
        request_rate=REQUEST_RATE,
        quiet_after=None,
        config=BENCH_INGEST_CONFIG,
    )
    deployment.run_until(DURATION)
    records = deployment.topology.collector.export_records()
    rounds: dict = {}
    for record in records:
        round_ = rounds.setdefault(record.timestamp // FLUSH_INTERVAL, {})
        key = (record.src, record.dst, record.observed_at_destination)
        round_.setdefault(key, []).append(record.timestamp)
    batch_rounds = [
        {key: np.asarray(stamps, dtype=np.float64) for key, stamps in round_.items()}
        for round_ in rounds.values()
    ]
    return records, batch_rounds


def _consolidate(collector: TraceCollector) -> TraceCollector:
    """Force every lazy sort, so timings include consolidation."""
    for src, dst in collector.edges():
        collector.edge_timestamps(src, dst)
        collector.edge_timestamps(src, dst, prefer_destination=False)
    return collector


def ingest_per_record(records) -> TraceCollector:
    collector = TraceCollector()
    ingest = collector.ingest
    for record in records:
        ingest(record)
    return _consolidate(collector)


def ingest_batched(batch_rounds) -> TraceCollector:
    collector = TraceCollector()
    ingest_batch = collector.ingest_batch
    for round_ in batch_rounds:
        for (src, dst, at_destination), stamps in round_.items():
            ingest_batch(src, dst, stamps, at_destination)
    return _consolidate(collector)


def best_seconds(fn) -> float:
    """Fastest of ``REPEATS`` runs of ``fn`` (fresh state per run; the
    minimum strips one-off machine noise)."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def identical_windows(a: TraceCollector, b: TraceCollector, end_time: float) -> bool:
    """True when both collectors yield bit-identical analysis windows."""
    if a.edges() != b.edges():
        return False
    window_a = a.window(BENCH_INGEST_CONFIG, end_time=end_time)
    window_b = b.window(BENCH_INGEST_CONFIG, end_time=end_time)
    if window_a.active_edges() != window_b.active_edges():
        return False
    for src, dst in window_a.active_edges():
        series_a = window_a.edge_series(src, dst)
        series_b = window_b.edge_series(src, dst)
        if (
            series_a.start != series_b.start
            or series_a.length != series_b.length
            or not np.array_equal(series_a.starts, series_b.starts)
            or not np.array_equal(series_a.counts, series_b.counts)
            or not np.array_equal(series_a.values, series_b.values)
        ):
            return False
    return True


def retention_soak(batch_rounds, retention: float) -> dict:
    """Stream the workload into a bounded collector and watch residency."""
    collector = TraceCollector(retention=retention)
    peak = 0
    for round_ in batch_rounds:
        for (src, dst, at_destination), stamps in round_.items():
            collector.ingest_batch(src, dst, stamps, at_destination)
        collector.evict_expired()
        peak = max(peak, collector.record_count())
    stats = collector.ingest_stats()
    return {
        "peak_resident_records": peak,
        "final_resident_records": stats["resident_records"],
        "records_evicted": stats["records_evicted"],
        "records_ingested": stats["records_ingested"],
        "resident_bounded": stats["records_evicted"] > 0
        and peak < stats["records_ingested"],
    }


def test_batched_ingest_twice_as_fast():
    records, batch_rounds = build_workload()
    count = len(records)
    assert count > 50_000  # the workload qualifies as high-throughput

    modes = {
        "per_record": lambda: ingest_per_record(records),
        "batched": lambda: ingest_batched(batch_rounds),
    }
    seconds = {name: best_seconds(fn) for name, fn in modes.items()}
    rates = {name: count / best for name, best in seconds.items()}
    # Tightest analysis-safe horizon (window + max delay), so the 12 s
    # trace actually crosses it and eviction provably fires.
    retention = (
        BENCH_INGEST_CONFIG.window + BENCH_INGEST_CONFIG.max_transaction_delay
    )
    soak = retention_soak(batch_rounds, retention=retention)

    rows = [
        [name, f"{rates[name]:,.0f}", f"{seconds[name] * 1000:.1f}"]
        for name in modes
    ]
    rows.append(
        [
            "retention soak",
            f"peak resident {soak['peak_resident_records']:,}",
            f"evicted {soak['records_evicted']:,}",
        ]
    )
    table = render_comparison_table(
        ["mode", "records/s", "best (ms)"],
        rows,
        title=f"Collector ingest of {count:,} records over {CLASSES} classes",
    )
    write_result("ingest_throughput.txt", table)

    # Identical inputs: batched and per-record ingest must yield
    # bit-identical analysis windows over the same range.
    assert identical_windows(
        ingest_per_record(records),
        ingest_batched(batch_rounds),
        end_time=DURATION,
    )

    # Bounded retention: the soak evicted and stayed below the total.
    assert soak["resident_bounded"]
    assert soak["peak_resident_records"] < soak["records_ingested"]
    assert (
        soak["final_resident_records"] + soak["records_evicted"]
        == soak["records_ingested"]
    )

    # The headline: batched ingest at least doubles records/second.
    speedup = rates["batched"] / rates["per_record"]
    assert speedup >= 2.0, (
        f"batched ingest only {speedup:.2f}x faster than per-record "
        f"({rates['batched']:,.0f}/s vs {rates['per_record']:,.0f}/s)"
    )
