"""Benchmark collector ingest: per-record vs batched vs binary replay.

Captures a realistic trace from the synthetic many-class topology
(:mod:`repro.apps.manyclass`), then replays it through the trace
collector along three ingest paths and reports records/second as JSON:

* ``per_record``         -- one :class:`CaptureRecord` at a time into the
  collector's chunked store.
* ``batched``            -- per-(edge, side) timestamp arrays grouped by
  flush interval into :meth:`TraceCollector.ingest_batch`, as the
  engine's capture-sink drain delivers them.
* ``binary_replay``      -- the trace re-read from the binary columnar
  file format (``.rtb``) and batch-ingested, the offline re-analysis
  path.

Every timing includes the post-ingest consolidation (the first
``edge_timestamps`` query per edge), so lazy sorting cannot hide cost.
The run also verifies that the per-record and batched collectors produce
bit-identical analysis windows, and soaks a retention-bounded collector
to show flat resident memory. Run from the repository root:

    PYTHONPATH=src python tools/bench_ingest.py            # full workload
    PYTHONPATH=src python tools/bench_ingest.py --quick    # CI-sized

The JSON lands in ``BENCH_ingest.json`` (override with ``--output``);
``benchmarks/test_ingest_throughput.py`` asserts the batched speedup on
the same machinery.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.apps.manyclass import build_many_class  # noqa: E402
from repro.config import PathmapConfig  # noqa: E402
from repro.tracing.collector import TraceCollector  # noqa: E402
from repro.tracing.storage import read_capture_binary, write_capture_binary  # noqa: E402

#: Window configuration for the equivalence check and the retention soak.
BENCH_INGEST_CONFIG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=1e-3,
    max_transaction_delay=2.0,
)

#: Flush cadence used to group the record stream into batches -- one
#: batch per (edge, side) per interval, like the engine's per-refresh
#: capture-sink drain.
FLUSH_INTERVAL = 2.0


def build_workload(classes: int, seed: int, duration: float, request_rate: float):
    """Simulate the many-class topology and extract its capture trace.

    Returns ``(records, batch_rounds)``: the time-ordered per-record
    stream, and the same stream grouped into per-flush-interval
    ``{(src, dst, at_destination): ndarray}`` batch rounds.
    """
    deployment = build_many_class(
        classes=classes,
        quiet_fraction=0.0,
        seed=seed,
        request_rate=request_rate,
        quiet_after=None,
        config=BENCH_INGEST_CONFIG,
    )
    deployment.run_until(duration)
    records = deployment.topology.collector.export_records()
    rounds = []
    current: dict = {}
    boundary = FLUSH_INTERVAL
    for record in records:
        while record.timestamp >= boundary:
            if current:
                rounds.append(current)
                current = {}
            boundary += FLUSH_INTERVAL
        key = (record.src, record.dst, record.observed_at_destination)
        current.setdefault(key, []).append(record.timestamp)
    if current:
        rounds.append(current)
    batch_rounds = [
        {key: np.asarray(stamps, dtype=np.float64) for key, stamps in round_.items()}
        for round_ in rounds
    ]
    return records, batch_rounds


def _consolidate(collector: TraceCollector) -> None:
    """Force every lazy sort, so timings include consolidation."""
    for src, dst in collector.edges():
        collector.edge_timestamps(src, dst)
        collector.edge_timestamps(src, dst, prefer_destination=False)


def ingest_per_record(records) -> TraceCollector:
    collector = TraceCollector()
    ingest = collector.ingest
    for record in records:
        ingest(record)
    _consolidate(collector)
    return collector


def ingest_batched(batch_rounds) -> TraceCollector:
    collector = TraceCollector()
    ingest_batch = collector.ingest_batch
    for round_ in batch_rounds:
        for (src, dst, at_destination), stamps in round_.items():
            ingest_batch(src, dst, stamps, at_destination)
    _consolidate(collector)
    return collector


def ingest_binary_replay(path, mmap: bool = False) -> TraceCollector:
    collector = TraceCollector()
    for batch in read_capture_binary(path, mmap=mmap):
        collector.ingest_batch(
            batch.src, batch.dst, batch.timestamps, batch.observed_at_destination
        )
    _consolidate(collector)
    return collector


def timed_rate(fn, record_count: int, repeats: int) -> dict:
    """Best records/second over ``repeats`` runs of ``fn`` (fresh state
    per run; the max strips one-off machine noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return {
        "records": record_count,
        "best_seconds": best,
        "records_per_second": record_count / best if best else float("inf"),
    }


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
        "retention_seconds": retention,
        "peak_resident_records": peak,
        "final_resident_records": stats["resident_records"],
        "records_evicted": stats["records_evicted"],
        "records_ingested": stats["records_ingested"],
        "resident_bounded": stats["records_evicted"] > 0
        and peak < stats["records_ingested"],
    }


def run_benchmark(classes: int, seed: int, duration: float, repeats: int,
                  request_rate: float = 100.0) -> dict:
    records, batch_rounds = build_workload(classes, seed, duration, request_rate)
    count = len(records)
    print(f"workload: {count} records over {len(batch_rounds)} flush rounds",
          flush=True)

    modes = {
        "per_record": lambda: ingest_per_record(records),
        "batched": lambda: ingest_batched(batch_rounds),
    }
    results = {}
    for name, fn in modes.items():
        results[name] = timed_rate(fn, count, repeats)
        print(
            f"{name:20s} {results[name]['records_per_second']:12,.0f} records/s",
            flush=True,
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "bench.rtb"
        reference = ingest_batched(batch_rounds)
        file_bytes = None
        write_capture_binary(path, reference.export_batches())
        file_bytes = path.stat().st_size
        results["binary_replay"] = timed_rate(
            lambda: ingest_binary_replay(path), count, repeats
        )
        results["binary_replay"]["file_bytes"] = file_bytes
        print(
            f"{'binary_replay':20s} "
            f"{results['binary_replay']['records_per_second']:12,.0f} records/s "
            f"({file_bytes} bytes on disk)",
            flush=True,
        )
        # Same replay with the file memory-mapped: timestamp arrays are
        # zero-copy views into the page cache (read_capture_binary
        # mmap=True), bit-identical to the copying read.
        results["binary_replay_mmap"] = timed_rate(
            lambda: ingest_binary_replay(path, mmap=True), count, repeats
        )
        results["binary_replay_mmap"]["file_bytes"] = file_bytes
        print(
            f"{'binary_replay_mmap':20s} "
            f"{results['binary_replay_mmap']['records_per_second']:12,.0f} records/s",
            flush=True,
        )
        mmap_identical = identical_windows(
            ingest_binary_replay(path),
            ingest_binary_replay(path, mmap=True),
            end_time=duration,
        )

    equivalent = identical_windows(
        ingest_per_record(records),
        ingest_batched(batch_rounds),
        end_time=duration,
    )
    soak = retention_soak(
        batch_rounds, retention=BENCH_INGEST_CONFIG.retention_horizon
    )

    per_record = results["per_record"]["records_per_second"]
    batched = results["batched"]["records_per_second"]
    return {
        "workload": {
            "classes": classes,
            "seed": seed,
            "duration": duration,
            "request_rate": request_rate,
            "repeats": repeats,
            "records": count,
            "flush_rounds": len(batch_rounds),
            "flush_interval": FLUSH_INTERVAL,
        },
        "modes": results,
        "batched_speedup": batched / per_record if per_record else float("inf"),
        "identical_analysis_windows": equivalent,
        "mmap_identical_analysis_windows": mmap_identical,
        "retention_soak": soak,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workload: fewer classes, shorter trace, one repeat",
    )
    parser.add_argument("--classes", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--request-rate", type=float, default=100.0)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_ingest.json"),
    )
    args = parser.parse_args(argv)
    if args.quick:
        classes = args.classes or 8
        duration = args.duration or 10.0
        repeats = args.repeats or 1
    else:
        classes = args.classes or 24
        duration = args.duration or 24.0
        repeats = args.repeats or 3
    doc = run_benchmark(
        classes=classes,
        seed=args.seed,
        duration=duration,
        repeats=repeats,
        request_rate=args.request_rate,
    )
    args.output.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"batched speedup over per-record ingest: {doc['batched_speedup']:.2f}x")
    print(f"identical analysis windows: {doc['identical_analysis_windows']}")
    print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
