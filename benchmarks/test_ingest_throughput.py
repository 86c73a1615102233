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

Asserts the headline claim: batched ingest sustains at least 2x the
records/second of the per-record path (the committed ``BENCH_ingest.json``
shows far more), while producing bit-identical analysis windows, and a
retention-bounded collector keeps resident records below the total
ingested. Results land in ``benchmarks/results/ingest_throughput.txt``.
"""

import pathlib
import sys

from repro.analysis.render import render_comparison_table

from conftest import write_result

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

from bench_ingest import (  # noqa: E402
    BENCH_INGEST_CONFIG,
    build_workload,
    identical_windows,
    ingest_batched,
    ingest_per_record,
    retention_soak,
    timed_rate,
)

CLASSES = 12
SEED = 7
DURATION = 12.0
REQUEST_RATE = 100.0
REPEATS = 2


def test_batched_ingest_twice_as_fast():
    records, batch_rounds = build_workload(CLASSES, SEED, DURATION, REQUEST_RATE)
    count = len(records)
    assert count > 50_000  # the workload qualifies as high-throughput

    modes = {
        "per_record": lambda: ingest_per_record(records),
        "batched": lambda: ingest_batched(batch_rounds),
    }
    results = {name: timed_rate(fn, count, REPEATS) for name, fn in modes.items()}
    # Tightest analysis-safe horizon (window + max delay), so the 12 s
    # trace actually crosses it and eviction provably fires.
    retention = (
        BENCH_INGEST_CONFIG.window + BENCH_INGEST_CONFIG.max_transaction_delay
    )
    soak = retention_soak(batch_rounds, retention=retention)

    rows = [
        [name, f"{r['records_per_second']:,.0f}", f"{r['best_seconds'] * 1000:.1f}"]
        for name, r in results.items()
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
    speedup = (
        results["batched"]["records_per_second"]
        / results["per_record"]["records_per_second"]
    )
    assert speedup >= 2.0, (
        f"batched ingest only {speedup:.2f}x faster than per-record "
        f"({results['batched']['records_per_second']:,.0f}/s vs "
        f"{results['per_record']['records_per_second']:,.0f}/s)"
    )
