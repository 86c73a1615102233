"""PERF -- batched online refresh vs the legacy per-pair refresh.

The paper's Section 5.1 measures analysis time against trace rate for a
single analyzer; an enterprise deployment multiplies that cost by the
number of service classes, most of which are quiet at any instant. This
bench drives the engine's refresh cycle over the synthetic many-class
topology (:mod:`repro.apps.manyclass`) where 90% of the classes stop
issuing requests after warmup, and compares:

* ``serial``   -- the legacy refresh: one kernel call per (reference,
  edge) pair, every refresh, quiet or not.
* ``batched``  -- reference-grouped batch kernels plus quiet-edge
  skipping and the O(1) quiet window slide.

Asserts the headline claim: on a workload where at least half of the
pair slots are quiet per block, the batched refresh's median latency is
at least 2x better than serial. Results also land in
``benchmarks/results/refresh_throughput.txt``.
"""

import pathlib
import sys

from repro.analysis.render import render_comparison_table

from conftest import write_result

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

from bench_refresh import best_of  # noqa: E402

CLASSES = 40
QUIET_FRACTION = 0.9
SEED = 7
END_TIME = 40.0
REPEATS = 2


def test_batched_refresh_twice_as_fast():
    modes = {
        "serial": dict(batched=False),
        "batched": dict(batched=True),
    }
    results = {}
    for name, mode in modes.items():
        results[name] = best_of(
            REPEATS,
            classes=CLASSES,
            quiet_fraction=QUIET_FRACTION,
            seed=SEED,
            end_time=END_TIME,
            **mode,
        )

    rows = [
        [
            name,
            f"{r['p50_seconds'] * 1000:.1f}",
            f"{r['p95_seconds'] * 1000:.1f}",
            str(r["correlators"]),
            f"{r['skips_per_refresh']:.0f}",
        ]
        for name, r in results.items()
    ]
    table = render_comparison_table(
        ["mode", "p50 (ms)", "p95 (ms)", "correlators", "skips/refresh"],
        rows,
        title=f"Batched refresh over {CLASSES} classes, {QUIET_FRACTION:.0%} quiet",
    )
    write_result("refresh_throughput.txt", table)

    serial = results["serial"]
    batched = results["batched"]
    # Same topology, same analysis: every mode holds the same correlators,
    # live or parked (the batched mode parks those with a quiet window).
    assert (
        batched["correlators"] + batched["parked_correlators"]
        == serial["correlators"] + serial["parked_correlators"]
    )
    # The workload qualifies: at least half of the batched mode's pair
    # slots are quiet per block (each correlator contributes reach + 1
    # slots per refresh; reach is 1 for this configuration).
    slots_per_refresh = 2 * batched["correlators"]
    assert batched["skips_per_refresh"] >= 0.5 * slots_per_refresh
    # The headline: batched + quiet-skip at least halves the median
    # refresh latency relative to the per-pair baseline.
    speedup = serial["p50_seconds"] / batched["p50_seconds"]
    assert speedup >= 2.0, (
        f"batched refresh only {speedup:.2f}x faster than serial "
        f"(serial p50 {serial['p50_seconds'] * 1000:.1f}ms, "
        f"batched p50 {batched['p50_seconds'] * 1000:.1f}ms)"
    )
