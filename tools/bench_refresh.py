"""Benchmark the online refresh on the synthetic many-class topology.

Drives N engine refreshes over :mod:`repro.apps.manyclass` and reports
p50/p95 refresh latencies, correlator counts and skip ratios as JSON
for the quiet-heavy workload (``modes.batched`` -- the reference-grouped,
quiet-skipping refresh, the engine's only one). The baselines this file
used to compare against -- the per-pair ``serial`` refresh and the
FFT-off dense A/B -- are frozen in docs/PERFORMANCE.md (sections 4 and
5). Run from the repository root:

    PYTHONPATH=src python tools/bench_refresh.py            # full workload
    PYTHONPATH=src python tools/bench_refresh.py --quick    # CI-sized

The JSON lands in ``BENCH_refresh.json`` (override with ``--output``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.apps.manyclass import build_many_class  # noqa: E402
from repro.config import PathmapConfig  # noqa: E402
from repro.core.engine import E2EProfEngine  # noqa: E402

#: Analysis parameters shared by every mode: 2 s blocks, a three-block
#: window and a 2 s transaction-delay bound (max_lag = 2000 quanta).
BENCH_REFRESH_CONFIG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=1e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)

#: Per-class request rate (req/s) while a class is active.
REQUEST_RATE = 20.0

#: Refreshes discarded from the front of every run: they cover the warmup
#: period where every class is still active and correlators are created.
WARMUP_REFRESHES = 6


def run_mode(
    classes: int,
    quiet_fraction: float,
    seed: int,
    end_time: float,
) -> dict:
    """One deployment + engine run; returns per-refresh latency stats."""
    deployment = build_many_class(
        classes=classes,
        quiet_fraction=quiet_fraction,
        seed=seed,
        request_rate=REQUEST_RATE,
        quiet_after=5.0,
        config=BENCH_REFRESH_CONFIG,
    )
    engine = E2EProfEngine(deployment.config)
    samples = []
    engine.subscribe_metrics(lambda now, result, sample: samples.append(sample))
    started = time.perf_counter()
    engine.attach(deployment.topology)
    deployment.run_until(end_time)
    engine.detach()
    wall = time.perf_counter() - started
    measured = samples[WARMUP_REFRESHES:]
    if not measured:
        raise RuntimeError(
            f"no refreshes past warmup (end_time={end_time} too short)"
        )
    latencies = sorted(s.refresh_seconds for s in measured)
    skips = sum(s.correlator_skips for s in measured)
    last = measured[-1]
    ledger = engine.latest_ledger
    kernel_rows = (
        {name: sample.rows for name, sample in sorted(ledger.kernels.items())}
        if ledger is not None
        else {}
    )
    return {
        "refreshes": len(measured),
        "kernel_rows_last_refresh": kernel_rows,
        "p50_seconds": statistics.median(latencies),
        "p95_seconds": latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))],
        "max_seconds": latencies[-1],
        "mean_seconds": statistics.fmean(latencies),
        "correlators": last.correlators,
        "parked_correlators": last.parked_correlators,
        "skips_per_refresh": skips / len(measured),
        "correlation_cache_hits": sum(s.correlation_cache_hits for s in measured),
        "wall_seconds": wall,
    }


def best_of(repeats: int, **kwargs) -> dict:
    """Re-run a mode ``repeats`` times and keep the run with the lowest
    median latency (standard bench hygiene: the minimum over repeats
    strips one-off machine noise such as GC pauses or CPU migration)."""
    runs = [run_mode(**kwargs) for _ in range(repeats)]
    return min(runs, key=lambda r: r["p50_seconds"])


def run_benchmark(
    classes: int,
    quiet_fraction: float,
    seed: int,
    end_time: float,
    repeats: int,
) -> dict:
    """The quiet-heavy workload, reported as ``modes.batched`` (the key
    :func:`repro.obs.slo.refresh_baseline` reads)."""
    batched = best_of(
        repeats,
        classes=classes,
        quiet_fraction=quiet_fraction,
        seed=seed,
        end_time=end_time,
    )
    print(
        f"batched      p50={batched['p50_seconds'] * 1000:7.1f}ms "
        f"p95={batched['p95_seconds'] * 1000:7.1f}ms "
        f"correlators={batched['correlators']} "
        f"skips/refresh={batched['skips_per_refresh']:.0f}",
        flush=True,
    )
    return {
        "workload": {
            "classes": classes,
            "quiet_fraction": quiet_fraction,
            "seed": seed,
            "end_time": end_time,
            "request_rate": REQUEST_RATE,
            "repeats": repeats,
            "config": {
                "window": BENCH_REFRESH_CONFIG.window,
                "refresh_interval": BENCH_REFRESH_CONFIG.refresh_interval,
                "quantum": BENCH_REFRESH_CONFIG.quantum,
                "max_transaction_delay": BENCH_REFRESH_CONFIG.max_transaction_delay,
            },
        },
        "modes": {"batched": batched},
    }


def environment_stamp() -> dict:
    """Hardware/library context the numbers depend on, stamped into the
    JSON so committed results are self-explaining (numpy's pocketfft
    version sets the FFT kernel's constant factors)."""
    return {
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workload: fewer classes, one repeat per mode",
    )
    parser.add_argument("--classes", type=int, default=None)
    parser.add_argument("--quiet-fraction", type=float, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_refresh.json"),
    )
    args = parser.parse_args(argv)
    if args.quick:
        classes = args.classes or 16
        quiet_fraction = args.quiet_fraction or 0.75
        repeats = args.repeats or 1
        end_time = 24.0
    else:
        classes = args.classes or 40
        quiet_fraction = args.quiet_fraction or 0.9
        repeats = args.repeats or 2
        end_time = 40.0
    doc = run_benchmark(
        classes=classes,
        quiet_fraction=quiet_fraction,
        seed=args.seed,
        end_time=end_time,
        repeats=repeats,
    )
    doc["environment"] = environment_stamp()
    args.output.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
