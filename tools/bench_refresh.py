"""Benchmark the online refresh: batched kernels vs per-pair appends.

Drives N engine refreshes over the synthetic many-class topology
(:mod:`repro.apps.manyclass`) in two modes -- ``serial`` (legacy
per-pair appends) and ``batched`` (reference-grouped kernels +
quiet-edge skipping) -- and reports p50/p95 refresh latencies,
correlator counts and skip ratios as JSON. Run from the repository root:

    PYTHONPATH=src python tools/bench_refresh.py            # full workload
    PYTHONPATH=src python tools/bench_refresh.py --quick    # CI-sized

The JSON lands in ``BENCH_refresh.json`` (override with ``--output``);
``benchmarks/test_refresh_throughput.py`` asserts the batched speedup on
the same machinery.
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

#: The dense-regime variant: every class stays active at a high request
#: rate and each message is smeared over a 5 ms sampling window, so
#: blocks approach full occupancy -- the flash-crowd / batch-surge shape
#: where the direct kernels' pair counts explode and the FFT batch
#: kernel's fixed ``size * log2(size)`` cost wins.
DENSE_REFRESH_CONFIG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=5e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)

#: Refreshes discarded from the front of every run: they cover the warmup
#: period where every class is still active and correlators are created.
WARMUP_REFRESHES = 6


def run_mode(
    batched: bool,
    classes: int,
    quiet_fraction: float,
    seed: int,
    end_time: float,
    request_rate: float = 20.0,
    config: PathmapConfig = BENCH_REFRESH_CONFIG,
    fft_dispatch: str = "auto",
) -> dict:
    """One deployment + engine run; returns per-refresh latency stats."""
    deployment = build_many_class(
        classes=classes,
        quiet_fraction=quiet_fraction,
        seed=seed,
        request_rate=request_rate,
        quiet_after=5.0,
        config=config,
    )
    engine = E2EProfEngine(
        deployment.config,
        batched=batched,
        fft_dispatch=fft_dispatch,
    )
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
    modes = {
        "serial": dict(batched=False),
        "batched": dict(batched=True),
    }
    results = {}
    for name, mode in modes.items():
        results[name] = best_of(
            repeats,
            classes=classes,
            quiet_fraction=quiet_fraction,
            seed=seed,
            end_time=end_time,
            **mode,
        )
        print(
            f"{name:12s} p50={results[name]['p50_seconds'] * 1000:7.1f}ms "
            f"p95={results[name]['p95_seconds'] * 1000:7.1f}ms "
            f"correlators={results[name]['correlators']} "
            f"skips/refresh={results[name]['skips_per_refresh']:.0f}",
            flush=True,
        )
    serial = results["serial"]["p50_seconds"]
    batched = results["batched"]["p50_seconds"]
    return {
        "workload": {
            "classes": classes,
            "quiet_fraction": quiet_fraction,
            "seed": seed,
            "end_time": end_time,
            "request_rate": 20.0,
            "repeats": repeats,
            "config": {
                "window": BENCH_REFRESH_CONFIG.window,
                "refresh_interval": BENCH_REFRESH_CONFIG.refresh_interval,
                "quantum": BENCH_REFRESH_CONFIG.quantum,
                "max_transaction_delay": BENCH_REFRESH_CONFIG.max_transaction_delay,
            },
        },
        "modes": results,
        "batched_speedup": serial / batched if batched else float("inf"),
    }


def run_dense_benchmark(
    classes: int,
    request_rate: float,
    seed: int,
    end_time: float,
    repeats: int,
) -> dict:
    """The dense-regime A/B: batched refresh with the FFT kernel off
    (``direct`` -- every row on the sparse/RLE kernels, the pre-FFT
    baseline) versus on (``fft`` -- the density dispatch routes dense
    rows to the batched FFT kernel with cached spectra)."""
    modes = {
        "direct": dict(fft_dispatch="off"),
        "fft": dict(fft_dispatch="auto"),
    }
    results = {}
    for name, mode in modes.items():
        results[name] = best_of(
            repeats,
            batched=True,
            classes=classes,
            quiet_fraction=0.0,
            seed=seed,
            end_time=end_time,
            request_rate=request_rate,
            config=DENSE_REFRESH_CONFIG,
            **mode,
        )
        print(
            f"dense/{name:6s} p50={results[name]['p50_seconds'] * 1000:7.1f}ms "
            f"p95={results[name]['p95_seconds'] * 1000:7.1f}ms "
            f"kernel_rows={results[name]['kernel_rows_last_refresh']}",
            flush=True,
        )
    direct = results["direct"]["p50_seconds"]
    fft = results["fft"]["p50_seconds"]
    return {
        "workload": {
            "classes": classes,
            "quiet_fraction": 0.0,
            "seed": seed,
            "end_time": end_time,
            "request_rate": request_rate,
            "repeats": repeats,
            "config": {
                "window": DENSE_REFRESH_CONFIG.window,
                "refresh_interval": DENSE_REFRESH_CONFIG.refresh_interval,
                "quantum": DENSE_REFRESH_CONFIG.quantum,
                "sampling_window": DENSE_REFRESH_CONFIG.sampling_window,
                "max_transaction_delay": DENSE_REFRESH_CONFIG.max_transaction_delay,
            },
        },
        "modes": results,
        "fft_speedup": direct / fft if fft else float("inf"),
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
    parser.add_argument(
        "--skip-dense",
        action="store_true",
        help="skip the dense-regime FFT A/B section",
    )
    args = parser.parse_args(argv)
    if args.quick:
        classes = args.classes or 16
        quiet_fraction = args.quiet_fraction or 0.75
        repeats = args.repeats or 1
        end_time = 24.0
        dense_classes, dense_rate, dense_end = 12, 120.0, 16.0
    else:
        classes = args.classes or 40
        quiet_fraction = args.quiet_fraction or 0.9
        repeats = args.repeats or 2
        end_time = 40.0
        dense_classes, dense_rate, dense_end = 40, 120.0, 20.0
    doc = run_benchmark(
        classes=classes,
        quiet_fraction=quiet_fraction,
        seed=args.seed,
        end_time=end_time,
        repeats=repeats,
    )
    if not args.skip_dense:
        doc["dense"] = run_dense_benchmark(
            classes=dense_classes,
            request_rate=dense_rate,
            seed=args.seed,
            end_time=dense_end,
            repeats=repeats,
        )
    doc["environment"] = environment_stamp()
    # Merge into an existing results file, keeping sections this run
    # did not produce (e.g. "dense" under --skip-dense).
    merged = {}
    if args.output.exists():
        try:
            merged = json.loads(args.output.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            merged = {}
    merged.update(doc)
    args.output.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    print(f"batched speedup over serial: {doc['batched_speedup']:.2f}x")
    if "dense" in doc:
        print(f"dense fft speedup over direct kernels: {doc['dense']['fft_speedup']:.2f}x")
    print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
