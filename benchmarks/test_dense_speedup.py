"""PERF -- dense-regime FFT batch kernel vs the direct kernels.

The direct kernels (sparse pair enumeration, RLE trapezoids) price a
correlation row by its occupancy, which explodes quadratically when a
flash crowd or batch surge fills the blocks. The FFT batch kernel's cost
is fixed by the window (``size * log2(size)`` per row, spectra cached
across rows and refreshes), so on the dense many-class workload the
density dispatch flips every row to ``fft_batch`` and the refresh must
get dramatically cheaper.

Gate: on the dense 12-class workload (every class active at 120 req/s,
messages smeared over 5 ms) the FFT-enabled refresh's median latency
beats the direct-kernels-only baseline (``fft_dispatch="off"``) by
>= 2x, and auto dispatch actually routed the rows through ``fft_batch``
(if it did not, the workload no longer qualifies and the gate skips
rather than comparing two identical configurations).

Results land in ``benchmarks/results/dense_speedup.txt``; the committed
full-scale numbers are the ``dense`` section of ``BENCH_refresh.json``.
"""

import pathlib
import sys

import pytest

from repro.analysis.render import render_comparison_table

from conftest import write_result

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

from bench_refresh import best_of, DENSE_REFRESH_CONFIG  # noqa: E402

CLASSES = 12
REQUEST_RATE = 120.0
SEED = 7
END_TIME = 16.0
REPEATS = 2

pytestmark = pytest.mark.slow


def test_fft_kernel_halves_dense_refresh_latency():
    modes = {
        "direct": dict(fft_dispatch="off"),
        "fft": dict(fft_dispatch="auto"),
    }
    results = {}
    for name, mode in modes.items():
        results[name] = best_of(
            REPEATS,
            classes=CLASSES,
            quiet_fraction=0.0,
            seed=SEED,
            end_time=END_TIME,
            request_rate=REQUEST_RATE,
            config=DENSE_REFRESH_CONFIG,
            **mode,
        )

    rows = [
        [
            name,
            f"{r['p50_seconds'] * 1000:.1f}",
            f"{r['p95_seconds'] * 1000:.1f}",
            str(r["correlators"]),
            str(r["kernel_rows_last_refresh"].get("fft_batch", 0)),
        ]
        for name, r in results.items()
    ]
    table = render_comparison_table(
        ["mode", "p50 (ms)", "p95 (ms)", "correlators", "fft rows/refresh"],
        rows,
        title=f"Dense refresh over {CLASSES} classes @ {REQUEST_RATE:.0f} req/s",
    )
    write_result("dense_speedup.txt", table)

    direct = results["direct"]
    fft = results["fft"]
    # Same topology, same analysis: both modes see the same correlators.
    assert fft["correlators"] == direct["correlators"]
    # The baseline must really be FFT-free.
    assert direct["kernel_rows_last_refresh"].get("fft_batch", 0) == 0
    # The workload must qualify: auto dispatch routed rows to fft_batch.
    fft_rows = fft["kernel_rows_last_refresh"].get("fft_batch", 0)
    if fft_rows == 0:
        pytest.skip(
            "dense workload no longer routes rows to fft_batch "
            f"(kernel rows: {fft['kernel_rows_last_refresh']}); "
            "the direct-vs-fft comparison would be vacuous"
        )
    # The headline: the FFT batch kernel at least halves the dense
    # refresh's median latency (the committed full-scale bench shows
    # well above 5x; 2x keeps the gate robust on slow CI machines).
    speedup = direct["p50_seconds"] / fft["p50_seconds"]
    assert speedup >= 2.0, (
        f"fft refresh only {speedup:.2f}x faster than direct kernels "
        f"(direct p50 {direct['p50_seconds'] * 1000:.1f}ms, "
        f"fft p50 {fft['p50_seconds'] * 1000:.1f}ms)"
    )
