"""PERF -- materialized-summary folds vs raw trace-lake replays.

The trace lake persists per-block correlation summaries at correlator
eviction, so a long-horizon delay query ("has this edge's delay drifted
since last week?") folds a few hundred small vectors instead of
rebuilding density series over the span and re-running correlation
kernels. The raw replay's cost grows with the span (density rebuild is
O(span/quantum), the sparse kernel with the span's message count); the
fold's with the number of evicted blocks -- a constant factor of the
span measured in refresh intervals.

Gate: on a 150 s chain-topology run the summary-fold query answers the
same span >= 5x faster than the raw replay, and the two estimators'
peak-delay answers agree to within a handful of quanta (the fold's
documented boundary approximation). If the engine run materialized no
summaries, the comparison is vacuous and the gate skips with the
reason rather than failing.

Results land in ``benchmarks/results/lake_speedup.txt``; the last
full-scale numbers are frozen in docs/PERFORMANCE.md, "Tiered trace
lake".
"""

import statistics
import time

import pytest

from repro.analysis.history import raw_span_estimate, span_estimate
from repro.analysis.render import render_comparison_table
from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.lake import TraceLake
from repro.simulation.distributions import Erlang
from repro.simulation.nodes import StaticRouter
from repro.simulation.topology import Topology
from repro.tracing.collector import TraceCollector

from conftest import write_result

SEED = 7
DURATION = 150.0
RATE = 40.0
REPEATS = 3

#: 5 s blocks, a two-block window, 1 ms quanta and a 1 s
#: transaction-delay bound.
BENCH_LAKE_CONFIG = PathmapConfig(
    window=10.0,
    refresh_interval=5.0,
    quantum=1e-3,
    sampling_window=10e-3,
    max_transaction_delay=1.0,
    retention=31.0,
)

pytestmark = pytest.mark.slow


def _chain_topology():
    topo = Topology(seed=SEED)
    topo.add_service_node("DB", Erlang(0.010, k=8), workers=8)
    topo.add_service_node(
        "WS", Erlang(0.004, k=8), workers=8, router=StaticRouter({}, default="DB")
    )
    client = topo.add_client("C", "cls", front_end="WS")
    topo.open_workload(client, rate=RATE)
    return topo


def _median_seconds(fn):
    """Median wall time of ``REPEATS`` calls of ``fn``, and its answer."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def test_summary_fold_beats_raw_replay_five_fold(tmp_path):
    config = BENCH_LAKE_CONFIG
    lake = TraceLake(str(tmp_path))
    sink = TraceCollector(client_nodes=["C"], retention=config.retention)
    engine = E2EProfEngine(config, capture_sink=sink, lake=lake)
    topo = _chain_topology()
    engine.attach(topo)
    topo.run_until(DURATION)
    engine.close()
    summary_rows = lake.stats()["summary_rows"]
    if summary_rows == 0:
        pytest.skip(
            "engine run materialized no summaries (no correlator "
            "evictions?); the fold-vs-replay comparison would be vacuous"
        )

    start, end = 10.0, DURATION - 30.0
    max_lag = int(round(config.max_transaction_delay / config.quantum))
    fold_seconds, fold = _median_seconds(
        lambda: span_estimate(
            lake, "C", "WS", "WS", "DB", start=start, end=end, max_lag=max_lag,
        )
    )
    raw_seconds, raw = _median_seconds(
        lambda: raw_span_estimate(
            lake, config, "C", "WS", "WS", "DB", start, end, max_lag=max_lag,
        )
    )

    table = render_comparison_table(
        ["path", "median (ms)", "delay (ms)"],
        [
            ["summary fold", f"{fold_seconds * 1000:.2f}",
             f"{fold.delay * 1000:.1f}"],
            ["raw replay", f"{raw_seconds * 1000:.2f}",
             f"{raw.delay * 1000:.1f}"],
        ],
        title=f"Lake query over a {DURATION:.0f}s span "
              f"({summary_rows} summary rows)",
    )
    write_result("lake_speedup.txt", table)
    lake.close()

    # Both estimators answered, and they answered the same thing (to
    # within the fold's documented boundary approximation).
    assert fold.blocks > 0
    assert abs(fold.delay - raw.delay) <= 0.02

    # The headline: the fold is >= 5x faster (the last full-scale run
    # showed well above that; 5x keeps the gate robust on CI).
    speedup = raw_seconds / fold_seconds if fold_seconds else float("inf")
    assert speedup >= 5.0, (
        f"summary fold only {speedup:.2f}x faster than raw "
        f"replay (fold {fold_seconds * 1000:.2f}ms, "
        f"raw {raw_seconds * 1000:.2f}ms)"
    )
