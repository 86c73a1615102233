"""DELTA-WEEK -- the paper's week-long trace, endurance run.

"E2EProf is used to analyse a week long trace collected from this
subsystem." Seven scaled diurnal days (hourly rate curve + the nightly
4 AM batch) are simulated, exported as an access log, and replayed
through the engine; one replay stream supplies four sampled windows per
day plus each day's refresh whose window covers the batch. Asserts what
the paper reports: paths recovered throughout the week except around the
nightly batches, where the steady-state assumption breaks.
"""

import math

import numpy as np
import pytest

from repro.analysis.render import render_comparison_table
from repro.apps.delta import BATCH_HOUR_SECONDS, build_delta, run_day
from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.core.offline import replay
from repro.tracing.access_log import access_log_to_captures
from repro.tracing.collector import TraceCollector

from conftest import write_result

CFG = PathmapConfig(
    window=3600.0,
    refresh_interval=600.0,
    quantum=1.0,
    sampling_window=50.0,
    max_transaction_delay=1200.0,
)
DAYS = 7
DAY = 86400.0
STEP = 6 * 3600.0  # four sampled windows per day
#: Each day's batch-covering refresh: the first one at or after 45
#: minutes past the batch hour.
BATCH_REFRESHES = {
    math.ceil((day * DAY + BATCH_HOUR_SECONDS + 0.75 * 3600.0) / CFG.refresh_interval)
    * CFG.refresh_interval
    for day in range(DAYS)
}


@pytest.fixture(scope="module")
def week_replay():
    deployment = build_delta(
        seed=8, num_queues=3, events_per_hour=3600.0, config=CFG
    )
    end = 0.0
    for day in range(DAYS):
        end = run_day(deployment, day_start=day * DAY,
                      batch_events=900, batch_over_seconds=60.0)
    collector = TraceCollector(client_nodes=["external"])
    collector.ingest_many(access_log_to_captures(deployment.sorted_access_log()))
    return deployment, collector, end


def full_fraction(result):
    graphs = list(result.graphs.values())
    if not graphs:
        return 0.0
    full = sum(
        1 for g in graphs
        if g.has_edge("VAL", "RDB") and g.has_edge("RDB", "ACCT")
    )
    return full / len(graphs)


def test_delta_week(benchmark, week_replay):
    deployment, collector, end = week_replay
    results = {
        now: result
        for now, result in replay(collector, E2EProfEngine(CFG), 0.0, end)
        if (now - CFG.window) % STEP == 0 or now in BATCH_REFRESHES
    }

    rows = []
    batch_windows = []
    normal_windows = []
    for when in sorted(results):
        quality = full_fraction(results[when])
        day = int(when // DAY)
        time_of_day = when % DAY
        covers_batch = (
            time_of_day - CFG.window <= BATCH_HOUR_SECONDS + 60 and
            BATCH_HOUR_SECONDS < time_of_day
        )
        (batch_windows if covers_batch else normal_windows).append(quality)
        rows.append([
            f"day {day + 1}",
            f"{time_of_day / 3600:.2f}h",
            f"{quality:.0%}",
            "<- covers nightly batch" if covers_batch else "",
        ])
    table = render_comparison_table(
        ["day", "window end", "pipelines fully recovered", ""],
        rows,
        title=f"Section 4.3 endurance -- {DAYS} diurnal days, "
              f"{len(deployment.access_log)} log records",
    )
    write_result("delta_week.txt", table)

    # Benchmark one representative analysis window.
    benchmark(
        lambda: next(replay(collector, E2EProfEngine(CFG), 3 * DAY, 3 * DAY + 3700))
    )

    assert len(results) >= DAYS * 5 - 1
    assert normal_windows and np.mean(normal_windows) > 0.85
    # The batch windows are the weak spot, as the paper reports.
    assert batch_windows
    assert np.mean(batch_windows) < np.mean(normal_windows)
