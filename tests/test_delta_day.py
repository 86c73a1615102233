"""A full diurnal day of the Revenue Pipeline, replayed offline.

The paper analyzed a week-long trace; this test drives one scaled-down
day (diurnal rate curve + the 4 AM batch), converts the access log, and
replays it through the engine over the whole day -- checking that paths
are recovered through the normal hours and that the batch hour is where
analysis degrades (the paper's reported experience)."""

import numpy as np
import pytest

from repro.apps.delta import BATCH_HOUR_SECONDS, DIURNAL_WEIGHTS, build_delta, run_day
from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.core.offline import replay
from repro.tracing.access_log import access_log_to_captures
from repro.tracing.collector import TraceCollector

pytestmark = pytest.mark.slow

CFG = PathmapConfig(
    window=3600.0,
    refresh_interval=600.0,
    quantum=1.0,
    sampling_window=50.0,
    max_transaction_delay=1200.0,
)

#: Sampling of the replay's refreshes: one every 2 simulated hours.
STEP = 7200.0


@pytest.fixture(scope="module")
def day_replay():
    deployment = build_delta(
        seed=6, num_queues=3, events_per_hour=7200.0, config=CFG
    )
    end = run_day(deployment, batch_events=1200, batch_over_seconds=60.0)
    collector = TraceCollector(client_nodes=["external"])
    collector.ingest_many(access_log_to_captures(deployment.sorted_access_log()))
    results = {
        now: result
        for now, result in replay(collector, E2EProfEngine(CFG), 0.0, end)
        if (now - CFG.window) % STEP == 0
    }
    return deployment, results


def recovered_fraction(result):
    graphs = list(result.graphs.values())
    if not graphs:
        return 0.0
    full = sum(
        1 for g in graphs
        if g.has_edge("VAL", "RDB") and g.has_edge("RDB", "ACCT")
    )
    return full / len(graphs)


class TestDiurnalDay:
    def test_traffic_follows_the_curve(self, day_replay):
        deployment, _ = day_replay
        log = deployment.sorted_access_log()
        recv_at_queue = [
            r.timestamp for r in log if r.event == "recv" and r.server.startswith("Q")
        ]
        hour_counts = np.histogram(recv_at_queue, bins=24, range=(0, 86400))[0]
        # Business hours carry several times the overnight load.
        assert hour_counts[10] > 2.5 * hour_counts[2]
        # The 4 AM batch hour spikes above what its diurnal weight alone
        # would produce (weight-normalized comparison with the next hour).
        batch_hour = int(BATCH_HOUR_SECONDS // 3600)
        normalized_batch = hour_counts[batch_hour] / DIURNAL_WEIGHTS[batch_hour]
        normalized_next = hour_counts[batch_hour + 1] / DIURNAL_WEIGHTS[batch_hour + 1]
        assert normalized_batch > normalized_next + 1000

    def test_paths_recovered_through_normal_hours(self, day_replay):
        _, results = day_replay
        daytime = [t for t in results if 8 * 3600 <= t <= 22 * 3600]
        assert daytime
        good = sum(1 for t in daytime if recovered_fraction(results[t]) == 1.0)
        assert good >= len(daytime) - 1  # at most one marginal window

    def test_batch_window_is_the_weak_spot(self, day_replay):
        _, results = day_replay
        # The refresh whose window covers the 4 AM batch.
        covering = [
            t for t in results
            if t - CFG.window <= BATCH_HOUR_SECONDS < t
        ]
        assert covering
        batch_quality = min(recovered_fraction(results[t]) for t in covering)
        daytime_quality = np.mean([
            recovered_fraction(results[t])
            for t in results if 10 * 3600 <= t <= 20 * 3600
        ])
        assert batch_quality < daytime_quality

    def test_day_scale_log_volume(self, day_replay):
        deployment, _ = day_replay
        # ~7200 ev/h scaled by the diurnal curve (mean weight ~1.0) for
        # 24 h, 7 log records per event.
        log_len = len(deployment.access_log)
        assert log_len > 300_000
