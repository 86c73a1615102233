"""Performance regression guards.

The paper's entire point is that pathmap is cheap enough for *online*
use; these tests pin generous upper bounds on the costs that matter so a
performance regression fails CI rather than silently making the engine
fall behind its refresh interval.
"""

import time

import pytest

from repro import E2EProfEngine, PathmapConfig, build_rubis
from repro.core.pathmap import compute_service_graphs
from repro.obs.spans import NULL_SPAN, SpanTracer

pytestmark = pytest.mark.slow

CFG = PathmapConfig(
    window=180.0,
    refresh_interval=60.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)


@pytest.fixture(scope="module")
def three_minute_trace():
    rubis = build_rubis(dispatch="round_robin", seed=23, request_rate=10.0,
                        config=CFG)
    rubis.run_until(185.0)
    return rubis


class TestAnalysisBudget:
    def test_full_window_rle_analysis_under_budget(self, three_minute_trace):
        """3 minutes of 2-class traffic, full RLE analysis: must stay
        far below the 60 s refresh interval (generous 10x margin over
        typical ~0.5 s)."""
        window = three_minute_trace.window(end_time=183.0)
        started = time.perf_counter()
        result = compute_service_graphs(window, CFG, method="rle")
        elapsed = time.perf_counter() - started
        assert result.stats.graphs == 2
        assert elapsed < 6.0

    def test_engine_refresh_keeps_up(self, three_minute_trace):
        """Online per-refresh cost must be a small fraction of dW."""
        rubis = build_rubis(dispatch="round_robin", seed=24, request_rate=10.0,
                            config=CFG)
        engine = E2EProfEngine(CFG)
        engine.attach(rubis.topology)
        durations = []
        engine.subscribe(lambda now, res: durations.append(engine.last_refresh_seconds))
        rubis.run_until(305.0)
        assert durations
        assert max(durations) < CFG.refresh_interval / 10

    def test_disabled_tracing_overhead_under_five_percent(self):
        """The self-tracing contract: with the tracer off, every span
        site costs one attribute check plus a null context manager.
        Price that per-op cost, scale it by the spans a traced refresh
        actually opens, and demand the total stays under 5% of an
        untraced refresh."""
        tracer = SpanTracer()  # disabled
        ops = 200_000
        started = time.perf_counter()
        for _ in range(ops):
            with tracer.span("engine.refresh", refresh=0):
                pass
        per_op = (time.perf_counter() - started) / ops
        assert tracer.span("x") is NULL_SPAN  # stayed disabled

        # Spans per refresh, measured on a short traced run.
        rubis = build_rubis(dispatch="round_robin", seed=26, request_rate=10.0,
                            config=CFG)
        traced = E2EProfEngine(CFG)
        traced.tracer.enable()
        traced.attach(rubis.topology)
        rubis.run_until(65.0)
        frames = traced.flight.frames()
        assert frames
        spans_per_refresh = max(len(f.spans) for f in frames)

        # Mean untraced refresh cost on the same workload shape.
        rubis = build_rubis(dispatch="round_robin", seed=26, request_rate=10.0,
                            config=CFG)
        engine = E2EProfEngine(CFG)
        engine.attach(rubis.topology)
        durations = []
        engine.subscribe(lambda now, res: durations.append(engine.last_refresh_seconds))
        rubis.run_until(185.0)
        mean_refresh = sum(durations) / len(durations)

        assert per_op * spans_per_refresh < 0.05 * mean_refresh

    def test_simulation_throughput(self):
        """The DES substrate itself must stay fast enough for the long
        scenario tests (>= 20k events/second of wall clock)."""
        rubis = build_rubis(dispatch="affinity", seed=25, request_rate=20.0, config=CFG)
        started = time.perf_counter()
        rubis.run_until(60.0)
        elapsed = time.perf_counter() - started
        events = rubis.topology.sim.events_run
        assert events / elapsed > 20_000
