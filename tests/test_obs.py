"""Tests for the repro.obs observability subsystem.

Covers the registry/instrument contracts (disabled-by-default, kind
clashes, labels, exposition), exact counting under thread contention,
the engine's MetricsSample fan-out, and the disabled-path overhead
guard the subsystem is designed around.
"""

import json
import threading
import time

import pytest

from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.errors import E2EProfError, ObservabilityError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    MetricsSample,
    snapshot,
    to_prometheus,
)
from repro.simulation.distributions import Erlang
from repro.simulation.nodes import StaticRouter
from repro.simulation.topology import Topology

CFG = PathmapConfig(
    window=20.0,
    refresh_interval=10.0,
    quantum=1e-3,
    sampling_window=10e-3,
    max_transaction_delay=1.0,
)


def chain_topology(seed=0):
    topo = Topology(seed=seed)
    topo.add_service_node("DB", Erlang(0.010, k=8), workers=8)
    topo.add_service_node(
        "WS", Erlang(0.004, k=8), workers=8, router=StaticRouter({}, default="DB")
    )
    client = topo.add_client("C", "cls", front_end="WS")
    topo.open_workload(client, rate=20.0)
    return topo


class TestRegistry:
    def test_disabled_by_default_and_records_nothing(self):
        reg = MetricsRegistry()
        assert not reg.enabled
        c = reg.counter("ops_total", "ops")
        g = reg.gauge("depth", "depth")
        h = reg.histogram("latency_seconds", "latency")
        c.inc(5)
        g.set(3.0)
        h.observe(0.2)
        with h.time():
            pass
        assert c.value == 0.0
        assert g.value == 0.0
        assert h.count == 0

    def test_enable_disable_toggles_recording(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "ops")
        reg.enable()
        c.inc()
        reg.disable()
        c.inc(100)
        assert c.value == 1.0

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry(enabled=True)
        assert reg.counter("x_total", "x") is reg.counter("x_total", "x")

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing", "x")
        with pytest.raises(ObservabilityError):
            reg.gauge("thing", "x")

    def test_bad_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("bad name!", "x")

    def test_observability_error_is_e2eprof_error(self):
        assert issubclass(ObservabilityError, E2EProfError)

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(ObservabilityError):
            reg.counter("n_total", "x").inc(-1)

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.histogram("h", "x", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ObservabilityError):
            reg.histogram("h2", "x", buckets=())

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry(enabled=True)
        a = reg.counter("req_total", "reqs", labels={"cls": "a"})
        b = reg.counter("req_total", "reqs", labels={"cls": "b"})
        assert a is not b
        a.inc(2)
        b.inc(3)
        snap = snapshot(reg)["req_total"]
        assert {k: v["value"] for k, v in snap.items()} == {
            "cls=a": 2.0,
            "cls=b": 3.0,
        }

    def test_reset_zeroes_but_keeps_instruments(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("z_total", "x")
        c.inc(7)
        reg.reset()
        assert c.value == 0.0
        assert reg.counter("z_total", "x") is c

    def test_timer_records_elapsed(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("sleep_seconds", "t", buckets=DEFAULT_LATENCY_BUCKETS)
        with h.time():
            time.sleep(0.002)
        assert h.count == 1
        assert 0.001 < h.sum < 1.0

    def test_snapshot_json_serializable(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("a_total", "a").inc()
        reg.histogram("b_seconds", "b").observe(0.01)
        reg.gauge("c", "c").set(4)
        json.dumps(snapshot(reg))  # must not raise


class TestPrometheusExposition:
    def test_text_format(self):
        reg = MetricsRegistry(enabled=True, namespace="repro")
        reg.counter("reqs_total", "Requests served", labels={"cls": "a"}).inc(3)
        reg.gauge("depth", "Window depth").set(2)
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = to_prometheus(reg)
        assert "# HELP repro_reqs_total Requests served" in text
        assert "# TYPE repro_reqs_total counter" in text
        assert 'repro_reqs_total{cls="a"} 3' in text
        assert "# TYPE repro_depth gauge" in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_count 2" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("v", "v", buckets=(1.0, 2.0, 3.0))
        for value in (0.5, 1.5, 2.5, 99.0):
            h.observe(value)
        assert list(h.cumulative_buckets().values()) == [1, 2, 3, 4]


class TestThreadSafety:
    def test_exact_totals_under_contention(self):
        reg = MetricsRegistry(enabled=True)
        shared = reg.counter("hammer_total", "x")
        hist = reg.histogram("hammer_seconds", "x")
        per_thread, threads = 20_000, 8
        barrier = threading.Barrier(threads)

        def hammer(i):
            # Half the threads race get-or-create against direct handles.
            mine = reg.counter("hammer_total", "x") if i % 2 else shared
            barrier.wait()
            for _ in range(per_thread):
                mine.inc()
                hist.observe(0.01)

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert shared.value == per_thread * threads
        assert hist.count == per_thread * threads


class TestEngineSample:
    def test_metrics_subscribers_receive_samples(self):
        topo = chain_topology()
        reg = MetricsRegistry(enabled=True)
        engine = E2EProfEngine(CFG, metrics=reg)
        engine.attach(topo)
        samples = []
        engine.subscribe_metrics(lambda now, result, sample: samples.append((now, sample)))
        topo.run_until(25.0)
        assert [now for now, _ in samples] == [10.0, 20.0]
        last = samples[-1][1]
        assert isinstance(last, MetricsSample)
        assert last.time == 20.0
        assert last.refresh_seconds > 0
        assert last.blocks_ingested > 0
        assert last.wire_bytes > 0
        assert last.correlators > 0
        assert engine.latest_sample is last
        # The registry saw the same refreshes.
        snap = snapshot(reg)
        assert snap["engine_refreshes_total"][""]["value"] == 2.0
        assert snap["engine_refresh_seconds"][""]["count"] == 2
        assert snap["transport_frames_received_total"][""]["value"] > 0
        assert snap["engine_wire_bytes_total"][""]["value"] == engine.wire_bytes_received
        json.dumps(last.to_dict())  # must not raise

    def test_samples_flow_even_with_disabled_registry(self):
        """MetricsSample is built from the engine's own cheap counters, so
        subscribers get it even when the registry never records."""
        topo = chain_topology()
        engine = E2EProfEngine(CFG)  # default registry, disabled
        engine.attach(topo)
        samples = []
        engine.subscribe_metrics(lambda now, result, sample: samples.append(sample))
        topo.run_until(15.0)
        assert len(samples) == 1
        assert samples[0].blocks_ingested > 0
        assert not engine.metrics.enabled
        # ...and the registry stayed silent.
        snap = snapshot(engine.metrics)
        assert snap["engine_refreshes_total"][""]["value"] == 0.0


@pytest.mark.slow
class TestOverheadGuard:
    def test_disabled_instrumentation_under_five_percent(self):
        """The ISSUE's bar: with the registry disabled (the default), the
        per-refresh cost of every instrument touch-point must stay below
        5% of the refresh itself.

        Measured as (disabled per-op cost) x (a generous upper bound on
        instrument ops per refresh, from an enabled run's own counters)
        against that run's mean refresh wall time.
        """
        # 1. Disabled fast-path cost per operation.
        reg = MetricsRegistry()  # disabled
        counter = reg.counter("bench_total", "bench")
        hist = reg.histogram("bench_seconds", "bench")
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            counter.inc()
            hist.observe(0.1)
        per_op = (time.perf_counter() - start) / (2 * n)

        # 2. Instrument ops per refresh, from an enabled run.
        topo = chain_topology(seed=1)
        enabled = MetricsRegistry(enabled=True)
        engine = E2EProfEngine(CFG, metrics=enabled)
        engine.attach(topo)
        topo.run_until(25.0)
        snap = snapshot(enabled)

        def val(name):
            return snap[name][""]["value"] if name in snap else 0.0

        refreshes = val("engine_refreshes_total")
        assert refreshes == 2.0
        # Every call-site fires at most a handful of instrument ops; 10x
        # the per-event counters is a deliberate over-estimate.
        ops = (
            val("tracer_packets_observed_total")
            + val("tracer_blocks_flushed_total")
            + 10 * val("transport_frames_received_total")
            + 2 * val("correlator_pair_products_total")
            + 2 * val("correlator_correlations_served_total")
            + val("correlator_evictions_total")
            + 2 * val("pathmap_correlations_total")
            + val("pathmap_nodes_visited_total")
            + val("pathmap_spikes_total")
            + 50 * refreshes
        )
        ops_per_refresh = ops / refreshes
        hist_state = snap["engine_refresh_seconds"][""]
        mean_refresh = hist_state["sum"] / hist_state["count"]

        overhead = per_op * ops_per_refresh
        assert overhead < 0.05 * mean_refresh, (
            f"disabled instrumentation would cost {overhead * 1e3:.3f} ms "
            f"of a {mean_refresh * 1e3:.1f} ms refresh "
            f"({per_op * 1e9:.0f} ns/op x {ops_per_refresh:.0f} ops)"
        )
