"""Tests for the columnar batch ingest path.

Covers the high-throughput ingest surface added alongside the chunked
collector store: :meth:`TraceCollector.ingest_batch`, the tracer's
vectorized capture APIs, the transport's packed timestamp-batch streams,
and the engine's ``capture_sink`` wiring -- with equivalence checks that
batched and per-record ingest produce identical analysis inputs.
"""

import numpy as np
import pytest

from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.errors import TraceError
from repro.obs import MetricsRegistry, snapshot
from repro.simulation.distributions import Constant, Erlang
from repro.simulation.nodes import StaticRouter
from repro.simulation.topology import Topology
from repro.tracing.collector import TraceCollector
from repro.tracing.records import CaptureRecord, TimestampBatch
from repro.tracing.tracer import Tracer
from repro.tracing.transport import TransportLink, TransportReceiver
from repro.tracing.wire import decode_frame

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
    return topo, client


def counter_value(registry, name):
    return snapshot(registry).get(name, {}).get("", {}).get("value", 0.0)


class TestTimestampBatch:
    def test_self_loop_rejected(self):
        with pytest.raises(TraceError):
            TimestampBatch("A", "A", True, [1.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(TraceError):
            TimestampBatch("A", "B", True, [[1.0, 2.0]])

    def test_coerced_to_float64(self):
        batch = TimestampBatch("A", "B", True, [1, 2, 3])
        assert batch.timestamps.dtype == np.float64
        assert len(batch) == 3

    def test_observer_side(self):
        assert TimestampBatch("A", "B", True, [1.0]).observer == "B"
        assert TimestampBatch("A", "B", False, [1.0]).observer == "A"

    def test_equality_is_value_based(self):
        a = TimestampBatch("A", "B", True, [1.0, 2.0])
        b = TimestampBatch("A", "B", True, np.array([1.0, 2.0]))
        c = TimestampBatch("A", "B", True, [1.0, 2.5])
        assert a == b
        assert a != c
        assert a != TimestampBatch("A", "B", False, [1.0, 2.0])


class TestIngestBatch:
    def test_matches_per_record_ingest(self):
        rng = np.random.default_rng(7)
        stamps = rng.uniform(0.0, 30.0, size=200)
        per_record = TraceCollector()
        for t in stamps:
            per_record.ingest_point(float(t), "A", "B", True)
        batched = TraceCollector()
        for lo in range(0, 200, 32):
            batched.ingest_batch("A", "B", stamps[lo : lo + 32])
        assert (
            batched.edge_timestamps("A", "B").tolist()
            == per_record.edge_timestamps("A", "B").tolist()
        )

    def test_empty_batch_is_a_noop(self):
        collector = TraceCollector()
        assert collector.ingest_batch("A", "B", []) == 0
        assert collector.record_count() == 0

    def test_self_loop_rejected(self):
        with pytest.raises(TraceError):
            TraceCollector().ingest_batch("A", "A", [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(TraceError):
            TraceCollector().ingest_batch("A", "B", [1.0, float("nan")])

    def test_two_dimensional_rejected(self):
        with pytest.raises(TraceError):
            TraceCollector().ingest_batch("A", "B", [[1.0], [2.0]])

    def test_in_order_batches_append_chunks_without_resort(self):
        collector = TraceCollector()
        collector.ingest_batch("A", "B", [1.0, 2.0, 3.0])
        collector.edge_timestamps("A", "B")
        collector.ingest_batch("A", "B", [4.0, 5.0, 6.0])
        collector.edge_timestamps("A", "B")
        stats = collector.ingest_stats()
        # Each batch consolidated once; the second never merged the first.
        assert stats["chunks"] == 2
        assert stats["sort_operations"] == 2

    def test_overlapping_batch_merges_trailing_chunk(self):
        collector = TraceCollector()
        collector.ingest_batch("A", "B", [10.0, 20.0])
        collector.edge_timestamps("A", "B")
        collector.ingest_batch("A", "B", [15.0])
        assert collector.edge_timestamps("A", "B").tolist() == [10.0, 15.0, 20.0]
        assert collector.ingest_stats()["chunks"] == 1

    def test_edge_timestamps_cached_object_preserved(self):
        collector = TraceCollector()
        collector.ingest_batch("A", "B", [1.0, 2.0])
        first = collector.edge_timestamps("A", "B")
        assert collector.edge_timestamps("A", "B") is first
        # One-sided capture: both preferences serve the same object.
        assert collector.edge_timestamps("A", "B", prefer_destination=False) is first


class TestExportDeterminism:
    def test_equal_timestamps_tie_break_on_edge_and_observer(self):
        # Same instant observed on two edges and both sides of one edge,
        # ingested in two different orders -> identical export sequences.
        points = [
            (5.0, "B", "C", True),
            (5.0, "A", "B", False),
            (5.0, "A", "B", True),
            (5.0, "A", "C", True),
        ]
        forward = TraceCollector()
        for t, src, dst, side in points:
            forward.ingest_point(t, src, dst, side)
        backward = TraceCollector()
        for t, src, dst, side in reversed(points):
            backward.ingest_point(t, src, dst, side)
        assert forward.export_records() == backward.export_records()
        exported = forward.export_records()
        assert [(r.src, r.dst, r.observer) for r in exported] == [
            ("A", "B", "A"),
            ("A", "B", "B"),
            ("A", "C", "C"),
            ("B", "C", "C"),
        ]

    def test_export_batches_round_trip(self):
        collector = TraceCollector()
        collector.ingest_batch("A", "B", [3.0, 1.0])
        collector.ingest_batch("B", "C", [2.0], observed_at_destination=False)
        clone = TraceCollector()
        for batch in collector.export_batches():
            clone.ingest_batch(
                batch.src, batch.dst, batch.timestamps, batch.observed_at_destination
            )
        assert clone.export_batches() == collector.export_batches()


class TestLegacyStoreDirtyFlags:
    """Per-point and batched ingest against a plain ``np.sort`` oracle."""

    def test_legacy_results_match_columnar(self):
        rng = np.random.default_rng(11)
        stamps = rng.uniform(0.0, 30.0, size=150)
        per_point = TraceCollector()
        for t in stamps[:100]:
            per_point.ingest_point(float(t), "A", "B", True)
        # A read between arrivals consolidates; later points must merge in.
        first = per_point.edge_timestamps("A", "B").tolist()
        assert first == np.sort(stamps[:100]).tolist()
        for t in stamps[100:]:
            per_point.ingest_point(float(t), "A", "B", True)
        batched = TraceCollector()
        batched.ingest_batch("A", "B", stamps)
        expected = np.sort(stamps).tolist()
        assert per_point.edge_timestamps("A", "B").tolist() == expected
        assert batched.edge_timestamps("A", "B").tolist() == expected


class TestIngestMetrics:
    def test_ingest_many_updates_counter_once(self):
        registry = MetricsRegistry(enabled=True)
        collector = TraceCollector(metrics=registry)
        records = [CaptureRecord(float(i), "A", "B", "B") for i in range(10)]
        assert collector.ingest_many(records) == 10
        assert counter_value(registry, "collector_records_ingested_total") == 10.0

    def test_batch_counters(self):
        registry = MetricsRegistry(enabled=True)
        collector = TraceCollector(metrics=registry)
        collector.ingest_batch("A", "B", [1.0, 2.0, 3.0])
        collector.ingest_batch("A", "B", [4.0])
        assert counter_value(registry, "collector_records_ingested_total") == 4.0
        assert counter_value(registry, "collector_batches_ingested_total") == 2.0


class TestTracerBatchCapture:
    def test_observe_batch_applies_skew_and_counts(self):
        tracer = Tracer("B", clock_skew=0.5)
        assert tracer.observe_batch([1.0, 2.0], "A", "B") == 2
        assert tracer.packet_count == 2
        assert tracer.timestamps("A", "B") == [1.5, 2.5]

    def test_observe_batch_foreign_packets_rejected(self):
        with pytest.raises(TraceError):
            Tracer("Z").observe_batch([1.0], "A", "B")

    def test_drain_batches_collects_and_clears(self):
        tracer = Tracer("B")
        tracer.observe(1.0, "A", "B")  # before streaming: not buffered
        tracer.enable_batch_streaming()
        tracer.observe(2.0, "A", "B")
        tracer.observe_batch([3.0, 4.0], "A", "B")
        drained = tracer.drain_batches()
        assert list(drained) == [("A", "B")]
        assert drained[("A", "B")].tolist() == [2.0, 3.0, 4.0]
        assert tracer.drain_batches() == {}


class TestTransportBatchStreams:
    def _frames(self, link, stamps):
        """One quiet round of ``link`` carrying ``stamps`` on ``A -> B``."""
        return [link.encode_blocks({}, 0, 10, 1e-3, {("A", "B"): np.asarray(stamps)})]

    def test_round_trip_and_duplicate_drop(self):
        link = TransportLink("B")
        receiver = TransportReceiver(refresh_interval=10.0)
        payloads = self._frames(link, [1.0, 2.0])
        for payload in payloads + payloads:  # duplicated delivery
            receiver.receive([payload], now=0.0)
        ready = receiver.poll_timestamp_batches()
        assert len(ready) == 1
        assert ready[0].timestamps.tolist() == [1.0, 2.0]
        assert ready[0].observed_at_destination  # link node == dst
        totals = receiver.totals()
        assert totals["timestamp_batches"] == 1
        assert totals["timestamp_duplicates"] == 1
        assert receiver.poll_timestamp_batches() == []

    def test_stale_epoch_frames_dropped_after_restart(self):
        link = TransportLink("B")
        receiver = TransportReceiver(refresh_interval=10.0)
        stale = self._frames(link, [1.0])
        link.restart()
        fresh = self._frames(link, [2.0])
        for payload in fresh + stale:
            receiver.receive([payload], now=0.0)
        ready = receiver.poll_timestamp_batches()
        assert [f.timestamps.tolist() for f in ready] == [[2.0]]
        assert receiver.totals()["timestamp_stale_epoch"] == 1

    def test_empty_batches_not_framed(self):
        link = TransportLink("B")
        (payload,) = self._frames(link, [])
        assert decode_frame(payload).batches == {}
        assert payload == TransportLink("B").encode_blocks({}, 0, 10, 1e-3)


class TestEngineCaptureSink:
    def test_direct_sink_matches_fabric_collector(self):
        topo, _ = chain_topology()
        sink = TraceCollector(client_nodes=["C"])
        engine = E2EProfEngine(CFG, capture_sink=sink)
        engine.attach(topo)
        topo.run_until(25.0)
        assert engine.latest_sample.capture_batches > 0
        assert sink.record_count() > 0
        assert sink.ingest_stats()["batches_ingested"] > 0
        # The sink holds exactly what was drained at refresh time; packets
        # after the last refresh are still pending in the tracers.
        cutoff = engine.latest_refresh_time
        reference = topo.collector
        assert sink.edges() == reference.edges()
        for src, dst in reference.edges():
            for prefer in (True, False):
                expected = [
                    t
                    for t in reference.edge_timestamps(src, dst, prefer).tolist()
                    if t <= cutoff
                ]
                assert sink.edge_timestamps(src, dst, prefer).tolist() == expected

    def test_transport_sink_matches_direct_sink(self):
        from repro.config import TransportConfig
        from repro.tracing.transport import FaultyChannel

        def run(transport, channel_factory=None):
            topo, _ = chain_topology(seed=3)
            sink = TraceCollector(client_nodes=["C"])
            engine = E2EProfEngine(
                CFG,
                capture_sink=sink,
                transport=TransportConfig() if transport else None,
                channel_factory=channel_factory,
            )
            engine.attach(topo)
            topo.run_until(25.0)
            return {
                (src, dst, prefer): sink.edge_timestamps(src, dst, prefer).tolist()
                for src, dst in sink.edges()
                for prefer in (True, False)
            }

        direct = run(transport=False)
        framed = run(transport=True)
        assert framed == direct
        # Duplicating and reordering frames must not change the ingest
        # (batch streams dedup by epoch/seq, order is irrelevant).
        faulty = run(
            transport=True,
            channel_factory=lambda node: FaultyChannel(
                seed=sum(node.encode()), duplicate=0.3, reorder=0.3
            ),
        )
        assert faulty == direct
