"""Unit tests for the fault-tolerant trace transport (tracing.transport).

Fast, deterministic coverage of every transport component in isolation
-- the chaos soak (test_transport_chaos) and hypothesis properties
(test_transport_properties) drive the same machinery end to end.
"""

import numpy as np
import pytest

from repro.config import PathmapConfig, TransportConfig
from repro.core.rle import RunLengthSeries
from repro.errors import TraceError
from repro.tracing.transport import (
    QUALITY_DEGRADED,
    QUALITY_FRESH,
    QUALITY_STALE,
    TRACER_DEAD,
    TRACER_LAGGING,
    TRACER_LIVE,
    DataQuality,
    FaultyChannel,
    FRESH_QUALITY,
    LivenessWatchdog,
    ReorderBuffer,
    TransportLink,
    TransportReceiver,
    overall_quality,
)
from repro.tracing.wire import BlockFrame, TimestampFrame, decode_frame, encode_frame

QUANTUM = 1e-3
BLOCK_QUANTA = 100


def make_block(start, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.random(BLOCK_QUANTA)
    from repro.core.rle import rle_encode
    from repro.core.timeseries import DensityTimeSeries

    return rle_encode(DensityTimeSeries.from_dense(dense, start, QUANTUM))


def ts_frame(epoch=0, seq=0):
    return TimestampFrame("N", epoch, seq, "A", "N", np.array([float(seq), seq + 0.5]))


def make_frame(node="N", epoch=0, seq=0, src="A", dst="N", start=None):
    if start is None:
        start = seq * BLOCK_QUANTA
    return BlockFrame(node, epoch, seq, src, dst, make_block(start, seed=seq))


class TestDataQuality:
    def test_fresh_is_ok_with_zero_penalty(self):
        assert FRESH_QUALITY.ok
        assert FRESH_QUALITY.penalty == 0.0

    def test_degraded_penalty_is_gap_ratio(self):
        q = DataQuality(QUALITY_DEGRADED, 0.25)
        assert not q.ok
        assert q.penalty == 0.25

    def test_stale_penalty_saturates(self):
        assert DataQuality(QUALITY_STALE, 0.1).penalty == 1.0

    def test_overall_quality_is_one_minus_mean_penalty(self):
        qs = [FRESH_QUALITY, DataQuality(QUALITY_DEGRADED, 0.5)]
        assert overall_quality(qs) == pytest.approx(0.75)

    def test_overall_quality_empty_is_perfect(self):
        assert overall_quality([]) == 1.0

    def test_overall_quality_floors_at_zero(self):
        assert overall_quality([DataQuality(QUALITY_STALE, 1.0)]) == 0.0


class TestFaultyChannel:
    def test_default_channel_is_perfect_passthrough(self):
        ch = FaultyChannel()
        assert ch.faultless
        assert ch.send(b"abc") == [b"abc"]
        assert ch.advance() == []

    def test_bad_rate_rejected(self):
        with pytest.raises(TraceError):
            FaultyChannel(drop=1.5)
        with pytest.raises(TraceError):
            FaultyChannel(max_delay_rounds=0)

    def test_seed_determinism(self):
        def run(seed):
            ch = FaultyChannel(seed=seed, drop=0.3, duplicate=0.3, reorder=0.3)
            out = []
            for i in range(50):
                out.append(tuple(ch.send(bytes([i]))))
                if i % 5 == 4:
                    out.append(tuple(ch.advance()))
            return out

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_down_black_holes_everything(self):
        ch = FaultyChannel(down=True)
        assert ch.send(b"x") == []
        assert ch.frames_dropped == 1

    def test_drop_one_means_nothing_delivered(self):
        ch = FaultyChannel(drop=1.0)
        for i in range(10):
            assert ch.send(bytes([i])) == []
        assert ch.frames_dropped == 10

    def test_duplicate_one_delivers_two_copies(self):
        ch = FaultyChannel(duplicate=1.0)
        assert ch.send(b"p") == [b"p", b"p"]

    def test_reorder_holds_exactly_one_round(self):
        ch = FaultyChannel(reorder=1.0)
        assert ch.send(b"a") == []
        assert ch.advance() == [b"a"]

    def test_delay_respects_max_rounds(self):
        ch = FaultyChannel(seed=3, delay=1.0, max_delay_rounds=3)
        for i in range(20):
            ch.send(bytes([i]))
        collected = []
        for _ in range(3):
            collected.extend(ch.advance())
        assert sorted(collected) == [bytes([i]) for i in range(20)]

    def test_corrupt_flips_bytes(self):
        ch = FaultyChannel(seed=1, corrupt=1.0)
        out = ch.send(b"payload-bytes")
        assert len(out) == 1 and out[0] != b"payload-bytes"
        assert len(out[0]) == len(b"payload-bytes")

    def test_set_faults_mid_run(self):
        ch = FaultyChannel(drop=1.0)
        assert ch.send(b"x") == []
        ch.set_faults(drop=0.0)
        assert ch.send(b"y") == [b"y"]
        assert ch.faultless

    def test_drain_releases_everything_held(self):
        ch = FaultyChannel(seed=2, delay=1.0, max_delay_rounds=3)
        ch.send(b"h")
        assert ch.drain() == [b"h"]
        assert ch.advance() == []


class TestTransportLink:
    def test_sequences_advance_per_edge(self):
        link = TransportLink("N")
        blocks = {("A", "N"): make_block(0), ("B", "N"): make_block(0)}
        first = [decode_frame(p) for p in link.encode_blocks(blocks)]
        second = [decode_frame(p) for p in link.encode_blocks(blocks)]
        seqs = {f.edge: f.seq for f in first if not f.is_heartbeat}
        assert seqs == {("A", "N"): 0, ("B", "N"): 0}
        seqs = {f.edge: f.seq for f in second if not f.is_heartbeat}
        assert seqs == {("A", "N"): 1, ("B", "N"): 1}

    def test_heartbeat_appended_each_round(self):
        link = TransportLink("N")
        frames = [decode_frame(p) for p in link.encode_blocks({})]
        assert len(frames) == 1
        assert frames[0].is_heartbeat
        assert frames[0].node == "N"

    def test_restart_bumps_epoch_and_resets_seqs(self):
        link = TransportLink("N")
        link.encode_blocks({("A", "N"): make_block(0)})
        link.restart()
        assert link.epoch == 1
        assert link.restarts == 1
        frames = [
            decode_frame(p)
            for p in link.encode_blocks({("A", "N"): make_block(100)})
        ]
        data = [f for f in frames if not f.is_heartbeat][0]
        assert data.epoch == 1
        assert data.seq == 0


class TestReorderBuffer:
    def test_in_order_delivery(self):
        buf = ReorderBuffer(("N", "A", "N"), lateness=2)
        for seq in range(5):
            out = buf.push(make_frame(seq=seq))
            assert [f.seq for f in out] == [seq]
        assert buf.delivered == 5
        assert buf.gaps == 0

    def test_reordered_pair_resequenced(self):
        buf = ReorderBuffer(("N", "A", "N"), lateness=2)
        assert buf.push(make_frame(seq=1)) == []
        out = buf.push(make_frame(seq=0))
        assert [f.seq for f in out] == [0, 1]
        assert buf.reordered == 1

    def test_duplicates_never_redelivered(self):
        buf = ReorderBuffer(("N", "A", "N"), lateness=2)
        buf.push(make_frame(seq=0))
        assert buf.push(make_frame(seq=0)) == []
        assert buf.duplicates == 1

    def test_gap_declared_past_lateness(self):
        buf = ReorderBuffer(("N", "A", "N"), lateness=1)
        buf.push(make_frame(seq=0))
        assert buf.push(make_frame(seq=2)) == []  # within lateness: wait
        out = buf.push(make_frame(seq=3))  # hole now too old
        assert [f.seq for f in out] == [2, 3]
        notices = buf.drain_gap_notices()
        assert [n.seq for n in notices] == [1]
        # block_start derived from the seq -> start anchor.
        assert notices[0].block_start == BLOCK_QUANTA

    def test_late_recovery_after_gap(self):
        buf = ReorderBuffer(("N", "A", "N"), lateness=0)
        buf.push(make_frame(seq=0))
        buf.push(make_frame(seq=2))  # declares gap at 1 immediately
        assert buf.gaps == 1
        out = buf.push(make_frame(seq=1))  # late arrival
        assert [f.seq for f in out] == [1]
        assert buf.late_recovered == 1
        # ... but only once.
        assert buf.push(make_frame(seq=1)) == []
        assert buf.duplicates == 1

    def test_stale_epoch_dropped_for_good(self):
        buf = ReorderBuffer(("N", "A", "N"), lateness=2)
        buf.push(make_frame(epoch=1, seq=0))
        assert buf.push(make_frame(epoch=0, seq=5)) == []
        assert buf.stale_epoch_drops == 1

    def test_epoch_switch_drains_old_then_resets(self):
        buf = ReorderBuffer(("N", "A", "N"), lateness=3)
        buf.push(make_frame(epoch=0, seq=0))
        buf.push(make_frame(epoch=0, seq=2))  # buffered, waiting for 1
        out = buf.push(make_frame(epoch=1, seq=0))
        # Old epoch's pending seq 2 drains first (declaring the hole at
        # 1), then the new epoch's seq 0.
        assert [(f.epoch, f.seq) for f in out] == [(0, 2), (1, 0)]
        assert [n.seq for n in buf.drain_gap_notices()] == [1]
        assert buf.epoch == 1

    def test_flush_drains_pending(self):
        buf = ReorderBuffer(("N", "A", "N"), lateness=5)
        buf.push(make_frame(seq=2))
        out = buf.flush()
        assert [f.seq for f in out] == [2]
        assert buf.gaps == 2  # seqs 0 and 1 declared lost


class TestLivenessWatchdog:
    def test_thresholds_validated(self):
        with pytest.raises(TraceError):
            LivenessWatchdog(stale_after=0.0, dead_after=1.0)
        with pytest.raises(TraceError):
            LivenessWatchdog(stale_after=2.0, dead_after=1.0)

    def test_state_progression(self):
        dog = LivenessWatchdog(stale_after=10.0, dead_after=20.0)
        dog.heartbeat("N", now=0.0)
        assert dog.status("N", 5.0).state == TRACER_LIVE
        assert dog.status("N", 15.0).state == TRACER_LAGGING
        assert dog.status("N", 25.0).state == TRACER_DEAD

    def test_heartbeat_revives(self):
        dog = LivenessWatchdog(stale_after=10.0, dead_after=20.0)
        dog.heartbeat("N", now=0.0)
        dog.heartbeat("N", now=30.0)
        assert dog.status("N", 31.0).state == TRACER_LIVE

    def test_unknown_node_is_dead(self):
        dog = LivenessWatchdog(stale_after=10.0, dead_after=20.0)
        assert dog.status("ghost", 0.0).state == TRACER_DEAD

    def test_register_starts_clock_without_heartbeat(self):
        dog = LivenessWatchdog(stale_after=10.0, dead_after=20.0)
        dog.register("N", now=0.0)
        assert dog.status("N", 5.0).state == TRACER_LIVE
        assert dog.status("N", 25.0).state == TRACER_DEAD


class TestTransportReceiver:
    def test_roundtrip_through_link(self):
        link = TransportLink("N")
        recv = TransportReceiver(TransportConfig(), refresh_interval=10.0)
        payloads = link.encode_blocks({("A", "N"): make_block(0)})
        for p in payloads:
            recv.receive([p], now=0.0)
        frames = recv.poll()
        assert len(frames) == 1
        assert frames[0].edge == ("A", "N")
        assert recv.heartbeats == 1
        assert recv.edge_owner(("A", "N")) == "N"
        assert recv.known_edges() == [("A", "N")]

    def test_corrupt_payload_counted_not_raised(self):
        recv = TransportReceiver(TransportConfig(), refresh_interval=10.0)
        recv.receive([b"garbage-not-a-frame"], now=0.0)
        assert recv.corrupt_blocks == 1
        assert recv.poll() == []

    def test_corrupt_counter_in_metrics_registry(self):
        from repro.obs import MetricsRegistry, snapshot

        registry = MetricsRegistry(enabled=True)
        recv = TransportReceiver(
            TransportConfig(), refresh_interval=10.0, metrics=registry
        )
        payload = bytearray(encode_frame(make_frame(seq=0)))
        payload[7] ^= 0xFF  # breaks the CRC
        recv.receive([bytes(payload)], now=0.0)
        snap = snapshot(registry)
        assert snap["transport_corrupt_blocks_total"][""]["value"] == 1

    def test_totals_aggregate_across_streams(self):
        recv = TransportReceiver(TransportConfig(lateness_blocks=0), 10.0)
        recv.receive([encode_frame(make_frame(src="A", seq=0))], 0.0)
        recv.receive([encode_frame(make_frame(src="A", seq=2))], 0.0)
        recv.receive([encode_frame(make_frame(src="B", seq=0))], 0.0)
        recv.receive([encode_frame(make_frame(src="B", seq=0))], 0.0)
        totals = recv.totals()
        assert totals["gaps"] == 1
        assert totals["duplicates"] == 1
        assert totals["delivered"] == 3
        notices = recv.drain_gap_notices()
        assert len(notices) == 1 and notices[0].edge == ("A", "N")

    def test_one_call_per_round_equals_frame_by_frame(self):
        """Collected deliveries -- good, duplicated, reordered, corrupt,
        heartbeat and timestamp frames -- have the same effect handed
        over in one call as delivered one at a time."""
        corrupt = bytearray(encode_frame(make_frame(src="B", seq=1)))
        corrupt[-1] ^= 0x40
        payloads = [
            encode_frame(make_frame(src="A", seq=0)),
            encode_frame(make_frame(src="A", seq=3)),
            bytes(corrupt),
            encode_frame(BlockFrame("N", 0, 0, "", "")),
            encode_frame(ts_frame(seq=0)),
            encode_frame(make_frame(src="A", seq=1)),
            encode_frame(make_frame(src="A", seq=1)),
            b"junk",
            encode_frame(ts_frame(seq=0)),
            encode_frame(make_frame(src="B", seq=0)),
            encode_frame(make_frame(epoch=1, src="A", seq=0)),
            encode_frame(make_frame(src="A", seq=2)),
        ]

        def outcome(receiver):
            return (
                receiver.poll(),
                receiver.poll_timestamp_batches(),
                receiver.drain_gap_notices(),
                receiver.totals(),
                receiver.statuses(1.0),
                receiver.known_edges(),
            )

        together = TransportReceiver(TransportConfig(lateness_blocks=1), 10.0)
        together.receive(payloads, now=1.0)
        singly = TransportReceiver(TransportConfig(lateness_blocks=1), 10.0)
        for payload in payloads:
            singly.receive([payload], now=1.0)
        assert outcome(together) == outcome(singly)
        assert together.corrupt_blocks == 2
        assert together.frames_received == len(payloads)

    def test_timestamp_stream_dedup_out_of_order(self):
        recv = TransportReceiver(TransportConfig(), 10.0)
        recv.receive([encode_frame(ts_frame(seq=s)) for s in (0, 2, 3, 1, 1, 5, 2, 0)], 0.0)
        assert [f.seq for f in recv.poll_timestamp_batches()] == [0, 2, 3, 1, 5]
        assert recv.timestamp_batches == 5
        assert recv.timestamp_duplicates == 3
        # seq 4 is still outstanding: it is new, and only once.
        recv.receive([encode_frame(ts_frame(seq=4))] * 2, 0.0)
        assert [f.seq for f in recv.poll_timestamp_batches()] == [4]
        assert recv.timestamp_duplicates == 4

    def test_timestamp_stream_epochs(self):
        recv = TransportReceiver(TransportConfig(), 10.0)
        deliveries = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 0), (1, 1)]
        recv.receive([encode_frame(ts_frame(epoch=e, seq=s)) for e, s in deliveries], 0.0)
        accepted = [(f.epoch, f.seq) for f in recv.poll_timestamp_batches()]
        assert accepted == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert recv.timestamp_stale_epoch == 1
        assert recv.timestamp_duplicates == 1

    def test_timestamp_stream_state_does_not_grow(self):
        """A week of in-order delivery must not leave a week of seqs
        behind: the receiver used to keep every seq ever seen."""
        recv = TransportReceiver(TransportConfig(), 10.0)
        for seq in range(1000):
            recv.receive([encode_frame(ts_frame(seq=seq))], 0.0)
        assert recv.timestamp_batches == 1000
        remembered = sum(
            len(part)
            for stream in recv._batch_streams.values()
            for part in stream
            if isinstance(part, (set, frozenset, list, dict))
        )
        assert remembered == 0
        # ...and late duplicates from anywhere in that history still drop.
        recv.receive([encode_frame(ts_frame(seq=s)) for s in (0, 500, 999)], 0.0)
        assert recv.timestamp_duplicates == 3


class TestEngineTransport:
    CFG = PathmapConfig(
        window=20.0, refresh_interval=10.0, quantum=1e-3,
        sampling_window=50e-3, max_transaction_delay=2.0,
        min_spike_height=0.10,
    )

    def _engine(self, seed=7, factory=None):
        from repro.apps.rubis import build_rubis
        from repro.core.engine import E2EProfEngine

        rubis = build_rubis(
            dispatch="affinity", seed=seed, request_rate=10.0, config=self.CFG
        )
        engine = E2EProfEngine(
            self.CFG, transport=TransportConfig(), channel_factory=factory
        )
        engine.attach(rubis.topology)
        return rubis, engine

    def test_perfect_channels_stay_fresh(self):
        rubis, engine = self._engine()
        rubis.run_until(45.0)
        assert engine.quality_score == 1.0
        assert engine.latest_result.quality == 1.0
        assert engine.latest_result.degraded_edges() == {}
        assert all(q.ok for q in engine.latest_edge_quality.values())
        assert engine.latest_result.stats.graphs == 2

    def test_transport_matches_direct_pull_paths(self):
        from repro.apps.rubis import build_rubis
        from repro.core.engine import E2EProfEngine

        rubis_a, engine_a = self._engine(seed=9)
        rubis_b = build_rubis(
            dispatch="affinity", seed=9, request_rate=10.0, config=self.CFG
        )
        engine_b = E2EProfEngine(self.CFG)
        engine_b.attach(rubis_b.topology)
        rubis_a.run_until(45.0)
        rubis_b.run_until(45.0)

        def paths(engine):
            return sorted(
                str(p)
                for g in engine.latest_result.graphs.values()
                for p in g.paths()
            )

        assert paths(engine_a) == paths(engine_b)

    def test_dead_tracer_marks_edges_stale(self):
        channels = {}

        def factory(node):
            channels[node] = FaultyChannel()
            return channels[node]

        rubis, engine = self._engine(factory=factory)
        rubis.run_until(25.0)
        channels["DS"].set_faults(down=True)
        rubis.run_until(75.0)
        statuses = engine._receiver.statuses(engine.latest_refresh_time)
        assert statuses["DS"].state == TRACER_DEAD
        stale = {
            edge
            for edge, q in engine.latest_edge_quality.items()
            if q.state == QUALITY_STALE
        }
        # Every edge whose signal the DS tracer owns goes stale.
        assert ("EJB1", "DS") in stale
        assert engine.quality_score < 1.0

    def test_restart_tracer_bumps_epoch(self):
        rubis, engine = self._engine()
        rubis.run_until(25.0)
        engine.restart_tracer("EJB1")
        rubis.run_until(45.0)
        summary = engine.transport_summary()
        assert summary["links"]["EJB1"]["epoch"] == 1
        assert summary["links"]["EJB1"]["restarts"] == 1
        # The refresh loop kept running through the restart.
        assert engine._refreshes == 4

    def test_transport_summary_shape(self):
        rubis, engine = self._engine()
        rubis.run_until(25.0)
        summary = engine.transport_summary()
        assert summary["enabled"] is True
        assert set(summary) >= {
            "quality_score", "totals", "tracers", "links", "channels",
            "degraded_edges",
        }
        import json

        json.dumps(summary)  # must be JSON-able

    def test_summary_disabled_without_transport(self):
        from repro.core.engine import E2EProfEngine

        engine = E2EProfEngine(self.CFG)
        assert engine.transport_summary() == {"enabled": False}

    def test_gap_events_published(self):
        def factory(node):
            return FaultyChannel(seed=5, drop=0.3)

        rubis, engine = self._engine(factory=factory)
        rubis.run_until(65.0)
        kinds = [
            event["kind"]
            for frame in engine.flight.dump()["frames"]
            for event in frame["events"]
        ]
        assert "transport_gap" in kinds
        assert "degraded_refresh" in kinds
