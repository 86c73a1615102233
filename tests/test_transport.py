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
from repro.tracing.wire import RoundFrame, decode_frame, encode_frame

QUANTUM = 1e-3
BLOCK_QUANTA = 100


def make_block(start, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.random(BLOCK_QUANTA)
    from repro.core.rle import rle_encode
    from repro.core.timeseries import DensityTimeSeries

    return rle_encode(DensityTimeSeries.from_dense(dense, start, QUANTUM))


def make_round(node="N", epoch=0, seq=0, edges=(("A", "N"),), start=None, batches=None):
    """Round ``seq`` of ``node``'s stream, loud on exactly ``edges``."""
    if start is None:
        start = seq * BLOCK_QUANTA
    return RoundFrame(
        node, epoch, seq, start, BLOCK_QUANTA, QUANTUM,
        {edge: make_block(start, seed=seq) for edge in edges}, batches or {},
    )


def stamped_round(node="N", epoch=0, seq=0):
    """A quiet round carrying one capture batch on ``A -> node``."""
    return make_round(
        node, epoch, seq, edges=(), batches={("A", node): np.array([float(seq), seq + 0.5])}
    )


def make_frame(node="N", epoch=0, seq=0, src="A", dst="N", start=None):
    return make_round(node, epoch, seq, [(src, dst)], start)


def buffer(lateness):
    return ReorderBuffer("N", lateness=lateness)


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
    def test_sequences_advance_per_round(self):
        link = TransportLink("N")
        blocks = {("A", "N"): make_block(0), ("B", "N"): make_block(0)}
        first = decode_frame(link.encode_blocks(blocks, 0, BLOCK_QUANTA, QUANTUM))
        second = decode_frame(
            link.encode_blocks({}, BLOCK_QUANTA, BLOCK_QUANTA, QUANTUM)
        )
        # One sequence per tracer, not per edge: both edges rode round 0.
        assert (first.seq, second.seq) == (0, 1)
        assert list(first.blocks) == list(blocks)
        assert second.blocks == {}
        assert (second.start, second.length, second.quantum) == (
            BLOCK_QUANTA, BLOCK_QUANTA, QUANTUM,
        )
        assert link.frames_sent == 2

    def test_heartbeat_appended_each_round(self):
        """A quiet round is the heartbeat: one frame, no blocks."""
        link = TransportLink("N")
        frame = decode_frame(link.encode_blocks({}, 0, BLOCK_QUANTA, QUANTUM))
        assert frame.blocks == {}
        assert frame.node == "N"
        assert link.frames_sent == 1

    def test_restart_bumps_epoch_and_resets_seqs(self):
        link = TransportLink("N")
        link.encode_blocks({("A", "N"): make_block(0)}, 0, BLOCK_QUANTA, QUANTUM)
        link.restart()
        assert link.epoch == 1
        assert link.restarts == 1
        frame = decode_frame(
            link.encode_blocks(
                {("A", "N"): make_block(100)}, 100, BLOCK_QUANTA, QUANTUM
            )
        )
        assert frame.epoch == 1
        assert frame.seq == 0

    def test_quiet_block_refused(self):
        link = TransportLink("N")
        with pytest.raises(TraceError):
            link.encode_blocks(
                {("A", "N"): RunLengthSeries.empty(0, BLOCK_QUANTA, QUANTUM)},
                0, BLOCK_QUANTA, QUANTUM,
            )


class TestReorderBuffer:
    def test_in_order_delivery(self):
        buf = buffer(lateness=2)
        for seq in range(5):
            out = buf.push(make_frame(seq=seq))
            assert [f.seq for f in out] == [seq]
        assert buf.delivered == 5
        assert buf.gaps == 0

    def test_reordered_pair_resequenced(self):
        buf = buffer(lateness=2)
        assert buf.push(make_frame(seq=1)) == []
        out = buf.push(make_frame(seq=0))
        assert [f.seq for f in out] == [0, 1]
        assert buf.reordered == 1

    def test_duplicates_never_redelivered(self):
        buf = buffer(lateness=2)
        buf.push(make_frame(seq=0))
        assert buf.push(make_frame(seq=0)) == []
        assert buf.duplicates == 1

    def test_gap_declared_past_lateness(self):
        buf = buffer(lateness=1)
        buf.push(make_frame(seq=0))
        assert buf.push(make_frame(seq=2)) == []  # within lateness: wait
        out = buf.push(make_frame(seq=3))  # hole now too old
        assert [f.seq for f in out] == [2, 3]
        lost = buf.drain_lost_rounds()
        assert [r.seq for r in lost] == [1]
        # block_start derived from the seq -> start anchor.
        assert lost[0].block_start == BLOCK_QUANTA

    def test_late_recovery_after_gap(self):
        buf = buffer(lateness=0)
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
        buf = buffer(lateness=2)
        buf.push(make_frame(epoch=1, seq=0))
        assert buf.push(make_frame(epoch=0, seq=5)) == []
        assert buf.stale_epoch_drops == 1

    def test_epoch_switch_drains_old_then_resets(self):
        buf = buffer(lateness=3)
        buf.push(make_frame(epoch=0, seq=0))
        buf.push(make_frame(epoch=0, seq=2))  # buffered, waiting for 1
        out = buf.push(make_frame(epoch=1, seq=0))
        # Old epoch's pending seq 2 drains first (declaring the hole at
        # 1), then the new epoch's seq 0.
        assert [(f.epoch, f.seq) for f in out] == [(0, 2), (1, 0)]
        assert [r.seq for r in buf.drain_lost_rounds()] == [1]
        assert buf.epoch == 1

    def test_flush_drains_pending(self):
        buf = buffer(lateness=5)
        buf.push(make_frame(seq=2))
        out = buf.flush()
        assert [f.seq for f in out] == [2]
        assert buf.gaps == 2  # seqs 0 and 1 declared lost

    def test_newest_start_tracks_buffered_rounds(self):
        buf = buffer(lateness=5)
        assert buf.newest_start() is None
        buf.push(make_frame(seq=3))  # buffered behind the hole at 0..2
        assert buf.newest_start() == 3 * BLOCK_QUANTA


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
        payload = link.encode_blocks(
            {("A", "N"): make_block(0)}, 0, BLOCK_QUANTA, QUANTUM
        )
        recv.receive([payload], now=0.0)
        frames = recv.poll()
        assert len(frames) == 1
        assert list(frames[0].blocks) == [("A", "N")]
        assert recv.heartbeats == 1
        assert recv.edge_owner(("A", "N")) == "N"
        assert recv.owned_edges("N") == {("A", "N")}

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
        recv.receive([encode_frame(make_frame(node="N", src="A", dst="N", seq=0))], 0.0)
        recv.receive([encode_frame(make_frame(node="N", src="A", dst="N", seq=2))], 0.0)
        recv.receive([encode_frame(make_frame(node="M", src="B", dst="M", seq=0))], 0.0)
        recv.receive([encode_frame(make_frame(node="M", src="B", dst="M", seq=0))], 0.0)
        totals = recv.totals()
        assert totals["gaps"] == 1
        assert totals["duplicates"] == 1
        assert totals["delivered"] == 3
        notices = recv.drain_gap_notices()
        assert len(notices) == 1 and notices[0].edge == ("A", "N")

    def test_one_call_per_round_equals_frame_by_frame(self):
        """Collected deliveries -- good, duplicated, reordered, corrupt,
        quiet and batch-carrying rounds -- have the same effect handed
        over in one call as delivered one at a time."""
        corrupt = bytearray(encode_frame(make_frame(node="M", src="B", dst="M", seq=1)))
        corrupt[-1] ^= 0x40
        payloads = [
            encode_frame(make_frame(seq=0)),
            encode_frame(make_frame(seq=3)),
            bytes(corrupt),
            encode_frame(make_round(node="M", seq=0, edges=())),
            encode_frame(stamped_round(node="M", seq=2)),
            encode_frame(make_frame(seq=1)),
            encode_frame(make_frame(seq=1)),
            b"junk",
            encode_frame(stamped_round(node="M", seq=2)),
            encode_frame(make_frame(node="M", src="B", dst="M", seq=1)),
            encode_frame(make_frame(epoch=1, seq=0)),
            encode_frame(make_frame(seq=2)),
        ]

        def outcome(receiver):
            return (
                receiver.poll(),
                receiver.poll_timestamp_batches(),
                receiver.drain_gap_notices(),
                receiver.totals(),
                receiver.statuses(1.0),
                receiver.owned_edges("N"),
                receiver.owned_edges("M"),
            )

        together = TransportReceiver(TransportConfig(lateness_blocks=1), 10.0)
        together.receive(payloads, now=1.0)
        singly = TransportReceiver(TransportConfig(lateness_blocks=1), 10.0)
        for payload in payloads:
            singly.receive([payload], now=1.0)
        assert outcome(together) == outcome(singly)
        assert together.corrupt_blocks == 2
        assert together.frames_received == len(payloads)

    def test_v1_frame_counted_corrupt_not_raised(self):
        """Frames are never persisted, so a pre-round (version 1) frame
        is simply unsupported: counted as corrupt, never raised."""
        recv = TransportReceiver(TransportConfig(), 10.0)
        heartbeat_v1 = bytes.fromhex("524601d7f0c24b010281010244420000")
        recv.receive([heartbeat_v1], now=0.0)
        assert recv.corrupt_blocks == 1
        assert recv.heartbeats == 0
        assert recv.poll() == []

    def test_timestamp_stream_dedup_out_of_order(self):
        """Batches ride their round: re-sequenced with it, and a
        duplicated round delivers its batch only once."""
        recv = TransportReceiver(TransportConfig(lateness_blocks=5), 10.0)
        recv.receive(
            [encode_frame(stamped_round(seq=s)) for s in (0, 2, 3, 1, 1, 5, 2, 0)], 0.0
        )
        batches = recv.poll_timestamp_batches()
        assert [int(b.timestamps[0]) for b in batches] == [0, 1, 2, 3]
        assert all((b.src, b.dst, b.observed_at_destination) == ("A", "N", True) for b in batches)
        assert recv.timestamp_batches == 4
        assert recv.timestamp_duplicates == 3
        # Round 4 is still outstanding: it is new, and only once, and
        # releases the buffered round 5 behind it.
        recv.receive([encode_frame(stamped_round(seq=4))] * 2, 0.0)
        assert [int(b.timestamps[0]) for b in recv.poll_timestamp_batches()] == [4, 5]
        assert recv.timestamp_duplicates == 4

    def test_timestamp_stream_epochs(self):
        """After a restart, batches of pre-restart rounds are dropped for
        good and counted stale; a duplicated new-epoch round counts once."""
        recv = TransportReceiver(TransportConfig(), 10.0)
        deliveries = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 0), (1, 1)]
        recv.receive(
            [
                encode_frame(make_round(
                    epoch=e, seq=s, edges=(), batches={("A", "N"): np.array([10.0 * e + s])}
                ))
                for e, s in deliveries
            ],
            0.0,
        )
        accepted = [float(b.timestamps[0]) for b in recv.poll_timestamp_batches()]
        assert accepted == [0.0, 1.0, 10.0, 11.0]
        assert recv.timestamp_stale_epoch == 1
        assert recv.timestamp_duplicates == 1

    def test_timestamp_stream_state_does_not_grow(self):
        """A week of in-order delivery must not leave a week of seqs
        behind in the stream that dedups batches."""
        recv = TransportReceiver(TransportConfig(), 10.0)
        for seq in range(1000):
            recv.receive([encode_frame(stamped_round(seq=seq))], 0.0)
            assert len(recv.poll_timestamp_batches()) == 1
            recv.poll()
        assert recv.timestamp_batches == 1000
        remembered = sum(
            len(part)
            for buffer in recv._buffers.values()
            for part in vars(buffer).values()
            if isinstance(part, (set, frozenset, list, dict))
        )
        assert remembered == 0
        # ...and late duplicates from anywhere in that history still drop.
        recv.receive([encode_frame(stamped_round(seq=s)) for s in (0, 500, 999)], 0.0)
        assert recv.poll_timestamp_batches() == []
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
        """An explicit default ``TransportConfig`` and none at all (the
        defaults) publish the same paths."""
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

    def test_capture_batches_share_their_round_fate_under_faults(self, monkeypatch):
        """With drop, duplicate, reorder and corrupt all on, every
        timestamp of every round delivered -- in order or late-recovered
        -- reaches the capture sink exactly once, and none from a lost or
        pre-restart round does."""
        from repro.apps.rubis import build_rubis
        from repro.core.engine import E2EProfEngine
        from repro.tracing.collector import TraceCollector

        sent = {}
        delivered = []
        encode_blocks = TransportLink.encode_blocks
        poll = TransportReceiver.poll

        def recording_encode(link, blocks, start, length, quantum, batches=None):
            key = (link.node, link.epoch, link._round_seq)
            sent[key] = {edge: np.array(stamps) for edge, stamps in (batches or {}).items()}
            return encode_blocks(link, blocks, start, length, quantum, batches)

        def recording_poll(receiver):
            rounds = poll(receiver)
            delivered.extend((f.node, f.epoch, f.seq) for f in rounds)
            return rounds

        monkeypatch.setattr(TransportLink, "encode_blocks", recording_encode)
        monkeypatch.setattr(TransportReceiver, "poll", recording_poll)
        rubis = build_rubis(dispatch="affinity", seed=5, request_rate=10.0, config=self.CFG)
        sink = TraceCollector(client_nodes=rubis.topology.collector.clients)
        engine = E2EProfEngine(
            self.CFG,
            transport=TransportConfig(lateness_blocks=1),
            capture_sink=sink,
            channel_factory=lambda node: FaultyChannel(
                seed=sum(node.encode()), drop=0.15, duplicate=0.2,
                reorder=0.2, corrupt=0.1, delay=0.2,
            ),
        )
        engine.attach(rubis.topology)
        for until in (40.0, 80.0, 120.0):
            rubis.run_until(until)
            for node in ("WS", "TS1", "EJB1", "DS"):
                engine.restart_tracer(node)
        rubis.run_until(160.0)
        monkeypatch.undo()

        totals = engine._receiver.totals()
        # Every fault the contract speaks of happened.
        assert totals["gaps"] and totals["late_recovered"] and totals["corrupt_blocks"]
        assert totals["timestamp_duplicates"] and totals["timestamp_stale_epoch"]
        assert len(delivered) == len(set(delivered))
        assert set(delivered) < set(sent)
        expected = {}
        for key in delivered:
            for (src, dst), stamps in sent[key].items():
                expected.setdefault((src, dst, key[0] == dst), []).append(stamps)
        filed = {
            (b.src, b.dst, b.observed_at_destination): np.sort(b.timestamps)
            for b in sink.export_batches()
        }
        assert filed.keys() == expected.keys()
        for stream, parts in expected.items():
            np.testing.assert_array_equal(filed[stream], np.sort(np.concatenate(parts)))
        assert totals["timestamp_batches"] == sum(len(sent[key]) for key in delivered)

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

    def test_default_engine_summary_enabled(self):
        """The transport is the one ingest path: an engine built without
        a ``TransportConfig`` runs it with the defaults."""
        from repro.apps.rubis import build_rubis
        from repro.core.engine import E2EProfEngine

        engine = E2EProfEngine(self.CFG)
        assert engine.transport_summary()["enabled"] is True
        rubis = build_rubis(
            dispatch="affinity", seed=7, request_rate=10.0, config=self.CFG
        )
        engine.attach(rubis.topology)
        rubis.run_until(25.0)
        summary = engine.transport_summary()
        assert summary["enabled"] is True
        assert summary["quality_score"] == 1.0
        assert summary["totals"]["frames_received"] > 0

    def test_gap_events_published(self):
        def factory(node):
            return FaultyChannel(seed=5, drop=0.3)

        rubis, engine = self._engine(factory=factory)
        # One round frame per tracer per refresh: the drops of rounds 3
        # and 4 are declared once round 6 passes the lateness of 2.
        rubis.run_until(75.0)
        kinds = [
            event["kind"]
            for frame in engine.flight.dump()["frames"]
            for event in frame["events"]
        ]
        assert "transport_gap" in kinds
        assert "degraded_refresh" in kinds


class ScriptedChannel(FaultyChannel):
    """Perfect channel that drops or holds back chosen sends, by index.

    Without a capture sink every send is one round frame, so send ``k``
    is the tracer's round ``k``; a held round arrives with the next
    refresh's deliveries, after that refresh's own round."""

    def __init__(self, drop=(), hold=()):
        super().__init__()
        self.sent = []
        self._drop, self._hold = set(drop), set(hold)

    def send(self, payload):
        index = len(self.sent)
        self.sent.append(payload)
        if index in self._drop:
            return []
        if index in self._hold:
            self._held.append((self._round + 2, payload))
            return []
        return [payload]


class TestQuietRounds:
    """Per-tracer round semantics through the engine, on a many-class
    deployment whose last two classes stop at t = 5 s: their front-end
    and app-server tracers go quiet while the other classes stay loud."""

    def _engine(self, **scripts):
        from repro.apps.manyclass import build_many_class
        from repro.core.engine import E2EProfEngine

        deployment = build_many_class(classes=4, quiet_fraction=0.5, seed=3)
        channels = {}

        def factory(node):
            channels[node] = ScriptedChannel(**scripts.get(node, {}))
            return channels[node]

        engine = E2EProfEngine(
            deployment.config, transport=TransportConfig(), channel_factory=factory
        )
        engine.attach(deployment.topology)
        return deployment, engine, channels

    @staticmethod
    def block_start(engine, refresh):
        return engine._base_quantum + refresh * engine._block_quanta

    def test_quiet_tracer_sends_round_headers_and_stays_fresh(self):
        deployment, engine, channels = self._engine()
        deployment.run_until(21.0)  # ten refreshes, t = 2..20
        rounds = [decode_frame(p) for p in channels["FE3"].sent]
        assert [r.seq for r in rounds] == list(range(10))
        # Loud while the class ran, then only round headers.
        assert rounds[0].blocks
        assert all(not r.blocks for r in rounds[4:])
        assert all(decode_frame(p).blocks for p in channels["FE0"].sent[1:])
        # The quiet tracer is live and its (silent) edges are fresh.
        assert engine._receiver.statuses(20.0)["FE3"].state == TRACER_LIVE
        owned = engine._receiver.owned_edges("FE3")
        assert ("C3", "FE3") in owned
        for edge in owned:
            assert engine.latest_edge_quality[edge] == FRESH_QUALITY
        assert engine.quality_score == 1.0

    def test_dropped_round_gaps_every_owned_edge_at_its_block_start(self):
        deployment, engine, _ = self._engine(FE0={"drop": [3]})
        deployment.run_until(8.5)  # refresh 3 is the first without FE0's round
        owned = engine._receiver.owned_edges("FE0")
        assert len(owned) >= 2
        start = self.block_start(engine, 3)
        assert engine._gap_blocks == {edge: {start} for edge in owned}
        for edge in owned:
            assert engine.latest_edge_quality[edge].state == QUALITY_DEGRADED
        deployment.run_until(14.5)  # rounds 4-6 pass the lateness of 2
        assert engine._receiver.totals()["gaps"] == len(owned)
        assert engine._receiver.totals()["late_recovered"] == 0

    def test_late_round_clears_the_marks_of_quiet_edges(self):
        deployment, engine, _ = self._engine(FE3={"hold": [6]})
        deployment.run_until(14.5)  # refresh 6: FE3 quiet, its round held
        owned = engine._receiver.owned_edges("FE3")
        start = self.block_start(engine, 6)
        assert owned and {e for e, s in engine._gap_blocks.items() if start in s} == owned
        assert engine.quality_score < 1.0
        deployment.run_until(16.5)  # the held round arrives, whole and quiet
        assert not any(start in marks for marks in engine._gap_blocks.values())
        assert engine.quality_score == 1.0
        assert engine._receiver.totals()["gaps"] == 0

    def test_duplicate_round_delivered_once(self):
        recv = TransportReceiver(TransportConfig(), 10.0)
        payload = encode_frame(make_round(seq=0, edges=[("A", "N"), ("B", "N")]))
        recv.receive([payload, payload], now=0.0)
        assert [(f.node, f.seq) for f in recv.poll()] == [("N", 0)]
        assert recv.totals()["duplicates"] == 1
        assert recv.heartbeats == 2  # both copies still prove liveness

    def test_stale_epoch_round_dropped(self):
        recv = TransportReceiver(TransportConfig(), 10.0)
        recv.receive([encode_frame(make_frame(epoch=1, seq=0))], now=0.0)
        recv.receive([encode_frame(make_frame(epoch=0, seq=1))], now=0.0)
        assert [(f.epoch, f.seq) for f in recv.poll()] == [(1, 0)]
        assert recv.totals()["stale_epoch_drops"] == 1
