"""Tests for the tiered trace lake (`repro.lake`).

The lake is the collector's second storage tier: eviction spills
columnar chunks into time-indexed ``.rtb`` segments cataloged by an
append-only journal, reads stitch mmap'd segments with resident chunks,
and correlator eviction materializes per-(class, edge) summaries.  The
contracts hammered here (the journal's crash and corruption lifecycle is
in ``test_lake_journal.py``):

* decode returns the exact payload or raises ``TraceError`` -- never a
  different exception -- for every truncation, byte flip, and
  catalog/segment mismatch (mirroring ``test_ingest_codecs_fuzz.py``);
* stitched reads are **bitwise identical** to an unbounded collector's
  (hypothesis property, the invariant the whole tier rests on);
* spilling, compaction and querying are safe to interleave across
  threads;
* an engine wired to a lake records the ``spill`` ledger stage and
  materializes summaries whose folds agree with raw replays.
"""

import dataclasses
import tempfile
import threading

import numpy as np
import pytest

from repro.config import LakeConfig, PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.errors import AnalysisError, ConfigError, TraceError
from repro.lake import (
    JOURNAL_NAME,
    BlockSummary,
    SegmentMappingLRU,
    SegmentMeta,
    TraceLake,
    fold_summaries,
    read_segment,
    scan_journal,
    segment_filename,
    write_segment,
)
from repro.lake.journal import JOURNAL_MAGIC, encode_record
from repro.obs.ledger import PIPELINE_STAGES, STAGE_SPILL
from repro.simulation.distributions import Erlang
from repro.simulation.nodes import StaticRouter
from repro.simulation.topology import Topology
from repro.tracing.collector import TraceCollector

CFG = PathmapConfig(
    window=10.0,
    refresh_interval=5.0,
    quantum=1e-3,
    sampling_window=10e-3,
    max_transaction_delay=1.0,
    retention=31.0,
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


def series_key(series):
    return (
        series.start,
        series.length,
        series.quantum,
        series.starts.tolist(),
        series.counts.tolist(),
        series.values.tolist(),
    )


# ---------------------------------------------------------------------------
# Journal: the catalog's on-disk form
# ---------------------------------------------------------------------------


def _meta(seq, count=4):
    return SegmentMeta(
        seq=seq, path=segment_filename(seq), src="A", dst="B",
        observed_at_destination=True, t_min=0.0, t_max=3.0, count=count,
        crc=0xC0FFEE, nbytes=99,
    )


def _write_journal(root, *records):
    """A journal holding ``records`` = (segments, next_seq[, replace])."""
    blob = JOURNAL_MAGIC
    for segments, next_seq, *replace in records:
        _, buffers = encode_record(len(blob), [], segments, next_seq, None, *replace)
        blob += b"".join(buffers)
    (root / JOURNAL_NAME).write_bytes(blob)
    return blob


class TestManifest:
    def test_missing_manifest_is_empty(self, tmp_path):
        assert list(scan_journal(tmp_path)) == []
        lake = TraceLake(tmp_path)
        assert lake.segments() == [] and lake.summaries() == []
        assert lake.frontier is None
        lake.close()
        assert list(tmp_path.iterdir()) == []  # nothing to persist, no file

    def test_round_trip(self, tmp_path):
        _write_journal(tmp_path, ([_meta(0), _meta(1)], 2), ([_meta(5)], 9))
        first, second = scan_journal(tmp_path)
        assert first.segments == [_meta(0), _meta(1)] and not first.replace
        assert (second.segments, second.next_seq) == ([_meta(5)], 9)
        assert second.offset == first.end
        assert TraceLake(tmp_path).segments() == [_meta(0), _meta(1), _meta(5)]

    def test_replace_record_swaps_the_catalog(self, tmp_path):
        _write_journal(
            tmp_path, ([_meta(0), _meta(1)], 2), ([_meta(2)], 3, True), ([_meta(3)], 4)
        )
        assert TraceLake(tmp_path).segments() == [_meta(2), _meta(3)]

    def test_bad_json_rejected(self, tmp_path):
        """A v1 lake -- whatever its manifest holds -- is refused by name,
        never opened as an empty lake."""
        for text in ("{not json", '{"version": 1, "next_seq": 0, "segments": []}'):
            (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
            with pytest.raises(TraceError, match="v1 trace lake"):
                TraceLake(tmp_path)

    def test_wrong_version_rejected(self, tmp_path):
        blob = _write_journal(tmp_path, ([_meta(0)], 1))
        (tmp_path / JOURNAL_NAME).write_bytes(blob[:7] + b"\x63" + blob[8:])
        with pytest.raises(TraceError, match="unsupported version"):
            TraceLake(tmp_path)

    def test_manifest_byte_flips_never_escape_trace_error(self, tmp_path):
        blob = _write_journal(tmp_path, ([_meta(0)], 1), ([_meta(1)], 2))
        for pos in range(len(blob)):
            flipped = bytearray(blob)
            flipped[pos] ^= 0xFF
            (tmp_path / JOURNAL_NAME).write_bytes(bytes(flipped))
            with pytest.raises(TraceError):
                TraceLake(tmp_path)

    def test_duplicate_seq_rejected(self, tmp_path):
        _write_journal(tmp_path, ([_meta(0)], 1), ([_meta(0)], 2))
        with pytest.raises(TraceError):
            TraceLake(tmp_path)
        _write_journal(tmp_path, ([_meta(3)], 3))  # next_seq collides
        with pytest.raises(TraceError):
            TraceLake(tmp_path)

    def test_segment_path_may_not_escape_the_root(self, tmp_path):
        _write_journal(tmp_path, ([dataclasses.replace(_meta(0), path="../x.rtb")], 1))
        with pytest.raises(TraceError, match="escapes"):
            TraceLake(tmp_path)


# ---------------------------------------------------------------------------
# Segment codec fuzz
# ---------------------------------------------------------------------------


def _segment(tmp_path, values=None):
    values = np.arange(16.0) if values is None else values
    path = tmp_path / segment_filename(0)
    info = write_segment(path, "A", "B", True, values)
    meta = SegmentMeta(
        seq=0,
        path=path.name,
        src="A",
        dst="B",
        observed_at_destination=True,
        t_min=info.t_min,
        t_max=info.t_max,
        count=info.count,
        crc=info.crc,
        nbytes=info.nbytes,
    )
    return path, meta, values


class TestSegmentFuzz:
    def test_round_trip(self, tmp_path):
        path, meta, values = _segment(tmp_path)
        got = read_segment(path, meta)
        assert np.array_equal(got, values)

    def test_empty_segment_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            write_segment(tmp_path / "x.rtb", "A", "B", True, np.empty(0))

    def test_missing_file(self, tmp_path):
        _, meta, _ = _segment(tmp_path)
        with pytest.raises(TraceError):
            read_segment(tmp_path / "nope.rtb", meta)

    def test_every_truncation_raises(self, tmp_path):
        path, meta, _ = _segment(tmp_path)
        blob = path.read_bytes()
        for size in range(len(blob)):
            (tmp_path / "t.rtb").write_bytes(blob[:size])
            with pytest.raises(TraceError):
                read_segment(tmp_path / "t.rtb", meta)

    def test_every_byte_flip_raises(self, tmp_path):
        path, meta, _ = _segment(tmp_path)
        blob = path.read_bytes()
        for pos in range(len(blob)):
            flipped = bytearray(blob)
            flipped[pos] ^= 0xFF
            (tmp_path / "f.rtb").write_bytes(bytes(flipped))
            with pytest.raises(TraceError):
                read_segment(tmp_path / "f.rtb", meta)

    def test_meta_mismatch_raises(self, tmp_path):
        path, meta, _ = _segment(tmp_path)
        for doctored in (
            dataclasses.replace(meta, count=meta.count + 1),
            dataclasses.replace(meta, crc=meta.crc ^ 0xDEAD),
        ):
            with pytest.raises(TraceError):
                read_segment(path, doctored)

    def test_trailing_garbage_raises(self, tmp_path):
        path, meta, _ = _segment(tmp_path)
        (tmp_path / "g.rtb").write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(TraceError):
            read_segment(tmp_path / "g.rtb", meta)


class TestMappingLRU:
    def test_capacity_and_hit_rate(self, tmp_path):
        metas = []
        for seq in range(3):
            path = tmp_path / segment_filename(seq)
            info = write_segment(path, "A", "B", True,
                                 np.arange(float(seq), float(seq) + 4.0))
            metas.append(
                SegmentMeta(
                    seq=seq, path=path.name, src="A", dst="B",
                    observed_at_destination=True, t_min=info.t_min,
                    t_max=info.t_max, count=info.count, crc=info.crc,
                    nbytes=info.nbytes,
                )
            )
        lru = SegmentMappingLRU(tmp_path, capacity=2)
        for meta in metas:
            lru.get(meta)
        assert len(lru) == 2
        assert lru.misses == 3 and lru.hits == 0
        # metas[0] was evicted; metas[2] is resident.
        assert np.array_equal(lru.get(metas[2]), np.arange(2.0, 6.0))
        assert lru.hits == 1
        lru.get(metas[0])
        assert lru.misses == 4
        assert 0.0 < lru.hit_rate < 1.0

    def test_invalidate(self, tmp_path):
        path, meta, _ = _segment(tmp_path)
        lru = SegmentMappingLRU(tmp_path, capacity=2)
        lru.get(meta)
        lru.invalidate(meta.path)
        assert len(lru) == 0


# ---------------------------------------------------------------------------
# TraceLake spill / query / compact
# ---------------------------------------------------------------------------


class TestTraceLake:
    def test_unflushed_buffers_are_visible(self, tmp_path):
        lake = TraceLake(tmp_path, segment_bytes=1 << 20)
        lake.spill("A", "B", True, np.arange(8.0))
        assert lake.segments() == []
        got = np.sort(lake.query("A", "B", True))
        assert np.array_equal(got, np.arange(8.0))
        assert lake.stats()["buffered_records"] == 8

    def test_segment_cut_at_threshold_and_range_query(self, tmp_path):
        lake = TraceLake(tmp_path, segment_bytes=128)
        for base in range(0, 100, 20):
            lake.spill("A", "B", True, np.arange(float(base), base + 20.0))
        assert len(lake.segments()) >= 2
        got = np.sort(lake.query("A", "B", True, start=15.0, end=35.0))
        assert np.array_equal(got, np.arange(15.0, 35.0))
        assert lake.query("A", "B", False).size == 0
        assert lake.query("A", "X", True).size == 0

    def test_flush_and_reopen(self, tmp_path):
        lake = TraceLake(tmp_path, segment_bytes=1 << 20)
        lake.spill("A", "B", True, np.arange(8.0))
        lake.spill("B", "C", False, np.arange(3.0))
        assert lake.flush() == 2
        lake.close()
        reopened = TraceLake(tmp_path)
        assert sorted(reopened.streams()) == [("A", "B", True),
                                              ("B", "C", False)]
        assert np.array_equal(np.sort(reopened.query("A", "B", True)),
                              np.arange(8.0))

    def test_compact_merges_per_stream(self, tmp_path):
        lake = TraceLake(tmp_path, segment_bytes=64)
        expected = {}
        for base in range(6):
            for stream in (("A", "B"), ("B", "C")):
                vals = np.arange(base * 10.0, base * 10.0 + 8.0)
                lake.spill(stream[0], stream[1], True, vals)
                expected.setdefault(stream, []).append(vals)
        lake.flush()
        before = len(lake.segments())
        assert before > 2
        merged = lake.compact(target_bytes=1 << 20)
        assert merged == 2
        assert len(lake.segments()) == 2
        for (src, dst), chunks in expected.items():
            got = np.sort(lake.query(src, dst, True))
            assert np.array_equal(got, np.concatenate(chunks))
        # Old segment files are gone; only the merged ones remain.
        assert len(list(tmp_path.glob("seg-*.rtb"))) == 2

    def test_compact_sweeps_orphans(self, tmp_path):
        lake = TraceLake(tmp_path, segment_bytes=1 << 20)
        lake.spill("A", "B", True, np.arange(4.0))
        lake.flush()
        orphan = tmp_path / "seg-00009999.rtb"
        write_segment(orphan, "X", "Y", True, np.arange(2.0))
        lake.compact()
        assert not orphan.exists()
        assert np.array_equal(np.sort(lake.query("A", "B", True)),
                              np.arange(4.0))

    def test_corrupt_segment_read_raises_trace_error(self, tmp_path):
        lake = TraceLake(tmp_path, segment_bytes=1 << 20)
        lake.spill("A", "B", True, np.arange(64.0))
        lake.flush()
        meta = lake.segments()[0]
        blob = bytearray((tmp_path / meta.path).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (tmp_path / meta.path).write_bytes(bytes(blob))
        with pytest.raises(TraceError):
            lake.query("A", "B", True)

    def test_concurrent_spill_compact_and_read(self, tmp_path):
        lake = TraceLake(tmp_path, segment_bytes=256)
        stop = threading.Event()
        errors = []
        written = [0]

        def writer():
            try:
                while not stop.is_set():
                    base = written[0] * 8.0
                    lake.spill("A", "B", True, np.arange(base, base + 8.0))
                    written[0] += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            last = 0
            for step in range(200):
                got = lake.query("A", "B", True)
                assert got.size >= last
                last = got.size
                if step % 50 == 49:
                    lake.compact(target_bytes=1 << 16)
        finally:
            stop.set()
            thread.join()
        assert not errors
        total = np.sort(lake.query("A", "B", True))
        assert np.array_equal(total, np.arange(0.0, written[0] * 8.0))

    def test_stats_shape(self, tmp_path):
        lake = TraceLake(tmp_path)
        stats = lake.stats()
        for key in ("enabled", "segments", "segments_written", "spilled_records",
                    "spilled_bytes", "buffered_records", "mapping_hit_rate",
                    "summary_rows", "summary_batches", "journal_bytes"):
            assert key in stats
        assert stats["enabled"] is True

    def test_stats_and_ls_count_batches_and_rows_from_the_index(
        self, tmp_path, capsys
    ):
        import json

        from repro.cli import main

        lake = TraceLake(tmp_path)
        lake.spill("A", "B", True, np.arange(8.0))
        for block in range(3):
            lake.record_summary(BlockSummary("C", "WS", "WS", "DB", block, 1, 0.5))
            lake.checkpoint()
        lake.close()  # journals the segment: a fourth record, no rows
        for view in (lake, TraceLake(tmp_path)):  # the writer and a reader agree
            stats = view.stats()
            assert (stats["summary_batches"], stats["summary_rows"]) == (3, 3)
            assert stats["journal_bytes"] == (tmp_path / JOURNAL_NAME).stat().st_size
        assert main(["lake", "ls", str(tmp_path)]) == 0
        assert "1 segments (8 records" in capsys.readouterr().out
        assert main(["lake", "ls", str(tmp_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["summary_rows"] == 3 and len(doc["segments"]) == 1


class TestLakeConfig:
    def test_defaults(self):
        config = LakeConfig(root="/tmp/x")
        assert config.segment_bytes == 256 * 1024
        assert config.summaries is True

    def test_validation(self):
        with pytest.raises(ConfigError):
            LakeConfig(segment_bytes=4)
        with pytest.raises(ConfigError):
            LakeConfig(mapping_cache=0)

    def test_from_config(self, tmp_path):
        lake = TraceLake.from_config(
            LakeConfig(root=str(tmp_path), segment_bytes=1024)
        )
        assert lake.segment_bytes == 1024
        with pytest.raises(TraceError):
            TraceLake.from_config(LakeConfig())


# ---------------------------------------------------------------------------
# Stitched reads == unbounded collector (the tier's core invariant)
# ---------------------------------------------------------------------------


class TestStitchedReads:
    EDGES = (("C", "WS"), ("WS", "DB"))

    def _fill(self, root, stamps, chunk_sizes, evict_every):
        """Unbounded and bounded+lake collectors fed identical chunks."""
        unbounded = TraceCollector(client_nodes=["C"])
        lake = TraceLake(root, segment_bytes=512)
        bounded = TraceCollector(client_nodes=["C"], retention=31.0, lake=lake)
        for src, dst in self.EDGES:
            lo = 0
            step = 0
            while lo < stamps.size:
                hi = min(stamps.size, lo + chunk_sizes[step % len(chunk_sizes)])
                unbounded.ingest_batch(src, dst, stamps[lo:hi])
                bounded.ingest_batch(src, dst, stamps[lo:hi])
                if step % evict_every == evict_every - 1:
                    bounded.evict_expired()
                lo = hi
                step += 1
        bounded.evict_expired()
        return unbounded, bounded

    def test_range_reads_and_windows_bitwise_equal(self):
        rng = np.random.default_rng(7)
        stamps = np.sort(rng.uniform(0.0, 200.0, size=4000))
        cfg = PathmapConfig(window=10.0, refresh_interval=5.0, quantum=1e-2,
                            sampling_window=5e-2, max_transaction_delay=1.0)
        with tempfile.TemporaryDirectory() as root:
            unbounded, bounded = self._fill(root, stamps, [37, 120, 5], 3)
            assert bounded.ingest_stats()["records_evicted"] > 0
            assert bounded.lake.stats()["spilled_records"] > 0
            for src, dst in self.EDGES:
                got = bounded.edge_timestamps_range(src, dst, 0.0, 201.0)
                want = np.sort(unbounded.edge_timestamps(src, dst))
                assert np.array_equal(got, want)
                mid = bounded.edge_timestamps_range(src, dst, 40.0, 90.0)
                ref = want[(want >= 40.0) & (want < 90.0)]
                assert np.array_equal(mid, ref)
            for end_time in (200.0, 120.0, 15.0):
                wa = unbounded.window(cfg, end_time=end_time)
                wb = bounded.window(cfg, end_time=end_time)
                assert wa.active_edges() == wb.active_edges()
                assert wa.front_end_nodes() == wb.front_end_nodes()
                for src, dst in wa.active_edges():
                    assert series_key(wa.edge_series(src, dst)) == series_key(
                        wb.edge_series(src, dst)
                    )

    def test_inverted_range_rejected(self, tmp_path):
        lake = TraceLake(tmp_path)
        collector = TraceCollector(retention=31.0, lake=lake)
        collector.ingest_batch("A", "B", np.arange(4.0))
        with pytest.raises(TraceError):
            collector.edge_timestamps_range("A", "B", 5.0, 1.0)

    def test_hypothesis_stitched_equals_unbounded(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        stamp_lists = st.lists(
            st.floats(min_value=0.0, max_value=150.0, allow_nan=False,
                      allow_infinity=False, width=64),
            min_size=5,
            max_size=400,
        )

        @settings(max_examples=20, deadline=None)
        @given(values=stamp_lists, chunk=st.integers(1, 60),
               evict_every=st.integers(1, 4))
        def check(values, chunk, evict_every):
            stamps = np.sort(np.asarray(values, dtype=np.float64))
            with tempfile.TemporaryDirectory() as root:
                unbounded, bounded = self._fill(
                    root, stamps, [chunk], evict_every
                )
                for src, dst in self.EDGES:
                    got = bounded.edge_timestamps_range(
                        src, dst, 0.0, float(stamps[-1]) + 1.0
                    )
                    want = np.sort(unbounded.edge_timestamps(src, dst))
                    assert np.array_equal(got, want)

        check()


# ---------------------------------------------------------------------------
# Summaries: materialization, folding, engine wiring
# ---------------------------------------------------------------------------


class TestSummaries:
    def _summary(self, block_start, lag=None, quiet=False):
        return BlockSummary(
            client="C", root="WS", src="WS", dst="DB",
            block_start=block_start, block_length=4, quantum=0.5,
            x_total=0.0 if quiet else 4.0, x_energy=0.0 if quiet else 6.0,
            y_total=0.0 if quiet else 4.0, y_energy=0.0 if quiet else 6.0,
            lag_products=None if quiet else np.asarray(lag, dtype=np.float64),
        )

    def test_round_trip_journal(self, tmp_path):
        written = [self._summary(0, [1.0, 2.0, 3.0]), self._summary(4, quiet=True)]
        lake = TraceLake(tmp_path)
        for row in written:
            lake.record_summary(row)
        lake.close()
        for got, want in zip(TraceLake(tmp_path).summaries(), written):
            assert np.array_equal(got.lag_products, want.lag_products)
            assert got.lag_products is None or got.lag_products.dtype == np.float64
            assert dataclasses.replace(got, lag_products=None) == dataclasses.replace(
                want, lag_products=None
            )

    def test_bad_rows_are_refused_at_construction(self):
        with pytest.raises(TraceError):
            BlockSummary("C", "WS", "WS", "DB", 0, 0, 0.5)
        with pytest.raises(TraceError):
            BlockSummary("C", "WS", "WS", "DB", 0, 4, 0.0)
        with pytest.raises(TraceError):
            BlockSummary("C", "WS", "WS", "DB", 0, 4, 0.5, coverage="middle")

    def test_fold_requires_rows(self):
        from repro.errors import CorrelationError

        with pytest.raises(CorrelationError):
            fold_summaries([])

    def test_fold_quiet_rows_contribute_length_only(self):
        rows = [self._summary(0, [4.0, 2.0, 1.0]), self._summary(4, quiet=True)]
        series = fold_summaries(rows)
        assert series.n == 8
        assert not series.degenerate

    def test_summaries_decodes_only_rows_matching_the_key_filters(self, tmp_path):
        lake = TraceLake(tmp_path)
        lake.record_summary(self._summary(0, [1.0, 2.0, 3.0]))
        lake.record_summary(
            dataclasses.replace(self._summary(4, [4.0, 5.0, 6.0]), dst="OTHER")
        )
        lake.close()
        path = tmp_path / JOURNAL_NAME
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # the last lag value of the OTHER row
        path.write_bytes(bytes(blob))
        reopened = TraceLake(tmp_path)  # heads are intact
        # The damaged payload belongs to another key: never read.
        (only,) = reopened.summaries(client="C", root="WS", src="WS", dst="DB")
        assert only.block_start == 0
        (early,) = reopened.summaries(end=2.0)  # nor outside the span
        assert early.block_start == 0
        # The read that touches it says so -- it never folds silently.
        with pytest.raises(TraceError, match="checksum"):
            reopened.summaries(dst="OTHER")
        with pytest.raises(TraceError, match="checksum"):
            reopened.summaries()

    def test_engine_materializes_summaries_and_spill_stage(self, tmp_path):
        from repro.analysis.history import raw_span_estimate, span_estimate

        topo, _ = chain_topology()
        lake = TraceLake(tmp_path / "lake")
        sink = TraceCollector(client_nodes=["C"], retention=CFG.retention)
        engine = E2EProfEngine(CFG, capture_sink=sink, lake=lake)
        engine.attach(topo)
        topo.run_until(90.0)
        engine.close()

        stats = lake.stats()
        assert stats["spilled_records"] > 0
        assert stats["summary_rows"] > 0
        ledger = engine.ledger.latest
        assert STAGE_SPILL in ledger.stages
        assert set(PIPELINE_STAGES) <= set(ledger.stages)
        assert sink.ingest_stats()["lake"]["enabled"] is True

        est = span_estimate(lake, "C", "WS", "WS", "DB")
        assert est.source == "summaries"
        assert est.blocks > 0
        assert not est.degenerate
        raw = raw_span_estimate(lake, CFG, "C", "WS", "WS", "DB", 10.0, 55.0,
                                max_lag=1000)
        assert not raw.degenerate
        # The fold's O(max_lag/span) boundary approximation: the peak
        # delay agrees with an exact raw replay to within a few quanta.
        assert abs(est.delay - raw.delay) <= 0.02

        with pytest.raises(AnalysisError):
            span_estimate(lake, "C", "WS", "WS", "NOPE")

    def test_no_lake_means_no_spill_stage(self):
        topo, _ = chain_topology()
        engine = E2EProfEngine(CFG)
        engine.attach(topo)
        topo.run_until(30.0)
        assert STAGE_SPILL not in engine.ledger.latest.stages

    def test_collector_without_lake_reports_disabled(self):
        collector = TraceCollector(retention=31.0)
        collector.ingest_batch("A", "B", np.arange(4.0))
        assert collector.ingest_stats()["lake"] == {"enabled": False}


@pytest.mark.slow
class TestWeekSoak:
    """A week of hour-sized ingest batches through a retention-bounded
    collector spilling to a lake: flat residency, zero loss."""

    STREAMS = 2
    RATE = 5.0  # records/s per stream
    RETENTION = 61.0
    HOUR = 3600.0
    WEEK = 7 * 24 * HOUR

    def test_week_of_spill_is_flat_and_lossless(self, tmp_path):
        rng = np.random.default_rng(7)
        edges = [(f"N{i}", f"N{i + 1}") for i in range(self.STREAMS)]
        day_lo = self.WEEK / 2.0
        day_hi = day_lo + 24 * self.HOUR
        source = {edge: [] for edge in edges}
        lake = TraceLake(str(tmp_path), segment_bytes=1 << 20)
        collector = TraceCollector(retention=self.RETENTION, lake=lake)
        peak = total = 0
        for hour in range(int(self.WEEK / self.HOUR)):
            base = hour * self.HOUR
            for src, dst in edges:
                count = rng.poisson(self.RATE * self.HOUR)
                stamps = np.sort(rng.uniform(base, base + self.HOUR, count))
                collector.ingest_batch(src, dst, stamps)
                if base + self.HOUR > day_lo and base < day_hi:
                    source[(src, dst)].append(stamps)
                total += count
            collector.evict_expired()
            peak = max(peak, collector.record_count())
        # Up to retention * rate resident per stream plus one in-flight
        # hour batch; 4x slack absorbs chunk granularity.
        assert peak <= 4 * self.STREAMS * self.RATE * (self.RETENTION + self.HOUR)
        # A stitched mid-week day read is the source, bit for bit.
        for src, dst in edges:
            reference = np.concatenate(source[(src, dst)])
            reference = reference[(reference >= day_lo) & (reference < day_hi)]
            got = collector.edge_timestamps_range(src, dst, day_lo, day_hi)
            assert np.array_equal(got, np.sort(reference))
        stats = lake.stats()
        assert stats["spilled_records"] + collector.record_count() == total
        assert stats["segments"] >= 1
        lake.close()
