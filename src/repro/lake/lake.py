"""The write-behind trace lake.

:class:`TraceLake` is the collector's second storage tier.  Eviction
hands it the exact arrays leaving resident memory (:meth:`spill`); the
lake buffers them per ``(edge, side)`` stream and writes a time-indexed
``.rtb`` segment once a stream's buffer crosses ``segment_bytes`` --
classic write-behind: the hot path pays an append, the serialization
cost is batched.  :meth:`checkpoint` (called once per engine refresh)
appends the pending summary rows and the catalog delta to the journal
(:mod:`repro.lake.journal`) as one fsync'd record, so a crash loses at
most the still-buffered tail -- never a cataloged segment.

Reads are cache-aside: :meth:`query` answers from the mmap LRU over
cataloged segments *plus* the not-yet-flushed buffers, so a spilled
value is visible from the moment it leaves resident memory.  Segment
files are immutable once cataloged; compaction writes replacement
segments under fresh sequence numbers and swaps the catalog with one
journal record, so concurrent readers keep valid mappings throughout.
"""

from __future__ import annotations

import collections
import itertools
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.lake.journal import (
    INDEX_DTYPE,
    JOURNAL_MAGIC,
    JOURNAL_NAME,
    JournalRecord,
    SegmentMeta,
    SummaryKey,
    encode_record,
    index_entries,
    read_row,
    scan_journal,
)
from repro.lake.segments import SegmentMappingLRU, segment_filename, write_segment
from repro.lake.summaries import BlockSummary, SummaryBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import LakeConfig
    from repro.obs.registry import MetricsRegistry

#: (src, dst, observed_at_destination)
StreamKey = Tuple[str, str, bool]

#: Default per-stream buffer threshold before a segment is cut (bytes of
#: float64 payload).  Small enough that an idle stream's tail reaches
#: disk within a few refreshes under modest traffic, large enough that a
#: busy stream amortizes the file + catalog cost over ~32k records.
DEFAULT_SEGMENT_BYTES = 256 * 1024


class TraceLake:
    """Tiered spill store under one directory (see module docstring).

    Parameters
    ----------
    root:
        Lake directory; created if missing.  One lake per collector.  A
        directory in the v1 format (``manifest.json``) or with a damaged
        journal raises :class:`~repro.errors.TraceError`.
    segment_bytes:
        Per-stream write-behind buffer threshold.
    mapping_cache:
        LRU capacity (open segment mappings) of the read path.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving
        ``lake_segments_total``, ``lake_spilled_records_total``,
        ``lake_spilled_bytes_total``, ``lake_summary_rows_total`` and the
        ``lake_mapping_hits_total`` / ``lake_mapping_misses_total`` pair.
    """

    def __init__(
        self,
        root: "os.PathLike[str]",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        mapping_cache: int = 64,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if segment_bytes < 8:
            raise TraceError(f"segment_bytes must be >= 8, got {segment_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self._lock = threading.RLock()
        self._mappings = SegmentMappingLRU(self.root, capacity=mapping_cache)
        self._buffers: Dict[StreamKey, List[np.ndarray]] = {}
        self._buffer_bytes: Dict[StreamKey, int] = {}
        # Catalog: the journaled state plus what the next record will add.
        self._segments: List[SegmentMeta] = []
        self._new_segments: List[SegmentMeta] = []
        self._next_seq = 0
        self._frontier: Optional[int] = None
        self._frontier_dirty = False
        self._pending_summaries: List[SummaryBatch] = []
        # Journaled rows: per key, packed INDEX_DTYPE entries in write order.
        self._index: Dict[SummaryKey, bytearray] = collections.defaultdict(bytearray)
        self._summary_batches = 0
        self._summary_rows = 0
        self._journal_end = 0
        for record in scan_journal(self.root):
            if record.replace:
                self._segments = []
            self._segments.extend(record.segments)
            self._next_seq = record.next_seq
            self._frontier = record.frontier
            self._index_rows(record)
        seqs = [m.seq for m in self._segments]
        if len(set(seqs)) != len(seqs) or (seqs and self._next_seq <= max(seqs)):
            raise TraceError(f"{self.root}: lake journal catalogs a sequence twice")
        # Bytes past the last whole record: a frame cut off by a crash (or,
        # later, by a failed append), truncated away by the next append.
        journal = self.root / JOURNAL_NAME
        self._journal_torn = (
            journal.exists() and journal.stat().st_size != self._journal_end
        )
        self.segments_written = 0
        self.spilled_records = 0
        self.spilled_bytes = 0
        self._spill_seconds = 0.0
        if metrics is not None:
            self._m_segments = metrics.counter(
                "lake_segments_total", "Spill segments written to the trace lake"
            )
            self._m_records = metrics.counter(
                "lake_spilled_records_total",
                "Capture records spilled to the trace lake",
            )
            self._m_bytes = metrics.counter(
                "lake_spilled_bytes_total",
                "Segment bytes written to the trace lake",
            )
            self._m_rows = metrics.counter(
                "lake_summary_rows_total",
                "Materialized correlation summary rows persisted",
            )
            self._m_hits = metrics.counter(
                "lake_mapping_hits_total",
                "Historical reads served from the open-segment mapping LRU",
            )
            self._m_misses = metrics.counter(
                "lake_mapping_misses_total",
                "Historical reads that opened a new segment mapping",
            )
        else:
            self._m_segments = None
            self._m_records = None
            self._m_bytes = None
            self._m_rows = None
            self._m_hits = None
            self._m_misses = None
        self._mapping_synced = (0, 0)

    @classmethod
    def from_config(
        cls, config: "LakeConfig", metrics: Optional["MetricsRegistry"] = None
    ) -> "TraceLake":
        """Build a lake from a :class:`~repro.config.LakeConfig`."""
        if config.root is None:
            raise TraceError("LakeConfig.root is unset; nowhere to spill")
        return cls(
            config.root,
            segment_bytes=config.segment_bytes,
            mapping_cache=config.mapping_cache,
            metrics=metrics,
        )

    # -- write-behind spill ----------------------------------------------------

    def spill(
        self,
        src: str,
        dst: str,
        observed_at_destination: bool,
        values: np.ndarray,
    ) -> None:
        """Accept one evicted timestamp array for a stream (write-behind).

        O(1) append to the stream's buffer; crossing ``segment_bytes``
        cuts a segment inline (that is the batched serialization cost the
        refresh ledger's ``spill`` stage accounts).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        started = time.perf_counter()
        key = (src, dst, bool(observed_at_destination))
        with self._lock:
            self._buffers.setdefault(key, []).append(values)
            total = self._buffer_bytes.get(key, 0) + values.nbytes
            self._buffer_bytes[key] = total
            if total >= self.segment_bytes:
                self._cut_segment(key)
        self._spill_seconds += time.perf_counter() - started

    def _cut_segment(self, key: StreamKey) -> Optional[SegmentMeta]:
        """Write one stream's buffered arrays as a cataloged segment.

        Caller holds the lock.  Eviction hands over chunks in time order
        (the columnar store is globally sorted), so the concatenation is
        written as-is; the read path never assumes intra-segment order.
        """
        parts = self._buffers.pop(key, None)
        self._buffer_bytes.pop(key, None)
        if not parts:
            return None
        values = parts[0] if len(parts) == 1 else np.concatenate(parts)
        src, dst, side = key
        meta = self._write_segment(src, dst, side, values)
        self._segments.append(meta)
        self._new_segments.append(meta)
        self.segments_written += 1
        self.spilled_records += meta.count
        self.spilled_bytes += meta.nbytes
        if self._m_segments is not None:
            self._m_segments.inc()
            self._m_records.inc(meta.count)
            self._m_bytes.inc(meta.nbytes)
        return meta

    def _write_segment(
        self, src: str, dst: str, side: bool, values: np.ndarray
    ) -> SegmentMeta:
        """Write ``values`` as the next-numbered segment file (lock held);
        the caller catalogs the returned entry."""
        seq = self._next_seq
        self._next_seq += 1
        path = segment_filename(seq)
        info = write_segment(self.root / path, src, dst, side, values)
        return SegmentMeta(
            seq=seq,
            path=path,
            src=src,
            dst=dst,
            observed_at_destination=side,
            t_min=info.t_min,
            t_max=info.t_max,
            count=info.count,
            crc=info.crc,
            nbytes=info.nbytes,
        )

    def record_summary(self, summary: Union[BlockSummary, SummaryBatch]) -> None:
        """Buffer materialized correlation summary rows -- one row, or a
        columnar batch of them (memory only: the next :meth:`checkpoint`
        journals them)."""
        if isinstance(summary, BlockSummary):
            summary = SummaryBatch.of(summary)
        with self._lock:
            self._pending_summaries.append(summary)

    def advance_frontier(self, quantum: int) -> None:
        """Declare summary coverage complete through ``quantum`` (every
        earlier covered block without a row was quiet); persisted by the
        next :meth:`checkpoint`."""
        with self._lock:
            if self._frontier is None or quantum > self._frontier:
                self._frontier = int(quantum)
                self._frontier_dirty = True

    def _append(self, replace: bool = False) -> None:
        """Journal everything pending as one record with one fsync (lock
        held).  ``replace`` swaps the whole segment catalog in."""
        batches = self._pending_summaries
        segments = self._segments if replace else self._new_segments
        if not (replace or batches or segments or self._frontier_dirty):
            return
        offset = self._journal_end or len(JOURNAL_MAGIC)
        record, buffers = encode_record(
            offset, batches, segments, self._next_seq, self._frontier, replace
        )
        if not self._journal_end:
            buffers = itertools.chain([JOURNAL_MAGIC], buffers)
        # Buffered, so a usual record is one write and a burst of lag rows
        # (every correlator's first eviction) streams without a second copy.
        with open(self.root / JOURNAL_NAME, "ab", buffering=1 << 20) as handle:
            if self._journal_torn:
                handle.truncate(self._journal_end)
            # Until the fsync returns, part of the frame may be on disk.
            self._journal_torn = True
            handle.writelines(buffers)
            handle.flush()
            os.fsync(handle.fileno())
            self._journal_torn = False
        self._index_rows(record)
        self._pending_summaries = []
        self._new_segments = []
        self._frontier_dirty = False
        if self._m_rows is not None:
            self._m_rows.inc(len(record.table))

    def _index_rows(self, record: JournalRecord) -> None:
        """Account one journaled record's rows (at open and on append)."""
        for key, entry in index_entries(record):
            self._index[key] += entry
        self._summary_batches += bool(len(record.table))
        self._summary_rows += len(record.table)
        self._journal_end = record.end

    def checkpoint(self) -> None:
        """Journal pending summaries and catalog changes, if there are any.

        The engine calls this once per refresh; segment buffers below the
        write-behind threshold stay buffered (that is the point), so a
        crash loses only the uncommitted tail.  When it returns,
        everything recorded before it is on disk.
        """
        started = time.perf_counter()
        with self._lock:
            self._append()
        self._spill_seconds += time.perf_counter() - started

    def flush(self) -> int:
        """Force every buffered stream and summary to disk; returns the
        number of segments cut."""
        started = time.perf_counter()
        with self._lock:
            before = self.segments_written
            for key in sorted(self._buffers):
                self._cut_segment(key)
            self._append()
            cut = self.segments_written - before
        self._spill_seconds += time.perf_counter() - started
        return cut

    def close(self) -> None:
        """:meth:`flush`; the lake holds no file open between calls."""
        self.flush()

    def drain_spill_seconds(self) -> float:
        """Spill time accumulated since the last drain (ledger stage)."""
        seconds = self._spill_seconds
        self._spill_seconds = 0.0
        return seconds

    # -- cache-aside reads -----------------------------------------------------

    def segments(self) -> List[SegmentMeta]:
        """Catalog snapshot, in sequence order."""
        with self._lock:
            return list(self._segments)

    @property
    def frontier(self) -> Optional[int]:
        """Quantum through which summary coverage is complete, if any."""
        return self._frontier

    def query(
        self,
        src: str,
        dst: str,
        observed_at_destination: bool,
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> np.ndarray:
        """Every spilled timestamp of one stream in ``[start, end)``.

        Stitches cataloged segments (through the mapping LRU) with the
        stream's not-yet-flushed write-behind buffer, so the answer is
        complete the moment eviction ran.  The result is an owned array
        in segment order, not globally sorted -- callers stitching with
        resident data sort the concatenation once.
        """
        key: StreamKey = (src, dst, bool(observed_at_destination))
        with self._lock:
            metas = [
                m
                for m in self._segments
                if m.stream == key and m.t_max >= start and m.t_min < end
            ]
            buffered = list(self._buffers.get(key, ()))
        parts: List[np.ndarray] = []
        for meta in metas:
            arr = self._mappings.get(meta)
            if start <= meta.t_min and meta.t_max < end:
                parts.append(arr)
            else:
                parts.append(arr[(arr >= start) & (arr < end)])
        for arr in buffered:
            parts.append(arr[(arr >= start) & (arr < end)])
        self._sync_mapping_metrics()
        if not parts:
            return np.empty(0, dtype=np.float64)
        out = np.concatenate(parts) if len(parts) > 1 else np.array(parts[0])
        return out

    def streams(self) -> List[StreamKey]:
        """Every stream with spilled data (cataloged or buffered)."""
        with self._lock:
            keys = {m.stream for m in self._segments}
            keys.update(self._buffers)
        return sorted(keys)

    def summaries(
        self,
        client: Optional[str] = None,
        root: Optional[str] = None,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> List[BlockSummary]:
        """Materialized summary rows matching the filters, by block start
        (ties in write order): those overlapping ``[start, end)`` plus
        every coverage marker, which bears on all later spans.

        The index picks the wanted keys' overlapping rows and only those
        are read from the journal (a damaged one raises
        :class:`~repro.errors.TraceError`); pending rows are included, so
        no query needs an explicit flush.
        """
        wanted = (client, root, src, dst)

        def matches(key) -> bool:
            return all(w is None or w == k for w, k in zip(wanted, key))

        rows: List[BlockSummary] = []
        with self._lock:
            if None in wanted:
                keys = [key for key in self._index if matches(key)]
            else:
                keys = [wanted] if wanted in self._index else []
            if keys:
                rows.extend(self._journaled(keys, start, end))
            rows.extend(
                row
                for batch in self._pending_summaries
                for row in batch.summaries()
                if matches((row.client, row.root, row.src, row.dst))
                and (row.coverage or (row.t_max > start and row.t_min < end))
            )
        rows.sort(key=lambda r: (r.block_start, r.client, r.root, r.src, r.dst))
        return rows

    def _journaled(
        self, keys: List[SummaryKey], start: float, end: float
    ) -> Iterator[BlockSummary]:
        """The journaled rows of ``keys`` that the index places in the span
        or marks as coverage markers, key by key in write order (lock held)."""
        try:
            with open(self.root / JOURNAL_NAME, "rb") as handle:
                for key in keys:
                    entries = np.frombuffer(bytes(self._index[key]), dtype=INDEX_DTYPE)
                    keep = (entries["marker"] != 0) | (
                        (entries["t_max"] > start) & (entries["t_min"] < end)
                    )
                    for offset in entries["offset"][keep].tolist():
                        yield read_row(handle.fileno(), key, offset)
        except OSError as exc:
            raise TraceError(f"{self.root}: cannot read lake journal: {exc}") from exc

    # -- maintenance -----------------------------------------------------------

    def compact(self, target_bytes: Optional[int] = None) -> int:
        """Merge small segments per stream; returns merges done.

        Each stream's segments (in sequence order, which is spill-time
        order) are rewritten as fewer, larger segments while their
        combined payload stays under ``target_bytes`` (default
        ``4 * segment_bytes``).  Replacement segments get fresh sequence
        numbers and one journal record replaces the catalog, so a reader
        or a crash sees either the old or the new one; the old files are
        unlinked afterwards (their mappings stay valid for any query
        still holding them).  Orphaned segment files -- left by a crash
        between segment write and checkpoint -- are removed too.
        """
        if target_bytes is None:
            target_bytes = 4 * self.segment_bytes
        with self._lock:
            by_stream: Dict[StreamKey, List[SegmentMeta]] = {}
            for meta in self._segments:
                by_stream.setdefault(meta.stream, []).append(meta)
            groups: List[List[SegmentMeta]] = []
            for metas in by_stream.values():
                run: List[SegmentMeta] = []
                run_bytes = 0
                for meta in metas:
                    if run and run_bytes + meta.nbytes <= target_bytes:
                        run.append(meta)
                        run_bytes += meta.nbytes
                    else:
                        if run:
                            groups.append(run)
                        run = [meta]
                        run_bytes = meta.nbytes
                if run:
                    groups.append(run)
            merged = 0
            new_catalog: List[SegmentMeta] = []
            replaced: List[SegmentMeta] = []
            for group in groups:
                if len(group) == 1:
                    new_catalog.append(group[0])
                    continue
                src, dst, side = group[0].stream
                values = np.concatenate([self._mappings.get(m) for m in group])
                new_catalog.append(self._write_segment(src, dst, side, values))
                replaced.extend(group)
                merged += 1
            if merged:
                new_catalog.sort(key=lambda m: m.seq)
                self._segments = new_catalog
                self._append(replace=True)
                for meta in replaced:
                    self._mappings.invalidate(meta.path)
                    try:
                        (self.root / meta.path).unlink()
                    except OSError:
                        pass
            cataloged = {m.path for m in self._segments}
            for orphan in self.root.glob("seg-*.rtb"):
                if orphan.name not in cataloged:
                    try:
                        orphan.unlink()
                    except OSError:
                        pass
        return merged

    # -- introspection ---------------------------------------------------------

    def _sync_mapping_metrics(self) -> None:
        if self._m_hits is None:
            return
        hits, misses = self._mappings.hits, self._mappings.misses
        last_hits, last_misses = self._mapping_synced
        if hits > last_hits:
            self._m_hits.inc(hits - last_hits)
        if misses > last_misses:
            self._m_misses.inc(misses - last_misses)
        self._mapping_synced = (hits, misses)

    def stats(self) -> dict:
        """JSON-able lake health snapshot (``repro stats --ingest``)."""
        with self._lock:
            buffered_records = sum(
                sum(a.size for a in parts) for parts in self._buffers.values()
            )
            pending_rows = sum(len(batch) for batch in self._pending_summaries)
            segments = len(self._segments)
        return {
            "enabled": True,
            "root": str(self.root),
            "segments": segments,
            "segments_written": self.segments_written,
            "spilled_records": self.spilled_records,
            "spilled_bytes": self.spilled_bytes,
            "buffered_records": buffered_records,
            "summary_batches": self._summary_batches,
            "summary_rows": self._summary_rows,
            "pending_summary_rows": pending_rows,
            "journal_bytes": self._journal_end,
            "mapping_hits": self._mappings.hits,
            "mapping_misses": self._mappings.misses,
            "mapping_hit_rate": self._mappings.hit_rate,
            "open_mappings": len(self._mappings),
        }
