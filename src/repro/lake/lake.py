"""The write-behind trace lake.

:class:`TraceLake` is the collector's second storage tier.  Eviction
hands it the exact arrays leaving resident memory (:meth:`spill`); the
lake buffers them per ``(edge, side)`` stream and writes a time-indexed
``.rtb`` segment once a stream's buffer crosses ``segment_bytes`` --
classic write-behind: the hot path pays an append, the serialization
cost is batched.  :meth:`checkpoint` (called once per engine refresh)
persists any pending summary rows and atomically replaces the manifest,
so a crash loses at most the still-buffered tail -- never a cataloged
segment.

Reads are cache-aside: :meth:`query` answers from the mmap LRU over
cataloged segments *plus* the not-yet-flushed buffers, so a spilled
value is visible from the moment it leaves resident memory.  Segment
files are immutable once cataloged; compaction writes replacement
segments under fresh sequence numbers and swaps the catalog atomically,
so concurrent readers keep valid mappings throughout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import TraceError
from repro.lake.manifest import (
    LakeManifest,
    SegmentMeta,
    SummaryMeta,
    load_manifest,
    save_manifest,
)
from repro.lake.segments import SegmentMappingLRU, segment_filename, write_segment
from repro.lake.summaries import BlockSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import LakeConfig
    from repro.obs.registry import MetricsRegistry

#: (src, dst, observed_at_destination)
StreamKey = Tuple[str, str, bool]

#: Default per-stream buffer threshold before a segment is cut (bytes of
#: float64 payload).  Small enough that an idle stream's tail reaches
#: disk within a few refreshes under modest traffic, large enough that a
#: busy stream amortizes the file + manifest cost over ~32k records.
DEFAULT_SEGMENT_BYTES = 256 * 1024

#: Pending summary rows buffered before a summary file is cut.
DEFAULT_SUMMARY_ROWS = 512


class TraceLake:
    """Tiered spill store under one directory (see module docstring).

    Parameters
    ----------
    root:
        Lake directory; created if missing.  One lake per collector.
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
        summary_rows: int = DEFAULT_SUMMARY_ROWS,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if segment_bytes < 8:
            raise TraceError(f"segment_bytes must be >= 8, got {segment_bytes}")
        if summary_rows < 1:
            raise TraceError(f"summary_rows must be >= 1, got {summary_rows}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.summary_rows = int(summary_rows)
        self._lock = threading.RLock()
        self._manifest = load_manifest(self.root)
        self._manifest_dirty = False
        self._mappings = SegmentMappingLRU(self.root, capacity=mapping_cache)
        self._buffers: Dict[StreamKey, List[np.ndarray]] = {}
        self._buffer_bytes: Dict[StreamKey, int] = {}
        self._pending_summaries: List[BlockSummary] = []
        # One persisted spectrum per (class, block): the same reference
        # block pairs with many signal edges, but its rfft is identical
        # across them.
        self._spectra_seen: Set[Tuple[str, str, int]] = set()
        self.segments_written = 0
        self.spilled_records = 0
        self.spilled_bytes = 0
        self.summary_rows_written = 0
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
        seq = self._manifest.next_seq
        self._manifest.next_seq += 1
        path = segment_filename(seq)
        info = write_segment(self.root / path, src, dst, side, values)
        meta = SegmentMeta(
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
        self._manifest.segments.append(meta)
        self._manifest_dirty = True
        self.segments_written += 1
        self.spilled_records += info.count
        self.spilled_bytes += info.nbytes
        if self._m_segments is not None:
            self._m_segments.inc()
            self._m_records.inc(info.count)
            self._m_bytes.inc(info.nbytes)
        return meta

    def record_summary(self, summary: BlockSummary) -> None:
        """Buffer one materialized correlation summary row."""
        with self._lock:
            if summary.spectrum is not None:
                spec_key = (summary.client, summary.root, summary.block_start)
                if spec_key in self._spectra_seen:
                    summary = dataclasses.replace(
                        summary, spectrum=None, spectrum_size=None
                    )
                else:
                    self._spectra_seen.add(spec_key)
            self._pending_summaries.append(summary)
            if len(self._pending_summaries) >= self.summary_rows:
                self._cut_summaries()

    def _cut_summaries(self) -> Optional[SummaryMeta]:
        """Persist the pending summary rows as one JSON file (lock held)."""
        rows = self._pending_summaries
        if not rows:
            return None
        self._pending_summaries = []
        seq = self._manifest.next_seq
        self._manifest.next_seq += 1
        path = f"sum-{seq:08d}.json"
        payload = json.dumps([row.to_dict() for row in rows]) + "\n"
        full = self.root / path
        tmp = full.with_name(full.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, full)
        meta = SummaryMeta(
            seq=seq,
            path=path,
            count=len(rows),
            t_min=min(row.t_min for row in rows),
            t_max=max(row.t_max for row in rows),
            nbytes=len(payload.encode("utf-8")),
            coverage=any(row.coverage for row in rows),
        )
        self._manifest.summaries.append(meta)
        self._manifest_dirty = True
        self.summary_rows_written += len(rows)
        if self._m_rows is not None:
            self._m_rows.inc(len(rows))
        return meta

    def advance_frontier(self, quantum: int) -> None:
        """Declare summary coverage complete through ``quantum`` (every
        earlier covered block without a row was quiet); persisted by the
        next :meth:`checkpoint`."""
        with self._lock:
            if self.frontier is None or quantum > self.frontier:
                self._manifest.frontier = int(quantum)
                self._manifest_dirty = True

    def checkpoint(self) -> None:
        """Persist pending summaries and the manifest if anything changed.

        The engine calls this once per refresh; segment buffers below the
        write-behind threshold stay buffered (that is the point), so a
        crash loses only the uncommitted tail.
        """
        started = time.perf_counter()
        with self._lock:
            if self._pending_summaries:
                self._cut_summaries()
            if self._manifest_dirty:
                save_manifest(self.root, self._manifest)
                self._manifest_dirty = False
        self._spill_seconds += time.perf_counter() - started

    def flush(self) -> int:
        """Force every buffered stream and summary to disk; returns the
        number of segments cut."""
        started = time.perf_counter()
        with self._lock:
            before = self.segments_written
            for key in sorted(self._buffers):
                self._cut_segment(key)
            self._cut_summaries()
            if self._manifest_dirty:
                save_manifest(self.root, self._manifest)
                self._manifest_dirty = False
            cut = self.segments_written - before
        self._spill_seconds += time.perf_counter() - started
        return cut

    def close(self) -> None:
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
            return list(self._manifest.segments)

    def summary_files(self) -> List[SummaryMeta]:
        with self._lock:
            return list(self._manifest.summaries)

    @property
    def frontier(self) -> Optional[int]:
        """Quantum through which summary coverage is complete, if any."""
        return self._manifest.frontier

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
                for m in self._manifest.segments
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
            keys = {m.stream for m in self._manifest.segments}
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

        Only files overlapping the span or holding markers are read and
        only rows matching the key filters decoded; pending (unflushed)
        rows are included, so no query needs an explicit flush.
        """
        keys = (("client", client), ("root", root), ("src", src), ("dst", dst))
        wanted = [(name, value) for name, value in keys if value is not None]
        with self._lock:
            metas = [
                m
                for m in self._manifest.summaries
                if m.coverage or (m.t_max >= start and m.t_min < end)
            ]
            pending = list(self._pending_summaries)
        rows: List[BlockSummary] = []
        for meta in metas:
            path = self.root / meta.path
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError as exc:
                raise TraceError(
                    f"{path}: summary file in manifest but missing on disk"
                ) from exc
            except ValueError as exc:
                raise TraceError(f"{path}: summary file is not valid JSON: {exc}") from exc
            if not isinstance(data, list) or len(data) != meta.count:
                raise TraceError(
                    f"{path}: summary file does not match manifest entry "
                    f"seq {meta.seq}"
                )
            for entry in data:
                # A row lacking a key field falls through to from_dict,
                # which rejects it; only mismatches skip the decode.
                if isinstance(entry, dict) and any(
                    str(entry.get(name, value)) != value for name, value in wanted
                ):
                    continue
                rows.append(BlockSummary.from_dict(entry))
        rows.extend(pending)
        out = [
            row
            for row in rows
            if all(getattr(row, name) == value for name, value in wanted)
            and (row.coverage or (row.t_max > start and row.t_min < end))
        ]
        out.sort(key=lambda r: (r.block_start, r.client, r.root, r.src, r.dst))
        return out

    # -- maintenance -----------------------------------------------------------

    def compact(self, target_bytes: Optional[int] = None) -> int:
        """Merge small segments per stream; returns merges done.

        Each stream's segments (in sequence order, which is spill-time
        order) are rewritten as fewer, larger segments while their
        combined payload stays under ``target_bytes`` (default
        ``4 * segment_bytes``).  Replacement segments get fresh sequence
        numbers and the manifest is swapped atomically, so concurrent
        readers see either the old or the new catalog; the old files are
        unlinked afterwards (their mappings stay valid for any query
        still holding them).  Orphaned segment files -- left by a crash
        between segment write and manifest save -- are removed too.
        """
        if target_bytes is None:
            target_bytes = 4 * self.segment_bytes
        with self._lock:
            by_stream: Dict[StreamKey, List[SegmentMeta]] = {}
            for meta in self._manifest.segments:
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
                seq = self._manifest.next_seq
                self._manifest.next_seq += 1
                path = segment_filename(seq)
                info = write_segment(self.root / path, src, dst, side, values)
                new_catalog.append(
                    SegmentMeta(
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
                )
                replaced.extend(group)
                merged += 1
            if merged:
                new_catalog.sort(key=lambda m: m.seq)
                self._manifest.segments = new_catalog
                save_manifest(self.root, self._manifest)
                self._manifest_dirty = False
                for meta in replaced:
                    self._mappings.invalidate(meta.path)
                    try:
                        (self.root / meta.path).unlink()
                    except OSError:
                        pass
            cataloged = {m.path for m in self._manifest.segments}
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
            pending_rows = len(self._pending_summaries)
            segments = len(self._manifest.segments)
            summary_files = len(self._manifest.summaries)
        return {
            "enabled": True,
            "root": str(self.root),
            "segments": segments,
            "segments_written": self.segments_written,
            "spilled_records": self.spilled_records,
            "spilled_bytes": self.spilled_bytes,
            "buffered_records": buffered_records,
            "summary_files": summary_files,
            "summary_rows": self.summary_rows_written,
            "pending_summary_rows": pending_rows,
            "mapping_hits": self._mappings.hits,
            "mapping_misses": self._mappings.misses,
            "mapping_hit_rate": self._mappings.hit_rate,
            "open_mappings": len(self._mappings),
        }
