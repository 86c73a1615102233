"""Central trace collector / analyzer-side trace assembly (Section 3.6).

The collector is the analysis node: it receives capture records (or
streamed RLE blocks) from every per-node tracer, and can materialize
:class:`~repro.core.pathmap.TraceWindow` views over any time range for the
pathmap algorithm.

Edge signal selection: for an edge ``x -> y``, the analysis wants the
series timestamped at the **destination** (``T^y_{x->y}``, Algorithm 1).
Client nodes are never traced ("those are usually beyond the reach of
enterprises"), so edges touching a client fall back to the server-side
capture: ``client -> frontend`` uses the front end's receive timestamps,
``frontend -> client`` uses the front end's send timestamps.

Ingest path
-----------

Online black-box tracing lives or dies on ingest throughput and trace
volume, so the collector stores each ``(edge, side)`` stream columnar:
a list of **sorted float64 chunks** plus a small unsorted pending tail.
New captures (single timestamps or whole batches) land in the tail in
O(1); the first query sorts the tail once with ``np.sort`` and merges it
with only the sorted chunks it overlaps, so roughly-ordered arrivals --
the steady state of a live capture stream -- never trigger a global
re-sort. Window materialization and :meth:`TraceCollector.edge_timestamps`
are then array concatenations and ``np.searchsorted`` slices.

Retention: pass ``retention=<seconds>`` (for example
``config.retention_horizon``) and the collector evicts whole chunks older
than ``newest seen - retention`` in O(chunks), keeping resident memory
flat under sustained load (``collector_records_evicted_total`` counter,
``collector_resident_records`` gauge).
"""

from __future__ import annotations

import logging
from functools import partial
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import PathmapConfig
from repro.core.pathmap import TraceWindow
from repro.core.rle import rle_encode
from repro.core.timeseries import build_density_series
from repro.errors import TraceError
from repro.tracing.records import CaptureRecord, NodeId, TimestampBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lake import TraceLake
    from repro.obs.registry import MetricsRegistry

logger = logging.getLogger(__name__)

EdgeKey = Tuple[NodeId, NodeId]

#: Shared empty-stream sentinel; ``edge_timestamps`` on a never-captured
#: edge returns this exact array from both sides, preserving the
#: ``source is dest`` one-sided-capture check in clock-skew estimation.
_EMPTY = np.empty(0, dtype=np.float64)
_EMPTY.setflags(write=False)

#: How many per-record ingests may pass between retention sweeps.
_EVICT_STRIDE = 4096


class _ColumnarStore:
    """Columnar timestamp store for one ``(edge, side)`` stream.

    ``chunks`` is a list of sorted float64 arrays whose concatenation is
    globally sorted (chunk maxima non-decreasing, ranges non-overlapping).
    Appends and batch extends go to an unsorted pending tail;
    :meth:`consolidate` sorts the tail once and merges it with only the
    trailing chunks it overlaps, so a mostly-ordered stream costs one
    bounded ``np.sort`` per consolidation instead of a global re-sort.
    """

    __slots__ = (
        "chunks", "_tail_scalars", "_tail_arrays", "count", "_cache", "sorts",
    )

    def __init__(self) -> None:
        self.chunks: List[np.ndarray] = []
        self._tail_scalars: List[float] = []
        self._tail_arrays: List[np.ndarray] = []
        self.count = 0
        self._cache: Optional[np.ndarray] = None
        self.sorts = 0

    def append(self, timestamp: float) -> None:
        self._tail_scalars.append(timestamp)
        self.count += 1
        self._cache = None

    def extend(self, values: np.ndarray) -> None:
        if values.size:
            self._tail_arrays.append(values)
            self.count += values.size
            self._cache = None

    @property
    def pending(self) -> int:
        return len(self._tail_scalars) + sum(a.size for a in self._tail_arrays)

    def consolidate(self) -> None:
        """Fold the pending tail into the sorted chunk list."""
        if not self._tail_scalars and not self._tail_arrays:
            return
        parts: List[np.ndarray] = []
        if self._tail_scalars:
            parts.append(np.asarray(self._tail_scalars, dtype=np.float64))
        parts.extend(self._tail_arrays)
        fresh = parts[0] if len(parts) == 1 else np.concatenate(parts)
        fresh = np.sort(fresh)
        self.sorts += 1
        self._tail_scalars = []
        self._tail_arrays = []
        # Merge only the sorted chunks the fresh batch overlaps; an
        # in-order stream appends a new chunk without touching history.
        overlap: List[np.ndarray] = []
        while self.chunks and self.chunks[-1][-1] > fresh[0]:
            overlap.append(self.chunks.pop())
        if overlap:
            overlap.reverse()
            fresh = np.sort(np.concatenate(overlap + [fresh]))
            self.sorts += 1
        self.chunks.append(fresh)

    def array(self) -> np.ndarray:
        """The stream as one sorted array (cached until the next write)."""
        if self._cache is None:
            self.consolidate()
            if not self.chunks:
                self._cache = _EMPTY
            elif len(self.chunks) == 1:
                self._cache = self.chunks[0]
            else:
                self._cache = np.concatenate(self.chunks)
        return self._cache

    def evict_before(self, cutoff: float, sink=None) -> int:
        """Drop timestamps ``< cutoff``; whole stale chunks in O(chunks),
        plus one boundary-chunk slice. Returns how many were dropped.

        ``sink`` optionally receives every dropped array (whole chunks,
        then the boundary prefix) before it leaves the store -- the trace
        lake's write-behind hook. Dropped arrays are sorted and, across
        successive evictions, non-overlapping: a value is handed to the
        sink exactly once, which is what makes stitched lake + resident
        reads bit-identical to an unbounded store.
        """
        self.consolidate()
        dropped = 0
        keep = 0
        for chunk in self.chunks:
            if chunk[-1] >= cutoff:
                break
            dropped += chunk.size
            keep += 1
        if keep:
            if sink is not None:
                for chunk in self.chunks[:keep]:
                    sink(chunk)
            del self.chunks[:keep]
        if self.chunks:
            first = self.chunks[0]
            idx = int(np.searchsorted(first, cutoff, side="left"))
            if idx:
                if sink is not None:
                    sink(first[:idx].copy())
                # Copy, not a view: a view pins the stale prefix in memory.
                self.chunks[0] = first[idx:].copy()
                dropped += idx
        if dropped:
            self.count -= dropped
            self._cache = None
        return dropped




class TraceCollector:
    """Accumulates capture records and serves analysis windows.

    Parameters
    ----------
    client_nodes:
        Ids of client nodes. Per the paper's first assumption, the front
        end knows which clients map to which service classes, so the
        analyzer is configured with the client set (it is the only
        non-black-box input).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving
        ``collector_records_ingested_total``,
        ``collector_batches_ingested_total``,
        ``collector_records_evicted_total``, the
        ``collector_resident_records`` gauge and
        ``collector_windows_total``.
    retention:
        Optional horizon in seconds. When set, timestamps older than
        ``newest seen - retention`` are evicted (whole chunks at a time),
        so resident memory stays flat under sustained load. None (the
        default) retains everything. See
        :attr:`~repro.config.PathmapConfig.retention_horizon` for the
        analysis-safe default horizon.
    lake:
        Optional :class:`~repro.lake.TraceLake`. When attached alongside
        ``retention``, evicted arrays are spilled to the lake instead of
        discarded, and historical reads (:meth:`window` with a start
        before the resident horizon, :meth:`edge_timestamps_range`)
        transparently stitch lake segments with resident chunks.
    """

    def __init__(
        self,
        client_nodes: Iterable[NodeId] = (),
        metrics: Optional["MetricsRegistry"] = None,
        retention: Optional[float] = None,
        lake: Optional["TraceLake"] = None,
    ) -> None:
        self._clients: Set[NodeId] = set(client_nodes)
        if retention is not None and not retention > 0:
            raise TraceError(f"retention must be positive, got {retention}")
        self.retention = retention
        self.lake = lake
        # (src, dst) -> timestamp store, per observing side.
        self._at_src: Dict[EdgeKey, _ColumnarStore] = {}
        self._at_dst: Dict[EdgeKey, _ColumnarStore] = {}
        self._max_seen = float("-inf")
        self._records_ingested = 0
        self._batches_ingested = 0
        self._records_evicted = 0
        self._since_evict = 0
        if metrics is not None:
            self._m_records = metrics.counter(
                "collector_records_ingested_total",
                "Capture records ingested by the trace collector",
            )
            self._m_batches = metrics.counter(
                "collector_batches_ingested_total",
                "Timestamp batches ingested by the trace collector",
            )
            self._m_evicted = metrics.counter(
                "collector_records_evicted_total",
                "Capture records evicted past the retention horizon",
            )
            self._m_resident = metrics.gauge(
                "collector_resident_records",
                "Capture records currently resident in the trace collector",
            )
            self._m_windows = metrics.counter(
                "collector_windows_total",
                "Analysis windows materialized by the trace collector",
            )
        else:
            self._m_records = None
            self._m_batches = None
            self._m_evicted = None
            self._m_resident = None
            self._m_windows = None

    # -- ingestion -------------------------------------------------------------

    def add_client(self, node: NodeId) -> None:
        self._clients.add(node)

    @property
    def clients(self) -> Set[NodeId]:
        return set(self._clients)

    def _store(self, key: EdgeKey, at_destination: bool) -> _ColumnarStore:
        stores = self._at_dst if at_destination else self._at_src
        store = stores.get(key)
        if store is None:
            store = _ColumnarStore()
            stores[key] = store
        return store

    def ingest(self, record: CaptureRecord) -> None:
        """Add one capture record."""
        self.ingest_point(
            record.timestamp, record.src, record.dst, record.observed_at_destination
        )

    def ingest_point(
        self,
        timestamp: float,
        src: NodeId,
        dst: NodeId,
        observed_at_destination: bool = True,
    ) -> None:
        """Add one capture without materializing a :class:`CaptureRecord`.

        The record-object path (:meth:`ingest`) funnels here; the
        simulation fabric's trace sink calls it once per traced packet.
        """
        stores = self._at_dst if observed_at_destination else self._at_src
        store = stores.get((src, dst))
        if store is None:
            if src == dst:
                raise TraceError(f"self-loop packet at {src!r}")
            store = self._store((src, dst), observed_at_destination)
        store.append(timestamp)
        self._records_ingested += 1
        if timestamp > self._max_seen:
            self._max_seen = timestamp
        if self._m_records is not None:
            self._m_records.inc()
        if self.retention is not None:
            self._since_evict += 1
            if self._since_evict >= _EVICT_STRIDE:
                self.evict_expired()

    def ingest_many(self, records: Iterable[CaptureRecord]) -> int:
        """Add many capture records; returns how many were ingested.

        Metrics are updated once per call, not once per record.
        """
        count = 0
        max_seen = self._max_seen
        for record in records:
            ts = record.timestamp
            self._store(record.edge, record.observed_at_destination).append(ts)
            if ts > max_seen:
                max_seen = ts
            count += 1
        self._max_seen = max_seen
        self._records_ingested += count
        if self._m_records is not None and count:
            self._m_records.inc(count)
        if self.retention is not None and count:
            self._since_evict += count
            if self._since_evict >= _EVICT_STRIDE:
                self.evict_expired()
        return count

    def ingest_batch(
        self,
        src: NodeId,
        dst: NodeId,
        timestamps: Sequence[float],
        observed_at_destination: bool = True,
    ) -> int:
        """Add one edge's timestamp batch as a single columnar write.

        ``timestamps`` may arrive in any order (the store sorts on the
        next query); returns how many were ingested. This is the
        batch-frame / binary-storage fast path: no per-record objects, no
        per-record metric dispatch.
        """
        if src == dst:
            raise TraceError(f"self-loop packet at {src!r}")
        values = np.asarray(timestamps, dtype=np.float64)
        if values.ndim != 1:
            raise TraceError(
                f"timestamp batch must be one-dimensional, got shape {values.shape}"
            )
        if values.size == 0:
            return 0
        if not np.isfinite(values).all():
            raise TraceError(f"non-finite timestamp in batch for {src!r}->{dst!r}")
        self._store((src, dst), observed_at_destination).extend(values)
        size = int(values.size)
        self._records_ingested += size
        self._batches_ingested += 1
        newest = float(values.max())
        if newest > self._max_seen:
            self._max_seen = newest
        if self._m_records is not None:
            self._m_records.inc(size)
            self._m_batches.inc()
        if self.retention is not None:
            self._since_evict += size
            if self._since_evict >= _EVICT_STRIDE:
                self.evict_expired()
        return size

    # -- retention -------------------------------------------------------------

    def evict_expired(self) -> int:
        """Evict everything older than ``newest seen - retention``.

        Called automatically every :data:`_EVICT_STRIDE` ingested records
        and on every :meth:`window`; harmless no-op without a retention
        horizon. Returns how many records were evicted.
        """
        self._since_evict = 0
        if self.retention is None or self._max_seen == float("-inf"):
            return 0
        cutoff = self._max_seen - self.retention
        dropped = 0
        lake = self.lake
        for stores, at_dst in ((self._at_src, False), (self._at_dst, True)):
            for key, store in stores.items():
                if lake is not None:
                    src, dst = key
                    sink = partial(lake.spill, src, dst, at_dst)
                else:
                    sink = None
                dropped += store.evict_before(cutoff, sink)
        if dropped:
            self._records_evicted += dropped
            if self._m_evicted is not None:
                self._m_evicted.inc(dropped)
        if self._m_resident is not None:
            self._m_resident.set(self.record_count())
        return dropped

    # -- inspection ---------------------------------------------------------------

    def edges(self) -> List[EdgeKey]:
        """All edges with at least one capture, from either side."""
        return sorted(set(self._at_src) | set(self._at_dst))

    def record_count(self) -> int:
        return sum(s.count for s in self._at_src.values()) + sum(
            s.count for s in self._at_dst.values()
        )

    def ingest_stats(self) -> dict:
        """JSON-able ingest/retention health snapshot."""
        chunks = 0
        pending = 0
        sorts = 0
        for stores in (self._at_src, self._at_dst):
            for store in stores.values():
                chunks += len(store.chunks)
                pending += store.pending
                sorts += store.sorts
        return {
            "retention": self.retention,
            "resident_records": self.record_count(),
            "records_ingested": self._records_ingested,
            "batches_ingested": self._batches_ingested,
            "records_evicted": self._records_evicted,
            "chunks": chunks,
            "pending": pending,
            "sort_operations": sorts,
            "lake": self.lake.stats() if self.lake is not None else {"enabled": False},
        }

    def export_records(self) -> List[CaptureRecord]:
        """Reconstruct all captures as records (for persisting a trace).

        The round trip ``collector -> export_records -> write ->
        load -> ingest_many`` reproduces an identical collector. Ordering
        is fully deterministic: records sort by ``(timestamp, src, dst,
        observer)``, so equal timestamps tie-break on edge then observing
        side regardless of ingestion order.
        """
        out: List[CaptureRecord] = []
        for stores, at_destination in ((self._at_src, False), (self._at_dst, True)):
            for src, dst in sorted(stores):
                observer = dst if at_destination else src
                out.extend(
                    CaptureRecord(t, src, dst, observer)
                    for t in stores[(src, dst)].array().tolist()
                )
        out.sort(key=lambda r: (r.timestamp, r.src, r.dst, r.observer))
        return out

    def export_batches(self) -> List[TimestampBatch]:
        """All captures as per-``(edge, side)`` sorted timestamp batches.

        The columnar counterpart of :meth:`export_records` -- one
        :class:`~repro.tracing.records.TimestampBatch` per stream in
        deterministic ``(src, dst, side)`` order, for the binary trace
        format (:func:`repro.tracing.storage.write_capture_binary`).
        """
        out: List[TimestampBatch] = []
        for stores, at_destination in ((self._at_src, False), (self._at_dst, True)):
            for src, dst in sorted(stores):
                arr = stores[(src, dst)].array()
                if arr.size:
                    out.append(TimestampBatch(src, dst, at_destination, arr))
        out.sort(key=lambda b: (b.src, b.dst, b.observed_at_destination))
        return out

    def edge_timestamps(
        self, src: NodeId, dst: NodeId, prefer_destination: bool = True
    ) -> np.ndarray:
        """The observation timestamps used for an edge's signal, sorted.

        Destination-side captures are preferred (Algorithm 1); source-side
        captures are the fallback for edges into untraced (client) nodes.
        An edge never captured from either side yields an empty array --
        consistent with :meth:`window` over an empty time range, which
        yields a window with no active edges.

        Returns the store's cached array: both preferences return the
        *same object* when only one side was captured (clock-skew
        estimation relies on that identity to detect one-sided capture).
        """
        key = (src, dst)
        primary, fallback = (self._at_dst, self._at_src)
        if not prefer_destination or dst in self._clients:
            primary, fallback = fallback, primary
        store = primary.get(key)
        if store is None:
            store = fallback.get(key)
        if store is None:
            return _EMPTY
        return store.array()

    def _side_present(self, key: EdgeKey, at_destination: bool) -> bool:
        """True when the stream was ever captured on that side, counting
        spilled lake segments (resident stores are never deleted, so this
        matches an unbounded collector's store-existence test)."""
        stores = self._at_dst if at_destination else self._at_src
        if key in stores:
            return True
        if self.lake is not None:
            return (key[0], key[1], at_destination) in self.lake.streams()
        return False

    def edge_timestamps_range(
        self,
        src: NodeId,
        dst: NodeId,
        start: float,
        end: float,
        prefer_destination: bool = True,
    ) -> np.ndarray:
        """Sorted observation timestamps for an edge within ``[start, end)``.

        Unlike :meth:`edge_timestamps`, this stitches spilled lake
        segments with resident chunks, so the range may reach arbitrarily
        far behind the retention horizon. Eviction drops strictly below
        the cutoff and spills every dropped value exactly once, so the
        stitched result is bit-identical to the same slice of an
        unbounded collector.
        """
        if start > end:
            raise TraceError(f"inverted range: start {start} > end {end}")
        key = (src, dst)
        order = (True, False)
        if not prefer_destination or dst in self._clients:
            order = (False, True)
        at_dst = next((s for s in order if self._side_present(key, s)), None)
        if at_dst is None:
            return _EMPTY
        stores = self._at_dst if at_dst else self._at_src
        store = stores.get(key)
        arr = store.array() if store is not None else _EMPTY
        lo = int(np.searchsorted(arr, start, side="left"))
        hi = int(np.searchsorted(arr, end, side="left"))
        resident = arr[lo:hi]
        if self.lake is None:
            return resident
        spilled = self.lake.query(src, dst, at_dst, start=start, end=end)
        if spilled.size == 0:
            return resident
        if resident.size == 0:
            return np.sort(spilled)
        return np.sort(np.concatenate((spilled, resident)))

    # -- window materialization ------------------------------------------------------

    def window(
        self,
        config: PathmapConfig,
        end_time: float,
        start_time: Optional[float] = None,
        use_rle: bool = True,
    ) -> "CollectedTraceWindow":
        """Build the analysis window ending at ``end_time``.

        ``start_time`` defaults to ``end_time - config.window``. An empty
        time range (``start_time == end_time``) yields a window with no
        active edges -- consistent with :meth:`edge_timestamps` on an
        unseen edge, which yields an empty array. An inverted range still
        raises :class:`~repro.errors.TraceError`.
        """
        if start_time is None:
            start_time = end_time - config.window
        if start_time > end_time:
            raise TraceError(
                f"inverted window: start {start_time} > end {end_time}"
            )
        if self.retention is not None:
            self.evict_expired()
        if self._m_windows is not None:
            self._m_windows.inc()
        source: "TraceCollector" = self
        if (
            self.lake is not None
            and self.retention is not None
            and self._max_seen != float("-inf")
            and start_time < self._max_seen - self.retention
        ):
            # Historical range: part of it was evicted past the horizon.
            # Stitch lake segments with resident chunks (cache-aside);
            # the view is bit-identical to an unbounded collector. The
            # lake query carries a sampling-window margin because the
            # density boxcar at a boundary quantum reaches up to half a
            # sampling window outside the range (see build_density_series).
            margin = config.sampling_window + config.quantum
            source = _StitchedTraceView(self, start_time - margin, end_time + margin)
        window = CollectedTraceWindow(source, config, start_time, end_time, use_rle)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "materialized window [%.3f, %.3f) with %d active edges",
                window.start_time,
                window.end_time,
                len(window.active_edges()),
            )
        return window


class _StitchedTraceView:
    """Duck-typed collector stitching lake segments with resident chunks.

    Materialized by :meth:`TraceCollector.window` when the requested
    range reaches behind the retention horizon. Exposes exactly the
    surface :class:`CollectedTraceWindow` consumes (``clients``,
    :meth:`edges`, :meth:`edge_timestamps`); each stream answers with
    ``sort(spilled in [start, end) ++ resident)`` -- the bounds here are
    the window range padded by a sampling-window margin, so boundary
    quanta see the same out-of-range neighbours an unbounded collector
    would feed the density boxcar. The result is bit-identical to an
    unbounded collector's view of the window because eviction drops
    strictly below the cutoff and hands every dropped value to the lake
    exactly once. Side preference follows the collector's store-existence
    rule (stores are never deleted by eviction), extended with the lake's
    stream catalog; per-``(edge, side)`` results are cached so both
    preference orders return the *same object* when only one side was
    ever captured -- the identity contract clock-skew detection relies
    on.
    """

    def __init__(
        self, collector: TraceCollector, start_time: float, end_time: float
    ) -> None:
        self._collector = collector
        self._lake = collector.lake
        self._start = float(start_time)
        self._end = float(end_time)
        self._lake_sides: Dict[EdgeKey, Set[bool]] = {}
        for src, dst, at_dst in self._lake.streams():
            self._lake_sides.setdefault((src, dst), set()).add(at_dst)
        self._cache: Dict[Tuple[EdgeKey, bool], np.ndarray] = {}

    @property
    def clients(self) -> Set[NodeId]:
        return self._collector.clients

    def edges(self) -> List[EdgeKey]:
        return sorted(set(self._collector.edges()) | set(self._lake_sides))

    def _has_side(self, key: EdgeKey, at_dst: bool) -> bool:
        stores = self._collector._at_dst if at_dst else self._collector._at_src
        return key in stores or at_dst in self._lake_sides.get(key, ())

    def _stitched(self, key: EdgeKey, at_dst: bool) -> np.ndarray:
        cache_key = (key, at_dst)
        cached = self._cache.get(cache_key)
        if cached is None:
            src, dst = key
            spilled = self._lake.query(
                src, dst, at_dst, start=self._start, end=self._end
            )
            stores = self._collector._at_dst if at_dst else self._collector._at_src
            store = stores.get(key)
            resident = store.array() if store is not None else _EMPTY
            if spilled.size == 0:
                cached = resident
            elif resident.size == 0:
                cached = np.sort(spilled)
            else:
                cached = np.sort(np.concatenate((spilled, resident)))
            self._cache[cache_key] = cached
        return cached

    def edge_timestamps(
        self, src: NodeId, dst: NodeId, prefer_destination: bool = True
    ) -> np.ndarray:
        key = (src, dst)
        order = (True, False)
        if not prefer_destination or dst in self._collector.clients:
            order = (False, True)
        for at_dst in order:
            if self._has_side(key, at_dst):
                return self._stitched(key, at_dst)
        return _EMPTY


class CollectedTraceWindow(TraceWindow):
    """A :class:`TraceWindow` view over a collector's captures."""

    def __init__(
        self,
        collector: TraceCollector,
        config: PathmapConfig,
        start_time: float,
        end_time: float,
        use_rle: bool = True,
    ) -> None:
        self._collector = collector
        self._config = config
        self.start_time = float(start_time)
        self.end_time = float(end_time)
        self._use_rle = use_rle
        tau = config.quantum
        self._start_quantum = int(np.floor(self.start_time / tau))
        self._length_quanta = max(1, int(round((self.end_time - self.start_time) / tau)))
        self._series_cache: Dict[EdgeKey, object] = {}
        # Pre-compute per-edge in-window activity once (one searchsorted
        # pair per edge over the store's sorted array).
        self._active_edges: Set[EdgeKey] = set()
        for src, dst in collector.edges():
            stamps = collector.edge_timestamps(src, dst)
            lo = int(np.searchsorted(stamps, self.start_time, side="left"))
            hi = int(np.searchsorted(stamps, self.end_time, side="left"))
            if hi > lo:
                self._active_edges.add((src, dst))

    # -- TraceWindow protocol ----------------------------------------------------

    def front_end_nodes(self) -> List[NodeId]:
        clients = self._collector.clients
        fronts = {
            dst
            for (src, dst) in self._active_edges
            if src in clients and dst not in clients
        }
        return sorted(fronts)

    def clients_of(self, node: NodeId) -> List[NodeId]:
        clients = self._collector.clients
        return sorted(
            src for (src, dst) in self._active_edges if dst == node and src in clients
        )

    def destinations_of(self, node: NodeId) -> List[NodeId]:
        return sorted(dst for (src, dst) in self._active_edges if src == node)

    def is_client(self, node: NodeId) -> bool:
        return node in self._collector.clients

    def edge_series(self, src: NodeId, dst: NodeId):
        key = (src, dst)
        cached = self._series_cache.get(key)
        if cached is not None:
            return cached
        stamps = self._collector.edge_timestamps(src, dst)
        series: object = build_density_series(
            stamps,
            quantum=self._config.quantum,
            sampling_quanta=self._config.sampling_quanta,
            window_start=self._start_quantum,
            window_length=self._length_quanta,
        )
        if self._use_rle:
            series = rle_encode(series)
        self._series_cache[key] = series
        return series

    # -- extras -----------------------------------------------------------------------

    def active_edges(self) -> List[EdgeKey]:
        return sorted(self._active_edges)

    def __repr__(self) -> str:
        return (
            f"CollectedTraceWindow([{self.start_time:.3f}, {self.end_time:.3f}), "
            f"edges={len(self._active_edges)})"
        )
