"""Per-node packet tracer (paper Section 3.6).

The paper implements a Linux kernel module (`tracer`) that hooks netfilter,
observes every packet entering or leaving its node, computes the density
time series locally, and streams **RLE-encoded** series to the central
analyzer -- offloading time-series computation from the analysis node and
shrinking network transmission.

:class:`Tracer` is the simulation-side equivalent. It is attached to one
service node, receives ``observe()`` callbacks for every packet the node
sends or receives (timestamped by the node's local clock, which may be
skewed), and can flush the accumulated window into per-edge
:class:`~repro.core.rle.RunLengthSeries` blocks exactly as the kernel
module would stream them -- one block per edge that spoke, none for the
quiet ones.
"""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING, Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import PathmapConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
from repro.core.rle import RunLengthSeries, rle_encode_rows
from repro.core.timeseries import build_density_rows
from repro.errors import TraceError
from repro.tracing.records import CaptureRecord, NodeId

logger = logging.getLogger(__name__)

EdgeKey = Tuple[NodeId, NodeId]

_NO_STAMPS = np.empty(0, np.float64)
_NO_ROWS = np.empty(0, np.int64)


class _CaptureBuffer:
    """Captures in arrival order as struct-of-arrays: timestamps plus the
    row (edge index) each belongs to.

    ``observe_batch`` appends one ``(array, row)`` part; per-packet
    ``observe`` appends to two plain lists, folded into a part when a
    batch follows or the buffer is taken -- so arrival order survives
    mixed use and numpy is paid per part, never per packet.
    """

    __slots__ = ("parts", "loose_stamps", "loose_rows")

    def __init__(self) -> None:
        self.parts: List[Tuple[np.ndarray, np.ndarray]] = []
        self.loose_stamps: List[float] = []
        self.loose_rows: List[int] = []

    def add_batch(self, stamps: np.ndarray, row: int) -> None:
        if self.loose_stamps:
            self._fold_loose()
        self.parts.append((stamps, np.full(stamps.size, row, dtype=np.int64)))

    def _fold_loose(self) -> None:
        self.parts.append(
            (
                np.array(self.loose_stamps, dtype=np.float64),
                np.array(self.loose_rows, dtype=np.int64),
            )
        )
        self.loose_stamps = []
        self.loose_rows = []

    def take(self) -> Tuple[np.ndarray, np.ndarray]:
        """Everything buffered as ``(timestamps, rows)``; empties the buffer."""
        if self.loose_stamps:
            self._fold_loose()
        parts, self.parts = self.parts, []
        if not parts:
            return _NO_STAMPS, _NO_ROWS
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([stamps for stamps, _ in parts]),
            np.concatenate([rows for _, rows in parts]),
        )


class Tracer:
    """Passive packet observer for one service node.

    Parameters
    ----------
    node:
        Id of the node this tracer runs on.
    clock_skew:
        Constant offset (seconds) of this node's clock relative to true
        time; every observed timestamp is shifted by it (Section 3.8).
    """

    def __init__(self, node: NodeId, clock_skew: float = 0.0) -> None:
        self.node = node
        self.clock_skew = float(clock_skew)
        #: edge -> row index, in first-capture order.
        self._rows: Dict[EdgeKey, int] = {}
        # Timestamps the next flush can still need: what the last flush
        # kept (one array pair for all edges) plus captures since.
        self._kept_stamps = _NO_STAMPS
        self._kept_rows = _NO_ROWS
        self._fresh = _CaptureBuffer()
        # Capture buffer for drain_batches(); None until batch streaming
        # is enabled, so observe() pays one attribute check.
        self._pending: Optional[_CaptureBuffer] = None
        self._count = 0
        #: How many times this tracer has been restarted (module reload /
        #: crash recovery). The transport layer bumps its stream epoch in
        #: lockstep so pre-restart blocks can never be resurrected.
        self.restarts = 0
        # Metrics stay unbound (zero cost on the per-packet path) until an
        # observer opts in via bind_metrics.
        self._m_packets = None
        self._m_flushes = None

    def bind_metrics(self, metrics: "MetricsRegistry") -> None:
        """Report ``tracer_packets_observed_total`` and
        ``tracer_blocks_flushed_total`` into ``metrics`` from now on.

        The online engine binds its registry to every tracer on ``attach``
        when that registry is enabled; unbound tracers skip metric work
        entirely (``observe`` runs once per simulated packet).
        """
        self._m_packets = metrics.counter(
            "tracer_packets_observed_total", "Packets captured by per-node tracers"
        )
        self._m_flushes = metrics.counter(
            "tracer_blocks_flushed_total",
            "Non-empty RLE blocks flushed by per-node tracers",
        )

    # -- capture ---------------------------------------------------------------

    def _row(self, src: NodeId, dst: NodeId) -> int:
        if self.node not in (src, dst):
            raise TraceError(
                f"tracer at {self.node!r} observed foreign packet {src!r}->{dst!r}"
            )
        return self._rows.setdefault((src, dst), len(self._rows))

    def observe(self, timestamp: float, src: NodeId, dst: NodeId) -> CaptureRecord:
        """Record one packet on edge ``src -> dst`` passing this node.

        ``timestamp`` is true time; the stored value is by the local clock.
        """
        row = self._rows.get((src, dst))
        if row is None:
            row = self._row(src, dst)
        local = timestamp + self.clock_skew
        if not math.isfinite(local):
            raise TraceError(f"non-finite capture timestamp {local!r}")
        fresh = self._fresh
        fresh.loose_stamps.append(local)
        fresh.loose_rows.append(row)
        pending = self._pending
        if pending is not None:
            pending.loose_stamps.append(local)
            pending.loose_rows.append(row)
        self._count += 1
        if self._m_packets is not None:
            self._m_packets.inc()
        return CaptureRecord(local, src, dst, self.node)

    def observe_batch(
        self, timestamps: Sequence[float], src: NodeId, dst: NodeId
    ) -> int:
        """Record many packets on edge ``src -> dst`` in one columnar write.

        ``timestamps`` are true times; the stored values are shifted by
        the local clock skew in one vectorized pass. Returns how many
        were recorded. No per-packet :class:`CaptureRecord` objects are
        materialized.
        """
        row = self._row(src, dst)
        # Always a copy: the buffers keep it, the caller may reuse theirs.
        local = np.array(timestamps, dtype=np.float64)
        if local.ndim != 1:
            raise TraceError(
                f"timestamp batch must be one-dimensional, got shape {local.shape}"
            )
        if local.size == 0:
            return 0
        if self.clock_skew:
            local += self.clock_skew
        if not np.isfinite(local).all():
            raise TraceError(
                f"non-finite capture timestamp in batch for {src!r}->{dst!r}"
            )
        self._fresh.add_batch(local, row)
        if self._pending is not None:
            self._pending.add_batch(local, row)
        self._count += local.size
        if self._m_packets is not None:
            self._m_packets.inc(local.size)
        return int(local.size)

    def enable_batch_streaming(self) -> None:
        """Start buffering captures for :meth:`drain_batches`.

        Off by default: the per-packet ``observe`` path then pays only
        one attribute check. The engine enables it on ``attach`` when a
        capture sink is configured.
        """
        if self._pending is None:
            self._pending = _CaptureBuffer()

    def drain_batches(self) -> Dict[EdgeKey, np.ndarray]:
        """Per-edge timestamps captured since the last drain.

        Returns float64 arrays in capture order (unsorted -- the columnar
        collector sorts lazily). Empty until
        :meth:`enable_batch_streaming` is called.
        """
        if self._pending is None:
            return {}
        stamps, rows = self._pending.take()
        return self._split_by_edge(stamps, rows)

    def _split_by_edge(
        self, stamps: np.ndarray, rows: np.ndarray
    ) -> Dict[EdgeKey, np.ndarray]:
        """``stamps`` grouped per edge, edges in first-appearance order,
        each group in its original order."""
        if stamps.size == 0:
            return {}
        # A stable sort by row groups the edges; each group's head is then
        # its earliest arrival, which orders the groups.
        order = np.argsort(rows, kind="stable")
        heads = np.concatenate([[0], np.flatnonzero(np.diff(rows[order])) + 1])
        groups = np.split(stamps[order], heads[1:])
        firsts = order[heads]
        edges = list(self._rows)
        return {
            edges[rows[firsts[k]]]: groups[k] for k in np.argsort(firsts).tolist()
        }

    @property
    def packet_count(self) -> int:
        return self._count

    def edges(self) -> List[EdgeKey]:
        """Edges with at least one captured packet."""
        return list(self._rows)

    def timestamps(self, src: NodeId, dst: NodeId) -> List[float]:
        """Raw local-clock capture times for one edge (sorted copy)."""
        row = self._rows.get((src, dst))
        if row is None:
            return []
        stamps, rows = self._fold()
        return np.sort(stamps[rows == row]).tolist()

    # -- streaming -----------------------------------------------------------------

    def _fold(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fold captures since the last flush into the kept arrays."""
        stamps, rows = self._fresh.take()
        if stamps.size:
            if self._kept_stamps.size:
                stamps = np.concatenate([self._kept_stamps, stamps])
                rows = np.concatenate([self._kept_rows, rows])
            self._kept_stamps, self._kept_rows = stamps, rows
        return self._kept_stamps, self._kept_rows

    def flush_block(
        self,
        config: PathmapConfig,
        window_start_quantum: int,
        block_quanta: int,
        edges: Optional[Collection[EdgeKey]] = None,
    ) -> Dict[EdgeKey, RunLengthSeries]:
        """Compute and return the RLE block of every edge that spoke in
        one window.

        Mirrors the kernel module's periodic stream: each refresh interval,
        one RLE block per edge with traffic in the window is emitted to
        the analyzer. A quiet edge emits nothing -- its silence is implicit
        on the wire -- so the blocks returned are exactly the non-empty
        ones, in capture order. The tracer keeps raw timestamps only as
        far back as the analysis can need them (older entries are dropped).

        ``edges`` (optional) restricts the blocks built and returned to
        the captured edges it contains -- the analyzer keeps one side's
        copy of each edge and need not pay for the other. Density rows are
        built only for edges with kept timestamps, in one pass
        (:func:`build_density_rows`, :func:`rle_encode_rows`); a tracer
        with nothing kept does no array work at all.
        """
        tau = config.quantum
        stamps, rows = self._fold()
        if not stamps.size:
            return {}
        captured = list(self._rows)
        held = np.flatnonzero(np.bincount(rows, minlength=len(captured))).tolist()
        emitted = [r for r in held if edges is None or captured[r] in edges]
        blocks: Dict[EdgeKey, RunLengthSeries] = {}
        if emitted:
            # Captured row -> grid row, -1 for edges not emitted.
            slot = np.full(len(captured), -1, dtype=np.int64)
            slot[emitted] = np.arange(len(emitted))
            grid_rows = slot[rows]
            wanted = grid_rows >= 0
            grid = build_density_rows(
                stamps[wanted],
                grid_rows[wanted],
                len(emitted),
                quantum=tau,
                sampling_quanta=config.sampling_quanta,
                window_start=window_start_quantum,
                window_length=block_quanta,
            )
            for row, block in zip(
                emitted, rle_encode_rows(grid, window_start_quantum, tau)
            ):
                if block.num_runs:
                    blocks[captured[row]] = block
        self._drop_before((window_start_quantum + block_quanta) * tau - config.sampling_window)
        if self._m_flushes is not None:
            self._m_flushes.inc(len(blocks))
        return blocks

    def _drop_before(self, cutoff: float) -> None:
        """Discard timestamps older than ``cutoff`` (no longer needed)."""
        keep = self._kept_stamps >= cutoff
        dropped = keep.size - int(np.count_nonzero(keep))
        if not dropped:
            return
        self._kept_stamps = self._kept_stamps[keep]
        self._kept_rows = self._kept_rows[keep]
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "tracer %s dropped %d stale timestamps before t=%.3f",
                self.node,
                dropped,
                cutoff,
            )

    def reset(self) -> None:
        """Discard all captured state (e.g. module reload)."""
        self._rows.clear()
        self._kept_stamps = _NO_STAMPS
        self._kept_rows = _NO_ROWS
        self._fresh = _CaptureBuffer()
        if self._pending is not None:
            self._pending = _CaptureBuffer()
        self._count = 0

    def restart(self) -> None:
        """Simulate a tracer crash/restart: captured state is lost and
        the restart counter (the transport epoch source) advances."""
        self.reset()
        self.restarts += 1
