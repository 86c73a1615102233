"""Fault-tolerant streaming transport between tracers and the analyzer.

The paper pitches pathmap as an *online, non-intrusive* service: per-node
tracers stream RLE blocks to a central analyzer over a real network
(Section 3.6). Real links drop, duplicate, reorder and corrupt frames,
and real tracers lag, die and restart -- so this module gives the
tracer -> analyzer path the machinery to degrade gracefully instead of
silently mis-computing service paths:

* :class:`TransportLink` -- the sender side of one tracer's stream. It
  wraps each flushed block in a :class:`~repro.tracing.wire.BlockFrame`
  carrying the tracer's **epoch** (bumped on restart) and a per-edge
  **sequence number**, and emits one heartbeat frame per flush round so
  the receiver can tell "quiet" from "dead".
* :class:`FaultyChannel` -- a seeded, deterministic fault injector
  (drop / duplicate / reorder / corrupt / delay / total outage) standing
  in for the lossy link. Tests and benchmarks drive every failure mode
  through it; a default-constructed channel is a perfect pass-through.
* :class:`ReorderBuffer` -- the receiver-side re-sequencer for one
  ``(node, src, dst)`` stream: buffers out-of-order frames up to a
  configurable lateness tolerance, detects and declares gaps, drops
  duplicates and pre-restart (stale-epoch) frames, and hands frames that
  arrive after their gap was declared back as *late recoveries*.
* :class:`LivenessWatchdog` -- per-tracer heartbeat ageing: a tracer that
  has not been heard from within the staleness threshold is flagged
  ``lagging``, then ``dead``.
* :class:`TransportReceiver` -- the analyzer-side endpoint tying the
  above together: decodes frames (corrupt ones are counted, never
  raised), routes them to per-stream reorder buffers, tracks liveness,
  and surfaces ordered frames plus :class:`GapNotice` records to the
  engine.
* :class:`DataQuality` -- the per-edge verdict the engine derives from
  transport health (``fresh`` / ``degraded`` / ``stale`` plus the gap
  ratio), which :class:`~repro.core.pathmap.PathmapResult` carries so
  downstream consumers see paths built on degraded data annotated rather
  than silently dropped.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import TransportConfig
from repro.core.rle import RunLengthSeries
from repro.errors import TraceError
from repro.tracing.records import NodeId
from repro.tracing.wire import (
    BlockFrame,
    TimestampFrame,
    decode_frames,
    encode_frames,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventBus
    from repro.obs.registry import MetricsRegistry

logger = logging.getLogger(__name__)

EdgeKey = Tuple[NodeId, NodeId]
StreamKey = Tuple[NodeId, NodeId, NodeId]

#: Edge data states carried by :class:`DataQuality`.
QUALITY_FRESH = "fresh"
QUALITY_DEGRADED = "degraded"
QUALITY_STALE = "stale"

#: Tracer liveness states reported by :class:`LivenessWatchdog`.
TRACER_LIVE = "live"
TRACER_LAGGING = "lagging"
TRACER_DEAD = "dead"


@dataclasses.dataclass(frozen=True)
class DataQuality:
    """Transport-health verdict for one edge's signal.

    ``state`` is ``fresh`` (complete, live tracer), ``degraded`` (some
    blocks in the current window were lost or late) or ``stale`` (the
    owning tracer is dead, or most of the window is gaps). ``gap_ratio``
    is the fraction of the current window's blocks that are missing.
    """

    state: str
    gap_ratio: float = 0.0

    @property
    def ok(self) -> bool:
        return self.state == QUALITY_FRESH

    @property
    def penalty(self) -> float:
        """Contribution to the overall quality deficit: the gap ratio,
        saturated to 1 for stale edges."""
        return 1.0 if self.state == QUALITY_STALE else self.gap_ratio

    def to_dict(self) -> dict:
        return {"state": self.state, "gap_ratio": self.gap_ratio}


FRESH_QUALITY = DataQuality(QUALITY_FRESH, 0.0)


@dataclasses.dataclass(frozen=True)
class GapNotice:
    """One block declared lost on a stream (sequence skipped for good).

    ``block_start`` is the absolute quantum index the lost block covered
    (derived from the stream's seq -> start anchor), or None when no
    anchor frame has been seen yet.
    """

    node: NodeId
    src: NodeId
    dst: NodeId
    epoch: int
    seq: int
    block_start: Optional[int] = None

    @property
    def edge(self) -> EdgeKey:
        return (self.src, self.dst)


# -- fault injection ------------------------------------------------------------


class FaultyChannel:
    """Seeded, deterministic lossy link for one tracer's frame stream.

    Every fault is an independent Bernoulli draw from the channel's own
    ``numpy`` generator, so a given seed and call sequence always
    produces the same fault pattern -- chaos tests and benchmarks are
    exactly reproducible.

    Parameters
    ----------
    seed:
        Seed of the channel's private random generator.
    drop, duplicate, reorder, corrupt, delay:
        Per-frame fault probabilities in ``[0, 1]``. ``reorder`` holds a
        frame for exactly one flush round (delivering it behind newer
        frames); ``delay`` holds it for 1..``max_delay_rounds`` rounds.
    max_delay_rounds:
        Upper bound on how many rounds a delayed frame is held.
    down:
        While True the link is black-holed: every frame sent is lost
        (simulates a dead tracer or a partitioned link).

    ``send`` returns the frames delivered immediately; the engine calls
    ``advance`` once per refresh to collect held (reordered / delayed)
    frames that have come due.
    """

    def __init__(
        self,
        seed: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
        max_delay_rounds: int = 3,
        down: bool = False,
    ) -> None:
        for name, rate in (
            ("drop", drop), ("duplicate", duplicate), ("reorder", reorder),
            ("corrupt", corrupt), ("delay", delay),
        ):
            if not 0.0 <= rate <= 1.0:
                raise TraceError(f"{name} rate must be in [0, 1], got {rate}")
        if max_delay_rounds < 1:
            raise TraceError(
                f"max_delay_rounds must be >= 1, got {max_delay_rounds}"
            )
        self._rng = np.random.default_rng(seed)
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder
        self.corrupt = corrupt
        self.delay = delay
        self.max_delay_rounds = max_delay_rounds
        self.down = down
        self._round = 0
        self._held: List[Tuple[int, bytes]] = []
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_corrupted = 0
        self.frames_held = 0

    def set_faults(
        self,
        drop: Optional[float] = None,
        duplicate: Optional[float] = None,
        reorder: Optional[float] = None,
        corrupt: Optional[float] = None,
        delay: Optional[float] = None,
        down: Optional[bool] = None,
    ) -> None:
        """Adjust fault rates mid-run (pass only what should change)."""
        if drop is not None:
            self.drop = drop
        if duplicate is not None:
            self.duplicate = duplicate
        if reorder is not None:
            self.reorder = reorder
        if corrupt is not None:
            self.corrupt = corrupt
        if delay is not None:
            self.delay = delay
        if down is not None:
            self.down = down

    @property
    def faultless(self) -> bool:
        """True when every fault rate is zero and the link is up."""
        return not (
            self.down or self.drop or self.duplicate or self.reorder
            or self.corrupt or self.delay
        )

    def send(self, payload: bytes) -> List[bytes]:
        """Push one frame through the link; returns immediate deliveries."""
        self.frames_sent += 1
        if self.down or (self.drop and self._rng.random() < self.drop):
            self.frames_dropped += 1
            return []
        if self.corrupt and self._rng.random() < self.corrupt:
            payload = self._flip_bytes(payload)
            self.frames_corrupted += 1
        copies = 1
        if self.duplicate and self._rng.random() < self.duplicate:
            copies = 2
            self.frames_duplicated += 1
        out: List[bytes] = []
        for _ in range(copies):
            held_for = 0
            if self.delay and self._rng.random() < self.delay:
                held_for = int(self._rng.integers(1, self.max_delay_rounds + 1))
            elif self.reorder and self._rng.random() < self.reorder:
                held_for = 1
            if held_for:
                self._held.append((self._round + held_for, payload))
                self.frames_held += 1
            else:
                out.append(payload)
                self.frames_delivered += 1
        return out

    def advance(self) -> List[bytes]:
        """End the current flush round; returns held frames now due."""
        self._round += 1
        due = [p for r, p in self._held if r <= self._round]
        self._held = [(r, p) for r, p in self._held if r > self._round]
        self.frames_delivered += len(due)
        return due

    def drain(self) -> List[bytes]:
        """Deliver everything still held (e.g. end of a test run)."""
        due = [p for _, p in self._held]
        self._held = []
        self.frames_delivered += len(due)
        return due

    def _flip_bytes(self, payload: bytes) -> bytes:
        corrupted = bytearray(payload)
        for _ in range(int(self._rng.integers(1, 4))):
            pos = int(self._rng.integers(0, len(corrupted)))
            corrupted[pos] ^= int(self._rng.integers(1, 256))
        return bytes(corrupted)

    def stats(self) -> dict:
        return {
            "sent": self.frames_sent,
            "delivered": self.frames_delivered,
            "dropped": self.frames_dropped,
            "duplicated": self.frames_duplicated,
            "corrupted": self.frames_corrupted,
            "held": self.frames_held,
            "in_flight": len(self._held),
        }


# -- sender side ------------------------------------------------------------------


class TransportLink:
    """Sender-side stream state for one tracer.

    Assigns the per-tracer epoch and per-edge sequence numbers, frames
    flushed blocks, and emits one heartbeat per flush round. Sequence
    numbers advance exactly once per flush round per edge stream, so the
    receiver can map ``seq`` linearly onto block start positions.
    """

    def __init__(self, node: NodeId, epoch: int = 0) -> None:
        self.node = node
        self.epoch = epoch
        self.restarts = 0
        self.frames_sent = 0
        self._seqs: Dict[EdgeKey, int] = {}
        # Timestamp-batch streams sequence independently of block streams
        # (they are not re-sequenced -- batches carry absolute times).
        self._batch_seqs: Dict[EdgeKey, int] = {}
        self._heartbeat_seq = 0

    def restart(self) -> None:
        """Bump the epoch (tracer restart): all streams reset to seq 0."""
        self.epoch += 1
        self.restarts += 1
        self._seqs.clear()
        self._batch_seqs.clear()
        self._heartbeat_seq = 0

    def encode_blocks(
        self, blocks: Dict[EdgeKey, RunLengthSeries], heartbeat: bool = True
    ) -> List[bytes]:
        """Frame one flush round's blocks (plus the round's heartbeat);
        the round's blocks go through the codec in one call."""
        frames: List[BlockFrame] = []
        for (src, dst), block in blocks.items():
            seq = self._seqs.get((src, dst), 0)
            self._seqs[(src, dst)] = seq + 1
            frames.append(BlockFrame(self.node, self.epoch, seq, src, dst, block))
        if heartbeat:
            frames.append(
                BlockFrame(self.node, self.epoch, self._heartbeat_seq, "", "")
            )
            self._heartbeat_seq += 1
        self.frames_sent += len(frames)
        return encode_frames(frames)

    def encode_timestamp_batches(
        self, batches: Dict[EdgeKey, "np.ndarray"]
    ) -> List[bytes]:
        """Frame one round of raw per-edge timestamp batches.

        One packed :class:`~repro.tracing.wire.TimestampFrame` per
        non-empty edge batch, sequenced on a per-edge stream separate
        from the block streams. The observing side is derived from the
        link's node: a batch for ``src -> dst`` captured here was
        observed at the destination exactly when this node *is* ``dst``.
        Empty batches are skipped (no frame, no sequence advance).
        """
        frames: List[TimestampFrame] = []
        for (src, dst), timestamps in batches.items():
            arr = np.asarray(timestamps, dtype=np.float64)
            if arr.size == 0:
                continue
            seq = self._batch_seqs.get((src, dst), 0)
            self._batch_seqs[(src, dst)] = seq + 1
            frames.append(
                TimestampFrame(
                    self.node, self.epoch, seq, src, dst, arr,
                    observed_at_destination=(self.node == dst),
                )
            )
        self.frames_sent += len(frames)
        return encode_frames(frames)


# -- receiver side -----------------------------------------------------------------


class ReorderBuffer:
    """Re-sequencer for one ``(node, src, dst)`` block stream.

    Frames are delivered in sequence order. A hole older than
    ``lateness`` blocks (measured against the newest sequence seen) is
    declared lost -- a :class:`GapNotice` is recorded and the stream
    skips ahead. A frame arriving *after* its gap was declared is still
    delivered (a *late recovery*; blocks carry their own window position,
    so the engine can patch history), but within an epoch no sequence is
    ever delivered twice, and once a newer epoch has been seen, frames
    from older epochs are dropped for good.
    """

    def __init__(self, key: StreamKey, lateness: int = 2) -> None:
        if lateness < 0:
            raise TraceError(f"lateness must be >= 0, got {lateness}")
        self.key = key
        self.lateness = lateness
        self.epoch: Optional[int] = None
        self.next_seq = 0
        self.max_seen = -1
        self._pending: Dict[int, BlockFrame] = {}
        self._lost: set = set()
        self._anchor: Optional[int] = None  # block start of seq 0
        self._block_quanta: Optional[int] = None
        self.gap_notices: List[GapNotice] = []
        self.duplicates = 0
        self.reordered = 0
        self.gaps = 0
        self.late_recovered = 0
        self.stale_epoch_drops = 0
        self.delivered = 0

    def push(self, frame: BlockFrame) -> List[BlockFrame]:
        """Ingest one frame; returns the frames now deliverable in order."""
        if self.epoch is None:
            self.epoch = frame.epoch
        if frame.epoch < self.epoch:
            # Pre-restart block: never resurrected.
            self.stale_epoch_drops += 1
            return []
        out: List[BlockFrame] = []
        if frame.epoch > self.epoch:
            # Tracer restarted: drain what the old epoch buffered (in
            # order, declaring unfilled holes), then reset the stream.
            out.extend(self._drain_pending())
            self.epoch = frame.epoch
            self.next_seq = 0
            self.max_seen = -1
            self._lost.clear()
            self._anchor = None
            self._block_quanta = None
        if frame.block is not None and self._anchor is None:
            self._block_quanta = frame.block.length
            self._anchor = frame.block.start - frame.seq * frame.block.length
        if frame.seq < self.next_seq:
            if frame.seq in self._lost:
                # The gap this frame would have filled was already
                # declared; hand it over anyway so history can be patched.
                self._lost.discard(frame.seq)
                self.late_recovered += 1
                self.delivered += 1
                out.append(frame)
            else:
                self.duplicates += 1
            return out
        if frame.seq in self._pending:
            self.duplicates += 1
            return out
        if frame.seq < self.max_seen:
            self.reordered += 1
        self._pending[frame.seq] = frame
        self.max_seen = max(self.max_seen, frame.seq)
        out.extend(self._pop_consecutive())
        # Lateness exceeded: declare the head-of-line holes lost and skip.
        while self._pending and self.max_seen - self.next_seq > self.lateness:
            skip_to = min(self._pending)
            for seq in range(self.next_seq, skip_to):
                self._declare_gap(seq)
            self.next_seq = skip_to
            out.extend(self._pop_consecutive())
        return out

    def flush(self) -> List[BlockFrame]:
        """Deliver everything still buffered, declaring unfilled holes."""
        return self._drain_pending()

    def drain_gap_notices(self) -> List[GapNotice]:
        notices, self.gap_notices = self.gap_notices, []
        return notices

    def outstanding(self) -> int:
        """Frames buffered waiting for a hole to fill."""
        return len(self._pending)

    def _pop_consecutive(self) -> List[BlockFrame]:
        out: List[BlockFrame] = []
        while self.next_seq in self._pending:
            out.append(self._pending.pop(self.next_seq))
            self.next_seq += 1
            self.delivered += 1
        return out

    def _drain_pending(self) -> List[BlockFrame]:
        out: List[BlockFrame] = []
        for seq in sorted(self._pending):
            for missing in range(self.next_seq, seq):
                self._declare_gap(missing)
            out.append(self._pending.pop(seq))
            self.next_seq = seq + 1
            self.delivered += 1
        return out

    def _declare_gap(self, seq: int) -> None:
        self._lost.add(seq)
        self.gaps += 1
        node, src, dst = self.key
        start = (
            self._anchor + seq * self._block_quanta
            if self._anchor is not None and self._block_quanta
            else None
        )
        self.gap_notices.append(
            GapNotice(node, src, dst, self.epoch or 0, seq, start)
        )


@dataclasses.dataclass
class TracerStatus:
    """Liveness verdict for one tracer."""

    node: NodeId
    state: str
    last_heard: float
    epoch: int = 0

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "state": self.state,
            "last_heard": self.last_heard,
            "epoch": self.epoch,
        }


class LivenessWatchdog:
    """Heartbeat-age watchdog over the registered tracer population.

    A tracer unheard for more than ``stale_after`` seconds is
    ``lagging``; beyond ``dead_after`` it is ``dead``.
    """

    def __init__(self, stale_after: float, dead_after: float) -> None:
        if stale_after <= 0 or dead_after < stale_after:
            raise TraceError(
                "watchdog thresholds must satisfy 0 < stale_after <= "
                f"dead_after (got {stale_after}, {dead_after})"
            )
        self.stale_after = stale_after
        self.dead_after = dead_after
        self._last_heard: Dict[NodeId, float] = {}
        self._epochs: Dict[NodeId, int] = {}

    def register(self, node: NodeId, now: float) -> None:
        """Start the clock for a tracer that has not spoken yet."""
        self._last_heard.setdefault(node, now)

    def heartbeat(self, node: NodeId, now: float, epoch: int = 0) -> None:
        self._last_heard[node] = max(now, self._last_heard.get(node, now))
        self._epochs[node] = max(epoch, self._epochs.get(node, 0))

    def status(self, node: NodeId, now: float) -> TracerStatus:
        last = self._last_heard.get(node)
        if last is None:
            return TracerStatus(node, TRACER_DEAD, float("-inf"))
        age = now - last
        if age > self.dead_after:
            state = TRACER_DEAD
        elif age > self.stale_after:
            state = TRACER_LAGGING
        else:
            state = TRACER_LIVE
        return TracerStatus(node, state, last, self._epochs.get(node, 0))

    def statuses(self, now: float) -> Dict[NodeId, TracerStatus]:
        return {node: self.status(node, now) for node in self._last_heard}

    def nodes(self) -> List[NodeId]:
        return sorted(self._last_heard)


class TransportReceiver:
    """Analyzer-side ingest endpoint for framed block streams.

    Decodes incoming payloads (corrupt frames are counted and dropped,
    never raised), re-sequences each ``(node, edge)`` stream through a
    :class:`ReorderBuffer`, feeds heartbeats to the liveness watchdog,
    and accumulates ordered frames until the engine ``poll``\\ s.
    """

    def __init__(
        self,
        config: Optional[TransportConfig] = None,
        refresh_interval: float = 60.0,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.config = config if config is not None else TransportConfig()
        self.watchdog = LivenessWatchdog(
            stale_after=self.config.stale_after_refreshes * refresh_interval,
            dead_after=self.config.dead_after_refreshes * refresh_interval,
        )
        self._buffers: Dict[StreamKey, ReorderBuffer] = {}
        self._ready: List[BlockFrame] = []
        self._edge_owner: Dict[EdgeKey, NodeId] = {}
        # Timestamp-batch streams bypass the reorder buffers (batches
        # carry absolute times, so arrival order is irrelevant); per
        # stream we keep only what dropping duplicates and pre-restart
        # frames needs: [epoch, next_seq, ahead] -- every seq below
        # next_seq was delivered in this epoch, plus the out-of-order
        # seqs in ``ahead`` above it. In-order delivery keeps it O(1).
        self._ready_batches: List[TimestampFrame] = []
        self._batch_streams: Dict[StreamKey, list] = {}
        self.frames_received = 0
        self.corrupt_blocks = 0
        self.heartbeats = 0
        self.timestamp_batches = 0
        self.timestamp_duplicates = 0
        self.timestamp_stale_epoch = 0
        if metrics is not None:
            self._m_received = metrics.counter(
                "transport_frames_received_total",
                "Transport frames received (before validation)",
            )
            self._m_corrupt = metrics.counter(
                "transport_corrupt_blocks_total",
                "Transport frames dropped as corrupt (CRC/decode failure)",
            )
            self._m_heartbeats = metrics.counter(
                "transport_heartbeats_total", "Heartbeat frames received"
            )
            self._m_batches = metrics.counter(
                "transport_timestamp_batches_total",
                "Packed timestamp-batch frames accepted",
            )
        else:
            self._m_received = None
            self._m_corrupt = None
            self._m_heartbeats = None
            self._m_batches = None

    def register_tracer(self, node: NodeId, now: float) -> None:
        """Make the watchdog expect ``node`` even before its first frame."""
        self.watchdog.register(node, now)

    def receive(self, payloads: Sequence[bytes], now: float) -> None:
        """Ingest raw frame payloads, in arrival order, from any channels.

        Envelopes are checked per frame and all block bodies decoded in
        one pass (:func:`~repro.tracing.wire.decode_frames`); each
        frame's effects -- corrupt count, watchdog, reorder push -- then
        apply in arrival order, exactly as if delivered one by one.
        """
        self.frames_received += len(payloads)
        if self._m_received is not None:
            self._m_received.inc(len(payloads))
        for frame in decode_frames(payloads):
            if isinstance(frame, TraceError):
                self.corrupt_blocks += 1
                if self._m_corrupt is not None:
                    self._m_corrupt.inc()
                if logger.isEnabledFor(logging.DEBUG):
                    logger.debug("dropped corrupt transport frame: %s", frame)
                continue
            self.watchdog.heartbeat(frame.node, now, frame.epoch)
            if isinstance(frame, TimestampFrame):
                self._receive_batch(frame)
                continue
            if frame.is_heartbeat:
                self.heartbeats += 1
                if self._m_heartbeats is not None:
                    self._m_heartbeats.inc()
                continue
            self._edge_owner[frame.edge] = frame.node
            key: StreamKey = (frame.node, frame.src, frame.dst)
            buffer = self._buffers.get(key)
            if buffer is None:
                buffer = ReorderBuffer(key, lateness=self.config.lateness_blocks)
                self._buffers[key] = buffer
            self._ready.extend(buffer.push(frame))

    def _receive_batch(self, frame: TimestampFrame) -> None:
        """File one timestamp-batch frame: dedup within the stream's
        current epoch, drop pre-restart epochs, deliver the rest.

        No reorder buffering: batches carry absolute capture times, so
        the collector can ingest them in any arrival order."""
        key: StreamKey = (frame.node, frame.src, frame.dst)
        stream = self._batch_streams.get(key)
        if stream is None or frame.epoch > stream[0]:
            stream = [frame.epoch, 0, set()]
            self._batch_streams[key] = stream
        epoch, next_seq, ahead = stream
        if frame.epoch < epoch:
            self.timestamp_stale_epoch += 1
            return
        if frame.seq < next_seq or frame.seq in ahead:
            self.timestamp_duplicates += 1
            return
        if frame.seq == next_seq:
            next_seq += 1
            while next_seq in ahead:
                ahead.remove(next_seq)
                next_seq += 1
            stream[1] = next_seq
        else:
            ahead.add(frame.seq)
        self.timestamp_batches += 1
        if self._m_batches is not None:
            self._m_batches.inc()
        self._ready_batches.append(frame)

    def poll(self) -> List[BlockFrame]:
        """Ordered frames accumulated since the last poll."""
        ready, self._ready = self._ready, []
        return ready

    def poll_timestamp_batches(self) -> List[TimestampFrame]:
        """Timestamp-batch frames accepted since the last poll."""
        ready, self._ready_batches = self._ready_batches, []
        return ready

    def drain_gap_notices(self) -> List[GapNotice]:
        """All gap declarations since the last drain, across streams."""
        notices: List[GapNotice] = []
        for buffer in self._buffers.values():
            notices.extend(buffer.drain_gap_notices())
        return notices

    def edge_owner(self, edge: EdgeKey) -> Optional[NodeId]:
        """The tracer observed feeding an edge's stream, if known."""
        return self._edge_owner.get(edge)

    def known_edges(self) -> List[EdgeKey]:
        return sorted(self._edge_owner)

    def statuses(self, now: float) -> Dict[NodeId, TracerStatus]:
        return self.watchdog.statuses(now)

    def totals(self) -> dict:
        """Aggregate stream counters across all reorder buffers."""
        totals = {
            "frames_received": self.frames_received,
            "corrupt_blocks": self.corrupt_blocks,
            "heartbeats": self.heartbeats,
            "timestamp_batches": self.timestamp_batches,
            "timestamp_duplicates": self.timestamp_duplicates,
            "timestamp_stale_epoch": self.timestamp_stale_epoch,
            "delivered": 0,
            "duplicates": 0,
            "reordered": 0,
            "gaps": 0,
            "late_recovered": 0,
            "stale_epoch_drops": 0,
            "outstanding": 0,
        }
        for buffer in self._buffers.values():
            totals["delivered"] += buffer.delivered
            totals["duplicates"] += buffer.duplicates
            totals["reordered"] += buffer.reordered
            totals["gaps"] += buffer.gaps
            totals["late_recovered"] += buffer.late_recovered
            totals["stale_epoch_drops"] += buffer.stale_epoch_drops
            totals["outstanding"] += buffer.outstanding()
        return totals


def overall_quality(qualities: Iterable[DataQuality]) -> float:
    """Overall window quality score in ``[0, 1]``: 1 minus the mean
    per-edge penalty (1.0 when there are no edges to judge)."""
    penalties = [q.penalty for q in qualities]
    if not penalties:
        return 1.0
    return max(0.0, 1.0 - sum(penalties) / len(penalties))
