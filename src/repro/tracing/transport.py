"""Fault-tolerant streaming transport between tracers and the analyzer.

The paper pitches pathmap as an *online, non-intrusive* service: per-node
tracers stream RLE blocks to a central analyzer over a real network
(Section 3.6). Real links drop, duplicate, reorder and corrupt frames,
and real tracers lag, die and restart -- so this module gives the
tracer -> analyzer path the machinery to degrade gracefully instead of
silently mis-computing service paths:

* :class:`TransportLink` -- the sender side of one tracer's stream. It
  wraps each flush round in one :class:`~repro.tracing.wire.RoundFrame`
  carrying the tracer's **epoch** (bumped on restart), a per-tracer
  round **sequence number**, the round's block window, only the blocks
  that have runs, and the raw capture batches the tracer drained for the
  capture archive. A quiet tracer still sends its (empty) round, which is
  its heartbeat, so the receiver can tell "quiet" from "dead".
* :class:`FaultyChannel` -- a seeded, deterministic fault injector
  (drop / duplicate / reorder / corrupt / delay / total outage) standing
  in for the lossy link. Tests and benchmarks drive every failure mode
  through it; a default-constructed channel is a perfect pass-through.
* :class:`ReorderBuffer` -- the receiver-side re-sequencer for one
  tracer's round stream: buffers out-of-order rounds up to a
  configurable lateness tolerance, detects and declares lost rounds,
  drops duplicates and pre-restart (stale-epoch) rounds, and hands
  rounds that arrive after their gap was declared back as *late
  recoveries*.
* :class:`LivenessWatchdog` -- per-tracer heartbeat ageing: a tracer that
  has not been heard from within the staleness threshold is flagged
  ``lagging``, then ``dead``.
* :class:`TransportReceiver` -- the analyzer-side endpoint tying the
  above together: decodes frames (corrupt ones are counted, never
  raised), routes them to per-tracer reorder buffers, tracks liveness
  and which tracer owns which edge, and surfaces ordered rounds, their
  capture batches and :class:`GapNotice` records to the engine (a lost
  round is a gap on every edge its tracer owns).
* :class:`DataQuality` -- the per-edge verdict the engine derives from
  transport health (``fresh`` / ``degraded`` / ``stale`` plus the gap
  ratio), which :class:`~repro.core.pathmap.PathmapResult` carries so
  downstream consumers see paths built on degraded data annotated rather
  than silently dropped.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import TransportConfig
from repro.core.rle import RunLengthSeries
from repro.errors import TraceError
from repro.tracing.records import NodeId, TimestampBatch
from repro.tracing.wire import (
    RoundFrame,
    decode_frames,
    encode_frames,
    encode_timestamp_sections,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventBus
    from repro.obs.registry import MetricsRegistry

logger = logging.getLogger(__name__)

EdgeKey = Tuple[NodeId, NodeId]

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
class LostRound:
    """One round a :class:`ReorderBuffer` gave up waiting for.

    Round ``seq`` of ``epoch`` covered the block at ``block_start``; the
    receiver turns it into one :class:`GapNotice` per edge its tracer owns.
    """

    epoch: int
    seq: int
    block_start: int


@dataclasses.dataclass(frozen=True)
class GapNotice:
    """One edge's block declared lost with its tracer's round.

    Round ``seq`` was skipped for good; ``block_start`` is the absolute
    quantum index the lost round covered (derived from the stream's seq ->
    start anchor).
    """

    node: NodeId
    src: NodeId
    dst: NodeId
    epoch: int
    seq: int
    block_start: int

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

    Assigns the per-tracer epoch and round sequence numbers and frames
    each flush round. The round sequence advances exactly once per flush,
    so the receiver can map ``seq`` linearly onto block start positions.
    """

    def __init__(self, node: NodeId, epoch: int = 0) -> None:
        self.node = node
        self.epoch = epoch
        self.restarts = 0
        self.frames_sent = 0
        self._round_seq = 0

    def restart(self) -> None:
        """Bump the epoch (tracer restart): the round stream resets to seq 0."""
        self.epoch += 1
        self.restarts += 1
        self._round_seq = 0

    def encode_blocks(
        self,
        blocks: Dict[EdgeKey, RunLengthSeries],
        start: int,
        length: int,
        quantum: float,
        batches: Optional[Dict[EdgeKey, "np.ndarray"]] = None,
    ) -> bytes:
        """Frame one flush round: the window ``[start, start + length)``
        at ``quantum``, the blocks that spoke in it (``blocks`` holds no
        empty block) and the capture ``batches`` drained with it, whose
        timestamp section :meth:`encode_timestamp_batches` packs. Empty
        batches are left off the wire. A quiet round is the tracer's
        heartbeat."""
        batches = {edge: stamps for edge, stamps in (batches or {}).items() if len(stamps)}
        frame = RoundFrame(
            self.node, self.epoch, self._round_seq, start, length, quantum, blocks, batches
        )
        (payload,) = encode_frames([frame], [self.encode_timestamp_batches(batches, blocks)])
        self._round_seq += 1
        self.frames_sent += 1
        return payload

    def encode_timestamp_batches(
        self, batches: Dict[EdgeKey, "np.ndarray"], blocks: Iterable[EdgeKey] = ()
    ) -> bytes:
        """The timestamp section of a round carrying ``blocks`` (their
        edges name the first rows of the frame's edge table) and
        ``batches``: one packed float64 batch per edge. The observing
        side is derived from the link's node: a batch for ``src -> dst``
        captured here was observed at the destination exactly when this
        node *is* ``dst``."""
        (section,) = encode_timestamp_sections([(self.node, blocks, batches)])
        return section


# -- receiver side -----------------------------------------------------------------


class ReorderBuffer:
    """Re-sequencer for one tracer's round stream.

    Rounds are delivered in sequence order. A hole older than
    ``lateness`` rounds (measured against the newest sequence seen) is
    declared lost -- one :class:`LostRound`, counted in ``gaps`` -- and
    the stream skips ahead. A round arriving *after* its gap was declared
    is still delivered whole (a *late recovery*; rounds carry their own
    window position, so the engine can patch history), but within an
    epoch no sequence is ever delivered twice, and once a newer epoch has
    been seen, rounds from older epochs are dropped for good.
    """

    def __init__(self, node: NodeId, lateness: int = 2) -> None:
        if lateness < 0:
            raise TraceError(f"lateness must be >= 0, got {lateness}")
        self.node = node
        self.lateness = lateness
        self.epoch: Optional[int] = None
        self.next_seq = 0
        self.max_seen = -1
        self._pending: Dict[int, RoundFrame] = {}
        self._lost: set = set()
        self._anchor: Optional[int] = None  # block start of seq 0
        self._block_quanta = 0
        self.lost_rounds: List[LostRound] = []
        self.duplicates = 0
        self.reordered = 0
        self.gaps = 0
        self.late_recovered = 0
        self.stale_epoch_drops = 0
        self.delivered = 0

    def push(self, frame: RoundFrame) -> List[RoundFrame]:
        """Ingest one round; returns the rounds now deliverable in order."""
        if self.epoch is None:
            self.epoch = frame.epoch
        if frame.epoch < self.epoch:
            # Pre-restart round: never resurrected.
            self.stale_epoch_drops += 1
            return []
        out: List[RoundFrame] = []
        if frame.epoch > self.epoch:
            # Tracer restarted: drain what the old epoch buffered (in
            # order, declaring unfilled holes), then reset the stream.
            out.extend(self._drain_pending())
            self.epoch = frame.epoch
            self.next_seq = 0
            self.max_seen = -1
            self._lost.clear()
            self._anchor = None
        if self._anchor is None:
            self._block_quanta = frame.length
            self._anchor = frame.start - frame.seq * frame.length
        if frame.seq < self.next_seq:
            if frame.seq in self._lost:
                # The gap this round would have filled was already
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

    def flush(self) -> List[RoundFrame]:
        """Deliver everything still buffered, declaring unfilled holes."""
        return self._drain_pending()

    def drain_lost_rounds(self) -> List[LostRound]:
        lost, self.lost_rounds = self.lost_rounds, []
        return lost

    def outstanding(self) -> int:
        """Rounds buffered waiting for a hole to fill."""
        return len(self._pending)

    def newest_start(self) -> Optional[int]:
        """Block start of the newest round seen in the current epoch
        (buffered or delivered), or None before the first."""
        if self._anchor is None or self.max_seen < 0:
            return None
        return self._anchor + self.max_seen * self._block_quanta

    def _pop_consecutive(self) -> List[RoundFrame]:
        out: List[RoundFrame] = []
        while self.next_seq in self._pending:
            out.append(self._pending.pop(self.next_seq))
            self.next_seq += 1
            self.delivered += 1
        return out

    def _drain_pending(self) -> List[RoundFrame]:
        out: List[RoundFrame] = []
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
        self.lost_rounds.append(
            LostRound(self.epoch or 0, seq, self._anchor + seq * self._block_quanta)
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
    """Analyzer-side ingest endpoint for framed round streams.

    Decodes incoming payloads (corrupt frames are counted and dropped,
    never raised), re-sequences each tracer's rounds through a
    :class:`ReorderBuffer`, feeds every frame to the liveness watchdog,
    records which tracer owns each edge that spoke, and accumulates
    ordered rounds -- and the capture batches riding them -- until the
    engine ``poll``\\ s. Batches share their round's fate: a duplicate,
    pre-restart or lost round delivers none, a late-recovered one
    delivers them late.
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
        self._buffers: Dict[NodeId, ReorderBuffer] = {}
        self._ready: List[RoundFrame] = []
        # Every edge that ever spoke, and the tracer whose rounds vouch
        # for it (quiet when absent from one of them).
        self._edge_owner: Dict[EdgeKey, NodeId] = {}
        # One notice per owned edge of every round declared lost; ``gaps``
        # counts them all, drained or not.
        self._gap_notices: List[GapNotice] = []
        self.gaps = 0
        # Capture batches of the delivered rounds, in delivery order.
        self._ready_batches: List[TimestampBatch] = []
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
                "transport_heartbeats_total",
                "Round frames received (every round, quiet or loud, is a heartbeat)",
            )
            self._m_batches = metrics.counter(
                "transport_timestamp_batches_total",
                "Capture batches accepted with their round",
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
        frame's effects -- corrupt count, watchdog, edge ownership,
        reorder push -- then apply in arrival order, exactly as if
        delivered one by one.
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
            self.heartbeats += 1
            if self._m_heartbeats is not None:
                self._m_heartbeats.inc()
            node = frame.node
            buffer = self._buffers.get(node)
            if buffer is None:
                buffer = ReorderBuffer(node, self.config.lateness_blocks)
                self._buffers[node] = buffer
            for edge in frame.blocks:
                self._edge_owner[edge] = node
            duplicates, stale = buffer.duplicates, buffer.stale_epoch_drops
            self._deliver(buffer.push(frame))
            # A duplicate or pre-restart round drops its batches with it.
            batches = len(frame.batches)
            self.timestamp_duplicates += (buffer.duplicates - duplicates) * batches
            self.timestamp_stale_epoch += (buffer.stale_epoch_drops - stale) * batches
            if buffer.lost_rounds:
                self._declare_lost(node, buffer.drain_lost_rounds())

    def _declare_lost(self, node: NodeId, rounds: List[LostRound]) -> None:
        """A lost round is a gap on every edge its tracer owns now."""
        owned = sorted(self.owned_edges(node))
        self.gaps += len(rounds) * len(owned)
        for lost in rounds:
            for src, dst in owned:
                self._gap_notices.append(
                    GapNotice(node, src, dst, lost.epoch, lost.seq, lost.block_start)
                )

    def _deliver(self, rounds: List[RoundFrame]) -> None:
        """Queue delivered rounds, and their capture batches as
        :class:`~repro.tracing.records.TimestampBatch` records."""
        self._ready.extend(rounds)
        for frame in rounds:
            for (src, dst), stamps in frame.batches.items():
                self._ready_batches.append(
                    TimestampBatch(src, dst, frame.node == dst, stamps)
                )
            self.timestamp_batches += len(frame.batches)
            if self._m_batches is not None and frame.batches:
                self._m_batches.inc(len(frame.batches))

    def poll(self) -> List[RoundFrame]:
        """Ordered rounds accumulated since the last poll."""
        ready, self._ready = self._ready, []
        return ready

    def poll_timestamp_batches(self) -> List[TimestampBatch]:
        """Capture batches of the rounds delivered since the last call,
        in delivery order."""
        ready, self._ready_batches = self._ready_batches, []
        return ready

    def drain_gap_notices(self) -> List[GapNotice]:
        """All gap declarations since the last drain, across tracers: one
        per owned edge of every round declared lost."""
        notices, self._gap_notices = self._gap_notices, []
        return notices

    def edge_owner(self, edge: EdgeKey) -> Optional[NodeId]:
        """The tracer whose rounds carry an edge, if it ever spoke."""
        return self._edge_owner.get(edge)

    def owned_edges(self, node: NodeId) -> FrozenSet[EdgeKey]:
        """Every edge ``node``'s rounds have carried: the edges one of its
        rounds vouches for, loud or quiet. A scan over every edge that
        spoke, which only the gap paths need."""
        return frozenset(e for e, owner in self._edge_owner.items() if owner == node)

    def newest_round_start(self, node: NodeId) -> Optional[int]:
        """Block start of the newest round seen from ``node`` in its
        current epoch (buffered or delivered), or None before the first."""
        buffer = self._buffers.get(node)
        return None if buffer is None else buffer.newest_start()

    def statuses(self, now: float) -> Dict[NodeId, TracerStatus]:
        return self.watchdog.statuses(now)

    def totals(self) -> dict:
        """Aggregate stream counters across all reorder buffers. Round
        counters (``delivered``, ``duplicates``, ``reordered``,
        ``late_recovered``, ``stale_epoch_drops``, ``outstanding``) count
        rounds; ``gaps`` counts the edge blocks lost with them. The
        ``timestamp_*`` counters count capture batches: delivered with
        their round, or dropped with a duplicate or stale-epoch one."""
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
            "gaps": self.gaps,
            "late_recovered": 0,
            "stale_epoch_drops": 0,
            "outstanding": 0,
        }
        for buffer in self._buffers.values():
            totals["delivered"] += buffer.delivered
            totals["duplicates"] += buffer.duplicates
            totals["reordered"] += buffer.reordered
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
