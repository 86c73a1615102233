"""Wire format for streamed RLE time-series blocks (paper Section 3.6).

The paper's tracer "streams RLE-encoded time series data" to the central
analyzer, and Section 3.5 credits RLE with "reduc[ing] the network
transmission overhead". This module is that wire format: a compact,
self-delimiting binary encoding of a :class:`RunLengthSeries` block with
an exact decode, so the transmission saving can actually be measured
(see ``benchmarks/test_fig10_trace_size.py`` and the wire-size tests).

Layout (little-endian)::

    magic     2 bytes  b"RL"
    version   1 byte
    quantum   8 bytes  float64 (seconds)
    start     8 bytes  int64   (absolute quantum index of the window)
    length    8 bytes  int64   (window length in quanta)
    runs      4 bytes  uint32  (number of runs)
    per run:
      offset  varint   (delta from previous run's end -- gap length)
      count   varint   (run length, >= 1)
      value   4 bytes  float32 (density value)

Run starts are delta-encoded against the previous run's end, so long
quiet zones cost one small varint instead of an absolute index.

The codec works on a *flush round*: :func:`encode_blocks` and
:func:`decode_blocks` take a list of blocks and lay out / parse the runs
of all of them with array operations (Python work per block, never per
run); :func:`encode_block` and :func:`decode_block` are one-element
calls. The byte layout above is pinned by
``tests/data/wire_golden.json``; the per-run loop it was first written
as lives on in ``tests/wire_reference.py`` as the differential oracle.

Transport framing
-----------------

A raw block says *what* was measured but not *who* measured it or *where
it belongs in the stream*. For the fault-tolerant transport layer
(:mod:`repro.tracing.transport`) each block travels inside a
:class:`BlockFrame` that adds the sending tracer's identity, a
**per-tracer epoch** (bumped on tracer restart, so pre-restart blocks can
never be resurrected), a **per-stream sequence number** (so the receiver
can detect drops, duplicates and reordering) and a CRC-32 over the frame
body (so corruption on a lossy link is detected instead of silently
decoded). Layout (little-endian)::

    magic     2 bytes  b"RF"
    version   1 byte
    crc32     4 bytes  uint32, CRC-32 of every byte after this field
    flags     1 byte   (bit 0: heartbeat -- no block payload;
                        bit 1: packed timestamp batch payload)
    epoch     varint
    seq       varint
    node      varint length + utf-8 (observing tracer id)
    src       varint length + utf-8 (edge source; empty for heartbeats)
    dst       varint length + utf-8 (edge destination; empty for heartbeats)
    block     remaining bytes: one encode_block() payload (data frames only)

Packed timestamp frames
-----------------------

The high-throughput ingest path ships raw capture timestamps in bulk:
one :class:`TimestampFrame` carries N float64 timestamps for one edge as
a packed little-endian array (``np.frombuffer`` on decode -- no
per-record parsing). It shares the CRC-framed envelope above; after the
``dst`` string the payload continues::

    side      1 byte   (1: observed at destination, 0: at source)
    count     varint   (number of timestamps)
    payload   count * 8 bytes, little-endian float64

The per-record :class:`~repro.tracing.records.CaptureRecord` path stays
available for compatibility; batch frames are strictly additive.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.rle import RunLengthSeries
from repro.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

MAGIC = b"RL"
VERSION = 1

FRAME_MAGIC = b"RF"
FRAME_VERSION = 1
#: Frame flag bit: heartbeat frame (liveness only, no block payload).
FRAME_FLAG_HEARTBEAT = 0x01
#: Frame flag bit: packed float64 timestamp-batch payload (no RLE block).
FRAME_FLAG_TIMESTAMPS = 0x02

_HEADER = struct.Struct("<2sBdqqI")
_FRAME_PREFIX = struct.Struct("<2sBI")  # magic, version, crc32


def _encode_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise TraceError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise TraceError("truncated varint in wire block")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise TraceError("varint overflow in wire block")


#: One run whose two varints both fit a single byte: the packed layout
#: the codec reads and writes without touching individual varints.
_NARROW_RUN = np.dtype([("gap", "u1"), ("count", "u1"), ("value", "<f4")])
_INT64_MAX = 2**63 - 1
_NO_INTS = np.empty(0, np.int64)
_NO_FLOATS = np.empty(0, np.float64)


def encode_blocks(blocks: Sequence[RunLengthSeries]) -> List[bytes]:
    """Serialize a flush round of RLE blocks, one payload per block.

    The runs of every block are encoded together: gaps, counts and values
    are concatenated, the varints are laid out as one masked byte matrix
    (or, when every varint of the round fits one byte, as one packed
    record array), and each block's body is sliced back out. Python work
    is per block, never per run.
    """
    headers = [
        _HEADER.pack(MAGIC, VERSION, b.quantum, b.start, b.length, b.num_runs)
        for b in blocks
    ]
    total = sum(b.num_runs for b in blocks)
    if total == 0:
        return headers
    runs = np.array([b.num_runs for b in blocks], dtype=np.int64)
    starts = np.concatenate([b.starts for b in blocks])
    counts = np.concatenate([b.counts for b in blocks])
    values = np.concatenate([b.values for b in blocks]).astype("<f4")
    # Gap of each run from the previous run's end; a block's first run
    # measures from its window start.
    gaps = np.empty(total, dtype=np.int64)
    gaps[1:] = starts[1:] - (starts[:-1] + counts[:-1])
    occupied = runs > 0
    first_run = (np.cumsum(runs) - runs)[occupied]
    window_starts = np.array([b.start for b in blocks], dtype=np.int64)
    gaps[first_run] = starts[first_run] - window_starts[occupied]

    lowest = min(int(gaps.min()), int(counts.min()))
    if lowest < 0:
        raise TraceError(f"varint cannot encode negative value {lowest}")
    highest = max(int(gaps.max()), int(counts.max()))
    width = max(1, (highest.bit_length() + 6) // 7)  # bytes of the widest varint
    if width == 1:
        packed = np.empty(total, dtype=_NARROW_RUN)
        packed["gap"] = gaps
        packed["count"] = counts
        packed["value"] = values
        body = packed.tobytes()
        run_ends = _NARROW_RUN.itemsize * np.arange(1, total + 1)
    else:
        # One row per run: gap septets | count septets | float32 bytes,
        # and a mask selecting the bytes each varint really uses.
        pair = np.stack([gaps, counts], axis=1).astype(np.uint64)
        column = np.arange(width, dtype=np.uint64)
        lengths = np.ones(pair.shape, dtype=np.uint64)
        for k in range(1, width):
            lengths += pair >= (1 << (7 * k))
        septets = ((pair[:, :, None] >> (7 * column)) & 0x7F).astype(np.uint8)
        septets[column + 1 < lengths[:, :, None]] |= 0x80
        matrix = np.empty((total, 2 * width + 4), dtype=np.uint8)
        matrix[:, : 2 * width] = septets.reshape(total, 2 * width)
        matrix[:, 2 * width :] = values.view(np.uint8).reshape(total, 4)
        mask = np.ones(matrix.shape, dtype=bool)
        mask[:, : 2 * width] = (column < lengths[:, :, None]).reshape(total, 2 * width)
        body = matrix[mask].tobytes()
        run_ends = np.cumsum(lengths.sum(axis=1).astype(np.int64) + 4)
    # Body of block k ends where its last run ends; an empty block ends
    # where the block before it did.
    body_ends = np.concatenate([[0], run_ends])[np.cumsum(runs)].tolist()
    out: List[bytes] = []
    lo = 0
    for header, hi in zip(headers, body_ends):
        out.append(header + body[lo:hi])
        lo = hi
    return out


def encode_block(
    series: RunLengthSeries, metrics: Optional["MetricsRegistry"] = None
) -> bytes:
    """Serialize one RLE block to its wire representation.

    ``metrics`` (optional) receives ``wire_blocks_encoded_total``,
    ``wire_bytes_encoded_total`` and the ``wire_runs_per_block`` histogram.
    """
    (payload,) = encode_blocks([series])
    if metrics is not None:
        _wire_metrics(metrics, "encoded", len(payload), series.num_runs)
    return payload


def _parse_block_header(data: bytes) -> Tuple[float, int, int, int]:
    """``(quantum, start, length, runs)`` of one payload, header-checked."""
    if len(data) < _HEADER.size:
        raise TraceError("wire block shorter than header")
    magic, version, quantum, start, length, num_runs = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceError(f"bad wire magic {magic!r}")
    if version != VERSION:
        raise TraceError(f"unsupported wire version {version}")
    if not quantum > 0.0:  # also rejects NaN from corrupted header bytes
        raise TraceError(f"corrupt wire block: bad quantum {quantum!r}")
    if length < 0:
        raise TraceError(f"corrupt wire block: negative length {length}")
    if start + length > _INT64_MAX:
        raise TraceError("corrupt wire block: window end overflows int64")
    return quantum, start, length, num_runs


def _split_narrow_runs(
    body: np.ndarray, runs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Runs of a round whose every body is six bytes per run.

    Such a body is well-formed exactly when no varint byte carries the
    continuation bit (a longer varint would push the last run past the
    end). Returns ``(gaps, counts, float32 values, framed)`` over the
    well-framed blocks' runs.
    """
    packed = body.view(_NARROW_RUN)
    owner = np.repeat(np.arange(runs.size), runs)
    framed = np.ones(runs.size, dtype=bool)
    framed[owner[(packed["gap"] | packed["count"]) >= 0x80]] = False
    packed = packed[framed[owner]]
    return (
        packed["gap"].astype(np.int64),
        packed["count"].astype(np.int64),
        packed["value"],
        framed,
    )


def _split_wide_runs(
    body: np.ndarray, body_starts: np.ndarray, body_ends: np.ndarray, runs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Runs of a round with multi-byte varints.

    A run's position depends on the varint lengths of every run before
    it, so the chain ``position -> position + run size`` is followed for
    all blocks at once by pointer doubling: ``log2(longest block)`` array
    steps instead of one Python step per run. A chain stops at its
    block's end, so a hostile body can only spoil its own block. A block
    is well-framed when its chain is exactly ``runs`` runs, the last one
    ending on the body's last byte, and no varint is longer than ten
    bytes or worth 2**63 or more. Returns ``(gaps, counts, float32
    values, framed)`` over the well-framed blocks' runs.
    """
    n = body.size
    at = np.arange(n, dtype=np.int64)
    # Length of the varint starting at each byte: distance to the next
    # byte without the continuation bit (past the end when there is none).
    last = np.minimum.accumulate(np.where(body < 0x80, at, n)[::-1])[::-1]
    varint_len = np.append(last - at + 1, n)
    count_at = np.minimum(at + varint_len[:-1], n)
    value_at = count_at + varint_len[count_at]
    run_end = value_at + 4
    block_of = np.repeat(np.arange(runs.size), body_ends - body_starts)
    # Next run of the same block, or the sentinel n.
    hop = np.append(np.where(run_end < body_ends[block_of], run_end, n), n)

    positions = body_starts[(runs > 0) & (body_ends > body_starts)]
    longest = int(np.minimum(runs, (body_ends - body_starts) // 6).max())
    reach = 1
    while reach < longest:
        onward = hop[positions]
        positions = np.concatenate([positions, onward[onward < n]])
        hop = hop[hop]
        reach *= 2
    positions.sort()

    owner = block_of[positions]
    found = np.bincount(owner, minlength=runs.size)
    framed = found == runs
    # ...and the chain's last run must end exactly on the body's last byte.
    final = positions[(np.cumsum(found) - 1)[found > 0]]
    framed[found > 0] &= run_end[final] == body_ends[found > 0]
    framed[runs == 0] = (body_ends == body_starts)[runs == 0]

    positions = positions[framed[owner]]
    owner = owner[framed[owner]]
    pair_at = np.stack([positions, count_at[positions]])  # gap row, count row
    pair_len = varint_len[pair_at]
    width = min(int(pair_len.max(initial=1)), 10)
    column = np.arange(width)
    septets = body[np.minimum(pair_at[:, :, None] + column, n - 1)] & 0x7F
    septets[column >= pair_len[:, :, None]] = 0
    overflow = (pair_len > 10).any(axis=0)
    if width == 10:  # a tenth byte carries bits 63 and up
        overflow |= (septets[:, :, 9] != 0).any(axis=0)
        septets = septets[:, :, :9]
    shifts = 7 * np.arange(septets.shape[2], dtype=np.uint64)
    pair = np.bitwise_or.reduce(septets.astype(np.uint64) << shifts, axis=2)
    values = body[value_at[positions][:, None] + np.arange(4)].view("<f4").ravel()
    if overflow.any():
        framed[owner[overflow]] = False
        keep = framed[owner]
        pair, values = pair[:, keep], values[keep]
    gaps, counts = pair.view(np.int64)
    return gaps, counts, values, framed


def _place_runs(
    gaps: np.ndarray,
    counts: np.ndarray,
    values: np.ndarray,
    runs: np.ndarray,
    window_starts: np.ndarray,
    window_lengths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Absolute run starts, and per block whether its runs keep every
    :class:`RunLengthSeries` invariant -- checked once for the round.

    ``runs`` / ``window_starts`` / ``window_lengths`` are per block; the
    run arrays hold the blocks' runs back to back. Positions are summed
    relative to each window start as uint64: gaps and counts are
    non-negative, so within a block run starts and ends never decrease,
    and the first one past the window (< 2**64, each term being <=
    length) is seen exactly however far later sums wrap.
    """
    owner = np.repeat(np.arange(runs.size), runs)
    limit = window_lengths[owner]
    ends = np.cumsum((gaps + counts).view(np.uint64))
    base = np.concatenate([[np.uint64(0)], ends])[np.cumsum(runs) - runs]
    ends -= base[owner]
    starts = ends - counts.view(np.uint64)
    broken = (
        (gaps > limit)
        | (counts > limit)
        | (counts < 1)
        | ~(values > 0)  # also rejects NaN
        | (starts > limit.view(np.uint64))
        | (ends > limit.view(np.uint64))
    )
    sound = np.ones(runs.size, dtype=bool)
    sound[owner[broken]] = False
    return starts.view(np.int64) + window_starts[owner], sound


def decode_blocks(
    payloads: Sequence[bytes],
) -> List[Union[RunLengthSeries, TraceError]]:
    """Exact inverse of :func:`encode_blocks` (float32 value precision).

    Returns one entry per payload: the decoded block, or the
    :class:`~repro.errors.TraceError` that rejects it (truncated varint or
    run value, varint overflow, trailing bytes, a header field out of
    range, any violated :class:`RunLengthSeries` invariant) -- returned,
    not raised, so one hostile payload never poisons its neighbours.
    Bodies are concatenated and decoded in one pass; Python work is per
    payload, never per run.
    """
    out: List[Union[RunLengthSeries, TraceError]] = []
    slots: List[int] = []
    headers: List[Tuple[float, int, int, int]] = []
    for data in payloads:
        try:
            headers.append(_parse_block_header(data))
            slots.append(len(out))
            out.append(None)  # type: ignore[arg-type]  # filled in below
        except TraceError as exc:
            out.append(exc)
    if not slots:
        return out
    runs = np.array([h[3] for h in headers], dtype=np.int64)
    sizes = np.array([len(payloads[s]) - _HEADER.size for s in slots], dtype=np.int64)
    if not sizes.any():
        # Headers only: a block is empty, or short of every run it claims.
        framed = sound = runs == 0
        starts = counts = _NO_INTS
        values = _NO_FLOATS
    else:
        body = np.frombuffer(
            b"".join([memoryview(payloads[s])[_HEADER.size :] for s in slots]), np.uint8
        )
        if np.array_equal(sizes, _NARROW_RUN.itemsize * runs):
            gaps, counts, values, framed = _split_narrow_runs(body, runs)
        else:
            body_ends = np.cumsum(sizes)
            gaps, counts, values, framed = _split_wide_runs(
                body, body_ends - sizes, body_ends, runs
            )
        with np.errstate(invalid="ignore"):  # signalling NaNs in corrupt bytes
            values = values.astype(np.float64)
        starts, placed = _place_runs(
            gaps,
            counts,
            values,
            runs[framed],
            np.array([h[1] for h in headers], dtype=np.int64)[framed],
            np.array([h[2] for h in headers], dtype=np.int64)[framed],
        )
        sound = framed.copy()
        sound[framed] = placed
        if not placed.all():
            keep = np.repeat(placed, runs[framed])
            starts, counts, values = starts[keep], counts[keep], values[keep]
    lo = 0
    for k, slot in enumerate(slots):
        quantum, start, length, num_runs = headers[k]
        if sound[k]:
            hi = lo + num_runs
            out[slot] = RunLengthSeries._from_validated(
                starts[lo:hi], counts[lo:hi], values[lo:hi], start, length, quantum
            )
            lo = hi
        elif framed[k]:
            out[slot] = TraceError(
                "corrupt wire block: runs break the series invariants (count < 1, "
                f"value not positive, or outside the window [{start}, {start + length}))"
            )
        else:
            out[slot] = TraceError(
                f"corrupt wire block: {sizes[k]} body bytes are not exactly "
                f"{num_runs} runs (truncated, trailing bytes or varint overflow)"
            )
    return out


def decode_block(
    data: bytes, metrics: Optional["MetricsRegistry"] = None
) -> RunLengthSeries:
    """Exact inverse of :func:`encode_block` (float32 value precision).

    Truncated or corrupted payloads raise :class:`~repro.errors.TraceError`
    -- never a bare ``struct.error`` or a series-construction error -- so a
    streaming analyzer can drop the block and keep its refresh loop alive.

    ``metrics`` (optional) receives ``wire_blocks_decoded_total``,
    ``wire_bytes_decoded_total`` and the ``wire_runs_per_block`` histogram.
    """
    (block,) = decode_blocks([data])
    if isinstance(block, TraceError):
        raise block
    if metrics is not None:
        _wire_metrics(metrics, "decoded", len(data), block.num_runs)
    return block


def _wire_metrics(
    metrics: "MetricsRegistry", direction: str, num_bytes: int, num_runs: int
) -> None:
    """Record one block's codec counters into a registry."""
    from repro.obs.instruments import DEFAULT_COUNT_BUCKETS

    metrics.counter(
        f"wire_blocks_{direction}_total", f"RLE blocks {direction}"
    ).inc()
    metrics.counter(
        f"wire_bytes_{direction}_total", f"Wire-format bytes {direction}"
    ).inc(num_bytes)
    metrics.histogram(
        "wire_runs_per_block",
        "RLE runs per block crossing the wire codec",
        buckets=DEFAULT_COUNT_BUCKETS,
    ).observe(num_runs)


# -- transport framing ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BlockFrame:
    """One transport frame: a wire block plus stream bookkeeping.

    Attributes
    ----------
    node:
        Id of the tracer that produced the frame.
    epoch:
        Per-tracer restart epoch; bumped whenever the tracer restarts so
        the receiver can reject blocks that predate the restart.
    seq:
        Sequence number within the ``(node, src, dst)`` stream for this
        epoch; one block per flush round, starting at 0.
    src, dst:
        The edge the block measures (empty strings for heartbeats).
    block:
        The RLE payload, or None for a heartbeat frame.
    """

    node: str
    epoch: int
    seq: int
    src: str
    dst: str
    block: Optional[RunLengthSeries] = None

    @property
    def is_heartbeat(self) -> bool:
        return self.block is None

    @property
    def edge(self) -> Tuple[str, str]:
        return (self.src, self.dst)


@dataclasses.dataclass(frozen=True, eq=False)
class TimestampFrame:
    """One transport frame carrying a packed timestamp batch.

    The columnar sibling of :class:`BlockFrame`: the same envelope
    (node identity, restart epoch, per-stream sequence number, CRC-32)
    around N raw float64 capture timestamps for one edge instead of an
    RLE block. ``observed_at_destination`` records which endpoint
    captured the batch, so the receiving collector files it on the
    correct side.
    """

    node: str
    epoch: int
    seq: int
    src: str
    dst: str
    timestamps: np.ndarray
    observed_at_destination: bool = True

    def __post_init__(self) -> None:
        arr = np.asarray(self.timestamps, dtype=np.float64)
        if arr.ndim != 1:
            raise TraceError(
                f"timestamp frame payload must be one-dimensional, got {arr.shape}"
            )
        object.__setattr__(self, "timestamps", arr)

    @property
    def edge(self) -> Tuple[str, str]:
        return (self.src, self.dst)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimestampFrame):
            return NotImplemented
        return (
            self.node == other.node
            and self.epoch == other.epoch
            and self.seq == other.seq
            and self.src == other.src
            and self.dst == other.dst
            and self.observed_at_destination == other.observed_at_destination
            and np.array_equal(self.timestamps, other.timestamps)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable array payload


#: Either transport frame kind, as returned by :func:`decode_frame`.
AnyFrame = Union[BlockFrame, TimestampFrame]


def _encode_string(text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    _encode_varint(len(raw), out)
    out += raw


def _decode_string(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = _decode_varint(data, pos)
    if pos + length > len(data):
        raise TraceError("truncated string in transport frame")
    try:
        text = data[pos : pos + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"corrupt transport frame: bad utf-8 ({exc})") from exc
    return text, pos + length


def encode_frames(frames: Sequence[AnyFrame]) -> List[bytes]:
    """Serialize a flush round of frames.

    Every block payload among them comes from one :func:`encode_blocks`
    call."""
    blocks = iter(
        encode_blocks(
            [f.block for f in frames if isinstance(f, BlockFrame) and f.block is not None]
        )
    )
    out: List[bytes] = []
    for frame in frames:
        body = bytearray()
        if isinstance(frame, TimestampFrame):
            body.append(FRAME_FLAG_TIMESTAMPS)
        else:
            body.append(FRAME_FLAG_HEARTBEAT if frame.is_heartbeat else 0)
        _encode_varint(frame.epoch, body)
        _encode_varint(frame.seq, body)
        _encode_string(frame.node, body)
        _encode_string(frame.src, body)
        _encode_string(frame.dst, body)
        if isinstance(frame, TimestampFrame):
            body.append(1 if frame.observed_at_destination else 0)
            _encode_varint(int(frame.timestamps.size), body)
            body += np.ascontiguousarray(frame.timestamps, dtype="<f8").tobytes()
        elif frame.block is not None:
            body += next(blocks)
        out.append(
            _FRAME_PREFIX.pack(FRAME_MAGIC, FRAME_VERSION, zlib.crc32(body)) + body
        )
    return out


def encode_frame(frame: AnyFrame) -> bytes:
    """Serialize one :class:`BlockFrame` or :class:`TimestampFrame`."""
    (payload,) = encode_frames([frame])
    return payload


def _decode_envelope(data: bytes) -> Union[AnyFrame, tuple]:
    """CRC-check and parse one frame up to its payload. Heartbeat and
    timestamp frames come back complete; a data frame comes back as its
    :class:`BlockFrame` fields with the undecoded block payload last."""
    if len(data) < _FRAME_PREFIX.size + 1:
        raise TraceError("transport frame shorter than header")
    magic, version, crc = _FRAME_PREFIX.unpack_from(data, 0)
    if magic != FRAME_MAGIC:
        raise TraceError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise TraceError(f"unsupported frame version {version}")
    body = data[_FRAME_PREFIX.size :]
    if zlib.crc32(body) != crc:
        raise TraceError("transport frame failed CRC-32 check")
    flags = body[0]
    pos = 1
    epoch, pos = _decode_varint(body, pos)
    seq, pos = _decode_varint(body, pos)
    node, pos = _decode_string(body, pos)
    src, pos = _decode_string(body, pos)
    dst, pos = _decode_string(body, pos)
    if flags & FRAME_FLAG_TIMESTAMPS:
        at_destination, timestamps, pos = _decode_timestamp_payload(body, pos)
        if pos != len(body):
            raise TraceError(f"{len(body) - pos} trailing bytes in timestamp frame")
        return TimestampFrame(
            node, epoch, seq, src, dst, timestamps,
            observed_at_destination=at_destination,
        )
    if flags & FRAME_FLAG_HEARTBEAT:
        if pos != len(body):
            raise TraceError(f"{len(body) - pos} trailing bytes in heartbeat frame")
        return BlockFrame(node, epoch, seq, src, dst, None)
    return node, epoch, seq, src, dst, body[pos:]


def decode_frames(payloads: Sequence[bytes]) -> List[Union[AnyFrame, TraceError]]:
    """Exact inverse of :func:`encode_frames`, one entry per payload.

    Truncation, a failed CRC-32, or any corruption in the embedded
    payload yields the :class:`~repro.errors.TraceError` in that frame's
    place -- the transport receiver counts such frames
    (``transport_corrupt_blocks_total``) and drops them instead of
    letting the refresh loop die. Envelopes are parsed per frame; the
    block payloads of all data frames are decoded by one
    :func:`decode_blocks` call. Entries are :class:`TimestampFrame` for
    packed-batch frames, :class:`BlockFrame` otherwise.
    """
    out: List[Union[AnyFrame, TraceError]] = []
    slots: List[int] = []
    bodies: List[bytes] = []
    for data in payloads:
        try:
            parsed = _decode_envelope(data)
        except TraceError as exc:
            parsed = exc
        if isinstance(parsed, tuple):
            slots.append(len(out))
            bodies.append(parsed[-1])
        out.append(parsed)
    for slot, block in zip(slots, decode_blocks(bodies)):
        out[slot] = (
            block
            if isinstance(block, TraceError)
            else BlockFrame(*out[slot][:-1], block)
        )
    return out


def decode_frame(data: bytes) -> AnyFrame:
    """Exact inverse of :func:`encode_frame`.

    One-element :func:`decode_frames`; raises the
    :class:`~repro.errors.TraceError` instead of returning it."""
    (frame,) = decode_frames([data])
    if isinstance(frame, TraceError):
        raise frame
    return frame


def _decode_timestamp_payload(
    body: bytes, pos: int
) -> Tuple[bool, np.ndarray, int]:
    """Decode ``side + count + packed float64`` from a timestamp frame."""
    if pos >= len(body):
        raise TraceError("truncated timestamp frame: missing side byte")
    side = body[pos]
    pos += 1
    if side not in (0, 1):
        raise TraceError(f"corrupt timestamp frame: bad side byte {side}")
    count, pos = _decode_varint(body, pos)
    end = pos + 8 * count
    if end > len(body):
        raise TraceError("truncated timestamp frame payload")
    timestamps = np.frombuffer(body, dtype="<f8", count=count, offset=pos)
    if count and not np.isfinite(timestamps).all():
        raise TraceError("corrupt timestamp frame: non-finite timestamp")
    return bool(side), timestamps, end


def wire_sizes(series: RunLengthSeries, message_count: int = 0) -> dict:
    """Byte counts of the alternatives the paper compares.

    * ``raw_timestamps``: 8 bytes per captured message (the
      tcpdump-and-forward strawman); pass ``message_count``.
    * ``dense``: 4 bytes per quantum of the window.
    * ``sparse``: 12 bytes per non-zero sample (8 index + 4 value).
    * ``rle_wire``: the actual encoded block.
    """
    return {
        "raw_timestamps": 8 * message_count,
        "dense": 4 * series.length,
        "sparse": 12 * series.nnz,
        "rle_wire": len(encode_block(series)),
    }
