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
(:mod:`repro.tracing.transport`) each tracer sends one
:class:`RoundFrame` per flush round. It carries the tracer's identity, a
**per-tracer epoch** (bumped on tracer restart, so pre-restart rounds can
never be resurrected), a **per-tracer round sequence number** (so the
receiver can detect drops, duplicates and reordering), the round's block
window, and then only the blocks that have runs -- silence costs nothing
on the wire, and a quiet tracer's round is its heartbeat. A CRC-32 over
the frame body detects corruption on a lossy link instead of silently
decoding it. Layout (little-endian)::

    magic     2 bytes  b"RF"
    version   1 byte   (FRAME_VERSION = 3)
    crc32     4 bytes  uint32, CRC-32 of every byte after this field
    flags     1 byte   (reserved: 0)
    epoch     varint
    seq       varint
    node      varint length + utf-8 (observing tracer id)
    quantum   8 bytes  float64 (seconds)
    start     8 bytes  int64   (absolute quantum index of the round's window)
    length    8 bytes  int64   (window length in quanta)
    blocks    varint   (number of loud blocks that follow)
    per block:
      src     varint length + utf-8
      dst     varint length + utf-8
      runs    varint   (>= 1, and at most size / 6: a run is >= 6 bytes)
      size    varint   (bytes of the run body)
      body    the block's runs, in the run layout above
    -- timestamp section --
    edges     varint   (edges named by a batch but by no block)
    per edge:
      src     varint length + utf-8
      dst     varint length + utf-8
    batches   varint   (number of capture batches)
    per batch:
      edge    varint   (index into the edge table: the blocks' edges in
                        order, then the edges above)
      count   varint   (number of timestamps)
    widths    1 byte per batch of >= 2 timestamps (1..8: bytes per delta)
    firsts    8 bytes per non-empty batch (float64: its first timestamp)
    deltas    per batch of >= 2 timestamps, count - 1 deltas of width bytes

The run body is byte for byte what :func:`encode_block` writes after its
header. The timestamp section carries the raw capture timestamps the
tracer drained this round, one batch per edge, losslessly: each batch is
its first float64, then the zigzag-coded differences of consecutive
float64 bit patterns (wrapping mod 2**64, so unsorted, negative and
subnormal values round-trip bit for bit), each cut to the batch's one
byte width, little-endian. The section is columnar -- headers, widths,
first values, deltas -- so one array pass codes every batch of a round
(:func:`encode_timestamp_sections`) and one decodes every batch of many
(:func:`decode_frames`). The observing side is not sent: a batch was
captured at the destination exactly when the frame's node is the edge's
``dst``, so a batch edge must have the node at exactly one end. Frames
are never persisted, so there is one frame version: earlier versions
are rejected as ``unsupported frame version N``.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from itertools import accumulate
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.rle import RunLengthSeries
from repro.errors import TraceError

MAGIC = b"RL"
VERSION = 1

FRAME_MAGIC = b"RF"
FRAME_VERSION = 3

_HEADER = struct.Struct("<2sBdqqI")
_FRAME_PREFIX = struct.Struct("<2sBI")  # magic, version, crc32
_GEOMETRY = struct.Struct("<dqq")  # a round's quantum, start, length


def _encode_varint(value: int, out: bytearray) -> None:
    if 0 <= value < 0x80:  # the common one-byte case
        out.append(value)
        return
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
    if pos < len(data) and data[pos] < 0x80:  # the common one-byte case
        return data[pos], pos + 1
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


def _encode_runs(blocks: Sequence[RunLengthSeries]) -> Tuple[bytes, List[int]]:
    """The run bodies of a flush round's blocks, back to back, and the
    offset at which each block's body ends.

    Gaps, counts and values of every block are concatenated, the varints
    are laid out as one masked byte matrix (or, when every varint of the
    round fits one byte, as one packed record array). Python work is per
    block, never per run.
    """
    total = sum(b.num_runs for b in blocks)
    if total == 0:
        return b"", [0] * len(blocks)
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
    return body, np.concatenate([[0], run_ends])[np.cumsum(runs)].tolist()


def encode_blocks(blocks: Sequence[RunLengthSeries]) -> List[bytes]:
    """Serialize a flush round of RLE blocks, one payload per block.

    Each payload is the block's header, then its slice of the round's run
    bodies (:func:`_encode_runs`)."""
    body, body_ends = _encode_runs(blocks)
    out: List[bytes] = []
    lo = 0
    for b, hi in zip(blocks, body_ends):
        header = _HEADER.pack(MAGIC, VERSION, b.quantum, b.start, b.length, b.num_runs)
        out.append(header + body[lo:hi])
        lo = hi
    return out


def encode_block(series: RunLengthSeries) -> bytes:
    """Serialize one RLE block to its wire representation."""
    (payload,) = encode_blocks([series])
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
    _check_geometry(quantum, start, length)
    return quantum, start, length, num_runs


def _check_geometry(quantum: float, start: int, length: int) -> None:
    """Reject a block window no :class:`RunLengthSeries` can have."""
    if not quantum > 0.0:  # also rejects NaN from corrupted header bytes
        raise TraceError(f"corrupt wire block: bad quantum {quantum!r}")
    if length < 0:
        raise TraceError(f"corrupt wire block: negative length {length}")
    if start + length > _INT64_MAX:
        raise TraceError("corrupt wire block: window end overflows int64")


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


def _decode_runs(
    bodies: Sequence[bytes], headers: Sequence[Tuple[float, int, int, int]]
) -> List[Union[RunLengthSeries, TraceError]]:
    """Decode run bodies, one per ``(quantum, start, length, runs)``
    header, into blocks -- or the :class:`TraceError` rejecting each.

    Bodies are concatenated and decoded in one pass; Python work is per
    body, never per run.
    """
    if not headers:
        return []
    runs = np.array([h[3] for h in headers], dtype=np.int64)
    sizes = np.array([len(body) for body in bodies], dtype=np.int64)
    if not sizes.any():
        # Headers only: a block is empty, or short of every run it claims.
        framed = sound = runs == 0
        starts = counts = _NO_INTS
        values = _NO_FLOATS
    else:
        body = np.frombuffer(b"".join(bodies), np.uint8)
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
    out: List[Union[RunLengthSeries, TraceError]] = []
    lo = 0
    for k, (quantum, start, length, num_runs) in enumerate(headers):
        if sound[k]:
            hi = lo + num_runs
            out.append(
                RunLengthSeries._from_validated(
                    starts[lo:hi], counts[lo:hi], values[lo:hi], start, length, quantum
                )
            )
            lo = hi
        elif framed[k]:
            out.append(
                TraceError(
                    "corrupt wire block: runs break the series invariants (count < 1, "
                    f"value not positive, or outside the window [{start}, {start + length}))"
                )
            )
        else:
            out.append(
                TraceError(
                    f"corrupt wire block: {sizes[k]} body bytes are not exactly "
                    f"{num_runs} runs (truncated, trailing bytes or varint overflow)"
                )
            )
    return out


def decode_blocks(
    payloads: Sequence[bytes],
) -> List[Union[RunLengthSeries, TraceError]]:
    """Exact inverse of :func:`encode_blocks` (float32 value precision).

    Returns one entry per payload: the decoded block, or the
    :class:`~repro.errors.TraceError` that rejects it (truncated varint or
    run value, varint overflow, trailing bytes, a header field out of
    range, any violated :class:`RunLengthSeries` invariant) -- returned,
    not raised, so one hostile payload never poisons its neighbours.
    Bodies are decoded in one pass (:func:`_decode_runs`).
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
    bodies = [memoryview(payloads[s])[_HEADER.size :] for s in slots]
    for slot, block in zip(slots, _decode_runs(bodies, headers)):
        out[slot] = block
    return out


def decode_block(data: bytes) -> RunLengthSeries:
    """Exact inverse of :func:`encode_block` (float32 value precision).

    Truncated or corrupted payloads raise :class:`~repro.errors.TraceError`
    -- never a bare ``struct.error`` or a series-construction error -- so a
    streaming analyzer can drop the block and keep its refresh loop alive.
    """
    (block,) = decode_blocks([data])
    if isinstance(block, TraceError):
        raise block
    return block


# -- transport framing ---------------------------------------------------------

EdgeKey = Tuple[str, str]


@dataclasses.dataclass(frozen=True, eq=False)
class RoundFrame:
    """One tracer's flush round: bookkeeping, loud blocks, capture batches.

    Every block of a round shares one window, so the geometry travels
    once per frame; only blocks with runs travel at all. An edge absent
    from a received round was quiet, and a round with no blocks -- the
    quiet tracer's whole frame -- is its heartbeat.

    Attributes
    ----------
    node:
        Id of the tracer that produced the round.
    epoch:
        Per-tracer restart epoch; bumped whenever the tracer restarts so
        the receiver can reject rounds that predate the restart.
    seq:
        Round sequence number within the tracer's stream for this epoch;
        one round per flush, starting at 0.
    start, length, quantum:
        The round's block window: absolute quantum index, length in
        quanta, quantum in seconds.
    blocks:
        ``(src, dst) -> block`` for every edge that spoke this round;
        each block has at least one run and the round's window.
    batches:
        ``(src, dst) -> float64 timestamps`` the tracer captured on each
        edge since its previous round, in capture order. ``node`` is at
        exactly one end of each edge; the batch was observed at the
        destination exactly when it is ``dst``. Empty unless a capture
        archive drains the tracer.

    Equality compares batches bit for bit.
    """

    node: str
    epoch: int
    seq: int
    start: int
    length: int
    quantum: float
    blocks: Mapping[EdgeKey, RunLengthSeries] = dataclasses.field(default_factory=dict)
    batches: Mapping[EdgeKey, np.ndarray] = dataclasses.field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundFrame):
            return NotImplemented
        return (
            (self.node, self.epoch, self.seq, self.start, self.length, self.quantum)
            == (other.node, other.epoch, other.seq, other.start, other.length, other.quantum)
            and self.blocks == other.blocks
            and self.batches.keys() == other.batches.keys()
            and all(_same_bits(a, other.batches[e]) for e, a in self.batches.items())
        )

    __hash__ = None  # type: ignore[assignment]  # mutable array payload


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _encode_string(text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    _encode_varint(len(raw), out)
    out += raw


def _decode_string(data: bytes, pos: int) -> Tuple[str, int]:
    if pos < len(data) and data[pos] < 0x80:  # the common one-byte length
        length = data[pos]
        pos += 1
    else:
        length, pos = _decode_varint(data, pos)
    if pos + length > len(data):
        raise TraceError("truncated string in transport frame")
    try:
        text = data[pos : pos + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"corrupt transport frame: bad utf-8 ({exc})") from exc
    return text, pos + length


def _check_round(frame: RoundFrame) -> None:
    """Refuse to encode a round the decoder would not give back."""
    for (src, dst), block in frame.blocks.items():
        if not block.num_runs:
            raise TraceError(f"round frame carries a quiet block for {src}->{dst}")
        if (block.start, block.length, block.quantum) != (
            frame.start, frame.length, frame.quantum,
        ):
            raise TraceError(
                f"block {src}->{dst} covers [{block.start}, {block.end}) at "
                f"quantum {block.quantum}, not the round's window"
            )


def _foreign(node: str, src: str, dst: str) -> TraceError:
    """Why ``node`` cannot have captured a batch on ``src -> dst`` when
    it is at neither or both ends: the capture side is derived from which
    end the node is."""
    return TraceError(
        f"tracer {node!r} cannot capture a batch on {src}->{dst}: "
        "a batch edge has the tracer at exactly one end"
    )


#: Byte column index of a packed uint64.
_BYTE_COLUMNS = np.arange(8, dtype=np.uint8)
#: The timestamp section of a round without capture batches.
_NO_BATCHES = b"\x00\x00"


def _encode_stamps(batches: Sequence[np.ndarray]) -> Tuple[List[int], bytes, bytes]:
    """Pack capture batches -- any number of rounds' worth -- in one pass.

    Returns each batch's delta width (0 below two timestamps), the first
    timestamp of every non-empty batch as packed float64, and every
    batch's zigzag deltas back to back. Python work is per batch, never
    per timestamp.
    """
    counts = [len(stamps) for stamps in batches]
    total = sum(counts)
    if total == 0:
        return [0] * len(counts), b"", b""
    try:
        flat = np.concatenate(batches, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise TraceError(f"capture batch is not a float64 timestamp array: {exc}") from exc
    if flat.shape != (total,):
        raise TraceError("capture batch is not a one-dimensional timestamp array")
    if not np.isfinite(flat).all():
        raise TraceError("capture batch carries a non-finite timestamp")
    starts = list(accumulate(counts, initial=0))
    heads = [h for h, count in zip(starts, counts) if count]
    firsts = flat[heads].astype("<f8", copy=False).tobytes()
    multi = [h for h, count in zip(starts, counts) if count > 1]
    if not multi:
        return [0] * len(counts), firsts, b""
    # Zigzag of each bit-pattern difference, wrapping mod 2**64. The
    # differences across a batch boundary code nothing: zeroed, they
    # leave each batch's widest delta alone.
    bits = flat.view(np.int64)
    diffs = bits[1:] - bits[:-1]
    zigzag = ((diffs << 1) ^ (diffs >> 63)).view(np.uint64)
    if len(heads) > 1:
        zigzag[[h - 1 for h in heads[1:]]] = 0
    widest = iter(np.maximum.reduceat(zigzag, multi).tolist())
    widths = [
        ((next(widest).bit_length() + 7) >> 3 or 1) if count > 1 else 0 for count in counts
    ]
    # Every delta cut to each width in use -- one copy per width, not per
    # batch -- then each batch's run of them.
    packed = zigzag.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    cut = {width: packed[:, :width].tobytes() for width in set(widths) if width}
    deltas = b"".join(
        cut[width][width * head : width * (head + count - 1)]
        for head, count, width in zip(starts, counts, widths)
        if width
    )
    return widths, firsts, deltas


def encode_timestamp_sections(
    rounds: Sequence[Tuple[str, Iterable[EdgeKey], Mapping[EdgeKey, np.ndarray]]],
) -> List[bytes]:
    """Serialize the timestamp sections of many rounds in one pass.

    One section per ``(node, block edges, batches)`` round; every round's
    batches are coded by one :func:`_encode_stamps` call.

    Raises :class:`~repro.errors.TraceError` for a batch the decoder
    would reject (non-finite timestamp, or an edge without the node at
    exactly one end), so a bad batch is refused at the sender and can
    never cost a received round its blocks.
    """
    arrays = []
    for node, _, batches in rounds:
        for src, dst in batches:
            if (node == src) == (node == dst):
                raise _foreign(node, src, dst)
        arrays.extend(batches.values())
    if not arrays:
        return [_NO_BATCHES] * len(rounds)
    widths, firsts, deltas = _encode_stamps(arrays)
    out: List[bytes] = []
    k = first_at = delta_at = 0
    for _, block_edges, batches in rounds:
        if not batches:
            out.append(_NO_BATCHES)
            continue
        index = {edge: i for i, edge in enumerate(block_edges)}
        extra = [edge for edge in batches if edge not in index]
        section = bytearray()
        _encode_varint(len(extra), section)
        for src, dst in extra:
            index[(src, dst)] = len(index)
            _encode_string(src, section)
            _encode_string(dst, section)
        _encode_varint(len(batches), section)
        own = widths[k : k + len(batches)]
        first_end = first_at
        delta_end = delta_at
        for (edge, stamps), width in zip(batches.items(), own):
            count = len(stamps)
            _encode_varint(index[edge], section)
            _encode_varint(count, section)
            if count:
                first_end += 8
                delta_end += width * (count - 1)
        section += bytes(width for width in own if width)
        section += firsts[first_at:first_end]
        section += deltas[delta_at:delta_end]
        k += len(batches)
        first_at, delta_at = first_end, delta_end
        out.append(bytes(section))
    return out


def encode_frames(
    frames: Sequence[RoundFrame], sections: Optional[Sequence[bytes]] = None
) -> List[bytes]:
    """Serialize a flush round of frames.

    The run bodies of every block of every round among them come from one
    :func:`_encode_runs` call, and their timestamp sections from one
    :func:`encode_timestamp_sections` call -- unless ``sections`` already
    holds them, one per frame."""
    for frame in frames:
        _check_round(frame)
    if sections is None:
        sections = encode_timestamp_sections(
            [(frame.node, frame.blocks, frame.batches) for frame in frames]
        )
    runs, run_ends = _encode_runs(
        [block for frame in frames for block in frame.blocks.values()]
    )
    lo = 0
    ends = iter(run_ends)
    out: List[bytes] = []
    for frame, section in zip(frames, sections):
        body = bytearray(b"\x00")  # flags
        _encode_varint(frame.epoch, body)
        _encode_varint(frame.seq, body)
        _encode_string(frame.node, body)
        body += _GEOMETRY.pack(frame.quantum, frame.start, frame.length)
        _encode_varint(len(frame.blocks), body)
        for (src, dst), block in frame.blocks.items():
            hi = next(ends)
            _encode_string(src, body)
            _encode_string(dst, body)
            _encode_varint(block.num_runs, body)
            _encode_varint(hi - lo, body)
            body += runs[lo:hi]
            lo = hi
        body += section
        out.append(
            _FRAME_PREFIX.pack(FRAME_MAGIC, FRAME_VERSION, zlib.crc32(body)) + body
        )
    return out


def encode_frame(frame: RoundFrame) -> bytes:
    """Serialize one :class:`RoundFrame`."""
    (payload,) = encode_frames([frame])
    return payload


def _decode_envelope(data: bytes) -> tuple:
    """CRC-check and parse one frame up to its run bodies and packed
    timestamps: its :class:`RoundFrame` fields with ``[(edge, runs, body),
    ...]`` in place of the blocks and ``[[edge, count, width], ...]`` in
    place of the batches, then the section's first-value and delta bytes."""
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
    if body[0]:
        raise TraceError(f"corrupt transport frame: unknown flags {body[0]:#04x}")
    epoch, pos = _decode_varint(body, 1)
    seq, pos = _decode_varint(body, pos)
    node, pos = _decode_string(body, pos)
    if pos + _GEOMETRY.size > len(body):
        raise TraceError("truncated round frame: missing block window")
    quantum, start, length = _GEOMETRY.unpack_from(body, pos)
    _check_geometry(quantum, start, length)
    count, pos = _decode_varint(body, pos + _GEOMETRY.size)
    view = memoryview(body)
    blocks = []
    # The frame's edge table, and the same edges as a set.
    edges: List[EdgeKey] = []
    named = set()
    for _ in range(count):
        src, pos = _decode_string(body, pos)
        dst, pos = _decode_string(body, pos)
        runs, pos = _decode_varint(body, pos)
        size, pos = _decode_varint(body, pos)
        if (src, dst) in named:
            raise TraceError(f"round frame carries {src}->{dst} twice")
        if not runs:
            raise TraceError(f"round frame carries a quiet block for {src}->{dst}")
        if runs * _NARROW_RUN.itemsize > size:
            # Every run takes at least the narrow layout's bytes; this also
            # keeps run counts inside what the int64 run arrays can hold.
            raise TraceError(f"round frame claims {runs} runs for {src}->{dst} in {size} bytes")
        if pos + size > len(body):
            raise TraceError("truncated block body in round frame")
        named.add((src, dst))
        edges.append((src, dst))
        blocks.append(((src, dst), runs, view[pos : pos + size]))
        pos += size
    count, pos = _decode_varint(body, pos)
    for _ in range(count):
        src, pos = _decode_string(body, pos)
        dst, pos = _decode_string(body, pos)
        if (src, dst) in named:
            raise TraceError(f"round frame names {src}->{dst} twice")
        named.add((src, dst))
        edges.append((src, dst))
    count, pos = _decode_varint(body, pos)
    batches = []
    captured = set()
    for _ in range(count):
        at, pos = _decode_varint(body, pos)
        if at >= len(edges):
            raise TraceError(f"timestamp batch names edge {at} of {len(edges)}")
        src, dst = edge = edges[at]
        if (node == src) == (node == dst):
            raise _foreign(node, src, dst)
        if edge in captured:
            raise TraceError(f"round frame carries two batches for {src}->{dst}")
        captured.add(edge)
        stamps, pos = _decode_varint(body, pos)
        batches.append([edge, stamps, 0])
    widths = iter(view[pos:])
    deltas_size = firsts_size = 0
    for batch in batches:
        (src, dst), stamps, _ = batch
        if stamps > 1:
            width = next(widths, None)
            if width is None:
                raise TraceError("truncated timestamp section: missing delta widths")
            if not 1 <= width <= 8:
                raise TraceError(f"timestamp batch for {src}->{dst} has delta width {width}")
            batch[2] = width
            pos += 1
            deltas_size += width * (stamps - 1)
        if stamps:
            firsts_size += 8
    firsts_end = pos + firsts_size
    end = firsts_end + deltas_size
    if end > len(body):
        raise TraceError(
            f"timestamp batches claim {end - len(body)} bytes past the end of the frame"
        )
    if end != len(body):
        raise TraceError(f"{len(body) - end} trailing bytes in round frame")
    return (
        node, epoch, seq, start, length, quantum, blocks, batches,
        view[pos:firsts_end], view[firsts_end:end],
    )


def _decode_stamps(
    counts: List[int], widths: List[int], firsts: List[bytes], deltas: List[bytes]
) -> Tuple[np.ndarray, List[bool]]:
    """Every batch's timestamps back to back, decoded in one pass, and per
    batch whether all of them are finite.

    ``counts`` and ``widths`` are per batch; ``firsts`` and ``deltas``
    hold the first-value and delta bytes of each frame's section. The bit
    patterns are rebuilt by one cumulative sum (mod 2**64) over the whole
    run of batches, less the sum before each batch's head."""
    total = sum(counts)
    if total == 0:
        return _NO_FLOATS, [True] * len(counts)
    sizes = np.array(counts, dtype=np.int64)
    steps = np.maximum(sizes - 1, 0)
    matrix = np.zeros((int(steps.sum()), 8), dtype=np.uint8)
    rows = np.repeat(np.array(widths, dtype=np.int64), steps)
    matrix[_BYTE_COLUMNS < rows[:, None]] = np.frombuffer(b"".join(deltas), np.uint8)
    zigzag = matrix.view("<u8").ravel()
    heads = (np.cumsum(sizes) - sizes)[sizes > 0]
    terms = np.empty(total, dtype=np.uint64)
    inner = np.ones(total, dtype=bool)
    inner[heads] = False
    terms[inner] = (zigzag >> 1) ^ ((zigzag << 63).view(np.int64) >> 63).view(np.uint64)
    terms[heads] = np.frombuffer(b"".join(firsts), "<u8")
    sums = np.cumsum(terms)
    before = np.concatenate([np.zeros(1, np.uint64), sums])[heads]
    stamps = (sums - np.repeat(before, sizes[sizes > 0])).view(np.float64)
    finite = np.isfinite(stamps)
    if finite.all():
        return stamps, [True] * len(counts)
    owner = np.repeat(np.arange(len(counts)), sizes)
    sound = np.ones(len(counts), dtype=bool)
    sound[owner[~finite]] = False
    return stamps, sound.tolist()


def decode_frames(payloads: Sequence[bytes]) -> List[Union[RoundFrame, TraceError]]:
    """Exact inverse of :func:`encode_frames`, one entry per payload.

    Truncation, a failed CRC-32, a frame version other than
    :data:`FRAME_VERSION`, or any corruption in an embedded block or
    timestamp batch yields the :class:`~repro.errors.TraceError` in that
    frame's place -- the transport receiver counts such frames
    (``transport_corrupt_blocks_total``) and drops them instead of letting
    the refresh loop die. Envelopes are parsed per frame; the run bodies
    of every round's blocks are decoded by one :func:`_decode_runs` call,
    and the timestamps of every round's batches by one
    :func:`_decode_stamps` call.
    """
    out: List[Union[RoundFrame, TraceError]] = []
    rounds: List[Tuple[int, tuple]] = []
    bodies: List[bytes] = []
    headers: List[Tuple[float, int, int, int]] = []
    counts: List[int] = []
    widths: List[int] = []
    firsts: List[bytes] = []
    deltas: List[bytes] = []
    for data in payloads:
        try:
            parsed = _decode_envelope(data)
        except TraceError as exc:
            parsed = exc
        if isinstance(parsed, tuple):
            rounds.append((len(out), parsed))
            _, _, _, start, length, quantum, blocks, batches, first, rest = parsed
            for _, runs, body in blocks:
                bodies.append(body)
                headers.append((quantum, start, length, runs))
            for _, count, width in batches:
                counts.append(count)
                widths.append(width)
            firsts.append(first)
            deltas.append(rest)
        out.append(parsed)  # type: ignore[arg-type]  # rounds filled in below
    decoded = iter(_decode_runs(bodies, headers))
    stamps, finite = _decode_stamps(counts, widths, firsts, deltas)
    k = lo = 0
    for slot, (node, epoch, seq, start, length, quantum, blocks, batches, _, _) in rounds:
        loud = {edge: next(decoded) for edge, _, _ in blocks}
        error = next((b for b in loud.values() if isinstance(b, TraceError)), None)
        captured = {}
        for (src, dst), count, _ in batches:
            if not finite[k] and error is None:
                error = TraceError(f"corrupt round frame: non-finite timestamp on {src}->{dst}")
            captured[(src, dst)] = stamps[lo : lo + count]
            lo += count
            k += 1
        out[slot] = (
            error
            if error is not None
            else RoundFrame(node, epoch, seq, start, length, quantum, loud, captured)
        )
    return out


def decode_frame(data: bytes) -> RoundFrame:
    """Exact inverse of :func:`encode_frame`.

    One-element :func:`decode_frames`; raises the
    :class:`~repro.errors.TraceError` instead of returning it."""
    (frame,) = decode_frames([data])
    if isinstance(frame, TraceError):
        raise frame
    return frame


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
