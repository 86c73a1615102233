"""The scalar wire codecs, kept as reference oracles.

The block codec is the per-run Python loop ``repro.tracing.wire`` used
before the batched codec replaced it (one ``_encode_varint`` /
``_decode_varint`` call per varint, one :class:`~repro.core.rle.Run` per
run). It defines the wire format run by run; ``tests/test_wire_batched.py``
holds the batched codec to it byte for byte, and
``tests/data/wire_golden.json`` holds both to bytes this loop produced at
the commit that retired it.

The round-frame codec is the same field-by-field reading of the version-3
frame layout (one frame, one block, one run, one timestamp at a time), so
the batched frame codec has an oracle too. Its timestamp coder
(:func:`encode_stamps_reference` / :func:`decode_stamps_reference`) works
on Python integers, one float64 bit pattern at a time.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Tuple

import numpy as np

from repro.core.rle import RunLengthSeries
from repro.errors import SeriesError, TraceError
from repro.tracing.wire import (
    _HEADER,
    MAGIC,
    VERSION,
    RoundFrame,
    _decode_varint,
    _encode_varint,
)

_ROUND_PREFIX = struct.Struct("<2sBI")
_ROUND_GEOMETRY = struct.Struct("<dqq")
_ROUND_VERSION = 3
_MOD = 1 << 64


def encode_block_reference(series: RunLengthSeries) -> bytes:
    out = bytearray(
        _HEADER.pack(
            MAGIC, VERSION, series.quantum, series.start, series.length,
            series.num_runs,
        )
    )
    previous_end = series.start
    for run in series:
        _encode_varint(run.start - previous_end, out)
        _encode_varint(run.count, out)
        out += struct.pack("<f", run.value)
        previous_end = run.start + run.count
    return bytes(out)


def decode_block_reference(data: bytes) -> RunLengthSeries:
    if len(data) < _HEADER.size:
        raise TraceError("wire block shorter than header")
    magic, version, quantum, start, length, num_runs = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceError(f"bad wire magic {magic!r}")
    if version != VERSION:
        raise TraceError(f"unsupported wire version {version}")
    if not quantum > 0.0:
        raise TraceError(f"corrupt wire block: bad quantum {quantum!r}")
    if length < 0:
        raise TraceError(f"corrupt wire block: negative length {length}")
    pos = _HEADER.size
    starts: List[int] = []
    counts: List[int] = []
    values: List[float] = []
    previous_end = start
    for _ in range(num_runs):
        gap, pos = _decode_varint(data, pos)
        count, pos = _decode_varint(data, pos)
        if pos + 4 > len(data):
            raise TraceError("truncated run value in wire block")
        (value,) = struct.unpack_from("<f", data, pos)
        pos += 4
        run_start = previous_end + gap
        starts.append(run_start)
        counts.append(count)
        values.append(value)
        previous_end = run_start + count
    if pos != len(data):
        raise TraceError(f"{len(data) - pos} trailing bytes in wire block")
    try:
        return RunLengthSeries(
            np.array(starts, dtype=np.int64),
            np.array(counts, dtype=np.int64),
            np.array(values, dtype=np.float64),
            start,
            length,
            quantum,
        )
    except SeriesError as exc:
        raise TraceError(f"corrupt wire block: {exc}") from exc


def _put_string(text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    _encode_varint(len(raw), out)
    out += raw


def _get_string(data: bytes, pos: int):
    length, pos = _decode_varint(data, pos)
    if pos + length > len(data):
        raise TraceError("truncated string")
    try:
        return data[pos : pos + length].decode("utf-8"), pos + length
    except UnicodeDecodeError as exc:
        raise TraceError(f"bad utf-8: {exc}") from exc


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def encode_stamps_reference(stamps) -> Tuple[int, bytes, bytes]:
    """One batch's ``(width, first, deltas)``: the delta width (0 below
    two timestamps), the first float64's 8 bytes (none for an empty
    batch), then each zigzag delta of the bit patterns in ``width``
    little-endian bytes."""
    patterns = [_bits(float(x)) for x in stamps]
    if not patterns:
        return 0, b"", b""
    zigzags = []
    for previous, current in zip(patterns, patterns[1:]):
        delta = (current - previous) % _MOD
        signed = delta - _MOD if delta >= 1 << 63 else delta
        zigzags.append((signed << 1) ^ (signed >> 63))
    width = max([(z.bit_length() + 7) // 8 for z in zigzags] + [1]) if zigzags else 0
    deltas = b"".join(z.to_bytes(width, "little") for z in zigzags)
    return width, struct.pack("<Q", patterns[0]), deltas


def decode_stamps_reference(count: int, width: int, first: bytes, deltas: bytes) -> np.ndarray:
    """Inverse of :func:`encode_stamps_reference` for ``count`` timestamps."""
    if not count:
        return np.empty(0, dtype=np.float64)
    (pattern,) = struct.unpack("<Q", first)
    patterns = [pattern]
    for k in range(count - 1):
        z = int.from_bytes(deltas[k * width : (k + 1) * width], "little")
        pattern = (pattern + ((z >> 1) ^ -(z & 1))) % _MOD
        patterns.append(pattern)
    stamps = np.array(patterns, dtype=np.uint64).view(np.float64)
    if not np.isfinite(stamps).all():
        raise TraceError("non-finite timestamp")
    return stamps


def encode_round_reference(frame: RoundFrame) -> bytes:
    body = bytearray([0])
    _encode_varint(frame.epoch, body)
    _encode_varint(frame.seq, body)
    _put_string(frame.node, body)
    body += _ROUND_GEOMETRY.pack(frame.quantum, frame.start, frame.length)
    _encode_varint(len(frame.blocks), body)
    for (src, dst), block in frame.blocks.items():
        runs = encode_block_reference(block)[_HEADER.size :]
        _put_string(src, body)
        _put_string(dst, body)
        _encode_varint(block.num_runs, body)
        _encode_varint(len(runs), body)
        body += runs
    table = list(frame.blocks)
    extra = [edge for edge in frame.batches if edge not in table]
    _encode_varint(len(extra), body)
    for src, dst in extra:
        _put_string(src, body)
        _put_string(dst, body)
    table += extra
    _encode_varint(len(frame.batches), body)
    coded = []
    for edge, stamps in frame.batches.items():
        if (frame.node == edge[0]) == (frame.node == edge[1]):
            raise TraceError("foreign batch edge")
        if not np.isfinite(np.asarray(stamps, dtype=np.float64)).all():
            raise TraceError("non-finite timestamp")
        _encode_varint(table.index(edge), body)
        _encode_varint(len(stamps), body)
        coded.append(encode_stamps_reference(stamps))
    body += bytes(width for width, _, _ in coded if width)
    for _, first, _ in coded:
        body += first
    for _, _, deltas in coded:
        body += deltas
    return _ROUND_PREFIX.pack(b"RF", _ROUND_VERSION, zlib.crc32(body)) + bytes(body)


def decode_round_reference(data: bytes) -> RoundFrame:
    if len(data) < _ROUND_PREFIX.size + 1:
        raise TraceError("frame shorter than header")
    magic, version, crc = _ROUND_PREFIX.unpack_from(data, 0)
    if magic != b"RF":
        raise TraceError(f"bad frame magic {magic!r}")
    if version != _ROUND_VERSION:
        raise TraceError(f"unsupported frame version {version}")
    body = data[_ROUND_PREFIX.size :]
    if zlib.crc32(body) != crc:
        raise TraceError("CRC-32 mismatch")
    if body[0] != 0:
        raise TraceError(f"not a round frame: flags {body[0]}")
    epoch, pos = _decode_varint(body, 1)
    seq, pos = _decode_varint(body, pos)
    node, pos = _get_string(body, pos)
    if pos + _ROUND_GEOMETRY.size > len(body):
        raise TraceError("truncated block window")
    quantum, start, length = _ROUND_GEOMETRY.unpack_from(body, pos)
    count, pos = _decode_varint(body, pos + _ROUND_GEOMETRY.size)
    blocks = {}
    for _ in range(count):
        src, pos = _get_string(body, pos)
        dst, pos = _get_string(body, pos)
        runs, pos = _decode_varint(body, pos)
        size, pos = _decode_varint(body, pos)
        if (src, dst) in blocks:
            raise TraceError("edge carried twice")
        if runs == 0:
            raise TraceError("quiet block on the wire")
        if runs > 0xFFFFFFFF:
            raise TraceError("more runs than a block header can count")
        if pos + size > len(body):
            raise TraceError("truncated block body")
        header = _HEADER.pack(MAGIC, VERSION, quantum, start, length, runs)
        blocks[(src, dst)] = decode_block_reference(header + body[pos : pos + size])
        pos += size
    table = list(blocks)
    count, pos = _decode_varint(body, pos)
    for _ in range(count):
        src, pos = _get_string(body, pos)
        dst, pos = _get_string(body, pos)
        if (src, dst) in table:
            raise TraceError("edge named twice")
        table.append((src, dst))
    headers = []
    count, pos = _decode_varint(body, pos)
    for _ in range(count):
        at, pos = _decode_varint(body, pos)
        if at >= len(table):
            raise TraceError("batch edge outside the edge table")
        src, dst = table[at]
        if (node == src) == (node == dst):
            raise TraceError("foreign batch edge")
        if (src, dst) in [edge for edge, _ in headers]:
            raise TraceError("two batches for one edge")
        stamps, pos = _decode_varint(body, pos)
        headers.append(((src, dst), stamps))
    widths = {}
    for edge, stamps in headers:
        if stamps > 1:
            if pos >= len(body):
                raise TraceError("truncated delta widths")
            widths[edge] = body[pos]
            pos += 1
            if not 1 <= widths[edge] <= 8:
                raise TraceError(f"delta width {widths[edge]}")
    firsts = {}
    for edge, stamps in headers:
        if stamps:
            if pos + 8 > len(body):
                raise TraceError("truncated first values")
            firsts[edge] = body[pos : pos + 8]
            pos += 8
    batches = {}
    for edge, stamps in headers:
        size = widths.get(edge, 0) * max(stamps - 1, 0)
        if pos + size > len(body):
            raise TraceError("truncated deltas")
        batches[edge] = decode_stamps_reference(
            stamps, widths.get(edge, 0), firsts.get(edge, b""), body[pos : pos + size]
        )
        pos += size
    if pos != len(body):
        raise TraceError("trailing bytes in round frame")
    if not quantum > 0.0 or length < 0:
        raise TraceError("bad block window")
    return RoundFrame(node, epoch, seq, start, length, quantum, blocks, batches)
