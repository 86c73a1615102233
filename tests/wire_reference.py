"""The scalar RLE block codec, kept as the reference oracle.

This is the per-run Python loop ``repro.tracing.wire`` used before the
batched codec replaced it (one ``_encode_varint`` / ``_decode_varint``
call per varint, one :class:`~repro.core.rle.Run` per run). It defines
the wire format run by run; ``tests/test_wire_batched.py`` holds the
batched codec to it byte for byte, and ``tests/data/wire_golden.json``
holds both to bytes this loop produced at the commit that retired it.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

from repro.core.rle import RunLengthSeries
from repro.errors import SeriesError, TraceError
from repro.tracing.wire import _HEADER, MAGIC, VERSION, _decode_varint, _encode_varint


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
