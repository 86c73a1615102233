"""Trace file I/O.

Traces are persisted as JSON Lines (one record per line) or CSV. Both
formats round-trip exactly through the dataclasses in
:mod:`repro.tracing.records`, so a simulation run can be captured once and
re-analyzed many times (the paper analyzes a week-long Delta trace
offline the same way).

For high-volume captures there is additionally a **binary columnar**
format (``.rtb``, "repro timestamp binary"): one CRC-checked section per
``(edge, side)`` stream holding a packed little-endian float64 timestamp
array, read back with a single ``np.frombuffer`` per section instead of
per-record parsing. Layout::

    magic       4 bytes  b"RTB1"
    per section:
      crc32     4 bytes  uint32, CRC-32 of the section body
      body_len  4 bytes  uint32, byte length of the section body
      body:
        src     2-byte length + utf-8
        dst     2-byte length + utf-8
        side    1 byte   (1: observed at destination, 0: at source)
        count   8 bytes  uint64
        payload count * 8 bytes, little-endian float64

Truncated sections and flipped bytes raise
:class:`~repro.errors.TraceError` (CRC mismatch), mirroring the wire
frame codec's corruption contract.

Binary captures can be read **zero-copy**: ``read_capture_binary(path,
mmap=True)`` memory-maps the file and returns timestamp arrays that are
views straight into the page cache (``np.frombuffer`` over a
``memoryview`` of the mapping) instead of heap copies. Every decoded
value is bit-identical to the copying read path and the CRC check still
runs over every section; the arrays keep the mapping alive through
ordinary refcounting, so batches can outlive the reader.
"""

from __future__ import annotations

import csv
import json
import mmap as _mmap
import struct
import zlib
from pathlib import Path
from typing import Iterable, Iterator, List, Union

import numpy as np

from repro.errors import TraceError
from repro.tracing.records import AccessLogRecord, CaptureRecord, TimestampBatch

PathLike = Union[str, Path]

#: File magic of the binary columnar capture format, version 1.
BINARY_MAGIC = b"RTB1"

_SECTION_HEADER = struct.Struct("<II")  # crc32, body length
_STRING_LEN = struct.Struct("<H")
_COUNT = struct.Struct("<Q")


# -- capture records (packet traces) ------------------------------------------


def write_capture_jsonl(path: PathLike, records: Iterable[CaptureRecord]) -> int:
    """Write capture records as JSON Lines; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "ts": record.timestamp,
                        "src": record.src,
                        "dst": record.dst,
                        "obs": record.observer,
                        "req": record.request_id,
                        "cls": record.service_class,
                    },
                    separators=(",", ":"),
                )
            )
            handle.write("\n")
            count += 1
    return count


def read_capture_jsonl(path: PathLike) -> Iterator[CaptureRecord]:
    """Stream capture records from a JSON Lines file."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                yield CaptureRecord(
                    timestamp=float(data["ts"]),
                    src=data["src"],
                    dst=data["dst"],
                    observer=data["obs"],
                    request_id=data.get("req"),
                    service_class=data.get("cls"),
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise TraceError(f"{path}:{lineno}: malformed record: {exc}") from exc


_CAPTURE_FIELDS = ["timestamp", "src", "dst", "observer", "request_id", "service_class"]


def write_capture_csv(path: PathLike, records: Iterable[CaptureRecord]) -> int:
    """Write capture records as CSV with a header row."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CAPTURE_FIELDS)
        for record in records:
            writer.writerow(
                [
                    repr(record.timestamp),
                    record.src,
                    record.dst,
                    record.observer,
                    "" if record.request_id is None else record.request_id,
                    record.service_class or "",
                ]
            )
            count += 1
    return count


def read_capture_csv(path: PathLike) -> Iterator[CaptureRecord]:
    """Stream capture records from a CSV file written by write_capture_csv."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _CAPTURE_FIELDS:
            raise TraceError(f"{path}: unexpected CSV header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                yield CaptureRecord(
                    timestamp=float(row[0]),
                    src=row[1],
                    dst=row[2],
                    observer=row[3],
                    request_id=int(row[4]) if row[4] else None,
                    service_class=row[5] or None,
                )
            except (IndexError, ValueError) as exc:
                raise TraceError(f"{path}:{lineno}: malformed row: {exc}") from exc


# -- binary columnar captures ---------------------------------------------------


def _encode_section(batch: TimestampBatch) -> bytes:
    src = batch.src.encode("utf-8")
    dst = batch.dst.encode("utf-8")
    if len(src) > 0xFFFF or len(dst) > 0xFFFF:
        raise TraceError("node id longer than 65535 bytes in binary capture")
    body = bytearray()
    body += _STRING_LEN.pack(len(src))
    body += src
    body += _STRING_LEN.pack(len(dst))
    body += dst
    body.append(1 if batch.observed_at_destination else 0)
    body += _COUNT.pack(int(batch.timestamps.size))
    body += np.ascontiguousarray(batch.timestamps, dtype="<f8").tobytes()
    return _SECTION_HEADER.pack(zlib.crc32(body), len(body)) + bytes(body)


def _decode_section_body(
    body: "Union[bytes, memoryview]", path: PathLike, index: int
) -> TimestampBatch:
    def fail(why: str) -> TraceError:
        return TraceError(f"{path}: section {index}: {why}")

    pos = 0
    names: List[str] = []
    for _ in range(2):
        if pos + _STRING_LEN.size > len(body):
            raise fail("truncated node id length")
        (length,) = _STRING_LEN.unpack_from(body, pos)
        pos += _STRING_LEN.size
        if pos + length > len(body):
            raise fail("truncated node id")
        try:
            # bytes() is a no-op copy on bytes input and a tiny (node id
            # sized) copy when ``body`` is a memoryview over an mmap.
            names.append(bytes(body[pos : pos + length]).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise fail(f"bad utf-8 node id ({exc})") from exc
        pos += length
    if pos >= len(body):
        raise fail("truncated side byte")
    side = body[pos]
    pos += 1
    if side not in (0, 1):
        raise fail(f"bad side byte {side}")
    if pos + _COUNT.size > len(body):
        raise fail("truncated timestamp count")
    (count,) = _COUNT.unpack_from(body, pos)
    pos += _COUNT.size
    if pos + 8 * count != len(body):
        raise fail(
            f"payload length mismatch: {len(body) - pos} bytes for {count} timestamps"
        )
    timestamps = np.frombuffer(body, dtype="<f8", count=count, offset=pos)
    if count and not np.isfinite(timestamps).all():
        raise fail("non-finite timestamp")
    try:
        return TimestampBatch(names[0], names[1], bool(side), timestamps)
    except TraceError as exc:
        raise fail(str(exc)) from exc


def encode_capture_section(batch: TimestampBatch) -> "tuple[bytes, int]":
    """One encoded ``.rtb`` section and its body CRC-32.

    The trace lake writes single-section segment files and records the
    body CRC in its catalog, so corruption detected by the reader can be
    cross-checked against the catalog without re-reading the segment.
    """
    section = _encode_section(batch)
    crc, _ = _SECTION_HEADER.unpack_from(section)
    return section, int(crc)


def write_capture_binary(
    path: PathLike, batches: Iterable[TimestampBatch]
) -> int:
    """Write per-stream timestamp batches in the binary columnar format.

    ``batches`` typically comes from
    :meth:`~repro.tracing.collector.TraceCollector.export_batches`.
    Returns the total number of timestamps written.
    """
    count = 0
    with open(path, "wb") as handle:
        handle.write(BINARY_MAGIC)
        for batch in batches:
            handle.write(_encode_section(batch))
            count += len(batch)
    return count


def read_capture_binary(
    path: PathLike, mmap: bool = False
) -> Iterator[TimestampBatch]:
    """Stream per-stream timestamp batches from a binary capture file.

    Each section is CRC-checked before its payload is interpreted; any
    truncation or corruption raises :class:`~repro.errors.TraceError`.

    With ``mmap=True`` the file is memory-mapped read-only and every
    batch's timestamp array is a **zero-copy** ``np.frombuffer`` view
    into the mapping (read-only, bit-identical to the copying path).
    The views hold the mapping alive via refcounting: the mapping -- and
    its pages -- are released only once the last batch referencing it is
    garbage-collected, so replay can hand batches to ``capture_sink``
    and shard shared-memory shipment without ever materializing the
    payload on the heap.
    """
    if mmap:
        with open(path, "rb") as handle:
            try:
                mapping = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
            except ValueError:
                # Zero-length file: cannot be mapped, and cannot carry
                # the magic either.
                raise TraceError(
                    f"{path}: not a binary capture file (bad magic)"
                ) from None
        # The mapping keeps its own dup of the descriptor; the Python
        # handle can close immediately.
        data: "Union[bytes, memoryview]" = memoryview(mapping)
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    if len(data) < len(BINARY_MAGIC) or bytes(data[: len(BINARY_MAGIC)]) != BINARY_MAGIC:
        raise TraceError(f"{path}: not a binary capture file (bad magic)")
    pos = len(BINARY_MAGIC)
    index = 0
    while pos < len(data):
        if pos + _SECTION_HEADER.size > len(data):
            raise TraceError(f"{path}: section {index}: truncated header")
        crc, body_len = _SECTION_HEADER.unpack_from(data, pos)
        pos += _SECTION_HEADER.size
        body = data[pos : pos + body_len]
        if len(body) != body_len:
            raise TraceError(f"{path}: section {index}: truncated body")
        if zlib.crc32(body) != crc:
            raise TraceError(f"{path}: section {index}: failed CRC-32 check")
        yield _decode_section_body(body, path, index)
        pos += body_len
        index += 1


def read_capture_binary_records(
    path: PathLike, mmap: bool = False
) -> Iterator[CaptureRecord]:
    """Binary capture file as per-record :class:`CaptureRecord` objects.

    The record-oriented view of :func:`read_capture_binary`, for callers
    (and the ``load_captures`` dispatch) that predate batches.
    """
    for batch in read_capture_binary(path, mmap=mmap):
        observer = batch.observer
        for t in batch.timestamps.tolist():
            yield CaptureRecord(t, batch.src, batch.dst, observer)


def load_capture_batches(path: PathLike, mmap: bool = False) -> List[TimestampBatch]:
    """Load a whole binary capture trace as timestamp batches.

    ``mmap=True`` returns zero-copy batches backed by the file mapping
    (see :func:`read_capture_binary`).
    """
    return list(read_capture_binary(path, mmap=mmap))


# -- access-log records (Delta-style traces) -----------------------------------


def write_access_log_jsonl(path: PathLike, records: Iterable[AccessLogRecord]) -> int:
    """Write access-log records as JSON Lines."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "ts": record.timestamp,
                        "srv": record.server,
                        "req": record.request_id,
                        "ev": record.event,
                        "peer": record.peer,
                    },
                    separators=(",", ":"),
                )
            )
            handle.write("\n")
            count += 1
    return count


def read_access_log_jsonl(path: PathLike) -> Iterator[AccessLogRecord]:
    """Stream access-log records from a JSON Lines file."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                yield AccessLogRecord(
                    timestamp=float(data["ts"]),
                    server=data["srv"],
                    request_id=int(data["req"]),
                    event=data.get("ev", "recv"),
                    peer=data.get("peer"),
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise TraceError(f"{path}:{lineno}: malformed record: {exc}") from exc


def load_captures(path: PathLike) -> List[CaptureRecord]:
    """Load a whole capture trace, dispatching on the file extension."""
    path = Path(path)
    if path.suffix == ".csv":
        return list(read_capture_csv(path))
    if path.suffix == ".rtb":
        return list(read_capture_binary_records(path))
    return list(read_capture_jsonl(path))
