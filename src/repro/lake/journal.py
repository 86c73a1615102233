"""The lake's append-only journal: segment catalog and summary rows.

One file, ``<root>/lake.journal``: an 8-byte magic, then CRC-framed
records.  Every :meth:`~repro.lake.lake.TraceLake.checkpoint` appends one
record with one buffered write and one ``fsync`` -- the refresh's summary
rows as a columnar batch plus the catalog *delta* (segments cut since the
last record, ``next_seq``, ``frontier``) -- so its cost follows what
changed, not the age of the lake.  Compaction appends a *replace* record
carrying the whole new segment catalog.

::

    frame  := tag[4] head_len:u32 tail_len:u32 head_crc:u32 frame_crc:u32
              head[head_len] tail[tail_len]
    head   := next_seq:u64 frontier:i64 n_segments:u32 n_keys:u32 n_rows:u32
              segments[n_segments x SEGMENT_DTYPE] rows[n_rows x ROW_DTYPE]
              names (utf-8, NUL-joined: path,src,dst per segment, then
                     client,root,src,dst per key)
    tail   := the rows' lag-product vectors, contiguous little-endian f8

``frame_crc`` covers the 16 bytes before it and ``head_crc`` the head, so
a scan of the heads alone (:func:`scan_journal`, run once at open) proves
every length, catalog entry and row record; each row carries the CRC-32
of its own lag vector, checked by the read that touches it
(:func:`read_row`).  Rows address their lag vector by absolute journal
offset, so a reader needs nothing but the row's own offset.

**Recovery rule.** A final frame the file is too short to hold was cut
off by a crash mid-append: it is ignored, and the next append truncates
it away.  Anything else that does not check out is a
:class:`~repro.errors.TraceError` -- never an empty lake, never a guessed
row.  A directory holding the v1 ``manifest.json`` is refused by name.
"""

from __future__ import annotations

import itertools
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.incremental import LagVectors
from repro.errors import TraceError
from repro.lake.summaries import (
    COVERAGE,
    ROW_DTYPE,
    BlockSummary,
    SummaryBatch,
    SummaryKey,
)

JOURNAL_NAME = "lake.journal"

#: File magic; the last byte is the lake format version (v1 was a JSON
#: manifest beside ``sum-*.json`` files and had no journal).
JOURNAL_MAGIC = b"RLAKEJ\x00\x02"

_V1_MANIFEST = "manifest.json"

TAG_CHECKPOINT = b"CKPT"  # segments extend the catalog
TAG_REPLACE = b"SWAP"  # segments replace the catalog (compaction)

_FRAME = struct.Struct("<4sIII")  # tag, head_len, tail_len, head_crc
_CRC = struct.Struct("<I")  # of the packed _FRAME before it
_FRAME_SIZE = _FRAME.size + _CRC.size
_HEAD = struct.Struct("<QqIII")
_NO_FRONTIER = -(2**63)

SEGMENT_DTYPE = np.dtype(
    [("seq", "<u8"), ("side", "u1"), ("t_min", "<f8"), ("t_max", "<f8"),
     ("count", "<u8"), ("crc", "<u4"), ("nbytes", "<u8")]
)
#: One in-memory index entry per journaled row, 25 bytes.
INDEX_DTYPE = np.dtype(
    [("t_min", "<f8"), ("t_max", "<f8"), ("offset", "<i8"), ("marker", "u1")]
)


@dataclass(frozen=True)
class SegmentMeta:
    """Catalog entry for one raw spill segment (a one-section ``.rtb``)."""

    seq: int
    path: str  # filename relative to the lake root
    src: str
    dst: str
    observed_at_destination: bool
    t_min: float
    t_max: float
    count: int
    crc: int  # CRC-32 of the segment's section body (matches the file header)
    nbytes: int  # segment file size

    @property
    def stream(self) -> tuple:
        return (self.src, self.dst, self.observed_at_destination)


class JournalRecord(NamedTuple):
    """One decoded (or just encoded) frame."""

    offset: int  # of the frame in the journal
    end: int  # offset of the next frame
    replace: bool
    next_seq: int
    frontier: Optional[int]
    segments: List[SegmentMeta]
    keys: List[SummaryKey]
    table: np.ndarray  # ROW_DTYPE, one element per summary row


def _dense_lags(lags: LagVectors) -> Iterator[np.ndarray]:
    """The lag vectors as little-endian f8 rows, a bounded block at a time."""
    for block in lags.blocks():
        yield np.ascontiguousarray(block, dtype="<f8")


def encode_record(
    offset: int,
    batches: Sequence[SummaryBatch],
    segments: Sequence[SegmentMeta],
    next_seq: int,
    frontier: Optional[int],
    replace: bool = False,
) -> Tuple[JournalRecord, Iterable[bytes]]:
    """Frame one record for a journal offset: ``(record, buffers to write)``.

    The summary rows come as columnar batches: each batch's table is
    re-keyed and its lag rows placed in the tail with array operations,
    with the checksums the batch carries. The tail's buffers are made as
    they are written, so the lag rows are densified once and never all
    at once."""
    key_ids: dict = {}
    lags: List[LagVectors] = []
    tables = [np.zeros(0, dtype=ROW_DTYPE)]
    cursor = 0
    for batch in batches:
        table = batch.table.copy()
        ids = [key_ids.setdefault(key, len(key_ids)) for key in batch.keys]
        table["key"] = np.array(ids, dtype=np.int64)[table["key"]]
        where = table["lag_offset"]
        has = where >= 0
        if has.any():
            lag = batch.lags
            table["lag_size"][has] = lag.width
            table["lag_crc"][has] = batch.lag_crcs[where[has]]
            where[has] = cursor + where[has] * lag.width * 8
            lags.append(lag)
            cursor += len(lag) * lag.width * 8
        tables.append(table)
    table = np.concatenate(tables)
    catalog = np.array(
        [(m.seq, m.observed_at_destination, m.t_min, m.t_max, m.count, m.crc,
          m.nbytes) for m in segments],
        dtype=SEGMENT_DTYPE,
    )
    keys = list(key_ids)
    names = [s for m in segments for s in (m.path, m.src, m.dst)]
    names += [s for key in keys for s in key]
    if any("\0" in name for name in names):
        raise TraceError("lake journal: a name contains a NUL character")
    names = "\0".join(names).encode("utf-8")
    head_len = _HEAD.size + catalog.nbytes + table.nbytes + len(names)
    tail_start = offset + _FRAME_SIZE + head_len
    table["lag_offset"][table["lag_offset"] >= 0] += tail_start
    head = b"".join((
        _HEAD.pack(
            next_seq, _NO_FRONTIER if frontier is None else frontier,
            len(catalog), len(keys), len(table),
        ),
        catalog.tobytes(), table.tobytes(), names,
    ))
    frame = _FRAME.pack(
        TAG_REPLACE if replace else TAG_CHECKPOINT, head_len, cursor, zlib.crc32(head)
    )
    record = JournalRecord(
        offset, tail_start + cursor, replace, next_seq, frontier,
        list(segments), keys, table,
    )
    return record, itertools.chain(
        [frame, _CRC.pack(zlib.crc32(frame)), head],
        *(_dense_lags(lag) for lag in lags),
    )


def _decode_head(offset: int, end: int, tag: bytes, head: bytes) -> JournalRecord:
    where = f"lake journal: record at offset {offset}"
    try:
        next_seq, frontier, n_segments, n_keys, n_rows = _HEAD.unpack_from(head)
        cursor = _HEAD.size
        catalog = np.frombuffer(head, SEGMENT_DTYPE, n_segments, cursor)
        cursor += catalog.nbytes
        table = np.frombuffer(head, ROW_DTYPE, n_rows, cursor)
        cursor += table.nbytes
        names = head[cursor:].decode("utf-8").split("\0") if len(head) > cursor else []
    except (struct.error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise TraceError(f"{where}: malformed head: {exc}") from exc
    if len(names) != 3 * n_segments + 4 * n_keys:
        raise TraceError(f"{where}: name table does not match its counts")
    segments = [
        SegmentMeta(
            seq, names[3 * i], names[3 * i + 1], names[3 * i + 2], bool(side),
            t_min, t_max, count, crc, nbytes,
        )
        for i, (seq, side, t_min, t_max, count, crc, nbytes) in enumerate(
            catalog.tolist()
        )
    ]
    for meta in segments:
        if os.path.sep in meta.path or meta.path in ("", ".", ".."):
            raise TraceError(
                f"{where}: segment path {meta.path!r} escapes the lake root"
            )
        if meta.count and meta.t_min > meta.t_max:
            raise TraceError(f"{where}: inverted time range in segment {meta.seq}")
    if n_rows and (
        int(table["key"].max()) >= n_keys
        or int(table["coverage"].max()) >= len(COVERAGE)
        or int(table["block_length"].min()) < 1
        or not (table["quantum"] > 0).all()
    ):
        raise TraceError(f"{where}: summary row out of range")
    flat = names[3 * n_segments:]
    keys = [tuple(flat[i:i + 4]) for i in range(0, len(flat), 4)]
    return JournalRecord(
        offset, end, tag == TAG_REPLACE, next_seq,
        None if frontier == _NO_FRONTIER else frontier, segments, keys, table,
    )


def scan_journal(root: "os.PathLike[str]") -> Iterator[JournalRecord]:
    """Every complete record under ``root``, in order, heads only.

    Stops silently before a final frame the file is too short to hold
    (see the module docstring's recovery rule); a missing journal is an
    empty lake.
    """
    root = Path(root)
    if (root / _V1_MANIFEST).exists():
        raise TraceError(
            f"{root}: v1 trace lake ({_V1_MANIFEST} + sum-*.json); this "
            f"version reads only the v2 journal format ({JOURNAL_NAME})"
        )
    path = root / JOURNAL_NAME
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            magic = handle.read(len(JOURNAL_MAGIC))
            if magic != JOURNAL_MAGIC:
                if JOURNAL_MAGIC.startswith(magic):
                    return  # creation cut off before the first frame landed
                raise TraceError(
                    f"{path}: not a lake journal, or an unsupported version "
                    f"(magic {magic!r})"
                )
            offset = len(JOURNAL_MAGIC)
            while size - offset >= _FRAME_SIZE:
                frame = handle.read(_FRAME.size)
                tag, head_len, tail_len, head_crc = _FRAME.unpack(frame)
                if _CRC.pack(zlib.crc32(frame)) != handle.read(_CRC.size) or (
                    tag not in (TAG_CHECKPOINT, TAG_REPLACE)
                ):
                    raise TraceError(
                        f"{path}: corrupt frame header at offset {offset}"
                    )
                end = offset + _FRAME_SIZE + head_len + tail_len
                if end > size:
                    return
                head = handle.read(head_len)
                if zlib.crc32(head) != head_crc:
                    raise TraceError(
                        f"{path}: record at offset {offset} fails its checksum"
                    )
                yield _decode_head(offset, end, tag, head)
                handle.seek(end)
                offset = end
    except FileNotFoundError:
        return
    except (OSError, struct.error) as exc:
        raise TraceError(f"{path}: cannot read lake journal: {exc}") from exc


def index_entries(record: JournalRecord) -> Iterator[Tuple[SummaryKey, bytes]]:
    """One ``(key, packed INDEX_DTYPE entry)`` per row, in write order.

    The time bounds are the floats ``BlockSummary.t_min/t_max`` compute,
    so an index filter decides exactly as a per-row one would."""
    table = record.table
    entries = np.empty(len(table), dtype=INDEX_DTYPE)
    entries["t_min"] = table["block_start"] * table["quantum"]
    entries["t_max"] = (table["block_start"] + table["block_length"]) * table["quantum"]
    first = (  # journal offset of table[0]: past the frame, head counts, catalog
        record.offset + _FRAME_SIZE + _HEAD.size
        + len(record.segments) * SEGMENT_DTYPE.itemsize
    )
    entries["offset"] = first + np.arange(len(table)) * ROW_DTYPE.itemsize
    entries["marker"] = table["coverage"] != 0
    packed = entries.tobytes()
    step = INDEX_DTYPE.itemsize
    for i, key in enumerate(table["key"].tolist()):
        yield record.keys[key], packed[i * step:(i + 1) * step]


def read_row(fd: int, key: SummaryKey, offset: int) -> BlockSummary:
    """Decode the summary row whose record sits at journal ``offset``."""
    raw = os.pread(fd, ROW_DTYPE.itemsize, offset)
    if len(raw) != ROW_DTYPE.itemsize:
        raise TraceError(f"lake journal: summary row at offset {offset} is cut short")
    (_, block_start, block_length, quantum, x_total, x_energy, y_total,
     y_energy, coverage, lag_offset, lag_size, lag_crc) = np.frombuffer(
        raw, ROW_DTYPE
    )[0].item()
    lag = None
    if lag_offset >= 0:
        payload = os.pread(fd, 8 * lag_size, lag_offset)
        if len(payload) != 8 * lag_size or zlib.crc32(payload) != lag_crc:
            raise TraceError(
                f"lake journal: lag products of the row at offset {offset} "
                f"fail their checksum"
            )
        lag = np.frombuffer(payload, dtype="<f8")
    return BlockSummary(
        *key, block_start, block_length, quantum, x_total, x_energy, y_total,
        y_energy, lag, COVERAGE[coverage],
    )
