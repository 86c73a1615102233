"""Raw spill segments: one-section ``.rtb`` files plus an mmap LRU.

A segment is the binary columnar capture format of
:mod:`repro.tracing.storage` restricted to exactly one section -- the
magic followed by one CRC-checked ``(src, dst, side, timestamps)``
stream.  Reuse buys the full corruption contract for free: truncation,
byte flips and count mismatches all raise
:class:`~repro.errors.TraceError`, and the zero-copy
``read_capture_binary(..., mmap=True)`` path serves segment payloads as
views straight into the page cache.

:class:`SegmentMappingLRU` bounds how many segment mappings stay open:
historical queries touch segments in time order, so a small LRU keeps
the hot tail mapped while week-old segments fall out.  Eviction only
drops the cache's reference -- arrays already handed to a reader keep
their mapping alive by refcount, so a concurrent spill, compaction or
cache eviction can never invalidate data a query is still holding.
"""

from __future__ import annotations

import collections
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.lake.journal import SegmentMeta
from repro.tracing.records import TimestampBatch
from repro.tracing.storage import (
    BINARY_MAGIC,
    encode_capture_section,
    read_capture_binary,
)


def segment_filename(seq: int) -> str:
    """Canonical segment filename for a catalog sequence number."""
    return f"seg-{seq:08d}.rtb"


@dataclass(frozen=True)
class SegmentWriteInfo:
    """What :func:`write_segment` committed (feeds the catalog entry)."""

    count: int
    crc: int
    nbytes: int
    t_min: float
    t_max: float


def write_segment(
    path: "os.PathLike[str]",
    src: str,
    dst: str,
    observed_at_destination: bool,
    values: np.ndarray,
) -> SegmentWriteInfo:
    """Write one spill segment; returns the catalog-entry fields.

    The payload is written whole to a temp file and renamed into place,
    so a crash can never leave a half-written file under the segment's
    final name.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        raise TraceError("refusing to write an empty lake segment")
    batch = TimestampBatch(src, dst, observed_at_destination, values)
    section, crc = encode_capture_section(batch)
    payload = BINARY_MAGIC + section
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return SegmentWriteInfo(
        count=int(values.size),
        crc=int(crc),
        nbytes=len(payload),
        t_min=float(values.min()),
        t_max=float(values.max()),
    )


def read_segment(path: "os.PathLike[str]", meta: SegmentMeta) -> np.ndarray:
    """Zero-copy read of one segment, cross-checked against its catalog entry.

    Any disagreement between the file and the catalog -- stream
    identity, record count, or the body CRC recorded at spill time --
    raises :class:`~repro.errors.TraceError`: a swapped or regenerated
    segment must never be served under a stale catalog entry.
    """
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(len(BINARY_MAGIC) + 4)
        batches = list(read_capture_binary(path, mmap=True))
    except OSError as exc:
        raise TraceError(f"{path}: cannot read lake segment: {exc}") from exc
    if len(prefix) == len(BINARY_MAGIC) + 4:
        stored_crc = int.from_bytes(prefix[len(BINARY_MAGIC):], "little")
        if stored_crc != meta.crc:
            raise TraceError(
                f"{path}: segment CRC {stored_crc:#010x} does not match "
                f"cataloged CRC {meta.crc:#010x} for seq {meta.seq}"
            )
    if len(batches) != 1:
        raise TraceError(
            f"{path}: lake segment must contain exactly one section, "
            f"found {len(batches)}"
        )
    batch = batches[0]
    if (
        batch.src != meta.src
        or batch.dst != meta.dst
        or batch.observed_at_destination != meta.observed_at_destination
        or len(batch) != meta.count
    ):
        raise TraceError(
            f"{path}: segment does not match catalog entry seq {meta.seq} "
            f"({batch.src!r}->{batch.dst!r} side={int(batch.observed_at_destination)} "
            f"count={len(batch)} vs cataloged {meta.src!r}->{meta.dst!r} "
            f"side={int(meta.observed_at_destination)} count={meta.count})"
        )
    return batch.timestamps


class SegmentMappingLRU:
    """Bounded cache of open segment mappings, keyed by segment path.

    ``get`` returns the segment's zero-copy timestamp array; a capacity
    overflow drops the least-recently-used entry (the mapping itself is
    freed once no returned array references it).  Thread-safe: the lake
    serves historical queries while the engine keeps spilling.
    """

    def __init__(self, root: "os.PathLike[str]", capacity: int = 64) -> None:
        if capacity < 1:
            raise TraceError(f"mapping cache capacity must be >= 1, got {capacity}")
        self._root = Path(root)
        self.capacity = int(capacity)
        self._entries: "collections.OrderedDict[Tuple[str, int], np.ndarray]" = (
            collections.OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, meta: SegmentMeta) -> np.ndarray:
        # The CRC in the key drops stale mappings when compaction rewrites
        # a segment sequence under a recycled filename.
        key = (meta.path, meta.crc)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
        array = read_segment(self._root / meta.path, meta)
        with self._lock:
            self.misses += 1
            self._entries[key] = array
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return array

    def invalidate(self, path: Optional[str] = None) -> None:
        """Drop cached mappings (all of them, or one segment's)."""
        with self._lock:
            if path is None:
                self._entries.clear()
            else:
                for key in [k for k in self._entries if k[0] == path]:
                    del self._entries[key]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
