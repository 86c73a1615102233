"""Crash-safe segment catalog for the tiered trace lake.

The manifest is one JSON document at ``<root>/manifest.json`` listing
every committed segment (raw ``.rtb`` spill) and summary file
(materialized correlation rows).  It is the lake's source of truth: a
segment file not in the manifest does not exist as far as readers are
concerned, which is what makes the spill crash-safe -- the manifest is
replaced atomically (write temp + fsync + ``os.replace``) only *after*
its segments are fully on disk, so a crash mid-spill leaves at worst an
orphaned segment file that the next :meth:`~repro.lake.lake.TraceLake.compact`
sweeps up.

Loading validates aggressively and raises
:class:`~repro.errors.TraceError` on any malformed document; a corrupt
manifest must never be silently treated as an empty lake.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import TraceError

PathLike = Union[str, "os.PathLike[str]"]

#: Manifest filename under the lake root.
MANIFEST_NAME = "manifest.json"

#: Manifest document format version.
MANIFEST_VERSION = 1


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

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "path": self.path,
            "src": self.src,
            "dst": self.dst,
            "side": int(self.observed_at_destination),
            "t_min": self.t_min,
            "t_max": self.t_max,
            "count": self.count,
            "crc": self.crc,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentMeta":
        try:
            side = int(data["side"])
            if side not in (0, 1):
                raise ValueError(f"bad side {side}")
            meta = cls(
                seq=int(data["seq"]),
                path=str(data["path"]),
                src=str(data["src"]),
                dst=str(data["dst"]),
                observed_at_destination=bool(side),
                t_min=float(data["t_min"]),
                t_max=float(data["t_max"]),
                count=int(data["count"]),
                crc=int(data["crc"]),
                nbytes=int(data["nbytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"lake manifest: malformed segment entry: {exc}") from exc
        if meta.count < 0 or meta.nbytes < 0 or meta.seq < 0:
            raise TraceError(f"lake manifest: negative field in segment {meta.seq}")
        if meta.count and meta.t_min > meta.t_max:
            raise TraceError(
                f"lake manifest: inverted time range in segment {meta.seq}"
            )
        if os.path.sep in meta.path or meta.path in ("", ".", ".."):
            raise TraceError(
                f"lake manifest: segment path {meta.path!r} escapes the lake root"
            )
        return meta


@dataclass(frozen=True)
class SummaryMeta:
    """Catalog entry for one materialized-summary file (JSON rows)."""

    seq: int
    path: str
    count: int
    t_min: float
    t_max: float
    nbytes: int
    #: The file holds coverage markers, which bear on every later span.
    coverage: bool = False

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "path": self.path,
            "count": self.count,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "nbytes": self.nbytes,
            "coverage": self.coverage,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SummaryMeta":
        try:
            meta = cls(
                seq=int(data["seq"]),
                path=str(data["path"]),
                count=int(data["count"]),
                t_min=float(data["t_min"]),
                t_max=float(data["t_max"]),
                nbytes=int(data["nbytes"]),
                coverage=bool(data.get("coverage", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"lake manifest: malformed summary entry: {exc}") from exc
        if os.path.sep in meta.path or meta.path in ("", ".", ".."):
            raise TraceError(
                f"lake manifest: summary path {meta.path!r} escapes the lake root"
            )
        return meta


@dataclass
class LakeManifest:
    """In-memory manifest: segment + summary catalogs, the seq counter and
    the summary frontier (quantum evicted through; None until checkpointed)."""

    next_seq: int = 0
    segments: List[SegmentMeta] = None  # type: ignore[assignment]
    summaries: List[SummaryMeta] = None  # type: ignore[assignment]
    frontier: Optional[int] = None

    def __post_init__(self) -> None:
        if self.segments is None:
            self.segments = []
        if self.summaries is None:
            self.summaries = []

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "next_seq": self.next_seq,
            "segments": [s.to_dict() for s in self.segments],
            "summaries": [s.to_dict() for s in self.summaries],
            "frontier": self.frontier,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LakeManifest":
        if not isinstance(data, dict):
            raise TraceError("lake manifest: document is not a JSON object")
        version = data.get("version")
        if version != MANIFEST_VERSION:
            raise TraceError(f"lake manifest: unsupported version {version!r}")
        try:
            next_seq = int(data["next_seq"])
            raw_segments = data["segments"]
            raw_summaries = data["summaries"]
            frontier = data.get("frontier")
            if frontier is not None:
                frontier = int(frontier)
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"lake manifest: malformed document: {exc}") from exc
        if not isinstance(raw_segments, list) or not isinstance(raw_summaries, list):
            raise TraceError("lake manifest: catalogs must be lists")
        segments = [SegmentMeta.from_dict(entry) for entry in raw_segments]
        summaries = [SummaryMeta.from_dict(entry) for entry in raw_summaries]
        seqs = [s.seq for s in segments] + [s.seq for s in summaries]
        if len(set(seqs)) != len(seqs):
            raise TraceError("lake manifest: duplicate sequence number")
        if seqs and next_seq <= max(seqs):
            raise TraceError(
                f"lake manifest: next_seq {next_seq} collides with cataloged "
                f"sequence {max(seqs)}"
            )
        return cls(
            next_seq=next_seq, segments=segments, summaries=summaries,
            frontier=frontier,
        )


def load_manifest(root: PathLike) -> LakeManifest:
    """Load the manifest under ``root``; a missing file is an empty lake."""
    path = Path(root) / MANIFEST_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return LakeManifest()
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: lake manifest is not UTF-8: {exc}") from exc
    except OSError as exc:
        raise TraceError(f"{path}: cannot read lake manifest: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise TraceError(f"{path}: lake manifest is not valid JSON: {exc}") from exc
    return LakeManifest.from_dict(data)


def save_manifest(root: PathLike, manifest: LakeManifest) -> None:
    """Atomically replace the manifest under ``root``.

    Writes to a temp file in the same directory, fsyncs, then
    ``os.replace``s over the live manifest -- readers observe either the
    old or the new catalog, never a torn write.
    """
    root = Path(root)
    path = root / MANIFEST_NAME
    tmp = root / (MANIFEST_NAME + ".tmp")
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
