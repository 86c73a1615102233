"""Tiered trace lake: write-behind spill, mmap reads, summary folds.

PR 5's bounded retention keeps collector memory flat by evicting chunks
older than the horizon -- to nowhere.  The lake gives eviction a second
tier: evicted timestamp arrays are written behind as time-indexed
``.rtb`` segments under a lake root, cataloged by an append-only
journal, and read back zero-copy through an LRU of open segment
mappings.  On top of the raw tier, the engine materializes per-(client,
front_end, edge) correlation summaries at block-eviction time so that
week-scale drift questions fold a few hundred cached lag-product rows
instead of re-correlating raw timestamps.

See ``docs/TRACES.md`` (segment/journal format) and
``docs/PERFORMANCE.md`` (spill cost, fold-vs-recorrelate numbers).
"""

from repro.lake.lake import TraceLake
from repro.lake.journal import JOURNAL_NAME, SegmentMeta, scan_journal
from repro.lake.segments import (
    SegmentMappingLRU,
    read_segment,
    segment_filename,
    write_segment,
)
from repro.lake.summaries import BlockSummary, SummaryBatch, fold_summaries

__all__ = [
    "BlockSummary",
    "JOURNAL_NAME",
    "SegmentMappingLRU",
    "SegmentMeta",
    "SummaryBatch",
    "TraceLake",
    "fold_summaries",
    "read_segment",
    "scan_journal",
    "segment_filename",
    "write_segment",
]
