"""Materialized correlation summaries (the lake's precomputed views).

When the sliding-window correlator evicts its oldest block, the block's
contribution to the window aggregate -- the sum of every cached
lag-product vector involving it -- is about to be subtracted and lost.
The engine instead hands that row (plus the block's marginal mass/energy
statistics) to the lake as a :class:`BlockSummary`, keyed by the service
class and edge it belongs to.

Folding summaries answers drift questions over arbitrary past spans by
pure vector addition: ``sum(lag_products)`` re-creates the span's raw
lag-product aggregate and the folded totals/energies normalize it,
skipping the correlation kernels entirely.  The fold is deterministic
(summaries are ordered by block start) but an *approximation* of a
from-scratch correlation over the span: block pairs straddling the span
boundary are attributed to their older block, and the boundary mass
corrections of :func:`repro.core.correlation._normalize` are replaced by
the whole-span masses -- an ``O(max_lag / span)`` relative effect, which
is why summary folds are meant for spans much longer than ``T_u`` (the
week-vs-Monday questions), not single-window forensics.

**Quiet blocks are implicit.** An eviction of two quiet blocks writes
nothing. A correlator's first eviction writes a massless *coverage
marker* (``coverage="begin"``), the lake persists one evicted-through
*frontier*, and a fold takes its span length from the block grid between
the two (:func:`covered_blocks`); a correlator dropped with blocks still
in its window writes an ``"end"`` marker at the frontier.

The engine hands each eviction's rows to the lake as one columnar
:class:`SummaryBatch`, and they persist in the lake's journal
(:mod:`repro.lake.journal`) as raw little-endian columns, so a summary
round-trips bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.correlation import CorrelationSeries, fold_correlation
from repro.core.incremental import LagVectors
from repro.errors import CorrelationError, TraceError

#: Values of :attr:`BlockSummary.coverage`; the journal stores the index.
COVERAGE = (None, "begin", "end")

#: (client, root, src, dst)
SummaryKey = Tuple[str, str, str, str]

#: One summary row as the journal stores it (see :class:`SummaryBatch`).
ROW_DTYPE = np.dtype(
    [("key", "<u4"), ("block_start", "<i8"), ("block_length", "<u4"),
     ("quantum", "<f8"), ("x_total", "<f8"), ("x_energy", "<f8"),
     ("y_total", "<f8"), ("y_energy", "<f8"), ("coverage", "u1"),
     ("lag_offset", "<i8"), ("lag_size", "<u4"), ("lag_crc", "<u4")]
)


@dataclass(frozen=True)
class BlockSummary:
    """One evicted block's materialized contribution for one (class, edge).

    ``lag_products`` is the block's summed pair-product row
    (``None`` for a quiet block: identically zero, but its length and
    zero masses still count toward the fold's normalization).
    A row with ``coverage`` set is a marker, not a block: its key's
    implicit coverage begins (``"begin"``) or ends (``"end"``) at
    ``block_start``.
    """

    client: str
    root: str
    src: str
    dst: str
    block_start: int  # absolute quantum index
    block_length: int  # quanta
    quantum: float
    x_total: float = 0.0
    x_energy: float = 0.0
    y_total: float = 0.0
    y_energy: float = 0.0
    lag_products: Optional[np.ndarray] = None
    coverage: Optional[str] = None

    def __post_init__(self) -> None:
        if self.block_length < 1 or self.quantum <= 0:
            raise TraceError("lake summary: bad block geometry")
        if self.coverage not in COVERAGE:
            raise TraceError(f"lake summary: bad coverage {self.coverage!r}")

    @property
    def t_min(self) -> float:
        return self.block_start * self.quantum

    @property
    def t_max(self) -> float:
        return (self.block_start + self.block_length) * self.quantum

    @property
    def quiet(self) -> bool:
        return self.lag_products is None


@dataclass(frozen=True)
class SummaryBatch:
    """Summary rows as columns: what one eviction hands the lake, in one
    call, and what the journal encodes with array operations.

    ``table`` holds one :data:`ROW_DTYPE` element per row, in write
    order. Its ``key`` field indexes ``keys``; its ``lag_offset`` field is
    the row's index into ``lags`` (-1 for a row without lag products)
    until the journal rewrites it into a file offset, and ``lag_size`` /
    ``lag_crc`` are filled then. ``lags`` keeps the vectors as their
    nonzeros until the journal writes them out dense.
    """

    keys: List[SummaryKey]
    table: np.ndarray
    lags: LagVectors

    def __len__(self) -> int:
        return len(self.table)

    @classmethod
    def of(cls, summary: BlockSummary) -> "SummaryBatch":
        """One row as a one-row batch."""
        lag = summary.lag_products
        table = np.array([(
            0, summary.block_start, summary.block_length, summary.quantum,
            summary.x_total, summary.x_energy, summary.y_total, summary.y_energy,
            COVERAGE.index(summary.coverage), -1 if lag is None else 0, 0, 0,
        )], dtype=ROW_DTYPE)
        lags = LagVectors(0) if lag is None else LagVectors.chunk(np.zeros(1, dtype=np.int64), lag)
        return cls([(summary.client, summary.root, summary.src, summary.dst)], table, lags)

    def summaries(self) -> List[BlockSummary]:
        """The rows as :class:`BlockSummary` objects, in write order."""
        return [
            BlockSummary(
                *self.keys[key], block_start, block_length, quantum, x_total,
                x_energy, y_total, y_energy,
                None if lag < 0 else self.lags.dense(np.array([lag]))[0], COVERAGE[coverage],
            )
            for (key, block_start, block_length, quantum, x_total, x_energy,
                 y_total, y_energy, coverage, lag, _, _) in self.table.tolist()
        ]


def covered_blocks(
    rows: Sequence[BlockSummary],
    frontier: Optional[int] = None,
    start: float = float("-inf"),
    end: float = float("inf"),
) -> np.ndarray:
    """Start quanta of the blocks a fold of one key's ``rows`` spans.

    ``rows`` come ordered by block start, ties in write order (as from
    :meth:`~repro.lake.lake.TraceLake.summaries`). A ``"begin"`` marker
    opens an interval running to the next ``"end"`` marker or else to
    ``frontier``; every grid block inside one is covered, written or
    not, and a block row outside all of them (a pre-marker lake) covers
    itself. Blocks overlapping ``[start, end)`` are kept, by the float
    comparisons a per-row filter would make.
    """
    if not rows:
        return np.empty(0, dtype=np.int64)
    length, quantum = rows[0].block_length, rows[0].quantum
    intervals: List[tuple] = []
    opened = None
    for row in rows:
        if row.coverage == "begin" and opened is None:
            opened = row.block_start
        elif row.coverage == "end" and opened is not None:
            intervals.append((opened, row.block_start))
            opened = None
    if opened is not None and frontier is not None:
        intervals.append((opened, frontier))
    loose = [
        row.block_start
        for row in rows
        if row.coverage is None
        and not any(lo <= row.block_start < hi for lo, hi in intervals)
    ]
    grids = [np.arange(lo, hi, length, dtype=np.int64) for lo, hi in intervals]
    blocks = np.sort(np.concatenate([np.array(loose, dtype=np.int64), *grids]))
    return blocks[((blocks + length) * quantum > start) & (blocks * quantum < end)]


def fold_summaries(
    summaries: Iterable[BlockSummary],
    max_lag: Optional[int] = None,
    frontier: Optional[int] = None,
    start: float = float("-inf"),
    end: float = float("inf"),
) -> CorrelationSeries:
    """Fold one key's block summaries into a normalized correlation series.

    All summaries must share one quantum; rows overlapping
    ``[start, end)`` are summed, masses and energies accumulate, and the
    span length is that of :func:`covered_blocks` (quiet blocks give
    length but no mass -- dropping them would silently inflate the
    span's mean rate).  See the module docstring for the approximation
    semantics versus a from-scratch correlation over the same span.
    """
    rows = sorted(summaries, key=lambda s: s.block_start)
    covered = covered_blocks(rows, frontier, start, end)
    return fold_covered(rows, covered, max_lag, start, end)


def fold_covered(
    rows: Sequence[BlockSummary],
    covered: np.ndarray,
    max_lag: Optional[int] = None,
    start: float = float("-inf"),
    end: float = float("inf"),
) -> CorrelationSeries:
    """:func:`fold_summaries` over rows already ordered and covered.

    ``covered`` is :func:`covered_blocks` of the same rows and span
    (``span_estimate`` needs it for its own bounds, so computes it once)."""
    if covered.size == 0:
        raise CorrelationError("cannot fold an empty summary set")
    quantum = rows[0].quantum
    lag_sum: Optional[np.ndarray] = None
    n = rows[0].block_length * int(covered.size)
    x_total = x_energy = y_total = y_energy = 0.0
    for row in rows:
        if row.quantum != quantum:
            raise CorrelationError(
                f"summary quantum mismatch: {row.quantum} vs {quantum}"
            )
        if row.coverage is not None or not (row.t_max > start and row.t_min < end):
            continue
        x_total += row.x_total
        x_energy += row.x_energy
        y_total += row.y_total
        y_energy += row.y_energy
        if row.lag_products is None:
            continue
        if lag_sum is None:
            lag_sum = row.lag_products.astype(np.float64, copy=True)
        elif row.lag_products.size != lag_sum.size:
            raise CorrelationError(
                f"summary lag-row length mismatch: {row.lag_products.size} "
                f"vs {lag_sum.size}"
            )
        else:
            lag_sum += row.lag_products
    if lag_sum is None:
        lag_sum = np.zeros((max_lag or 0) + 1, dtype=np.float64)
    if max_lag is not None:
        lag_sum = lag_sum[: max_lag + 1]
    return fold_correlation(
        lag_sum, n, x_total, x_energy, y_total, y_energy, quantum
    )
