"""Materialized correlation summaries (the lake's precomputed views).

When the sliding-window correlator evicts its oldest block, the block's
contribution to the window aggregate -- the sum of every cached
lag-product vector involving it -- is about to be subtracted and lost.
The engine instead hands that row (plus the block's marginal mass/energy
statistics and, when the FFT kernel left one warm, the block's cached
spectrum) to the lake as a :class:`BlockSummary`, keyed by the service
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

Arrays are serialized as base64 of their little-endian bytes, so a
summary round-trips bit-exactly through JSON.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.correlation import CorrelationSeries, fold_correlation
from repro.errors import CorrelationError, TraceError


def _encode_array(values: np.ndarray, dtype: str) -> str:
    return base64.b64encode(
        np.ascontiguousarray(values, dtype=dtype).tobytes()
    ).decode("ascii")


def _decode_array(text: str, dtype: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise TraceError(f"lake summary: bad base64 payload: {exc}") from exc
    itemsize = np.dtype(dtype).itemsize
    if len(raw) % itemsize:
        raise TraceError(
            f"lake summary: payload length {len(raw)} not a multiple of {itemsize}"
        )
    return np.frombuffer(raw, dtype=dtype).copy()


@dataclass(frozen=True)
class BlockSummary:
    """One evicted block's materialized contribution for one (class, edge).

    ``lag_products`` is the block's summed pair-product row
    (``None`` for a quiet block: identically zero, but its length and
    zero masses still count toward the fold's normalization).
    ``spectrum`` carries the block's cached ``rfft`` when the engine's
    :class:`~repro.core.correlation.SpectrumCache` was warm at eviction.
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
    spectrum: Optional[np.ndarray] = None
    spectrum_size: Optional[int] = None
    coverage: Optional[str] = None

    @property
    def t_min(self) -> float:
        return self.block_start * self.quantum

    @property
    def t_max(self) -> float:
        return (self.block_start + self.block_length) * self.quantum

    @property
    def quiet(self) -> bool:
        return self.lag_products is None

    def to_dict(self) -> dict:
        doc = {
            "client": self.client,
            "root": self.root,
            "src": self.src,
            "dst": self.dst,
            "block_start": self.block_start,
            "block_length": self.block_length,
            "quantum": self.quantum,
            "x_total": self.x_total,
            "x_energy": self.x_energy,
            "y_total": self.y_total,
            "y_energy": self.y_energy,
        }
        if self.coverage is not None:
            doc["coverage"] = self.coverage
        if self.lag_products is not None:
            doc["lag_products"] = _encode_array(self.lag_products, "<f8")
        if self.spectrum is not None:
            doc["spectrum"] = _encode_array(self.spectrum, "<c16")
            doc["spectrum_size"] = int(self.spectrum_size or 0)
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "BlockSummary":
        try:
            summary = cls(
                client=str(data["client"]),
                root=str(data["root"]),
                src=str(data["src"]),
                dst=str(data["dst"]),
                block_start=int(data["block_start"]),
                block_length=int(data["block_length"]),
                quantum=float(data["quantum"]),
                x_total=float(data["x_total"]),
                x_energy=float(data["x_energy"]),
                y_total=float(data["y_total"]),
                y_energy=float(data["y_energy"]),
                lag_products=(
                    _decode_array(data["lag_products"], "<f8")
                    if "lag_products" in data
                    else None
                ),
                spectrum=(
                    _decode_array(data["spectrum"], "<c16")
                    if "spectrum" in data
                    else None
                ),
                spectrum_size=(
                    int(data["spectrum_size"]) if "spectrum_size" in data else None
                ),
                coverage=data.get("coverage"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"lake summary: malformed row: {exc}") from exc
        if summary.block_length < 1 or summary.quantum <= 0:
            raise TraceError("lake summary: bad block geometry")
        if summary.coverage not in (None, "begin", "end"):
            raise TraceError(f"lake summary: bad coverage {summary.coverage!r}")
        return summary


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
