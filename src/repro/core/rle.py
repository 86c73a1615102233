"""Run-length encoded time series (paper Section 3.5).

The paper observes that density time series of enterprise traces contain
many repeated values, and compresses them with run-length encoding: the
series becomes a sequence of 3-tuples ``(t, c, n)`` where ``t`` is the
quantum index of the first entry of the run, ``c`` is the run length, and
``n`` is the (constant) density value of the run.

Zero runs are never stored -- RLE composes with the burst-compression
optimization: quiet regions are simply gaps between runs.

The crucial property (exploited by :mod:`repro.core.correlation`) is that
the cross-correlation contribution of a *pair of runs* can be accumulated in
O(1) amortized time using the second-difference trick, instead of O(c_a *
c_b) per-sample multiplications.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List

import numpy as np

from repro.core.timeseries import DensityTimeSeries
from repro.errors import SeriesError


@dataclasses.dataclass(frozen=True)
class Run:
    """One RLE run: ``value`` repeated over quanta ``[start, start + count)``."""

    start: int
    count: int
    value: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SeriesError(f"run count must be >= 1, got {self.count}")
        if self.value <= 0:
            raise SeriesError(f"run value must be positive, got {self.value}")

    @property
    def end(self) -> int:
        """One past the last quantum of the run."""
        return self.start + self.count


class RunLengthSeries:
    """A non-negative series stored as maximal runs of equal positive values.

    Structurally equivalent to :class:`DensityTimeSeries` (same window
    semantics: absolute quanta in ``[start, start + length)``, unlisted
    quanta are zero), but grouped into runs.
    """

    __slots__ = (
        "starts", "counts", "values", "start", "length", "quantum",
        "_sparse", "_moments",
    )

    def __init__(
        self,
        starts: np.ndarray,
        counts: np.ndarray,
        values: np.ndarray,
        start: int,
        length: int,
        quantum: float,
    ) -> None:
        starts = np.asarray(starts, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (starts.shape == counts.shape == values.shape) or starts.ndim != 1:
            raise SeriesError("starts, counts and values must be 1-D and equal length")
        if length < 0:
            raise SeriesError(f"length must be non-negative, got {length}")
        if quantum <= 0:
            raise SeriesError(f"quantum must be positive, got {quantum}")
        if starts.size:
            if np.any(counts < 1):
                raise SeriesError("run counts must be >= 1")
            if not np.all(values > 0):  # also rejects NaN
                raise SeriesError("run values must be strictly positive")
            ends = starts + counts
            if np.any(starts[1:] < ends[:-1]):
                raise SeriesError("runs must be sorted and non-overlapping")
            if starts[0] < start or ends[-1] > start + length:
                raise SeriesError(
                    f"runs fall outside the window [{start}, {start + length})"
                )
        self.starts = starts
        self.counts = counts
        self.values = values
        self.start = int(start)
        self.length = int(length)
        self.quantum = float(quantum)
        # Blocks are immutable once constructed and shared by every
        # correlator whose window covers them, so the sparse expansion and
        # the (total, energy) moments are computed lazily once per block
        # rather than once per correlator per refresh.
        self._sparse: object = None
        self._moments: object = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_validated(
        cls,
        starts: np.ndarray,
        counts: np.ndarray,
        values: np.ndarray,
        start: int,
        length: int,
        quantum: float,
    ) -> "RunLengthSeries":
        """Wrap arrays the caller has already checked against every
        invariant ``__init__`` enforces (int64/int64/float64, 1-D, equal
        length, sorted non-overlapping positive runs inside the window).

        The batched encoders and the wire decoder validate a whole flush
        round in one pass; re-checking each block would pay numpy's fixed
        cost once per block again."""
        self = cls.__new__(cls)
        self.starts = starts
        self.counts = counts
        self.values = values
        self.start = int(start)
        self.length = int(length)
        self.quantum = float(quantum)
        self._sparse = None
        self._moments = None
        return self

    @classmethod
    def empty(cls, start: int, length: int, quantum: float) -> "RunLengthSeries":
        return cls(
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.float64),
            start,
            length,
            quantum,
        )

    @classmethod
    def from_runs(
        cls, runs: Iterable[Run], start: int, length: int, quantum: float
    ) -> "RunLengthSeries":
        runs = sorted(runs, key=lambda r: r.start)
        return cls(
            np.array([r.start for r in runs], dtype=np.int64),
            np.array([r.count for r in runs], dtype=np.int64),
            np.array([r.value for r in runs], dtype=np.float64),
            start,
            length,
            quantum,
        )

    # -- protocol -------------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Run]:
        for s, c, v in zip(self.starts.tolist(), self.counts.tolist(), self.values.tolist()):
            yield Run(s, c, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunLengthSeries):
            return NotImplemented
        return (
            self.start == other.start
            and self.length == other.length
            and self.quantum == other.quantum
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"RunLengthSeries(start={self.start}, length={self.length}, "
            f"runs={self.starts.size}, quantum={self.quantum})"
        )

    @property
    def num_runs(self) -> int:
        return int(self.starts.size)

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def nnz(self) -> int:
        """Number of non-zero quanta covered by runs."""
        return int(self.counts.sum())

    # -- statistics (over the full window, zeros included) --------------------

    def total(self) -> float:
        return self._window_moments()[0]

    def energy(self) -> float:
        return self._window_moments()[1]

    def _window_moments(self) -> "Tuple[float, float]":
        moments = self._moments
        if moments is None:
            moments = (
                float(np.dot(self.counts, self.values)),
                float(np.dot(self.counts, self.values * self.values)),
            )
            self._moments = moments
        return moments

    def mean(self) -> float:
        if self.length == 0:
            return 0.0
        return self.total() / self.length

    def variance(self) -> float:
        if self.length == 0:
            return 0.0
        mu = self.mean()
        return max(0.0, self.energy() / self.length - mu * mu)

    def std(self) -> float:
        return float(np.sqrt(self.variance()))

    def compression_factor(self) -> float:
        """The paper's ``r``: non-zero samples per stored run tuple."""
        if self.num_runs == 0:
            return 1.0
        return self.nnz / self.num_runs

    def overall_compression(self) -> float:
        """Window quanta per stored run tuple (``k * r`` in the paper)."""
        if self.num_runs == 0:
            return float(self.length) if self.length else 1.0
        return self.length / self.num_runs

    # -- conversions -----------------------------------------------------------

    def to_sparse(self) -> DensityTimeSeries:
        """Expand runs back into a sparse density series (exact inverse).

        The expansion is cached: repeated calls return the same
        :class:`DensityTimeSeries` object.
        """
        cached = self._sparse
        if cached is None:
            if self.num_runs == 0:
                cached = DensityTimeSeries.empty(self.start, self.length, self.quantum)
            else:
                # Position k of the expansion sits in the run whose
                # offset (samples before it) is the largest <= k.
                offsets = np.cumsum(self.counts) - self.counts
                indices = np.arange(offsets[-1] + self.counts[-1], dtype=np.int64)
                indices += np.repeat(self.starts - offsets, self.counts)
                values = np.repeat(self.values, self.counts)
                # Positive non-overlapping runs inside the window expand
                # to positive, strictly increasing samples inside it.
                cached = DensityTimeSeries._from_validated(
                    indices, values, self.start, self.length, self.quantum
                )
            self._sparse = cached
        return cached

    def to_dense(self) -> np.ndarray:
        return self.to_sparse().to_dense()

    def restricted(self, start: int, length: int) -> "RunLengthSeries":
        """Return the sub-series over ``[start, start + length)``, splitting runs."""
        if length < 0:
            raise SeriesError(f"length must be non-negative, got {length}")
        lo = np.maximum(self.starts, start)
        hi = np.minimum(self.starts + self.counts, start + length)
        keep = hi > lo
        return RunLengthSeries(
            lo[keep], (hi - lo)[keep], self.values[keep], start, length, self.quantum
        )

    def shifted(self, offset: int) -> "RunLengthSeries":
        return RunLengthSeries(
            self.starts + offset,
            self.counts.copy(),
            self.values.copy(),
            self.start + offset,
            self.length,
            self.quantum,
        )

    def concatenated(self, other: "RunLengthSeries") -> "RunLengthSeries":
        """Append an adjacent series, merging a run that spans the boundary."""
        if other.quantum != self.quantum:
            raise SeriesError(f"quantum mismatch: {self.quantum} vs {other.quantum}")
        if other.start != self.end:
            raise SeriesError(f"series are not adjacent: {self.end} != {other.start}")
        runs = list(self) + list(other)
        merged: List[Run] = []
        for run in runs:
            if (
                merged
                and merged[-1].end == run.start
                and merged[-1].value == run.value
            ):
                prev = merged.pop()
                run = Run(prev.start, prev.count + run.count, run.value)
            merged.append(run)
        return RunLengthSeries.from_runs(
            merged, self.start, self.length + other.length, self.quantum
        )


def rle_encode(series: DensityTimeSeries, value_tolerance: float = 0.0) -> RunLengthSeries:
    """Encode a sparse density series into maximal runs.

    Consecutive quanta form one run when their values are equal (or within
    ``value_tolerance``, in which case the run stores the first value --
    lossy, off by default).
    """
    if series.nnz == 0:
        return RunLengthSeries.empty(series.start, series.length, series.quantum)

    idx = series.indices
    val = series.values
    # A run breaks where indices are non-contiguous or values differ.
    contiguous = np.diff(idx) == 1
    if value_tolerance > 0:
        same_value = np.abs(np.diff(val)) <= value_tolerance
    else:
        same_value = val[1:] == val[:-1]
    breaks = np.flatnonzero(~(contiguous & same_value)) + 1
    bounds = np.concatenate([[0], breaks, [idx.size]])

    starts = idx[bounds[:-1]]
    counts = bounds[1:] - bounds[:-1]
    values = val[bounds[:-1]]
    return RunLengthSeries(
        starts, counts, values, series.start, series.length, series.quantum
    )


def rle_encode_rows(
    dense: np.ndarray, start: int, quantum: float
) -> List[RunLengthSeries]:
    """Encode every row of a dense 2-D density grid in one pass.

    Row ``r`` becomes the block ``rle_encode(DensityTimeSeries.from_dense(
    dense[r], start, quantum))``, bit for bit; the run-break scan runs
    once over the flattened grid and is split by row afterwards, so the
    per-row cost is three array slices.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise SeriesError("dense grid must be two-dimensional")
    rows, length = dense.shape
    flat = dense.ravel()
    idx = np.flatnonzero(flat)
    if idx.size == 0:
        return [RunLengthSeries.empty(start, length, quantum) for _ in range(rows)]
    val = flat[idx]
    if not np.all(val > 0):  # also rejects NaN
        raise SeriesError("density values must be non-negative")
    # A run breaks where indices are non-contiguous, values differ, or the
    # next sample opens a new row.
    breaks = np.flatnonzero(
        (np.diff(idx) != 1) | (val[1:] != val[:-1]) | (idx[1:] % length == 0)
    ) + 1
    bounds = np.concatenate([[0], breaks, [idx.size]])
    heads = idx[bounds[:-1]]
    starts = heads % length + start
    counts = bounds[1:] - bounds[:-1]
    values = val[bounds[:-1]]
    cuts = np.searchsorted(heads, np.arange(rows + 1) * length).tolist()
    return [
        RunLengthSeries._from_validated(
            starts[lo:hi], counts[lo:hi], values[lo:hi], start, length, quantum
        )
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def rle_decode(series: RunLengthSeries) -> DensityTimeSeries:
    """Inverse of :func:`rle_encode` (exact when encoding was lossless)."""
    return series.to_sparse()
