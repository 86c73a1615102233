"""Density time series (paper Section 3.5).

Message traces collected at service nodes are converted to time series with
a *density function*::

    d(i) = sqrt(#messages in [i*tau - omega/2, i*tau + omega/2])

where ``tau`` is the time quantum and ``omega`` the rectangular sampling
window (an integral multiple of ``tau``). The square root damps the
dominance of large bursts, and the boxcar window suppresses jitter noise.

Following the paper's "burst compression" optimization, series are stored
**sparsely**: quanta whose density is zero are simply not recorded. The
sparse form is what makes direct cross-correlation cheap on bursty traffic
(Section 3.4, optimization 3).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.errors import SeriesError


class DensityTimeSeries:
    """A sparse, non-negative time series over a window of quanta.

    Parameters
    ----------
    indices:
        Absolute quantum indices of the non-zero samples, sorted strictly
        increasing.
    values:
        Strictly positive sample values, one per index.
    start:
        Absolute index of the first quantum of the window.
    length:
        Number of quanta in the window. Samples exist for indices in
        ``[start, start + length)``; indices not listed have value zero.
    quantum:
        Quantum duration in seconds (used only to convert lags back to
        seconds; the series itself is index-based).
    """

    __slots__ = ("indices", "values", "start", "length", "quantum")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        start: int,
        length: int,
        quantum: float,
    ) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1:
            raise SeriesError("indices and values must be one-dimensional")
        if indices.shape != values.shape:
            raise SeriesError(
                f"indices and values length mismatch: {indices.shape} vs {values.shape}"
            )
        if length < 0:
            raise SeriesError(f"length must be non-negative, got {length}")
        if quantum <= 0:
            raise SeriesError(f"quantum must be positive, got {quantum}")
        if indices.size:
            if np.any(np.diff(indices) <= 0):
                raise SeriesError("indices must be strictly increasing")
            if indices[0] < start or indices[-1] >= start + length:
                raise SeriesError(
                    "indices fall outside the window "
                    f"[{start}, {start + length}): "
                    f"[{indices[0]}, {indices[-1]}]"
                )
            if np.any(values <= 0):
                raise SeriesError("sparse values must be strictly positive")
        self.indices = indices
        self.values = values
        self.start = int(start)
        self.length = int(length)
        self.quantum = float(quantum)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_validated(
        cls,
        indices: np.ndarray,
        values: np.ndarray,
        start: int,
        length: int,
        quantum: float,
    ) -> "DensityTimeSeries":
        """Wrap arrays the caller already holds to every invariant
        ``__init__`` enforces (int64/float64, 1-D, equal length, strictly
        increasing indices inside the window, positive values).

        Only for series derived inside the process from blocks that were
        validated when they were built or decoded -- the expansion of a
        :class:`~repro.core.rle.RunLengthSeries`, the concatenation of
        adjacent blocks; anything fed from outside goes through
        ``__init__``."""
        self = cls.__new__(cls)
        self.indices = indices
        self.values = values
        self.start = int(start)
        self.length = int(length)
        self.quantum = float(quantum)
        return self

    @classmethod
    def empty(cls, start: int, length: int, quantum: float) -> "DensityTimeSeries":
        """An all-zero series over ``[start, start + length)``."""
        return cls(np.empty(0, np.int64), np.empty(0, np.float64), start, length, quantum)

    @classmethod
    def from_dense(
        cls, dense: Sequence[float], start: int, quantum: float
    ) -> "DensityTimeSeries":
        """Build from a dense array; zero entries are dropped."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1:
            raise SeriesError("dense input must be one-dimensional")
        if np.any(dense < 0):
            raise SeriesError("density values must be non-negative")
        nz = np.flatnonzero(dense)
        return cls(nz + start, dense[nz], start, dense.size, quantum)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[int, float]],
        start: int,
        length: int,
        quantum: float,
    ) -> "DensityTimeSeries":
        """Build from ``(index, value)`` pairs (any order; zeros dropped)."""
        items = sorted((int(i), float(v)) for i, v in pairs if v != 0.0)
        if items:
            indices = np.array([i for i, _ in items], dtype=np.int64)
            values = np.array([v for _, v in items], dtype=np.float64)
        else:
            indices = np.empty(0, np.int64)
            values = np.empty(0, np.float64)
        return cls(indices, values, start, length, quantum)

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return zip(self.indices.tolist(), self.values.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityTimeSeries):
            return NotImplemented
        return (
            self.start == other.start
            and self.length == other.length
            and self.quantum == other.quantum
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"DensityTimeSeries(start={self.start}, length={self.length}, "
            f"nnz={self.indices.size}, quantum={self.quantum})"
        )

    # -- statistics (over the FULL window, zeros included) -------------------

    @property
    def nnz(self) -> int:
        """Number of non-zero samples."""
        return int(self.indices.size)

    @property
    def end(self) -> int:
        """One past the last quantum index of the window."""
        return self.start + self.length

    def total(self) -> float:
        """Sum of all samples."""
        return float(self.values.sum())

    def energy(self) -> float:
        """Sum of squared samples."""
        return float(np.dot(self.values, self.values))

    def mean(self) -> float:
        """Mean over the whole window (zeros included)."""
        if self.length == 0:
            return 0.0
        return self.total() / self.length

    def variance(self) -> float:
        """Population variance over the whole window (zeros included)."""
        if self.length == 0:
            return 0.0
        mu = self.mean()
        return max(0.0, self.energy() / self.length - mu * mu)

    def std(self) -> float:
        """Population standard deviation over the whole window."""
        return float(np.sqrt(self.variance()))

    def compression_factor(self) -> float:
        """The paper's ``k``: window length over number of stored samples."""
        if self.nnz == 0:
            return float(self.length) if self.length else 1.0
        return self.length / self.nnz

    # -- transformations ------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Materialize the full window as a dense float array."""
        dense = np.zeros(self.length, dtype=np.float64)
        if self.indices.size:
            dense[self.indices - self.start] = self.values
        return dense

    def shifted(self, offset: int) -> "DensityTimeSeries":
        """Return a copy translated by ``offset`` quanta."""
        return DensityTimeSeries(
            self.indices + offset,
            self.values.copy(),
            self.start + offset,
            self.length,
            self.quantum,
        )

    def restricted(self, start: int, length: int) -> "DensityTimeSeries":
        """Return the sub-series over ``[start, start + length)``.

        The requested window may extend beyond this series' window; samples
        only exist where the two overlap.
        """
        if length < 0:
            raise SeriesError(f"length must be non-negative, got {length}")
        lo = np.searchsorted(self.indices, start, side="left")
        hi = np.searchsorted(self.indices, start + length, side="left")
        return DensityTimeSeries(
            self.indices[lo:hi].copy(),
            self.values[lo:hi].copy(),
            start,
            length,
            self.quantum,
        )

    def concatenated(self, other: "DensityTimeSeries") -> "DensityTimeSeries":
        """Append ``other``, which must start exactly where this series ends."""
        if other.quantum != self.quantum:
            raise SeriesError(
                f"quantum mismatch: {self.quantum} vs {other.quantum}"
            )
        if other.start != self.end:
            raise SeriesError(
                f"series are not adjacent: {self.end} != {other.start}"
            )
        return DensityTimeSeries(
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.values, other.values]),
            self.start,
            self.length + other.length,
            self.quantum,
        )

    def scaled(self, factor: float) -> "DensityTimeSeries":
        """Return a copy with every sample multiplied by ``factor > 0``."""
        if factor <= 0:
            raise SeriesError(f"scale factor must be positive, got {factor}")
        return DensityTimeSeries(
            self.indices.copy(),
            self.values * factor,
            self.start,
            self.length,
            self.quantum,
        )


def quantize_timestamps(
    timestamps: Sequence[float], quantum: float, origin: float = 0.0
) -> np.ndarray:
    """Map timestamps (seconds) to absolute quantum indices.

    ``origin`` anchors index 0; timestamps before the origin yield negative
    indices, which callers typically exclude via the window bounds.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    if quantum <= 0:
        raise SeriesError(f"quantum must be positive, got {quantum}")
    return np.floor((ts - origin) / quantum).astype(np.int64)


def build_density_series(
    timestamps: Sequence[float],
    quantum: float,
    sampling_quanta: int,
    window_start: int,
    window_length: int,
    origin: float = 0.0,
) -> DensityTimeSeries:
    """Compute the paper's density function over a window of quanta.

    Parameters
    ----------
    timestamps:
        Message timestamps in seconds (any order).
    quantum:
        ``tau`` in seconds.
    sampling_quanta:
        ``omega / tau`` -- the width of the rectangular sampling window in
        quanta (>= 1). The count at quantum ``i`` includes all messages whose
        quantum lies within ``sampling_quanta`` consecutive quanta centred
        on ``i``.
    window_start, window_length:
        The absolute quantum range ``[window_start, window_start +
        window_length)`` covered by the resulting series.
    origin:
        Timestamp (seconds) of quantum index 0.

    Returns
    -------
    DensityTimeSeries
        ``d(i) = sqrt(boxcar-count at i)`` with zero entries dropped.
    """
    if sampling_quanta < 1:
        raise SeriesError(f"sampling_quanta must be >= 1, got {sampling_quanta}")
    if window_length < 0:
        raise SeriesError(f"window_length must be non-negative, got {window_length}")
    if window_length == 0:
        return DensityTimeSeries.empty(window_start, 0, quantum)

    half_lo = sampling_quanta // 2
    half_hi = sampling_quanta - half_lo - 1  # centred boxcar, total width = omega

    indices = quantize_timestamps(timestamps, quantum, origin)
    # The boxcar at quantum i covers [i - half_lo, i + half_hi], so messages
    # up to half a sampling window outside the range still contribute to
    # boundary quanta.
    lo = window_start - half_lo
    hi = window_start + window_length + half_hi
    indices = indices[(indices >= lo) & (indices < hi)]
    if indices.size == 0:
        return DensityTimeSeries.empty(window_start, window_length, quantum)

    counts = np.bincount(indices - lo, minlength=hi - lo).astype(np.float64)
    if sampling_quanta > 1:
        # Boxcar at absolute quantum i sums counts over [i - half_lo,
        # i + half_hi]; `counts[0]` corresponds to absolute index `lo`.
        csum = np.concatenate([[0.0], np.cumsum(counts)])
        base = window_start - lo
        starts = np.arange(window_length) + base - half_lo
        stops = starts + sampling_quanta
        starts = np.clip(starts, 0, counts.size)
        stops = np.clip(stops, 0, counts.size)
        out = csum[stops] - csum[starts]
    else:
        base = window_start - lo
        out = counts[base : base + window_length]

    dense = np.sqrt(out)
    return DensityTimeSeries.from_dense(dense, window_start, quantum)


def build_density_rows(
    timestamps: np.ndarray,
    rows: np.ndarray,
    num_rows: int,
    quantum: float,
    sampling_quanta: int,
    window_start: int,
    window_length: int,
    origin: float = 0.0,
) -> np.ndarray:
    """The density function of many series over one window, in one pass.

    ``timestamps[k]`` belongs to series ``rows[k]`` (``0 <= rows[k] <
    num_rows``). Returns a dense ``(num_rows, window_length)`` float64
    grid whose row ``r`` equals ``build_density_series(timestamps[rows ==
    r], ...).to_dense()`` bit for bit: the counts are integers, so the
    2-D bincount and the row-wise boxcar sum are exact in any order.
    """
    if sampling_quanta < 1:
        raise SeriesError(f"sampling_quanta must be >= 1, got {sampling_quanta}")
    if window_length < 0:
        raise SeriesError(f"window_length must be non-negative, got {window_length}")
    grid = np.zeros((num_rows, window_length), dtype=np.float64)
    if window_length == 0 or num_rows == 0:
        return grid

    half_lo = sampling_quanta // 2
    # Row r of the count grid covers absolute quanta [lo, lo + width): the
    # window plus the half boxcar either side that still reaches into it.
    lo = window_start - half_lo
    width = window_length + sampling_quanta - 1
    offsets = quantize_timestamps(timestamps, quantum, origin) - lo
    inside = (offsets >= 0) & (offsets < width)
    if not inside.any():
        return grid
    cells = np.asarray(rows, dtype=np.int64)[inside] * width + offsets[inside]
    counts = np.bincount(cells, minlength=num_rows * width).reshape(num_rows, width)
    if sampling_quanta > 1:
        # Boxcar at window quantum i sums count columns [i, i + omega).
        csum = np.zeros((num_rows, width + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=csum[:, 1:])
        counts = csum[:, sampling_quanta:] - csum[:, :window_length]
    np.sqrt(counts, out=grid)
    return grid


def aligned_windows(
    a: DensityTimeSeries, b: DensityTimeSeries
) -> Tuple[DensityTimeSeries, DensityTimeSeries]:
    """Restrict both series to their common window.

    Raises :class:`SeriesError` when the series use different quanta or do
    not overlap at all.
    """
    if a.quantum != b.quantum:
        raise SeriesError(f"quantum mismatch: {a.quantum} vs {b.quantum}")
    start = max(a.start, b.start)
    end = min(a.end, b.end)
    if end <= start:
        raise SeriesError(
            f"series windows do not overlap: [{a.start},{a.end}) vs [{b.start},{b.end})"
        )
    length = end - start
    return a.restricted(start, length), b.restricted(start, length)
