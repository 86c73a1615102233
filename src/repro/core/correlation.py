"""Cross-correlation of density time series (paper Section 3.4).

All variants in this module compute the *same* mathematical quantity so
that they can be tested against each other and swapped freely:

Given two series ``x`` and ``y`` over a common window of ``n`` quanta, with
full-window means ``mx, my`` and population standard deviations ``sx, sy``,
the normalized cross-correlation at non-negative lag ``d`` is::

    num(d)  = sum_{i=0}^{n-1-d} (x[i] - mx) * (y[i+d] - my)
    corr(d) = num(d) / (n * sx * sy)

This is the paper's Eq. 1 with two standard, documented simplifications
that the paper itself relies on: means and variances are taken over the
full window (valid because the lag bound ``T_u`` is much smaller than the
window ``W``), and only non-negative lags up to ``max_lag`` are evaluated
(the paper's first optimization).

Four interchangeable implementations are provided:

``correlate_dense``
    Reference implementation, O(n * max_lag) over dense arrays.
``correlate_sparse``
    The paper's *burst compression* optimization: iterates only over pairs
    of non-zero samples whose lag is within bound; mean cross-terms are
    corrected analytically.
``correlate_rle``
    The paper's *RLE* optimization: each pair of runs contributes a
    trapezoid to the lag axis, accumulated in O(1) per pair with the
    second-difference (double cumulative sum) trick.
``correlate_fft``
    The ``O(n log n)`` FFT method of Eq. 2 (the Aguilera et al. convolution
    approach), used as the baseline in Figure 9.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional, Union

import numpy as np

from repro.core.rle import RunLengthSeries, rle_encode
from repro.core.timeseries import DensityTimeSeries, aligned_windows
from repro.errors import CorrelationError, SeriesError

SeriesLike = Union[DensityTimeSeries, RunLengthSeries]


@dataclasses.dataclass(frozen=True)
class CorrelationSeries:
    """Normalized cross-correlation evaluated at lags ``0..max_lag``.

    Attributes
    ----------
    values:
        ``corr(d)`` for ``d = 0..max_lag`` (index == lag in quanta).
    quantum:
        Quantum duration in seconds; ``lag_seconds`` converts lags.
    n:
        Length (in quanta) of the common window the correlation was
        computed over.
    degenerate:
        True when one input had zero variance (e.g. a silent edge); the
        values are then all zero and carry no causal information.
    """

    values: np.ndarray
    quantum: float
    n: int
    degenerate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64)
        )

    @property
    def max_lag(self) -> int:
        return int(self.values.size - 1)

    @property
    def lags(self) -> np.ndarray:
        return np.arange(self.values.size, dtype=np.int64)

    def lag_seconds(self) -> np.ndarray:
        """Lag axis converted to seconds."""
        return self.lags * self.quantum

    def mean(self) -> float:
        return float(self.values.mean()) if self.values.size else 0.0

    def std(self) -> float:
        return float(self.values.std()) if self.values.size else 0.0


def _as_sparse(series: SeriesLike) -> DensityTimeSeries:
    if isinstance(series, RunLengthSeries):
        return series.to_sparse()
    return series


def _as_rle(series: SeriesLike) -> RunLengthSeries:
    if isinstance(series, DensityTimeSeries):
        return rle_encode(series)
    return series


def _row_blocks(x: "SeriesLike | list[SeriesLike]", num_rows: int) -> "list[SeriesLike]":
    """A batch kernel's ``x``: one block for every row, or one block per row."""
    if isinstance(x, (DensityTimeSeries, RunLengthSeries)):
        return [x] * num_rows
    xs = list(x)
    if len(xs) != num_rows:
        raise CorrelationError(
            f"x must be one block or one block per row: {len(xs)} blocks for {num_rows} rows"
        )
    return xs


def _one_window(blocks: "list[SeriesLike]", kernel: str) -> SeriesLike:
    """The first of ``blocks``, which must all cover one window."""
    head = blocks[0]
    if any(
        (b.start, b.length, b.quantum) != (head.start, head.length, head.quantum)
        for b in blocks[1:]
    ):
        raise CorrelationError(f"{kernel} requires all ys to share one window")
    return head


def _effective_max_lag(n: int, max_lag: Optional[int]) -> int:
    if n <= 0:
        raise CorrelationError("cannot correlate over an empty window")
    if max_lag is None:
        return n - 1
    if max_lag < 0:
        raise CorrelationError(f"max_lag must be non-negative, got {max_lag}")
    return min(max_lag, n - 1)


def _normalize(
    lag_products: np.ndarray,
    x_prefix_mass: np.ndarray,
    y_suffix_mass: np.ndarray,
    n: int,
    mx: float,
    my: float,
    sx: float,
    sy: float,
    quantum: float,
) -> CorrelationSeries:
    """Apply mean corrections and normalization shared by all variants.

    ``lag_products[d]`` is ``sum_i x[i] * y[i+d]``; ``x_prefix_mass[d]`` is
    ``sum_{i=0}^{n-1-d} x[i]`` and ``y_suffix_mass[d]`` is
    ``sum_{i=d}^{n-1} y[i]``.
    """
    lags = np.arange(lag_products.size, dtype=np.float64)
    num = lag_products - mx * y_suffix_mass - my * x_prefix_mass + (n - lags) * mx * my
    denom = n * sx * sy
    if denom <= 0.0 or not np.isfinite(denom):
        return CorrelationSeries(
            np.zeros_like(lag_products), quantum, n, degenerate=True
        )
    return CorrelationSeries(num / denom, quantum, n)


def fold_correlation(
    lag_products: np.ndarray,
    n: int,
    x_total: float,
    x_energy: float,
    y_total: float,
    y_energy: float,
    quantum: float,
) -> CorrelationSeries:
    """Normalize a folded lag-product aggregate from span statistics.

    The materialized-summary fold: the lake accumulates per-block
    lag-product rows and marginal sums over an arbitrary past span, and
    this turns them into a normalized correlation without touching raw
    data.  Compared to :func:`_normalize` the per-lag boundary masses
    (``x_prefix``/``y_suffix``) are replaced by the whole-span totals --
    a relative ``O(max_lag / n)`` approximation that vanishes for the
    long spans summaries exist for (see ``repro.lake.summaries``).
    Deterministic: a pure function of the folded sums.
    """
    if n <= 0:
        raise CorrelationError(f"fold span must be positive, got {n} quanta")
    lag_products = np.asarray(lag_products, dtype=np.float64)
    mx = x_total / n
    my = y_total / n
    sx = float(np.sqrt(max(0.0, x_energy / n - mx * mx)))
    sy = float(np.sqrt(max(0.0, y_energy / n - my * my)))
    return _normalize(
        lag_products, x_total, y_total, n, mx, my, sx, sy, quantum
    )


# ---------------------------------------------------------------------------
# Dense reference implementation
# ---------------------------------------------------------------------------


def correlate_dense(
    x: SeriesLike, y: SeriesLike, max_lag: Optional[int] = None
) -> CorrelationSeries:
    """Reference O(n * max_lag) implementation over dense arrays."""
    xs, ys = aligned_windows(_as_sparse(x), _as_sparse(y))
    n = xs.length
    d_max = _effective_max_lag(n, max_lag)
    xd = xs.to_dense()
    yd = ys.to_dense()
    mx, my = xd.mean(), yd.mean()
    sx, sy = xd.std(), yd.std()
    values = np.empty(d_max + 1, dtype=np.float64)
    xc = xd - mx
    yc = yd - my
    denom = n * sx * sy
    if denom <= 0.0 or not np.isfinite(denom):
        return CorrelationSeries(np.zeros(d_max + 1), xs.quantum, n, degenerate=True)
    for d in range(d_max + 1):
        values[d] = np.dot(xc[: n - d], yc[d:]) / denom
    return CorrelationSeries(values, xs.quantum, n)


# ---------------------------------------------------------------------------
# Sparse (burst-compressed) implementation
# ---------------------------------------------------------------------------

#: Upper bound on the number of (x, y) sample pairs materialized per chunk,
#: to bound peak memory on pathological inputs.
_PAIR_CHUNK = 1 << 20

#: Pairs (and lag cells) a batch kernel materializes at once for whole
#: rows: larger batches are cut on row boundaries; a single row only
#: past :data:`_PAIR_CHUNK`.
_ROW_GROUP = 1 << 16

#: Bytes of spectra the FFT batch kernel transforms at once: blocks of
#: rows stay under the allocator's default mmap threshold (128 KiB), so
#: a refresh reuses heap memory instead of faulting in fresh pages.
_BLOCK_BYTES = 1 << 17

#: Modeled cost ratio of the density dispatch rule: one RLE run pair is
#: assumed ~4x the cost of one expected sparse sample pair, so a row goes
#: to the sparse batch kernel when ``sparse_units <= 4 * rle_units``.
MODELED_RLE_COST_RATIO = 4.0


def sparse_dispatch_units(x_nnz: int, y_nnz: int, y_span: int, max_lag: int) -> float:
    """Dispatch cost units of the sparse batch kernel for one row.

    Given arrays of y statistics, the units of each row.

    Proportional to the expected number of (x sample, y sample) pairs
    within ``max_lag``: every x sample sweeps a ``max_lag + 1`` wide
    window over a y series of density ``y_nnz / y_span``.
    """
    return x_nnz * (max_lag + 1) * y_nnz / np.maximum(y_span, 1)


def rle_dispatch_units(x_runs: int, y_runs: int) -> float:
    """Dispatch cost units of the RLE pair-product kernel for one row
    (the kernel's cost scales with the run-pair count, not samples)."""
    return x_runs * y_runs * 1.0


#: Modeled cost ratio of the FFT frontier: one FFT dispatch unit
#: (roughly one butterfly of the row's transforms, ``size * log2(size)``
#: units per row) is assumed to cost about the same as one expected
#: sparse sample pair.  Calibrated against measured per-kernel ns/unit
#: EWMAs of the refresh ledger (``LedgerRecorder.ns_per_unit``).
MODELED_FFT_COST_RATIO = 1.0


def choose_batch_kernel(
    sparse_units: float,
    rle_units: float,
    fft_units: "float | None" = None,
) -> str:
    """The density dispatch rule: ``"sparse"``, ``"rle"`` or ``"fft"``.

    A row goes to the sparse batch kernel when its estimated sample-pair
    count is at most :data:`MODELED_RLE_COST_RATIO` times its run-pair
    count, else to RLE; given an FFT estimate, to the dense-regime FFT
    batch kernel when ``MODELED_FFT_COST_RATIO * fft_units`` undercuts
    the winning direct estimate. A pure function of the unit estimates,
    so every caller -- batched appends and history replays -- makes the
    identical choice for identical blocks. The sparse and RLE kernels
    produce bitwise-identical lag products, so their choice never
    changes analysis output; ties go to the direct kernels, because the
    FFT kernel's products agree only to float tolerance (see
    ``docs/PERFORMANCE.md``). Given arrays of per-row units, returns an
    array of per-row names.
    """
    rle_cost = MODELED_RLE_COST_RATIO * rle_units
    kernel = np.where(sparse_units <= rle_cost, "sparse", "rle")
    if fft_units is not None:
        fft = MODELED_FFT_COST_RATIO * fft_units < np.minimum(sparse_units, rle_cost)
        kernel = np.where(fft, "fft", kernel)
    return kernel if kernel.ndim else str(kernel)


def sparse_lag_products(
    x: DensityTimeSeries, y: DensityTimeSeries, max_lag: int
) -> np.ndarray:
    """Raw lag products ``S[d] = sum x[i] * y[j]`` over pairs with
    ``j - i = d`` for ``d = 0..max_lag``, using **absolute** indices.

    The two series need not share a window; this is the primitive the
    incremental correlator uses for cross-block products.
    """
    if max_lag < 0:
        raise CorrelationError(f"max_lag must be non-negative, got {max_lag}")
    out = np.zeros(max_lag + 1, dtype=np.float64)
    if x.nnz == 0 or y.nnz == 0:
        return out
    xi, xv = x.indices, x.values
    yi, yv = y.indices, y.values
    lo = np.searchsorted(yi, xi, side="left")
    hi = np.searchsorted(yi, xi + max_lag, side="right")
    pair_counts = hi - lo
    total_pairs = int(pair_counts.sum())
    if total_pairs == 0:
        return out

    # Process x entries in chunks bounded by _PAIR_CHUNK materialized pairs.
    cum_pairs = np.concatenate([[0], np.cumsum(pair_counts)])
    start = 0
    while start < xi.size:
        stop = int(
            np.searchsorted(cum_pairs, cum_pairs[start] + _PAIR_CHUNK, side="left")
        )
        stop = min(max(stop, start + 1), xi.size)
        counts = pair_counts[start:stop]
        chunk_total = int(counts.sum())
        if chunk_total > 0:
            # Expand (x index, y range) pairs for this chunk without a
            # Python loop: reps[k] repeats the x row, offsets walks each
            # row's y range lo[k]..hi[k]-1.
            rows = np.repeat(np.arange(start, stop), counts)
            local = np.arange(chunk_total) - np.repeat(
                cum_pairs[start:stop] - cum_pairs[start], counts
            )
            offsets = lo[rows] + local
            lags = yi[offsets] - xi[rows]
            weights = xv[rows] * yv[offsets]
            out += np.bincount(lags, weights=weights, minlength=max_lag + 1)[
                : max_lag + 1
            ]
        start = stop
    return out


def _row_chunks(
    cum: np.ndarray, row_start: np.ndarray, width: int
) -> "list[tuple[int, int, int, int]]":
    """``(row, stop_row, start, stop)`` of each pair-expansion chunk:
    whole rows up to :data:`_ROW_GROUP` pairs and lag cells (``width``
    per row), or one larger row cut on its units (``cum[u]``: pairs
    before unit ``u``; ``row_start``: each row's first unit, then the
    end) as a one-row call cuts it. Either way a row's lag cells get the
    bincounts a one-row call makes."""
    chunks = []
    row_cum = cum[row_start]
    row, rows = 0, row_start.size - 1
    max_rows = max(1, _ROW_GROUP // width)
    while row < rows:
        first = int(row_start[row])
        last = int(np.searchsorted(row_cum, row_cum[row] + _ROW_GROUP, side="right")) - 1
        last = min(last, row + max_rows)
        if last > row:
            chunks.append((row, last, first, int(row_start[last])))
            row = last
            continue
        start, end = first, int(row_start[row + 1])
        while start < end:
            stop = int(np.searchsorted(cum, cum[start] + _PAIR_CHUNK, side="left"))
            stop = min(max(stop, start + 1), end)
            chunks.append((row, row + 1, start, stop))
            start = stop
        row += 1
    return chunks


def batch_lag_products(
    x: "SeriesLike | list[SeriesLike]", ys: "list[SeriesLike]", max_lag: int
) -> np.ndarray:
    """Raw lag products of ``x`` against ``F`` series sharing a window.

    ``x`` is one block, or one block per row. Returns an
    ``(F, max_lag + 1)`` array whose row ``r`` equals
    ``sparse_lag_products(x_r, ys[r], max_lag)``. All ``ys`` must cover
    the same quantum range (the engine stacks the newest block of every
    correlated edge, and those blocks are aligned by construction).

    The batch is computed in a single vectorized pass: the ``ys`` samples
    are concatenated with a per-row key offset so one ``searchsorted``
    locates every (row, x sample) lag range, then all pairs are expanded
    into one ``bincount`` over the flattened ``(row, lag)`` axis. Pairs
    are laid out (row, x sample, y sample) and chunks cut on row
    boundaries (:func:`_row_chunks`), so each row is bitwise what a
    one-row call returns, whatever else rides in the batch.
    """
    if max_lag < 0:
        raise CorrelationError(f"max_lag must be non-negative, got {max_lag}")
    num_rows = len(ys)
    out = np.zeros((num_rows, max_lag + 1), dtype=np.float64)
    if num_rows == 0:
        return out
    xs = [_as_sparse(x_r) for x_r in _row_blocks(x, num_rows)]
    sparse_ys = [_as_sparse(y) for y in ys]
    head = _one_window(sparse_ys, "batch_lag_products")
    row_nnz = np.array([y.nnz for y in sparse_ys], dtype=np.int64)
    x_nnz = np.array([x_r.nnz for x_r in xs], dtype=np.int64)
    if int(row_nnz.sum()) == 0 or int(x_nnz.sum()) == 0:
        return out
    span = int(head.length)
    # Concatenated y samples with a per-row key offset; keys ascend by
    # construction (rows in order, indices sorted within each row).
    cat_rel = np.concatenate(
        [y.indices - head.start for y in sparse_ys if y.nnz]
    )
    cat_val = np.concatenate([y.values for y in sparse_ys if y.nnz])
    cat_row = np.repeat(np.arange(num_rows, dtype=np.int64), row_nnz)
    keys = cat_row * span + cat_rel

    # Every row's x samples, row by row.
    xi = np.concatenate([x_r.indices for x_r in xs])
    xv = np.concatenate([x_r.values for x_r in xs])
    x_row = np.repeat(np.arange(num_rows, dtype=np.int64), x_nnz)
    # Per-x-sample lag range, clipped into [0, span] so a query never
    # bleeds into a neighboring row's key range.
    bases = x_row * span
    rel_lo = np.clip(xi - head.start, 0, span)
    rel_hi = np.clip(xi - head.start + max_lag + 1, 0, span)
    lo = np.searchsorted(keys, bases + rel_lo, side="left")
    hi = np.searchsorted(keys, bases + rel_hi, side="left")
    pair_counts = hi - lo
    if int(pair_counts.sum()) == 0:
        return out

    width = max_lag + 1
    cum_pairs = np.concatenate([[0], np.cumsum(pair_counts)])
    row_start = np.concatenate([[0], np.cumsum(x_nnz)])
    for row, stop_row, start, stop in _row_chunks(cum_pairs, row_start, width):
        counts = pair_counts[start:stop]
        chunk_total = int(counts.sum())
        if chunk_total > 0:
            reps = np.repeat(np.arange(start, stop), counts)
            local = np.arange(chunk_total) - np.repeat(
                cum_pairs[start:stop] - cum_pairs[start], counts
            )
            offsets = lo[reps] + local
            lags = cat_rel[offsets] + head.start - xi[reps]
            weights = xv[reps] * cat_val[offsets]
            flat = (x_row[reps] - row) * width + lags
            cells = out[row:stop_row].reshape(-1)  # whole rows: a view
            cells += np.bincount(flat, weights=weights, minlength=cells.size)[: cells.size]
    return out


def correlate_batch(
    x: SeriesLike, ys: "list[SeriesLike]", max_lag: Optional[int] = None
) -> "list[CorrelationSeries]":
    """Normalized correlation of one ``x`` against many ``ys`` at once.

    All inputs must already share one window (same start and length); the
    per-row result is identical, up to floating-point accumulation order,
    to ``correlate_sparse(x, ys[r], max_lag)``.
    """
    return _normalized_rows(
        "correlate_batch", x, ys, max_lag,
        lambda d_max: batch_lag_products(_as_sparse(x), [_as_sparse(y) for y in ys], d_max),
    )


def _normalized_rows(name: str, x, ys, max_lag, lag_products) -> "list[CorrelationSeries]":
    """The batch correlators' shared body: window checks, then the rows of
    ``lag_products(d_max)`` normalized one by one."""
    xs = _as_sparse(x)
    sparse_ys = [_as_sparse(y) for y in ys]
    for y in sparse_ys:
        if y.start != xs.start or y.length != xs.length:
            raise SeriesError(f"{name} requires x and every y to share one window")
        if y.quantum != xs.quantum:
            raise SeriesError(f"quantum mismatch: {xs.quantum} vs {y.quantum}")
    n = xs.length
    d_max = _effective_max_lag(n, max_lag)
    mats = lag_products(d_max)
    lags = np.arange(d_max + 1, dtype=np.int64)
    x_prefix = _sparse_prefix_mass(xs, n - lags)
    mx, sx = xs.mean(), xs.std()
    return [
        _normalize(
            mats[row], x_prefix, y.total() - _sparse_prefix_mass(y, lags), n, mx,
            y.mean(), sx, y.std(), xs.quantum,
        )
        for row, y in enumerate(sparse_ys)
    ]


def _sparse_prefix_mass(series: DensityTimeSeries, lengths: np.ndarray) -> np.ndarray:
    """Mass of the first ``lengths[k]`` quanta of the window, vectorized."""
    if series.nnz == 0:
        return np.zeros(lengths.size, dtype=np.float64)
    csum = np.concatenate([[0.0], np.cumsum(series.values)])
    pos = np.searchsorted(series.indices, series.start + lengths, side="left")
    return csum[pos]


def correlate_sparse(
    x: SeriesLike, y: SeriesLike, max_lag: Optional[int] = None
) -> CorrelationSeries:
    """Burst-compressed correlation: only non-zero sample pairs are touched."""
    xs, ys = aligned_windows(_as_sparse(x), _as_sparse(y))
    n = xs.length
    d_max = _effective_max_lag(n, max_lag)
    lag_products = sparse_lag_products(xs, ys, d_max)
    lags = np.arange(d_max + 1, dtype=np.int64)
    x_prefix = _sparse_prefix_mass(xs, n - lags)
    y_suffix = ys.total() - _sparse_prefix_mass(ys, lags)
    return _normalize(
        lag_products, x_prefix, y_suffix, n, xs.mean(), ys.mean(), xs.std(), ys.std(), xs.quantum
    )


# ---------------------------------------------------------------------------
# RLE implementation
# ---------------------------------------------------------------------------


def rle_batch_lag_products(
    x: "RunLengthSeries | list[RunLengthSeries]",
    ys: "list[RunLengthSeries]",
    max_lag: int,
) -> np.ndarray:
    """Raw lag products of ``x`` against ``F`` run-length series.

    ``x`` is one block, or one block per row; the ``ys`` share one
    window. Each pair of runs ``(a, b)`` contributes
    ``a.value * b.value * overlap(d)`` where ``overlap`` is a trapezoid on
    the lag axis; the trapezoid is the double cumulative sum of four
    impulses, so each pair costs O(1) scatter work regardless of run
    lengths (the paper's "correlation of overlapping sequences ...
    computed in a single step").

    Returns an ``(F, max_lag + 1)`` array. The ``ys`` runs are
    concatenated with a per-row key offset so one ``searchsorted`` pair
    locates every (row, x run) candidate range; then, a group of whole
    rows at a time, the four impulses of every run pair are scattered
    into a flattened ``(row, lag)`` grid and two row-wise cumulative
    sums integrate them.
    Pairs are laid out (row, x run, y run), so each row's cells receive
    their additions in the order a one-row call makes them and every row
    is bitwise what ``rle_lag_products(x_r, ys[r], max_lag)`` returns.

    Works on absolute indices; ``x`` need not share the ys' window.
    """
    if max_lag < 0:
        raise CorrelationError(f"max_lag must be non-negative, got {max_lag}")
    num_rows = len(ys)
    out = np.zeros((num_rows, max_lag + 1), dtype=np.float64)
    if num_rows == 0:
        return out
    xs = _row_blocks(x, num_rows)
    head = _one_window(ys, "rle_batch_lag_products")
    row_runs = np.array([y.num_runs for y in ys], dtype=np.int64)
    x_runs = np.array([x_r.num_runs for x_r in xs], dtype=np.int64)
    if int(x_runs.sum()) == 0 or int(row_runs.sum()) == 0:
        return out
    live = [y for y in ys if y.num_runs]
    cat_rel = np.concatenate([y.starts for y in live]) - head.start
    cat_counts = np.concatenate([y.counts for y in live])
    cat_values = np.concatenate([y.values for y in live])
    # Per-row key offset; run ends reach ``span`` inclusive, hence the
    # stride of span + 1. Keys ascend by construction.
    span = int(head.length)
    stride = span + 1
    start_keys = np.repeat(np.arange(num_rows, dtype=np.int64) * stride, row_runs)
    start_keys += cat_rel
    end_keys = start_keys + cat_counts

    # Every row's x runs, row by row.
    xs_ = np.concatenate([x_r.starts for x_r in xs])
    xc = np.concatenate([x_r.counts for x_r in xs])
    xv = np.concatenate([x_r.values for x_r in xs])
    x_row = np.repeat(np.arange(num_rows, dtype=np.int64), x_runs)
    x_ends = xs_ + xc
    # For x-run k, the candidate y-runs are those whose lag range
    # [y.start - x.end + 1, y.end - 1 - x.start] intersects [0, max_lag]:
    #   y.end > x.start          (lag range reaches >= 0)
    #   y.start <= x.end - 1 + max_lag
    # Queries are clipped into [0, span] so one never bleeds into a
    # neighboring row's key range.
    bases = x_row * stride
    q_lo = np.clip(xs_ - head.start, 0, span)
    q_hi = np.clip(x_ends + max_lag - head.start, 0, span)
    lo = np.searchsorted(end_keys, bases + q_lo, side="right")
    hi = np.searchsorted(start_keys, bases + q_hi, side="left")
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        return out
    # Leading zeros of the grid are bitwise-neutral under cumsum, so the
    # batch shares one (largest) offset.
    offset = int(xc.max() + cat_counts.max())
    top = max_lag + offset + 2  # clip: impulses beyond the slice cannot affect it
    width = top + 1
    # Rows are independent: expand the pairs of whole-row groups of at
    # most _ROW_GROUP pairs plus grid cells at a time (a row is never cut).
    cost = np.bincount(x_row, weights=counts, minlength=num_rows) + width
    cuts, used = [0], 0.0
    for row, row_cost in enumerate(cost.tolist()):
        if used + row_cost > _ROW_GROUP and row > cuts[-1]:
            cuts.append(row)
            used = 0.0
        used += row_cost
    cuts.append(num_rows)
    first_run = np.concatenate([[0], np.cumsum(x_runs)])
    for row, stop_row in zip(cuts[:-1], cuts[1:]):
        runs = slice(int(first_run[row]), int(first_run[stop_row]))
        group = counts[runs]
        pairs = int(group.sum())
        if not pairs:
            continue
        cum = np.cumsum(group)
        xk = np.repeat(np.arange(runs.start, runs.stop), group)
        cols = lo[xk] + (np.arange(pairs) - np.repeat(cum - group, group))
        w = xv[xk] * cat_values[cols]
        # First lag at which the pair overlaps: d0 = y.start - (x.end - 1).
        d0 = cat_rel[cols] + (head.start + offset + 1) - x_ends[xk]
        ca = xc[xk]
        cb = cat_counts[cols]
        cell0 = (x_row[xk] - row) * width
        # One bincount adds in input order: all +w at d0, then -w at
        # d0 + ca, -w at d0 + cb, +w at d0 + ca + cb -- four in-order
        # scatters.
        cells = np.concatenate(
            [
                cell0 + np.minimum(d0, top),
                cell0 + np.minimum(d0 + ca, top),
                cell0 + np.minimum(d0 + cb, top),
                cell0 + np.minimum(d0 + ca + cb, top),
            ]
        )
        diff2 = np.bincount(
            cells, weights=np.concatenate([w, -w, -w, w]),
            minlength=(stop_row - row) * width,
        ).reshape(stop_row - row, width)
        ramp = np.cumsum(np.cumsum(diff2, axis=1), axis=1)
        out[row:stop_row] = ramp[:, offset : offset + max_lag + 1]
    return out


def rle_lag_products(
    x: RunLengthSeries, y: RunLengthSeries, max_lag: int
) -> np.ndarray:
    """Raw lag products of one run-length pair (a one-row
    :func:`rle_batch_lag_products` call)."""
    return rle_batch_lag_products(x, [y], max_lag)[0]


def _rle_prefix_mass(series: RunLengthSeries, lengths: np.ndarray) -> np.ndarray:
    """Mass of the first ``lengths[k]`` quanta of the window, vectorized."""
    if series.num_runs == 0:
        return np.zeros(lengths.size, dtype=np.float64)
    run_mass = series.counts * series.values
    csum = np.concatenate([[0.0], np.cumsum(run_mass)])
    cutoff = series.start + lengths  # exclusive absolute bound
    # Runs entirely before the cutoff contribute fully...
    full = np.searchsorted(series.starts + series.counts, cutoff, side="right")
    mass = csum[full]
    # ...plus the partial run straddling the cutoff, if any.
    part = np.searchsorted(series.starts, cutoff, side="left") - 1
    straddle = (part >= 0) & (part >= full)
    if np.any(straddle):
        p = part[straddle]
        overlap = np.minimum(cutoff[straddle], series.starts[p] + series.counts[p]) - series.starts[p]
        overlap = np.maximum(overlap, 0)
        mass = mass.astype(np.float64)
        mass[straddle] += overlap * series.values[p]
    return mass


def correlate_rle(
    x: SeriesLike, y: SeriesLike, max_lag: Optional[int] = None
) -> CorrelationSeries:
    """RLE correlation: O(run pairs) instead of O(sample pairs)."""
    xr = _as_rle(x)
    yr = _as_rle(y)
    if xr.quantum != yr.quantum:
        raise SeriesError(f"quantum mismatch: {xr.quantum} vs {yr.quantum}")
    start = max(xr.start, yr.start)
    end = min(xr.end, yr.end)
    if end <= start:
        raise SeriesError("series windows do not overlap")
    xr = xr.restricted(start, end - start)
    yr = yr.restricted(start, end - start)
    n = xr.length
    d_max = _effective_max_lag(n, max_lag)
    lag_products = rle_lag_products(xr, yr, d_max)
    lags = np.arange(d_max + 1, dtype=np.int64)
    x_prefix = _rle_prefix_mass(xr, n - lags)
    y_suffix = yr.total() - _rle_prefix_mass(yr, lags)
    return _normalize(
        lag_products, x_prefix, y_suffix, n, xr.mean(), yr.mean(), xr.std(), yr.std(), xr.quantum
    )


# ---------------------------------------------------------------------------
# FFT implementation (Eq. 2 / convolution baseline)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def fft_length(n: int) -> int:
    """Smallest 5-smooth integer ``>= n`` (a fast FFT plan size).

    numpy's pocketfft is O(n log n) only when ``n`` factors into small
    primes; padding to the next 5-smooth ("regular") length costs at most
    ~6% extra samples versus up to 2x for next-power-of-two padding, so
    every FFT kernel in this module plans its transforms with this size.
    """
    n = int(n)
    if n <= 1:
        return 1
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-n // p35)
            candidate = p35 * (1 << (quotient - 1).bit_length())
            if candidate == n:
                return n
            if candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def fft_dispatch_units(n_quanta: int, size: Optional[int] = None) -> float:
    """Dispatch cost units of the FFT batch kernel for one row.

    Proportional to ``size * log2(size)``: each row pays one forward
    transform of its block plus its share of the batched inverse.  Unlike
    the sparse/RLE unit estimates this is independent of density -- the
    FFT cost is fixed by the window, which is exactly why it wins once
    rows go dense.
    """
    if size is None:
        size = fft_length(max(2 * int(n_quanta) - 1, 1))
    size = max(int(size), 2)
    return float(size) * math.log2(size)


def fft_lag_products(
    xd: np.ndarray, yd: np.ndarray, max_lag: int, size: Optional[int] = None
) -> np.ndarray:
    """Raw lag products via FFT (zero-padded, i.e. linear correlation).

    Returns exactly ``max_lag + 1`` values; lags beyond ``yd.size - 1``
    (where no sample pair can exist) are exact zeros rather than FFT
    roundoff noise.  The transform length is the smallest 5-smooth size
    that holds the full linear correlation (``len(xd) + len(yd) - 1``);
    pass ``size`` to share one precomputed plan length across a batch of
    same-shape calls.
    """
    if max_lag < 0:
        raise CorrelationError(f"max_lag must be non-negative, got {max_lag}")
    n = int(xd.size)
    m = int(yd.size)
    out = np.zeros(max_lag + 1, dtype=np.float64)
    if n == 0 or m == 0:
        return out
    full = n + m - 1
    if size is None:
        size = fft_length(full)
    elif size < full:
        raise CorrelationError(
            f"fft size {size} aliases a length-{full} linear correlation"
        )
    fx = np.fft.rfft(xd, size)
    fy = np.fft.rfft(yd, size)
    prod = np.fft.irfft(np.conj(fx) * fy, size)
    top = min(max_lag, m - 1)
    out[: top + 1] = prod[: top + 1]
    return out


class SpectrumCache:
    """Per-host cache of block ``rfft`` spectra, keyed by block identity.

    The online FFT kernel correlates the same reference block against
    many signal blocks and the same blocks again on the next refresh
    (overlap-add: only the newest dW block is new work), so spectra are
    cached across calls and across refreshes.  Keys are
    ``(id(block), transform size)`` and every entry keeps a strong
    reference to its block, so a block's ``id`` can never be recycled
    while its spectrum is alive.  Spectra are always computed by a single
    1-D ``rfft`` -- a pure function of (block contents, size) -- so a hit
    returns the bitwise-identical array a recompute would produce and
    caching can never change analysis output.

    ``evict_before`` drops entries whose block slid out of the retained
    window; the engine calls it once per refresh, bounding resident
    spectra to the live block history (~``(size/2 + 1) * 16`` bytes per
    cached block).
    """

    __slots__ = ("hits", "misses", "_entries")

    def __init__(self) -> None:
        self._entries: "dict[tuple[int, int], tuple[object, np.ndarray]]" = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Resident bytes across all cached spectra."""
        return sum(spec.nbytes for _, spec in self._entries.values())

    def spectrum(self, block: SeriesLike, size: int) -> np.ndarray:
        """The length-``size`` ``rfft`` of ``block``'s dense samples."""
        key = (id(block), int(size))
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry[1]
        spec = np.fft.rfft(block.to_dense(), int(size))
        self._entries[key] = (block, spec)
        self.misses += 1
        return spec

    def evict_before(self, start: int) -> int:
        """Drop entries whose block starts before quantum ``start``."""
        stale = [
            key
            for key, (block, _) in self._entries.items()
            if block.start < start
        ]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()


def fft_batch_lag_products(
    x: "SeriesLike | list[SeriesLike]",
    ys: "list[SeriesLike]",
    max_lag: int,
    size: Optional[int] = None,
    cache: Optional[SpectrumCache] = None,
) -> np.ndarray:
    """Raw lag products of ``x`` against ``F`` blocks sharing a window,
    via one batched 2-D inverse FFT.

    ``x`` is one block, or one block per row (the x blocks then share one
    window too). Row ``r`` equals ``sparse_lag_products(x_r, ys[r],
    max_lag)`` up to float roundoff (documented tolerance: relative
    ~1e-12 of the block mass scale; see ``docs/PERFORMANCE.md``).  Like
    the sparse primitive this works on **absolute** indices -- ``x`` need
    not share the ys' window -- which is what the incremental
    correlator's cross-block products require.  Lags outside the blocks'
    overlap support are exact zeros, never FFT roundoff read from the
    padded transform.

    Per-block forward spectra come from ``cache`` when given (each a
    single 1-D ``rfft``, so cached and fresh spectra are bitwise equal);
    each row takes its x spectrum's conjugate and the inverse transform
    runs over blocks of stacked rows (a row's bits do not depend on the
    block it rides in).  ``size`` shares a precomputed 5-smooth plan
    length across calls.
    """
    if max_lag < 0:
        raise CorrelationError(f"max_lag must be non-negative, got {max_lag}")
    num_rows = len(ys)
    out = np.zeros((num_rows, max_lag + 1), dtype=np.float64)
    if num_rows == 0:
        return out
    xs = _row_blocks(x, num_rows)
    head = _one_window(ys, "fft_batch_lag_products")
    x_head = _one_window(xs, "fft_batch_lag_products (x blocks too)")
    if x_head.quantum != head.quantum:
        raise SeriesError(f"quantum mismatch: {x_head.quantum} vs {head.quantum}")
    lx = int(x_head.length)
    ly = int(head.length)
    if lx == 0 or ly == 0:
        return out
    # Absolute-lag support of this block pair: a sample pair at lag d
    # exists iff some x index i and y index j = i + d - (head.start -
    # x.start relative shift) both fall inside their blocks.
    delta = int(head.start) - int(x_head.start)
    d0 = max(0, delta - (lx - 1))
    d1 = min(max_lag, delta + ly - 1)
    if d1 < d0:
        return out
    full = lx + ly - 1
    if size is None:
        size = fft_length(full)
    elif size < full:
        raise CorrelationError(
            f"fft size {size} aliases a length-{full} linear correlation"
        )
    size = int(size)
    local_cache = cache if cache is not None else SpectrumCache()
    conj: "dict[int, np.ndarray]" = {}
    # Relative lag r = d - delta may be negative (x block newer than y);
    # circular correlation parks negative lags at the tail of the
    # transform, so gather modulo size.
    idx = (np.arange(d0, d1 + 1) - delta) % size
    step = max(1, _BLOCK_BYTES // (16 * (size // 2 + 1)))
    for lo in range(0, num_rows, step):
        fx = np.empty((min(step, num_rows - lo), size // 2 + 1), dtype=np.complex128)
        spectra = np.empty_like(fx)
        for row, (x_r, y) in enumerate(zip(xs[lo : lo + step], ys[lo : lo + step])):
            if id(x_r) not in conj:
                conj[id(x_r)] = np.conj(local_cache.spectrum(x_r, size))
            fx[row] = conj[id(x_r)]
            spectra[row] = local_cache.spectrum(y, size)
        prod = np.fft.irfft(np.multiply(fx, spectra, out=spectra), size, axis=1)
        out[lo : lo + step, d0 : d1 + 1] = prod[:, idx]
    return out


def correlate_fft_batch(
    x: SeriesLike,
    ys: "list[SeriesLike]",
    max_lag: Optional[int] = None,
    cache: Optional[SpectrumCache] = None,
) -> "list[CorrelationSeries]":
    """Normalized correlation of one ``x`` against many ``ys`` via FFT.

    The FFT analogue of :func:`correlate_batch`: all inputs must share
    one window, and per-row results equal ``correlate_sparse`` up to the
    documented float tolerance.
    """
    return _normalized_rows(
        "correlate_fft_batch", x, ys, max_lag,
        lambda d_max: fft_batch_lag_products(x, list(ys), d_max, cache=cache),
    )


def correlate_fft(
    x: SeriesLike, y: SeriesLike, max_lag: Optional[int] = None
) -> CorrelationSeries:
    """FFT-based correlation (the paper's Eq. 2; baseline in Figure 9).

    Unlike the direct variants, FFT inherently computes the full lag range;
    ``max_lag`` only truncates the returned slice.
    """
    xs, ys = aligned_windows(_as_sparse(x), _as_sparse(y))
    n = xs.length
    d_max = _effective_max_lag(n, max_lag)
    xd = xs.to_dense()
    yd = ys.to_dense()
    lag_products = fft_lag_products(xd, yd, d_max)
    lags = np.arange(d_max + 1, dtype=np.int64)
    x_prefix = _sparse_prefix_mass(xs, n - lags)
    y_suffix = ys.total() - _sparse_prefix_mass(ys, lags)
    return _normalize(
        lag_products, x_prefix, y_suffix, n, xs.mean(), ys.mean(), xs.std(), ys.std(), xs.quantum
    )


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

_METHODS = {
    "dense": correlate_dense,
    "sparse": correlate_sparse,
    "rle": correlate_rle,
    "fft": correlate_fft,
}


def cross_correlate(
    x: SeriesLike,
    y: SeriesLike,
    max_lag: Optional[int] = None,
    method: str = "auto",
) -> CorrelationSeries:
    """Compute the normalized cross-correlation with the chosen ``method``.

    ``method="auto"`` picks RLE when both inputs are already run-length
    encoded (the streamed wire format), sparse otherwise.
    """
    if method == "auto":
        if isinstance(x, RunLengthSeries) and isinstance(y, RunLengthSeries):
            method = "rle"
        else:
            method = "sparse"
    try:
        impl = _METHODS[method]
    except KeyError:
        raise CorrelationError(
            f"unknown correlation method {method!r}; choose from {sorted(_METHODS)}"
        ) from None
    return impl(x, y, max_lag)
