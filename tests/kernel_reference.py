"""Scalar kernels retired from ``src/``, kept as reference oracles.

``rle_lag_products_reference`` is the one-pair RLE kernel
``repro.core.correlation`` ran (one Python-level call per correlator
row, four ``np.add.at`` scatters, two 1-D cumulative sums) before
``rle_batch_lag_products`` replaced it; the batched kernel is held to it
bit for bit, row by row. ``local_maxima_above_reference`` is the Python
scan over lags ``repro.core.spikes`` used before the plateau
decomposition in array ops. ``boundary_mass_reference`` is the one-window
boundary mass ``repro.core.incremental`` computed before
``boundary_masses`` batched every window into one pass; the batch is held
to it bit for bit, row by row.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.correlation import _sparse_prefix_mass
from repro.core.incremental import _concat_blocks
from repro.core.rle import RunLengthSeries
from repro.errors import CorrelationError


def rle_lag_products_reference(
    x: RunLengthSeries, y: RunLengthSeries, max_lag: int
) -> np.ndarray:
    if max_lag < 0:
        raise CorrelationError(f"max_lag must be non-negative, got {max_lag}")
    if x.num_runs == 0 or y.num_runs == 0:
        return np.zeros(max_lag + 1, dtype=np.float64)

    xs_, xc, xv = x.starts, x.counts, x.values
    ys_, yc, yv = y.starts, y.counts, y.values
    x_ends = xs_ + xc
    y_ends = ys_ + yc

    # For x-run k, the candidate y-runs are those whose lag range
    # [y.start - x.end + 1, y.end - 1 - x.start] intersects [0, max_lag]:
    #   y.end > x.start          (lag range reaches >= 0)
    #   y.start <= x.end - 1 + max_lag
    lo = np.searchsorted(y_ends, xs_, side="right")
    hi = np.searchsorted(ys_, x_ends + max_lag, side="left")
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    offset = int(xc.max() + yc.max())
    size = max_lag + offset + 2
    diff2 = np.zeros(size + 1, dtype=np.float64)
    if total == 0:
        return np.zeros(max_lag + 1, dtype=np.float64)

    cum = np.concatenate([[0], np.cumsum(counts)])
    reps = np.repeat(np.arange(xs_.size), counts)
    local = np.arange(total) - np.repeat(cum[:-1], counts)
    cols = lo[reps] + local
    w = xv[reps] * yv[cols]
    # First lag at which the pair overlaps: d0 = y.start - (x.end - 1).
    d0 = ys_[cols] - (x_ends[reps] - 1) + offset
    ca = xc[reps]
    cb = yc[cols]
    top = size  # clip: impulses beyond the slice cannot affect it

    np.add.at(diff2, np.minimum(d0, top), w)
    np.add.at(diff2, np.minimum(d0 + ca, top), -w)
    np.add.at(diff2, np.minimum(d0 + cb, top), -w)
    np.add.at(diff2, np.minimum(d0 + ca + cb, top), w)

    ramp = np.cumsum(np.cumsum(diff2))
    return ramp[offset : offset + max_lag + 1]


def local_maxima_above_reference(values: np.ndarray, threshold: float) -> List[int]:
    """Indices that are local maxima (plateau-aware) and exceed threshold."""
    n = values.size
    above = values > threshold
    if not np.any(above):
        return []
    out: List[int] = []
    i = 0
    while i < n:
        if not above[i]:
            i += 1
            continue
        # Expand a plateau of equal values.
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        left_ok = i == 0 or values[i - 1] < values[i]
        right_ok = j == n - 1 or values[j + 1] < values[i]
        if left_ok and right_ok:
            # Report the centre of the plateau.
            out.append((i + j) // 2)
        i = j + 1
    return out


def boundary_mass_reference(blocks, max_lag: int, newest: bool) -> np.ndarray:
    d_max = min(max_lag, sum(block.length for block in blocks) - 1)
    lags = np.arange(d_max + 1, dtype=np.int64)
    picked = []
    covered = 0
    for block in reversed(blocks) if newest else blocks:
        picked.append(block)
        covered += block.length
        if covered >= d_max:
            break
    if newest:
        picked.reverse()
    edge = _concat_blocks(picked, picked[0].quantum)
    if newest:
        return edge.total() - _sparse_prefix_mass(edge, covered - lags)
    return _sparse_prefix_mass(edge, lags)
