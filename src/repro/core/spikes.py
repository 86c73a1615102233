"""Spike detection in cross-correlation series (paper Section 3.3).

"Spikes in the cross-correlation series are detected by finding points
that are local maximas and exceed a threshold (mean + 3 x Std.Dev.). In
traces with some noise, there may exist spikes that are very close to each
other. To address this issue, we define a resolution threshold window that
chooses only the tallest spike in a particular window."
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.core.correlation import CorrelationSeries


@dataclasses.dataclass(frozen=True)
class Spike:
    """A detected correlation spike.

    Attributes
    ----------
    lag:
        Lag position in quanta.
    delay:
        The same position converted to seconds -- the causal delay the
        spike denotes.
    height:
        Correlation value at the spike.
    prominence:
        Height above the detection threshold (``height - threshold``);
        useful for ranking competing spikes.
    """

    lag: int
    delay: float
    height: float
    prominence: float


def detect_spikes(
    corr: CorrelationSeries,
    sigma: float = 3.0,
    resolution_quanta: int = 1,
    max_spikes: int | None = None,
    min_height: float = 0.0,
) -> List[Spike]:
    """Find spikes: local maxima exceeding ``mean + sigma * std``.

    Parameters
    ----------
    corr:
        A correlation series (lags ``0..max_lag``).
    sigma:
        Threshold multiplier; the paper uses 3.
    resolution_quanta:
        Width of the resolution window: among spikes whose lags are within
        this many quanta of a taller spike, only the tallest survives.
    max_spikes:
        Optionally keep only the ``max_spikes`` tallest spikes.
    min_height:
        Absolute floor on the correlation value of a spike (0.0 keeps the
        paper's pure relative rule; a small positive value suppresses
        chance alignments on unrelated edges).

    Returns
    -------
    list of :class:`Spike`, sorted by lag.

    Degenerate correlation series (zero-variance inputs) yield no spikes,
    as do series too short for a meaningful threshold.
    """
    if corr.degenerate:
        return []
    spikes = detect_spike_rows(
        corr.values[None], corr.quantum, sigma, resolution_quanta, min_height
    )[0]
    if max_spikes is not None and len(spikes) > max_spikes:
        spikes = sorted(spikes, key=lambda s: -s.height)[:max_spikes]
        spikes.sort(key=lambda s: s.lag)
    return spikes


def detect_spike_rows(
    values: np.ndarray,
    quantum: float,
    sigma: float = 3.0,
    resolution_quanta: int = 1,
    min_height: float = 0.0,
) -> List[List[Spike]]:
    """:func:`detect_spikes` of each row of a ``(rows, lags)`` matrix of
    non-degenerate correlation values, in one 2-D pass: row-wise
    ``mean``/``std`` over contiguous rows are bitwise the 1-D reductions."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    found: List[List[Spike]] = [[] for _ in range(values.shape[0])]
    if values.shape[1] < 3:
        return found
    mean = values.mean(axis=1)
    std = values.std(axis=1)
    # A perfectly flat series carries no causal information.
    live = np.flatnonzero(std != 0.0)
    threshold = mean + sigma * std
    threshold = np.where(min_height > threshold, min_height, threshold)
    for row, candidates in zip(live, _local_maxima_rows(values[live], threshold[live])):
        row_values = values[row]
        cut = float(threshold[row])
        found[row] = [
            Spike(
                lag=int(lag),
                delay=float(lag) * quantum,
                height=float(row_values[lag]),
                prominence=float(row_values[lag] - cut),
            )
            for lag in _apply_resolution_window(row_values, candidates, resolution_quanta)
        ]
    return found


def _local_maxima_above(values: np.ndarray, threshold: float) -> List[int]:
    """Indices that are local maxima (plateau-aware) and exceed threshold."""
    return _local_maxima_rows(values[None], np.array([threshold]))[0]


def _local_maxima_rows(values: np.ndarray, thresholds: np.ndarray) -> List[List[int]]:
    """:func:`_local_maxima_above` of each row of ``values`` against its
    threshold, in one pass over the samples above threshold."""
    rows, n = values.shape
    found: List[List[int]] = [[] for _ in range(rows)]
    # A plateau (maximal run of equal values) above its threshold is a
    # run of adjacent above-threshold samples of one value in one row; it
    # is a maximum when it stands above both neighbours, the row ends
    # counting as lower ground.
    above = np.flatnonzero(values > thresholds[:, None])
    if not above.size:
        return found
    flat = values.ravel()
    level = flat[above]
    row = above // n
    starts = np.ones(above.size, dtype=bool)
    starts[1:] = (above[1:] != above[:-1] + 1) | (level[1:] != level[:-1]) | (row[1:] != row[:-1])
    heads = np.flatnonzero(starts)
    first = above[heads]
    last = above[np.append(heads[1:], above.size) - 1]
    row, level = row[heads], level[heads]
    peak = (first == row * n) | (flat[first - 1] < level)
    peak &= (last == row * n + n - 1) | (flat[np.minimum(last + 1, flat.size - 1)] < level)
    # Report the centre of each plateau.
    centres = (first[peak] + last[peak]) // 2 - row[peak] * n
    for r, lag in zip(row[peak].tolist(), centres.tolist()):
        found[r].append(lag)
    return found


def _apply_resolution_window(
    values: np.ndarray, candidates: Sequence[int], resolution_quanta: int
) -> List[int]:
    """Among candidates within ``resolution_quanta`` of each other, keep the
    tallest (ties broken toward the smaller lag)."""
    if resolution_quanta <= 1 or len(candidates) <= 1:
        return list(candidates)
    # Greedy by height: tallest spikes claim their window first.
    order = sorted(candidates, key=lambda i: (-values[i], i))
    kept: List[int] = []
    for cand in order:
        if all(abs(cand - k) >= resolution_quanta for k in kept):
            kept.append(cand)
    return sorted(kept)


def strongest_spike(spikes: Sequence[Spike]) -> Spike | None:
    """The tallest spike, or None when the list is empty."""
    if not spikes:
        return None
    return max(spikes, key=lambda s: s.height)


def earliest_spike(spikes: Sequence[Spike]) -> Spike | None:
    """The spike with the smallest lag, or None when the list is empty."""
    if not spikes:
        return None
    return min(spikes, key=lambda s: s.lag)
