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
    values = corr.values
    if values.size < 3:
        return []
    mean = float(values.mean())
    std = float(values.std())
    if std == 0.0:
        # A perfectly flat series carries no causal information.
        return []
    threshold = max(mean + sigma * std, min_height)

    candidates = _local_maxima_above(values, threshold)
    if not candidates:
        return []
    survivors = _apply_resolution_window(values, candidates, resolution_quanta)
    spikes = [
        Spike(
            lag=int(lag),
            delay=float(lag) * corr.quantum,
            height=float(values[lag]),
            prominence=float(values[lag] - threshold),
        )
        for lag in survivors
    ]
    if max_spikes is not None and len(spikes) > max_spikes:
        spikes = sorted(spikes, key=lambda s: -s.height)[:max_spikes]
    return sorted(spikes, key=lambda s: s.lag)


def _local_maxima_above(values: np.ndarray, threshold: float) -> List[int]:
    """Indices that are local maxima (plateau-aware) and exceed threshold."""
    n = values.size
    if n == 0:
        return []
    # Decompose the series into plateaus (maximal runs of equal values);
    # a plateau is a maximum when it stands above both neighbours, the
    # series ends counting as lower ground.
    breaks = np.flatnonzero(values[1:] != values[:-1]) + 1
    first = np.concatenate(([0], breaks))
    last = np.concatenate((breaks - 1, [n - 1]))
    level = values[first]
    peak = level > threshold
    peak[1:] &= level[:-1] < level[1:]
    peak[:-1] &= level[1:] < level[:-1]
    # Report the centre of each plateau.
    return ((first[peak] + last[peak]) // 2).tolist()


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
