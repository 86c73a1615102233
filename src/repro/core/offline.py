"""Offline sliding-window analysis of a stored trace, replayed through the engine.

The paper's Delta study analyzes "a week long trace collected from this
subsystem" offline with the same sliding-window algorithm it runs online.
:func:`replay` runs that algorithm -- the online
:class:`~repro.core.engine.E2EProfEngine` itself -- over a collector:
every stored ``(edge, side)`` stream is fed to a tracer at its observer,
one refresh round at a time, and the engine refreshes exactly as it does
attached to a live system. The caller builds the engine, so its registry,
spans, events, flight record and subscribers are the online ones.

Window alignment: the engine flushes blocks one sampling window ``omega``
behind ``now``, so its refresh at ``now`` analyzes the trace up to
``now - omega``. A window "ending at ``end``" is the replay anchored at
``end - W``: its one full-window refresh fires at ``end`` and covers
``[end - W - omega, end - omega)``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Tuple

import numpy as np

from repro.core.pathmap import PathmapResult
from repro.errors import AnalysisError
from repro.tracing.collector import TraceCollector
from repro.tracing.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import E2EProfEngine


def replay(
    collector: TraceCollector,
    engine: "E2EProfEngine",
    start_time: float,
    end_time: float,
) -> Iterator[Tuple[float, PathmapResult]]:
    """Drive ``engine`` over ``collector``'s trace from ``start_time``;
    yield ``(now, PathmapResult)`` for every refresh in
    ``[start_time + W, end_time]``.

    The engine is anchored at ``start_time`` and refreshes at
    ``start_time + k * dW``; the refreshes before the first full window
    run (they fill the engine's history) but are not yielded. Stored
    stamps are already local-clock, so every tracer runs without skew;
    feeding starts one sampling window before the engine's first block.
    Lazy: callers can stop early (e.g. once a diagnosis is found in a
    week-long trace).
    """
    config = engine.config
    if end_time <= start_time:
        raise AnalysisError(f"empty replay range: [{start_time}, {end_time}]")
    if start_time + config.window > end_time:
        raise AnalysisError(
            "replay range shorter than one analysis window "
            f"({end_time - start_time:.1f}s < {config.window:.1f}s)"
        )
    interval = config.refresh_interval
    first_full = math.ceil(config.window / interval - 1e-9)
    tracers = {}
    streams = []
    for batch in collector.export_batches():
        observer = batch.dst if batch.observed_at_destination else batch.src
        tracers.setdefault(observer, Tracer(observer))
        streams.append((observer, batch.src, batch.dst, batch.timestamps))
    engine.connect(tracers, collector, start_time)
    fed_from = start_time - 2 * config.sampling_window
    cursors = [int(np.searchsorted(s[3], fed_from)) for s in streams]
    k = 1
    while start_time + k * interval <= end_time:
        now = start_time + k * interval
        # This round's captures, stream by stream in first-capture order:
        # the order a live tracer first saw each edge.
        groups = []
        for i, (observer, src, dst, stamps) in enumerate(streams):
            lo, hi = cursors[i], int(np.searchsorted(stamps, now))
            if hi > lo:
                groups.append((stamps[lo], observer, src, dst, stamps[lo:hi]))
                cursors[i] = hi
        for _, observer, src, dst, stamps in sorted(groups, key=lambda g: g[:4]):
            tracers[observer].observe_batch(stamps, src, dst)
        result = engine.refresh(now)
        if k >= first_full:
            yield now, result
        k += 1
