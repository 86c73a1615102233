"""The all-edges tracer flush, kept as the reference oracle.

This is ``Tracer.flush_block`` as it was before quiet edges stopped
being flushed: one density row and one RLE block for every captured edge
the caller keeps, empty or not. ``tests/test_tracer.py`` holds the
current flush to it: the current flush returns exactly this one's
non-empty blocks, bit for bit and in the same order.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional

import numpy as np

from repro.config import PathmapConfig
from repro.core.rle import RunLengthSeries, rle_encode_rows
from repro.core.timeseries import build_density_rows
from repro.tracing.tracer import EdgeKey, Tracer


def flush_block_reference(
    tracer: Tracer,
    config: PathmapConfig,
    window_start_quantum: int,
    block_quanta: int,
    edges: Optional[Collection[EdgeKey]] = None,
) -> Dict[EdgeKey, RunLengthSeries]:
    tau = config.quantum
    stamps, rows = tracer._fold()
    emitted = [e for e in tracer._rows if edges is None or e in edges]
    # Captured row -> grid row, -1 for edges not emitted.
    slot = np.full(len(tracer._rows), -1, dtype=np.int64)
    slot[[tracer._rows[e] for e in emitted]] = np.arange(len(emitted))
    grid_rows = slot[rows]
    wanted = grid_rows >= 0
    grid = build_density_rows(
        stamps[wanted],
        grid_rows[wanted],
        len(emitted),
        quantum=tau,
        sampling_quanta=config.sampling_quanta,
        window_start=window_start_quantum,
        window_length=block_quanta,
    )
    blocks = dict(zip(emitted, rle_encode_rows(grid, window_start_quantum, tau)))
    tracer._drop_before(
        (window_start_quantum + block_quanta) * tau - config.sampling_window
    )
    return blocks
