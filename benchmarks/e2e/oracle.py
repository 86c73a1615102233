"""Correctness checks: is what the full path published what it should be?

Three independent references, none of which shares code with the path
under test beyond the density-series builder:

* **Dense from-scratch pathmap.** All captures go into an unbounded
  :class:`~repro.tracing.collector.TraceCollector`; for a sampled refresh
  the published graphs must match ``compute_service_graphs(window,
  config, method="dense")`` -- same class pairs, same edge set per class,
  same ``min_delay`` per edge. Labels are compared, not correlation
  strengths: the transport passes block values through float32 and the
  fft kernel agrees with the direct kernels to float tolerance only.
* **Stitched vs unbounded.** Every historical ``capture_sink.window()``
  the run read back through the lake must equal the unbounded
  collector's window over the same span, series for series, bit for bit.
* **Fold vs raw.** A summary fold's delay must be within
  :data:`FOLD_TOLERANCE_S` of ``raw_span_estimate`` over the same span.

Two traps in the seed, both easy to get wrong when changing this file:

1. The engine anchors block boundaries one sampling window behind the
   clock, so the window a refresh at ``now`` analysed ends at
   ``now - config.sampling_window``, not at ``now`` -- and that end, as
   a float, may floor to the quantum before it (7.995 / 0.001 is
   7994.999...), which shifts the oracle's window by one quantum and
   flips borderline spikes. ``check_refresh`` names the window by
   quantum index instead.
2. Only captures whose observer has a tracer are ever replayed. Clients
   have none, so the client-side copy of a client edge must not reach
   the reference collector either (``topology.collector`` already drops
   them, and the capture file is its export).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.config import PathmapConfig
from repro.core.pathmap import compute_service_graphs
from repro.tracing.collector import TraceCollector

#: Largest tolerated |fold delay - raw delay| (seconds).
FOLD_TOLERANCE_S = 0.020

ClassKey = Tuple[str, str]


def graph_digest(published: Iterable[Dict[ClassKey, object]]) -> str:
    """sha256 over every published ``ServiceGraph.to_dict()``, in order."""
    sha = hashlib.sha256()
    for graphs in published:
        doc = {f"{client}|{root}": graph.to_dict() for (client, root), graph in graphs.items()}
        sha.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
    return sha.hexdigest()


def reference_collector(batches, clients) -> TraceCollector:
    """Unbounded collector holding every capture of the run."""
    ref = TraceCollector(client_nodes=clients)
    for batch in batches:
        ref.ingest_batch(
            batch.src, batch.dst, batch.timestamps,
            observed_at_destination=batch.observed_at_destination,
        )
    return ref


def sample_indices(first: int, last: int, count: int) -> List[int]:
    """``count`` evenly spaced indices in ``[first, last]``, ``last`` included."""
    if last < first:
        return []
    return sorted({int(round(x)) for x in np.linspace(first, last, min(count, last - first + 1))})


def _labels(graphs: Dict[ClassKey, object]) -> Dict[ClassKey, Dict[Tuple[str, str], float]]:
    return {
        pair: {edge.key: edge.min_delay for edge in graph.edges if edge.delays}
        for pair, graph in graphs.items()
    }


def check_refresh(
    graphs: Dict[ClassKey, object], now: float, ref: TraceCollector, config: PathmapConfig
) -> List[str]:
    """Mismatches between one published result and the dense oracle."""
    # Name the window by quantum index, a quarter quantum inside, so the
    # collector's floor(start / quantum) cannot land one quantum early.
    first = int(round(now / config.quantum)) - config.sampling_quanta - config.window_quanta
    start = (first + 0.25) * config.quantum
    window = ref.window(config, end_time=start + config.window, start_time=start)
    expected = compute_service_graphs(window, config, method="dense").graphs
    problems: List[str] = []
    if set(graphs) != set(expected):
        problems.append(
            f"t={now}: class pairs differ: published {sorted(graphs)} "
            f"vs oracle {sorted(expected)}"
        )
    got, want = _labels(graphs), _labels(expected)
    for pair in sorted(set(graphs) & set(expected)):
        if graphs[pair].edge_set() != expected[pair].edge_set():
            problems.append(
                f"t={now} {pair}: edge sets differ by "
                f"{sorted(graphs[pair].edge_set() ^ expected[pair].edge_set())}"
            )
            continue
        for edge, delay in want[pair].items():
            if got[pair].get(edge) != delay:
                problems.append(
                    f"t={now} {pair} {edge}: min_delay {got[pair].get(edge)} "
                    f"vs oracle {delay}"
                )
    return problems


def _same_series(a, b) -> bool:
    return (
        a.start == b.start
        and a.length == b.length
        and np.array_equal(a.starts, b.starts)
        and np.array_equal(a.counts, b.counts)
        and np.array_equal(a.values, b.values)
    )


def check_stitched(
    end_time: float, series: Dict[Tuple[str, str], object],
    ref: TraceCollector, config: PathmapConfig,
) -> List[str]:
    """Mismatches between a stitched historical window and the unbounded one."""
    window = ref.window(config, end_time=end_time)
    problems: List[str] = []
    if set(series) != set(window.active_edges()):
        problems.append(
            f"stitched window @{end_time}: active edges differ by "
            f"{sorted(set(series) ^ set(window.active_edges()))}"
        )
    for edge in sorted(set(series) & set(window.active_edges())):
        if not _same_series(series[edge], window.edge_series(*edge)):
            problems.append(f"stitched window @{end_time}: series of {edge} differs")
    return problems


def check_fold(fold) -> List[str]:
    """Mismatch between one summary fold and its raw re-correlation
    (only folds that carry a ``raw_delay`` were re-correlated)."""
    if fold.raw_delay is None or abs(fold.delay - fold.raw_delay) <= FOLD_TOLERANCE_S:
        return []
    return [
        f"fold {fold.target} [{fold.start}, {fold.end}): delay {fold.delay} "
        f"vs raw {fold.raw_delay}"
    ]
