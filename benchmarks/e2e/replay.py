"""The measured half: replay one capture through tracer -> ... -> lake.

One *pass* loads the capture file (memory-mapped), groups its timestamps
per (refresh round, observer node, src, dst), wires a second, never-run
deployment of the workload, builds the engine with nothing but
``config``, ``transport``, ``capture_sink`` and ``lake`` -- every other
argument at its default, so the harness survives knobs being deleted --
and runs the closed loop on the calling thread::

    for round k:  Tracer.observe_batch(...) for the round's arrays
                  engine.refresh((k + 1) * dW)

Feeding tracers this way publishes bit-identical graphs to an engine
attached to the running simulation (the smoke test compares digests), so
the simulator's cost stays out of the numbers without changing what the
analyzer does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import pathlib
import resource
import shutil
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.history import raw_span_estimate, span_estimate
from repro.config import TransportConfig
from repro.core.engine import E2EProfEngine
from repro.lake import TraceLake
from repro.tracing.collector import TraceCollector
from repro.tracing.storage import read_capture_binary

from capture import CAPTURE_FILE
from oracle import graph_digest, sample_indices
from spans import SpanRecorder
from workloads import WorkloadSpec

ClassKey = Tuple[str, str]


@dataclasses.dataclass
class RefreshRecord:
    """What one replayed round produced."""

    now: float
    records: int
    observe_s: float
    refresh_s: float
    wire_bytes: int
    graphs: Dict[ClassKey, object]
    ledger: object
    stats: object
    sample: object
    error: Optional[str] = None


@dataclasses.dataclass
class FoldQuery:
    """One ``span_estimate`` history query."""

    target: Tuple[str, str, str, str]
    start: float
    end: float
    seconds: float
    delay: float = float("nan")
    blocks: int = 0
    #: ``raw_span_estimate`` delay over the same span (sampled folds only).
    raw_delay: Optional[float] = None
    error: Optional[str] = None


@dataclasses.dataclass
class StitchedRead:
    """One historical ``capture_sink.window()`` read, series materialized."""

    end_time: float
    seconds: float
    series: Dict[Tuple[str, str], object]


@dataclasses.dataclass
class PassResult:
    setup_s: float
    refreshes: List[RefreshRecord]
    folds: List[FoldQuery]
    stitched: List[StitchedRead]
    peak_rss_mb: float
    resident_peak: int
    transport: dict
    ingest: dict
    correlators: int
    recorder: Optional[SpanRecorder]
    #: service class -> the (client, front end) key its graphs publish under.
    classes: Dict[str, ClassKey]

    @functools.cached_property
    def digest(self) -> str:
        return graph_digest(r.graphs for r in self.refreshes)


#: Folds per pass re-correlated from raw spilled traces for the oracle.
RAW_CHECKS = 3

#: Per-stream spill buffer that cuts a lake segment. The workloads carry
#: about a tenth of the records per stream the library default (256 KiB)
#: is sized for; at the default no run would ever write a segment and the
#: stitched reads would never touch the mapping LRU.
LAKE_SEGMENT_BYTES = 32 * 1024


def load_batches(workdir: pathlib.Path) -> list:
    """The capture file as per-(edge, side) timestamp batches, memory-mapped."""
    return list(read_capture_binary(workdir / CAPTURE_FILE, mmap=True))


def group_rounds(batches, spec: WorkloadSpec) -> List[list]:
    """Per refresh round, the ``(observer, src, dst, timestamps)`` groups
    in first-capture order -- the order a live tracer would first have
    seen each edge."""
    interval = spec.config().refresh_interval
    bounds = interval * np.arange(1, spec.refreshes + 1)
    rounds: List[list] = [[] for _ in range(spec.refreshes)]
    for batch in batches:
        cuts = np.searchsorted(batch.timestamps, bounds, side="right")
        lo = 0
        for k, hi in enumerate(cuts):
            if hi > lo:
                stamps = batch.timestamps[lo:hi]
                rounds[k].append((float(stamps[0]), batch.observer, batch.src, batch.dst, stamps))
            lo = int(hi)
    for groups in rounds:
        groups.sort(key=lambda g: g[:4])
    return [[g[1:] for g in groups] for groups in rounds]


def pick_fold_target(graphs: Dict[ClassKey, object], clients, turn: int):
    """Rotating (client, root, src, dst) with a first-hop edge in
    ``graphs``; None when no class has one yet."""
    candidates = []
    for (client, root) in sorted(graphs):
        hops = sorted(
            edge for edge in graphs[(client, root)].edge_set()
            if edge[0] == root and edge[1] not in clients
        )
        if hops:
            candidates.append((client, root) + hops[0])
    return candidates[turn % len(candidates)] if candidates else None


def attach_engine(spec: WorkloadSpec, topology, lake_dir: pathlib.Path) -> E2EProfEngine:
    """The engine under test, attached to ``topology``: the full path
    (transport, capture sink, lake) and no other argument."""
    engine = E2EProfEngine(
        spec.config(),
        transport=TransportConfig(),
        capture_sink=TraceCollector(
            client_nodes=topology.collector.clients, retention=spec.retention
        ),
        lake=TraceLake(lake_dir, segment_bytes=LAKE_SEGMENT_BYTES),
    )
    engine.attach(topology, start_at=0.0)
    return engine


def run_pass(
    spec: WorkloadSpec,
    workdir: pathlib.Path,
    lake_dir: pathlib.Path,
    recorder: Optional[SpanRecorder] = None,
    verify: bool = False,
) -> PassResult:
    """One full replay of the workload through a fresh engine.

    ``recorder`` turns the pass into a traced one; ``verify`` re-correlates
    a few folds from raw traces after the loop (see ``oracle.check_fold``).
    """
    config = spec.config()
    interval = config.refresh_interval
    max_lag = config.max_lag_quanta

    setup_started = perf_counter()
    rounds = group_rounds(load_batches(workdir), spec)
    deployment = spec.build(seed=0)  # never run: only its wiring is used
    topology = deployment.topology
    engine = attach_engine(spec, topology, lake_dir)
    sink, lake = engine.capture_sink, engine.lake
    clients = topology.collector.clients
    tracers = topology.fabric.tracers
    setup_s = perf_counter() - setup_started

    span = recorder.span if recorder is not None else (lambda name: contextlib.nullcontext())
    refreshes: List[RefreshRecord] = []
    folds: List[FoldQuery] = []
    stitched: List[StitchedRead] = []
    resident_peak = 0

    def fold(target, start, end) -> None:
        query = FoldQuery(target, start, end, 0.0)
        began = perf_counter()
        try:
            with span("history.fold"):
                estimate = span_estimate(lake, *target, start=start, end=end, max_lag=max_lag)
            query.delay, query.blocks = estimate.delay, estimate.blocks
        except Exception as exc:  # a failed query is a failed operation, not a crash
            query.error = f"{type(exc).__name__}: {exc}"
        query.seconds = perf_counter() - began
        folds.append(query)

    def stitched_read(end_time) -> None:
        began = perf_counter()
        window = sink.window(config, end_time=end_time)
        series = {edge: window.edge_series(*edge) for edge in window.active_edges()}
        stitched.append(StitchedRead(end_time, perf_counter() - began, series))

    try:
        if recorder is not None:
            recorder.install()
        for k, groups in enumerate(rounds):
            now = (k + 1) * interval
            if recorder is not None:
                recorder.refresh_id = k
            wire_before = engine.wire_bytes_received
            records = 0
            t0 = perf_counter()
            for observer, src, dst, stamps in groups:
                records += tracers[observer].observe_batch(stamps, src, dst)
            t1 = perf_counter()
            graphs, ledger, stats, error = {}, None, None, None
            try:
                result = engine.refresh(now)
                graphs, ledger, stats = result.graphs, result.ledger, result.stats
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            t2 = perf_counter()
            refreshes.append(
                RefreshRecord(
                    now=now,
                    records=records,
                    observe_s=t1 - t0,
                    refresh_s=t2 - t1,
                    wire_bytes=engine.wire_bytes_received - wire_before,
                    graphs=graphs,
                    ledger=ledger,
                    stats=stats,
                    sample=engine.latest_sample,
                    error=error,
                )
            )
            if recorder is not None:
                resident_peak = max(resident_peak, sink.record_count())
            if (
                spec.query_every
                and k >= spec.query_from
                and (k - spec.query_from) % spec.query_every == 0
            ):
                target = pick_fold_target(refreshes[-1].graphs, clients, len(folds))
                if target is not None:
                    fold(target, 2 * interval, now - 4 * config.window)
                stitched_read(now / 2.0)
        # ru_maxrss is a high-water mark: read here it is the analyzer's
        # peak over set-up and the loop, before any verification work.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        end = spec.simulated_seconds
        if recorder is not None:
            recorder.refresh_id = spec.refreshes
        for turn in range(spec.post_queries):
            target = pick_fold_target(refreshes[-1].graphs, clients, turn)
            if target is not None:
                fold(target, end - spec.post_query_span, end)
            stitched_read(end / 2.0)
        if verify:
            # Needs the live lake, so it runs here; the verdict is oracle.check_fold's.
            answered = [f for f in folds if f.error is None]
            for i in sample_indices(0, len(answered) - 1, RAW_CHECKS):
                query = answered[i]
                query.raw_delay = raw_span_estimate(
                    lake, config, *query.target, query.start, query.end, max_lag=max_lag
                ).delay
        transport = engine.transport_summary()
        ingest = sink.ingest_stats()
        correlators = engine.correlator_count
    finally:
        if recorder is not None:
            recorder.uninstall()
        engine.close()
        shutil.rmtree(lake_dir, ignore_errors=True)

    return PassResult(
        setup_s=setup_s,
        refreshes=refreshes,
        folds=folds,
        stitched=stitched,
        peak_rss_mb=peak_rss_mb,
        resident_peak=resident_peak,
        transport=transport,
        ingest=ingest,
        correlators=correlators,
        recorder=recorder,
        classes={
            cls: (client.node_id, client.front_end)
            for cls, client in deployment.clients.items()
        },
    )
