"""Metric definitions: passes in, named numbers with units out.

End-to-end metrics always come from untraced passes; per-layer metrics
come from the traced pass -- span self times from the benchmark's
wrappers, counts from what the program already publishes
(``PathmapResult.ledger`` / ``.stats``, ``MetricsSample``,
``engine.transport_summary()``, ``TraceCollector.ingest_stats()``,
``TraceLake.stats()``). Sums over refreshes cover *measured* refreshes
only; counters the program keeps cumulatively (``wire.frames``,
``transport.*``, ``collector.batches|sorts``, ``lake.*``) cover the
whole pass, warm-up included. ``BENCHMARK.json`` lists the same names
with direction and bound; the smoke test keeps the two in step.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from repro.obs.ledger import CORRELATION_KERNELS
from repro.scenarios.scoring import score_refresh

from replay import PassResult
from workloads import WorkloadSpec

Metric = Tuple[float, str]  # (value, unit)

#: Ledger stages summed into the refresh-path budget (``spill`` is the
#: lake's optional stage; the four pipeline stages always exist).
ENGINE_STAGES = ("ingest", "correlate", "dfs", "publish", "spill")

#: End-to-end metrics that are exact functions of (code, seed): two runs
#: of the same code must agree on them to the last digit.
EXACT_METRICS = ("wire_bytes_per_record", "edge_f1", "delay_accuracy")


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measured(spec: WorkloadSpec, result: PassResult):
    return result.refreshes[spec.warmup_refreshes:]


def accuracy(spec: WorkloadSpec, result: PassResult, truth) -> Tuple[float, float]:
    """(edge_f1, delay_err_rel) of one pass against ground truth.

    ``edge_f1`` is the mean ``score_refresh`` F1 over every (measured
    refresh, class) cell; ``delay_err_rel`` the median relative delay
    label error over every true-positive edge of those cells. The window
    graded is the one the refresh analysed (it ends one sampling window
    behind ``now``).
    """
    config = spec.config()
    f1: List[float] = []
    errors: List[float] = []
    for record in measured(spec, result):
        end = record.now - config.sampling_window
        start = end - config.window
        for cls, (client, front) in result.classes.items():
            cell = score_refresh(
                record.graphs.get((client, front)), truth, cls, client, start, end
            )
            f1.append(cell.f1)
            errors.extend(cell.delay_errors)
    return statistics.fmean(f1), (statistics.median(errors) if errors else 0.0)


def end_to_end(
    spec: WorkloadSpec,
    capture_s: float,
    passes: Sequence[PassResult],
    edge_f1: float,
    delay_err_rel: float,
) -> Dict[str, Metric]:
    """The user-visible numbers, pooled over every untraced pass."""
    rounds = [r for p in passes for r in measured(spec, p)]
    refresh_ms = [r.refresh_s * 1e3 for r in rounds]
    records = sum(r.records for r in rounds)
    wall = sum(r.observe_s + r.refresh_s for r in rounds)
    first = measured(spec, passes[0])
    fold_ms = [f.seconds * 1e3 for p in passes for f in p.folds if f.error is None]
    return {
        # Capture generation runs once per run; the in-process half (load,
        # group, wire, construct, attach) runs once per pass.
        "setup_s": (capture_s + p50([p.setup_s for p in passes]), "s"),
        "records_per_s": (records / wall, "1/s"),
        "refresh_p50_ms": (p50(refresh_ms), "ms"),
        "refresh_p90_ms": (p90(refresh_ms), "ms"),
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
        "wire_bytes_per_record": (
            sum(r.wire_bytes for r in first) / sum(r.records for r in first), "B"
        ),
        "edge_f1": (edge_f1, "ratio"),
        # 1 - median relative delay error: a relative bound on it is an
        # absolute bound on the error, and it is never 0.
        "delay_accuracy": (1.0 - delay_err_rel, "ratio"),
        "history_query_p50_ms": (p50(fold_ms), "ms"),
    }


def per_layer(
    spec: WorkloadSpec, child: dict, traced: PassResult, untraced: PassResult
) -> Dict[str, Metric]:
    """Where the time and the work went, from the traced pass."""
    rounds = measured(spec, traced)
    spans = traced.recorder.self_times(spec.warmup_refreshes, spec.refreshes)

    def self_s(name: str) -> Metric:
        return (spans.get(name, (0.0, 0.0, 0))[0], "s")

    out: Dict[str, Metric] = {
        "simulation.des_s": (child["des_s"], "s"),
        "simulation.captures": (child["captures"], "count"),
        "tracer.observe_s": self_s("tracer.observe"),
        "tracer.flush_s": self_s("tracer.flush"),
        "tracer.drain_s": self_s("tracer.drain"),
        "tracer.records": (sum(r.records for r in rounds), "count"),
        "tracer.blocks": (sum(r.sample.blocks_ingested for r in rounds), "count"),
        "transport.encode_s": self_s("transport.encode"),
        "transport.channel_s": self_s("transport.channel"),
        "transport.receive_s": self_s("transport.receive"),
        "transport.poll_s": self_s("transport.poll"),
        "collector.ingest_s": self_s("collector.ingest"),
        "collector.evict_s": self_s("collector.evict"),
        "pathmap.analyze_s": self_s("pathmap.analyze"),
        "lake.spill_s": self_s("lake.spill"),
        "lake.summary_s": self_s("lake.summary"),
        "lake.checkpoint_s": self_s("lake.checkpoint"),
    }

    totals = traced.transport["totals"]
    out["wire.frames"] = (
        sum(link["frames_sent"] for link in traced.transport["links"].values()), "count"
    )
    out["wire.bytes"] = (sum(r.wire_bytes for r in rounds), "B")
    out["transport.gaps"] = (totals["gaps"], "count")
    out["transport.duplicates"] = (
        totals["duplicates"] + totals["timestamp_duplicates"], "count"
    )
    out["transport.late"] = (totals["late_recovered"], "count")

    out["collector.batches"] = (traced.ingest["batches_ingested"], "count")
    out["collector.resident_peak"] = (traced.resident_peak, "count")
    out["collector.sorts"] = (traced.ingest["sort_operations"], "count")
    out["collector.stitched_window_ms"] = (
        p50([s.seconds * 1e3 for s in traced.stitched]), "ms"
    )

    wall = sum(r.refresh_s for r in rounds)
    staged = 0.0
    for stage in ENGINE_STAGES:
        seconds = sum(r.ledger.stage_seconds(stage) for r in rounds)
        out[f"engine.{stage}_s"] = (seconds, "s")
        staged += seconds
    out["engine.refresh_wall_s"] = (wall, "s")
    out["engine.unattributed_s"] = (wall - staged, "s")

    rows = 0
    for kernel in CORRELATION_KERNELS:
        kernel_rows = sum(r.ledger.kernel(kernel).rows for r in rounds)
        out[f"correlation.{kernel}_s"] = (
            sum(r.ledger.kernel(kernel).seconds for r in rounds), "s"
        )
        out[f"correlation.{kernel}_rows"] = (kernel_rows, "count")
        rows += kernel_rows
    skips = sum(r.ledger.skips for r in rounds)
    out["correlation.correlators"] = (traced.correlators, "count")
    out["correlation.skips"] = (skips, "count")
    out["correlation.skip_ratio"] = (skips / (rows + skips) if rows + skips else 0.0, "ratio")
    out["correlation.cache_hits"] = (sum(r.ledger.cache_hits for r in rounds), "count")

    correlations = sum(r.stats.correlations for r in rounds)
    edges = sum(r.stats.edges_discovered for r in rounds)
    out["pathmap.correlations"] = (correlations, "count")
    out["pathmap.spikes"] = (sum(r.stats.spikes for r in rounds), "count")
    out["pathmap.nodes_visited"] = (sum(r.stats.nodes_visited for r in rounds), "count")
    out["pathmap.edges"] = (edges, "count")
    out["pathmap.edge_yield"] = (edges / correlations if correlations else 0.0, "ratio")

    lake = traced.ingest["lake"]
    out["lake.segments"] = (lake["segments_written"], "count")
    out["lake.spilled_bytes"] = (lake["spilled_bytes"], "B")
    out["lake.summary_rows"] = (lake["summary_rows"], "count")
    out["lake.mapping_hit_ratio"] = (lake["mapping_hit_rate"], "ratio")
    folds = [f for f in traced.folds if f.error is None]
    out["history.fold_ms"] = (p50([f.seconds * 1e3 for f in folds]), "ms")
    out["history.blocks_folded"] = (statistics.fmean(f.blocks for f in folds), "count")

    base = p50([r.refresh_s for r in measured(spec, untraced)])
    out["trace_overhead_pct"] = (
        100.0 * (p50([r.refresh_s for r in rounds]) - base) / base, "%"
    )
    return out


def unattributed_share(layer: Dict[str, Metric]) -> float:
    """|refresh wall - ledger stages| as a share of the refresh wall."""
    return abs(layer["engine.unattributed_s"][0]) / layer["engine.refresh_wall_s"][0]
