"""Command-line interface.

The workflows the paper's operators would run, without writing Python::

    # generate traces from the bundled simulated applications
    python -m repro simulate-rubis --dispatch affinity --duration 120 -o trace.jsonl
    python -m repro simulate-delta --queues 5 --duration 3600 -o pipeline.jsonl

    # discover service paths in a trace (packet captures or access logs)
    python -m repro analyze trace.jsonl --clients C1,C2 --window 60 \
        --quantum 1e-3 --sampling-window 50e-3 --max-delay 2 --format ascii

    # audit clock skew across one traced edge
    python -m repro skew trace.jsonl --edge AP:DB --window 60 --quantum 1e-3

    # engine self-observability: run an instrumented analysis and dump
    # the metrics registry (JSON snapshot and/or Prometheus text)
    python -m repro stats --format both -o metrics-snapshot.json
    python -m repro stats trace.jsonl --clients C1,C2 --format prometheus

    # self-tracing: record a span/event timeline of the pipeline and
    # export it (Chrome/Perfetto trace, ASCII or SVG Gantt, raw JSON)
    python -m repro timeline --demo --format chrome -o trace.json
    python -m repro timeline trace.jsonl --clients C1,C2 --format ascii

    # continuous self-profiling: watch per-stage / per-kernel refresh
    # costs live, or dump the refresh cost ledger for CI artifacts
    python -m repro top --interval 0.5
    python -m repro profile --json -o ledger.json

    # tiered trace lake: spill evicted captures to disk during an
    # ingest run, then inspect/query the lake and fold its materialized
    # correlation summaries into long-horizon delay estimates
    python -m repro stats --ingest --lake ./lake --duration 600
    python -m repro lake ls ./lake
    python -m repro lake compact ./lake
    python -m repro lake query ./lake --src AP --dst DB --start 0 --end 60
    python -m repro history ./lake --client C1 --front-end WS \
        --src AP --dst DB --baseline 0 300 --current 300 600

Pass ``--log-level debug`` (before the subcommand) to see the pipeline's
stdlib-logging diagnostics on stderr.

Exit status is non-zero on any E2EProfError, with the message on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from typing import Optional, Sequence

from repro.analysis.render import render_ascii, render_dot
from repro.apps.delta import build_delta
from repro.apps.rubis import build_rubis
from repro.config import PathmapConfig
from repro.core.clock_skew import estimate_clock_skew
from repro.core.engine import E2EProfEngine
from repro.core.offline import analyze_window, replay
from repro.core.pathmap import PathmapResult
from repro.errors import E2EProfError
from repro.tracing.access_log import access_log_to_captures
from repro.tracing.collector import TraceCollector
from repro.tracing.storage import (
    load_captures,
    read_access_log_jsonl,
    write_access_log_jsonl,
    write_capture_jsonl,
)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=float, default=60.0,
                        help="sliding window W in seconds (default 60)")
    parser.add_argument("--quantum", type=float, default=1e-3,
                        help="time quantum tau in seconds (default 1 ms)")
    parser.add_argument("--sampling-window", type=float, default=None,
                        help="density sampling window omega (default 50*tau)")
    parser.add_argument("--max-delay", type=float, default=2.0,
                        help="transaction delay bound T_u in seconds (default 2)")
    parser.add_argument("--spike-sigma", type=float, default=3.0,
                        help="spike threshold in std deviations (default 3)")
    parser.add_argument("--min-spike-height", type=float, default=0.0,
                        help="absolute spike floor (default 0: paper rule)")


def _config_from(args: argparse.Namespace) -> PathmapConfig:
    omega = args.sampling_window
    if omega is None:
        omega = 50 * args.quantum
    return PathmapConfig(
        window=args.window,
        refresh_interval=args.window,
        quantum=args.quantum,
        sampling_window=omega,
        max_transaction_delay=args.max_delay,
        spike_sigma=args.spike_sigma,
        min_spike_height=args.min_spike_height,
    )


def _load_collector(args: argparse.Namespace, metrics=None) -> TraceCollector:
    clients = [c for c in (args.clients or "").split(",") if c]
    collector = TraceCollector(client_nodes=clients, metrics=metrics)
    if getattr(args, "access_log", False):
        records = list(read_access_log_jsonl(args.trace))
        records.sort(key=lambda r: (r.timestamp, r.server, r.request_id))
        collector.ingest_many(
            access_log_to_captures(records, ingress_source=args.ingress)
        )
        if not clients:
            collector.add_client(args.ingress)
    else:
        collector.ingest_many(load_captures(args.trace))
    if not collector.clients:
        raise E2EProfError(
            "no client nodes: pass --clients (or --access-log with --ingress)"
        )
    return collector


def _trace_span(collector: TraceCollector):
    """First and last capture time over every edge's signal."""
    signals = [collector.edge_timestamps(src, dst) for src, dst in collector.edges()]
    return min(s[0] for s in signals), max(s[-1] for s in signals)


def _window_analysis(
    args: argparse.Namespace, collector: TraceCollector, end: Optional[float]
) -> PathmapResult:
    """The engine's analysis of the window ending at ``end`` (default: the
    last capture); see :func:`repro.core.offline.analyze_window`."""
    if end is None:
        end = _trace_span(collector)[1]
    return analyze_window(collector, _config_from(args), end)


def cmd_analyze(args: argparse.Namespace) -> int:
    result = _window_analysis(args, _load_collector(args), args.end)
    if not result.graphs:
        print("no service graphs found in the window", file=sys.stderr)
        return 1
    if args.format == "report":
        from repro.analysis.reportgen import report_text

        print(report_text(result))
    elif args.format == "summary":
        from repro.analysis.reportgen import summarize_result

        print(json.dumps(summarize_result(result), indent=2, sort_keys=True))
    elif args.format == "json":
        payload = {
            f"{client}@{root}": graph.to_dict()
            for (client, root), graph in sorted(result.graphs.items())
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        renderer = render_dot if args.format == "dot" else render_ascii
        for (client, root), graph in sorted(result.graphs.items()):
            print(renderer(graph))
            print()
    print(
        f"# {result.stats.graphs} graphs, {result.stats.edges_discovered} causal "
        f"edges, {result.stats.correlations} correlations, "
        f"{result.stats.elapsed_seconds:.2f}s",
        file=sys.stderr,
    )
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis.diff import diff_graphs

    collector = _load_collector(args)
    before = _window_analysis(args, collector, args.before_end)
    after = _window_analysis(args, collector, args.after_end)
    shared = set(before.graphs) & set(after.graphs)
    if not shared:
        print("no service class present in both windows", file=sys.stderr)
        return 1
    for key in sorted(shared):
        diff = diff_graphs(before.graphs[key], after.graphs[key])
        print(diff.summary())
        print()
    only_before = set(before.graphs) - shared
    only_after = set(after.graphs) - shared
    for client, root in sorted(only_before):
        print(f"class {client}@{root}: present before, GONE after")
    for client, root in sorted(only_after):
        print(f"class {client}@{root}: NEW after")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    import pathlib

    from repro.analysis.svg import write_svg

    result = _window_analysis(args, _load_collector(args), args.end)
    if not result.graphs:
        print("no service graphs found in the window", file=sys.stderr)
        return 1
    outdir = pathlib.Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for (client, root), graph in sorted(result.graphs.items()):
        path = outdir / f"{client}_{root}.svg"
        write_svg(graph, str(path))
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_skew(args: argparse.Namespace) -> int:
    config = _config_from(args)
    collector = _load_collector(args)
    src, _, dst = args.edge.partition(":")
    if not src or not dst:
        raise E2EProfError(f"--edge must be SRC:DST, got {args.edge!r}")
    end = args.end
    if end is None:
        end = max(collector.edge_timestamps(src, dst))
    estimate = estimate_clock_skew(
        collector, src, dst, config, end_time=end,
        network_delay=args.network_delay,
    )
    print(f"edge {src}->{dst}: skew {estimate.skew*1e3:+.2f} ms "
          f"(raw lag {estimate.raw_lag*1e3:+.2f} ms, "
          f"spike height {estimate.spike_height:.2f})")
    return 0


def _counter_value(snap: dict, name: str) -> float:
    """Value of an unlabeled counter in a registry snapshot (0 if absent)."""
    return float(snap.get(name, {}).get("", {}).get("value", 0.0))


def _optimization_ratios(snap: dict) -> dict:
    """Cumulative quiet-skip and correlation-cache ratios for ``stats``.

    ``skip_ratio`` is the fraction of block-pair lag products the
    refresh avoided computing; ``correlation_cache_hit_ratio`` is the
    fraction of correlation queries whose answer was unchanged since it
    was last served.
    """
    pairs = _counter_value(snap, "correlator_pair_products_total")
    skips = _counter_value(snap, "correlator_skips_total")
    served = _counter_value(snap, "correlator_correlations_served_total")
    cache_hits = _counter_value(snap, "correlation_cache_hits_total")
    return {
        "pair_products_computed": pairs,
        "pair_products_skipped": skips,
        "skip_ratio": skips / (pairs + skips) if pairs + skips else 0.0,
        "correlations_served": served,
        "correlation_cache_hits": cache_hits,
        "correlation_cache_hit_ratio": cache_hits / served if served else 0.0,
    }


def cmd_stats(args: argparse.Namespace) -> int:
    """Run an instrumented analysis and dump the metrics registry.

    Runs the online engine, which exercises every instrumented subsystem
    (tracers, transport, incremental correlators, pathmap): over the
    bundled RUBiS demo without a trace, else over a replay of the whole
    trace.
    """
    from repro.obs import MetricsRegistry, snapshot, to_prometheus
    from repro.tracing.transport import FaultyChannel

    registry = MetricsRegistry(enabled=True)
    collector = _trace_collector(args, metrics=registry)
    config = _config_from(args) if collector is not None else _demo_config(args)

    def channel_factory(node, _args=args):
        return FaultyChannel(
            seed=_args.fault_seed + sum(node.encode()),
            drop=_args.fault_drop,
            reorder=_args.fault_reorder,
            duplicate=_args.fault_duplicate,
            corrupt=_args.fault_corrupt,
            delay=_args.fault_delay,
        )

    capture_sink = None
    lake = None
    if args.ingest and collector is None:
        if args.lake:
            from repro.lake import TraceLake

            lake = TraceLake(args.lake, metrics=registry)
        capture_sink = TraceCollector(
            metrics=registry, retention=config.retention_horizon, lake=lake
        )
    engine = E2EProfEngine(
        config,
        metrics=registry,
        channel_factory=channel_factory,
        capture_sink=capture_sink,
        lake=lake,
    )
    _run_engine(args, engine, collector)
    ingest_stats = None
    if capture_sink is not None:
        capture_sink.evict_expired()
        if lake is not None:
            # Exercise the cache-aside read path over the full span
            # (twice, so the mapping LRU's hit rate is meaningful in
            # the report) before snapshotting lake stats.
            lake.flush()
            for src, dst, _side in lake.streams():
                for _ in range(2):
                    capture_sink.edge_timestamps_range(
                        src, dst, 0.0, args.duration
                    )
        ingest_stats = capture_sink.ingest_stats()
    elif args.ingest:
        ingest_stats = collector.ingest_stats()

    if args.format == "prometheus":
        payload = to_prometheus(registry)
    else:
        doc = {
            "metrics": snapshot(registry),
            "latest_sample": engine.latest_sample.to_dict(),
            "refresh_optimizations": _optimization_ratios(snapshot(registry)),
            "transport": engine.transport_summary(),
        }
        if ingest_stats is not None:
            doc["ingest"] = ingest_stats
        if args.format == "both":
            doc["prometheus"] = to_prometheus(registry)
        payload = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload if payload.endswith("\n") else payload + "\n")
        print(f"wrote metrics to {args.output}", file=sys.stderr)
    else:
        print(payload)
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Record a span/event timeline of the pipeline and export it.

    Runs the online engine with span tracing enabled and the standard
    detectors subscribed -- over the bundled RUBiS demo without a trace
    (or with ``--demo``), else over a replay of the whole trace -- then
    exports the engine's flight record.
    """
    from repro.analysis.timeline import render_timeline_ascii, render_timeline_svg
    from repro.core.anomaly import AnomalyDetector
    from repro.core.change_detection import ChangeDetector
    from repro.management.monitor import LatencyMonitor
    from repro.obs import chrome_trace

    collector = _trace_collector(args)
    config = _config_from(args) if collector is not None else _demo_config(args)
    engine = E2EProfEngine(config)
    engine.tracer.enable()
    ChangeDetector().subscribe_to(engine)
    AnomalyDetector().subscribe_to(engine)
    LatencyMonitor().subscribe_to(engine)
    _run_engine(args, engine, collector)
    dump = engine.dump_flight_record(args.last)

    if not dump["frames"]:
        raise E2EProfError("flight record is empty: nothing to export")
    if args.format == "chrome":
        payload = json.dumps(chrome_trace(dump), indent=1) + "\n"
    elif args.format == "json":
        payload = json.dumps(dump, indent=2, sort_keys=True) + "\n"
    elif args.format == "svg":
        payload = render_timeline_svg(dump) + "\n"
    else:
        payload = render_timeline_ascii(dump)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
        frames = len(dump["frames"])
        spans = sum(len(f["spans"]) for f in dump["frames"])
        events_n = sum(len(f["events"]) for f in dump["frames"])
        print(
            f"wrote {args.format} timeline of {frames} refreshes "
            f"({spans} spans, {events_n} events) to {args.output}",
            file=sys.stderr,
        )
    else:
        print(payload, end="")
    return 0


def _demo_config(args: argparse.Namespace) -> PathmapConfig:
    """The RUBiS demo's analysis config: ``dW`` is half the window."""
    return PathmapConfig(
        window=args.window,
        refresh_interval=args.window / 2.0,
        quantum=args.quantum,
        sampling_window=args.sampling_window or 50 * args.quantum,
        max_transaction_delay=args.max_delay,
    )


def _trace_collector(args: argparse.Namespace, metrics=None) -> Optional[TraceCollector]:
    """The verb's stored trace, or None when it runs the RUBiS demo."""
    if args.trace is None or getattr(args, "demo", False):
        return None
    return _load_collector(args, metrics=metrics)


def _run_engine(
    args: argparse.Namespace,
    engine: E2EProfEngine,
    collector: Optional[TraceCollector] = None,
) -> None:
    """Drive ``engine`` to the end of its input: a replay of
    ``collector``'s whole trace or, without one, ``--duration`` simulated
    seconds of the RUBiS demo. Shared by ``stats``, ``timeline``, ``top``
    and ``profile``: the caller builds and subscribes the engine first."""
    if collector is not None:
        for _ in replay(collector, engine, *_trace_span(collector)):
            pass
    else:
        rubis = build_rubis(dispatch="affinity", seed=args.seed)
        engine.attach(rubis.topology)
        rubis.run_until(args.duration)
        if engine.latest_ledger is None:
            raise E2EProfError(
                f"no refresh fired: --duration {args.duration} is shorter "
                f"than one refresh interval ({engine.config.refresh_interval:.0f}s)"
            )


def cmd_top(args: argparse.Namespace) -> int:
    """Live per-refresh cost view over the engine's refresh ledgers.

    Runs the bundled RUBiS demo through the online engine and redraws a
    ``top``-style frame after every refresh: refresh rate, per-stage
    bars (last/p50), kernel mix with measured ns/row EWMAs, and the
    quiet-skip / cache ratios. With ``--once`` (or when stdout is not a
    terminal) prints a single final frame instead.
    """
    from repro.analysis.top import render_top

    engine = E2EProfEngine(_demo_config(args))
    title = f"repro top | RUBiS demo seed {args.seed}"
    live = not args.once and sys.stdout.isatty()
    if live:
        def redraw(now, result, sample):
            sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(
                render_top(
                    engine.ledger.history(args.last),
                    engine.ledger.ewma_snapshot(),
                    title=title,
                    correlators=(engine.correlator_count, engine.parked_count),
                )
            )
            sys.stdout.flush()
            if args.interval > 0:
                time.sleep(args.interval)

        engine.subscribe_metrics(redraw)
    _run_engine(args, engine)
    frame = render_top(
        engine.ledger.history(args.last),
        engine.ledger.ewma_snapshot(),
        title=title,
        correlators=(engine.correlator_count, engine.parked_count),
    )
    if live:
        sys.stdout.write("\x1b[2J\x1b[H")
    print(frame, end="")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Dump the refresh cost ledger after an instrumented demo run.

    Default output is the human-readable profile frame; ``--json`` emits
    the full :meth:`LedgerRecorder.export` document (per-kernel EWMAs
    plus every retained per-refresh ledger) with deterministically
    ordered keys, suitable as a CI artifact.
    """
    from repro.analysis.top import render_profile

    engine = E2EProfEngine(_demo_config(args))
    _run_engine(args, engine)
    if args.json:
        from repro.obs.ledger import CORRELATION_KERNELS

        doc = engine.ledger.export(args.last)
        doc["workload"] = {
            "app": "rubis",
            "duration": args.duration,
            "refresh_interval": engine.config.refresh_interval,
            "seed": args.seed,
            "window": engine.config.window,
        }
        # Per-kernel row-density summary over the exported ledgers: how
        # many rows the dispatch routed to each kernel and the average
        # dispatch units / bytes behind each row -- the dense-vs-sparse
        # regime signal the routing decisions were made on.
        ledgers = engine.ledger.history(args.last)
        doc["kernel_density"] = {}
        for name in CORRELATION_KERNELS:
            rows = sum(led.kernel(name).rows for led in ledgers)
            units = sum(led.kernel(name).work_units for led in ledgers)
            nbytes = sum(led.kernel(name).bytes_touched for led in ledgers)
            doc["kernel_density"][name] = {
                "rows": rows,
                "work_units": units,
                "bytes_touched": nbytes,
                "units_per_row": units / rows if rows else None,
                "bytes_per_row": nbytes / rows if rows else None,
            }
        payload = json.dumps(doc, indent=2, sort_keys=True)
    else:
        payload = render_profile(
            engine.ledger.history(args.last),
            engine.ledger.ewma_snapshot(),
            title=f"repro profile | RUBiS demo seed {args.seed}",
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload if payload.endswith("\n") else payload + "\n")
        print(f"wrote profile to {args.output}", file=sys.stderr)
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
    return 0


def cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios

    for scenario in list_scenarios():
        kind = "steady" if scenario.steady else "shift "
        print(f"{scenario.name:16s} [{kind}] {scenario.description}")
    return 0


def cmd_scenarios_run(args: argparse.Namespace) -> int:
    from repro.scenarios.runner import score_scenario

    score = score_scenario(args.scenario, args.mode, args.seed)
    if args.format == "json":
        payload = json.dumps(
            score.to_dict(include_cells=args.cells), indent=2, sort_keys=True
        )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote score to {args.output}", file=sys.stderr)
        else:
            print(payload)
        return 0
    detected = [
        f"{latency:.1f}s" if latency is not None else "missed"
        for latency in score.detection
    ]
    err = score.mean_delay_error
    print(f"scenario {score.scenario} (seed {score.seed}, mode {score.mode}):")
    print(f"  f1        {score.aggregate_f1:.3f}  "
          f"(precision {score.aggregate_precision:.3f}, "
          f"recall {score.aggregate_recall:.3f})")
    print(f"  delay err {err:.3f}" if err is not None else "  delay err n/a")
    if detected:
        print(f"  detection {', '.join(detected)}")
    return 0


def cmd_scenarios_score(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios
    from repro.scenarios.runner import score_matrix

    names = [n for n in args.scenarios.split(",") if n]
    if not names:
        names = [scenario.name for scenario in list_scenarios()]
    modes = [m for m in args.modes.split(",") if m]
    doc = score_matrix(names, modes, seed=args.seed)
    for row in doc["scores"]:
        print(
            f"{row['scenario']:16s} {row['mode']:8s} f1={row['aggregate_f1']:.3f} "
            f"p={row['aggregate_precision']:.3f} "
            f"r={row['aggregate_recall']:.3f} ({row['elapsed_seconds']:.1f}s)",
            file=sys.stderr,
        )
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote scorecard to {args.output}", file=sys.stderr)
    else:
        print(payload)
    return 0


def cmd_simulate_rubis(args: argparse.Namespace) -> int:
    rubis = build_rubis(dispatch=args.dispatch, seed=args.seed,
                        request_rate=args.rate)
    rubis.run_until(args.duration)
    count = write_capture_jsonl(args.output, rubis.collector.export_records())
    print(f"wrote {count} capture records to {args.output} "
          f"(clients: C1, C2)", file=sys.stderr)
    return 0


def cmd_simulate_delta(args: argparse.Namespace) -> int:
    deployment = build_delta(seed=args.seed, num_queues=args.queues,
                             events_per_hour=args.events_per_hour,
                             slow_db_factor=args.slow_db)
    deployment.run_until(args.duration)
    count = write_access_log_jsonl(args.output, deployment.sorted_access_log())
    print(f"wrote {count} access-log records to {args.output} "
          f"(analyze with --access-log --ingress external)", file=sys.stderr)
    return 0


def _open_lake(root: str):
    from repro.lake import TraceLake

    return TraceLake(root)


def cmd_lake_ls(args: argparse.Namespace) -> int:
    lake = _open_lake(args.root)
    segments = lake.segments()
    stats = lake.stats()
    if args.format == "json":
        doc = {
            "root": args.root,
            "segments": [
                {
                    "seq": m.seq,
                    "path": m.path,
                    "src": m.src,
                    "dst": m.dst,
                    "side": "dst" if m.observed_at_destination else "src",
                    "t_min": m.t_min,
                    "t_max": m.t_max,
                    "count": m.count,
                    "bytes": m.nbytes,
                }
                for m in segments
            ],
            "stats": stats,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for m in segments:
        side = "dst" if m.observed_at_destination else "src"
        print(f"seg {m.seq:8d}  {m.src}->{m.dst} [{side}]  "
              f"[{m.t_min:.3f}, {m.t_max:.3f}]  "
              f"{m.count} records  {m.nbytes} bytes")
    total_bytes = sum(m.nbytes for m in segments)
    total_records = sum(m.count for m in segments)
    print(f"{len(segments)} segments ({total_records} records, "
          f"{total_bytes} bytes), {stats['summary_batches']} summary batches "
          f"({stats['summary_rows']} rows, {stats['journal_bytes']} journal bytes)")
    return 0


def cmd_lake_compact(args: argparse.Namespace) -> int:
    lake = _open_lake(args.root)
    before = len(lake.segments())
    merged = lake.compact(target_bytes=args.target_bytes)
    after = len(lake.segments())
    print(f"compaction rewrote {merged} segment group(s): "
          f"{before} -> {after} segments", file=sys.stderr)
    return 0


def cmd_lake_query(args: argparse.Namespace) -> int:
    import numpy as np

    lake = _open_lake(args.root)
    streams = set(lake.streams())
    if args.side == "auto":
        sides = [at_dst for at_dst in (True, False)
                 if (args.src, args.dst, at_dst) in streams]
        if not sides:
            raise E2EProfError(
                f"no spilled stream for edge ({args.src}, {args.dst})"
            )
        sides = sides[:1]
    else:
        sides = [args.side == "dst"]
    stamps = np.sort(
        lake.query(args.src, args.dst, sides[0],
                   start=args.start, end=args.end)
    )
    if args.format == "json":
        doc = {
            "src": args.src,
            "dst": args.dst,
            "side": "dst" if sides[0] else "src",
            "count": int(stamps.size),
            "timestamps": [float(value) for value in stamps],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for value in stamps:
        print(f"{value:.6f}")
    print(f"{stamps.size} records", file=sys.stderr)
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from repro.analysis.history import (
        delay_drift,
        raw_span_estimate,
        span_estimate,
    )

    lake = _open_lake(args.root)
    max_lag = args.max_lag
    if args.baseline is not None or args.current is not None:
        if args.baseline is None or args.current is None:
            raise E2EProfError("--baseline and --current must be given together")
        if args.raw:
            raise E2EProfError("--raw does not support drift comparisons")
        report = delay_drift(
            lake, args.client, args.front_end, args.src, args.dst,
            (args.baseline[0], args.baseline[1]),
            (args.current[0], args.current[1]),
            max_lag=max_lag,
        )
        if args.format == "json":
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
            return 0
        b, c = report.baseline, report.current
        print(f"edge ({args.src} -> {args.dst}) for class "
              f"({args.client}, {args.front_end}):")
        print(f"  baseline [{b.start:.1f}, {b.end:.1f}]: "
              f"delay {b.delay:.3f}s (peak {b.peak:.3f}, {b.blocks} blocks)")
        print(f"  current  [{c.start:.1f}, {c.end:.1f}]: "
              f"delay {c.delay:.3f}s (peak {c.peak:.3f}, {c.blocks} blocks)")
        if report.comparable:
            print(f"  drift    {report.drift_seconds:+.3f}s "
                  f"({report.drift_quanta:+d} quanta)")
        else:
            print("  drift    n/a (degenerate span)")
        return 0
    if args.raw:
        config = _config_from(args)
        estimate = raw_span_estimate(
            lake, config, args.client, args.front_end, args.src, args.dst,
            args.start, args.end, max_lag=max_lag,
        )
    else:
        estimate = span_estimate(
            lake, args.client, args.front_end, args.src, args.dst,
            start=args.start, end=args.end, max_lag=max_lag,
        )
    if args.format == "json":
        print(json.dumps(estimate.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"edge ({args.src} -> {args.dst}) for class "
          f"({args.client}, {args.front_end}) over "
          f"[{estimate.start:.1f}, {estimate.end:.1f}] "
          f"({estimate.source}):")
    if estimate.degenerate:
        print("  delay    n/a (degenerate correlation)")
    else:
        print(f"  delay    {estimate.delay:.3f}s (peak {estimate.peak:.3f})")
    print(f"  window   {estimate.n} quanta, {estimate.blocks} summary blocks")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="E2EProf (DSN 2007) reproduction: black-box end-to-end "
                    "service-path analysis.",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable stdlib logging at this level on stderr "
             "(place before the subcommand)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="discover service paths in a trace")
    analyze.add_argument("trace", help="trace file (.jsonl or .csv)")
    analyze.add_argument("--clients", default="",
                         help="comma-separated client node ids")
    analyze.add_argument("--access-log", action="store_true",
                         help="input is an access log, not packet captures")
    analyze.add_argument("--ingress", default="external",
                         help="ingress source name for access logs")
    analyze.add_argument("--end", type=float, default=None,
                         help="window end time (default: last capture)")
    analyze.add_argument("--format", default="ascii",
                         choices=["ascii", "dot", "json", "report", "summary"])
    _add_config_arguments(analyze)
    analyze.set_defaults(func=cmd_analyze)

    diff = sub.add_parser(
        "diff", help="compare two analysis windows of one trace"
    )
    diff.add_argument("trace", help="trace file (.jsonl or .csv)")
    diff.add_argument("--before-end", type=float, required=True,
                      help="end time of the baseline window")
    diff.add_argument("--after-end", type=float, required=True,
                      help="end time of the comparison window")
    diff.add_argument("--clients", default="",
                      help="comma-separated client node ids")
    diff.add_argument("--access-log", action="store_true")
    diff.add_argument("--ingress", default="external")
    _add_config_arguments(diff)
    diff.set_defaults(func=cmd_diff)

    render = sub.add_parser("render", help="render service graphs as SVG")
    render.add_argument("trace", help="trace file (.jsonl or .csv)")
    render.add_argument("-o", "--output", required=True, help="output directory")
    render.add_argument("--clients", default="",
                        help="comma-separated client node ids")
    render.add_argument("--access-log", action="store_true",
                        help="input is an access log, not packet captures")
    render.add_argument("--ingress", default="external",
                        help="ingress source name for access logs")
    render.add_argument("--end", type=float, default=None)
    _add_config_arguments(render)
    render.set_defaults(func=cmd_render)

    skew = sub.add_parser("skew", help="estimate clock skew across an edge")
    skew.add_argument("trace", help="trace file (.jsonl or .csv)")
    skew.add_argument("--edge", required=True, help="SRC:DST node pair")
    skew.add_argument("--clients", default="", help="client node ids")
    skew.add_argument("--end", type=float, default=None)
    skew.add_argument("--network-delay", type=float, default=0.0,
                      help="known one-way link latency to subtract (s)")
    _add_config_arguments(skew)
    skew.set_defaults(func=cmd_skew, access_log=False)

    stats = sub.add_parser(
        "stats",
        help="run an instrumented analysis and dump engine metrics",
    )
    stats.add_argument("trace", nargs="?", default=None,
                       help="trace to replay (default: run the RUBiS demo)")
    stats.add_argument("--clients", default="",
                       help="comma-separated client node ids (trace mode)")
    stats.add_argument("--access-log", action="store_true",
                       help="input is an access log, not packet captures")
    stats.add_argument("--ingress", default="external",
                       help="ingress source name for access logs")
    stats.add_argument("--format", default="json",
                       choices=["json", "prometheus", "both"],
                       help="output format (default json; 'both' embeds the "
                            "Prometheus text in the JSON document)")
    stats.add_argument("-o", "--output", default=None,
                       help="write to a file instead of stdout")
    stats.add_argument("--seed", type=int, default=0,
                       help="demo-mode simulation seed")
    stats.add_argument("--duration", type=float, default=65.0,
                       help="demo-mode simulated seconds (default 65)")
    stats.add_argument("--fault-drop", type=float, default=0.0,
                       help="per-frame drop probability on every link")
    stats.add_argument("--fault-reorder", type=float, default=0.0,
                       help="per-frame reorder (hold one round) probability")
    stats.add_argument("--fault-duplicate", type=float, default=0.0,
                       help="per-frame duplication probability")
    stats.add_argument("--fault-corrupt", type=float, default=0.0,
                       help="per-frame corruption probability")
    stats.add_argument("--fault-delay", type=float, default=0.0,
                       help="per-frame multi-round delay probability")
    stats.add_argument("--fault-seed", type=int, default=0,
                       help="base seed for the per-link fault injectors")
    stats.add_argument("--ingest", action="store_true",
                       help="demo mode: attach a bounded columnar capture "
                            "sink to the engine and report its ingest "
                            "statistics; trace mode: report the replay "
                            "collector's ingest statistics")
    stats.add_argument("--lake", default=None, metavar="DIR",
                       help="demo mode with --ingest: spill evicted capture "
                            "chunks to a trace lake at DIR and report lake "
                            "statistics (segments, bytes, mapping hit rate)")
    _add_config_arguments(stats)
    stats.set_defaults(func=cmd_stats)

    timeline = sub.add_parser(
        "timeline",
        help="record a span/event timeline of the pipeline and export it",
    )
    timeline.add_argument("trace", nargs="?", default=None,
                          help="trace to replay (default: run the RUBiS demo)")
    timeline.add_argument("--demo", action="store_true",
                          help="run the RUBiS demo even if a trace is given")
    timeline.add_argument("--clients", default="",
                          help="comma-separated client node ids (trace mode)")
    timeline.add_argument("--access-log", action="store_true",
                          help="input is an access log, not packet captures")
    timeline.add_argument("--ingress", default="external",
                          help="ingress source name for access logs")
    timeline.add_argument("--format", default="ascii",
                          choices=["ascii", "chrome", "svg", "json"],
                          help="export format: ASCII Gantt (default), "
                               "Chrome/Perfetto trace JSON, SVG Gantt, or "
                               "the raw flight-record dump")
    timeline.add_argument("-o", "--output", default=None,
                          help="write to a file instead of stdout")
    timeline.add_argument("--last", type=int, default=None,
                          help="export only the last N recorded refreshes")
    timeline.add_argument("--seed", type=int, default=0,
                          help="demo-mode simulation seed")
    timeline.add_argument("--duration", type=float, default=65.0,
                          help="demo-mode simulated seconds (default 65)")
    _add_config_arguments(timeline)
    timeline.set_defaults(func=cmd_timeline)

    top = sub.add_parser(
        "top",
        help="live per-refresh cost view (stages, kernels, ns/row EWMAs)",
    )
    top.add_argument("--once", action="store_true",
                     help="print one final frame instead of redrawing live "
                          "(implied when stdout is not a terminal)")
    top.add_argument("--last", type=int, default=32,
                     help="ledger window for rates/percentiles (default 32)")
    top.add_argument("--interval", type=float, default=0.0,
                     help="live mode: wall-clock pause after each redraw, "
                          "so the simulated run is watchable (default 0)")
    top.add_argument("--seed", type=int, default=0,
                     help="demo-mode simulation seed")
    top.add_argument("--duration", type=float, default=185.0,
                     help="demo-mode simulated seconds (default 185)")
    _add_config_arguments(top)
    top.set_defaults(func=cmd_top)

    profile = sub.add_parser(
        "profile",
        help="dump the refresh cost ledger (per-stage/per-kernel accounting)",
    )
    profile.add_argument("--json", action="store_true",
                         help="emit the full ledger export document "
                              "(EWMAs + retained per-refresh ledgers) "
                              "instead of the human-readable frame")
    profile.add_argument("--last", type=int, default=None,
                         help="export only the last N retained ledgers")
    profile.add_argument("-o", "--output", default=None,
                         help="write to a file instead of stdout")
    profile.add_argument("--seed", type=int, default=0,
                         help="demo-mode simulation seed")
    profile.add_argument("--duration", type=float, default=185.0,
                         help="demo-mode simulated seconds (default 185)")
    _add_config_arguments(profile)
    profile.set_defaults(func=cmd_profile)

    scenarios = sub.add_parser(
        "scenarios",
        help="run the labeled non-steady-state scenario suite",
    )
    scen_sub = scenarios.add_subparsers(dest="scenario_command", required=True)

    scen_list = scen_sub.add_parser("list", help="list available scenarios")
    scen_list.set_defaults(func=cmd_scenarios_list)

    scen_run = scen_sub.add_parser(
        "run", help="simulate and grade one scenario"
    )
    scen_run.add_argument("scenario", help="scenario name (see 'scenarios list')")
    scen_run.add_argument("--seed", type=int, default=0)
    scen_run.add_argument("--mode", default="adaptive",
                          help="analysis mode: adaptive (default) or a "
                               "static grid name (fast, medium, slow)")
    scen_run.add_argument("--format", default="text",
                          choices=["text", "json"])
    scen_run.add_argument("--cells", action="store_true",
                          help="include per-refresh per-class cells in JSON")
    scen_run.add_argument("-o", "--output", default=None,
                          help="write JSON to a file instead of stdout")
    scen_run.set_defaults(func=cmd_scenarios_run)

    scen_score = scen_sub.add_parser(
        "score",
        help="grade scenarios across analysis modes into a JSON scorecard",
    )
    scen_score.add_argument("--scenarios", default="",
                            help="comma-separated scenario names (default all)")
    scen_score.add_argument("--modes", default="adaptive,fast,medium,slow",
                            help="comma-separated analysis modes")
    scen_score.add_argument("--seed", type=int, default=0)
    scen_score.add_argument("-o", "--output", default=None,
                            help="write the scorecard to a file")
    scen_score.set_defaults(func=cmd_scenarios_score)

    lake = sub.add_parser(
        "lake",
        help="inspect and maintain a write-behind trace lake",
    )
    lake_sub = lake.add_subparsers(dest="lake_command", required=True)
    lake_ls = lake_sub.add_parser(
        "ls", help="list a lake's segments and summary batches"
    )
    lake_ls.add_argument("root", help="trace-lake directory")
    lake_ls.add_argument("--format", default="table",
                         choices=["table", "json"])
    lake_ls.set_defaults(func=cmd_lake_ls)
    lake_compact = lake_sub.add_parser(
        "compact",
        help="merge adjacent same-stream segments into larger ones",
    )
    lake_compact.add_argument("root", help="trace-lake directory")
    lake_compact.add_argument("--target-bytes", type=int, default=None,
                              help="target merged-segment size "
                                   "(default 4x the lake's segment size)")
    lake_compact.set_defaults(func=cmd_lake_compact)
    lake_query = lake_sub.add_parser(
        "query", help="read one edge's spilled timestamps from a lake"
    )
    lake_query.add_argument("root", help="trace-lake directory")
    lake_query.add_argument("--src", required=True, help="edge source node")
    lake_query.add_argument("--dst", required=True,
                            help="edge destination node")
    lake_query.add_argument("--side", default="auto",
                            choices=["auto", "dst", "src"],
                            help="capture side (default: destination when "
                                 "present, else source)")
    lake_query.add_argument("--start", type=float, default=float("-inf"),
                            help="inclusive span start in seconds")
    lake_query.add_argument("--end", type=float, default=float("inf"),
                            help="exclusive span end in seconds")
    lake_query.add_argument("--format", default="text",
                            choices=["text", "json"])
    lake_query.set_defaults(func=cmd_lake_query)

    history = sub.add_parser(
        "history",
        help="long-horizon delay estimates from materialized lake summaries",
    )
    history.add_argument("root", help="trace-lake directory")
    history.add_argument("--client", required=True,
                         help="client node of the request class")
    history.add_argument("--front-end", required=True,
                         help="front-end (root) node of the request class")
    history.add_argument("--src", required=True, help="edge source node")
    history.add_argument("--dst", required=True, help="edge destination node")
    history.add_argument("--start", type=float, default=float("-inf"),
                         help="inclusive span start in seconds")
    history.add_argument("--end", type=float, default=float("inf"),
                         help="exclusive span end in seconds")
    history.add_argument("--baseline", type=float, nargs=2, default=None,
                         metavar=("START", "END"),
                         help="baseline span for a drift comparison")
    history.add_argument("--current", type=float, nargs=2, default=None,
                         metavar=("START", "END"),
                         help="current span for a drift comparison")
    history.add_argument("--max-lag", type=int, default=None,
                         help="truncate correlations to this many lag quanta "
                              "(strongly recommended for --raw over long "
                              "spans)")
    history.add_argument("--raw", action="store_true",
                         help="re-correlate the raw spilled timestamps "
                              "instead of folding summaries (exact, slow; "
                              "needs a finite --start/--end)")
    history.add_argument("--format", default="text",
                         choices=["text", "json"])
    _add_config_arguments(history)
    history.set_defaults(func=cmd_history)

    rubis = sub.add_parser("simulate-rubis", help="generate a RUBiS packet trace")
    rubis.add_argument("-o", "--output", required=True)
    rubis.add_argument("--dispatch", default="affinity",
                       choices=["affinity", "round_robin"])
    rubis.add_argument("--seed", type=int, default=0)
    rubis.add_argument("--rate", type=float, default=10.0,
                       help="requests/second per class")
    rubis.add_argument("--duration", type=float, default=120.0)
    rubis.set_defaults(func=cmd_simulate_rubis)

    delta = sub.add_parser("simulate-delta",
                           help="generate a Revenue Pipeline access log")
    delta.add_argument("-o", "--output", required=True)
    delta.add_argument("--seed", type=int, default=0)
    delta.add_argument("--queues", type=int, default=5)
    delta.add_argument("--events-per-hour", type=float, default=18000.0)
    delta.add_argument("--slow-db", type=float, default=1.0)
    delta.add_argument("--duration", type=float, default=3700.0)
    delta.set_defaults(func=cmd_simulate_delta)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(asctime)s %(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
    try:
        return args.func(args)
    except E2EProfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
