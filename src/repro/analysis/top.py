"""Render refresh-ledger history as a live terminal cost view.

The ``repro top`` subcommand is the paper's Figure 9 argument as a
dashboard: while the engine runs, every refresh's
:class:`~repro.obs.ledger.RefreshLedger` feeds a redrawn screen showing
the refresh rate, where the wall time goes (per-stage bars with last/p50
milliseconds), which correlation kernels the density dispatch routed rows
to (with their measured ns/row EWMAs), and how much work the quiet-skip
and cache optimizations avoided.

The renderer is a pure function over ledger history, so it serves three
masters: the live ANSI view, the ``--once`` / non-tty single frame, and
the human-readable half of ``repro profile``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.ledger import (
    CORRELATION_KERNELS,
    PIPELINE_STAGES,
    RefreshLedger,
)

#: Width of the per-stage bar column, in characters.
_BAR_WIDTH = 24
#: Eighth-block characters for sub-cell bar resolution.
_BLOCKS = " ▏▎▍▌▋▊▉█"


def _fmt_ms(seconds: Optional[float]) -> str:
    """Milliseconds with sensible precision ("-" for None)."""
    if seconds is None:
        return "-"
    ms = seconds * 1e3
    if ms >= 100.0:
        return f"{ms:.0f}ms"
    if ms >= 1.0:
        return f"{ms:.2f}ms"
    return f"{ms * 1e3:.1f}us"


def _fmt_ns(value: Optional[float]) -> str:
    """Nanoseconds-per-row figure ("-" until the EWMA has warmed)."""
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f}us"
    return f"{value:.0f}ns"


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    """A unicode bar filling ``fraction`` of ``width`` cells."""
    fraction = min(1.0, max(0.0, fraction))
    eighths = int(round(fraction * width * 8))
    full, rem = divmod(eighths, 8)
    bar = "█" * full + (_BLOCKS[rem] if rem else "")
    return bar.ljust(width)


def render_top(
    ledgers: Sequence[RefreshLedger],
    ewma: Optional[Dict[str, dict]] = None,
    title: str = "repro top",
    correlators: Optional[Tuple[int, int]] = None,
) -> str:
    """One screenful of cost accounting over recent ledgers.

    Parameters
    ----------
    ledgers:
        Recent :class:`RefreshLedger` records, oldest first (e.g.
        ``engine.ledger.history(32)``). Must be non-empty.
    ewma:
        Optional :meth:`LedgerRecorder.ewma_snapshot` dict; when given,
        the kernel table shows the engine-lifetime EWMAs instead of the
        latest ledger's stamped values.
    title:
        Header label (the CLI passes the workload name).
    correlators:
        Optional ``(engine.correlator_count, engine.parked_count)``,
        shown on the optimization line.
    """
    if not ledgers:
        return f"{title}: no refreshes recorded yet\n"
    latest = ledgers[-1]
    refresh_times = [led.refresh_seconds for led in ledgers]
    lines: List[str] = []

    span = latest.time - ledgers[0].time
    rate = (len(ledgers) - 1) / span if span > 0 else 0.0
    lines.append(
        f"{title} | refresh #{latest.sequence} @ t={latest.time:.1f}s"
        f" | {len(ledgers)} sampled | {rate:.2f} refresh/s"
    )
    lines.append(
        "refresh cost   last "
        f"{_fmt_ms(latest.refresh_seconds)}  p50 "
        f"{_fmt_ms(_percentile(refresh_times, 0.50))}  p95 "
        f"{_fmt_ms(_percentile(refresh_times, 0.95))}"
    )
    lines.append("")

    # Per-stage bars, scaled to the slowest stage's p50.
    stage_p50 = {
        name: _percentile([led.stage_seconds(name) for led in ledgers], 0.50)
        for name in PIPELINE_STAGES
    }
    scale = max(stage_p50.values()) or 1.0
    lines.append(f"{'stage':<10} {'':<{_BAR_WIDTH}} {'last':>9} {'p50':>9}  work")
    for name in PIPELINE_STAGES:
        sample = latest.stage(name)
        lines.append(
            f"{name:<10} {_bar(stage_p50[name] / scale)} "
            f"{_fmt_ms(sample.seconds):>9} {_fmt_ms(stage_p50[name]):>9}  "
            f"{sample.items} {sample.unit}".rstrip()
        )
    lines.append("")

    # Kernel mix over the sampled window. units/row is the dispatch
    # model's density signal (pairs for sparse, run-pairs for RLE,
    # size*log2(size) for FFT); bytes/row is the data each routed row
    # actually touched -- together they show *why* the density dispatch
    # sent rows where it did.
    rows_by_kernel = {
        name: sum(led.kernel(name).rows for led in ledgers)
        for name in CORRELATION_KERNELS
    }
    total_rows = sum(rows_by_kernel.values())
    lines.append(
        f"{'kernel':<14} {'rows':>9} {'share':>7} {'ns/row ewma':>12}"
        f" {'units/row':>11} {'bytes/row':>11} {'bytes':>12}"
    )
    for name in CORRELATION_KERNELS:
        rows = rows_by_kernel[name]
        share = rows / total_rows if total_rows else 0.0
        if ewma is not None and name in ewma:
            ns = ewma[name].get("ns_per_row")
        else:
            ns = latest.kernel(name).ns_per_row_ewma
        nbytes = sum(led.kernel(name).bytes_touched for led in ledgers)
        units = sum(led.kernel(name).work_units for led in ledgers)
        units_row = f"{units / rows:,.0f}" if rows else "-"
        bytes_row = f"{nbytes / rows:,.0f}" if rows else "-"
        lines.append(
            f"{name:<14} {rows:>9} {share:>6.1%} {_fmt_ns(ns):>12}"
            f" {units_row:>11} {bytes_row:>11} {nbytes:>12}"
        )
    lines.append("")

    # Optimization ratios (window totals).
    skips = sum(led.skips for led in ledgers)
    hits = sum(led.cache_hits for led in ledgers)
    pair_rows = (
        rows_by_kernel.get("sparse_batch", 0)
        + rows_by_kernel.get("rle", 0)
        + rows_by_kernel.get("fft_batch", 0)
    )
    skip_ratio = skips / (skips + pair_rows) if skips + pair_rows else 0.0
    lines.append(
        f"quiet skips {skips} ({skip_ratio:.1%} of pair work)"
        f" | correlator cache hits {hits}"
        + (
            f" | correlators {correlators[0]} live, {correlators[1]} parked"
            if correlators is not None
            else ""
        )
    )
    return "\n".join(lines) + "\n"


def render_profile(
    ledgers: Sequence[RefreshLedger],
    ewma: Optional[Dict[str, dict]] = None,
    title: str = "repro profile",
) -> str:
    """Human-readable profile summary: the top frame plus EWMA detail."""
    out = render_top(ledgers, ewma=ewma, title=title)
    if not ewma:
        return out
    lines = [out, "kernel cost model (engine-lifetime EWMAs)"]
    for kernel in sorted(ewma):
        entry = ewma[kernel]
        lines.append(
            f"  {kernel:<14} ns/row {_fmt_ns(entry.get('ns_per_row')):>10}"
            f"  ns/unit {_fmt_ns(entry.get('ns_per_unit')):>10}"
            f"  samples {entry.get('samples', 0)}"
        )
    return "\n".join(lines) + "\n"
