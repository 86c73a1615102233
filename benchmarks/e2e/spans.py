"""Benchmark-side spans: timing wrappers around the layers' public methods.

The traced run installs a wrapper on each method in :data:`TARGETS`
(``setattr`` on the class, undone by :meth:`SpanRecorder.uninstall`), so
every call becomes one span -- name, start, end, the span that was open
when it started, and the refresh it belongs to -- kept in memory until
the run ends. Nothing inside ``src/`` changes; the untraced run never
imports the wrappers' effects, and ``trace_overhead_pct`` is the
difference between the two.

A layer's *self time* is its spans' duration minus the part their direct
children cover, so summing self times never counts an interval twice
(``collector.evict`` excludes the ``lake.spill`` calls it makes).
"""

from __future__ import annotations

import contextlib
import functools
import json
import pathlib
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core.engine import E2EProfEngine
from repro.core.pathmap import Pathmap
from repro.lake import TraceLake
from repro.tracing.collector import TraceCollector
from repro.tracing.tracer import Tracer
from repro.tracing.transport import FaultyChannel, TransportLink, TransportReceiver

#: (class, public method, span name). Several methods may share a name:
#: they are one layer row in the report.
TARGETS: Tuple[Tuple[type, str, str], ...] = (
    (E2EProfEngine, "refresh", "engine.refresh"),
    (Tracer, "observe_batch", "tracer.observe"),
    (Tracer, "flush_block", "tracer.flush"),
    (Tracer, "drain_batches", "tracer.drain"),
    (TransportLink, "encode_blocks", "transport.encode"),
    (TransportLink, "encode_timestamp_batches", "transport.encode"),
    (FaultyChannel, "send", "transport.channel"),
    (FaultyChannel, "advance", "transport.channel"),
    (TransportReceiver, "receive", "transport.receive"),
    (TransportReceiver, "poll", "transport.poll"),
    (TransportReceiver, "poll_timestamp_batches", "transport.poll"),
    (TraceCollector, "ingest_batch", "collector.ingest"),
    (TraceCollector, "evict_expired", "collector.evict"),
    (TraceCollector, "window", "collector.window"),
    (Pathmap, "analyze", "pathmap.analyze"),
    (TraceLake, "spill", "lake.spill"),
    (TraceLake, "record_summary", "lake.summary"),
    (TraceLake, "checkpoint", "lake.checkpoint"),
)

# Span row layout (a list, mutated in place while the span is open).
NAME, START, END, PARENT, REFRESH = range(5)


class SpanRecorder:
    """In-memory span log for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        #: Refresh round the harness is in; stamped on every new span.
        self.refresh_id = -1
        self._saved: List[Tuple[type, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        # Same bookkeeping as span(), inlined: some targets are called a
        # few thousand times per refresh and a generator-based context
        # manager would double the tracing overhead.
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.refresh_id]
            stack.append(len(spans))
            spans.append(row)
            row[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[END] = perf_counter()
                stack.pop()

        return timed

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the harness itself makes into a layer."""
        row = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.refresh_id]
        self._open.append(len(self.spans))
        self.spans.append(row)
        row[START] = perf_counter()
        try:
            yield
        finally:
            row[END] = perf_counter()
            self._open.pop()

    def install(self) -> None:
        for cls, method, name in TARGETS:
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    # -- reporting -------------------------------------------------------------

    def self_times(
        self, first_refresh: int, end_refresh: int
    ) -> Dict[str, Tuple[float, float, int]]:
        """name -> (self seconds, inclusive seconds, calls) over spans of
        refreshes ``first_refresh <= id < end_refresh``."""
        child_time = [0.0] * len(self.spans)
        for row in self.spans:
            if row[PARENT] >= 0:
                child_time[row[PARENT]] += row[END] - row[START]
        totals: Dict[str, List[float]] = {}
        for index, row in enumerate(self.spans):
            if not first_refresh <= row[REFRESH] < end_refresh:
                continue
            duration = row[END] - row[START]
            entry = totals.setdefault(row[NAME], [0.0, 0.0, 0])
            entry[0] += duration - child_time[index]
            entry[1] += duration
            entry[2] += 1
        return {name: (e[0], e[1], int(e[2])) for name, e in totals.items()}

    def write(self, path: pathlib.Path) -> None:
        """Dump every span; names are interned to keep the file small."""
        names = sorted({row[NAME] for row in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][START] if self.spans else 0.0
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "refresh"],
            "names": names,
            "spans": [
                [index[r[NAME]], r[START] - origin, r[END] - origin, r[PARENT], r[REFRESH]]
                for r in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
            handle.write("\n")
