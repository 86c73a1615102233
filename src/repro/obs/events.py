"""The diagnostic event bus: typed, timestamped pipeline occurrences.

Metrics say *how much*; spans say *how long*; events say *what happened*.
A :class:`DiagnosticEvent` is one structured occurrence -- a detected
change, a raised anomaly, an SLA violation, a path-selection decision, a
subscriber failure -- stamped with both the pipeline's monotonic clock
(``perf_counter``, aligning it with spans) and the analysis time it
refers to (the simulation/wall ``time`` of the refresh).

The :class:`EventBus` is the one place such occurrences flow through:

* publishing attaches the event to the **current span** of the bus's
  tracer (when tracing is on), so timelines show causality -- which DFS,
  which subscriber, which refresh raised it;
* a bounded in-memory history is always kept (events are rare --
  detections, decisions, errors -- so this is negligible), feeding the
  flight recorder even when span tracing is off;
* subscribers get every event as it is published; a raising subscriber is
  isolated, logged and counted, never able to break the publisher.

Event kinds used by the built-in instrumentation are the ``EVENT_*``
constants below; user code may publish any kind string.
"""

from __future__ import annotations

import collections
import dataclasses
import logging
import threading
import time
from typing import Callable, Deque, Dict, List, Optional

from repro.obs.spans import SpanTracer

logger = logging.getLogger(__name__)

#: A per-edge delay shift flagged by the change detector (Figure 7).
EVENT_CHANGE = "change"
#: An anomaly raised or escalated by the EWMA anomaly detector.
EVENT_ANOMALY = "anomaly"
#: An SLA evaluated to violated for one service class.
EVENT_SLA_VIOLATION = "sla_violation"
#: A path-selection decision by the E2EProf-driven scheduler (Table 1).
EVENT_PATH_SELECTION = "path_selection"
#: One per-class end-to-end latency reading from the latency monitor.
EVENT_LATENCY = "latency"
#: A subscriber callback raised and was isolated by the engine.
EVENT_SUBSCRIBER_ERROR = "subscriber_error"
#: Blocks declared lost on a tracer -> analyzer transport stream.
EVENT_TRANSPORT_GAP = "transport_gap"
#: A tracer's liveness degraded to lagging/dead (or recovered to live).
EVENT_TRACER_STALE = "tracer_stale"
#: A refresh ran on incomplete data (overall quality score below 1).
EVENT_DEGRADED_REFRESH = "degraded_refresh"
#: A refresh's steady-state confidence fell below the threshold for at
#: least one service class (flash crowd, trough, disappearing class...).
EVENT_LOW_CONFIDENCE = "low_confidence"
#: The adaptive controller blanked pre-change history after a detected
#: change point (change-point-triggered re-windowing).
EVENT_REWINDOW = "rewindow"
#: A pipeline stage is burning its latency error budget too fast (both
#: the fast and slow burn-rate windows over threshold; SRE-style
#: multi-window alerting on the refresh ledger).
EVENT_SLO_BURN = "slo_burn"
#: A ledger quantity drifted beyond tolerance from its committed
#: benchmark baseline (BENCH_refresh.json / BENCH_ingest.json).
EVENT_PERF_REGRESSION = "perf_regression"

EventCallback = Callable[["DiagnosticEvent"], None]


@dataclasses.dataclass(frozen=True)
class DiagnosticEvent:
    """One structured pipeline occurrence.

    Attributes
    ----------
    kind:
        Event type tag (see the ``EVENT_*`` constants).
    time:
        Analysis time the event refers to (the refresh's ``now``;
        simulation seconds for simulated runs).
    monotonic:
        ``perf_counter`` stamp at publish, on the same clock as spans.
    attributes:
        Kind-specific payload, JSON-able values only.
    span_id:
        Id of the span the event was attached to, or None when tracing
        was off or no span was open.
    """

    kind: str
    time: float
    monotonic: float
    attributes: Dict[str, object]
    span_id: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "time": self.time,
            "monotonic": self.monotonic,
            "attributes": dict(self.attributes),
            "span_id": self.span_id,
        }


class EventBus:
    """Publish/subscribe hub for :class:`DiagnosticEvent`.

    Parameters
    ----------
    tracer:
        Span tracer whose current span published events attach to. A
        disabled tracer (the default) simply never attaches.
    capacity:
        Bound on the retained event history (ring buffer).
    """

    def __init__(
        self, tracer: Optional[SpanTracer] = None, capacity: int = 4096
    ) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self._lock = threading.Lock()
        self._history: Deque[DiagnosticEvent] = collections.deque(maxlen=capacity)
        self._subscribers: List[EventCallback] = []
        self._published = 0
        self._subscriber_errors = 0

    # -- publishing ------------------------------------------------------------

    def publish(self, kind: str, time_: float = 0.0, **attributes: object) -> DiagnosticEvent:
        """Create, record, span-attach and fan out one event.

        ``time_`` is the analysis time the event refers to (the refresh's
        ``now``); attribute values should be JSON-able.
        """
        span = self.tracer.current_span()
        event = DiagnosticEvent(
            kind=kind,
            time=float(time_),
            monotonic=time.perf_counter(),
            attributes=attributes,
            span_id=span.span_id if span is not None else None,
        )
        if span is not None:
            span.add_event(event)
        with self._lock:
            self._history.append(event)
            self._published += 1
            subscribers = list(self._subscribers)
        for callback in subscribers:
            try:
                callback(event)
            except Exception:
                with self._lock:
                    self._subscriber_errors += 1
                logger.exception(
                    "event-bus subscriber %r failed on %s event",
                    callback,
                    kind,
                )
        return event

    # -- subscription ------------------------------------------------------------

    def subscribe(self, callback: EventCallback) -> None:
        """Receive every subsequently published event."""
        with self._lock:
            self._subscribers.append(callback)

    # -- queries ---------------------------------------------------------------

    @property
    def published(self) -> int:
        """Total events published (including any rotated out of history)."""
        return self._published

    @property
    def subscriber_errors(self) -> int:
        return self._subscriber_errors

    def events(self, kind: Optional[str] = None) -> List[DiagnosticEvent]:
        """Retained history, optionally filtered by kind (oldest first)."""
        with self._lock:
            out = list(self._history)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        return out

    def events_since(self, monotonic: float) -> List[DiagnosticEvent]:
        """Retained events published strictly after a ``perf_counter``
        stamp -- how the engine slices out one refresh's events."""
        with self._lock:
            return [e for e in self._history if e.monotonic > monotonic]

    def __len__(self) -> int:
        with self._lock:
            return len(self._history)
