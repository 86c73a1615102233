"""Minimal deterministic discrete-event simulation engine.

The paper's evaluation runs on a physical testbed; this engine is the
substrate substitute. It provides exactly what pathmap's input needs:
message events with precise timestamps under controllable workloads,
service times, and faults.

Determinism: events at equal times fire in scheduling order (a
monotonically increasing sequence number breaks ties), and all randomness
flows through a single seeded :class:`numpy.random.Generator` owned by the
caller, so a given seed always reproduces the same trace byte-for-byte.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

EventCallback = Callable[[], None]


class Simulator:
    """Event-driven simulation clock and scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, EventCallback]] = []
        self._sequence = itertools.count()
        self._events_run = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        return self._events_run

    @property
    def pending(self) -> int:
        return len(self._queue)

    def schedule_at(self, when: float, callback: EventCallback) -> None:
        """Schedule ``callback`` to run at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now {self._now}"
            )
        heapq.heappush(self._queue, (when, next(self._sequence), callback))

    def schedule(self, delay: float, callback: EventCallback) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # now + a non-negative delay is never in the past.
        heapq.heappush(self._queue, (self._now + delay, next(self._sequence), callback))

    def run_until(self, end_time: float) -> int:
        """Run events up to and including ``end_time``; returns events run.

        The clock is left at ``end_time`` even when the queue drains early,
        so periodic processes can be rescheduled from a consistent time.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time} is before current time {self._now}"
            )
        if self._running:
            raise SimulationError("run_until called re-entrantly from an event")
        self._running = True
        ran = 0
        try:
            while self._queue and self._queue[0][0] <= end_time:
                when, _, callback = heapq.heappop(self._queue)
                self._now = when
                callback()
                ran += 1
                self._events_run += 1
        finally:
            self._running = False
        self._now = end_time
        return ran

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue is empty (or ``max_events`` fired)."""
        if self._running:
            raise SimulationError("run called re-entrantly from an event")
        self._running = True
        ran = 0
        try:
            while self._queue:
                if max_events is not None and ran >= max_events:
                    break
                when, _, callback = heapq.heappop(self._queue)
                self._now = when
                callback()
                ran += 1
                self._events_run += 1
        finally:
            self._running = False
        return ran


class PeriodicTask:
    """Re-schedules a callback every ``interval`` seconds until cancelled."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[float], Any],
        start_at: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._cancelled = False
        first = start_at if start_at is not None else sim.now + interval
        sim.schedule_at(first, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._callback(self._sim.now)
        if not self._cancelled:
            self._sim.schedule(self._interval, self._fire)

    def cancel(self) -> None:
        self._cancelled = True
