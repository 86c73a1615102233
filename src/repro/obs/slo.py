"""Latency SLOs over the refresh ledger: burn-rate alert events.

The engine's self-profiling (``repro.obs.ledger``) measures each pipeline
stage every refresh; :class:`SLOMonitor` turns those measurements into
*alerts*. It evaluates per-stage latency objectives with SRE-style
**multi-window burn rates**: each refresh either meets or breaches its
stage objective, and when both a fast window (is it burning *now*?) and
a slow window (has it burned for a while?) exceed the burn threshold, an
:data:`~repro.obs.events.EVENT_SLO_BURN` event is published. The two
windows together suppress one-refresh blips without missing sustained
burns.

The monitor subscribes to a live engine via ``subscribe_to(engine)`` and
reads ``result.ledger`` from the metrics fan-out, so it costs one dict
lookup per refresh when everything is healthy.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.events import EVENT_SLO_BURN, EventBus
from repro.obs.ledger import (
    STAGE_CORRELATE,
    STAGE_DFS,
    STAGE_INGEST,
    STAGE_PUBLISH,
    RefreshLedger,
)

#: Pseudo-stage name for the whole-refresh objective (ingest + correlate
#: + dfs, the ledger's ``refresh_seconds``).
STAGE_REFRESH = "refresh"

#: Default share of the refresh interval each stage may spend before its
#: objective is breached. The whole refresh gets half the interval (an
#: analyzer spending more than dW/2 analyzing is close to falling
#: behind); stages split that roughly by their observed cost profile.
DEFAULT_OBJECTIVE_SHARES: Dict[str, float] = {
    STAGE_REFRESH: 0.50,
    STAGE_INGEST: 0.10,
    STAGE_CORRELATE: 0.25,
    STAGE_DFS: 0.25,
    STAGE_PUBLISH: 0.05,
}


@dataclasses.dataclass(frozen=True)
class StageObjective:
    """One latency objective: stage X should finish within Y seconds,
    Z fraction of refreshes.

    Attributes
    ----------
    stage:
        A pipeline stage name, or :data:`STAGE_REFRESH` for the whole
        refresh.
    objective_seconds:
        The latency bound a refresh must meet to count as good.
    target:
        Fraction of refreshes that must meet the bound (the SLO target);
        the error budget is ``1 - target``.
    """

    stage: str
    objective_seconds: float
    target: float = 0.99

    def __post_init__(self) -> None:
        if self.objective_seconds <= 0:
            raise ObservabilityError(
                f"objective_seconds must be positive, got {self.objective_seconds}"
            )
        if not 0.0 < self.target < 1.0:
            raise ObservabilityError(
                f"SLO target must be in (0, 1), got {self.target}"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target


def default_objectives(config) -> Tuple[StageObjective, ...]:
    """Per-stage objectives derived from a config's refresh interval.

    Each stage's bound is its :data:`DEFAULT_OBJECTIVE_SHARES` share of
    ``config.refresh_interval`` -- an analyzer is healthy when its whole
    refresh fits comfortably inside the interval it must keep up with.
    """
    budget = float(config.refresh_interval)
    return tuple(
        StageObjective(stage, share * budget)
        for stage, share in DEFAULT_OBJECTIVE_SHARES.items()
    )


def _ledger_value(ledger: RefreshLedger, stage: str) -> float:
    if stage == STAGE_REFRESH:
        return ledger.refresh_seconds
    return ledger.stage_seconds(stage)


class _ObjectiveState:
    __slots__ = ("objective", "breaches", "observed", "cooldown_left")

    def __init__(self, objective: StageObjective, slow_window: int) -> None:
        self.objective = objective
        self.breaches: Deque[bool] = deque(maxlen=slow_window)
        self.observed = 0
        self.cooldown_left = 0


class SLOMonitor:
    """Multi-window burn-rate alerting over per-refresh stage latencies.

    Parameters
    ----------
    objectives:
        The :class:`StageObjective` list to evaluate. When None and
        attached via :meth:`subscribe_to`, defaults to
        :func:`default_objectives` of the engine's config.
    events:
        EventBus to publish :data:`EVENT_SLO_BURN` on (the engine's bus
        when attached via :meth:`subscribe_to`).
    fast_window / slow_window:
        Refresh counts for the two burn windows. An alert needs *both*
        windows' burn rate over ``burn_threshold``.
    burn_threshold:
        Burn rate (breach fraction / error budget) that must be exceeded.
        1.0 means "spending budget exactly as fast as allowed"; the
        default 4.0 mirrors the classic fast-burn page threshold.
    cooldown:
        Minimum refreshes between alerts per objective (suppresses alert
        storms while a stage stays slow). Defaults to ``fast_window``.
    """

    def __init__(
        self,
        objectives: Optional[Sequence[StageObjective]] = None,
        events: Optional[EventBus] = None,
        fast_window: int = 8,
        slow_window: int = 32,
        burn_threshold: float = 4.0,
        cooldown: Optional[int] = None,
    ) -> None:
        if fast_window < 1 or slow_window < fast_window:
            raise ObservabilityError(
                "need 1 <= fast_window <= slow_window, got "
                f"{fast_window}/{slow_window}"
            )
        if burn_threshold <= 0:
            raise ObservabilityError(
                f"burn_threshold must be positive, got {burn_threshold}"
            )
        self.fast_window = int(fast_window)
        self.slow_window = int(slow_window)
        self.burn_threshold = float(burn_threshold)
        self.cooldown = self.fast_window if cooldown is None else max(0, int(cooldown))
        self.events = events
        self.alerts = 0
        self._states: List[_ObjectiveState] = []
        if objectives is not None:
            self._set_objectives(objectives)

    def _set_objectives(self, objectives: Sequence[StageObjective]) -> None:
        self._states = [_ObjectiveState(o, self.slow_window) for o in objectives]

    @property
    def objectives(self) -> Tuple[StageObjective, ...]:
        return tuple(state.objective for state in self._states)

    def subscribe_to(self, engine) -> "SLOMonitor":
        """Attach to a live engine: default objectives from its config,
        events onto its bus, one observation per metrics fan-out."""
        if not self._states:
            self._set_objectives(default_objectives(engine.config))
        if self.events is None:
            self.events = engine.events

        def _on_metrics(now, result, sample):
            if result.ledger is not None:
                self.observe(now, result.ledger)

        engine.subscribe_metrics(_on_metrics)
        return self

    # -- evaluation ------------------------------------------------------------

    def observe(self, now: float, ledger: RefreshLedger) -> List[dict]:
        """Fold one refresh's ledger in; publish and return any alerts."""
        alerts: List[dict] = []
        for state in self._states:
            objective = state.objective
            value = _ledger_value(ledger, objective.stage)
            state.breaches.append(value > objective.objective_seconds)
            state.observed += 1
            if state.cooldown_left > 0:
                state.cooldown_left -= 1
            if state.observed < self.fast_window:
                continue
            fast = self.burn_rate(objective.stage, self.fast_window)
            slow = self.burn_rate(objective.stage, self.slow_window)
            if (
                fast is not None
                and fast >= self.burn_threshold
                and slow is not None
                and slow >= self.burn_threshold
                and state.cooldown_left == 0
            ):
                state.cooldown_left = self.cooldown
                self.alerts += 1
                payload = {
                    "stage": objective.stage,
                    "objective_seconds": objective.objective_seconds,
                    "target": objective.target,
                    "burn_fast": fast,
                    "burn_slow": slow,
                    "observed_seconds": value,
                    "sequence": ledger.sequence,
                }
                alerts.append(payload)
                if self.events is not None:
                    self.events.publish(EVENT_SLO_BURN, time_=now, **payload)
        return alerts

    def burn_rate(self, stage: str, window: Optional[int] = None) -> Optional[float]:
        """Burn rate for a stage over the last ``window`` refreshes.

        breach fraction / error budget; 1.0 = spending budget exactly at
        the sustainable rate. None when the stage has no observations or
        no configured objective.
        """
        for state in self._states:
            if state.objective.stage != stage:
                continue
            breaches = list(state.breaches)
            if window is not None:
                breaches = breaches[-window:]
            if not breaches:
                return None
            fraction = sum(breaches) / len(breaches)
            return fraction / state.objective.error_budget
        return None
