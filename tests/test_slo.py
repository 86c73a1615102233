"""Tests for SLO burn-rate alerting (repro.obs.slo).

Synthetic-ledger tests pin the multi-window burn-rate logic (fire /
no-fire / cooldown) exactly; integration tests seed a live engine with
deliberately unreachable objectives and require :data:`EVENT_SLO_BURN`
on its event bus.
"""

import pytest

from repro import E2EProfEngine, PathmapConfig, build_rubis
from repro.errors import ObservabilityError
from repro.obs import EventBus
from repro.obs.events import EVENT_SLO_BURN
from repro.obs.ledger import (
    STAGE_DFS,
    RefreshLedger,
    StageSample,
)
from repro.obs.slo import (
    DEFAULT_OBJECTIVE_SHARES,
    STAGE_REFRESH,
    SLOMonitor,
    StageObjective,
    default_objectives,
)

CFG = PathmapConfig(
    window=60.0,
    refresh_interval=20.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)


def _ledger(sequence, refresh_seconds=0.0, **stage_seconds):
    """A synthetic ledger with the given per-stage wall times."""
    stages = {
        name: StageSample(seconds=seconds)
        for name, seconds in stage_seconds.items()
    }
    return RefreshLedger(
        time=float(sequence), sequence=sequence,
        refresh_seconds=refresh_seconds, stages=stages,
    )


class TestStageObjective:
    def test_error_budget(self):
        objective = StageObjective(STAGE_DFS, 0.5, target=0.95)
        assert objective.error_budget == pytest.approx(0.05)

    @pytest.mark.parametrize("seconds,target", [(0.0, 0.99), (-1.0, 0.99),
                                                (1.0, 0.0), (1.0, 1.0)])
    def test_validation(self, seconds, target):
        with pytest.raises(ObservabilityError):
            StageObjective(STAGE_DFS, seconds, target=target)

    def test_default_objectives_follow_shares(self):
        objectives = {o.stage: o for o in default_objectives(CFG)}
        assert set(objectives) == set(DEFAULT_OBJECTIVE_SHARES)
        for stage, share in DEFAULT_OBJECTIVE_SHARES.items():
            assert objectives[stage].objective_seconds == pytest.approx(
                share * CFG.refresh_interval
            )


class TestSLOMonitor:
    def _monitor(self, **kwargs):
        kwargs.setdefault("objectives",
                          [StageObjective(STAGE_REFRESH, 0.1, target=0.9)])
        kwargs.setdefault("fast_window", 4)
        kwargs.setdefault("slow_window", 8)
        return SLOMonitor(**kwargs)

    def test_sustained_breach_fires_both_windows(self):
        monitor = self._monitor()
        alerts = []
        for i in range(8):
            alerts += monitor.observe(float(i), _ledger(i, refresh_seconds=1.0))
        assert monitor.alerts >= 1
        first = alerts[0]
        assert first["stage"] == STAGE_REFRESH
        assert first["burn_fast"] >= monitor.burn_threshold
        assert first["burn_slow"] >= monitor.burn_threshold

    def test_healthy_stream_never_fires(self):
        monitor = self._monitor()
        for i in range(32):
            assert monitor.observe(float(i), _ledger(i, refresh_seconds=0.01)) == []
        assert monitor.alerts == 0

    def test_single_blip_is_suppressed(self):
        # one breach in a 10% error budget: burn rate 1/4/0.1 = 2.5 < 4
        monitor = self._monitor()
        for i in range(16):
            cost = 1.0 if i == 8 else 0.01
            monitor.observe(float(i), _ledger(i, refresh_seconds=cost))
        assert monitor.alerts == 0

    def test_cooldown_limits_alert_rate(self):
        monitor = self._monitor(cooldown=4)
        alerts = 0
        for i in range(12):
            alerts += len(monitor.observe(float(i), _ledger(i, refresh_seconds=1.0)))
        # breaching every refresh: first alert at the fast window, then
        # one per cooldown period at most
        assert 1 <= alerts <= 3

    def test_events_published_on_bus(self):
        bus = EventBus()
        monitor = self._monitor(events=bus)
        for i in range(8):
            monitor.observe(float(i), _ledger(i, refresh_seconds=1.0))
        kinds = {event.kind for event in bus.events()}
        assert EVENT_SLO_BURN in kinds
        event = bus.events(EVENT_SLO_BURN)[0]
        assert event.attributes["stage"] == STAGE_REFRESH

    def test_burn_rate_query(self):
        monitor = self._monitor()
        for i in range(4):
            monitor.observe(float(i), _ledger(i, refresh_seconds=1.0))
        assert monitor.burn_rate(STAGE_REFRESH) == pytest.approx(1.0 / 0.1)
        assert monitor.burn_rate("nope") is None

    def test_window_validation(self):
        with pytest.raises(ObservabilityError):
            SLOMonitor(fast_window=8, slow_window=4)
        with pytest.raises(ObservabilityError):
            SLOMonitor(burn_threshold=0.0)


class TestEngineIntegration:
    def test_slow_stage_fires_burn(self):
        """Seeded end-to-end alert path: an objective far below any real
        refresh cost, so every refresh breaches."""
        rubis = build_rubis(dispatch="affinity", seed=9, request_rate=10.0,
                            config=CFG)
        engine = E2EProfEngine(CFG)
        monitor = SLOMonitor(
            objectives=[StageObjective(STAGE_REFRESH, 1e-9, target=0.9)],
            fast_window=2, slow_window=2,
        ).subscribe_to(engine)
        engine.attach(rubis.topology)
        rubis.run_until(85.0)
        kinds = {event.kind for event in engine.events.events()}
        assert EVENT_SLO_BURN in kinds
        assert monitor.alerts >= 1

    def test_healthy_engine_stays_quiet(self):
        rubis = build_rubis(dispatch="affinity", seed=9, request_rate=10.0,
                            config=CFG)
        engine = E2EProfEngine(CFG)
        monitor = SLOMonitor().subscribe_to(engine)  # default objectives
        engine.attach(rubis.topology)
        rubis.run_until(85.0)
        assert monitor.objectives  # defaulted from engine config
        kinds = {event.kind for event in engine.events.events()}
        assert EVENT_SLO_BURN not in kinds
