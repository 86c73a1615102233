"""Chaos soak for the fault-tolerant transport (tier-2, slow).

Drives full RUBiS deployments through seeded :class:`FaultyChannel`
sweeps -- drop rates from 0 to 30%, reordering, duplication, corruption
and tracer kill/restart mid-run -- and checks the engine's degraded-mode
contract:

* ``refresh()`` never raises, whatever the fault mix;
* the overall quality score is monotone (non-increasing) in the drop
  rate, and 1.0 only without faults;
* once faults stop, the analysis recovers service paths identical to a
  fault-free twin of the same seed within two refreshes.

When ``TRANSPORT_SWEEP_JSON`` is set, the sweep writes its per-rate
summary there (CI uploads it as a workflow artifact).
"""

import json
import os

import pytest

from repro.apps.rubis import build_rubis
from repro.config import PathmapConfig, TransportConfig
from repro.core.engine import E2EProfEngine
from repro.tracing.collector import TraceCollector
from repro.tracing.transport import FaultyChannel, TransportReceiver

pytestmark = pytest.mark.slow

#: Short window (W = 2 dW) so post-fault state fully rotates out of the
#: window within two refreshes -- the recovery bound under test.
CFG = PathmapConfig(
    window=20.0,
    refresh_interval=10.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)

#: Lateness 1 keeps reordered frames' recovery inside the two-refresh
#: bound (a hole is declared, and its straggler patched, one round after
#: the newest frame passes it).
TRANSPORT = TransportConfig(lateness_blocks=1)


def run_pair(seed, channel_kwargs, until=85.0, fault_until=None):
    """Run two same-seed RUBiS twins: one over perfect channels, one over
    channels built from ``channel_kwargs`` (faults optionally disabled at
    ``fault_until``). Simulation traffic depends only on the topology
    seed -- the channel RNG is independent -- so both twins carry
    identical packets and any analysis difference is the transport's.
    """
    runs = {}
    for label, kwargs in (("baseline", {}), ("faulty", channel_kwargs)):
        rubis = build_rubis(
            dispatch="affinity", seed=seed, request_rate=10.0, config=CFG
        )
        channels = {}

        def factory(node, _kwargs=kwargs, _channels=channels):
            channel = FaultyChannel(
                seed=sum(node.encode()) * 7919 + 13, **_kwargs
            )
            _channels[node] = channel
            return channel

        engine = E2EProfEngine(CFG, transport=TRANSPORT, channel_factory=factory)
        engine.attach(rubis.topology)
        history = []
        engine.subscribe(
            lambda now, result, _h=history: _h.append((now, result))
        )
        if fault_until is not None and label == "faulty":
            rubis.run_until(fault_until)
            for channel in channels.values():
                channel.set_faults(
                    drop=0.0, duplicate=0.0, reorder=0.0, corrupt=0.0,
                    delay=0.0, down=False,
                )
        rubis.run_until(until)
        runs[label] = (engine, history, channels)
    return runs


def paths_of(result):
    return sorted(
        str(path) for graph in result.graphs.values() for path in graph.paths()
    )


class TestDropSweep:
    def test_quality_monotone_in_drop_rate(self):
        """Sweep drop 0..30%: no refresh ever raises, quality degrades
        monotonically with the drop rate, and every fault run reports a
        score below the fault-free 1.0."""
        rates = [0.0, 0.05, 0.10, 0.20, 0.30]
        summary = []
        mean_qualities = []
        for rate in rates:
            rubis = build_rubis(
                dispatch="affinity", seed=31, request_rate=10.0, config=CFG
            )
            engine = E2EProfEngine(
                CFG,
                transport=TRANSPORT,
                channel_factory=lambda node, _r=rate: FaultyChannel(
                    seed=sum(node.encode()), drop=_r, reorder=0.05
                ),
            )
            engine.attach(rubis.topology)
            qualities = []
            engine.subscribe(
                lambda now, result, _q=qualities: _q.append(result.quality)
            )
            rubis.run_until(125.0)  # 12 refreshes, no exception allowed
            assert len(qualities) == 12
            # Skip the warm-up refresh: gap accounting needs one round of
            # stream history before silence is attributable to loss.
            mean = sum(qualities[1:]) / len(qualities[1:])
            mean_qualities.append(mean)
            summary.append(
                {
                    "drop_rate": rate,
                    "mean_quality": mean,
                    "min_quality": min(qualities),
                    "refreshes": len(qualities),
                    "totals": engine._receiver.totals(),
                }
            )
        assert mean_qualities[0] == 1.0
        for lower_rate, higher_rate in zip(mean_qualities, mean_qualities[1:]):
            assert higher_rate <= lower_rate + 1e-9
        assert all(q < 1.0 for q in mean_qualities[1:])
        out = os.environ.get("TRANSPORT_SWEEP_JSON")
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump({"seed": 31, "sweep": summary}, handle, indent=2)


class TestFaultSoak:
    @pytest.mark.parametrize(
        "faults",
        [
            {"drop": 0.10, "reorder": 0.10},
            {"drop": 0.30, "duplicate": 0.20},
            {"reorder": 0.30, "delay": 0.20, "max_delay_rounds": 3},
            {"corrupt": 0.20, "drop": 0.05},
            {"drop": 0.15, "duplicate": 0.15, "reorder": 0.15,
             "corrupt": 0.10, "delay": 0.10},
        ],
        ids=["drop+reorder", "heavy-drop+dup", "reorder+delay",
             "corrupt+drop", "everything"],
    )
    def test_engine_survives_fault_mix(self, faults):
        """Every fault cocktail: 10 refreshes, zero exceptions, graphs
        still produced, degradation visible in the score."""
        rubis = build_rubis(
            dispatch="affinity", seed=47, request_rate=10.0, config=CFG
        )
        engine = E2EProfEngine(
            CFG,
            transport=TRANSPORT,
            channel_factory=lambda node: FaultyChannel(
                seed=sum(node.encode()) + 1, **faults
            ),
        )
        engine.attach(rubis.topology)
        results = []
        engine.subscribe(lambda now, result: results.append(result))
        rubis.run_until(105.0)
        assert len(results) == 10
        assert any(r.stats.graphs == 2 for r in results)
        assert min(r.quality for r in results) < 1.0
        # Corrupt frames were swallowed, never raised.
        if faults.get("corrupt"):
            assert engine._receiver.corrupt_blocks > 0

    def test_acceptance_criterion_ten_pct_drop_reorder(self):
        """ISSUE acceptance: seeded 10% drop + reorder on RUBiS --
        refresh() completes every cycle, per-edge DataQuality and an
        overall score < 1.0 are reported, and service paths recover
        byte-identical to the fault-free twin within two refreshes of
        the faults stopping."""
        runs = run_pair(
            seed=42,
            channel_kwargs={"drop": 0.10, "reorder": 0.10},
            until=125.0,
            fault_until=65.0,
        )
        base_engine, base_history, _ = runs["baseline"]
        faulty_engine, faulty_history, _ = runs["faulty"]
        assert len(faulty_history) == len(base_history) == 12
        # Degradation was observed and reported while faults were live.
        fault_window = [r for now, r in faulty_history if now <= 65.0]
        assert min(r.quality for r in fault_window) < 1.0
        degraded = [r for r in fault_window if r.degraded_edges()]
        assert degraded, "no per-edge DataQuality verdicts surfaced"
        for result in degraded:
            for quality in result.degraded_edges().values():
                assert 0.0 <= quality.gap_ratio <= 1.0
        # Recovery: within two refreshes of the faults stopping the
        # analysis output is identical to the never-faulted twin.
        recovered = [
            (now, result) for now, result in faulty_history if now > 65.0 + 2 * CFG.refresh_interval
        ]
        baseline = {now: result for now, result in base_history}
        assert recovered
        for now, result in recovered:
            assert paths_of(result) == paths_of(baseline[now])
            assert result.quality == 1.0

    def test_tracer_kill_and_restart_mid_run(self):
        """Kill one tracer (black-holed link) mid-run: its edges go
        stale and the score drops; restart it (epoch bump) and lift the
        outage: the analysis converges back to the fault-free twin."""
        seed = 58
        rubis = build_rubis(
            dispatch="affinity", seed=seed, request_rate=10.0, config=CFG
        )
        channels = {}

        def factory(node):
            channels[node] = FaultyChannel()
            return channels[node]

        engine = E2EProfEngine(CFG, transport=TRANSPORT, channel_factory=factory)
        engine.attach(rubis.topology)
        history = []
        engine.subscribe(lambda now, result: history.append((now, result)))

        twin = build_rubis(
            dispatch="affinity", seed=seed, request_rate=10.0, config=CFG
        )
        twin_engine = E2EProfEngine(CFG, transport=TRANSPORT)
        twin_engine.attach(twin.topology)
        twin_history = []
        twin_engine.subscribe(
            lambda now, result: twin_history.append((now, result))
        )

        rubis.run_until(25.0)
        twin.run_until(25.0)
        channels["DS"].set_faults(down=True)  # kill
        rubis.run_until(75.0)
        twin.run_until(75.0)
        assert engine._tracer_states.get("DS") in ("lagging", "dead")
        assert engine.quality_score < 1.0
        stale = {
            edge
            for edge, q in engine.latest_edge_quality.items()
            if q.state == "stale"
        }
        assert any("DS" in edge for edge in stale)
        # Restart the tracer and heal the link.
        engine.restart_tracer("DS")
        channels["DS"].set_faults(down=False)
        rubis.run_until(125.0)
        twin.run_until(125.0)
        assert engine.transport_summary()["links"]["DS"]["epoch"] == 1
        # No pre-restart block was resurrected into the analysis.
        assert engine._receiver.totals()["stale_epoch_drops"] == 0
        # Converged back to the twin.
        final = dict(history)
        twin_final = dict(twin_history)
        for now in sorted(final)[-2:]:
            assert paths_of(final[now]) == paths_of(twin_final[now])
        assert engine.quality_score == 1.0
        assert engine._tracer_states.get("DS") == "live"


class TestDeterminism:
    def test_same_seed_same_chaos(self):
        """The whole chaos pipeline is reproducible: same seeds, same
        qualities, same transport totals."""

        def run():
            rubis = build_rubis(
                dispatch="affinity", seed=5, request_rate=10.0, config=CFG
            )
            engine = E2EProfEngine(
                CFG,
                transport=TRANSPORT,
                channel_factory=lambda node: FaultyChannel(
                    seed=sum(node.encode()), drop=0.2, reorder=0.2,
                    duplicate=0.1, corrupt=0.1,
                ),
            )
            engine.attach(rubis.topology)
            qualities = []
            engine.subscribe(
                lambda now, result: qualities.append(result.quality)
            )
            rubis.run_until(85.0)
            return qualities, engine._receiver.totals()

        assert run() == run()


class TestCollectedDeliveries:
    @pytest.mark.parametrize("seed", [42, 47])
    def test_one_receive_per_refresh_equals_frame_by_frame(self, seed, monkeypatch):
        """The engine hands a refresh's deliveries to the receiver in one
        call. Under every fault at once -- so corrupt, duplicated, late
        and reordered frames all occur, block and timestamp frames alike
        -- the published results equal those of a twin whose receiver is
        fed the same deliveries one frame at a time, the way the engine
        used to."""

        def run(frame_by_frame):
            if frame_by_frame:
                collected = TransportReceiver.receive

                def one_at_a_time(self, payloads, now):
                    for payload in payloads:
                        collected(self, [payload], now)

                monkeypatch.setattr(TransportReceiver, "receive", one_at_a_time)
            rubis = build_rubis(
                dispatch="affinity", seed=seed, request_rate=10.0, config=CFG
            )
            sink = TraceCollector(client_nodes=rubis.topology.collector.clients)
            engine = E2EProfEngine(
                CFG,
                transport=TRANSPORT,
                capture_sink=sink,
                channel_factory=lambda node: FaultyChannel(
                    seed=sum(node.encode()) + 1, drop=0.15, duplicate=0.15,
                    reorder=0.15, corrupt=0.10, delay=0.10,
                ),
            )
            engine.attach(rubis.topology)
            published = []
            engine.subscribe(
                lambda now, result: published.append(
                    (now, paths_of(result), result.quality, result.degraded_edges())
                )
            )
            rubis.run_until(85.0)
            monkeypatch.undo()
            totals = engine._receiver.totals()
            assert totals["corrupt_blocks"] and totals["late_recovered"]
            assert totals["timestamp_duplicates"] and totals["duplicates"]
            return published, totals, sink.record_count(), engine.wire_bytes_received

        assert run(frame_by_frame=False) == run(frame_by_frame=True)
