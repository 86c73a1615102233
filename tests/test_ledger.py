"""Tests for the refresh cost ledger (repro.obs.ledger).

Covers the recorder's unit behavior (EWMAs, stage/kernel tallies,
disabled no-op contract), the JSON round-trip of ledger records, and the
engine integration: every :class:`PathmapResult` of a live engine must
carry a complete ledger, flight-recorder frames and the Perfetto export
must reflect it, and the new stage histograms must reach the Prometheus
exposition.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import E2EProfEngine, PathmapConfig, build_rubis
from repro.analysis.top import render_profile, render_top
from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, chrome_trace
from repro.obs.ledger import (
    CORRELATION_KERNELS,
    DEFAULT_LEDGER_HISTORY,
    KERNEL_LEGACY,
    KERNEL_RLE,
    KERNEL_SPARSE_BATCH,
    PIPELINE_STAGES,
    STAGE_CORRELATE,
    STAGE_DFS,
    STAGE_INGEST,
    STAGE_PUBLISH,
    Ewma,
    KernelSample,
    LedgerRecorder,
    RefreshLedger,
    StageSample,
)

CFG = PathmapConfig(
    window=60.0,
    refresh_interval=20.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)


@pytest.fixture(scope="module")
def ledger_run():
    """A short instrumented RUBiS run; returns (engine, captured results)."""
    registry = MetricsRegistry(enabled=True)
    rubis = build_rubis(dispatch="affinity", seed=5, request_rate=10.0,
                        config=CFG)
    engine = E2EProfEngine(CFG, metrics=registry)
    engine.tracer.enable()
    results = []
    engine.subscribe(lambda now, result: results.append(result))
    engine.attach(rubis.topology)
    rubis.run_until(85.0)
    assert results
    return engine, results


class TestEwma:
    def test_first_sample_sets_value(self):
        ewma = Ewma(alpha=0.2)
        assert ewma.value is None
        assert ewma.update(10.0) == 10.0
        assert ewma.samples == 1

    def test_moves_toward_new_samples(self):
        ewma = Ewma(alpha=0.5)
        ewma.update(0.0)
        assert ewma.update(10.0) == 5.0
        assert ewma.update(10.0) == 7.5

    def test_constant_input_is_fixed_point(self):
        ewma = Ewma(alpha=0.2)
        for _ in range(50):
            ewma.update(3.25)
        assert ewma.value == 3.25

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ObservabilityError):
            Ewma(alpha=alpha)


class TestEwmaConvergence:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1,
                    max_size=50),
           st.floats(min_value=0.05, max_value=1.0))
    def test_value_stays_within_sample_bounds(self, samples, alpha):
        ewma = Ewma(alpha=alpha)
        for sample in samples:
            ewma.update(sample)
        assert min(samples) <= ewma.value <= max(samples)
        assert ewma.samples == len(samples)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e6))
    def test_converges_to_constant_tail(self, start, target):
        ewma = Ewma(alpha=0.2)
        ewma.update(start)
        for _ in range(200):
            ewma.update(target)
        assert ewma.value == pytest.approx(target, rel=1e-6)


class TestLedgerRecorder:
    def test_complete_has_all_stages_and_kernels(self):
        rec = LedgerRecorder()
        rec.begin_refresh()
        rec.record_stage(STAGE_INGEST, 0.010, items=4)
        rec.record_kernel(KERNEL_RLE, rows=100, seconds=0.002,
                          work_units=400.0, bytes_touched=2400)
        ledger = rec.complete(10.0, 0, refresh_seconds=0.015,
                              skips=3, cache_hits=7)
        assert set(ledger.stages) == set(PIPELINE_STAGES)
        assert set(ledger.kernels) == set(CORRELATION_KERNELS)
        assert ledger.stage(STAGE_INGEST).items == 4
        assert ledger.stage(STAGE_INGEST).unit == "blocks"
        assert ledger.kernel(KERNEL_RLE).rows == 100
        assert ledger.kernel(KERNEL_RLE).ns_per_row == pytest.approx(20_000.0)
        assert ledger.skips == 3 and ledger.cache_hits == 7
        assert rec.latest is ledger and len(rec) == 1

    def test_stage_recording_is_additive(self):
        rec = LedgerRecorder()
        rec.begin_refresh()
        rec.record_stage(STAGE_PUBLISH, 0.001, items=2)
        rec.record_stage(STAGE_PUBLISH, 0.002, items=3)
        ledger = rec.complete(0.0, 0, refresh_seconds=0.0)
        assert ledger.stage(STAGE_PUBLISH).seconds == pytest.approx(0.003)
        assert ledger.stage(STAGE_PUBLISH).items == 5

    def test_idle_kernel_does_not_touch_ewma(self):
        rec = LedgerRecorder()
        rec.begin_refresh()
        rec.record_kernel(KERNEL_RLE, rows=10, seconds=0.001, work_units=40.0)
        rec.complete(0.0, 0, refresh_seconds=0.0)
        assert rec.ns_per_row(KERNEL_RLE) is not None
        assert rec.ns_per_unit(KERNEL_RLE) is not None
        # sparse batch never ran: EWMAs stay cold across refreshes
        rec.begin_refresh()
        rec.complete(1.0, 1, refresh_seconds=0.0)
        assert rec.ns_per_row(KERNEL_SPARSE_BATCH) is None
        assert rec.ns_per_unit(KERNEL_SPARSE_BATCH) is None

    def test_nothing_recorded_still_completes_full_shape(self):
        rec = LedgerRecorder()
        rec.begin_refresh()
        ledger = rec.complete(5.0, 2, refresh_seconds=1.0)
        assert set(ledger.stages) == set(PIPELINE_STAGES)
        assert set(ledger.kernels) == set(CORRELATION_KERNELS)
        assert ledger.stage(STAGE_DFS).seconds == 0.0
        assert all(sample.rows == 0 for sample in ledger.kernels.values())
        assert len(rec) == 1 and rec.latest is ledger

    def test_history_is_bounded(self):
        rec = LedgerRecorder(history=4)
        for i in range(10):
            rec.begin_refresh()
            rec.complete(float(i), i, refresh_seconds=0.0)
        history = rec.history()
        assert len(history) == 4
        assert [led.sequence for led in history] == [6, 7, 8, 9]
        assert [led.sequence for led in rec.history(2)] == [8, 9]

    def test_default_history_bound(self):
        assert LedgerRecorder()._history.maxlen == DEFAULT_LEDGER_HISTORY

    def test_export_is_json_able_and_key_ordered(self):
        rec = LedgerRecorder()
        rec.begin_refresh()
        rec.record_kernel(KERNEL_SPARSE_BATCH, rows=5, seconds=1e-4,
                          work_units=20.0)
        rec.complete(1.0, 0, refresh_seconds=1e-3)
        doc = rec.export()
        assert sorted(doc) == ["ewma", "ledgers"]
        assert list(doc["ewma"]) == sorted(CORRELATION_KERNELS)
        payload = json.dumps(doc)
        assert json.loads(payload) == doc


class TestRoundTrip:
    def _ledger(self):
        rec = LedgerRecorder()
        rec.begin_refresh()
        rec.record_stage(STAGE_INGEST, 0.01, items=8)
        rec.record_stage(STAGE_CORRELATE, 0.02, items=8)
        rec.record_stage(STAGE_DFS, 0.03, items=12)
        rec.record_stage(STAGE_PUBLISH, 0.001, items=1)
        rec.record_kernel(KERNEL_RLE, rows=40, seconds=0.015,
                          work_units=160.0, bytes_touched=960)
        return rec.complete(30.0, 3, refresh_seconds=0.06,
                            skips=2, cache_hits=5)

    def test_dataclass_round_trip(self):
        ledger = self._ledger()
        assert RefreshLedger.from_dict(ledger.to_dict()) == ledger

    def test_json_round_trip(self):
        ledger = self._ledger()
        doc = json.loads(json.dumps(ledger.to_dict()))
        assert RefreshLedger.from_dict(doc).to_dict() == ledger.to_dict()
        # Documents from engines that ran process shards (flight dumps,
        # ``repro profile --json``) carry a per-shard section; it loads
        # and is dropped.
        doc["shards"] = {
            "0": {"classes": 3, "correlate_seconds": 0.01,
                  "correlators": 40, "dfs_seconds": 0.02},
        }
        old = RefreshLedger.from_dict(doc)
        assert old == ledger
        assert "shards" not in old.to_dict()

    def test_to_dict_keys_deterministically_ordered(self):
        doc = self._ledger().to_dict()
        assert list(doc) == sorted(doc)
        assert list(doc["stages"]) == sorted(doc["stages"])
        assert list(doc["kernels"]) == sorted(doc["kernels"])
        for sample in doc["stages"].values():
            assert list(sample) == sorted(sample)
        for sample in doc["kernels"].values():
            assert list(sample) == sorted(sample)

    def test_sample_round_trips(self):
        stage = StageSample(seconds=0.5, items=3, unit="blocks")
        assert StageSample.from_dict(stage.to_dict()) == stage
        kernel = KernelSample(rows=7, seconds=0.1, work_units=2.0,
                              bytes_touched=112, ns_per_row=14e6,
                              ns_per_row_ewma=13e6)
        assert KernelSample.from_dict(kernel.to_dict()) == kernel

    def test_missing_keys_default(self):
        ledger = RefreshLedger.from_dict({"time": 1.0, "sequence": 2})
        assert ledger.stages == {} and ledger.kernels == {}
        assert ledger.stage(STAGE_DFS).seconds == 0.0
        assert ledger.kernel(KERNEL_RLE).rows == 0


class TestEngineIntegration:
    def test_every_result_carries_a_complete_ledger(self, ledger_run):
        engine, results = ledger_run
        for result in results:
            ledger = result.ledger
            assert isinstance(ledger, RefreshLedger)
            assert set(ledger.stages) == set(PIPELINE_STAGES)
            assert set(ledger.kernels) == set(CORRELATION_KERNELS)
            assert all(ledger.stage_seconds(s) >= 0.0 for s in PIPELINE_STAGES)

    def test_sequences_are_monotonic(self, ledger_run):
        engine, results = ledger_run
        sequences = [result.ledger.sequence for result in results]
        assert sequences == list(range(len(results)))
        assert engine.latest_ledger is results[-1].ledger

    def test_refresh_seconds_matches_engine(self, ledger_run):
        engine, results = ledger_run
        assert results[-1].ledger.refresh_seconds == engine.last_refresh_seconds

    def test_dfs_stage_counts_correlations(self, ledger_run):
        engine, results = ledger_run
        for result in results:
            assert (result.ledger.stage(STAGE_DFS).items
                    == result.stats.correlations)

    def test_kernels_account_for_work(self, ledger_run):
        engine, results = ledger_run
        rows = sum(result.ledger.kernel(k).rows
                   for result in results for k in CORRELATION_KERNELS)
        assert rows > 0
        for result in results:
            for name in CORRELATION_KERNELS:
                sample = result.ledger.kernel(name)
                if sample.rows:
                    assert sample.seconds >= 0.0
                    assert sample.ns_per_row is not None
                else:
                    assert sample.ns_per_row is None

    def test_publish_stage_filled_after_fanout(self, ledger_run):
        engine, results = ledger_run
        # history copies share the StageSample objects mutated post-fanout
        for ledger in engine.ledger.history():
            assert ledger.stage(STAGE_PUBLISH).items >= 1

    def test_flight_frames_carry_ledger_dicts(self, ledger_run):
        engine, _ = ledger_run
        dump = engine.dump_flight_record()
        assert dump["frames"]
        for frame in dump["frames"]:
            ledger = frame["ledger"]
            assert set(ledger["stages"]) == set(PIPELINE_STAGES)
            assert ledger["sequence"] == frame["sequence"]

    def test_chrome_trace_emits_counter_tracks(self, ledger_run):
        engine, _ = ledger_run
        trace = chrome_trace(engine.dump_flight_record())
        counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        names = {e["name"] for e in counters}
        assert {"ledger stage ms", "ledger kernel rows",
                "ledger skip/cache"} <= names
        stage_args = [e["args"] for e in counters
                      if e["name"] == "ledger stage ms"]
        assert all(set(args) == set(PIPELINE_STAGES) for args in stage_args)

    def test_stage_histograms_reach_prometheus(self, ledger_run):
        engine, _ = ledger_run
        text = engine.metrics.to_prometheus()
        for stage in PIPELINE_STAGES:
            assert f'engine_stage_seconds_bucket{{stage="{stage}"' in text
        assert "ledger_kernel_rows_total" in text


class TestTopRenderer:
    def test_empty_history_renders_placeholder(self):
        assert "no refreshes" in render_top([])

    def test_renders_stages_kernels_and_ratios(self, ledger_run):
        engine, _ = ledger_run
        frame = render_top(engine.ledger.history(),
                           engine.ledger.ewma_snapshot(), title="test run")
        assert frame.startswith("test run")
        for name in PIPELINE_STAGES + CORRELATION_KERNELS:
            assert name in frame
        assert "quiet skips" in frame and "cache hits" in frame

    def test_profile_includes_ewma_table(self, ledger_run):
        engine, _ = ledger_run
        text = render_profile(engine.ledger.history(),
                              engine.ledger.ewma_snapshot())
        assert "kernel cost model" in text
        assert "samples" in text


class TestSampleAdaptivityCounters:
    def test_adaptive_run_populates_counters(self):
        from repro.apps.manyclass import MANY_CLASS_CONFIG, build_many_class

        deployment = build_many_class(
            classes=6, quiet_fraction=0.5, seed=4, request_rate=10.0,
            quiet_after=5.0, config=MANY_CLASS_CONFIG,
        )
        engine = E2EProfEngine(MANY_CLASS_CONFIG)
        samples = []
        engine.subscribe_metrics(
            lambda now, result, sample: samples.append(sample)
        )
        engine.attach(deployment.topology)
        deployment.run_until(9.0)
        engine.rewindow(4.0)
        deployment.run_until(18.0)
        engine.detach()
        assert samples
        assert any(s.low_confidence_events > 0 for s in samples)
        # rewindow_clips are per-refresh deltas of the engine total
        assert engine.rewindows == 1
        assert sum(s.rewindow_clips for s in samples) == engine.rewindows
        doc = samples[-1].to_dict()
        for key in ("low_confidence_events", "rewindow_clips"):
            assert key in doc

    def test_non_adaptive_run_reports_zeroes(self, ledger_run):
        engine, _ = ledger_run
        sample = engine.latest_sample
        assert sample.rewindow_clips == 0
