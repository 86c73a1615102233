"""Parked correlators and implicit quiet summaries change cost, never results.

A correlator whose whole window is quiet on both sides is *parked*: the
engine drops it, keeps its key, and replays it from block history the
refresh one of its edges wakes. The lake likewise writes nothing for an
eviction of two quiet blocks; a fold derives the span length from each
key's coverage marker and the lake's frontier. Neither may move a single
published bit:

* a class silent for longer than ``W`` and then waking publishes, at
  every refresh, the graphs a from-scratch dense pathmap computes -- over
  the unbounded collector on a clean run, over the engine's own patched
  history under late blocks and ``rewindow``;
* an engine whose correlators never park publishes the same graphs, skip
  tallies and summary folds, refresh for refresh;
* serial, threads and processes stay bit-identical through park/unpark;
* a fold over implicit quiet blocks equals ``fold_summaries`` over the
  explicitly materialized quiet rows, bit for bit.
"""

import numpy as np
import pytest

from repro.analysis.history import span_estimate
from repro.apps.manyclass import build_many_class
from repro.config import PathmapConfig, TransportConfig
from repro.core.engine import E2EProfEngine
from repro.core.incremental import IncrementalCorrelator, block_is_quiet
from repro.core.pathmap import compute_service_graphs
from repro.core.stages import HostWindow
from repro.errors import AnalysisError, CorrelationError, TraceError
from repro.lake import BlockSummary, TraceLake, fold_summaries
from repro.obs.registry import MetricsRegistry
from repro.tracing.collector import TraceCollector
from repro.tracing.transport import FaultyChannel

from tests.test_engine_parallel import CFG
from tests.test_engine_processes import assert_equivalent

#: ``T_u > W``: a lag reaches past the whole window (``reach >= m``), the
#: case where the per-append skip count is capped by the window depth.
CFG_LONG_LAG = PathmapConfig(
    window=4.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=1e-3,
    max_transaction_delay=5.0,
    min_spike_height=0.10,
)

#: Class K3 stops at t=5 and issues requests again from t=21: silent for
#: 16 s, several windows, so every one of its correlators parks first.
WAKE_AT = 21.0
END = 32.0


def run_lifecycle(config=CFG, faults=False, rewindow_at=None, lake_dir=None,
                  on_refresh=None, **engine_kwargs):
    """Five classes, three going quiet at t=5, one of them waking at
    ``WAKE_AT``; optionally over dropping/delaying channels and with a mid-run
    ``rewindow``. Returns (engine, samples, deployment)."""
    deployment = build_many_class(
        classes=5, quiet_fraction=0.6, seed=11, request_rate=10.0,
        quiet_after=5.0, config=config,
    )
    sim = deployment.topology.sim
    sim.schedule_at(WAKE_AT, deployment.workloads["K3"].start)
    if faults:
        engine_kwargs.update(
            transport=TransportConfig(lateness_blocks=1),
            channel_factory=lambda node: FaultyChannel(
                seed=sum(node.encode()) * 7919 + 13, drop=0.1, delay=0.3
            ),
        )
    if lake_dir is not None:
        engine_kwargs.update(
            lake=TraceLake(lake_dir),
            capture_sink=TraceCollector(
                client_nodes=deployment.topology.collector.clients,
                retention=config.retention_horizon,
            ),
        )
    engine = E2EProfEngine(config, **engine_kwargs)
    samples = []
    engine.subscribe_metrics(lambda now, result, sample: samples.append(sample))
    if on_refresh is not None:
        engine.subscribe(lambda now, result: on_refresh(engine, now, result))
    engine.attach(deployment.topology)
    if rewindow_at is not None:
        sim.schedule_at(rewindow_at, lambda: engine.rewindow(rewindow_at - 3.0))
    deployment.run_until(END)
    engine.close()
    return engine, samples, deployment


def labels(graphs):
    return {
        pair: {edge.key: edge.min_delay for edge in graph.edges if edge.delays}
        for pair, graph in graphs.items()
    }


class TestParkUnparkLifecycle:
    def test_clean_run_matches_dense_oracle_over_unbounded_collector(self):
        # The engine isolates subscriber exceptions, so verdicts are
        # collected here and asserted after the run.
        checked = []

        def check(engine, now, result):
            if now < CFG.window:
                return  # window not full yet: the collector's W-long view differs
            collector = engine._topology.collector
            # Name the window by quantum index (see benchmarks/e2e/oracle.py).
            first = (
                int(round(now / CFG.quantum)) - CFG.sampling_quanta - CFG.window_quanta
            )
            start = (first + 0.25) * CFG.quantum
            window = collector.window(CFG, end_time=start + CFG.window, start_time=start)
            expected = compute_service_graphs(window, CFG, method="dense").graphs
            checked.append((now, labels(result.graphs) == labels(expected)))

        engine, samples, _ = run_lifecycle(on_refresh=check)
        assert len(samples) == 16
        assert checked == [(float(now), True) for now in range(6, 34, 2)]
        parked = [s.parked_correlators for s in samples]
        woke = next(i for i, s in enumerate(samples) if s.time > WAKE_AT)
        assert max(parked[:woke]) > 0
        assert parked[woke] < parked[woke - 1]  # K3's correlators came back
        assert ("C3", "FE3") in engine.latest_result.graphs

    def test_late_blocks_and_rewindow_match_dense_oracle_over_history(self):
        checked = []

        def check(engine, now, result):
            expected = compute_service_graphs(
                HostWindow(engine), CFG, method="dense"
            ).graphs
            checked.append((now, labels(result.graphs) == labels(expected)))

        engine, samples, _ = run_lifecycle(
            faults=True, rewindow_at=25.0, on_refresh=check
        )
        assert checked == [(float(now), True) for now in range(2, 34, 2)]
        assert engine._receiver.totals()["late_recovered"] > 0
        assert engine.rewindows == 1
        assert max(s.parked_correlators for s in samples) > 0

    @pytest.mark.parametrize("config", [CFG, CFG_LONG_LAG], ids=["reach<m", "reach>=m"])
    def test_parking_is_invisible_next_to_never_parked_engine(
        self, config, tmp_path, monkeypatch
    ):
        parked_engine, parked, _ = run_lifecycle(
            config, faults=True, rewindow_at=25.0, lake_dir=tmp_path / "parked"
        )
        with monkeypatch.context() as patch:
            patch.setattr(IncrementalCorrelator, "dormant", property(lambda self: False))
            never_engine, never, _ = run_lifecycle(
                config, faults=True, rewindow_at=25.0, lake_dir=tmp_path / "never"
            )
        assert max(s.parked_correlators for s in parked) > 0
        assert all(s.parked_correlators == 0 for s in never)
        for a, b in zip(parked, never):
            assert a.correlator_skips == b.correlator_skips, a.time
            assert a.correlators + a.parked_correlators == b.correlators, a.time
            assert a.correlations == b.correlations and a.spikes == b.spikes
        assert {
            key: graph.to_dict() for key, graph in parked_engine.latest_result.graphs.items()
        } == {
            key: graph.to_dict() for key, graph in never_engine.latest_result.graphs.items()
        }
        # Same folds from both lakes: implicit coverage does not depend
        # on whether the dormant correlator object existed.
        for target in (("C3", "FE3", "FE3", "AP3"), ("C0", "FE0", "AP0", "DB")):
            got = span_estimate(parked_engine.lake, *target)
            want = span_estimate(never_engine.lake, *target)
            assert (got.n, got.blocks, got.start, got.end) == (
                want.n, want.blocks, want.start, want.end
            )
            assert np.array_equal(got.series.values, want.series.values)

    def test_serial_threads_processes_bit_identical(self):
        runs = {
            mode: run_lifecycle(
                faults=True, rewindow_at=25.0,
                metrics=MetricsRegistry(enabled=True), **kwargs
            )
            for mode, kwargs in (
                ("serial", {"workers": 1}),
                ("threads", {"parallel": "threads", "workers": 3}),
                ("processes", {"parallel": "processes", "shards": 2}),
            )
        }
        serial, s_samples, _ = runs["serial"]
        assert max(s.parked_correlators for s in s_samples) > 0
        for mode in ("threads", "processes"):
            other, o_samples, _ = runs[mode]
            assert_equivalent(serial, other, s_samples, o_samples)
            assert [s.parked_correlators for s in o_samples] == [
                s.parked_correlators for s in s_samples
            ]

    def test_invalidation_forgets_parked_keys(self):
        engine, samples, _ = run_lifecycle()
        # K4 never woke: its edge's correlators are parked under quiet
        # references and live (x loud, y quiet) under the active ones.
        edge = ("FE4", "AP4")
        keys = set(engine._edge_keys[edge])
        assert keys & engine._parked and keys & set(engine._correlators)
        assert set(engine._invalidate_correlators(edge)) == keys
        assert not keys & engine._parked and not keys & set(engine._correlators)
        assert not engine._edge_keys[edge]
        assert all(key not in engine._edge_keys[key[0]] for key in keys)
        # A later non-quiet block has nothing stale left to unpark.
        before = engine.correlator_count
        assert engine._wake_parked() == 0
        assert engine.correlator_count == before


class TestDormantCostNothing:
    def test_live_correlators_are_exactly_the_ones_with_signal(self, tmp_path):
        engine, samples, _ = run_lifecycle(lake_dir=tmp_path / "lake")
        known = set(engine._correlators) | engine._parked

        def loud(edge):
            return any(not block_is_quiet(b) for b in engine._blocks[edge])

        assert engine.parked_count > 0
        assert engine.correlator_count == sum(
            1 for ref, edge in known if loud(ref) or loud(edge)
        )
        # Nothing on disk says "nothing happened": a row is a coverage
        # marker or carries mass.
        reopened = TraceLake(tmp_path / "lake")
        rows = reopened.summaries()
        assert len(rows) == engine.lake.stats()["summary_rows"]
        assert any(row.coverage for row in rows)
        for row in rows:
            assert row.coverage or row.lag_products is not None or any(
                (row.x_total, row.x_energy, row.y_total, row.y_energy)
            ), row
        assert reopened.frontier == engine.lake.frontier is not None

    def test_stages_partition_the_refresh_wall(self, tmp_path, monkeypatch):
        """Spill time accrued inside ingest (capture-sink auto-sweep) used
        to be counted in both the ingest and the spill stage."""
        import time

        # Sweep every few batches, so most spill time falls inside ingest.
        monkeypatch.setattr("repro.tracing.collector._EVICT_STRIDE", 32)
        deployment = build_many_class(
            classes=3, quiet_fraction=0.0, seed=5, request_rate=40.0, config=CFG
        )
        # A tiny segment threshold makes every in-ingest spill cut a file.
        engine = E2EProfEngine(
            CFG,
            transport=TransportConfig(),
            lake=TraceLake(tmp_path / "lake", segment_bytes=8),
            capture_sink=TraceCollector(
                client_nodes=deployment.topology.collector.clients, retention=7.0
            ),
        )
        walls = []
        refresh = engine.refresh

        def timed(now):
            started = time.perf_counter()
            try:
                return refresh(now)
            finally:
                walls.append(time.perf_counter() - started)

        engine.refresh = timed
        engine.attach(deployment.topology)
        deployment.run_until(30.0)
        engine.close()
        ledgers = engine.ledger.history()
        assert len(ledgers) == len(walls) == 15
        assert sum(led.stage_seconds("spill") for led in ledgers) > 0
        for ledger, wall in zip(ledgers, walls):
            assert ledger.stage_seconds("ingest") >= 0
            assert sum(s.seconds for s in ledger.stages.values()) <= wall


# ---------------------------------------------------------------------------
# Implicit quiet blocks fold exactly like explicit quiet rows
# ---------------------------------------------------------------------------

KEY = ("C", "WS", "WS", "DB")
LENGTH = 7
QUANTUM = 1e-3
MAX_LAG = 3


def block_row(index, kind, rng):
    """The explicit row of block ``index``: quiet, loud on one side
    (masses, no lag products) or loud on both."""
    x = kind in ("x", "both")
    y = kind in ("y", "both")
    return BlockSummary(
        *KEY, index * LENGTH, LENGTH, QUANTUM,
        x_total=float(rng.integers(1, 9)) if x else 0.0,
        x_energy=float(rng.integers(1, 30)) if x else 0.0,
        y_total=float(rng.integers(1, 9)) if y else 0.0,
        y_energy=float(rng.integers(1, 30)) if y else 0.0,
        lag_products=(
            rng.integers(0, 6, MAX_LAG + 1).astype(np.float64) if x and y else None
        ),
    )


def mark(coverage, index):
    return BlockSummary(*KEY, index * LENGTH, LENGTH, QUANTUM, coverage=coverage)


def same_estimate(got, want_rows):
    want = fold_summaries(want_rows, max_lag=MAX_LAG)
    assert got.n == want.n
    assert got.blocks == len(want_rows)
    assert got.start == min(r.t_min for r in want_rows)
    assert got.end == max(r.t_max for r in want_rows)
    assert got.degenerate == want.degenerate
    assert got.series.values.dtype == want.values.dtype
    assert np.array_equal(got.series.values, want.values)


class TestImplicitFold:
    @pytest.fixture(autouse=True)
    def _hypothesis(self):
        pytest.importorskip("hypothesis")

    def test_implicit_fold_equals_explicit_fold(self, tmp_path_factory):
        from hypothesis import given, settings, strategies as st

        edge = st.one_of(
            st.just(float("-inf")), st.just(float("inf")),
            st.floats(-0.02, 0.25, allow_nan=False),
            # Exactly on block boundaries, where the float comparison decides.
            st.integers(-1, 32).map(lambda k: k * LENGTH * QUANTUM),
        )

        @settings(max_examples=60, deadline=None)
        @given(
            kinds=st.lists(
                st.sampled_from(["quiet", "quiet", "x", "y", "both"]),
                min_size=1, max_size=28,
            ),
            first=st.integers(0, 4),
            gap=st.one_of(st.none(), st.tuples(st.integers(1, 27), st.integers(0, 5))),
            flush_every=st.integers(1, 9),
            spans=st.lists(st.tuples(edge, edge), min_size=1, max_size=4),
            seed=st.integers(0, 1000),
        )
        def check(kinds, first, gap, flush_every, spans, seed):
            rng = np.random.default_rng(seed)
            root = tmp_path_factory.mktemp("lake")
            lake = TraceLake(root)
            # The correlator's first eviction is block `first`; with a gap
            # it is dropped once the frontier reaches block `drop` and its
            # successor's first eviction is block `resume`.
            drop, resume = (
                (first + gap[0], first + gap[0] + gap[1]) if gap else (None, None)
            )
            explicit = []
            for index, kind in enumerate(kinds):
                if index < first:
                    continue
                if index == drop:
                    lake.record_summary(mark("end", index))
                if drop is not None and drop <= index < resume:
                    lake.advance_frontier((index + 1) * LENGTH)
                    continue
                if index in (first, resume):
                    lake.record_summary(mark("begin", index))
                row = block_row(index, kind, rng)
                explicit.append(row)
                if kind != "quiet":
                    lake.record_summary(row)
                lake.advance_frontier((index + 1) * LENGTH)
                if index % flush_every == 0:
                    lake.checkpoint()

            def compare(view):
                for start, end in spans:
                    want = [r for r in explicit if r.t_max > start and r.t_min < end]
                    if not want:
                        with pytest.raises(AnalysisError):
                            span_estimate(view, *KEY, start=start, end=end,
                                          max_lag=MAX_LAG)
                        continue
                    same_estimate(
                        span_estimate(view, *KEY, start=start, end=end,
                                      max_lag=MAX_LAG),
                        want,
                    )

            compare(lake)  # pending, unflushed rows included
            lake.close()
            compare(lake)
            compare(TraceLake(root))  # reopened: frontier from the journal

        check()

    def test_lake_without_markers_folds_row_by_row(self, tmp_path):
        """A lake written before markers existed: explicit quiet rows, no
        marker, no frontier -- each row covers its own block."""
        rng = np.random.default_rng(3)
        rows = [
            block_row(i, kind, rng)
            for i, kind in enumerate(["both", "quiet", "quiet", "x", "both", "quiet"])
        ]
        lake = TraceLake(tmp_path / "old")
        for row in rows:
            lake.record_summary(row)
        lake.close()
        reopened = TraceLake(tmp_path / "old")
        assert reopened.frontier is None
        assert not any(row.coverage for row in reopened.summaries())
        same_estimate(span_estimate(reopened, *KEY, max_lag=MAX_LAG), rows)
        same_estimate(
            span_estimate(reopened, *KEY, start=0.008, end=0.030, max_lag=MAX_LAG),
            rows[1:5],
        )

    def test_marker_round_trip_and_empty_coverage(self, tmp_path):
        marker = mark("begin", 2)
        lake = TraceLake(tmp_path)
        lake.record_summary(marker)
        lake.close()
        assert TraceLake(tmp_path).summaries() == [marker]
        with pytest.raises(TraceError):
            mark("middle", 2)
        # A marker with no frontier covers nothing yet.
        with pytest.raises(CorrelationError):
            fold_summaries([marker])
        assert fold_summaries([marker], frontier=4 * LENGTH).n == 2 * LENGTH
