"""The online refresh is a pure function of its input, and leaves nothing behind.

* Two runs of the same workload publish bit-identical graphs, stats,
  per-refresh :class:`~repro.obs.sample.MetricsSample` work counts and
  exact metrics counters -- on a many-class deployment and on every
  scenario in :mod:`repro.scenarios`.
* Every refresh publishes the graphs the dense reference pathmap
  computes over the engine's own block history (the one oracle), on
  spike trains and on smeared, near-dense blocks.
* ``PipelineCore._edge_series`` is a pure refactor of the old pairwise
  ``concatenated()`` chain (quadratic in window depth).
* After attach -> refreshes -> ``close()`` no thread, child process,
  ``/dev/shm`` segment or file descriptor outlives the engine.
"""

import dataclasses
import functools
import gc
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.apps.manyclass import build_many_class
from repro.config import PathmapConfig, TransportConfig
from repro.core.engine import E2EProfEngine
from repro.core.pathmap import compute_service_graphs
from repro.core.stages import HostWindow
from repro.errors import AnalysisError
from repro.lake import TraceLake
from repro.obs.exposition import snapshot
from repro.obs.ledger import KERNEL_RLE
from repro.obs.registry import MetricsRegistry
from repro.obs.sample import MetricsSample
from repro.tracing.collector import TraceCollector

CFG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=1e-3,
    max_transaction_delay=1.0,
    min_spike_height=0.10,
)


def run_engine(seed=3, end_time=18.0, classes=6, quiet_fraction=0.5, config=CFG,
               on_refresh=None, **engine_kwargs):
    """One many-class deployment driven to ``end_time`` with an engine
    attached (``on_refresh(engine, now, result)`` subscribed when given);
    returns the engine and its per-refresh samples."""
    deployment = build_many_class(
        classes=classes,
        quiet_fraction=quiet_fraction,
        seed=seed,
        request_rate=10.0,
        quiet_after=5.0,
        config=config,
    )
    engine = E2EProfEngine(config, **engine_kwargs)
    samples = []
    engine.subscribe_metrics(lambda now, result, sample: samples.append(sample))
    if on_refresh is not None:
        engine.subscribe(lambda now, result: on_refresh(engine, now, result))
    engine.attach(deployment.topology)
    deployment.run_until(end_time)
    engine.detach()
    assert engine.latest_result is not None
    return engine, samples


#: Counters whose values must be identical between two runs of the same
#: workload (elapsed-time metrics excluded).
EXACT_COUNTERS = [
    "pathmap_correlations_total",
    "pathmap_spikes_total",
    "pathmap_edges_total",
    "pathmap_nodes_visited_total",
    "correlator_pair_products_total",
    "correlator_skips_total",
    "correlation_cache_hits_total",
    "correlator_evictions_total",
    "engine_blocks_ingested_total",
    "engine_correlator_cache_hits_total",
    "engine_correlator_cache_misses_total",
]

#: MetricsSample fields that are wall-clock measurements, not work counts.
TIMING_FIELDS = ("refresh_seconds", "pathmap_seconds", "fanout_seconds")

#: Every other MetricsSample field must agree refresh for refresh.
SAMPLE_FIELDS = tuple(
    f.name for f in dataclasses.fields(MetricsSample) if f.name not in TIMING_FIELDS
)


def counter_values(registry):
    snap = snapshot(registry)
    return {
        name: {labels: state["value"] for labels, state in snap[name].items()}
        for name in EXACT_COUNTERS
    }


def assert_equivalent(first, second, first_samples=None, second_samples=None,
                      counters=True):
    """Bit-identical refresh output: graphs, stats, samples, counters."""
    a, b = first.latest_result, second.latest_result
    assert list(a.graphs) == list(b.graphs)
    for key, graph in a.graphs.items():
        assert b.graphs[key].to_dict() == graph.to_dict(), key
    for field in ("correlations", "spikes", "edges_discovered", "graphs",
                  "nodes_visited"):
        assert getattr(a.stats, field) == getattr(b.stats, field), field
    if first_samples is not None:
        assert len(first_samples) == len(second_samples)
        for s, o in zip(first_samples, second_samples):
            for field in SAMPLE_FIELDS:
                assert getattr(s, field) == getattr(o, field), field
    if counters:
        assert counter_values(first.metrics) == counter_values(second.metrics)


class TestRepeatability:
    def test_two_runs_are_bit_identical(self):
        first, f_samples = run_engine(metrics=MetricsRegistry(enabled=True))
        second, s_samples = run_engine(metrics=MetricsRegistry(enabled=True))
        assert max(s.correlator_skips for s in f_samples) > 0
        assert_equivalent(first, second, f_samples, s_samples)

    def test_adaptive_outputs_are_repeatable(self):
        first, _ = run_engine(adaptive=True)
        second, _ = run_engine(adaptive=True)
        assert_equivalent(first, second, counters=False)
        # Confidence reports are dataclasses of floats computed from the
        # same block history: bit-identical, class for class.
        assert first.latest_confidence == second.latest_confidence
        assert first.confidence_score == second.confidence_score
        assert first.latest_result.confidence == second.latest_result.confidence
        # And the tuner saw identical statistics, so it recommended
        # identical configs.
        assert first.latest_recommendations == second.latest_recommendations
        assert first.latest_recommendations, (
            "adaptive engine must produce recommendations for active classes"
        )

    def test_adaptive_flag_gates_recommendations(self):
        engine, _ = run_engine(adaptive=False)
        assert engine.latest_recommendations == {}
        assert engine.latest_confidence  # confidence is always on


class TestScenarioSweep:
    """Every scenario in :mod:`repro.scenarios`, run twice, publishes the
    same bits (fanout_mesh, the largest, rides in tier-2)."""

    @staticmethod
    def scenario_params():
        from repro.scenarios import list_scenarios

        return [
            pytest.param(s.name, marks=pytest.mark.slow)
            if s.name == "fanout_mesh"
            else s.name
            for s in list_scenarios()
        ]

    @staticmethod
    def run_scenario(name):
        from repro.scenarios import get_scenario

        run = get_scenario(name).build(seed=11)
        engine = E2EProfEngine(run.config, metrics=MetricsRegistry(enabled=True))
        samples = []
        engine.subscribe_metrics(lambda now, result, sample: samples.append(sample))
        engine.attach(run.topology)
        run.simulate()
        engine.detach()
        assert engine.latest_result is not None, name
        return engine, samples

    @pytest.mark.parametrize("name", scenario_params.__func__())
    def test_scenario_runs_bit_identical(self, name):
        first, f_samples = self.run_scenario(name)
        second, s_samples = self.run_scenario(name)
        assert f_samples, name
        assert_equivalent(first, second, f_samples, s_samples)


def labels(graphs):
    """Per class: every delayed edge's key -> its minimum delay."""
    return {
        pair: {edge.key: edge.min_delay for edge in graph.edges if edge.delays}
        for pair, graph in graphs.items()
    }


def oracle_checks(config=CFG, **kwargs):
    """``run_engine`` with every refresh checked against the dense
    reference pathmap over the engine's own block history; returns one
    ``(now, matched)`` per refresh and the engine. (The engine isolates
    subscriber exceptions, so verdicts are collected and asserted
    afterwards.)"""
    checked = []

    def check(engine, now, result):
        expected = compute_service_graphs(HostWindow(engine), config, method="dense")
        checked.append((now, labels(result.graphs) == labels(expected.graphs)))

    engine, _ = run_engine(config=config, on_refresh=check, **kwargs)
    return checked, engine


class TestBatchedEquivalence:
    """The grouped, quiet-skipping refresh publishes the graphs of the
    dense reference kernel, refresh for refresh."""

    def test_batched_engine_matches_dense_oracle(self):
        checked, _ = oracle_checks()
        assert checked == [(float(now), True) for now in range(2, 20, 2)]

    def test_batched_matches_dense_oracle_on_smeared_dense_blocks(self):
        # Smearing over many quanta produces near-dense blocks -- the
        # regime where the density dispatch must route rows to the RLE
        # kernel instead of the sparse batch kernel.
        dense_cfg = dataclasses.replace(CFG, sampling_window=50e-3)
        checked, engine = oracle_checks(
            config=dense_cfg, seed=4, end_time=14.0, classes=4, quiet_fraction=0.25
        )
        assert checked == [(float(now), True) for now in range(2, 16, 2)]
        assert sum(led.kernel(KERNEL_RLE).rows for led in engine.ledger.history()) > 0

    def test_batched_skip_counts_respond_to_quiet_classes(self):
        _, samples = run_engine(end_time=20.0)
        # While every class is active (first refreshes) nothing is
        # skipped; once half the classes stop, skips appear.
        assert samples[0].correlator_skips == 0
        assert samples[-1].correlator_skips > 0


class TestEdgeSeriesRefactor:
    def test_single_pass_concat_matches_pairwise_chain(self):
        engine, _ = run_engine(end_time=14.0)
        edges = list(engine._blocks)
        assert edges
        for edge in edges:
            got = engine._edge_series(edge)
            # The pre-refactor implementation: fold the blocks through
            # pairwise DensityTimeSeries.concatenated() calls.
            blocks = [b.to_sparse() for b in engine._blocks[edge]]
            expected = functools.reduce(lambda a, b: a.concatenated(b), blocks)
            assert got.start == expected.start
            assert got.length == expected.length
            assert got.quantum == expected.quantum
            assert np.array_equal(got.indices, expected.indices)
            assert np.array_equal(got.values, expected.values)

    def test_edge_series_missing_edge_raises(self):
        engine, _ = run_engine(end_time=10.0)
        with pytest.raises(AnalysisError):
            engine._edge_series(("nope", "nowhere"))


def _listing(path):
    """Entries of a directory, or an empty set where it does not exist."""
    try:
        return set(os.listdir(path))
    except OSError:
        return set()


class TestResourceLifecycle:
    @pytest.mark.filterwarnings("error")
    def test_engine_close_releases_resources(self, tmp_path):
        gc.collect()
        threads_before = set(threading.enumerate())
        shm_before = _listing("/dev/shm")
        fds_before = _listing("/proc/self/fd")

        deployment = build_many_class(
            classes=4, quiet_fraction=0.0, seed=5, request_rate=10.0,
            quiet_after=5.0, config=CFG,
        )
        lake = TraceLake(tmp_path / "lake")
        engine = E2EProfEngine(
            CFG,
            transport=TransportConfig(),
            capture_sink=TraceCollector(
                client_nodes=deployment.topology.collector.clients,
                retention=CFG.retention_horizon,
            ),
            lake=lake,
            metrics=MetricsRegistry(enabled=True),
        )
        engine.attach(deployment.topology)
        deployment.run_until(10.0)
        assert engine.latest_result is not None
        assert lake.stats()["journal_bytes"] > 0

        engine.close()
        engine.close()  # idempotent
        del engine, lake, deployment
        gc.collect()

        assert set(threading.enumerate()) == threads_before
        assert multiprocessing.active_children() == []
        assert _listing("/dev/shm") - shm_before == set()
        assert _listing("/proc/self/fd") - fds_before == set()
