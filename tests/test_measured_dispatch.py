"""Measured-cost kernel dispatch must change routing, never results.

``PathmapConfig.measured_dispatch`` swaps the density dispatch rule's
modeled RLE cost constant for the ledger's measured ns/unit EWMAs. Both
correlation kernels produce bitwise-identical lag products, so the only
observable difference is *which* kernel did the work -- pinned here with
a hypothesis property over workload seeds, plus forced-EWMA tests that
flip the dispatch both ways and still demand identical graphs.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.apps.manyclass import build_many_class  # noqa: E402
from repro.config import PathmapConfig  # noqa: E402
from repro.core.correlation import (  # noqa: E402
    MODELED_RLE_COST_RATIO,
    rle_dispatch_units,
    sparse_dispatch_units,
)
from repro.core.engine import E2EProfEngine  # noqa: E402
from repro.obs.ledger import (  # noqa: E402
    KERNEL_RLE,
    KERNEL_SPARSE_BATCH,
    Ewma,
)

CFG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=1e-3,
    max_transaction_delay=1.0,
    min_spike_height=0.10,
)

MEASURED_CFG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=1e-3,
    max_transaction_delay=1.0,
    min_spike_height=0.10,
    measured_dispatch=True,
)


def run_engine(seed=3, end_time=12.0, classes=4, config=CFG, warm=None,
               **engine_kwargs):
    """A many-class run with an engine attached; returns the engine."""
    deployment = build_many_class(
        classes=classes,
        quiet_fraction=0.5,
        seed=seed,
        request_rate=10.0,
        quiet_after=5.0,
        config=config,
    )
    engine = E2EProfEngine(config, **engine_kwargs)
    if warm is not None:
        # Warm the kernel cost EWMAs through the public recording path:
        # one synthetic pre-refresh per (kernel -> ns/unit) entry.
        engine.ledger.begin_refresh()
        for kernel, ns_per_unit in warm.items():
            engine.ledger.record_kernel(
                kernel, rows=1, seconds=ns_per_unit * 1e-9, work_units=1.0
            )
        engine.ledger.complete(0.0, -1, refresh_seconds=0.0)
    engine.attach(deployment.topology)
    deployment.run_until(end_time)
    engine.detach()
    assert engine.latest_result is not None
    return engine


def assert_identical_graphs(a, b):
    ra, rb = a.latest_result, b.latest_result
    assert set(ra.graphs) == set(rb.graphs)
    for key, graph in ra.graphs.items():
        assert rb.graphs[key].to_dict() == graph.to_dict(), key
    assert ra.stats.correlations == rb.stats.correlations
    assert ra.stats.spikes == rb.stats.spikes


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_measured_equals_modeled(self, seed):
        modeled = run_engine(seed=seed, config=CFG)
        measured = run_engine(seed=seed, config=MEASURED_CFG)
        assert modeled.measured_dispatch is False
        assert measured.measured_dispatch is True
        assert_identical_graphs(modeled, measured)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_measured_equals_modeled_property(self, seed):
        modeled = run_engine(seed=seed, end_time=9.0, classes=3, config=CFG)
        measured = run_engine(seed=seed, end_time=9.0, classes=3,
                              config=MEASURED_CFG)
        assert_identical_graphs(modeled, measured)


class TestForcedDispatchFlip:
    def test_cheap_sparse_ewma_routes_everything_to_sparse(self):
        engine = run_engine(
            seed=5, config=MEASURED_CFG,
            warm={KERNEL_SPARSE_BATCH: 1e-3, KERNEL_RLE: 1e9},
        )
        rows = {k: sum(led.kernel(k).rows for led in engine.ledger.history()
                       if led.sequence >= 0)  # skip the synthetic warm-up
                for k in (KERNEL_SPARSE_BATCH, KERNEL_RLE)}
        assert rows[KERNEL_SPARSE_BATCH] > 0
        assert rows[KERNEL_RLE] == 0
        assert_identical_graphs(engine, run_engine(seed=5, config=CFG))

    def test_cheap_rle_ewma_routes_everything_to_rle(self):
        engine = run_engine(
            seed=5, config=MEASURED_CFG,
            warm={KERNEL_SPARSE_BATCH: 1e9, KERNEL_RLE: 1e-3},
        )
        rows = {k: sum(led.kernel(k).rows for led in engine.ledger.history()
                       if led.sequence >= 0)  # skip the synthetic warm-up
                for k in (KERNEL_SPARSE_BATCH, KERNEL_RLE)}
        assert rows[KERNEL_RLE] > 0
        assert rows[KERNEL_SPARSE_BATCH] == 0
        assert_identical_graphs(engine, run_engine(seed=5, config=CFG))

    def test_cold_ewmas_fall_back_to_modeled_rule(self):
        """Until *both* kernels' ns/unit EWMAs are warm, measured
        dispatch must route exactly like the modeled rule."""
        modeled = run_engine(seed=13, config=CFG)
        measured = run_engine(seed=13, config=MEASURED_CFG)
        for a, b in zip(modeled.ledger.history(), measured.ledger.history()):
            if (measured.ledger.ns_per_unit(KERNEL_SPARSE_BATCH) is None
                    or measured.ledger.ns_per_unit(KERNEL_RLE) is None):
                for kernel in (KERNEL_SPARSE_BATCH, KERNEL_RLE):
                    assert a.kernel(kernel).rows == b.kernel(kernel).rows


class TestPlumbing:
    def test_config_flag_reaches_engine(self):
        assert E2EProfEngine(CFG).measured_dispatch is False
        assert E2EProfEngine(MEASURED_CFG).measured_dispatch is True

    def test_engine_param_overrides_config(self):
        assert E2EProfEngine(CFG, measured_dispatch=True).measured_dispatch is True
        assert E2EProfEngine(MEASURED_CFG,
                             measured_dispatch=False).measured_dispatch is False


class TestDispatchUnits:
    def test_sparse_units_formula(self):
        assert sparse_dispatch_units(10, 20, 100, 4) == pytest.approx(
            10 * 5 * 20 / 100
        )

    def test_sparse_units_guards_empty_span(self):
        assert sparse_dispatch_units(10, 20, 0, 4) == pytest.approx(10 * 5 * 20)

    def test_rle_units_formula(self):
        assert rle_dispatch_units(6, 7) == 42.0
        assert MODELED_RLE_COST_RATIO == 4.0


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
