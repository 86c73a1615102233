"""The public API surface: everything in __all__ importable and documented."""

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_public_items_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_version(self):
        assert repro.__version__

    def test_error_hierarchy(self):
        for name in ("ConfigError", "TraceError", "SeriesError",
                     "CorrelationError", "TopologyError", "SimulationError",
                     "AnalysisError"):
            assert issubclass(getattr(repro, name), repro.E2EProfError)

    def test_quickstart_flow(self):
        """The README quickstart must actually run."""
        rubis = repro.build_rubis(dispatch="affinity", seed=7, request_rate=8.0)
        rubis.run_until(35.0)
        config = repro.PathmapConfig(
            window=30.0, refresh_interval=30.0, quantum=1e-3,
            sampling_window=50e-3, max_transaction_delay=2.0,
        )
        result = repro.analyze_window(rubis.collector, config, end=33.0)
        graph = result.graph_for("C1")
        assert graph.has_edge("WS", "TS1")
