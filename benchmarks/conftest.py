"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it
prints the same rows/series the paper reports and also writes them under
``benchmarks/results/`` so EXPERIMENTS.md can be checked against fresh
runs. Simulated traces are session-scoped: the *analysis* is what the
paper benchmarks, not the workload generation.
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro import PathmapConfig, analyze_window
from repro.apps.rubis import build_rubis

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: RUBiS analysis parameters for benchmarks: the paper's tau/omega, a
#: transaction bound fitting the simulated transactions.
BENCH_CONFIG = PathmapConfig(
    window=180.0,
    refresh_interval=60.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=2.0,
    min_spike_height=0.10,
)


@pytest.fixture
def benchmark():
    """Time one call of ``fn(*args, **kwargs)`` and return its result;
    the seconds it took are left on ``benchmark.seconds``. Stands in for
    pytest-benchmark's fixture, so the paper benches need only pytest."""

    def timed(fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        timed.seconds = time.perf_counter() - started
        return result

    return timed


def write_result(name: str, text: str) -> pathlib.Path:
    """Persist a paper-artifact table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")
    return path


@pytest.fixture(scope="session")
def rubis_affinity():
    """RUBiS, affinity dispatch, 3+ minutes of trace (Figure 5 setup)."""
    rubis = build_rubis(dispatch="affinity", seed=7, request_rate=10.0,
                        config=BENCH_CONFIG)
    rubis.run_until(185.0)
    return rubis


@pytest.fixture(scope="session")
def rubis_roundrobin():
    """RUBiS, round-robin dispatch (Figure 6 setup)."""
    rubis = build_rubis(dispatch="round_robin", seed=8, request_rate=10.0,
                        config=BENCH_CONFIG)
    rubis.run_until(185.0)
    return rubis


@pytest.fixture(scope="session")
def affinity_result(rubis_affinity):
    return analyze_window(rubis_affinity.collector, BENCH_CONFIG, end=183.0)


@pytest.fixture(scope="session")
def roundrobin_result(rubis_roundrobin):
    return analyze_window(rubis_roundrobin.collector, BENCH_CONFIG, end=183.0)
