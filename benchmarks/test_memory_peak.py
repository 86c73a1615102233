"""MEMORY -- the warm-up of ``sparse_manyclass`` stays within its cut peak.

While all 28 classes of ``sparse_manyclass`` are loud (warm-up refreshes
2-6) the DFS creates ~1,600 correlator rows a refresh, and the bank holds
the products of every loud block pair. This gate replays the workload's
warm-up and first two measured refreshes (seed 3) through
``benchmarks/e2e/replay.run_pass`` -- imported unchanged; only the
engine it builds has its ``refresh`` wrapped to read the peak -- under
``tracemalloc``, and asserts the highest traced peak of a refresh
against :data:`PEAK_BOUND_MB`.

Measured on a 2-core box (numpy 2.4.6, Python 3.11.7), traced peak of
refreshes 1-6 in MB:

========================================  =====  =====  =====  =====  =====  =====
store                                         1      2      3      4      5      6
========================================  =====  =====  =====  =====  =====  =====
dense pair vectors, whole-slot kernels     71.7  136.7  187.9  199.2  158.4  183.3
pair products kept as their nonzeros       55.9   88.3  100.4  113.2  102.7   91.7
========================================  =====  =====  =====  =====  =====  =====

The bound sits 20% above the compact store's 113.2 MB and 32% below
the dense store's 199.2 MB: storing pair vectors dense again, or
building a pair slot's kernel output for every row at once, fails it.

Results land in ``benchmarks/results/memory_peak.txt``.
"""

import pathlib
import sys
import tracemalloc

import pytest

from conftest import write_result

from repro.analysis.render import render_comparison_table

E2E = pathlib.Path(__file__).parent / "e2e"
sys.path.insert(0, str(E2E))

import capture  # noqa: E402
import replay  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD = "sparse_manyclass"
SEED = 3
#: The six warm-up refreshes and two measured ones.
REFRESHES = 8
#: Highest traced peak of one refresh, MB (see the module docstring).
PEAK_BOUND_MB = 136.0

pytestmark = pytest.mark.slow


def test_warm_up_peak_stays_cut(tmp_path, monkeypatch):
    spec = WORKLOADS[WORKLOAD].sized(REFRESHES)
    capture.generate(spec.name, SEED, tmp_path, spec.refreshes)
    peaks, stores = [], []
    attach = replay.attach_engine

    def attach_measured(*args, **kwargs):
        engine = attach(*args, **kwargs)
        refresh = engine.refresh

        def measured(now):
            tracemalloc.reset_peak()
            try:
                return refresh(now)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
                stores.append(engine._bank.pair_nbytes / 1e6)

        engine.refresh = measured
        return engine

    monkeypatch.setattr(replay, "attach_engine", attach_measured)
    tracemalloc.start()
    try:
        result = replay.run_pass(spec, tmp_path, tmp_path / "lake")
    finally:
        tracemalloc.stop()
    assert all(r.error is None for r in result.refreshes)
    assert len(peaks) == REFRESHES
    write_result(
        "memory_peak.txt",
        render_comparison_table(
            ["refresh", "traced peak (MB)", "pair store after (MB)"],
            [[str(k + 1), f"{p:.1f}", f"{s:.1f}"] for k, (p, s) in enumerate(zip(peaks, stores))],
            title=f"Traced peak per refresh, {WORKLOAD} seed {SEED}",
        ),
    )
    assert max(peaks) <= PEAK_BOUND_MB, (
        f"{WORKLOAD}: a refresh peaked at {max(peaks):.1f} MB traced "
        f"(bound {PEAK_BOUND_MB} MB): {[round(p, 1) for p in peaks]}"
    )
