"""ACCURACY -- self-tuning analysis vs every static config, with labels.

The paper fixes (tau, omega, T_u) per deployment and concedes (Section
4.3) that drastic traffic variation degrades the pathmaps. This bench
replays the labeled non-steady-state scenario suite -- flash crowd,
diurnal cycle, retry storm, cache stampede, canary shift, traffic
trough, a 128-node fan-out mesh and a steady baseline -- and grades
each analysis mode against the simulator's exact ground truth.

Headline claims asserted here:

* **Adaptive wins in aggregate.** The self-tuning loop's mean F1 over
  the whole suite beats every static grid resolution.
* **Steady state is not the price.** On the steady scenarios the
  adaptive loop stays within a small margin of the best static config.
* **Changes are seen.** The retry storm's injected backend slowdown is
  detected by the change detector under the adaptive loop.
* **The committed scorecard is live.** ``BENCH_scenarios.json`` at the
  repository root matches a fresh run's accuracy fields exactly --
  simulation, analysis and scoring are deterministic per seed.

Results land in ``benchmarks/results/scenario_matrix.txt``.
"""

import json
import pathlib

import pytest

from repro.scenarios import list_scenarios
from repro.scenarios.runner import MODES, score_matrix

from conftest import write_result

SEED = 0
#: Adaptive may trail the best static config by at most this much F1 on
#: steady scenarios (it must not buy non-steady wins with steady losses).
STEADY_TOLERANCE = 0.05

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"


@pytest.fixture(scope="module")
def matrix():
    names = [scenario.name for scenario in list_scenarios()]
    assert len(names) >= 6, "the suite must span at least six scenarios"
    return score_matrix(names, MODES, seed=SEED)


def test_adaptive_beats_every_static_aggregate(matrix):
    aggregates = matrix["aggregate_f1_by_mode"]
    adaptive = aggregates["adaptive"]
    rows = [["mode", "aggregate F1"]]
    for mode in matrix["modes"]:
        rows.append([mode, f"{aggregates[mode]:.4f}"])
    write_result(
        "scenario_matrix.txt",
        "\n".join("  ".join(str(c).ljust(10) for c in row) for row in rows),
    )
    for mode in matrix["modes"]:
        if mode == "adaptive":
            continue
        assert adaptive >= aggregates[mode], (
            f"adaptive aggregate F1 {adaptive:.4f} lost to static "
            f"{mode!r} at {aggregates[mode]:.4f}"
        )


def test_steady_scenarios_unregressed(matrix):
    steady = [r for r in matrix["scores"] if r["steady"]]
    assert steady, "the suite must contain steady scenarios"
    by_scenario = {}
    for row in steady:
        by_scenario.setdefault(row["scenario"], {})[row["mode"]] = row
    for name, modes in by_scenario.items():
        best_static = max(
            row["aggregate_f1"]
            for mode, row in modes.items()
            if mode != "adaptive"
        )
        adaptive = modes["adaptive"]["aggregate_f1"]
        assert adaptive >= best_static - STEADY_TOLERANCE, (
            f"steady scenario {name!r}: adaptive F1 {adaptive:.4f} regressed "
            f"more than {STEADY_TOLERANCE} below best static {best_static:.4f}"
        )


def test_retry_storm_change_detected(matrix):
    rows = [
        r
        for r in matrix["scores"]
        if r["scenario"] == "retry_storm" and r["mode"] == "adaptive"
    ]
    assert rows, "retry_storm must be part of the matrix"
    latencies = rows[0]["detection_latencies"]
    assert latencies and latencies[0] is not None, (
        "adaptive analysis missed the retry storm's backend slowdown"
    )


def test_committed_scorecard_matches_fresh_run(matrix):
    assert BENCH_PATH.exists(), (
        "BENCH_scenarios.json is missing: regenerate with "
        "PYTHONPATH=src python -m repro scenarios score -o BENCH_scenarios.json"
    )
    committed = json.loads(BENCH_PATH.read_text(encoding="utf-8"))

    def accuracy_only(doc):
        return {
            "seed": doc["seed"],
            "scenarios": doc["scenarios"],
            "modes": doc["modes"],
            "aggregate_f1_by_mode": doc["aggregate_f1_by_mode"],
            "steady_aggregate_f1_by_mode": doc["steady_aggregate_f1_by_mode"],
            "scores": [
                {k: v for k, v in row.items() if k != "elapsed_seconds"}
                for row in doc["scores"]
            ],
        }

    assert accuracy_only(committed) == accuracy_only(matrix), (
        "committed BENCH_scenarios.json is stale: regenerate with "
        "PYTHONPATH=src python -m repro scenarios score -o BENCH_scenarios.json"
    )
