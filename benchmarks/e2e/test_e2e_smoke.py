"""Smoke test of the end-to-end benchmark (not part of tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs at a 14-refresh size through the same code as the
full benchmark (child-process capture, untraced + traced pass, oracles).
"""

from __future__ import annotations

import copy
import json
import math
import pathlib

import pytest

import capture
import metrics
import oracle
import replay
import run
from workloads import WORKLOADS

SMOKE_REFRESHES = 14
SEED = 3
#: The ledger's stages must cover the traced refresh wall to within this
#: share (5% at full size; the tiny smoke refreshes get more slack).
UNATTRIBUTED_TOLERANCE = 0.10

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def des_attached_digest(spec, seed: int, lake_dir: pathlib.Path) -> str:
    """Digest of what an engine attached to the *running* simulation publishes."""
    deployment = spec.build(seed)
    engine = replay.attach_engine(spec, deployment.topology, lake_dir)
    published = []
    engine.subscribe(lambda now, result: published.append(result.graphs))
    try:
        deployment.run_until(spec.simulated_seconds)
    finally:
        engine.close()
    return oracle.graph_digest(published)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_end_to_end(name, tmp_path):
    spec = WORKLOADS[name].sized(SMOKE_REFRESHES)
    result = run.run_workload(spec, SEED, seconds=0.0, trace=True)

    assert result["correct"], result["mismatches"]
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * spec.measured_refreshes
    assert result["digest"] == des_attached_digest(spec, SEED, tmp_path / "lake")

    for declared, got in (
        (BENCHMARK["end_to_end"], result["end_to_end"]),
        (BENCHMARK["per_layer"], result["metrics"]),
    ):
        assert {m["name"] for m in declared} == set(got)
        for metric in declared:
            value, unit = got[metric["name"]]
            assert math.isfinite(value), metric["name"]
            assert unit == metric["unit"], metric["name"]
    assert result["end_to_end"]["setup_s"][0] > 0
    assert metrics.unattributed_share(result["metrics"]) <= UNATTRIBUTED_TOLERANCE

    trace_file = run.RESULTS / f"trace_{name}.json"
    spans = json.loads(trace_file.read_text())
    assert spans["columns"] == ["name", "start_s", "end_s", "parent", "refresh"]
    assert "engine.refresh" in spans["names"] and len(spans["spans"]) > SMOKE_REFRESHES


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (spec.name, spec.why) for spec in WORKLOADS.values()
    ]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    for spec in WORKLOADS.values():
        assert spec.measured_refreshes >= 110


def test_corrupted_edge_fails_the_oracle(tmp_path):
    spec = WORKLOADS["fanout_mesh"].sized(SMOKE_REFRESHES)
    capture.simulate(spec, SEED, tmp_path)
    result = replay.run_pass(spec, tmp_path, tmp_path / "lake")
    ref = oracle.reference_collector(
        replay.load_batches(tmp_path), {c for c, _ in result.classes.values()}
    )
    last = result.refreshes[-1]
    config = spec.config()
    assert oracle.check_refresh(last.graphs, last.now, ref, config) == []

    corrupted = copy.deepcopy(last.graphs)
    edge = next(e for g in corrupted.values() for e in g.edges if e.delays and e.src != g.client)
    edge.delays[0] += 5 * config.quantum
    problems = oracle.check_refresh(corrupted, last.now, ref, config)
    assert problems and "min_delay" in problems[0]

    dropped = dict(last.graphs)
    dropped.pop(next(iter(dropped)))
    assert "class pairs differ" in oracle.check_refresh(dropped, last.now, ref, config)[0]


def test_truth_index_matches_the_library_recorder():
    spec = WORKLOADS["fanout_mesh"]
    deployment = spec.build(SEED)
    fronts = capture.class_fronts(deployment)
    recorder = capture.TruthRecorder(fronts)
    deployment.topology.fabric.add_capture_hook(recorder.on_capture)
    library = {cls: deployment.topology.ground_truth(front) for cls, front in fronts.items()}
    deployment.run_until(20.0)
    index = capture.TruthIndex(recorder.tables())
    for cls, truth in library.items():
        for since, until in ((0.0, 20.0), (4.0, 12.0), (11.95, 19.95)):
            expected = truth.traversed_edges(cls, since=since, until=until)
            assert index.traversed_edges(cls, since=since, until=until) == expected
            for edge in expected:
                assert index.mean_edge_delay(cls, edge, since, until) == pytest.approx(
                    truth.mean_edge_delay(cls, edge, since, until), rel=1e-12
                )
