"""AUDIT -- the refresh ledger accounts for the refresh, stage by stage.

Every refresh yields one ledger whose stage times (ingest, correlate,
dfs, publish, spill) are meant to sum to the refresh wall and to mean
what their names say. This audit replays 30 refreshes of each end-to-end
workload, traced, through ``benchmarks/e2e/replay.run_pass`` (imported
unchanged; only the engine it builds gets its span tracer switched on)
and asserts, over the refreshes past warm-up:

* the wall the ledger's stages leave unattributed is under
  :data:`UNATTRIBUTED_SHARE` of the harness-measured refresh wall;
* the ``correlate`` and ``dfs`` stages agree with the engine's own
  ``engine.correlators`` and ``engine.pathmap`` spans -- each stage
  covers its span (it also holds the work around it: block storage and
  late-block patching, the DFS's window view) and exceeds it by at most
  :data:`STAGE_SLACK` of the stage plus :data:`STAGE_SLACK_S` per
  refresh.

Results land in ``benchmarks/results/ledger_attribution_<workload>.txt``.
"""

import pathlib
import sys

import pytest

from conftest import write_result

from repro.analysis.render import render_comparison_table

E2E = pathlib.Path(__file__).parent / "e2e"
sys.path.insert(0, str(E2E))

import capture  # noqa: E402
import replay  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFRESHES = 30
SEED = 3
#: Largest share of the refresh wall the ledger's stages may leave out.
UNATTRIBUTED_SHARE = 0.05
#: A stage may exceed its span by this share of the stage, plus
#: STAGE_SLACK_S seconds per refresh.
STAGE_SLACK = 0.10
STAGE_SLACK_S = 2e-4
#: Ledger stage -> the engine span that covers its work.
STAGE_SPANS = {"correlate": "engine.correlators", "dfs": "engine.pathmap"}

pytestmark = pytest.mark.slow


def traced_pass(name, tmp_path, monkeypatch):
    """30 replayed refreshes of workload ``name`` with both the harness
    span recorder and the engine's span tracer on; returns the spec, the
    pass result and the engine's span seconds per refresh and name."""
    spec = WORKLOADS[name].sized(REFRESHES)
    workdir = tmp_path / name
    workdir.mkdir()
    capture.generate(spec.name, SEED, workdir, spec.refreshes)
    spans = []
    attach = replay.attach_engine

    def attach_traced(*args, **kwargs):
        engine = attach(*args, **kwargs)
        engine.tracer.enable()
        engine.subscribe(lambda now, result: spans.append(
            {span.name: span.duration for span in engine.tracer.drain()}
        ))
        return engine

    monkeypatch.setattr(replay, "attach_engine", attach_traced)
    result = replay.run_pass(spec, workdir, workdir / "lake", recorder=SpanRecorder())
    return spec, result, spans


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_ledger_accounts_for_the_refresh(name, tmp_path, monkeypatch):
    spec, result, spans = traced_pass(name, tmp_path, monkeypatch)
    rounds = result.refreshes[spec.warmup_refreshes:]
    measured = spans[spec.warmup_refreshes:]
    assert len(rounds) == len(measured) > 0
    assert all(r.error is None for r in rounds)

    wall = sum(r.refresh_s for r in rounds)
    staged = sum(r.ledger.stage_seconds(s) for r in rounds for s in r.ledger.stages)
    unattributed = (wall - staged) / wall
    rows = [["unattributed", f"{(wall - staged) * 1e3:.1f}", f"{wall * 1e3:.1f}",
             f"{unattributed:.1%}"]]
    gaps = {}
    for stage, span in STAGE_SPANS.items():
        stage_s = sum(r.ledger.stage_seconds(stage) for r in rounds)
        span_s = sum(s.get(span, 0.0) for s in measured)
        gaps[stage] = (stage_s, span_s)
        rows.append([f"{stage} vs {span}", f"{stage_s * 1e3:.1f}", f"{span_s * 1e3:.1f}",
                     f"{(stage_s - span_s) / stage_s:.1%}"])
    write_result(
        f"ledger_attribution_{name}.txt",
        render_comparison_table(
            ["check", "ledger (ms)", "reference (ms)", "gap"], rows,
            title=f"Ledger attribution, {name}: {len(rounds)} refreshes past warm-up",
        ),
    )

    assert unattributed < UNATTRIBUTED_SHARE, (
        f"{name}: ledger stages leave {unattributed:.1%} of the refresh wall unattributed"
    )
    for stage, (stage_s, span_s) in gaps.items():
        assert span_s > 0, f"{name}: no {STAGE_SPANS[stage]} span recorded"
        assert stage_s >= span_s, f"{name}: {stage} stage shorter than its span"
        assert stage_s - span_s <= STAGE_SLACK * stage_s + STAGE_SLACK_S * len(rounds), (
            f"{name}: {stage} stage {stage_s * 1e3:.1f} ms vs "
            f"{STAGE_SPANS[stage]} span {span_s * 1e3:.1f} ms"
        )
