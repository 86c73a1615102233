"""Scenario runner: replay the analysis over a simulated run and grade it.

Simulate the scenario once, then analyze its stored trace refresh by
refresh and grade each class against ground truth. Two analysis modes:

* :func:`analyze_static` -- one fixed :class:`PathmapConfig` for every
  refresh (the scenario's base config, or any config re-paced to the
  scenario's W/dW), run by the online engine itself: one
  :func:`~repro.core.offline.replay` of the run's collector, each
  refresh graded over the window the engine analyzed. The static grid
  (:data:`STATIC_GRID`) is what the benchmark matrix sweeps.
* :func:`analyze_adaptive` -- the closed loop, from scratch. Every refresh,
  per class: calibrate traffic statistics from the class's observed
  reference-edge timestamps, auto-tune (tau, omega, T_u) with
  :func:`~repro.core.autotune.autotune_config` (the transaction-delay
  hint comes from the previous refresh's graph), group classes that
  tuned to the same config, and analyze each group at its own
  resolution. A :class:`~repro.core.change_detection.ChangeDetector`
  watches every refresh; after a detected shift, windows that straddle
  the change point are clipped to the post-change span, so delay labels
  re-converge in one refresh instead of a full window. Classes whose
  window contains no traffic are reported as silence, never analyzed
  from stale data.

Both modes return a :class:`~repro.scenarios.scoring.ScenarioScore`.
:func:`score_matrix` grades named scenarios under every mode in
:data:`MODES` into the scorecard document that ``repro scenarios score``
writes and ``BENCH_scenarios.json`` commits.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import PathmapConfig
from repro.core.autotune import (
    TrafficStats,
    autotune_config,
    observed_delay_bound,
)
from repro.core.change_detection import ChangeDetector
from repro.core.engine import E2EProfEngine
from repro.core.offline import replay
from repro.core.pathmap import PathmapResult, compute_service_graphs
from repro.errors import AnalysisError
from repro.scenarios.base import ScenarioRun
from repro.scenarios.library import get_scenario
from repro.scenarios.scoring import (
    ScenarioScore,
    detection_latencies,
    score_refresh,
)
from repro.tracing.records import NodeId

#: The static resolution grid the benchmark matrix sweeps: name ->
#: (tau seconds, omega in quanta, T_u seconds). "fast" is the paper's
#: RUBiS resolution; "slow" suits 100ms+ services; "medium" splits the
#: difference. Each is re-paced to the scenario's own W/dW.
STATIC_GRID: Dict[str, Tuple[float, int, float]] = {
    "fast": (1e-3, 50, 0.5),
    "medium": (5e-3, 50, 2.0),
    "slow": (20e-3, 50, 10.0),
}

#: Every analysis mode the scorecard grades, adaptive first.
MODES: Tuple[str, ...] = ("adaptive",) + tuple(sorted(STATIC_GRID))


def grid_config(run: ScenarioRun, name: str) -> PathmapConfig:
    """The named grid resolution re-paced to ``run``'s window/refresh."""
    tau, omega_quanta, tu = STATIC_GRID[name]
    return run.config.with_resolution(tau, omega_quanta, tu)


def _repace(run: ScenarioRun, config: PathmapConfig) -> PathmapConfig:
    """Force ``config`` onto the scenario's pacing so refresh grading
    stays comparable across configs (resolution is what varies)."""
    if (
        config.window == run.config.window
        and config.refresh_interval == run.config.refresh_interval
    ):
        return config
    return dataclasses.replace(
        config,
        window=run.config.window,
        refresh_interval=run.config.refresh_interval,
    )


def analyze_static(
    run: ScenarioRun,
    config: Optional[PathmapConfig] = None,
    mode: str = "static",
) -> ScenarioScore:
    """Grade one fixed config over every refresh of the scenario.

    The engine replays the run's trace, its first full window ending at
    the first gradeable refresh; each refresh at ``now`` is graded over
    the window it analyzed, ``[now - W - omega, now - omega)``."""
    run.simulate()
    cfg = run.config if config is None else _repace(run, config)
    engine = E2EProfEngine(cfg)
    detector = ChangeDetector()
    detector.subscribe_to(engine)
    ends = run.refresh_ends()
    keys = run.class_keys()
    cells = []
    refreshes = replay(
        run.topology.collector, engine, ends[0] - cfg.window, ends[-1]
    )
    for now, result in refreshes:
        end = now - cfg.sampling_window
        for cls, (client, front) in keys.items():
            graph = result.graphs.get((client, front))
            cells.append(
                score_refresh(
                    graph, run.truths[cls], cls, client, end - cfg.window, end
                )
            )
    detections = [
        (e.time, e.edge, e.time - cfg.sampling_window) for e in detector.events()
    ]
    return ScenarioScore(
        run.name,
        mode,
        run.seed,
        cells,
        detection_latencies(run.change_points, detections),
    )


#: A change event smaller than this (seconds) does not trigger window
#: clipping: a 10 ms shift, ten quanta at the paper's RUBiS resolution.
MIN_CLIP_SHIFT = 0.01

#: Classes with fewer reference-edge observations than this in a window
#: are reported as silence (no analysis can be calibrated on them).
MIN_CALIBRATION_REQUESTS = 2


def analyze_adaptive(run: ScenarioRun, mode: str = "adaptive") -> ScenarioScore:
    """Grade the self-tuning analysis over every refresh of the scenario."""
    run.simulate()
    base = run.config
    collector = run.topology.collector
    detector = ChangeDetector()
    keys = run.class_keys()
    cells = []
    #: Per-class transaction-delay hint from the previous refresh.
    delay_hints: Dict[str, float] = {}
    #: Time of the latest clip-worthy detected change (None = none yet).
    change_clip: Optional[float] = None

    for end in run.refresh_ends():
        start = end - base.window
        # Clip windows that straddle a detected change: keep only the
        # span from one refresh before the detection (the change lies in
        # (detect - dW, detect]) so two delay regimes never share a
        # window longer than necessary.
        win_start = start
        if change_clip is not None:
            clipped = change_clip - base.refresh_interval
            if start < clipped <= end - 2.0 * base.refresh_interval:
                win_start = clipped

        # -- calibrate every class from its observed reference edge -----
        groups: Dict[PathmapConfig, List[Tuple[str, NodeId, NodeId]]] = {}
        silent: List[Tuple[str, NodeId]] = []
        for cls, (client, front) in keys.items():
            stamps = collector.edge_timestamps(client, front)
            lo = int(np.searchsorted(stamps, win_start))
            hi = int(np.searchsorted(stamps, end))
            stamps = stamps[lo:hi]
            if stamps.size < MIN_CALIBRATION_REQUESTS:
                silent.append((cls, client))
                continue
            stats = TrafficStats.from_timestamps(
                stamps, win_start, end, delay_bound=delay_hints.get(cls)
            )
            tuned = autotune_config(base, stats)
            groups.setdefault(tuned, []).append((cls, client, front))

        # -- analyze each resolution group over the (clipped) window ----
        events_before = len(detector.events())
        for cfg in sorted(
            groups,
            key=lambda c: (c.quantum, c.sampling_window, c.max_transaction_delay),
        ):
            members = groups[cfg]
            cfg_run = (
                cfg if win_start == start else cfg.with_window(end - win_start)
            )
            window = collector.window(cfg_run, end, start_time=win_start)
            result = compute_service_graphs(window, cfg_run)
            # Feed the detector only this group's classes, so a class
            # analyzed in one group is never double-recorded via another
            # group's (whole-window) result.
            detector.record(
                end,
                PathmapResult(
                    {
                        (client, front): result.graphs[(client, front)]
                        for (_, client, front) in members
                        if (client, front) in result.graphs
                    },
                    result.stats,
                ),
            )
            for cls, client, front in members:
                graph = result.graphs.get((client, front))
                if graph is not None:
                    observed = observed_delay_bound(graph)
                    if observed is not None:
                        # Ratchet with slow decay: a refresh that loses
                        # deep edges must not collapse the hint (and
                        # thereby T_u) in one step -- that feedback loop
                        # never recovers.
                        previous = delay_hints.get(cls, 0.0)
                        delay_hints[cls] = max(observed, 0.5 * previous)
                cells.append(
                    score_refresh(
                        graph, run.truths[cls], cls, client, win_start, end
                    )
                )
        # Silence says nothing about service delays, so hints survive a
        # trough: when the class returns, tuning resumes where it was.
        for cls, client in silent:
            cells.append(
                score_refresh(None, run.truths[cls], cls, client, win_start, end)
            )

        # -- arm window clipping off fresh detections --------------------
        for event in detector.events()[events_before:]:
            if abs(event.magnitude) >= MIN_CLIP_SHIFT:
                change_clip = end if change_clip is None else max(change_clip, end)

    # Each refresh analyzes the window ending at its own time.
    detections = [(e.time, e.edge, e.time) for e in detector.events()]
    return ScenarioScore(
        run.name,
        mode,
        run.seed,
        cells,
        detection_latencies(run.change_points, detections),
    )


def run_scenario(
    run: ScenarioRun,
    adaptive: bool = False,
    config: Optional[PathmapConfig] = None,
    mode: Optional[str] = None,
) -> ScenarioScore:
    """Simulate (if needed) and grade one scenario run.

    ``adaptive=True`` runs the self-tuning analysis; otherwise ``config``
    (default: the scenario's own base config) is graded statically.
    """
    if adaptive:
        return analyze_adaptive(run, mode=mode or "adaptive")
    return analyze_static(run, config=config, mode=mode or "static")


def score_scenario(name: str, mode: str, seed: int) -> ScenarioScore:
    """Build, simulate and grade scenario ``name`` under ``mode``."""
    if mode not in MODES:
        raise AnalysisError(f"unknown mode {mode!r}: pick from {', '.join(MODES)}")
    run = get_scenario(name).build(seed=seed)
    if mode == "adaptive":
        return analyze_adaptive(run)
    return analyze_static(run, grid_config(run, mode), mode=mode)


def _mean_f1(rows: List[dict]) -> Optional[float]:
    if not rows:
        return None
    return round(sum(row["aggregate_f1"] for row in rows) / len(rows), 4)


def score_matrix(names: Sequence[str], modes: Sequence[str], seed: int) -> dict:
    """The scenarios x modes scorecard document.

    One row per (scenario, mode): the score without cells, the
    scenario's ``steady`` flag and the wall-clock ``elapsed_seconds``,
    plus each mode's mean F1 over every scenario and over the steady
    ones. Every field but ``elapsed_seconds`` is deterministic for a
    seed (simulation, analysis and scoring are seeded and unthreaded).
    """
    if not modes or not set(modes) <= set(MODES):
        raise AnalysisError(
            f"modes {list(modes)} must be a non-empty subset of {', '.join(MODES)}"
        )
    scores: List[dict] = []
    for name in names:
        steady = get_scenario(name).steady
        for mode in modes:
            started = time.perf_counter()
            row = score_scenario(name, mode, seed).to_dict()
            row["steady"] = steady
            row["elapsed_seconds"] = round(time.perf_counter() - started, 3)
            scores.append(row)
    by_mode = {mode: [r for r in scores if r["mode"] == mode] for mode in modes}
    return {
        "generator": "python -m repro scenarios score",
        "seed": seed,
        "scenarios": list(names),
        "modes": list(modes),
        "scores": scores,
        "aggregate_f1_by_mode": {m: _mean_f1(rows) for m, rows in by_mode.items()},
        "steady_aggregate_f1_by_mode": {
            m: _mean_f1([r for r in rows if r["steady"]])
            for m, rows in by_mode.items()
        },
    }
