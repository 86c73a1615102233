"""The scenario suite: registry, seed determinism, scoring conventions.

Three layers are pinned here:

* the registry (:mod:`repro.scenarios.library`) -- named recipes
  resolve, list deterministically, and every builder stamps its seed;
* determinism -- building and simulating the same scenario twice at one
  seed produces bit-identical ground truth, and the full adaptive
  grading loop reproduces its score cell-for-cell (the benchmark
  scorecard depends on this);
* scoring conventions (:mod:`repro.scenarios.scoring`) -- empty-vs-empty
  is perfect silence, stale paths cost precision, and change-detection
  latency matching honours edge labels.

A three-scenario smoke of the harness itself runs in tier-1 (the full
matrix lives in ``benchmarks/test_scenario_matrix.py``).
"""

import pytest

from repro.errors import AnalysisError
from repro.scenarios import (
    ChangePoint,
    SCENARIOS,
    edge_f1,
    get_scenario,
    list_scenarios,
    run_scenario,
    score_refresh,
)
from repro.scenarios.runner import (
    MODES,
    STATIC_GRID,
    analyze_adaptive,
    grid_config,
    score_matrix,
    score_scenario,
)
from repro.scenarios.scoring import detection_latencies


class TestRegistry:
    def test_known_scenarios_present(self):
        names = {scenario.name for scenario in list_scenarios()}
        assert {
            "steady_state",
            "fanout_mesh",
            "flash_crowd",
            "diurnal_cycle",
            "retry_storm",
            "cache_stampede",
            "canary_shift",
            "traffic_trough",
        } <= names

    def test_listing_is_sorted_and_complete(self):
        listed = [scenario.name for scenario in list_scenarios()]
        assert listed == sorted(SCENARIOS)

    def test_unknown_scenario_raises(self):
        with pytest.raises(AnalysisError):
            get_scenario("no_such_scenario")

    def test_build_stamps_seed(self):
        run = get_scenario("cache_stampede").build(seed=42)
        assert run.seed == 42
        assert run.name == "cache_stampede"

    def test_steady_flags(self):
        assert SCENARIOS["steady_state"].steady
        assert SCENARIOS["fanout_mesh"].steady
        assert not SCENARIOS["flash_crowd"].steady


class TestDeterminism:
    def test_ground_truth_is_seed_stable(self):
        runs = [
            get_scenario("cache_stampede").build(seed=3).simulate()
            for _ in range(2)
        ]
        edges = [
            run.truths["lookup"].traversed_edges("lookup") for run in runs
        ]
        assert edges[0] == edges[1]
        delays = [
            run.truths["lookup"].edge_delays(
                "lookup", next(iter(edges[0]))
            )
            for run in runs
        ]
        assert delays[0] == delays[1]

    def test_different_seeds_differ(self):
        a = get_scenario("cache_stampede").build(seed=0).simulate()
        b = get_scenario("cache_stampede").build(seed=1).simulate()
        assert a.truths["lookup"].traversed_edges("lookup") != b.truths[
            "lookup"
        ].traversed_edges("lookup")

    def test_adaptive_grading_reproduces_cell_for_cell(self):
        scores = [
            analyze_adaptive(get_scenario("cache_stampede").build(seed=0))
            for _ in range(2)
        ]
        assert scores[0].to_dict(include_cells=True) == scores[1].to_dict(
            include_cells=True
        )


class TestScoringConventions:
    def test_edge_f1_empty_vs_empty_is_perfect(self):
        assert edge_f1(set(), set()) == (1.0, 1.0, 1.0)

    def test_edge_f1_stale_paths_cost_precision(self):
        precision, recall, f1 = edge_f1({("A", "B")}, set())
        assert precision == 0.0
        assert f1 == 0.0

    def test_edge_f1_silence_against_real_traffic_costs_recall(self):
        precision, recall, f1 = edge_f1(set(), {("A", "B")})
        assert precision == 1.0
        assert recall == 0.0
        assert f1 == 0.0

    def test_edge_f1_partial_overlap(self):
        precision, recall, f1 = edge_f1(
            {("A", "B"), ("B", "C")}, {("A", "B"), ("C", "D")}
        )
        assert precision == 0.5
        assert recall == 0.5
        assert f1 == pytest.approx(0.5)

    def test_score_refresh_none_graph_in_trough_is_perfect_silence(self):
        run = get_scenario("traffic_trough").build(seed=0).simulate()
        # [18, 22) sits strictly inside the [14, 24) trough: the regional
        # class sent nothing, so a None graph is the *correct* answer.
        cell = score_refresh(
            None, run.truths["regional"], "regional", "C_RG", 18.0, 22.0
        )
        assert (cell.precision, cell.recall, cell.f1) == (1.0, 1.0, 1.0)
        assert cell.edges == []

    def test_detection_latency_edge_matching(self):
        points = [
            ChangePoint(10.0, "db slowdown", edge=("DB", "AP")),
            ChangePoint(20.0, "traffic shape"),
        ]
        detections = [
            (8.0, ("DB", "AP")),   # before the shift: ignored
            (14.0, ("FE", "AP")),  # wrong edge for point 1
            (16.0, ("DB", "AP")),  # match for point 1
            (24.0, None),          # matches the unlabeled point 2
        ]
        assert detection_latencies(points, detections) == [6.0, 4.0]

    def test_detection_needs_a_window_past_the_change(self):
        points = [ChangePoint(10.0, "shift")]
        # A refresh at 10.5 analyzed up to 9.5: it cannot have seen the
        # shift, so the credit goes to the next one, whose window ends
        # after it. A window ending exactly at the shift saw none of it.
        detections = [(10.5, None, 9.5), (11.0, None, 10.0), (12.5, None, 11.5)]
        assert detection_latencies(points, detections) == [2.5]
        assert detection_latencies(points, [(10.5, None)]) == [0.5]

    def test_detection_horizon_cuts_off_matches(self):
        points = [ChangePoint(10.0, "shift")]
        assert detection_latencies(points, [(30.0, None)], horizon=20.0) == [
            None
        ]


class TestHarnessSmoke:
    """Tier-1 smoke: one steady, one bursty, one trough scenario run
    end-to-end through simulation, analysis and grading."""

    @pytest.mark.parametrize(
        "name,adaptive,floor",
        [
            ("steady_state", False, 0.90),
            ("cache_stampede", True, 0.90),
            ("traffic_trough", True, 0.90),
        ],
    )
    def test_scenario_scores_above_floor(self, name, adaptive, floor):
        run = get_scenario(name).build(seed=0)
        config = None if adaptive else grid_config(run, "fast")
        score = run_scenario(run, adaptive=adaptive, config=config)
        assert score.cells, "harness produced no graded cells"
        assert score.aggregate_f1 >= floor, score.to_dict()


class TestScorecard:
    """The one scenarios x modes scorecard that ``repro scenarios score``
    prints and ``benchmarks/test_scenario_matrix.py`` gates."""

    def test_modes_are_adaptive_then_the_static_grid(self):
        assert MODES == ("adaptive",) + tuple(sorted(STATIC_GRID))

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(AnalysisError, match="unknown mode"):
            score_scenario("steady_state", "turbo", seed=0)
        for modes in ((), ("fast", "turbo")):
            with pytest.raises(AnalysisError):
                score_matrix(["steady_state"], modes, seed=0)

    def test_rows_are_the_per_scenario_scores(self):
        card = score_matrix(["steady_state", "flash_crowd"], ("fast",), seed=0)
        assert card["scenarios"] == ["steady_state", "flash_crowd"]
        assert card["modes"] == ["fast"] and card["seed"] == 0
        assert [(r["scenario"], r["steady"]) for r in card["scores"]] == [
            ("steady_state", True), ("flash_crowd", False)]
        for row in card["scores"]:
            assert row.pop("elapsed_seconds") >= 0.0
            row.pop("steady")
            assert row == score_scenario(row["scenario"], "fast", seed=0).to_dict()
        f1 = {r["scenario"]: r["aggregate_f1"] for r in card["scores"]}
        assert card["aggregate_f1_by_mode"]["fast"] == pytest.approx(
            (f1["steady_state"] + f1["flash_crowd"]) / 2, abs=1e-4)
        assert card["steady_aggregate_f1_by_mode"]["fast"] == pytest.approx(
            f1["steady_state"], abs=1e-4)

    def test_no_steady_scenario_leaves_the_steady_mean_empty(self):
        card = score_matrix(["flash_crowd"], ("fast",), seed=0)
        assert card["steady_aggregate_f1_by_mode"] == {"fast": None}


class TestSuiteDeterminism:
    """Tier-1 determinism audit backstop: running the harness smoke
    twice back-to-back must reproduce every scorecard bit-for-bit (no
    hidden global-random or ordering dependence anywhere in the
    simulate -> analyze -> grade chain)."""

    SMOKE = [
        ("steady_state", False),
        ("cache_stampede", True),
        ("traffic_trough", True),
    ]

    def _scorecard(self) -> dict:
        card = {}
        for name, adaptive in self.SMOKE:
            run = get_scenario(name).build(seed=0)
            config = None if adaptive else grid_config(run, "fast")
            score = run_scenario(run, adaptive=adaptive, config=config)
            card[name] = score.to_dict(include_cells=True)
        return card

    def test_back_to_back_smoke_runs_are_identical(self):
        assert self._scorecard() == self._scorecard()
