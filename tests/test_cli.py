"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.tracing.storage import load_captures, read_access_log_jsonl


@pytest.fixture(scope="module")
def rubis_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "rubis.jsonl"
    code = main([
        "simulate-rubis", "-o", str(path),
        "--duration", "65", "--seed", "7", "--rate", "10",
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def delta_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "delta.jsonl"
    code = main([
        "simulate-delta", "-o", str(path),
        "--duration", "1900", "--queues", "3",
        "--events-per-hour", "10800", "--seed", "3",
    ])
    assert code == 0
    return path


class TestSimulate:
    def test_rubis_trace_loadable(self, rubis_trace):
        records = load_captures(rubis_trace)
        assert len(records) > 1000
        assert {r.observer for r in records} >= {"WS", "DS"}

    def test_delta_log_loadable(self, delta_log):
        records = list(read_access_log_jsonl(delta_log))
        assert len(records) > 1000
        assert {r.event for r in records} == {"recv", "send"}


class TestAnalyze:
    def test_ascii_output(self, rubis_trace, capsys):
        code = main([
            "analyze", str(rubis_trace), "--clients", "C1,C2",
            "--window", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "C1" in out and "TS1" in out and "EJB1" in out
        assert "*EJB1*" in out  # bottleneck marking

    def test_dot_output(self, rubis_trace, capsys):
        code = main([
            "analyze", str(rubis_trace), "--clients", "C1,C2",
            "--window", "60", "--format", "dot",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "digraph" in out
        assert '"WS" -> "TS1"' in out

    def test_json_output(self, rubis_trace, capsys):
        code = main([
            "analyze", str(rubis_trace), "--clients", "C1,C2",
            "--window", "60", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "C1@WS" in payload
        edges = {(e["src"], e["dst"]) for e in payload["C1@WS"]["edges"]}
        assert ("WS", "TS1") in edges

    def test_report_output(self, rubis_trace, capsys):
        code = main([
            "analyze", str(rubis_trace), "--clients", "C1,C2",
            "--window", "60", "--format", "report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "E2EProf diagnosis report" in out
        assert "bottleneck: EJB1" in out

    def test_summary_output(self, rubis_trace, capsys):
        code = main([
            "analyze", str(rubis_trace), "--clients", "C1,C2",
            "--window", "60", "--format", "summary",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "EJB1" in payload["classes"]["C1@WS"]["bottlenecks"]

    def test_access_log_analysis(self, delta_log, capsys):
        code = main([
            "analyze", str(delta_log), "--access-log",
            "--window", "1800", "--quantum", "1.0",
            "--sampling-window", "50", "--max-delay", "1200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "VAL" in out and "RDB" in out

    def test_missing_clients_is_an_error(self, rubis_trace, capsys):
        code = main(["analyze", str(rubis_trace), "--window", "60"])
        assert code == 2
        assert "client" in capsys.readouterr().err

    def test_explicit_end_time(self, rubis_trace, capsys):
        code = main([
            "analyze", str(rubis_trace), "--clients", "C1,C2",
            "--window", "30", "--end", "40",
        ])
        assert code == 0


class TestDiff:
    def test_steady_trace_diffs_clean(self, rubis_trace, capsys):
        code = main([
            "diff", str(rubis_trace), "--clients", "C1,C2",
            "--window", "30", "--before-end", "31", "--after-end", "62",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "diff for service class of C1" in out
        assert "diff for service class of C2" in out


class TestRender:
    def test_svg_files_written(self, rubis_trace, tmp_path, capsys):
        outdir = tmp_path / "svgs"
        code = main([
            "render", str(rubis_trace), "-o", str(outdir),
            "--clients", "C1,C2", "--window", "60",
        ])
        assert code == 0
        files = sorted(p.name for p in outdir.glob("*.svg"))
        assert files == ["C1_WS.svg", "C2_WS.svg"]
        content = (outdir / "C1_WS.svg").read_text()
        assert content.startswith("<svg")
        assert "EJB1" in content


@pytest.mark.slow
class TestStats:
    def test_demo_mode_json(self, capsys):
        code = main(["stats", "--duration", "65", "--window", "60"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        metrics = doc["metrics"]
        for family in (
            "engine_refresh_seconds",
            "engine_correlator_cache_hits_total",
            "engine_correlator_cache_misses_total",
            "wire_blocks_decoded_total",
            "pathmap_spikes_total",
        ):
            assert family in metrics, family
        assert metrics["engine_refresh_seconds"][""]["count"] >= 1
        assert doc["latest_sample"]["blocks_ingested"] > 0
        assert doc["latest_sample"]["parked_correlators"] == 0

    def test_demo_mode_both_to_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main([
            "stats", "--duration", "65", "--window", "60",
            "--format", "both", "-o", str(out),
        ])
        assert code == 0
        assert "wrote metrics" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert "repro_engine_refresh_seconds_bucket" in doc["prometheus"]
        assert doc["prometheus"].rstrip().splitlines()[-1].startswith("repro_")

    def test_trace_mode_prometheus(self, rubis_trace, capsys):
        code = main([
            "stats", str(rubis_trace), "--clients", "C1,C2",
            "--window", "60", "--format", "prometheus",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_pathmap_analysis_seconds histogram" in out
        assert "repro_collector_records_ingested_total" in out
        assert "repro_replay_refresh_seconds_count" in out

    def test_too_short_duration_is_an_error(self, capsys):
        code = main(["stats", "--duration", "5", "--window", "60"])
        assert code == 2
        assert "no refresh fired" in capsys.readouterr().err


class TestTimeline:
    def test_replay_mode_ascii(self, rubis_trace, capsys):
        code = main([
            "timeline", str(rubis_trace), "--clients", "C1,C2",
            "--window", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "refresh 0" in out
        assert "replay.refresh" in out
        assert "pathmap.class" in out

    def test_replay_mode_chrome_to_file(self, rubis_trace, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "timeline", str(rubis_trace), "--clients", "C1,C2",
            "--window", "60", "--format", "chrome", "-o", str(out),
        ])
        assert code == 0
        assert "wrote chrome timeline" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        names = {e.get("name") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "replay.refresh" in names
        assert "pathmap.class" in names

    def test_replay_mode_svg(self, rubis_trace, capsys):
        code = main([
            "timeline", str(rubis_trace), "--clients", "C1,C2",
            "--window", "60", "--format", "svg",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_window_too_long_is_an_error(self, rubis_trace, capsys):
        code = main([
            "timeline", str(rubis_trace), "--clients", "C1,C2",
            "--window", "600",
        ])
        assert code == 2


@pytest.mark.slow
class TestTimelineDemo:
    def test_demo_mode_chrome_has_nested_engine_spans(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "timeline", "--demo", "--duration", "65", "--window", "60",
            "--format", "chrome", "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {
            "engine.refresh",
            "engine.correlators",
            "correlator.append",
            "engine.pathmap",
            "pathmap.class",
        } <= names
        # Diagnostic events ride along as instants.
        assert any(e["ph"] == "i" for e in doc["traceEvents"])

    def test_demo_mode_json_dump(self, capsys):
        code = main(["timeline", "--demo", "--duration", "65",
                     "--window", "60", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frames"]
        assert doc["frames"][0]["spans"]


class TestSkew:
    def test_skew_report(self, rubis_trace, capsys):
        code = main([
            "skew", str(rubis_trace), "--edge", "WS:TS1",
            "--clients", "C1,C2", "--window", "60",
            "--network-delay", "0.0002",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "WS->TS1" in out and "skew" in out

    def test_bad_edge_spec(self, rubis_trace, capsys):
        code = main([
            "skew", str(rubis_trace), "--edge", "WSTS1",
            "--clients", "C1,C2",
        ])
        assert code == 2


class TestScenariosCli:
    def test_list_names_every_scenario(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("steady_state", "flash_crowd", "retry_storm",
                     "cache_stampede", "canary_shift", "traffic_trough",
                     "diurnal_cycle", "fanout_mesh"):
            assert name in out

    def test_run_text_mode(self, capsys):
        assert main(["scenarios", "run", "cache_stampede",
                     "--mode", "adaptive"]) == 0
        out = capsys.readouterr().out
        assert "cache_stampede" in out
        assert "f1" in out

    def test_run_json_with_cells(self, capsys):
        assert main(["scenarios", "run", "cache_stampede",
                     "--mode", "fast", "--format", "json", "--cells"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "cache_stampede"
        assert doc["mode"] == "fast"
        assert doc["cell_scores"]
        assert 0.0 <= doc["aggregate_f1"] <= 1.0

    def test_score_writes_scorecard(self, tmp_path, capsys):
        out = tmp_path / "scorecard.json"
        assert main(["scenarios", "score",
                     "--scenarios", "cache_stampede,traffic_trough",
                     "--modes", "adaptive,fast", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["scenarios"] == ["cache_stampede", "traffic_trough"]
        assert len(doc["scores"]) == 4
        assert set(doc["aggregate_f1_by_mode"]) == {"adaptive", "fast"}

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["scenarios", "run", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_unknown_mode_is_an_error(self, capsys):
        assert main(["scenarios", "score", "--modes", "adaptive,warp"]) == 2
        assert "warp" in capsys.readouterr().err


class TestTopCli:
    def test_once_renders_single_frame(self, capsys):
        assert main(["top", "--once", "--duration", "125"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        for name in ("ingest", "correlate", "dfs", "publish",
                     "sparse_batch", "rle", "legacy_pair"):
            assert name in out
        assert "quiet skips" in out
        assert "live, 0 parked" in out
        assert "\x1b[2J" not in out  # non-tty stdout: no ANSI clears

    def test_too_short_duration_is_an_error(self, capsys):
        assert main(["top", "--once", "--duration", "5"]) == 2
        assert "no refresh fired" in capsys.readouterr().err


class TestProfileCli:
    def test_text_mode(self, capsys):
        assert main(["profile", "--duration", "125"]) == 0
        out = capsys.readouterr().out
        assert "repro profile" in out
        assert "kernel cost model" in out

    def test_json_round_trips_ledgers(self, tmp_path, capsys):
        from repro.obs import RefreshLedger

        path = tmp_path / "ledger.json"
        assert main(["profile", "--json", "--duration", "125",
                     "-o", str(path)]) == 0
        assert "wrote profile" in capsys.readouterr().err
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["ewma", "kernel_density", "ledgers", "workload"]
        assert doc["workload"]["app"] == "rubis"
        assert doc["workload"]["fft_dispatch"] == "auto"
        assert doc["ledgers"]
        for entry in doc["ledgers"]:
            ledger = RefreshLedger.from_dict(entry)
            assert ledger.to_dict() == entry
        assert set(doc["ewma"]) == {
            "sparse_batch", "rle", "fft_batch", "legacy_pair"
        }
        density = doc["kernel_density"]
        assert set(density) == set(doc["ewma"])
        routed = [k for k, d in density.items() if d["rows"] > 0]
        assert routed
        for kernel in routed:
            assert density[kernel]["units_per_row"] is None or (
                density[kernel]["units_per_row"] >= 0.0
            )
            assert density[kernel]["bytes_per_row"] >= 0.0

    def test_json_keys_deterministically_ordered(self, capsys):
        assert main(["profile", "--json", "--duration", "125",
                     "--last", "1"]) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert len(doc["ledgers"]) == 1
        # sort_keys=True output is byte-stable across runs of the same doc
        assert text.strip() == json.dumps(doc, indent=2, sort_keys=True)

    def test_measured_dispatch_flag_recorded(self, capsys):
        assert main(["profile", "--json", "--duration", "125",
                     "--measured-dispatch"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"]["measured_dispatch"] is True
