"""Tests for the Chrome trace exporter and the timeline renderers."""

import json

import pytest

from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.analysis.timeline import (
    render_timeline_ascii,
    render_timeline_svg,
    write_timeline_svg,
)
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.simulation.distributions import Erlang
from repro.simulation.nodes import StaticRouter
from repro.simulation.topology import Topology

CFG = PathmapConfig(
    window=20.0,
    refresh_interval=10.0,
    quantum=1e-3,
    sampling_window=10e-3,
    max_transaction_delay=1.0,
)


def chain_topology(seed=0):
    topo = Topology(seed=seed)
    topo.add_service_node("DB", Erlang(0.010, k=8), workers=8)
    topo.add_service_node(
        "WS", Erlang(0.004, k=8), workers=8, router=StaticRouter({}, default="DB")
    )
    client = topo.add_client("C", "cls", front_end="WS")
    topo.open_workload(client, rate=20.0)
    return topo


@pytest.fixture(scope="module")
def traced_dump():
    engine = E2EProfEngine(CFG)
    engine.tracer.enable()
    topo = chain_topology()
    engine.attach(topo)
    topo.run_until(25.0)
    return engine.dump_flight_record()


EMPTY_DUMP = {"capacity": 8, "recorded": 0, "frames": []}


class TestChromeTrace:
    def test_top_level_shape(self, traced_dump):
        doc = chrome_trace(traced_dump)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        json.dumps(doc)

    def test_span_events_are_complete_events_in_microseconds(self, traced_dump):
        doc = chrome_trace(traced_dump)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)
        names = {e["name"] for e in complete}
        assert {"engine.refresh", "engine.pathmap", "engine.correlators"} <= names
        # Categories come from the span-name prefix.
        refresh = next(e for e in complete if e["name"] == "engine.refresh")
        assert refresh["cat"] == "engine"

    def test_nesting_preserved_by_timestamps(self, traced_dump):
        doc = chrome_trace(traced_dump)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        roots = [e for e in complete if e["name"] == "engine.refresh"]
        children = [e for e in complete if e["name"] == "engine.pathmap"]
        assert roots and children
        # Every pathmap span nests inside some refresh span's interval.
        for child in children:
            assert any(
                root["ts"] <= child["ts"]
                and child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1
                for root in roots
            )

    def test_metadata_names_process_and_threads(self, traced_dump):
        doc = chrome_trace(traced_dump)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)

    def test_empty_dump_yields_metadata_only(self):
        doc = chrome_trace(EMPTY_DUMP)
        assert all(e["ph"] == "M" for e in doc["traceEvents"])

    def test_write_chrome_trace(self, traced_dump, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(traced_dump, str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == count
        assert count > 0


class TestAsciiTimeline:
    def test_renders_headers_bars_and_durations(self, traced_dump):
        text = render_timeline_ascii(traced_dump)
        assert "refresh 0 @ t=10.000" in text
        assert "engine.refresh" in text
        assert "engine.pathmap" in text
        # Bars and duration suffixes are present.
        assert "#" in text
        assert "s" in text

    def test_last_limits_frames(self, traced_dump):
        text = render_timeline_ascii(traced_dump, last=1)
        assert "refresh 0" not in text
        assert "refresh 1" in text

    def test_empty_dump(self):
        assert "empty" in render_timeline_ascii(EMPTY_DUMP)


class TestSvgTimeline:
    def test_well_formed_svg(self, traced_dump):
        svg = render_timeline_svg(traced_dump)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "engine.refresh" in svg
        assert "<rect" in svg

    def test_write_timeline_svg(self, traced_dump, tmp_path):
        path = tmp_path / "timeline.svg"
        write_timeline_svg(traced_dump, str(path))
        assert path.read_text().startswith("<svg")
