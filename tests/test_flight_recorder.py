"""Tests for the flight recorder and the engine's always-on recording.

Covers the ring-buffer contract (bounds, eviction, self-consistent dumps
under contention), the engine integration (one frame per refresh, spans
and events captured when tracing is on, ``dump_flight_record``), and the
subscriber fan-out isolation regression the recorder helps diagnose.
"""

import json
import threading

import pytest

from repro.config import PathmapConfig
from repro.core.engine import E2EProfEngine
from repro.errors import ObservabilityError
from repro.obs import EVENT_SUBSCRIBER_ERROR
from repro.obs.flight import FlightRecorder, RefreshFrame
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


class TestFlightRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ObservabilityError):
            FlightRecorder(capacity=0)

    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(7):
            recorder.record(RefreshFrame(time=float(i), sequence=i, sample={}))
        assert len(recorder) == 3
        assert recorder.recorded == 7
        assert [f.sequence for f in recorder.frames()] == [4, 5, 6]
        assert recorder.latest().sequence == 6

    def test_frames_last_n(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(5):
            recorder.record(RefreshFrame(time=float(i), sequence=i, sample={}))
        assert [f.sequence for f in recorder.frames(last=2)] == [3, 4]
        assert [f.sequence for f in recorder.frames(last=99)] == [0, 1, 2, 3, 4]

    def test_clear(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record(RefreshFrame(time=0.0, sequence=0, sample={}))
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.latest() is None

    def test_dump_shape_and_json_round_trip(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record(
            RefreshFrame(time=1.0, sequence=0, sample={"blocks_ingested": 2})
        )
        dump = json.loads(json.dumps(recorder.dump()))
        assert dump["capacity"] == 4
        assert dump["recorded"] == 1
        (frame,) = dump["frames"]
        assert frame["sample"] == {"blocks_ingested": 2}
        assert frame["spans"] == []
        assert frame["events"] == []

    def test_dump_self_consistent_under_contention(self):
        """Concurrent record() calls never tear a dump: every dumped
        frame is whole and frame sequences are monotonic."""
        recorder = FlightRecorder(capacity=64)
        stop = threading.Event()

        def writer(worker):
            i = 0
            while not stop.is_set():
                recorder.record(
                    RefreshFrame(
                        time=float(i), sequence=i, sample={"worker": worker}
                    )
                )
                i += 1

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                dump = recorder.dump()
                assert len(dump["frames"]) <= 64
                for frame in dump["frames"]:
                    assert set(frame) == {
                        "time", "sequence", "sample", "spans", "events",
                        "ledger",
                    }
                json.dumps(dump)  # always serializable
        finally:
            stop.set()
            for t in threads:
                t.join()


class TestEngineFlightRecording:
    def test_every_refresh_leaves_a_frame(self):
        engine = E2EProfEngine(CFG, flight_capacity=8)
        topo = chain_topology()
        engine.attach(topo)
        topo.run_until(35.0)
        frames = engine.flight.frames()
        assert len(frames) == 3
        assert [f.sequence for f in frames] == [0, 1, 2]
        # Tracing off: frames are sample-only, but samples are real.
        for frame in frames:
            assert frame.spans == []
            assert frame.sample["blocks_ingested"] >= 1

    def test_flight_capacity_parameter_bounds_ring(self):
        engine = E2EProfEngine(CFG, flight_capacity=2)
        topo = chain_topology()
        engine.attach(topo)
        topo.run_until(45.0)
        assert len(engine.flight) == 2
        assert engine.flight.recorded == 4

    def test_traced_run_captures_nested_spans_and_dump(self):
        engine = E2EProfEngine(CFG)
        engine.tracer.enable()
        topo = chain_topology()
        engine.attach(topo)
        topo.run_until(25.0)
        dump = engine.dump_flight_record(last=1)
        (frame,) = dump["frames"]
        names = {s["name"] for s in frame["spans"]}
        assert {
            "engine.refresh",
            "engine.ingest",
            "tracer.flush",
            "engine.correlators",
            "engine.pathmap",
        } <= names
        by_id = {s["span_id"]: s for s in frame["spans"]}
        root = next(s for s in frame["spans"] if s["name"] == "engine.refresh")
        assert root["parent_id"] is None
        for span in frame["spans"]:
            if span is not root:
                assert by_id[span["parent_id"]] is not None
        json.dumps(dump)

    def test_dump_flight_record_last(self):
        engine = E2EProfEngine(CFG, flight_capacity=8)
        topo = chain_topology()
        engine.attach(topo)
        topo.run_until(35.0)
        dump = engine.dump_flight_record(last=1)
        assert len(dump["frames"]) == 1
        assert dump["frames"][0]["sequence"] == 2


class TestSubscriberIsolation:
    def test_raising_subscriber_does_not_abort_refresh(self):
        """Regression: one bad subscriber used to abort the whole refresh
        and starve every subscriber after it."""
        engine = E2EProfEngine(CFG)
        engine.metrics.enable()
        seen = []

        def bad(now, result):
            raise RuntimeError("subscriber bug")

        engine.subscribe(bad)
        engine.subscribe(lambda now, result: seen.append(now))
        topo = chain_topology()
        engine.attach(topo)
        topo.run_until(15.0)
        # The refresh completed and the later subscriber still ran.
        assert engine.latest_result is not None
        assert seen == [10.0]
        assert engine.subscriber_errors == 1
        snap = engine.metrics.snapshot()
        (state,) = snap["obs_subscriber_errors_total"].values()
        assert state["value"] == 1.0
        # The failure is a diagnostic event too.
        (event,) = engine.events.events(EVENT_SUBSCRIBER_ERROR)
        assert "RuntimeError" in event.attributes["error"]
        assert "bad" in event.attributes["subscriber"]

    def test_raising_metrics_subscriber_is_isolated(self):
        engine = E2EProfEngine(CFG)
        seen = []

        def bad(now, result, sample):
            raise ValueError("metrics subscriber bug")

        engine.subscribe_metrics(bad)
        engine.subscribe_metrics(lambda now, result, sample: seen.append(sample))
        topo = chain_topology()
        engine.attach(topo)
        topo.run_until(15.0)
        assert len(seen) == 1
        assert engine.subscriber_errors == 1

    def test_subscriber_error_count_survives_disabled_registry(self):
        engine = E2EProfEngine(CFG)  # registry disabled
        engine.subscribe(lambda now, result: (_ for _ in ()).throw(RuntimeError()))
        topo = chain_topology()
        engine.attach(topo)
        topo.run_until(15.0)
        assert engine.subscriber_errors == 1
