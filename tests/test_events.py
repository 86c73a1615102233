"""Tests for repro.obs.events: the diagnostic event bus."""

import json

from repro.obs.events import (
    EVENT_ANOMALY,
    EVENT_CHANGE,
    DiagnosticEvent,
    EventBus,
)
from repro.obs.spans import SpanTracer


class TestPublish:
    def test_publish_builds_typed_timestamped_event(self):
        bus = EventBus()
        event = bus.publish(EVENT_CHANGE, 42.0, edge="WS->DB", magnitude=0.01)
        assert isinstance(event, DiagnosticEvent)
        assert event.kind == EVENT_CHANGE
        assert event.time == 42.0
        assert event.monotonic > 0.0
        assert event.attributes == {"edge": "WS->DB", "magnitude": 0.01}
        assert event.span_id is None
        assert bus.published == 1
        assert len(bus) == 1

    def test_to_dict_json_able(self):
        bus = EventBus()
        event = bus.publish(EVENT_ANOMALY, 1.0, score=5.2)
        doc = json.loads(json.dumps(event.to_dict()))
        assert doc["kind"] == EVENT_ANOMALY
        assert doc["attributes"]["score"] == 5.2

    def test_event_attaches_to_current_span(self):
        tracer = SpanTracer(enabled=True)
        bus = EventBus(tracer=tracer)
        with tracer.span("engine.refresh") as span:
            event = bus.publish(EVENT_CHANGE, 1.0)
        assert event.span_id == span.span_id
        (finished,) = tracer.drain()
        assert finished.events == [event]

    def test_no_attachment_when_tracing_disabled(self):
        tracer = SpanTracer()  # disabled
        bus = EventBus(tracer=tracer)
        with tracer.span("noop"):
            event = bus.publish(EVENT_CHANGE, 1.0)
        assert event.span_id is None

    def test_history_is_bounded(self):
        bus = EventBus(capacity=3)
        for i in range(7):
            bus.publish("k", float(i))
        assert len(bus) == 3
        assert [e.time for e in bus.events()] == [4.0, 5.0, 6.0]
        assert bus.published == 7


class TestQueries:
    def test_events_filters_by_kind(self):
        bus = EventBus()
        bus.publish("a", 1.0)
        bus.publish("b", 2.0)
        bus.publish("a", 3.0)
        assert [e.time for e in bus.events("a")] == [1.0, 3.0]
        assert len(bus.events()) == 3

    def test_events_since_slices_by_monotonic_stamp(self):
        bus = EventBus()
        first = bus.publish("k", 1.0)
        mark = first.monotonic
        second = bus.publish("k", 2.0)
        sliced = bus.events_since(mark)
        assert sliced == [second]
        assert bus.events_since(second.monotonic) == []

    def test_events_since_equals_full_scan(self):
        bus = EventBus(capacity=64)
        for i in range(100):  # the history has rotated
            bus.publish("k", float(i))
        history = bus.events()
        assert [e.monotonic for e in history] == sorted(e.monotonic for e in history)
        for mark in [history[0].monotonic - 1.0, *(e.monotonic for e in history)]:
            want = [e for e in history if e.monotonic > mark]
            assert bus.events_since(mark) == want
        # An event stamped exactly at the mark is not after it.
        mark = history[40].monotonic
        assert bus.events_since(mark)[0] is history[41]
        assert [e.time for e in bus.events_since(mark)] == [e.time for e in history[41:]]


class TestSubscribers:
    def test_subscribers_receive_events(self):
        bus = EventBus()
        got = []
        bus.subscribe(got.append)
        event = bus.publish("k", 1.0)
        assert got == [event]

    def test_raising_subscriber_is_isolated_and_counted(self):
        bus = EventBus()
        got = []

        def bad(event):
            raise RuntimeError("subscriber bug")

        bus.subscribe(bad)
        bus.subscribe(got.append)
        event = bus.publish("k", 1.0)
        # Publish survived, later subscriber still ran, error was counted.
        assert got == [event]
        assert bus.subscriber_errors == 1
        assert bus.published == 1


class TestAdaptiveEventKinds:
    def test_low_confidence_and_rewindow_kinds_are_exported(self):
        from repro.obs import EVENT_LOW_CONFIDENCE, EVENT_REWINDOW

        assert EVENT_LOW_CONFIDENCE == "low_confidence"
        assert EVENT_REWINDOW == "rewindow"

    def test_low_confidence_event_round_trips_through_the_bus(self):
        from repro.obs import EVENT_LOW_CONFIDENCE

        bus = EventBus()
        bus.publish(
            EVENT_LOW_CONFIDENCE,
            12.0,
            service_class="C1@WS",
            score=0.21,
            stability=0.3,
            recency=0.7,
            threshold=0.5,
        )
        (event,) = bus.events(kind=EVENT_LOW_CONFIDENCE)
        assert event.attributes["service_class"] == "C1@WS"
        assert json.dumps(event.to_dict())  # JSON-able like every event
