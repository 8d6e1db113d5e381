"""The telemetry core: tracer, metrics registry, and the switchboard.

Determinism is the recurring theme — snapshots and renders must be
byte-stable, merges must be order-preserving arithmetic, and the
disabled path must be indistinguishable from no telemetry at all.
"""

from __future__ import annotations

import json
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry
from repro.sim.clock import VirtualClock
from repro.storage.oskernel.dmesg import DmesgBuffer


#: Tracer rows to record: spans and instants on two tracks.
_ROWS = st.lists(
    st.one_of(
        st.tuples(
            st.just("span"),
            st.sampled_from(["drive.read", "drive.write"]),
            st.floats(0.0, 10.0),
            st.sampled_from(["ok", "error"]),
            st.one_of(st.none(), st.fixed_dictionaries({"n": st.integers(0, 3)})),
            st.sampled_from(["main", "point/650Hz"]),
        ),
        st.tuples(
            st.just("instant"),
            st.sampled_from(["retry", "abort"]),
            st.floats(0.0, 10.0),
            st.just("ok"),
            st.one_of(st.none(), st.fixed_dictionaries({"k": st.text(max_size=2)})),
            st.sampled_from(["main", "dmesg"]),
        ),
    ),
    max_size=6,
)


def _record_rows(tracer: obs.Tracer, rows) -> None:
    for kind, name, start_s, status, args, track in rows:
        if kind == "span":
            tracer.record(
                name, start_s, start_s + 0.5, category="drive", status=status,
                args=args, track=track,
            )
        else:
            tracer.instant(name, start_s, category="drive", args=args, track=track)


def _ingest_one_call_per_row(tracer: obs.Tracer, snapshot) -> None:
    """The reference merge: one ``record`` per span, then one ``instant``
    per event, then the snapshot's own drops."""
    for name, category, start_s, end_s, track, status, args in snapshot["spans"]:
        tracer.record(
            name, start_s, end_s, category=category, status=status, args=args, track=track
        )
    for name, category, ts_s, track, args in snapshot["events"]:
        tracer.instant(name, ts_s, category=category, args=args, track=track)
    tracer.dropped += snapshot.get("dropped", 0)


class TestTracer:
    def test_record_and_find(self):
        tracer = obs.Tracer()
        tracer.record("drive.read", 1.0, 1.5, category="drive")
        tracer.record("drive.write", 2.0, 2.25, category="drive")
        spans = tracer.find_spans("drive.read")
        assert len(spans) == 1
        assert spans[0].duration_s == pytest.approx(0.5)
        assert spans[0].track == "main"
        assert len(tracer) == 2

    def test_span_context_stamps_virtual_clock(self):
        clock = VirtualClock()
        tracer = obs.Tracer()
        with tracer.span("op", clock, category="test"):
            clock.advance(3.0)
        (span,) = tracer.spans
        assert span.start_s == 0.0
        assert span.end_s == 3.0
        assert span.status == "ok"

    def test_span_marks_error_and_reraises(self):
        clock = VirtualClock()
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("op", clock):
                clock.advance(1.0)
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.status == "error"
        assert span.end_s == 1.0

    def test_track_stack_nests_and_restores(self):
        tracer = obs.Tracer()
        assert tracer.current_track == "main"
        with tracer.track("point/650Hz"):
            tracer.record("a", 0.0, 1.0)
            with tracer.track("inner"):
                tracer.record("b", 1.0, 2.0)
            tracer.record("c", 2.0, 3.0)
        tracer.record("d", 3.0, 4.0)
        assert [s.track for s in tracer.spans] == [
            "point/650Hz",
            "inner",
            "point/650Hz",
            "main",
        ]

    def test_max_records_bounds_and_counts_drops(self):
        tracer = obs.Tracer(max_records=2)
        tracer.record("a", 0.0, 1.0)
        tracer.instant("b", 1.0)
        tracer.record("c", 2.0, 3.0)
        tracer.instant("d", 3.0)
        assert len(tracer) == 2
        assert tracer.dropped == 2

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            obs.Tracer(max_records=0)
        with pytest.raises(ConfigurationError):
            obs.Tracer(detail="everything")

    def test_snapshot_ingest_round_trip(self):
        source = obs.Tracer()
        with source.track("worker"):
            source.record("op", 0.5, 1.0, category="c", status="error", args={"n": 1})
            source.instant("tick", 0.75, args={"k": "v"})
        sink = obs.Tracer()
        sink.ingest(source.snapshot())
        assert sink.snapshot() == source.snapshot()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_ingest_equals_one_call_per_row(self, data):
        source = obs.Tracer(max_records=data.draw(st.integers(1, 8)))
        _record_rows(source, data.draw(_ROWS))
        snapshot = source.snapshot()
        present = data.draw(_ROWS)
        # At and around the two boundaries: the spans fill the sink, or
        # the spans and events together do.
        boundary = len(present) + len(snapshot["spans"]) + data.draw(
            st.sampled_from([0, len(snapshot["events"])])
        )
        max_records = max(1, boundary + data.draw(st.integers(-2, 2)))
        bulk, reference = obs.Tracer(max_records), obs.Tracer(max_records)
        for sink in (bulk, reference):
            _record_rows(sink, present)
        bulk.ingest(snapshot)
        _ingest_one_call_per_row(reference, snapshot)
        assert bulk._spans == reference._spans
        assert bulk._events == reference._events
        assert bulk.dropped == reference.dropped

    @pytest.mark.parametrize("as_lists", [False, True])
    @pytest.mark.parametrize(
        "spans, events",
        [
            ([("op", "", 0.0, 1.0, "main", "ok")], []),
            ([], [("tick", "", 0.5, "main", None, "extra")]),
        ],
        ids=["short-span", "long-event"],
    )
    def test_ingest_rejects_a_row_of_the_wrong_length(self, spans, events, as_lists):
        snapshot = {"spans": spans, "events": events, "dropped": 0}
        if as_lists:
            snapshot = json.loads(json.dumps(snapshot))
        for sink in (obs.Tracer(), obs.Tracer(max_records=1)):
            sink.record("full", 0.0, 1.0)
            with pytest.raises(ConfigurationError):
                sink.ingest(snapshot)
            assert len(sink) == 1

    def test_ingest_rejects_rows_that_went_through_json(self):
        source = obs.Tracer()
        source.record("op", 0.0, 1.0)
        source.instant("tick", 0.5)
        sink = obs.Tracer()
        with pytest.raises(ConfigurationError):
            sink.ingest(json.loads(json.dumps(source.snapshot())))  # rows are lists
        assert len(sink) == 0

    def test_ingest_dmesg_copies_lines_onto_track(self):
        clock = VirtualClock()
        buffer = DmesgBuffer(clock)
        buffer.log("Buffer I/O error on dev sda1")
        clock.advance(2.0)
        buffer.log("journal commit I/O error")
        tracer = obs.Tracer()
        assert tracer.ingest_dmesg(buffer, track="victim/dmesg") == 2
        assert [e.ts_s for e in tracer.events] == [0.0, 2.0]
        assert all(e.track == "victim/dmesg" for e in tracer.events)
        assert tracer.events[0].name == "dmesg.err"


class TestNullTracer:
    def test_every_method_is_inert(self):
        null = obs.NULL_TRACER
        clock = VirtualClock()
        with null.track("anything") as track:
            with null.span("op", clock) as span:
                clock.advance(1.0)
        assert track is None and span is None
        assert vars(null) == {}  # nothing was kept

    def test_span_context_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with obs.NULL_TRACER.span("op", VirtualClock()):
                raise RuntimeError("must escape")


class TestDmesgEvents:
    def test_eviction_marker_leads_the_export(self):
        clock = VirtualClock()
        buffer = DmesgBuffer(clock, capacity=2)
        for n in range(4):
            clock.advance(1.0)
            buffer.log(f"line {n}")
        assert buffer.evicted == 2
        events = buffer.to_events()
        assert events[0]["name"] == "dmesg.evicted"
        assert events[0]["args"] == {"count": 2}
        assert events[0]["ts_s"] == events[1]["ts_s"]
        assert [e["args"]["text"] for e in events[1:]] == ["line 2", "line 3"]

    def test_no_marker_without_evictions(self):
        buffer = DmesgBuffer(VirtualClock())
        buffer.log("hello", level="info")
        events = buffer.to_events()
        assert [e["name"] for e in events] == ["dmesg.info"]


_BOUNDS = (0.1, 1.0, 10.0)
#: Any float, with the edge cases drawn often: the bucket bounds
#: themselves, both zeros, NaN and both infinities.
_OBSERVATIONS = st.lists(
    st.one_of(
        st.floats(),
        st.sampled_from([*_BOUNDS, 0.0, -0.0, math.nan, math.inf, -math.inf]),
    ),
    max_size=30,
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestMetrics:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(before=_OBSERVATIONS, values=_OBSERVATIONS)
    @example(before=[], values=[1e16, 1.0, -1e16])
    @example(before=[0.1], values=[0.2, 0.3])
    @example(before=[], values=[math.inf, -math.inf, -0.0])
    def test_observe_many_equals_one_observe_each(self, before, values):
        one_by_one = obs.Histogram(bounds=_BOUNDS)
        batched = obs.Histogram(bounds=_BOUNDS)
        for hist in (one_by_one, batched):
            for value in before:
                hist.observe(value)
        for value in values:
            one_by_one.observe(value)
        batched.observe_many(values)
        assert batched.counts == one_by_one.counts
        assert batched.count == one_by_one.count
        assert _bits(batched.sum) == _bits(one_by_one.sum)

    def test_counter_identity_and_totals(self):
        registry = obs.MetricsRegistry()
        registry.counter("ops", op="read").inc()
        registry.counter("ops", op="read").inc(2)
        registry.counter("ops", op="write").inc(5)
        assert registry.counter_value("ops", op="read") == 3
        assert registry.counter_value("ops", op="fsync") == 0
        assert registry.counter_total("ops") == 8

    def test_counters_reject_negative_increments(self):
        with pytest.raises(ConfigurationError):
            obs.MetricsRegistry().counter("ops").inc(-1)

    def test_label_order_does_not_split_series(self):
        registry = obs.MetricsRegistry()
        registry.counter("x", a="1", b="2").inc()
        registry.counter("x", b="2", a="1").inc()
        assert registry.counter_value("x", a="1", b="2") == 2
        assert len(registry) == 1

    def test_histogram_buckets_and_percentile(self):
        hist = obs.Histogram(bounds=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(56.05)

    def test_histogram_bounds_must_be_sorted(self):
        with pytest.raises(ConfigurationError):
            obs.Histogram(bounds=[1.0, 0.5])
        with pytest.raises(ConfigurationError):
            obs.Histogram(bounds=[])

    def test_histogram_bounds_conflict_detected(self):
        registry = obs.MetricsRegistry()
        registry.histogram("lat", bounds=[1.0, 2.0])
        with pytest.raises(ConfigurationError):
            registry.histogram("lat", bounds=[1.0, 3.0])

    def test_merge_adds_counters_and_histograms(self):
        a = obs.MetricsRegistry()
        b = obs.MetricsRegistry()
        for registry, n in ((a, 1), (b, 2)):
            registry.counter("ops", op="read").inc(n)
            registry.histogram("lat", bounds=[1.0]).observe(0.5 * n)
        a.merge(b.snapshot())
        assert a.counter_value("ops", op="read") == 3
        merged = a.histogram("lat", bounds=[1.0])
        assert merged.count == 2
        assert merged.sum == pytest.approx(1.5)

    def test_merge_rejects_same_length_different_bounds(self):
        # Same bucket *count*, different *edges*: elementwise addition
        # would silently mis-bucket, so the merge must refuse.
        sink = obs.MetricsRegistry()
        sink.histogram("lat", bounds=[1.0, 2.0]).observe(0.5)
        source = obs.MetricsRegistry()
        source.histogram("lat", bounds=[1.0, 3.0]).observe(0.5)
        with pytest.raises(ConfigurationError, match="cannot merge"):
            sink.merge(source.snapshot())
        # and the sink is untouched
        assert sink.histogram("lat", bounds=[1.0, 2.0]).count == 1

    def test_merge_into_empty_registry_equals_source(self):
        source = obs.MetricsRegistry()
        source.counter("c", k="v").inc(7)
        source.histogram("h").observe(0.3)
        sink = obs.MetricsRegistry()
        sink.merge(source.snapshot())
        assert sink.snapshot() == source.snapshot()

    def test_render_prometheus_shape(self):
        registry = obs.MetricsRegistry()
        registry.counter("ops_total", op="read").inc(3)
        registry.histogram("lat_s", bounds=[0.1, 1.0]).observe(0.05)
        text = registry.render_prometheus()
        assert "# TYPE ops_total counter" in text
        assert 'ops_total{op="read"} 3' in text
        assert 'lat_s_bucket{le="0.1"} 1' in text
        assert 'lat_s_bucket{le="+Inf"} 1' in text
        assert "lat_s_count 1" in text
        assert text.endswith("\n")
        assert registry.render_prometheus() == text  # stable


class TestSwitchboard:
    def test_disabled_by_default(self):
        assert obs.get() is None

    def test_session_installs_and_restores(self):
        with obs.session() as tel:
            assert obs.get() is tel
        assert obs.get() is None

    def test_session_restores_previous_bundle_on_error(self):
        outer = Telemetry()
        previous = obs.install(outer)
        try:
            with pytest.raises(RuntimeError):
                with obs.session():
                    assert obs.get() is not outer
                    raise RuntimeError("boom")
            assert obs.get() is outer
        finally:
            obs.install(previous)

    def test_session_accepts_prebuilt_bundle(self):
        bundle = Telemetry(tracer=obs.Tracer(detail="attempts"))
        with obs.session(bundle) as tel:
            assert tel is bundle
            assert obs.get().tracer.detail == "attempts"
