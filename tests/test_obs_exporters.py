"""Exporter formats: Chrome trace_event JSON, JSONL, Prometheus text.

The Chrome documents are additionally run through the same structural
validator CI uses (``tools/validate_trace.py``), so the test suite and
the CI gate can never disagree about what a well-formed trace is.  The
streaming writer is held byte for byte to ``json.dump`` of the
:func:`~repro.obs.chrome_trace` document, on fixed and generated
tracers.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import exporters

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
from validate_trace import validate_trace  # noqa: E402


def _sample_tracer() -> obs.Tracer:
    tracer = obs.Tracer()
    with tracer.track("victim/Ext4"):
        tracer.record("monitor.watch", 0.0, 80.25, category="monitor")
        tracer.record(
            "journal.commit", 10.0, 10.5, category="fs", status="error",
            args={"tid": 7},
        )
        tracer.instant("crash", 80.25, category="monitor", args={"error": "-5"})
    tracer.record("sweep.point", 0.0, 1.0, category="attack")
    return tracer


class TestChromeTrace:
    def test_document_passes_the_ci_validator(self):
        assert validate_trace(obs.chrome_trace(_sample_tracer())) == []

    def test_track_rows_are_stable(self):
        doc = obs.chrome_trace(_sample_tracer())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["main", "victim/Ext4"]
        assert [m["tid"] for m in meta] == [1, 2]

    def test_times_are_microseconds(self):
        doc = obs.chrome_trace(_sample_tracer())
        watch = next(e for e in doc["traceEvents"] if e["name"] == "monitor.watch")
        assert watch["ts"] == 0.0
        assert watch["dur"] == pytest.approx(80.25e6)
        crash = next(e for e in doc["traceEvents"] if e["name"] == "crash")
        assert crash["ph"] == "i"
        assert crash["ts"] == pytest.approx(80.25e6)

    def test_error_status_lands_in_args(self):
        doc = obs.chrome_trace(_sample_tracer())
        commit = next(e for e in doc["traceEvents"] if e["name"] == "journal.commit")
        assert commit["args"] == {"tid": 7, "status": "error"}

    def test_other_data_declares_virtual_clock(self):
        doc = obs.chrome_trace(_sample_tracer())
        assert doc["otherData"]["clock"] == "virtual"
        assert doc["otherData"]["dropped_records"] == 0

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        assert obs.write_chrome_trace(_sample_tracer(), str(path)) == (3, 1)
        assert path.read_text() == _json_dump_text(_sample_tracer())
        assert validate_trace(json.loads(path.read_text())) == []

    def test_empty_tracer_is_still_valid(self):
        doc = obs.chrome_trace(obs.Tracer())
        assert doc["traceEvents"] == []
        assert validate_trace(doc) == []


def _json_dump_text(tracer) -> str:
    """What ``write_chrome_trace`` must write: the ``json.dump`` bytes."""
    return json.dumps(obs.chrome_trace(tracer), indent=1, sort_keys=True) + "\n"


#: Names, tracks and strings: JSON escapes, non-ASCII, the "main" track.
_TEXT = st.one_of(
    st.sampled_from(["main", "drive.read", "", "status"]),
    st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€😀\u2028'), max_size=4),
    st.text(max_size=4),
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_TIMES = st.one_of(_FLOATS, st.integers(-(10**6), 10**6))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), _FLOATS, _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_TEXT, inner, max_size=3),
    ),
    max_leaves=6,
)
_ARGS = st.one_of(
    st.none(),
    st.dictionaries(_TEXT, _VALUES, max_size=4),
    # Non-string keys go through json.dumps whole (or fail as it does).
    st.dictionaries(st.integers(0, 3), _SCALARS, max_size=2),
)
_SPAN = st.tuples(
    st.just("span"), _TEXT, _TEXT, _TIMES, _TIMES,
    st.sampled_from(["ok", "error"]), _ARGS, _TEXT,
)
_INSTANT = st.tuples(st.just("instant"), _TEXT, _TEXT, _TIMES, _ARGS, _TEXT)


@st.composite
def _tracers(draw) -> obs.Tracer:
    tracer = obs.Tracer(max_records=draw(st.integers(1, 12)))
    for record in draw(st.lists(st.one_of(_SPAN, _INSTANT), max_size=10)):
        if record[0] == "span":
            _, name, category, start_s, end_s, status, args, track = record
            tracer.record(
                name, start_s, end_s, category=category, status=status,
                args=args, track=track,
            )
        else:
            _, name, category, ts_s, args, track = record
            tracer.instant(name, ts_s, category=category, args=args, track=track)
    return tracer


class TestStreamingWriter:
    """``write_chrome_trace`` never builds the document it writes."""

    @settings(
        max_examples=120,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(_tracers())
    @example(tracer=obs.Tracer())
    def test_bytes_match_json_dump(self, tmp_path, tracer):
        path = tmp_path / "trace.json"
        try:
            expected = _json_dump_text(tracer)
        except TypeError:  # unsortable args keys: both refuse
            with pytest.raises(TypeError):
                obs.write_chrome_trace(tracer, str(path))
            return
        written = obs.write_chrome_trace(tracer, str(path))
        assert path.read_text() == expected
        assert written == (len(tracer.spans), len(tracer.events))

    def test_non_finite_values_use_json_spellings(self, tmp_path):
        tracer = obs.Tracer()
        tracer.record("x", -math.inf, math.inf, args={"v": math.nan})
        tracer.instant("y", math.nan, args={"w": [math.inf, -math.inf]})
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(tracer, str(path))
        text = path.read_text()
        assert text == _json_dump_text(tracer)
        assert "NaN" in text and "-Infinity" in text and "nan" not in text

    def test_error_status_overrides_a_status_arg(self, tmp_path):
        tracer = obs.Tracer()
        tracer.record("a", 0.0, 1.0, status="error", args={"status": "ok", "n": 1})
        tracer.record("b", 1.0, 2.0, status="error")
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(tracer, str(path))
        assert path.read_text() == _json_dump_text(tracer)
        spans = json.loads(path.read_text())["traceEvents"][1:]
        assert [span["args"] for span in spans] == [
            {"n": 1, "status": "error"}, {"status": "error"}
        ]

    def test_dropped_records_are_reported(self, tmp_path):
        tracer = obs.Tracer(max_records=1)
        tracer.record("kept", 0.0, 1.0)
        tracer.record("dropped", 1.0, 2.0)
        tracer.instant("dropped too", 2.0)
        path = tmp_path / "trace.json"
        assert obs.write_chrome_trace(tracer, str(path)) == (1, 0)
        assert path.read_text() == _json_dump_text(tracer)
        assert json.loads(path.read_text())["otherData"]["dropped_records"] == 2

    def test_writes_at_most_one_chunk_of_events_at_a_time(self, monkeypatch):
        tracer = obs.Tracer()
        for n in range(10):
            tracer.record("op", n, n + 0.5, category="drive", track=f"t{n % 3}")
        tracer.instant("tick", 2.0, args={"text": "x"})
        writes = []

        class Sink:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def write(self, text):
                writes.append(text)

        monkeypatch.setattr(exporters, "_CHUNK", 4)
        monkeypatch.setattr(exporters, "open", Sink, raising=False)
        assert exporters.write_chrome_trace(tracer, "trace.json") == (10, 1)
        assert "".join(writes) == _json_dump_text(tracer)
        # Header, 4 thread names, 10 spans by 4, 1 instant, closing brackets.
        assert [text.count('"ph"') for text in writes] == [0, 4, 4, 4, 2, 1, 0]


class TestJsonl:
    def test_lines_sorted_by_virtual_time(self):
        lines = [json.loads(line) for line in obs.jsonl_lines(_sample_tracer())]
        assert [r["ts_s"] for r in lines] == sorted(r["ts_s"] for r in lines)
        # The tie at t=0 puts both spans before any instant.
        assert [r["type"] for r in lines] == ["span", "span", "span", "event"]

    def test_span_records_carry_duration_and_status(self):
        lines = [json.loads(line) for line in obs.jsonl_lines(_sample_tracer())]
        commit = next(r for r in lines if r["name"] == "journal.commit")
        assert commit["status"] == "error"
        assert commit["dur_s"] == pytest.approx(0.5)

    def test_write_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs.write_jsonl(_sample_tracer(), str(path))
        content = path.read_text().splitlines()
        assert content == obs.jsonl_lines(_sample_tracer())


class TestMetricsText:
    def test_write_metrics_text(self, tmp_path):
        registry = obs.MetricsRegistry()
        registry.counter("ops_total", op="read").inc(4)
        path = tmp_path / "metrics.prom"
        obs.write_metrics_text(registry, str(path))
        assert path.read_text() == registry.render_prometheus()


class TestValidatorRejects:
    """The CI validator must actually catch malformed documents."""

    def test_rejects_non_object(self):
        assert validate_trace([]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_trace({"otherData": {}}) != []

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "B", "pid": 1, "tid": 1, "name": "x"}]}
        assert any("ph" in error for error in validate_trace(doc))

    def test_rejects_span_without_duration(self):
        doc = {
            "traceEvents": [
                {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
                 "args": {"name": "main"}},
                {"ph": "X", "pid": 1, "tid": 1, "name": "x", "cat": "c", "ts": 0.0},
            ]
        }
        assert any("dur" in error for error in validate_trace(doc))

    def test_rejects_unnamed_tid(self):
        doc = {
            "traceEvents": [
                {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
                 "args": {"name": "main"}},
                {"ph": "i", "pid": 1, "tid": 9, "name": "x", "cat": "c",
                 "ts": 1.0, "s": "t"},
            ]
        }
        assert any("tid 9" in error for error in validate_trace(doc))
