"""Serialize recorded telemetry for external viewers.

Four formats, all deterministic for a given tracer/registry state:

* **Chrome ``trace_event`` JSON** — loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Virtual seconds
  map to microseconds; each tracer track becomes its own named thread
  row via ``thread_name`` metadata events.  The writer streams the
  document from the tracer's record tuples in bounded chunks, byte for
  byte what ``json.dump`` makes of :func:`chrome_trace`.
* **Prometheus text dump** — the registry's exposition format, written
  to a file for the ``--metrics-out`` CLI flag.
* **Series JSONL** — one JSON object per (series, window), sorted by
  series name then window index, for the ``--series-out`` flag.  This
  is the artifact the ``--workers`` byte-identity acceptance test
  compares, so the ordering and ``sort_keys`` are load-bearing.
* **Dashboard HTML** — the self-contained report from
  :mod:`repro.obs.dashboard`, for the ``--dashboard-out`` flag.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Tuple

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_metrics_text",
    "series_jsonl_lines",
    "write_series_jsonl",
    "write_dashboard_html",
]

#: All simulated activity is "one process" in the viewer.
_PID = 1
#: Events per ``write`` when streaming a Chrome trace.
_CHUNK = 4096

# What ``json.dump(..., indent=1, sort_keys=True)`` writes for scalars.
_str_text = json.encoder.encode_basestring_ascii
_int_text = int.__repr__
_float_text = float.__repr__
#: The ``float.__repr__`` spellings json replaces (``allow_nan=True``).
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _track_ids(tracer) -> Dict[str, int]:
    """Stable track → tid mapping: "main" first, the rest sorted."""
    names = {row[4] for row in tracer._spans} | {row[3] for row in tracer._events}
    ordered = (["main"] if "main" in names else []) + sorted(names - {"main"})
    return {name: tid for tid, name in enumerate(ordered, start=1)}


def chrome_trace(tracer) -> Dict[str, Any]:
    """The tracer's records as a Chrome ``trace_event`` document."""
    tids = _track_ids(tracer)
    events: List[Dict[str, Any]] = []
    for name, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )
    for span in tracer.spans:
        event = {
            "ph": "X",
            "pid": _PID,
            "tid": tids[span.track],
            "name": span.name,
            "cat": span.category or "span",
            "ts": span.start_s * 1e6,
            "dur": span.duration_s * 1e6,
        }
        args = dict(span.args) if span.args else {}
        if span.status != "ok":
            args["status"] = span.status
        if args:
            event["args"] = args
        events.append(event)
    for instant in tracer.events:
        event = {
            "ph": "i",
            "pid": _PID,
            "tid": tids[instant.track],
            "name": instant.name,
            "cat": instant.category or "event",
            "ts": instant.ts_s * 1e6,
            "s": "t",
        }
        if instant.args:
            event["args"] = dict(instant.args)
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual",
            "dropped_records": tracer.dropped,
        },
    }


def _json_text(value: Any, level: int) -> str:
    """``value`` as ``json.dump(indent=1, sort_keys=True)`` writes it
    ``level`` containers deep."""
    if isinstance(value, str):
        return _str_text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, float):
        text = _float_text(value)
        return _NON_FINITE.get(text, text)
    text = json.dumps(value, indent=1, sort_keys=True)
    return text.replace("\n", "\n" + " " * level)


def _args_text(args: Dict[Any, Any]) -> str:
    """An event's ``args`` object, its members four spaces in."""
    if not all(isinstance(key, str) for key in args):
        return _json_text(args, 3)
    members = ",".join(
        f"\n    {_str_text(key)}: {_json_text(value, 4)}"
        for key, value in sorted(args.items())
    )
    return f"{{{members}\n   }}"


def _event_chunks(tracer, tids: Dict[str, int]) -> Iterator[List[str]]:
    """The text of every Chrome event, in :func:`chrome_trace` order: the
    thread names in one list (one per track), then spans and instants
    in lists of at most ``_CHUNK``.

    Each event is the fixed template ``json.dump`` would print for it.
    The members that depend only on (name, category, track) are
    formatted once per distinct triple, so a span without args costs
    two float reprs and one f-string.  Times are floats (``* 1e6``
    makes them so); any other ``args`` value goes through
    :func:`_json_text`.
    """
    if tids:
        yield [
            f'{{\n   "args": {{\n    "name": {_str_text(track)}\n   }},\n'
            f'   "name": "thread_name",\n   "ph": "M",\n   "pid": {_PID},\n'
            f'   "tid": {tid}\n  }}'
            for track, tid in tids.items()
        ]

    non_finite = _NON_FINITE
    float_text = _float_text
    templates: Dict[tuple, tuple] = {}
    spans = tracer._spans
    for begin in range(0, len(spans), _CHUNK):
        texts = []
        append = texts.append
        for name, category, start_s, end_s, track, status, args in spans[
            begin : begin + _CHUNK
        ]:
            key = (name, category, track)
            template = templates.get(key)
            if template is None:
                template = templates[key] = (
                    f'\n   "cat": {_str_text(category or "span")},\n   "dur": ',
                    f',\n   "name": {_str_text(name)},\n   "ph": "X",\n'
                    f'   "pid": {_PID},\n   "tid": {tids[track]},\n   "ts": ',
                )
            head, middle = template
            dur = float_text((end_s - start_s) * 1e6)
            ts = float_text(start_s * 1e6)
            if args or status != "ok":
                members = dict(args) if args else {}
                if status != "ok":
                    members["status"] = status
                head = f'\n   "args": {_args_text(members)},{head}'
            append(
                f"{{{head}{non_finite.get(dur, dur)}{middle}"
                f"{non_finite.get(ts, ts)}\n  }}"
            )
        yield texts

    instants = tracer._events
    for begin in range(0, len(instants), _CHUNK):
        texts = []
        for name, category, ts_s, track, args in instants[begin : begin + _CHUNK]:
            head = f'\n   "args": {_args_text(dict(args))},' if args else ""
            ts = float_text(ts_s * 1e6)
            texts.append(
                f'{{{head}\n   "cat": {_str_text(category or "event")},\n'
                f'   "name": {_str_text(name)},\n   "ph": "i",\n   "pid": {_PID},\n'
                f'   "s": "t",\n   "tid": {tids[track]},\n'
                f'   "ts": {non_finite.get(ts, ts)}\n  }}'
            )
        yield texts


def write_chrome_trace(tracer, path: str) -> Tuple[int, int]:
    """Write :func:`chrome_trace` JSON to ``path``; returns how many spans
    and instant events it wrote.

    The bytes are exactly ``json.dump(chrome_trace(tracer), indent=1,
    sort_keys=True)`` plus a newline, but neither the document nor a
    record view is ever built: events stream from the tracer's record
    tuples, ``_CHUNK`` per ``write``, so memory stays flat however long
    the trace.
    """
    tids = _track_ids(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            '{\n "displayTimeUnit": "ms",\n "otherData": {\n  "clock": "virtual",\n'
            f'  "dropped_records": {_json_text(tracer.dropped, 2)}\n }},\n'
            ' "traceEvents": ['
        )
        wrote = False
        for texts in _event_chunks(tracer, tids):
            handle.write((",\n  " if wrote else "\n  ") + ",\n  ".join(texts))
            wrote = True
        handle.write("\n ]\n}\n" if wrote else "]\n}\n")
    return len(tracer._spans), len(tracer._events)


def write_metrics_text(registry, path: str) -> None:
    """Write the registry's Prometheus text dump to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.render_prometheus())


def series_jsonl_lines(recorder) -> List[str]:
    """Every recorded window as one JSON line.

    Lines are sorted by series name, then window index; each carries
    the window start time and the window aggregate, so ``jq`` can
    reconstruct any series without extra state.  Byte-identical for
    identical recorder contents (the ``--workers`` parity guarantee).
    """
    lines: List[str] = []
    for name in recorder.names():
        series = recorder.get(name)
        for index in series.window_indexes():
            window = series.windows[index]
            record: Dict[str, Any] = {
                "series": name,
                "kind": series.kind,
                "window": index,
                "t_s": series.window_start_s(index),
                "interval_s": series.interval_s,
            }
            if series.kind == "value":
                record.update(
                    count=window.count,
                    sum=window.sum,
                    min=window.min,
                    max=window.max,
                    last=window.last,
                )
            else:
                record.update(
                    count=window.count,
                    sum=window.sum,
                    counts=list(window.counts),
                )
            lines.append(json.dumps(record, sort_keys=True))
    return lines


def write_series_jsonl(recorder, path: str) -> None:
    """Write :func:`series_jsonl_lines` to ``path``, one per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in series_jsonl_lines(recorder):
            handle.write(line)
            handle.write("\n")


def write_dashboard_html(
    recorder,
    path: str,
    slo_report=None,
    health=None,
    attack_windows=None,
    title: str = "campaign dashboard",
) -> None:
    """Render and write the standalone dashboard report."""
    from .dashboard import render_dashboard_html

    html_text = render_dashboard_html(
        recorder,
        slo_report=slo_report,
        health=health,
        attack_windows=attack_windows,
        title=title,
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(html_text)
