"""Self-contained campaign dashboard: static HTML + terminal sparklines.

The HTML report is a single file with zero external dependencies: the
data rides in a ``<script type="application/json" id="dashboard-data">``
island and a small inline script draws series timelines (SVG polylines),
attack-window shading, the SLO table, and the fleet-health heatmap.
``tools/validate_trace.py`` parses the island back out to validate it,
so keep the id and script-type stable.

The terminal path (:func:`render_text_summary`) renders each series as
a unicode sparkline — enough to eyeball "p99 rose during the attack
window" without leaving the shell.
"""

from __future__ import annotations

import html
import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .timeseries import SeriesRecorder

__all__ = [
    "DATA_ISLAND_ID",
    "dashboard_payload",
    "render_dashboard_html",
    "sparkline",
    "render_text_summary",
]

DATA_ISLAND_ID = "dashboard-data"

_SPARK_BARS = "▁▂▃▄▅▆▇█"


def _series_points(recorder: SeriesRecorder) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for name in recorder.names():
        series = recorder.get(name)
        points: List[List[float]] = []
        if series.kind == "value":
            for index in series.window_indexes():
                points.append(
                    [series.window_start_s(index), series.value_at(index, "sum")]
                )
        else:
            for index in series.window_indexes():
                p99 = series.windows[index].percentile(series.bounds, 99.0)
                points.append(
                    [
                        series.window_start_s(index),
                        -1.0 if math.isinf(p99) else p99,
                    ]
                )
        out.append(
            {
                "name": name,
                "kind": series.kind,
                "interval_s": series.interval_s,
                "dropped_windows": series.dropped_windows,
                "points": points,
            }
        )
    return out


def dashboard_payload(
    recorder: SeriesRecorder,
    slo_report=None,
    health=None,
    attack_windows: Optional[Sequence[Tuple[float, Optional[float]]]] = None,
    title: str = "campaign dashboard",
) -> Dict[str, Any]:
    """The JSON island: everything the inline renderer needs.

    ``slo_report`` is a :class:`~repro.obs.slo.SloReport` (or None),
    ``health`` a :class:`~repro.obs.health.HealthTracker` (or None).
    Histogram series contribute their windowed p99 (−1 encodes an
    overflow-bucket / infinite percentile so the JSON stays finite).
    """
    start_s, end_s = recorder.span_s()
    windows: List[Dict[str, Any]] = []
    for window in attack_windows or []:
        start, end = window
        windows.append({"start_s": start, "end_s": end})
    return {
        "title": title,
        "span_s": [start_s, end_s],
        "series": _series_points(recorder),
        "slo": slo_report.to_payload() if slo_report is not None else None,
        "health": health.to_payload() if health is not None else None,
        "attack_windows": windows,
    }


_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5em auto; max-width: 980px;
       color: #1a1a2e; background: #fafafa; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
.series { margin-bottom: 1.2em; }
.series svg { background: #fff; border: 1px solid #ddd; border-radius: 4px; }
.series .name { font-family: ui-monospace, monospace; font-size: 12px; color: #444; }
table { border-collapse: collapse; font-size: 12px; }
td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #eee; } td.bad { background: #fdd; }
.heatmap span { display: inline-block; width: 26px; height: 18px; margin: 1px;
                border-radius: 3px; font-size: 9px; text-align: center;
                line-height: 18px; color: #fff; vertical-align: middle; }
.healthy { background: #2e8b57; } .degraded { background: #d99a1b; }
.stalled { background: #c0572e; } .crashed { background: #8b1a1a; }
.note { color: #666; font-size: 12px; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<div id="root"><noscript>Enable JavaScript to render the dashboard; the raw
data lives in the JSON island below.</noscript></div>
<script type="application/json" id="dashboard-data">__DATA__</script>
<script>
(function () {
  "use strict";
  var data = JSON.parse(document.getElementById("dashboard-data").textContent);
  var root = document.getElementById("root");
  var W = 900, H = 90, PAD = 4;
  var span = data.span_s || [0, 1];
  var spanLen = Math.max(1e-9, span[1] - span[0]);

  function el(tag, attrs, parent) {
    var ns = tag === "svg" || tag === "polyline" || tag === "rect" || tag === "line"
      ? document.createElementNS("http://www.w3.org/2000/svg", tag)
      : document.createElement(tag);
    for (var k in (attrs || {})) { ns.setAttribute(k, attrs[k]); }
    if (parent) { parent.appendChild(ns); }
    return ns;
  }
  function x(t) { return PAD + (W - 2 * PAD) * (t - span[0]) / spanLen; }

  function drawSeries(s) {
    var div = el("div", { "class": "series" }, root);
    var label = el("div", { "class": "name" }, div);
    label.textContent = s.name + (s.kind === "hist" ? " (windowed p99, s)" : "") +
      (s.dropped_windows ? "  [" + s.dropped_windows + " windows dropped]" : "");
    var svg = el("svg", { width: W, height: H }, div);
    (data.attack_windows || []).forEach(function (w) {
      var endS = w.end_s === null ? span[1] : w.end_s;
      el("rect", { x: x(w.start_s), y: 0, width: Math.max(1, x(endS) - x(w.start_s)),
                   height: H, fill: "#e2574c", opacity: 0.15 }, svg);
    });
    var vals = s.points.map(function (p) { return p[1]; });
    var lo = Math.min.apply(null, vals.concat([0]));
    var hi = Math.max.apply(null, vals.concat([lo + 1e-12]));
    var pts = s.points.map(function (p) {
      var yy = H - PAD - (H - 2 * PAD) * (p[1] - lo) / (hi - lo);
      return x(p[0]).toFixed(1) + "," + yy.toFixed(1);
    }).join(" ");
    el("polyline", { points: pts, fill: "none", stroke: "#30507a",
                     "stroke-width": 1.5 }, svg);
  }

  function drawSlo(slo) {
    var h2 = el("h2", {}, root); h2.textContent = "SLO";
    var note = el("div", { "class": "note" }, root);
    note.textContent = "objectives: " + slo.objectives.join(", ") +
      " — violation minutes: " + slo.violation_minutes.toFixed(3) +
      (slo.error_budget_burn !== null
        ? " — error-budget burn: " + slo.error_budget_burn.toFixed(2) + "x" : "");
    var table = el("table", {}, root);
    var head = el("tr", {}, table);
    ["t (s)", "ops", "errors", "avail %", "p50 (ms)", "p99 (ms)", "violated"]
      .forEach(function (t) { var th = el("th", {}, head); th.textContent = t; });
    slo.windows.forEach(function (w) {
      var tr = el("tr", {}, table);
      function td(text, bad) {
        var c = el("td", bad ? { "class": "bad" } : {}, tr);
        c.textContent = text;
      }
      function ms(v) { return v === null ? "inf" : (v * 1e3).toFixed(2); }
      td(w.t_s.toFixed(1)); td(w.ops); td(w.errors);
      td(w.avail_pct.toFixed(3)); td(ms(w.latency.p50)); td(ms(w.latency.p99));
      td(w.violated.join(", "), w.violated.length > 0);
    });
    (slo.attack_windows || []).forEach(function (a) {
      var p = el("div", { "class": "note" }, root);
      p.textContent = "attack " + a.start_s.toFixed(1) + "-" + a.end_s.toFixed(1) +
        "s: degraded " + a.degraded_s.toFixed(1) + "s, time-to-recover " +
        (a.time_to_recover_s === null ? "never" : a.time_to_recover_s.toFixed(1) + "s");
    });
  }

  function drawHealth(health) {
    var h2 = el("h2", {}, root); h2.textContent = "Fleet health: " + health.fleet;
    var map = el("div", { "class": "heatmap" }, root);
    Object.keys(health.units).forEach(function (unit) {
      var cell = el("span", { "class": health.units[unit], title: unit }, map);
      cell.textContent = unit.split("/").pop().replace("bay", "");
    });
    if (health.truncated && health.truncated.length) {
      var note = el("div", { "class": "note" }, root);
      note.textContent = "watch truncated (step budget exhausted): " +
        health.truncated.join(", ");
    }
  }

  (data.series || []).forEach(drawSeries);
  if (data.slo) { drawSlo(data.slo); }
  if (data.health) { drawHealth(data.health); }
})();
</script>
</body>
</html>
"""


def render_dashboard_html(
    recorder: SeriesRecorder,
    slo_report=None,
    health=None,
    attack_windows: Optional[Sequence[Tuple[float, Optional[float]]]] = None,
    title: str = "campaign dashboard",
) -> str:
    """Render the full standalone HTML report."""
    payload = dashboard_payload(
        recorder,
        slo_report=slo_report,
        health=health,
        attack_windows=attack_windows,
        title=title,
    )
    # "</script" inside a script element would terminate the island early;
    # escape the slash (valid JSON, invisible to JSON.parse).
    data = json.dumps(payload, sort_keys=True).replace("</", "<\\/")
    return _HTML_TEMPLATE.replace("__TITLE__", html.escape(title)).replace(
        "__DATA__", data
    )


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render values as a unicode sparkline, downsampled to ``width``."""
    finite = [v for v in values if not math.isinf(v) and not math.isnan(v)]
    if not finite:
        return ""
    if len(finite) > width:
        step = len(finite) / width
        finite = [finite[int(i * step)] for i in range(width)]
    lo, hi = min(finite), max(finite)
    spread = hi - lo
    if spread <= 0.0:
        return _SPARK_BARS[0] * len(finite)
    return "".join(
        _SPARK_BARS[min(len(_SPARK_BARS) - 1, int((v - lo) / spread * len(_SPARK_BARS)))]
        for v in finite
    )


def render_text_summary(
    recorder: SeriesRecorder, slo_report=None, health=None
) -> str:
    """Terminal summary: one sparkline per series, plus SLO and health."""
    lines: List[str] = []
    for entry in _series_points(recorder):
        values = [p[1] for p in entry["points"]]
        spark = sparkline(values)
        if not spark:
            continue
        suffix = " (p99)" if entry["kind"] == "hist" else ""
        lines.append(f"  {entry['name']}{suffix}: {spark}")
    if lines:
        lines.insert(0, "Series")
    if slo_report is not None:
        if lines:
            lines.append("")
        lines.append(slo_report.render())
    if health is not None:
        if lines:
            lines.append("")
        counts = health.counts()
        summary = ", ".join(
            f"{state}={counts[state]}" for state in counts if counts[state]
        )
        lines.append(f"Fleet health: {health.fleet_state()} ({summary or 'no units'})")
    return "\n".join(lines)
