"""``repro.obs`` — the unified telemetry layer.

One subsystem for everything the repro can observe about itself:

* :mod:`~repro.obs.trace` — virtual-clock span tracing (plus the
  zero-overhead :data:`NULL_TRACER` for the disabled path);
* :mod:`~repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms with deterministic snapshot/merge for worker fan-out;
* :mod:`~repro.obs.timeseries` — fixed-interval windowed series on the
  virtual clock (throughput, latency, health over *time*), same
  snapshot/merge discipline;
* :mod:`~repro.obs.slo` — windowed SLO accounting: p50/p99/p999,
  availability, error-budget burn, violation minutes, time-to-recover
  per attack window;
* :mod:`~repro.obs.health` — bay → rack → fleet health rollups;
* :mod:`~repro.obs.telemetry` — the installable process-wide bundle
  components capture at construction;
* :mod:`~repro.obs.exporters` — Chrome ``trace_event`` JSON (Perfetto),
  Prometheus text dumps, series JSONL, and the self-contained HTML
  dashboard;
* :mod:`~repro.obs.dashboard` — the dashboard renderer itself (HTML +
  terminal sparklines);
* :mod:`~repro.obs.incident` — the correlated crash-story report.

Quick start::

    from repro import obs

    with obs.session() as tel:
        result = run_table3(seed=7)
    obs.write_chrome_trace(tel.tracer, "table3-trace.json")
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "trace": ("Tracer", "NullTracer", "NULL_TRACER", "SpanRecord", "EventRecord"),
        "metrics": (
            "MetricsRegistry",
            "Counter",
            "Gauge",
            "Histogram",
            "DEFAULT_LATENCY_BUCKETS_S",
        ),
        "timeseries": ("TimeSeries", "SeriesRecorder", "MetricsSampler"),
        "slo": (
            "SloObjective",
            "SloReport",
            "parse_slo",
            "evaluate_slo",
            "attack_windows_from_tracer",
        ),
        "health": ("HealthTracker", "HEALTH_STATES", "classify_probability"),
        "telemetry": ("Telemetry", "get", "install", "enabled", "tracer", "session"),
        "exporters": (
            "write_chrome_trace",
            "write_metrics_text",
            "series_jsonl_lines",
            "write_series_jsonl",
            "write_dashboard_html",
        ),
        "dashboard": (
            "dashboard_payload",
            "render_dashboard_html",
            "render_text_summary",
            "sparkline",
        ),
        "incident": ("build_incident_report",),
    },
)
