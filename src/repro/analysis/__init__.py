"""Reporting helpers: ASCII tables and terminal plots."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "tables": ("Table", "format_mbps", "format_latency_ms"),
        "plots": ("ascii_chart",),
    },
)
