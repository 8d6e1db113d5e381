"""Reporting helpers: ASCII tables and terminal plots."""

from .tables import Table, format_mbps, format_latency_ms
from .plots import ascii_chart

__all__ = [
    "Table",
    "format_mbps",
    "format_latency_ms",
    "ascii_chart",
]
