"""Tables, ASCII plots, statistics."""

import pytest

from repro.analysis.plots import ascii_chart
from repro.analysis.tables import Table, format_latency_ms, format_mbps
from repro.errors import ConfigurationError
from repro.workloads.fio import percentile


class TestFormatting:
    def test_mbps_zero_renders_bare(self):
        assert format_mbps(0.0) == "0"

    def test_mbps_one_decimal(self):
        assert format_mbps(18.04) == "18.0"
        assert format_mbps(22.66) == "22.7"

    def test_latency_none_is_dash(self):
        assert format_latency_ms(None) == "-"
        assert format_latency_ms(0.23) == "0.2"


class TestTable:
    def test_render_aligns_columns(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("short", 1)
        table.add_row("much longer name", 123456)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ConfigurationError):
            table.add_row("only one")

    def test_empty_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            Table("T", [])


class TestAsciiChart:
    def test_renders_all_series_markers(self):
        chart = ascii_chart(
            {
                "a": [(0.0, 0.0), (1.0, 1.0)],
                "b": [(0.0, 1.0), (1.0, 0.0)],
            }
        )
        assert "o = a" in chart
        assert "x = b" in chart
        assert "o" in chart.splitlines()[1] or "o" in chart

    def test_flat_series_handled(self):
        chart = ascii_chart({"flat": [(0.0, 5.0), (10.0, 5.0)]})
        assert "flat" in chart

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({})
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": []})

    def test_size_bounds(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": [(0, 0)]}, width=4)


class TestStats:
    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == 25.0

    def test_percentile_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 150)
        with pytest.raises(ConfigurationError):
            percentile([], 50)
