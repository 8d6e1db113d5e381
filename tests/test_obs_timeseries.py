"""Deterministic time-series recorder: windows, rings, merge.

Unit-level pins for :mod:`repro.obs.timeseries`: window assignment at
boundaries (closed left edge), ring eviction with ``dropped_windows``
accounting, byte-identical snapshots across identical runs, and
snapshot → merge round trips that replay float addition in the same
order.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.timeseries import (
    DEFAULT_MAX_WINDOWS,
    DEFAULT_WINDOW_S,
    HistWindow,
    SeriesRecorder,
    TimeSeries,
)


class TestWindowing:
    def test_boundary_sample_lands_in_its_own_window(self):
        # Closed left edge: t == k * interval belongs to window k.
        series = TimeSeries("t", interval_s=1.0)
        series.record(0.0, 1.0)
        series.record(0.999999, 1.0)
        series.record(1.0, 5.0)
        assert series.window_indexes() == [0, 1]
        assert series.value_at(0, "count") == 2
        assert series.value_at(1, "count") == 1
        assert series.value_at(1, "last") == 5.0

    def test_window_index_scales_with_interval(self):
        series = TimeSeries("t", interval_s=0.5)
        assert series.window_index(0.49) == 0
        assert series.window_index(0.5) == 1
        assert series.window_index(1.75) == 3
        assert series.window_start_s(3) == 1.5

    def test_value_window_stats(self):
        series = TimeSeries("t")
        for value in (3.0, 1.0, 2.0):
            series.record(0.1, value)
        assert series.value_at(0, "min") == 1.0
        assert series.value_at(0, "max") == 3.0
        assert series.value_at(0, "sum") == 6.0
        assert series.value_at(0, "mean") == 2.0
        assert series.value_at(0, "last") == 2.0
        # Unpopulated windows read as 0.0 for every stat.
        assert series.value_at(99, "sum") == 0.0

    def test_defaults(self):
        series = TimeSeries("t")
        assert series.interval_s == DEFAULT_WINDOW_S
        assert series.max_windows == DEFAULT_MAX_WINDOWS

    def test_bad_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeSeries("t", kind="exotic")
        with pytest.raises(ConfigurationError):
            TimeSeries("t", interval_s=0.0)
        with pytest.raises(ConfigurationError):
            TimeSeries("t", max_windows=0)


class TestRing:
    def test_oldest_window_evicted_and_counted(self):
        series = TimeSeries("t", interval_s=1.0, max_windows=3)
        for k in range(5):
            series.record(float(k), 1.0)
        assert series.window_indexes() == [2, 3, 4]
        assert series.dropped_windows == 2

    def test_revisiting_a_live_window_does_not_evict(self):
        series = TimeSeries("t", interval_s=1.0, max_windows=3)
        for k in range(3):
            series.record(float(k), 1.0)
        series.record(0.5, 1.0)  # window 0 already exists
        assert series.dropped_windows == 0
        assert series.value_at(0, "count") == 2


class TestHistSeries:
    BOUNDS = (0.001, 0.01, 0.1)

    def test_percentile_contract(self):
        series = TimeSeries("lat", kind="hist", bounds=self.BOUNDS)
        assert series.value_at(0, "count") == 0.0
        for _ in range(99):
            series.observe(0.2, 0.0005)
        series.observe(0.2, 5.0)  # overflow bucket
        window = series.windows[0]
        assert window.percentile(series.bounds, 50.0) == 0.001
        assert window.percentile(series.bounds, 99.0) == 0.001
        assert window.percentile(series.bounds, 100.0) == math.inf

    def test_empty_window_percentile_is_zero(self):
        window = HistWindow(3)
        assert window.percentile(self.BOUNDS, 99.0) == 0.0
        with pytest.raises(ConfigurationError):
            window.percentile(self.BOUNDS, 101.0)

    def test_kind_mismatch_raises(self):
        recorder = SeriesRecorder()
        recorder.record("a", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            recorder.series("a", kind="hist")
        with pytest.raises(ConfigurationError):
            recorder.get("a").observe(0.0, 1.0)
        series = recorder.series("h", kind="hist")
        with pytest.raises(ConfigurationError):
            series.record(0.0, 1.0)


class TestSnapshotMerge:
    @staticmethod
    def _populated():
        recorder = SeriesRecorder()
        for t, v in ((0.2, 1.5), (0.7, 2.5), (1.1, 4.0)):
            recorder.record("throughput", t, v)
        for t, v in ((0.3, 0.002), (1.4, 0.05)):
            recorder.series("latency", kind="hist").observe(t, v)
        return recorder

    def test_identical_runs_dump_identical_snapshots(self):
        one = json.dumps(self._populated().snapshot(), sort_keys=True)
        two = json.dumps(self._populated().snapshot(), sort_keys=True)
        assert one == two

    def test_merge_round_trip(self):
        source = self._populated()
        target = SeriesRecorder()
        target.merge(source.snapshot())
        assert json.dumps(target.snapshot(), sort_keys=True) == json.dumps(
            source.snapshot(), sort_keys=True
        )

    def test_merge_folds_aggregates(self):
        target = self._populated()
        target.merge(self._populated().snapshot())
        series = target.get("throughput")
        assert series.value_at(0, "count") == 4
        assert series.value_at(0, "sum") == 8.0
        # min/max widen, last takes the incoming snapshot's value.
        assert series.value_at(0, "min") == 1.5
        assert series.value_at(0, "last") == 2.5

    def test_merge_interval_mismatch_raises(self):
        source = SeriesRecorder(interval_s=0.5)
        source.record("a", 0.0, 1.0)
        target = SeriesRecorder()
        target.record("a", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            target.merge(source.snapshot())

    def test_merge_preserves_dropped_count(self):
        source = SeriesRecorder(max_windows=2)
        for k in range(4):
            source.record("a", float(k), 1.0)
        assert source.get("a").dropped_windows == 2
        target = SeriesRecorder(max_windows=2)
        target.merge(source.snapshot())
        assert target.get("a").dropped_windows == 2

    def test_span_covers_all_series(self):
        recorder = self._populated()
        assert recorder.span_s() == (0.0, 2.0)
        assert SeriesRecorder().span_s() == (0.0, 0.0)
        assert len(recorder) == 2
        assert recorder.names() == ["latency", "throughput"]
