"""Deterministic virtual-clock time series.

PR 3's registry answers "how many, in total"; the fleet/SLO roadmap
items need "how much, *when*" — throughput collapse during an attack
window, p99 latency per minute, recovery curves.  This module records
that shape: named series of **fixed-interval windows** on the virtual
clock, each window a small aggregate (count/sum/min/max/last for value
series, fixed-bucket counts for histogram series).

The same discipline as :mod:`repro.obs.metrics` applies:

* **deterministic** — windows live in plain dicts keyed by integer
  window index; snapshots list series and windows in sorted order, so
  two identical runs dump byte-identical JSONL;
* **mergeable** — :meth:`SeriesRecorder.snapshot` /
  :meth:`SeriesRecorder.merge` move windowed aggregates across process
  boundaries.  :class:`~repro.runtime.runner.SweepRunner` merges
  per-point snapshots back in spec-index order, so the folded window
  sums add the same floats in the same order at any worker count —
  float-identical, the PR 3 worker-merge guarantee extended to series;
* **bounded** — each series keeps at most ``max_windows`` windows; when
  a newer window would exceed that, the oldest is evicted and counted
  in ``dropped_windows`` (the dmesg-ring overflow discipline).

A window's index is ``floor(t / interval)``; a sample landing exactly
on a boundary ``k * interval`` belongs to window ``k`` (closed left
edge, open right edge) — pinned by the boundary-correlation tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

from .metrics import DEFAULT_LATENCY_BUCKETS_S

__all__ = [
    "ValueWindow",
    "HistWindow",
    "TimeSeries",
    "SeriesRecorder",
    "DEFAULT_WINDOW_S",
    "DEFAULT_MAX_WINDOWS",
]

#: Default window width (virtual seconds).  One second resolves the
#: paper's second-scale crash/recovery stories without blowing up a
#: multi-minute serving run.
DEFAULT_WINDOW_S = 1.0

#: Default per-series ring bound: a day of one-second windows would not
#: fit a campaign report anyway; 4096 covers every simulated scenario
#: in the repo with margin.
DEFAULT_MAX_WINDOWS = 4096

_KINDS = ("value", "hist")


class ValueWindow:
    """Aggregate of the samples that landed in one value-series window."""

    __slots__ = ("count", "sum", "min", "max", "last")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value

    def combine(self, payload: List[float]) -> None:
        """Fold a snapshot row in (count/sum add, min/max widen,
        last takes the incoming value — merge order is the runner's
        deterministic spec order, so "last writer" is well defined)."""
        count, total, low, high, last = payload
        self.count += int(count)
        self.sum += total
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        self.last = last

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def payload(self) -> List[float]:
        return [self.count, self.sum, self.min, self.max, self.last]


class HistWindow:
    """Fixed-bucket counts for one histogram-series window."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_bounds: int) -> None:
        self.counts = [0] * (n_bounds + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, bounds: Tuple[float, ...], value: float) -> None:
        self.counts[bisect_left(bounds, value)] += 1
        self.sum += value
        self.count += 1

    def combine(self, payload: List[Any]) -> None:
        counts, total, count = payload
        if len(counts) != len(self.counts):
            raise ConfigurationError(
                f"cannot merge {len(counts)} histogram buckets into "
                f"{len(self.counts)}"
            )
        for index, bucket in enumerate(counts):
            self.counts[index] += bucket
        self.sum += total
        self.count += int(count)

    def percentile(self, bounds: Tuple[float, ...], pct: float) -> float:
        """Upper bound of the bucket holding the requested rank
        (``math.inf`` for ranks in the overflow bucket, 0.0 when
        empty)."""
        if not 0.0 <= pct <= 100.0:
            raise ConfigurationError(f"percentile out of range: {pct}")
        if self.count == 0:
            return 0.0
        rank = pct / 100.0 * self.count
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if index == len(bounds):
                    return math.inf
                return bounds[index]
        return bounds[-1]

    def payload(self) -> List[Any]:
        return [list(self.counts), self.sum, self.count]


class TimeSeries:
    """One named series of fixed-interval windows on the virtual clock."""

    __slots__ = ("name", "kind", "interval_s", "max_windows", "bounds",
                 "windows", "dropped_windows")

    def __init__(
        self,
        name: str,
        kind: str = "value",
        interval_s: float = DEFAULT_WINDOW_S,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        bounds: Optional[Iterable[float]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown series kind {kind!r}")
        if interval_s <= 0.0:
            raise ConfigurationError(f"window interval must be positive: {interval_s}")
        if max_windows < 1:
            raise ConfigurationError(f"max_windows must be >= 1: {max_windows}")
        self.name = name
        self.kind = kind
        self.interval_s = float(interval_s)
        self.max_windows = max_windows
        self.bounds: Tuple[float, ...] = tuple(
            float(b) for b in (bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS_S)
        )
        self.windows: Dict[int, Any] = {}
        self.dropped_windows = 0

    # -- recording -----------------------------------------------------------

    def window_index(self, t_s: float) -> int:
        """Window holding virtual time ``t_s`` (closed left edge)."""
        return int(t_s // self.interval_s)

    def _window(self, index: int):
        window = self.windows.get(index)
        if window is None:
            window = (
                ValueWindow() if self.kind == "value" else HistWindow(len(self.bounds))
            )
            self.windows[index] = window
            if len(self.windows) > self.max_windows:
                self._evict_oldest()
        return window

    def _evict_oldest(self) -> None:
        oldest = min(self.windows)
        del self.windows[oldest]
        self.dropped_windows += 1

    def record(self, t_s: float, value: float) -> None:
        """Add one sample to the window containing ``t_s``."""
        if self.kind != "value":
            raise ConfigurationError(f"series {self.name!r} is a histogram; use observe()")
        self._window(self.window_index(t_s)).add(value)

    def observe(self, t_s: float, value: float) -> None:
        """Add one observation to the histogram window containing ``t_s``."""
        if self.kind != "hist":
            raise ConfigurationError(f"series {self.name!r} is a value series; use record()")
        self._window(self.window_index(t_s)).observe(self.bounds, value)

    # -- reads ---------------------------------------------------------------

    def window_indexes(self) -> List[int]:
        """Populated window indexes, ascending."""
        return sorted(self.windows)

    def window_start_s(self, index: int) -> float:
        return index * self.interval_s

    def value_at(self, index: int, stat: str = "mean") -> float:
        """One window's stat (``mean``/``sum``/``count``/``min``/``max``/``last``)."""
        window = self.windows.get(index)
        if window is None:
            return 0.0
        if self.kind == "hist":
            if stat == "count":
                return float(window.count)
            if stat == "sum":
                return window.sum
            return window.sum / window.count if window.count else 0.0
        return getattr(window, stat) if stat != "mean" else window.mean

    def __len__(self) -> int:
        return len(self.windows)

    # -- transport -----------------------------------------------------------

    def spec(self) -> List[Any]:
        spec = [self.name, self.kind, self.interval_s, self.max_windows]
        if self.kind == "hist":
            spec.append(list(self.bounds))
        return spec

    def snapshot_windows(self) -> List[List[Any]]:
        return [
            [index] + self.windows[index].payload() for index in sorted(self.windows)
        ]


class SeriesRecorder:
    """Named time series, get-or-create, snapshot/mergeable as a set."""

    def __init__(
        self,
        interval_s: float = DEFAULT_WINDOW_S,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if interval_s <= 0.0:
            raise ConfigurationError(f"window interval must be positive: {interval_s}")
        self.interval_s = float(interval_s)
        self.max_windows = max_windows
        self._series: Dict[str, TimeSeries] = {}

    # -- access --------------------------------------------------------------

    def series(
        self,
        name: str,
        kind: str = "value",
        interval_s: Optional[float] = None,
        bounds: Optional[Iterable[float]] = None,
    ) -> TimeSeries:
        """The series for ``name``, created on first use.

        Creation parameters only apply on first use; a later lookup with
        a conflicting kind raises (mis-typed recording would silently
        corrupt aggregates).
        """
        existing = self._series.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ConfigurationError(
                    f"series {name!r} already exists with kind {existing.kind!r}"
                )
            return existing
        created = TimeSeries(
            name,
            kind=kind,
            interval_s=interval_s if interval_s is not None else self.interval_s,
            max_windows=self.max_windows,
            bounds=bounds,
        )
        self._series[name] = created
        return created

    def get(self, name: str) -> Optional[TimeSeries]:
        """The series, or None when nothing was ever recorded under it."""
        return self._series.get(name)

    def record(self, name: str, t_s: float, value: float) -> None:
        """Add one sample to value series ``name`` at virtual ``t_s``."""
        self.series(name).record(t_s, value)

    def names(self) -> List[str]:
        """Every recorded series name, sorted."""
        return sorted(self._series)

    def span_s(self) -> Tuple[float, float]:
        """(earliest window start, latest window end) across all series."""
        starts: List[float] = []
        ends: List[float] = []
        for series in self._series.values():
            if series.windows:
                indexes = series.window_indexes()
                starts.append(indexes[0] * series.interval_s)
                ends.append((indexes[-1] + 1) * series.interval_s)
        if not starts:
            return 0.0, 0.0
        return min(starts), max(ends)

    def __len__(self) -> int:
        return len(self._series)

    # -- transport -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every series (sorted, deterministic)."""
        return {
            "series": [
                {
                    "spec": series.spec(),
                    "windows": series.snapshot_windows(),
                    "dropped": series.dropped_windows,
                }
                for _name, series in sorted(self._series.items())
            ]
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` in, series by series, windows in
        ascending index order (so eviction and float addition replay the
        same way at any worker count)."""
        for entry in snapshot.get("series", []):
            spec = entry["spec"]
            name, kind, interval_s, max_windows = spec[0], spec[1], spec[2], spec[3]
            bounds = spec[4] if len(spec) > 4 else None
            series = self.series(name, kind=kind, interval_s=interval_s, bounds=bounds)
            if series.interval_s != interval_s:
                raise ConfigurationError(
                    f"series {name!r}: cannot merge interval {interval_s} "
                    f"into {series.interval_s}"
                )
            for row in sorted(entry["windows"], key=lambda r: r[0]):
                series._window(int(row[0])).combine(row[1:])
            series.dropped_windows += entry.get("dropped", 0)
