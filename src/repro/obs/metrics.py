"""The metrics registry: counters and fixed-bucket histograms.

Replaces the ad-hoc counter plumbing that grew inside the drive, the
FIO tester, the journal, and the KV store with one process-wide sink:
components get-or-create named, labelled instruments once and bump them
as they work.  The registry is:

* **deterministic** — instruments render and snapshot in sorted
  (name, labels) order, and histograms use fixed bucket bounds, so two
  identical runs produce byte-identical dumps;
* **mergeable** — :meth:`MetricsRegistry.snapshot` /
  :meth:`MetricsRegistry.merge` move totals across process boundaries,
  which is how :class:`~repro.runtime.runner.SweepRunner` folds
  per-worker telemetry back into the campaign totals; and
* **exportable** — :meth:`MetricsRegistry.render_prometheus` writes the
  standard text exposition format.

The legacy stats dataclasses (``DriveStats``, ``JournalStats``,
``DBStats``, ...) remain as the per-component API; the registry is the
cross-component aggregate view.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "SERVICE_LATENCY_BOUNDS_S",
]

#: Fixed latency bucket bounds (seconds): sub-millisecond cache hits up
#: through the 75 s blocked-write pathology of Table 3.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    15.0,
    30.0,
    75.0,
)

#: Service-op latency buckets: the KV fast path completes in tens of
#: microseconds, far below the drive-level default buckets, so the
#: service histogram prepends a sub-millisecond decade — otherwise a
#: 10x retry-driven latency inflation hides inside the first bucket.
SERVICE_LATENCY_BOUNDS_S: Tuple[float, ...] = (
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
) + DEFAULT_LATENCY_BUCKETS_S

Labels = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_text(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ConfigurationError(f"counters only go up: {amount}")
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (cumulative buckets on export).

    ``bounds`` are the inclusive upper edges; one implicit +Inf bucket
    catches the overflow.  Fixed bounds keep snapshots mergeable with
    plain elementwise addition.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if list(self.bounds) != sorted(self.bounds):
            raise ConfigurationError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record each of ``values`` in order, as one :meth:`observe` each.

        The sum is added left to right, as the separate calls add it,
        so it keeps their bits: not ``sum()``, which compensates on
        Python >= 3.12, nor ``math.fsum``.
        """
        counts = self.counts
        bounds = self.bounds
        total = self.sum
        seen = 0
        for value in values:
            counts[bisect_left(bounds, value)] += 1
            total += value
            seen += 1
        self.sum = total
        self.count += seen


class MetricsRegistry:
    """Process-wide named instruments, keyed by (name, sorted labels)."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}
        self._descriptions: Dict[str, str] = {}

    def _describe(self, name: str, description: Optional[str]) -> None:
        if description and name not in self._descriptions:
            self._descriptions[name] = description

    def description(self, name: str) -> Optional[str]:
        """The registered help text for ``name``, or None."""
        return self._descriptions.get(name)

    # -- instrument access (get-or-create) -----------------------------------

    def counter(
        self, name: str, description: Optional[str] = None, **labels: Any
    ) -> Counter:
        """The counter for (name, labels), created on first use.

        ``description`` registers ``# HELP`` text the first time it is
        given for a name; later values for the same name are ignored.
        """
        self._describe(name, description)
        key = (name, _labels_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def histogram(
        self,
        name: str,
        bounds: Optional[Iterable[float]] = None,
        description: Optional[str] = None,
        **labels: Any,
    ) -> Histogram:
        """The histogram for (name, labels), created on first use.

        ``bounds`` only applies at creation; later lookups must agree
        (mismatched bounds would silently mis-bucket).
        """
        self._describe(name, description)
        key = (name, _labels_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(
                bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS_S
            )
        elif bounds is not None and tuple(float(b) for b in bounds) != metric.bounds:
            raise ConfigurationError(
                f"histogram {name!r} already exists with different bounds"
            )
        return metric

    # -- reads ---------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> int:
        """Current value, 0 when the counter was never touched."""
        metric = self._counters.get((name, _labels_key(labels)))
        return 0 if metric is None else metric.value

    def counter_total(self, name: str) -> int:
        """Sum over every label combination of ``name``."""
        return sum(
            metric.value
            for (metric_name, _), metric in self._counters.items()
            if metric_name == name
        )

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    # -- transport -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every instrument (sorted, deterministic)."""
        return {
            "counters": [
                [name, list(map(list, labels)), metric.value]
                for (name, labels), metric in sorted(self._counters.items())
            ],
            "histograms": [
                [
                    name,
                    list(map(list, labels)),
                    list(metric.bounds),
                    list(metric.counts),
                    metric.sum,
                    metric.count,
                ]
                for (name, labels), metric in sorted(self._histograms.items())
            ],
            "descriptions": [
                [name, text] for name, text in sorted(self._descriptions.items())
            ],
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` in: counters and histograms add."""
        for name, text in snapshot.get("descriptions", []):
            self._describe(name, text)
        for name, labels, value in snapshot.get("counters", []):
            self.counter(name, **dict(labels)).inc(value)
        for name, labels, bounds, counts, total, count in snapshot.get(
            "histograms", []
        ):
            label_map = dict(labels)
            existing = self._histograms.get((name, _labels_key(label_map)))
            snapshot_bounds = tuple(float(b) for b in bounds)
            if existing is not None and snapshot_bounds != existing.bounds:
                # Same bucket *count* does not mean same bucket *edges*;
                # adding such counts elementwise would silently
                # mis-bucket, so refuse with a merge-specific error.
                raise ConfigurationError(
                    f"histogram {name!r}: cannot merge snapshot with bounds "
                    f"{list(snapshot_bounds)} into registered bounds "
                    f"{list(existing.bounds)}"
                )
            metric = self.histogram(name, bounds=bounds, **label_map)
            if len(counts) != len(metric.counts):
                raise ConfigurationError(
                    f"histogram {name!r}: merging {len(counts)} buckets "
                    f"into {len(metric.counts)}"
                )
            for index, bucket_count in enumerate(counts):
                metric.counts[index] += bucket_count
            metric.sum += total
            metric.count += count

    # -- export --------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (sorted, stable)."""
        lines: List[str] = []
        emitted_types: set = set()

        def type_line(name: str, kind: str) -> None:
            if name not in emitted_types:
                emitted_types.add(name)
                help_text = self._descriptions.get(name)
                if help_text:
                    escaped = help_text.replace("\\", "\\\\").replace("\n", "\\n")
                    lines.append(f"# HELP {name} {escaped}")
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), metric in sorted(self._counters.items()):
            type_line(name, "counter")
            lines.append(f"{name}{_labels_text(labels)} {metric.value}")
        for (name, labels), metric in sorted(self._histograms.items()):
            type_line(name, "histogram")
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                bucket_labels = _labels_text(labels + (("le", f"{bound:g}"),))
                lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
            cumulative += metric.counts[-1]
            inf_labels = _labels_text(labels + (("le", "+Inf"),))
            lines.append(f"{name}_bucket{inf_labels} {cumulative}")
            lines.append(f"{name}_sum{_labels_text(labels)} {metric.sum:.9g}")
            lines.append(f"{name}_count{_labels_text(labels)} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")
