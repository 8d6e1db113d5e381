"""SLO accounting over virtual-time series.

The paper's claim is about *availability*; a production operator would
state it as a service-level objective — "p99 under 5 ms, availability
at least 99.9%" — and account for it per time window: which minutes
violated, how fast the error budget burned, how long after the attack
stopped before the service met its objectives again.
:func:`evaluate_slo` computes exactly that from a
:class:`~repro.obs.timeseries.SeriesRecorder`.

Spec grammar (the CLI's ``--slo``)::

    SPEC      := OBJECTIVE ("," OBJECTIVE)*
    OBJECTIVE := METRIC OP VALUE [UNIT]
    METRIC    := "p50" | "p95" | "p99" | "p999" | "avail"
    OP        := "<" | "<=" | ">" | ">="
    UNIT      := "us" | "ms" | "s"       (latency metrics only)

``p99<5ms`` bounds windowed 99th-percentile latency; ``avail>=99.9``
bounds windowed availability (ok / (ok + error) operations) in percent.
Latency thresholds are stored in seconds.

Attack windows — ``(start_s, end_s)`` pairs, usually recovered from the
tracer's ``attack.on`` / ``attack.off`` instants via
:func:`attack_windows_from_tracer` — annotate the report with per-window
degraded time and time-to-recover, the Princeton acoustic-DoS framing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

from .timeseries import SeriesRecorder, TimeSeries

__all__ = [
    "SloObjective",
    "parse_slo",
    "WindowEval",
    "AttackWindowStats",
    "SloReport",
    "evaluate_slo",
    "attack_windows_from_tracer",
    "LATENCY_SERIES",
    "OPS_OK_SERIES",
    "OPS_ERROR_SERIES",
]

#: Default series names the serving layer records under (see
#: :class:`repro.workloads.ycsb.YcsbRunner`).
LATENCY_SERIES = "service/latency"
OPS_OK_SERIES = "service/ops_ok"
OPS_ERROR_SERIES = "service/ops_error"

_LATENCY_METRICS = {"p50": 50.0, "p95": 95.0, "p99": 99.0, "p999": 99.9}
_METRICS = tuple(_LATENCY_METRICS) + ("avail",)
_OPS = ("<=", ">=", "<", ">")  # two-char ops first for the regex
_UNITS_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "": 1.0}

_OBJECTIVE_RE = re.compile(
    r"^(?P<metric>[a-z0-9]+)\s*(?P<op><=|>=|<|>)\s*"
    r"(?P<value>[0-9.]+)\s*(?P<unit>us|ms|s)?$"
)


@dataclass(frozen=True)
class SloObjective:
    """One bound: ``metric op threshold``.

    ``threshold`` is in seconds for latency metrics and in percent
    (0-100) for ``avail``.
    """

    metric: str
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.metric not in _METRICS:
            raise ConfigurationError(
                f"unknown SLO metric {self.metric!r}: expected one of {_METRICS}"
            )
        if self.op not in _OPS:
            raise ConfigurationError(f"unknown SLO comparator {self.op!r}")
        if self.metric == "avail" and not 0.0 <= self.threshold <= 100.0:
            raise ConfigurationError(
                f"availability threshold must be a percent in [0, 100]: {self.threshold}"
            )
        if self.metric != "avail" and self.threshold < 0.0:
            raise ConfigurationError(
                f"latency threshold must be >= 0: {self.threshold}"
            )

    def holds(self, value: float) -> bool:
        """Does ``value`` satisfy the bound?"""
        if self.op == "<":
            return value < self.threshold
        if self.op == "<=":
            return value <= self.threshold
        if self.op == ">":
            return value > self.threshold
        return value >= self.threshold

    def describe(self) -> str:
        if self.metric == "avail":
            return f"avail {self.op} {self.threshold:g}%"
        if self.threshold >= 1.0 or self.threshold == 0.0:
            return f"{self.metric} {self.op} {self.threshold:g}s"
        return f"{self.metric} {self.op} {self.threshold * 1e3:g}ms"


def parse_slo(spec: str) -> List[SloObjective]:
    """Parse the ``--slo`` grammar into objectives.

    >>> [o.describe() for o in parse_slo("p99<5ms,avail>=99.9")]
    ['p99 < 5ms', 'avail >= 99.9%']
    """
    objectives: List[SloObjective] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        match = _OBJECTIVE_RE.match(part)
        if match is None:
            raise ConfigurationError(
                f"cannot parse SLO objective {part!r} "
                f"(grammar: METRIC OP VALUE[UNIT], e.g. p99<5ms or avail>=99.9)"
            )
        metric = match.group("metric")
        unit = match.group("unit") or ""
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ConfigurationError(f"bad SLO threshold in {part!r}") from exc
        if metric == "avail":
            if unit:
                raise ConfigurationError(
                    f"availability objectives take a bare percent, not {unit!r}"
                )
            threshold = value
        else:
            threshold = value * _UNITS_S[unit]
        objectives.append(SloObjective(metric=metric, op=match.group("op"), threshold=threshold))
    if not objectives:
        raise ConfigurationError(f"empty SLO spec: {spec!r}")
    return objectives


@dataclass(frozen=True)
class WindowEval:
    """One evaluated window: the measured numbers and what they broke."""

    t_s: float
    interval_s: float
    ops: int
    errors: int
    avail_pct: float
    latency: Dict[str, float]  # metric -> seconds (math.inf for overflow)
    violated: Tuple[str, ...]  # objective describe() strings, spec order


@dataclass(frozen=True)
class AttackWindowStats:
    """Operator view of one attack window."""

    start_s: float
    end_s: float
    degraded_s: float  # violating window-time at/after the attack started
    time_to_recover_s: Optional[float]  # None = never recovered in-observation

    def describe(self) -> str:
        recover = (
            "never recovered"
            if self.time_to_recover_s is None
            else f"recovered {self.time_to_recover_s:.1f}s after attack end"
        )
        return (
            f"attack {self.start_s:.1f}-{self.end_s:.1f}s: "
            f"{self.degraded_s:.1f}s degraded, {recover}"
        )


@dataclass
class SloReport:
    """The full SLO evaluation for one run."""

    objectives: List[SloObjective]
    windows: List[WindowEval] = field(default_factory=list)
    attack_windows: List[AttackWindowStats] = field(default_factory=list)

    @property
    def violation_minutes(self) -> float:
        """Window-minutes with at least one violated objective."""
        return sum(w.interval_s for w in self.windows if w.violated) / 60.0

    @property
    def violation_s(self) -> float:
        """Window-seconds with at least one violated objective."""
        return sum(w.interval_s for w in self.windows if w.violated)

    def error_budget_burn(self) -> Optional[float]:
        """Mean burn rate of the availability error budget (1.0 = the
        budget exactly spends over the observed span; >1 overspends).
        None without an ``avail`` objective or without traffic."""
        budgets = [o for o in self.objectives if o.metric == "avail"]
        if not budgets:
            return None
        budget_frac = max(1e-12, 1.0 - min(o.threshold for o in budgets) / 100.0)
        active = [w for w in self.windows if w.ops + w.errors > 0]
        if not active:
            return None
        burns = [(1.0 - w.avail_pct / 100.0) / budget_frac for w in active]
        return sum(burns) / len(burns)

    def worst(self, metric: str) -> float:
        """Worst windowed value of a metric (max latency, min avail)."""
        if metric == "avail":
            active = [w.avail_pct for w in self.windows if w.ops + w.errors > 0]
            return min(active) if active else 100.0
        values = [w.latency.get(metric, 0.0) for w in self.windows]
        return max(values) if values else 0.0

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict (the dashboard's SLO island)."""
        return {
            "objectives": [o.describe() for o in self.objectives],
            "violation_minutes": self.violation_minutes,
            "error_budget_burn": self.error_budget_burn(),
            "windows": [
                {
                    "t_s": w.t_s,
                    "interval_s": w.interval_s,
                    "ops": w.ops,
                    "errors": w.errors,
                    "avail_pct": w.avail_pct,
                    "latency": {
                        k: (None if math.isinf(v) else v) for k, v in w.latency.items()
                    },
                    "violated": list(w.violated),
                }
                for w in self.windows
            ],
            "attack_windows": [
                {
                    "start_s": a.start_s,
                    "end_s": a.end_s,
                    "degraded_s": a.degraded_s,
                    "time_to_recover_s": a.time_to_recover_s,
                }
                for a in self.attack_windows
            ],
        }

    def render(self) -> str:
        """A terminal-friendly SLO summary table."""
        lines = ["SLO summary"]
        lines.append(
            "  objectives:        " + ", ".join(o.describe() for o in self.objectives)
        )
        lines.append(f"  windows evaluated: {len(self.windows)}")
        lines.append(
            f"  violation time:    {self.violation_s:.1f} s "
            f"({self.violation_minutes:.3f} min)"
        )
        burn = self.error_budget_burn()
        if burn is not None:
            lines.append(f"  error-budget burn: {burn:.2f}x")
        for metric in ("p50", "p99", "p999"):
            worst = self.worst(metric)
            if worst:
                text = "inf" if math.isinf(worst) else f"{worst * 1e3:.1f} ms"
                label = f"worst {metric}:"
                lines.append(f"  {label:<19}{text}")
        if any(w.ops + w.errors for w in self.windows):
            lines.append(f"  worst avail:       {self.worst('avail'):.3f}%")
        for attack in self.attack_windows:
            lines.append(f"  {attack.describe()}")
        return "\n".join(lines)


def _percentiles(series: Optional[TimeSeries], index: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    window = series.windows.get(index) if series is not None else None
    for metric, pct in _LATENCY_METRICS.items():
        if window is None:
            out[metric] = 0.0
        else:
            out[metric] = window.percentile(series.bounds, pct)
    return out


def evaluate_slo(
    recorder: SeriesRecorder,
    objectives: Sequence[SloObjective],
    latency_series: str = LATENCY_SERIES,
    ok_series: str = OPS_OK_SERIES,
    error_series: str = OPS_ERROR_SERIES,
    attack_windows: Optional[Sequence[Tuple[float, Optional[float]]]] = None,
) -> SloReport:
    """Evaluate ``objectives`` window by window over recorded series.

    Windows span the **contiguous** range from the first to the last
    populated window across the three input series — an interior window
    with zero completed operations is a *stall*, not a gap in the data:
    it evaluates as 0% availability (a write blocked across the whole
    window served nobody), which is how a zero-throughput attack regime
    becomes visible violation minutes.  Latency objectives stay vacuous
    on empty windows, and latency percentiles that land in the
    histogram overflow bucket evaluate as ``math.inf`` — always a
    violation of an upper bound, never silently under-stated.
    """
    latency = recorder.get(latency_series)
    ok = recorder.get(ok_series)
    errors = recorder.get(error_series)

    indexes: set = set()
    interval = recorder.interval_s
    for series in (latency, ok, errors):
        if series is not None:
            indexes.update(series.windows)
            interval = series.interval_s
    report = SloReport(objectives=list(objectives))

    index_range = range(min(indexes), max(indexes) + 1) if indexes else range(0)
    for index in index_range:
        ok_count = int(ok.value_at(index, "sum")) if ok is not None else 0
        err_count = int(errors.value_at(index, "sum")) if errors is not None else 0
        total = ok_count + err_count
        avail_pct = 100.0 * ok_count / total if total else 0.0
        percentiles = _percentiles(latency, index)
        violated: List[str] = []
        for objective in objectives:
            if objective.metric == "avail":
                value = avail_pct
            elif total or (latency is not None and index in latency.windows):
                value = percentiles[objective.metric]
            else:
                continue  # latency objectives are vacuous on empty windows
            if not objective.holds(value):
                violated.append(objective.describe())
        report.windows.append(
            WindowEval(
                t_s=index * interval,
                interval_s=interval,
                ops=ok_count,
                errors=err_count,
                avail_pct=avail_pct,
                latency=percentiles,
                violated=tuple(violated),
            )
        )

    if attack_windows:
        _, observed_end = recorder.span_s()
        for start_s, end_s in attack_windows:
            report.attack_windows.append(
                _attack_stats(report.windows, start_s, end_s, observed_end)
            )
    return report


def _attack_stats(
    windows: Sequence[WindowEval],
    start_s: float,
    end_s: Optional[float],
    observed_end_s: float,
) -> AttackWindowStats:
    """Degraded time and recovery for one attack window.

    Degraded time counts violating windows from the attack's start
    onward (the tail after the attack stops is the recovery transient —
    it belongs to this attack).  Time-to-recover is the gap between the
    attack's end and the start of the first non-violating window after
    it; None when every later window (or the last one observed)
    still violates.
    """
    effective_end = observed_end_s if end_s is None else end_s
    degraded = 0.0
    recover_at: Optional[float] = None
    for window in windows:
        window_end = window.t_s + window.interval_s
        if window_end <= start_s:
            continue
        if window.violated:
            degraded += window.interval_s
            if window.t_s >= effective_end:
                recover_at = None  # still broken after the attack stopped
        elif window.t_s >= effective_end and recover_at is None:
            recover_at = window.t_s
    time_to_recover = None if recover_at is None else max(0.0, recover_at - effective_end)
    if not any(w.violated and w.t_s + w.interval_s > start_s for w in windows):
        time_to_recover = 0.0  # the attack never degraded the service
    return AttackWindowStats(
        start_s=start_s,
        end_s=effective_end,
        degraded_s=degraded,
        time_to_recover_s=time_to_recover,
    )


def attack_windows_from_tracer(tracer) -> List[Tuple[float, Optional[float]]]:
    """(start_s, end_s) attack windows from ``attack.on``/``attack.off``
    instants (as emitted by :class:`~repro.core.fleet.DriveRack` and the
    YCSB service simulation).  An ``attack.on`` with no matching ``off``
    yields ``end_s=None`` (still active when observation stopped)."""
    if tracer is None:
        return []
    edges = [
        (event.ts_s, event.name)
        for event in tracer.events
        if event.name in ("attack.on", "attack.off")
    ]
    edges.sort(key=lambda edge: edge[0])
    windows: List[Tuple[float, Optional[float]]] = []
    open_start: Optional[float] = None
    for ts_s, name in edges:
        if name == "attack.on":
            if open_start is None:
                open_start = ts_s
        elif open_start is not None:
            windows.append((open_start, ts_s))
            open_start = None
    if open_start is not None:
        windows.append((open_start, None))
    return windows
