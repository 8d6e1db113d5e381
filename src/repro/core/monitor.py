"""Availability monitoring and crash detection.

Section 4.4 deems "a crash happens when the application stops running
with an error output".  :class:`AvailabilityMonitor` drives monitored
applications on the shared virtual clock while an attack is active and
records when (and with what error signature) each one dies — producing
the rows of Table 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Protocol, runtime_checkable

from repro.errors import (
    ConfigurationError,
    JournalAbort,
    KernelPanic,
    ProcessCrashed,
    ReproError,
    WALSyncError,
)
from repro.obs import telemetry as obs
from repro.obs.trace import NULL_TRACER
from repro.sim.clock import VirtualClock

__all__ = [
    "MonitoredApplication",
    "CrashReport",
    "WatchTruncation",
    "AvailabilityMonitor",
]


@runtime_checkable
class MonitoredApplication(Protocol):
    """Anything the monitor can babysit.

    ``step()`` performs one unit of the application's normal activity
    (serving requests, committing its journal, ...), advancing the
    virtual clock through the I/O it issues.  A crash is signalled by
    raising one of the crash exceptions; the monitor captures it.
    """

    name: str

    def step(self) -> None:
        """Perform one unit of work, raising on crash."""
        ...  # pragma: no cover - protocol signature


@dataclass(frozen=True)
class CrashReport:
    """One observed crash (a Table 3 row)."""

    application: str
    description: str
    time_to_crash_s: float
    error_output: str

    def __str__(self) -> str:
        return (
            f"{self.application}: crashed after {self.time_to_crash_s:.1f}s "
            f"({self.error_output})"
        )


@dataclass(frozen=True)
class WatchTruncation:
    """A watch that ran out of step budget before its deadline.

    The application did not crash, but it was not proven to survive
    either: ``max_steps`` exhausted with ``elapsed_s < deadline_s``.
    Reporting this as plain survival would silently under-count crash
    risk, so the monitor records the truncation separately.
    """

    application: str
    description: str
    elapsed_s: float
    deadline_s: float
    steps: int

    def __str__(self) -> str:
        return (
            f"{self.application}: watch truncated at {self.elapsed_s:.1f}s "
            f"of {self.deadline_s:.1f}s ({self.steps} steps)"
        )


#: Exception types that count as application crashes.
_CRASH_TYPES = (JournalAbort, KernelPanic, ProcessCrashed, WALSyncError)


class AvailabilityMonitor:
    """Runs applications under attack until they crash or survive."""

    def __init__(
        self, clock: VirtualClock, health: Optional["HealthTrackerLike"] = None
    ) -> None:
        self.clock = clock
        self.reports: List[CrashReport] = []
        self.truncations: List[WatchTruncation] = []
        self.health = health
        self._obs = obs.get()

    def watch(
        self,
        app: MonitoredApplication,
        description: str = "",
        deadline_s: float = 300.0,
        max_steps: int = 1_000_000,
    ) -> Optional[CrashReport]:
        """Step ``app`` until it crashes or ``deadline_s`` elapses.

        Returns the crash report (also appended to :attr:`reports`) or
        None if the application survived the attack window.  A watch
        that exhausts ``max_steps`` before the deadline also returns
        None but is recorded in :attr:`truncations` (and surfaced on
        the health timeline / metrics when attached) — "survived" and
        "ran out of budget" are different findings.
        """
        if not 0.0 < deadline_s < math.inf:  # also rejects NaN
            raise ConfigurationError(f"deadline must be positive and finite: {deadline_s}")
        tel = self._obs
        tracer = tel.tracer if tel is not None else NULL_TRACER
        start = self.clock.now
        with tracer.track(f"victim/{app.name}"):
            with tracer.span(
                "monitor.watch",
                self.clock,
                category="monitor",
                args={"app": app.name, "deadline_s": deadline_s},
            ):
                report = self._watch(app, description, deadline_s, max_steps, start)
        truncation = self.truncations[-1] if (
            self.truncations and self.truncations[-1].application == app.name
            and report is None
        ) else None
        if tel is not None:
            if report is not None:
                tracer.instant(
                    "crash",
                    start + report.time_to_crash_s,
                    category="monitor",
                    args={"app": app.name, "error": report.error_output},
                    track=f"victim/{app.name}",
                )
                tel.metrics.counter("monitor_crashes_total", app=app.name).inc()
            elif truncation is not None:
                tracer.instant(
                    "watch.truncated",
                    self.clock.now,
                    category="monitor",
                    args={
                        "app": app.name,
                        "elapsed_s": truncation.elapsed_s,
                        "deadline_s": deadline_s,
                        "steps": truncation.steps,
                    },
                    track=f"victim/{app.name}",
                )
                tel.metrics.counter(
                    "monitor_step_budget_exhausted_total",
                    description=(
                        "Watches that ran out of max_steps before their "
                        "deadline; their survival verdict is unproven."
                    ),
                    app=app.name,
                ).inc()
            else:
                tel.metrics.counter("monitor_survivals_total", app=app.name).inc()
        if self.health is not None:
            if report is not None:
                self.health.mark_crashed(
                    app.name,
                    start + report.time_to_crash_s,
                    detail=report.error_output,
                )
            elif truncation is not None:
                self.health.mark_truncated(
                    app.name, self.clock.now, detail=str(truncation)
                )
        return report

    def _watch(
        self,
        app: MonitoredApplication,
        description: str,
        deadline_s: float,
        max_steps: int,
        start: float,
    ) -> Optional[CrashReport]:
        steps = 0
        while self.clock.elapsed_since(start) < deadline_s and steps < max_steps:
            steps += 1
            try:
                app.step()
            except _CRASH_TYPES as crash:
                report = CrashReport(
                    application=app.name,
                    description=description,
                    time_to_crash_s=self.clock.elapsed_since(start),
                    error_output=f"{type(crash).__name__}: {crash}",
                )
                self.reports.append(report)
                return report
            except ReproError:
                # Transient I/O errors are the application's problem to
                # absorb; if it re-raises them as a crash type we catch
                # that above.  Anything else keeps the app nominally
                # alive, matching the paper's crash criterion.
                continue
        elapsed = self.clock.elapsed_since(start)
        if steps >= max_steps and elapsed < deadline_s:
            self.truncations.append(
                WatchTruncation(
                    application=app.name,
                    description=description,
                    elapsed_s=elapsed,
                    deadline_s=deadline_s,
                    steps=steps,
                )
            )
        return None

    def average_time_to_crash_s(self) -> Optional[float]:
        """Mean crash time across everything watched so far."""
        if not self.reports:
            return None
        return sum(report.time_to_crash_s for report in self.reports) / len(self.reports)


class HealthTrackerLike(Protocol):
    """The slice of :class:`repro.obs.health.HealthTracker` the monitor
    uses (kept structural so core does not import obs.health)."""

    def mark_crashed(self, unit: str, t_s: float, detail: str = "") -> str:
        ...  # pragma: no cover - protocol signature

    def mark_truncated(self, unit: str, t_s: float, detail: str = "") -> None:
        ...  # pragma: no cover - protocol signature
