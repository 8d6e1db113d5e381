"""Campaign progress and throughput reporting.

Replaces the ad-hoc ``progress`` callback that
:meth:`~repro.core.attack.AttackSession.frequency_sweep` used to take:
the runner drives a :class:`ProgressReporter` that prints measured
points per second and an ETA, and distinguishes fresh measurements from
cache hits.  Output goes to ``stderr`` by default so piped CSV/table
output stays clean.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO

__all__ = ["ProgressReporter"]

#: Sentinel distinguishing "default to stderr" from an explicit None.
_STDERR = object()


def _format_eta(seconds: float) -> str:
    if seconds < 0.0 or seconds != seconds:  # negative or NaN
        return "--"
    if seconds < 59.95:
        # Anything that would render as "60.0s" belongs in the minute
        # branch below (no more "60.0s" / "59m60s" carry artifacts).
        return f"{seconds:.1f}s"
    total_minutes, rest = divmod(int(round(seconds)), 60)
    if total_minutes < 60:
        return f"{total_minutes}m{rest:02d}s"
    hours, minutes = divmod(total_minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Tracks completed points and reports throughput + ETA.

    Args:
        total: number of points in the campaign.
        label: campaign name shown in every line.
        stream: destination (default ``sys.stderr``); None silences
            output while still keeping counters, which is what the
            library tests use.
        min_interval_s: wall-time throttle between printed lines (the
            final summary always prints).
        time_fn: monotonic time source, injectable for tests.
        telemetry: optional :class:`~repro.obs.telemetry.Telemetry`
            bundle; each advanced point bumps
            ``campaign_points_total{source="fresh"|"cached"}`` on its
            metrics registry.
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        stream: object = _STDERR,
        min_interval_s: float = 0.5,
        time_fn: Callable[[], float] = time.monotonic,
        telemetry=None,
    ) -> None:
        self.total = max(0, int(total))
        self.label = label
        self.stream: Optional[TextIO] = sys.stderr if stream is _STDERR else stream
        self.min_interval_s = min_interval_s
        self._time_fn = time_fn
        self.telemetry = telemetry
        self.completed = 0
        self.cached = 0
        self.resumed = 0
        self.failed = 0
        self.retries = 0
        self._started_at: Optional[float] = None
        self._last_emit_at = float("-inf")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Mark the campaign start (idempotent)."""
        if self._started_at is None:
            self._started_at = self._time_fn()

    def advance(
        self, cached: bool = False, resumed: bool = False, failed: bool = False
    ) -> None:
        """Record one completed point.

        ``cached`` = served from the result cache, ``resumed`` = served
        from a resumed checkpoint journal, ``failed`` = the point
        degraded to a recorded failure row (it still counts as
        completed: the campaign moved past it).
        """
        self.start()
        self.completed += 1
        if cached:
            self.cached += 1
        if resumed:
            self.resumed += 1
        if failed:
            self.failed += 1
        if self.telemetry is not None:
            source = "fresh"
            if cached:
                source = "cached"
            elif resumed:
                source = "resumed"
            self.telemetry.metrics.counter(
                "campaign_points_total", label=self.label, source=source
            ).inc()
        now = self._time_fn()
        if self.completed >= self.total or now - self._last_emit_at >= self.min_interval_s:
            self._last_emit_at = now
            self._emit(now)

    def note_retry(self) -> None:
        """Record one retried attempt (does not advance completion)."""
        self.retries += 1

    def finish(self) -> str:
        """Print and return the final summary line."""
        self.start()
        line = self.summary()
        self._write(line)
        return line

    # -- reporting ---------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Seconds since :meth:`start`."""
        if self._started_at is None:
            return 0.0
        return max(0.0, self._time_fn() - self._started_at)

    @property
    def points_per_second(self) -> float:
        """Completed points per wall second so far."""
        elapsed = self.elapsed_s
        if elapsed <= 0.0:
            return 0.0
        return self.completed / elapsed

    @property
    def fresh(self) -> int:
        """Points actually measured (not served from cache or journal)."""
        return self.completed - self.cached - self.resumed

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed points served from the cache."""
        if self.completed == 0:
            return 0.0
        return self.cached / self.completed

    @property
    def eta_s(self) -> float:
        """Estimated seconds remaining at the current rate.

        0.0 once nothing remains (including the ``total=0`` campaign);
        NaN while no rate is measurable yet.
        """
        if self.total <= self.completed:
            return 0.0
        rate = self.points_per_second
        if rate <= 0.0:
            return float("nan")
        return (self.total - self.completed) / rate

    def summary(self) -> str:
        """One-line campaign summary: fresh and cached rates separately.

        Resume, retry, and failure counts only appear when non-zero so
        the healthy-path line stays unchanged.
        """
        extras = ""
        if self.resumed:
            extras += f", {self.resumed} resumed"
        if self.retries:
            extras += f", {self.retries} retries"
        if self.failed:
            extras += f", {self.failed} failed"
        return (
            f"[{self.label}] {self.completed}/{self.total} points in "
            f"{self.elapsed_s:.1f}s ({self.points_per_second:.1f} points/s: "
            f"{self.fresh} fresh, {self.cached} from cache "
            f"[{100.0 * self.cache_hit_rate:.0f}% hit]{extras})"
        )

    def _emit(self, now: float) -> None:
        rate = self.points_per_second
        self._write(
            f"[{self.label}] {self.completed}/{self.total} points  "
            f"{rate:.1f} points/s  ETA {_format_eta(self.eta_s)}"
        )

    def _write(self, line: str) -> None:
        if self.stream is None:
            return
        try:
            self.stream.write(line + "\n")
            self.stream.flush()
        except (OSError, ValueError):  # closed/broken stream: keep measuring
            pass
