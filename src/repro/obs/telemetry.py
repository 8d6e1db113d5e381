"""The process-wide telemetry switchboard.

A :class:`Telemetry` bundles one :class:`~repro.obs.trace.Tracer`, one
:class:`~repro.obs.metrics.MetricsRegistry`, and one
:class:`~repro.obs.timeseries.SeriesRecorder`.  Exactly one bundle
(or none) is *installed* at a time; instrumented components look the
active bundle up **when they are constructed**, so a campaign enables
telemetry by installing a bundle before it builds its rigs.

With nothing installed, :func:`get` returns None and every component's
guard (``if self._obs is not None``) falls through: no records, no
counter bumps, no RNG or clock interaction — the disabled path is the
pre-telemetry code, bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import MetricsRegistry
from .timeseries import SeriesRecorder
from .trace import NULL_TRACER, Tracer

__all__ = ["Telemetry", "get", "install", "enabled", "tracer", "session"]


class Telemetry:
    """One tracer + metrics registry + series recorder, enabled as a unit."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        series: Optional[SeriesRecorder] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.series = series if series is not None else SeriesRecorder()


_active: Optional[Telemetry] = None


def get() -> Optional[Telemetry]:
    """The installed bundle, or None while telemetry is disabled."""
    return _active


def enabled() -> bool:
    """True when a telemetry bundle is installed."""
    return _active is not None


def install(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install ``telemetry`` (None disables); returns the previous bundle.

    Components capture the bundle at construction, so install *before*
    building the rigs that should report into it.
    """
    global _active
    previous = _active
    _active = telemetry
    return previous


def tracer():
    """The active tracer, or the shared no-op recorder when disabled.

    For cold paths that want to record unconditionally without keeping
    their own guard; hot paths should capture :func:`get` once instead.
    """
    return _active.tracer if _active is not None else NULL_TRACER


@contextmanager
def session(
    telemetry: Optional[Telemetry] = None,
) -> Iterator[Telemetry]:
    """Install a bundle for the duration of the block.

    Yields the bundle (a fresh one unless given) and restores whatever
    was installed before, even on error::

        with obs.session() as tel:
            result = run_table3()
        write_chrome_trace(tel.tracer, "table3-trace.json")
    """
    bundle = telemetry if telemetry is not None else Telemetry()
    previous = install(bundle)
    try:
        yield bundle
    finally:
        install(previous)
