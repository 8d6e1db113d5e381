"""SMART-style health telemetry and attack forensics.

Real drives expose S.M.A.R.T. counters that an operator (or an incident
responder) reads after anomalies.  :class:`SmartLog` derives the
familiar attributes from the simulated drive's counters and adds a
sliding-window anomaly view used by the defender-side detector: a burst
of seek/retry errors with no temperature event and no host-side
misbehaviour is the acoustic attack's fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.hdd.drive import HardDiskDrive

__all__ = ["SmartAttribute", "SmartLog"]

#: Conventional SMART attribute ids.
RAW_READ_ERROR_RATE = 1
SEEK_ERROR_RATE = 7
POWER_ON_HOURS = 9
GSENSE_ERROR_RATE = 191
COMMAND_TIMEOUT = 188
REALLOCATED_EVENTS = 196


@dataclass(frozen=True)
class SmartAttribute:
    """One reported attribute."""

    attr_id: int
    name: str
    raw_value: int
    normalized: int  # 100 = pristine, lower = worse

    def __str__(self) -> str:
        return f"{self.attr_id:3d} {self.name:<22} raw={self.raw_value} norm={self.normalized}"


@dataclass
class _Sample:
    time: float
    retries: int
    timeouts: int
    medium_errors: int


class SmartLog:
    """Derives SMART attributes and retry-burst forensics for one drive."""

    def __init__(self, drive: HardDiskDrive, window_s: float = 10.0) -> None:
        if window_s <= 0.0:
            raise ConfigurationError(f"window must be positive: {window_s}")
        self.drive = drive
        self.window_s = window_s
        self._samples: List[_Sample] = []
        self.sample()  # baseline

    # -- sampling -----------------------------------------------------------------

    def sample(self) -> None:
        """Record the drive's counters at the current virtual time."""
        stats = self.drive.stats
        self._samples.append(
            _Sample(
                time=self.drive.clock.now,
                retries=stats.retries,
                timeouts=stats.timeouts,
                medium_errors=stats.medium_errors,
            )
        )
        horizon = self.drive.clock.now - 10.0 * self.window_s
        while len(self._samples) > 2 and self._samples[1].time < horizon:
            self._samples.pop(0)

    def _window(self) -> "tuple[_Sample, _Sample]":
        latest = self._samples[-1]
        cutoff = latest.time - self.window_s
        earliest = self._samples[0]
        for sample in self._samples:
            if sample.time <= cutoff:
                earliest = sample
            else:
                break
        return earliest, latest

    # -- derived attributes --------------------------------------------------------

    def attributes(self) -> List[SmartAttribute]:
        """The current SMART table."""
        stats = self.drive.stats
        total_ops = max(1, stats.reads + stats.writes)
        retry_permille = min(999_999, int(1000 * stats.retries / total_ops))
        hours = int(self.drive.clock.now / 3600.0)

        def norm(raw: int, scale: int) -> int:
            return max(1, 100 - min(99, raw // max(1, scale)))

        return [
            SmartAttribute(RAW_READ_ERROR_RATE, "Raw_Read_Error_Rate",
                           stats.medium_errors, norm(stats.medium_errors, 1)),
            SmartAttribute(SEEK_ERROR_RATE, "Seek_Error_Rate",
                           retry_permille, norm(retry_permille, 20)),
            SmartAttribute(POWER_ON_HOURS, "Power_On_Hours", hours, 100),
            SmartAttribute(COMMAND_TIMEOUT, "Command_Timeout",
                           stats.timeouts, norm(stats.timeouts, 1)),
            SmartAttribute(GSENSE_ERROR_RATE, "G-Sense_Error_Rate",
                           stats.shock_parks, norm(stats.shock_parks, 1)),
            SmartAttribute(REALLOCATED_EVENTS, "Reallocated_Event_Count",
                           stats.medium_errors, norm(stats.medium_errors, 2)),
        ]

    def attribute(self, attr_id: int) -> SmartAttribute:
        """Look one attribute up by id."""
        for attr in self.attributes():
            if attr.attr_id == attr_id:
                return attr
        raise ConfigurationError(f"unknown SMART attribute id {attr_id}")

    # -- forensics -------------------------------------------------------------------

    def retry_rate_per_second(self) -> float:
        """Retries per second over the sampling window."""
        earliest, latest = self._window()
        elapsed = latest.time - earliest.time
        if elapsed <= 0.0:
            return 0.0
        return (latest.retries - earliest.retries) / elapsed

    def timeout_rate_per_second(self) -> float:
        """Host timeouts per second over the sampling window."""
        earliest, latest = self._window()
        elapsed = latest.time - earliest.time
        if elapsed <= 0.0:
            return 0.0
        return (latest.timeouts - earliest.timeouts) / elapsed

    def vibration_fingerprint(self, retry_threshold_per_s: float = 50.0) -> bool:
        """Heuristic: does the window look like acoustic interference?

        A retry storm (or any command timeouts) without ultrasonic
        shock-sensor events is the audible-band attack signature; real
        drops/knocks fire the G-sense counter instead.
        """
        storm = (
            self.retry_rate_per_second() >= retry_threshold_per_s
            or self.timeout_rate_per_second() > 0.0
        )
        return storm and self.drive.stats.shock_parks == 0

    def report(self) -> str:
        """smartctl-style text report."""
        lines = [f"SMART report for {self.drive.profile.name}"]
        lines.extend(str(attr) for attr in self.attributes())
        lines.append(
            f"window: {self.retry_rate_per_second():.1f} retries/s, "
            f"{self.timeout_rate_per_second():.2f} timeouts/s, "
            f"acoustic fingerprint: {'YES' if self.vibration_fingerprint() else 'no'}"
        )
        return "\n".join(lines)
