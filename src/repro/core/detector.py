"""Defender-side attack detection (the paper's future-work direction).

Section 5 argues operators need ways to notice and react to acoustic
attacks.  This module provides two complementary detectors and a fusion
layer:

* :class:`HydrophoneMonitor` — a hydrophone inside/near the vessel
  watching for sustained narrowband tones above ambient;
* :class:`ThroughputAnomalyDetector` — host-side telemetry watching for
  throughput collapse with the drive's retry-storm fingerprint
  (:mod:`repro.hdd.smart`);
* :class:`AcousticAttackDetector` — fuses both: tone + collapse within
  the same window raises an alarm with the estimated attack frequency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.acoustics.spl import pressure_to_spl
from repro.errors import ConfigurationError
from repro.hdd.drive import HardDiskDrive
from repro.hdd.smart import SmartLog

__all__ = [
    "ToneObservation",
    "HydrophoneMonitor",
    "ThroughputAnomalyDetector",
    "AttackAlarm",
    "AcousticAttackDetector",
]


@dataclass(frozen=True)
class ToneObservation:
    """One hydrophone reading: dominant tone frequency and level."""

    time: float
    frequency_hz: float
    level_db: float


class HydrophoneMonitor:
    """Watches for sustained narrowband tones above the ambient floor.

    Feed it observations (from the real signal chain in this simulation:
    the attacker's received level at the hydrophone position); it
    reports a tone once the level has exceeded the ambient floor by
    ``margin_db`` for ``dwell_s`` seconds within a stable band.
    """

    def __init__(
        self,
        ambient_level_db: float = 70.0,
        margin_db: float = 20.0,
        dwell_s: float = 2.0,
        band_tolerance_hz: float = 100.0,
    ) -> None:
        if margin_db <= 0.0 or dwell_s <= 0.0 or band_tolerance_hz <= 0.0:
            raise ConfigurationError("detector parameters must be positive")
        self.ambient_level_db = ambient_level_db
        self.margin_db = margin_db
        self.dwell_s = dwell_s
        self.band_tolerance_hz = band_tolerance_hz
        self._history: Deque[ToneObservation] = deque(maxlen=4096)

    def observe(self, observation: ToneObservation) -> None:
        """Record one reading."""
        self._history.append(observation)

    def observe_pressure(self, time: float, frequency_hz: float, pressure_pa: float) -> None:
        """Convenience: record a reading from a raw pressure amplitude."""
        if pressure_pa <= 0.0:
            return
        self.observe(
            ToneObservation(time, frequency_hz, pressure_to_spl(pressure_pa / 1.41421356))
        )

    def detected_tone(self, now: float) -> Optional[ToneObservation]:
        """The sustained tone active at ``now``, if any."""
        threshold = self.ambient_level_db + self.margin_db
        window = [
            obs
            for obs in self._history
            if now - self.dwell_s <= obs.time <= now and obs.level_db >= threshold
        ]
        if not window:
            return None
        # The tone must dwell: oldest qualifying reading spans the window.
        if window[0].time > now - self.dwell_s + 0.25 * self.dwell_s:
            return None
        anchor = window[-1].frequency_hz
        stable = [
            obs for obs in window if abs(obs.frequency_hz - anchor) <= self.band_tolerance_hz
        ]
        if len(stable) < max(2, len(window) // 2):
            return None
        return stable[-1]


class ThroughputAnomalyDetector:
    """Host telemetry: throughput collapse + drive retry fingerprint."""

    def __init__(
        self,
        drive: HardDiskDrive,
        baseline_mbps: float,
        collapse_fraction: float = 0.5,
    ) -> None:
        if baseline_mbps <= 0.0:
            raise ConfigurationError("baseline must be positive")
        if not 0.0 < collapse_fraction < 1.0:
            raise ConfigurationError("collapse fraction must be in (0, 1)")
        self.drive = drive
        self.baseline_mbps = baseline_mbps
        self.collapse_fraction = collapse_fraction
        self.smart = SmartLog(drive)
        self._latest_mbps = baseline_mbps

    def report_throughput(self, mbps: float) -> None:
        """Feed the latest measured application throughput."""
        self._latest_mbps = mbps
        self.smart.sample()

    @property
    def collapsed(self) -> bool:
        """True when throughput fell below the collapse threshold."""
        return self._latest_mbps <= self.collapse_fraction * self.baseline_mbps

    def anomalous(self) -> bool:
        """Collapse with the acoustic fingerprint (not e.g. idle host)."""
        return self.collapsed and self.smart.vibration_fingerprint()


@dataclass(frozen=True)
class AttackAlarm:
    """A fused detection."""

    time: float
    frequency_hz: float
    level_db: float
    throughput_mbps: float

    def __str__(self) -> str:
        return (
            f"ACOUSTIC ATTACK suspected at t={self.time:.1f}s: "
            f"{self.frequency_hz:.0f} Hz tone at {self.level_db:.0f} dB with "
            f"throughput at {self.throughput_mbps:.1f} MB/s"
        )


class AcousticAttackDetector:
    """Fusion of the hydrophone and host-telemetry detectors."""

    def __init__(
        self, hydrophone: HydrophoneMonitor, telemetry: ThroughputAnomalyDetector
    ) -> None:
        self.hydrophone = hydrophone
        self.telemetry = telemetry
        self.alarms: List[AttackAlarm] = []

    def evaluate(self, now: float) -> Optional[AttackAlarm]:
        """Check both detectors; record and return an alarm if they agree."""
        tone = self.hydrophone.detected_tone(now)
        if tone is None or not self.telemetry.anomalous():
            return None
        alarm = AttackAlarm(
            time=now,
            frequency_hz=tone.frequency_hz,
            level_db=tone.level_db,
            throughput_mbps=self.telemetry._latest_mbps,
        )
        self.alarms.append(alarm)
        return alarm
