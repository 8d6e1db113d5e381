"""Candidate defenses from Section 5 ("In-air Defenses").

The paper lists defenses proposed for the in-air attack and asks
whether they transfer underwater: acoustically absorbing materials,
mechanical vibration dampening, and firmware (servo feed-forward /
filtering) changes.  Each defense here transforms one stage of the
coupling chain, so :func:`evaluate_defense` can re-run any experiment
with the defense installed and report residual vulnerability — and each
carries the thermal penalty the paper warns about (insulating a sealed
vessel costs cooling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError, UnitError
from repro.hdd.servo import ServoSystem

from .scenario import Scenario

__all__ = [
    "Defense",
    "AbsorbentCoating",
    "VibrationIsolators",
    "FirmwareNotchFilter",
    "DefendedScenario",
    "evaluate_defense",
]


@dataclass
class Defense:
    """Base defense: a transparent pass-through.

    Attributes:
        name: label for reports.
        thermal_penalty_c: extra steady-state temperature the defense
            costs the enclosure (Section 5: "these defenses may cause
            overheating").
    """

    name: str = "no defense"
    thermal_penalty_c: float = 0.0

    def pressure_factor(self, frequency_hz: float) -> float:
        """Multiplier on the pressure reaching the wall (<= 1 helps)."""
        return 1.0

    def displacement_factor(self, frequency_hz: float) -> float:
        """Multiplier on chassis displacement reaching the drive."""
        return 1.0

    def harden_servo(self, servo: ServoSystem) -> ServoSystem:
        """Return a (possibly modified) servo for firmware defenses."""
        return servo


@dataclass
class AbsorbentCoating(Defense):
    """Acoustically absorbing coating (e.g. metallic foam) on the wall.

    Insertion loss grows with frequency and coating thickness; thick
    coatings insulate the vessel thermally, so the penalty scales too.
    """

    thickness_m: float = 0.02
    loss_db_per_cm_at_1khz: float = 3.0

    def __post_init__(self) -> None:
        if self.thickness_m <= 0.0:
            raise UnitError("coating thickness must be positive")
        if self.loss_db_per_cm_at_1khz <= 0.0:
            raise UnitError("coating loss must be positive")
        self.name = f"absorbent coating ({self.thickness_m * 100:.0f} cm foam)"
        # ~0.4 C of cooling headroom lost per cm of foam on the vessel.
        self.thermal_penalty_c = 40.0 * self.thickness_m

    def pressure_factor(self, frequency_hz: float) -> float:
        if frequency_hz <= 0.0:
            raise UnitError(f"frequency must be positive: {frequency_hz}")
        loss_db = (
            self.loss_db_per_cm_at_1khz
            * (self.thickness_m * 100.0)
            * math.sqrt(frequency_hz / 1000.0)
        )
        return 10.0 ** (-loss_db / 20.0)


@dataclass
class VibrationIsolators(Defense):
    """Elastomer isolators between the rack and the drive caddies.

    A classic isolation mount: unity below its natural frequency, mild
    amplification at resonance, then -12 dB/octave above.  Effective
    when the isolator corner sits well below the attack band.
    """

    corner_hz: float = 80.0
    damping_ratio: float = 0.25

    def __post_init__(self) -> None:
        if self.corner_hz <= 0.0:
            raise UnitError("isolator corner must be positive")
        if not 0.0 < self.damping_ratio < 1.0:
            raise UnitError("damping ratio must be in (0, 1)")
        self.name = f"vibration isolators ({self.corner_hz:.0f} Hz)"
        self.thermal_penalty_c = 1.5  # rubber mounts impede conduction a little

    def displacement_factor(self, frequency_hz: float) -> float:
        if frequency_hz <= 0.0:
            raise UnitError(f"frequency must be positive: {frequency_hz}")
        r = frequency_hz / self.corner_hz
        num = 1.0 + (2.0 * self.damping_ratio * r) ** 2
        den = (1.0 - r * r) ** 2 + (2.0 * self.damping_ratio * r) ** 2
        return math.sqrt(num / den)


@dataclass
class FirmwareNotchFilter(Defense):
    """Firmware servo hardening (Bolton et al.'s suggested defense).

    Models an augmented feedback controller that widens the rejection
    band: the modified servo's rejection corner moves up, attenuating
    disturbances across more of the audio band at the cost of tracking
    performance margins (no thermal penalty).
    """

    corner_multiplier: float = 1.8

    def __post_init__(self) -> None:
        if self.corner_multiplier <= 1.0:
            raise ConfigurationError("corner multiplier must exceed 1")
        self.name = f"firmware notch filter (x{self.corner_multiplier:.1f} corner)"
        self.thermal_penalty_c = 0.0

    def harden_servo(self, servo: ServoSystem) -> ServoSystem:
        from dataclasses import replace

        return replace(
            servo, rejection_corner_hz=servo.rejection_corner_hz * self.corner_multiplier
        )


class DefendedScenario(Scenario):
    """A scenario with a defense spliced into the coupling chain."""

    def __init__(self, base: Scenario, defense: Defense) -> None:
        super().__init__(
            name=f"{base.name} + {defense.name}",
            enclosure=base.enclosure,
            mount=base.mount,
            hdd_offset_m=base.hdd_offset_m,
            calibration=base.calibration,
        )
        self.base = base
        self.defense = defense

    def chassis_displacement_m(self, pressure_amplitude_pa: float, frequency_hz: float) -> float:
        guarded_pressure = pressure_amplitude_pa * self.defense.pressure_factor(frequency_hz)
        displacement = self.base.chassis_displacement_m(guarded_pressure, frequency_hz)
        return displacement * self.defense.displacement_factor(frequency_hz)


def evaluate_defense(
    defense: Defense,
    scenario: Optional[Scenario] = None,
    frequency_hz: float = 650.0,
    pressure_amplitude_pa: float = 14.14,
) -> "dict[str, float]":
    """Quick attenuation summary of a defense at one attack tone.

    Returns the undefended and defended chassis displacements plus the
    insertion loss in dB and the thermal penalty, without running a full
    workload — the defense ablation builds its table from this.
    """
    base = scenario if scenario is not None else Scenario.scenario_2()
    defended = DefendedScenario(base, defense)
    before = base.chassis_displacement_m(pressure_amplitude_pa, frequency_hz)
    after = defended.chassis_displacement_m(pressure_amplitude_pa, frequency_hz)
    loss_db = 20.0 * math.log10(before / after) if after > 0.0 else math.inf
    return {
        "undefended_displacement_m": before,
        "defended_displacement_m": after,
        "insertion_loss_db": loss_db,
        "thermal_penalty_c": defense.thermal_penalty_c,
    }
