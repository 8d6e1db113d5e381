"""The three evaluation scenarios of the case study (Figure 1).

* **Scenario 1** — victim HDD directly on the bottom of a hard plastic
  container.
* **Scenario 2** — HDD in the second-from-bottom bay of a 5-in-3
  storage tower inside the plastic container (the "more realistic"
  rack-like setup used for Tables 1-3).
* **Scenario 3** — HDD in the storage tower inside an aluminum
  container.

A scenario is an enclosure plus a mount plus the victim drive's offset
behind the wall (3 cm in the paper), wired with the calibration
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import UnitError
from repro.vibration.enclosure import Enclosure
from repro.vibration.mount import DirectPlacement, Mount, StorageTower

from .calibration import CalibrationConstants, DEFAULT_CALIBRATION

__all__ = ["Scenario"]


@dataclass
class Scenario:
    """One physical arrangement of enclosure, mount, and victim drive."""

    name: str
    enclosure: Enclosure
    mount: Mount
    hdd_offset_m: float = 0.03
    calibration: CalibrationConstants = field(default=DEFAULT_CALIBRATION)

    def __post_init__(self) -> None:
        if self.hdd_offset_m <= 0.0:
            raise UnitError(f"HDD offset must be positive: {self.hdd_offset_m}")

    def chassis_displacement_m(self, pressure_amplitude_pa: float, frequency_hz: float) -> float:
        """Drive-chassis displacement for an incident pressure amplitude.

        wall forced-panel response x calibrated structural coupling x
        mount transmissibility.
        """
        if pressure_amplitude_pa < 0.0:
            raise UnitError(f"pressure must be non-negative: {pressure_amplitude_pa}")
        if pressure_amplitude_pa == 0.0:
            return 0.0
        wall = self.enclosure.frame_displacement_per_pascal(frequency_hz)
        coupling = self.calibration.structure_coupling
        mount = self.mount.transmissibility(frequency_hz)
        return pressure_amplitude_pa * wall * coupling * mount

    # -- the paper's three scenarios ----------------------------------------

    @staticmethod
    def scenario_1(calibration: Optional[CalibrationConstants] = None) -> "Scenario":
        """Plastic container, drive on the container bottom."""
        cal = calibration if calibration is not None else DEFAULT_CALIBRATION
        mount = DirectPlacement()
        mount.base_gain = cal.direct_mount_gain
        return Scenario(
            name="Scenario 1",
            enclosure=Enclosure.hard_plastic(),
            mount=mount,
            calibration=cal,
        )

    @staticmethod
    def scenario_2(calibration: Optional[CalibrationConstants] = None) -> "Scenario":
        """Plastic container, drive in the storage tower (bay 1)."""
        cal = calibration if calibration is not None else DEFAULT_CALIBRATION
        mount = StorageTower(bay=1)
        mount.base_gain *= cal.tower_mount_gain
        return Scenario(
            name="Scenario 2",
            enclosure=Enclosure.hard_plastic(),
            mount=mount,
            calibration=cal,
        )

    @staticmethod
    def scenario_3(calibration: Optional[CalibrationConstants] = None) -> "Scenario":
        """Aluminum container, drive in the storage tower (bay 1)."""
        cal = calibration if calibration is not None else DEFAULT_CALIBRATION
        mount = StorageTower(bay=1)
        mount.base_gain *= cal.tower_mount_gain
        enclosure = Enclosure.aluminum()
        enclosure.structural_gain *= cal.metal_coupling_penalty
        enclosure.stiffness_rolloff_hz = cal.metal_rolloff_hz
        return Scenario(
            name="Scenario 3",
            enclosure=enclosure,
            mount=mount,
            calibration=cal,
        )

    @staticmethod
    def all_three(calibration: Optional[CalibrationConstants] = None) -> "list[Scenario]":
        """The three case-study scenarios, in paper order."""
        return [
            Scenario.scenario_1(calibration),
            Scenario.scenario_2(calibration),
            Scenario.scenario_3(calibration),
        ]
