"""The end-to-end coupling chain.

``AttackCoupling`` is the function at the heart of the reproduction:
given an attack configuration, an environment, and a scenario, it
computes the :class:`~repro.hdd.servo.VibrationInput` (frequency +
chassis displacement amplitude) experienced by the victim drive:

    source level --propagation--> wall pressure --enclosure/mount-->
    chassis displacement

The drive's servo model then turns that into off-track excursion and
fault probabilities.  Keeping the chain explicit (rather than burying it
in the drive) lets experiments swap any stage: different water, a
different container, a defense coating, a different mount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hdd.drive import HardDiskDrive
from repro.hdd.servo import OpKind, VibrationInput

from .attacker import AcousticAttacker, AttackConfig
from .environment import UnderwaterEnvironment
from .scenario import Scenario

__all__ = ["AttackCoupling"]


@dataclass
class AttackCoupling:
    """Binds attacker, environment, and scenario into one transfer chain."""

    environment: UnderwaterEnvironment
    scenario: Scenario
    attacker: AcousticAttacker = field(default_factory=AcousticAttacker.commercial_rig)

    def wall_pressure_pa(self, config: AttackConfig) -> float:
        """Peak pressure amplitude at the enclosure wall, Pa."""
        level = self.attacker.emitted_level_db(config)
        # The wave travels from the speaker to the wall; the drive sits
        # a further hdd_offset behind it, but inside the enclosure the
        # structural path dominates, so the wall distance is what counts.
        return self.environment.pressure_amplitude_pa(
            level, config.distance_m, config.frequency_hz
        )

    def vibration_at_drive(self, config: AttackConfig) -> VibrationInput:
        """Chassis vibration induced at the victim drive."""
        pressure = self.wall_pressure_pa(config)
        return VibrationInput(
            frequency_hz=config.frequency_hz,
            displacement_m=self.scenario.chassis_displacement_m(
                pressure, config.frequency_hz
            ),
        )

    def apply(self, drive: HardDiskDrive, config: Optional[AttackConfig]) -> VibrationInput:
        """Point the speaker at the drive (or silence it with None)."""
        if config is None:
            vibration = VibrationInput.none()
        else:
            vibration = self.vibration_at_drive(config)
        drive.set_vibration(vibration)
        return vibration

    def offtrack_ratio(self, config: AttackConfig, op: OpKind = OpKind.WRITE) -> float:
        """Predicted head excursion over the op threshold for ``config``.

        Values >= 1 predict faults; >= servo_limit/threshold predicts the
        no-response regime.  Used by the attack planner and ablations
        without running any workload.
        """
        from repro.hdd.profiles import BARRACUDA_500GB

        servo = BARRACUDA_500GB.servo
        vibration = self.vibration_at_drive(config)
        return servo.offtrack_amplitude_m(vibration) / servo.threshold_m(op)

    @staticmethod
    def paper_setup(scenario: Optional[Scenario] = None) -> "AttackCoupling":
        """The case-study rig: tank water, Scenario 2, commercial speaker."""
        return AttackCoupling(
            environment=UnderwaterEnvironment.tank(),
            scenario=scenario if scenario is not None else Scenario.scenario_2(),
        )
